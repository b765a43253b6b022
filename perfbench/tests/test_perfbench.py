"""Self-tests of the benchmark on a tiny matrix.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import freeclt  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "report-ladder",
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


def _measures(wl):
    return {name: freeclt.make_measure(spec) for name, spec in wl.specs.items()}


def _corrupt(dens):
    """The same power with every density value scaled by 1 + 1e-6."""
    scale = 1.0 + 1e-6
    tables = tuple(freeclt.DensityTable(t.grid, t.values * scale, t.support,
                                        t.edge_orders, expected_mass=None)
                   for t in dens.tables)
    return dataclasses.replace(dens, tables=tables,
                               mass=dens.mass * scale)


@pytest.mark.parametrize("workload,op", [
    ("ac-flow", workloads.Op("flow_row", "semicircle", 4)),
    ("atomic-compare", workloads.Op("compare", "coin", 4)),
])
def test_corrupted_density_counts_as_failed(monkeypatch, tmp_path,
                                            workload, op):
    wl = workloads.build(workload, 1)
    measures = _measures(wl)
    clean, _ = run.run_op(freeclt, wl, measures, op, tmp_path, 120.0)
    assert clean.failures == []

    honest = freeclt.clt_density_flow
    monkeypatch.setattr(freeclt, "clt_density_flow",
                        lambda mu, n, **kw: _corrupt(honest(mu, n, **kw)))
    tally = run.Tally()
    out, wall = run.run_op(freeclt, wl, measures, op, tmp_path, 120.0)
    tally.add(op, out, wall)
    assert tally.attempted == 1 and tally.failed == 1
    assert any("mass" in f for f in out.failures)


def test_operation_past_its_budget_counts_as_failed(tmp_path):
    import signal

    wl = workloads.build("atomic-compare", 1)
    op = workloads.Op("compare", "asym", 16)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        out, wall = run.run_op(freeclt, wl, _measures(wl), op, tmp_path, 0.3)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert wall < 5.0
    assert len(out.failures) == 1 and "budget" in out.failures[0]


def test_seed_draws_order_and_three_atom_law():
    a, b = workloads.build("atomic-compare", 5), workloads.build(
        "atomic-compare", 5)
    assert a.specs == b.specs and [o.label for o in a.ops] == \
        [o.label for o in b.ops]
    laws = {json.dumps(workloads.build("atomic-compare", s).specs["three"])
            for s in range(8)}
    assert len(laws) == 8
    for s in range(8):
        wl = workloads.build("atomic-compare", s)
        atoms = wl.specs["three"]["atoms"]
        w = np.array([a["w"] for a in atoms])
        x = np.array([a["x"] for a in atoms])
        assert w.max() < 0.7 and abs(w.sum() - 1.0) < 1e-12
        assert abs(w @ x) < 1e-12 and abs(w @ x ** 2 - 1.0) < 1e-12
        assert len({(o.seed, o.n) for o in wl.ops}) == 9
    flow = workloads.build("ac-flow", 2).ops
    assert sorted(o.seed for o in flow) == sorted(
        workloads.build("ac-flow", 2).specs)
    assert sorted(o.n for o in flow) == [4, 4, 64, 64]


def _conftest():
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        pytest.skip("the test suite's conftest.py is not present")
    spec = importlib.util.spec_from_file_location("suite_conftest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_oracles_agree_with_the_test_suite():
    suite = _conftest()
    assert oracles.COIN_PINS == suite.BERNOULLI_PINS
    assert oracles.ASYM_PINS == suite.ASYM_PINS
    assert oracles.COIN_SPEC == suite.BERNOULLI_SPEC
    assert oracles.ASYM_SPEC == suite.ASYM_SPEC
    x = np.linspace(-2.1, 2.1, 301)
    for m in (4, 16, 64):
        assert np.array_equal(oracles.kesten_density(x, m),
                              suite.kesten_density(x, m))
