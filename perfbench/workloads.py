"""The benchmark's workloads: seed specs, operation matrices and output gates.

A workload is a list of operations drawn from the workload seed.  An
operation calls freeclt's public API, times the calls, and then checks what
came back against the tolerances in `oracles`.  The program only ever sees
the generated measure specs.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracles

FAMILY_SPECS = {
    "uniform": {"density": {"family": "uniform",
                            "params": {"a": -math.sqrt(3.0),
                                       "b": math.sqrt(3.0)}}},
    "arcsine": {"density": {"family": "arcsine",
                            "params": {"a": -oracles.SQRT2,
                                       "b": oracles.SQRT2}}},
    "semicircle": {"density": {"family": "semicircle",
                               "params": {"variance": 1.0}}},
}

LADDER = (4, 8, 16, 32, 64)
P_LIST = (0.6, 1.0, 2.0)
SWEEP_GRID = "-2.2:2.2:513"


def mixture_spec() -> dict:
    """Atom of weight 0.2 at 0 plus 0.8 x a 401-point tabulated semicircle of
    variance 1.25, standardized by the library."""
    var = 1.25
    r = 2.0 * math.sqrt(var)
    x = np.linspace(-r, r, 401)
    p = 0.8 * np.sqrt(np.maximum(4.0 * var - x * x, 0.0)) / (2.0 * math.pi * var)
    return {"atoms": [{"x": 0.0, "w": 0.2}],
            "density": {"table": [[float(a), float(b)] for a, b in zip(x, p)]},
            "standardize": True}


def three_atom_spec(rng: np.random.Generator) -> dict:
    """Random standardized three-atom law, every weight below 0.7.

    Weights below 0.7 keep every power n >= 4 atomless (an atom survives
    only when w > 1 - 1/n); the atoms are kept apart so that the law is
    not a near-duplicate of a two-atom law.
    """
    while True:
        w = rng.dirichlet((2.0, 2.0, 2.0))
        if w.max() < 0.7:
            break
    while True:
        x = np.sort(rng.uniform(-1.0, 1.0, 3))
        if np.min(np.diff(x)) > 0.25:
            break
    mean = float(np.dot(w, x))
    sd = math.sqrt(float(np.dot(w, (x - mean) ** 2)))
    x = (x - mean) / sd
    w = w / w.sum()
    return {"atoms": [{"x": float(a), "w": float(b)} for a, b in zip(x, w)]}


@dataclass
class Op:
    """One timed call pattern on one seed."""
    kind: str
    seed: str
    n: int = 0
    ladder: Tuple[int, ...] = LADDER

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.seed}:{self.n}" if self.n else \
            f"{self.kind}:{self.seed}"


@dataclass
class Outcome:
    """What one operation delivered and what its gates found."""
    powers: int = 0                 # powers (densities or report rows) delivered
    busy_s: float = 0.0             # time spent inside freeclt calls
    route_s: Dict[str, float] = field(default_factory=dict)
    rows: int = 0                   # report rows delivered by library calls
    failures: List[str] = field(default_factory=list)
    figures: Dict[str, float] = field(default_factory=dict)

    def note(self, name: str, value: float) -> None:
        """Keep the worst (largest) value of an accuracy figure."""
        self.figures[name] = max(self.figures.get(name, -math.inf), value)

    def gate(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass
class Workload:
    name: str
    specs: Dict[str, dict]
    ops: List[Op]
    needs_nodes: bool   # whether its operations build the 4096-node rule


def build(name: str, seed: int) -> Workload:
    """Seed specs and one pass of operations, in the order the seed draws."""
    rng = np.random.default_rng(seed)
    if name == "atomic-compare":
        specs = {"coin": oracles.COIN_SPEC, "asym": oracles.ASYM_SPEC,
                 "three": three_atom_spec(rng)}
        ops = [Op("compare", s, n) for s in specs for n in (4, 16, 64)]
        needs_nodes = True
    elif name == "ac-flow":
        specs = dict(FAMILY_SPECS, mixture=mixture_spec())
        # every seed once per pass, two at the small power and two at the
        # large one; the seed draws which
        small = set(rng.permutation(sorted(specs))[:2])
        ops = [Op("flow_row", s, 4 if s in small else 64) for s in specs]
        needs_nodes = True
    elif name == "report-ladder":
        specs = {"coin": oracles.COIN_SPEC, "asym": oracles.ASYM_SPEC}
        ops = [Op("report", "coin"), Op("report", "asym"),
               Op("sweep", "coin")]
        needs_nodes = False
    else:
        raise KeyError(name)
    order = rng.permutation(len(ops))
    return Workload(name, specs, [ops[i] for i in order], needs_nodes)


def tiny(ops: List[Op]) -> List[Op]:
    """The first operation of each kind, reports over a two-rung ladder."""
    kept: Dict[str, Op] = {}
    for op in ops:
        kept.setdefault(op.kind, Op(op.kind, op.seed, op.n, (4, 8)))
    return list(kept.values())


# -- gates ------------------------------------------------------------------

def gate_moments(out: Outcome, dens, where: str) -> None:
    err_mass = abs(dens.mass - 1.0)
    err_mean = abs(dens.mean)
    err_var = abs(dens.variance - 1.0)
    out.note("moment_err", max(err_mass, err_mean, err_var))
    out.gate(err_mass < oracles.TOL_MASS, f"{where}: |mass-1|={err_mass:.3e}")
    out.gate(err_mean < oracles.TOL_MEAN, f"{where}: |mean|={err_mean:.3e}")
    out.gate(err_var < oracles.TOL_VAR, f"{where}: |var-1|={err_var:.3e}")


def gate_kesten(out: Outcome, dens, n: int, where: str) -> None:
    x = oracles.kesten_grid(n)
    err = float(np.max(np.abs(dens.density(x) - oracles.kesten_density(x, n))))
    out.note("kesten_err", err)
    out.gate(err < oracles.TOL_KESTEN, f"{where}: Kesten error {err:.3e}")


def cross_route_diff(d1, d2, probe_points: int = 257) -> float:
    """Sup density gap on the probe grid `freeclt compare` uses, singular
    edge neighbourhoods excluded."""
    lo = min(d1.support()[0], d2.support()[0]) - 0.05
    hi = max(d1.support()[1], d2.support()[1]) + 0.05
    x = np.linspace(lo, hi, probe_points)
    keep = np.ones_like(x, dtype=bool)
    for tab in d1.tables + d2.tables:
        for end, order in zip(tab.support, tab.edge_orders):
            if order is not None and order < 0:
                keep &= ~(np.abs(x - end) < 0.02)
    return float(np.max(np.abs(d1.density(x) - d2.density(x))[keep]))


def gate_row_pins(out: Outcome, row: dict, seed: str, where: str) -> None:
    pins = oracles.PINS[seed].get(int(row["n"]))
    if pins is None:
        return
    for key, get in oracles.PIN_KEYS:
        dev = abs(float(get(row)) - pins[key])
        out.note("pin_dev", dev)
        out.gate(dev < oracles.TOL_PIN,
                 f"{where} n={row['n']}: {key} off its pin by {dev:.3e}")
    out.note("chi_pin_dev", abs(float(row["chi"]) - pins["chi"]))


def gate_row_bounds(out: Outcome, row: dict, freeclt, where: str) -> None:
    """The entropy bound and log-Sobolev inequality `freeclt verify` checks."""
    chi, gap = float(row["chi"]), float(row["gap"])
    out.gate(chi <= freeclt.CHI_SEMICIRCLE + freeclt.TOL_CHI,
             f"{where}: chi={chi:.9f} above the semicircle bound")
    out.gate(gap >= -freeclt.TOL_GAP, f"{where}: log-Sobolev gap {gap:.3e}")


# -- operations -------------------------------------------------------------

def _timed(out: Outcome, route: str, fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        dt = time.perf_counter() - t0
        out.busy_s += dt
        out.route_s[route] = out.route_s.get(route, 0.0) + dt


def op_compare(freeclt, _spec, mu, op: Op, out: Outcome, _scratch: Path) -> None:
    """One power through both routes, checked route against route."""
    d1 = _timed(out, "flow", freeclt.clt_density_flow, mu, op.n)
    d2 = _timed(out, "sub", freeclt.clt_density_subordination, mu, op.n)
    where = f"{op.seed} n={op.n}"
    gate_moments(out, d1, where + " flow")
    gate_moments(out, d2, where + " sub")
    diff = cross_route_diff(d1, d2)
    out.note("cross_route_diff", diff)
    out.gate(diff < oracles.TOL_CROSS_ROUTE,
             f"{where}: routes differ by {diff:.3e}")
    if op.seed == "coin":
        gate_kesten(out, d1, op.n, where + " flow")
        gate_kesten(out, d2, op.n, where + " sub")
    out.note("omega_iters", float(d2.iterations))
    out.note("omega_residual", float(d2.residual))
    out.powers = 1


def op_flow_row(freeclt, _spec, mu, op: Op, out: Outcome, _scratch: Path) -> None:
    """One power of an ac seed through the flow route, plus its report row."""
    dens = _timed(out, "flow", freeclt.clt_density_flow, mu, op.n)
    row = _timed(out, "rows", freeclt.report_row, mu, op.n, P_LIST, dens=dens)
    out.rows = 1
    where = f"{op.seed} n={op.n}"
    gate_moments(out, dens, where)
    if op.seed == "semicircle":
        sup = float(row["sup_dist"])
        out.gate(sup < oracles.TOL_SEMICIRCLE_SUP,
                 f"{where}: sup distance {sup:.3e}")
    gate_row_bounds(out, row, freeclt, where)
    out.powers = 1


def op_report(freeclt, _spec, mu, op: Op, out: Outcome, _scratch: Path) -> None:
    """A convergence report over the ladder, every row checked on its pins."""
    rep = _timed(out, "rows", freeclt.convergence_report, mu, op.ladder,
                 P_LIST)
    rows = rep.to_dict()["rows"]
    out.rows = len(rows)
    out.gate([r["n"] for r in rows] == list(op.ladder),
             f"{op.seed}: report rows {[r['n'] for r in rows]}")
    for row in rows:
        gate_row_pins(out, row, op.seed, op.seed)
    out.powers = len(rows)


def op_sweep(freeclt, spec: dict, _mu, op: Op, out: Outcome, scratch: Path) -> None:
    """An in-process `freeclt sweep`: per-power CSVs plus the JSON report."""
    from freeclt import cli

    scratch.mkdir(parents=True, exist_ok=True)
    for old in scratch.iterdir():
        old.unlink()
    report = scratch / "report.json"
    argv = ["sweep", "--measure", json.dumps(spec),
            "--n", ",".join(str(n) for n in op.ladder),
            f"--grid={SWEEP_GRID}", "--csv-prefix", str(scratch / "pw"),
            "--out", str(report)]
    code = _timed(out, "sweep", cli.main, argv)
    out.gate(code == 0, f"sweep exit code {code}")
    if code != 0:
        return
    out.figures["bytes_written"] = float(
        sum(p.stat().st_size for p in scratch.iterdir()))
    rows = json.loads(report.read_text())["rows"]
    out.gate([r["n"] for r in rows] == list(op.ladder),
             f"sweep rows {[r['n'] for r in rows]}")
    for row in rows:
        gate_row_pins(out, row, op.seed, "sweep " + op.seed)
    if op.seed == "coin":
        for n in op.ladder:
            data = np.loadtxt(scratch / f"pw_n{n}.csv", delimiter=",",
                              skiprows=1)
            err = float(np.max(np.abs(
                data[:, 1] - oracles.kesten_density(data[:, 0], n))))
            out.note("kesten_err", err)
            out.gate(err < oracles.TOL_KESTEN,
                     f"sweep n={n}: CSV Kesten error {err:.3e}")
    out.powers = len(rows)


OPERATIONS = {"compare": op_compare, "flow_row": op_flow_row,
              "report": op_report, "sweep": op_sweep}
