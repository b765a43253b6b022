"""The library runs on numpy alone: scipy is a test dependency only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import freeclt

from conftest import ASYM_SPEC, MIXTURE_SPEC

# run in a fresh interpreter: after each step, no scipy module is loaded
_STEPS = r"""
import contextlib, io, json, sys

def check(step):
    loaded = sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy."))
    if loaded:
        raise SystemExit("%s loaded %s" % (step, ", ".join(loaded[:5])))
    print(step)

mixture, asym = sys.argv[1], sys.argv[2]
import freeclt
check("import freeclt")
from freeclt import cli, functionals, pipeline
mu = freeclt.make_measure(json.loads(mixture))
check("mixture seed")
pipeline.clt_density_flow(mu, 4)
check("flow power")
pipeline.clt_density_subordination(mu, 4)
check("route-2 power")
functionals.report_row(mu, 4)
check("report row")
for argv in (
        ["compare", "--measure", mixture, "--n", "4"],
        ["functionals", "--measure", asym, "--n", "4,16", "--out", "f.json"],
        ["sweep", "--measure", asym, "--n", "4", "--grid=-2.2:2.2:65",
         "--out", "s.json"],
        ["verify", "--measure", mixture, "--n", "4"],
        ["density", "--measure", mixture, "--n", "4", "--method",
         "subordination", "--out", "d.csv"]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    check("cli " + argv[0])
"""


def test_no_scipy_module_is_loaded(tmp_path):
    src = str(Path(freeclt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", _STEPS, json.dumps(MIXTURE_SPEC),
         json.dumps(ASYM_SPEC)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr + done.stdout
    assert done.stdout.split("\n")[-2] == "cli density"
