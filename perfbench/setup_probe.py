"""Cold start of one workload: what a fresh process pays before its first power.

It covers `import freeclt`, the first 4096-node Gauss-Legendre rule (built
once per process through the public `quad_nodes(4096)` of an ac part, for
workloads whose operations need it: ac seeds and the subordination route's
density tables), building the workload's seed measures, and the first
LAPACK call (the least-squares edge fit every density table makes).

Run as a script it measures one cold start in this fresh interpreter and
prints the timings as one JSON line:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cold_start(workload: str, seed: int, t0: float):
    """Set the workload up from nothing; returns (timings, workload,
    measures, freeclt).  t0 is when this interpreter started running."""
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import freeclt
    t1 = time.perf_counter()
    import numpy as np
    import workloads

    wl = workloads.build(workload, seed)
    if wl.needs_nodes:
        freeclt.SemicircleFamily(1.0).quad_nodes(4096)
    t2 = time.perf_counter()
    measures = {name: freeclt.make_measure(spec)
                for name, spec in wl.specs.items()}
    t3 = time.perf_counter()
    probe = np.linspace(0.1, 1.0, 8)
    freeclt.fit_edge_order(probe, np.sqrt(probe))
    t4 = time.perf_counter()
    timings = {"import_s": t1 - t0, "nodes_s": t2 - t1, "seeds_s": t3 - t2,
               "lapack_s": t4 - t3, "setup_s": t4 - t0}
    return timings, wl, measures, freeclt


if __name__ == "__main__":
    timings, *_ = cold_start(sys.argv[1], int(sys.argv[2]), _T0)
    print(json.dumps(timings))
