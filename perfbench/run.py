"""freeclt benchmark: one workload per run, gated outputs, one JSON result line.

    python3 perfbench/run.py --workload atomic-compare --seed 1 --seconds 10 --trace 0

Workloads (see `workloads.py` and README.md): atomic-compare, ac-flow,
report-ladder.  A run

1. measures the workload's cold start three times -- in this process and in
   two fresh interpreters -- and keeps the median as `setup_s` (a traced run
   measures only its own);
2. runs whole passes of the workload's operation matrix, in the order the
   seed draws, until at least --seconds have been measured, one client in
   one process (closed loop), each operation under a wall budget;
3. checks every operation's output against the tolerances the test suite
   enforces; an operation that raises, runs out of budget or fails a gate
   counts as failed;
4. prints the run record as a JSON line, then the result as the last line:
   end-to-end metrics untraced (--trace 0), per-layer metrics traced
   (--trace 1).

Per-layer times and counts are per pass of the matrix.  Run records and
span files go to .perfbench_runs/ at the root of the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import setup_probe  # noqa: E402
from spans import Stat, Tracer  # noqa: E402

WORKLOADS = ("atomic-compare", "ac-flow", "report-ladder")
SETUP_SAMPLES = 3          # this process plus two fresh interpreters
OP_BUDGET_S = 45.0         # about five times the slowest operation
RUN_CAP_S = 110.0          # start no operation later than this into a run


class BudgetExceeded(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise BudgetExceeded("operation ran past its wall budget")


def run_op(freeclt, wl, measures, op, scratch: Path, budget_s: float):
    """Run one operation under a wall budget; returns (Outcome, wall_s)."""
    import workloads

    out = workloads.Outcome()
    fn = workloads.OPERATIONS[op.kind]
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        fn(freeclt, wl.specs[op.seed], measures[op.seed], op, out, scratch)
    except BudgetExceeded as exc:
        out.failures.append(f"{op.label}: {exc}")
    except Exception as exc:  # every error of the program counts as failed
        out.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return out, time.perf_counter() - start


class Tally:
    """Everything the operations of one run delivered."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.powers = 0
        self.busy_s = 0.0
        self.route_s = {}
        self.rows = 0
        self.sweep_walls = []
        self.figures = {}
        self.failures = []
        self.log = []

    def add(self, op, out, wall_s: float) -> None:
        self.attempted += 1
        self.busy_s += out.busy_s
        if out.failures:
            self.failed += 1
            self.failures.extend(out.failures)
        else:
            self.powers += out.powers
            self.rows += out.rows
        for route, secs in out.route_s.items():
            self.route_s[route] = self.route_s.get(route, 0.0) + secs
        if "sweep" in out.route_s:
            self.sweep_walls.append(out.route_s["sweep"])
        for name, value in out.figures.items():
            self.figures[name] = max(self.figures.get(name, -math.inf), value)
        self.log.append({"op": op.label, "wall_s": wall_s, "busy_s": out.busy_s,
                         "failures": out.failures})


def run_passes(freeclt, wl, measures, seconds: float, tally: Tally,
               scratch: Path, stop_at: float, tracer=None) -> int:
    """Whole passes of the matrix until `seconds` have been measured; after
    the first, no operation starts once the clock reads `stop_at`."""
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in wl.ops:
            if tally.attempted and time.perf_counter() > stop_at:
                return passes
            if tracer is not None:
                tracer.op_id = tally.attempted
            out, wall = run_op(freeclt, wl, measures, op, scratch,
                               OP_BUDGET_S)
            tally.add(op, out, wall)
        passes += 1
    return passes


# -- run record ----------------------------------------------------------------

def openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or
    None when numpy uses another BLAS."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


def run_record(args, wl, freeclt_threads_env, blas_default):
    import numpy
    import scipy

    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "specs": wl.specs,
        "ops": [op.label for op in wl.ops],
        "nproc": os.cpu_count(),
        "cpus_measured": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads_setup": blas_default,
        "blas_threads_measured": 1 if blas_default is not None else None,
        "FREECLT_THREADS": "unset" if freeclt_threads_env is None else
                           f"unset (was {freeclt_threads_env!r})",
        "load": "closed loop: one client, one process, no threads "
                "beyond the program's own",
    }


# -- setup ---------------------------------------------------------------------

def fresh_setup_sample(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=45,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics -------------------------------------------------------------------

def end_to_end(setups, tally: Tally) -> dict:
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "powers_per_s": (tally.powers / tally.busy_s if tally.busy_s else 0.0,
                         "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(setup, tally: Tally, tracer, passes: int) -> dict:
    per = 1.0 / max(passes, 1)
    idle = Stat()

    def stat(name):
        return tracer.stats.get(name, idle)

    def total(name):
        return stat(name).total_s * per

    def share(part, whole):
        return part / whole if whole else 0.0

    def span_rate(name):
        return share(stat(name).calls, stat(name).total_s)

    rows_s = tally.route_s.get("rows", 0.0)
    fig = tally.figures.get
    report_wall = total("functionals.report") + total("cli.main")
    pooled = sum(s.worker_s for s in tracer.stats.values()) * per
    metrics = {
        "measures.import_s": (setup["import_s"], "s"),
        "measures.nodes_s": (setup["nodes_s"], "s"),
        "measures.build_table_s": (total("measures.build_table"), "s"),
        "measures.build_table_calls": (stat("measures.build_table").calls
                                       * per, "count"),
        "transforms.support_scan_s": (total("transforms.support_scan"), "s"),
        "transforms.support_scan_share": (
            share(_inside(tracer, "transforms.support_scan", "pipeline.sub")
                  * per, total("pipeline.sub")), "ratio"),
        "transforms.cauchy_s": (total("transforms.cauchy"), "s"),
        "transforms.cauchy_points": (stat("transforms.cauchy").work * per,
                                     "count"),
        "transforms.invert_s": (total("transforms.invert"), "s"),
        "transforms.neville_err_max": (stat("transforms.invert").worst, "1"),
        "transforms.companion_s": (total("transforms.companion"), "s"),
        "transforms.companion_calls": (stat("transforms.companion").calls
                                       * per, "count"),
        "flow.region_s": (total("flow.region"), "s"),
        "flow.curve_s": (total("flow.curve"), "s"),
        "flow.v_s": (total("flow.v"), "s"),
        "flow.v_points": (stat("flow.v").work * per, "count"),
        "flow.kernel_s": (total("flow.kernel"), "s"),
        "flow.kernel_evals": (stat("flow.kernel").work * per, "count"),
        "flow.kernel_share": (share(total("flow.kernel"),
                                    total("flow.curve") + total("flow.moments")),
                              "ratio"),
        "flow.moments_s": (total("flow.moments"), "s"),
        "pipeline.flow_s": (total("pipeline.flow"), "s"),
        "pipeline.sub_s": (total("pipeline.sub"), "s"),
        "pipeline.flow_self_s": (stat("pipeline.flow").self_s * per, "s"),
        "pipeline.sub_self_s": (stat("pipeline.sub").self_s * per, "s"),
        "pipeline.flow_powers_per_s": (span_rate("pipeline.flow"), "1/s"),
        "pipeline.sub_powers_per_s": (span_rate("pipeline.sub"), "1/s"),
        "pipeline.omega_iters_max": (fig("omega_iters", 0.0), "count"),
        "pipeline.omega_residual_max": (fig("omega_residual", 0.0), "1"),
        "pipeline.cross_route_sup_diff_max": (fig("cross_route_diff", 0.0),
                                              "1"),
        "pipeline.moment_err_max": (fig("moment_err", 0.0), "1"),
        "functionals.rows_per_s": (share(tally.rows, rows_s), "1/s"),
        "functionals.sup_s": (total("functionals.sup"), "s"),
        "functionals.lp_0.6_s": (total("functionals.lp_0.6"), "s"),
        "functionals.lp_1.0_s": (total("functionals.lp_1.0"), "s"),
        "functionals.lp_2.0_s": (total("functionals.lp_2.0"), "s"),
        "functionals.chi_s": (total("functionals.chi"), "s"),
        "functionals.phi_s": (total("functionals.phi"), "s"),
        "functionals.pool_concurrency": (share(pooled, report_wall), "ratio"),
        "functionals.chi_pin_dev_max": (fig("chi_pin_dev", 0.0), "1"),
        "cli.sweep_s": (statistics.median(tally.sweep_walls)
                        if tally.sweep_walls else 0.0, "s"),
        "cli.sweep_self_s": (stat("cli.main").self_s * per, "s"),
        "cli.bytes_written": (fig("bytes_written", 0.0), "B"),
        "trace.powers_per_s": (share(tally.powers, tally.busy_s), "1/s"),
        "trace.overhead_frac": (share(tracer.overhead_s(), tally.busy_s),
                                "ratio"),
        "trace.spans": (len(tracer.spans) * per, "count"),
        "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio"),
    }
    return metrics


def _inside(tracer, name: str, ancestor: str) -> float:
    """Total duration of `name` spans nested anywhere under `ancestor`."""
    by_id = {sp[0]: sp for sp in tracer.spans}
    total = 0.0
    for sid, span_name, start, end, parent, _op in tracer.spans:
        if span_name != name:
            continue
        while parent is not None:
            if by_id[parent][1] == ancestor:
                total += end - start
                break
            parent = by_id[parent][4]
    return total


# -- entry point -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one cheap operation per pass (self-tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    stop_at = time.perf_counter() + RUN_CAP_S
    args = parse_args(argv)
    freeclt_threads_env = os.environ.pop("FREECLT_THREADS", None)
    if not (ROOT / "src" / "freeclt" / "__init__.py").is_file():
        print(f"error: no freeclt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup, wl, measures, freeclt = setup_probe.cold_start(
        args.workload, args.seed, T0)
    if args.tiny:
        import workloads
        wl.ops = workloads.tiny(wl.ops)
    setups = [setup]
    if not args.trace:
        setups += [fresh_setup_sample(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
    # Set-up keeps the process's CPUs and numpy's default BLAS threads,
    # which users pay for.  The passes run on one CPU with one BLAS thread:
    # on a shared 2-vCPU machine, work spread over both vCPUs (the report
    # pool, spinning BLAS threads) is exposed to the hypervisor taking
    # either of them, and it ran up to a third slower in such spells.
    # The program still sees its usual CPU count, so its pool keeps its
    # default size.
    blas = openblas()
    blas_default = None
    if blas is not None:
        get, put = blas
        blas_default = get()
        put(1)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_record(args, wl, freeclt_threads_env, blas_default)
    record["setup"] = setups

    signal.signal(signal.SIGALRM, _on_alarm)
    scratch = OUT_DIR / f"sweep-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install(freeclt)
            try:
                passes = run_passes(freeclt, wl, measures, args.seconds,
                                    tally, scratch, stop_at, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(setup, tally, tracer, passes)
            tracer.write(OUT_DIR / f"{wl.name}-seed{args.seed}-spans.jsonl")
        else:
            passes = run_passes(freeclt, wl, measures, args.seconds,
                                tally, scratch, stop_at)
            metrics = end_to_end(setups, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record.update(passes=passes, ops_log=tally.log, failures=tally.failures,
                  figures=tally.figures)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"record": record}, default=str))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
