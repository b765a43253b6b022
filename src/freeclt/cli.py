"""Command-line front end.

Subcommands
-----------
density      one power, one CSV of (x, density)
sweep        several powers: per-power CSVs plus a convergence report JSON
functionals  convergence report JSON only
compare      route-against-route discrepancy per power
verify       run the invariant suite and print one pass/fail line each

Exit codes: 0 success; 1 invalid measure spec or configuration; 2 solver
non-convergence or a failed verification property; 3 a divergent
functional where finiteness was required.

All outputs are deterministic for a fixed configuration: CSV densities
are written with 17 significant digits, report JSON is key-sorted, and
no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateMeasureError,
    DivergenceError,
    FreecltError,
    InvalidArgumentError,
    InvalidSpecError,
)
from .measures import Measure, measure_from_json
from .pipeline import (
    CltDensity,
    _compare_densities,
    clt_density_flow,
    clt_density_subordination,
    cross_check,
    default_grid,
    range_containment_check,
    subordination_omega,
    support_check,
    tail_bound_check,
)
from .functionals import (
    CHI_SEMICIRCLE,
    TOL_CHI,
    TOL_GAP,
    _report_rows,
    convergence_report,
    free_entropy,
    report_row,
)

_EXIT_INVALID = 1
_EXIT_SOLVER = 2
_EXIT_DIVERGENT = 3

_INVALID_ERRORS = (InvalidSpecError, InvalidArgumentError,
                   DegenerateMeasureError)


# -- config parsing -----------------------------------------------------------

def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"grid must be 'lo:hi:count', got {text!r}") from exc
    if not (hi > lo) or count < 2:
        raise InvalidArgumentError("grid needs hi > lo and count >= 2")
    return np.linspace(lo, hi, count)


def _parse_list(text: str, what: str, kind=int) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        noun = "integer" if kind is int else "number"
        raise InvalidArgumentError(
            f"{what} must be a comma-separated {noun} list, got "
            f"{text!r}") from exc
    if not values:
        raise InvalidArgumentError(f"{what} must not be empty")
    return values


def _density_for(mu: Measure, n: int, method: str) -> CltDensity:
    if method in ("flow", "biane"):
        return clt_density_flow(mu, n)
    if method == "subordination":
        return clt_density_subordination(mu, n)
    raise InvalidArgumentError(f"unknown method {method!r}")


# -- serialization ------------------------------------------------------------

def _jsonable(obj):
    """Make report structures JSON-serializable and deterministic;
    non-finite floats become the strings 'inf', '-inf', 'nan'."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_density_csv(path: str, x: np.ndarray, p: np.ndarray) -> None:
    lines = ["x,density"]
    lines.extend("%.17g,%.17g" % (xi, pi) for xi, pi in zip(x, p))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- subcommands ----------------------------------------------------------------

def _cmd_density(args: argparse.Namespace) -> int:
    mu = measure_from_json(args.measure)
    x = _parse_grid(args.grid) if args.grid else default_grid()
    dens = _density_for(mu, args.n, args.method)
    _write_density_csv(args.out, x, dens.density(x))
    for at in dens.atoms:
        print(f"note: atom at x={at.x:.17g} with weight {at.w:.17g} "
              "(not part of the CSV density)")
    print(f"wrote {args.out} ({len(x)} rows, method={args.method}, "
          f"n={args.n})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    mu = measure_from_json(args.measure)
    n_list = sorted(set(_parse_list(args.n, "--n")))
    p_list = _parse_list(args.p, "--p", float)
    x = _parse_grid(args.grid) if args.grid else default_grid()
    out = Path(args.out)
    prefix = args.csv_prefix if args.csv_prefix else str(
        out.with_suffix("")) + "_density"

    results = _report_rows(
        mu, n_list, p_list, lambda m, n: _density_for(m, n, args.method))
    for dens, row in results:
        csv_path = f"{prefix}_n{row['n']}.csv"
        _write_density_csv(csv_path, x, dens.density(x))
        print(f"wrote {csv_path}")
    _write_json(args.out, {"rows": [row for _, row in results]})
    print(f"wrote {args.out}")
    return 0


def _cmd_functionals(args: argparse.Namespace) -> int:
    mu = measure_from_json(args.measure)
    n_list = _parse_list(args.n, "--n")
    p_list = _parse_list(args.p, "--p", float)
    report = convergence_report(mu, n_list, p_list)
    payload = report.to_dict()
    if args.require_finite:
        for row in payload["rows"]:
            if not math.isfinite(row["phi"]):
                what = ("the power keeps an atom"
                        if "atoms_excluded" in row["flags"]
                        else "Fisher information diverges")
                raise DivergenceError(
                    f"{what} at n={row['n']} but --require-finite was set")
            for p_key, val in row["lp"].items():
                if not math.isfinite(val):
                    raise DivergenceError(
                        f"L^{p_key} distance diverges at n={row['n']} "
                        "but --require-finite was set")
    _write_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    mu = measure_from_json(args.measure)
    n_list = sorted(set(_parse_list(args.n, "--n")))
    rows = [cross_check(mu, n) for n in n_list]
    if args.out:
        _write_json(args.out, {"rows": rows})
        print(f"wrote {args.out}")
    for row in rows:
        print(f"n={row['n']}: sup_diff={row['sup_diff']:.6e} "
              f"mass_diff={row['mass_diff']:.3e} "
              f"mean_gap={row['mean_gap']:.3e} "
              f"variance_gap={row['variance_gap']:.3e}")
    return 0


def _verify_properties(mu: Measure, n_sample: Sequence[int]):
    """Yield (name, ok_or_None, detail) for the invariant suite.

    ok=None means the property was skipped (precondition unmet), which
    does not fail verification.
    """
    densities = {}
    for n in n_sample:
        densities[n] = clt_density_flow(mu, n)

    # moment preservation, both routes for the smallest sample index
    worst = 0.0
    for n, dens in densities.items():
        worst = max(worst, abs(dens.mass - 1.0), abs(dens.mean),
                    abs(dens.variance - 1.0) / 10.0)
    sub = clt_density_subordination(mu, n_sample[0])
    worst = max(worst, abs(sub.mass - 1.0), abs(sub.mean),
                abs(sub.variance - 1.0) / 10.0)
    yield ("moment_preservation", worst <= 1e-8,
           f"worst scaled moment error {worst:.2e} (tol 1e-8)")

    cc = _compare_densities(densities[n_sample[0]], sub)
    yield ("cross_route_agreement", cc["sup_diff"] < 5e-4,
           f"sup |p_flow - p_subordination| = {cc['sup_diff']:.2e} at "
           f"n={n_sample[0]} (tol 5e-4)")

    for n, dens in densities.items():
        rep = support_check(dens, mu)
        if rep["ok"] is None:
            yield (f"support_containment_n{n}", None, rep["notice"])
        else:
            yield (f"support_containment_n{n}", rep["ok"],
                   f"mass outside [-{rep['bound']:.4f}, {rep['bound']:.4f}] "
                   f"= {rep['outside_mass']:.2e} (tol 1e-6)")

    for eta in (0.1, 0.3):
        rep = range_containment_check(mu, n_sample[-1], eta)
        yield (f"flow_range_containment_eta{eta}", rep["ok"],
               f"max |psi| = {rep['max_abs_psi']:.6f} <= {rep['bound']}")

    n_tail = max(5, n_sample[-1])
    rep = tail_bound_check(mu, n_tail)
    if rep["points_checked"] == 0:
        yield (f"tail_decay_bound_n{n_tail}", None,
               "skipped: support does not reach the near-edge zone")
    else:
        yield (f"tail_decay_bound_n{n_tail}", rep["ok"],
               f"max ratio {rep['max_ratio']:.4f} over "
               f"{rep['points_checked']} points (must be <= 1)")

    rng = np.random.default_rng(20240817)
    pts = rng.uniform(-3, 3, 50) + 1j * 10.0 ** rng.uniform(-3, 1, 50)
    worst_res = 0.0
    for z in pts:
        worst_res = max(worst_res,
                        subordination_omega(mu, 4, complex(z)).residual)
    yield ("subordination_residual", worst_res <= 1e-12,
           f"worst residual {worst_res:.2e} at 50 random points (tol 1e-12)")

    rows = {}
    for n, dens in densities.items():
        if dens.atoms:
            yield (f"max_entropy_n{n}", None,
                   "skipped: power carries an atom, entropy undefined")
            continue
        row = rows[n] = report_row(mu, n, (), dens=dens)
        chi = row["chi"]
        yield (f"max_entropy_n{n}", chi <= CHI_SEMICIRCLE + TOL_CHI,
               f"chi = {chi:.7f} <= {CHI_SEMICIRCLE:.7f} + {TOL_CHI}")
        if "phi_divergent" in row["flags"]:
            yield (f"log_sobolev_n{n}", None,
                   "skipped: Fisher information divergent (inequality "
                   "vacuous)")
        else:
            gap = row["gap"]
            yield (f"log_sobolev_n{n}", gap >= -TOL_GAP,
                   f"gap = {gap:+.3e} >= -{TOL_GAP}")

    if rows:
        n0 = min(rows)
        base = rows[n0]["chi"]
        shift = free_entropy(
            tuple(t.dilated(2.0) for t in densities[n0].tables)).value
        err = abs(shift - base - math.log(2.0))
        yield ("entropy_dilation_law", err <= 1e-4,
               f"|chi(D_2 p) - chi(p) - log 2| = {err:.2e} at n={n0} "
               "(tol 1e-4)")


def _cmd_verify(args: argparse.Namespace) -> int:
    mu = measure_from_json(args.measure)
    n_sample = sorted(set(_parse_list(args.n, "--n"))) if args.n else [2, 4, 8]
    failed = 0
    for name, ok, detail in _verify_properties(mu, n_sample):
        if ok is None:
            print(f"[SKIP] {name}: {detail}")
        elif ok:
            print(f"[PASS] {name}: {detail}")
        else:
            failed += 1
            print(f"[FAIL] {name}: {detail}")
    if failed:
        print(f"{failed} properties failed")
        return _EXIT_SOLVER
    print("all properties passed")
    return 0


# -- entry point -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeclt",
        description="Densities and convergence diagnostics of normalized "
                    "free convolution powers.")
    sub = parser.add_subparsers(dest="command", required=True)

    common_measure = dict(required=True, metavar="SPEC",
                          help="measure spec: a JSON file path or an inline "
                               "JSON object")

    p_density = sub.add_parser("density", help="write one density CSV")
    p_density.add_argument("--measure", **common_measure)
    p_density.add_argument("--n", type=int, required=True,
                           help="power index (>= 2; 1 echoes the seed)")
    p_density.add_argument("--method", default="flow",
                           choices=["flow", "biane", "subordination"],
                           help="computation route (default flow)")
    p_density.add_argument("--grid", default=None,
                           help="evaluation grid lo:hi:count "
                                "(default -3:3:1201)")
    p_density.add_argument("--out", required=True, help="output CSV path")
    p_density.set_defaults(func=_cmd_density)

    p_sweep = sub.add_parser("sweep",
                             help="densities plus a convergence report "
                                  "over several powers")
    p_sweep.add_argument("--measure", **common_measure)
    p_sweep.add_argument("--n", required=True,
                         help="comma-separated power indices, e.g. "
                              "4,8,16,32,64")
    p_sweep.add_argument("--p", default="0.6,1,2",
                         help="comma-separated L^p exponents "
                              "(default 0.6,1,2)")
    p_sweep.add_argument("--method", default="flow",
                         choices=["flow", "biane", "subordination"])
    p_sweep.add_argument("--grid", default=None,
                         help="CSV grid lo:hi:count (default -3:3:1201)")
    p_sweep.add_argument("--csv-prefix", default=None,
                         help="prefix for per-power CSVs (default derives "
                              "from --out)")
    p_sweep.add_argument("--out", required=True, help="report JSON path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fun = sub.add_parser("functionals", help="convergence report JSON")
    p_fun.add_argument("--measure", **common_measure)
    p_fun.add_argument("--n", required=True,
                       help="comma-separated power indices")
    p_fun.add_argument("--p", default="0.6,1,2",
                       help="comma-separated L^p exponents")
    p_fun.add_argument("--require-finite", action="store_true",
                       help="fail (exit 3) if any reported functional "
                            "(Fisher information or an L^p distance) "
                            "diverges")
    p_fun.add_argument("--out", required=True, help="report JSON path")
    p_fun.set_defaults(func=_cmd_functionals)

    p_cmp = sub.add_parser("compare",
                           help="route-against-route discrepancy per power")
    p_cmp.add_argument("--measure", **common_measure)
    p_cmp.add_argument("--n", required=True,
                       help="comma-separated power indices")
    p_cmp.add_argument("--out", default=None,
                       help="optional JSON output path")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify",
                           help="run the invariant suite, one pass/fail "
                                "line per property")
    p_ver.add_argument("--measure", **common_measure)
    p_ver.add_argument("--n", default=None,
                       help="comma-separated sample powers (default 2,4,8)")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; remap to the invalid-config code
        return _EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DIVERGENT
    except _INVALID_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except FreecltError as exc:  # every other library error: a solver fault
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
