"""Convergence diagnostics for normalized free convolution powers.

Distances to the limiting semicircle law (sup and L^p), free entropy,
free Fisher information, the log-Sobolev gap, and per-power convergence
reports.  Every functional consumes density tables (or a computed power
carrying them) and is careful about endpoint behavior: integrable
power-law singularities are integrated by substitution, and functionals
that cease to exist for strong singularities report divergence instead
of returning quadrature noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .errors import InvalidArgumentError, QuadratureError
from .measures import DensityTable, SemicircleFamily, _leggauss
from .pipeline import CltDensity, clt_density_flow
from .transforms import _brentq_lanes

__all__ = [
    "CHI_SEMICIRCLE",
    "TOL_CHI",
    "TOL_GAP",
    "ExtendedReal",
    "ConvergenceReport",
    "sup_distance",
    "lp_distance",
    "free_entropy",
    "free_fisher",
    "log_sobolev_gap",
    "convergence_report",
    "report_row",
]

#: Entropy of the standard semicircle law, (1/2) log(2 pi e); the maximum
#: over unit-variance laws and the limit value along the ladder of powers.
CHI_SEMICIRCLE = 0.5 * math.log(2.0 * math.pi * math.e)

TOL_CHI = 1e-3   # slack on the maximum-entropy bound
TOL_GAP = 1e-6   # slack on the entropy--Fisher inequality

_ENTROPY_CONSTANT = 0.75 + 0.5 * math.log(2.0 * math.pi)
_REFERENCE = SemicircleFamily(1.0)
_ENERGY_NODES = 512       # Gauss nodes per table for chi's energy and Phi
_LP_CUT_FLOOR = 1e3 * np.finfo(float).eps  # noise floor of a density difference
_BRENT_XTOL = 1e-14      # the L^p cuts' brentq xtol
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # brentq's least rtol


@dataclass(frozen=True)
class ExtendedReal:
    """A real value or a +/- infinity marker with a divergence diagnosis."""
    value: float
    divergent: bool = False
    diagnosis: Optional[str] = None

    @property
    def finite(self) -> bool:
        return not self.divergent

    def __float__(self) -> float:
        return float(self.value)


TableLike = Union[DensityTable, CltDensity, Sequence[DensityTable]]


def _tables_of(obj: TableLike) -> Tuple[DensityTable, ...]:
    if isinstance(obj, DensityTable):
        return (obj,)
    if isinstance(obj, CltDensity):
        return tuple(obj.tables)
    tabs = tuple(obj)
    if not tabs or not all(isinstance(t, DensityTable) for t in tabs):
        raise InvalidArgumentError("expected a density table, a computed "
                                   "power, or a sequence of tables")
    return tabs


def _density_sum(tables: Sequence[DensityTable], x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=float))
    for tab in tables:
        out = out + tab.density(x)
    return out


def _has_singular_edge(tables: Sequence[DensityTable]) -> bool:
    """Whether a support endpoint carries a negative fitted exponent: the
    sup of an unbounded density then depends on how far into the
    singularity the grid reaches."""
    for tab in tables:
        for order in tab.edge_orders:
            if order is not None and order < 0:
                return True
    return False


# -- distances to the semicircle ----------------------------------------------

def sup_distance(obj: TableLike) -> float:
    """Max of |p - p_semicircle| over the union evaluation grid.

    The density is extended by zero outside its support, so the graze
    value at a support-edge mismatch is captured.
    """
    tables = _tables_of(obj)
    pieces = [np.linspace(-2.0, 2.0, 1201)]
    for tab in tables:
        pieces.append(tab.grid)
        pieces.append(np.asarray(tab.support))
    xs = np.unique(np.concatenate(pieces))
    diff = np.abs(_density_sum(tables, xs) - _REFERENCE.density(xs))
    return float(np.max(diff))


def _diff_breakpoints(tables: Sequence[DensityTable]) -> List[float]:
    pts = {-2.0, 2.0}
    for tab in tables:
        pts.update(tab.support)
    return sorted(pts)


def _diff_reference(tables: Sequence[DensityTable],
                    x: np.ndarray) -> np.ndarray:
    return _density_sum(tables, x) - _REFERENCE.density(x)


def _lp_diverges(tables: Sequence[DensityTable], p: float) -> bool:
    """Whether the L^p distance does not exist: a density edge with
    power-law exponent ``alpha < 0`` makes ``|difference|**p``
    non-integrable as soon as ``p * alpha <= -1``."""
    return any(order is not None and order < 0.0
               and p * order <= -1.0 + 1e-12
               for tab in tables for order in tab.edge_orders)


def _lp_pieces(tables: Tuple[DensityTable, ...]
               ) -> Tuple[Tuple[float, ...], Tuple[float, ...],
                          Tuple[float, ...]]:
    """(ends, signs, widths) of the half-pieces ``lp_distance`` integrates.

    The supports' endpoints split the line into panels, and each panel is
    cut again at the sign changes of the difference.  One call of the
    difference scans every panel at its 255 interior points of a 257-point
    grid, and ``_brentq_lanes`` solves all the brackets it finds together,
    starting from the scan's own values there, so each cut is the one
    scalar ``brentq`` gives on its bracket.  A sign change between two scan
    points counts only if the difference at one of them exceeds a rounding
    floor, ``_LP_CUT_FLOOR`` times the larger of the two densities' maxima
    on the panel's scan.  A power that equals the semicircle to rounding
    (the semicircle seed's) has a difference of pure noise, which changes
    sign every few points; cutting there gives 100-160 half-pieces instead
    of 2, and the Gauss-Kronrod work grows with them, for no accuracy.
    None of this depends on p, so ``lp_distance`` cuts each power once for
    all its exponents.
    """
    bps = _diff_breakpoints(tables)
    panels = [(lo, hi) for lo, hi in zip(bps, bps[1:]) if hi - lo >= 1e-14]
    scan = np.concatenate([np.linspace(lo, hi, 257)[1:-1]
                           for lo, hi in panels]).reshape(len(panels), 255)
    dens, ref = _density_sum(tables, scan), _REFERENCE.density(scan)
    vals = dens - ref
    floor = _LP_CUT_FLOOR * np.maximum(np.max(dens, axis=1),
                                       np.max(ref, axis=1))
    # split each panel at sign changes so |diff|^p is smooth inside
    crossing = ((np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0)
                & (np.maximum(np.abs(vals[:, :-1]), np.abs(vals[:, 1:]))
                   > floor[:, None]))
    panel, i = np.nonzero(crossing)
    roots = _brentq_lanes(
        lambda x: _diff_reference(tables, np.array(x)).tolist(),
        scan[panel, i].tolist(), scan[panel, i + 1].tolist(),
        vals[panel, i].tolist(), vals[panel, i + 1].tolist(),
        xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
    ends, signs, widths = [], [], []
    for k, (lo, hi) in enumerate(panels):
        cuts = [lo] + [x for j, x in zip(panel, roots) if j == k] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            if b - a < 1e-14:
                continue
            mid = 0.5 * (a + b)
            for end, sign in ((a, 1.0), (b, -1.0)):
                ends.append(end)
                signs.append(sign)
                widths.append(math.sqrt(abs(mid - end)))
    return tuple(ends), tuple(signs), tuple(widths)


def lp_distance(obj: Union[TableLike, Sequence[TableLike]], p: float,
                *more: float
                ) -> Union[float, List[float], List[List[float]]]:
    """L^p distance (quasi-norm for p < 1) between the density and the
    semicircle density, integrated over the union of their supports.

    ``obj`` is one power (a table, a computed power or a sequence of
    tables) or a list of powers, and ``p, *more`` are one or more
    exponents.  One power with one exponent gives a float; one power with
    several gives a list of floats, one per exponent; a list of powers
    gives one such list per power.  Every exponent must be finite and above
    1/2 (below that the difference of two half-power edge densities need
    not be integrable; the convergence statement being checked also starts
    there), and all are checked before any integral is run.

    The supports' endpoints split the line into panels, and each panel is
    cut again at the sign changes of the difference, so that |difference|^p
    is smooth inside every piece; a power is cut once for all exponents
    (``_lp_pieces``).  Each piece is halved and each half is integrated
    from its outer end in s, with x = end +/- s^2, which keeps endpoint
    power laws (singular density edges, root contact) smooth.  The halves
    of every power and exponent are integrated together by one vectorised
    adaptive Gauss-Kronrod call (``_gk21_integrals``), in which each keeps
    its own tolerance, budget and splits, so a value does not depend on
    what else is in the call.

    Gives ``math.inf`` where the distance does not exist: a density edge
    with power-law exponent ``alpha < 0`` makes ``|difference|**p``
    non-integrable as soon as ``p * alpha <= -1``.
    """
    ps = [float(q) for q in (p,) + more]
    if not all(0.5 < q < math.inf for q in ps):
        raise InvalidArgumentError("L^p distance requires a finite p > 1/2")
    if isinstance(obj, (DensityTable, CltDensity)):
        powers, one = [obj], True
    else:
        items = tuple(obj)
        one = all(isinstance(t, DensityTable) for t in items)
        powers = [items] if one else items
    values = _lp_values([_tables_of(power) for power in powers], ps)
    if not one:
        return values
    return values[0] if more else values[0][0]


def _lp_values(powers: Sequence[Tuple[DensityTable, ...]],
               ps: Sequence[float]) -> List[List[float]]:
    """``lp_distance`` of every power at every exponent, as
    ``values[power][exponent]``."""
    values = [[math.inf if _lp_diverges(tables, p) else None for p in ps]
              for tables in powers]
    # one block of integrals, one per half-piece, for each finite (power,
    # exponent), kept as its range [lo, hi) of the integrals; every integral
    # is tagged with its power and its exponent
    blocks = []      # (power, exponent, lo, hi)
    ends, signs, widths, power_of, exponent_of = [], [], [], [], []
    for i, tables in enumerate(powers):
        todo = [j for j, v in enumerate(values[i]) if v is None]
        if not todo:
            continue
        piece_ends, piece_signs, piece_widths = _lp_pieces(tables)
        for j in todo:
            blocks.append((i, j, len(ends), len(ends) + len(piece_ends)))
            ends.extend(piece_ends)
            signs.extend(piece_signs)
            widths.extend(piece_widths)
            power_of.extend([i] * len(piece_ends))
            exponent_of.extend([j] * len(piece_ends))
    if not blocks:
        return values
    power_of, exponent_of = np.array(power_of), np.array(exponent_of)
    ends_a = np.array(ends)[:, None]
    signs_a = np.array(signs)[:, None]
    # deep refinement rounds nodes next to an end onto it, where a singular
    # density is infinite; such nodes are moved one ulp inside
    inner_a = np.nextafter(ends_a, ends_a + signs_a)

    def integrand(owner: np.ndarray, s: np.ndarray) -> np.ndarray:
        end = ends_a[owner]
        x = end + signs_a[owner] * s * s
        x = np.where(x == end, inner_a[owner], x)
        # the difference is evaluated once per power, then raised to each
        # of its exponents with a scalar power
        power, exponent = power_of[owner], exponent_of[owner]
        out = np.empty_like(s)
        for i in np.flatnonzero(np.bincount(power)):
            rows = power == i
            diff = np.abs(_diff_reference(powers[i], x[rows]))
            for j in np.flatnonzero(np.bincount(exponent[rows])):
                mine = rows & (exponent == j)
                out[mine] = 2.0 * s[mine] * diff[mine[rows]] ** ps[j]
        return out

    val, err = _gk21_integrals(integrand, np.array(widths))
    bad = ~np.isfinite(val) | (err > 1e-8 + 1e-6 * np.abs(val))
    for i, j, lo, hi in blocks:
        mine = slice(lo, hi)
        if np.any(bad[mine]):
            raise QuadratureError("L^p panel integral did not converge",
                                  residual=float(np.max(err[mine][bad[mine]])))
        values[i][j] = float(np.sum(val[mine]) ** (1.0 / ps[j]))
    return values


# Gauss-Kronrod 21-point rule on [-1, 1], constants of QUADPACK's qk21:
# Kronrod abscissae (every second one, from index 1, is a Gauss node) with
# their Kronrod weights, and the weights of the embedded 10-point Gauss rule.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208977260417, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_X = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_GK_WK = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GK_WG = np.zeros(21)
_GK_WG[1:10:2] = _WG
_GK_WG[11:20:2] = _WG[::-1]
_GK_EPSABS = 1e-12
_GK_EPSREL = 1e-10
_GK_LIMIT = 200           # subintervals per integral, as quad's limit=200
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _gk21_integrals(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    widths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Integrals of ``f(k, .)`` over ``[0, widths[k]]`` for every k at once,
    with their error estimates.

    ``f(owner, s)`` evaluates integrand ``owner[i]`` at the row ``s[i]`` of
    an ``(intervals, 21)`` array.  Each interval gets QUADPACK's qk21 value
    and error estimate.  An integral whose summed error is above
    ``max(epsabs, epsrel * |value|)`` bisects those of its intervals whose
    error is above an equal share of that tolerance, largest first, until
    it converges or holds ``_GK_LIMIT`` intervals.  So every refinement
    level makes a single call to ``f``.
    """
    count = widths.size
    owner = np.arange(count)
    lo = np.zeros(count)
    hi = np.asarray(widths, dtype=float)
    val, err = _gk21_rule(f, owner, lo, hi)
    while True:
        tot_val = np.bincount(owner, val, minlength=count)
        tot_err = np.bincount(owner, err, minlength=count)
        pieces = np.bincount(owner, minlength=count)
        tol = np.maximum(_GK_EPSABS, _GK_EPSREL * np.abs(tot_val))
        room = np.where(tot_err > tol, _GK_LIMIT - pieces, 0)
        split = np.nonzero((room[owner] > 0)
                           & (err > tol[owner] / pieces[owner]))[0]
        if split.size == 0:
            return tot_val, tot_err
        # largest errors first within each integral, at most its room
        split = split[np.lexsort((-err[split], owner[split]))]
        first = np.searchsorted(owner[split], owner[split])
        split = split[np.arange(split.size) - first < room[owner[split]]]
        keep = np.ones(owner.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_owner = np.concatenate((owner[split], owner[split]))
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err = _gk21_rule(f, new_owner, new_lo, new_hi)
        owner = np.concatenate((owner[keep], new_owner))
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))


def _gk21_rule(f, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """qk21 value and error estimate on each interval ``[lo[i], hi[i]]``."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    fv = f(owner, centr[:, None] + hlgth[:, None] * _GK_X[None, :])
    # einsum sums each row alike wherever it sits in the array, which a
    # BLAS matrix-vector product does not, so an integral's value does not
    # depend on what else is integrated with it
    resk = np.einsum("ij,j->i", fv, _GK_WK)
    resg = np.einsum("ij,j->i", fv, _GK_WG)
    resabs = np.einsum("ij,j->i", np.abs(fv), _GK_WK) * hlgth
    resasc = np.einsum("ij,j->i", np.abs(fv - 0.5 * resk[:, None]),
                       _GK_WK) * hlgth
    err = np.abs((resk - resg) * hlgth)
    scale = (resasc != 0.0) & (err != 0.0)
    err[scale] = resasc[scale] * np.minimum(
        1.0, (200.0 * err[scale] / resasc[scale]) ** 1.5)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    err[floor] = np.maximum(50.0 * _EPMACH * resabs[floor], err[floor])
    return resk * hlgth, err


# -- free entropy --------------------------------------------------------------

@lru_cache(maxsize=1)
def _chebyshev_cosines() -> Tuple[np.ndarray, np.ndarray]:
    """cos(k theta_j) for k = 0 .. _ENERGY_NODES - 1 at the Gauss-theta
    angles of ``quad_nodes(_ENERGY_NODES)``, in their x order, with the
    series weights 2/k for k >= 1.

    A table on [c - r, c + r] has nodes x_j = c + r cos(theta_j), so
    T_k((x_j - c) / r) = cos(k theta_j) and its Chebyshev moments are this
    matrix times its quadrature weights.  The rule resolves cos(k theta)
    to ~1e-14 up to k = _ENERGY_NODES - 1.
    """
    s, _ = _leggauss(_ENERGY_NODES)
    theta = 0.5 * np.pi * (s + 1.0)
    theta = theta[np.argsort(np.cos(theta))]
    k = np.arange(_ENERGY_NODES)
    return np.cos(k[:, None] * theta[None, :]), 2.0 / k[1:]


def _log_energy_quad(tables: Sequence[DensityTable]) -> float:
    """Double log-kernel energy of the tables' summed density.

    The self energy of a table on [a, b] comes from its Chebyshev moments
    tau_k = int T_k((x - c) / r) p(x) dx: by -log|s - t| = log 2 +
    sum_{k >= 1} (2/k) T_k(s) T_k(t) on [-1, 1], it is
    tau_0^2 log((b - a) / 4) - sum_k (2/k) tau_k^2.  Two tables have
    disjoint supports, so log|x - y| is smooth between them and their
    cross energy is the tensor product of their Gauss-theta rules.
    """
    spans = sorted(tab.support for tab in tables)
    if any(hi > lo for (_, hi), (lo, _) in zip(spans, spans[1:])):
        raise InvalidArgumentError("free entropy needs tables with "
                                   "disjoint supports")
    cosines, weights = _chebyshev_cosines()
    nodes = [tab.quad_nodes(_ENERGY_NODES) for tab in tables]
    total = 0.0
    for tab, (_, w) in zip(tables, nodes):
        a, b = tab.support
        tau = cosines @ w
        total += (tau[0] ** 2 * math.log(0.25 * (b - a))
                  - float(weights @ tau[1:] ** 2))
    for i, (xi, wi) in enumerate(nodes):
        for xj, wj in nodes[i + 1:]:
            total += 2.0 * float(
                wi @ np.log(np.abs(xi[:, None] - xj[None, :])) @ wj)
    return total


def free_entropy(obj: TableLike) -> ExtendedReal:
    """Free entropy: the double logarithmic energy of the density plus
    3/4 + (1/2) log 2 pi.

    Each table's self energy is a sum of its squared Chebyshev moments,
    taken with a 512-node Gauss rule in the angle variable, whose integrand
    stays bounded for endpoint exponents >= -1/2; the cross energy of two
    tables is a tensor Gauss rule.  On closed-form densities the value is
    within 3e-11 of the truth.  Tables whose supports overlap are rejected.
    """
    energy = _log_energy_quad(_tables_of(obj))
    if not math.isfinite(energy):
        raise QuadratureError("logarithmic energy integral did not converge")
    return ExtendedReal(energy + _ENTROPY_CONSTANT, False)


# -- free Fisher information ---------------------------------------------------

def _edge_exponents(tab: DensityTable) -> Tuple[float, float]:
    out = []
    for side, order in zip(("left", "right"), tab.edge_orders):
        if order is None:
            raise QuadratureError(
                f"{side} endpoint exponent is ambiguous; rebuild the table "
                "with a finer grid near the support edge")
        out.append(float(order))
    return out[0], out[1]


def free_fisher(obj: TableLike) -> ExtendedReal:
    """Free Fisher information (4 pi^2 / 3) * int p(x)^3 dx.

    The cube of an endpoint power law x^alpha is integrable only for
    3*alpha > -1; a fitted exponent at or below -1/3 is reported as a
    confirmed divergence rather than integrated.
    """
    tables = _tables_of(obj)
    total = 0.0
    for tab in tables:
        a_ord, b_ord = _edge_exponents(tab)
        for side, order in (("left", a_ord), ("right", b_ord)):
            if 3.0 * order <= -1.0 + 1e-12:
                return ExtendedReal(
                    math.inf, True,
                    diagnosis=(f"{side} endpoint exponent {order:g}: cubed "
                               "density is not integrable"))
        _, jac, p = tab._node_set(_ENERGY_NODES)
        total += float(np.sum(jac * p ** 3))
    return ExtendedReal((4.0 * math.pi ** 2 / 3.0) * total, False)


# -- log-Sobolev gap ------------------------------------------------------------

def log_sobolev_gap(obj: TableLike) -> ExtendedReal:
    """chi - (1/2) log(2 pi e / Phi): nonnegative by the free log-Sobolev
    inequality, zero exactly at the semicircle.  Infinite Phi makes the
    inequality vacuous; the gap is then reported as +infinity."""
    return _gap(free_entropy(obj), free_fisher(obj))


def _gap(chi: ExtendedReal, phi: ExtendedReal) -> ExtendedReal:
    if phi.divergent:
        return ExtendedReal(math.inf, True,
                            diagnosis="Fisher information divergent; "
                                      "inequality vacuously satisfied")
    gap = chi.value - 0.5 * math.log(2.0 * math.pi * math.e / phi.value)
    return ExtendedReal(gap, False)


# -- reports ---------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Per-power convergence metrics, rows keyed by power index."""
    rows: Dict[int, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"rows": [self.rows[n] for n in sorted(self.rows)]}


def _report_row(mu, n: int, p_list: Sequence[float],
                dens: CltDensity) -> dict:
    """A report row with its ``lp`` left empty for ``_report_rows``,
    which takes the L^p distances of all its rows in one call; the row's
    ``lp_divergent`` flag is set here, by the edge test that makes those
    distances infinite."""
    tables = dens.tables
    flags: List[str] = []
    sup = sup_distance(tables)
    if dens.atoms:
        # sup and L^p are taken over the ac part; chi and Phi of a law
        # with an atom are -infinity and +infinity
        flags.append("atoms_excluded")
        chi = ExtendedReal(-math.inf, True,
                           diagnosis="power keeps an atom: free entropy "
                                     "is -infinity")
        phi = ExtendedReal(math.inf, True,
                           diagnosis="power keeps an atom: Fisher "
                                     "information is +infinity")
    else:
        chi = free_entropy(tables)
        phi = free_fisher(tables)
    if _has_singular_edge(tables):
        flags.append("sup_grid_dependent")
    gap = _gap(chi, phi)
    if phi.divergent:
        flags.extend(("phi_divergent", "gap_vacuous"))
    if chi.value > CHI_SEMICIRCLE + TOL_CHI:
        flags.append("chi_above_semicircle_bound")
    if not phi.divergent and gap.value < -TOL_GAP:
        flags.append("gap_negative")
    if any(_lp_diverges(tables, p) for p in p_list):
        flags.append("lp_divergent")
    return {
        "n": n,
        "sup_dist": float(sup),
        "lp": {},
        "chi": float(chi.value),
        "phi": float(phi.value),
        "gap": float(gap.value),
        "flags": flags,
    }


def report_row(mu, n: int, p_list: Sequence[float] = (0.6, 1.0, 2.0),
               dens: Optional[CltDensity] = None) -> dict:
    """One convergence-report row, the one-power case of a report; accepts
    a precomputed density to avoid recomputing it when the caller already
    has one."""
    density = clt_density_flow if dens is None else (lambda _mu, _n: dens)
    ps = [float(p) for p in p_list]
    return _report_rows(mu, [int(n)], ps, density)[0][1]


def _report_rows(mu, ns: Sequence[int], ps: Sequence[float],
                 density: Callable[..., CltDensity]
                 ) -> List[Tuple[CltDensity, dict]]:
    """(density, row) for each power of ``ns`` (ascending), the density
    taken from ``density(mu, n)``.  Each row's density, sup, chi and Phi
    are computed in turn, then the L^p distances of all rows in one call,
    at each distinct exponent once; a row whose entropy falls below an
    earlier row's is flagged ``chi_not_monotone`` rather than raised."""
    out = []
    for n in ns:
        dens = density(mu, n)
        out.append((dens, _report_row(mu, n, ps, dens=dens)))
    ps = list(dict.fromkeys(ps))  # a repeated exponent is one key
    if ps:
        values = lp_distance([dens for dens, _ in out], *ps)
        for (_, row), vals in zip(out, values):
            row["lp"] = {str(p): v for p, v in zip(ps, vals)}
    prev_chi = -math.inf
    for _, row in out:
        if row["chi"] < prev_chi - 1e-12:
            row["flags"].append("chi_not_monotone")
        prev_chi = max(prev_chi, row["chi"])
    return out


def convergence_report(mu, n_list: Iterable[int],
                       p_list: Sequence[float] = (0.6, 1.0, 2.0)
                       ) -> ConvergenceReport:
    """Convergence metrics for each power in ``n_list``.

    Rows are computed in ascending order; entropy monotonicity
    violations are flagged on the offending row rather than raised.
    """
    ns = sorted({int(n) for n in n_list})
    if not ns:
        raise InvalidArgumentError("n_list must not be empty")
    if any(n < 2 for n in ns):
        raise InvalidArgumentError("convergence report requires n >= 2")
    ps = [float(p) for p in p_list]
    if not all(0.5 < p < math.inf for p in ps):
        raise InvalidArgumentError("L^p distance requires a finite p > 1/2")
    rows = _report_rows(mu, ns, ps, clt_density_flow)
    return ConvergenceReport({row["n"]: row for _, row in rows})
