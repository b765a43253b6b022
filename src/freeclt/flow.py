"""Semicircular-flow machinery: heights, regions, and the push-forward map.

For a probability measure nu and time t > 0, the free convolution of nu with
the semicircle law of variance t has an explicit boundary parametrization:

  height   v(u)  solves  I(u, v) = 1/t  where  I(u, v) = int dnu / ((u-x)^2 + v^2),
           with v(u) = 0 where I(u, 0) <= 1/t;
  map      psi(u) = u + t * J(u, v(u))  where  J = int (u-x) dnu / ((u-x)^2 + v^2);
  density  of the convolution at x = psi(u) equals v(u) / (pi t);
  boundary Cauchy transform at psi(u) is J(u, v(u)) - i v(u)/t, with modulus
           at most 1/sqrt(t).

The set {v > 0} is a finite union of open intervals (regions); psi restricted
to the real line is increasing and maps region closures onto the support.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .errors import ConsistencyError, InvalidArgumentError
from .measures import Measure, _chebyshev_extrema, _leggauss
from .transforms import _brentq_lanes

_V_NEWTON_MAX = 60          # monotone Newton needs about a dozen steps
_V_STEP_RTOL = 2.2e-16      # stop once a step is below this share of v^2
_V_RESID_FLOOR = 8.8e-16    # ... or once t*I - 1 is at most 4 rounding units
_CURVE_POINTS = 1401        # Chebyshev extrema of the curve's table per region
# an ac curve's nested height solves, in intervals of the extrema: 6, 36,
# 71, 141, 281 and all 1,401 points; each divides the next and
# _CURVE_POINTS - 1
_CURVE_STAGES = (5, 35, 70, 140, 280, 1400)
_MOMENT_NODES = 320         # Gauss nodes per half-region of region_integral
_BLOCK_ENTRIES = 2 ** 15    # entries of one (points x nodes) work array
_SERIES_TAIL = 16           # curve series: these last coefficients of a row
_SERIES_RTOL = 1e-15        # ... at most this share of its largest, or no series


class FlowKernel:
    """Vectorized evaluator for the integrals I, J and their refinements.

    Atom contributions are exact sums; an absolutely continuous part is
    integrated on fixed angle-substituted Gauss-Legendre nodes, which is
    spectrally accurate whenever the evaluation point stays a few node
    spacings away from the ac support or the height v is not tiny.
    """

    def __init__(self, nu: Measure, t: float):
        if not (np.isfinite(t) and t > 0):
            raise InvalidArgumentError("flow time t must be positive")
        self.nu = nu
        self.t = float(t)
        xs = [a.x for a in nu.atoms]
        ws = [a.w for a in nu.atoms]
        if nu.ac is not None:
            xq, wq = nu.ac.quad_nodes()
            xs = np.concatenate([np.asarray(xs), xq])
            ws = np.concatenate([np.asarray(ws), wq])
        self.nodes = np.asarray(xs, dtype=float)
        self.weights = np.asarray(ws, dtype=float)
        self.support_components = nu.support_components()

    # all of I, J, M2, M2x share the distance matrix; chunk over points
    def _accumulate(self, u: np.ndarray, v: np.ndarray, which: Tuple[str, ...]):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        flat_u = u.ravel()
        flat_v = np.broadcast_to(v, u.shape).ravel()
        out = {name: np.zeros(flat_u.shape) for name in which}
        rows = _block_rows(self)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, flat_u.size, rows):
                sl = slice(lo, min(lo + rows, flat_u.size))
                du = flat_u[sl, None] - self.nodes[None, :]
                D = du * du + (flat_v[sl, None]) ** 2
                w = self.weights[None, :]
                if "I" in out:
                    out["I"][sl] = np.sum(w / D, axis=1)
                if "J" in out:
                    out["J"][sl] = np.sum(w * du / D, axis=1)
                if "M2" in out:
                    out["M2"][sl] = np.sum(w / D ** 2, axis=1)
                if "M2x" in out:
                    out["M2x"][sl] = np.sum(w * du / D ** 2, axis=1)
        return tuple(out[name].reshape(u.shape) for name in which)

    def integral_I(self, u, v):
        return self._accumulate(np.asarray(u, float), np.asarray(v, float), ("I",))[0]

    def integral_J(self, u, v):
        return self._accumulate(np.asarray(u, float), np.asarray(v, float), ("J",))[0]

    def second_moments(self, u, v):
        return self._accumulate(np.asarray(u, float), np.asarray(v, float),
                                ("M2", "M2x"))


def _block_rows(kernel: FlowKernel) -> int:
    """Rows per block of a (points x nodes) work array: about _BLOCK_ENTRIES
    entries, so a block stays in L2 -- 8 rows for an ac kernel, every point
    at once for an atomic one."""
    return max(1, _BLOCK_ENTRIES // kernel.nodes.size)


def _node_columns(kernel: FlowKernel) -> np.ndarray:
    """The two columns W = [w, w x] that every kernel pass takes its powers
    of r = 1/(a + s) against.  BLAS takes a wide block (an ac kernel)
    fastest against a column-major W, and a tall one (atoms) against a
    row-major W."""
    x = kernel.nodes
    W = np.empty((x.size, 2), order="F" if x.size > _block_rows(kernel)
                 else "C")
    W[:, 0] = kernel.weights
    W[:, 1] = kernel.weights * x
    return W


def _newton_blocks(kernel: FlowKernel, u: np.ndarray, guess) -> np.ndarray:
    """Rows (s, J, M2, M2x) at s = v^2 for the flat points u, block by block.

    A climb is flow_v's monotone Newton from s0 = max(0, max_j(w_j t -
    a_j)), or from max(start, s0), a NaN start taken as s0.  Each pass
    takes r = 1/(a + s) and r^2 against W = [w, w x], so it also gives
    J = u I - sum w x r and M2x = u M2 - sum w x r^2.  A row stops once its
    step is below _V_STEP_RTOL * s or t I - 1 is at most _V_RESID_FLOOR:
    past that the step is rounding noise.  Cold (guess None): every block
    climbs from s0 until no row moves, and keeps the sums of that pass.

    Warm: one pass at the guess s_g, clamped at 0, gives the Newton step d.
    A row with |d| <= sqrt(_V_STEP_RTOL) s_g is at the root to rounding and
    stops after that one pass, at s = s_g + d, with its sums carried to s
    to first order: I and sum w x r move by -d times M2 and sum w x r^2,
    M2 and sum w x r^2 by -2 d times sum w r^3 and sum w x r^3, so an exit
    pass also takes r^3 against W.  |f''/f'| <= 2/s for f = 1/I, so the
    step leaves an error of at most d^2/s and the carried sums one of about
    (d/s)^2 relative, both below the climb's own floor, from either side of
    the root.  The other rows (tiny s near a region end, NaN on a node,
    guesses far off) are gathered into full blocks and climb from
    max(s_g + d, s0): from any start one Newton step lands at or below the
    root, as 1/I is concave.  Such a block exits the same way, at the first
    pass where every row still climbing has a step of at most
    sqrt(_V_STEP_RTOL) s: those rows step to s + d with carried sums, and
    no last pass only confirms them.
    """
    t, x = kernel.t, kernel.nodes
    wt = kernel.weights * t
    W = _node_columns(kernel)
    rows = _block_rows(kernel)
    a, r, r2 = (np.empty((min(rows, u.size), x.size)) for _ in range(3))
    out = np.empty((4, u.size))
    exit_rtol = math.sqrt(_V_STEP_RTOL)

    def newton_pass(s):
        # (S1, S2, t I - 1, Newton step) at s, a = (u - x)^2 loaded
        r_k, r2_k = r[:s.size], r2[:s.size]
        np.add(a[:s.size], s[:, None], out=r_k)
        np.reciprocal(r_k, out=r_k)
        S1 = r_k @ W
        np.square(r_k, out=r2_k)
        S2 = r2_k @ W
        resid = t * S1[:, 0] - 1.0
        return S1, S2, resid, resid * S1[:, 0] / S2[:, 0]

    def carry(idx, s, d, S1, S2):
        # out rows at s + d from the pass at s: the columns of S1 (I,
        # sum w x r) move by -d S2, those of S2 by -2 d S3, S3 = r^3 @ W
        if d.any():
            r_k = np.multiply(r2[:s.size], r[:s.size], out=r[:s.size])
            S1, S2 = S1 - d[:, None] * S2, S2 - 2.0 * d[:, None] * (r_k @ W)
        out[0, idx] = s + d
        out[1, idx] = u[idx] * S1[:, 0] - S1[:, 1]
        out[2, idx] = S2[:, 0]
        out[3, idx] = u[idx] * S2[:, 0] - S2[:, 1]

    def load(idx):
        u_k = u[idx]
        a_k = a[:u_k.size]
        np.subtract(u_k[:, None], x, out=a_k)
        np.square(a_k, out=a_k)
        return a_k

    with np.errstate(divide="ignore", invalid="ignore"):
        blocks = [slice(lo, lo + rows) for lo in range(0, u.size, rows)]
        if guess is not None:
            exits = np.empty(u.size, dtype=bool)
            for idx in blocks:
                load(idx)
                s = np.maximum(guess[idx], 0.0)
                S1, S2, _, d = newton_pass(s)
                exits[idx] = np.abs(d) <= exit_rtol * s
                carry(idx, s, d, S1, S2)
            climb = np.flatnonzero(~exits)
            blocks = [climb[lo:lo + rows]
                      for lo in range(0, climb.size, rows)]
        for idx in blocks:
            a_k = load(idx)
            np.subtract(wt, a_k, out=r[:a_k.shape[0]])
            s0 = np.maximum(np.max(r[:a_k.shape[0]], axis=1), 0.0)
            s = s0 if guess is None else np.fmax(out[0, idx], s0)
            for _ in range(_V_NEWTON_MAX):
                S1, S2, resid, step = newton_pass(s)
                active = (step > _V_STEP_RTOL * s) & (resid > _V_RESID_FLOOR)
                if not active.any() or (guess is not None and np.all(
                        step[active] <= exit_rtol * s[active])):
                    break
                s = np.where(active, s + step, s)
            else:
                raise ConsistencyError(
                    "flow height Newton solve did not converge in %d steps"
                    % _V_NEWTON_MAX)
            carry(idx, s, np.where(active, step, 0.0), S1, S2)
    return out


def _height_sums(kernel: FlowKernel, u):
    """(v, J, M2, M2x) at the curve height v(u), from one cold Newton solve.

    J, M2 and M2x are the kernel sums at (u, v(u)), taken from the solve's
    last pass.  Points that span more than one block are solved in sorted
    order (a stable sort), so a block holds the same points, and each
    point gets the same bits, however u is ordered or shaped.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    flat = u.ravel()
    if flat.size <= _block_rows(kernel):
        sums = _newton_blocks(kernel, flat, None)
    else:
        order = np.argsort(flat, kind="stable")
        sums = np.empty((4, flat.size))
        sums[:, order] = _newton_blocks(kernel, flat[order], None)
    s, J, M2, M2x = (row.reshape(u.shape) for row in sums)
    return _checked_height(kernel, s), J, M2, M2x


def _checked_height(kernel: FlowKernel, s: np.ndarray) -> np.ndarray:
    """v = sqrt(s), which the curve bounds by sqrt(t)."""
    v = np.sqrt(s)
    if np.any(v > math.sqrt(kernel.t) * (1.0 + 1e-12)):
        raise ConsistencyError("flow height exceeded sqrt(t)")
    return v


def flow_v(kernel: FlowKernel, u) -> np.ndarray:
    """Height function: the unique v >= 0 with I(u, v) = 1/t, or 0.

    Solved by Newton's method in s = v^2.  With a_j = (u - x_j)^2,
    1/I(u, s) = 1 / sum_j w_j / (a_j + s) is a weighted harmonic mean of the
    affine maps a_j + s, hence concave and increasing in s.  Newton on the
    concave equation 1/I = t, started below its root, climbs monotonically
    to the root: each tangent lies above the curve, so no step overshoots.
    The start s0 = max(0, max_j(w_j t - a_j)) is such a lower bound -- at s0
    one term alone already reaches 1/t -- and it keeps every term
    w_j / (a_j + s) <= 1/t, so u on an atom or a node (I(u, 0) = +inf)
    needs no special case.  Where I(u, 0) <= 1/t the first step is not
    positive and v stays 0.  Iteration stops once a step falls below
    2.2e-16 relative to s, or once the residual t I - 1 is at most
    4 * 2.2e-16, where a step is rounding noise.  Every point here is
    solved cold (see _height_sums).  flow_curve solves an ac kernel's
    heights in stages, each warm from the Chebyshev interpolant of the last
    (see _ladder_rows): a warm point stops after one pass over the nodes
    once its Newton step is at most sqrt(2.2e-16) ~ 1.5e-8 relative to s,
    which leaves an error below 2.2e-16 relative; the others climb on, and
    their blocks stop the same way, one pass before the step falls below
    2.2e-16 (see _newton_blocks).
    """
    return _height_sums(kernel, u)[0]


def flow_psi(kernel: FlowKernel, u, v) -> np.ndarray:
    """Push-forward map psi(u) = u + t * J(u, v)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return u + kernel.t * kernel.integral_J(u, v)


def flow_map(kernel: FlowKernel, u):
    """(v, psi) at the curve height."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v, J, _, _ = _height_sums(kernel, u)
    return v, u + kernel.t * J


def _psi_prime(t: float, v, M2, M2x):
    """d psi / du where v > 0: 2 t (M2x^2 + v^2 M2^2) / M2."""
    return 2.0 * t * (M2x ** 2 + (v * M2) ** 2) / M2


def flow_region(kernel: FlowKernel) -> Tuple[Tuple[float, float], ...]:
    """Maximal open intervals where the height is positive.

    I(., 0) is convex on each gap between support components and decays to
    zero at infinity, so each boundary is a simple crossing of 1/t -- or
    the support point itself, when I(., 0) stays <= 1/t next to it (a
    density that vanishes fast enough there).  A gap splits the region
    where the minimum of I(., 0) on it is below 1/t: that minimum is the
    root of I' = -2 sum w / (x - x_k)^3, or the gap end where I' keeps one
    sign, and the minima of all gaps are solved in one _brentq_lanes call.
    So are all the crossings, both outer ones and the pair of each split
    gap, each to brentq's xtol=1e-14, rtol=8.9e-16.
    """
    t = kernel.t
    target = 1.0 / t
    comps = kernel.support_components
    nodes, weights = kernel.nodes, kernel.weights

    def sums(power: int, shift: float, x):
        # sum w / (x - x_k)^power - shift at each point of the list x
        d = np.array(x)[:, None] - nodes
        with np.errstate(divide="ignore"):
            q = d * d if power == 2 else d * d * d
            return (np.sum(weights / q, axis=1) - shift).tolist()

    f_lanes = partial(sums, 2, target)   # I(., 0) - 1/t
    slope = partial(sums, 3, 0.0)        # -I'/2
    f = lambda x: f_lanes([x])[0]

    # brackets [xa, xb] of every crossing, with f at both ends
    xa, xb, fa, fb = [], [], [], []
    ends = []  # each region end: a support point, or None for a bracket's

    def crossing(pt: float, sign: float, d: float, far: float, f_far: float):
        # the crossing between the support point pt and far, where f < 0:
        # step in from pt + sign * d until f > 0, or end on pt
        while (f_in := f(pt + sign * d)) <= 0:
            if pt + sign * d == pt:
                ends.append(pt)
                return
            d *= 0.25
        (a, f_a), (b, f_b) = sorted(((pt + sign * d, f_in), (far, f_far)))
        ends.append(None)
        xa.append(a)
        xb.append(b)
        fa.append(f_a)
        fb.append(f_b)

    hull_lo, hull_hi = comps[0][0], comps[-1][1]
    scale = max(1.0, abs(hull_lo), abs(hull_hi), math.sqrt(t))

    def outer_crossing(hull_pt: float, sign: float):
        # I decays to 0 far away, so one crossing of 1/t lies on each side
        # of the hull
        step = math.sqrt(t)
        while (f_far := f(hull_pt + sign * step)) > 0:
            step *= 2.0
        crossing(hull_pt, sign, 1e-12 * scale, hull_pt + sign * step, f_far)

    outer_crossing(hull_lo, -1.0)

    # interior gaps: convexity gives at most two crossings per gap, on
    # either side of the minimum; sum w / (x - x_k)^3 = -I'/2 falls across
    # a gap, so where it does not change sign the minimum is at an end
    gaps = [(c_hi, c_lo, c_lo - c_hi)
            for (_, c_hi), (c_lo, _) in zip(comps, comps[1:])
            if c_lo - c_hi >= 1e-12]
    lo = [c_hi + 1e-9 * gap for c_hi, _, gap in gaps]
    hi = [c_lo - 1e-9 * gap for _, c_lo, gap in gaps]
    s_lo, s_hi = slope(lo), slope(hi)
    x_min = [lo[k] if s_lo[k] <= 0 else hi[k] for k in range(len(gaps))]
    turn = [k for k in range(len(gaps)) if s_lo[k] > 0 > s_hi[k]]
    for k, x in zip(turn, _brentq_lanes(
            slope, [lo[k] for k in turn], [hi[k] for k in turn],
            [s_lo[k] for k in turn], [s_hi[k] for k in turn],
            xtol=1e-13, rtol=8.9e-16)):
        x_min[k] = x
    for (c_hi, c_lo, gap), xm, f_min in zip(gaps, x_min, f_lanes(x_min)):
        if f_min >= 0:
            continue  # gap stays inside one region
        crossing(c_hi, +1.0, 1e-9 * gap, xm, f_min)
        crossing(c_lo, -1.0, 1e-9 * gap, xm, f_min)

    outer_crossing(hull_hi, +1.0)
    roots = iter(_brentq_lanes(f_lanes, xa, xb, fa, fb,
                               xtol=1e-14, rtol=8.9e-16))
    edges = [next(roots) if e is None else e for e in ends]
    return tuple((edges[k], edges[k + 1]) for k in range(0, len(edges), 2))


@dataclass(frozen=True, eq=False)
class FlowCurve:
    """Sampled flow curve: u-grid with heights and image points, per region.

    _series holds, per region, the chopped coefficients of the curve's rows
    (s = v^2, J, M2, M2x) in cos(k theta), u = mid - half cos(theta), from
    the first stage of the height solve whose rows chop, at 36, 71, 141 or
    281 extrema or at all of them (see _ladder_rows and _chebyshev_series;
    the 6 extrema of the cold first stage are too few to chop); the
    extrema that stage did not solve took their rows from it.  None for an
    atomic kernel, or where no stage's rows chop, so that every extremum
    was solved (see _moment_sums)."""

    kernel: FlowKernel
    regions: Tuple[Tuple[float, float], ...]
    u: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    region_index: np.ndarray
    _series: Tuple[Optional[np.ndarray], ...] = field(repr=False)

    @property
    def t(self) -> float:
        return self.kernel.t

    def j_values(self) -> np.ndarray:
        """J along the curve, recovered from psi = u + t*J."""
        return (self.psi - self.u) / self.t


def _dct1(rows: np.ndarray) -> np.ndarray:
    """The unnormalized DCT-I of each row, y_k = x_0 + (-1)^k x_{N-1} +
    2 sum_{j=1}^{N-2} x_j cos(pi j k / (N - 1)): the real part of the real
    FFT of the row's even extension, x_0 .. x_{N-1} .. x_1, which is how
    pocketfft takes a DCT-I, so the values are scipy.fft.dct(type=1)'s."""
    return np.fft.rfft(np.concatenate((rows, rows[:, -2:0:-1]), axis=1),
                       axis=1).real


def _chebyshev_coefficients(rows: np.ndarray) -> np.ndarray:
    """The coefficients c_k of sum_k c_k cos(k theta) through each row's
    values at theta_j = pi j / (N - 1), j = 0..N-1, from one DCT-I."""
    c = _dct1(rows) / (rows.shape[1] - 1)
    c[:, [0, -1]] *= 0.5
    return c


def _extrema_values(coefficients: np.ndarray, size: int) -> np.ndarray:
    """Each row of coefficients summed, sum_k c_k cos(k theta_j), at the
    size extrema theta_j = pi j / (size - 1), from one DCT-I of the
    zero-padded rows (DCT-I weighs its inner terms twice)."""
    padded = np.zeros((coefficients.shape[0], size))
    padded[:, :coefficients.shape[1]] = coefficients
    padded[:, 1:-1] *= 0.5
    return _dct1(padded)


def _chebyshev_series(rows: np.ndarray) -> Optional[np.ndarray]:
    """The _chebyshev_coefficients of the rows, all chopped after the last
    coefficient that is above _SERIES_RTOL of its row's largest.  None when
    the last _SERIES_TAIL coefficients of some row are not all at or below
    that level, or a value is not finite (a plateau test after Aurentz &
    Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017).  The
    coefficients do not depend on N, so a series from N points sums to the
    rows at any theta, as the curve's other extrema do (see
    _ladder_rows)."""
    if not np.all(np.isfinite(rows)):
        return None
    c = _chebyshev_coefficients(rows)
    above = np.abs(c) > _SERIES_RTOL * np.max(np.abs(c), axis=1,
                                              keepdims=True)
    if above[:, -_SERIES_TAIL:].any():
        return None
    return c[:, :np.flatnonzero(above.any(axis=0))[-1] + 1]


def _series_sums(series: np.ndarray, region: Tuple[float, float], u):
    """(v, J, M2, M2x) at the points u of the region from its curve series,
    or (v,) from a series of s = v^2 alone: one product against
    cos(k theta) at theta = arccos((g + h - 2u) / (h - g)) sums every row,
    and the first, s, is clamped at 0."""
    g, h = region
    theta = np.arccos(np.clip((g + h - 2.0 * u) / (h - g), -1.0, 1.0))
    s, *rest = series @ np.cos(np.arange(series.shape[1])[:, None] * theta)
    return (np.sqrt(np.maximum(s, 0.0)), *rest)


def _moment_sums(curve: FlowCurve, k: int):
    """sums(u) -> (v, J, M2, M2x) at points u of region k of the curve, for
    its moments: off the region's series where it has one, else from a
    height solve, cold for an atomic kernel.  An ac region without a series
    solved every extremum, and its solve starts warm from the Chebyshev
    interpolant of the curve's s = v^2, unchopped: its last coefficients
    are at most about 2e-10 of the largest, where M2's need not fall."""
    kernel, region, series = curve.kernel, curve.regions[k], curve._series[k]
    if series is not None:
        return partial(_series_sums, series, region)
    if kernel.nu.ac is None:
        return partial(_height_sums, kernel)
    s_series = _chebyshev_coefficients(
        curve.v[None, curve.region_index == k] ** 2)

    def sums(u):
        guess = _series_sums(s_series, region, u)[0] ** 2
        s, J, M2, M2x = _newton_blocks(kernel, u, guess)
        return _checked_height(kernel, s), J, M2, M2x
    return sums


def _increasing_subsequence(psi: np.ndarray, delta: float):
    """Indices of the greedy subsequence of psi that rises by more than
    delta at each step, ending on the last point."""
    vals = psi.tolist()
    keep, last = [0], vals[0]
    for i in range(1, len(vals)):
        if vals[i] > last + delta:
            keep.append(i)
            last = vals[i]
    if keep[-1] != psi.size - 1:
        keep[-1] = psi.size - 1  # preserve the exact region endpoint
    return keep


def _ladder_rows(kernel: FlowKernel, u: np.ndarray):
    """Rows (s, J, M2, M2x) at the _CURVE_POINTS Chebyshev extrema u of a
    region, with their chopped series, or None where no stage chops.

    The heights are solved in the nested stages _CURVE_STAGES: 6 extrema
    cold, in one block, then 36, 71, 141, 281 and every one, each stage
    adding only the points the last did not solve, warm from the Chebyshev
    interpolant of the last stage's s (its DCT-I coefficients, unchopped,
    summed at the new extrema).  The first stage whose rows chop under
    _chebyshev_series ends the solve.  Solved points keep their rows; the
    others take theirs from the zero-padded series summed at every
    extremum, with s clamped at 0.  A region that never chops has solved
    every extremum."""
    rows = np.empty((4, u.size))
    index = np.arange(u.size)
    step = 0
    for intervals in _CURVE_STAGES:
        coarse, step = step, (u.size - 1) // intervals
        if not coarse:
            new, guess = index[::step], None
        else:
            new = index[(index % step == 0) & (index % coarse != 0)]
            guess = _extrema_values(_chebyshev_coefficients(
                rows[:1, ::coarse]), u.size)[0, new]
        rows[:, new] = _newton_blocks(kernel, u[new], guess)
        _checked_height(kernel, rows[0, new])
        series = _chebyshev_series(rows[:, ::step])
        if series is not None:
            break
    if series is not None and step > 1:
        solved = rows[:, ::step]
        rows = _extrema_values(series, u.size)
        np.maximum(rows[0], 0.0, out=rows[0])
        rows[:, ::step] = solved
    return rows, series


def flow_curve(kernel: FlowKernel) -> FlowCurve:
    """Sample the curve at _CURVE_POINTS Chebyshev extrema of each region.

    No refinement pass: psi' = 2 t (M2x^2 + v^2 M2^2) / M2 <= 2 t I = 2 on
    the curve (Cauchy-Schwarz: M2x^2 <= M2 (I - v^2 M2)), so an image gap is
    at most twice its u gap.  An atomic kernel solves the height at every
    extremum.  A kernel with an ac part solves it only as finely as the
    rows (s, J, M2, M2x) need to chop, from 6 extrema solved cold up, each
    later stage warm from the last one's Chebyshev interpolant (see
    _ladder_rows), fills the other extrema from their series, and keeps
    that series per region, taken before the ends are set and any point is
    dropped."""
    regions = flow_region(kernel)
    us, vs, ps, ridx, series = [], [], [], [], []
    for k, (g, h) in enumerate(regions):
        u = _chebyshev_extrema(g, h, _CURVE_POINTS)
        if kernel.nu.ac is None:
            v, J, _, _ = _height_sums(kernel, u)
            series.append(None)
        else:
            rows, chopped = _ladder_rows(kernel, u)
            v, J = np.sqrt(rows[0]), rows[1]
            series.append(chopped)
        psi = u + kernel.t * J
        v[[0, -1]] = 0.0  # exact at region ends
        psi[[0, -1]] = flow_psi(kernel, u[[0, -1]], v[[0, -1]])
        # near critical points psi flattens cubically and adjacent image
        # points can collide at machine precision; keep a strictly
        # increasing subsequence (the dropped points carry density ~ 0)
        delta = 1e-13 * max(1.0, float(np.max(np.abs(psi))))
        if not np.all(psi[1:] > psi[:-1] + delta):
            keep = _increasing_subsequence(psi, delta)
            u, v, psi = u[keep], v[keep], psi[keep]
        if np.any(np.diff(psi) <= 0):
            raise ConsistencyError(
                "flow image grid not strictly increasing in region %d" % k)
        us.append(u)
        vs.append(v)
        ps.append(psi)
        ridx.append(np.full(u.shape, k, dtype=int))
    return FlowCurve(kernel, regions, np.concatenate(us), np.concatenate(vs),
                     np.concatenate(ps), np.concatenate(ridx), tuple(series))


def region_integral(kernel: FlowKernel, region: Tuple[float, float],
                    integrand):
    """Integral over one region in the u variable with square-root endpoint
    substitutions: s = sqrt(u - g) (resp. sqrt(h - u)) on each half, each
    half on _MOMENT_NODES Gauss-Legendre nodes.

    integrand(u) must be vectorized; heights vanish like sqrt at the region
    ends so the substituted integrand is smooth there.  A scalar integrand
    (values of shape (m,)) gives a float; a stacked one (shape (k, m))
    gives the k integrals as an array, from one evaluation per half.
    """
    g, h = region
    mid = 0.5 * (g + h)
    x_gl, w_gl = _leggauss(_MOMENT_NODES)
    total = 0.0
    for left in (True, False):
        smax = math.sqrt(mid - g) if left else math.sqrt(h - mid)
        s = 0.5 * smax * (x_gl + 1.0)
        w = 0.5 * smax * w_gl
        u = (g + s * s) if left else (h - s * s)
        total = total + np.sum(w * 2.0 * s * integrand(u), axis=-1)
    return float(total) if np.ndim(total) == 0 else total
