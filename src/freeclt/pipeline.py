"""Densities of normalized free convolution powers via two independent routes.

For a standardized seed measure mu and n >= 1, the object of interest is the
n-th free convolution power rescaled by 1/sqrt(n), so every power keeps mean
zero and variance one.

Route 1 (flow): with nu the companion of mu (1/G_mu = z - G_nu), the
reciprocal transform of the n-th normalized power is
  z - C(z),  C = Cauchy transform of (nu scaled by 1/sqrt(n)) convolved with
the semicircle law of variance t = (n-1)/n.  Boundary values of C come from
the explicit flow parametrization, and the density follows pointwise from a
quotient -- no fixed-point iteration anywhere.

Route 2 (subordination): omega(Z) solves omega = Z/n + (1-1/n)/G_mu(omega);
then the transform of the power at Z is G_mu(omega(Z)), rescaled back to the
normalized variable.  The density comes straight from boundary values
omega(Z + i0) on the real axis, where Im omega > 0 in the support: for a
seed of k atoms, a certified Newton root of the secular equation, started
from eigenvalues of k x k matrices at one point in nine, else guarded Newton
on omega = phi(Z, omega) at real Z (_newton, also used off the axis).
The support itself is read off the real fold map
Z(omega) = n omega - (n-1)/G_mu(omega), with no omega solve.

Atoms: the n-th power has an atom at n*x exactly when an atom of mu at x has
weight w > 1 - 1/n, with weight n*w - (n-1); normalization moves it to
sqrt(n)*x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import (
    ConsistencyError,
    FixedPointError,
    InvalidArgumentError,
)
from .measures import (Atom, DensityTable, Measure, _chebyshev_rule,
                       build_table, dilate)
from .transforms import (
    _brentq_lanes,
    cauchy,
    cauchy_derivative,
    companion_measure,
)
from .flow import (
    FlowCurve,
    FlowKernel,
    _moment_sums,
    _psi_prime,
    flow_curve,
    flow_map,
    region_integral,
)

DEFAULT_GRID = (-3.0, 3.0, 1201)
_INVERSION_GRID = 801     # Chebyshev roots per tabulated interval
TOL_FIXED_POINT = 1e-13
_OMEGA_MAX_ITER = 10_000    # Picard and Newton steps of one omega solve
_PICARD_DAMPING = 0.8
_PICARD_MAX = 400
_NEWTON_MAX = 60
_AXIS_START = 1e-3          # height of the solve that starts an axis solve
_AXIS_STRIDE = 8            # roots between the continuation's anchors
_ROOT_STRIDE = 9            # roots between an atomic seed's eigenproblems
_SECULAR_STEPS = 8          # Newton steps of an atomic seed's boundary solve
_MASS_TOL = 1e-6            # largest |mass - 1| a power may have
_PROBE_POINTS = 257         # cross-route comparison grid
_TAIL_CONSTANT = 72.0       # constant of the tail decay inequality
_SUPPORT_TOL = 1e-6         # largest mass a power may have outside its bound


def default_grid() -> np.ndarray:
    lo, hi, n = DEFAULT_GRID
    return np.linspace(lo, hi, n)


def _require_power(n: int) -> int:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidArgumentError("power index n must be an integer >= 1")
    return int(n)


def _require_standardized(mu: Measure) -> None:
    if not mu.is_standardized(1e-6):
        raise InvalidArgumentError(
            "seed measure must be standardized (mean 0, variance 1)")


def atoms_of_power(mu: Measure, n: int) -> Tuple[Atom, ...]:
    """Atoms of the normalized n-th power: survive iff seed weight > 1 - 1/n."""
    n = _require_power(n)
    out = []
    for a in mu.atoms:
        w_n = n * a.w - (n - 1)
        if w_n > 1e-14:
            out.append(Atom(math.sqrt(n) * a.x, w_n))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class CltDensity:
    """Density of one normalized free convolution power.

    tables may be empty (purely atomic, only possible at n = 1 or via the
    weight criterion) and has one entry per support interval.  Moments
    include atom contributions; the tables' part is integrated in u along
    the flow curve on the flow route, and on the subordination route by
    the midpoint rule in theta on each table's own 801 values, so neither
    route reads a table's spline for them.  curve is set on the flow
    route.  On the subordination route, residual is the largest
    |Z/n + (1-1/n) F_mu(omega) - omega| over the tables' nodes with
    Im omega > 0, taken once per table, and iterations the largest
    Picard/Newton count of their omega solves; the support comes from the
    fold map and solves nothing.  For a seed with no ac part omega comes
    from eigenproblems and at most _SECULAR_STEPS Newton steps per node
    (_omega_secular), and iterations is 0.
    """

    n: int
    path: str
    atoms: Tuple[Atom, ...]
    tables: Tuple[DensityTable, ...]
    mass: float
    mean: float
    variance: float
    curve: Optional[FlowCurve] = None
    residual: Optional[float] = None
    iterations: Optional[int] = None

    def density(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for tab in self.tables:
            out += tab.density(x)
        return out

    def intervals(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(t.support for t in self.tables)

    def support(self) -> Tuple[float, float]:
        lo = [t.support[0] for t in self.tables] + [a.x for a in self.atoms]
        hi = [t.support[1] for t in self.tables] + [a.x for a in self.atoms]
        if not lo:
            raise ConsistencyError("empty density object")
        return min(lo), max(hi)


def _seed_only(mu: Measure, path: str) -> CltDensity:
    tables = ()
    if mu.ac is not None:
        tab = mu.ac if isinstance(mu.ac, DensityTable) else mu.ac.to_table(2001)
        tables = (tab,)
    return CltDensity(1, path, mu.atoms, tables, 1.0, mu.mean(), mu.variance())


# -- route 1: explicit flow -------------------------------------------------

def _quotient(t: float, x, j, v):
    """Density of the power at x = psi(u) from J and the height v there:
    (1/pi) (v/t) / ((x - J)^2 + (v/t)^2)."""
    a = x - j
    with np.errstate(divide="ignore", invalid="ignore"):
        return (v / t) / (a * a + (v / t) ** 2) / np.pi


def _quotient_values(curve: FlowCurve, sel: np.ndarray):
    """(x, p) at the curve points sel: the image points and the density."""
    x = curve.psi[sel]
    return x, _quotient(curve.t, x, curve.j_values()[sel], curve.v[sel])


def _moment_integrand(t: float, sums):
    """Integrand in u of the raw moments (m0, m1, m2) of a region's table:
    psi^k p psi' with p the quotient at psi, stacked, and the rows
    (v, J, M2, M2x) at the points u from sums(u).  Mass, mean and second
    moment share one call of sums."""
    def integrand(u: np.ndarray) -> np.ndarray:
        v, j, m2, m2x = sums(u)
        v = np.maximum(v, 1e-300)
        psi = u + t * j
        p = _quotient(t, psi, j, v)
        dpsi = _psi_prime(t, v, m2, m2x)
        return np.stack([psi ** k * p * dpsi for k in (0, 1, 2)])
    return integrand


def _power(n: int, path: str, atoms, tables, moments, **extra) -> CltDensity:
    """The power from its tables, their raw moments (m0, m1, m2) and its
    atoms; ConsistencyError when the mass misses 1 by more than _MASS_TOL."""
    mass = mean = second = 0.0
    for m0, m1, m2 in moments:
        mass += float(m0)
        mean += float(m1)
        second += float(m2)
    for a in atoms:
        mass += a.w
        mean += a.w * a.x
        second += a.w * a.x ** 2
    if abs(mass - 1.0) > _MASS_TOL:
        raise ConsistencyError(f"{path} power n={n} has mass {mass:.12g}, "
                               f"not 1 within {_MASS_TOL:g}")
    return CltDensity(n, path, atoms, tuple(tables), mass, mean,
                      second - mean ** 2, **extra)


def clt_density_flow(mu: Measure, n: int) -> CltDensity:
    """Density of the normalized n-th power through the flow parametrization:
    one table per region of flow_curve, from the quotient at its image
    points, and moments from region_integral in u, over the heights and
    sums that flow._moment_sums reads off the curve (mass gate in
    _power)."""
    n = _require_power(n)
    _require_standardized(mu)
    if n == 1:
        return _seed_only(mu, "flow")
    nu = companion_measure(mu)
    t = (n - 1) / n
    nu_s = dilate(nu, 1.0 / math.sqrt(n))
    kernel = FlowKernel(nu_s, t)
    curve = flow_curve(kernel)

    tables = []
    for k, _ in enumerate(curve.regions):
        x, p = _quotient_values(curve, curve.region_index == k)
        good = np.isfinite(p)
        tables.append(build_table(x[good], p[good], support=(x[0], x[-1]),
                                  edge_orders="fit", expected_mass=None))

    # moments in the u variable: spectrally accurate with sqrt endpoint
    # substitutions, valid for both soft (+1/2) and singular (-1/2) edges;
    # the heights and sums at the nodes come from the curve (_moment_sums)
    moments = [region_integral(kernel, reg,
                               _moment_integrand(t, _moment_sums(curve, k)))
               for k, reg in enumerate(curve.regions)]
    return _power(n, "flow", atoms_of_power(mu, n), tables, moments,
                  curve=curve)


# -- route 2: subordination fixed point --------------------------------------

@dataclass(frozen=True)
class SubordinationResult:
    omega: complex
    iterations: int
    residual: float


def _phi(mu: Measure, n: int, z, w):
    """phi(Z, omega) = Z/n + (1-1/n)/G_mu(omega), whose fixed point is
    omega(Z)."""
    return z / n + ((n - 1.0) / n) / cauchy(mu, w)


def _newton(mu: Measure, n: int, z, w, todo, steps):
    """Up to steps guarded Newton steps on omega = phi(Z, omega) at the
    points todo of w, in place.  Each step takes G = G_mu(w) at the open
    points once: h = phi(Z, w) - w, and a point with |h| <= TOL_FIXED_POINT
    leaves; the others take G' once and step by h / (1 + (1-1/n) G'/G^2),
    capped at (1 + |w|)/2 and backtracked by 0.3 up to 8 times while
    Im omega <= Im Z / 4 (<= 0 at real Z); a point still blocked takes a
    damped Picard update, which never loses height.  Returns (open points,
    steps taken, largest |h| over the open points)."""
    frac = (n - 1.0) / n
    taken, worst = 0, 0.0
    while todo.size:
        wt, zt = w[todo], z[todo]
        g = cauchy(mu, wt)
        phi = zt / n + frac / g
        h = phi - wt
        keep = np.abs(h) > TOL_FIXED_POINT
        todo, wt, zt, g, phi, h = (a[keep] for a in (todo, wt, zt, g, phi, h))
        worst = float(np.max(np.abs(h), initial=0.0))
        if todo.size == 0 or taken == steps:
            break
        taken += 1
        step = h / (1.0 + frac * cauchy_derivative(mu, wt) / (g * g))
        cap = 0.5 * (1.0 + np.abs(wt))
        scale = np.minimum(1.0, cap / np.maximum(np.abs(step), 1e-300))
        cand = wt + scale * step
        bad = cand.imag <= 0.25 * zt.imag
        for _try in range(8):
            if not np.any(bad):
                break
            scale = np.where(bad, 0.3 * scale, scale)
            cand = wt + scale * step
            bad = cand.imag <= 0.25 * zt.imag
        pic = (1.0 - _PICARD_DAMPING) * wt + _PICARD_DAMPING * phi
        w[todo] = np.where(bad, pic, cand)
    return todo, taken, worst


def _omega_grid(mu: Measure, n: int, z_big):
    """Solve omega = Z/n + (1-1/n) F_mu(omega) for an array of Z.

    Damped Picard iteration converges globally but slows down to 1/(1-|phi'|)
    near spectral edges; unconverged points get a guarded Newton polish
    (_newton).  Returns (omega, iterations, residual) with omega shaped
    like Z.
    """
    shape = np.shape(z_big)
    z = np.atleast_1d(np.asarray(z_big, dtype=complex)).ravel()
    w = z.copy()
    iters = 0
    pending = np.arange(z.size)
    while pending.size and iters < _OMEGA_MAX_ITER:
        # damped Picard burst: globally convergent, but the contraction rate
        # degrades to 1 - O(dist) just outside the support, so cap the burst
        # and hand over to Newton, returning here if points are still open
        for _ in range(min(_PICARD_MAX, _OMEGA_MAX_ITER - iters)):
            if pending.size == 0:
                break
            iters += 1
            wp = w[pending]
            nxt = _phi(mu, n, z[pending], wp)
            w[pending] = (1.0 - _PICARD_DAMPING) * wp + _PICARD_DAMPING * nxt
            pending = pending[np.abs(nxt - wp) > TOL_FIXED_POINT]
        pending, steps, worst = _newton(
            mu, n, z, w, pending, min(_NEWTON_MAX, _OMEGA_MAX_ITER - iters))
        iters += steps
    if pending.size:
        raise FixedPointError(
            "subordination fixed point stalled at %d points" % pending.size,
            residual=worst, iterations=iters)
    final_res = np.abs(_phi(mu, n, z, w) - w)
    if shape:
        return w.reshape(shape), iters, final_res.reshape(shape)
    return complex(w[0]), iters, float(final_res[0])


def subordination_omega(mu: Measure, n: int, z) -> SubordinationResult:
    """Single-point subordination solve in the unnormalized variable Z."""
    n = _require_power(n)
    _require_standardized(mu)
    z = complex(z)
    if z.imag <= 0:
        raise InvalidArgumentError("subordination requires Im z > 0")
    w, iters, res = _omega_grid(mu, n, np.asarray(z))
    w = complex(w)
    if w.imag < z.imag * (1.0 - 1e-12):
        raise ConsistencyError(
            f"subordination value lost height: Im omega = {w.imag:.3e} "
            f"< Im z = {z.imag:.3e}")
    return SubordinationResult(w, iters, float(np.max(res)))


def clt_cauchy(mu: Measure, n: int, z):
    """Cauchy transform of the normalized n-th power at complex z (Im z > 0)."""
    n = _require_power(n)
    _require_standardized(mu)
    z_arr = np.asarray(z, dtype=complex)
    if np.any(z_arr.imag <= 0):
        raise InvalidArgumentError("transform requires Im z > 0")
    if n == 1:
        return cauchy(mu, z_arr)
    rt = math.sqrt(n)
    w, _, _ = _omega_grid(mu, n, rt * z_arr)
    out = rt * cauchy(mu, w)
    return out if np.ndim(out) else complex(out)


def _omega_roots(mu: Measure, n: int, z_big):
    """Boundary values omega(Z + i0) at real Z for a seed with no ac part.

    With atoms (x_i, w_i), omega = Z/n + (1-1/n) F_mu(omega) is the secular
    equation 1 + sum_i w_i (n x_i - Z) / (omega - x_i) = 0, whose roots are
    the eigenvalues of diag(x) + (w * (Z - n x)) 1^T: one k x k eigenproblem
    per point, no iteration.  For real Z the map is a non-automorphic
    self-map of the upper half-plane, so at most one root lies there
    (Denjoy-Wolff); omega is the root of largest imaginary part, and
    Im omega <= 0 means Z lies off the support.  It is _omega_secular's
    coarse stage and fallback, and the tests' oracle for it.
    """
    x = np.array([a.x for a in mu.atoms])
    w = np.array([a.w for a in mu.atoms])
    z = np.asarray(z_big, dtype=float)
    mats = np.repeat((w * (z[:, None] - n * x))[:, :, None], x.size, axis=2)
    mats += np.diag(x)
    roots = np.linalg.eigvals(mats).astype(complex)
    return roots[np.arange(z.size), np.argmax(roots.imag, axis=1)]


@lru_cache(maxsize=8)
def _cubic_starts(size: int):
    """Columns and weights of the local cubic Lagrange interpolant, in the
    index, from the values at indices _ROOT_STRIDE // 2 + j _ROOT_STRIDE to
    every index of an array of this size: each index reads the four
    consecutive nodes around its cell, the first or last four at the ends.
    Returns (cols, weights), both (size, 4); a node's own row is one-hot."""
    nodes = np.arange(_ROOT_STRIDE // 2, size, _ROOT_STRIDE)
    i = np.arange(size)
    first = np.clip(np.searchsorted(nodes, i, side="right") - 2,
                    0, nodes.size - 4)
    cols = first[:, None] + np.arange(4)
    t = (i - nodes[first]) / _ROOT_STRIDE   # the nodes sit at t = 0..3
    weights = np.ones((size, 4))
    for a in range(4):
        for b in range(4):
            if b != a:
                weights[:, a] *= (t - b) / (a - b)
    cols.flags.writeable = weights.flags.writeable = False
    return cols, weights


def _omega_secular(mu: Measure, n: int, z: np.ndarray):
    """omega(Z + i0) at the sorted real Z of a seed with no ac part, as
    _omega_roots gives it, from an eigenproblem at one Z in _ROOT_STRIDE.

    _omega_roots solves every _ROOT_STRIDE-th Z from index _ROOT_STRIDE // 2
    (for 801 Chebyshev roots, the 89 roots of the 89-point rule); every Z
    starts from their local cubic interpolant in the index (_cubic_starts),
    in which omega is smooth even at a square-root edge, and all take up to
    _SECULAR_STEPS Newton steps in lockstep on the secular equation
    f = 1 + sum_i c_i / (omega - x_i) = 0, c_i = w_i (n x_i - Z), summed
    atom by atom, O(k) per point and step.  A point whose last step is at
    most 1e-13 max(1, |omega|) with Im omega > 1e-8 max(1, |omega|) is the
    equation's one root in the upper half-plane; every other point, and
    every point of an array shorter than four strides, takes _omega_roots."""
    if z.size < 4 * _ROOT_STRIDE:
        return _omega_roots(mu, n, z)
    cols, weights = _cubic_starts(z.size)
    coarse = _omega_roots(mu, n, z[_ROOT_STRIDE // 2::_ROOT_STRIDE])
    omega = weights[:, 0] * coarse[cols[:, 0]]
    for j in range(1, 4):
        omega += weights[:, j] * coarse[cols[:, j]]
    done = np.zeros(z.size, dtype=bool)
    todo = np.arange(z.size)
    with np.errstate(all="ignore"):
        for _ in range(_SECULAR_STEPS):
            w, zz = omega[todo], z[todo]
            f = np.ones_like(w)
            fp = np.zeros_like(w)
            for a in mu.atoms:
                r = 1.0 / (w - a.x)
                cr = a.w * (n * a.x - zz) * r
                f += cr
                fp -= cr * r
            step = f / fp
            w -= step
            omega[todo] = w
            size = np.maximum(1.0, np.abs(w))
            small = np.abs(step) <= 1e-13 * size
            done[todo[small & (w.imag > 1e-8 * size)]] = True
            todo = todo[np.isfinite(step) & ~small]
            if todo.size == 0:
                break
    if not np.all(done):
        omega[~done] = _omega_roots(mu, n, z[~done])
    return omega


def _omega_axis(mu: Measure, n: int, z: np.ndarray):
    """omega(Z + i0) at the sorted real Z of one support interval of a seed
    with an ac part, where Im omega > 0 (Belinschi 2008): a solve at height
    _AXIS_START starts the middle Z, every _AXIS_STRIDE-th Z follows it by
    continuation outward, and the others start from omega interpolated
    between those.  Each solve takes up to _NEWTON_MAX steps of _newton
    and raises FixedPointError if a point is still open after them.
    Returns (omega, iterations)."""
    def solve(zz, start):
        w = np.array(start, dtype=complex)
        todo, steps, worst = _newton(mu, n, zz, w, np.arange(zz.size),
                                     _NEWTON_MAX)
        if todo.size:
            raise FixedPointError(
                "boundary fixed point stalled at %d points" % todo.size,
                residual=worst, iterations=_NEWTON_MAX)
        return w, steps

    mid = z.size // 2
    anchors = np.arange(mid % _AXIS_STRIDE, z.size, _AXIS_STRIDE)
    w, iters, _ = _omega_grid(mu, n, z[mid:mid + 1] + 1j * _AXIS_START)
    omega = np.empty(z.size, dtype=complex)
    for side in (anchors[anchors >= mid], anchors[anchors <= mid][::-1]):
        for i in side:
            w, steps = solve(z[i:i + 1], w)
            omega[i], iters = w[0], max(iters, steps)
        w = omega[mid:mid + 1]
    rest = np.setdiff1d(np.arange(z.size), anchors)
    omega[rest], steps = solve(z[rest], np.interp(z[rest], z[anchors],
                                                  omega[anchors]))
    return omega, max(iters, steps)


def _boundary_density(mu: Measure, n: int, x: np.ndarray):
    """Density of the normalized n-th power at the sorted real x of one
    support interval, from omega(Z + i0) at Z = sqrt(n) x (_omega_secular
    for a seed with no ac part, with iterations 0, else _omega_axis):
    G_mu(omega) = (n-1)/(n omega - Z), so p(x) = -sqrt(n) Im[(n-1)/(n omega
    - Z)]/pi, 0 where Im omega <= 0.  Returns (p, iterations, residual),
    the residual the largest |phi(Z, omega) - omega| over the points with
    Im omega > 0."""
    rt = math.sqrt(n)
    z = rt * np.asarray(x, dtype=float)
    if mu.ac is None:
        omega, iters = _omega_secular(mu, n, z), 0
    else:
        omega, iters = _omega_axis(mu, n, z)
    up = omega.imag > 0.0
    omega, z = omega[up], z[up]
    res = float(np.max(np.abs(_phi(mu, n, z, omega) - omega), initial=0.0))
    p = np.zeros(up.shape)
    p[up] = -rt * np.imag((n - 1) / (n * omega - z)) / np.pi
    return p, iters, res


def _fold_h(mu: Measure, n: int, w: np.ndarray) -> np.ndarray:
    """h = n G^2 + (n-1) G' = G^2 Z' of the fold map at real w off the
    seed's support, G = G_mu(w + i0), in real arithmetic.  Each atom adds
    a.w * (1/d) to G and -a.w * (1/d^2) to G', d = w - a.x, which is the
    real part, to the last bit, of the complex sums cauchy and
    cauchy_derivative make at w + 1e-30j; an ac part adds the real part of
    its transform there."""
    g = np.zeros_like(w)
    gp = np.zeros_like(w)
    for a in mu.atoms:
        d = w - a.x
        g += a.w * (1.0 / d)
        gp -= a.w * (1.0 / (d * d))
    if mu.ac is not None:
        g += mu.ac._cauchy(w + 1e-30j, False).real
        gp += mu.ac._cauchy(w + 1e-30j, True).real
    ng = n * g
    return ng * g + (n - 1) * gp


def _support_intervals(mu: Measure, n: int):
    """Support intervals of the ac part of the normalized n-th power.

    The complement of the support is the image of the increasing branches
    of the fold map Z(omega) = n omega - (n-1)/G_mu(omega) on the real axis
    off the seed's support (Huang, IMRN 2015).  h = n G^2 + (n-1) G' = G^2 Z'
    (_fold_h) has Z''s sign and stays finite where G = 0.  On each gap of
    the seed's support and on the two outer rays, each run of a 1501-point
    grid where h > 0 is one branch.  A branch ends at a fold, a root of h
    in the grid cell next to the run, or at the segment's end: Z(e + i0) at
    an atom or ac endpoint e (n e at an atom), +-inf at the far end of a
    ray.  Every fold of every segment is solved in one lockstep Brent solve
    (transforms._brentq_lanes, from the grid's h at the cell's ends, with
    brentq's xtol 1e-15 and rtol 8.9e-16), and every finite branch end is
    mapped by Z in one call.  The support is the positive-length gaps
    between the sorted branch images.
    """
    comps = mu.support_components()
    hull_lo, hull_hi = comps[0][0], comps[-1][1]
    reach = 4.0 + math.sqrt(n)
    segments = [(hull_lo - reach, hull_lo, -math.inf, None)]
    for (_, c_hi), (c_lo, _) in zip(comps, comps[1:]):
        if c_lo - c_hi > 1e-10:
            segments.append((c_hi, c_lo, None, None))
    segments.append((hull_hi, hull_hi + reach, None, math.inf))

    # each branch's start and end: a point for Z to map (a fold, once it is
    # solved from its grid cell xa..xb, where h is fa..fb), or the image
    # +-inf of a ray's far end
    ends, mapped, folds, xa, xb, fa, fb = [], [], [], [], [], [], []
    for lo, hi, lo_image, hi_image in segments:
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        grid = np.linspace(lo + pad, hi - pad, 1501)
        hg = _fold_h(mu, n, grid)
        up = np.concatenate(([False], hg > 0.0, [False]))
        steps = np.diff(up.astype(np.int8))
        for i, j in zip(np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)):
            for k, edge, edge_image in ((i, lo, lo_image), (j, hi, hi_image)):
                if 0 < k < grid.size:  # a fold in the grid cell (k - 1, k)
                    folds.append(len(ends))
                    xa.append(float(grid[k - 1]))
                    xb.append(float(grid[k]))
                    fa.append(float(hg[k - 1]))
                    fb.append(float(hg[k]))
                    ends.append(math.nan)
                    mapped.append(True)
                else:
                    ends.append(edge if edge_image is None else edge_image)
                    mapped.append(edge_image is None)

    ends = np.array(ends, dtype=float)
    ends[folds] = _brentq_lanes(
        lambda w: _fold_h(mu, n, np.array(w)).tolist(), xa, xb, fa, fb,
        xtol=1e-15, rtol=8.9e-16)
    mapped = np.array(mapped, dtype=bool)
    z = ends[mapped] + 1e-30j
    ends[mapped] = np.real(n * z - (n - 1) / cauchy(mu, z))
    branches = sorted(zip(ends[0::2].tolist(), ends[1::2].tolist()))
    rt = math.sqrt(n)
    return [(e / rt, s / rt) for (_, e), (s, _) in zip(branches, branches[1:])
            if s > e]


def clt_density_subordination(mu: Measure, n: int) -> CltDensity:
    """Density of the normalized n-th power from subordination boundary values.

    Boundary values on the real axis at the 801 Chebyshev roots of each
    support interval come from _boundary_density, one table per interval;
    the interval's mass, mean and second moment are the midpoint rule in
    theta on those same values (measures._chebyshev_rule), so no table is
    resampled and a table's spline is built only when its density is first
    read.  The mass gate is _power's.
    """
    n = _require_power(n)
    _require_standardized(mu)
    if n == 1:
        return _seed_only(mu, "subordination")
    atoms = atoms_of_power(mu, n)
    intervals = _support_intervals(mu, n)
    if not intervals:
        raise ConsistencyError("no continuous part found for the power")

    tables, moments = [], []
    max_res, max_iters = 0.0, 0
    for a, b in intervals:
        x, w = _chebyshev_rule(a, b, _INVERSION_GRID)
        p, iters, res = _boundary_density(mu, n, x)
        max_iters, max_res = max(max_iters, iters), max(max_res, res)
        tables.append(build_table(x, p, support=(a, b), edge_orders="fit",
                                  expected_mass=None))
        wp = w * p
        moments.append((np.sum(wp), np.sum(wp * x), np.sum(wp * x * x)))
    return _power(n, "subordination", atoms, tables, moments,
                  residual=max_res, iterations=max_iters)


# -- consistency and structure checks ----------------------------------------

def cross_check(mu: Measure, n: int) -> dict:
    """Compare the two routes pointwise; they share no numerics.

    Returns sup and mean absolute density differences on a probe grid plus
    the moment gaps.  Raises nothing by itself; callers decide thresholds.
    """
    return _compare_densities(clt_density_flow(mu, n),
                              clt_density_subordination(mu, n))


def _compare_densities(d1: CltDensity, d2: CltDensity) -> dict:
    """The cross_check report for two densities of the same power."""
    lo = min(d1.support()[0], d2.support()[0]) - 0.05
    hi = max(d1.support()[1], d2.support()[1]) + 0.05
    x = np.linspace(lo, hi, _PROBE_POINTS)
    p1 = d1.density(x)
    p2 = d2.density(x)
    # exclude singular-edge neighborhoods from the sup when present
    weight = np.ones_like(x, dtype=bool)
    for tab in d1.tables + d2.tables:
        aa, bb = tab.support
        al, ar = tab.edge_orders
        if al is not None and al < 0:
            weight &= ~(np.abs(x - aa) < 0.02)
        if ar is not None and ar < 0:
            weight &= ~(np.abs(x - bb) < 0.02)
    diff = np.abs(p1 - p2)
    return {
        "n": d1.n,
        "sup_diff": float(np.max(diff[weight])),
        "mean_diff": float(np.mean(diff)),
        "mass_diff": abs(d1.mass - d2.mass),
        "mean_gap": abs(d1.mean - d2.mean),
        "variance_gap": abs(d1.variance - d2.variance),
    }


def tail_bound_check(mu: Measure, n: int, eps: float = 0.05) -> dict:
    """Decay inequality for the power with index n+1 near the spectral edge.

    Along the flow curve of the (n+1)-st power -- the curve that
    clt_density_flow samples -- at image points x = psi(u) with
    |x| > 2 - 2*eps, the density obeys
        pi * p(x) <= 72 * v(u) / (1 + |x|)^2,
    for n >= 3 and eps in (0, 1/10).  Returns the worst ratio and where.
    """
    n = _require_power(n)
    if n < 3:
        raise InvalidArgumentError("tail bound applies for n >= 3")
    if not (0.0 < eps < 0.1):
        raise InvalidArgumentError("eps must lie in (0, 1/10)")
    m = n + 1
    curve = clt_density_flow(mu, m).curve
    sel = np.abs(curve.psi) > 2.0 - 2.0 * eps
    x, p = _quotient_values(curve, sel)
    v = curve.v[sel]
    lhs = np.pi * p
    rhs = _TAIL_CONSTANT * v / (1.0 + np.abs(x)) ** 2
    finite = np.isfinite(lhs)
    ratio = np.zeros_like(lhs)
    pos = finite & (rhs > 0)
    ratio[pos] = lhs[pos] / rhs[pos]
    worst = float(np.max(ratio)) if ratio.size else 0.0
    where = float(x[np.argmax(ratio)]) if ratio.size else math.nan
    return {"n": n, "power": m, "ok": bool(worst <= 1.0 + 1e-9),
            "max_ratio": worst, "at_x": where,
            "points_checked": int(np.count_nonzero(sel))}


def support_check(dens: CltDensity, mu: Measure) -> dict:
    """Support containment: the n-th power lives in [-2 - L/sqrt(n), 2 + L/sqrt(n)]
    where L bounds the seed support.  Reports the mass found outside."""
    lo, hi = mu.support()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return {"n": dens.n, "ok": None, "bound": math.nan,
                "outside_mass": math.nan, "support": (lo, hi),
                "notice": "seed support unbounded; check skipped"}
    L = max(abs(lo), abs(hi))
    bound = 2.0 + L / math.sqrt(dens.n)
    s_lo, s_hi = dens.support()
    outside = 0.0
    for at in dens.atoms:
        if abs(at.x) > bound:
            outside += at.w
    for tab in dens.tables:
        x, w = tab.quad_nodes()
        outside += float(np.sum(w[np.abs(x) > bound]))
    ok = outside < _SUPPORT_TOL
    return {"n": dens.n, "ok": bool(ok), "bound": bound,
            "outside_mass": outside, "support": (s_lo, s_hi)}


def range_containment_check(mu: Measure, n: int, eta: float) -> dict:
    """Containment of the flow image: psi([-1 + eta, 1 - eta]) inside
    [-2 + eta, 2 - eta] for the kernel of the n-th power, eta in (0, 1).

    psi is non-decreasing on the real line: psi' = 1 - t I(u, 0) >= 0 off
    the regions and 2 t (M2x^2 + v^2 M2^2) / M2 >= 0 on them, so its
    largest |psi| on the interval is at one of the two ends."""
    n = _require_power(n)
    _require_standardized(mu)
    if not (0.0 < eta < 1.0):
        raise InvalidArgumentError("eta must lie in (0, 1)")
    if n < 2:
        raise InvalidArgumentError("containment check needs n >= 2")
    nu = companion_measure(mu)
    nu_s = dilate(nu, 1.0 / math.sqrt(n))
    kernel = FlowKernel(nu_s, (n - 1) / n)
    _, psi = flow_map(kernel, np.array([-1.0 + eta, 1.0 - eta]))
    worst = float(np.max(np.abs(psi)))
    return {"n": n, "eta": eta, "ok": bool(worst <= 2.0 - eta),
            "max_abs_psi": worst, "bound": 2.0 - eta}
