"""Probability measures on the real line and the shared quadrature engine.

A measure is a finite list of atoms plus at most one absolutely continuous
component.  The ac component is either a named family (semicircle, arcsine,
uniform) with closed-form density, or a tabulated density on a compact
interval.  Each ac part owns its Cauchy transform G and G' (``_cauchy``): a
family's closed form, else the node sum of the shared base.  Tabulated
densities carry endpoint-exponent annotations so that integration can apply
the matching substitution at soft or singular edges.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DegenerateMeasureError,
    DivergenceError,
    DomainError,
    InvalidArgumentError,
    InvalidSpecError,
)

TOL_MASS = 1e-8          # default mass gate for exactly representable measures
TABLE_MASS_TOL = 1e-5    # refined mass gate for tabulated components
TRAPEZOID_MASS_TOL = 2e-3  # coarse trapezoid sanity gate for tables

_EDGE_SNAP = (-0.5, 0.0, 0.5, 1.0, 1.5)
_ATOM_SEP = 1e-12        # minimum distance between distinct atom locations
_AC_NODES = 4096         # the Gauss-theta rule every ac part is integrated with


def _legendre(n: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(2, n + 1):
        # k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}, in place
        np.multiply(x, p1, out=t)
        t *= 2 * k - 1
        p0 *= k - 1
        t -= p0
        t /= k
        p0, p1, t = p1, t, p0
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.

    Newton's method on the three-term recurrence (Hale & Townsend, SIAM J.
    Sci. Comput. 35, 2013), on the nonnegative half of the rule only:
    Tricomi's values (1 - (n-1)/(8n^3)) cos(pi(4k-1)/(4n+2)) start it, and
    steps are taken until the largest is below 1e-12, after which the nodes
    sit at the rounding floor.  The weights 2/((1-x)(1+x)P_n'(x)^2) come
    from one more pass at the final nodes, and the half is mirrored, so the
    rule is exactly symmetric.  O(n) memory and O(n^2) time: three passes
    at n = 4096.  Against 40-digit values, nodes are within 6e-17 and
    weights within 7e-15 relative for |x| <= 0.99 (2e-10 beyond, where a
    node's rounding moves its weight); numpy's ``leggauss`` (an eigensolve
    and one Newton step) has the same nodes to one ulp, but its weights are
    off by 5e-13 and 5e-7 there, and its even moments by 5e-13 at n = 4096.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0  # the middle node, a root of every odd P_n
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < 1e-12:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    h = n // 2
    return np.concatenate((-x[:h], x[::-1])), np.concatenate((w[:h], w[::-1]))


def gauss_theta_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes for integrals over [a, b] in the angle variable.

    With x = c + r*cos(theta) the integral of f(x) p(x) dx becomes
    int f(x(theta)) p(x(theta)) r sin(theta) dtheta, whose integrand stays
    bounded for endpoint exponents >= -1/2.  Returns (x_nodes, jacobians)
    where jacobians = r*sin(theta)*w; multiply by density values to get
    plain quadrature weights against dx.
    """
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    s, w = _leggauss(n)
    theta = 0.5 * np.pi * (s + 1.0)
    x = c + r * np.cos(theta)
    jac = r * np.sin(theta) * (0.5 * np.pi * w)
    order = np.argsort(x)
    return x[order], jac[order]


def fit_edge_order(dist: np.ndarray, values: np.ndarray) -> Optional[float]:
    """Least-squares exponent of values ~ C * dist**alpha, or None if unusable."""
    m = (dist > 0) & (values > 0) & np.isfinite(values)
    if np.count_nonzero(m) < 4:
        return None
    ld, lv = np.log(dist[m]), np.log(values[m])
    A = np.vstack([ld, np.ones_like(ld)]).T
    sol, *_ = np.linalg.lstsq(A, lv, rcond=None)
    return float(sol[0])


def _snap_edge_order(alpha: Optional[float]) -> Optional[float]:
    if alpha is None:
        return None
    for target in _EDGE_SNAP:
        if abs(alpha - target) < 0.22:
            return target
    return alpha


class _AcPart:
    """Shared base of the ac parts: their Gauss-theta node sets, and the
    Cauchy transform summed on them, which a family overrides with its
    closed form.

    A part's nodes, jacobians and density values there are built once per
    node count, on first use, and kept on the (frozen) part: its mass and
    moments, its Cauchy transform, a flow kernel on it and the functionals
    all read the same set.
    """

    _subtracts_density = True  # _cauchy subtracts the density at Re z

    def _node_set(self, n: int):
        """(x, jacobians, density at x) of the n-node Gauss-theta rule."""
        sets = self.__dict__.setdefault("_node_sets", {})
        if n not in sets:
            x, jac = gauss_theta_nodes(self.support[0], self.support[1], n)
            sets[n] = (x, jac, self.density(x))
        return sets[n]

    def quad_nodes(self, n: int = _AC_NODES):
        """Quadrature nodes (x, w) with sum w*f(x) ~ int f(x) p(x) dx."""
        x, jac, p = self._node_set(n)
        return x, jac * p

    def mass(self) -> float:
        return self.moments()[0]

    def moments(self) -> Tuple[float, float, float]:
        """(mass, mean, variance) of the part alone, on its node set."""
        x, w = self.quad_nodes()
        m0 = float(np.sum(w))
        m1 = float(np.sum(w * x))
        m2 = float(np.sum(w * x * x))
        if m0 <= 0:
            return m0, 0.0, 0.0
        mean = m1 / m0
        return m0, mean, m2 / m0 - mean ** 2

    def _cauchy(self, z: np.ndarray, derivative: bool) -> np.ndarray:
        """G of the part at z (Im z > 0), or G' if derivative, summed on its
        own node set.  The density at the projected real part is subtracted,
        so the integrand stays bounded as z nears the support, and added back
        in closed form.  The blocks of 256 points share two buffers, so a
        call allocates them once: a fresh 16 MB temporary per block can be
        handed back to the OS when freed and faulted in again, page by page,
        in the next block."""
        a, b = self.support
        xq, jac, pq = self._node_set(_AC_NODES)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        xstar = np.clip(flat.real, a, b)
        pstar = self.density(xstar) if self._subtracts_density else 0.0 * xstar
        rows = min(256, flat.size)
        num = np.empty((rows, xq.size))
        den = np.empty((rows, xq.size), dtype=complex)
        for lo in range(0, flat.size, 256):
            sl = slice(lo, min(lo + 256, flat.size))
            k = sl.stop - lo
            np.subtract(pq, pstar[sl, None], out=num[:k])
            np.multiply(jac, num[:k], out=num[:k])
            np.subtract(flat[sl, None], xq, out=den[:k])
            if derivative:
                np.square(den[:k], out=den[:k])
            np.divide(num[:k], den[:k], out=den[:k])
            total = np.sum(den[:k], axis=1)
            out[sl] = -total if derivative else total
        if derivative:
            out += pstar * (1.0 / (flat - a) - 1.0 / (flat - b))
        else:
            out += pstar * np.log((flat - a) / (flat - b))
        return out.reshape(z.shape)

    def _cauchy_at_nodes(self) -> np.ndarray:
        """G(x + i0) of a family at its own nodes x, from just above them."""
        return self._cauchy(self._node_set(_AC_NODES)[0] + 1e-30j, False)


class _NodeSet(_AcPart):
    """An ac part known only at one Gauss-theta node set: (x, jacobians,
    density at x).  Dilation and translation map the nodes exactly."""

    _subtracts_density = False  # it has no values off its nodes

    def __init__(self, support: Tuple[float, float], x, jac, p):
        self.support = support
        self._node_sets = {_AC_NODES: (x, jac, p)}

    def dilated(self, s: float) -> "_NodeSet":
        x, jac, p = self._node_sets[_AC_NODES]
        return _NodeSet((self.support[0] * s, self.support[1] * s),
                        x * s, jac * s, p / s)

    def translated(self, c: float) -> "_NodeSet":
        x, jac, p = self._node_sets[_AC_NODES]
        return _NodeSet((self.support[0] + c, self.support[1] + c),
                        x + c, jac, p)


def _tridiagonal_solve(rows: np.ndarray) -> np.ndarray:
    """x with a_i x_{i-1} + b_i x_i + c_i x_{i+1} = r_i, for the rows
    (a, c, r, b) of a diagonally dominant system of 2^k - 1 equations with
    a_0 = c_{-1} = 0, by odd-even cyclic reduction: each odd row takes its
    even neighbours out, which leaves a system of the same form in the odd
    unknowns alone, and the even unknowns follow from it.  A system of at
    most 15 equations is solved densely, in one LAPACK call, where cyclic
    reduction would take four more levels of small array operations."""
    a, c, r, b = rows
    if b.size <= 15:
        return np.linalg.solve(np.diag(b) + np.diag(a[1:], -1)
                               + np.diag(c[:-1], 1), r)
    even, odd = rows[:, 0::2], rows[:, 1::2]
    left, right = even[:, :-1], even[:, 1:]
    from_left = (odd[0] / left[3]) * left[:3]
    from_right = (odd[1] / right[3]) * right[:3]
    reduced = np.empty_like(odd)
    np.negative(from_left[0], out=reduced[0])
    np.negative(from_right[1], out=reduced[1])
    np.subtract(odd[2], from_left[2], out=reduced[2])
    reduced[2] -= from_right[2]
    np.subtract(odd[3], from_left[1], out=reduced[3])
    reduced[3] -= from_right[0]
    x = np.zeros(rows.shape[1] + 2)  # padded with x_{-1} = x_{2^k - 1} = 0
    x[2:-1:2] = _tridiagonal_solve(reduced)
    x[1:-1:2] = (even[2] - even[0] * x[0:-2:2] - even[1] * x[2::2]) / even[3]
    return x[1:-1]


class _NotAKnotSpline:
    """Cubic spline through (x, y) with not-a-knot ends, x strictly
    increasing with at least 4 points: spline(t) its values, spline(t, 1)
    its first derivative, past the end knots from the end pieces.  The same
    spline as scipy's ``CubicSpline(x, y, bc_type="not-a-knot",
    extrapolate=True)``, to a few rounding units.

    The slopes s at the knots solve the tridiagonal system of C^2 joins,
    dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1} = 3 (dx_i m_{i-1}
    + dx_{i-1} m_i), with dx_i = x_{i+1} - x_i and the secant slopes m_i,
    and the two not-a-knot rows, which share their s_0 (s_{n-1})
    coefficient with the first (last) join: subtracting them leaves a
    strictly diagonally dominant system in s_1 .. s_{n-2}, solved by
    _tridiagonal_solve, and s_0 and s_{n-1} from the not-a-knot rows.
    Each piece is c0 h^3 + c1 h^2 + c2 h + c3 in h = t - x_k, summed by
    Horner's rule.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = x.size
        dx = np.diff(x)
        m = np.diff(y) / dx
        d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
        # not-a-knot rows: dx_1 s_0 + d_lo s_1 = r_lo, dx_{-2} s_{n-1} +
        # d_hi s_{n-2} = r_hi
        r_lo = ((dx[0] + 2.0 * d_lo) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d_lo
        r_hi = ((dx[-1] + 2.0 * d_hi) * dx[-2] * m[-1]
                + dx[-1] ** 2 * m[-2]) / d_hi
        size = 2 ** (n - 2).bit_length() - 1  # rows padded with x_i = 0
        rows = np.zeros((4, size))
        a, c, r, b = rows[:, :n - 2]
        a[:] = dx[1:]
        c[:] = dx[:-1]
        r[:] = 3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])
        b[:] = 2.0 * (dx[:-1] + dx[1:])
        rows[3, n - 2:] = 1.0
        # the first and last joins less the not-a-knot rows, right sides
        # in closed form
        a[0] = c[-1] = 0.0
        b[0], b[-1] = dx[0] + dx[1], dx[-2] + dx[-1]
        r[0] = (dx[1] ** 2 * m[0]
                + dx[0] * (2.0 * dx[0] + 3.0 * dx[1]) * m[1]) / d_lo
        r[-1] = (dx[-2] ** 2 * m[-1]
                 + dx[-1] * (2.0 * dx[-1] + 3.0 * dx[-2]) * m[-2]) / d_hi
        s = np.empty(n)
        s[1:-1] = _tridiagonal_solve(rows)[:n - 2]
        s[0] = (r_lo - d_lo * s[1]) / dx[1]
        s[-1] = (r_hi - d_hi * s[-2]) / dx[-2]
        curl = (s[:-1] + s[1:] - 2.0 * m) / dx
        # per piece k: c0, c1, c2, c3 and its left knot x_k
        self._pieces = np.stack(
            (curl / dx, (m - s[:-1]) / dx - curl, s[:-1], y[:-1], x[:-1]))
        self._inner = x[1:-1]

    def __call__(self, t, nu: int = 0) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        c0, c1, c2, c3, x_k = np.take(
            self._pieces, np.searchsorted(self._inner, t, side="right"),
            axis=1)
        h = t - x_k
        if nu:
            return (3.0 * c0 * h + 2.0 * c1) * h + c2
        return ((c0 * h + c1) * h + c2) * h + c3


@dataclass(frozen=True)
class Atom:
    x: float
    w: float


@dataclass(frozen=True, eq=False)
class DensityTable(_AcPart):
    """Tabulated density on a compact interval.

    grid         strictly increasing sample points inside [support]
    values       nonnegative density samples
    support      (a, b); may extend slightly past the grid when an edge
                 exponent is negative (the density diverges at that edge)
    edge_orders  (alpha_left, alpha_right): density ~ C*dist**alpha near the
                 matching endpoint; None means unannotated
    expected_mass  target total mass, or None to skip the mass gates
    """

    grid: np.ndarray
    values: np.ndarray
    support: Tuple[float, float]
    edge_orders: Tuple[Optional[float], Optional[float]] = (None, None)
    expected_mass: Optional[float] = 1.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise InvalidSpecError("table grid and values must be equal-length 1d arrays")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise InvalidSpecError("table entries must be finite")
        if np.any(np.diff(grid) <= 0):
            raise InvalidSpecError("table grid must be strictly increasing")
        if np.any(values < 0):
            raise InvalidSpecError("table density values must be nonnegative")
        a, b = self.support
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InvalidSpecError("table support must be a finite interval")
        if grid[0] < a - 1e-12 or grid[-1] > b + 1e-12:
            raise InvalidSpecError("table grid must lie inside its support")
        for alpha in self.edge_orders:
            if alpha is not None and alpha <= -1.0:
                raise DivergenceError("endpoint exponent <= -1 is not integrable")
        if self.expected_mass is not None:
            trap = float(np.trapezoid(values, grid))
            slack = TRAPEZOID_MASS_TOL + self._edge_mass_allowance()
            if any(alpha is not None and alpha < 0 for alpha in self.edge_orders):
                slack += 0.05  # trapezoid is biased near a diverging edge
            if abs(trap - self.expected_mass) > slack:
                raise InvalidSpecError(
                    "table trapezoid mass %.6g is far from expected %.6g"
                    % (trap, self.expected_mass))
            mass = self.mass()
            if abs(mass - self.expected_mass) > TABLE_MASS_TOL * max(1.0, abs(self.expected_mass)):
                raise InvalidSpecError(
                    "table mass %.10g deviates from expected %.10g beyond %.1e"
                    % (mass, self.expected_mass, TABLE_MASS_TOL))

    def _edge_mass_allowance(self) -> float:
        # Trapezoid misses mass near a diverging endpoint; widen the sanity
        # gate in proportion to the unresolved edge integral.
        allow = 0.0
        a, b = self.support
        for side, alpha in zip((0, 1), self.edge_orders):
            if alpha is not None and alpha < 0:
                d = (self.grid[0] - a) if side == 0 else (b - self.grid[-1])
                edge_val = self.values[0] if side == 0 else self.values[-1]
                allow += 2.0 * edge_val * max(d, 0.0) / (1.0 + alpha)
        return allow

    # -- evaluation -----------------------------------------------------

    def _edge_factor(self, x: np.ndarray) -> np.ndarray:
        a, b = self.support
        alpha_l, alpha_r = self.edge_orders
        if (alpha_l or 0.0) > 0.0 and (alpha_r or 0.0) > 0.0:
            # both factors vanish at worst, and 1 * f == f: the general
            # product below, without its set-up
            return (np.maximum(x - a, 0.0) ** alpha_l
                    * np.maximum(b - x, 0.0) ** alpha_r)
        phi = np.ones_like(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            if alpha_l:
                phi = phi * np.maximum(x - a, 0.0) ** alpha_l
            if alpha_r:
                phi = phi * np.maximum(b - x, 0.0) ** alpha_r
        return phi

    def _reduced_spline(self):
        cached = self.__dict__.get("_spline_cache")
        if cached is not None:
            return cached
        phi = self._edge_factor(self.grid)
        keep = np.isfinite(phi) & (phi > 0)
        xs, qs = self.grid[keep], self.values[keep] / phi[keep]
        if xs.size >= 8:
            spline = _NotAKnotSpline(xs, qs)
        else:  # degenerate small table: linear, constant past its end rows
            slopes = np.concatenate(([0.0], np.diff(qs) / np.diff(xs), [0.0]))
            spline = lambda t, nu=0: (slopes[np.searchsorted(xs, t)] if nu
                                      else np.interp(t, xs, qs))
        object.__setattr__(self, "_spline_cache", spline)
        return spline

    def density(self, x) -> np.ndarray:
        """Interpolated density, zero outside the support."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        a, b = self.support
        inside = (x >= a) & (x <= b)
        xi = x[inside]
        if xi.size:
            out[inside] = np.maximum(
                self._reduced_spline()(xi) * self._edge_factor(xi), 0.0)
        return out

    def _slope(self, x: np.ndarray) -> np.ndarray:
        """p'(x) strictly inside the support: (q' + q * phi'/phi) * phi for
        the reduced spline q and the edge factor phi."""
        a, b = self.support
        alpha_l, alpha_r = self.edge_orders
        spline = self._reduced_spline()
        dlog = (alpha_l or 0.0) / (x - a) - (alpha_r or 0.0) / (b - x)
        return (spline(x, 1) + spline(x) * dlog) * self._edge_factor(x)

    def _cauchy_at_nodes(self) -> np.ndarray:
        """G(x + i0) at the table's own nodes x: Im G = -pi p, and Re G the
        real sum of _cauchy plus each node's own term, jac * (-p')."""
        a, b = self.support
        x, jac, p = self._node_set(_AC_NODES)
        re = p * np.log((x - a) / (b - x)) - jac * self._slope(x)
        for lo in range(0, x.size, 256):
            d = x[lo:lo + 256, None] - x
            np.fill_diagonal(d[:, lo:], np.inf)  # the own term, taken above
            re[lo:lo + 256] += np.sum(jac * (p - p[lo:lo + 256, None]) / d, axis=1)
        return re - 1j * np.pi * p

    # -- transforms of the table as a set -------------------------------

    def dilated(self, a: float) -> "DensityTable":
        if not (a > 0):
            raise InvalidArgumentError("dilation factor must be positive")
        return DensityTable(self.grid * a, self.values / a,
                            (self.support[0] * a, self.support[1] * a),
                            self.edge_orders, self.expected_mass)

    def translated(self, c: float) -> "DensityTable":
        return DensityTable(self.grid + c, self.values,
                            (self.support[0] + c, self.support[1] + c),
                            self.edge_orders, self.expected_mass)


def build_table(grid, values, support=None, edge_orders="fit",
                expected_mass: Optional[float] = 1.0) -> DensityTable:
    """Construct a DensityTable, fitting endpoint exponents when requested."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if support is None:
        support = (float(grid[0]), float(grid[-1]))
    if edge_orders == "fit":
        k = min(10, grid.size // 4)
        left = _snap_edge_order(fit_edge_order(grid[:k] - support[0], values[:k]))
        right = _snap_edge_order(fit_edge_order(support[1] - grid[-k:], values[-k:]))
        edge_orders = (left, right)
    return DensityTable(grid, values, support, tuple(edge_orders), expected_mass)


# -- named families ------------------------------------------------------

def sqrt_upper(w):
    """Square root with values in the closed upper half-plane.

    Branch cut along [0, inf): sqrt_upper(-1) = i, and for w approaching the
    positive real axis from below the value approaches -sqrt(|w|).
    """
    w = np.asarray(w, dtype=complex)
    s = np.sqrt(w)
    return np.where(s.imag < 0.0, -s, s)


def semicircle_cauchy(variance: float, z, center: float = 0.0):
    """Cauchy transform of the semicircle law, on the closed upper half-plane.

    Real arguments get the boundary value: inside the support the imaginary
    part equals -pi times the density; outside it the value is real.
    """
    if not (variance > 0 and np.isfinite(variance)):
        raise InvalidArgumentError("semicircle variance must be positive")
    t = float(variance)
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0.0):
        raise DomainError("semicircle transform requires Im z >= 0")
    y = z - center
    edge = 2.0 * math.sqrt(t)
    out = np.empty_like(y)
    on_axis = y.imag == 0.0
    if np.any(on_axis):
        x = y[on_axis].real
        val = np.empty(x.shape, dtype=complex)
        inside = np.abs(x) <= edge
        val[inside] = (x[inside] - 1j * np.sqrt(4.0 * t - x[inside] ** 2)) / (2.0 * t)
        # rationalized forms: the naive (x -+ sqrt(x^2 - 4t))/2t cancels
        # catastrophically for |x| >> sqrt(t), these denominators never do
        right = x > edge
        val[right] = 2.0 / (x[right] + np.sqrt(x[right] ** 2 - 4.0 * t))
        left = x < -edge
        val[left] = 2.0 / (x[left] - np.sqrt(x[left] ** 2 - 4.0 * t))
        out[on_axis] = val
    off = ~on_axis
    if np.any(off):
        w = y[off]
        # Re sqrt_upper(w^2 - 4t) carries the sign of Re w on Im w > 0, so
        # the sum below never cancels; equals (w - sqrt_upper(...))/2t exactly
        out[off] = 2.0 / (w + sqrt_upper(w * w - 4.0 * t))
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class SemicircleFamily(_AcPart):
    """Semicircle distribution with given variance, optionally off-center."""

    variance: float
    center: float = 0.0
    edge_orders = (0.5, 0.5)

    def __post_init__(self):
        if not (self.variance > 0 and np.isfinite(self.variance)):
            raise InvalidSpecError("semicircle variance must be positive and finite")

    @property
    def support(self) -> Tuple[float, float]:
        r = 2.0 * math.sqrt(self.variance)
        return (self.center - r, self.center + r)

    def moments(self) -> Tuple[float, float, float]:
        return 1.0, self.center, self.variance

    def density(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = self.variance
        y = x - self.center
        out = np.zeros_like(y)
        m = np.abs(y) <= 2.0 * math.sqrt(t)
        out[m] = np.sqrt(np.maximum(4.0 * t - y[m] ** 2, 0.0)) / (2.0 * np.pi * t)
        return out

    def dilated(self, a: float) -> "SemicircleFamily":
        return SemicircleFamily(self.variance * a * a, self.center * a)

    def translated(self, c: float) -> "SemicircleFamily":
        return SemicircleFamily(self.variance, self.center + c)

    def _cauchy(self, z: np.ndarray, derivative: bool) -> np.ndarray:
        if not derivative:
            return semicircle_cauchy(self.variance, z, center=self.center)
        t, y = self.variance, z - self.center
        return (1.0 - y / sqrt_upper(y * y - 4.0 * t)) / (2.0 * t)

    def to_table(self, n: int = 2001) -> DensityTable:
        a, b = self.support
        grid = _chebyshev_extrema(a, b, n)
        return DensityTable(grid, self.density(grid), (a, b), (0.5, 0.5), 1.0)


@dataclass(frozen=True)
class _IntervalFamily(_AcPart):
    """A family on a finite interval [a, b]: the arcsine and uniform laws."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise InvalidSpecError("%s interval must be finite with a < b"
                                   % self._name)

    @property
    def support(self) -> Tuple[float, float]:
        return (self.a, self.b)

    def dilated(self, s: float):
        return type(self)(self.a * s, self.b * s)

    def translated(self, c: float):
        return type(self)(self.a + c, self.b + c)


@dataclass(frozen=True)
class ArcsineFamily(_IntervalFamily):
    """Arcsine distribution on [a, b]: density 1/(pi sqrt((x-a)(b-x)))."""

    _name = "arcsine"
    edge_orders = (-0.5, -0.5)

    def moments(self) -> Tuple[float, float, float]:
        return 1.0, 0.5 * (self.a + self.b), ((self.b - self.a) / 2.0) ** 2 / 2.0

    def density(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        m = (x > self.a) & (x < self.b)
        out[m] = 1.0 / (np.pi * np.sqrt((x[m] - self.a) * (self.b - x[m])))
        return out

    def _cauchy(self, z: np.ndarray, derivative: bool) -> np.ndarray:
        # principal-branch factors each map the upper half-plane into the
        # first quadrant, so the product has positive imaginary part
        g = 1.0 / (np.sqrt(z - self.a) * np.sqrt(z - self.b))
        if not derivative:
            return g
        return -0.5 * g * (1.0 / (z - self.a) + 1.0 / (z - self.b))

    def to_table(self, n: int = 2001) -> DensityTable:
        # exclude the exact endpoints where the density diverges
        c, r = 0.5 * (self.a + self.b), 0.5 * (self.b - self.a)
        theta = (np.arange(n) + 0.5) * np.pi / n
        grid = np.sort(c + r * np.cos(theta))
        return DensityTable(grid, self.density(grid), (self.a, self.b),
                            (-0.5, -0.5), 1.0)


@dataclass(frozen=True)
class UniformFamily(_IntervalFamily):
    """Uniform distribution on [a, b]."""

    _name = "uniform"
    edge_orders = (0.0, 0.0)

    def moments(self) -> Tuple[float, float, float]:
        return 1.0, 0.5 * (self.a + self.b), (self.b - self.a) ** 2 / 12.0

    def density(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        out[(x >= self.a) & (x <= self.b)] = 1.0 / (self.b - self.a)
        return out

    def _cauchy(self, z: np.ndarray, derivative: bool) -> np.ndarray:
        if derivative:
            return (1.0 / (z - self.a) - 1.0 / (z - self.b)) / (self.b - self.a)
        return np.log((z - self.a) / (z - self.b)) / (self.b - self.a)

    def to_table(self, n: int = 2001) -> DensityTable:
        grid = np.linspace(self.a, self.b, n)
        return DensityTable(grid, self.density(grid), (self.a, self.b),
                            (0.0, 0.0), 1.0)


AcPart = _AcPart  # a family, a DensityTable or a companion's _NodeSet


def _chebyshev_extrema(a: float, b: float, n: int) -> np.ndarray:
    k = np.arange(n)
    return np.sort(0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * k / (n - 1)))


def _chebyshev_rule(a: float, b: float, n: int):
    """The n first-kind Chebyshev roots x = c - r cos(theta) on [a, b],
    theta = pi (k + 1/2) / n, sorted, with their weights r (pi / n)
    sin(theta) in the midpoint rule in theta: sum w f(x) ~ int f(x) dx.

    For a density with edge exponents in {-1/2, 1/2}, p sin(theta) is
    smooth and periodic in theta, so the rule is spectrally accurate for
    the moments of p (Trefethen, ATAP, 2013).
    """
    theta = np.pi * (np.arange(n) + 0.5) / n
    x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(theta)
    order = np.argsort(x, kind="stable")
    w = 0.5 * (b - a) * (np.pi / n) * np.sin(theta)
    return x[order], w[order]


# -- measures -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Measure:
    """Finite atoms plus at most one absolutely continuous component."""

    atoms: Tuple[Atom, ...] = ()
    ac: Optional[AcPart] = None

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=lambda a: a.x))
        object.__setattr__(self, "atoms", atoms)
        for a in atoms:
            if not (np.isfinite(a.x) and np.isfinite(a.w)):
                raise InvalidSpecError("atom entries must be finite")
            if not (0.0 < a.w <= 1.0 + 1e-12):
                raise InvalidSpecError("atom weights must lie in (0, 1]")
        xs = [a.x for a in atoms]
        if any(x2 - x1 < _ATOM_SEP for x1, x2 in zip(xs, xs[1:])):
            raise InvalidSpecError("atom locations must be strictly distinct")
        if self.ac is None and not atoms:
            raise InvalidSpecError("measure needs at least one atom or an ac part")

    @property
    def atom_mass(self) -> float:
        return float(sum(a.w for a in self.atoms))

    @property
    def ac_mass(self) -> float:
        return 0.0 if self.ac is None else self.ac.mass()

    def support(self) -> Tuple[float, float]:
        lo, hi = math.inf, -math.inf
        for a in self.atoms:
            lo, hi = min(lo, a.x), max(hi, a.x)
        if self.ac is not None:
            s = self.ac.support
            lo, hi = min(lo, s[0]), max(hi, s[1])
        return lo, hi

    def support_components(self) -> Tuple[Tuple[float, float], ...]:
        """Sorted closed components of the support: each atom as a degenerate
        interval, and the ac interval, into which an atom inside it merges."""
        comps = [(a.x, a.x) for a in self.atoms]
        if self.ac is not None:
            a, b = self.ac.support
            comps = [c for c in comps if not a <= c[0] <= b] + [(a, b)]
        return tuple(sorted(comps))

    def mean(self) -> float:
        m = sum(a.w * a.x for a in self.atoms)
        if self.ac is not None:
            mass, mu, _ = self.ac.moments()
            m += mass * mu
        return float(m)

    def variance(self) -> float:
        e2 = sum(a.w * a.x ** 2 for a in self.atoms)
        if self.ac is not None:
            mass, mu, var = self.ac.moments()
            e2 += mass * (var + mu ** 2)
        return float(e2 - self.mean() ** 2)

    def is_standardized(self, tol: float = 1e-7) -> bool:
        return abs(self.mean()) <= tol and abs(self.variance() - 1.0) <= 10 * tol


def _check_mass(m: Measure, tol: float) -> None:
    total = m.atom_mass + m.ac_mass
    if abs(total - 1.0) > tol:
        raise InvalidSpecError(
            "measure mass %.12g deviates from 1 beyond %.1e "
            "(mass is checked, never silently renormalized)" % (total, tol))


_SPEC_KEYS = {"atoms", "density", "standardize"}
_FAMILIES = {"semicircle": SemicircleFamily, "arcsine": ArcsineFamily,
             "uniform": UniformFamily}


def _spec_number(value, what: str) -> float:
    """A number of a spec: a JSON number, never a string, null or boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSpecError("%s must be a number, not %r" % (what, value))
    return float(value)


def _family_from_spec(d: dict) -> AcPart:
    """The family a spec names, its params those of the class's fields."""
    kind = d.get("family")
    params = d.get("params", {})
    cls = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidSpecError("unknown density family %r" % (kind,))
    if not isinstance(params, dict):
        raise InvalidSpecError("density params must be an object")
    fields = dataclasses.fields(cls)
    unknown = set(params) - {f.name for f in fields}
    if unknown:
        raise InvalidSpecError("unknown %s params: %s" % (kind, sorted(unknown)))
    for f in fields:
        if f.name not in params and f.default is dataclasses.MISSING:
            raise InvalidSpecError("missing density param %r" % (f.name,))
    return cls(**{name: _spec_number(value, "density param %r" % (name,))
                  for name, value in params.items()})


def make_measure(spec: dict, mass_tol: float = TOL_MASS) -> Measure:
    """Build a validated Measure from a plain-dict specification.

    Schema: {"atoms": [{"x": f, "w": f}, ...],
             "density": {"family": ..., "params": {...}} or {"table": [[x, p], ...]},
             "standardize": bool}
    All fields optional but at least one component required.  Unknown fields
    are rejected.  Mass is checked against 1 within mass_tol, or within
    TABLE_MASS_TOL if that is larger and the spec has a table; it is never
    renormalized.
    """
    if not isinstance(spec, dict):
        raise InvalidSpecError("measure spec must be an object")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise InvalidSpecError("unknown measure spec fields: %s" % sorted(unknown))
    atoms = []
    entries = spec.get("atoms", [])
    if not isinstance(entries, list):
        raise InvalidSpecError("atoms must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"x", "w"}:
            raise InvalidSpecError("each atom must be an object with exactly x and w")
        atoms.append(Atom(_spec_number(entry["x"], "atom x"),
                          _spec_number(entry["w"], "atom w")))
    ac = None
    dens = spec.get("density")
    if dens is not None:
        if not isinstance(dens, dict):
            raise InvalidSpecError("density must be an object")
        if "family" in dens:
            unknown = set(dens) - {"family", "params"}
            if unknown:
                raise InvalidSpecError("unknown density fields: %s" % sorted(unknown))
            ac = _family_from_spec(dens)
        elif "table" in dens:
            unknown = set(dens) - {"table"}
            if unknown:
                raise InvalidSpecError("unknown density fields: %s" % sorted(unknown))
            rows = np.asarray(dens["table"], dtype=object)
            if rows.ndim != 2 or rows.shape[1] != 2:
                raise InvalidSpecError("table must be a list of [x, p] pairs")
            rows = np.array([[_spec_number(v, "table entry") for v in row]
                             for row in rows])
            # no gate of the table's own: the measure's mass is gated below
            ac = build_table(rows[:, 0], rows[:, 1], expected_mass=None)
        else:
            raise InvalidSpecError("density needs either a family or a table")
    m = Measure(tuple(atoms), ac)
    if isinstance(ac, DensityTable):
        _check_mass(m, max(mass_tol, TABLE_MASS_TOL))
    else:
        _check_mass(m, mass_tol)
    scale = spec.get("standardize", False)
    if not isinstance(scale, bool):
        raise InvalidSpecError("standardize must be true or false")
    if scale:
        m = standardize(m)
    return m


def measure_from_json(text_or_path: str, mass_tol: float = TOL_MASS) -> Measure:
    """Load a measure spec from a JSON string or a path to a JSON file."""
    text = text_or_path
    if not text_or_path.lstrip().startswith("{"):
        try:
            with open(text_or_path, "r") as fh:
                text = fh.read()
        except OSError as e:
            raise InvalidSpecError("cannot read measure file: %s" % e) from None
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidSpecError("invalid JSON: %s" % e) from None
    return make_measure(spec, mass_tol=mass_tol)


# -- operations ------------------------------------------------------------

def translate(m: Measure, c: float) -> Measure:
    atoms = tuple(Atom(a.x + c, a.w) for a in m.atoms)
    ac = None if m.ac is None else m.ac.translated(c)
    return Measure(atoms, ac)


def dilate(m: Measure, a: float) -> Measure:
    """Pushforward under x -> a*x (a > 0).  Variance scales by a**2."""
    if not (np.isfinite(a) and a > 0):
        raise InvalidArgumentError("dilation factor must be positive and finite")
    atoms = tuple(Atom(at.x * a, at.w) for at in m.atoms)
    ac = None if m.ac is None else m.ac.dilated(a)
    return Measure(atoms, ac)


def standardize(m: Measure) -> Measure:
    """Translate to mean zero, then dilate to unit variance."""
    mu = m.mean()
    var = m.variance()
    if not np.isfinite(var) or var <= 1e-14:
        raise DegenerateMeasureError("cannot standardize a point mass")
    if abs(mu) <= 1e-14 and abs(var - 1.0) <= 1e-14:
        return m
    return dilate(translate(m, -mu), 1.0 / math.sqrt(var))
