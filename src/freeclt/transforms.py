"""Cauchy transforms, boundary-value inversion, and companion recovery.

Conventions: the Cauchy transform of a probability measure is
G(z) = int d mu(x) / (z - x), analytic on the open upper half-plane with
Im G < 0 there and z*G(z) -> 1 at infinity.  Densities are recovered from
boundary values via p(x) = -Im G(x + i0) / pi.  G of a measure is its atoms'
sum plus its ac part's own G, which the part's class in ``measures`` gives.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CompanionRecoveryError,
    DomainError,
    InvalidArgumentError,
    InversionError,
)
from .measures import (
    Atom,
    Measure,
    _AC_NODES,
    _NodeSet,
    semicircle_cauchy,  # both re-exported: public names of this module
    sqrt_upper,
)

_COMPANION_MASS_TOL = 2e-6  # recovered-component mass budget
_COMPANION_LOCK = threading.Lock()


def _atoms_cauchy(atoms: Sequence[Atom], z: np.ndarray,
                  derivative: bool = False) -> np.ndarray:
    out = np.zeros_like(z)
    for a in atoms:
        out += -a.w / (z - a.x) ** 2 if derivative else a.w / (z - a.x)
    return out


def _transform(m: Measure, z, derivative: bool):
    """G_m or G_m' at z: the atom sum, then the ac part's own transform."""
    z_arr = np.asarray(z, dtype=complex)
    if np.any(z_arr.imag <= 0.0):
        raise DomainError("Cauchy transform requires Im z > 0")
    out = _atoms_cauchy(m.atoms, z_arr, derivative)
    if m.ac is not None:
        out = out + m.ac._cauchy(z_arr, derivative)
    return out if out.ndim else complex(out)


def cauchy(m: Measure, z):
    """Cauchy transform of a measure on the open upper half-plane."""
    return _transform(m, z, False)


def cauchy_derivative(m: Measure, z):
    """d/dz of the Cauchy transform, same domain conventions as cauchy()."""
    return _transform(m, z, True)


# -- boundary-value inversion ---------------------------------------------

_TOL_DENSITY = 1e-8       # negative values above -max(this, 3 err) clamp to 0


@dataclass(frozen=True)
class InversionResult:
    values: np.ndarray       # extrapolated density
    error: np.ndarray        # size of the last extrapolation correction


def _neville_to_zero(eps: np.ndarray, table: np.ndarray):
    """Polynomial extrapolation of table (L, n) sampled at eps (L, n) to eps=0."""
    T = [table[k] for k in range(table.shape[0])]
    E = [eps[k] for k in range(eps.shape[0])]
    prev_top = T[0]
    for j in range(1, len(T)):
        before = T[0]
        for i in range(len(T) - j):
            T[i] = (E[i + j] * T[i] - E[i] * T[i + 1]) / (E[i + j] - E[i])
        prev_top = before
    # error estimate: change contributed by the final column
    return T[0], np.abs(T[0] - prev_top)


def stieltjes_invert(transform: Callable[[np.ndarray], np.ndarray], x,
                     heights) -> InversionResult:
    """Recover a density on a real grid from a Cauchy-transform callable.

    Samples -Im transform(x + i*eps)/pi on the decreasing ladder of eps given
    by heights (one row per level, shared by all points or one column per
    point) and extrapolates polynomially to eps = 0.  Small negative values
    within the extrapolation noise floor are clamped to zero; distinctly
    negative values raise InversionError (they signal a wrong branch or a
    bad transform).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    H = np.atleast_1d(np.asarray(heights, dtype=float))
    if H.ndim == 1:
        H = H[:, None] * np.ones((1, x.size))
    if H.shape[0] < 2:
        raise InvalidArgumentError("the height ladder needs at least two rows")
    if not np.all(H[1:] < H[:-1]):
        raise InvalidArgumentError("heights must be strictly decreasing")
    if not np.all(H[-1] >= 1e-12):
        raise InvalidArgumentError("heights below 1e-12 lose all precision")
    P = np.empty_like(H)
    for k in range(H.shape[0]):
        P[k] = -np.imag(transform(x + 1j * H[k])) / np.pi
    values, err = _neville_to_zero(H, P)
    floor = np.maximum(_TOL_DENSITY, 3.0 * err)
    bad = values < -floor
    if np.any(bad):
        i = int(np.argmin(values))
        raise InversionError(
            "extrapolated density %.3g < 0 at x=%.6g" % (values[i], x[i]),
            x=float(x[i]))
    return InversionResult(np.maximum(values, 0.0), err)


# -- roots of many brackets in lockstep -------------------------------------

_BRENT_ITER = 100        # brentq's maxiter


def _brentq_lanes(f: Callable[[List[float]], List[float]],
                  xa: List[float], xb: List[float],
                  fa: List[float], fb: List[float], *,
                  xtol: float, rtol: float) -> List[float]:
    """A root in each bracket ``[xa[k], xb[k]]``, where f takes the values
    ``fa[k]`` and ``fb[k]``, by Brent's method in every bracket at once.

    Each bracket is a lane of scipy's ``brentq`` (its ``brentq.c``), step
    for step in Python floats, so each root is the one ``brentq(g, xa[k],
    xb[k], xtol=xtol, rtol=rtol)`` returns for a g with ``f([x]) ==
    [g(x)]``.  The lanes run in lockstep, and each iteration makes one call
    of ``f`` on the points of the lanes still running.  Every root solve
    of the library is made here, each with the tolerances of the scalar
    call it replaces: the L^p cuts of ``functionals``, the fold points of
    ``pipeline._support_intervals``, the companion atoms of
    ``_companion_atoms``, and the region ends and gap minima of
    ``flow.flow_region``.  Raises as ``brentq`` does: ``ValueError`` on a NaN value or
    on a bracket without a sign change, ``RuntimeError`` when a lane has
    not converged after 100 iterations.
    """
    def checked(x: float, fx: float) -> float:
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    roots: List[float] = [0.0] * len(xa)
    lanes = []  # [k, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur]
    for k in range(len(xa)):
        fpre, fcur = checked(xa[k], fa[k]), checked(xb[k], fb[k])
        if fpre == 0:
            roots[k] = xa[k]
        elif fcur == 0:
            roots[k] = xb[k]
        elif math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
            raise ValueError("f(a) and f(b) must have different signs")
        else:
            lanes.append([k, xa[k], xb[k], 0.0, fpre, fcur, 0.0, 0.0, 0.0])
    for _ in range(_BRENT_ITER):
        running = []
        for lane in lanes:
            k, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = lane
            if (fpre != 0 and fcur != 0
                    and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (xtol + rtol * abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            if fcur == 0 or abs(sbis) < delta:
                roots[k] = xcur
                continue
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                bound = 3 * abs(sbis) - delta
                if abs(spre) < bound:
                    bound = abs(spre)
                if 2 * abs(stry) < bound:
                    # good short step
                    spre, scur = scur, stry
                else:
                    spre = scur = sbis
            else:
                spre = scur = sbis
            xpre, fpre = xcur, fcur
            if abs(scur) > delta:
                xcur += scur
            else:
                xcur += delta if sbis > 0 else -delta
            lane[1:] = xpre, xcur, xblk, fpre, fcur, fblk, spre, scur
            running.append(lane)
        lanes = running
        if not lanes:
            return roots
        for lane, fx in zip(lanes, f([lane[2] for lane in lanes])):
            lane[5] = checked(lane[2], fx)
    raise RuntimeError(f"Failed to converge after {_BRENT_ITER} iterations.")


# -- companion recovery -----------------------------------------------------

def _companion_atoms(mu: Measure) -> Tuple[Atom, ...]:
    """Atoms of the companion: the real zeros r of G_mu off supp mu, with
    weight -1/G_mu'(r).

    G_mu is strictly decreasing on each gap between support components
    (the atoms and the ac interval), so a gap holds one zero exactly when
    G_mu changes sign across it.  The atom part is summed
    in real arithmetic; the ac part is the real boundary value off its
    support.  The zeros of all gaps are solved in one _brentq_lanes call,
    each to brentq's xtol=1e-15, rtol=8.9e-16.
    """
    xs = np.array([a.x for a in mu.atoms])
    ws = np.array([a.w for a in mu.atoms])

    def g_lanes(x):
        # G_mu at each point of the list x, one row of the atom sum each
        x = np.array(x)
        val = np.sum(ws / (x[:, None] - xs), axis=1)
        return (val if mu.ac is None
                else val + mu.ac._cauchy(x + 1e-30j, False).real).tolist()

    g = lambda x: g_lanes([x])[0]

    def gprime(x):
        val = float(-np.sum(ws / (x - xs) ** 2))
        return val if mu.ac is None else \
            val + float(mu.ac._cauchy(np.asarray(x + 1e-30j), True).real)

    comps = mu.support_components()
    xa, xb, fa, fb = [], [], [], []
    for (_, lo), (hi, _) in zip(comps, comps[1:]):
        gap = hi - lo
        d = 1e-9 * gap
        while (g_lo := g(lo + d)) < 0 or (g_hi := g(hi - d)) > 0:
            d *= 0.5
            if d < 1e-15 * gap:
                break  # no sign change: the gap holds no zero
        else:
            xa.append(lo + d)
            xb.append(hi - d)
            fa.append(g_lo)
            fb.append(g_hi)
    roots = _brentq_lanes(g_lanes, xa, xb, fa, fb, xtol=1e-15, rtol=8.9e-16)
    return tuple(Atom(r, -1.0 / gprime(r)) for r in roots)


def _bisect_to_threshold(f: Callable[[float], float], inner: float,
                         outer: float, tau: float, xtol: float = 1e-12) -> float:
    """Point between inner (f > tau) and outer (f <= tau) where f crosses tau."""
    fi, fo = f(inner), f(outer)
    if fi <= tau:
        return inner
    if fo > tau:
        return outer
    lo, hi = inner, outer
    while abs(hi - lo) > xtol:
        mid = 0.5 * (lo + hi)
        if f(mid) > tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_EDGE_LADDER = (1e-7, 1e-9, 1e-11)


def find_support_interval(boundary_density: Callable[[np.ndarray, float], np.ndarray],
                          scan_lo: float, scan_hi: float, tau: float = 1e-7,
                          scan_points: int = 2001) -> Optional[Tuple[float, float]]:
    """Outer interval where the boundary density exceeds tau.

    boundary_density(x, eps) must return -Im G(x + i*eps)/pi.  Both the scan
    and the edge bisection use the minimum over a ladder of eps values: at a
    fixed eps the off-support tail decays only like eps/dist^k (k up to 3/2
    near a singular edge), which would inflate the detected support by as
    much as ~0.2; the ladder minimum kills the tail while leaving on-support
    values intact.
    """
    grid = np.linspace(scan_lo, scan_hi, scan_points)
    vals = np.min([np.asarray(boundary_density(grid, e)) for e in _EDGE_LADDER],
                  axis=0)
    above = np.nonzero(vals > tau)[0]
    if above.size == 0:
        return None
    i0, i1 = above[0], above[-1]

    def f(x: float) -> float:
        pt = np.array([x])
        return min(float(boundary_density(pt, e)[0]) for e in _EDGE_LADDER)

    left = grid[i0] if i0 == 0 else _bisect_to_threshold(f, grid[i0], grid[i0 - 1], tau)
    right = grid[i1] if i1 == len(grid) - 1 else _bisect_to_threshold(f, grid[i1], grid[i1 + 1], tau)
    return float(left), float(right)


def companion_measure(mu: Measure) -> Measure:
    """Recover the measure nu with 1/G_mu(z) = z - G_nu(z).

    Requires mu standardized (mean 0, variance 1); nu then has total mass 1
    and mean equal to the third moment of mu.  The atoms of nu are the real
    zeros of G_mu in the gaps of supp mu; its continuous part has density
    p_mu / |G_mu(x + i0)|^2, so it lives on the support of mu's ac part and
    is kept as its values at that part's own 4096-node Gauss-theta set,
    from the boundary values of G_mu there.  A table seed's Cauchy sum at
    one of its own nodes drops that node's term, which is added back as
    jac * (-p_mu') from the table's spline.

    nu does not depend on the power, so it is recovered once per (frozen)
    mu instance and memoized on it; every power, row or ladder of the same
    seed object reuses it.
    """
    with _COMPANION_LOCK:  # library callers may share one seed across threads
        cached = mu.__dict__.get("_companion_cache")
        if cached is None:
            cached = _recover_companion(mu)
            object.__setattr__(mu, "_companion_cache", cached)
    return cached


def _recover_companion(mu: Measure) -> Measure:
    if not mu.is_standardized(1e-6):
        raise InvalidArgumentError(
            "companion recovery requires a standardized measure")
    atoms = _companion_atoms(mu)
    atom_mass = sum(a.w for a in atoms)
    if mu.ac is None:
        if abs(atom_mass - 1.0) > 1e-10:
            raise CompanionRecoveryError(
                "atomic companion mass %.12g differs from 1" % atom_mass)
        return Measure(atoms, None)

    x, jac, p = mu.ac._node_set(_AC_NODES)
    g = _atoms_cauchy(mu.atoms, x + 0j) + mu.ac._cauchy_at_nodes()  # G(x + i0)
    ac = _NodeSet(mu.ac.support, x, jac, p / np.abs(g) ** 2)
    mass = ac.mass()
    if abs(atom_mass + mass - 1.0) > _COMPANION_MASS_TOL:
        raise CompanionRecoveryError(
            "companion mass %.9g (atoms %.3g + ac part %.9g) differs from 1"
            % (atom_mass + mass, atom_mass, mass))
    return Measure(atoms, ac)
