"""Shared fixtures: seed measures, closed-form density oracles, and frozen
numerical pins.

The oracles below are independent closed forms (arcsine, Kesten-type
resolvent quotient, shifted-semicircle companion) used to judge the two
computational routes.  The pins are functional values frozen from runs of
the same quadrature machinery applied to the *closed-form* oracle tables,
so a regression in either the density construction or the functional
integrators moves a pinned value.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from freeclt import make_measure
from freeclt.measures import _leggauss
from freeclt.transforms import semicircle_cauchy

SQRT2 = math.sqrt(2.0)
LADDER = (4, 8, 16, 32, 64)


# -- seed measures -------------------------------------------------------------

@pytest.fixture(scope="session")
def bernoulli():
    """Symmetric two-atom seed at +/-1 (mean 0, variance 1)."""
    return make_measure(
        {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]})


@pytest.fixture(scope="session")
def asym():
    """Asymmetric two-atom seed at -sqrt(2) (w=1/3), 1/sqrt(2) (w=2/3)."""
    return make_measure(
        {"atoms": [{"x": -SQRT2, "w": 1.0 / 3.0},
                   {"x": 1.0 / SQRT2, "w": 2.0 / 3.0}]})


@pytest.fixture(scope="session")
def semicircle():
    return make_measure(
        {"density": {"family": "semicircle", "params": {"variance": 1.0}}})


def _mixture_spec():
    """Atom of weight 0.2 at 0 plus 0.8 x a 401-point tabulated semicircle of
    variance 1.25, standardized on construction."""
    var = 1.25
    r = 2.0 * math.sqrt(var)
    x = np.linspace(-r, r, 401)
    p = 0.8 * np.sqrt(np.maximum(4.0 * var - x * x, 0.0)) \
        / (2.0 * math.pi * var)
    return {"atoms": [{"x": 0.0, "w": 0.2}],
            "density": {"table": [[float(a), float(b)] for a, b in zip(x, p)]},
            "standardize": True}


UNIFORM_SPEC = {"density": {"family": "uniform",
                            "params": {"a": -math.sqrt(3.0),
                                       "b": math.sqrt(3.0)}}}
ARCSINE_SPEC = {"density": {"family": "arcsine",
                            "params": {"a": -SQRT2, "b": SQRT2}}}
MIXTURE_SPEC = _mixture_spec()


@pytest.fixture(scope="session")
def uniform():
    """Uniform seed on [-sqrt(3), sqrt(3)]."""
    return make_measure(UNIFORM_SPEC)


@pytest.fixture(scope="session")
def arcsine():
    """Arcsine seed on [-sqrt(2), sqrt(2)]."""
    return make_measure(ARCSINE_SPEC)


@pytest.fixture(scope="session")
def mixture():
    """Atom + table mixture seed (see MIXTURE_SPEC)."""
    return make_measure(MIXTURE_SPEC)


BERNOULLI_SPEC = {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}
ASYM_SPEC = {"atoms": [{"x": -SQRT2, "w": 1.0 / 3.0},
                       {"x": 1.0 / SQRT2, "w": 2.0 / 3.0}]}
SEMICIRCLE_SPEC = {"density": {"family": "semicircle",
                               "params": {"variance": 1.0}}}

# seeds whose low powers have supports of several intervals: the heavy
# centre atom of THREE_GAP_SPEC survives for n <= 9 and sits between two
# intervals at n = 2 to 4, and FOUR_GAP_SPEC has three intervals at n = 2
# and 4
THREE_GAP_SPEC = {"atoms": [{"x": -3.0, "w": 0.05}, {"x": 0.0, "w": 0.9},
                            {"x": 3.0, "w": 0.05}], "standardize": True}
FOUR_GAP_SPEC = {"atoms": [{"x": -4.0, "w": 0.1}, {"x": -0.1, "w": 0.4},
                           {"x": 0.1, "w": 0.4}, {"x": 4.0, "w": 0.1}],
                 "standardize": True}


# seeds of atoms plus a constant 17-row table, whose Cauchy transform has a
# closed form off the support (see constant_table_cauchy): OUTER_ATOM_SPEC
# has one atom right of the table, and INNER_OUTER_ATOM_SPEC one atom inside
# the table and one on each side of it
def _constant_table_spec(atoms, height):
    rows = [[-1.0 + k / 8.0, height] for k in range(17)]
    return {"atoms": [{"x": x, "w": w} for x, w in atoms],
            "density": {"table": rows}, "standardize": True}


OUTER_ATOM_SPEC = _constant_table_spec([(3.0, 0.1)], 0.45)
INNER_OUTER_ATOM_SPEC = _constant_table_spec(
    [(-3.0, 0.1), (0.25, 0.2), (2.5, 0.1)], 0.3)


# seeds whose table vanishes faster than linearly at its edges, so G_mu' is
# finite there, and at small n the power's support edges are the images of
# the table's edges rather than folds: 401 rows of (1 - x^2)^k on [-1, 1],
# scaled to the mass that the atoms outside it leave
def _bump_spec(k, atoms=()):
    x = np.linspace(-1.0, 1.0, 401)
    norm = {2: 15.0 / 16.0, 3: 35.0 / 32.0}[k]  # 1 / int (1 - x^2)^k dx
    mass = 1.0 - sum(w for _, w in atoms)
    p = mass * norm * (1.0 - x * x) ** k
    return {"atoms": [{"x": a, "w": w} for a, w in atoms],
            "density": {"table": [[float(a), float(b)] for a, b in zip(x, p)]},
            "standardize": True}


BUMP2_SPEC = _bump_spec(2)
BUMP3_SPEC = _bump_spec(3)
ATOM_BUMP_SPEC = _bump_spec(2, [(1.5, 0.3)])


@pytest.fixture()
def measure_file_factory(tmp_path):
    def write(spec, name="measure.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)
    return write


# -- closed-form density oracles -----------------------------------------------

def semicircle_density(x, variance=1.0):
    """sqrt(4 v - x^2) / (2 pi v) on [-2 sqrt(v), 2 sqrt(v)]."""
    x = np.asarray(x, dtype=float)
    rad = 4.0 * variance - x * x
    return np.where(rad > 0.0, np.sqrt(np.maximum(rad, 0.0))
                    / (2.0 * np.pi * variance), 0.0)


def arcsine_density(x):
    """1 / (pi sqrt(2 - x^2)) on (-sqrt(2), sqrt(2)): the normalized second
    power of the symmetric two-atom law."""
    x = np.asarray(x, dtype=float)
    rad = 2.0 - x * x
    out = np.zeros_like(x)
    inside = rad > 0.0
    out[inside] = 1.0 / (np.pi * np.sqrt(rad[inside]))
    return out


def kesten_density(x, m):
    """Closed form for the normalized m-th power of the symmetric two-atom
    law, m >= 2: with t = (m-1)/m,

        p(x) = 2 t sqrt(4t - x^2) / (pi [x^2 (2t-1)^2 + 4t - x^2])

    on |x| <= 2 sqrt(t).  Derivation: the companion of the seed is a point
    mass at 0; convolving its 1/sqrt(m) dilation (still a point mass at 0)
    with the semicircle law of variance t gives a Cauchy transform g
    solving t g^2 - z g + 1 = 0 (upper branch), and the power's density is
    the boundary value of -Im(1/(z - g))/pi, which simplifies to the
    quotient above.
    """
    x = np.asarray(x, dtype=float)
    t = (m - 1.0) / m
    rad = 4.0 * t - x * x
    out = np.zeros_like(x)
    inside = rad > 0.0
    xx = x[inside]
    out[inside] = (2.0 * t * np.sqrt(rad[inside])
                   / (np.pi * (xx * xx * (2.0 * t - 1.0) ** 2
                               + 4.0 * t - xx * xx)))
    return out


def asym_power_density(x, m):
    """Closed form for the absolutely continuous part of the normalized m-th
    power of the asymmetric two-atom seed.

    The seed's companion is a point mass at -1/sqrt(2); after the 1/sqrt(m)
    dilation it sits at c = -1/sqrt(2m), so the power's reciprocal Cauchy
    transform is F(x) = x - G(x - c) with G the Cauchy transform of the
    semicircle law of variance t = (m-1)/m, and the density is
    -Im(1/F)/pi on the boundary.
    """
    x = np.asarray(x, dtype=float)
    t = (m - 1.0) / m
    c = -1.0 / math.sqrt(2.0 * m)
    g = semicircle_cauchy(t, x.astype(complex) + 0.0j - c)
    f = x - g
    with np.errstate(divide="ignore", invalid="ignore"):
        p = -np.imag(1.0 / f) / np.pi
    return np.where(np.isfinite(p) & (p > 0.0), p, 0.0)


def three_atom_spec(seed: int) -> dict:
    """Standardized three-atom law drawn from default_rng(seed), every weight
    below 0.7 and the atoms at least 0.25 apart before standardizing (the
    benchmark's three_atom_spec)."""
    rng = np.random.default_rng(seed)
    while True:
        w = rng.dirichlet((2.0, 2.0, 2.0))
        if w.max() < 0.7:
            break
    while True:
        x = np.sort(rng.uniform(-1.0, 1.0, 3))
        if np.min(np.diff(x)) > 0.25:
            break
    mean = float(np.dot(w, x))
    x = (x - mean) / math.sqrt(float(np.dot(w, (x - mean) ** 2)))
    w = w / w.sum()
    return {"atoms": [{"x": float(a), "w": float(b)} for a, b in zip(x, w)]}


def constant_table_cauchy(mu, x):
    """G_mu and G_mu' at real x off the support of a seed made of atoms and
    a constant table of height h on [a, b]:
    sum_i w_i / (x - x_i) + h log((x - a) / (x - b)) and its derivative."""
    a, b = mu.ac.support
    h = float(mu.ac.values[0])
    g = sum(t.w / (x - t.x) for t in mu.atoms) + h * math.log((x - a) / (x - b))
    gp = -sum(t.w / (x - t.x) ** 2 for t in mu.atoms) \
        + h * (1.0 / (x - a) - 1.0 / (x - b))
    return g, gp


def constant_table_companion_atoms(mu):
    """Companion atoms (r, -1/G_mu'(r)) of such a seed from brentq on the
    closed form: G_mu diverges to +inf and -inf at the two ends of every gap
    between the atoms outside the table and the table's edges."""
    a, b = mu.ac.support
    ends = sorted([t.x for t in mu.atoms if not a <= t.x <= b] + [a, b])
    out = []
    for lo, hi in zip(ends, ends[1:]):
        if (lo, hi) == (a, b):
            continue
        pad = 1e-13 * (hi - lo)
        r = brentq(lambda x: constant_table_cauchy(mu, x)[0], lo + pad,
                   hi - pad, xtol=1e-15, rtol=8.9e-16)
        out.append((r, -1.0 / constant_table_cauchy(mu, r)[1]))
    return out

def atomic_power_density(spec, n, x):
    """Density of the normalized n-th power of a purely atomic seed, by one
    np.roots call per point.

    With P(w) = prod_i (w - x_i) and Q(w) = sum_i w_i prod_{j != i} (w - x_j),
    F_mu = P/Q, so omega = Z/n + (1 - 1/n) F_mu(omega) clears to the
    degree-k polynomial n w Q - Z Q - (n - 1) P = 0.  omega(Z + i0) is its
    root of largest imaginary part, and at Z = sqrt(n) x the density is
    -sqrt(n) Im[Q/P](omega) / pi, zero where that root is real.
    """
    mu = make_measure(spec)
    xs = np.array([a.x for a in mu.atoms])
    ws = np.array([a.w for a in mu.atoms])
    p_poly = np.poly(xs)
    q_poly = sum(w * np.poly(np.delete(xs, i)) for i, w in enumerate(ws))
    rt = math.sqrt(n)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for i, z in enumerate(rt * x):
        coeffs = np.polysub(np.polymul([float(n), -z], q_poly),
                            (n - 1.0) * p_poly)
        roots = np.roots(coeffs)
        omega = roots[np.argmax(roots.imag)]
        if omega.imag > 0.0:
            g = np.polyval(q_poly, omega) / np.polyval(p_poly, omega)
            out[i] = -rt * g.imag / math.pi
    return out


def substitution_log_energy(tables, outer=512, inner=384):
    """Double log-kernel energy of the tables' summed density by nested
    substitution quadrature, sharing no series with the package.

    The outer integral takes each table's Gauss-theta nodes.  At every outer
    node x the inner integral over each table is split at x, and both halves
    get their own Gauss rule in the angle variable, which clusters nodes at
    the log singularity and keeps endpoint exponents >= -1/2 bounded.
    Accurate to ~1e-10 on square-root edges, ~1.5e-9 at -1/2 edges.
    """
    t, wt = _leggauss(inner)
    theta = 0.5 * np.pi * (t + 1.0)
    cth, sth = np.cos(theta), np.sin(theta)
    total = 0.0
    for out_tab in tables:
        xo, wo = out_tab.quad_nodes(outer)
        u = np.zeros_like(xo)
        for tab in tables:
            a, b = tab.support
            split = np.clip(xo, a, b)
            for lo, hi in ((np.full_like(xo, a), split),
                           (split, np.full_like(xo, b))):
                live = hi - lo > 1e-14
                if not np.any(live):
                    continue
                c = 0.5 * (lo[live] + hi[live])[:, None]
                r = 0.5 * (hi[live] - lo[live])[:, None]
                # stay strictly inside, where a singular density is finite
                y = np.clip(c + r * cth[None, :],
                            np.nextafter(a, b), np.nextafter(b, a))
                jac = r * sth[None, :] * (0.5 * np.pi * wt)[None, :]
                rho = tab.density(y.ravel()).reshape(y.shape)
                d = np.abs(xo[live][:, None] - y)
                with np.errstate(divide="ignore"):
                    lg = np.where(d == 0.0, 0.0, np.log(d))
                u[live] += np.sum(rho * lg * jac, axis=1)
        total += float(np.sum(wo * u))
    return total


def kesten_fisher(m):
    """(4 pi^2 / 3) * integral of the cubed m-th power density, in closed
    form: (m-1)^2 / (m (m-2)) for m > 2, divergent at m = 2."""
    if m <= 2:
        return math.inf
    return (m - 1.0) ** 2 / (m * (m - 2.0))


# -- frozen pins ---------------------------------------------------------------
# Values frozen from the quadrature machinery applied to closed-form oracle
# tables of the two-atom ladders.  Six-decimal entries are pinned to 1.5e-6,
# ten-decimal entries to 1e-8.

BERNOULLI_PINS = {
    4: {"sup": 1.0 / (2.0 * math.pi), "l1": 0.212230, "l06": 0.476552,
        "l2": 0.130682, "chi": 1.4073144612, "phi": 1.125},
    8: {"sup": 1.0 / (math.pi * math.sqrt(8.0)), "l1": 0.091033,
        "l06": 0.202633, "l2": 0.059538, "chi": 1.4165992520,
        "phi": kesten_fisher(8)},
    16: {"sup": 1.0 / (4.0 * math.pi), "l1": 0.042454, "l06": 0.093486,
         "l2": 0.029888, "chi": 1.4184061054, "phi": kesten_fisher(16)},
    32: {"sup": 1.0 / (math.pi * math.sqrt(32.0)), "l1": 0.020538,
         "l06": 0.044859, "l2": 0.015504, "chi": 1.4188111695,
         "phi": kesten_fisher(32)},
    64: {"sup": 1.0 / (8.0 * math.pi), "l1": 0.010105, "l06": 0.021945,
         "l2": 0.008136, "chi": 1.4189073671, "phi": kesten_fisher(64)},
}

ASYM_PINS = {
    4: {"sup": 0.511772, "l1": 0.359717, "l06": 0.764053, "l2": 0.261318,
        "chi": 1.37069187, "phi": 1.80000000},
    8: {"sup": 0.186484, "l1": 0.201725, "l06": 0.449596, "l2": 0.130282,
        "chi": 1.40343951, "phi": 1.13076923},
    16: {"sup": 0.151273, "l1": 0.126580, "l06": 0.284650, "l2": 0.082367,
         "chi": 1.41259001, "phi": 1.04442971},
    32: {"sup": 0.123435, "l1": 0.084367, "l06": 0.189335, "l2": 0.056342,
         "chi": 1.41605499, "phi": 1.01858395},
    64: {"sup": 0.101344, "l1": 0.057933, "l06": 0.129209, "l2": 0.039965,
         "chi": 1.41755953, "phi": 1.00851639},
}

# Free entropy of the normalized n-th power of the asymmetric coin, from an
# independent reference that shares no numerics with the package: the closed
# form G of the power (as in asym_power_density) gives the log-potential by
# U' = Re G(x + i0) and U(b) = log b + int_b^inf (1/s - G), and then
# chi = int U dmu + 3/4 + (1/2) log 2 pi, all by nested scipy quad at 1e-13.
# These are not the six-decimal chi entries of ASYM_PINS, which are off by
# 1.2e-5 to 2.9e-5.
ASYM_CHI_REFERENCE = {4: 1.3706624701, 8: 1.4034521609, 16: 1.4126024617,
                      32: 1.4160669907, 64: 1.4175712815}

# Entropy closed forms: the double log-energy of the arcsine law on
# [-sqrt(2), sqrt(2)] is log(capacity) = -log(2)/2, and of the uniform law
# on [-a, a] is log(2a) - 3/2.
CHI_ARCSINE = 0.75 + 0.5 * math.log(math.pi)
CHI_UNIFORM_STD = (math.log(2.0 * math.sqrt(3.0)) - 1.5
                   + 0.75 + 0.5 * math.log(2.0 * math.pi))
PHI_UNIFORM_STD = math.pi ** 2 / 9.0
