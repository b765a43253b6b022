"""Both routes against a 30-digit reference density.

For a seed whose Cauchy transform G has a closed form, the normalized n-th
power has density p(x) = -sqrt(n) Im[(n - 1)/(n w - Z)]/pi at Z = sqrt(n) x,
where w solves the subordination equation n w - (n - 1)/G(w) = Z with
Im w > 0.  It is solved here with mpmath.findroot at 30 digits, continuing
w from point to point across the grid; the first point starts from Picard
steps w <- (Z + (n - 1)/G(w))/n at w = Z/n + i.  The equation is route 2's,
but none of its numerics are.

Each power is checked at 39 interior points of its support,
np.linspace(lo, hi, 41)[1:-1]: a fixed grid would put points past the
power's edge (the arcsine seed's n = 4 power ends at +-1.87), where the
continuation can land on a wrong root.  Each (seed, route) has one absolute
bound, ten times the largest error measured over n in {2, 4, 16, 64}.

The flow route is also checked relative to the reference at its curve's own
image points, i points in from each end of the region's 1,401, where the
height v is small and loses digits first; there w is continued from the
middle point outward to the end.
"""

import mpmath
import numpy as np
import pytest

from freeclt import clt_density_flow, clt_density_subordination
from freeclt.flow import _CURVE_POINTS
from freeclt.pipeline import _quotient_values

ROUTES = {"flow": clt_density_flow, "subordination": clt_density_subordination}

# ten times the largest |route - reference| over the four powers, which
# follows each bound
BOUNDS = {
    ("uniform", "flow"): 3.2e-12,              # 3.1e-13
    ("uniform", "subordination"): 3.2e-11,     # 3.2e-12
    ("arcsine", "flow"): 2.4e-11,              # 2.4e-12
    ("arcsine", "subordination"): 3.5e-10,     # 3.5e-11
    ("semicircle", "flow"): 3.9e-15,           # 3.9e-16
    ("semicircle", "subordination"): 2.6e-13,  # 2.6e-14
}

# ten times the largest relative error of the flow route at curve point i
# from either end, over the three seeds and four powers, which follows each
# bound
CURVE_BOUNDS = {
    1: 1.2e-9,     # 1.2e-10
    2: 3.9e-10,    # 3.9e-11
    5: 6.1e-11,    # 6.1e-12
    10: 1.3e-11,   # 1.3e-12
    50: 3.0e-13,   # 3.0e-14
    200: 2.2e-14,  # 2.2e-15
    700: 3.7e-15,  # 3.7e-16
}


def _cauchy(seed, ac):
    """The seed's G at 30 digits, on the open upper half-plane."""
    if seed == "semicircle":
        return lambda z: 2 / (z + mpmath.sqrt(z - 2) * mpmath.sqrt(z + 2))
    a, b = mpmath.mpf(ac.a), mpmath.mpf(ac.b)
    if seed == "uniform":
        return lambda z: mpmath.log((z - a) / (z - b)) / (b - a)
    return lambda z: 1 / (mpmath.sqrt(z - a) * mpmath.sqrt(z - b))


def reference_density(G, n, xs):
    out = []
    with mpmath.workdps(30):
        rn = mpmath.sqrt(n)
        w = None
        for x in xs:
            Z = rn * mpmath.mpf(float(x))
            if w is None:
                w = Z / n + 1j
                for _ in range(200):
                    w = (Z + (n - 1) / G(w)) / n
            w = mpmath.findroot(lambda v: n * v - (n - 1) / G(v) - Z, w)
            out.append(float(-rn * mpmath.im((n - 1) / (n * w - Z))
                             / mpmath.pi))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("seed", ["uniform", "arcsine", "semicircle"])
def test_route_matches_reference(request, seed, route, n):
    mu = request.getfixturevalue(seed)
    dens = ROUTES[route](mu, n)
    lo, hi = dens.support()
    xs = np.linspace(lo, hi, 41)[1:-1]
    ref = reference_density(_cauchy(seed, mu.ac), n, xs)
    assert np.all(ref > 0.05)  # the continuation stayed on the support
    err = np.max(np.abs(dens.density(xs) - ref))
    assert err <= BOUNDS[(seed, route)]


@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("seed", ["uniform", "arcsine", "semicircle"])
def test_flow_at_its_curve_points_matches_reference(request, seed, n):
    mu = request.getfixturevalue(seed)
    curve = clt_density_flow(mu, n).curve
    x, p = _quotient_values(curve, curve.region_index == 0)
    assert x.size == _CURVE_POINTS
    inward = sorted(CURVE_BOUNDS, reverse=True)
    bounds = np.array([CURVE_BOUNDS[i] for i in inward])
    for at in (inward, [x.size - 1 - i for i in inward]):
        ref = reference_density(_cauchy(seed, mu.ac), n, x[at])
        assert np.all(ref > 0.0)
        assert np.all(np.abs(p[at] - ref) <= bounds * ref)
