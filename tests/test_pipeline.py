"""Unit tests for the two density routes and their consistency checks."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from freeclt import (
    Atom,
    ConsistencyError,
    FixedPointError,
    FlowKernel,
    InvalidArgumentError,
    atoms_of_power,
    cauchy,
    cauchy_derivative,
    clt_cauchy,
    clt_density_flow,
    clt_density_subordination,
    companion_measure,
    cross_check,
    default_grid,
    dilate,
    flow_map,
    make_measure,
    range_containment_check,
    subordination_omega,
    support_check,
    tail_bound_check,
)
from freeclt import pipeline
from freeclt.measures import _chebyshev_rule
from freeclt.pipeline import (
    TOL_FIXED_POINT,
    _INVERSION_GRID,
    _NEWTON_MAX,
    _ROOT_STRIDE,
    _boundary_density,
    _compare_densities,
    _cubic_starts,
    _fold_h,
    _omega_roots,
    _omega_secular,
    _support_intervals,
)

from conftest import (
    ARCSINE_SPEC,
    ASYM_SPEC,
    BERNOULLI_SPEC,
    BUMP3_SPEC,
    FOUR_GAP_SPEC,
    INNER_OUTER_ATOM_SPEC,
    MIXTURE_SPEC,
    OUTER_ATOM_SPEC,
    SEMICIRCLE_SPEC,
    SQRT2,
    THREE_GAP_SPEC,
    UNIFORM_SPEC,
    arcsine_density,
    asym_power_density,
    atomic_power_density,
    kesten_density,
    three_atom_spec,
)


class TestAtomsOfPower:
    def test_two_atom_seed_loses_atoms_at_power_two(self, bernoulli):
        assert atoms_of_power(bernoulli, 2) == ()

    def test_asymmetric_atom_survives_one_power(self, asym):
        atoms = atoms_of_power(asym, 2)
        assert len(atoms) == 1
        assert atoms[0].x == pytest.approx(1.0, abs=1e-12)
        assert atoms[0].w == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert atoms_of_power(asym, 4) == ()

    def test_power_one_is_identity(self, asym):
        assert atoms_of_power(asym, 1) == asym.atoms


class TestFlowRoute:
    def test_arcsine_power(self, bernoulli):
        dens = clt_density_flow(bernoulli, 2)
        x = np.linspace(-(SQRT2 - 0.05), SQRT2 - 0.05, 801)
        assert np.max(np.abs(dens.density(x) - arcsine_density(x))) < 1e-9
        lo, hi = dens.support()
        assert lo == pytest.approx(-SQRT2, abs=1e-9)
        assert hi == pytest.approx(SQRT2, abs=1e-9)
        assert dens.tables[0].edge_orders == (-0.5, -0.5)

    def test_kesten_power(self, bernoulli):
        dens = clt_density_flow(bernoulli, 3)
        t = 2.0 / 3.0
        x = np.linspace(-(2 * math.sqrt(t) - 0.02), 2 * math.sqrt(t) - 0.02,
                        801)
        assert np.max(np.abs(dens.density(x) - kesten_density(x, 3))) < 1e-9

    def test_asymmetric_power_with_atom(self, asym):
        dens = clt_density_flow(asym, 2)
        assert dens.atoms == (Atom(1.0, pytest.approx(1.0 / 3.0,
                                                      abs=1e-12)),)
        lo, hi = dens.tables[0].support
        x = np.linspace(lo + 0.02, hi - 0.02, 801)
        assert np.max(np.abs(dens.density(x)
                             - asym_power_density(x, 2))) < 1e-8

    def test_power_one_returns_seed(self, bernoulli):
        dens = clt_density_flow(bernoulli, 1)
        assert dens.n == 1
        assert dens.atoms == bernoulli.atoms
        assert dens.tables == ()

    def test_rejects_bad_inputs(self, bernoulli):
        with pytest.raises(InvalidArgumentError):
            clt_density_flow(bernoulli, 0)
        shifted = make_measure(
            {"atoms": [{"x": 0.0, "w": 0.5}, {"x": 2.0, "w": 0.5}]})
        with pytest.raises(InvalidArgumentError):
            clt_density_flow(shifted, 4)


class TestSubordinationRoute:
    def test_singular_edge_power(self, bernoulli):
        dens = clt_density_subordination(bernoulli, 2)
        x = np.linspace(-(SQRT2 - 0.05), SQRT2 - 0.05, 401)
        assert np.max(np.abs(dens.density(x) - arcsine_density(x))) < 1e-8
        lo, hi = dens.support()
        assert lo == pytest.approx(-SQRT2, abs=1e-11)
        assert hi == pytest.approx(SQRT2, abs=1e-11)

    def test_kesten_power(self, bernoulli):
        dens = clt_density_subordination(bernoulli, 4)
        t = 3.0 / 4.0
        x = np.linspace(-(2 * math.sqrt(t) - 0.02), 2 * math.sqrt(t) - 0.02,
                        401)
        assert np.max(np.abs(dens.density(x) - kesten_density(x, 4))) < 1e-8

    def test_golden_ratio_fixed_point(self, bernoulli):
        # for the two-atom seed at power 2 the subordination map solves
        # w^2 - Zw + 1 = 0, so at Z = i it equals i (1 + sqrt 5)/2
        res = subordination_omega(bernoulli, 2, 1j)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert res.omega == pytest.approx(golden * 1j, abs=1e-13)
        assert res.residual <= 1e-12

    def test_rejects_boundary_argument(self, bernoulli):
        with pytest.raises(InvalidArgumentError):
            subordination_omega(bernoulli, 4, 1.0 + 0.0j)

    def test_cauchy_boundary_matches_density(self, bernoulli):
        dens = clt_density_subordination(bernoulli, 4)
        x = np.linspace(-1.5, 1.5, 41)
        g = np.array([clt_cauchy(bernoulli, 4, complex(xx, 1e-8))
                      for xx in x])
        assert np.max(np.abs(-g.imag / np.pi - dens.density(x))) < 1e-5

    def test_cauchy_decay(self, bernoulli):
        z = 1j * 200.0
        assert abs(clt_cauchy(bernoulli, 8, z) * z - 1.0) < 1e-3


class TestConsistencyChecks:
    def test_cross_check_routes_agree(self, bernoulli):
        rep = cross_check(bernoulli, 4)
        assert rep["n"] == 4
        assert rep["sup_diff"] < 5e-4
        assert rep["mass_diff"] < 1e-8
        assert rep["mean_gap"] < 1e-8
        assert rep["variance_gap"] < 1e-7

    @pytest.mark.parametrize("seed,n", [("bernoulli", 2), ("asym", 3)])
    def test_cross_check_at_singular_edges(self, request, seed, n):
        # both powers have -1/2 edges, so the sup skips their neighbourhoods
        rep = cross_check(request.getfixturevalue(seed), n)
        assert rep["sup_diff"] < 1e-9

    def test_tail_bound_holds(self, bernoulli):
        # at n = 5 the (n+1)-st power's support radius 2 sqrt(5/6) ~ 1.826
        # stays inside the near-edge zone |x| > 1.9: a vacuous pass
        rep5 = tail_bound_check(bernoulli, 5, eps=0.05)
        assert rep5["ok"] is True
        assert rep5["points_checked"] == 0
        # at n = 10 the support reaches the zone and the bound is active
        rep10 = tail_bound_check(bernoulli, 10, eps=0.05)
        assert rep10["ok"] is True
        assert rep10["points_checked"] > 0
        assert rep10["max_ratio"] <= 1.0
        # the check reads the curve of the power itself
        curve = clt_density_flow(bernoulli, 11).curve
        assert rep10["points_checked"] == np.count_nonzero(
            np.abs(curve.psi) > 1.9)

    def test_tail_bound_argument_domain(self, bernoulli):
        with pytest.raises(InvalidArgumentError):
            tail_bound_check(bernoulli, 2, eps=0.05)
        with pytest.raises(InvalidArgumentError):
            tail_bound_check(bernoulli, 5, eps=0.2)

    def test_support_containment(self, bernoulli):
        dens = clt_density_flow(bernoulli, 4)
        rep = support_check(dens, bernoulli)
        assert rep["ok"] is True
        assert rep["bound"] == pytest.approx(2.5)
        assert rep["outside_mass"] < 1e-6

    def test_range_containment(self, bernoulli):
        rep = range_containment_check(bernoulli, 4, eta=0.1)
        assert rep["ok"] is True
        assert rep["max_abs_psi"] <= rep["bound"] <= 1.9

    @pytest.mark.parametrize("spec", [
        BERNOULLI_SPEC, ASYM_SPEC, THREE_GAP_SPEC, FOUR_GAP_SPEC,
        UNIFORM_SPEC, ARCSINE_SPEC, SEMICIRCLE_SPEC, MIXTURE_SPEC,
        BUMP3_SPEC], ids=["fair", "asym", "three_gap", "four_gap", "uniform",
                          "arcsine", "semicircle", "mixture", "bump3"])
    def test_range_containment_at_the_ends(self, spec):
        # psi is non-decreasing, so the check's two ends reach the largest
        # |psi| of 801 samples of [-1 + eta, 1 - eta]
        mu = make_measure(spec)
        nu = companion_measure(mu)
        for n in (2, 4, 16, 64):
            kernel = FlowKernel(dilate(nu, 1.0 / math.sqrt(n)), (n - 1) / n)
            for eta in (0.1, 0.3):
                u = np.linspace(-1.0 + eta, 1.0 - eta, 801)
                sampled = np.max(np.abs(flow_map(kernel, u)[1]))
                rep = range_containment_check(mu, n, eta)
                assert rep["max_abs_psi"] == pytest.approx(sampled,
                                                           rel=1e-15)

    def test_range_containment_argument_domain(self, bernoulli):
        with pytest.raises(InvalidArgumentError):
            range_containment_check(bernoulli, 4, eta=0.0)
        with pytest.raises(InvalidArgumentError):
            range_containment_check(bernoulli, 4, eta=1.0)


class TestEmittedDensities:
    def test_default_grid_covers_limit_support(self):
        grid = default_grid()
        assert grid[0] <= -2.0 and grid[-1] >= 2.0
        assert np.all(np.diff(grid) > 0.0)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_flow_moments(self, bernoulli, n):
        dens = clt_density_flow(bernoulli, n)
        assert dens.mass == pytest.approx(1.0, abs=1e-8)
        assert dens.mean == pytest.approx(0.0, abs=1e-8)
        assert dens.variance == pytest.approx(1.0, abs=1e-7)

    def test_subordination_moments(self, asym):
        dens = clt_density_subordination(asym, 4)
        assert dens.mass == pytest.approx(1.0, abs=1e-8)
        assert dens.mean == pytest.approx(0.0, abs=1e-8)
        assert dens.variance == pytest.approx(1.0, abs=1e-7)

    def test_density_vanishes_outside_support(self, bernoulli):
        dens = clt_density_flow(bernoulli, 4)
        assert np.all(dens.density(np.array([-3.0, 2.4, 5.0])) == 0.0)


# four atoms whose outer pair is light and far: three intervals at n = 16
WIDE_FOUR_SPEC = {"atoms": [{"x": -6.0, "w": 0.02}, {"x": -0.1, "w": 0.48},
                            {"x": 0.1, "w": 0.48}, {"x": 6.0, "w": 0.02}],
                  "standardize": True}
# twenty equal atoms, equally spaced: a 20 x 20 eigenproblem per point
TWENTY_ATOM_SPEC = {"atoms": [{"x": float(i), "w": 0.05} for i in range(20)],
                    "standardize": True}
ORACLE_CASES = ([(three_atom_spec(s), n, f"rng{s}-{n}")
                 for s in range(1, 13) for n in (2, 3, 4, 16)]
                + [(ASYM_SPEC, n, f"asym-{n}") for n in (2, 3, 4, 16)])

EDGE_SEEDS = [THREE_GAP_SPEC, FOUR_GAP_SPEC] + [three_atom_spec(s)
                                               for s in range(1, 13)]


def _interior(grid, a, b, margin=1e-3):
    return (grid > a + margin) & (grid < b - margin)


class TestAtomicBoundaryValues:
    """For a seed with no ac part the subordination route takes omega(Z + i0)
    from one k x k eigenproblem per point; both routes are judged against a
    per-point np.roots oracle of the same equation, cleared to a polynomial."""

    @pytest.mark.parametrize("spec,n", [c[:2] for c in ORACLE_CASES],
                             ids=[c[2] for c in ORACLE_CASES])
    def test_flow_route_matches_roots_oracle(self, spec, n):
        for tab in clt_density_flow(make_measure(spec), n).tables:
            sel = _interior(tab.grid, *tab.support)
            exact = atomic_power_density(spec, n, tab.grid[sel])
            assert np.max(np.abs(tab.values[sel] - exact)) <= 1e-11

    @pytest.mark.parametrize("spec,n", [c[:2] for c in ORACLE_CASES],
                             ids=[c[2] for c in ORACLE_CASES])
    def test_subordination_nodes_match_roots_oracle(self, spec, n):
        # the route's own grid and values, taken before its mass gate, so
        # rng 12 at n = 2 (mass off by 8e-5, a grid too coarse for a sharp
        # interior minimum) is checked too
        mu = make_measure(spec)
        intervals = _support_intervals(mu, n)
        for a, b in intervals:
            x, _ = _chebyshev_rule(a, b, 801)
            x = x[_interior(x, a, b)]
            p, _, res = _boundary_density(mu, n, x)
            assert np.max(np.abs(p - atomic_power_density(spec, n, x))) <= 1e-11
            assert res < 1e-12

    @pytest.mark.parametrize("n", [2, 16])
    def test_twenty_atoms_agree_with_the_flow_route(self, n):
        mu = make_measure(TWENTY_ATOM_SPEC)
        for tab in clt_density_flow(mu, n).tables:
            sel = _interior(tab.grid, *tab.support)
            p, _, _ = _boundary_density(mu, n, tab.grid[sel])
            assert np.max(np.abs(p - tab.values[sel])) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 16])
    @pytest.mark.parametrize("spec", EDGE_SEEDS,
                             ids=["three-gap", "four-gap"]
                             + [f"rng{s}" for s in range(1, 13)])
    def test_root_leaves_the_axis_at_each_edge(self, spec, n):
        # offset min(1e-4, a quarter of the adjacent gap) to each side
        mu = make_measure(spec)
        intervals = _support_intervals(mu, n)
        rt = math.sqrt(n)
        for i, (a, b) in enumerate(intervals):
            gap_left = a - intervals[i - 1][1] if i > 0 else math.inf
            gap_right = (intervals[i + 1][0] - b if i + 1 < len(intervals)
                         else math.inf)
            for edge, gap, outward in ((a, gap_left, -1.0),
                                       (b, gap_right, 1.0)):
                d = min(1e-4, gap / 4.0)
                omega = _omega_roots(
                    mu, n, rt * np.array([edge - outward * d,
                                          edge + outward * d]))
                assert omega[0].imag > 1e-6, edge
                assert omega[1].imag <= 1e-8, edge


class TestEdgeSnap:
    """Every support edge of the subordination route is a fold-map critical
    value, taken as it is."""

    @pytest.mark.parametrize("n", [4, 16])
    def test_fair_coin_edges_need_no_bisection(self, bernoulli, n):
        (a, b), = clt_density_subordination(bernoulli, n).intervals()
        edge = 2.0 * math.sqrt((n - 1) / n)
        assert abs(a + edge) < 1e-14
        assert abs(b - edge) < 1e-14

    def test_three_atom_edges_are_fold_edges(self):
        # three_atom_spec(5): at n = 16 its left fold edge -2.25469 lies
        # 0.011 from the atom image -2.26580; the edge is the fold edge
        mu = make_measure({"atoms": [
            {"x": -2.0870975210149507, "w": 0.14320100721856932},
            {"x": -0.5664510557772742, "w": 0.2354358874615645},
            {"x": 0.6956276780718659, "w": 0.6213631053198662}]})
        (a, b), = clt_density_subordination(mu, 16).intervals()
        assert a == pytest.approx(-2.254685811031692, abs=1e-13)
        assert b == pytest.approx(1.692353428015041, abs=1e-13)


class TestSeveralIntervals:
    """Supports of several intervals: one subordination table per interval,
    matching the flow route."""

    @pytest.mark.parametrize("spec,n", [
        (THREE_GAP_SPEC, 2), (THREE_GAP_SPEC, 4),
        (FOUR_GAP_SPEC, 2), (FOUR_GAP_SPEC, 4),
        (three_atom_spec(11), 2),
        # nodes close to an inner edge (four-3) or to a seed atom
        (FOUR_GAP_SPEC, 3), (THREE_GAP_SPEC, 16), (WIDE_FOUR_SPEC, 16)],
        ids=["three-2", "three-4", "four-2", "four-4", "rng11-2",
             "four-3", "three-16", "wide-four-16"])
    def test_routes_agree(self, spec, n):
        mu = make_measure(spec)
        flow = clt_density_flow(mu, n)
        sub = clt_density_subordination(mu, n)
        assert len(sub.intervals()) == len(flow.intervals())
        assert np.max(np.abs(np.array(sub.intervals())
                             - np.array(flow.intervals()))) < 1e-12
        assert _compare_densities(flow, sub)["sup_diff"] < 5e-4
        assert abs(sub.mass - 1.0) < 1e-8
        assert abs(sub.mean) < 1e-8
        assert abs(sub.variance - 1.0) < 1e-7
        assert sub.iterations == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 16])
    @pytest.mark.parametrize("seed", range(1, 13))
    def test_intervals_match_flow_route(self, seed, n):
        mu = make_measure(three_atom_spec(seed))
        intervals = _support_intervals(mu, n)
        expected = clt_density_flow(mu, n).intervals()
        assert len(intervals) == len(expected)
        assert np.max(np.abs(np.array(intervals) - np.array(expected))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 16])
    def test_atom_inside_the_table_adds_no_candidates(self, mixture, n):
        # the seed's atom at 0 lies inside its table, so it merges into the
        # table's component and adds no edge: one interval, as on the flow
        # route
        intervals = _support_intervals(mixture, n)
        expected = clt_density_flow(mixture, n).intervals()
        assert len(intervals) == len(expected) == 1
        assert np.max(np.abs(np.array(intervals) - np.array(expected))) < 1e-7

    def test_one_table_across_a_gap_fails_the_mass_gate(self, monkeypatch):
        # without the inner edges +-1.188 the intervals on either side of
        # the surviving centre atom merge, and one table spans the gap
        # between them
        real = pipeline._support_intervals

        def without_inner_edges(mu, n):
            (a, b), (c, d) = real(mu, n)
            assert -2.0 < b < -0.5 and 0.5 < c < 2.0
            return [(a, d)]

        monkeypatch.setattr(pipeline, "_support_intervals",
                            without_inner_edges)
        mu = make_measure(THREE_GAP_SPEC)
        with pytest.raises(ConsistencyError, match="n=2"):
            clt_density_subordination(mu, 2)


ROUTE_TWO_SEEDS = {
    "coin": BERNOULLI_SPEC, "asym": ASYM_SPEC, "three-gap": THREE_GAP_SPEC,
    "four-gap": FOUR_GAP_SPEC, "uniform": UNIFORM_SPEC,
    "arcsine": ARCSINE_SPEC, "semicircle": SEMICIRCLE_SPEC,
    "mixture": MIXTURE_SPEC, "outer-atom": OUTER_ATOM_SPEC,
    "inner-outer-atom": INNER_OUTER_ATOM_SPEC,
}
# INNER_OUTER_ATOM_SPEC at n = 2 fails the mass gate on this route
ROUTE_TWO_CASES = [(seed, n) for seed in ROUTE_TWO_SEEDS
                   for n in (2, 3, 4, 16, 64)
                   if (seed, n) != ("inner-outer-atom", 2)]

TABLE_SEEDS = ("mixture", "outer-atom", "inner-outer-atom")
SCAN_CASES = [(seed, n) for seed in list(ROUTE_TWO_SEEDS)
              + [f"rng{s}" for s in range(1, 13)]
              for n in (2, 3, 4, 16, 64)
              if seed not in TABLE_SEEDS or n in (3, 64)]


@functools.lru_cache(maxsize=None)
def route_two_seed(name):
    if name.startswith("rng"):
        return make_measure(three_atom_spec(int(name[3:])))
    return make_measure(ROUTE_TWO_SEEDS[name])


def complex_fold_h(mu, n, w):
    """h = n G^2 + (n-1) G' of the fold map, the real part of the complex
    sums at w + 1e-30j."""
    z = np.asarray(w, dtype=float) + 1e-30j
    g = cauchy(mu, z)
    return np.real(n * g * g + (n - 1) * cauchy_derivative(mu, z))


def scalar_support_intervals(mu, n):
    """The fold scan with the complex h, one scalar brentq per fold bracket
    and one scalar image per branch end, one segment after another."""
    def image(w):
        z = np.array([w + 1e-30j])
        return float(np.real(n * z - (n - 1) / cauchy(mu, z))[0])

    def fold(lo, hi):
        return image(brentq(lambda w: float(complex_fold_h(mu, n, [w])[0]),
                            lo, hi, xtol=1e-15, rtol=8.9e-16))

    comps = mu.support_components()
    hull_lo, hull_hi = comps[0][0], comps[-1][1]
    reach = 4.0 + math.sqrt(n)
    segments = [(hull_lo - reach, hull_lo, -math.inf, None)]
    for (_, c_hi), (c_lo, _) in zip(comps, comps[1:]):
        if c_lo - c_hi > 1e-10:
            segments.append((c_hi, c_lo, None, None))
    segments.append((hull_hi, hull_hi + reach, None, math.inf))

    branches = []
    for lo, hi, lo_image, hi_image in segments:
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        grid = np.linspace(lo + pad, hi - pad, 1501)
        up = np.concatenate(([False], complex_fold_h(mu, n, grid) > 0.0,
                             [False]))
        steps = np.diff(up.astype(np.int8))
        for i, j in zip(np.flatnonzero(steps == 1),
                        np.flatnonzero(steps == -1)):
            start = fold(grid[i - 1], grid[i]) if i > 0 else (
                image(lo) if lo_image is None else lo_image)
            end = fold(grid[j - 1], grid[j]) if j < grid.size else (
                image(hi) if hi_image is None else hi_image)
            branches.append((start, end))
    branches.sort()
    rt = math.sqrt(n)
    return [(e / rt, s / rt) for (_, e), (s, _) in zip(branches, branches[1:])
            if s > e]


class TestRouteTwoCosts:
    """The subordination route's moments come from its own node values, and
    its fold scan solves every fold in one lockstep solve with h in real
    arithmetic; both give what the slower forms give."""

    @pytest.mark.parametrize("seed,n", ROUTE_TWO_CASES,
                             ids=[f"{s}-{n}" for s, n in ROUTE_TWO_CASES])
    def test_moments_are_exact_to_rounding(self, seed, n):
        # the midpoint rule in theta on the 801 node values; the spline
        # table's moments were off by up to 6.6e-10 (asym, n = 4)
        dens = clt_density_subordination(route_two_seed(seed), n)
        assert abs(dens.mass - 1.0) <= 1e-13
        assert abs(dens.mean) <= 1e-13
        assert abs(dens.variance - 1.0) <= 1e-13

    # a table seed's scan sums 4096 nodes per point: two powers each
    @pytest.mark.parametrize("seed,n", SCAN_CASES,
                             ids=[f"{s}-{n}" for s, n in SCAN_CASES])
    def test_support_intervals_are_the_scalar_scan(self, seed, n):
        mu = route_two_seed(seed)
        assert _support_intervals(mu, n) == scalar_support_intervals(mu, n)

    @pytest.mark.parametrize("seed,n,points", [("asym", 3, 200_001),
                                               ("mixture", 4, 4_001)])
    def test_real_fold_h_is_the_complex_form(self, seed, n, points):
        # every point of a fine grid over the scan's reach, off the support
        mu = route_two_seed(seed)
        comps = mu.support_components()
        reach = 4.0 + math.sqrt(n)
        w = np.linspace(comps[0][0] - reach, comps[-1][1] + reach, points)
        for a, b in comps:
            w = w[(w < a - 1e-9) | (w > b + 1e-9)]
        assert w.size > points // 2
        assert np.array_equal(_fold_h(mu, n, w), complex_fold_h(mu, n, w))


def normal_atoms_spec(k):
    """k standard-normal draws from default_rng(3), equal weights,
    standardized: an empirical spectrum of k atoms."""
    x = np.random.default_rng(3).standard_normal(k)
    return {"atoms": [{"x": float(v), "w": 1.0 / k} for v in x],
            "standardize": True}


SECULAR_SEEDS = dict(
    {"coin": BERNOULLI_SPEC, "asym": ASYM_SPEC, "three-gap": THREE_GAP_SPEC,
     "four-gap": FOUR_GAP_SPEC, "wide-four": WIDE_FOUR_SPEC,
     "twenty": TWENTY_ATOM_SPEC, "normal50": normal_atoms_spec(50)},
    **{f"rng{s}": three_atom_spec(s)
       for s in list(range(1, 41)) + list(range(101, 111))})
# WIDE_FOUR_SPEC at n = 2 is judged against mpmath instead: at the ends of
# its middle interval the eigenvalue is 5.6e-11 of max p off the 40-digit
# root, and Newton's root 1.1e-13
SECULAR_CASES = [(seed, n) for seed in SECULAR_SEEDS for n in (2, 3, 4, 16, 64)
                 if (seed, n) != ("wide-four", 2)]
MPMATH_CASES = [(seed, n) for seed in ("coin", "rng26", "rng108")
                for n in (2, 64)] + [("wide-four", 2)]


@functools.lru_cache(maxsize=None)
def secular_seed(name):
    return make_measure(SECULAR_SEEDS[name])


def roots_density(mu, n, x):
    """The power's density at x from _omega_roots at every point."""
    rt = math.sqrt(n)
    z = rt * x
    omega = _omega_roots(mu, n, z)
    up = omega.imag > 0.0
    p = np.zeros(x.shape)
    p[up] = -rt * np.imag((n - 1) / (n * omega[up] - z[up])) / np.pi
    return p


def mpmath_density(mu, n, x, start):
    """The power's density at float x from a 40-digit root of the secular
    equation 1 + sum_i w_i (n x_i - Z) / (omega - x_i) = 0 in the upper
    half-plane, at the same float Z = sqrt(n) x, from mpmath.findroot
    started at start."""
    with mpmath.workdps(40):
        z = mpmath.mpf(math.sqrt(n) * x)
        atoms = [(mpmath.mpf(a.x), mpmath.mpf(a.w)) for a in mu.atoms]
        omega = mpmath.findroot(
            lambda w: 1 + sum(b * (n * a - z) / (w - a) for a, b in atoms),
            mpmath.mpc(start))
        assert omega.imag > 0
        return float(-mpmath.sqrt(n) * mpmath.im((n - 1) / (n * omega - z))
                     / mpmath.pi)


class TestSecularSolve:
    """On a seed with no ac part, route 2 solves an eigenproblem at one root
    in _ROOT_STRIDE and a certified lockstep Newton on the secular equation
    at every root (_omega_secular); _omega_roots at every point is its
    oracle, and takes every point that Newton does not certify."""

    def test_coarse_stage_is_the_89_point_rule(self):
        x, _ = _chebyshev_rule(-1.5, 2.0, _INVERSION_GRID)
        coarse, _ = _chebyshev_rule(-1.5, 2.0, _INVERSION_GRID // _ROOT_STRIDE)
        assert np.max(np.abs(x[_ROOT_STRIDE // 2::_ROOT_STRIDE] - coarse)) \
            <= 1e-15

    def test_cubic_starts_reproduce_cubics(self):
        cols, weights = _cubic_starts(_INVERSION_GRID)
        i = np.arange(_INVERSION_GRID, dtype=float)
        node = i[_ROOT_STRIDE // 2::_ROOT_STRIDE]
        for cubic in (np.ones_like, lambda t: (t / 400.0 - 1.0) ** 3):
            start = np.sum(weights * cubic(node)[cols], axis=1)
            assert np.max(np.abs(start - cubic(i))) <= 1e-12
        assert np.array_equal(weights[_ROOT_STRIDE // 2::_ROOT_STRIDE]
                              .max(axis=1), np.ones(node.size))

    @pytest.mark.parametrize("seed,n", SECULAR_CASES,
                             ids=[f"{s}-{n}" for s, n in SECULAR_CASES])
    def test_densities_match_the_eigenproblem_at_every_root(self, seed, n):
        mu = secular_seed(seed)
        for a, b in _support_intervals(mu, n):
            x, _ = _chebyshev_rule(a, b, _INVERSION_GRID)
            p, iters, res = _boundary_density(mu, n, x)
            exact = roots_density(mu, n, x)
            assert np.max(np.abs(p - exact)) <= 2e-11 * np.max(exact)
            assert iters == 0 and res < 1e-11

    @pytest.mark.parametrize("seed,n", MPMATH_CASES,
                             ids=[f"{s}-{n}" for s, n in MPMATH_CASES])
    def test_edge_roots_match_a_40_digit_root(self, seed, n):
        # three_atom_spec(108) at n = 2: at the first root the eigenvalue is
        # 1.35e-11 of max p off the 40-digit value, the Newton root 9.8e-15
        mu = secular_seed(seed)
        for a, b in _support_intervals(mu, n):
            x, _ = _chebyshev_rule(a, b, _INVERSION_GRID)
            p, _, _ = _boundary_density(mu, n, x)
            omega = _omega_roots(mu, n, math.sqrt(n) * x)
            for i in list(range(5)) + list(range(x.size - 5, x.size)):
                ref = mpmath_density(mu, n, float(x[i]), complex(omega[i]))
                assert abs(p[i] - ref) <= 1e-12 * np.max(p), (a, b, i)

    @pytest.mark.parametrize("seed,n", [("coin", 4), ("asym", 16),
                                        ("rng108", 2), ("three-gap", 2)])
    def test_points_off_the_support_take_the_eigenproblem(self, seed, n):
        # the last interval's roots stretched 5 % past its right edge: there
        # omega is real, so Newton certifies none of them
        mu = secular_seed(seed)
        a, b = _support_intervals(mu, n)[-1]
        x, _ = _chebyshev_rule(a, b + 0.05 * (b - a), _INVERSION_GRID)
        z = math.sqrt(n) * x
        omega = _omega_secular(mu, n, z)
        exact = _omega_roots(mu, n, z)
        out = x > b + 1e-6 * (b - a)
        assert np.count_nonzero(out) > 10
        assert np.array_equal(omega[out], exact[out])
        assert np.all(exact[out].imag == 0.0)
        p, _, _ = _boundary_density(mu, n, x)
        assert np.all(p[out] == 0.0)
        inside = x < b
        assert np.max(np.abs(p[inside] - roots_density(mu, n, x)[inside])) \
            <= 2e-11 * np.max(p)

    @pytest.mark.parametrize("size", [1, 4 * _ROOT_STRIDE - 1])
    def test_short_arrays_take_the_eigenproblem_at_every_point(self, size):
        mu = secular_seed("rng108")
        (a, b), = _support_intervals(mu, 4)
        x = _chebyshev_rule(a, b, size)[0]
        z = 2.0 * x
        omega = _omega_secular(mu, 4, z)
        exact = _omega_roots(mu, 4, z)
        assert np.array_equal(omega, exact)
        # the residual of the eigenvalues' fixed point, taken over the
        # points with Im omega > 0
        up = exact.imag > 0.0
        exact_res = np.max(np.abs(z[up] / 4 + 0.75 / cauchy(mu, exact[up])
                                  - exact[up]), initial=0.0)
        _, _, res = _boundary_density(mu, 4, x)
        assert up.any() and res == exact_res

    def test_two_hundred_atoms_pass_the_route_gates(self):
        # twenty eigenproblems of 200 x 200 per interval where there were
        # 801: the power takes about a second on one thread
        mu = make_measure(normal_atoms_spec(200))
        flow = clt_density_flow(mu, 16)
        sub = clt_density_subordination(mu, 16)
        assert abs(sub.mass - 1.0) <= 1e-13
        assert _compare_densities(flow, sub)["sup_diff"] < 5e-4


def _recording(monkeypatch, name, log):
    """Patch pipeline.<name> to append (args, result) to log per call."""
    fn = getattr(pipeline, name)

    def wrapper(*args):
        out = fn(*args)
        log.append((args, out))
        return out
    monkeypatch.setattr(pipeline, name, wrapper)


def _count_transforms(monkeypatch, calls):
    """Append (name, points) to calls for every cauchy and
    cauchy_derivative call that pipeline makes."""
    for name in ("cauchy", "cauchy_derivative"):
        def wrapper(mu, z, fn=getattr(pipeline, name), name=name):
            calls.append((name, np.array(z)))
            return fn(mu, z)
        monkeypatch.setattr(pipeline, name, wrapper)


class TestOmegaSolves:
    """Route 2 has one guarded Newton loop on omega = phi(Z, omega),
    _newton, which takes G_mu and G_mu' once per step at the open points
    only; its budgets raise FixedPointError with the count and the open
    residual."""

    def test_each_step_takes_g_and_g_prime_once_at_the_open_points(
            self, uniform, monkeypatch):
        # four starts at one real Z, the last already its root
        n, z0 = 4, 1.0
        root = np.array([z0 + 0.5j])
        pipeline._newton(uniform, n, np.array([z0]), root, np.arange(1),
                         _NEWTON_MAX)
        w = np.array([z0 + 0.2j, z0 + 0.5j, z0 + 1.0j, root[0]])
        calls = []
        _count_transforms(monkeypatch, calls)
        todo, taken, worst = pipeline._newton(
            uniform, n, np.full(w.size, z0), w, np.arange(w.size),
            _NEWTON_MAX)
        assert todo.size == 0 and worst == 0.0 and taken >= 3
        assert [name for name, _ in calls] == \
            ["cauchy", "cauchy_derivative"] * taken + ["cauchy"]
        for (_, wg), (_, wd), (_, nxt) in zip(calls[0::2], calls[1::2],
                                              calls[2::2]):
            h = z0 / n + 0.75 / cauchy(uniform, wg) - wg
            assert np.array_equal(wd, wg[np.abs(h) > TOL_FIXED_POINT])
            assert nxt.size == wd.size
        assert calls[0][1].size == 4 and calls[1][1].size == 3

    def test_atomic_boundary_values_take_g_once_for_their_residual(
            self, monkeypatch):
        mu, n = secular_seed("rng108"), 4
        (a, b), = _support_intervals(mu, n)
        x, _ = _chebyshev_rule(a, b, _INVERSION_GRID)
        omega = _omega_secular(mu, n, math.sqrt(n) * x)
        calls, roots = [], []
        _count_transforms(monkeypatch, calls)
        roots_fn = pipeline._omega_roots

        def counted_roots(*args):
            before = len(calls)
            out = roots_fn(*args)
            roots.append(len(calls) - before)
            return out
        monkeypatch.setattr(pipeline, "_omega_roots", counted_roots)
        _boundary_density(mu, n, x)
        assert [name for name, _ in calls] == ["cauchy"]
        assert np.array_equal(calls[0][1], omega[omega.imag > 0.0])
        assert roots and not any(roots)

    def test_an_exhausted_budget_raises_with_its_count(self, uniform,
                                                        monkeypatch):
        monkeypatch.setattr(pipeline, "_OMEGA_MAX_ITER", 3)
        with pytest.raises(FixedPointError) as err:
            subordination_omega(uniform, 4, 1.0 + 0.1j)
        assert err.value.iterations == 3
        assert err.value.residual > TOL_FIXED_POINT

    def test_a_stalled_axis_solve_raises_its_open_residual(self, uniform,
                                                            monkeypatch):
        n = 4
        (a, b), = _support_intervals(uniform, n)
        x, _ = _chebyshev_rule(a, b, _INVERSION_GRID)
        solves = []
        _recording(monkeypatch, "_newton", solves)
        monkeypatch.setattr(pipeline, "_NEWTON_MAX", 1)
        with pytest.raises(FixedPointError) as err:
            pipeline._omega_axis(uniform, n, math.sqrt(n) * x)
        (_, _, z, w, _, _), (todo, taken, worst) = solves[-1]
        h = z[todo] / n + 0.75 / cauchy(uniform, w[todo]) - w[todo]
        assert err.value.iterations == taken == 1
        assert f"stalled at {todo.size} points" in str(err.value)
        assert err.value.residual == worst == np.max(np.abs(h))
        assert worst > TOL_FIXED_POINT

    def test_many_hand_overs_reach_the_same_omega(self, uniform,
                                                   monkeypatch):
        # two Picard steps and one Newton step per round
        z = 1.0 + 0.1j
        ref = subordination_omega(uniform, 4, z)
        bursts = []
        _recording(monkeypatch, "_newton", bursts)
        monkeypatch.setattr(pipeline, "_PICARD_MAX", 2)
        monkeypatch.setattr(pipeline, "_NEWTON_MAX", 1)
        res = subordination_omega(uniform, 4, z)
        assert sum(args[4].size > 0 for args, _ in bursts) >= 3
        assert abs(res.omega - ref.omega) <= 1e-12
        assert res.residual <= TOL_FIXED_POINT
