"""Unit tests for the flow parametrization of semicircle convolution."""

import math
from functools import partial

import numpy as np
import pytest
from scipy.fft import dct
from scipy.optimize import brentq, minimize_scalar

from freeclt import (
    ConsistencyError,
    FlowKernel,
    InvalidArgumentError,
    clt_density_flow,
    companion_measure,
    dilate,
    flow_curve,
    flow_map,
    flow_psi,
    flow_region,
    flow_v,
    make_measure,
    region_integral,
)
from freeclt import flow, pipeline
from freeclt.measures import _chebyshev_extrema

from conftest import (
    ARCSINE_SPEC,
    ASYM_SPEC,
    ATOM_BUMP_SPEC,
    BERNOULLI_SPEC,
    BUMP2_SPEC,
    BUMP3_SPEC,
    FOUR_GAP_SPEC,
    INNER_OUTER_ATOM_SPEC,
    MIXTURE_SPEC,
    OUTER_ATOM_SPEC,
    SEMICIRCLE_SPEC,
    THREE_GAP_SPEC,
    UNIFORM_SPEC,
    semicircle_density,
    three_atom_spec,
)


@pytest.fixture(scope="module")
def delta0():
    return make_measure({"atoms": [{"x": 0.0, "w": 1.0}]})


@pytest.fixture(scope="module")
def two_atoms():
    return make_measure(
        {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]})


class TestPointMassClosedForm:
    """With a point mass at 0 all flow quantities are elementary:
    v(u) = sqrt(t - u^2), psi(u) = 2u, and the convolution is the
    semicircle law of variance t."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_height_and_image(self, delta0, t):
        kernel = FlowKernel(delta0, t)
        u = np.linspace(-0.99, 0.99, 401) * math.sqrt(t)
        v, psi = flow_map(kernel, u)
        assert np.max(np.abs(v - np.sqrt(t - u * u))) < 1e-13
        assert np.max(np.abs(psi - 2.0 * u)) < 1e-13

    def test_region_is_centered_disk_diameter(self, delta0):
        (g, h), = flow_region(FlowKernel(delta0, 1.0))
        assert g == pytest.approx(-1.0, abs=1e-12)
        assert h == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_density_is_semicircle(self, delta0, t):
        curve = flow_curve(FlowKernel(delta0, t))
        # the ends map to the edges +-2 sqrt(t), where v = 0 exactly and the
        # closed form is the root of rounding noise
        edge = 2.0 * math.sqrt(t)
        assert np.all(curve.v[[0, -1]] == 0.0)
        assert np.max(np.abs(curve.psi[[0, -1]] - [-edge, edge])) < 1e-15
        p = curve.v[1:-1] / (math.pi * t)
        assert np.max(np.abs(p - semicircle_density(curve.psi[1:-1],
                                                    variance=t))) < 1e-10

    def test_cauchy_is_semicircle_branch(self, delta0):
        # the boundary value J - i v/t at x = psi(u)
        curve = flow_curve(FlowKernel(delta0, 1.0))
        x = curve.psi
        inner = np.abs(x) <= 1.9
        g = (curve.j_values() - 1j * curve.v / curve.t)[inner]
        expect = (x[inner] - 1j * np.sqrt(4.0 - x[inner] ** 2)) / 2.0
        assert np.count_nonzero(inner) > 1000
        assert np.max(np.abs(g - expect)) < 1e-12


class TestHeightFunction:
    def test_threshold_identity_inside_region(self, two_atoms):
        kernel = FlowKernel(two_atoms, 0.7)
        for g, h in flow_region(kernel):
            u = np.linspace(g, h, 101)[1:-1]
            v = flow_v(kernel, u)
            assert np.all(v > 0.0)
            residual = kernel.integral_I(u, v) - 1.0 / 0.7
            assert np.max(np.abs(residual)) < 1e-10

    def test_zero_outside_region(self, two_atoms):
        kernel = FlowKernel(two_atoms, 0.2)
        regions = flow_region(kernel)
        hull = (regions[0][0], regions[-1][1])
        u = np.array([hull[0] - 0.5, hull[1] + 0.5])
        assert np.all(flow_v(kernel, u) == 0.0)

    def test_height_bounded_by_sqrt_t(self, two_atoms):
        for t in (0.3, 1.0, 4.0):
            kernel = FlowKernel(two_atoms, t)
            u = np.linspace(-3.0, 3.0, 301)
            assert np.max(flow_v(kernel, u)) <= math.sqrt(t) * (1 + 1e-12)

    def test_rejects_nonpositive_time(self, two_atoms):
        with pytest.raises(InvalidArgumentError):
            FlowKernel(two_atoms, 0.0)
        with pytest.raises(InvalidArgumentError):
            FlowKernel(two_atoms, -1.0)


class TestHeightNewtonSolve:
    """The monotone Newton solve in s = v^2, checked where I(u, 0) = +inf,
    on an ac kernel, and off the regions."""

    @pytest.fixture(scope="class")
    def uniform_kernel(self, uniform):
        return FlowKernel(companion_measure(uniform), 0.75)

    @pytest.mark.parametrize("u", [-1.0, 1.0])
    def test_exactly_on_an_atom(self, two_atoms, u):
        # 0.5/(4 + s) + 0.5/s = 1/t  <=>  s^2 + (4 - t) s - 2t = 0
        t = 0.7
        b = 4.0 - t
        root = 0.5 * (-b + math.sqrt(b * b + 8.0 * t))
        v = flow_v(FlowKernel(two_atoms, t), np.array([u]))
        assert abs(v[0] ** 2 - root) < 1e-13

    def test_threshold_identity_on_ac_kernel(self, uniform_kernel):
        t = uniform_kernel.t
        for g, h in flow_region(uniform_kernel):
            u = np.linspace(g, h, 401)[1:-1]
            v = flow_v(uniform_kernel, u)
            assert np.all(v > 0.0)
            residual = uniform_kernel.integral_I(u, v) * t - 1.0
            assert np.max(np.abs(residual)) < 1e-12

    def test_zero_outside_regions_on_ac_kernel(self, uniform_kernel):
        regions = flow_region(uniform_kernel)
        lo, hi = regions[0][0], regions[-1][1]
        u = np.concatenate([np.linspace(lo - 2.0, lo, 50, endpoint=False),
                            np.linspace(hi, hi + 2.0, 51)[1:]])
        assert np.all(flow_v(uniform_kernel, u) == 0.0)

    def test_iteration_cap_raises(self, uniform_kernel, monkeypatch):
        monkeypatch.setattr(flow, "_V_NEWTON_MAX", 1)
        (g, h), = flow_region(uniform_kernel)
        with pytest.raises(ConsistencyError):
            flow_v(uniform_kernel, np.linspace(g, h, 11)[1:-1])


class TestHeightSolve:
    """flow._height_sums: v with the kernel sums J, M2 and M2x at the curve
    height, solved cold by blocks of flow._block_rows(kernel) points, in
    sorted order once u spans more than one block.  flow._newton_blocks
    also starts from a guess, as the flow curve's later stages and the
    moments of a region without a series do: a warm point whose guess is
    at the root to rounding stops after one pass over the nodes, with its
    sums carried to the root; the others climb as a cold solve does."""

    @pytest.fixture(scope="class")
    def kernels(self, delta0, two_atoms, uniform):
        # the outer-atom seed's companion has an atom in a gap of its table
        outer = companion_measure(make_measure(OUTER_ATOM_SPEC))
        return {"point_mass": FlowKernel(delta0, 1.0),
                "two_atoms": FlowKernel(two_atoms, 0.7),
                "uniform": FlowKernel(companion_measure(uniform), 0.75),
                "outer_atom": FlowKernel(outer, 0.75)}

    @staticmethod
    def _probe(kernel, count):
        regions = flow_region(kernel)
        return np.linspace(regions[0][0] - 0.5, regions[-1][1] + 0.5, count)

    @staticmethod
    def _rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @staticmethod
    def _assert_matches_cold(s, cold):
        big = cold > 1e-8 * np.max(cold)
        assert np.max(np.abs(s[big] - cold[big]) / cold[big]) < 1e-12
        assert np.all(s[cold == 0.0] == 0.0)

    @pytest.mark.parametrize("name", ["point_mass", "two_atoms", "uniform"])
    def test_sums_match_the_kernel(self, kernels, name):
        kernel = kernels[name]
        u = self._probe(kernel, 301)
        v, J, M2, M2x = flow._height_sums(kernel, u)
        pos = v > 0
        assert 0 < np.count_nonzero(pos) < u.size
        assert np.max(np.abs(kernel.t * kernel.integral_I(u[pos], v[pos])
                             - 1.0)) < 1e-13
        assert self._rel(J, kernel.integral_J(u, v)) < 1e-13
        want_M2, want_M2x = kernel.second_moments(u, v)
        assert self._rel(M2, want_M2) < 1e-13
        assert self._rel(M2x, want_M2x) < 1e-13
        assert self._rel(flow._psi_prime(kernel.t, v[pos], M2[pos], M2x[pos]),
                         flow._psi_prime(kernel.t, v[pos], *kernel
                                         .second_moments(u[pos], v[pos]))) \
            < 1e-13

    def test_point_mass_closed_form(self, kernels):
        # v^2 = t - u^2, J = u/t, M2 = 1/t^2, M2x = u/t^2 with t = 1
        u = np.linspace(-0.99, 0.99, 201)
        v, J, M2, M2x = flow._height_sums(kernels["point_mass"], u)
        assert np.max(np.abs(v - np.sqrt(1.0 - u * u))) < 1e-13
        assert np.max(np.abs(J - u)) < 1e-13
        assert np.max(np.abs(M2 - 1.0)) < 1e-13
        assert np.max(np.abs(M2x - u)) < 1e-13

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_sizes_around_one_block(self, kernels, extra):
        kernel = kernels["uniform"]
        (g, h), = flow_region(kernel)
        u = np.linspace(g, h, flow._block_rows(kernel) + extra + 2)[1:-1]
        v, J, M2, M2x = flow._height_sums(kernel, u)
        assert np.all(v > 0.0)
        assert np.max(np.abs(kernel.t * kernel.integral_I(u, v) - 1.0)) \
            < 1e-13
        assert self._rel(J, kernel.integral_J(u, v)) < 1e-13
        want_M2, want_M2x = kernel.second_moments(u, v)
        assert self._rel(M2, want_M2) < 1e-13
        assert self._rel(M2x, want_M2x) < 1e-13

    def test_unsorted_points(self, kernels):
        kernel = kernels["uniform"]
        u = self._probe(kernel, 101)
        perm = np.random.default_rng(7).permutation(u.size)
        in_order = flow._height_sums(kernel, u)
        shuffled = flow._height_sums(kernel, u[perm])
        for got, want in zip(shuffled, in_order):
            assert np.array_equal(got, want[perm])

    def test_shape_is_kept(self, kernels):
        kernel = kernels["uniform"]
        u = self._probe(kernel, 60).reshape(3, 20)
        for got, want in zip(flow._height_sums(kernel, u),
                             flow._height_sums(kernel, u.ravel())):
            assert got.shape == u.shape
            assert np.array_equal(got.ravel(), want)

    def test_zero_outside_every_region(self, kernels):
        for kernel in kernels.values():
            regions = flow_region(kernel)
            u = np.concatenate([np.linspace(regions[0][0] - 3.0,
                                            regions[0][0], 40, endpoint=False),
                                np.linspace(regions[-1][1], regions[-1][1]
                                            + 3.0, 41)[1:]])
            v, J, M2, M2x = flow._height_sums(kernel, u)
            assert np.all(v == 0.0)
            zero = np.zeros_like(u)
            assert self._rel(J, kernel.integral_J(u, zero)) < 1e-13
            assert self._rel(M2, kernel.second_moments(u, zero)[0]) < 1e-13

    def test_exactly_on_an_atom(self, kernels):
        # sorted blocks of an ac kernel meet I(u, 0) = +inf
        kernel = kernels["outer_atom"]
        (atom,) = kernel.nu.atoms
        g, h = next(r for r in flow_region(kernel) if r[0] < atom.x < r[1])
        u = np.sort(np.append(np.linspace(g, h, 50)[1:-1], atom.x))
        v, J, _, _ = flow._height_sums(kernel, u)
        assert u.size > flow._block_rows(kernel)
        assert np.all(v > 0.0) and np.all(np.isfinite(J))
        assert np.max(np.abs(kernel.t * kernel.integral_I(u, v) - 1.0)) \
            < 1e-13

    @pytest.mark.parametrize("name", ["uniform", "outer_atom"])
    def test_height_sums_is_the_cold_solve(self, kernels, name):
        # the probe is sorted, so _height_sums solves it as it stands
        kernel = kernels[name]
        u = self._probe(kernel, 1401)
        v, J, M2, M2x = flow._height_sums(kernel, u)
        s, cold_J, cold_M2, cold_M2x = flow._newton_blocks(kernel, u, None)
        assert np.array_equal(v, np.sqrt(s))
        assert np.array_equal(J, cold_J)
        assert np.array_equal(M2, cold_M2)
        assert np.array_equal(M2x, cold_M2x)

    @pytest.mark.parametrize("name", ["uniform", "outer_atom"])
    @pytest.mark.parametrize("factor", [0.0, 0.1, 10.0])
    def test_warm_from_any_guess(self, kernels, name, factor):
        kernel = kernels[name]
        u = self._probe(kernel, 1401)
        cold = flow._newton_blocks(kernel, u, None)[0]
        s = flow._newton_blocks(kernel, u, factor * cold)[0]
        self._assert_matches_cold(s, cold)

    @staticmethod
    def _inner_rows(kernel):
        # cold rows (s, J, M2, M2x) at points well inside every region
        u = np.concatenate([_chebyshev_extrema(g, h, 203)[1:-1]
                            for g, h in flow_region(kernel)])
        cold = flow._newton_blocks(kernel, u, None)
        keep = cold[0] > 1e-8 * np.max(cold[0])
        return u[keep], cold[:, keep]

    @staticmethod
    def _counted_newton_blocks(kernel, u, guess, monkeypatch):
        # the rows, and the count of np.reciprocal calls: one per pass of a
        # block over the nodes
        passes = [0]
        reciprocal = np.reciprocal

        def counted_reciprocal(*args, **kwargs):
            passes[0] += 1
            return reciprocal(*args, **kwargs)

        monkeypatch.setattr(flow.np, "reciprocal", counted_reciprocal)
        try:
            return flow._newton_blocks(kernel, u, guess), passes[0]
        finally:
            monkeypatch.setattr(flow.np, "reciprocal", reciprocal)

    @pytest.mark.parametrize("name", ["uniform", "outer_atom"])
    @pytest.mark.parametrize("offset", [-1e-10, 1e-10])
    def test_guess_at_the_root_takes_one_pass(self, kernels, name, offset,
                                              monkeypatch):
        # the step is ~1e-10 s, so every row exits after its first pass,
        # with its sums carried to the root
        kernel = kernels[name]
        u, cold = self._inner_rows(kernel)
        rows, passes = self._counted_newton_blocks(
            kernel, u, cold[0] * (1.0 + offset), monkeypatch)
        assert passes == -(-u.size // flow._block_rows(kernel))
        for got, want in zip(rows, cold):
            assert self._rel(got, want) < 1e-13

    @pytest.mark.parametrize("name", ["uniform", "outer_atom"])
    @pytest.mark.parametrize("offset", [-1e-4, 1e-4])
    def test_guess_off_the_root_climbs(self, kernels, name, offset,
                                       monkeypatch):
        kernel = kernels[name]
        u, cold = self._inner_rows(kernel)
        rows, passes = self._counted_newton_blocks(
            kernel, u, cold[0] * (1.0 + offset), monkeypatch)
        assert passes > -(-u.size // flow._block_rows(kernel))
        for got, want in zip(rows, cold):
            assert self._rel(got, want) < 1e-13

    @staticmethod
    def _spy_cold_rows(monkeypatch):
        # sizes of the cold _newton_blocks calls
        cold = []
        newton_blocks = flow._newton_blocks

        def spy(kernel, u, guess):
            if guess is None:
                cold.append(u.size)
            return newton_blocks(kernel, u, guess)

        monkeypatch.setattr(flow, "_newton_blocks", spy)
        return cold

    @staticmethod
    def _per_moment(monkeypatch, owner, name, count):
        # per region_integral call of the flow route, count(*args) of each
        # call of owner.name made inside it
        seen = []
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            seen.append(count(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        region_integral = pipeline.region_integral
        in_moments = []

        def spied_integral(kernel, region, integrand):
            before = len(seen)
            total = region_integral(kernel, region, integrand)
            in_moments.append(seen[before:])
            return total

        monkeypatch.setattr(pipeline, "region_integral", spied_integral)
        return in_moments

    @classmethod
    def _moment_calls(cls, monkeypatch):
        # whether each _newton_blocks call (every kernel pass of a height
        # solve) was cold
        return cls._per_moment(monkeypatch, flow, "_newton_blocks",
                               lambda kernel, u, guess: guess is None)

    def test_moments_take_no_kernel_pass(self, uniform, monkeypatch):
        in_moments = self._moment_calls(monkeypatch)
        dens = clt_density_flow(uniform, 4)
        assert dens.curve._series[0] is not None
        assert in_moments == [[]]

    def test_moments_without_series_solve_heights(self, monkeypatch):
        # BUMP3_SPEC at n = 2: the region ends on the companion's support,
        # M2 is not smooth there, and the series does not chop, so the
        # moments solve their heights, every one warm from the curve's s
        in_moments = self._moment_calls(monkeypatch)
        dens = clt_density_flow(make_measure(BUMP3_SPEC), 2)
        assert dens.curve._series == (None,)
        assert len(in_moments) == 1 and in_moments[0]
        assert not any(in_moments[0])
        assert abs(dens.mass - 1.0) <= pipeline._MASS_TOL

    def test_moments_without_series_take_at_most_1300_row_passes(
            self, monkeypatch):
        # structural guard: rows of every np.reciprocal call inside the
        # moments of BUMP3_SPEC at n = 2, one per node and Newton pass over
        # the kernel's nodes (640 nodes)
        in_moments = self._per_moment(
            monkeypatch, flow.np, "reciprocal",
            lambda x, *args: x.shape[0] if x.ndim == 2 else 1)
        dens = clt_density_flow(make_measure(BUMP3_SPEC), 2)
        assert dens.curve._series == (None,)
        assert len(in_moments) == 1
        assert 640 <= sum(in_moments[0]) <= 1300

    def test_atomic_curve_has_no_series(self, kernels):
        for name in ("point_mass", "two_atoms"):
            curve = flow_curve(kernels[name])
            assert curve._series == (None,) * len(curve.regions)

    @pytest.mark.parametrize("name", ["uniform", "outer_atom"])
    def test_curve_cold_rows_at_most_one_block(self, kernels, name,
                                               monkeypatch):
        kernel = kernels[name]
        cold = self._spy_cold_rows(monkeypatch)
        curve = flow_curve(kernel)
        assert len(cold) == len(curve.regions)
        assert max(cold) <= flow._block_rows(kernel)

    def test_product_form_matches_the_kernel(self, kernels):
        # J = u I - sum w x r and M2x = u M2 - sum w x r^2, off the origin
        kernel = kernels["outer_atom"]
        u = np.linspace(-5.0, 5.0, 2001)
        v, J, M2, M2x = flow._height_sums(kernel, u)
        assert 0 < np.count_nonzero(v > 0) < u.size
        assert self._rel(J, kernel.integral_J(u, v)) < 1e-13
        want_M2, want_M2x = kernel.second_moments(u, v)
        assert self._rel(M2, want_M2) < 1e-13
        assert self._rel(M2x, want_M2x) < 1e-13

    @pytest.mark.parametrize("count", [5, 101])
    def test_iteration_cap_raises(self, kernels, monkeypatch, count):
        kernel = kernels["uniform"]
        monkeypatch.setattr(flow, "_V_NEWTON_MAX", 1)
        (g, h), = flow_region(kernel)
        with pytest.raises(ConsistencyError):
            flow._height_sums(kernel, np.linspace(g, h, count + 2)[1:-1])


class TestImageMap:
    def test_psi_strictly_increasing_on_curve(self, two_atoms):
        kernel = FlowKernel(two_atoms, 0.9)
        curve = flow_curve(kernel)
        assert np.all(np.diff(curve.psi) > 0.0) or all(
            np.all(np.diff(curve.psi[curve.region_index == k]) > 0.0)
            for k in range(len(curve.regions)))

    def test_psi_derivative_matches_finite_difference(self, two_atoms):
        kernel = FlowKernel(two_atoms, 0.9)
        (g, h) = flow_region(kernel)[0]
        u = np.linspace(g, h, 41)[5:-5]
        v, _, M2, M2x = flow._height_sums(kernel, u)
        step = 1e-6
        num = (flow_psi(kernel, u + step, flow_v(kernel, u + step))
               - flow_psi(kernel, u - step, flow_v(kernel, u - step))) \
            / (2.0 * step)
        assert np.max(np.abs(flow._psi_prime(kernel.t, v, M2, M2x) - num)) \
            < 1e-5

    def test_modulus_bound_along_curve(self, two_atoms):
        for t in (0.5, 1.0, 2.0):
            kernel = FlowKernel(two_atoms, t)
            curve = flow_curve(kernel)
            g = curve.j_values() - 1j * curve.v / t
            assert np.max(np.abs(g)) <= 1.0 / math.sqrt(t) + 1e-10


class TestFixedCurve:
    """The curve needs no refinement: psi' <= 2 t I = 2 where v > 0, so an
    image gap is at most twice its u gap, and the sampled u are exactly the
    _CURVE_POINTS Chebyshev extrema of each region."""

    CASES = ([(FOUR_GAP_SPEC, 2), (THREE_GAP_SPEC, 2)]
             + [(spec, n) for spec in (BERNOULLI_SPEC, ASYM_SPEC, UNIFORM_SPEC)
                for n in (2, 3, 4, 16)])
    IDS = (["four-2", "three-2"]
           + [f"{name}-{n}" for name in ("fair", "asym", "uniform")
              for n in (2, 3, 4, 16)])

    @pytest.fixture(scope="class", params=CASES, ids=IDS)
    def curve(self, request):
        spec, n = request.param
        return clt_density_flow(make_measure(spec), n).curve

    def test_psi_prime_at_most_two(self, curve):
        v, _, m2, m2x = flow._height_sums(curve.kernel, curve.u)
        pos = v > 0
        assert pos.any()
        dpsi = flow._psi_prime(curve.t, v[pos], m2[pos], m2x[pos])
        assert np.max(dpsi) <= 2.0 * (1.0 + 1e-12)

    def test_image_gaps_at_most_twice_the_u_gaps(self, curve):
        for k in range(len(curve.regions)):
            sel = curve.region_index == k
            du = np.diff(curve.u[sel])
            dpsi = np.diff(curve.psi[sel])
            assert np.all(dpsi <= 2.0 * (1.0 + 1e-9) * du)

    def test_u_are_the_chebyshev_extrema(self, curve):
        for k, (g, h) in enumerate(curve.regions):
            u = curve.u[curve.region_index == k]
            assert u.size <= flow._CURVE_POINTS
            if u.size == flow._CURVE_POINTS:  # the filter dropped nothing
                assert np.array_equal(
                    u, _chebyshev_extrema(g, h, flow._CURVE_POINTS))


class TestCurveSeries:
    """On a kernel with an ac part, each region keeps the chopped Chebyshev
    series of the curve's solved rows (s, J, M2, M2x), and the moments read
    the heights and sums at their nodes off it: they match the moments over
    heights solved at those nodes."""

    SPECS = {"uniform": UNIFORM_SPEC, "arcsine": ARCSINE_SPEC,
             "mixture": MIXTURE_SPEC, "semicircle": SEMICIRCLE_SPEC,
             "outer_atom": OUTER_ATOM_SPEC,
             "inner_outer_atom": INNER_OUTER_ATOM_SPEC,
             "bump2": BUMP2_SPEC, "bump3": BUMP3_SPEC,
             "atom_bump": ATOM_BUMP_SPEC}

    @pytest.fixture(scope="class", params=list(SPECS))
    def seed(self, request):
        return make_measure(self.SPECS[request.param])

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_series_moments_match_solved_heights(self, seed, n):
        curve = clt_density_flow(seed, n).curve
        kernel = curve.kernel
        for series, reg in zip(curve._series, curve.regions):
            if series is None:
                continue
            got = region_integral(kernel, reg, pipeline._moment_integrand(
                curve.t, partial(flow._series_sums, series, reg)))
            want = region_integral(kernel, reg, pipeline._moment_integrand(
                curve.t, partial(flow._height_sums, kernel)))
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_semicircle_moments(self, n):
        dens = clt_density_flow(make_measure(SEMICIRCLE_SPEC), n)
        assert all(series is not None for series in dens.curve._series)
        assert abs(dens.mass - 1.0) <= 1e-14
        assert abs(dens.mean) <= 1e-14
        assert abs(dens.variance - 1.0) <= 1e-14

    def test_series_reproduces_the_curve(self):
        # the chopped series interpolates the solved rows at the extrema
        kernel = clt_density_flow(make_measure(UNIFORM_SPEC), 4).curve.kernel
        (g, h), = flow_region(kernel)
        u = _chebyshev_extrema(g, h, flow._CURVE_POINTS)
        v, J, M2, M2x = flow._height_sums(kernel, u)
        series = flow._chebyshev_series(np.vstack([v * v, J, M2, M2x]))
        assert series.shape[1] < flow._CURVE_POINTS // 8
        for got, want in zip(flow._series_sums(series, (g, h), u),
                             (v, J, M2, M2x)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_series_does_not_chop(self):
        k = np.arange(flow._CURVE_POINTS)
        slow = np.vstack([np.ones(k.size), 1.0 / (1.0 + k) ** 2])
        assert flow._chebyshev_series(slow) is None
        bad = np.ones((1, k.size))
        bad[0, 3] = np.nan
        assert flow._chebyshev_series(bad) is None


class TestCurveLadder:
    """On an ac kernel flow_curve solves each region's heights at 6, 36,
    71, 141, 281 and all 1,401 Chebyshev extrema, in turn, up to the first
    stage whose rows chop, and fills the other extrema from that series."""

    SPECS = {"uniform": UNIFORM_SPEC, "arcsine": ARCSINE_SPEC,
             "semicircle": SEMICIRCLE_SPEC, "mixture": MIXTURE_SPEC,
             "outer_atom": OUTER_ATOM_SPEC,
             "inner_outer_atom": INNER_OUTER_ATOM_SPEC,
             "bump2": BUMP2_SPEC, "bump3": BUMP3_SPEC,
             "atom_bump": ATOM_BUMP_SPEC}

    @pytest.fixture(scope="class", params=list(SPECS))
    def seed(self, request):
        return make_measure(self.SPECS[request.param])

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_matches_the_full_solve(self, seed, n):
        # s = v^2 and psi within 1e-13 of their largest; v only within
        # 1e-12, as near a region end sqrt magnifies the solve's own floor
        # in s (a warm and a cold solve of the same points differ as much);
        # a narrow feature that aliases at a coarse stage into a false chop
        # would show here
        curve = clt_density_flow(seed, n).curve
        kernel = curve.kernel
        for k, (g, h) in enumerate(curve.regions):
            u = _chebyshev_extrema(g, h, flow._CURVE_POINTS)
            v, J, _, _ = flow._height_sums(kernel, u)
            sel = np.flatnonzero(curve.region_index == k)[1:-1]
            at = np.searchsorted(u, curve.u[sel])
            assert np.array_equal(u[at], curve.u[sel])
            v, psi = v[at], u[at] + curve.t * J[at]
            for got, want, rtol in ((curve.v[sel] ** 2, v ** 2, 1e-13),
                                    (curve.psi[sel], psi, 1e-13),
                                    (curve.v[sel], v, 1e-12)):
                assert np.max(np.abs(got - want)) \
                    <= rtol * np.max(np.abs(want))

    @pytest.mark.parametrize("spec, n, step", [(UNIFORM_SPEC, 4, 20),
                                               (ARCSINE_SPEC, 64, 40),
                                               (BUMP3_SPEC, 2, 1)],
                             ids=["uniform-4", "arcsine-64", "bump3-2"])
    def test_solves_each_point_of_its_last_stage_once(self, spec, n, step,
                                                      monkeypatch):
        # the uniform seed's rows at n = 4 chop at the third stage, the
        # arcsine seed's at n = 64 at the second; BUMP3_SPEC's at n = 2 at
        # none, so its last stage solves the rest of the extrema
        kernel = clt_density_flow(make_measure(spec), n).curve.kernel
        solved = []  # the points handed to _newton_blocks
        newton_blocks = flow._newton_blocks

        def spy(kernel, u, guess):
            solved.append(u)
            return newton_blocks(kernel, u, guess)

        monkeypatch.setattr(flow, "_newton_blocks", spy)
        curve = flow_curve(kernel)
        (g, h), = curve.regions
        grid = _chebyshev_extrema(g, h, flow._CURVE_POINTS)
        assert (curve._series[0] is None) == (step == 1)
        assert np.array_equal(np.sort(np.concatenate(solved)), grid[::step])

    @pytest.mark.parametrize("spec, n, most", [(UNIFORM_SPEC, 4, 250),
                                               (ARCSINE_SPEC, 64, 120)],
                             ids=["uniform-4", "arcsine-64"])
    def test_power_takes_at_most_its_row_passes(self, spec, n, most,
                                                monkeypatch):
        # structural guard: rows of every np.reciprocal call, one per row
        # and Newton pass (1,703 and 1,503 when every extremum is solved)
        rows = [0]
        reciprocal = np.reciprocal

        def counted_reciprocal(x, *args, **kwargs):
            rows[0] += x.shape[0] if x.ndim == 2 else 1
            return reciprocal(x, *args, **kwargs)

        monkeypatch.setattr(flow.np, "reciprocal", counted_reciprocal)
        dens = clt_density_flow(make_measure(spec), n)
        assert dens.curve._series[0] is not None
        assert 0 < rows[0] <= most


def _mass_integrand(kernel):
    # density v/(pi t) times psi' along the curve
    def integrand(u):
        v, _, M2, M2x = flow._height_sums(kernel, u)
        return v / (math.pi * kernel.t) * flow._psi_prime(kernel.t, v, M2, M2x)
    return integrand


class TestRegionsAndMass:
    def test_two_regions_at_small_time(self, two_atoms):
        regions = flow_region(FlowKernel(two_atoms, 0.2))
        assert len(regions) == 2
        # regions bracket the atoms at -1 and 1
        assert regions[0][0] < -1.0 < regions[0][1]
        assert regions[1][0] < 1.0 < regions[1][1]

    def test_single_region_at_large_time(self, two_atoms):
        assert len(flow_region(FlowKernel(two_atoms, 2.0))) == 1

    def test_split_support_mass_adds_to_one(self, two_atoms):
        kernel = FlowKernel(two_atoms, 0.2)
        regions = flow_region(kernel)
        assert len(regions) == 2
        assert sum(region_integral(kernel, reg, _mass_integrand(kernel))
                   for reg in regions) == pytest.approx(1.0, abs=1e-8)

    def test_region_integral_recovers_mass(self, delta0):
        kernel = FlowKernel(delta0, 1.0)
        region, = flow_region(kernel)
        assert region_integral(kernel, region, _mass_integrand(kernel)) \
            == pytest.approx(1.0, abs=1e-10)

    def test_region_integral_of_stacked_integrand(self, delta0):
        kernel = FlowKernel(delta0, 1.0)
        region, = flow_region(kernel)
        scalar = region_integral(kernel, region, lambda u: u * u)
        stacked = region_integral(kernel, region,
                                  lambda u: np.stack([np.ones_like(u), u * u]))
        assert isinstance(scalar, float)
        assert stacked.shape == (2,)
        assert stacked[0] == pytest.approx(2.0, abs=1e-13)
        assert stacked[1] == scalar == pytest.approx(2.0 / 3.0, abs=1e-13)


def _bump_atom_spec() -> dict:
    """0.7 of (1 - x^2)^4 as a 401-row table on [-1, 1], with an atom of
    0.3 at 2, standardized.  At every power I' > 0 across the gap between
    its companion's ac part and atom, so I(., 0) is least at the gap's left
    end, and above 1/t there: the branch of flow_region where I' does not
    change sign on a gap.  No seed found reaches that branch with a
    minimum below 1/t."""
    x = np.linspace(-1.0, 1.0, 401)
    p = (1.0 - x * x) ** 4
    p *= 0.7 / np.trapezoid(p, x)
    return {"atoms": [{"x": 2.0, "w": 0.3}],
            "density": {"table": [[float(a), float(b)]
                                  for a, b in zip(x, p)]},
            "standardize": True}


def _scalar_regions(kernel):
    """flow_region as one scalar scipy solve per crossing, with each gap's
    minimum from minimize_scalar: the regions the lockstep solves
    replace."""
    t, target = kernel.t, 1.0 / kernel.t
    comps = kernel.support_components
    nodes, weights = kernel.nodes, kernel.weights

    def i0(x):
        d = x - nodes
        with np.errstate(divide="ignore"):
            return float(np.sum(weights / (d * d)))

    def f(x):
        return i0(x) - target

    def crossing(pt, sign, d, far):
        while f(pt + sign * d) <= 0:
            if pt + sign * d == pt:
                return pt
            d *= 0.25
        a, b = sorted((pt + sign * d, far))
        return brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)

    lo, hi = comps[0][0], comps[-1][1]
    scale = max(1.0, abs(lo), abs(hi), math.sqrt(t))

    def outer(pt, sign):
        step = math.sqrt(t)
        while f(pt + sign * step) > 0:
            step *= 2.0
        return crossing(pt, sign, 1e-12 * scale, pt + sign * step)

    edges = [outer(lo, -1.0)]
    for (_, c_hi), (c_lo, _) in zip(comps, comps[1:]):
        gap = c_lo - c_hi
        if gap < 1e-12:
            continue
        res = minimize_scalar(i0, bounds=(c_hi + 1e-9 * gap,
                                          c_lo - 1e-9 * gap),
                              method="bounded", options={"xatol": 1e-13})
        if res.fun < target:
            edges += [crossing(c_hi, 1.0, 1e-9 * gap, float(res.x)),
                      crossing(c_lo, -1.0, 1e-9 * gap, float(res.x))]
    edges.append(outer(hi, 1.0))
    return [edges[k:k + 2] for k in range(0, len(edges), 2)]


def _power_kernel(spec, n):
    nu = companion_measure(make_measure(spec))
    return FlowKernel(dilate(nu, 1.0 / math.sqrt(n)), (n - 1) / n)


REGION_CASES = ([(spec, n) for spec in (THREE_GAP_SPEC, FOUR_GAP_SPEC)
                 for n in (2, 3, 4, 16)]
                + [(three_atom_spec(s), n) for s in range(1, 41)
                   for n in (2, 3, 4)])


class TestRegionEnds:
    """flow_region solves every gap minimum in one _brentq_lanes call and
    every crossing in another; the ends are those of one scipy solve per
    crossing to 1e-14, and each is a sign change of t I(., 0) - 1 within
    one Brent tolerance."""

    @pytest.mark.parametrize("spec,n", REGION_CASES)
    def test_ends_match_the_scalar_solves(self, spec, n):
        kernel = _power_kernel(spec, n)
        regions = flow_region(kernel)
        want = _scalar_regions(kernel)
        assert len(regions) == len(want)
        assert np.max(np.abs(np.array(regions) - np.array(want))) <= 1e-14

    @pytest.mark.parametrize("spec,n", REGION_CASES)
    def test_ends_are_sign_changes(self, spec, n):
        kernel = _power_kernel(spec, n)
        t, x_k, w_k = kernel.t, kernel.nodes, kernel.weights
        for end in np.ravel(flow_region(kernel)):
            tol = 1e-14 + 8.9e-16 * abs(end)
            d = np.array([end - tol, end + tol])[:, None] - x_k
            below, above = t * np.sum(w_k / (d * d), axis=1) - 1.0
            assert below * above <= 0.0

    def test_gap_minimum_at_its_end(self):
        spec = _bump_atom_spec()
        for n in (2, 4, 64):
            kernel = _power_kernel(spec, n)
            (_, c_hi), (c_lo, _) = kernel.support_components
            gap = c_lo - c_hi
            ends = np.array([c_hi + 1e-9 * gap, c_lo - 1e-9 * gap])
            d = ends[:, None] - kernel.nodes
            slope = np.sum(kernel.weights / (d * d * d), axis=1)
            assert np.all(slope < 0.0)  # I' = -2 slope > 0 across the gap
            regions = flow_region(kernel)
            assert len(regions) == 1
            assert np.max(np.abs(np.array(regions)
                                 - np.array(_scalar_regions(kernel)))) \
                <= 1e-14


class TestDctOne:
    """flow._dct1, the real part of numpy's real FFT of each row's even
    extension, is scipy's DCT-I bit for bit: at each stage size of the
    curve's heights, at the moment rule's sizes and at sizes a region has
    once points are dropped."""

    @pytest.mark.parametrize("size", sorted(
        {k + 1 for k in flow._CURVE_STAGES}
        | {flow._MOMENT_NODES, 2 * flow._MOMENT_NODES,
           2 * flow._MOMENT_NODES + 1, 997, 1399}))
    def test_is_scipy_dct(self, size):
        rows = np.random.default_rng(size).standard_normal((4, size))
        assert flow._dct1(rows).tobytes() \
            == dct(rows, type=1, axis=1).tobytes()
