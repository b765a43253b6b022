"""Unit tests for Cauchy-transform evaluation, boundary inversion, support
detection, and companion-measure recovery."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from freeclt import (
    DensityTable,
    DomainError,
    FlowKernel,
    InvalidArgumentError,
    InversionError,
    cauchy,
    cauchy_derivative,
    clt_density_flow,
    companion_measure,
    convergence_report,
    find_support_interval,
    make_measure,
    report_row,
    semicircle_cauchy,
    sqrt_upper,
    stieltjes_invert,
)

from freeclt import measures, transforms

from conftest import (
    ATOM_BUMP_SPEC,
    FOUR_GAP_SPEC,
    INNER_OUTER_ATOM_SPEC,
    MIXTURE_SPEC,
    OUTER_ATOM_SPEC,
    SQRT2,
    THREE_GAP_SPEC,
    constant_table_companion_atoms,
    semicircle_density,
    three_atom_spec,
)

RNG = np.random.default_rng(1202)


def _random_upper_points(count=40, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(-4, 4, count) + 1j * 10.0 ** rng.uniform(-3, 1, count)


class TestSqrtUpper:
    def test_branch_values(self):
        assert sqrt_upper(-1.0) == pytest.approx(1j)
        assert sqrt_upper(4.0) == pytest.approx(2.0)
        # just below the positive real axis the root flips sign
        below = complex(sqrt_upper(4.0 - 1e-12j))
        assert below.real == pytest.approx(-2.0, abs=1e-9)

    def test_range_is_upper_half_plane(self):
        w = RNG.uniform(-5, 5, 200) + 1j * RNG.uniform(-5, 5, 200)
        s = sqrt_upper(w)
        assert np.all(s.imag >= 0.0)
        assert np.max(np.abs(s * s - w)) < 1e-12


class TestSemicircleCauchy:
    def test_against_quadratic_branch(self):
        z = _random_upper_points()
        g = semicircle_cauchy(1.0, z)
        # G solves G^2 - z G + 1 = 0 for unit variance
        assert np.max(np.abs(g * g - z * g + 1.0)) < 1e-12

    def test_boundary_density(self):
        x = np.linspace(-1.99, 1.99, 501)
        g = semicircle_cauchy(1.0, x.astype(complex))
        assert np.max(np.abs(-g.imag / np.pi - semicircle_density(x))) < 1e-13
        outside = semicircle_cauchy(1.0, np.array([2.5 + 0.0j, -3.0 + 0.0j]))
        assert np.max(np.abs(outside.imag)) < 1e-13

    def test_decay_and_quadratic_identity(self):
        z_far = 1j * np.array([1e3, 1e4])
        z = _random_upper_points(count=30, seed=9)
        for var in (0.5, 1.0, 2.0):
            assert np.max(np.abs(z_far * semicircle_cauchy(var, z_far)
                                 - 1.0)) < 1e-5
            g = semicircle_cauchy(var, z)
            assert np.max(np.abs(var * g * g - z * g + 1.0)) < 1e-12

    def test_center_shift(self):
        z = _random_upper_points(count=20, seed=13)
        shifted = semicircle_cauchy(1.0, z, center=0.75)
        assert np.max(np.abs(shifted
                             - semicircle_cauchy(1.0, z - 0.75))) < 1e-13

    def test_maps_upper_to_lower(self):
        z = _random_upper_points(count=100, seed=3)
        assert np.all(semicircle_cauchy(1.0, z).imag < 0.0)


class TestCauchyOfMeasure:
    def test_two_atom_closed_form(self, bernoulli):
        z = _random_upper_points()
        g = cauchy(bernoulli, z)
        closed = z / (z * z - 1.0)
        # relative: random points may land near the poles at +/-1
        assert np.max(np.abs(g - closed) / (1.0 + np.abs(closed))) < 1e-14

    def test_mixed_measure_is_additive(self):
        m = make_measure({
            "atoms": [{"x": 0.0, "w": 0.5}],
            "density": {"family": "semicircle",
                        "params": {"variance": 1.0}},
        }, mass_tol=math.inf)
        z = _random_upper_points(count=20, seed=11)
        expect = 0.5 / z + semicircle_cauchy(1.0, z)
        assert np.max(np.abs(cauchy(m, z) - expect)) < 1e-10

    def test_rejects_lower_half_plane(self, bernoulli):
        with pytest.raises(DomainError):
            cauchy(bernoulli, np.array([1.0 - 1e-3j]))

    def test_derivative_matches_finite_difference(self, bernoulli, semicircle):
        h = 1e-6
        for m in (bernoulli, semicircle):
            z = np.array([0.3 + 0.8j, -1.2 + 2.0j, 0.0 + 0.05j])
            num = (cauchy(m, z + h) - cauchy(m, z - h)) / (2.0 * h)
            assert np.max(np.abs(cauchy_derivative(m, z) - num)) < 1e-6

    def test_reciprocal_gains_height(self, bernoulli, semicircle):
        z = _random_upper_points(count=60, seed=5)
        for m in (bernoulli, semicircle):
            f = 1.0 / cauchy(m, z)
            assert np.all(f.imag >= z.imag * (1.0 - 1e-12))
            assert np.max(np.abs(f * cauchy(m, z) - 1.0)) < 1e-12

    def test_table_nodes_built_once(self, monkeypatch):
        # every integral against a table reads one Gauss-theta node set
        # per node count, built on first use and kept on the table
        m = make_measure(OUTER_ATOM_SPEC)
        assert isinstance(m.ac, DensityTable)
        mu = make_measure(FOUR_GAP_SPEC)
        dens = clt_density_flow(mu, 2)
        assert len(dens.tables) == 3 and not dens.atoms
        calls = []
        real = measures.gauss_theta_nodes

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(measures, "gauss_theta_nodes", counted)
        z = _random_upper_points(count=20, seed=3)
        first = cauchy(m, z)
        cauchy_derivative(m, z)
        m.ac.mass()
        m.ac.moments()
        m.ac.quad_nodes()
        FlowKernel(m, 0.5)
        assert calls == [(*m.ac.support, 4096)]
        calls.clear()
        np.testing.assert_array_equal(cauchy(m, z), first)
        cauchy_derivative(m, z)
        assert calls == []
        # free entropy and Fisher information share one 512-node set
        report_row(mu, 2, dens=dens)
        assert calls == [(*t.support, 512) for t in dens.tables]


def _invert_semicircle(heights):
    x = np.linspace(-1.0, 1.0, 11)
    return stieltjes_invert(lambda z: semicircle_cauchy(1.0, z), x, heights)


class TestInversionSchedule:
    """The height ladders stieltjes_invert extrapolates along."""

    @pytest.mark.parametrize("bad", [
        lambda: _invert_semicircle((1e-6,)),
        lambda: _invert_semicircle((1e-8, 1e-6)),
        lambda: _invert_semicircle((1e-6, -1e-7)),
        lambda: _invert_semicircle((1e-6, 1e-14)),
    ])
    def test_rejects_bad_ladders(self, bad):
        with pytest.raises(InvalidArgumentError):
            bad()


class TestStieltjesInversion:
    def test_recovers_semicircle_density(self):
        x = np.linspace(-1.95, 1.95, 301)
        res = stieltjes_invert(lambda z: semicircle_cauchy(1.0, z), x,
                               1e-6 * 0.5 ** np.arange(6))
        assert np.max(np.abs(res.values - semicircle_density(x))) < 1e-9

    def test_flags_negative_density(self):
        x = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(InversionError):
            stieltjes_invert(lambda z: -semicircle_cauchy(1.0, z), x,
                             1e-6 * 0.5 ** np.arange(6))


class TestSupportDetection:
    def test_semicircle_interval(self):
        def boundary(x, eps):
            g = semicircle_cauchy(1.0, np.asarray(x, dtype=complex) + 1j * eps)
            return -g.imag / np.pi

        interval = find_support_interval(boundary, -6.0, 6.0)
        assert interval is not None
        assert interval[0] == pytest.approx(-2.0, abs=1e-6)
        assert interval[1] == pytest.approx(2.0, abs=1e-6)

    def test_empty_when_below_threshold(self):
        interval = find_support_interval(
            lambda x, eps: np.zeros_like(np.asarray(x, dtype=float)),
            -2.0, 2.0)
        assert interval is None


class TestCompanionMeasure:
    def test_two_atom_companion_is_point_mass_at_zero(self, bernoulli):
        nu = companion_measure(bernoulli)
        assert nu.ac is None
        assert len(nu.atoms) == 1
        assert nu.atoms[0].x == pytest.approx(0.0, abs=1e-14)
        assert nu.atoms[0].w == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_companion_is_shifted_point_mass(self, asym):
        nu = companion_measure(asym)
        assert nu.ac is None
        assert len(nu.atoms) == 1
        # companion sits at the negative reciprocal location -1/sqrt(2),
        # reproducing the seed's third moment as its mean
        assert nu.atoms[0].x == pytest.approx(-1.0 / SQRT2, abs=1e-12)
        assert nu.atoms[0].w == pytest.approx(1.0, abs=1e-12)
        third = sum(a.w * a.x ** 3 for a in asym.atoms)
        assert nu.mean() == pytest.approx(third, abs=1e-12)

    def test_semicircle_companion_is_semicircle(self, semicircle):
        nu = companion_measure(semicircle)
        assert nu.atoms == ()
        tab = nu.ac
        assert tab.support[0] == pytest.approx(-2.0, abs=1e-9)
        assert tab.support[1] == pytest.approx(2.0, abs=1e-9)
        x, _, p = tab._node_set(4096)  # the seed part's own nodes
        assert np.max(np.abs(p - semicircle_density(x))) < 1e-12
        mass, mean, var = tab.moments()
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(1.0, abs=1e-9)

    def test_arcsine_companion_is_semicircle_of_variance_half(self, arcsine):
        # 1/G = sqrt((z - a)(z - b)) for the arcsine law on [-sqrt 2, sqrt 2],
        # so G_nu = z - sqrt(z^2 - 2) is the semicircle transform of variance 1/2
        nu = companion_measure(arcsine)
        assert nu.atoms == ()
        x, _, p = nu.ac._node_set(4096)
        # sqrt(2 - x^2)/pi in factored form on the seed's own interval: its
        # outer nodes lie 5e-14 from the edges, where 2 - x^2 loses the
        # digits that x - a keeps
        a, b = arcsine.ac.support
        assert np.max(np.abs(p - np.sqrt((x - a) * (b - x)) / np.pi)) < 1e-13

    @pytest.mark.parametrize(
        "seed", ["uniform", "arcsine", "semicircle", "mixture"])
    def test_ac_part_lives_on_seed_ac_support(self, request, seed):
        # p_nu = p_mu / |G_mu(x + i0)|^2 wherever p_mu > 0
        mu = request.getfixturevalue(seed)
        assert companion_measure(mu).ac.support == mu.ac.support

    @pytest.mark.parametrize(
        "spec", [OUTER_ATOM_SPEC, INNER_OUTER_ATOM_SPEC],
        ids=["outer_atom", "inner_outer_atoms"])
    def test_atoms_are_zeros_of_closed_form_transform(self, spec):
        mu = make_measure(spec)
        nu = companion_measure(mu)
        ref = constant_table_companion_atoms(mu)
        assert len(nu.atoms) == len(ref) > 0
        for atom, (r, w) in zip(nu.atoms, ref):
            assert atom.x == pytest.approx(r, abs=1e-12)
            assert atom.w == pytest.approx(w, abs=1e-12)
        mass = sum(a.w for a in nu.atoms) + nu.ac.mass()
        assert abs(mass - 1.0) <= transforms._COMPANION_MASS_TOL

    @pytest.mark.parametrize("spec", [
        THREE_GAP_SPEC, FOUR_GAP_SPEC, OUTER_ATOM_SPEC, INNER_OUTER_ATOM_SPEC,
        MIXTURE_SPEC, ATOM_BUMP_SPEC] + [three_atom_spec(s)
                                         for s in range(1, 13)])
    def test_atoms_are_the_scalar_brentq_roots(self, spec):
        # all gaps in one _brentq_lanes call: each zero is the one a scipy
        # brentq per gap returns, bit for bit, from the same brackets
        mu = make_measure(spec)
        xs = np.array([a.x for a in mu.atoms])
        ws = np.array([a.w for a in mu.atoms])
        ac = None if mu.ac is None else measures.Measure((), mu.ac)

        def g(x):
            val = float(np.sum(ws / (x - xs)))
            return val if ac is None else \
                val + float(cauchy(ac, x + 1e-30j).real)

        want = []
        comps = mu.support_components()
        for (_, lo), (hi, _) in zip(comps, comps[1:]):
            d = 1e-9 * (hi - lo)
            while g(lo + d) < 0 or g(hi - d) > 0:
                d *= 0.5
                if d < 1e-15 * (hi - lo):
                    break
            else:
                want.append(brentq(g, lo + d, hi - d, xtol=1e-15,
                                   rtol=8.9e-16))
        assert [a.x for a in transforms._companion_atoms(mu)] == want

    @pytest.mark.parametrize("spec", [
        OUTER_ATOM_SPEC,
        # under 8 rows a table interpolates linearly, slope included
        {"density": {"table": [[-1.0 + k / 2.0, 0.5] for k in range(5)]},
         "standardize": True}], ids=["outer_atom", "five_rows"])
    def test_atoms_and_ac_mass_of_a_table_seed_sum_to_one(self, spec):
        # the ac part is p_mu/|G_mu(x + i0)|^2 at the seed table's own nodes,
        # with each node's own term of the table's Cauchy sum added back
        nu = companion_measure(make_measure(spec))
        assert abs(nu.atom_mass + nu.ac_mass - 1.0) <= 1e-14

    @pytest.mark.parametrize("seed", ["uniform", "mixture"])
    def test_cauchy_of_companion_is_z_minus_reciprocal(self, request, seed):
        # G_nu = z - 1/G_mu off the axis, from the plain sum over the
        # companion's node set, and G_nu' = 1 + G_mu'/G_mu^2
        mu = request.getfixturevalue(seed)
        nu = companion_measure(mu)
        z = np.array([1j, 0.5 + 0.3j, -1.2 + 0.1j, 2.5 + 0.05j])
        g = cauchy(mu, z)
        assert np.max(np.abs(cauchy(nu, z) - (z - 1.0 / g))) < 1e-13
        assert np.max(np.abs(cauchy_derivative(nu, z)
                             - (1.0 + cauchy_derivative(mu, z) / g ** 2))) < 1e-13

    def test_companion_translates_and_standardizes(self, mixture):
        nu = companion_measure(mixture)
        moved = measures.translate(nu, 0.75)
        assert moved.ac.support == (nu.ac.support[0] + 0.75,
                                    nu.ac.support[1] + 0.75)
        assert moved.mean() == pytest.approx(nu.mean() + 0.75, abs=1e-14)
        assert moved.variance() == pytest.approx(nu.variance(), abs=1e-14)
        z = np.array([1j, 0.5 + 0.3j])
        assert np.max(np.abs(cauchy(moved, z + 0.75) - cauchy(nu, z))) < 1e-14
        unit = measures.standardize(moved)
        assert unit.is_standardized(1e-14)

    def test_requires_standardized_seed(self):
        shifted = make_measure(
            {"atoms": [{"x": 0.0, "w": 0.5}, {"x": 2.0, "w": 0.5}]})
        with pytest.raises(InvalidArgumentError):
            companion_measure(shifted)


class TestCompanionReuse:
    """The companion does not depend on the power: it is recovered once
    per seed object and then reused."""

    @pytest.fixture()
    def recoveries(self, monkeypatch):
        calls = []
        recover = transforms._recover_companion

        def counting(*args):
            calls.append(args)
            return recover(*args)

        monkeypatch.setattr(transforms, "_recover_companion", counting)
        return calls

    def test_report_ladder_recovers_once(self, recoveries):
        mu = make_measure(MIXTURE_SPEC)  # fresh instance, nothing cached
        report = convergence_report(mu, (4, 8, 16))
        assert sorted(report.rows) == [4, 8, 16]
        assert len(recoveries) == 1

    def test_flow_power_of_a_cached_seed_evaluates_no_companion_table(
            self, mixture, monkeypatch):
        # the companion's ac part is a node set, and each flow power's
        # dilated copy of it maps the nodes exactly: no table spline or
        # density is evaluated for it
        clt_density_flow(mixture, 4)
        calls = []
        for name in ("density", "_reduced_spline"):
            method = getattr(DensityTable, name)

            def counting(self, *args, _method=method):
                calls.append(self)
                return _method(self, *args)

            monkeypatch.setattr(DensityTable, name, counting)
        clt_density_flow(mixture, 4)
        assert calls == []

    def test_same_object_for_same_seed(self, recoveries):
        mu = make_measure(MIXTURE_SPEC)
        assert companion_measure(mu) is companion_measure(mu)
        assert len(recoveries) == 1
