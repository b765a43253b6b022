"""Unit tests for measure construction, density tables, and moment maps."""

import math
import tracemalloc

import numpy as np
import pytest

from freeclt import (
    ArcsineFamily,
    Atom,
    DegenerateMeasureError,
    DensityTable,
    InvalidArgumentError,
    InvalidSpecError,
    SemicircleFamily,
    UniformFamily,
    build_table,
    dilate,
    fit_edge_order,
    make_measure,
    measure_from_json,
    standardize,
    translate,
)

from freeclt.measures import _leggauss

from conftest import kesten_density, semicircle_density, SQRT2


class TestFamilies:
    @pytest.mark.parametrize("family,var", [
        (SemicircleFamily(1.0), 1.0),
        (SemicircleFamily(0.25), 0.25),
        (ArcsineFamily(-SQRT2, SQRT2), 1.0),
        (UniformFamily(-math.sqrt(3.0), math.sqrt(3.0)), 1.0),
    ])
    def test_table_moments(self, family, var):
        mass, mean, variance = family.to_table(2001).moments()
        assert mass == pytest.approx(1.0, abs=5e-9)
        assert mean == pytest.approx(0.0, abs=5e-9)
        assert variance == pytest.approx(var, abs=1e-8)

    def test_semicircle_density_closed_form(self):
        tab = SemicircleFamily(1.0).to_table(2001)
        x = np.linspace(-1.95, 1.95, 1001)
        assert np.max(np.abs(tab.density(x) - semicircle_density(x))) < 1e-10

    def test_invalid_family_parameters(self):
        with pytest.raises(InvalidSpecError):
            SemicircleFamily(0.0)
        with pytest.raises(InvalidSpecError):
            ArcsineFamily(1.0, 1.0)
        with pytest.raises(InvalidSpecError):
            UniformFamily(2.0, -2.0)


class TestDensityTable:
    def test_build_and_interpolate(self):
        m = 6
        t = (m - 1.0) / m
        edge = 2.0 * math.sqrt(t)
        x = np.linspace(-edge, edge, 1501)
        tab = build_table(x, kesten_density(x, m), support=(-edge, edge),
                          edge_orders=(0.5, 0.5), expected_mass=1.0)
        probe = np.linspace(-edge + 1e-3, edge - 1e-3, 997)
        assert np.max(np.abs(tab.density(probe)
                             - kesten_density(probe, m))) < 1e-9

    def test_zero_outside_support(self):
        tab = SemicircleFamily(1.0).to_table(1001)
        outside = np.array([-5.0, -2.0000001, 2.0000001, 7.5])
        assert np.all(tab.density(outside) == 0.0)

    def test_dilated_translated_moments(self):
        tab = SemicircleFamily(1.0).to_table(2001)
        moved = tab.dilated(0.5).translated(1.25)
        mass, mean, variance = moved.moments()
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(1.25, abs=1e-9)
        assert variance == pytest.approx(0.25, abs=1e-9)

    def test_rejects_bad_tables(self):
        x = np.linspace(-1, 1, 11)
        with pytest.raises(InvalidSpecError):
            build_table(x, -np.ones_like(x))
        with pytest.raises(InvalidSpecError):
            build_table(x[::-1], np.ones_like(x))
        with pytest.raises(InvalidSpecError):
            build_table(x, np.full_like(x, np.nan))


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 256, 320, 384, 512, 2048])
    def test_bitwise_equal_to_numpy(self, n):
        x, w = _leggauss(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(w, w_ref)

    def test_rule_at_4096(self):
        x, w = _leggauss(4096)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert w.sum() == pytest.approx(2.0, abs=1e-15)
        # exact for degree <= 8191; numpy's rule itself is off by up to
        # 5.5e-13 here (one Newton step from the eigenvalues)
        for k in range(21):
            assert abs(np.dot(w, x ** (2 * k)) - 2.0 / (2 * k + 1)) < 1e-12

    def test_no_dense_matrix(self):
        tracemalloc.start()
        try:
            _leggauss.__wrapped__(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # a dense 4096 x 4096 matrix is 134 MB


class TestEdgeOrderFit:
    @pytest.mark.parametrize("family,expected", [
        (SemicircleFamily(1.0), (0.5, 0.5)),
        (ArcsineFamily(-SQRT2, SQRT2), (-0.5, -0.5)),
        (UniformFamily(-1.0, 1.0), (0.0, 0.0)),
    ])
    def test_snaps_to_known_orders(self, family, expected):
        tab = family.to_table(2001)
        assert tab.edge_orders == expected

    def test_fit_edge_order_on_samples(self):
        dist = np.linspace(0.0, 0.1, 2001)[1:]
        assert fit_edge_order(dist, 3.0 * np.sqrt(dist)) \
            == pytest.approx(0.5, abs=1e-9)
        assert fit_edge_order(dist, 0.2 * dist ** -0.5) \
            == pytest.approx(-0.5, abs=1e-9)
        assert fit_edge_order(dist, np.zeros_like(dist)) is None


class TestMakeMeasure:
    def test_two_atom_seed(self, bernoulli):
        assert bernoulli.mean() == pytest.approx(0.0, abs=1e-15)
        assert bernoulli.variance() == pytest.approx(1.0, abs=1e-15)
        assert bernoulli.is_standardized(1e-12)
        assert bernoulli.support() == (-1.0, 1.0)

    def test_mixed_measure_mass(self):
        m = make_measure({
            "atoms": [{"x": 3.0, "w": 0.5}],
            "density": {"family": "semicircle",
                        "params": {"variance": 1.0}},
        }, mass_tol=math.inf)
        # total mass 1.5 must be rejected under the default tolerance
        with pytest.raises(InvalidSpecError):
            make_measure({
                "atoms": [{"x": 3.0, "w": 0.5}],
                "density": {"family": "semicircle",
                            "params": {"variance": 1.0}},
            })
        assert m.atom_mass + m.ac_mass == pytest.approx(1.5)

    def test_table_mass_honours_mass_tol(self):
        # a 17-row constant table whose mass misses 1 by 5e-5: over the
        # default table tolerance of 1e-5, within mass_tol = 1e-3
        def spec(excess):
            rows = [[-1.0 + k / 8.0, 0.5 * (1.0 + excess)] for k in range(17)]
            return {"density": {"table": rows}}

        with pytest.raises(InvalidSpecError):
            make_measure(spec(5e-5))
        m = make_measure(spec(5e-5), mass_tol=1e-3)
        assert m.ac_mass == pytest.approx(1.0 + 5e-5, abs=1e-12)
        assert make_measure(spec(5e-6)).ac_mass == pytest.approx(
            1.0 + 5e-6, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        {},
        {"atoms": [{"x": 0.0, "w": 0.5}, {"x": 0.0, "w": 0.5}]},
        {"atoms": [{"x": 0.0, "w": -0.5}, {"x": 1.0, "w": 1.5}]},
        {"atoms": [{"x": 0.0}]},
        {"atoms": [{"x": 0.0, "w": 1.0}], "unknown_field": 1},
        {"density": {"family": "lorentz", "params": {}}},
        {"density": {"family": "semicircle", "params": {"variance": 1.0},
                     "extra": True}},
        {"density": {"table": [[0.0, 1.0]]}},
    ])
    def test_rejects_invalid_specs(self, spec):
        with pytest.raises(InvalidSpecError):
            make_measure(spec)

    def test_json_round_trip(self, measure_file_factory):
        path = measure_file_factory(
            {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]})
        from_file = measure_from_json(path)
        inline = measure_from_json(
            '{"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}')
        assert from_file.atoms == inline.atoms
        with pytest.raises(InvalidSpecError):
            measure_from_json("{not json")
        with pytest.raises(InvalidSpecError):
            measure_from_json("/nonexistent/measure.json")

    def test_standardize_flag(self):
        m = make_measure({
            "atoms": [{"x": 0.0, "w": 0.25}, {"x": 4.0, "w": 0.75}],
            "standardize": True,
        })
        assert m.mean() == pytest.approx(0.0, abs=1e-12)
        assert m.variance() == pytest.approx(1.0, abs=1e-12)

    def test_support_components_merge_inner_atoms(self, bernoulli):
        assert bernoulli.support_components() == ((-1.0, -1.0), (1.0, 1.0))
        m = make_measure({
            "atoms": [{"x": 3.0, "w": 0.1}, {"x": 0.5, "w": 0.2},
                      {"x": -2.0, "w": 0.1}],
            "density": {"family": "uniform", "params": {"a": -1.0, "b": 1.0}},
        }, mass_tol=math.inf)
        # the atom at 0.5 lies inside [-1, 1] and merges into it
        assert m.support_components() == ((-2.0, -2.0), (-1.0, 1.0),
                                          (3.0, 3.0))


class TestMomentMaps:
    def test_translate_dilate_laws(self, bernoulli):
        moved = translate(dilate(bernoulli, 3.0), -2.0)
        assert moved.mean() == pytest.approx(-2.0, abs=1e-12)
        assert moved.variance() == pytest.approx(9.0, abs=1e-12)
        back = standardize(moved)
        assert back.is_standardized(1e-12)

    def test_dilate_rejects_nonpositive(self, bernoulli):
        with pytest.raises(InvalidArgumentError):
            dilate(bernoulli, 0.0)
        with pytest.raises(InvalidArgumentError):
            dilate(bernoulli, -1.0)

    def test_standardize_point_mass_degenerate(self):
        delta = make_measure({"atoms": [{"x": 2.0, "w": 1.0}]})
        with pytest.raises(DegenerateMeasureError):
            standardize(delta)
