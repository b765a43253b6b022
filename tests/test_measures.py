"""Unit tests for measure construction, density tables, and moment maps."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

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
    clt_density_flow,
    dilate,
    fit_edge_order,
    make_measure,
    measure_from_json,
    standardize,
    translate,
)

from freeclt.measures import _AcPart, _NotAKnotSpline, _leggauss

from conftest import (ARCSINE_SPEC, SEMICIRCLE_SPEC, SQRT2, UNIFORM_SPEC,
                      kesten_density, semicircle_density)

# Gauss-Legendre nodes and weights at sampled indices (first, second, tenth,
# n/4, n/2, last), independent of the package: mpmath at 50 digits, Newton
# on the three-term recurrence for P_n from each float node to a step below
# 1e-45, weights 2/((1 - x^2) P_n'(x)^2).  At 70 digits the same 40 digits
# result, and mpmath.legendre(n, x) vanishes to 1e-38 at the nodes.
GAUSS_LEGENDRE_REFERENCE = {
    1: (
        (0, "0.0",
         "2.0"),
    ),
    2: (
        (0, "-0.5773502691896257645091487805019574556476",
         "1.0"),
        (1, "0.5773502691896257645091487805019574556476",
         "1.0"),
    ),
    3: (
        (0, "-0.7745966692414833770358530799564799221666",
         "0.5555555555555555555555555555555555555556"),
        (1, "0.0",
         "0.8888888888888888888888888888888888888889"),
        (2, "0.7745966692414833770358530799564799221666",
         "0.5555555555555555555555555555555555555556"),
    ),
    64: (
        (0, "-0.9993050417357721394569056243456363119697",
         "0.001783280721696432947296079144971933179959"),
        (1, "-0.9963401167719552793469245006763991232099",
         "0.004147033260562467635287535728551415313303"),
        (9, "-0.8893154459951141058534040382728516224292",
         "0.02227017380838325415929833038415500242296"),
        (16, "-0.6852363130542332425635583710313763019356",
         "0.03547221325688238381069314671524594794809"),
        (32, "0.02435029266342443250895584285371566142689",
         "0.04869095700913972038336539073474991244263"),
        (63, "0.9993050417357721394569056243456363119697",
         "0.001783280721696432947296079144971933179959"),
    ),
    256: (
        (0, "-0.9999560500189922307348012101684159360759",
         "0.0001127890178222721755125388772498376055902"),
        (1, "-0.9997684374092631861048785855118830259415",
         "0.0002625349442964459062874575624994967327247"),
        (9, "-0.9928763426088221171435338023216692999983",
         "0.001459137333310733201088386499577413697525"),
        (64, "-0.7016719143486851594060835498833649902767",
         "0.008726615961698807140336632217356438330969"),
        (128, "0.006123912375189529501170164962266741628394",
         "0.01224767164028975590407032648971844135729"),
        (255, "0.9999560500189922307348012101684159360759",
         "0.0001127890178222721755125388772498376055902"),
    ),
    320: (
        (0, "-0.9999718499802210905413545306333460883568",
         "0.00007224170228930121133980129666504153380275"),
        (1, "-0.9998516821932679678917453884721997426704",
         "0.0001681581956169482291472042672584278988173"),
        (9, "-0.9954353496293926177378687473294073765245",
         "0.0009353766114158341522103677202106449401761"),
        (80, "-0.7027606993767398423330024919092880676146",
         "0.006973498615270335464650421058815729527723"),
        (160, "0.004901054997656853106676189472532098843911",
         "0.009802031511030042921101396496334964081825"),
        (319, "0.9999718499802210905413545306333460883568",
         "0.00007224170228930121133980129666504153380275"),
    ),
    384: (
        (0, "-0.9999804411726473547435916080674043937752",
         "0.00005019410348692173752939580444474545030871"),
        (1, "-0.9998969471378595991468054406187172555742",
         "0.0001168390665730188627954282573513175982201"),
        (9, "-0.9968277169440913106011587182604726696444",
         "0.0006502074240969915513807189141732390725747"),
        (96, "-0.7034860566249566541573538749467284880044",
         "0.005806904095492834992840479525720096755055"),
        (192, "0.004085281220676868086781824858344712456676",
         "0.00817051698671111073998031695777657468519"),
        (383, "0.9999804411726473547435916080674043937752",
         "0.00005019410348692173752939580444474545030871"),
    ),
    512: (
        (0, "-0.9999889909843818679872841248990359277027",
         "0.00002825263737393469203874501078451898497295"),
        (1, "-0.9999419946068456536361286845381149620041",
         "0.00006576573165924019583101442293512615753429"),
        (9, "-0.9982140165816127953876923245942798494369",
         "0.000366149040035626853014130994254860128737"),
        (128, "-0.7043921881158238155354902427222076829855",
         "0.004351092475507065723452190375979096857491"),
        (256, "0.00306496218515939615292319328839209405351",
         "0.006129905175405785759156351067049341671937"),
        (511, "0.9999889909843818679872841248990359277027",
         "0.00002825263737393469203874501078451898497295"),
    ),
    2048: (
        (0, "-0.9999993109271053295791096852298112626192",
         "0.000001768383366666071180688723301729925357084"),
        (1, "-0.9999963693177449577988745630013041336954",
         "0.000004116455830582225442816024788650637734811"),
        (9, "-0.9998881812644876563234389369337539959835",
         "0.00002293064651185765265137487785260952781201"),
        (512, "-0.7064286707614156530618088166469767428238",
         "0.001085462359073042673910563097790114299961"),
        (1024, "0.0007668030881472857683068455650586231741655",
         "0.001533605875714330280334217441333486066561"),
        (2047, "0.9999993109271053295791096852298112626192",
         "0.000001768383366666071180688723301729925357084"),
    ),
    4096: (
        (0, "-0.9999998276897038208483713137836424306438",
         "0.00000044220385139094867252306892756842368309"),
        (1, "-0.9999990921074249847748751673757176273992",
         "0.000001029366140415132914918384411030143418392"),
        (9, "-0.9999720381004413601225757973156823966558",
         "0.000005734221491077195081592876283637477938607"),
        (1024, "-0.7067677710147489022958162143442263869258",
         "0.000542537765775592177112968803011090218268"),
        (2048, "0.0003834483770539112650532621118731565329487",
         "0.0007668967165215304046895329928523429193305"),
        (4095, "0.9999998276897038208483713137836424306438",
         "0.00000044220385139094867252306892756842368309"),
    ),
}


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

    @pytest.mark.parametrize("family", [
        SemicircleFamily(1.0),
        SemicircleFamily(2.0, 0.5),
        ArcsineFamily(-SQRT2, SQRT2),
        ArcsineFamily(0.0, 3.0),
        UniformFamily(-math.sqrt(3.0), math.sqrt(3.0)),
    ], ids=["semicircle", "semicircle_off_center", "arcsine",
            "arcsine_0_3", "uniform"])
    @pytest.mark.parametrize("height", [0.1, 1.0])
    @pytest.mark.parametrize("derivative", [False, True],
                             ids=["g", "g_prime"])
    def test_closed_form_transform_matches_its_node_sum(
            self, family, height, derivative):
        # each family's closed-form G and G' against the node sum of the
        # ac base on its own 4096-node set, the sum a family without a
        # closed form inherits: nine points across the support, its ends
        # among them, and four on each side beyond it
        a, b = family.support
        x = 0.5 * (a + b) + 0.5 * (b - a) * np.linspace(-2.0, 2.0, 17)
        z = x + 1j * height
        got = family._cauchy(z, derivative)
        want = _AcPart._cauchy(family, z, derivative)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


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

    def test_small_table_is_linear_and_held_past_its_end_rows(self):
        # under 8 usable rows the reduced density p/phi is interpolated
        # linearly and held at its end rows' values out to the edges, where
        # phi = 0 drops the edge rows; its slope is that interpolant's
        grid = np.linspace(-1.0, 1.0, 6)
        tab = DensityTable(grid, np.array([0.0, 0.3, 0.5, 0.5, 0.3, 0.0]),
                           (-1.0, 1.0), (0.5, 0.5), None)
        x = np.array([-0.95, -0.7, 0.1, 0.99])
        phi = np.sqrt((x + 1.0) * (1.0 - x))
        rows = grid[1:-1]
        q = tab.values[1:-1] / np.sqrt((rows + 1.0) * (1.0 - rows))
        assert np.allclose(tab.density(x), np.interp(x, rows, q) * phi,
                           rtol=1e-14, atol=0.0)
        h = 1e-6
        slope = (tab.density(x + h) - tab.density(x - h)) / (2.0 * h)
        assert np.allclose(tab._slope(x), slope, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("orders,rows", [
        ((0.5, 0.5), 41), ((-0.5, -0.5), 41), ((None, None), 41),
        ((0.5, None), 41), ((0.0, 1.5), 41), ((0.5, 0.5), 5)])
    def test_density_is_the_edge_factor_product(self, orders, rows):
        # q(x) * (x - a)^alpha_l * (b - x)^alpha_r, each factor taken only
        # for a nonzero order, clipped at 0: bit for bit, at and past the
        # support's ends as well
        a, b = -1.25, 1.5
        grid = np.linspace(a, b, rows + 2)[1:-1]
        phi = np.ones_like(grid)
        for side, order in zip((grid - a, b - grid), orders):
            phi = phi * side ** (order or 0.0)
        tab = DensityTable(grid, (1.0 + 0.3 * grid) * phi, (a, b), orders,
                           None)
        x = np.concatenate(([a - 0.5, a, np.nextafter(a, b)],
                            np.linspace(a, b, 23)[1:-1],
                            [np.nextafter(b, a), b, b + 0.5]))
        want = np.zeros_like(x)
        inside = (x >= a) & (x <= b)
        xi = x[inside]
        factor = np.ones_like(xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            if orders[0]:
                factor = factor * np.maximum(xi - a, 0.0) ** orders[0]
            if orders[1]:
                factor = factor * np.maximum(b - xi, 0.0) ** orders[1]
        want[inside] = np.maximum(
            np.asarray(tab._reduced_spline()(xi), dtype=float) * factor, 0.0)
        assert tab.density(x).tobytes() == want.tobytes()
        assert tab.density(np.array([a - 1.0, b + 1.0])).tobytes() \
            == np.zeros(2).tobytes()

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


def _spline_grid(kind: str, rows: int) -> np.ndarray:
    """Knots on [-1.5, 2.5]: equally spaced, the Chebyshev roots (route 2's
    table grid), or spacings drawn between half and one and a half times
    their mean."""
    if kind == "uniform":
        return np.linspace(-1.5, 2.5, rows)
    if kind == "chebyshev":
        return 0.5 - 2.0 * np.cos(np.pi * (np.arange(rows) + 0.5) / rows)
    steps = np.random.default_rng(rows).uniform(0.5, 1.5, rows - 1)
    return -1.5 + 4.0 / rows * np.concatenate(([0.0], np.cumsum(steps)))


class TestNotAKnotSpline:
    """The table's spline against scipy's CubicSpline with not-a-knot ends,
    values and first derivative, between and on the knots and two end
    spacings past each end knot, to a few rounding units of the largest
    value (of the derivative) there.  Where the two differ most (9 random
    knots: 11 and 18 units), the slopes at the knots are the nearer of the
    two to the exact rational solution of the same system."""

    @pytest.mark.parametrize("kind", ["uniform", "chebyshev", "random"])
    @pytest.mark.parametrize("rows", [8, 9, 17, 401, 801, 1401])
    def test_matches_cubic_spline(self, kind, rows):
        x = _spline_grid(kind, rows)
        y = 4.0 + 3.0 * np.exp(-x * x) * np.cos(3.0 * x) + 0.5 * x
        want = CubicSpline(x, y, bc_type="not-a-knot", extrapolate=True)
        got = _NotAKnotSpline(x, y)
        t = np.concatenate((
            np.linspace(x[0] - 2.0 * (x[1] - x[0]), x[0], 50),
            np.linspace(x[0], x[-1], 2001), x,
            np.linspace(x[-1], x[-1] + 2.0 * (x[-1] - x[-2]), 50)))
        eps = np.finfo(float).eps
        for nu, units in ((0, 16), (1, 32)):
            ref = want(t, nu)
            assert np.max(np.abs(got(t, nu) - ref)) \
                <= units * eps * np.max(np.abs(ref))

    def test_table_density_is_the_spline_product(self):
        # a route-2 style table: Chebyshev roots inside (a, b), square-root
        # edges, read at 4,001 points of its support and at its nodes
        a, b = -2.0, 2.0
        x = 2.0 * np.cos(np.pi * (np.arange(801) + 0.5) / 801)[::-1]
        tab = build_table(x, semicircle_density(x) * (1.0 + 0.1 * x),
                          support=(a, b), edge_orders=(0.5, 0.5),
                          expected_mass=None)
        phi = np.sqrt((x - a) * (b - x))
        q = CubicSpline(x, tab.values / phi, bc_type="not-a-knot",
                        extrapolate=True)
        probe = np.linspace(a, b, 4001)
        want = np.maximum(q(probe) * np.sqrt((probe - a) * (b - probe)), 0.0)
        assert np.max(np.abs(tab.density(probe) - want)) \
            <= 1e-14 * np.max(want)
        assert isinstance(tab._reduced_spline(), _NotAKnotSpline)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", sorted(GAUSS_LEGENDRE_REFERENCE))
    def test_against_mpmath_and_numpy(self, n):
        x, w = _leggauss(n)
        for i, x_ref, w_ref in GAUSS_LEGENDRE_REFERENCE[n]:
            # an exact decimal difference: float(x_ref) alone rounds by up
            # to 5.6e-17
            err = abs(Decimal(float(x[i])) - Decimal(x_ref))
            assert err <= Decimal("1.1e-16")
            # past 0.99 a node's rounding moves its weight by up to ~1e-9
            bound = 5e-14 if abs(x[i]) <= 0.99 else 1e-9
            assert abs(w[i] / float(w_ref) - 1.0) < bound
        # numpy's nodes (an eigensolve, then one Newton step) agree to about
        # one ulp; its weights and moments do not (test_rule_at_4096)
        np.testing.assert_allclose(x, np.polynomial.legendre.leggauss(n)[0],
                                   rtol=0.0, atol=2.3e-16)

    def test_rule_at_4096(self):
        x, w = _leggauss(4096)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert w.sum() == pytest.approx(2.0, abs=1e-15)
        # exact for degree <= 8191
        for k in range(21):
            assert abs(np.dot(w, x ** (2 * k)) - 2.0 / (2 * k + 1)) < 2e-15

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
        {"atoms": [{"x": "a", "w": 0.5}, {"x": 1.0, "w": 0.5}]},
        {"atoms": [{"x": 0.0, "w": None}]},
        {"atoms": 5},
        {"density": {"family": "uniform", "params": {"a": "x", "b": 1}}},
        {"density": {"family": "semicircle", "params": {"variance": None}}},
        {"density": {"family": "semicircle", "params": {"variance": "1"}}},
        {"density": {"family": ["uniform"], "params": {}}},
        {"density": {"table": [[-1.0, 0.5], [0.0, "a"], [1.0, 0.5]]}},
        {"density": {"table": [[-1.0, 0.5], [0.0], [1.0, 0.5]]}},
        {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}],
         "standardize": "no"},
    ])
    def test_rejects_invalid_specs(self, spec):
        with pytest.raises(InvalidSpecError):
            make_measure(spec)

    @pytest.mark.parametrize("density,message", [
        ({"family": "lorentz"}, "unknown density family 'lorentz'"),
        ({"family": "uniform", "params": {"a": -1.0, "b": 1.0, "c": 0.0}},
         "unknown uniform params: ['c']"),
        ({"family": "semicircle", "params": {"center": 0.0}},
         "missing density param 'variance'"),
        ({"family": "arcsine", "params": {}}, "missing density param 'a'")])
    def test_family_spec_messages(self, density, message):
        with pytest.raises(InvalidSpecError) as info:
            make_measure({"density": density})
        assert str(info.value) == message

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

    @pytest.mark.parametrize("density,standard,params", [
        ({"family": "semicircle", "params": {"variance": 2.0, "center": 0.5}},
         SEMICIRCLE_SPEC, {"variance": 1.0, "center": 0.0}),
        ({"family": "arcsine", "params": {"a": 0.0, "b": 3.0}},
         ARCSINE_SPEC, {"a": -SQRT2, "b": SQRT2}),
        ({"family": "uniform", "params": {"a": 1.0, "b": 4.0}},
         UNIFORM_SPEC, {"a": -math.sqrt(3.0), "b": math.sqrt(3.0)}),
    ])
    def test_standardize_keeps_family(self, density, standard, params):
        m = make_measure({"density": density, "standardize": True})
        ref = make_measure(standard)
        assert type(m.ac) is type(ref.ac)
        assert abs(m.mean()) <= 1e-15
        assert abs(m.variance() - 1.0) <= 1e-14
        for name, value in params.items():
            assert getattr(m.ac, name) == pytest.approx(value, abs=1e-14)
        x = np.linspace(-2.5, 2.5, 1001)
        np.testing.assert_allclose(clt_density_flow(m, 4).density(x),
                                   clt_density_flow(ref, 4).density(x),
                                   rtol=0.0, atol=1e-12)

    def test_standardize_point_mass_degenerate(self):
        delta = make_measure({"atoms": [{"x": 2.0, "w": 1.0}]})
        with pytest.raises(DegenerateMeasureError):
            standardize(delta)
