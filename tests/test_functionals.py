"""Unit tests for distances, entropy, Fisher information, and reports.

Functional values are checked against closed forms where they exist
(semicircle, arcsine, uniform, the Kesten-type Fisher formula) and against
frozen pins computed from closed-form oracle tables otherwise.
"""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from freeclt import (
    CHI_SEMICIRCLE,
    ArcsineFamily,
    ExtendedReal,
    InvalidArgumentError,
    QuadratureError,
    SemicircleFamily,
    UniformFamily,
    build_table,
    clt_density_flow,
    clt_density_subordination,
    convergence_report,
    free_entropy,
    free_fisher,
    functionals,
    log_sobolev_gap,
    lp_distance,
    make_measure,
    report_row,
    sup_distance,
)
from freeclt.transforms import _brentq_lanes

from conftest import (
    ARCSINE_SPEC,
    ASYM_CHI_REFERENCE,
    ASYM_SPEC,
    BERNOULLI_PINS,
    BERNOULLI_SPEC,
    CHI_ARCSINE,
    CHI_UNIFORM_STD,
    FOUR_GAP_SPEC,
    MIXTURE_SPEC,
    PHI_UNIFORM_STD,
    SEMICIRCLE_SPEC,
    SQRT2,
    UNIFORM_SPEC,
    kesten_density,
    kesten_fisher,
    substitution_log_energy,
)


# ||p_m - p_semicircle||_p for the normalized m-th power of the fair coin,
# independent of the package: mpmath at 40 digits on the closed form
# (conftest.kesten_density), symmetric, so twice the integral over [0, 2];
# mpmath.quad (tanh-sinh, maxdegree 12) on pieces split at the support edge
# 2 sqrt((m-1)/m) and at the two sign changes of the difference on
# (0, 2 sqrt((m-1)/m)), found by a 4000-point scan refined with
# mpmath.findroot.  At 60 digits and maxdegree 16 the same 20 digits result.
KESTEN_LP_REFERENCE = {
    4: {0.6: 0.47655211675200294029, 1.0: 0.21222970985171703598,
        2.0: 0.13068222855262807724},
    16: {0.6: 0.093486090896014956852, 1.0: 0.04245387284123661965,
         2.0: 0.029887556610875358225},
    64: {0.6: 0.02194528765266680146, 1.0: 0.010105277798276076161,
         2.0: 0.0081363778970027736375},
}

# mean 0, variance 1; the atom at 1/3 survives every power n < 10
ATOM_HEAVY_SPEC = {"atoms": [{"x": -3.0, "w": 0.1},
                             {"x": 1.0 / 3.0, "w": 0.9}]}


# seeds whose flow-route powers gate free_entropy against
# substitution_log_energy: both coins (the fair coin's n = 2 power has -1/2
# edges), the seeds with an ac part, and a seed whose n = 2 power has three
# intervals
ORACLE_SPECS = {"coin": BERNOULLI_SPEC, "asym": ASYM_SPEC,
                "uniform": UNIFORM_SPEC, "arcsine": ARCSINE_SPEC,
                "semicircle": SEMICIRCLE_SPEC, "mixture": MIXTURE_SPEC,
                "four_gap": FOUR_GAP_SPEC}
ORACLE_POWERS = (
    [(seed, n) for seed in ("coin", "asym") for n in (2, 4, 16, 64)]
    + [(seed, n) for seed in ("uniform", "arcsine", "semicircle", "mixture")
       for n in (4, 64)]
    + [("four_gap", n) for n in (2, 3, 4)])


@functools.lru_cache(maxsize=None)
def flow_power(seed, n):
    """Flow-route power of an ORACLE_SPECS seed, computed once."""
    return clt_density_flow(make_measure(ORACLE_SPECS[seed]), n)


def kesten_table(m, points=3001):
    """Closed-form oracle table for the normalized m-th two-atom power."""
    t = (m - 1.0) / m
    edge = 2.0 * math.sqrt(t)
    x = np.linspace(-edge, edge, points)
    return build_table(x, kesten_density(x, m), support=(-edge, edge),
                       edge_orders=(0.5, 0.5), expected_mass=1.0)


@pytest.fixture(scope="module")
def semicircle_table():
    return SemicircleFamily(1.0).to_table(3001)


@pytest.fixture(scope="module")
def arcsine_table():
    return ArcsineFamily(-SQRT2, SQRT2).to_table(3001)


@pytest.fixture(scope="module")
def uniform_table():
    return UniformFamily(-math.sqrt(3.0), math.sqrt(3.0)).to_table(3001)


class TestSupDistance:
    def test_every_exponent_checked_before_any_integral(
            self, semicircle_table, monkeypatch):
        def never(*args):
            raise AssertionError("integrated before every exponent passed")

        monkeypatch.setattr(functionals, "_lp_pieces", never)
        monkeypatch.setattr(functionals, "_gk21_integrals", never)
        # p = inf is the sup distance, which no integral of |difference|^p
        # gives: the integral's 1/p-th root would read 1 or 0
        for ps in [(1.0, 0.5), (0.4, 2.0), (2.0, 1.0, math.nan),
                   (2.0, math.inf)]:
            with pytest.raises(InvalidArgumentError):
                lp_distance(semicircle_table, *ps)
            with pytest.raises(InvalidArgumentError):
                lp_distance([(semicircle_table,)] * 2, *ps)

    def test_one_call_for_many_powers_and_exponents(self):
        # divergent and finite values side by side, each bit for bit the
        # value of its own call
        powers = [flow_power("coin", n) for n in (2, 4, 16)]
        ps = (0.6, 1.0, 2.0)
        want = [[lp_distance(dens, p) for p in ps] for dens in powers]
        assert want[0][2] == math.inf
        assert lp_distance(powers, *ps) == want
        assert lp_distance(powers[1], *ps) == want[1]
        assert lp_distance(powers[1].tables, 2.0) == want[1][2]

    @pytest.mark.parametrize("seed", ["coin", "asym", "mixture"])
    def test_repeated_and_unordered_exponents(self, seed):
        # an exponent given twice, and out of order, is integrated as often
        # as it is given, each value bit for bit that of its own call
        powers = [flow_power(seed, n) for n in (2, 4, 64)]
        ps = (2.0, 0.6, 2.0)
        want = [[lp_distance(dens, p) for p in ps] for dens in powers]
        assert lp_distance(powers, *ps) == want

    @pytest.mark.parametrize("spec", [BERNOULLI_SPEC, ASYM_SPEC],
                             ids=["coin", "asym"])
    def test_one_difference_per_power_per_level(self, spec, monkeypatch):
        # a report's L^p pass evaluates each power's difference at most
        # once per refinement level, for all of its exponents together
        real_rule = functionals._gk21_rule
        real_diff = functionals._diff_reference
        levels = []
        inside = [False]

        def rule(f, owner, lo, hi):
            levels.append([])
            inside[0] = True
            try:
                return real_rule(f, owner, lo, hi)
            finally:
                inside[0] = False

        def diff(tables, x):
            if inside[0]:
                levels[-1].append(id(tables))
            return real_diff(tables, x)

        monkeypatch.setattr(functionals, "_gk21_rule", rule)
        monkeypatch.setattr(functionals, "_diff_reference", diff)
        convergence_report(make_measure(spec), (4, 8, 16, 32, 64))
        assert levels
        for calls in levels:
            assert 0 < len(calls) == len(set(calls)) <= 5

    def test_distance_to_itself_vanishes(self, semicircle_table):
        assert sup_distance(semicircle_table) < 1e-10

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_kesten_closed_form(self, m):
        # the supremum sits at the power's support edge 2 sqrt(t), where its
        # density vanishes and the semicircle density equals 1/(pi sqrt(m))
        val = sup_distance(kesten_table(m))
        assert val == pytest.approx(1.0 / (math.pi * math.sqrt(m)),
                                    abs=1e-10)

    def test_flag_reports_singular_edges(self, arcsine_table,
                                         semicircle_table):
        assert functionals._has_singular_edge((arcsine_table,)) is True
        assert functionals._has_singular_edge((semicircle_table,)) is False


class TestLpDistance:
    def test_rejects_small_exponent(self, semicircle_table):
        with pytest.raises(InvalidArgumentError):
            lp_distance(semicircle_table, 0.5)

    def test_distance_to_itself_vanishes(self, semicircle_table):
        assert lp_distance(semicircle_table, 1.0) < 1e-8

    @pytest.mark.parametrize("m,key,p", [
        (4, "l1", 1.0), (4, "l06", 0.6), (4, "l2", 2.0),
        (16, "l1", 1.0), (16, "l06", 0.6), (16, "l2", 2.0),
        (64, "l1", 1.0), (64, "l06", 0.6), (64, "l2", 2.0),
    ])
    def test_kesten_pins(self, m, key, p):
        assert lp_distance(kesten_table(m), p) == pytest.approx(
            BERNOULLI_PINS[m][key], abs=1.5e-6)

    @pytest.mark.parametrize("m", [4, 16, 64])
    @pytest.mark.parametrize("p", [0.6, 1.0, 2.0])
    def test_kesten_against_mpmath_reference(self, m, p):
        assert lp_distance(kesten_table(m), p) == pytest.approx(
            KESTEN_LP_REFERENCE[m][p], abs=1e-10)

    @pytest.mark.parametrize("n", [4, 64])
    def test_rounding_noise_is_not_cut(self, n):
        # the semicircle seed's power is the semicircle to rounding, so the
        # sign changes of the difference are noise: the pieces are the panel
        # halves alone, each end a support end or +/-2
        tables = tuple(flow_power("semicircle", n).tables)
        ends, _, _ = functionals._lp_pieces(tables)
        assert set(ends) <= set(functionals._diff_breakpoints(tables))

    def test_divergence_probe_on_singular_edge(self, arcsine_table):
        # the arcsine edge exponent is -1/2, so |diff|^2 ~ d^-1 diverges
        assert lp_distance(arcsine_table, 2.0) == math.inf
        # while p = 1 and p = 0.6 are integrable
        assert math.isfinite(lp_distance(arcsine_table, 1.0))
        assert math.isfinite(lp_distance(arcsine_table, 0.6))


def _scalar_pieces(tables):
    """``_lp_pieces`` with one scalar ``brentq`` per bracket of each panel's
    scan, one panel after another."""
    def diff_at(x):
        return float(functionals._diff_reference(tables, np.array([x]))[0])

    bps = functionals._diff_breakpoints(tables)
    ends, signs, widths = [], [], []
    for lo, hi in zip(bps, bps[1:]):
        if hi - lo < 1e-14:
            continue
        scan = np.linspace(lo, hi, 257)[1:-1]
        dens = functionals._density_sum(tables, scan)
        ref = SemicircleFamily(1.0).density(scan)
        vals = dens - ref
        floor = functionals._LP_CUT_FLOOR * max(np.max(dens), np.max(ref))
        crossing = ((np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
                    & (np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
                       > floor))
        cuts = ([lo] + [brentq(diff_at, scan[i], scan[i + 1], xtol=1e-14)
                        for i in np.nonzero(crossing)[0]] + [hi])
        for a, b in zip(cuts, cuts[1:]):
            if b - a < 1e-14:
                continue
            mid = 0.5 * (a + b)
            for end, sign in ((a, 1.0), (b, -1.0)):
                ends.append(end)
                signs.append(sign)
                widths.append(math.sqrt(abs(mid - end)))
    return tuple(ends), tuple(signs), tuple(widths)


# closed-form brackets for _brentq_lanes: between them they take Brent's
# interpolation, extrapolation and short steps, both kinds of bisection, the
# least step (the tolerance delta), an exact zero and a root at an end
BRENT_BRACKETS = [
    (lambda x: x ** 3 - 2.0, 0.0, 2.0),
    (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.5),
    (lambda x: math.atan(1e4 * (x - 0.123)), -1.0, 1.0),
    (lambda x: math.copysign(1.0, x - 1.0 / 3.0), 0.0, 1.0),
    (lambda x: (x - 0.25) * (x * x + 1.0), 0.0, 1.0),
    (lambda x: math.tanh(50.0 * (x - 0.9)), 0.0, 1.0),
    (lambda x: x ** 9 - 0.5, 0.0, 1.0),
    (lambda x: x - 1.0, 1.0, 2.0),
]


# brentq's (xtol, rtol) of the L^p cuts and of the fold points
CUT_TOLS = (1e-14, 4.0 * float(np.finfo(float).eps))
FOLD_TOLS = (1e-15, 8.9e-16)


def _lanes(g, brackets, tols=CUT_TOLS):
    """``_brentq_lanes`` on g over the (a, b) brackets, with the number of
    points it evaluated g at."""
    points = []

    def f(xs):
        points.extend(xs)
        return [g(x) for x in xs]

    xa, xb = [a for a, _ in brackets], [b for _, b in brackets]
    xtol, rtol = tols
    roots = _brentq_lanes(f, xa, xb, [g(a) for a in xa], [g(b) for b in xb],
                          xtol=xtol, rtol=rtol)
    return roots, len(points)


class TestLpCuts:
    @pytest.mark.parametrize("seed,n", (
        [(seed, n) for seed in ("coin", "asym") for n in (2, 3, 4, 16, 64)]
        + [(seed, n) for seed in ("uniform", "mixture", "semicircle")
           for n in (4, 64)]))
    def test_cuts_are_scalar_brentq(self, seed, n):
        tables = tuple(flow_power(seed, n).tables)
        assert functionals._lp_pieces(tables) == _scalar_pieces(tables)

    def test_brentq_lanes_is_scipy_brentq(self):
        for tols in (CUT_TOLS, FOLD_TOLS):
            for g, a, b in BRENT_BRACKETS:
                root, info = brentq(g, a, b, xtol=tols[0], rtol=tols[1],
                                    full_output=True)
                roots, count = _lanes(g, [(a, b)], tols)
                assert roots == [root]
                assert count == info.function_calls - 2

    def test_brentq_lanes_in_lockstep(self):
        # bracket k moved to k * 10, so that one function holds them all
        # and its lanes run for different numbers of iterations
        def g(x):
            k = round(x / 10.0)
            return BRENT_BRACKETS[k][0](x - 10.0 * k)

        brackets = [(a + 10.0 * k, b + 10.0 * k)
                    for k, (_, a, b) in enumerate(BRENT_BRACKETS)]
        want = [brentq(g, a, b, xtol=1e-14, full_output=True)
                for a, b in brackets]
        roots, count = _lanes(g, brackets)
        assert roots == [root for root, _ in want]
        assert count == sum(info.function_calls - 2 for _, info in want)

    def test_brentq_lanes_raises_as_brentq(self):
        cases = [
            (lambda x: x * x + 1.0, ValueError, "different signs"),
            (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, ValueError,
             "NaN"),
            (lambda x: (x - 0.7) ** 5, RuntimeError, "100 iterations"),
        ]
        for g, error, match in cases:
            with pytest.raises(error, match=match):
                brentq(g, 0.0, 1.0, xtol=1e-14)
            with pytest.raises(error, match=match):
                _lanes(g, [(0.0, 1.0)])

    @pytest.mark.parametrize("seed", ["coin", "asym"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_density_calls(self, monkeypatch, seed, n):
        # one scan of every panel, then one call per Brent iteration
        tables = tuple(flow_power(seed, n).tables)
        calls = []
        density_sum = functionals._density_sum

        def counted(tabs, x):
            calls.append(np.size(x))
            return density_sum(tabs, x)

        monkeypatch.setattr(functionals, "_density_sum", counted)
        functionals._lp_pieces(tables)
        assert len(calls) <= 10

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the scan takes each panel's 255 interior points of a "
               "257-point grid, so a sign change between the last of them "
               "and the panel end is never cut: here one sits 4.5e-3 "
               "inside the power's edge at 1.493453, and L^0.6 is "
               "0.5759101971318381, 9.9e-10 relative off quad's "
               "0.57591019656265 (mpmath tanh-sinh: 0.57591019656245)")
    def test_sign_change_in_a_panels_end_cell(self):
        # the 7th draw of a seeded three-atom law, at n = 4
        spec = {"atoms": [{"x": -1.448073719815931, "w": 0.18607726731404217},
                          {"x": -1.057609204463697, "w": 0.20272732769154178},
                          {"x": 0.7916615283126216, "w": 0.611195404994416}]}
        tables = tuple(clt_density_flow(make_measure(spec), 4).tables)

        def diff(x):
            return abs(float(functionals._diff_reference(
                tables, np.array([x]))[0]))

        # quad on every cut of a 40,001-point scan of each panel
        total = 0.0
        bps = functionals._diff_breakpoints(tables)
        for lo, hi in zip(bps, bps[1:]):
            xs = np.linspace(lo, hi, 40001)
            vals = functionals._diff_reference(tables, xs)
            change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
            cuts = ([lo] + [brentq(lambda x: float(functionals._diff_reference(
                tables, np.array([x]))[0]), xs[i], xs[i + 1], xtol=1e-15)
                for i in change] + [hi])
            for a, b in zip(cuts, cuts[1:]):
                total += quad(lambda x: diff(x) ** 0.6, a, b, epsabs=0.0,
                              epsrel=1e-12, limit=200)[0]
        assert lp_distance(tables, 0.6) == pytest.approx(
            total ** (1.0 / 0.6), rel=1e-10, abs=0.0)

    @pytest.mark.xfail(
        strict=True, raises=QuadratureError,
        reason="after x = end +/- s^2 the integrand behaves like s^(1 - p) "
               "at a -1/2 edge, and 200 Gauss-Kronrod bisections cannot "
               "bring its error under 1e-8 + 1e-6 |value| for p in "
               "[1.25, 2): the distance exists, as p * alpha = -0.75 > -1")
    @pytest.mark.parametrize("route", [clt_density_flow,
                                       clt_density_subordination])
    def test_finite_at_a_minus_half_edge(self, route):
        dens = route(make_measure(BERNOULLI_SPEC), 2)
        assert [tab.edge_orders for tab in dens.tables] == [(-0.5, -0.5)]
        assert math.isfinite(lp_distance(dens, 1.1))
        assert math.isfinite(lp_distance(dens, 1.5))


class TestGaussKronrod:
    def test_closed_form_integrals(self):
        # int_0^W 2s |s^2 - c|^0.6 ds = int_0^(W^2) |u - c|^0.6 du, with a
        # kink inside for c in (0, W^2); then int_0^W s^1.2 ds
        cs = np.array([0.3, 0.0, -0.5, 1.0])
        widths = np.array([1.0, 1.3, 0.7, 1.2])

        def kinked(owner, s):
            return 2.0 * s * np.abs(s * s - cs[owner][:, None]) ** 0.6

        val, _ = functionals._gk21_integrals(kinked, widths)
        exact = [(math.copysign(abs(top - c) ** 1.6, top - c)
                  + math.copysign(abs(c) ** 1.6, c)) / 1.6
                 for c, top in zip(cs, widths ** 2)]
        np.testing.assert_allclose(val, exact, rtol=0.0, atol=1e-12)

        widths = np.array([1.0, 2.5])
        val, _ = functionals._gk21_integrals(lambda owner, s: s ** 1.2,
                                             widths)
        np.testing.assert_allclose(val, widths ** 2.2 / 2.2, rtol=0.0,
                                   atol=1e-12)

    def test_exhausted_budget_raises(self, arcsine_table, monkeypatch):
        # |diff|^0.6 at the arcsine edge is 2 s^0.4 after the substitution:
        # one GK21 interval per panel end cannot resolve it
        monkeypatch.setattr(functionals, "_GK_LIMIT", 1)
        with pytest.raises(QuadratureError):
            lp_distance(arcsine_table, 0.6)

    def test_budget_caps_subintervals(self, monkeypatch):
        # an integrand no budget resolves: each integral stops at exactly
        # _GK_LIMIT subintervals, one initial and two per bisection
        monkeypatch.setattr(functionals, "_GK_LIMIT", 5)
        rows = []

        def rough(owner, s):
            rows.append(s.shape[0])
            return np.sin(1e4 * s)

        functionals._gk21_integrals(rough, np.array([1.0, 2.0]))
        assert sum(rows) == 2 * (2 * 5 - 1)

    @pytest.mark.parametrize("source", ["table", "flow_power"])
    def test_semicircle_noise_is_small_and_fast(self, source, semicircle,
                                                semicircle_table, monkeypatch):
        # the difference is rounding noise, which never meets the relative
        # tolerance, so every panel end runs to its subinterval budget and
        # no further: at most 2 * _GK_LIMIT - 1 intervals evaluated, one
        # initial and two per bisection
        if source == "table":
            obj = semicircle_table
        else:
            obj = clt_density_flow(semicircle, 4)
        owners = []
        real = functionals._gk21_rule

        def counted(f, owner, lo, hi):
            owners.append(owner)
            return real(f, owner, lo, hi)

        monkeypatch.setattr(functionals, "_gk21_rule", counted)
        for p in (0.6, 1.0, 2.0):
            owners.clear()
            val = lp_distance(obj, p)
            assert val < 1e-8
            rows = np.bincount(np.concatenate(owners))
            assert rows.max() <= 2 * functionals._GK_LIMIT - 1


class TestFreeEntropy:
    def test_semicircle_attains_maximum(self, semicircle_table):
        chi = free_entropy(semicircle_table)
        assert chi.finite
        assert chi.value == pytest.approx(CHI_SEMICIRCLE, abs=1e-10)

    def test_arcsine_closed_form(self, arcsine_table):
        assert free_entropy(arcsine_table).value == pytest.approx(
            CHI_ARCSINE, abs=1e-10)

    def test_uniform_closed_form(self, uniform_table):
        assert free_entropy(uniform_table).value == pytest.approx(
            CHI_UNIFORM_STD, abs=1e-10)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_kesten_pins(self, m):
        assert free_entropy(kesten_table(m)).value == pytest.approx(
            BERNOULLI_PINS[m]["chi"], abs=1e-8)

    @pytest.mark.parametrize("n", sorted(ASYM_CHI_REFERENCE))
    def test_asymmetric_coin_reference(self, n):
        chi = free_entropy(flow_power("asym", n)).value
        assert chi == pytest.approx(ASYM_CHI_REFERENCE[n], abs=1e-10)

    @pytest.mark.parametrize("seed, n", ORACLE_POWERS)
    def test_matches_substitution_oracle(self, seed, n):
        tables = flow_power(seed, n).tables
        chi = free_entropy(tables).value
        ref = substitution_log_energy(tables) + 0.75 \
            + 0.5 * math.log(2.0 * math.pi)
        assert chi == pytest.approx(ref, abs=5e-9)

    def test_dilation_law(self, semicircle_table):
        base = free_entropy(semicircle_table).value
        for a in (0.5, 2.0):
            moved = free_entropy(semicircle_table.dilated(a)).value
            assert moved - base == pytest.approx(math.log(a), abs=1e-8)

    def test_dilation_law_on_three_tables(self):
        # the log energy of mass m moves by m^2 log a; these tables hold
        # mass 1 - 2e-11 by the energy's own rule, which would show at 3e-11
        tables = flow_power("four_gap", 2).tables
        assert len(tables) == 3
        mass = sum(float(np.sum(t.quad_nodes(functionals._ENERGY_NODES)[1]))
                   for t in tables)
        base = free_entropy(tables).value
        for a in (0.5, 2.0):
            moved = free_entropy([t.dilated(a) for t in tables]).value
            assert moved - base == pytest.approx(mass ** 2 * math.log(a),
                                                 abs=1e-12)

    def test_overlapping_tables_rejected(self, semicircle_table):
        with pytest.raises(InvalidArgumentError):
            free_entropy([semicircle_table, semicircle_table.translated(1.0)])


class TestFreeFisher:
    def test_semicircle_is_unit(self, semicircle_table):
        phi = free_fisher(semicircle_table)
        assert phi.finite
        assert phi.value == pytest.approx(1.0, abs=1e-9)

    def test_uniform_closed_form(self, uniform_table):
        assert free_fisher(uniform_table).value == pytest.approx(
            PHI_UNIFORM_STD, abs=1e-9)

    @pytest.mark.parametrize("m", [3, 4, 16, 64])
    def test_kesten_closed_form(self, m):
        assert free_fisher(kesten_table(m)).value == pytest.approx(
            kesten_fisher(m), abs=1e-8)

    def test_divergent_for_singular_edges(self, arcsine_table):
        phi = free_fisher(arcsine_table)
        assert isinstance(phi, ExtendedReal)
        assert phi.divergent and phi.value == math.inf
        assert phi.diagnosis is not None
        assert float(phi) == math.inf


class TestLogSobolevGap:
    def test_semicircle_gap_vanishes(self, semicircle_table):
        gap = log_sobolev_gap(semicircle_table)
        assert abs(gap.value) < 1e-8

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_kesten_gap_positive_and_pinned(self, m):
        gap = log_sobolev_gap(kesten_table(m)).value
        expect = BERNOULLI_PINS[m]["chi"] - 0.5 * math.log(
            2.0 * math.pi * math.e / BERNOULLI_PINS[m]["phi"])
        assert gap == pytest.approx(expect, abs=1e-7)
        assert gap > 0.0

    def test_vacuous_when_fisher_diverges(self, arcsine_table):
        gap = log_sobolev_gap(arcsine_table)
        assert gap.divergent


class TestReports:
    def test_report_row_contents(self, bernoulli):
        dens = clt_density_flow(bernoulli, 4)
        row = report_row(bernoulli, 4, (1.0,), dens=dens)
        assert row["n"] == 4
        assert set(row) == {"n", "sup_dist", "lp", "chi", "phi", "gap",
                            "flags"}
        assert row["sup_dist"] == pytest.approx(BERNOULLI_PINS[4]["sup"],
                                                abs=1e-8)
        assert row["lp"]["1.0"] == pytest.approx(BERNOULLI_PINS[4]["l1"],
                                                 abs=1.5e-6)
        assert row["flags"] == []

    @pytest.mark.parametrize("n", [4, 64])
    def test_semicircle_seed_row_exact_to_rounding(self, n):
        row = report_row(make_measure(SEMICIRCLE_SPEC), n,
                         dens=flow_power("semicircle", n))
        assert abs(row["chi"] - CHI_SEMICIRCLE) < 1e-14
        assert abs(row["phi"] - 1.0) < 1e-14
        assert all(v < 1e-14 for v in row["lp"].values())

    def test_convergence_report_flags_divergence(self, bernoulli):
        rep = convergence_report(bernoulli, (2, 4), p_list=(1.0, 2.0))
        rows = rep.to_dict()["rows"]
        assert [r["n"] for r in rows] == [2, 4]
        first = rows[0]
        assert "phi_divergent" in first["flags"]
        assert "gap_vacuous" in first["flags"]
        assert "lp_divergent" in first["flags"]
        assert first["lp"]["2.0"] == math.inf
        assert math.isfinite(first["lp"]["1.0"])
        assert rows[1]["flags"] == []

    @pytest.mark.parametrize("spec,n", [(ATOM_HEAVY_SPEC, 4), (ASYM_SPEC, 2)])
    def test_atom_rows_diverge(self, spec, n):
        # a law with an atom has chi = -inf and Phi = +inf; sup and L^p
        # stay finite and are taken over the absolutely continuous part
        row = report_row(make_measure(spec), n, (0.6, 1.0))
        assert row["chi"] == -math.inf
        assert row["phi"] == math.inf
        assert row["gap"] == math.inf
        assert math.isfinite(row["sup_dist"])
        assert all(math.isfinite(v) for v in row["lp"].values())
        assert row["flags"] == ["atoms_excluded", "phi_divergent",
                                "gap_vacuous"]

    def test_a_repeated_exponent_is_integrated_once(self, asym, monkeypatch):
        # each distinct exponent once, in first-occurrence order, which is
        # also the order of the row's keys
        calls = []
        real = functionals.lp_distance

        def counted(obj, *ps):
            calls.append(ps)
            return real(obj, *ps)

        monkeypatch.setattr(functionals, "lp_distance", counted)
        rows = convergence_report(asym, (4, 16), p_list=(2, 0.6, 2)
                                  ).to_dict()["rows"]
        assert calls == [(2.0, 0.6)]
        want = real([clt_density_flow(asym, n) for n in (4, 16)], 2.0, 0.6)
        assert [row["lp"] for row in rows] == [
            {"2.0": l2, "0.6": l06} for l2, l06 in want]

    def test_report_argument_domain(self, bernoulli, monkeypatch):
        def never(*args):
            raise AssertionError("a power computed before the arguments "
                                 "were checked")

        monkeypatch.setattr(functionals, "clt_density_flow", never)
        with pytest.raises(InvalidArgumentError):
            convergence_report(bernoulli, (1, 4))
        for ps in [(0.4,), (math.inf, 600.0), (math.nan,)]:
            with pytest.raises(InvalidArgumentError):
                convergence_report(bernoulli, (2, 4), p_list=ps)
