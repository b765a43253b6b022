"""End-to-end powers of seeds with an absolutely continuous part: the uniform
and arcsine families, the atom + table mixture, and two constant tables with
atoms outside them.

Each power is gated at the moment tolerances of acceptance criterion 12 and
at the support containment bound, and the powers of the families and the
mixture at the maximum-entropy bound.  The uniform and arcsine powers also
go through the subordination route and are gated at the cross-route bound
of criterion 06 against the flow route; the mixture stays flow-only, because
the subordination route takes 20 to 50 s per power of a table seed.
"""

import pytest

from freeclt import (
    CHI_SEMICIRCLE,
    TOL_CHI,
    clt_density_flow,
    clt_density_subordination,
    free_entropy,
    make_measure,
    support_check,
)
from freeclt.pipeline import _compare_densities

from conftest import INNER_OUTER_ATOM_SPEC, OUTER_ATOM_SPEC


@pytest.fixture(scope="module")
def ac_seeds(uniform, arcsine, mixture):
    return {"uniform": uniform, "arcsine": arcsine, "mixture": mixture}


@pytest.fixture(scope="module")
def ac_powers(ac_seeds):
    return {(name, n): clt_density_flow(mu, n)
            for name, mu in ac_seeds.items() for n in (4, 64)}


@pytest.fixture(scope="module")
def table_atom_seeds():
    return {"outer_atom": make_measure(OUTER_ATOM_SPEC),
            "inner_outer_atoms": make_measure(INNER_OUTER_ATOM_SPEC)}


def _assert_moments(dens):
    assert abs(dens.mass - 1.0) < 1e-8
    assert abs(dens.mean) < 1e-8
    assert abs(dens.variance - 1.0) < 1e-7


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("seed", ["uniform", "arcsine", "mixture"])
def test_flow_power_of_ac_seed(ac_seeds, ac_powers, seed, n):
    dens = ac_powers[(seed, n)]
    assert dens.path == "flow"
    assert dens.atoms == ()  # the mixture's atom (w = 0.2) dies at n >= 2
    _assert_moments(dens)
    assert support_check(dens, ac_seeds[seed])["ok"]
    chi = free_entropy(dens.tables).value
    assert chi <= CHI_SEMICIRCLE + TOL_CHI


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("seed", ["uniform", "arcsine"])
def test_subordination_power_of_ac_seed(ac_seeds, ac_powers, seed, n):
    dens = clt_density_subordination(ac_seeds[seed], n)
    assert dens.path == "subordination"
    assert dens.atoms == ()
    _assert_moments(dens)
    assert support_check(dens, ac_seeds[seed])["ok"]
    assert _compare_densities(ac_powers[(seed, n)], dens)["sup_diff"] < 5e-4


@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("seed", ["outer_atom", "inner_outer_atoms"])
def test_flow_power_of_table_seed_with_outer_atoms(table_atom_seeds, seed, n):
    # the companion carries atoms off the seed's support; every seed atom
    # (w <= 0.2) dies at n >= 2
    mu = table_atom_seeds[seed]
    dens = clt_density_flow(mu, n)
    assert dens.path == "flow"
    assert dens.atoms == ()
    _assert_moments(dens)
    assert support_check(dens, mu)["ok"]
