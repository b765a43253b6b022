"""End-to-end flow-route powers of seeds with an absolutely continuous part:
the uniform and arcsine families and the atom + table mixture.

Each power is gated at the moment tolerances of acceptance criterion 12 and
at the maximum-entropy bound.  Only the flow route is exercised here.
"""

import pytest

from freeclt import CHI_SEMICIRCLE, TOL_CHI, clt_density_flow, free_entropy


@pytest.fixture(scope="module")
def ac_powers(uniform, arcsine, mixture):
    seeds = {"uniform": uniform, "arcsine": arcsine, "mixture": mixture}
    return {(name, n): clt_density_flow(mu, n)
            for name, mu in seeds.items() for n in (4, 64)}


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("seed", ["uniform", "arcsine", "mixture"])
def test_flow_power_of_ac_seed(ac_powers, seed, n):
    dens = ac_powers[(seed, n)]
    assert dens.path == "flow"
    assert dens.atoms == ()  # the mixture's atom (w = 0.2) dies at n >= 2
    assert abs(dens.mass - 1.0) < 1e-8
    assert abs(dens.mean) < 1e-8
    assert abs(dens.variance - 1.0) < 1e-7
    chi = free_entropy(dens.tables).value
    assert chi <= CHI_SEMICIRCLE + TOL_CHI
