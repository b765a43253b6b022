"""Closed forms, frozen pins and tolerances that judge the benchmark's outputs.

Every value here mirrors one the repository's test suite already enforces
(`tests/conftest.py`, `tests/test_acceptance.py`, `tests/test_functionals.py`,
`tests/test_cli.py`).  They are copied rather than imported so that the
benchmark keeps running unchanged while the test suite is refactored; the
benchmark's self-tests check that the copies still agree with the suite.
"""

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# tolerances, each with the test that enforces it
TOL_CROSS_ROUTE = 5e-4   # criterion 06: sup |p_flow - p_sub| on a probe grid
TOL_MASS = 1e-8          # criterion 12: |mass - 1|
TOL_MEAN = 1e-8          # criterion 12: |mean|
TOL_VAR = 1e-7           # criterion 12: |variance - 1|
TOL_KESTEN = 1e-8        # criterion 03 and the CLI CSV oracle test
TOL_SEMICIRCLE_SUP = 1e-4  # criterion 05: semicircle seed powers
TOL_PIN = 1.5e-6         # six-decimal pins of report rows (sup, L^p, Phi)

COIN_SPEC = {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}
ASYM_SPEC = {"atoms": [{"x": -SQRT2, "w": 1.0 / 3.0},
                       {"x": 1.0 / SQRT2, "w": 2.0 / 3.0}]}


def kesten_density(x, m):
    """Normalized m-th power of the fair coin, m >= 2 (closed form)."""
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


def kesten_grid(m):
    """Interior grid on which criterion 03 compares a power with the oracle."""
    edge = 2.0 * math.sqrt((m - 1.0) / m)
    return np.linspace(-(edge - 0.05), edge - 0.05, 1201)


def kesten_fisher(m):
    if m <= 2:
        return math.inf
    return (m - 1.0) ** 2 / (m * (m - 2.0))


COIN_PINS = {
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

PINS = {"coin": COIN_PINS, "asym": ASYM_PINS}

# report-row keys gated against the pins; chi is compared but not gated
PIN_KEYS = (("sup", lambda r: r["sup_dist"]),
            ("l06", lambda r: r["lp"]["0.6"]),
            ("l1", lambda r: r["lp"]["1.0"]),
            ("l2", lambda r: r["lp"]["2.0"]),
            ("phi", lambda r: r["phi"]))
