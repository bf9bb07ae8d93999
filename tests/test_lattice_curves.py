"""Lattice pressures and level tables against the mean-field and convex layers.

The phase kink: on Curie-Weiss (J = 1, h = 0) the secant slopes of the
extrapolated lattice pressure across theta_1 = 0, taken from theta_1 in
{-s, 0, s}, differ by the variational pressure's slope gap at the same step
s, to within the bar the two secants inherit from the extrapolation,
(bar + bar)/s each. At s = 0.05 and sizes 100..1000, N s is at least 5, so
the ordered gap (theta_0 = 2.0, near 2 m*), the near-critical one and the
disordered one (of order s) are all resolved.

Any family's level table is a sampled entropy: with q = row / N and
s_N(q) = ln(mult) / N, the Legendre-Fenchel conjugate max_l (s_N - theta.q)
is the largest term of the finite-size log partition sum, so
0 <= phi_N(theta) - conjugate <= ln(L) / N for L levels.
"""

import math

import pytest

from thermolab import ErgodicFamily, ModelSpec, build_model, pressure_limit
from thermolab.completeness import pressure_slope_gap
from thermolab.convex import CONCAVE, CurveSamples, conjugate
from thermolab.gibbs import finite_pressure, release_families

STEP = 0.05


@pytest.fixture(autouse=True)
def _drop_families():
    yield
    release_families()


@pytest.mark.parametrize("theta0", [2.0, 1.2, 0.5])
def test_lattice_kink_matches_the_variational_slope_gap(theta0):
    spec = ModelSpec("curie_weiss", J=1.0, h=0.0)
    thetas = [[theta0, -STEP], [theta0, 0.0], [theta0, STEP]]
    minus, center, plus = pressure_limit(spec, thetas, list(range(100, 1001, 100)),
                                         fit="affine", cap=2**2000)
    left = (center.value - minus.value) / STEP
    right = (plus.value - center.value) / STEP
    bar = ((minus.extrapolation_error + center.extrapolation_error) / STEP
           + (center.extrapolation_error + plus.extrapolation_error) / STEP)
    reference = pressure_slope_gap(ErgodicFamily(spec), (theta0, 0.0), step=STEP).gap
    assert abs((right - left) - reference) <= bar
    # the bar is informative: well below the gap wherever the gap is order one
    assert bar < 0.1


CASES = [
    (ModelSpec("ising_chain", J=1.0, h=0.3), 12),
    (ModelSpec("ising_chain", J=-0.7, h=0.2, boundary="open"), 11),
    (ModelSpec("curie_weiss", J=1.0, h=0.1), 14),
    (ModelSpec("free_spins"), 14),
    (ModelSpec("transverse_ising_chain", J=1.0, hx=0.5, boundary="open"), 8),
]


@pytest.mark.parametrize("spec, n", CASES, ids=[f"{s.kind}-{s.boundary}-{n}" for s, n in CASES])
@pytest.mark.parametrize("theta", [(1.0, 0.2), (0.5, -0.3)], ids=str)
def test_conjugate_of_the_level_entropy_bounds_the_pressure(spec, n, theta):
    family = build_model(spec, spec.region(n))
    rows, log_mult = family.levels()
    curve = CurveSamples(rows / n, log_mult / n, CONCAVE)
    th = list(theta[:family.n_observables])
    gap = finite_pressure(family, th) - conjugate(curve, th)
    assert 0.0 <= gap <= math.log(len(log_mult)) / n
