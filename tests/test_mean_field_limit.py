"""The lattice Curie-Weiss model against its mean-field limit.

The complete graph's pressure per site tends to the variational pressure
max_m (eta(m) - theta . q(m)) of ``completeness.mean_field_pressure``, with
corrections of order ln(N)/N from the level multiplicities. So the counted
lattice pressures, extrapolated by the affine fit in 1/N, must land within
their own error bar of the mean-field value: at sizes 100..1000 (past the
default dimension cap, counted levels only) and at sizes 4..14. The levels'
entropies per site sit below eta(m) by at most ln(N + 1)/N, the bound from
binom(N, d) >= 2^(N eta) / (N + 1).
"""

import math

import pytest

from thermolab import ErgodicFamily, ModelSpec, mean_field_pressure, pressure_limit
from thermolab.gibbs import release_families
from thermolab.lattice import _counted_levels

COUPLINGS = [(1.0, 0.1), (1.0, 0.0), (0.5, -0.2)]
THETAS = [(0.5, 0.0), (1.5, 0.0), (2.5, 0.1), (0.8, -0.3)]
SIZE_SETS = {"large": (list(range(100, 1001, 100)), 2**2000),
             "small": (list(range(4, 15)), None)}


@pytest.fixture(autouse=True)
def _drop_families():
    yield
    release_families()


@pytest.mark.parametrize("sizes", SIZE_SETS)
@pytest.mark.parametrize("coupling", COUPLINGS, ids=["J1-h0.1", "J1-h0", "J0.5-h-0.2"])
@pytest.mark.parametrize("theta", THETAS, ids=str)
def test_error_bar_covers_the_mean_field_pressure(sizes, coupling, theta):
    spec = ModelSpec("curie_weiss", J=coupling[0], h=coupling[1])
    ns, cap = SIZE_SETS[sizes]
    kwargs = {} if cap is None else {"cap": cap}
    est = pressure_limit(spec, list(theta), ns, fit="affine", **kwargs)
    actual = abs(est.value - mean_field_pressure(ErgodicFamily(spec), theta))
    assert est.extrapolation_error >= actual


@pytest.mark.parametrize("n", [14, 100, 1000])
def test_level_entropy_is_eta_to_within_log_n_plus_1_over_n(n):
    rows, log_mult = _counted_levels(ModelSpec("curie_weiss", J=1.0), n)
    family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0))
    bound = math.log(n + 1) / n
    for total_sz, log_count in zip(rows[:, 1].tolist(), log_mult.tolist()):
        gap = family.entropy(total_sz / n) - log_count / n
        assert 0.0 <= gap <= bound, (total_sz, gap, bound)
