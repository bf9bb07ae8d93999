"""The affine fit's error bar covers the actual error on the closed form.

On the periodic ising_chain the infinite-volume pressure is the log of the
transfer matrix's top eigenvalue. Over J, h, three size sets and 14 theta,
the reported ``extrapolation_error`` of an affine fit must be at least
``|value - ising_log_lambda_plus|``. Before the fit added the roundoff its
intercept inherits, 15 of these 378 cases reported up to 9e-16 too little.
"""

import itertools

import numpy as np
import pytest

from oracles import ising_log_lambda_plus
import thermolab.gibbs as gibbs
from thermolab import ModelSpec, pressure_limit

THETAS = [(t0, t1) for t0 in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0) for t1 in (0.4, -0.3)]
SIZES = {"4..14": list(range(4, 15)), "6..14-step-2": list(range(6, 15, 2)),
         "8..14-step-2": list(range(8, 15, 2))}


@pytest.mark.parametrize("sizes", SIZES.values(), ids=SIZES.keys())
@pytest.mark.parametrize("j, h", list(itertools.product((0.5, 1.0, 1.5), (0.0, 0.3, 0.7))))
def test_affine_error_covers_oracle_distance(j, h, sizes):
    spec = ModelSpec("ising_chain", J=j, h=h)
    gibbs.release_families()
    try:
        estimates = pressure_limit(spec, np.array(THETAS), sizes, fit="affine")
    finally:
        gibbs.release_families()
    short = []
    for (t0, t1), est in zip(THETAS, estimates):
        actual = abs(est.value - ising_log_lambda_plus(t0, j, h - t1 / t0))
        if not est.extrapolation_error >= actual:
            short.append(((t0, t1), actual, est.extrapolation_error))
    assert short == []


def test_reported_case_from_the_bar_shortfall():
    # J = 0.5, h = 0.3, sizes 6..14 step 2, theta = (0.1, 0.4): actual error
    # 9.59405222e-10, reported 9.59405111e-10 before the roundoff term
    est = pressure_limit(ModelSpec("ising_chain", J=0.5, h=0.3), [0.1, 0.4],
                         list(range(6, 15, 2)), fit="affine")
    actual = abs(est.value - ising_log_lambda_plus(0.1, 0.5, 0.3 - 0.4 / 0.1))
    assert actual <= est.extrapolation_error <= actual + 1e-14
