"""A kink step too small for the pressure's size is refused.

A difference quotient (phi(theta + s) - phi(theta)) / s carries a roundoff
of about 2 eps max|phi| / s. On Curie-Weiss (J = 1, h = 0, theta_1 = 0) the
pressure grows as theta_0 / 2, so at the default step 1e-4 the quotients at
theta_0 = 1e12 read a gap of 2.44 and at 1e13 a gap of 0.0 ("no kink")
where the true gap is 2. ``pressure_slope_gap`` refuses such a step with a
UsageError naming the step and the pressure, and ``diff-test`` exits 2 and
writes nothing.
"""

import math

import pytest

import thermolab.completeness as completeness
from thermolab import ErgodicFamily, ModelSpec, UsageError
from thermolab.cli import main
from thermolab.completeness import mean_field_pressure, pressure_slope_gap


def curie_weiss():
    return ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))


@pytest.mark.parametrize("theta0", [1e8, 1e12, 1e13])
def test_large_pressure_at_the_default_step_is_refused(theta0):
    with pytest.raises(UsageError, match=r"step 0\.0001 .* pressure of [45]"):
        pressure_slope_gap(curie_weiss(), [theta0, 0.0])


def test_a_step_past_the_roundoff_reads_the_gap():
    # the roundoff bound 2 eps (1e12 / 2) / 1e4 = 2.2e-8 is under the bar
    gap = pressure_slope_gap(curie_weiss(), [1e12, 0.0], step=1e4)
    assert gap.gap == 2.0


@pytest.mark.parametrize("theta, step", [
    ([3.0, 0.0], 2.0**-26), ([3.0, 100.0], 100.0 * 2.0**-26), ([3.0, -0.5], 2.0**-26),
])
def test_floor_steps_stay_under_the_bar(theta, step):
    family = curie_weiss()
    phis = [mean_field_pressure(family, [theta[0], theta[1] + d]) for d in (-step, 0.0, step)]
    bound = 2.0 * math.ulp(1.0) * max(map(abs, phis)) / step
    assert bound < completeness.SLOPE_ROUNDOFF_BAR / 10
    pressure_slope_gap(family, theta, component=1, step=step)


@pytest.mark.parametrize("theta0", ["1e12", "1e13"])
def test_diff_test_exits_2_and_writes_nothing(tmp_path, capsys, theta0):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"model = curie_weiss\nJ = 1.0\nh = 0.0\ntheta0 = {theta0}\n")
    out = tmp_path / "out"
    assert main(["diff-test", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("thermolab: error: ")
    assert "step 0.0001" in err and "pressure of" in err
    assert not out.exists()
