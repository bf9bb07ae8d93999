"""Inputs past what the numbers can carry are refused as thermolab errors.

Counted level tables past N of about 1030 would hold class counts beyond
the float range: ``NumericRangeError`` naming N, not a raw OverflowError. A
kink step under 2**-26 * max(1, |theta_c|) cannot move the variational
pressure past its roundoff and would read a kink as no kink: UsageError, and
``diff-test`` exits 2 before it builds its curve and writes nothing.
"""

import numpy as np
import pytest

import thermolab.cli as cli
from thermolab import ErgodicFamily, ModelSpec, NumericRangeError, UsageError, pressure_limit
from thermolab.cli import main
from thermolab.completeness import mean_field_pressure, pressure_slope_gap
from thermolab.lattice import _counted_levels

KINDS = [(ModelSpec("curie_weiss", J=1.0), [1.0, 0.0]), (ModelSpec("free_spins"), [1.0])]


class TestCountedLevelsPastTheFloatRange:
    @pytest.mark.parametrize("spec, theta", KINDS, ids=["curie_weiss", "free_spins"])
    def test_pressure_limit_names_the_size(self, spec, theta):
        with pytest.raises(NumericRangeError, match="N = 1100 "):
            pressure_limit(spec, theta, [1100, 1101, 1102], cap=2**2000)

    @pytest.mark.parametrize("spec, theta", KINDS, ids=["curie_weiss", "free_spins"])
    def test_last_size_in_range_still_counts(self, spec, theta):
        rows, log_mult = _counted_levels(spec, 1029)
        assert np.all(np.isfinite(log_mult))
        with pytest.raises(NumericRangeError, match="N = 1030 "):
            _counted_levels(spec, 1030)


def curie_weiss():
    return ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))


class TestKinkStepFloor:
    @pytest.mark.parametrize("theta, step", [
        ([3.0, 0.0], 1e-17), ([3.0, 0.0], 1e-8), ([3.0, 100.0], 1e-6), ([3.0, -100.0], 1e-6),
    ])
    def test_step_under_the_floor_is_refused(self, theta, step):
        with pytest.raises(UsageError, match=repr(step)):
            pressure_slope_gap(curie_weiss(), theta, component=1, step=step)

    @pytest.mark.parametrize("theta, step", [
        ([3.0, 0.0], 2.0**-26), ([3.0, 0.0], 1e-4), ([3.0, 100.0], 100.0 * 2.0**-26),
        ([3.0, -0.5], 2.0**-26),
    ])
    def test_steps_at_or_over_the_floor_keep_the_quotients(self, theta, step):
        family = curie_weiss()
        gap = pressure_slope_gap(family, theta, component=1, step=step)
        center = mean_field_pressure(family, theta)
        plus = mean_field_pressure(family, [theta[0], theta[1] + step])
        minus = mean_field_pressure(family, [theta[0], theta[1] - step])
        assert gap.right == (plus - center) / step
        assert gap.left == (center - minus) / step

    def test_kink_at_zero_field_reads_twice_the_magnetization(self):
        assert pressure_slope_gap(curie_weiss(), [3.0, 0.0], step=1e-4).gap > 1.9

    def test_diff_test_exits_2_before_the_curve(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built the entropy curve")

        monkeypatch.setattr(cli, "entropy_curve", refuse)
        cfg = tmp_path / "d.cfg"
        cfg.write_text("model = curie_weiss\nJ = 1.0\nh = 0.0\ntheta0 = 3.0\n"
                       "kink_step = 1e-17\n")
        out = tmp_path / "out"
        assert main(["diff-test", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("thermolab: error: ")
        assert "1e-17" in err
        assert not out.exists()
