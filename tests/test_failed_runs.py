"""Bad inputs end as thermolab errors, and a failed run keeps no memo.

A smearing width below about 0.0265 puts |f(-i)| = e^(1/(2 sigma_w^2)) past
the float range; the smeared sides are then not finite, and a NaN residual
would pass the step-halving test. ``kms_smeared_residual`` raises
NumericRangeError naming sigma_w instead, so ``kms-verify`` exits 2 and
writes nothing. ``run_experiment`` drops the build-once memos (families,
folds, rotations) when its runner ends, on failure as on success. A dense
observable that is not square is refused by its shape before any
elementwise check reads it.
"""

import warnings

import numpy as np
import pytest

import thermolab.cli as cli
import thermolab.gibbs as gibbs
import thermolab.kms as kms
from thermolab import (GaussianTestFunction, ModelSpec, NumericRangeError, ObservableFamily,
                       QuadratureError, Region, UsageError, build_model, kms_smeared_residual,
                       site_pauli)
from thermolab.cli import main

RING = """
model = ising_chain
J = 1
N = 3
theta0 = 1
sigma_w = 0.02
"""
TRANSVERSE = """
model = transverse_ising_chain
J = 1.0
hx = 0.7
boundary = open
N = 5
theta0 = 1.0
times = 0.3
sigma_w = 0.02
"""
OVERFLOW = """
model = ising_chain
J = 1
h = 0.3
theta0 = 1e308
theta1 = 0
sizes = 4,5,6
"""


def ring(n=3):
    spec = ModelSpec("ising_chain", J=1.0)
    return build_model(spec, spec.region(n))


def memo_sizes():
    return (gibbs._family.cache_info().currsize, kms._memo_cross.cache_info().currsize,
            kms._memo_rotation.cache_info().currsize)


class TestSmearingWidthPastTheFloatRange:
    def test_residual_raises_naming_sigma_w_without_warnings(self):
        a, b = site_pauli("x", 0, 3), site_pauli("y", 0, 3)
        try:
            with warnings.catch_warnings(), pytest.raises(NumericRangeError,
                                                          match="sigma_w = 0.02"):
                warnings.simplefilter("error")
                kms_smeared_residual(ring(), [1.0, 0.0], a, b, GaussianTestFunction(0.02))
        finally:
            kms.release_folds()

    def test_just_in_range_the_step_halving_check_still_refuses(self):
        a, b = site_pauli("x", 0, 3), site_pauli("y", 0, 3)
        try:
            with pytest.raises(QuadratureError):
                kms_smeared_residual(ring(), [1.0, 0.0], a, b, GaussianTestFunction(0.0266))
        finally:
            kms.release_folds()

    def test_a_pair_without_cross_weight_still_reads_zero(self):
        a, b = site_pauli("z", 0, 3), site_pauli("x", 0, 3)
        try:
            assert kms_smeared_residual(ring(), [1.0, 0.0], a, b,
                                        GaussianTestFunction(0.02)) == 0.0
        finally:
            kms.release_folds()

    def test_kms_verify_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(RING)
        out = tmp_path / "out"
        assert main(["kms-verify", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "sigma_w = 0.02" in capsys.readouterr().err


class TestFailedRunDropsItsMemos:
    """The memos are filled when the runner fails, and empty once the run ends."""

    @pytest.mark.parametrize("subcommand, text, failing, rotates", [
        ("pressure", OVERFLOW, "pressure_limit", False),
        ("kms-verify", RING, "kms_smeared_residual", False),
        ("kms-verify", TRANSVERSE, "kms_smeared_residual", True),
    ], ids=["pressure-theta-overflow", "kms-ring-small-sigma", "kms-transverse-small-sigma"])
    def test_memos_are_empty_after_the_failure(self, tmp_path, monkeypatch, subcommand,
                                               text, failing, rotates):
        at_failure = []
        inner = getattr(cli, failing)

        def recording(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except NumericRangeError:
                at_failure.append(memo_sizes())
                raise

        monkeypatch.setattr(cli, failing, recording)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert len(at_failure) == 1 and sum(at_failure[0]) > 0
        assert (at_failure[0][2] > 0) == rotates  # a dense family keeps rotations
        assert memo_sizes() == (0, 0, 0)
        assert not (tmp_path / "out").exists()


class TestNonSquareDenseObservable:
    @pytest.mark.parametrize("shape", [(4, 2), (2, 4), (4,), (4, 4, 1)])
    def test_shape_mismatch_is_a_usage_error(self, shape):
        with pytest.raises(UsageError, match="observable shape mismatch"):
            ObservableFamily(Region("single_sites", 2), ("e",), matrices=[np.zeros(shape)])
