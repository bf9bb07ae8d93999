"""The smeared KMS quadrature refuses time grids it could not hold.

A Gaussian width past about 1.3e154 squares to inf rather than raising, and a
quadrature whose half-step grid would exceed ``MAX_RANGE_POINTS`` points (a
huge width, a tiny step) is a UsageError before any table is built.
"""

import math

import pytest

import thermolab.kms as kms
from thermolab import GaussianTestFunction, ModelSpec, UsageError, build_model
from thermolab.cli import main
from thermolab.config import MAX_RANGE_POINTS
from thermolab.kms import kms_smeared_residual, site_pauli


def ising(n):
    spec = ModelSpec("ising_chain", J=1.0, h=0.2)
    return build_model(spec, spec.region(n))


class TestHugeWidths:
    def test_support_radius_is_inf_past_the_float_range(self):
        assert GaussianTestFunction(1e200).support_radius() == math.inf
        assert GaussianTestFunction(1e150).support_radius() < math.inf

    @pytest.mark.parametrize("sigma_w", ["1e200", "1e7"])
    def test_cli_exits_2_with_one_line_and_no_out_dir(self, tmp_path, capsys, sigma_w):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"model = ising_chain\nN = 3\ntheta0 = 1.0\nsigma_w = {sigma_w}\n")
        out = tmp_path / "out"
        assert main(["kms-verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("thermolab: error: ")
        assert str(MAX_RANGE_POINTS) in err
        assert not out.exists()


class TestGridBound:
    def test_tiny_step_is_refused_before_any_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built the residual tables")

        monkeypatch.setattr(kms, "_residual_tables", refuse)
        monkeypatch.setattr(kms, "_smeared_sides", refuse)
        a = site_pauli("x", 0, 3)
        with pytest.raises(UsageError, match="points"):
            kms_smeared_residual(ising(3), [1.0, 0.2], a, a, GaussianTestFunction(2.0),
                                 step=1e-9)

    def test_grid_at_the_bound_runs(self, monkeypatch):
        # 4 t_range / step = MAX_RANGE_POINTS exactly: the largest grid allowed
        calls = []

        def sides(f, w_lhs, w_rhs, freqs, t_range, h):
            calls.append(2.0 * t_range / h)
            return 0j, 0j

        monkeypatch.setattr(kms, "_smeared_sides", sides)
        fam = ising(2)
        a = site_pauli("z", 0, 2)
        f = GaussianTestFunction(2.0)
        assert kms_smeared_residual(fam, [1.0, 0.2], a, a, f, t_range=2.5,
                                    step=10.0 / MAX_RANGE_POINTS) == 0.0
        assert calls == pytest.approx([MAX_RANGE_POINTS / 2, MAX_RANGE_POINTS])
        with pytest.raises(UsageError):
            kms_smeared_residual(fam, [1.0, 0.2], a, a, f, t_range=2.5,
                                 step=9.9 / MAX_RANGE_POINTS)
