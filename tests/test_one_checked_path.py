"""Each check has one path, and every caller takes it.

``DensityState`` checks every state's weights (sum 1, none negative, each
within 1e-12), so ``from_matrix``, ``canonical_state`` and
``maximally_mixed`` pass through the same two checks. ``ControlVector``'s
``couplings`` checks theta_0 itself. Every curve grid of two or more columns
takes the pairwise-distinct test, a one-row grid included (it has no gaps).
The closed-form root search scales its coefficients by a power of two that
is capped at 2^1023, so a subnormal coupling reads as the zero coupling
does instead of overflowing the scale.
"""

import inspect

import numpy as np
import pytest

from thermolab import (
    CONCAVE,
    ControlVector,
    CurveSamples,
    DensityState,
    ErgodicFamily,
    InfeasibleConstraintError,
    ModelSpec,
    UsageError,
    build_model,
    canonical_state,
    constrained_entropy_max,
    maximally_mixed,
)
from thermolab.cli import main


class TestDensityStateChecks:
    def test_constructor_has_no_bypass(self):
        assert list(inspect.signature(DensityState).parameters) == ["probabilities", "basis"]

    def test_from_matrix_reads_the_weight_messages(self):
        with pytest.raises(UsageError, match=r"negative weight -0\.5 below -1e-12"):
            DensityState.from_matrix(np.diag([1.5, -0.5]))
        with pytest.raises(UsageError, match=r"trace 1\.2 is not 1 within 1e-12"):
            DensityState.from_matrix(np.diag([0.6, 0.6]))

    @pytest.mark.parametrize("kind, n, boundary, couplings, thetas", [
        ("ising_chain", 10, "periodic", {"J": 1.0, "h": 0.3},
         [[0.0, 0.0], [0.4, -1.1], [2.5, 0.3], [30.0, 7.0]]),
        ("ising_chain", 14, "periodic", {"J": 0.7, "h": -0.2}, [[0.0, 0.0], [1.3, 0.8]]),
        ("transverse_ising_chain", 5, "open", {"J": 1.0, "hx": 0.7},
         [[0.0], [0.4], [2.5], [30.0]]),
    ])
    def test_canonical_states_pass_the_checks(self, kind, n, boundary, couplings, thetas):
        spec = ModelSpec(kind, boundary=boundary, **couplings)
        family = build_model(spec, spec.region(n))
        for theta in thetas:
            rho = canonical_state(family, theta)
            assert abs(float(rho.probabilities.sum()) - 1.0) <= 1e-14
            again = DensityState(rho.probabilities, rho.basis)
            assert again.probabilities.tolist() == rho.probabilities.tolist()

    @pytest.mark.parametrize("dim", [1, 3, 2**14])
    def test_maximally_mixed_passes_the_checks(self, dim):
        rho = maximally_mixed(dim)
        assert rho.dim == dim and rho.basis is None
        assert abs(float(rho.probabilities.sum()) - 1.0) <= 1e-14


class TestThermalCheck:
    def test_no_separate_check_method(self):
        assert not hasattr(ControlVector, "require_thermal")

    @pytest.mark.parametrize("beta", [0.0, -0.0, -2.0])
    def test_couplings_refuse_a_non_positive_theta0(self, beta):
        th = ControlVector((beta, 1.0))
        with pytest.raises(UsageError, match=f"theta_0 = {beta} is not a valid"):
            th.couplings


class TestOneRowGrids:
    @pytest.mark.parametrize("row", [[0.5, -1.0], [0.0, 2.0, -3.0]])
    def test_one_row_constructs(self, row):
        f = CurveSamples([row], [1.25], CONCAVE)
        assert f.grid.tolist() == [row] and f.values.tolist() == [1.25]

    @pytest.mark.parametrize("rows", [[[0.5, -1.0], [0.5, -1.0]],
                                      [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]])
    def test_repeated_rows_are_refused(self, rows):
        with pytest.raises(UsageError, match="pairwise distinct"):
            CurveSamples(rows, np.zeros(len(rows)), CONCAVE)


def curie_weiss(j, h=0.0):
    return ErgodicFamily(ModelSpec("curie_weiss", J=j, h=h))


class TestSubnormalCouplings:
    @pytest.mark.parametrize("j", [1e-320, 5e-324, 1e-310, 2.2e-308])
    @pytest.mark.parametrize("target", [0.0, -1e-321, 1e-12])
    def test_energy_roots_read_as_at_zero_coupling(self, j, target):
        found = constrained_entropy_max(curie_weiss(j), {0: target})
        expected = constrained_entropy_max(curie_weiss(0.0), {0: target})
        assert found.maximizers == expected.maximizers == (0.0,)
        assert found.multiplicity == expected.multiplicity == 1
        assert found.entropy_value == expected.entropy_value

    @pytest.mark.parametrize("j", [1e-320, 5e-324])
    def test_unreachable_energy_stays_infeasible(self, j):
        with pytest.raises(InfeasibleConstraintError):
            constrained_entropy_max(curie_weiss(j), {0: -0.3})

    @pytest.mark.parametrize("j, h", [("1e-320", "0.0"), ("1e-310", "0.0"), ("0.0", "1e-320")])
    @pytest.mark.parametrize("sub, keys, status", [
        ("completeness", "constrain = energy\ne_values = 0.0\n", 0),
        ("legendre", "constrain = energy\ne_values = 0.0\ntheta0 = 0.5, 1.0\n", 0),
        ("legendre", "constrain = joint\nm_values = -0.9:0.9:0.3\ntheta0 = 0.5, 1.0\n"
                     "theta1 = -0.2:0.2:0.1\n", 0),
        ("entropy-curve", "constrain = joint\nm_values = -0.9:0.9:0.3\n", 0),
        # as at J = h = 0: the flat energy leaves no slope to resolve
        ("diff-test", "theta0 = 1.5\nm_spacing = 0.01\n", 2),
    ])
    def test_subcommands_exit_as_at_zero_coupling(self, tmp_path, capsys, j, h, sub, keys,
                                                  status):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"model = curie_weiss\nJ = {j}\nh = {h}\n{keys}")
        zero = tmp_path / "zero.cfg"
        zero.write_text(f"model = curie_weiss\nJ = 0.0\nh = 0.0\n{keys}")
        assert main([sub, "--config", str(zero), "--out", str(tmp_path / "z")]) == status
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")]) == status
        if status:  # one error line per run, and no traceback
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and all("cannot resolve slopes" in line for line in err)
