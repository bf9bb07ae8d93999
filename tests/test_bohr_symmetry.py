"""The KMS kernels' shared work, pinned to the bits of the per-call forms.

A stacked pointwise call builds its level and weight tables once for all
its times; the smeared sides take one complex exp per distinct |omega| and
conjugate it for the negative Bohr frequencies (delta_ml = -delta_lm); the
random probe is built in place. Each must give the bits of the form it
replaces, and the smeared kernel rests on libm's complex exp being
conjugate-symmetric, which is tested here on its own.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermolab.cli as cli
from thermolab import (
    GaussianTestFunction,
    ModelSpec,
    NumericRangeError,
    TestOperator,
    UsageError,
    build_model,
    kms_residual,
)
from thermolab.cli import main, run_experiment
from thermolab.config import MAX_RANGE_POINTS
from thermolab.kms import (
    _residual_tables,
    _smeared_sides,
    default_probes,
    default_quadrature_step,
    random_hermitian,
    release_folds,
    site_pauli,
)
from test_pauli_probes import smeared_sides_full_table

TIMES = [-3.7, -0.4, 0.0, -0.0, 0.7, 2.3, 11.0]


def bits(x) -> np.ndarray:
    return np.asarray(x).view(np.uint64)


def family(spec, n):
    return build_model(spec, spec.region(n))


def pointwise_reference(fam, theta, a, b, t):
    """kms_residual's per-row formula as it was for one time at a time."""
    lam, log_z, cross, delta = _residual_tables(fam, theta, a, b)
    phase = np.exp(1j * delta * t)
    lhs = np.sum(np.exp(-lam[:, None] - log_z) * phase * cross)
    rhs = np.sum(np.exp(-lam[None, :] - delta - log_z) * phase * cross)
    return abs(lhs - rhs)


RING = [(ModelSpec("ising_chain", J=1.0, h=0.3, boundary="periodic"), n, [1.1, 0.2])
        for n in range(3, 10)]
CASES = RING + [
    (ModelSpec("curie_weiss", J=1.0, h=0.3), 6, None),
    (ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open"), 5, [0.9]),
    (ModelSpec("transverse_ising_chain", J=1.0, hx=0.6, boundary="open"), 6, [1.3]),
    (ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="periodic"), 4, [0.8]),
    (ModelSpec("transverse_ising_chain", J=0.8, hx=1.1, boundary="periodic"), 6, [1.2]),
]


class TestStackedTimes:
    @pytest.mark.parametrize("spec,n,theta", CASES,
                             ids=[f"{s.kind}-{s.boundary}-{n}"
                                  for s, n, _ in CASES])
    def test_stack_has_the_bits_of_single_calls_and_the_old_formula(self, spec, n, theta):
        fam = family(spec, n)
        theta = theta if theta is not None else [0.9] * spec.n_observables
        try:
            for a, b, _ in default_probes(fam, 7, [0.0]):
                stacked = kms_residual(fam, theta, a, b, TIMES)
                assert isinstance(stacked, np.ndarray) and stacked.shape == (len(TIMES),)
                single = [kms_residual(fam, theta, a, b, t) for t in TIMES]
                want = [pointwise_reference(fam, theta, a, b, t) for t in TIMES]
                assert all(isinstance(x, float) for x in single)
                assert np.array_equal(bits(stacked), bits(np.array(single)))
                assert np.array_equal(bits(stacked), bits(np.array(want)))
        finally:
            release_folds()

    def test_dense_family_residuals_are_not_all_zero(self):
        # the diagonal families read exactly 0 (kms module docstring), so the
        # bit comparisons above test arithmetic only on the dense families
        fam = family(ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="periodic"), 4)
        a, b, _ = default_probes(fam, 7, [0.0])[2]
        try:
            assert np.all(kms_residual(fam, [0.9], a, b, TIMES) > 0.0)
        finally:
            release_folds()

    def test_empty_stack(self):
        fam = family(ModelSpec("ising_chain", J=1.0, h=0.2), 3)
        a = site_pauli("x", 0, 3)
        assert kms_residual(fam, [1.0, 0.0], a, a, []).shape == (0,)

    @pytest.mark.parametrize("times", [[0.5, math.nan], [math.inf, 1.0], [-math.inf]])
    def test_non_finite_entry_is_refused(self, times):
        fam = family(ModelSpec("ising_chain", J=1.0, h=0.2), 3)
        a = site_pauli("x", 0, 3)
        with pytest.raises(UsageError, match="not finite"):
            kms_residual(fam, [1.0, 0.0], a, a, times)

    def test_two_dimensional_times_are_refused(self):
        fam = family(ModelSpec("ising_chain", J=1.0, h=0.2), 3)
        a = site_pauli("x", 0, 3)
        with pytest.raises(UsageError, match="1-D"):
            kms_residual(fam, [1.0, 0.0], a, a, [[0.1, 0.2]])

    def test_overflow_guard_holds_for_a_stack(self):
        fam = family(ModelSpec("ising_chain", J=1.0, h=0.2), 3)
        big = TestOperator(1e200 * site_pauli("x", 0, 3).matrix, "big")
        try:
            with np.errstate(all="ignore"), pytest.raises(NumericRangeError, match="overflowed"):
                kms_residual(fam, [1.0, 0.0], big, big, [0.0, 0.5])
        finally:
            release_folds()

    def test_stack_holds_one_phase_table_at_a_time(self):
        # dense family at the residual cap: each L x L complex table is 16 MiB
        fam = family(ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open"), 10)
        a, b = site_pauli("x", 0, 10), site_pauli("y", 0, 10)
        try:
            kms_residual(fam, [0.8], a, b, 0.3)  # fold once, outside the measurement
            peaks = []
            for times in (0.3, [0.3, -1.1, 0.0, 2.5, 4.0, -6.0, 7.5, 9.0]):
                tracemalloc.start()
                try:
                    kms_residual(fam, [0.8], a, b, times)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            release_folds()
        assert peaks[1] < 1.5 * peaks[0]


class TestRunnerStacksTimes:
    CONFIG = ("model = transverse_ising_chain\nJ = 1.0\nhx = 0.7\nboundary = open\nN = 4\n"
              "theta0 = 0.6, 1.4\ntimes = 0.0, 0.7, -1.3, 2.3\nsigma_w = 0\n")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_call_per_theta_and_pair_in_the_old_row_order(self, tmp_path, monkeypatch,
                                                              threads):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(self.CONFIG)
        run_experiment("kms-verify", cfg, tmp_path / "stacked", threads=threads)
        stacked_calls = []
        reference = cli.kms_residual

        def one_time_at_a_time(fam, theta, a, b, ts):
            stacked_calls.append(len(ts))
            return np.array([reference(fam, theta, a, b, t) for t in ts])

        monkeypatch.setattr(cli, "kms_residual", one_time_at_a_time)
        run_experiment("kms-verify", cfg, tmp_path / "single", threads=threads)
        assert stacked_calls == [4] * 6  # 2 thetas x 3 probe pairs

        def body(out):
            return [line for line in (out / "residuals.csv").read_text().splitlines()
                    if not line.startswith("#")]

        assert body(tmp_path / "stacked") == body(tmp_path / "single")
        assert len(body(tmp_path / "stacked")) == 1 + 2 * 4 * 3


class TestSmearedSidesByMagnitude:
    def test_distinct_magnitudes_on_the_six_site_ring(self):
        fam = family(ModelSpec("ising_chain", J=1.0, h=0.0, boundary="periodic"), 6)
        a, b, _ = default_probes(fam, 3, [0.0])[0]
        try:
            delta = _residual_tables(fam, [1.0, 0.2], a, b)[3]
        finally:
            release_folds()
        assert delta.size == 121
        assert len(np.unique(delta)) == 77 and len(np.unique(np.abs(delta))) == 39

    @pytest.mark.parametrize("spec,n,theta,grid", [
        (ModelSpec("ising_chain", J=1.0, h=0.3, boundary="periodic"), 6, [1.0, 0.2], None),
        (ModelSpec("ising_chain", J=1.0, h=0.3, boundary="periodic"), 6, [1.0, 0.2], (4.0, 0.5)),
        (ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open"), 5, [1.0], None),
        (ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open"), 5, [1.0],
         (4.0, 0.5)),
        (ModelSpec("curie_weiss", J=1.0, h=0.3), 5, [0.9, 0.4], (4.0, 0.5)),
    ], ids=["ring", "ring-t0", "open-transverse", "open-transverse-t0", "curie-weiss-t0"])
    def test_integrals_match_the_full_phase_table(self, spec, n, theta, grid):
        # with (t_range, h) = (4.0, 0.5) the grid holds t = 0.0 exactly, where
        # a negative frequency's phase is (1, -0.0) here and (1, +0.0) in the
        # full table: the integrals still agree bit for bit
        fam = family(spec, n)
        f = GaussianTestFunction(2.0)
        if grid is None:
            step = default_quadrature_step(fam, theta, f)
            grids = [(f.support_radius(), step), (f.support_radius(), step / 2.0)]
        else:
            assert 0.0 in np.arange(-grid[0], grid[0] + grid[1] / 2.0, grid[1])
            grids = [grid]
        try:
            for a, b, _ in default_probes(fam, 3, [0.0]):
                lam, log_z, cross, delta = _residual_tables(fam, theta, a, b)
                w_lhs = (np.exp(-lam[:, None] - log_z) * cross).ravel()
                w_rhs = (np.exp(-lam[None, :] - log_z) * cross).ravel()
                freqs = delta.ravel()
                assert np.any(freqs < 0)
                for t_range, h in grids:
                    got = _smeared_sides(f, w_lhs, w_rhs, freqs, t_range, h)
                    want = smeared_sides_full_table(f, w_lhs, w_rhs, freqs, t_range, h)
                    assert np.array_equal(bits(np.array(got)), bits(np.array(want)))
        finally:
            release_folds()


# derandomized and without an example database, so runs are reproducible
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
SUBNORMALS = st.floats(min_value=-2.2250738585072009e-308, max_value=2.2250738585072009e-308,
                       allow_subnormal=True)


@settings(PROPERTY_SETTINGS)
@given(x=st.floats(min_value=-1e6, max_value=1e6) | SUBNORMALS)
def test_complex_exp_is_conjugate_symmetric(x):
    """exp(i(-x)) == conj(exp(ix)) bit for bit, which the smeared sides'
    gather by |omega| rests on; at x = +-0 both are 1 and only the sign of
    the zero imaginary part differs, the one case the smeared sides' t = 0
    test covers."""
    x = np.array([x])
    lhs = np.exp(1j * -x)
    rhs = np.conj(np.exp(1j * x))
    if x[0] == 0.0:
        assert lhs[0] == rhs[0] == 1.0 and bits(lhs.real) == bits(rhs.real)
    else:
        assert np.array_equal(bits(lhs), bits(rhs))


class TestRandomHermitianInPlace:
    @staticmethod
    def reference(dim, rng):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2.0
        h *= 1.0 / max(np.max(np.abs(np.linalg.eigvalsh(h))), 1e-30)
        return h

    @pytest.mark.parametrize("dim", [1, 2, 64, 512])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_bits_of_the_old_sum(self, dim, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_hermitian(dim, rng_new).matrix
        want = self.reference(dim, rng_old)
        assert np.array_equal(bits(got), bits(want))
        assert rng_new.standard_normal() == rng_old.standard_normal()  # same draws

    def test_peak_memory_at_dim_512(self):
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            random_hermitian(512, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20


class TestLongQuadratureRefusedFirst:
    """A width whose quadrature is too long at the largest default step is
    refused before any probe is built or any residual taken."""

    @pytest.mark.parametrize("sigma_w", ["1e200", "1e7"])
    def test_exits_2_before_default_probes(self, tmp_path, capsys, monkeypatch, sigma_w):
        built = []
        monkeypatch.setattr(cli, "default_probes", lambda *a, **k: built.append(a))
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"model = ising_chain\nN = 9\ntheta0 = 1.0, 2.0\nsigma_w = {sigma_w}\n")
        out = tmp_path / "out"
        assert main(["kms-verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("thermolab: error: ")
        assert str(MAX_RANGE_POINTS) in err
        assert not out.exists()
        assert built == []
