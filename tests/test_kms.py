import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thermolab import (
    GaussianTestFunction,
    ModelSpec,
    QuadratureError,
    Region,
    ResourceError,
    TestOperator,
    UsageError,
    build_model,
    canonical_state,
    default_probes,
    evolve,
    kms_residual,
    kms_smeared_residual,
    kms_theta_discrimination,
    site_pauli,
)
from oracles import spin_model_diagonals, thermal_two_point, transverse_ising_matrix
import thermolab.kms as kms
from thermolab.cli import run_experiment
from thermolab.kms import (
    FOLD_MEMO_SIZE,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _memo_cross,
    _residual_tables,
    default_quadrature_step,
    random_hermitian,
    release_folds,
)
from thermolab.lattice import ObservableFamily, Translation
from thermolab import NumericRangeError
from thermolab.kms import _smeared_sides


def single_site_sz_family():
    return ObservableFamily(Region("single_sites", 1), ("sz",),
                            diagonals=[np.array([1.0, -1.0])])


def ising(n, j=1.0, h=0.2):
    spec = ModelSpec("ising_chain", J=j, h=h)
    return build_model(spec, spec.region(n))


class TestEvolve:
    def test_time_zero_identity(self):
        fam = ising(3)
        a = site_pauli("x", 1, 3)
        moved = evolve(a, fam, [0.7, 0.1], 0.0)
        assert_allclose(moved.matrix, a.matrix, atol=1e-14)

    def test_commuting_operator_invariant(self):
        fam = ising(3)
        a = site_pauli("z", 0, 3)  # diagonal, commutes with the generator
        moved = evolve(a, fam, [0.9, -0.4], 1.7)
        assert_allclose(moved.matrix, a.matrix, atol=1e-12)

    def test_single_site_closed_form(self):
        fam = single_site_sz_family()
        for t in (0.3, 1.0, 2.5):
            moved = evolve(TestOperator(PAULI_X, "sx"), fam, [1.0], t)
            expected = math.cos(2 * t) * PAULI_X - math.sin(2 * t) * PAULI_Y
            assert_allclose(moved.matrix, expected, atol=1e-12)

    def test_spectrum_preserved(self):
        fam = ising(4)
        rng = np.random.default_rng(3)
        a = random_hermitian(fam.dim, rng)
        moved = evolve(a, fam, [1.1, 0.3], 2.2)
        assert_allclose(
            np.linalg.eigvalsh(moved.matrix), np.linalg.eigvalsh(a.matrix), atol=1e-10
        )

    def test_group_law(self):
        fam = ising(4)
        theta = [0.7, 0.2]
        rng = np.random.default_rng(5)
        a = random_hermitian(fam.dim, rng)
        once = evolve(evolve(a, fam, theta, 0.9), fam, theta, 1.4)
        direct = evolve(a, fam, theta, 2.3)
        assert float(np.max(np.abs(once.matrix - direct.matrix))) <= 1e-10

    def test_commutes_with_translation_on_ring(self):
        fam = ising(4)
        theta = [0.8, 0.1]
        shift = Translation(4)
        rng = np.random.default_rng(7)
        a = random_hermitian(fam.dim, rng)
        before = evolve(TestOperator(shift.conjugate_dense(a.matrix), "moved"),
                        fam, theta, 1.3)
        after = shift.conjugate_dense(evolve(a, fam, theta, 1.3).matrix)
        assert float(np.max(np.abs(before.matrix - after))) <= 1e-10

    def test_stationarity_of_canonical_state(self):
        fam = ising(3)
        theta = [1.0, 0.3]
        psi = canonical_state(fam, theta)
        a = site_pauli("x", 0, 3)
        values = [
            psi.expectation(evolve(a, fam, theta, t).matrix) for t in (0.0, 0.7, 2.9)
        ]
        assert float(np.ptp(values)) <= 1e-10

    def test_dimension_mismatch(self):
        fam = ising(3)
        with pytest.raises(UsageError):
            evolve(TestOperator(PAULI_X, "sx"), fam, [1.0, 0.0], 0.5)

    def test_non_finite_time(self):
        fam = single_site_sz_family()
        with pytest.raises(UsageError):
            evolve(TestOperator(PAULI_X, "sx"), fam, [1.0], math.inf)


class TestPointwiseResidual:
    def test_identity_pair(self):
        fam = ising(3)
        eye = TestOperator(np.eye(8), "1")
        assert kms_residual(fam, [1.0, 0.2], eye, eye, 1.3) <= 1e-14

    def test_single_site_sigma_x(self):
        fam = single_site_sz_family()
        a = TestOperator(PAULI_X, "sx")
        assert kms_residual(fam, [1.0], a, a, 0.7) <= 1e-12

    def test_diagonal_pair_any_time(self):
        fam = ising(3)
        a = site_pauli("z", 0, 3)
        b = site_pauli("z", 2, 3)
        for t in (0.0, 1.0, 8.5):
            assert kms_residual(fam, [1.5, -0.2], a, b, t) <= 1e-12

    def test_two_level_against_hand_formula(self):
        # omega(alpha_t(sx) sx) = (p0 e^{2it} + p1 e^{-2it}) for theta.Q = sz
        fam = single_site_sz_family()
        theta, t = 0.8, 1.1
        z = math.exp(-theta) + math.exp(theta)
        p0, p1 = math.exp(-theta) / z, math.exp(theta) / z
        lhs = p0 * np.exp(2j * t) + p1 * np.exp(-2j * t)
        rhs = p1 * np.exp(2j * t) * math.exp(2 * theta) * p0 / p1 * math.exp(-2 * theta) \
            + p0 * np.exp(-2j * t) * math.exp(-2 * theta) * p1 / p0 * math.exp(2 * theta)
        assert_allclose(lhs, rhs, atol=1e-12)  # sanity of the hand algebra
        a = TestOperator(PAULI_X, "sx")
        assert kms_residual(fam, [theta], a, a, t) <= 1e-13

    def test_random_pairs_all_models(self):
        rng = np.random.default_rng(11)
        specs = [
            ModelSpec("free_spins"),
            ModelSpec("ising_chain", J=1.0, h=0.3),
            ModelSpec("curie_weiss", J=1.0, h=0.1),
        ]
        for spec in specs:
            fam = build_model(spec, spec.region(4))
            theta = [0.9] + [0.2] * (fam.n_observables - 1)
            for _ in range(5):
                a = random_hermitian(fam.dim, rng)
                b = random_hermitian(fam.dim, rng)
                t = float(rng.uniform(-5, 5))
                assert kms_residual(fam, theta, a, b, t) <= 1e-9

    def test_strong_coupling_guarded(self):
        fam = ising(3)
        a = site_pauli("x", 0, 3)
        res = kms_residual(fam, [5.0, 0.0], a, a, 2.0)
        assert math.isfinite(res)
        assert res <= 1e-9

    def test_dimension_cap(self):
        spec = ModelSpec("free_spins")
        fam = build_model(spec, spec.region(11))  # dim 2048 over the residual cap
        eye = TestOperator(np.eye(fam.dim), "1")
        with pytest.raises(ResourceError):
            kms_residual(fam, [1.0], eye, eye, 0.0)


class TestSmearedResidual:
    def test_identity_pair_gaussian(self):
        fam = ising(3)
        eye = TestOperator(np.eye(8), "1")
        res = kms_smeared_residual(fam, [1.0, 0.0], eye, eye, GaussianTestFunction(2.0))
        assert res <= 1e-10

    def test_single_site_sigma_x(self):
        fam = single_site_sz_family()
        a = TestOperator(PAULI_X, "sx")
        res = kms_smeared_residual(fam, [1.0], a, a, GaussianTestFunction(2.0))
        assert res <= 1e-7

    def test_vanishing_window_is_zero(self):
        fam = single_site_sz_family()
        a = TestOperator(PAULI_X, "sx")
        res = kms_smeared_residual(fam, [1.0], a, a, GaussianTestFunction(2.0),
                                   t_range=1e-12)
        assert res <= 1e-12

    def test_under_resolved_quadrature_detected(self):
        fam = ising(4, j=1.0, h=0.5)
        a = site_pauli("x", 0, 4)
        with pytest.raises(QuadratureError):
            kms_smeared_residual(fam, [2.0, 0.0], a, a, GaussianTestFunction(2.0),
                                 step=1.9)

    def test_gaussian_validation(self):
        with pytest.raises(UsageError):
            GaussianTestFunction(0.0)


class TestThetaDiscrimination:
    def test_equal_controls_score_zero(self):
        fam = ising(3)
        probes = default_probes(fam, seed=1, times=[0.5, 1.5])
        report = kms_theta_discrimination(fam, [1.0, 0.1], [1.0, 0.1], probes)
        assert report.max_score <= 1e-12
        assert not report.distinguishable

    def test_single_site_doubling_frozen_value(self):
        fam = single_site_sz_family()
        probe = [(TestOperator(PAULI_X, "sx"), TestOperator(PAULI_X, "sx"), 1.0)]
        report = kms_theta_discrimination(fam, [1.0], [2.0], probe)
        expected = abs(
            (math.cos(2) - math.cos(4)) + 1j * (math.sin(2) - math.sin(4))
        )
        assert_allclose(report.max_score, expected, atol=1e-12)
        assert report.max_score > 0.5
        assert report.distinguishable

    def test_identity_component_generates_nothing(self):
        region = Region("single_sites", 2)
        number = np.array([0.0, 1.0, 1.0, 2.0])
        fam = ObservableFamily(region, ("number", "unit"),
                               diagonals=[number, np.ones(4)])
        probes = default_probes(fam, seed=3, times=[1.0, 2.0])
        report = kms_theta_discrimination(fam, [1.0, 0.0], [1.0, 2.5], probes)
        assert report.max_score <= 1e-10
        assert not report.distinguishable

    def test_empty_probe_set_rejected(self):
        fam = ising(3)
        with pytest.raises(UsageError):
            kms_theta_discrimination(fam, [1.0, 0.0], [2.0, 0.0], [])


def test_default_probes_deterministic():
    fam = ising(3)
    first = default_probes(fam, seed=9, times=[0.5])
    second = default_probes(fam, seed=9, times=[0.5])
    for (a1, b1, t1), (a2, b2, t2) in zip(first, second):
        assert np.array_equal(a1.matrix, a2.matrix)
        assert np.array_equal(b1.matrix, b2.matrix)
        assert t1 == t2
    assert any("random#9" in a.label for a, _, _ in first)


def test_test_operator_validation():
    with pytest.raises(UsageError):
        TestOperator(np.ones((2, 3)), "bad")
    with pytest.raises(UsageError):
        TestOperator(np.array([[np.nan, 0], [0, 1]]), "bad")


class TestFoldedTwoPointFunction:
    """The level-pair tables against Tr(rho alpha_t(A) B) from dense matrices.

    kms_residual <= bound cannot catch a wrong fold: both sides are built
    from the same table, so they agree whatever it holds.
    """

    CASES = [
        (ModelSpec("free_spins"), 1),
        (ModelSpec("free_spins"), 5),
        (ModelSpec("ising_chain", J=0.9, h=0.35, boundary="periodic"), 3),
        (ModelSpec("ising_chain", J=0.9, h=0.35, boundary="periodic"), 6),
        (ModelSpec("ising_chain", J=-0.6, h=0.2, boundary="open"), 5),
        (ModelSpec("curie_weiss", J=1.2, h=0.1), 6),
        (ModelSpec("transverse_ising_chain", J=0.9, hx=0.6, boundary="open"), 5),
        (ModelSpec("transverse_ising_chain", J=1.0, hx=0.4, boundary="periodic"), 6),
    ]

    @staticmethod
    def dense_generator(spec, n, theta):
        periodic = spec.boundary == "periodic"
        if spec.kind == "transverse_ising_chain":
            return theta[0] * transverse_ising_matrix(n, spec.J, spec.hx, periodic)
        diagonals = spin_model_diagonals(spec.kind, n, spec.J, spec.h, periodic)
        return np.diag(sum(c * d for c, d in zip(theta, diagonals)))

    @pytest.mark.parametrize("spec,n", CASES, ids=lambda c: getattr(c, "kind", c))
    def test_matches_dense_oracle(self, spec, n):
        fam = build_model(spec, spec.region(n))
        theta = [0.8, -0.35][: fam.n_observables]
        gen = self.dense_generator(spec, n, theta)
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            a = random_hermitian(fam.dim, rng)
            b = random_hermitian(fam.dim, rng)
            lam, log_z, cross, delta = _residual_tables(fam, theta, a, b)
            for t in (0.0, 0.9, -3.7):
                folded = np.sum(np.exp(-lam[:, None] - log_z) * cross * np.exp(1j * delta * t))
                expected = thermal_two_point(gen, a.matrix, b.matrix, t)
                assert abs(folded - expected) <= 1e-12, (spec, n, t)

    def test_degenerate_levels_are_folded(self):
        fam = ising(6, j=1.0, h=0.0)
        a = site_pauli("x", 0, 6)
        _, _, cross, delta = _residual_tables(fam, [1.0, 0.0], a, a)
        n_levels = len(fam.levels()[0])
        assert n_levels < fam.dim
        assert cross.shape == delta.shape == (n_levels, n_levels)


def _count_eigensolves(monkeypatch) -> list:
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestDenseFamilyDiagonalizedOnce:
    """A dense family is diagonalized once; every KMS entry point reuses it."""

    @staticmethod
    def open_chain(n):
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open")
        return build_model(spec, spec.region(n))

    def test_residuals_and_step_share_one_eigensolve(self, monkeypatch):
        fam = self.open_chain(6)
        a, b = site_pauli("x", 0, 6), site_pauli("z", 3, 6)
        calls = _count_eigensolves(monkeypatch)
        for t in (0.0, 0.4, 1.1, 2.5, 4.0):
            assert kms_residual(fam, [0.9], a, b, t) <= 1e-9
        step = default_quadrature_step(fam, [0.9], GaussianTestFunction(2.0))
        assert 0.0 < step <= 0.1
        assert len(calls) == 1

    def test_every_entry_point_reuses_it(self, monkeypatch):
        fam = self.open_chain(4)
        a, b = site_pauli("x", 0, 4), site_pauli("y", 1, 4)
        calls = _count_eigensolves(monkeypatch)
        evolve(a, fam, [1.1], 0.8)
        kms_residual(fam, [1.1], a, b, 0.8)
        kms_smeared_residual(fam, [0.7], a, b, GaussianTestFunction(2.0))
        report = kms_theta_discrimination(fam, [1.0], [1.5], [(a, b, 0.6)])
        assert report.distinguishable
        assert len(calls) == 1

    def test_dense_evolve_matches_matrix_exponential(self):
        fam = self.open_chain(4)
        a = site_pauli("x", 1, 4)
        theta, t = 0.8, 1.3
        lam, vec = np.linalg.eigh(theta * transverse_ising_matrix(4, 1.0, 0.7, False))
        unitary = (vec * np.exp(1j * lam * t)) @ vec.conj().T
        moved = evolve(a, fam, [theta], t)
        assert_allclose(moved.matrix, unitary @ a.matrix @ unitary.conj().T, atol=1e-12)


class TestQuadratureScale:
    """The step-halving check is relative to max|A| * max|B|."""

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_large_probes_at_default_step(self, scale):
        fam = ising(4, j=1.0, h=0.5)
        a = TestOperator(scale * site_pauli("x", 0, 4).matrix, f"{scale}*sx")
        res = kms_smeared_residual(fam, [2.0, 0.0], a, a, GaussianTestFunction(2.0))
        assert res <= 1e-13 * scale**2

    def test_small_probes_under_resolved_detected(self):
        fam = ising(4, j=1.0, h=0.5)
        a = TestOperator(1e-4 * site_pauli("x", 0, 4).matrix, "1e-4*sx")
        with pytest.raises(QuadratureError):
            kms_smeared_residual(fam, [2.0, 0.0], a, a, GaussianTestFunction(2.0),
                                 step=1.9)


def _count_folds(monkeypatch, delay: float = 0.0) -> list:
    calls = []

    def counting(*args, _fold=kms._folded_cross):
        calls.append(args[-1])
        time.sleep(delay)  # widen the window in which another thread could fold too
        return _fold(*args)

    monkeypatch.setattr(kms, "_folded_cross", counting)
    return calls


class TestFoldReuse:
    """Each (family, A, B) is folded once; every theta and t reuses the fold."""

    CONFIG = Path(__file__).resolve().parents[1] / "configs" / "kms_ising.cfg"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_kms_verify_folds_each_probe_pair_once(self, tmp_path, monkeypatch, threads):
        calls = _count_folds(monkeypatch, delay=0.01)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # let the pool's threads interleave often
        try:
            manifest = run_experiment("kms-verify", self.CONFIG, tmp_path, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        rows = {r["path"]: r["rows"] for r in manifest["artifacts"]}
        assert rows["residuals.csv"] == 3 * 3 * 3  # thetas x times x probe pairs
        assert len(calls) == 3  # (sx, sy), (sz, sx), (random, sx)
        assert _memo_cross.cache_info().currsize == 0

    def test_threads_share_each_fold(self, monkeypatch):
        # more workers than cores, all asking for the same three folds at once
        fam = ising(5, j=0.8, h=0.3)
        probes = default_probes(fam, seed=5, times=[0.2, 1.7, 3.1])
        thetas = [(0.5 + 0.1 * k, 0.2) for k in range(8)]

        def rows(th):
            return [kms_residual(fam, th, a, b, t) for a, b, t in probes]

        release_folds()
        serial = [rows(th) for th in thetas]
        release_folds()
        calls = _count_folds(monkeypatch, delay=0.005)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(rows, th) for th in thetas]
                threaded = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
            release_folds()
        assert len(calls) == 3
        assert threaded == serial

    def test_memo_residual_is_bitwise_a_fresh_fold(self):
        fam = ising(5, j=0.8, h=0.3)
        rng = np.random.default_rng(3)
        a, b = random_hermitian(fam.dim, rng), site_pauli("x", 2, 5)
        f = GaussianTestFunction(2.0)
        release_folds()
        fresh = [kms_residual(fam, [0.9, 0.2], a, b, 1.3),
                 kms_smeared_residual(fam, [0.9, 0.2], a, b, f)]
        hits = _memo_cross.cache_info().hits
        kept = [kms_residual(fam, [0.9, 0.2], a, b, 1.3),
                kms_smeared_residual(fam, [0.9, 0.2], a, b, f)]
        assert _memo_cross.cache_info().hits == hits + 2
        assert kept == fresh
        release_folds()
        assert _memo_cross.cache_info().currsize == 0

    def test_memo_is_bounded_and_keyed_by_identity(self, monkeypatch):
        fam = ising(3)
        calls = _count_folds(monkeypatch)
        release_folds()
        a = site_pauli("x", 0, 3)
        twin = TestOperator(a.matrix.copy(), a.label)  # equal entries, another probe
        kms_residual(fam, [1.0, 0.0], a, a, 0.5)
        kms_residual(fam, [1.0, 0.0], twin, twin, 0.5)
        assert len(calls) == 2
        for k in range(FOLD_MEMO_SIZE + 3):
            b = site_pauli("z", k % 3, 3)
            kms_residual(fam, [1.0, 0.0], a, b, 0.5)
        assert _memo_cross.cache_info().currsize == FOLD_MEMO_SIZE
        release_folds()

    def test_probe_and_fold_are_read_only(self):
        owner = PAULI_X.copy()
        op = TestOperator(owner, "sx")
        assert not op.matrix.flags.writeable
        assert owner.flags.writeable
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0
        fam = single_site_sz_family()
        _, _, cross, _ = _residual_tables(fam, [1.0], op, op)
        assert not cross.flags.writeable
        release_folds()


class TestResidualRangeChecks:
    """Inputs that leave the floating-point range end in NumericRangeError."""

    def test_unknown_pauli(self):
        with pytest.raises(UsageError, match="x, y, z"):
            site_pauli("w", 0, 2)

    def test_site_out_of_range(self):
        with pytest.raises(UsageError, match="out of range"):
            site_pauli("x", 3, 2)

    def test_infinite_time(self):
        a = site_pauli("x", 0, 3)
        with pytest.raises(UsageError, match="not finite"):
            kms_residual(ising(3), [1.0, 0.0], a, a, math.inf)

    def test_partition_sum_out_of_range(self):
        a = site_pauli("x", 0, 3)
        with np.errstate(all="ignore"), pytest.raises(NumericRangeError, match="partition sum"):
            kms_residual(ising(3), [1e308, 0.0], a, a, 0.5)

    def test_overflowing_probe(self):
        big = TestOperator(1e200 * site_pauli("x", 0, 3).matrix, "big")
        try:
            with np.errstate(all="ignore"), pytest.raises(NumericRangeError, match="overflowed"):
                kms_residual(ising(3), [1.0, 0.0], big, big, 0.5)
        finally:
            release_folds()


class TestSmearedSidesClosedForm:
    """Each smeared side against its closed form. For the Gaussian f with
    width sigma, int f(t) e^{i delta t} dt = sigma sqrt(2 pi) e^{-sigma^2 delta^2 / 2},
    and shifting f by -i multiplies it by e^{-delta}; a residual alone would
    pass if both sides were wrong by the same amount."""

    @pytest.mark.parametrize("theta", [[0.5, 0.0], [1.0, 0.2], [2.0, -0.3]])
    def test_both_sides_on_the_six_site_ring(self, theta):
        fam = ising(6, j=1.0, h=0.0)
        f = GaussianTestFunction(2.0)
        step = default_quadrature_step(fam, theta, f)
        for a, b, _ in default_probes(fam, 0, [0.0]):
            lam, log_z, cross, delta = _residual_tables(fam, theta, a, b)
            w_lhs = (np.exp(-lam[:, None] - log_z) * cross).ravel()
            w_rhs = (np.exp(-lam[None, :] - log_z) * cross).ravel()
            freqs = delta.ravel()
            gauss = f.sigma_w * math.sqrt(2.0 * math.pi) * np.exp(-(f.sigma_w * freqs) ** 2 / 2.0)
            for h in (step, step / 2.0):
                lhs, rhs = _smeared_sides(f, w_lhs, w_rhs, freqs, f.support_radius(), h)
                assert abs(lhs - np.sum(w_lhs * gauss)) <= 1e-13
                assert abs(rhs - np.sum(w_rhs * gauss * np.exp(-freqs))) <= 1e-13
