import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    enumerate_curie_weiss_logz,
    enumerate_spin_chain_logz,
    free_spin_pressure,
    ising_log_lambda_plus,
    open_transverse_ising_logz,
    transverse_ising_matrix,
    two_level_gibbs,
)
from thermolab import (
    ControlVector,
    DataError,
    DensityState,
    ModelSpec,
    NumericRangeError,
    ObservableFamily,
    Region,
    UsageError,
    build_model,
    canonical_state,
    finite_pressure,
    maximally_mixed,
    pressure_limit,
    random_density_state,
    relative_entropy,
    variational_gap,
    von_neumann_entropy,
)
import thermolab.gibbs as gibbs
from thermolab.gibbs import expectation_vector

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098


def ising(n, j=1.0, h=0.0, boundary="periodic"):
    spec = ModelSpec("ising_chain", J=j, h=h, boundary=boundary)
    return build_model(spec, spec.region(n))


class TestDensityState:
    def test_from_matrix_validates(self):
        with pytest.raises(UsageError):
            DensityState.from_matrix(np.diag([0.6, 0.6]))  # trace 1.2
        with pytest.raises(UsageError):
            DensityState.from_matrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not hermitian
        with pytest.raises(UsageError):
            DensityState.from_matrix(np.diag([1.5, -0.5]))  # negative weight

    def test_probability_validation(self):
        with pytest.raises(UsageError):
            DensityState(np.array([0.5, 0.4]))

    def test_occupations_and_expectation(self):
        rng = np.random.default_rng(5)
        rho = random_density_state(8, rng)
        op = rng.standard_normal(8)
        direct = float(np.real(np.trace(rho.matrix @ np.diag(op))))
        assert_allclose(rho.expectation(op), direct, atol=1e-12)
        dense_op = rng.standard_normal((8, 8))
        dense_op = dense_op + dense_op.T
        direct = float(np.real(np.trace(rho.matrix @ dense_op)))
        assert_allclose(rho.expectation(dense_op), direct, atol=1e-12)


class TestCanonicalState:
    def test_zero_control_is_maximally_mixed(self):
        fam = ising(3)
        rho = canonical_state(fam, [0.0, 0.0])
        assert_allclose(rho.probabilities, np.full(8, 1 / 8), atol=1e-15)

    def test_two_level_gibbs_weights(self):
        spec = ModelSpec("free_spins")
        fam = build_model(spec, spec.region(1))
        rho = canonical_state(fam, [LN3])
        assert_allclose(sorted(rho.probabilities), [0.25, 0.75], atol=1e-14)
        assert_allclose(sorted(rho.probabilities), sorted(two_level_gibbs(LN3)), atol=1e-14)

    def test_ising_ground_pair_weight(self):
        fam = ising(3)
        rho = canonical_state(fam, [1.0, 0.0])
        expected = math.e**3 / (2 * math.e**3 + 6 * math.e**-1)
        ground = fam.diagonals[0] == -3.0
        assert_allclose(rho.probabilities[ground], expected, atol=1e-14)

    def test_commutes_with_observables_dense_path(self):
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.6)
        fam = build_model(spec, spec.region(3))
        rho = canonical_state(fam, [0.8])
        comm = rho.matrix @ fam.dense[0] - fam.dense[0] @ rho.matrix
        assert float(np.max(np.abs(comm))) <= 1e-12


class TestEntropy:
    def test_maximally_mixed(self):
        assert_allclose(von_neumann_entropy(maximally_mixed(8)), math.log(8), atol=1e-14)
        assert_allclose(von_neumann_entropy(maximally_mixed(8)), 2.079442, atol=1e-6)

    def test_pure_state(self):
        rho = DensityState(np.array([1.0, 0.0, 0.0]))
        assert von_neumann_entropy(rho) == 0.0

    def test_binary_mix(self):
        rho = DensityState(np.array([0.75, 0.25]))
        assert_allclose(von_neumann_entropy(rho), 0.562335, atol=1e-6)

    def test_entropy_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_density_state(6, rng)
            s = von_neumann_entropy(rho)
            assert 0.0 <= s <= math.log(6) + 1e-12


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(9)
        rho = random_density_state(5, rng)
        assert abs(relative_entropy(rho, rho)) <= 1e-10

    def test_pure_vs_mixed(self):
        pure = DensityState(np.array([1.0, 0.0]))
        assert_allclose(relative_entropy(pure, maximally_mixed(2)), LN2, atol=1e-12)

    def test_two_term_sum(self):
        rho = DensityState(np.array([0.75, 0.25]))
        assert_allclose(relative_entropy(rho, maximally_mixed(2)), LN2 - 0.5623351446,
                        atol=1e-9)
        assert_allclose(relative_entropy(rho, maximally_mixed(2)), 0.130812, atol=1e-6)

    def test_support_violation_is_infinite(self):
        mixed = maximally_mixed(2)
        pure = DensityState(np.array([1.0, 0.0]))
        assert relative_entropy(mixed, pure) == math.inf

    def test_rotated_bases_against_dense_formula(self):
        rng = np.random.default_rng(21)
        rho = random_density_state(6, rng)
        sigma = random_density_state(6, rng)
        # direct evaluation from dense matrices through their own eigenbases
        pe, pv = np.linalg.eigh(rho.matrix)
        se, sv = np.linalg.eigh(sigma.matrix)
        log_rho = (pv * np.log(pe)[None, :]) @ pv.conj().T
        log_sigma = (sv * np.log(se)[None, :]) @ sv.conj().T
        direct = float(np.real(np.trace(rho.matrix @ (log_rho - log_sigma))))
        assert_allclose(relative_entropy(rho, sigma), direct, atol=1e-10)
        assert relative_entropy(rho, sigma) >= -1e-10

    def test_nonnegative_random_suite(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            a = random_density_state(4, rng)
            b = random_density_state(4, rng)
            assert relative_entropy(a, b) >= -1e-10

    def test_vanishing_divergence_implies_proximity(self):
        rng = np.random.default_rng(41)
        rho = random_density_state(5, rng)
        # a tiny unitary twist keeps the divergence small but nonzero
        herm = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        herm = (herm + herm.conj().T) / 2
        twist = np.eye(5) + 1e-5 * 1j * herm
        q, _ = np.linalg.qr(twist)
        near = DensityState.from_matrix(q @ rho.matrix @ q.conj().T)
        div = relative_entropy(near, rho)
        assert 0.0 <= div <= 1e-6
        assert near.max_norm_distance(rho) <= 1e-3
        # and conversely: tiny divergence here comes with tiny distance
        assert relative_entropy(rho, rho) <= 1e-10
        assert rho.max_norm_distance(rho) <= 1e-6


class TestFinitePressure:
    def test_free_spins_size_independent(self):
        spec = ModelSpec("free_spins")
        values = [
            finite_pressure(build_model(spec, spec.region(n)), [1.3]) for n in (1, 4, 7)
        ]
        assert_allclose(values, free_spin_pressure(1.3), atol=1e-13)

    def test_zero_control_gives_log_dim(self):
        for fam in (ising(4), build_model(ModelSpec("curie_weiss", J=1.0),
                                          ModelSpec("curie_weiss", J=1.0).region(4))):
            assert_allclose(finite_pressure(fam, [0.0, 0.0]), LN2, atol=1e-14)

    def test_ising_three_site_value(self):
        expected = math.log(2 * math.e**3 + 6 * math.e**-1) / 3.0
        assert_allclose(finite_pressure(ising(3), [1.0, 0.0]), expected, atol=1e-14)

    def test_matches_enumeration(self):
        for n in (2, 4, 6):
            fam = ising(n, j=0.9, h=0.4)
            got = finite_pressure(fam, [0.7, 0.0])
            assert_allclose(got, enumerate_spin_chain_logz(n, 0.7, 0.9, 0.4) / n,
                            atol=1e-12)
        spec = ModelSpec("curie_weiss", J=1.2, h=0.1)
        for n in (3, 5):
            fam = build_model(spec, spec.region(n))
            got = finite_pressure(fam, [0.8, 0.0])
            assert_allclose(got, enumerate_curie_weiss_logz(n, 0.8, 1.2, 0.1) / n,
                            atol=1e-12)

    def test_overflow_guarded(self):
        fam = ising(4)
        value = finite_pressure(fam, [200.0, 0.0])
        assert np.isfinite(value)
        assert_allclose(value, 200.0 * 4 / 4 + math.log(2) / 4, atol=1e-6)

    def test_convex_along_segments(self):
        fam = ising(5, j=1.0, h=0.3)
        rng = np.random.default_rng(2)
        for _ in range(30):
            t1 = rng.uniform(-2, 2, size=2)
            t2 = rng.uniform(-2, 2, size=2)
            mid = finite_pressure(fam, (t1 + t2) / 2)
            assert mid <= (finite_pressure(fam, t1) + finite_pressure(fam, t2)) / 2 + 1e-10

    def test_dual_relation_slope(self):
        # d(phi_N)/d(theta_k) = -<Q_k>/N by central finite difference
        fam = ising(5, j=1.0, h=0.2)
        theta = np.array([0.9, -0.3])
        rho = canonical_state(fam, theta)
        expect = expectation_vector(rho, fam) / fam.region.size
        step = 1e-4
        for k in range(2):
            up, down = theta.copy(), theta.copy()
            up[k] += step
            down[k] -= step
            slope = (finite_pressure(fam, up) - finite_pressure(fam, down)) / (2 * step)
            assert_allclose(slope, -expect[k], atol=1e-6)

    def test_entropy_density_consistency(self):
        fam = ising(5, j=1.0, h=0.2)
        theta = np.array([1.1, 0.4])
        rho = canonical_state(fam, theta)
        n = fam.region.size
        lhs = von_neumann_entropy(rho) / n - float(
            theta @ expectation_vector(rho, fam)
        ) / n
        assert_allclose(lhs, finite_pressure(fam, theta), atol=1e-10)


class TestVariationalGap:
    def test_zero_at_canonical_state(self):
        fam = ising(4, j=1.0, h=0.3)
        theta = [0.8, -0.1]
        assert abs(variational_gap(canonical_state(fam, theta), fam, theta)) <= 1e-10

    def test_two_level_frozen_value(self):
        spec = ModelSpec("free_spins")
        fam = build_model(spec, spec.region(1))
        rho = DensityState(np.array([1.0, 0.0]))  # occupation-0 pure state
        gap = variational_gap(rho, fam, [LN3])
        assert_allclose(gap, math.log(4.0 / 3.0), atol=1e-12)
        assert_allclose(gap, 0.287682, atol=1e-6)

    def test_mixed_at_zero_control(self):
        fam = ising(3)
        assert abs(variational_gap(maximally_mixed(8), fam, [0.0, 0.0])) <= 1e-12

    def test_gap_equals_relative_entropy(self):
        rng = np.random.default_rng(17)
        fam = ising(4, j=1.0, h=0.2)
        theta = [0.9, 0.1]
        psi = canonical_state(fam, theta)
        for _ in range(20):
            rho = random_density_state(fam.dim, rng)
            gap = variational_gap(rho, fam, theta)
            assert gap >= -1e-9
            assert_allclose(gap, relative_entropy(rho, psi), atol=1e-9)

    def test_dimension_mismatch(self):
        fam = ising(3)
        with pytest.raises(UsageError):
            variational_gap(maximally_mixed(4), fam, [1.0, 0.0])


class TestPressureLimit:
    def test_free_spins_exact_intercept(self):
        est = pressure_limit(ModelSpec("free_spins"), [1.0], [4, 6, 8])
        assert_allclose(est.value, free_spin_pressure(1.0), atol=1e-12)
        assert_allclose(est.value, 0.313262, atol=1e-6)
        assert est.extrapolation_error <= 1e-12
        assert len(est.per_size) == 3

    def test_zero_control_every_size(self):
        est = pressure_limit(ModelSpec("curie_weiss", J=1.0), [0.0, 0.0], [3, 4, 5])
        for _, phi in est.per_size:
            assert_allclose(phi, LN2, atol=1e-14)
        assert_allclose(est.value, LN2, atol=1e-12)

    def test_geometric_fit_hits_transfer_matrix(self):
        spec = ModelSpec("ising_chain", J=1.0, h=0.5)
        est = pressure_limit(spec, [1.0, 0.0], list(range(4, 15)), fit="geometric")
        assert_allclose(est.value, ising_log_lambda_plus(1.0, 1.0, 0.5), atol=1e-6)

    def test_affine_fit_cannot_resolve_exponential_tail(self):
        # documents why the geometric mode exists for periodic chains
        spec = ModelSpec("ising_chain", J=1.0, h=0.0)
        affine = pressure_limit(spec, [0.5, 0.0], list(range(4, 15)), fit="affine")
        exact = ising_log_lambda_plus(0.5, 1.0, 0.0)
        assert abs(affine.value - exact) > 1e-6

    def test_size_validation(self):
        spec = ModelSpec("free_spins")
        with pytest.raises(UsageError):
            pressure_limit(spec, [1.0], [4, 6])
        with pytest.raises(UsageError):
            pressure_limit(spec, [1.0], [4, 4, 6])
        with pytest.raises(UsageError):
            pressure_limit(spec, [1.0], [4, 6, 7], fit="geometric")
        with pytest.raises(UsageError):
            pressure_limit(spec, [1.0], [4, 6, 8], fit="fourier")


def _state_sum_pressure(theta, energies, n):
    """phi_N from a shifted sum over all 2^N values of theta.Q."""
    lam = np.asarray(theta, dtype=float) @ np.atleast_2d(energies)
    shift = lam.min()
    return (math.log(np.exp(-(lam - shift)).sum()) - shift) / n


class TestLevelTablePressure:
    """finite_pressure sums over joint levels; references sum over states."""

    THETAS = ([0.7, 0.0], [1.3, -0.4], [0.4, 0.9])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_free_spins(self, n):
        spec = ModelSpec("free_spins")
        fam = build_model(spec, spec.region(n))
        for t0 in (0.3, 1.7):
            got = finite_pressure(fam, [t0])
            assert_allclose(got, _state_sum_pressure([t0], fam.diagonals, n), rtol=1e-13)
            assert_allclose(got, free_spin_pressure(t0), rtol=1e-13)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_ising_chain(self, n, boundary):
        j, h = 0.9, 0.35
        fam = ising(n, j=j, h=h, boundary=boundary)
        for th in self.THETAS:
            got = finite_pressure(fam, th)
            assert_allclose(got, _state_sum_pressure(th, fam.diagonals, n), rtol=1e-13)
            # theta.Q = theta_0 (-j bonds - (h - theta_1/theta_0) M)
            logz = enumerate_spin_chain_logz(n, th[0], j, h - th[1] / th[0],
                                             periodic=boundary == "periodic")
            assert_allclose(got, logz / n, rtol=1e-13)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_curie_weiss(self, n):
        j, h = 1.2, 0.1
        spec = ModelSpec("curie_weiss", J=j, h=h)
        fam = build_model(spec, spec.region(n))
        for th in self.THETAS:
            got = finite_pressure(fam, th)
            assert_allclose(got, _state_sum_pressure(th, fam.diagonals, n), rtol=1e-13)
            logz = enumerate_curie_weiss_logz(n, th[0], j, h - th[1] / th[0])
            assert_allclose(got, logz / n, rtol=1e-13)

    # the dense kron build needs about 1 GB at 12 sites, so 2..8 here
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_transverse_ising_chain(self, n, boundary):
        j, hx = 0.9, 0.6
        spec = ModelSpec("transverse_ising_chain", J=j, hx=hx, boundary=boundary)
        fam = build_model(spec, spec.region(n))
        spectrum = np.linalg.eigvalsh(transverse_ising_matrix(n, j, hx, boundary == "periodic"))
        for t0 in (0.4, 1.3):
            got = finite_pressure(fam, [t0])
            assert_allclose(got, _state_sum_pressure([t0], spectrum, n), rtol=1e-13)
            if boundary == "open":
                assert_allclose(got, open_transverse_ising_logz(n, t0, j, hx) / n, rtol=1e-13)

    def test_levels_group_degenerate_states(self):
        n = 10
        spec = ModelSpec("curie_weiss", J=1.0, h=0.2)
        rows, log_mult = build_model(spec, spec.region(n)).levels()
        assert rows.shape == (n + 1, 2)
        counts = sorted(round(c) for c in np.exp(log_mult))
        assert counts == sorted(math.comb(n, k) for k in range(n + 1))
        fam = ising(n, j=1.0, h=0.3)
        rows, log_mult = fam.levels()
        assert len(rows) <= (n + 1) ** 2
        assert round(float(np.exp(log_mult).sum())) == 2**n
        assert fam.levels() is fam.levels()

    def test_family_arrays_are_read_only(self):
        fam = ising(4)
        with pytest.raises(ValueError):
            fam.diagonals[0][0] = 5.0
        rows, log_mult = fam.levels()
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        with pytest.raises(ValueError):
            log_mult[0] = 1.0
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.5)
        with pytest.raises(ValueError):
            build_model(spec, spec.region(3)).dense[0][0, 0] = 1.0

    def test_dense_family_holds_one_observable(self):
        with pytest.raises(UsageError):
            ObservableFamily(Region("single_sites", 1), ("a", "b"),
                             matrices=[np.eye(2), np.diag([1.0, -1.0])])


class TestGeometricErrorBar:
    """On the transfer-matrix oracle the reported error covers the actual one."""

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 2.0])
    def test_error_covers_oracle_distance(self, theta0):
        # the shipped configs/pressure_ising.cfg case
        spec = ModelSpec("ising_chain", J=1.0, h=0.5)
        est = pressure_limit(spec, [theta0, 0.0], list(range(4, 15)), fit="geometric")
        actual = abs(est.value - ising_log_lambda_plus(theta0, 1.0, 0.5))
        assert est.extrapolation_error >= actual
        assert est.extrapolation_error <= 1e-12

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 2.0])
    def test_error_covers_oracle_distance_at_zero_field(self, theta0):
        # at theta0 = 2 the modes' ratio is tanh 2 ~ 0.96 and the two-mode
        # fit amplifies roundoff by 1/(1 - tanh 2)^2 ~ 770
        spec = ModelSpec("ising_chain", J=1.0, h=0.0)
        est = pressure_limit(spec, [theta0, 0.0], list(range(4, 15)), fit="geometric")
        actual = abs(est.value - ising_log_lambda_plus(theta0, 1.0, 0.0))
        assert est.extrapolation_error >= actual
        assert est.extrapolation_error <= 1e-10

    def test_roundoff_floor_grows_with_mode_ratio(self):
        narr = np.arange(4.0, 15.0)
        plain = gibbs._roundoff_floor(narr, 0.7)
        assert gibbs._roundoff_floor(narr, 0.7, -0.5) == plain
        assert gibbs._roundoff_floor(narr, 0.7, 0.9) == pytest.approx(100.0 * plain)
        assert gibbs._roundoff_floor(narr, 0.7, 1.0) == math.inf


class TestPressureLeavesLevelViewUnbuilt:
    """Pressure sweeps read levels() only: no level index, no eigenvectors."""

    @pytest.mark.parametrize("spec", [
        ModelSpec("ising_chain", J=1.0, h=0.3),
        ModelSpec("transverse_ising_chain", J=1.0, hx=0.5, boundary="open"),
    ], ids=lambda s: s.kind)
    def test_sweep_families_have_no_level_view(self, spec):
        gibbs.release_families()
        try:
            pressure_limit(spec, [0.8] * spec.n_observables, [3, 4, 5])
            for n in (3, 4, 5):
                assert gibbs._family(spec, n, gibbs.DIMENSION_CAP)._level_view is None
        finally:
            gibbs.release_families()


class TestGeometricErrorBarSmallModeRatio:
    def test_pressure_chain_point_with_tiny_second_mode(self):
        # l2/l1 = 0.056, so the last four sizes carry only roundoff of the
        # second mode and their refit is noise; the error bar must not be
        j, h, theta = 1.005, 0.68, [0.759608, -0.897865]
        spec = ModelSpec("ising_chain", J=j, h=h)
        est = pressure_limit(spec, theta, list(range(4, 15)), fit="geometric")
        exact = ising_log_lambda_plus(theta[0], j, h - theta[1] / theta[0])
        assert abs(est.value - exact) <= est.extrapolation_error <= 1e-12


class TestGeometricGate:
    """The geometric fit runs only where Z_N = l1^N + l2^N exactly."""

    @pytest.mark.parametrize("spec", [
        ModelSpec("curie_weiss", J=1.0, h=0.1),
        ModelSpec("ising_chain", J=1.0, h=0.3, boundary="open"),
        ModelSpec("transverse_ising_chain", J=1.0, hx=0.5),
    ], ids=lambda s: f"{s.kind}-{s.boundary}")
    def test_other_models_are_refused(self, spec):
        with pytest.raises(UsageError, match="geometric"):
            pressure_limit(spec, [0.8] * spec.n_observables, [4, 5, 6], fit="geometric")

    @pytest.mark.parametrize("theta0", [-3.0, 0.0, 0.3, 5.0])
    def test_free_spins_pure_power(self, theta0):
        est = pressure_limit(ModelSpec("free_spins"), [theta0], [4, 5, 6, 7, 8, 9],
                             fit="geometric")
        actual = abs(est.value - free_spin_pressure(theta0))
        assert actual <= est.extrapolation_error <= 1e-13

    def test_no_dominant_root_is_a_range_error(self, monkeypatch):
        monkeypatch.setattr(gibbs, "_two_mode_value", lambda *args: None)
        with pytest.raises(NumericRangeError):
            pressure_limit(ModelSpec("ising_chain", J=1.0, h=0.5), [1.0, 0.0],
                           list(range(4, 10)), fit="geometric")


class TestStatesFromTheLevelView:
    """States and expectations come from the family's cached level view."""

    @staticmethod
    def dense_family():
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.6, boundary="open")
        return build_model(spec, spec.region(4))

    def test_no_eigensolve_once_the_view_is_built(self, monkeypatch):
        fam = self.dense_family()
        fam.level_view()
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        for theta0 in (0.8, -1.3):
            rho = canonical_state(fam, [theta0])
            assert abs(variational_gap(rho, fam, [theta0])) <= 1e-12
        assert calls == []

    def test_dense_expectation_matches_trace(self):
        fam = self.dense_family()
        rng = np.random.default_rng(3)
        for rho in (random_density_state(fam.dim, rng), maximally_mixed(fam.dim),
                    canonical_state(fam, [0.9])):
            direct = float(np.real(np.trace(rho.matrix @ fam.dense[0])))
            assert_allclose(expectation_vector(rho, fam), [direct], atol=1e-12)

    def test_diagonal_expectation_matches_trace(self):
        fam = ising(4, j=0.8, h=0.3)
        rng = np.random.default_rng(4)
        for rho in (random_density_state(fam.dim, rng), canonical_state(fam, [0.7, 0.2])):
            direct = [float(np.real(np.trace(rho.matrix @ np.diag(d)))) for d in fam.diagonals]
            assert_allclose(expectation_vector(rho, fam), direct, atol=1e-12)
        with pytest.raises(UsageError):
            expectation_vector(maximally_mixed(8), fam)


def _single_theta_pressure(family, theta):
    """phi_N of one theta by the single-vector formula: a matrix-vector
    theta.Q and a one-dimensional sum."""
    levels, log_mult = family.levels()
    exponent = log_mult - levels @ np.asarray(theta, dtype=float)
    top = float(exponent.max())
    return (float(np.log(np.exp(exponent - top).sum())) + top) / family.region.size


STACK_SPECS = [
    ModelSpec("free_spins"),
    ModelSpec("ising_chain", J=0.9, h=0.35),
    ModelSpec("ising_chain", J=-0.7, h=0.0, boundary="open"),
    ModelSpec("curie_weiss", J=1.2, h=0.1),
    ModelSpec("transverse_ising_chain", J=1.0, hx=0.6),
    ModelSpec("transverse_ising_chain", J=0.8, hx=0.7, boundary="open"),
]


def _spec_id(spec):
    return f"{spec.kind}-{spec.boundary}"


class TestStackedFinitePressure:
    """A (G, k) theta stack gives, bit for bit, the G single-theta pressures."""

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=_spec_id)
    def test_rows_match_the_single_theta_formula(self, spec):
        dense = spec.kind == "transverse_ising_chain"
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 8) if dense else (1, 2, 5, 9, 12):
            fam = build_model(spec, spec.region(n))
            stack = rng.uniform(-2.5, 2.5, size=(37, spec.n_observables))
            got = finite_pressure(fam, stack)
            expected = np.array([_single_theta_pressure(fam, th) for th in stack])
            assert got.shape == (37,)
            assert np.array_equal(got, expected)
            assert [finite_pressure(fam, th) for th in stack] == expected.tolist()

    def test_bench_like_grid_on_the_ring(self):
        # the pressure-chain layout: 30 x 11 jittered thetas, sizes 4..14
        spec = ModelSpec("ising_chain", J=1.013, h=0.42)
        t0 = np.linspace(0.1, 2.0, 30) + 0.0137
        t1 = np.linspace(-1.0, 1.0, 11) - 0.0071
        stack = np.array([(a, b) for a in t0 for b in t1])
        for n in range(4, 15):
            fam = build_model(spec, spec.region(n))
            expected = [_single_theta_pressure(fam, th) for th in stack]
            assert np.array_equal(finite_pressure(fam, stack), expected)

    def test_single_vector_gives_a_float_and_a_stack_an_array(self):
        fam = ising(4, j=1.0, h=0.3)
        assert type(finite_pressure(fam, [0.7, 0.1])) is float
        assert type(finite_pressure(fam, ControlVector((0.7, 0.1)))) is float
        one = finite_pressure(fam, [[0.7, 0.1]])
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == finite_pressure(fam, [0.7, 0.1])

    @pytest.mark.parametrize("stack", [np.zeros((3, 3)), np.zeros((0, 2)),
                                       np.zeros((2, 2, 2)), np.zeros((2, 1))],
                             ids=["wide", "empty", "3-d", "narrow"])
    def test_bad_stacks_are_usage_errors(self, stack):
        with pytest.raises(UsageError):
            finite_pressure(ising(4), stack)
        with pytest.raises(UsageError):
            pressure_limit(ModelSpec("ising_chain", J=1.0), stack, [3, 4, 5])

    def test_non_finite_stack_entry_is_a_data_error(self):
        with pytest.raises(DataError):
            finite_pressure(ising(4), [[0.5, 0.0], [np.nan, 0.0]])


class TestFinitePressureOverflow:
    """theta.Q past the float range is a NumericRangeError, not nan rows."""

    @pytest.mark.parametrize("theta", [[1e308, 0.0], [-1e308, 0.0], [1e308, 1e308]])
    def test_overflow_names_theta(self, theta):
        fam = ising(4, j=1.0, h=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match=re.escape(repr(theta[0]))):
                finite_pressure(fam, theta)

    def test_stack_names_the_first_overflowing_row(self):
        fam = ising(5, j=1.0, h=0.3)
        stack = [[0.5, 0.0], [5e307, -0.5], [1e308, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match=re.escape("(5e+307, -0.5)")):
                finite_pressure(fam, stack)
            with pytest.raises(NumericRangeError, match=re.escape("(5e+307, -0.5)")):
                pressure_limit(ModelSpec("ising_chain", J=1.0, h=0.3), stack, [4, 5, 6])

    def test_large_finite_exponents_still_pass(self):
        fam = ising(4, j=1.0, h=0.3)
        value = finite_pressure(fam, [1e300, 0.0])
        assert np.isfinite(value) and value > 1e300


class TestStackedPressureLimit:
    """A stacked pressure_limit call equals its per-theta calls, field by field."""

    CASES = [
        (ModelSpec("ising_chain", J=0.9, h=0.35), list(range(4, 13)), "geometric"),
        (ModelSpec("free_spins"), [4, 5, 6, 7, 8, 9], "geometric"),
        (ModelSpec("ising_chain", J=1.0, h=0.2), [4, 6, 8], "geometric"),
        (ModelSpec("curie_weiss", J=1.2, h=0.1), list(range(3, 10)), "affine"),
        (ModelSpec("ising_chain", J=-0.7, h=0.3, boundary="open"), [3, 5, 7, 9], "affine"),
        (ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open"), [3, 4, 5, 6],
         "affine"),
    ]

    @pytest.mark.parametrize("spec, sizes, fit", CASES,
                             ids=[f"{_spec_id(c[0])}-{c[2]}-{len(c[1])}-sizes" for c in CASES])
    def test_estimates_equal_single_theta_calls(self, spec, sizes, fit):
        rng = np.random.default_rng(8)
        stack = rng.uniform(0.1, 2.0, size=(9, spec.n_observables))
        stack[:, 1:] -= 1.0
        gibbs.release_families()
        try:
            stacked = pressure_limit(spec, stack, sizes, fit=fit)
            singles = [pressure_limit(spec, th, sizes, fit=fit) for th in stack]
        finally:
            gibbs.release_families()
        assert isinstance(stacked, list) and len(stacked) == 9
        assert stacked == singles
        assert repr(stacked) == repr(singles)  # bits, signed zeros included

    def test_each_size_read_once_per_call(self, monkeypatch):
        calls = []
        reference = gibbs.finite_pressure

        def counting(family, theta):
            calls.append(np.shape(theta))
            return reference(family, theta)

        monkeypatch.setattr(gibbs, "finite_pressure", counting)
        stack = [[0.3 * k, 0.1] for k in range(1, 8)]
        estimates = pressure_limit(ModelSpec("ising_chain", J=1.0, h=0.5), stack,
                                   list(range(4, 10)), fit="geometric")
        assert len(estimates) == 7
        assert calls == [(7, 2)] * 6
        gibbs.release_families()

    def test_no_dominant_root_in_a_stack_is_a_range_error(self, monkeypatch):
        monkeypatch.setattr(gibbs, "_two_mode_value", lambda *args: None)
        with pytest.raises(NumericRangeError):
            pressure_limit(ModelSpec("ising_chain", J=1.0, h=0.5), [[1.0, 0.0], [0.5, 0.1]],
                           list(range(4, 10)), fit="geometric")
