"""The open transverse chain's level table from its free-fermion modes.

A built-in open ``transverse_ising_chain`` family sums its 2^N levels from N
mode energies (``lattice._mode_levels``) and builds its flip-parity blocks
only when the matrix or the eigenvectors are read. These tests check the
table against the full matrix's eigensolve and the closed-form ln Z, the
affine error bar against the infinite chain's pressure, and that a pressure
sweep builds no block.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import open_transverse_ising_logz, transverse_ising_matrix
from test_lattice import _kron_transverse_hamiltonian

import thermolab.gibbs as gibbs
from thermolab import ModelSpec, ObservableFamily, Region, build_model, finite_pressure, pressure_limit


def open_chain(j, hx):
    return ModelSpec("transverse_ising_chain", J=j, hx=hx, boundary="open")


def _record_eigensolves(monkeypatch):
    """Record the name and argument shape of every np.linalg.eigh and eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestModeTable:
    """levels() of the open chain equals the full matrix's spectrum."""

    @pytest.mark.parametrize("hx", [0.7, 0.0, 1.3])
    @pytest.mark.parametrize("j", [1.0, -0.9, 0.0])
    def test_matches_full_matrix_eigvalsh(self, j, hx):
        for n in range(1, 11):
            fam = build_model(open_chain(j, hx), Region("chain", n, "open"))
            rows, log_mult = fam.levels()
            assert rows.shape == (2**n, 1)
            assert log_mult.tobytes() == np.zeros(2**n).tobytes()
            assert np.all(np.diff(rows[:, 0]) >= 0.0)
            reference = np.linalg.eigvalsh(transverse_ising_matrix(n, j, hx, periodic=False))
            assert_allclose(rows[:, 0], reference, rtol=0.0, atol=1e-12)
            assert fam._near_far is None and not fam.is_diagonal

    @pytest.mark.parametrize("j, hx", [(1.0, 0.7), (-0.9, 1.3), (1.0, 1.0), (0.5, 0.0)])
    def test_pressure_matches_closed_form_log_z(self, j, hx):
        thetas = np.array([[0.05], [0.4], [1.0], [2.5]])
        for n in range(11, 15):
            fam = build_model(open_chain(j, hx), Region("chain", n, "open"))
            phis = finite_pressure(fam, thetas)
            exact = [open_transverse_ising_logz(n, th, j, hx) / n for th in thetas[:, 0]]
            assert_allclose(phis, exact, rtol=1e-13, atol=0.0)
            assert fam._near_far is None

    def test_periodic_chain_keeps_the_block_solve(self, monkeypatch):
        spec = ModelSpec("transverse_ising_chain", J=0.8, hx=0.6, boundary="periodic")
        for n in (1, 2, 5):
            fam = build_model(spec, spec.region(n))
            assert fam._near_far is None and not fam.is_diagonal
            calls = _record_eigensolves(monkeypatch)
            rows, _ = fam.levels()
            assert calls == [("eigvalsh", (2, 2**(n - 1), 2**(n - 1)))]
            assert fam._near_far is not None
            reference = np.linalg.eigvalsh(transverse_ising_matrix(n, 0.8, 0.6))
            assert_allclose(rows[:, 0], reference, rtol=0.0, atol=1e-12)
            monkeypatch.undo()

    def test_a_given_matrix_with_an_open_chain_spec_keeps_its_blocks(self):
        # the mode table serves the built-in family only: a family given its
        # matrix is solved from it, whatever its spec says
        spec = open_chain(1.0, 0.7)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((16, 16))
        m = m + m.T
        m = m + m[::-1, ::-1]
        fam = ObservableFamily(spec.region(4), spec.labels, matrices=[m], spec=spec)
        assert_allclose(fam.levels()[0][:, 0], np.linalg.eigvalsh(m), atol=1e-12)

    def test_level_view_builds_the_blocks(self):
        fam = build_model(open_chain(1.0, 0.7), Region("chain", 5, "open"))
        levels = fam.levels()[0]
        view = fam.level_view()
        assert fam._near_far is not None and fam._dense is None
        assert fam.levels()[0] is levels  # kept from the mode table
        assert_allclose(view.rows, levels, rtol=0.0, atol=1e-12)


def infinite_chain_pressure(theta, j, hx, points=1 << 14):
    """phi_inf = (1/pi) int_0^pi ln 2cosh(theta eps(k)) dk, eps(k) the
    infinite chain's mode energy sqrt(J^2 + hx^2 + 2 J hx cos k), by the
    midpoint rule (spectrally accurate: the integrand is smooth, even and
    2 pi-periodic in k)."""
    k = (np.arange(points) + 0.5) * (np.pi / points)
    x = theta * np.sqrt(j * j + hx * hx + 2.0 * j * hx * np.cos(k))
    return float(np.mean(x + np.log1p(np.exp(-2.0 * x))))


class TestAffineErrorBarAtScale:
    """On the open chain the affine bar covers the distance to phi_inf."""

    THETAS = (0.1, 0.3, 0.5, 0.8, 1.2, 1.7, 2.5, 4.0)

    @pytest.mark.parametrize("hx", [0.7, 1.3, 0.3, 1.0])
    @pytest.mark.parametrize("j", [1.0, -0.9, 0.6, 0.0])
    def test_bar_is_at_least_the_actual_error(self, j, hx):
        spec = open_chain(j, hx)
        stack = np.array(self.THETAS)[:, None]
        gibbs.release_families()
        try:
            for sizes in (range(4, 15), range(10, 15), range(4, 10)):
                estimates = pressure_limit(spec, stack, list(sizes), fit="affine")
                for theta, est in zip(self.THETAS, estimates):
                    actual = abs(est.value - infinite_chain_pressure(theta, j, hx))
                    assert actual <= est.extrapolation_error, (sizes, theta)
        finally:
            gibbs.release_families()

    def test_midpoint_rule_is_converged(self):
        for theta, j, hx in ((0.8, 1.0, 0.7), (4.0, 1.0, 1.0), (2.5, -0.9, 1.3)):
            assert abs(infinite_chain_pressure(theta, j, hx)
                       - infinite_chain_pressure(theta, j, hx, 1 << 16)) <= 1e-15


class TestPressureSweepBuildsNoBlocks:
    """A pressure sweep on the open chain reads the mode tables only."""

    def test_sweep_to_fourteen_sites(self, monkeypatch):
        j, hx = 1.0, 0.7
        spec = open_chain(j, hx)
        sizes = list(range(3, 15))
        gibbs.release_families()
        try:
            calls = _record_eigensolves(monkeypatch)
            estimates = pressure_limit(spec, [[0.4], [0.9], [1.6]], sizes, fit="affine")
            assert calls == [("eigvalsh", (2 * n, 2 * n)) for n in sizes]
            monkeypatch.undo()
            assert len(estimates) == 3
            for n in sizes:
                fam = gibbs._family(spec, n, gibbs.DIMENSION_CAP)
                assert fam._near_far is None and fam._dense is None
                assert fam._level_view is None and not fam.is_diagonal
            for n in range(3, 10):
                fam = gibbs._family(spec, n, gibbs.DIMENSION_CAP)
                reference = _kron_transverse_hamiltonian(n, j, hx, False)
                assert fam.dense[0].tobytes() == reference.tobytes()
        finally:
            gibbs.release_families()
