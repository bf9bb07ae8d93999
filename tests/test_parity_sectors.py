"""The dense transverse chain is solved in its two spin-flip parity blocks:
its levels match the full matrix's eigenvalues and the free-fermion oracle,
its eigenvectors form an eigenbasis of the full matrix, and a dense
observable that does not commute with the flip is refused."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import open_transverse_ising_logz, transverse_ising_matrix
from thermolab import ModelSpec, ObservableFamily, Region, UsageError, build_model, finite_pressure

COUPLINGS = ((1.0, 0.7), (-0.9, -0.4))


def chain(n, boundary, j=1.0, hx=0.7):
    spec = ModelSpec("transverse_ising_chain", J=j, hx=hx, boundary=boundary)
    return build_model(spec, spec.region(n))


def spectrum_pressure(theta0, spectrum, n):
    """phi_N = ln sum_k exp(-theta0 E_k) / N over the full matrix's eigenvalues."""
    lam = theta0 * np.asarray(spectrum)
    shift = lam.min()
    return (math.log(np.exp(-(lam - shift)).sum()) - shift) / n


class TestFlipParitySectors:
    # n = 1 periodic has a self bond and n = 2 periodic a doubled bond
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_pressure_matches_full_eigensolve(self, n, boundary):
        for j, hx in COUPLINGS:
            fam = chain(n, boundary, j, hx)
            spectrum = np.linalg.eigvalsh(transverse_ising_matrix(n, j, hx, boundary == "periodic"))
            for t0 in (0.4, 1.3, 3.0):
                expected = spectrum_pressure(t0, spectrum, n)
                assert abs(finite_pressure(fam, [t0]) - expected) <= 1e-13

    @pytest.mark.parametrize("n", [11, 12])
    def test_open_chain_matches_free_fermions(self, n):
        fam = chain(n, "open")
        for t0 in (0.4, 1.3):
            assert_allclose(finite_pressure(fam, [t0]),
                            open_transverse_ising_logz(n, t0, 1.0, 0.7) / n, rtol=1e-13)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_level_view_is_an_ascending_eigenbasis(self, n, boundary):
        view = chain(n, boundary).level_view()
        fam = chain(n, boundary)
        vec, lam = view.basis, view.rows[:, 0]
        assert vec.shape == (fam.dim, fam.dim)
        assert np.array_equal(view.index, np.arange(fam.dim))
        assert np.all(np.diff(lam) >= 0.0)
        assert_allclose(vec.T @ vec, np.eye(fam.dim), atol=1e-12)
        assert_allclose(fam.dense[0] @ vec, vec * lam, atol=1e-12)
        # a fresh family's levels() takes the eigenvalues-only path
        assert_allclose(lam, fam.levels()[0][:, 0], atol=1e-12)

    def test_dense_observable_must_commute_with_the_flip(self):
        with pytest.raises(UsageError, match="spin flip"):
            ObservableFamily(Region("single_sites", 2), ("energy",),
                             matrices=[np.diag([0.0, 1.0, 2.0, 3.0])])
