"""A built-in family is its structure: diagonal kinds count their level
table from (walls, down spins) classes, bit for bit the grouping of their
2^N states, and build no per-state storage for a pressure sweep; the dense
transverse chain is kept as its two flip-parity inputs, built from spin bits,
and its matrix is assembled only when read."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import enumerate_curie_weiss_logz
from test_lattice import GROUPING_SPECS, _kron_transverse_hamiltonian
import thermolab.gibbs as gibbs
import thermolab.lattice as lattice
from thermolab import ModelSpec, ObservableFamily, Region, build_model, pressure_limit
from thermolab.lattice import _chain_classes, _counted_levels, _site_spins

COUNTED_SPECS = GROUPING_SPECS + [
    ModelSpec(kind, J=0.0, h=h, boundary=boundary)
    for kind, boundary in (("ising_chain", "periodic"), ("ising_chain", "open"),
                           ("curie_weiss", "periodic"))
    for h in (0.0, 0.3)
] + [ModelSpec(kind, J=0.8, h=0.0, boundary=boundary)
     for kind, boundary in (("ising_chain", "periodic"), ("ising_chain", "open"))]


def grouped_levels(fam):
    """The level table of the family's diagonals, by the grouping of states."""
    return ObservableFamily(fam.region, fam.labels, diagonals=fam.diagonals).levels()


class TestCountedLevels:
    """levels() of a fresh built-in family is the grouped table, byte for byte."""

    @pytest.mark.parametrize("spec", COUNTED_SPECS,
                             ids=lambda s: f"{s.kind}-{s.boundary}-J{s.J}-h{s.h}")
    def test_matches_the_grouped_states(self, spec):
        for n in range(1, 15):
            fam = build_model(spec, spec.region(n))
            rows, log_mult = fam.levels()
            assert fam._diagonals is None  # counted, no state was built
            want_rows, want_log_mult = grouped_levels(fam)
            for got, want in ((rows, want_rows), (log_mult, want_log_mult)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert np.exp(log_mult).sum() == pytest.approx(2.0**n, rel=1e-13)

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    def test_chain_class_counts_are_exact(self, periodic):
        for n in range(1, 15):
            spins = _site_spins(n).astype(np.int64)
            pairs = range(n) if periodic else range(n - 1)
            walls = sum((spins[i] != spins[(i + 1) % n] for i in pairs),
                        np.zeros(2**n, dtype=np.int64))
            downs = (spins == -1).sum(axis=0)
            want = np.zeros((n + 1, n + 1), dtype=np.int64)
            np.add.at(want, (walls, downs), 1)
            counts = _chain_classes(n, periodic)
            assert np.array_equal(counts, want.astype(float))


def table_logz(spec, n, theta):
    """ln Tr exp(-theta.Q) from the counted table, with no cap."""
    rows, log_mult = _counted_levels(spec, n)
    exponent = log_mult - rows @ np.asarray(theta, dtype=float)
    top = exponent.max()
    return float(np.log(np.exp(exponent - top).sum()) + top)


def transfer(j, h, theta):
    """Symmetric 2x2 transfer matrix of exp(-theta.Q) and its end vector."""
    field = theta[0] * h - theta[1]
    s = np.array([1.0, -1.0])
    t = np.exp(theta[0] * j * np.outer(s, s) + field * (s[:, None] + s[None, :]) / 2.0)
    return t, np.exp(field * s / 2.0)


class TestCountedTablesAtScale:
    """Counted tables past the cap against independent log-partition sums."""

    COUPLINGS = ((0.9, 0.35, (0.7, -0.2)), (-0.7, -0.4, (1.1, 0.3)), (1.2, 0.0, (0.5, 0.0)))

    @pytest.mark.parametrize("n", [64, 200])
    def test_periodic_ring_is_the_transfer_trace(self, n):
        for j, h, theta in self.COUPLINGS:
            t, _ = transfer(j, h, theta)
            low, high = np.linalg.eigvalsh(t)
            want = n * math.log(high) + math.log1p((low / high) ** n)
            spec = ModelSpec("ising_chain", J=j, h=h, boundary="periodic")
            assert_allclose(table_logz(spec, n, theta), want, rtol=1e-12)

    @pytest.mark.parametrize("n", [64, 200])
    def test_open_chain_is_the_transfer_product(self, n):
        for j, h, theta in self.COUPLINGS:
            t, v = transfer(j, h, theta)
            w, log_scale = v, 0.0
            for _ in range(n - 1):
                w = t @ w
                log_scale += math.log(w.sum())
                w = w / w.sum()
            want = log_scale + math.log(v @ w)
            spec = ModelSpec("ising_chain", J=j, h=h, boundary="open")
            assert_allclose(table_logz(spec, n, theta), want, rtol=1e-12)

    @pytest.mark.parametrize("n", [64, 200])
    def test_curie_weiss_is_the_binomial_sum(self, n):
        for j, h, (beta, t1) in self.COUPLINGS:
            spec = ModelSpec("curie_weiss", J=j, h=h)
            # theta_1 M is a shift of the field: h - theta_1 / theta_0
            want = enumerate_curie_weiss_logz(n, beta, j, h - t1 / beta)
            assert_allclose(table_logz(spec, n, (beta, t1)), want, rtol=1e-12)

    @pytest.mark.parametrize("n", [64, 200])
    def test_free_spins_are_independent(self, n):
        for theta0 in (-0.8, 0.0, 1.5):
            want = n * math.log1p(math.exp(-theta0))
            assert_allclose(table_logz(ModelSpec("free_spins"), n, (theta0,)), want,
                            rtol=1e-12)


class TestPressureSweepBuildsNoStates:
    """A diagonal pressure sweep reads counted tables and never the spin bits."""

    @pytest.mark.parametrize("spec, fit", [
        (ModelSpec("ising_chain", J=0.9, h=0.35), "geometric"),
        (ModelSpec("ising_chain", J=-0.7, h=0.2, boundary="open"), "affine"),
        (ModelSpec("curie_weiss", J=1.1, h=0.1), "affine"),
        (ModelSpec("free_spins"), "geometric"),
    ], ids=lambda x: getattr(x, "kind", x))
    def test_same_estimates_without_site_spins(self, monkeypatch, spec, fit):
        thetas = [[0.4, -0.3, 1.2][:spec.n_observables], [1.3, 0.25][:spec.n_observables]]
        sizes = list(range(3, 15))

        def grouped_build(spec, region, cap):
            fam = build_model(spec, region, cap)
            return ObservableFamily(region, spec.labels, diagonals=fam.diagonals, spec=spec)

        gibbs.release_families()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(gibbs, "build_model", grouped_build)
                want = pressure_limit(spec, thetas, sizes, fit=fit)
            gibbs.release_families()

            def no_states(n_sites):
                raise AssertionError("a pressure sweep built a per-state table")

            monkeypatch.setattr(lattice, "_site_spins", no_states)
            assert pressure_limit(spec, thetas, sizes, fit=fit) == want
        finally:
            gibbs.release_families()


class TestTransverseBlocksFromBits:
    """near and far come from spin bits; the dense matrix waits for a reader."""

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_blocks_are_the_kron_slices(self, n, boundary):
        for j, hx in ((1.0, 0.7), (-0.9, -0.4), (0.6, 0.0)):
            spec = ModelSpec("transverse_ising_chain", J=j, hx=hx, boundary=boundary)
            fam = build_model(spec, spec.region(n))
            reference = _kron_transverse_hamiltonian(n, j, hx, boundary == "periodic")
            half = fam.dim // 2
            near, far = fam._blocks
            assert near.tobytes() == reference[:half, :half].tobytes()
            assert far.tobytes() == reference[:half, ::-1][:, :half].tobytes()
            assert not (near.flags.writeable or far.flags.writeable)

    def test_dense_is_assembled_on_first_read(self):
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.6, boundary="open")
        fam = build_model(spec, spec.region(6))
        fam.levels()
        fam.level_view()
        assert fam._dense is None  # the solve reads the blocks only
        dense = fam.dense
        assert fam.dense is dense and not dense[0].flags.writeable
        reference = _kron_transverse_hamiltonian(6, 1.0, 0.6, False)
        assert dense[0].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_a_given_matrix_is_kept_as_its_blocks(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((2**n, 2**n))
        m = m + m.T
        m = m + m[::-1, ::-1]
        fam = ObservableFamily(Region("single_sites", n), ("energy",), matrices=[m])
        assert fam._dense is None
        assert fam.dense[0].tobytes() == m.tobytes()
        levels = np.sort(np.linalg.eigvalsh(m))
        assert_allclose(fam.levels()[0][:, 0], levels, atol=1e-12)


def exact_chain_counts(n, periodic):
    """counts[w][d] of an n-site chain as Python ints, by a walk over the
    sites independent of the run formulas. For each first spin, last spin
    and wall count the counts over d are packed into one int, n + 2 bits per
    d (every count is below 2^n); a down spin shifts the packing by one d."""
    bits = n + 2
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for first in (0, 1):
        ends = [[0] * (n + 1), [0] * (n + 1)]  # ends[last spin][walls]
        ends[first][0] = 1 << (bits * first)
        for _ in range(n - 1):
            up, down = ends
            ends = [[up[w] + (down[w - 1] if w else 0) for w in range(n + 1)],
                    [(down[w] + (up[w - 1] if w else 0)) << bits for w in range(n + 1)]]
        for last in (0, 1):
            closing = int(periodic and last != first)  # the ring's last bond
            for w, packed in enumerate(ends[last][:n + 1 - closing]):
                for d in range(n + 1):
                    counts[w + closing][d] += (packed >> (bits * d)) & ((1 << bits) - 1)
    return counts


class TestChainClassesPastFloatExactness:
    """Past 2^53 every class count is the correctly rounded exact integer."""

    @pytest.mark.parametrize("n", [64, 100, 200])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    def test_counts_are_the_rounded_exact_integers(self, n, periodic):
        exact = exact_chain_counts(n, periodic)
        for w, row in enumerate(exact):
            if periodic:
                assert sum(row) == (2 * math.comb(n, w) if w % 2 == 0 else 0)
            else:
                assert sum(row) == 2 * math.comb(n - 1, w)
        for d in range(n + 1):
            assert sum(row[d] for row in exact) == math.comb(n, d)
        assert max(map(max, exact)) > 2**53
        want = np.array([[float(c) for c in row] for row in exact])
        assert _chain_classes(n, periodic).tobytes() == want.tobytes()
