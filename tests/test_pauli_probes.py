"""Site Paulis as monomial probes: their lazy matrices, their O(dim) folds and
the smeared sides' one phase per distinct Bohr frequency, each against the
dense computation it replaces, bit for bit (``.view(np.uint64)`` tells
signed zeros apart)."""

from pathlib import Path

import numpy as np
import pytest

import thermolab.kms as kms
from thermolab import GaussianTestFunction, ModelSpec, build_model, site_pauli
from thermolab.cli import run_experiment
from thermolab.kms import (
    _PAULI,
    _folded_cross,
    _residual_tables,
    _smeared_sides,
    default_probes,
    default_quadrature_step,
    release_folds,
)
from thermolab.lattice import lift_site_operator

ROOT = Path(__file__).resolve().parents[1]


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


@pytest.mark.parametrize("n", range(1, 11))
def test_site_pauli_matrix_is_the_lift(n):
    dim = 2**n
    rows = np.arange(dim)
    for site in range(n):
        for which, pauli in _PAULI.items():
            op = site_pauli(which, site, n)
            assert op.dim == dim and op.max_norm() == 1.0
            assert op._matrix is None  # nothing dense until it is read
            lifted = lift_site_operator(pauli, site, n)
            assert np.array_equal(bits(op.matrix), bits(lifted))
            assert not op.matrix.flags.writeable
            # one nonzero per row, at cols[j], with phase[j]'s bits
            assert np.count_nonzero(lifted) == dim
            assert np.count_nonzero(lifted[rows, op.cols]) == dim
            assert np.array_equal(bits(op.phase), bits(lifted[rows, op.cols]))
            assert not (op.cols.flags.writeable or op.phase.flags.writeable)


def test_monomial_probe_is_read_only():
    op = site_pauli("y", 0, 2)
    with pytest.raises(AttributeError):
        op.label = "other"
    with pytest.raises(ValueError):
        op.phase[0] = 2.0


# Diagonal families: every kind, both chain boundaries, h in {0, 0.3}.
FAMILIES = [ModelSpec("free_spins")] + [
    ModelSpec("ising_chain", J=1.0, h=h, boundary=boundary)
    for boundary in ("open", "periodic") for h in (0.0, 0.3)
] + [ModelSpec("curie_weiss", J=1.0, h=h) for h in (0.0, 0.3)]


def probe_sites(n):
    """First, middle and last site: at N >= 7 they put the flipped bit inside
    a 64-row fold strip (the last site) and across strips (the first)."""
    return sorted({0, n // 2, n - 1})


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.kind}-{s.boundary}-h{s.h}")
def test_monomial_fold_is_the_dense_fold(spec, n):
    """(random, Pauli), (Pauli, random) and every ordered (Pauli, Pauli) pair of
    the first, middle and last sites' Paulis, on 7 families for N = 1..10:
    4,809 folds. The dense reference fold takes about 3 ms at N = 9 and 20 ms
    at N = 10, so the (Pauli, Pauli) pairs stop at N = 8 (already four fold
    strips), and N = 10 takes only the first and last sites."""
    fam = build_model(spec, spec.region(n))
    view = fam.level_view()
    assert view.basis is None
    index, n_levels = view.index, len(view.rows)
    rng = np.random.default_rng(n)
    dense = rng.standard_normal((fam.dim, fam.dim)) + 1j * rng.standard_normal((fam.dim, fam.dim))
    sites = [0, n - 1] if n == 10 else probe_sites(n)
    paulis = [site_pauli(w, s, n) for s in sites for w in "xyz"]

    def same(a, b):
        fold = _folded_cross(a, b, index, n_levels)
        reference = _folded_cross(getattr(a, "matrix", a), getattr(b, "matrix", b),
                                  index, n_levels)
        return np.array_equal(bits(fold), bits(reference))

    for p in paulis:
        assert same(dense, p), p.label
        assert same(p, dense), p.label
        if n <= 8:
            for q in paulis:
                assert same(p, q), (p.label, q.label)


def smeared_sides_full_table(f, w_lhs, w_rhs, freqs, t_range, h):
    """_smeared_sides with one complex exp per level pair, as it was first
    written: the reference the distinct-frequency gather must match."""
    ts = np.arange(-t_range, t_range + h / 2.0, h)
    lhs_t = np.empty(len(ts), dtype=complex)
    rhs_t = np.empty(len(ts), dtype=complex)
    for start in range(0, len(ts), 128):
        block = ts[start : start + 128]
        phases = np.exp(1j * np.outer(block, freqs))
        lhs_t[start : start + 128] = phases @ w_lhs
        rhs_t[start : start + 128] = phases @ w_rhs
    lhs_int = np.trapezoid(f.values(ts) * lhs_t, dx=h)
    rhs_int = np.trapezoid(f.values(ts, imag_shift=-1.0) * rhs_t, dx=h)
    return lhs_int, rhs_int


@pytest.mark.parametrize("spec,n,theta", [
    (ModelSpec("ising_chain", J=1.0, h=0.3, boundary="periodic"), 6, [1.0, 0.2]),
    (ModelSpec("ising_chain", J=1.0, h=0.0, boundary="periodic"), 6, [0.7, 0.0]),
    (ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open"), 5, [1.0]),
], ids=["ring-h0.3", "ring-h0", "open-transverse"])
def test_smeared_sides_match_the_full_phase_table(spec, n, theta):
    fam = build_model(spec, spec.region(n))
    f = GaussianTestFunction(2.0)
    step = default_quadrature_step(fam, theta, f)
    try:
        for a, b, _ in default_probes(fam, 3, [0.0]):
            lam, log_z, cross, delta = _residual_tables(fam, theta, a, b)
            w_lhs = (np.exp(-lam[:, None] - log_z) * cross).ravel()
            w_rhs = (np.exp(-lam[None, :] - log_z) * cross).ravel()
            freqs = delta.ravel()
            assert len(np.unique(freqs)) < len(freqs)  # pairs share frequencies
            for h in (step, step / 2.0):
                got = _smeared_sides(f, w_lhs, w_rhs, freqs, f.support_radius(), h)
                want = smeared_sides_full_table(f, w_lhs, w_rhs, freqs, f.support_radius(), h)
                assert np.array_equal(bits(np.array(got)), bits(np.array(want)))
    finally:
        release_folds()


def _count_lifts(monkeypatch) -> list:
    calls = []

    def counting(*args, _lift=kms.lift_site_operator):
        calls.append(args)
        return _lift(*args)

    monkeypatch.setattr(kms, "lift_site_operator", counting)
    return calls


@pytest.mark.parametrize("config,lifts", [
    ("configs/kms_ising.cfg", 0),
    ("tools/ci_configs/kms_ring_all_pairs.cfg", 0),
    # the dense family's eigenbasis rotates each of its three site Paulis
    ("tools/ci_configs/kms_transverse_open.cfg", 3),
])
def test_kms_verify_builds_site_paulis_only_on_a_dense_family(tmp_path, monkeypatch,
                                                               config, lifts):
    calls = _count_lifts(monkeypatch)
    run_experiment("kms-verify", ROOT / config, tmp_path / "out")
    assert len(calls) == lifts
