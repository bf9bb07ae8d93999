"""KMS phases are taken only on the level pairs a probe pair weights.

A pair whose folded cross weight is exactly zero gets a zero phase instead of
a complex exp: zero times zero adds the same signed zero as zero times the
phase would, so the residuals keep their bits. The tests poison the Bohr
frequencies of the unweighted pairs with NaN or +inf: an exp taken there would
carry a NaN into every sum. On a dense family each probe is rotated into the
eigenbasis once per run (``kms._memo_rotation``), beside the fold memo.
"""

from pathlib import Path

import numpy as np
import pytest

import thermolab.kms as kms
from thermolab import GaussianTestFunction, ModelSpec, build_model
from thermolab.cli import run_experiment
from thermolab.kms import (
    ROTATION_MEMO_SIZE,
    _memo_cross,
    _memo_rotation,
    _residual_tables,
    _smeared_sides,
    default_probes,
    default_quadrature_step,
    kms_residual,
    release_folds,
    site_pauli,
)

ROOT = Path(__file__).resolve().parents[1]

DIAGONAL = [
    (ModelSpec("ising_chain", J=1.0, h=0.0, boundary="periodic"), 6, [1.0, 0.2]),
    (ModelSpec("ising_chain", J=1.0, h=0.3, boundary="periodic"), 5, [0.7, -0.1]),
    (ModelSpec("curie_weiss", J=1.0, h=0.2), 6, [0.9, 0.3]),
]
DIAGONAL_IDS = ["ring-h0", "ring-h0.3", "curie-weiss"]


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def weights(fam, theta, a, b):
    lam, log_z, cross, delta = _residual_tables(fam, theta, a, b)
    w_lhs = (np.exp(-lam[:, None] - log_z) * cross).ravel()
    w_rhs = (np.exp(-lam[None, :] - log_z) * cross).ravel()
    return w_lhs, w_rhs, delta.ravel()


@pytest.mark.parametrize("poison", [np.nan, np.inf])
@pytest.mark.parametrize("spec, n, theta", DIAGONAL, ids=DIAGONAL_IDS)
def test_smeared_sides_skip_unweighted_pairs(spec, n, theta, poison):
    fam = build_model(spec, spec.region(n))
    f = GaussianTestFunction(2.0)
    step = default_quadrature_step(fam, theta, f)
    unweighted_seen = 0
    try:
        for a, b, _ in default_probes(fam, 4, [0.0]):
            w_lhs, w_rhs, freqs = weights(fam, theta, a, b)
            unweighted = (w_lhs == 0) & (w_rhs == 0)
            unweighted_seen += int(unweighted.sum())
            poisoned = np.where(unweighted, poison, freqs)
            for h in (step, step / 2.0):
                want = _smeared_sides(f, w_lhs, w_rhs, freqs, f.support_radius(), h)
                got = _smeared_sides(f, w_lhs, w_rhs, poisoned, f.support_radius(), h)
                assert np.array_equal(bits(np.array(got)), bits(np.array(want)))
    finally:
        release_folds()
    assert unweighted_seen > 0  # the probes leave level pairs without weight


def test_smeared_sides_without_weight_are_zero():
    freqs = np.array([np.nan, 0.5, -0.5, np.inf])
    w = np.zeros(4, dtype=complex)
    assert _smeared_sides(GaussianTestFunction(2.0), w, w, freqs, 4.0, 0.25) == (0j, 0j)


@pytest.mark.parametrize("spec, n, theta", DIAGONAL, ids=DIAGONAL_IDS)
def test_pointwise_residual_skips_unweighted_pairs(monkeypatch, spec, n, theta):
    # +inf, not NaN: delta also sets the right side's weight e^{-lam_m - delta},
    # which +inf keeps finite (0), while e^{i inf t} is NaN at every t
    fam = build_model(spec, spec.region(n))
    times = [0.0, 0.3, -1.7, 4.9]
    tables = kms._residual_tables
    try:
        probes = list(dict.fromkeys((a, b) for a, b, _ in default_probes(fam, 4, [0.0])))
        want = [kms_residual(fam, theta, a, b, times) for a, b in probes]

        def poisoned(*args):
            lam, log_z, cross, delta = tables(*args)
            return lam, log_z, cross, np.where(cross == 0, np.inf, delta)

        monkeypatch.setattr(kms, "_residual_tables", poisoned)
        got = [kms_residual(fam, theta, a, b, times) for a, b in probes]
    finally:
        release_folds()
    assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(got, want))


def test_a_weighted_non_finite_phase_still_raises(monkeypatch):
    spec = ModelSpec("ising_chain", J=1.0, h=0.0, boundary="periodic")
    fam = build_model(spec, spec.region(4))
    a, b = site_pauli("x", 0, 4), site_pauli("y", 0, 4)
    tables = kms._residual_tables

    def poisoned(*args):
        lam, log_z, cross, delta = tables(*args)
        return lam, log_z, cross, np.where(cross != 0, np.inf, delta)

    monkeypatch.setattr(kms, "_residual_tables", poisoned)
    try:
        with pytest.raises(kms.NumericRangeError), np.errstate(invalid="ignore"):
            kms_residual(fam, [1.0, 0.2], a, b, 0.5)
    finally:
        release_folds()


class TestRotationMemo:
    """A dense family rotates each probe once per run: kms-verify's three pairs
    hold four distinct probes, so four rotations for three folds."""

    CONFIG = ROOT / "tools" / "ci_configs" / "kms_transverse_open.cfg"

    def test_kms_verify_rotates_each_probe_once(self, tmp_path, monkeypatch):
        rotations, folds = [], []
        rotate, fold = kms._rotate, kms._folded_cross
        monkeypatch.setattr(kms, "_rotate", lambda *args: rotations.append(1) or rotate(*args))
        monkeypatch.setattr(kms, "_folded_cross", lambda *args: folds.append(1) or fold(*args))
        release_folds()
        run_experiment("kms-verify", self.CONFIG, tmp_path, threads=1)
        assert (len(rotations), len(folds)) == (4, 3)
        assert _memo_rotation.cache_info().currsize == 0
        assert _memo_cross.cache_info().currsize == 0

    def test_product_basis_rotates_nothing(self, monkeypatch):
        rotations = []
        rotate = kms._rotate
        monkeypatch.setattr(kms, "_rotate", lambda *args: rotations.append(1) or rotate(*args))
        spec = ModelSpec("ising_chain", J=1.0, h=0.3, boundary="periodic")
        fam = build_model(spec, spec.region(4))
        try:
            for a, b, t in default_probes(fam, 1, [0.5]):
                kms_residual(fam, [1.0, 0.2], a, b, t)
            assert _memo_rotation.cache_info().currsize == 0
        finally:
            release_folds()
        assert rotations == []

    def test_memo_is_bounded_and_read_only(self):
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open")
        fam = build_model(spec, spec.region(3))
        probes = [site_pauli(w, k, 3) for w in "xz" for k in range(3)]
        try:
            for a in probes:
                kms_residual(fam, [1.0], a, a, 0.5)
            assert _memo_rotation.cache_info().currsize == ROTATION_MEMO_SIZE
            kept = _memo_rotation(fam, probes[-1])
            assert not kept.flags.writeable
            basis = fam.level_view().basis
            assert np.array_equal(kept, basis.conj().T @ probes[-1].matrix @ basis)
        finally:
            release_folds()
        assert _memo_rotation.cache_info().currsize == 0
