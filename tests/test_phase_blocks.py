"""The smeared sides' phase table is taken in blocks bounded by an entry cap.

A block holds at most 128 times and ``kms._PHASE_ENTRIES`` entries. Under a
smaller cap the blocks hold fewer times, and the sides must keep the bits of
the 128-time blocks, a lone last time included: numpy's (1, n) @ (n,) rounds
apart from a taller block's mat-vec, so a block may hold one time only where
128-time blocks end in one.
"""

import tracemalloc

import numpy as np
import pytest

import thermolab.kms as kms
from thermolab import GaussianTestFunction, ModelSpec, build_model
from thermolab.kms import (
    _residual_tables,
    _smeared_sides,
    default_probes,
    kms_smeared_residual,
    release_folds,
    site_pauli,
)
from test_pauli_probes import smeared_sides_full_table


def bits(x) -> np.ndarray:
    return np.asarray(x).view(np.uint64)


def grid_length(t_range, h) -> int:
    return len(np.arange(-t_range, t_range + h / 2.0, h))


# (t_range, h) grids of 17 and 193 times (one past a multiple of 2, 4, 8 and
# 16, and 193 of 32 and 64 too, but not of 128), 129 and 257 (one past a
# multiple of 128: 128-time blocks end in a lone time there) and 461
GRIDS = [(4.0, 0.5), (12.0, 0.125), (8.0, 0.125), (16.0, 0.125), (16.09, 0.07)]


class TestCappedBlocksKeepTheBits:
    def test_grid_lengths(self):
        assert [grid_length(*g) for g in GRIDS] == [17, 193, 129, 257, 461]

    @pytest.mark.parametrize("spec, n, theta", [
        (ModelSpec("ising_chain", J=1.0, h=0.3, boundary="periodic"), 6, [1.0, 0.2]),
        (ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open"), 5, [1.0]),
    ], ids=["ring", "open-transverse"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 8, 64, 127])
    def test_sides_match_the_full_table(self, monkeypatch, spec, n, theta, rows):
        # a cap of `rows` rows' entries; under 2 rows it still takes 2, and
        # off a power of two the largest power of two below
        fam = build_model(spec, spec.region(n))
        f = GaussianTestFunction(2.0)
        try:
            for a, b, _ in default_probes(fam, 3, [0.0]):
                lam, log_z, cross, delta = _residual_tables(fam, theta, a, b)
                w_lhs = (np.exp(-lam[:, None] - log_z) * cross).ravel()
                w_rhs = (np.exp(-lam[None, :] - log_z) * cross).ravel()
                freqs = delta.ravel()
                monkeypatch.setattr(kms, "_PHASE_ENTRIES", rows * len(freqs))
                for t_range, h in GRIDS:
                    got = _smeared_sides(f, w_lhs, w_rhs, freqs, t_range, h)
                    want = smeared_sides_full_table(f, w_lhs, w_rhs, freqs, t_range, h)
                    assert np.array_equal(bits(np.array(got)), bits(np.array(want)))
        finally:
            release_folds()

    @pytest.mark.parametrize("rows, grid, blocks", [
        # 257 times: 128-time blocks end in a lone time, and so do these
        (128, (16.0, 0.125), [128, 128, 1]), (64, (16.0, 0.125), [64] * 4 + [1]),
        (2, (16.0, 0.125), [2] * 128 + [1]), (1, (16.0, 0.125), [2] * 128 + [1]),
        # 193 and 17 times: any other lone last time joins the block before it
        (64, (12.0, 0.125), [64, 64, 65]), (8, (4.0, 0.5), [8, 9]), (2, (4.0, 0.5), [2] * 7 + [3]),
    ])
    def test_block_sizes(self, monkeypatch, rows, grid, blocks):
        shapes = []
        outer = np.outer
        monkeypatch.setattr(np, "outer", lambda x, y: shapes.append(len(x)) or outer(x, y))
        freqs = np.array([0.5, -0.5, 0.0, 1.25])
        w = np.linspace(0.1, 0.4, 4) + 0.0j
        monkeypatch.setattr(kms, "_PHASE_ENTRIES", rows * len(freqs))
        _smeared_sides(GaussianTestFunction(2.0), w, w, freqs, *grid)
        assert shapes == blocks


def test_eight_site_smeared_call_stays_under_three_blocks():
    # 256 levels: 65536 level pairs, so a block takes 64 times (64 MiB of
    # phases) where 128 would take twice that; the grid holds about 160 times
    # at the coarse step and 320 at the fine one
    spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open")
    fam = build_model(spec, spec.region(8))
    a, b = site_pauli("x", 0, 8), site_pauli("y", 0, 8)
    f = GaussianTestFunction(2.0)
    block = kms._PHASE_ENTRIES * np.dtype(complex).itemsize
    try:
        kms_smeared_residual(fam, [1.0], a, b, f, t_range=6.0)  # fold outside the measurement
        tracemalloc.start()
        try:
            kms_smeared_residual(fam, [1.0], a, b, f, t_range=6.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        release_folds()
    assert len(fam.levels()[0]) ** 2 * 64 == kms._PHASE_ENTRIES
    assert peak <= 3 * block
