"""Tables built once: grid lines cut from one lexsort, smeared phase blocks
gathered straight from the half table.

``CurveSamples.axis_lines`` must give the lines, line order and neighbour
tables that grouping the samples in a dict keyed by their other coordinates
gave, on a shuffled product grid whose coordinates hold both -0.0 and 0.0.
One smeared KMS call on the 8-site open transverse chain must peak under 1.5
of its 64 MiB phase blocks: the block it gathers, the half table it gathers
from and no concatenated conjugate copy.
"""

import tracemalloc

import numpy as np
import pytest

import thermolab.kms as kms
from thermolab import CONCAVE, CurveSamples, GaussianTestFunction, ModelSpec, build_model
from thermolab.kms import kms_smeared_residual, release_folds, site_pauli


def dict_lines(grid, k):
    """The reference: samples grouped by a dict keyed on the float tuple of
    their other coordinates (so -0.0 and 0.0 share a key), groups in the order
    of their first sample, each sorted by coordinate k."""
    groups = {}
    other = [j for j in range(grid.shape[1]) if j != k]
    for i, key in enumerate(map(tuple, grid[:, other].tolist())):
        groups.setdefault(key, []).append(i)
    return [np.asarray(idx)[np.argsort(grid[idx, k])] for idx in groups.values()]


def neighbour_table(lines, npoints):
    table = np.full((npoints, 5), -1)
    for line in lines:
        for d in range(-2, 3):
            for pos, i in enumerate(line.tolist()):
                if 0 <= pos + d < len(line):
                    table[i, d + 2] = line[pos + d]
    return table


def signed_zero_grid(axes, seed):
    """The product of ``axes``, shuffled, with every 0.0 coordinate made -0.0
    in about half the samples."""
    rng = np.random.default_rng(seed)
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    grid[(grid == 0.0) & (rng.random(grid.shape) < 0.5)] = -0.0
    return grid[rng.permutation(len(grid))]


GRIDS = [
    [[-1.5, 0.0, 0.5, 2.0], [-1.0, 0.0, 0.25, 3.0, 4.5]],
    [[0.0, 1.0, 2.0], [-2.0, 0.0], [-0.5, 0.0, 0.5]],
]


class TestAxisLinesFromOneLexsort:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("axes", GRIDS, ids=["2d", "3d"])
    def test_lines_match_the_dict_grouping(self, axes, seed):
        grid = signed_zero_grid(axes, seed)
        assert np.any(np.signbit(grid) & (grid == 0.0))
        assert np.any(~np.signbit(grid) & (grid == 0.0))
        f = CurveSamples(grid, -np.sum(grid**2, axis=1), CONCAVE)
        assert f.axes() is not None
        for k in range(f.ndim):
            want = dict_lines(grid, k)
            got = f.axis_lines(k)
            assert len(got) == len(want) == len(grid) // len(axes[k])
            for line, ref in zip(got, want):
                assert line.tolist() == ref.tolist()
            for i in range(f.npoints):
                line, pos = f.line_through(i, k)
                ref = next(ref for ref in want if i in ref.tolist())
                assert line.tolist() == ref.tolist()
                assert pos == ref.tolist().index(i)
            assert np.array_equal(f._neighbours(k), neighbour_table(want, f.npoints))

    def test_line_through_indexes_as_a_list(self):
        f = CurveSamples(signed_zero_grid(GRIDS[0], 0), np.zeros(20), CONCAVE)
        line, pos = f.line_through(-1, 0)
        assert line[pos] == f.npoints - 1
        with pytest.raises(IndexError):
            f.line_through(f.npoints, 0)


def test_eight_site_smeared_call_peaks_under_one_and_a_half_blocks():
    # 256 levels, so 64-time blocks of 64 MiB; (sz@0, sz@0) at sigma_w = 2 on
    # the default time grid, the fold taken outside the measurement
    spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.7, boundary="open")
    fam = build_model(spec, spec.region(8))
    sz = site_pauli("z", 0, 8)
    f = GaussianTestFunction(2.0)
    block = kms._PHASE_ENTRIES * np.dtype(complex).itemsize
    try:
        kms_smeared_residual(fam, [1.0], sz, sz, f)
        tracemalloc.start()
        try:
            kms_smeared_residual(fam, [1.0], sz, sz, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        release_folds()
    assert block == 64 * 2**20
    assert peak < 1.5 * block
