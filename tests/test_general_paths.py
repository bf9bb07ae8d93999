"""Cases that the general code path covers with the special case's result.

A 1-d grid is a product grid with one axis: its one line is every sample in
order, so its neighbour table and chord audit are those of that line, and a
one-point curve's biconjugate takes the lone dual slope 0. A stacked tangent
call whose points are all off-sample runs the on-sample loop over no rows. A
``ControlVector`` is read through ``__array__``, a product-basis matrix's
expectation through its diagonal, and ``SlopeGap`` holds only the slopes it
measured.
"""

import dataclasses

import numpy as np
import pytest

from thermolab import (
    CONCAVE,
    ControlVector,
    CurveSamples,
    DensityState,
    ObservableFamily,
    Region,
    UsageError,
    biconjugate,
    concavity_violations,
    tangent_set,
)
from thermolab.completeness import SlopeGap


def _line_table(npoints):
    """Neighbour table of the single line arange(npoints), row by row."""
    return np.array([[i + d if 0 <= i + d < npoints else -1 for d in range(-2, 3)]
                     for i in range(npoints)])


def _line_audit(f, tol):
    """Chord audit of every (i-1, i, i+1) along the sample order, per triple."""
    out = []
    g, v = f.grid[:, 0], f.values
    for i in range(1, f.npoints - 1):
        ca, cb = g[i - 1] - g[i + 1], g[i] - g[i + 1]
        lam = cb * ca / (ca * ca)
        defect = lam * v[i - 1] + (1.0 - lam) * v[i + 1] - v[i]
        if 0.0 < lam < 1.0 and defect > tol:
            out.append(((i - 1, i, i + 1), lam, defect))
    return out


class TestOneAxisGrid:
    @pytest.mark.parametrize("npoints", [1, 2, 3, 7])
    def test_neighbours_are_the_one_line_table(self, npoints):
        f = CurveSamples(np.linspace(-1.0, 2.0, npoints), np.zeros(npoints), CONCAVE)
        assert f.axes() is not None
        assert [line.tolist() for line in f.axis_lines(0)] == [list(range(npoints))]
        assert f._neighbours(0).tolist() == _line_table(npoints).tolist()

    @pytest.mark.parametrize("tol", [0.0, 0.05])
    def test_concavity_audit_is_the_one_line_audit(self, tol):
        rng = np.random.default_rng(17)
        grid = np.cumsum(rng.uniform(0.1, 1.0, 40)) - 7.0
        f = CurveSamples(grid, rng.standard_normal(40), CONCAVE)
        found = [(v.indices, v.lam, v.defect) for v in concavity_violations(f, tol)]
        expected = _line_audit(f, tol)
        assert found and found == expected

    def test_one_point_grid_is_accepted(self):
        f = CurveSamples([[2.5]], [0.75], CONCAVE)
        assert f.npoints == 1 and concavity_violations(f, 0.0) == []


class TestOnePointBiconjugate:
    @pytest.mark.parametrize("grid", [[0.3], [[-1.5, 2.0]], [[0.0, -4.0, 7.0]]])
    def test_value_and_metadata_stay(self, grid):
        f = CurveSamples(grid, [-2.75], CONCAVE, {"k": "v"})
        hull = biconjugate(f)
        assert hull.values.tolist() == [-2.75]
        assert hull.grid.tolist() == f.grid.tolist()
        assert hull.metadata == {"k": "v"}


class TestAllPointsOffSample:
    def test_stack_of_chord_points_reads_chords(self):
        f = CurveSamples([0.0, 1.0, 3.0], [0.0, 2.0, 3.0], CONCAVE)
        ts = tangent_set(f, [[0.5], [2.0], [2.5]])
        assert ts.lower[:, 0].tolist() == [2.0, 0.5, 0.5]
        assert ts.upper[:, 0].tolist() == [2.0, 0.5, 0.5]
        assert ts.differentiable.tolist() == [True, True, True]


class TestControlVectorAsArray:
    def test_asarray_is_the_float_vector(self):
        arr = np.asarray(ControlVector((2.0, 1.0)))
        assert arr.dtype == np.float64 and arr.shape == (2,)
        assert arr.tolist() == [2.0, 1.0]

    def test_dtype_is_honoured(self):
        assert np.asarray(ControlVector((2.0, 1.0)), dtype=complex).tolist() == [2.0, 1.0]


class TestProductBasisExpectation:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matrix_reads_as_its_diagonal(self, dtype):
        rng = np.random.default_rng(29)
        p = rng.uniform(0.0, 1.0, 16)
        rho = DensityState(p / p.sum())
        op = rng.standard_normal((16, 16)).astype(dtype)
        if dtype is complex:
            op += 1j * rng.standard_normal((16, 16))
        # the strided view the matrix path reads: BLAS may sum a contiguous
        # copy in another order
        diagonal = np.diag(op)
        assert rho.expectation(op) == rho.expectation(diagonal)
        assert rho.expectation(op) == float(np.real(diagonal @ rho.probabilities))

    @pytest.mark.parametrize("shape", [(), (3,), (4, 3), (3, 3, 3)])
    def test_wrong_shape_is_a_mismatch(self, shape):
        rho = DensityState(np.full(4, 0.25))
        with pytest.raises(UsageError, match="observable dimension mismatch"):
            rho.expectation(np.zeros(shape))


class TestDenseFamilyChecks:
    """The one dense matrix's checks run in the order they always ran."""

    REGION = Region("chain", 2, boundary="open")

    def test_hermiticity_before_the_label_count(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(UsageError, match="hermitian"):
            ObservableFamily(self.REGION, ["a", "b"], matrices=[m])

    def test_spin_flip_before_the_label_count(self):
        with pytest.raises(UsageError, match="spin flip"):
            ObservableFamily(self.REGION, ["a", "b"], matrices=[np.diag([1.0, 0, 0, 0])])

    def test_no_matrix_is_no_observable(self):
        with pytest.raises(UsageError, match="at least one observable"):
            ObservableFamily(self.REGION, [], matrices=[])


def test_slope_gap_holds_only_its_slopes():
    assert [f.name for f in dataclasses.fields(SlopeGap)] == ["left", "right"]
    assert SlopeGap(-0.5, 1.5).gap == 2.0
