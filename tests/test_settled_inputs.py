"""Code whose outcome the caller or the input already settles.

Each deleted branch is pinned here against the form it replaced: the split
audit gives every kind open halves (only chains read the boundary), a
translation conjugates a diagonal by the inverse shift, ``index_of`` takes
one max over the coordinates, the continuum scan always holds its m = 0
sample, ``variational_gap`` leaves the dimension check to
``expectation_vector``, and ``entropy_curve`` has no ``tol``. The two
conditional sides that no other test takes are stated here too, and so are
the checks that refuse a NaN weight and a NaN or negative concavity tol.
"""

import inspect

import numpy as np
import pytest

import thermolab.cli as cli
from thermolab import (
    CONCAVE,
    CurveSamples,
    DensityState,
    ErgodicFamily,
    ModelSpec,
    Region,
    Translation,
    UsageError,
    build_model,
    concavity_violations,
    constrained_entropy_max,
    entropy_curve,
    maximally_mixed,
    variational_gap,
)
from thermolab.completeness import _component_roots
from thermolab.lattice import _split_defects


class TestRemovedParameters:
    def test_entropy_curve_takes_no_tol(self):
        assert list(inspect.signature(entropy_curve).parameters) == ["family", "grid", "components"]

    def test_cli_has_no_cell_helper(self):
        assert not hasattr(cli, "_cell")


def test_variational_gap_dimension_mismatch_reads_the_expectation_message():
    spec = ModelSpec("ising_chain", J=1.0, h=0.2)
    family = build_model(spec, spec.region(3))
    with pytest.raises(UsageError, match="observable dimension mismatch"):
        variational_gap(maximally_mixed(4), family, [0.5, 0.1])


@pytest.mark.parametrize("n", range(1, 11))
def test_conjugate_diagonal_equals_the_scatter(n):
    diag = np.random.default_rng(n).normal(size=2**n)
    for shift in (0, 1, 2, n - 1, n, n + 3, -1, -n - 2):
        translation = Translation(n, shift)
        scatter = np.empty_like(diag)
        scatter[translation.permutation()] = diag
        assert translation.conjugate_diagonal(diag).tobytes() == scatter.tobytes()


def per_column_index(curve: CurveSamples, point) -> int | None:
    """``index_of`` as it was: the max over coordinates one column at a time."""
    point = np.asarray(point, dtype=float)
    dist = np.abs(curve.grid[:, 0] - point[0])
    for k in range(1, curve.ndim):
        np.maximum(dist, np.abs(curve.grid[:, k] - point[k]), out=dist)
    i = int(np.argmin(dist))
    return i if dist[i] <= 1e-9 * curve.span else None


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_index_of_equals_the_per_column_form(ndim):
    rng = np.random.default_rng(ndim)
    # a lattice grid: queries halfway between rows are exact ties
    axes = np.meshgrid(*[np.arange(6.0)] * ndim, indexing="ij")
    grid = np.column_stack([a.ravel() for a in axes])
    curve = CurveSamples(grid, rng.normal(size=len(grid)), CONCAVE)
    queries = [grid[0], grid[-1], grid[5] + 1e-10, grid[5] + 1e-8, grid[3] + 0.5,
               np.full(ndim, 1.5), np.full(ndim, -0.5), np.full(ndim, 9.0)]
    queries += list(grid[rng.integers(len(grid), size=6)] + rng.normal(scale=1e-9, size=(6, ndim)))
    queries += list(rng.uniform(-1.0, 6.0, size=(6, ndim)))
    for q in queries:
        assert curve.index_of(q) == per_column_index(curve, q)


@pytest.mark.parametrize("kind", ["free_spins", "curie_weiss"])
@pytest.mark.parametrize("n", range(2, 9))
def test_split_of_unbounded_kinds_ignores_the_open_replace(kind, n):
    spec = ModelSpec(kind, J=0.7, h=-0.3) if kind == "curie_weiss" else ModelSpec(kind)
    family = build_model(spec, spec.region(n))
    # halves from the whole family's own spec: these kinds never read its boundary
    na, nb = n // 2, n - n // 2
    halves = [build_model(spec, spec.region(k)).diagonals for k in (na, nb)]
    joined = [np.add.outer(a, b).ravel() for a, b in zip(*halves)]
    defects = {label: float(np.max(np.abs(q - j)))
               for label, q, j in zip(family.labels, family.diagonals, joined)}
    assert repr(_split_defects(family)) == repr((defects, (na, nb)))


@pytest.mark.parametrize("spec", [ModelSpec("free_spins"),
                                  ModelSpec("ising_chain", J=1.0, h=0.4),
                                  ModelSpec("curie_weiss", J=1.0, h=0.0)])
def test_continuum_scan_holds_its_zero_sample(spec):
    family = ErgodicFamily(spec)
    m, _, eta = family._scan_arrays()
    assert m[100000] == 0.0
    assert eta[100000] == family.entropy(0.0)


def test_smallest_tol_flat_constraint_is_one_maximizer():
    family = ErgodicFamily(ModelSpec("curie_weiss", J=0.0, h=0.0))
    result = constrained_entropy_max(family, {0: 0.0}, 5e-324)
    assert result.maximizers == (0.0,)
    assert result.multiplicity == 1


class TestUntakenSides:
    def test_flat_chain_energy_has_no_roots(self):
        family = ErgodicFamily(ModelSpec("ising_chain", J=0.0, h=0.0))
        assert _component_roots(family, 0, 0.0, 1e-9) is None

    def test_curie_weiss_on_a_chain_is_refused(self):
        with pytest.raises(UsageError, match="model curie_weiss expects geometry complete_graph"):
            build_model(ModelSpec("curie_weiss"), Region("chain", 4, "open"))


class TestNanWeights:
    def test_constructor_refuses_a_nan_weight(self):
        with pytest.raises(UsageError, match=r"trace nan is not 1 within 1e-12"):
            DensityState(np.array([np.nan, 1.0]))

    def test_from_matrix_refuses_a_nan_entry(self):
        with pytest.raises(UsageError, match=r"trace nan is not 1 within 1e-12"):
            DensityState.from_matrix([[np.nan, 0.0], [0.0, 1.0]])


class TestConcavityTol:
    curve = CurveSamples([0.0, 1.0, 2.0], [0.0, -1.0, 0.0], CONCAVE)

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_dip_is_one_violation(self, tol):
        assert len(concavity_violations(self.curve, tol)) == 1

    @pytest.mark.parametrize("tol", [np.nan, -1.0, -5e-324])
    def test_nan_or_negative_tol_is_refused(self, tol):
        with pytest.raises(UsageError, match="tol must be non-negative"):
            concavity_violations(self.curve, tol)
