import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    binary_entropy,
    free_spin_pressure,
    stencil_tangent_interval,
    upper_concave_envelope,
)
from thermolab import (
    CONCAVE,
    CONVEX,
    ControlVector,
    CurveSamples,
    DataError,
    DomainError,
    UsageError,
    biconjugate,
    concavity_violations,
    conjugate,
    conjugate_maximizers,
    tangent_set,
)
from thermolab.convex import support_defect
from thermolab.convex import _distinct, as_components

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098


def entropy_curve_1d(npoints=2001):
    q = np.linspace(0.0, 1.0, npoints)
    return CurveSamples(q, binary_entropy(q), CONCAVE)


def pressure_curve_1d(npoints=2001):
    th = np.linspace(-20.0, 20.0, npoints)
    return CurveSamples(th, free_spin_pressure(th), CONVEX)


class TestCurveSamples:
    def test_rejects_decreasing_1d_grid(self):
        with pytest.raises(UsageError):
            CurveSamples([0.0, 2.0, 1.0], [0.0, 0.0, 0.0], CONCAVE)

    def test_rejects_duplicate_points(self):
        grid = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(UsageError):
            CurveSamples(grid, [0.0, 1.0, 2.0], CONCAVE)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            CurveSamples([0.0, 1.0], [0.0, np.nan], CONCAVE)

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            CurveSamples(np.zeros((0, 1)), [], CONCAVE)

    def test_rejects_bad_orientation(self):
        with pytest.raises(UsageError):
            CurveSamples([0.0, 1.0], [0.0, 1.0], "flat")

    def test_axes_detects_product_grid(self):
        xs, ys = np.meshgrid([0.0, 1.0, 2.0], [5.0, 6.0], indexing="ij")
        grid = np.stack([xs.ravel(), ys.ravel()], axis=-1)
        f = CurveSamples(grid, np.zeros(6), CONCAVE)
        axes = f.axes()
        assert axes is not None
        assert_allclose(axes[0], [0.0, 1.0, 2.0])
        assert_allclose(axes[1], [5.0, 6.0])

    def test_axes_rejects_chain(self):
        m = np.linspace(-0.5, 0.5, 11)
        grid = np.stack([-(m**2) / 2.0, m], axis=-1)
        f = CurveSamples(grid, binary_entropy((1 + m) / 2), CONCAVE)
        assert f.axes() is None

    def test_csv_round_trip(self):
        f = entropy_curve_1d(31)
        f.metadata["model"] = "demo"
        back = CurveSamples.from_csv(f.to_csv())
        assert back.orientation == CONCAVE
        assert back.metadata["model"] == "demo"
        assert_allclose(back.grid, f.grid, rtol=0, atol=0)
        assert_allclose(back.values, f.values, rtol=0, atol=0)

    def test_csv_requires_orientation(self):
        with pytest.raises(DataError):
            CurveSamples.from_csv("q_0,value\n0.0,1.0\n")


class TestConjugate:
    def test_binary_entropy_at_zero_field(self):
        # sup of s(q) is ln 2 at q = 1/2
        assert_allclose(conjugate(entropy_curve_1d(), [0.0]), LN2, atol=1e-9)

    def test_linear_function_conjugate_is_zero(self):
        q = np.linspace(0.0, 1.0, 101)
        c = 0.7
        f = CurveSamples(q, c * q, CONCAVE)
        assert conjugate(f, [c]) == pytest.approx(0.0, abs=1e-14)

    def test_inf_form_recovers_binary_entropy(self):
        f = pressure_curve_1d()
        assert_allclose(conjugate(f, [0.25]), binary_entropy(0.25), atol=2e-5)
        assert_allclose(conjugate(f, [0.25]), 0.562335, atol=2e-5)

    def test_closed_form_pair_both_directions(self):
        s = entropy_curve_1d()
        for theta in (-3.0, -0.5, 0.0, 1.0, 4.0):
            assert_allclose(conjugate(s, [theta]), free_spin_pressure(theta), atol=1e-5)
        phi = pressure_curve_1d()
        for q in (0.1, 0.25, 0.5, 0.9):
            assert_allclose(conjugate(phi, [q]), binary_entropy(q), atol=1e-5)

    def test_non_finite_dual_point_rejected(self):
        with pytest.raises(DataError):
            conjugate(entropy_curve_1d(11), [np.inf])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(UsageError):
            conjugate(entropy_curve_1d(11), [0.0, 1.0])

    def test_ties_report_all_maximizers(self):
        q = np.linspace(0.0, 1.0, 11)
        f = CurveSamples(q, 2.0 * q, CONCAVE)
        value, attain = conjugate_maximizers(f, [2.0])
        assert value == pytest.approx(0.0, abs=1e-14)
        assert len(attain) == 11

    def test_convexity_of_conjugate(self):
        s = entropy_curve_1d(501)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x1, x2 = rng.uniform(-5, 5, size=2)
            mid = conjugate(s, [(x1 + x2) / 2.0])
            assert mid <= (conjugate(s, [x1]) + conjugate(s, [x2])) / 2.0 + 1e-12

    def test_fenchel_young_with_equality_on_tangents(self):
        s = entropy_curve_1d()
        theta = LN3  # supporting slope at q = 0.25
        phi = conjugate(s, [theta])
        gaps = phi - (s.values - theta * s.grid[:, 0])
        assert np.all(gaps >= -1e-12)
        i = s.index_of([0.25])
        assert gaps[i] <= 1e-7
        ts = tangent_set(s, [0.25])
        assert ts.lower[0] - 1e-5 <= theta <= ts.upper[0] + 1e-5
        # a slope outside the tangent interval stays strictly away from equality
        assert phi - (s.values[i] - 3.0 * 0.25) > 1e-3


class TestTangentSet:
    def test_absolute_value_kink(self):
        q = np.linspace(-1.0, 1.0, 201)
        f = CurveSamples(q, -np.abs(q), CONCAVE)
        ts = tangent_set(f, [0.0])
        assert_allclose(ts.lower, [-1.0], atol=1e-12)
        assert_allclose(ts.upper, [1.0], atol=1e-12)
        assert not ts.differentiable  # width 2 against a flat-sided tolerance

    def test_binary_entropy_interior_slope(self):
        f = entropy_curve_1d()
        ts = tangent_set(f, [0.25])
        assert_allclose(ts.lower[0], LN3, atol=1e-5)
        assert_allclose(ts.upper[0], LN3, atol=1e-5)
        assert ts.max_width <= 1e-5
        assert ts.differentiable

    def test_symmetry_point_slope_zero(self):
        f = entropy_curve_1d()
        ts = tangent_set(f, [0.5])
        assert_allclose(ts.midpoint(), [0.0], atol=1e-9)
        assert ts.max_width <= 1e-8

    def test_off_sample_point_gets_chord(self):
        q = np.linspace(0.0, 1.0, 11)
        f = CurveSamples(q, binary_entropy(q), CONCAVE)
        ts = tangent_set(f, [0.123])
        chord = (binary_entropy(0.2) - binary_entropy(0.1)) / 0.1
        assert_allclose(ts.lower, [chord], atol=1e-12)
        assert ts.max_width == 0.0

    def test_boundary_has_unbounded_side(self):
        f = entropy_curve_1d(101)
        ts = tangent_set(f, [0.0])
        assert np.isinf(ts.upper[0])
        assert np.isfinite(ts.lower[0])

    def test_outside_hull_raises(self):
        f = entropy_curve_1d(11)
        with pytest.raises(DomainError):
            tangent_set(f, [1.5])

    def test_convex_orientation_rejected(self):
        with pytest.raises(UsageError):
            tangent_set(pressure_curve_1d(11), [0.0])

    def test_width_shrinks_with_resolution(self):
        # grids chosen so q = 0.25 is a sample at every resolution
        widths = []
        for npoints in (401, 801, 1601, 3201):
            f = entropy_curve_1d(npoints)
            widths.append(tangent_set(f, [0.25]).max_width)
        assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))
        assert widths[-1] < widths[0] / 4

    def test_support_inequality_certifies_interval(self):
        f = entropy_curve_1d(801)
        ts = tangent_set(f, [0.25])
        for theta in (ts.lower[0], ts.upper[0], ts.midpoint()[0]):
            assert support_defect(f, [0.25], [theta]) <= 1e-6

    def test_product_grid_per_axis_intervals(self):
        xs = np.linspace(-1.0, 1.0, 41)
        ys = np.linspace(-1.0, 1.0, 41)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = -(gx.ravel() ** 2) - 3.0 * np.abs(gy.ravel())
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        f = CurveSamples(grid, vals, CONCAVE)
        smooth = tangent_set(f, [xs[10], 0.0])
        assert smooth.width[0] <= 1e-9  # quadratic axis: second-order exact
        assert_allclose(smooth.lower[0], -2.0 * xs[10], atol=1e-9)
        assert_allclose(smooth.width[1], 6.0, atol=1e-12)  # kink in y at 0


class TestConcavity:
    def test_binary_entropy_clean(self):
        assert concavity_violations(entropy_curve_1d(), 1e-9) == []

    def test_square_fails_everywhere(self):
        q = np.linspace(-1.0, 1.0, 101)
        f = CurveSamples(q, q**2, CONCAVE)
        violations = concavity_violations(f, 1e-9)
        assert len(violations) == 99
        assert all(v.defect > 0 for v in violations)

    def test_square_passes_as_convex(self):
        q = np.linspace(-1.0, 1.0, 101)
        f = CurveSamples(q, q**2, CONVEX)
        assert concavity_violations(f, 1e-9) == []

    def test_product_grid_audited_along_axes(self):
        xs = np.linspace(-1.0, 1.0, 21)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        saddle = -(gx.ravel() ** 2) + gy.ravel() ** 2
        f = CurveSamples(np.stack([gx.ravel(), gy.ravel()], axis=-1), saddle, CONCAVE)
        bad = concavity_violations(f, 1e-9)
        assert bad  # the +y^2 direction violates concavity
        assert all(f.grid[v.indices[0], 0] == f.grid[v.indices[2], 0] for v in bad)


class TestBiconjugate:
    def test_identity_on_concave_input(self):
        f = entropy_curve_1d()
        back = biconjugate(f)
        assert_allclose(back.values, f.values, atol=1e-4)
        assert float(np.max(np.abs(back.values - f.values))) < 1e-8

    def test_exact_on_linear(self):
        q = np.linspace(0.0, 1.0, 51)
        f = CurveSamples(q, 1.5 * q - 0.2, CONCAVE)
        assert_allclose(biconjugate(f).values, f.values, atol=1e-13)

    def test_double_well_hull(self):
        q = np.linspace(-1.0, 1.0, 2001)
        w = -((q**2 - 0.25) ** 2)
        f = CurveSamples(q, w, CONCAVE)
        hull = biconjugate(f)
        expected = upper_concave_envelope(q, w)
        assert_allclose(hull.values, expected, atol=1e-3)
        assert np.all(hull.values >= w - 1e-12)
        flat = np.abs(q) <= 0.5
        assert float(np.max(np.abs(hull.values[flat]))) <= 1e-3

    def test_idempotent(self):
        q = np.linspace(-1.0, 1.0, 301)
        f = CurveSamples(q, -((q**2 - 0.25) ** 2), CONCAVE)
        once = biconjugate(f)
        twice = biconjugate(once)
        assert_allclose(twice.values, once.values, atol=1e-12)

    def test_product_grid_round_trip(self):
        xs = np.linspace(-1.0, 1.0, 21)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        vals = -(gx.ravel() ** 2) - 0.5 * gy.ravel() ** 2
        f = CurveSamples(np.stack([gx.ravel(), gy.ravel()], axis=-1), vals, CONCAVE)
        back = biconjugate(f)
        assert_allclose(back.values, vals, atol=1e-10)

    def test_convex_orientation_rejected(self):
        with pytest.raises(UsageError):
            biconjugate(pressure_curve_1d(11))


class TestControlVector:
    def test_fields(self):
        th = ControlVector((2.0, 1.0, -0.5))
        assert th.beta == 2.0
        assert th.couplings == (0.5, -0.25)
        assert len(th) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            ControlVector((1.0, np.inf))

    def test_thermal_check(self):
        with pytest.raises(UsageError):
            ControlVector((-1.0,)).couplings


def random_concave_1d(rng, npoints):
    """Strictly increasing abscissae with decreasing chord slopes."""
    q = np.cumsum(rng.uniform(0.01, 1.0, npoints)) - rng.uniform(0.0, 5.0)
    slopes = np.sort(rng.normal(0.0, 3.0, npoints - 1))[::-1]
    values = np.concatenate([[rng.normal()], rng.normal() + np.cumsum(slopes * np.diff(q))])
    return CurveSamples(q, values, CONCAVE)


def assert_matches_stencil_reference(f, i, lines):
    """tangent_set at sample i equals the pure-Python stencils, bit for bit.

    ``lines[k]`` is the sample-index chain through i along coordinate k.
    """
    ts = tangent_set(f, f.grid[i])
    for k, line in enumerate(lines):
        line = list(line)
        pos = line.index(i)
        lower, upper, tol = stencil_tangent_interval(
            f.grid[line, k].tolist(), f.values[line].tolist(), pos
        )
        assert ts.lower[k] == lower
        assert ts.upper[k] == upper
        assert ts.tol[k] == tol


class TestTangentStencilReference:
    """Slopes and kink tolerances equal an independent float stencil exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_concave_1d(self, seed):
        rng = np.random.default_rng(seed)
        f = random_concave_1d(rng, int(rng.integers(2, 40)))
        for i in range(f.npoints):
            assert_matches_stencil_reference(f, i, [range(f.npoints)])

    def test_binary_entropy_grid(self):
        f = entropy_curve_1d(101)
        for i in range(f.npoints):
            assert_matches_stencil_reference(f, i, [range(f.npoints)])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_chain(self, seed):
        # a chain that turns back in its second coordinate, so stencils meet
        # non-monotone triples as well as monotone ones
        rng = np.random.default_rng(100 + seed)
        t = np.sort(rng.uniform(-1.0, 1.0, 30))
        grid = np.stack([t, t**2 + 0.01 * rng.normal(size=t.size)], axis=-1)
        f = CurveSamples(grid, -(t**2) + 0.1 * t, CONCAVE)
        for i in range(f.npoints):
            assert_matches_stencil_reference(f, i, [range(f.npoints)] * 2)

    def test_mean_field_chain(self):
        from thermolab import ErgodicFamily, ModelSpec, entropy_curve, family_curve_constraints

        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        m = np.arange(-0.9, 0.9 + 0.05, 0.1)
        f = entropy_curve(family, family_curve_constraints(family, m))
        for i in range(1, f.npoints - 1):
            assert_matches_stencil_reference(f, i, [range(f.npoints)] * 2)

    def test_product_grid_uses_axis_lines(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(-2.0, 2.0, 5))
        ys = np.sort(rng.uniform(-1.0, 3.0, 4))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        perm = rng.permutation(len(grid))  # sample order must not matter
        grid = grid[perm]
        f = CurveSamples(grid, -(grid[:, 0] ** 2) - 0.5 * grid[:, 1] ** 2, CONCAVE)
        for i in range(f.npoints):
            lines = []
            for k in range(2):
                line, pos = f.line_through(i, k)
                assert line[pos] == i
                assert any(np.array_equal(line, other) for other in f.axis_lines(k))
                assert np.all(np.diff(f.grid[line, k]) > 0)
                lines.append(line)
            assert_matches_stencil_reference(f, i, lines)

    def test_axis_lines_cover_every_sample_once(self):
        xs, ys = np.meshgrid([0.0, 1.0, 2.0], [5.0, 6.0], indexing="ij")
        f = CurveSamples(np.stack([xs.ravel(), ys.ravel()], -1), np.zeros(6), CONCAVE)
        for k, (count, length) in enumerate([(2, 3), (3, 2)]):
            lines = f.axis_lines(k)
            assert [len(line) for line in lines] == [length] * count
            assert sorted(np.concatenate(lines).tolist()) == list(range(6))


def assert_stack_matches_points(f, points, tol=None):
    """A stacked tangent_set call equals the single-point calls, row by row.

    ``repr`` of the float lists tells signed zeros apart, which
    ``np.array_equal`` does not.
    """
    points = np.asarray(points, dtype=float)
    stacked = tangent_set(f, points, tol=tol)
    assert stacked.lower.shape == stacked.upper.shape == stacked.tol.shape == points.shape
    assert np.array_equal(stacked.point, points)
    for p, point in enumerate(points):
        one = tangent_set(f, point, tol=tol)
        for name in ("lower", "upper", "tol", "width"):
            row, single = getattr(stacked, name)[p], getattr(one, name)
            assert np.array_equal(row, single), (name, p)
            assert repr(row.tolist()) == repr(single.tolist()), (name, p)
        assert repr(stacked.max_width[p].item()) == repr(one.max_width)
        assert stacked.differentiable[p] == one.differentiable
    return stacked


def assert_rows_match_stencil_reference(ts, f, rows):
    """Rows ``rows`` of a stacked call on a chain (or 1-d grid) f equal the
    pure-Python stencils, signed zeros included."""
    for i in rows:
        for k in range(f.ndim):
            reference = stencil_tangent_interval(f.grid[:, k].tolist(), f.values.tolist(), i)
            got = (ts.lower[i, k].item(), ts.upper[i, k].item(), ts.tol[i, k].item())
            assert repr(got) == repr(reference), (i, k)


class TestStackedTangentSet:
    """tangent_set over a (P, m) stack keeps every row's single-point bits."""

    @pytest.mark.parametrize("seed", range(4))
    def test_1d_interior_ends_and_chords(self, seed):
        rng = np.random.default_rng(300 + seed)
        f = random_concave_1d(rng, int(rng.integers(3, 40)))
        q = f.grid[:, 0]
        chords = rng.uniform(q[0], q[-1], 12)[:, None]
        points = np.concatenate([f.grid, chords, f.grid[::-1]])
        ts = assert_stack_matches_points(f, points)
        assert np.isinf(ts.upper[0, 0]) and np.isinf(ts.lower[f.npoints - 1, 0])
        assert np.all(ts.width[f.npoints:f.npoints + 12] == 0.0)
        assert_rows_match_stencil_reference(ts, f, range(f.npoints))

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_with_near_coincident_abscissae(self, seed):
        # first coordinates that (nearly) repeat their neighbour's defeat
        # the 3-point stencil, so those sides take the 2-point fallback
        rng = np.random.default_rng(400 + seed)
        t = np.sort(rng.uniform(-1.0, 1.0, 40))
        grid = np.stack([t, t**2 + 0.01 * rng.normal(size=t.size)], axis=-1)
        for j in range(3, 37, 4):
            grid[j, 0] = grid[j - 1, 0] + [0.0, 2e-15, -3e-15, 4e-14][j % 4]
        f = CurveSamples(grid, -(t**2) + 0.1 * t, CONCAVE)
        ts = assert_stack_matches_points(f, f.grid)
        assert_rows_match_stencil_reference(ts, f, range(f.npoints))

    def test_fallback_keeps_three_point_scale(self):
        # at q = 1000 the right 3-point stencil (2000, 1000 + 1.5e-10, 1000)
        # is degenerate; its 2-point fallback is judged at the 3-point scale
        # 2000, where 1.5e-10 does not resolve, so the interval is unbounded below
        q = np.array([500.0, 750.0, 1000.0, 1000.0 + 1.5e-10, 2000.0, 2500.0])
        f = CurveSamples(q, -((q / 1000.0) ** 2), CONCAVE)
        ts = assert_stack_matches_points(f, f.grid)
        assert ts.lower[2, 0] == -np.inf
        assert_rows_match_stencil_reference(ts, f, range(f.npoints))

    def test_diff_test_curve(self):
        from thermolab import ErgodicFamily, ModelSpec, entropy_curve, family_curve_constraints

        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        m = [round(k / 1000, 3) for k in range(-972, 973)]
        f = entropy_curve(family, family_curve_constraints(family, m))
        ts = assert_stack_matches_points(f, f.grid[2:-2])
        assert np.max(ts.max_width) <= 1e-3

    def test_shuffled_product_grid(self):
        rng = np.random.default_rng(8)
        xs = np.sort(rng.uniform(-2.0, 2.0, 6))
        ys = np.sort(rng.uniform(-1.0, 3.0, 5))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)[rng.permutation(30)]
        f = CurveSamples(grid, -(grid[:, 0] ** 2) - 3.0 * np.abs(grid[:, 1] - ys[2]), CONCAVE)
        assert f.axes() is not None
        assert_stack_matches_points(f, f.grid[rng.permutation(30)])

    def test_tol_override(self):
        f = entropy_curve_1d(101)
        points = np.concatenate([f.grid, [[0.123], [0.5004]]])
        ts = assert_stack_matches_points(f, points, tol=0.25)
        assert np.all(ts.tol == 0.25)

    def test_signed_zero_slopes(self):
        # zero values of both signs make slopes of 0.0 and -0.0 on either
        # side; the interval ends must follow Python's min and max
        rng = np.random.default_rng(5)
        q = np.linspace(-1.0, 1.0, 25)
        values = np.where(rng.random(25) < 0.5, 0.0, -0.0)
        for grid in (q[:, None], np.stack([q, -2.0 * q], axis=-1)):
            f = CurveSamples(grid, values, CONCAVE)
            ts = assert_stack_matches_points(f, grid)
            assert_rows_match_stencil_reference(ts, f, range(f.npoints))

    def test_bad_stacks_raise(self):
        f = entropy_curve_1d(11)
        with pytest.raises(UsageError):
            tangent_set(f, np.zeros((3, 2)))
        with pytest.raises(UsageError):
            tangent_set(f, np.zeros((0, 1)))
        with pytest.raises(DomainError):
            tangent_set(f, [[0.5], [1.5]])
        t = np.linspace(-1.0, 1.0, 9)
        chain = CurveSamples(np.stack([t, t**2], axis=-1), -(t**2), CONCAVE)
        with pytest.raises(DomainError):
            tangent_set(chain, [chain.grid[3], chain.grid[4] + [0.01, 0.0]])

    def test_stack_needs_no_point_by_sample_table(self):
        # a (P, n) float table over 2,001 points of a 20,001-point chain
        # would take 320 MB
        import tracemalloc

        t = np.linspace(-1.0, 1.0, 20_001)
        f = CurveSamples(np.stack([t, t**3], axis=-1), -(t**2), CONCAVE)
        points = f.grid[::10]
        tracemalloc.start()
        try:
            ts = tangent_set(f, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.lower.shape == (2_001, 2)
        assert peak < 16 * 2**20


class TestDistinctValues:
    """convex's sorted distinct values are np.unique's, signed zeros included."""

    @pytest.mark.parametrize("values, expected", [
        ([0.0, -0.0, 1.0, -0.0, 0.0], "array([0., 1.])"),
        ([-0.0, 0.0], "array([-0.])"),
        ([np.inf, -np.inf, 1.0, np.inf], "array([-inf,   1.,  inf])"),
        ([], "array([], dtype=float64)"),
    ])
    def test_matches_np_unique_by_repr(self, values, expected):
        values = np.array(values, dtype=float)
        assert repr(_distinct(values)) == repr(np.unique(values)) == expected


class TestConvexInputChecks:
    """Malformed controls, grids, points and CSV text are rejected."""

    def test_empty_control_vector(self):
        with pytest.raises(UsageError, match="at least one component"):
            ControlVector(())

    def test_two_dimensional_control(self):
        with pytest.raises(UsageError, match="one-dimensional"):
            as_components([[1.0, 2.0]])

    def test_non_finite_control(self):
        with pytest.raises(DataError):
            as_components([np.nan])

    def test_grid_rank(self):
        with pytest.raises(UsageError, match="grid must be"):
            CurveSamples(np.zeros((2, 2, 2)), np.zeros(2), CONCAVE)

    def test_values_shape(self):
        with pytest.raises(UsageError, match="values shape"):
            CurveSamples([0.0, 1.0, 2.0], [0.0, 1.0], CONCAVE)

    def test_repr(self):
        f = CurveSamples([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0], CONVEX)
        assert repr(f) == "CurveSamples(2 points, dim 2, convex)"

    def test_index_of_coordinate_count(self):
        with pytest.raises(UsageError, match="coordinates"):
            entropy_curve_1d(11).index_of([0.5, 0.5])

    def test_csv_blank_lines_are_skipped(self):
        f = CurveSamples.from_csv("# orientation=concave\n\nq_0,value\n0.0,1.0\n\n1.0,2.0\n")
        assert f.npoints == 2

    def test_csv_without_rows(self):
        with pytest.raises(DataError, match="no sample rows"):
            CurveSamples.from_csv("# orientation=concave\nq_0,value\n")

    def test_tangent_point_coordinate_count(self):
        with pytest.raises(UsageError, match="coordinates"):
            tangent_set(entropy_curve_1d(11), [0.1, 0.2])

    def test_tangent_non_finite_point(self):
        with pytest.raises(DataError, match="non-finite point"):
            tangent_set(entropy_curve_1d(11), [[np.nan]])

    def test_tangent_on_a_one_value_axis(self):
        # a 5 x 1 product grid: nothing to difference along coordinate 1
        f = CurveSamples([[x, 0.0] for x in range(5)], [0.0, 1.0, 1.5, 1.0, 0.0], CONCAVE)
        with pytest.raises(DomainError, match="along coordinate 1"):
            tangent_set(f, [2.0, 0.0])


class TestSupportDefect:
    def test_off_grid_point(self):
        with pytest.raises(DomainError, match="grid sample"):
            support_defect(entropy_curve_1d(11), [0.123], [0.0])

    def test_convex_samples(self):
        xs = np.linspace(-1.0, 1.0, 9)
        f = CurveSamples(xs, xs**2, CONVEX)
        # the tangent of x^2 at 0.5 has slope 1 and lies below the samples
        assert abs(support_defect(f, [0.5], [1.0])) <= 1e-15
        assert support_defect(f, [0.5], [3.0]) > 0.1


class TestUnresolvedChainTriples:
    """The chord audit skips triples it cannot judge: abscissae closer than
    the floor, and a chain that turns back on itself."""

    def test_abscissae_below_the_floor(self):
        f = CurveSamples([0.0, 1e-15, 2e-15], [0.0, -1.0, 0.0], CONCAVE)
        assert concavity_violations(f, 0.0) == []

    def test_backtracking_chain(self):
        f = CurveSamples([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]], [0.0, -1.0, 0.0], CONCAVE)
        assert f.axes() is None
        assert concavity_violations(f, 0.0) == []


class TestBiconjugateEdges:
    def test_one_point(self):
        f = CurveSamples([0.3], [1.25], CONCAVE, {"k": "v"})
        hull = biconjugate(f)
        assert hull.values.tolist() == [1.25]
        assert hull.metadata == {"k": "v"}

    def test_chain_of_samples_is_refused(self):
        f = CurveSamples([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]], [0.0, 1.0, 0.5], CONCAVE)
        with pytest.raises(UsageError, match="Cartesian product grid"):
            biconjugate(f)


class TestOnePointReader:
    """Every single point goes through ``as_components``: a point of the wrong
    length is a UsageError and a non-finite one a DataError, never a numpy
    error or a quiet NaN."""

    def test_support_defect_slope_of_the_wrong_length(self):
        with pytest.raises(UsageError, match="coordinates"):
            support_defect(entropy_curve_1d(11), [0.5], [0.1, 0.2])

    def test_support_defect_non_finite_slope(self):
        with pytest.raises(DataError, match="non-finite point"):
            support_defect(entropy_curve_1d(11), [0.5], [np.nan])

    def test_index_of_non_finite_point(self):
        with pytest.raises(DataError, match="non-finite point"):
            entropy_curve_1d(11).index_of([np.nan])


def chord_audit_reference(f, tol):
    """The chord audit of a chain of samples, one consecutive triple at a
    time, and the reasons the skipped triples were skipped."""
    found, skipped = [], set()
    for a in range(f.npoints - 2):
        b, c = a + 1, a + 2
        ca, cb = f.grid[a] - f.grid[c], f.grid[b] - f.grid[c]
        denom = float(ca @ ca)
        if denom <= (1e-13 * f.span) ** 2:
            skipped.add("floor")
            continue
        lam = float(cb @ ca) / denom
        if not 0.0 < lam < 1.0:
            skipped.add("lam")
            continue
        if np.max(np.abs(cb - lam * ca)) > 1e-9 * f.span:
            skipped.add("off_line")
            continue
        chord = lam * f.values[a] + (1.0 - lam) * f.values[c]
        defect = chord - f.values[b] if f.orientation == CONCAVE else f.values[b] - chord
        if defect > tol:
            found.append(((a, b, c), lam, float(defect)))
    return found, skipped


class TestChordAuditOnAChain:
    """A 2-d chain of samples is audited triple by triple in sample order."""

    @staticmethod
    def chain():
        t = np.arange(6) * 0.1
        points = [np.stack([t, 2.0 * t], axis=1),  # a straight run
                  np.stack([0.6 + t[1:4], 1.0 - t[1:4]], axis=1),  # a turn: off the line
                  # samples 8 and 10, (0.9, 0.7) and its near copy, are closer than the
                  # floor; sample 9 lies between them on their line
                  [[0.9 + 5e-16, 0.7 + 1e-11], [0.9 + 1e-15, 0.7]],
                  np.stack([1.0 + t, 0.7 + 0.0 * t], axis=1)]
        return np.concatenate(points)

    @pytest.mark.parametrize("orientation", [CONCAVE, CONVEX])
    def test_matches_the_reference(self, orientation):
        grid = self.chain()
        values = -(grid[:, 0] - 0.8) ** 2 + 0.05 * np.random.default_rng(3).normal(size=len(grid))
        values[9] += -1.0 if orientation == CONCAVE else 1.0  # breaks its chord but is skipped
        f = CurveSamples(grid, values, orientation)
        assert f.axes() is None
        want, skipped = chord_audit_reference(f, 1e-3)
        assert want and {"floor", "off_line"} <= skipped
        got = concavity_violations(f, 1e-3)
        assert [v.indices for v in got] == [w[0] for w in want]
        for v, (_, lam, defect) in zip(got, want):
            assert v.lam == pytest.approx(lam, rel=1e-15, abs=1e-15)
            assert v.defect == pytest.approx(defect, rel=1e-15, abs=1e-15)
