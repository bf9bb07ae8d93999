"""The stacked root search: each row of one stacked solve equals a one-row
``constrained_entropy_max`` call and a looped scalar reference, and the
entropy curve built from it skips, warns and evaluates eta row by row."""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermolab import (  # noqa: E402
    ErgodicFamily,
    InfeasibleConstraintError,
    ModelSpec,
    constrained_entropy_max,
    entropy_curve,
    family_curve_constraints,
)
from thermolab.completeness import (  # noqa: E402
    MERGE_RADIUS,
    InfeasibleGridPointWarning,
    _maximize_stack,
)

TOL = 1e-9


def looped_roots(family, k, target, tol):
    """Roots of q_k(m) = target one candidate at a time, or None where q_k
    is target everywhere within tol: the scalar search the stack replaced."""
    lo, hi = family.component_range(k)
    if hi <= target + tol and lo >= target - tol:
        return None
    a, b, c = family.component_coefficients(k)
    c -= target
    candidates = [-1.0, 1.0]
    if a == 0.0:
        if b != 0.0:
            candidates.append(-c / b)
    else:
        candidates.append(-b / (2.0 * a))
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            candidates += [q / a, c / q] if q != 0.0 else [0.0]
    fn = family.component_offset(k, target)
    accept = max(tol, 1e-9) * family.coefficient_scale[k]
    roots = sorted(x + 0.0 for x in candidates if -1.0 <= x <= 1.0 and abs(fn(x)) <= accept)
    merged = []
    for x in roots:
        if not merged or x - merged[-1] > MERGE_RADIUS:
            merged.append(x)
    return merged


def looped_maximum(family, cons, tol):
    """(entropy, maximizers) of one constraint, "flat" when every component
    is flat at its target, None when it is infeasible. Among equal sources
    the first in ``cons`` order wins, so callers pass ``cons`` sorted."""
    root_sets = {k: looped_roots(family, k, v, tol) for k, v in cons.items()}
    root_sets = {k: roots for k, roots in root_sets.items() if roots is not None}
    if not root_sets:
        return "flat"
    source = min(root_sets, key=lambda k: family.component_coefficients(k)[0] != 0.0)
    floor = max(tol, 1e-9)
    feasible = [x for x in root_sets[source]
                if all(abs(family.component_offset(k, v)(x)) <= floor * family.coefficient_scale[k]
                       for k, v in cons.items())]
    if not feasible:
        return None
    etas = [family.entropy(x) for x in feasible]
    best = max(etas)
    return best, tuple(x for x, e in zip(feasible, etas) if e >= best - tol)


def unreachable_message(family, cons):
    reachable = {k: family.component_range(k) for k in cons}
    return f"constraint {cons} unreachable; attainable ranges {reachable}"


COUPLINGS = st.one_of(st.sampled_from([0.0, 2e8, -2e8, 1.0, -0.5]), st.floats(-3.0, 3.0))
# offsets from the family curve, in units of the component's coefficient scale
OFFSETS = st.sampled_from([0.0, 0.0, 0.0, 1e-12, 1e-7, 1e-3, -0.05, 0.4, 3.0])


@st.composite
def target_stacks(draw):
    """(family, grid): energy-only or joint constraints, most on the family
    curve (signed zeros and band edges among them), some moved off it
    (infeasible), at J = h = 0 energy targets of 0 (flat), and joint keys
    in either order."""
    kind = draw(st.sampled_from(["free_spins", "ising_chain", "curie_weiss"]))
    j, h = (0.0, 0.0) if draw(st.integers(0, 4)) == 0 else (draw(COUPLINGS), draw(COUPLINGS))
    family = ErgodicFamily(ModelSpec(kind, J=j, h=h))
    comps = (0, 1) if family.n_components == 2 and draw(st.booleans()) else (0,)
    ms = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=10))
    rows = family.densities(np.array(ms))[:, comps]
    for row in rows:
        row[0] += draw(OFFSETS) * family.coefficient_scale[0]
    grid = []
    for row in rows.tolist():
        cons = dict(zip(comps, row))
        grid.append(dict(reversed(cons.items())) if draw(st.booleans()) else cons)
    return family, grid


class TestStackedRows:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(target_stacks())
    def test_rows_match_one_row_calls(self, case):
        family, grid = case
        comps = tuple(sorted(grid[0]))
        best, x, winners, flat = _maximize_stack(
            family, comps, [[cons[k] for k in comps] for cons in grid], TOL)
        assert best.shape == flat.shape == (len(grid),)
        for i, cons in enumerate(grid):
            expected = looped_maximum(family, dict(sorted(cons.items())), TOL)
            if expected is None:
                with pytest.raises(InfeasibleConstraintError) as exc:
                    constrained_entropy_max(family, cons, TOL)
                assert str(exc.value) == unreachable_message(family, cons)
                assert not flat[i] and not winners[i].any()
                continue
            single = constrained_entropy_max(family, cons, TOL)
            assert bool(flat[i]) == (expected == "flat")
            if flat[i]:
                assert not winners[i].any()
                continue
            row_result = (float(best[i]), tuple(x[i, winners[i]].tolist()))
            assert repr(row_result) == repr((single.entropy_value, single.maximizers))
            assert repr(row_result) == repr(expected)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(target_stacks())
    def test_curve_keeps_feasible_rows_and_warns_for_the_rest(self, case):
        family, grid = case
        # a curve samples each point once
        grid = list({tuple(sorted(cons.items())): cons for cons in grid}.values())
        kept, messages = [], []
        for cons in grid:
            try:
                result = constrained_entropy_max(family, cons, TOL)
            except InfeasibleConstraintError as exc:
                messages.append(f"skipping infeasible grid point {cons}: {exc}")
                continue
            kept.append((tuple(v for _, v in sorted(cons.items())), result.entropy_value))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if not kept:
                with pytest.raises(InfeasibleConstraintError):
                    entropy_curve(family, grid, TOL)
            else:
                curve = entropy_curve(family, grid, TOL)
                got = list(zip(map(tuple, curve.grid.tolist()), curve.values.tolist()))
                assert repr(sorted(got)) == repr(sorted(kept))
        assert [str(w.message) for w in caught] == messages
        assert all(w.category is InfeasibleGridPointWarning for w in caught)


class TestCurveWarnings:
    def test_one_warning_per_skipped_row_in_grid_order(self):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        grid = [{0: 0.75}, {0: -0.125}, {0: -3.0}, {0: -0.3}, {0: 0.5}]
        with pytest.warns(InfeasibleGridPointWarning) as caught:
            curve = entropy_curve(family, grid)
        assert [str(w.message) for w in caught] == [
            f"skipping infeasible grid point {{0: {e}}}: "
            f"constraint {{0: {e}}} unreachable; attainable ranges {{0: (-0.5, 0.0)}}"
            for e in (0.75, -3.0, 0.5)
        ]
        assert curve.grid[:, 0].tolist() == [-0.3, -0.125]


def _curves():
    cw = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
    ising = ErgodicFamily(ModelSpec("ising_chain", J=1.0, h=0.3))
    m = np.round(np.arange(-972, 973, 9) / 1000, 3)
    return [
        (cw, family_curve_constraints(cw, m)),
        (ising, family_curve_constraints(ising, m)),
        (cw, [{0: e} for e in np.linspace(-0.5, 0.0, 101)]),
        (ising, [{0: e} for e in np.linspace(-1.3, 0.02, 67)]),
    ]


class TestOneEntropyPath:
    """Curve values are eta of a maximizer through the scalar math.log path
    (of the pair +-m that an energy fixes, the one whose eta rounds higher)."""

    @pytest.mark.parametrize("family, grid", _curves())
    def test_values_are_scalar_entropies_of_the_maximizers(self, family, grid):
        curve = entropy_curve(family, grid)
        columns = tuple(grid[0])
        best, x, winners, _ = _maximize_stack(family, columns, [list(g.values()) for g in grid], TOL)
        assert curve.npoints == len(grid)
        for value, xs, won in zip(curve.values.tolist(), x.tolist(), winners.tolist()):
            etas = [family.entropy(m) for m, w in zip(xs, won) if w]
            assert repr(value) == repr(max(etas))

    def test_the_solver_never_passes_an_array(self):
        seen = []

        class Recording(ErgodicFamily):
            def entropy(self, m):
                seen.append(np.ndim(m))
                return super().entropy(m)

        for family, grid in _curves():
            entropy_curve(Recording(family.model), grid)
        assert seen and set(seen) == {0}
