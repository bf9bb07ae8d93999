"""The stacked pressure fits against a per-row reference, bit for bit.

``pressure_limit`` fits every theta row of its (G, sizes) table with array
operations and one ``lstsq`` call per row. The reference below is the
row-by-row algorithm: one ``_affine_estimate`` or ``_geometric_estimate``
per theta, with numpy scalars, ``np.finfo`` and a fresh design per row. The
affine error adds the roundoff term ``reference_roundoff_floor(narr, value)``
to the row-by-row bar. A stacked call must give the reference's estimates
with the same reprs.
"""

import math

import numpy as np
import pytest

import test_gibbs
import thermolab.gibbs as gibbs
from thermolab import ModelSpec, NumericRangeError, PressureEstimate, pressure_limit


def reference_two_mode_value(narr, phis, step):
    ref = float(phis[-1])
    w = np.exp(narr * (phis - ref))
    design = np.stack([w[1:-1], -w[:-2]], axis=1)
    target = w[2:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    s, p = float(coef[0]), float(coef[1])
    disc = s * s - 4.0 * p
    dominant = (s + math.sqrt(max(disc, 0.0))) / 2.0
    if not 0.0 < dominant < math.inf:
        return None
    return ref + math.log(dominant) / step, p / (dominant * dominant)


def reference_roundoff_floor(narr, value, ratio=0.0):
    r = max(ratio, 0.0)
    if r >= 1.0:
        return math.inf
    return float(np.finfo(float).eps * narr[-1] * (1.0 + abs(value)) / (1.0 - r) ** 2)


def reference_affine_estimate(sizes, design, phis):
    per_size = tuple((n, float(p)) for n, p in zip(sizes, phis))
    coef, *_ = np.linalg.lstsq(design, phis, rcond=None)
    value = float(coef[0])
    resid = float(np.max(np.abs(design @ coef - phis)))
    err = max(resid, abs(float(phis[-1]) - value))
    floor = reference_roundoff_floor(np.array(sizes, dtype=float), value)
    return PressureEstimate(value, per_size, err + floor, "affine")


def reference_geometric_estimate(sizes, narr, step, phis):
    per_size = tuple((n, float(p)) for n, p in zip(sizes, phis))
    fitted = reference_two_mode_value(narr, phis, step)
    if fitted is None:
        raise NumericRangeError("the two-mode fit found no positive dominant root")
    value, ratio = fitted
    increment = (narr[-1] * phis[-1] - narr[-2] * phis[-2]) / step
    err = abs(value - float(increment))
    tail = reference_two_mode_value(narr[-4:], phis[-4:], step) if len(narr) >= 6 else None
    if tail is not None:
        err = min(err, abs(value - tail[0]))
    floor = reference_roundoff_floor(narr, value, ratio)
    return PressureEstimate(value, per_size, max(err, floor), "geometric")


def reference_pressure_limit(spec, stack, sizes, fit):
    """The row-by-row fits over the same (G, sizes) table of phi_N."""
    narr = np.array(sizes, dtype=float)
    table = np.stack([gibbs.finite_pressure(gibbs._family(spec, n, gibbs.DIMENSION_CAP),
                                            np.asarray(stack, dtype=float))
                      for n in sizes], axis=1)
    if fit == "affine":
        design = np.stack([np.ones_like(narr), 1.0 / narr], axis=1)
        return [reference_affine_estimate(sizes, design, phis) for phis in table]
    step = float(np.diff(narr)[0])
    return [reference_geometric_estimate(sizes, narr, step, phis) for phis in table]


def ring_grid(seed, rows=30, cols=11):
    """A jittered rows x cols (theta0, theta1) grid shaped like the bench's
    pressure-chain sweep: theta0 in [0.1, 2], theta1 in [-1, 1], theta0 outer."""
    rng = np.random.default_rng(seed)

    def jittered(lo, hi, n):
        cells = (np.arange(n) + rng.uniform(0.25, 0.75, n)) / n
        return [round(float(lo + (hi - lo) * c), 6) for c in cells]

    t0s, t1s = jittered(0.1, 2.0, rows), jittered(-1.0, 1.0, cols)
    return np.array([[t0, t1] for t0 in t0s for t1 in t1s])


def assert_same_reprs(got, ref):
    """Equal reprs row by row; a failure names the first differing row."""
    assert len(got) == len(ref)
    bad = [i for i, (a, b) in enumerate(zip(got, ref)) if repr(a) != repr(b)]
    assert not bad, f"{len(bad)} rows differ, first {bad[0]}: {got[bad[0]]!r} != {ref[bad[0]]!r}"
    assert repr(got) == repr(ref)


@pytest.fixture(autouse=True)
def fresh_families():
    gibbs.release_families()
    yield
    gibbs.release_families()


class TestStackedFitsKeepTheRowBits:
    """repr(pressure_limit(...)) is the per-row reference's repr."""

    @pytest.mark.parametrize("fit", ["geometric", "affine"])
    @pytest.mark.parametrize("seed, j, h", [(1, 1.005, 0.68), (11, 0.93, 0.41), (42, 1.17, 0.33)])
    def test_bench_shaped_ring_grid(self, seed, j, h, fit):
        spec = ModelSpec("ising_chain", J=j, h=h)
        stack = ring_grid(seed)
        sizes = list(range(4, 15))
        got = pressure_limit(spec, stack, sizes, fit=fit)
        assert len(got) == 330
        assert_same_reprs(got, reference_pressure_limit(spec, stack, sizes, fit))

    @pytest.mark.parametrize("seed", [0, 24])
    def test_affine_residuals_of_a_wide_stack(self, seed):
        # on these stacks the largest residual of some rows comes out one bit
        # apart when the fitted values are one matrix product, design @ coefs.T
        spec = ModelSpec("ising_chain", J=1.0, h=0.5)
        stack = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(100, 2))
        sizes = list(range(4, 15))
        got = pressure_limit(spec, stack, sizes, fit="affine")
        assert_same_reprs(got, reference_pressure_limit(spec, stack, sizes, "affine"))

    @pytest.mark.parametrize("sizes", [[4, 6, 8], [4, 5, 6, 7, 8]], ids=["3-sizes", "5-sizes"])
    def test_grid_without_a_tail_fit(self, sizes):
        spec = ModelSpec("ising_chain", J=1.0, h=0.5)
        stack = ring_grid(3)
        got = pressure_limit(spec, stack, sizes, fit="geometric")
        assert_same_reprs(got, reference_pressure_limit(spec, stack, sizes, "geometric"))

    @pytest.mark.parametrize("spec, sizes, fit", test_gibbs.TestStackedPressureLimit.CASES,
                             ids=[f"{c[0].kind}-{c[0].boundary}-{c[2]}-{len(c[1])}-sizes"
                                  for c in test_gibbs.TestStackedPressureLimit.CASES])
    def test_stacked_pressure_limit_cases(self, spec, sizes, fit):
        rng = np.random.default_rng(8)
        stack = rng.uniform(0.1, 2.0, size=(9, spec.n_observables))
        stack[:, 1:] -= 1.0
        got = pressure_limit(spec, stack, sizes, fit=fit)
        assert_same_reprs(got, reference_pressure_limit(spec, stack, sizes, fit))

    def test_single_theta_is_the_one_row_case(self):
        spec = ModelSpec("ising_chain", J=0.8, h=0.2)
        stack = ring_grid(5, rows=2, cols=2)
        for fit in ("affine", "geometric"):
            got = pressure_limit(spec, stack[2], list(range(4, 11)), fit=fit)
            assert repr(got) == repr(reference_pressure_limit(spec, stack[2:3],
                                                              list(range(4, 11)), fit)[0])


class TestTwoModeValueStack:
    """A 1-D phi row gives (value, ratio) or None; a (G, sizes) table a list."""

    def test_table_rows_equal_single_rows(self):
        narr = np.arange(4.0, 12.0)
        spec = ModelSpec("ising_chain", J=1.0, h=0.3)
        stack = ring_grid(7, rows=3, cols=2)
        table = np.stack([gibbs.finite_pressure(gibbs._family(spec, int(n), gibbs.DIMENSION_CAP),
                                                stack) for n in narr], axis=1)
        fits = gibbs._two_mode_value(narr, table, 1.0)
        assert isinstance(fits, list) and len(fits) == 6
        assert fits == [gibbs._two_mode_value(narr, row, 1.0) for row in table]
        assert fits == [reference_two_mode_value(narr, row, 1.0) for row in table]

    def test_one_row_without_a_root_inside_a_stack(self, monkeypatch):
        # the second row's fitted recurrence gets a negative dominant root;
        # the other rows keep their fits and pressure_limit refuses the stack
        solve = np.linalg.lstsq
        calls = []

        def second_row_fails(a, b, rcond=None):
            calls.append(1)
            if len(calls) % 3 == 2:
                return np.array([-1.0, 1.0]), None, 2, None
            return solve(a, b, rcond=rcond)

        monkeypatch.setattr(gibbs.np.linalg, "lstsq", second_row_fails)
        narr = np.arange(4.0, 10.0)
        table = np.array([[0.5 + 0.01 * k + 1.0 / n for n in narr] for k in range(3)])
        fits = gibbs._two_mode_value(narr, table, 1.0)
        assert fits[1] is None
        assert fits[0] is not None and fits[2] is not None
        with pytest.raises(NumericRangeError, match="dominant root"):
            pressure_limit(ModelSpec("ising_chain", J=1.0, h=0.5), [[1.0, 0.0], [0.5, 0.1],
                                                                   [0.8, -0.2]],
                           list(range(4, 10)), fit="geometric")

    @pytest.mark.parametrize("n_sizes, fits", [(5, 1), (6, 2)])
    def test_tail_fit_needs_six_sizes(self, monkeypatch, n_sizes, fits):
        calls = []
        fitter = gibbs._two_mode_value

        def counting(narr, phis, step):
            calls.append(len(narr))
            return fitter(narr, phis, step)

        monkeypatch.setattr(gibbs, "_two_mode_value", counting)
        sizes = list(range(4, 4 + n_sizes))
        stack = [[0.7, 0.1], [1.3, -0.4]]
        got = pressure_limit(ModelSpec("ising_chain", J=1.0, h=0.5), stack, sizes,
                             fit="geometric")
        assert calls == [n_sizes, 4][:fits]
        ref = reference_pressure_limit(ModelSpec("ising_chain", J=1.0, h=0.5), stack, sizes,
                                       "geometric")
        assert_same_reprs(got, ref)
