"""Mean-field's whole-array kernels keep the bits of their per-point forms.

A 1-d ``biconjugate`` takes each block of products from an outer product
plus 0.0, where a (P, 1) table's mat-vec sums 0 + t*p; ``_decimal_range``
rounds its points as one array where that gives ``round``'s bits and calls
``round`` per point elsewhere; ``_eta`` takes its two terms without a loop.
Each is pinned here against the per-point code it replaced.
"""

import math
import random

import numpy as np
import pytest

from thermolab import CONCAVE, CurveSamples
from thermolab import config
from thermolab.completeness import _eta
from thermolab.config import _decimal_range, _decimals
from thermolab.convex import _blocked_extremes, _distinct, biconjugate


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def dual_grid(f: CurveSamples) -> np.ndarray:
    """A 1-d curve's distinct chord slopes, as ``biconjugate`` builds them."""
    q, v = f.grid[:, 0], f.values
    return _distinct((v[1:] - v[:-1]) / (q[1:] - q[:-1]))[:, None]


def hull_rows(f: CurveSamples):
    """f* and the hull from one ``grid @ th`` mat-vec per dual or primal row."""
    dual = dual_grid(f)
    fstar = np.array([np.max(f.values - f.grid @ th) for th in dual])
    return fstar, np.array([np.min(fstar + dual @ q) for q in f.grid])


def assert_rows(f: CurveSamples):
    fstar, hull = hull_rows(f)
    dual = dual_grid(f)
    assert bits(_blocked_extremes(np.max, np.subtract, f.values, f.grid, dual)) == bits(fstar)
    assert bits(_blocked_extremes(np.min, np.add, fstar, dual, f.grid)) == bits(hull)
    assert bits(biconjugate(f).values) == bits(hull)
    return len(dual)


def unsigned_fstar_differs(f: CurveSamples) -> bool:
    """Whether f* from the outer product without the + 0.0 loses the row bits."""
    dual = dual_grid(f)
    fstar = (f.values - np.multiply.outer(dual[:, 0], f.grid[:, 0])).max(axis=1)
    return bits(fstar) != bits(hull_rows(f)[0])


class TestOneColumnBlocks:
    def test_signed_zero_grid_and_values(self):
        q = np.array([-0.95, -0.54, -0.0, 0.19, 0.95])
        f = CurveSamples(q, np.array([-0.53, -0.25, -0.0, -0.07, -0.52]), CONCAVE)
        assert unsigned_fstar_differs(f)  # -0.0 * slope is -0.0 on the left chords
        assert_rows(f)

    def test_products_that_underflow_to_negative_zero(self):
        q = np.array([-1.0, -0.5, 5e-324, 0.5, 1.0])
        f = CurveSamples(q, np.array([-0.54, -0.15, -0.0, -0.21, -0.34]), CONCAVE)
        dual = dual_grid(f)[:, 0]
        assert np.all(np.abs(dual) < 1.0) and np.any(dual < 0.0)
        assert np.signbit(5e-324 * dual[dual < 0.0]).all()  # -0.0, not a subnormal
        assert unsigned_fstar_differs(f)
        assert_rows(f)

    @pytest.mark.parametrize("n", [34, 50, 98])
    def test_partial_last_block(self, n):
        rng = np.random.default_rng(n)
        q = np.sort(np.append(rng.uniform(-2.0, 2.0, n - 1), 0.0))
        ndual = assert_rows(CurveSamples(q, np.cos(2.0 * q) - 0.1 * q * q * q, CONCAVE))
        assert ndual > 32 and ndual % 32


def decimal_range_reference(lo, hi, step, decimals) -> list:
    """``_decimal_range`` as it read with one ``round`` per point."""
    count = math.floor((hi - lo) / step + 0.5) + 1
    if round(lo + (count - 1) * step, decimals) > hi:
        count -= 1
    return [round(lo + k * step, decimals) + 0.0 for k in range(count)]


@pytest.fixture
def round_calls(monkeypatch):
    """Counts the ``round`` calls ``config`` makes (its global shadows the builtin)."""
    calls = []

    def counted(x, ndigits):
        calls.append(x)
        return round(x, ndigits)

    monkeypatch.setattr(config, "round", counted, raising=False)
    return calls


def assert_range(round_calls, lo, hi, step, decimals, scalar: bool):
    want = decimal_range_reference(lo, hi, step, decimals)
    del round_calls[:]
    got = _decimal_range(lo, hi, step, decimals)
    assert bits(got) == bits(want) and all(type(x) is float for x in got)
    # one call settles the count; a range off the array branch rounds every point
    assert len(round_calls) == 1 + (len(want) if scalar else 0)


class TestDecimalRange:
    def test_seeded_random_ranges(self, round_calls):
        rng = random.Random(2024)
        for _ in range(1000):
            d = rng.randint(0, 6)
            step = rng.randint(1, 500) / 10**d
            lo = rng.randint(-10 ** (d + 1), 10 ** (d + 1)) / 10**d
            hi = lo + rng.randint(0, 400) * step + rng.random() * step
            parts = [f"{lo:.{d}f}", f"{hi:.{d + 1}f}", f"{step:.{d}f}"]
            lo_, hi_, step_ = map(float, parts)
            assert_range(round_calls, lo_, hi_, step_, max(map(_decimals, parts)), scalar=False)

    def test_the_mean_field_sweep(self, round_calls):
        assert_range(round_calls, -0.972, 0.972, 0.001, 3, scalar=False)
        assert config._parse_number_list("-0.972:0.972:0.001") == \
            decimal_range_reference(-0.972, 0.972, 0.001, 3)

    def test_exact_ties_round_per_point(self, round_calls):
        # 0.125 and 0.625 are exact doubles: round(., 2) breaks their ties to even
        assert_range(round_calls, 0.125, 0.875, 0.25, 2, scalar=True)
        assert _decimal_range(0.125, 0.875, 0.25, 2) == [0.12, 0.38, 0.62]  # 0.88 lies past hi

    def test_more_than_22_decimals_round_per_point(self, round_calls):
        assert_range(round_calls, 0.0, 1e-21, 1e-23, 23, scalar=True)

    def test_products_past_2_to_the_50_round_per_point(self, round_calls):
        assert_range(round_calls, 1e7, 1e7 + 1e-8, 1e-9, 9, scalar=True)
        assert_range(round_calls, -2.0**51, -2.0**51 + 8.0, 1.0, 0, scalar=True)

    def test_negative_zero_reads_zero(self, round_calls):
        assert -0.9 + 3 * 0.3 < 0.0  # rounds to -0.0
        assert_range(round_calls, -0.9, 0.9, 0.3, 1, scalar=False)
        assert bits(_decimal_range(-0.9, 0.9, 0.3, 1)[3:4]) == bits([0.0])


def eta_loop(m: float) -> float:
    """``_eta`` as it read with a loop over its two weights."""
    p = (1.0 + m) / 2.0
    out = 0.0
    for w in (p, 1.0 - p):
        if w > 0.0:
            out -= w * math.log(w)
    return out


def test_eta_matches_the_loop():
    rng = np.random.default_rng(17)
    edges = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1.0 - 2.0**-53, -1.0 + 2.0**-53]
    for m in edges + rng.uniform(-1.0, 1.0, 20000).tolist():
        assert bits([_eta(m)]) == bits([eta_loop(m)])
