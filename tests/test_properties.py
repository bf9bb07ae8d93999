"""Property tests: CSV round trip and Legendre involution on sampled curves."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermolab import CONCAVE, CONVEX, CurveSamples, biconjugate, conjugate  # noqa: E402

# derandomized and without an example database, so runs are reproducible
# and leave no files behind
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
meta_keys = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).filter(
    lambda k: k != "orientation"
)
meta_values = st.text("abcdefghijklmnopqrstuvwxyzABC0123456789_.-", max_size=10)


@st.composite
def sampled_curves(draw):
    """1-d grids (strictly increasing) or 2-d point sets (pairwise distinct)."""
    ndim = draw(st.integers(1, 2))
    if ndim == 1:
        coords = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20, unique=True))
        grid = np.sort(np.array(coords))[:, None]
    else:
        cells = draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                              min_size=1, max_size=20, unique=True))
        scale = draw(st.floats(1e-3, 1e3))
        grid = np.array(cells, dtype=float) * scale
    values = draw(st.lists(finite, min_size=len(grid), max_size=len(grid)))
    orientation = draw(st.sampled_from([CONCAVE, CONVEX]))
    metadata = draw(st.dictionaries(meta_keys, meta_values, max_size=4))
    return CurveSamples(grid, values, orientation, metadata)


@st.composite
def concave_curves(draw):
    """1-d piecewise-linear concave samples: decreasing chord slopes."""
    n = draw(st.integers(2, 30))
    start = draw(st.floats(-100.0, 100.0))
    gaps = draw(st.lists(st.floats(0.01, 10.0), min_size=n - 1, max_size=n - 1))
    slopes = sorted(draw(st.lists(st.floats(-50.0, 50.0), min_size=n - 1, max_size=n - 1)),
                    reverse=True)
    s0 = draw(st.floats(-100.0, 100.0))
    q = start + np.concatenate([[0.0], np.cumsum(gaps)])
    values = s0 + np.concatenate([[0.0], np.cumsum(np.array(slopes) * np.array(gaps))])
    return CurveSamples(q, values, CONCAVE)


def _roundoff_scale(f, slopes):
    return 1e-12 * (1.0 + np.max(np.abs(f.values))
                    + np.max(np.abs(slopes)) * np.max(np.abs(f.grid)))


class TestCurveCsvRoundTrip:
    @PROPERTY_SETTINGS
    @given(sampled_curves())
    def test_round_trip_is_exact(self, f):
        back = CurveSamples.from_csv(f.to_csv())
        assert back.orientation == f.orientation
        assert back.metadata == f.metadata
        assert np.array_equal(back.grid, f.grid)
        assert np.array_equal(back.values, f.values)


class TestLegendreInvolution:
    @PROPERTY_SETTINGS
    @given(concave_curves())
    def test_biconjugate_reproduces_concave_samples(self, f):
        hull = biconjugate(f)
        slopes = np.diff(f.values) / np.diff(f.grid[:, 0])
        assert np.max(np.abs(hull.values - f.values)) <= _roundoff_scale(f, slopes)

    @PROPERTY_SETTINGS
    @given(concave_curves())
    def test_conjugating_twice_returns_the_samples(self, f):
        # s -> phi on the chord slopes (convex), then phi -> s on the grid
        slopes = np.unique(np.diff(f.values) / np.diff(f.grid[:, 0]))
        phi = CurveSamples(slopes, [conjugate(f, th) for th in slopes], CONVEX)
        back = np.array([conjugate(phi, q) for q in f.grid[:, 0]])
        assert np.max(np.abs(back - f.values)) <= _roundoff_scale(f, slopes)
