"""Property tests: CSV round trip and Legendre involution on sampled curves,
the expansion of ``lo:hi:step`` config ranges, and the closed-form roots of
the product-state densities."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermolab import (  # noqa: E402
    CONCAVE,
    CONVEX,
    ConfigError,
    CurveSamples,
    ErgodicFamily,
    ModelSpec,
    biconjugate,
    conjugate,
)
from thermolab.cli import Config  # noqa: E402
from thermolab.completeness import _component_roots  # noqa: E402

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


def _decimal_token(units: int, decimals: int) -> str:
    """units * 10^-decimals written with exactly ``decimals`` places."""
    if decimals == 0:
        return str(units)
    whole, frac = divmod(abs(units), 10**decimals)
    return f"{'-' if units < 0 else ''}{whole}.{frac:0{decimals}d}"


def _expand(text: str) -> list:
    return Config({"theta0": (text, 1)}).get_floats("theta0")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def decimal_ranges(draw):
    """A range written in decimals, its grid in units and the point count.

    hi lies on the grid or falls short of the next point by ``slack`` units.
    """
    decimals = draw(st.integers(0, 4))
    lo = draw(st.integers(-10**5, 10**5))
    step = draw(st.integers(1, 10**4))
    count = draw(st.integers(1, 200))
    slack = draw(st.integers(0, step - 1))
    hi = lo + (count - 1) * step + slack
    text = ":".join(_decimal_token(u, decimals) for u in (lo, hi, step))
    return text, [_decimal_token(lo + k * step, decimals) for k in range(count)], hi, decimals


junk = st.text("abcxyz:_+-.e ", min_size=1, max_size=6).filter(
    lambda t: ":" not in t and not _is_number(t)
)


@st.composite
def bad_ranges(draw):
    """lo:hi:step texts the config reader must refuse."""
    lo, width, step = draw(st.integers(-50, 50)), draw(st.integers(1, 50)), draw(st.integers(1, 9))
    parts = [str(lo), str(lo + width), str(step)]
    flaw = draw(st.sampled_from(["junk", "reversed", "step", "non-finite", "huge", "arity"]))
    if flaw == "junk":
        parts[draw(st.integers(0, 2))] = draw(junk)
    elif flaw == "reversed":
        parts[0], parts[1] = parts[1], parts[0]
    elif flaw == "step":
        parts[2] = draw(st.sampled_from(["0", "-1", f"-{step}", "0.0"]))
    elif flaw == "non-finite":
        parts[draw(st.integers(0, 2))] = draw(st.sampled_from(["inf", "-inf", "nan", "1e400"]))
    elif flaw == "huge":  # finite bounds, but (hi - lo) / step overflows
        parts = [f"-{width}e307", f"{width}e307", f"{step}e-308"]
    else:
        parts.append(str(step))
    return ":".join(parts)


class TestConfigRanges:
    @PROPERTY_SETTINGS
    @given(decimal_ranges())
    def test_points_are_the_decimal_grid(self, case):
        text, grid, hi, decimals = case
        values = _expand(text)
        assert len(values) == len(grid)
        # endpoints included exactly, every point on the written grid
        assert values == [float(token) for token in grid]
        assert values[-1] <= float(_decimal_token(hi, decimals))

    @PROPERTY_SETTINGS
    @given(bad_ranges())
    def test_bad_ranges_are_config_errors(self, text):
        with pytest.raises(ConfigError):
            _expand(text)


def _density_coefficients(kind, j, h, k):
    """Exact (a, b, c) of q_k(m) = a m^2 + b m + c for the product states:
    (1 - m)/2 for free spins, else e = -J m^2 - h m (Ising chain) or
    -(J/2) m^2 - h m (Curie-Weiss), and m itself for k = 1."""
    if kind == "free_spins":
        return Fraction(0), Fraction(-1, 2), Fraction(1, 2)
    if k == 1:
        return Fraction(0), Fraction(1), Fraction(0)
    return -Fraction(j) / (1 if kind == "ising_chain" else 2), -Fraction(h), Fraction(0)


def _extreme_values(a, b, c):
    """q at m = -1, m = 1 and at the vertex when it lies in [-1, 1]."""
    values = [a - b + c, a + b + c]
    if a != 0 and abs(b) <= 2 * abs(a):
        values.append(c - b * b / (4 * a))
    return values


TANGENT_MARGIN = Fraction(1, 10**6)


@st.composite
def component_targets(draw):
    """(kind, J, h, k, target) with the target at least TANGENT_MARGIN from
    every extreme value of q_k, so no root is tangential or at a band edge;
    half the targets are q_k of a drawn polarization."""
    kind = draw(st.sampled_from(["free_spins", "ising_chain", "curie_weiss"]))
    j, h = draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.0, 1.0))
    k = 0 if kind == "free_spins" else draw(st.sampled_from([0, 0, 1]))
    a, b, c = _density_coefficients(kind, j, h, k)
    if draw(st.booleans()):
        m = draw(st.floats(-1.0, 1.0))
        target = float(a * m * m + b * m + c)
    else:
        target = draw(st.floats(-3.0, 3.0))
    assume(all(abs(Fraction(target) - v) > TANGENT_MARGIN for v in _extreme_values(a, b, c)))
    return kind, j, h, k, target


def _sign_changes(values):
    """Zeros plus strict sign changes along a sampled column."""
    return int(np.sum(values == 0.0) + np.sum(values[:-1] * values[1:] < 0.0))


class TestClosedFormRoots:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(component_targets())
    def test_roots_meet_the_target_and_match_the_sign_changes(self, case):
        kind, j, h, k, target = case
        family = ErgodicFamily(ModelSpec(kind, J=j, h=h))
        roots = _component_roots(family, k, target, 1e-9)
        assert roots is not None
        a, b, c = _density_coefficients(kind, j, h, k)
        bound = 4 * np.finfo(float).eps * max(1.0, abs(target))
        for x in roots:
            x = Fraction(x)
            assert abs(a * x * x + b * x + c - Fraction(target)) <= bound
        grid = np.linspace(-1.0, 1.0, 20001)
        column = float(a) * grid * grid + float(b) * grid + float(c) - target
        assert len(roots) == _sign_changes(column)
