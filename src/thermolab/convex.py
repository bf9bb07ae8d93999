"""Convex analysis on sampled curves.

Entropy and reduced-pressure curves arrive as values on explicit grids, so
every operation here is defined for the piecewise-linear interpolant of the
samples: conjugation (entropy density <-> reduced pressure), supporting-slope
intervals (superdifferentials), concavity audits and the biconjugate hull.

This module owns the package's point convention, and ``gibbs`` follows it:
``as_components`` reads one point (a ``ControlVector`` reads as an array),
``as_stack`` a (P, n) stack of points, one point being its one-row case. A
stacked call (``tangent_set``, ``gibbs.finite_pressure``,
``gibbs.pressure_limit``) answers every row with the bits of the row's own
single-point call. Tangent stencils are array expressions over a per-axis
table of each sample's neighbours one and two steps away.

Conventions: a concave curve ``s(q)`` conjugates to the convex
``phi(theta) = sup_q (s(q) - theta.q)``; the convex orientation inverts with
``s(q) = inf_theta (phi(theta) + theta.q)``. Entropy is measured in natural
log units (Boltzmann constant = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, UsageError

CONCAVE = "concave"
CONVEX = "convex"

# Abscissae closer than this (relative to the coordinate scale) are treated
# as coincident when forming difference quotients.
_ABSCISSA_FLOOR = 1e-13
# Conjugate objectives within this fraction of max(1, |value|) of the best
# one are all reported as attaining it.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ControlVector:
    """Inverse-temperature-scaled control variables.

    ``components[0]`` is the inverse temperature 1/T; ``components[j]`` for
    j >= 1 is y_j/T, the coupling of the j-th conserved observable divided by
    temperature. All entries are dimensionless in natural units.
    """

    components: tuple[float, ...]

    def __post_init__(self):
        comps = as_components(self.components)
        if comps.size == 0:
            raise UsageError("control vector needs at least one component")
        object.__setattr__(self, "components", tuple(comps.tolist()))

    @property
    def beta(self) -> float:
        return self.components[0]

    @property
    def couplings(self) -> tuple[float, ...]:
        """The y_j = theta_j / theta_0 for j >= 1 (thermal convention); a
        theta_0 <= 0 is no inverse temperature and raises UsageError."""
        if self.beta <= 0:
            raise UsageError(f"theta_0 = {self.beta} is not a valid inverse temperature")
        return tuple(c / self.beta for c in self.components[1:])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.components, dtype=dtype)

    def __len__(self) -> int:
        return len(self.components)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a NaN-free 1-d array: ``np.unique``'s, bit for
    bit (its sort, then a break wherever neighbours differ), without the
    ``numpy.ma`` import that ``np.unique`` pays for on its first call."""
    aux = np.sort(values)
    keep = np.empty(aux.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = aux[1:] != aux[:-1]
    return aux[keep]


def as_components(x, n: int | None = None) -> np.ndarray:
    """One point, as any array-like (a ControlVector too), as a float vector.

    Checks that it is one-dimensional, then finite, then, when ``n`` is
    given, that it has n coordinates.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise UsageError(f"a point must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite point")
    if n is not None and arr.size != n:
        raise UsageError(f"expected {n} coordinates, got {arr.size}")
    return arr


def as_stack(x, n: int) -> tuple[np.ndarray, bool]:
    """Points as a (P, n) stack, and whether ``x`` was a single point.

    A two-dimensional ``x`` is a stack of P >= 1 rows of n finite
    coordinates; anything else is one point (see ``as_components``),
    returned as a one-row stack.
    """
    stack = np.asarray(x, dtype=float)
    if stack.ndim < 2:
        return as_components(x, n)[None, :], True
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise UsageError(f"expected a (P, {n}) stack of points with P >= 1, "
                         f"got shape {stack.shape}")
    if stack.shape[1] != n:
        raise UsageError(f"expected {n} coordinates, got {stack.shape[1]}")
    if not np.all(np.isfinite(stack)):
        raise DataError("non-finite point")
    return stack, False


def float_body(table) -> str:
    """CSV body of a (rows, cols) float table, each row ending in a newline:
    the bytes of ``repr(float(v))`` joined by ','. Each distinct float64 bit
    pattern is rendered once (so -0.0 and 0.0 stay apart, and every NaN
    reads ``nan``), and the cells and separators are joined once."""
    table = np.ascontiguousarray(table, dtype=float)
    if not table.size:
        return ""
    rows, cols = table.shape
    # return_index asks np.unique for the stable int64 argsort that the
    # lexsorts already run; its quicksort would page in more of numpy's code
    keys, _, inverse = np.unique(table.view(np.int64), return_index=True, return_inverse=True)
    texts = np.array(list(map(repr, keys.view(float).tolist())) + [",", "\n"], dtype=object)
    cells = np.full((rows, 2 * cols), len(keys))  # the ',' after every cell
    cells[:, 0::2] = inverse.reshape(rows, cols)
    cells[:, -1] += 1  # and a newline after the last
    return "".join(texts[cells.ravel()].tolist())


def float_lines(table) -> list[str]:
    """CSV lines of a float table: ``float_body`` split into its rows."""
    return float_body(table).split("\n")[:-1]


class CurveSamples:
    """A scalar function sampled on an explicit grid, with orientation.

    ``grid`` has shape (npoints, m); one-dimensional input is accepted and
    reshaped. For m = 1 the grid must be strictly increasing; for m > 1 the
    rows are an ordered list of pairwise-distinct points, either a Cartesian
    product grid or a chain of samples along a curve.
    """

    def __init__(self, grid, values, orientation: str, metadata: dict | None = None):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim == 1:
            grid = grid[:, None]
        if grid.ndim != 2:
            raise UsageError(f"grid must be a vector or (npoints, m) array, got shape {grid.shape}")
        if grid.shape[0] == 0:
            raise UsageError("empty sample grid")
        if values.shape != (grid.shape[0],):
            raise UsageError(
                f"values shape {values.shape} does not match {grid.shape[0]} grid points"
            )
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise DataError("non-finite grid point or value")
        if orientation not in (CONCAVE, CONVEX):
            raise UsageError(f"orientation must be 'concave' or 'convex', got {orientation!r}")
        # coordinate scale for distance tests; fixed, as the grid is read-only
        self.span = max(float(np.ptp(grid)), 1.0)
        if grid.shape[1] == 1:
            if not np.all(np.diff(grid[:, 0]) > 0):
                raise UsageError("one-dimensional grid must be strictly increasing")
        else:
            order = np.lexsort(grid.T[::-1])
            gaps = np.abs(np.diff(grid[order], axis=0)).max(axis=1)
            if np.any(gaps <= _ABSCISSA_FLOOR * self.span):
                raise UsageError("grid points must be pairwise distinct")
        self.grid = grid
        self.values = values
        self.orientation = orientation
        self.metadata = dict(metadata or {})
        self.grid.setflags(write=False)
        self.values.setflags(write=False)
        self._axes_cache: tuple = ()  # () = not computed, (None,) or (list,)
        self._lines: dict = {}  # axis k -> axis_lines(k)
        self._steps: dict = {}  # axis k -> neighbour table, see _neighbours

    @property
    def npoints(self) -> int:
        return self.grid.shape[0]

    @property
    def ndim(self) -> int:
        return self.grid.shape[1]

    def __repr__(self):
        return f"CurveSamples({self.npoints} points, dim {self.ndim}, {self.orientation})"

    # -- product-grid structure ------------------------------------------

    def axes(self) -> list[np.ndarray] | None:
        """Per-axis sorted unique values if the grid is a Cartesian product.

        Returns None when the samples do not form a full product grid. The
        rows are pairwise distinct and each lies in the product of the
        per-axis values, so they fill it exactly when the counts agree.
        """
        if not self._axes_cache:
            uniques = [_distinct(self.grid[:, k]) for k in range(self.ndim)]
            product = math.prod(map(len, uniques)) == self.npoints
            self._axes_cache = (uniques if product else None,)
        return self._axes_cache[0]

    def axis_lines(self, k: int) -> list[np.ndarray]:
        """Sample-index arrays of the grid lines running along axis k.

        Each line is sorted by coordinate k; lines come in the order of
        their first sample. They are cut from one stable lexsort of the
        samples by their other coordinates, then by coordinate k, wherever
        the other coordinates change (as floats: -0.0 and 0.0 share a line).
        Computed once per axis.
        """
        if k not in self._lines:
            other = self.grid[:, [j for j in range(self.ndim) if j != k]]
            order = np.lexsort([self.grid[:, k], *other.T[::-1]])
            keys = other[order]
            lines = np.split(order, np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1)
            self._lines[k] = sorted(lines, key=lambda line: line.min())
        return self._lines[k]

    def line_through(self, i: int, k: int) -> tuple[np.ndarray, int]:
        """The axis-k line holding sample i, and i's position on it."""
        i = range(self.npoints)[i]  # IndexError past either end, as a list's
        line = next(line for line in self.axis_lines(k) if i in line)
        return line, int(np.flatnonzero(line == i)[0])

    def _neighbours(self, k: int) -> np.ndarray:
        """(npoints, 5) table of the samples 2 and 1 steps before each
        sample, the sample itself, and 1 and 2 steps after it, along its
        axis-k line on a product grid (a 1-d grid is one line) and along the
        sample order otherwise; -1 past a line's end. Computed once per axis."""
        if k not in self._steps:
            product = self.axes() is not None
            lines = self.axis_lines(k) if product else [np.arange(self.npoints)]
            table = np.full((self.npoints, 5), -1)
            for line in lines:
                for d in range(-2, 3):
                    table[line[max(0, -d):len(line) - max(0, d)], d + 2] = \
                        line[max(0, d):len(line) + min(0, d)]
            self._steps[k] = table
        return self._steps[k]

    def _exact_rows(self, points: np.ndarray) -> np.ndarray:
        """Sample index of the grid row equal to each of the (P, m) points, or
        -1: in one stable lexsort of the rows, then the points, a point's
        match is the nearest row at or before it, if it has one."""
        both = np.concatenate([self.grid, points])
        order = np.lexsort(both.T[::-1])
        nearest = np.empty_like(order)
        at = np.arange(len(order))
        nearest[order] = order[np.maximum.accumulate(np.where(order < self.npoints, at, 0))]
        rows = nearest[self.npoints:]
        return np.where((rows < self.npoints) & np.all(both[rows] == points, axis=1), rows, -1)

    def index_of(self, point) -> int | None:
        """Index of the sample matching ``point``, or None."""
        point = as_components(point, self.ndim)
        dist = np.max(np.abs(self.grid - point), axis=1)
        i = int(np.argmin(dist))
        if dist[i] <= 1e-9 * self.span:
            return i
        return None

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        head = [f"# orientation={self.orientation}"]
        head += [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        head.append(",".join([f"q_{k}" for k in range(self.ndim)] + ["value"]))
        return "\n".join(head) + "\n" + float_body(np.column_stack([self.grid, self.values]))

    @classmethod
    def from_csv(cls, text: str) -> "CurveSamples":
        metadata = {}
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    metadata[key.strip()] = val.strip()
                continue
            if line.startswith("q_"):
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise DataError(f"line {lineno}: cannot parse {line!r} as numbers") from None
            if len(row) < 2 or rows and len(row) != len(rows[0]):
                raise DataError(f"line {lineno}: {len(row)} columns; every sample row needs "
                                "the first row's count, at least 2")
            rows.append(row)
        orientation = metadata.pop("orientation", None)
        if orientation is None:
            raise DataError("missing '# orientation=' header")
        if not rows:
            raise DataError("no sample rows in CSV")
        arr = np.array(rows, dtype=float)
        return cls(arr[:, :-1], arr[:, -1], orientation, metadata)


@dataclass(frozen=True)
class TangentSet:
    """Per-coordinate interval of supporting slopes at a point.

    ``lower[k] <= upper[k]`` bound the one-sided slope estimates along
    coordinate k; zero width in every coordinate (within ``tol``) certifies
    numerical differentiability at the point. Boundary points carry an
    unbounded side. The fields are (m,) arrays for one point, or (P, m)
    arrays for a stack of P points, whose ``max_width`` and
    ``differentiable`` then hold one entry per point.
    """

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    tol: np.ndarray

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def max_width(self) -> float | np.ndarray:
        widest = np.max(self.width, axis=-1)
        return float(widest) if widest.ndim == 0 else widest

    @property
    def differentiable(self) -> bool | np.ndarray:
        w = self.width
        smooth = np.all(np.isfinite(w) & (w <= self.tol), axis=-1)
        return bool(smooth) if smooth.ndim == 0 else smooth

    def midpoint(self) -> np.ndarray:
        """A representative supporting slope (midpoint of the intervals)."""
        lo = np.where(np.isfinite(self.lower), self.lower, self.upper)
        hi = np.where(np.isfinite(self.upper), self.upper, self.lower)
        mid = 0.5 * (lo + hi)
        return np.where(np.isfinite(mid), mid, 0.0)


@dataclass(frozen=True)
class ConcavityViolation:
    """An adjacent sample triple breaking the orientation's chord inequality."""

    indices: tuple[int, int, int]
    lam: float
    defect: float


def conjugate(f: CurveSamples, x) -> float:
    """Discrete Legendre-Fenchel transform of the samples at dual point ``x``.

    Concave input: ``sup_grid (value - x . gridpoint)`` (entropy density to
    reduced pressure). Convex input: ``inf_grid (value + x . gridpoint)``
    (reduced pressure back to entropy density). Exact for the
    piecewise-linear interpolant up to grid resolution.
    """
    value, _ = conjugate_maximizers(f, x)
    return value


def conjugate_maximizers(f: CurveSamples, x):
    """Conjugate value together with all attaining grid indices.

    Ties within ``_TIE_TOL * max(1, |value|)`` are all reported; multiple
    attaining points mark a flat piece of the conjugate (phase coexistence in
    the thermodynamic reading).
    """
    x = as_components(x, f.ndim)
    if f.orientation == CONCAVE:
        objective = f.values - f.grid @ x
        best = float(np.max(objective))
    else:
        objective = f.values + f.grid @ x
        best = float(np.min(objective))
    attain = np.nonzero(np.abs(objective - best) <= _TIE_TOL * max(1.0, abs(best)))[0]
    return best, attain


def support_defect(f: CurveSamples, q, theta) -> float:
    """Largest violation of the supporting-slope inequality at sample ``q``.

    For concave samples this is ``max over q' of f(q') - f(q) - theta.(q'-q)``;
    a result <= tol means ``theta`` supports the graph at ``q``.
    """
    q = as_components(q, f.ndim)
    i = f.index_of(q)
    if i is None:
        raise DomainError("support_defect requires q to be a grid sample")
    rel = f.values - f.values[i] - (f.grid - q[None, :]) @ as_components(theta, f.ndim)
    if f.orientation == CONVEX:
        rel = -rel
    return float(np.max(rel))


def _one_sided_slopes(c0, c1, c2, v0, v1, v2, has0, has1):
    """Slope estimates at abscissae ``c2`` of one-sided stencils, row by row.

    A row is a stencil (c0, c1, c2) of monotone abscissae ending at the
    evaluation point; ``has0`` and ``has1`` say whether its samples c0 and
    c1 exist. The 3-point stencil gives a second-order estimate; where c0 is
    missing or the three abscissae are too close to resolve, the 2-point
    difference quotient of (c1, c2) is taken, judged at the same scale.
    Returns the slopes and a mask of the rows whose slope resolved; the
    slopes of the other rows are meaningless.
    """
    near = np.maximum(np.abs(c1), np.abs(c2))
    scale = np.maximum(np.where(has0, np.maximum(np.abs(c0), near), near), 1.0)
    floor = _ABSCISSA_FLOOR * scale
    d01, d12, d02 = c1 - c0, c2 - c1, c2 - c0
    three = (
        has0
        & (np.minimum(np.minimum(np.abs(d01), np.abs(d12)), np.abs(d02)) > floor)
        & ((d01 > 0) == (d12 > 0))
    )
    two = has1 & (np.abs(d12) > floor)
    slope3 = (v0 * d12 / (d01 * d02) - v1 * d02 / (d01 * d12)
              + v2 * (d02 + d12) / (d02 * d12))
    return np.where(three, slope3, (v2 - v1) / d12), three | two


def _curvatures(c0, c1, c2, v0, v1, v2, has):
    """|second difference| of each triple (c0, c1, c2), or 0 where the triple
    is missing, too close to resolve or not monotone."""
    d01, d12 = c1 - c0, c2 - c1
    scale = np.maximum(np.maximum(np.abs(c0), np.abs(c1)), np.maximum(np.abs(c2), 1.0))
    ok = (
        has
        & (np.minimum(np.abs(d01), np.abs(d12)) > _ABSCISSA_FLOOR * scale)
        & ((d01 > 0) == (d12 > 0))
    )
    second = 2.0 * (v0 / (d01 * (d01 + d12)) - v1 / (d01 * d12) + v2 / (d12 * (d01 + d12)))
    return np.where(ok, np.abs(second), 0.0)


def _axis_intervals(f: CurveSamples, at: np.ndarray, k: int, tol):
    """(lower, upper, tol, unresolved) along coordinate k at the samples ``at``.

    Each side's slope uses up to its two adjacent grid intervals on the
    sample's axis-k line; a missing side is unbounded, and ``unresolved``
    marks the samples with a slope on neither side. The default tol is
    10 x (larger adjacent spacing) x (largest curvature of the one-sided
    triples (i-2, i-1, i) and (i, i+1, i+2)): triples straddling i would
    read a genuine kink at i as curvature. Ties and signed zeros resolve as
    Python's min and max do.
    """
    nb = f._neighbours(k)[at]
    has = nb >= 0
    c = f.grid[nb, k]
    v = f.values[nb]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        left, has_left = _one_sided_slopes(
            c[:, 0], c[:, 1], c[:, 2], v[:, 0], v[:, 1], v[:, 2], has[:, 0], has[:, 1])
        right, has_right = _one_sided_slopes(
            c[:, 4], c[:, 3], c[:, 2], v[:, 4], v[:, 3], v[:, 2], has[:, 4], has[:, 3])
        if tol is None:
            best = np.zeros(len(at))
            for lo in (0, 2):  # a triple exists where both its ends do
                bend = _curvatures(*c[:, lo:lo + 3].T, *v[:, lo:lo + 3].T,
                                   has[:, lo] & has[:, lo + 2])
                best = np.where(bend > best, bend, best)
            gap_left = np.abs(c[:, 2] - c[:, 1])
            gap_right = np.abs(c[:, 3] - c[:, 2])
            spacing = np.where(has[:, 1], gap_left, 0.0)
            wider = has[:, 3] & (~has[:, 1] | (gap_right > gap_left))
            tols = 10.0 * np.where(wider, gap_right, spacing) * best
        else:
            tols = np.full(len(at), float(tol))
    both = has_left & has_right
    lower = np.where(both, np.where(right < left, right, left),
                     np.where(has_left, -np.inf, right))
    upper = np.where(both, np.where(right > left, right, left),
                     np.where(has_right, np.inf, left))
    return lower, upper, tols, ~(has_left | has_right)


def tangent_set(f: CurveSamples, q, tol: float | None = None) -> TangentSet:
    """Supporting-slope intervals of the sampled function at ``q``.

    One-sided slopes are estimated per coordinate from the two adjacent grid
    intervals on each side of ``q``. For a concave curve the interval
    [min(left, right), max(left, right)] brackets the superdifferential
    component; its width, compared against ``tol``, separates discretization
    noise from a genuine kink. ``tol`` defaults per coordinate to
    10 x (local grid spacing) x (local curvature scale), with the curvature
    estimated away from ``q`` so a kink cannot mask itself.

    ``q`` must be a grid sample, except on one-dimensional grids where any
    point of the sampled interval is accepted (points interior to a segment
    get the chord slope with zero width). ``q`` is one point of m
    coordinates, giving (m,) intervals, or a (P, m) stack of P >= 1 points,
    giving (P, m) intervals whose rows have the bits of the single-point
    calls; a single point is the one-row case.
    """
    if f.orientation != CONCAVE:
        raise UsageError("tangent_set expects concave-oriented samples")
    points, single = as_stack(q, f.ndim)

    at = f._exact_rows(points)
    for p in np.flatnonzero(at < 0):
        i = f.index_of(points[p])
        at[p] = -1 if i is None else i

    lower = np.empty(points.shape)
    upper = np.empty(points.shape)
    tols = np.empty(points.shape)
    off = at < 0
    if off.any():
        if f.ndim != 1:
            raise DomainError("off-sample evaluation is only defined on 1-d grids")
        x = points[off, 0]
        g = f.grid[:, 0]
        outside = (x < g[0]) | (x > g[-1])
        if outside.any():
            raise DomainError(f"q={x[outside][0]} outside sampled interval [{g[0]}, {g[-1]}]")
        j = np.searchsorted(g, x) - 1
        lower[off, 0] = upper[off, 0] = (f.values[j + 1] - f.values[j]) / (g[j + 1] - g[j])
        tols[off, 0] = 0.0 if tol is None else float(tol)

    on = ~off
    for k in range(f.ndim):
        lo, hi, t, bad = _axis_intervals(f, at[on], k, tol)
        if bad.any():
            raise DomainError(f"cannot resolve slopes along coordinate {k} at "
                              f"{points[on][np.argmax(bad)]}")
        lower[on, k], upper[on, k], tols[on, k] = lo, hi, t
    if single:
        return TangentSet(points[0], lower[0], upper[0], tols[0])
    return TangentSet(points, lower, upper, tols)


def concavity_violations(f: CurveSamples, tol: float) -> list[ConcavityViolation]:
    """Adjacent-triple chord audit of the declared orientation.

    Each applicable triple (a, b, c) with b = lam*a + (1-lam)*c on the grid is
    tested against its chord; for concave orientation a violation means the
    middle value falls below the chord by more than ``tol`` (above it, for
    convex). The triples are each sample with its neighbours one step before
    and after it (``_neighbours``): along every axis line of a product grid,
    in line order, and along the sample order otherwise, where only
    collinear triples apply. Empty list iff the sampled function honors its
    orientation at resolution ``tol``; a NaN or negative ``tol`` raises
    UsageError.
    """
    if not tol >= 0.0:
        raise UsageError(f"tol must be non-negative, got {tol}")
    product = f.axes() is not None
    out = []
    for k in range(f.ndim if product else 1):
        nb = f._neighbours(k)[np.concatenate(f.axis_lines(k)) if product else slice(None)]
        ia, ib, ic = nb[(nb[:, 1] >= 0) & (nb[:, 3] >= 0), 1:4].T
        ca, cb = f.grid[ia] - f.grid[ic], f.grid[ib] - f.grid[ic]
        # stacked as matmul, a row's dot product keeps the bits of ca @ ca
        denom = np.matmul(ca[:, None], ca[:, :, None])[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.matmul(cb[:, None], ca[:, :, None])[:, 0, 0] / denom
            off_line = np.max(np.abs(cb - lam[:, None] * ca), axis=1)
            chord = lam * f.values[ia] + (1.0 - lam) * f.values[ic]
        defect = chord - f.values[ib] if f.orientation == CONCAVE else f.values[ib] - chord
        # ends past the abscissa floor, b between them, on their line, a defect past tol
        hit = ((denom > (_ABSCISSA_FLOOR * f.span) ** 2) & (0.0 < lam) & (lam < 1.0)
               & (off_line <= 1e-9 * f.span) & (defect > tol))
        out += map(ConcavityViolation, zip(ia[hit].tolist(), ib[hit].tolist(), ic[hit].tolist()),
                   lam[hit].tolist(), defect[hit].tolist())
    return out


def biconjugate(f: CurveSamples) -> CurveSamples:
    """Double conjugate: the concave hull of the samples, on the same grid.

    For concave input this reproduces the values at every grid point (the
    transform is an involution there); otherwise it returns the concave
    envelope. Dual grids are the products of each axis's distinct chord
    slopes between neighbouring samples (``_neighbours``), which makes the
    round trip exact for piecewise-linear concave data; an axis with one
    value has the slope 0, and so has every axis of a one-point curve.
    Supported on Cartesian product grids, a 1-d grid being one.
    f* and the hull come from 32-row blocks of products (``_blocked_extremes``):
    outer products on a 1-d curve, stacked mat-vecs on a product grid, each
    row with the bits of its own mat-vec.
    """
    if f.orientation != CONCAVE:
        raise UsageError("biconjugate expects concave-oriented samples")
    if f.axes() is None:
        raise UsageError("biconjugate on dim > 1 requires a Cartesian product grid")
    per_axis = []
    for k in range(f.ndim):
        step = f._neighbours(k)[:, 2:4]
        i, j = step[step[:, 1] >= 0].T
        slopes = (f.values[j] - f.values[i]) / (f.grid[j, k] - f.grid[i, k])
        per_axis.append(_distinct(slopes) if slopes.size else np.array([0.0]))
    mesh = np.meshgrid(*per_axis, indexing="ij")
    dual = np.stack([m.ravel() for m in mesh], axis=-1)

    # f* on the dual grid (convex there), then back onto the primal grid
    fstar = _blocked_extremes(np.max, np.subtract, f.values, f.grid, dual)
    hull = _blocked_extremes(np.min, np.add, fstar, dual, f.grid)
    return CurveSamples(f.grid, hull, CONCAVE, f.metadata)


def _blocked_extremes(extreme, op, base, table, points):
    """extreme(op(base, table @ p)) per row p of ``points``, over (32, len(table))
    blocks, each row with the bits of ``table @ p``.

    A one-column table (every 1-d curve) takes its block from the outer product
    of the 32 points with the column, plus 0.0: a one-term mat-vec sums 0 + t*p,
    so a product that is -0.0, exact or underflowed, reads +0.0 there too.
    Wider tables take stacked mat-vecs, whose sums BLAS may fuse.
    """
    blocks = []
    for s in range(0, len(points), 32):
        if table.shape[1] == 1:
            block = np.multiply.outer(points[s:s + 32, 0], table[:, 0])
            block += 0.0
        else:
            block = np.matmul(table[None], points[s:s + 32, :, None])[..., 0]
        blocks.append(extreme(op(base, block, out=block), axis=1))
    return np.concatenate(blocks)
