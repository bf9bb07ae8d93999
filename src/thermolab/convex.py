"""Convex analysis on sampled curves.

Entropy and reduced-pressure curves arrive as values on explicit grids, so
every operation here is defined for the piecewise-linear interpolant of the
samples: conjugation (entropy density <-> reduced pressure), supporting-slope
intervals (superdifferentials), concavity audits and the biconjugate hull.

Conventions: a concave curve ``s(q)`` conjugates to the convex
``phi(theta) = sup_q (s(q) - theta.q)``; the convex orientation inverts with
``s(q) = inf_theta (phi(theta) + theta.q)``. Entropy is measured in natural
log units (Boltzmann constant = 1).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, UsageError

CONCAVE = "concave"
CONVEX = "convex"

# Abscissae closer than this (relative to the coordinate scale) are treated
# as coincident when forming difference quotients.
_ABSCISSA_FLOOR = 1e-13


@dataclass(frozen=True)
class ControlVector:
    """Inverse-temperature-scaled control variables.

    ``components[0]`` is the inverse temperature 1/T; ``components[j]`` for
    j >= 1 is y_j/T, the coupling of the j-th conserved observable divided by
    temperature. All entries are dimensionless in natural units.
    """

    components: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        if len(comps) == 0:
            raise UsageError("control vector needs at least one component")
        if not all(math.isfinite(c) for c in comps):
            raise DataError(f"non-finite control vector {comps}")
        object.__setattr__(self, "components", comps)

    @property
    def beta(self) -> float:
        return self.components[0]

    @property
    def couplings(self) -> tuple[float, ...]:
        """The y_j = theta_j / theta_0 for j >= 1 (thermal convention)."""
        self.require_thermal()
        return tuple(c / self.beta for c in self.components[1:])

    def require_thermal(self):
        if self.beta <= 0:
            raise UsageError(f"theta_0 = {self.beta} is not a valid inverse temperature")

    def as_array(self) -> np.ndarray:
        return np.array(self.components, dtype=float)

    def __len__(self) -> int:
        return len(self.components)


def as_components(theta, n: int | None = None) -> np.ndarray:
    """Normalize a ControlVector or array-like to a float vector.

    When ``n`` is given the length is checked against it.
    """
    if isinstance(theta, ControlVector):
        arr = theta.as_array()
    else:
        arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise UsageError(f"control vector must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite control vector")
    if n is not None and arr.size != n:
        raise UsageError(f"expected {n} control components, got {arr.size}")
    return arr


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
            if grid.shape[0] > 1 and not np.all(np.diff(grid[:, 0]) > 0):
                raise UsageError("one-dimensional grid must be strictly increasing")
        elif grid.shape[0] > 1:
            order = np.lexsort(grid.T[::-1])
            gaps = np.abs(np.diff(grid[order], axis=0)).max(axis=1)
            if np.min(gaps) <= _ABSCISSA_FLOOR * self.span:
                raise UsageError("grid points must be pairwise distinct")
        self.grid = grid
        self.values = values
        self.orientation = orientation
        self.metadata = dict(metadata or {})
        self.grid.setflags(write=False)
        self.values.setflags(write=False)
        self._axes_cache: tuple = ()  # () = not computed, (None,) or (list,)
        self._lines: dict = {}  # axis k -> (lines, (line, position) of each sample)

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

        Returns None when the samples do not form a full product grid.
        """
        if self._axes_cache:
            return self._axes_cache[0]
        uniques = [np.unique(self.grid[:, k]) for k in range(self.ndim)]
        total = 1
        for u in uniques:
            total *= len(u)
        result = None
        if total == self.npoints:
            mesh = np.stack(
                [a.ravel() for a in np.meshgrid(*uniques, indexing="ij")], axis=-1
            )
            order_self = np.lexsort(self.grid.T[::-1])
            order_mesh = np.lexsort(mesh.T[::-1])
            if np.array_equal(self.grid[order_self], mesh[order_mesh]):
                result = uniques
        self._axes_cache = (result,)
        return result

    def _axis_table(self, k: int) -> tuple:
        if k not in self._lines:
            groups: dict[tuple, list[int]] = {}
            other = [j for j in range(self.ndim) if j != k]
            for i, key in enumerate(map(tuple, self.grid[:, other].tolist())):
                groups.setdefault(key, []).append(i)
            lines, where = [], [None] * self.npoints
            for idx in groups.values():
                idx = np.asarray(idx)
                line = idx[np.argsort(self.grid[idx, k])]
                lines.append(line)
                for pos, i in enumerate(line.tolist()):
                    where[i] = (line, pos)
            self._lines[k] = (lines, where)
        return self._lines[k]

    def axis_lines(self, k: int) -> list[np.ndarray]:
        """Sample-index arrays of the grid lines running along axis k.

        Each line is sorted by coordinate k; lines come in the order of
        their first sample. Computed once per axis.
        """
        return self._axis_table(k)[0]

    def line_through(self, i: int, k: int) -> tuple[np.ndarray, int]:
        """The axis-k line holding sample i, and i's position on it."""
        return self._axis_table(k)[1][i]

    def index_of(self, point) -> int | None:
        """Index of the sample matching ``point``, or None."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.ndim,):
            raise UsageError(f"point has {point.size} coordinates, grid has {self.ndim}")
        # max over coordinates of |grid - point|, one column at a time
        dist = np.abs(self.grid[:, 0] - point[0])
        for k in range(1, self.ndim):
            np.maximum(dist, np.abs(self.grid[:, k] - point[k]), out=dist)
        i = int(np.argmin(dist))
        if dist[i] <= 1e-9 * self.span:
            return i
        return None

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# orientation={self.orientation}\n")
        for key in sorted(self.metadata):
            buf.write(f"# {key}={self.metadata[key]}\n")
        cols = [f"q_{k}" for k in range(self.ndim)] + ["value"]
        buf.write(",".join(cols) + "\n")
        for row, v in zip(self.grid, self.values):
            buf.write(",".join(repr(float(x)) for x in row) + "," + repr(float(v)) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CurveSamples":
        orientation = None
        metadata = {}
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    if key.strip() == "orientation":
                        orientation = val.strip()
                    else:
                        metadata[key.strip()] = val.strip()
                continue
            if line.startswith("q_"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
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
    unbounded side.
    """

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    tol: np.ndarray

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def max_width(self) -> float:
        return float(np.max(self.width))

    @property
    def differentiable(self) -> bool:
        w = self.width
        return bool(np.all(np.isfinite(w)) and np.all(w <= self.tol))

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


def conjugate_maximizers(f: CurveSamples, x, tie_tol: float = 1e-12):
    """Conjugate value together with all attaining grid indices.

    Ties within ``tie_tol * max(1, |value|)`` are all reported; multiple
    attaining points mark a flat piece of the conjugate (phase coexistence in
    the thermodynamic reading).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.ndim,):
        raise UsageError(f"dual point has {x.size} coordinates, expected {f.ndim}")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite dual point")
    if f.orientation == CONCAVE:
        objective = f.values - f.grid @ x
        best = float(np.max(objective))
    else:
        objective = f.values + f.grid @ x
        best = float(np.min(objective))
    attain = np.nonzero(np.abs(objective - best) <= tie_tol * max(1.0, abs(best)))[0]
    return best, attain


def support_defect(f: CurveSamples, q, theta) -> float:
    """Largest violation of the supporting-slope inequality at sample ``q``.

    For concave samples this is ``max over q' of f(q') - f(q) - theta.(q'-q)``;
    a result <= tol means ``theta`` supports the graph at ``q``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    i = f.index_of(q)
    if i is None:
        raise DomainError("support_defect requires q to be a grid sample")
    rel = f.values - f.values[i] - (f.grid - q[None, :]) @ theta
    if f.orientation == CONVEX:
        rel = -rel
    return float(np.max(rel))


def _one_sided_slope(coords, vals):
    """Slope estimate at the last abscissa of a one-sided stencil.

    ``coords`` holds 2 or 3 monotone abscissae (Python floats) ending at the
    evaluation point; the 3-point stencil gives a second-order estimate, the
    2-point stencil the plain difference quotient. Returns None when the
    abscissae are too close to resolve a slope.
    """
    scale = max(max(abs(c) for c in coords), 1.0)
    if len(coords) == 3:
        d01 = coords[1] - coords[0]
        d12 = coords[2] - coords[1]
        d02 = coords[2] - coords[0]
        if (
            min(abs(d01), abs(d12), abs(d02)) > _ABSCISSA_FLOOR * scale
            and (d01 > 0) == (d12 > 0)
        ):
            v0, v1, v2 = vals
            return (
                v0 * d12 / (d01 * d02)
                - v1 * d02 / (d01 * d12)
                + v2 * (d02 + d12) / (d02 * d12)
            )
        coords, vals = coords[1:], vals[1:]
    if abs(coords[1] - coords[0]) <= _ABSCISSA_FLOOR * scale:
        return None
    return (vals[1] - vals[0]) / (coords[1] - coords[0])


def _chain_one_sided(coords, vals, i):
    """(left, right) slope estimates at position i of an ordered chain.

    ``coords`` and ``vals`` are lists of Python floats. Each side uses up to
    its two adjacent grid intervals; missing or degenerate sides come back
    as None.
    """
    n = len(coords)
    left = right = None
    if i >= 1:
        lo = max(0, i - 2)
        left = _one_sided_slope(coords[lo : i + 1], vals[lo : i + 1])
    if i <= n - 2:
        hi = min(n - 1, i + 2)
        # stencil ends at i
        right = _one_sided_slope(coords[i : hi + 1][::-1], vals[i : hi + 1][::-1])
    return left, right


def _local_curvature(coords, vals, i) -> float:
    """Curvature scale near position i, from triples not straddling i.

    Straddling triples would read a genuine kink at i as curvature, so only
    the purely one-sided triples (i-2, i-1, i) and (i, i+1, i+2) contribute.
    ``coords`` and ``vals`` are lists of Python floats.
    """
    best = 0.0
    n = len(coords)
    for lo in (i - 2, i):
        if lo < 0 or lo + 2 >= n:
            continue
        a0, a1, a2 = coords[lo : lo + 3]
        d01, d12 = a1 - a0, a2 - a1
        scale = max(abs(a0), abs(a1), abs(a2), 1.0)
        if min(abs(d01), abs(d12)) <= _ABSCISSA_FLOOR * scale or (d01 > 0) != (d12 > 0):
            continue
        v0, v1, v2 = vals[lo : lo + 3]
        second = 2.0 * (
            v0 / (d01 * (d01 + d12)) - v1 / (d01 * d12) + v2 / (d12 * (d01 + d12))
        )
        best = max(best, abs(second))
    return best


def _default_tol(coords, vals, i) -> float:
    """Kink-detection tolerance: 10 x local spacing x local curvature scale."""
    gaps = []
    if i >= 1:
        gaps.append(abs(coords[i] - coords[i - 1]))
    if i <= len(coords) - 2:
        gaps.append(abs(coords[i + 1] - coords[i]))
    spacing = max(gaps) if gaps else 0.0
    return 10.0 * spacing * _local_curvature(coords, vals, i)


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
    get the chord slope with zero width).
    """
    if f.orientation != CONCAVE:
        raise UsageError("tangent_set expects concave-oriented samples")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape != (f.ndim,):
        raise UsageError(f"point has {q.size} coordinates, grid has {f.ndim}")
    i = f.index_of(q)

    if i is None:
        if f.ndim != 1:
            raise DomainError("off-sample evaluation is only defined on 1-d grids")
        x = q[0]
        g = f.grid[:, 0]
        if x < g[0] or x > g[-1]:
            raise DomainError(f"q={x} outside sampled interval [{g[0]}, {g[-1]}]")
        j = int(np.searchsorted(g, x)) - 1
        slope = (f.values[j + 1] - f.values[j]) / (g[j + 1] - g[j])
        t = np.array([0.0 if tol is None else float(tol)])
        return TangentSet(q, np.array([slope]), np.array([slope]), t)

    axes = f.axes() if f.ndim > 1 else None
    lowers, uppers, tols = [], [], []
    for k in range(f.ndim):
        line, pos = f.line_through(i, k) if axes is not None else (None, i)
        # the stencils reach two samples either side of pos
        lo = max(0, pos - 2)
        window = slice(lo, pos + 3) if line is None else line[lo : pos + 3]
        coords = f.grid[window, k].tolist()
        vals = f.values[window].tolist()
        pos -= lo
        left, right = _chain_one_sided(coords, vals, pos)
        if left is None and right is None:
            raise DomainError(f"cannot resolve slopes along coordinate {k} at {q}")
        if left is None:
            lo, hi = right, math.inf
        elif right is None:
            lo, hi = -math.inf, left
        else:
            lo, hi = min(left, right), max(left, right)
        lowers.append(lo)
        uppers.append(hi)
        tols.append(_default_tol(coords, vals, pos) if tol is None else float(tol))
    return TangentSet(q, np.array(lowers), np.array(uppers), np.array(tols))


def concavity_violations(f: CurveSamples, tol: float) -> list[ConcavityViolation]:
    """Adjacent-triple chord audit of the declared orientation.

    Each applicable triple (a, b, c) with b = lam*a + (1-lam)*c on the grid is
    tested against its chord; for concave orientation a violation means the
    middle value falls below the chord by more than ``tol`` (above it, for
    convex). Product grids are audited along every axis line; on chains of
    samples only collinear consecutive triples apply. Empty list iff the
    sampled function honors its orientation at resolution ``tol``.
    """
    if f.ndim > 1 and f.axes() is not None:
        out = []
        for k in range(f.ndim):
            for line in f.axis_lines(k):
                out.extend(_chain_violations(f, line, tol))
        return out
    return _chain_violations(f, np.arange(f.npoints), tol)


def _chain_violations(f: CurveSamples, idx: np.ndarray, tol: float) -> list[ConcavityViolation]:
    out = []
    span = f.span
    for p in range(1, len(idx) - 1):
        ia, ib, ic = idx[p - 1], idx[p], idx[p + 1]
        ca = f.grid[ia] - f.grid[ic]
        cb = f.grid[ib] - f.grid[ic]
        denom = float(ca @ ca)
        if denom <= (_ABSCISSA_FLOOR * span) ** 2:
            continue
        lam = float(cb @ ca) / denom
        if not (0.0 < lam < 1.0):
            continue
        if np.max(np.abs(cb - lam * ca)) > 1e-9 * span:
            continue  # triple not collinear: chord inequality does not apply
        chord = lam * f.values[ia] + (1.0 - lam) * f.values[ic]
        defect = chord - f.values[ib] if f.orientation == CONCAVE else f.values[ib] - chord
        if defect > tol:
            out.append(ConcavityViolation((int(ia), int(ib), int(ic)), lam, float(defect)))
    return out


def biconjugate(f: CurveSamples) -> CurveSamples:
    """Double conjugate: the concave hull of the samples, on the same grid.

    For concave input this reproduces the values at every grid point (the
    transform is an involution there); otherwise it returns the concave
    envelope. Dual grids are assembled from the adjacent-chord slopes, which
    makes the round trip exact for piecewise-linear concave data. Supported
    on 1-d and Cartesian product grids.
    """
    if f.orientation != CONCAVE:
        raise UsageError("biconjugate expects concave-oriented samples")
    if f.npoints == 1:
        return CurveSamples(f.grid, f.values, CONCAVE, f.metadata)
    if f.ndim == 1:
        chords = np.diff(f.values) / np.diff(f.grid[:, 0])
        dual = np.unique(chords)[:, None]
    else:
        if f.axes() is None:
            raise UsageError("biconjugate on dim > 1 requires a Cartesian product grid")
        per_axis = []
        for k in range(f.ndim):
            slopes: list[float] = []
            for line in f.axis_lines(k):
                if len(line) > 1:
                    slopes.extend(
                        (np.diff(f.values[line]) / np.diff(f.grid[line, k])).tolist()
                    )
            per_axis.append(np.unique(np.asarray(slopes)) if slopes else np.array([0.0]))
        mesh = np.meshgrid(*per_axis, indexing="ij")
        dual = np.stack([m.ravel() for m in mesh], axis=-1)

    # f* on the dual grid (convex there), then back onto the primal grid
    fstar = np.array([np.max(f.values - f.grid @ th) for th in dual])
    hull = np.array([np.min(fstar + dual @ qrow) for qrow in f.grid])
    return CurveSamples(f.grid, hull, CONCAVE, f.metadata)
