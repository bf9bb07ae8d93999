"""Constrained entropy maximization over a one-parameter product-state family.

The family maps a single-site polarization m in [-1, 1] to the product state
with site density diag((1+m)/2, (1-m)/2). Its per-site entropy eta(m) and
observable densities q(m) = (e(m), m) are closed-form, so the constrained
maximum-entropy problem "maximize eta(m) subject to q_k(m) = c_k" is solved
exactly, and the number of surviving maximizers diagnoses whether the
constrained observables pin a unique phase (multiplicity 1) or leave a
symmetry-related pair (multiplicity 2, the ferromagnet scenario below the
critical energy).

Every density component is a polynomial a m^2 + b m + c, whose triple only
``ErgodicFamily.component_coefficients`` knows; the densities, the attainable
ranges (q at m = +-1 and at the vertex) and each constraint's roots (the
stable quadratic formula) follow from it. The root search runs stacked, on
(P, 5) candidate tables for P constraints: a whole curve is one call, and
``constrained_entropy_max`` its one-row case. A joint constraint keeps those
roots of one component (a linear one if constrained, else the lowest index)
that meet every other.
The variational pressure sits at a root of the mean-field equation
atanh(m) = s m + r, found by bisection.

For the mean-field (complete graph) model this family is variationally exact
in the large-volume limit; that restriction is recorded in every artifact
header this module feeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .convex import CONCAVE, CurveSamples, as_components, as_stack
from .errors import InfeasibleConstraintError, UsageError
from .lattice import ModelSpec

SCAN_RESOLUTION = 1e-5
MERGE_RADIUS = 1e-6
# Largest roundoff bound, 2 eps max|phi| / step, that pressure_slope_gap
# accepts on its difference quotients (slopes are densities, order one).
SLOPE_ROUNDOFF_BAR = 1e-6

_SUPPORTED_KINDS = ("free_spins", "ising_chain", "curie_weiss")


class InfeasibleGridPointWarning(UserWarning):
    """A requested curve grid point is unreachable by the family."""


def _eta(m: float) -> float:
    """``ErgodicFamily.entropy`` of a float m, for the solver's scalar calls."""
    p = (1.0 + m) / 2.0
    q = 1.0 - p
    out = 0.0 - p * math.log(p) if p > 0.0 else 0.0
    return out - q * math.log(q) if q > 0.0 else out


class ErgodicFamily:
    """Product states of polarization m, with their density functions.

    Densities per model kind (thermodynamic-limit values per site):
      free_spins:   e(m) = (1 - m)/2                      (mean occupation)
      ising_chain:  e(m) = -J m^2 - h m,   plus m itself
      curie_weiss:  e(m) = -(J/2) m^2 - h m, plus m itself
    The per-site entropy is eta(m), the binary entropy of (1+m)/2.
    """

    kind = "product_states"

    def __init__(self, model: ModelSpec):
        if model.kind not in _SUPPORTED_KINDS:
            raise UsageError(f"no product-state family for model kind {model.kind!r}")
        self.model = model
        self._scan: tuple | None = None
        # max(1, |a|, |b|, |c|) per component: it scales the root tolerance,
        # and is exactly 1 for |J|, |h| <= 1
        self.coefficient_scale = tuple(max(1.0, *map(abs, self.component_coefficients(k)))
                                       for k in range(self.n_components))

    @property
    def component_labels(self) -> tuple[str, ...]:
        return self.model.labels

    @property
    def n_components(self) -> int:
        return len(self.component_labels)

    def single_site_density(self, m: float) -> np.ndarray:
        if not -1.0 <= m <= 1.0:
            raise UsageError(f"polarization {m} outside [-1, 1]")
        return np.diag([(1.0 + m) / 2.0, (1.0 - m) / 2.0])

    def entropy(self, m):
        """eta(m): binary entropy of (1+m)/2; 0 at m = +-1, ln 2 at m = 0. The
        solver passes scalars (``math.log``); only ``_scan_arrays`` passes an
        array, whose ``np.log`` can differ from ``math.log`` in the last bit."""
        if np.ndim(m) == 0:
            return _eta(float(m))
        m = np.asarray(m, dtype=float)
        p = np.clip((1.0 + m) / 2.0, 0.0, 1.0)
        out = np.zeros_like(p)
        for w in (p, 1.0 - p):
            live = w > 0.0
            out[live] -= w[live] * np.log(w[live])
        return out

    def densities(self, m):
        """Observable densities q(m); shape (..., n_components)."""
        m = np.asarray(m, dtype=float)
        return np.stack([a * m**2 + b * m + c for a, b, c in
                         map(self.component_coefficients, range(self.n_components))], axis=-1)

    def component_range(self, k: int) -> tuple[float, float]:
        """(min, max) of q_k on [-1, 1]: at m = +-1, or at the vertex."""
        a, b, _ = self.component_coefficients(k)
        q = self.component_offset(k, 0.0)
        xs = [-1.0, 1.0] + ([-b / (2.0 * a)] if a != 0.0 else [])
        values = [q(x) for x in xs if -1.0 <= x <= 1.0]
        return min(values), max(values)

    def _scan_arrays(self):
        if self._scan is None:
            count = int(round(2.0 / SCAN_RESOLUTION)) + 1
            m = np.linspace(-1.0, 1.0, count)
            self._scan = (m, self.densities(m), self.entropy(m))
        return self._scan

    def _monotone_segments(self, k: int) -> list[tuple[int, int]]:
        """Index ranges [i0, i1] of the scan on which q_k is monotone.

        The closed-form root search does not use it; it stays as the
        vectorized split that ``TestMonotoneSegmentsReference`` pins.
        """
        _, q, _ = self._scan_arrays()
        d = np.sign(np.diff(q[:, k]))
        # a break wherever the direction flips between two nonzero steps
        flips = (d[1:] != 0) & (d[:-1] != 0) & (d[1:] != d[:-1])
        breaks = [0, *(np.nonzero(flips)[0] + 1).tolist(), len(d)]
        return list(zip(breaks[:-1], breaks[1:]))

    def component_coefficients(self, k: int) -> tuple[float, float, float]:
        """(a, b, c) with q_k(m) = a m^2 + b m + c. Zero coefficients are
        -0.0, the additive identity: x + -0.0 is x, signed zeros included."""
        if self.model.kind == "free_spins":
            return -0.0, -0.5, 0.5
        if k == 1:
            return -0.0, 1.0, -0.0
        j = self.model.J if self.model.kind == "ising_chain" else self.model.J / 2.0
        return -j, -self.model.h, -0.0

    def component_offset(self, k: int, target: float):
        """x -> q_k(x) - target, on floats or broadcasting arrays alike (the
        same correctly rounded steps in the same order).

        With target 0 it is q_k itself: ``component_range`` and
        ``mean_field_pressure`` evaluate the density through it, and the
        root search checks its (P, 5) candidate tables against a column of
        targets with it.
        """
        a, b, c = self.component_coefficients(k)
        return lambda x: a * x * x + b * x + c - target


@dataclass(frozen=True)
class MaximizerSet:
    """Solution set of a constrained entropy maximization.

    ``multiplicity`` is the count of distinct maximizers after merging within
    MERGE_RADIUS, or math.inf for a flat optimum, in which case ``interval``
    carries the endpoints.
    """

    constraint: dict
    entropy_value: float
    maximizers: tuple
    multiplicity: float
    interval: tuple | None = None

    def to_json_dict(self, verdict: str | None = None) -> dict:
        out = {
            "constraint": {str(k): v for k, v in sorted(self.constraint.items())},
            "s": self.entropy_value,
            "maximizers": list(self.maximizers),
            "multiplicity": "inf" if math.isinf(self.multiplicity) else int(self.multiplicity),
        }
        if self.interval is not None:
            out["interval"] = list(self.interval)
        if verdict is not None:
            out["verdict"] = verdict
        return out


@dataclass(frozen=True)
class CompletenessReport:
    """Per-constraint maximizer records plus the aggregate verdict."""

    records: tuple
    complete: bool
    witness: MaximizerSet

    @property
    def verdict(self) -> str:
        return "Complete" if self.complete else "Incomplete"


def normalize_constraint(family: ErgodicFamily, constraint) -> dict:
    """Map label- or index-keyed constraints to {component index: value}."""
    labels = family.component_labels
    out = {}
    items = constraint.items() if isinstance(constraint, dict) else enumerate(constraint)
    for key, val in items:
        if isinstance(key, str):
            if key not in labels:
                raise UsageError(f"unknown component {key!r}; family has {labels}")
            key = labels.index(key)
        key = int(key)
        if not 0 <= key < len(labels):
            raise UsageError(f"component index {key} out of range for {labels}")
        out[key] = float(val)
    if not out:
        raise UsageError("constraint must fix at least one component")
    return out


def _root_table(family: ErgodicFamily, k: int, targets: np.ndarray, tol: float):
    """Roots of q_k(m) = t on [-1, 1] for a column of P targets t: (x, keep,
    flat), each row of x (P, 5) sorted with its roots marked by ``keep``, and
    ``flat`` where q_k equals t everywhere within tol (no restriction).

    The roots are closed form: -c/b for a linear component, the stable
    quadratic formula otherwise. The extrema of q_k on [-1, 1] (the ends,
    the vertex) are candidates too, for a double root or one just past a
    band edge. A candidate counts as a root where q_k meets the target
    within max(tol, 1e-9) * ``coefficient_scale[k]``: the rounding residual
    of q_k(m) - t grows with the coefficients (a root at J = 2e8 misses by
    more than 1e-9). Each step is correctly rounded, so rows are independent.
    """
    lo_range, hi_range = family.component_range(k)
    flat = (hi_range <= targets + tol) & (lo_range >= targets - tol)

    a, b, c = family.component_coefficients(k)
    # one power of two keeps b * b and 4 a c in range; the roots are ratios of
    # the scaled terms and keep their bits, short of a scaled c - t underflow.
    # It is capped at 2^1023, where 2^-e of a subnormal a or b would overflow
    scale = math.ldexp(1.0, min(-math.frexp(max(abs(a), abs(b)))[1], 1023))
    a, b, c = a * scale, b * scale, (c - targets) * scale
    x = np.full((len(targets), 5), np.inf)
    x[:, 0], x[:, 1] = -1.0, 1.0
    accept = max(tol, 1e-9) * family.coefficient_scale[k]
    with np.errstate(all="ignore"):  # columns that do not apply hold NaN or inf
        if a == 0.0:
            if b != 0.0:
                x[:, 2] = -c / b
        else:
            x[:, 2] = -b / (2.0 * a)
            disc = b * b - 4.0 * a * c
            q = -0.5 * (b + np.copysign(np.sqrt(disc), b))  # NaN where disc < 0
            x[:, 3] = np.where(q != 0.0, q / a, 0.0)
            x[:, 4] = np.where(q != 0.0, c / q, np.inf)
        keep = ((-1.0 <= x) & (x <= 1.0)
                & (np.abs(family.component_offset(k, targets[:, None])(x)) <= accept))
    # "+ 0.0" turns a -0.0 root into 0.0
    x = np.sort(np.where(keep, x + 0.0, np.inf), axis=1)
    keep = x < np.inf
    last = np.full(len(x), -np.inf)
    for j in range(x.shape[1]):
        keep[:, j] &= x[:, j] - last > MERGE_RADIUS
        last = np.where(keep[:, j], x[:, j], last)
    return x, keep, flat


def _component_roots(family: ErgodicFamily, k: int, target: float, tol: float):
    """The one-row ``_root_table``: a list of roots, or None where flat."""
    x, keep, flat = _root_table(family, k, np.array([float(target)]), tol)
    return None if flat[0] else x[0, keep[0]].tolist()


def _unreachable(family: ErgodicFamily, cons: dict) -> InfeasibleConstraintError:
    reachable = {k: family.component_range(k) for k in cons}
    return InfeasibleConstraintError(f"constraint {cons} unreachable; "
                                     f"attainable ranges {reachable}", reachable)


def _maximize_stack(family: ErgodicFamily, comps: tuple, targets, tol: float):
    """Maximize eta(m) with q_comps[j] fixed at targets[i, j], for each row i
    (``comps`` ascending).

    Returns (best, x, winners, flat): row i's maximizers x[i, winners[i]]
    reach entropy best[i]. A row with no winner is infeasible, unless every
    component is flat at its target (``flat``; see ``_continuum_maximum``).
    The candidates are the roots of one non-flat component per row: the
    lowest-index linear one (exact to one rounding), else the lowest-index
    one. Those within max(tol, 1e-9) * coefficient_scale[k] of every target
    are feasible, and eta takes the scalar ``math.log`` path, ``_eta``, on them.
    """
    if not 0.0 < tol < math.inf:
        raise UsageError(f"tol must be positive and finite, got {tol}")
    targets = np.asarray(targets, dtype=float)
    tables = [_root_table(family, k, targets[:, j], tol) for j, k in enumerate(comps)]
    source = np.full(len(targets), -1)
    # the preferred source is written last: linear before quadratic, then lowest index
    for j in reversed(sorted(range(len(comps)),
                             key=lambda j: family.component_coefficients(comps[j])[0] != 0.0)):
        source[~tables[j][2]] = j
    flat, rows = source < 0, np.arange(len(targets))
    x = np.stack([t[0] for t in tables])[source, rows]
    keep = np.stack([t[1] for t in tables])[source, rows] & ~flat[:, None]
    floor = max(tol, 1e-9)
    with np.errstate(all="ignore"):  # x is +inf past each row's roots
        for j, k in enumerate(comps):
            fn = family.component_offset(k, targets[:, j, None])
            keep &= np.abs(fn(x)) <= floor * family.coefficient_scale[k]
    eta = np.full(x.shape, -np.inf)
    eta[keep] = list(map(_eta, x[keep].tolist()))
    best = eta.max(axis=1)
    # the candidates are sorted and already merged (consecutive roots are
    # over MERGE_RADIUS apart), and so is any subsequence of them
    return best, x, keep & (eta >= best[:, None] - tol), flat


def constrained_entropy_max(family: ErgodicFamily, constraint, tol: float = 1e-9) -> MaximizerSet:
    """Maximize eta(m) subject to the specified density components: the
    one-row case of ``_maximize_stack``. All global maximizers within ``tol``
    of the optimum are returned, merged within MERGE_RADIUS. Flat optima come
    back with multiplicity inf and the interval endpoints. Raises
    InfeasibleConstraintError (listing the reachable ranges) when no
    polarization meets the constraint.
    """
    cons = normalize_constraint(family, constraint)
    comps = tuple(sorted(cons))
    best, x, winners, flat = _maximize_stack(family, comps, [[cons[k] for k in comps]], tol)
    if flat[0]:
        return _continuum_maximum(family, cons, tol)
    maximizers = tuple(x[0, winners[0]].tolist())
    if not maximizers:
        raise _unreachable(family, cons)
    return MaximizerSet(cons, float(best[0]), maximizers, len(maximizers))


def _continuum_maximum(family: ErgodicFamily, cons: dict, tol: float) -> MaximizerSet:
    """Unconstrained-in-practice case: every component is flat at its target.
    eta is largest at m = 0; the scan only checks for a flat optimum."""
    best = float(family.entropy(0.0))
    m, _, eta = family._scan_arrays()
    near = np.nonzero(eta >= best - tol)[0]
    width = float(m[near[-1]] - m[near[0]]) if len(near) else 0.0
    spread = float(eta[near].max() - eta[near].min()) if len(near) else 0.0
    if width > 1000.0 * MERGE_RADIUS and spread <= tol:
        endpoints = (float(m[near[0]]), float(m[near[-1]]))
        return MaximizerSet(cons, best, endpoints, math.inf, endpoints)
    return MaximizerSet(cons, best, (0.0,), 1)


def completeness_verdict(family: ErgodicFamily, constraints, tol: float = 1e-9) -> CompletenessReport:
    """Run the constrained maximization over many constraints and aggregate.

    The verdict is Complete iff every constraint admits exactly one
    maximizer; the witness is the record of maximal multiplicity.
    """
    records = tuple(constrained_entropy_max(family, c, tol) for c in constraints)
    if not records:
        raise UsageError("no constraints given")
    witness = max(records, key=lambda r: r.multiplicity)
    complete = all(r.multiplicity == 1 for r in records)
    return CompletenessReport(records, complete, witness)


def entropy_curve(family: ErgodicFamily, grid, tol: float = 1e-9,
                  components=None) -> CurveSamples:
    """Sampled entropy function s over a grid of (partial) density constraints.

    The grid is a list of constraints (see ``normalize_constraint``), every
    entry constraining the same components, or a (P, k) array of targets,
    one point per row, read by ``convex.as_stack``: column j fixes
    ``components[j]`` (ascending indices or labels; default every
    component). Infeasible points are skipped with an
    InfeasibleGridPointWarning. One-component grids are sorted by
    coordinate; higher-dimensional grids keep the caller's order (a chain
    of samples along the family's reachable set). The curve's metadata is
    its ``family`` alone: the model and its couplings are the run's config.
    """
    if isinstance(grid, np.ndarray):
        comps = list(range(family.n_components))
        if components is not None:
            comps = list(normalize_constraint(family, dict.fromkeys(components, 0.0)))
            if comps != sorted(comps) or len(comps) != len(components):
                raise UsageError(f"components must be distinct and ascending, got {components}")
        targets = as_stack(grid, len(comps))[0]
        normalized = None
    else:
        normalized = [normalize_constraint(family, g) for g in grid]
        if not normalized:
            raise UsageError("empty curve grid")
        comps = sorted(normalized[0])
        if any(sorted(c) != comps for c in normalized):
            raise UsageError("all grid points must constrain the same components")
        targets = np.array([[c[k] for k in comps] for c in normalized])

    values, _, winners, flat = _maximize_stack(family, tuple(comps), targets, tol)
    # a flat row's value is _continuum_maximum's, with no scan to build
    values[flat] = family.entropy(0.0)
    feasible = flat | winners.any(axis=1)
    for i in np.flatnonzero(~feasible):
        cons = dict(zip(comps, targets[i].tolist())) if normalized is None else normalized[i]
        warnings.warn(f"skipping infeasible grid point {cons}: {_unreachable(family, cons)}",
                      InfeasibleGridPointWarning, stacklevel=2)
    if not feasible.any():
        raise InfeasibleConstraintError("every grid point was infeasible")
    points = targets[feasible]
    values = values[feasible]
    if len(comps) == 1:
        order = np.argsort(points[:, 0])
        points, values = points[order], values[order]
    return CurveSamples(points, values, CONCAVE, {"family": family.kind})


def family_curve_constraints(family: ErgodicFamily, m_values) -> list[dict]:
    """Joint (all-component) constraints along the family's reachable curve."""
    q = family.densities(np.asarray(m_values, dtype=float))
    return [dict(enumerate(row)) for row in q.tolist()]


def _upper_root(s: float, r: float) -> float | None:
    """The largest float m in [c, 1) with g(m) = atanh(m) - s m - r <= 0, or
    None if g(c) > 0. g increases there: c = sqrt(1 - 1/s) for s > 1, else 0."""
    c = min(math.sqrt(1.0 - 1.0 / s), math.nextafter(1.0, 0.0)) if s > 1.0 else 0.0
    g = lambda m: math.atanh(m) - s * m - r
    g_c = g(c)
    if g_c >= 0.0:
        return c if g_c == 0.0 else None
    lo, hi = c, 1.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # bisect down to adjacent floats
        lo, hi = (mid, hi) if g(mid) <= 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return lo


def mean_field_pressure(family: ErgodicFamily, theta) -> float:
    """max_m (eta(m) - theta . q(m)): the family's variational pressure.

    With q_k = a_k m^2 + b_k m + c_k, the maximizer solves the mean-field
    equation atanh(m) = s m + r (m = tanh(s m + r)), s = -2 theta . a,
    r = -theta . b. It lies where atanh(m) - s m - r increases: on [c, 1)
    (``_upper_root``) or on its mirror under (m, r) -> (-m, -r). For the
    complete-graph model this equals the infinite-volume pressure.
    """
    th = as_components(theta, family.n_components).tolist()
    triples = [family.component_coefficients(k) for k in range(family.n_components)]
    s = -2.0 * sum(t * a for t, (a, _, _) in zip(th, triples))
    r = -sum(t * b for t, (_, b, _) in zip(th, triples))
    best = -math.inf
    for sign in (1.0, -1.0):
        m = _upper_root(s, sign * r)
        if m is not None:
            m *= sign
            # eta is even; eta(|m|) keeps the mirror symmetry exact
            best = max(best, _eta(abs(m)) - sum(
                t * family.component_offset(k, 0.0)(m) for k, t in enumerate(th)))
    return best


@dataclass(frozen=True)
class SlopeGap:
    """One-sided slopes of the variational pressure across a control value."""

    left: float
    right: float

    @property
    def gap(self) -> float:
        return self.right - self.left


def pressure_slope_gap(family: ErgodicFamily, theta, component: int = 1,
                       step: float = 1e-4) -> SlopeGap:
    """One-sided difference quotients of the variational pressure.

    A nonzero gap at theta flags a kink: the two phases on either side carry
    different densities (spontaneous symmetry breaking when the gap is 2 m*).
    A step below 2**-26 * max(1, |theta[component]|), the square root of the
    float64 epsilon at that scale, is a UsageError: its quotients would be
    roundoff, and a step that leaves the pressure unmoved reads as no kink.
    So is a step whose quotients carry a roundoff bound, 2 eps max|phi| /
    step over the three pressures, above ``SLOPE_ROUNDOFF_BAR``: a large
    pressure rounds away the change that a small step makes to it.
    """
    th = as_components(theta, family.n_components)
    if not 0 <= component < family.n_components:
        raise UsageError(f"component {component} out of range")
    if not 0.0 < step < math.inf:
        raise UsageError(f"step must be positive and finite, got {step}")
    floor = 2.0**-26 * max(1.0, abs(float(th[component])))
    if step < floor:
        raise UsageError(f"step {step!r} is below 2**-26 * max(1, |theta_{component}|) "
                         f"= {floor!r}, too small for a difference quotient")
    center = mean_field_pressure(family, th)
    plus = th.copy()
    plus[component] += step
    minus = th.copy()
    minus[component] -= step
    phis = (mean_field_pressure(family, minus), center, mean_field_pressure(family, plus))
    scale = max(map(abs, phis))
    if 2.0 * math.ulp(1.0) * scale / step > SLOPE_ROUNDOFF_BAR:
        raise UsageError(f"step {step!r} is too small for a pressure of {scale!r}: its "
                         f"difference quotients would be roundoff past {SLOPE_ROUNDOFF_BAR}")
    right = (phis[2] - center) / step
    left = (center - phis[0]) / step
    return SlopeGap(left, right)
