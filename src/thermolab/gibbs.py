"""Generalized canonical states, entropies and the finite-volume pressure.

States and pressures are read off a family's cached spectral form and
never off its storage: canonical states come from the level view (the
product basis for the diagonal built-in families, which keeps sizes up to
the dimension cap (2^14) cheap, or the dense family's eigenbasis, computed
once per family), and expectations are read in that basis too.

Pressures are sums over levels, not states: ``finite_pressure`` reads the
family's joint level table (distinct eigenvalue rows with multiplicities,
see ``ObservableFamily.levels``), which the built-in Ising and Curie-Weiss
families count in O(N^2) rows, building no 2^N states, and the built-in open
transverse chain sums from its N free-fermion modes, building none of its
2^(N-1) x 2^(N-1) parity blocks (those wait for the level view). A family
does not depend on theta, so a theta grid is one unit of work:
``finite_pressure`` and ``pressure_limit`` take a (G, k) stack of control
vectors as well as a single one (the one-row case), read by
``convex.as_stack`` under the package's stack convention. A stacked
``finite_pressure`` is one log-sum-exp over a (G, levels) exponent table,
and a stacked ``pressure_limit`` reads each size's family once and fits all
rows of the (G, sizes) table of phi_N with array operations; only the
least-squares solve stays per row (one solve with G right-hand sides
changes bits).
Families come from a small build-once memo (``lattice._locked_memo``), so
the chunks of a threaded sweep share one build per size;
``release_families`` empties the memo when a sweep ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import as_components, as_stack
from .errors import NumericRangeError, UsageError
from .lattice import (DIMENSION_CAP, ModelSpec, ObservableFamily, _locked_memo, build_model,
                      check_size)

# Eigenvalues below this contribute zero to x ln x sums (continuity at 0).
EIG_FLOOR = 1e-15
# Support threshold for relative entropy: sigma-eigenvalues at or below it
# count as null directions.
SUPPORT_EPS = 1e-12
# Families kept by pressure_limit's build-once memo (``_family``). A stacked
# call reads each size once; the memo lets the chunks of a threaded sweep, one
# call each, share one build per size. At the default DIMENSION_CAP a sweep
# has at most 14 sizes, so all of its families stay in it; with a larger cap,
# a sweep of over 16 sizes evicts them and every chunk rebuilds every size.
FAMILY_MEMO_SIZE = 16
_EPS = float(np.finfo(float).eps)  # read once, not per fitted row


class DensityState:
    """Positive unit-trace hermitian matrix in eigen-representation.

    ``probabilities`` are the eigenvalues; ``basis`` holds the orthonormal
    eigenvectors as columns, or None for states diagonal in the computational
    basis. Every state is checked: the weights must sum to 1 and none may be
    below 0, each within 1e-12 (``from_matrix`` adds the square and hermitian
    checks). The dense matrix is materialized only on demand.
    """

    def __init__(self, probabilities, basis: np.ndarray | None = None):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise UsageError("probabilities must be a non-empty vector")
        # written so that a NaN weight fails them
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
            raise UsageError(f"trace {p.sum()} is not 1 within 1e-12")
        if not float(p.min()) >= -1e-12:
            raise UsageError(f"negative weight {p.min()} below -1e-12")
        self.probabilities = np.clip(p, 0.0, None)
        self.basis = basis
        if basis is not None and basis.shape != (p.size, p.size):
            raise UsageError("basis shape must match the probability vector")

    @classmethod
    def from_matrix(cls, matrix) -> "DensityState":
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UsageError(f"density matrix must be square, got {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            raise UsageError("density matrix is not hermitian within 1e-12")
        evals, evecs = np.linalg.eigh(m)
        return cls(evals, evecs)

    @property
    def dim(self) -> int:
        return self.probabilities.size

    @property
    def matrix(self) -> np.ndarray:
        if self.basis is None:
            return np.diag(self.probabilities)
        return (self.basis * self.probabilities[None, :]) @ self.basis.conj().T

    def occupations(self, basis: np.ndarray | None = None) -> np.ndarray:
        """Diagonal of the state in an orthonormal basis (columns), the
        computational basis when None."""
        overlap = self.basis
        if basis is not None:
            overlap = basis.conj().T if overlap is None else basis.conj().T @ overlap
        if overlap is None:
            return self.probabilities
        return np.abs(overlap) ** 2 @ self.probabilities

    def expectation(self, op) -> float:
        """Tr(rho A) for A given as a diagonal vector or dense matrix; in the
        product basis only a matrix's diagonal is read."""
        op = np.asarray(op)
        if op.shape == (self.dim, self.dim):
            if self.basis is not None:
                rot = np.einsum("ia,ij,ja->a", self.basis.conj(), op, self.basis)
                return float(np.real(rot @ self.probabilities))
            op = np.diag(op)
        if op.shape != (self.dim,):
            raise UsageError("observable dimension mismatch")
        return float(np.real(self.occupations() @ op))

    def max_norm_distance(self, other: "DensityState") -> float:
        return float(np.max(np.abs(self.matrix - other.matrix)))


@dataclass(frozen=True)
class PressureEstimate:
    """Extrapolated per-site pressure with its finite-size trail."""

    value: float
    per_size: tuple
    extrapolation_error: float
    fit: str


def canonical_state(family: ObservableFamily, theta) -> DensityState:
    """Generalized canonical state exp(-theta.Q) / Tr exp(-theta.Q).

    A softmax of -(theta.Q) over the basis of the family's level view, in
    which the generator is diagonal; the exponent is shifted by its smallest
    value before exponentiation, so any finite theta is safe. The state
    commutes with every observable of the family.
    """
    lam = family.control_generator(theta)
    w = np.exp(-(lam - lam.min()))
    return DensityState(w / w.sum(), family.level_view().basis)


def von_neumann_entropy(rho: DensityState) -> float:
    """S = -Tr rho ln rho, in natural log units; lies in [0, ln dim]."""
    p = rho.probabilities[rho.probabilities > EIG_FLOOR]
    return max(0.0, float(-(p @ np.log(p))))


def relative_entropy(rho: DensityState, sigma: DensityState) -> float:
    """S(rho|sigma) = Tr(rho ln rho - rho ln sigma); >= 0, 0 only at rho = sigma.

    Tr(rho ln rho) is -S(rho), and the cross term weighs ln sigma's
    eigenvalues by rho's occupations of sigma's eigenbasis. Returns math.inf
    when rho puts more than 1e-12 of weight on the null space of sigma (the
    divergent case).
    """
    if rho.dim != sigma.dim:
        raise UsageError("states live on different dimensions")
    s = sigma.probabilities
    entropy_term = -von_neumann_entropy(rho)
    weights = rho.occupations(sigma.basis)
    null_mass = float(weights[s <= SUPPORT_EPS].sum())
    if null_mass > 1e-12:
        return math.inf
    ok = s > SUPPORT_EPS
    cross = float(weights[ok] @ np.log(s[ok]))
    return entropy_term - cross


def finite_pressure(family: ObservableFamily, theta) -> float | np.ndarray:
    """phi_N = N^-1 ln Tr exp(-theta.Q), summed over the family's joint levels.

    One log-sum-exp of ln(multiplicity) - theta.level, shifted by its largest
    term for overflow safety. A single control vector gives a float; a
    (G, k) stack of them gives the G pressures as an array, each with the
    bits of its own single-vector call: theta.Q is a stacked matrix-vector
    product (the bits of ``levels @ theta``, which a matrix-matrix product
    does not keep), and each row is reduced on its own. The call holds a
    (G, levels) table. Raises NumericRangeError, naming the theta, when a
    row's largest term is not finite (theta.Q left the floating-point range).
    """
    stack, single = as_stack(theta, family.n_observables)
    levels, log_mult = family.levels()
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = log_mult - np.matmul(levels[None], stack[:, :, None])[..., 0]
        top = exponent.max(axis=1)
    bad = ~np.isfinite(top)
    if bad.any():
        th = tuple(float(x) for x in stack[np.argmax(bad)])
        raise NumericRangeError(f"theta.Q overflows at theta = {th} on "
                                f"{family.region.size} sites: the pressure is out "
                                "of floating-point range")
    phis = (np.log(np.exp(exponent - top[:, None]).sum(axis=1)) + top) / family.region.size
    return float(phis[0]) if single else phis


def expectation_vector(rho: DensityState, family: ObservableFamily) -> np.ndarray:
    """Per-observable expectations <Q_k> in the given state.

    Every Q_k is diagonal in the basis of the family's level view, so <Q_k>
    is the state's occupations in that basis weighted by the level values.
    """
    if rho.dim != family.dim:
        raise UsageError("observable dimension mismatch")
    view = family.level_view()
    return rho.occupations(view.basis) @ view.rows[view.index]


def variational_gap(rho: DensityState, family: ObservableFamily, theta) -> float:
    """N phi_N(theta) - (S(rho) - theta.<Q>_rho), the maximum-entropy deficit.

    Nonnegative, coincides with relative_entropy(rho, canonical_state) and
    vanishes exactly at the canonical state.
    """
    th = as_components(theta, family.n_observables)
    n_phi = finite_pressure(family, th) * family.region.size
    return n_phi - von_neumann_entropy(rho) + float(th @ expectation_vector(rho, family))


def _two_mode_value(narr: np.ndarray, phis: np.ndarray, step: float):
    """Top log-eigenvalue of a two-mode power sum fitted to N*phi_N, and
    the fitted mode ratio l2/l1: ``(value, ratio)``, or None when the fitted
    recurrence has no positive finite dominant root. A (G, sizes) table of
    phi_N gives a list of G such entries, one ``lstsq`` solve per row.

    A periodic chain with a 2x2 transfer structure has
    Tr exp(-theta.Q) = l1^N + l2^N exactly, so the scaled sums satisfy a
    two-term linear recurrence whose dominant root recovers l1 even when
    l2/l1 is close to 1 (long correlation lengths); a pure power l1^N is
    the case l2 = 0. The ratio is the recurrence's root product over the
    squared dominant root, taken in Python floats (``np.log`` differs from
    ``math.log`` in the last bit on some rows).

    The one guard also covers a non-finite discriminant, whose NaN or inf
    dominant root fails it. Real inputs do not reach it: for the two
    accepted models the scaled sums w are positive and O(1), so the
    recurrence has a positive dominant root and finite coefficients, and a
    non-finite w makes ``lstsq`` raise before the guard.
    """
    table = np.asarray(phis, dtype=float)
    rows = table.reshape(-1, table.shape[-1])
    refs = rows[:, -1:]
    w = np.exp(narr * (rows - refs))  # scaled partition sums, O(1) entries
    design = np.stack([w[:, 1:-1], -w[:, :-2]], axis=2)
    target = w[:, 2:]
    fits = []
    for g, ref in enumerate(refs[:, 0].tolist()):
        s, p = np.linalg.lstsq(design[g], target[g], rcond=None)[0].tolist()
        dominant = (s + math.sqrt(max(s * s - 4.0 * p, 0.0))) / 2.0
        fits.append((ref + math.log(dominant) / step, p / (dominant * dominant))
                    if 0.0 < dominant < math.inf else None)
    return fits if table.ndim == 2 else fits[0]


def _roundoff_floor(narr: np.ndarray, value: float, ratio: float = 0.0) -> float:
    """The roundoff a fitted per-site value inherits: the geometric fit's
    least error, and the term the affine fit adds to its error.

    ln Z_N = N phi_N carries an absolute roundoff of about eps N |phi_N|,
    and the fitted per-site value inherits it from the largest size. The
    two-mode fit amplifies it by 1/(1 - r)^2, r = l2/l1 its mode ratio:
    modes of nearly equal size are hard to tell apart. A negative ratio
    counts as 0, and a ratio of 1 or more (modes the fit cannot separate)
    gives an infinite floor. The affine intercept (ratio 0) weighs each
    size's phi_N by a pseudo-inverse entry, and those weights sum in
    magnitude to less than the largest size for every set of three or more
    sizes up to 14.
    """
    r = max(ratio, 0.0)
    if r >= 1.0:
        return math.inf
    return _EPS * float(narr[-1]) * (1.0 + abs(value)) / (1.0 - r) ** 2


@_locked_memo(FAMILY_MEMO_SIZE)
def _family(spec: ModelSpec, n: int, cap: int) -> ObservableFamily:
    """The memoized family of ``spec`` on n sites, built on first request."""
    # build_model is looked up at call time, so a rebinding of this module's
    # name (instrumentation, tests) sees every build
    return build_model(spec, spec.region(n), cap=cap)


def release_families() -> None:
    """Drop the families pressure_limit has kept; later calls build afresh."""
    _family.cache_clear()


def pressure_limit(spec: ModelSpec, theta, sizes, fit: str = "affine",
                   cap: int = DIMENSION_CAP) -> PressureEstimate | list[PressureEstimate]:
    """Extrapolate phi_N to the infinite-volume pressure.

    fit="affine": least-squares affine fit in 1/N (surface-over-volume
    corrections); value is the intercept, error the larger of the worst fit
    residual and the last-size deviation, plus the roundoff the intercept
    inherits (``_roundoff_floor`` at ratio 0), so that on the closed-form
    periodic chain it covers the actual error.

    fit="geometric": fits the scaled partition sums to a two-mode linear
    recurrence and takes its dominant root. It is accepted only where that
    model is exact, Z_N = l1^N + l2^N: the periodic ising_chain (a 2x2
    transfer matrix) and free_spins (a pure power); any other model raises
    UsageError. Needs uniformly spaced sizes, and raises NumericRangeError
    when the fitted recurrence has no positive dominant root. Its error is
    the smaller of the distances from the value to the same fit on the last
    four sizes (six sizes or more) and to the last increment of N*phi_N per
    unit size, and never less than the roundoff of N*phi_N at the largest
    size, amplified by the two-mode fit's conditioning 1/(1 - l2/l1)^2.

    Sizes must be strictly increasing with at least 3 entries. A single
    control vector gives one PressureEstimate; a (G, k) stack gives a list
    of G, each equal to its own single-vector call. Inputs are checked once
    per call, and each size's family is read once, by one stacked
    ``finite_pressure``, into a (G, sizes) table that both fits read with
    array operations; per row remain one ``np.linalg.lstsq`` call per fit
    (a multi-right-hand-side solve changes bits) and the root and floor
    arithmetic in Python floats. Families are built once and kept for later
    calls (see ``FAMILY_MEMO_SIZE`` and ``release_families``).
    """
    sizes = [int(n) for n in sizes]
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError("sizes must be strictly increasing with at least 3 entries")
    check_size(sizes[-1], cap)  # before any size is built
    if fit not in ("affine", "geometric"):
        raise UsageError(f"unknown fit mode {fit!r}")
    narr = np.array(sizes, dtype=float)
    steps = np.diff(narr)
    if fit == "geometric":
        if not (spec.kind == "free_spins"
                or (spec.kind, spec.boundary) == ("ising_chain", "periodic")):
            chain = f" with {spec.boundary} boundary" if spec.kind.endswith("chain") else ""
            raise UsageError("the geometric fit is exact only for the periodic ising_chain "
                             f"and free_spins, not {spec.kind}{chain}")
        if not np.allclose(steps, steps[0]):
            raise UsageError("geometric fit needs uniformly spaced sizes")
    stack, single = as_stack(theta, spec.n_observables)
    # (G, sizes): row g holds phi_N of every size at theta g
    table = np.stack([finite_pressure(_family(spec, n, cap), stack) for n in sizes], axis=1)
    if fit == "affine":
        design = np.stack([np.ones_like(narr), 1.0 / narr], axis=1)
        coefs = np.array([np.linalg.lstsq(design, row, rcond=None)[0] for row in table])
        # a stacked mat-vec keeps each row's design @ coef bits; design @ coefs.T does not
        fitted = np.matmul(design[None], coefs[:, :, None])[..., 0]
        errs = np.maximum(np.abs(fitted - table).max(axis=1), np.abs(table[:, -1] - coefs[:, 0]))
        values = coefs[:, 0].tolist()
        errs = [err + _roundoff_floor(narr, value) for value, err in zip(values, errs.tolist())]
    else:
        step = float(steps[0])
        fits = _two_mode_value(narr, table, step)
        if fits is None or None in fits:
            raise NumericRangeError("the two-mode fit found no positive dominant root")
        tails = (_two_mode_value(narr[-4:], table[:, -4:], step) if len(sizes) >= 6
                 else [None] * len(fits))
        increments = ((narr[-1] * table[:, -1] - narr[-2] * table[:, -2]) / step).tolist()
        values, errs = [], []
        for (value, ratio), tail, increment in zip(fits, tails, increments):
            err = abs(value - increment)
            if tail is not None:
                err = min(err, abs(value - tail[0]))
            values.append(value)
            errs.append(max(err, _roundoff_floor(narr, value, ratio)))
    estimates = [PressureEstimate(value, tuple(zip(sizes, trail)), err, fit)
                 for trail, value, err in zip(table.tolist(), values, errs)]
    return estimates[0] if single else estimates


def random_density_state(dim: int, rng: np.random.Generator) -> DensityState:
    """Full-rank random state from a complex Ginibre square (G G^dagger / Tr)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    return DensityState.from_matrix(m)


def maximally_mixed(dim: int) -> DensityState:
    return DensityState(np.full(dim, 1.0 / dim), None)
