"""Generalized canonical states, entropies and the finite-volume pressure.

States and pressures are read off a family's cached spectral form and
never off its storage: canonical states come from the level view (the
product basis for the diagonal built-in families, which keeps sizes up to
the dimension cap (2^14) cheap, or the dense family's eigenbasis, computed
once per family), and expectations are read in that basis too.

Pressures are sums over levels, not states: ``finite_pressure`` reads the
family's joint level table (distinct eigenvalue rows with multiplicities,
see ``ObservableFamily.levels``), which the built-in Ising and Curie-Weiss
families shrink from 2^N states to O(N^2) rows. A family does not depend on
theta, so a theta grid is one unit of work: ``finite_pressure`` and
``pressure_limit`` take a (G, k) stack of control vectors as well as a
single one (the one-row case), a stacked ``finite_pressure`` is one
log-sum-exp over a (G, levels) exponent table, and a stacked
``pressure_limit`` reads each size's family once. Families come from a
small memo, so the chunks of a threaded sweep share one build per size;
``release_families`` empties the memo when a sweep ends.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .convex import ControlVector, as_components
from .errors import DataError, NumericRangeError, UsageError
from .lattice import DIMENSION_CAP, ModelSpec, ObservableFamily, build_model

# Eigenvalues below this contribute zero to x ln x sums (continuity at 0).
EIG_FLOOR = 1e-15
# Support threshold for relative entropy: sigma-eigenvalues at or below it
# count as null directions.
SUPPORT_EPS = 1e-12
# Families kept by pressure_limit's memo. A stacked call reads each size once;
# the memo lets the chunks of a threaded sweep, one call each, share one build
# per size. At the default DIMENSION_CAP a sweep has at most 14 sizes, so all
# of its families stay in it; with a larger cap, a sweep of over 16 sizes
# evicts them and every chunk rebuilds every size.
FAMILY_MEMO_SIZE = 16


class DensityState:
    """Positive unit-trace hermitian matrix in eigen-representation.

    ``probabilities`` are the eigenvalues; ``basis`` holds the orthonormal
    eigenvectors as columns, or None for states diagonal in the computational
    basis. The dense matrix is materialized only on demand.
    """

    def __init__(self, probabilities, basis: np.ndarray | None = None, validate: bool = True):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise UsageError("probabilities must be a non-empty vector")
        if validate:
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise UsageError(f"trace {p.sum()} is not 1 within 1e-12")
            if float(p.min()) < -1e-12:
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
        if abs(float(np.real(np.trace(m))) - 1.0) > 1e-12:
            raise UsageError("density matrix trace is not 1 within 1e-12")
        evals, evecs = np.linalg.eigh(m)
        if float(evals.min()) < -1e-12:
            raise UsageError(f"density matrix has eigenvalue {evals.min()} below -1e-12")
        return cls(evals, evecs, validate=False)

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
        """Tr(rho A) for A given as a diagonal vector or dense matrix."""
        op = np.asarray(op)
        if op.ndim == 1:
            if op.shape != (self.dim,):
                raise UsageError("observable dimension mismatch")
            return float(np.real(self.occupations() @ op))
        if op.shape != (self.dim, self.dim):
            raise UsageError("observable dimension mismatch")
        if self.basis is None:
            return float(np.real(np.diag(op) @ self.probabilities))
        rot = np.einsum("ia,ij,ja->a", self.basis.conj(), op, self.basis)
        return float(np.real(rot @ self.probabilities))

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
    return DensityState(w / w.sum(), family.level_view().basis, validate=False)


def von_neumann_entropy(rho: DensityState) -> float:
    """S = -Tr rho ln rho, in natural log units; lies in [0, ln dim]."""
    p = rho.probabilities[rho.probabilities > EIG_FLOOR]
    return max(0.0, float(-(p @ np.log(p))))


def relative_entropy(rho: DensityState, sigma: DensityState) -> float:
    """S(rho|sigma) = Tr(rho ln rho - rho ln sigma); >= 0, 0 only at rho = sigma.

    Returns math.inf when rho puts more than 1e-12 of weight on the null
    space of sigma (the divergent case).
    """
    if rho.dim != sigma.dim:
        raise UsageError("states live on different dimensions")
    p = rho.probabilities
    s = sigma.probabilities
    live = p > EIG_FLOOR
    plive = p[live]
    entropy_term = float(plive @ np.log(plive))

    if rho.basis is None and sigma.basis is None:
        null_mass = float(p[s <= SUPPORT_EPS].sum())
        if null_mass > 1e-12:
            return math.inf
        ok = s > SUPPORT_EPS
        cross = float(p[ok] @ np.log(s[ok]))
        return entropy_term - cross

    left = rho.basis if rho.basis is not None else np.eye(rho.dim)
    right = sigma.basis if sigma.basis is not None else np.eye(sigma.dim)
    overlap = np.abs(left.conj().T @ right) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    weights = p @ overlap
    null_mass = float(weights[s <= SUPPORT_EPS].sum())
    if null_mass > 1e-12:
        return math.inf
    ok = s > SUPPORT_EPS
    cross = float(weights[ok] @ np.log(s[ok]))
    return entropy_term - cross


def _theta_stack(theta, n: int) -> tuple[np.ndarray, bool]:
    """Control vectors as a (G, n) stack, and whether theta was a single one.

    A two-dimensional theta is a stack of G >= 1 rows of n finite entries;
    anything else is one control vector (see ``as_components``), returned
    as a one-row stack.
    """
    stack = None if isinstance(theta, ControlVector) else np.asarray(theta, dtype=float)
    if stack is None or stack.ndim < 2:
        return as_components(theta, n)[None, :], True
    if stack.ndim != 2 or stack.shape[0] == 0 or stack.shape[1] != n:
        raise UsageError(f"expected a (G, {n}) stack of control vectors with G >= 1, "
                         f"got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise DataError("non-finite control vector")
    return stack, False


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
    stack, single = _theta_stack(theta, family.n_observables)
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
    if rho.dim != family.dim:
        raise UsageError("state dimension does not match the family")
    n_phi = finite_pressure(family, th) * family.region.size
    return n_phi - von_neumann_entropy(rho) + float(th @ expectation_vector(rho, family))


def _two_mode_value(narr: np.ndarray, phis: np.ndarray,
                    step: float) -> tuple[float, float] | None:
    """Top log-eigenvalue of a two-mode power sum fitted to N*phi_N, and
    the fitted mode ratio l2/l1.

    A periodic chain with a 2x2 transfer structure has
    Tr exp(-theta.Q) = l1^N + l2^N exactly, so the scaled sums satisfy a
    two-term linear recurrence whose dominant root recovers l1 even when
    l2/l1 is close to 1 (long correlation lengths); a pure power l1^N is
    the case l2 = 0. The ratio is the recurrence's root product over the
    squared dominant root. Returns None when the fitted recurrence has no
    positive dominant root.
    """
    ref = float(phis[-1])
    w = np.exp(narr * (phis - ref))  # scaled partition sums, O(1) entries
    design = np.stack([w[1:-1], -w[:-2]], axis=1)
    target = w[2:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    s, p = float(coef[0]), float(coef[1])
    disc = s * s - 4.0 * p
    if not math.isfinite(disc):
        return None
    dominant = (s + math.sqrt(max(disc, 0.0))) / 2.0
    if dominant <= 0.0 or not math.isfinite(dominant):
        return None
    return ref + math.log(dominant) / step, p / (dominant * dominant)


def _roundoff_floor(narr: np.ndarray, value: float, ratio: float = 0.0) -> float:
    """Least error a geometric fit may report: the roundoff it inherits.

    ln Z_N = N phi_N carries an absolute roundoff of about eps N |phi_N|,
    and the fitted per-site value inherits it from the largest size. The
    two-mode fit amplifies it by 1/(1 - r)^2, r = l2/l1 its mode ratio:
    modes of nearly equal size are hard to tell apart. A negative ratio
    counts as 0, and a ratio of 1 or more (modes the fit cannot separate)
    gives an infinite floor.
    """
    r = max(ratio, 0.0)
    if r >= 1.0:
        return math.inf
    return float(np.finfo(float).eps * narr[-1] * (1.0 + abs(value)) / (1.0 - r) ** 2)


@functools.lru_cache(maxsize=FAMILY_MEMO_SIZE)
def _memo_family(spec: ModelSpec, n: int, cap: int) -> ObservableFamily:
    # build_model is looked up at call time, so a rebinding of this module's
    # name (instrumentation, tests) sees every build
    return build_model(spec, spec.region(n), cap=cap)


_memo_lock = threading.Lock()


def _family(spec: ModelSpec, n: int, cap: int) -> ObservableFamily:
    """The memoized family of ``spec`` on n sites, built on first request.

    The lock makes threads of one sweep wait for a family another thread is
    building instead of building it again.
    """
    with _memo_lock:
        return _memo_family(spec, n, cap)


def release_families() -> None:
    """Drop the families pressure_limit has kept; later calls build afresh."""
    _memo_family.cache_clear()


def pressure_limit(spec: ModelSpec, theta, sizes, fit: str = "affine",
                   cap: int = DIMENSION_CAP) -> PressureEstimate | list[PressureEstimate]:
    """Extrapolate phi_N to the infinite-volume pressure.

    fit="affine": least-squares affine fit in 1/N (surface-over-volume
    corrections); value is the intercept, error the larger of the worst fit
    residual and the last-size deviation.

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
    ``finite_pressure``; the fit then runs row by row. Families are built
    once and kept for later calls (see ``FAMILY_MEMO_SIZE`` and
    ``release_families``).
    """
    sizes = [int(n) for n in sizes]
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError("sizes must be strictly increasing with at least 3 entries")
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
    stack, single = _theta_stack(theta, spec.n_observables)
    # (G, sizes): row g holds phi_N of every size at theta g
    table = np.stack([finite_pressure(_family(spec, n, cap), stack) for n in sizes], axis=1)
    if fit == "affine":
        design = np.stack([np.ones_like(narr), 1.0 / narr], axis=1)
        estimates = [_affine_estimate(sizes, design, phis) for phis in table]
    else:
        estimates = [_geometric_estimate(sizes, narr, float(steps[0]), phis)
                     for phis in table]
    return estimates[0] if single else estimates


def _affine_estimate(sizes: list, design: np.ndarray, phis: np.ndarray) -> PressureEstimate:
    per_size = tuple((n, float(p)) for n, p in zip(sizes, phis))
    coef, *_ = np.linalg.lstsq(design, phis, rcond=None)
    value = float(coef[0])
    resid = float(np.max(np.abs(design @ coef - phis)))
    err = max(resid, abs(float(phis[-1]) - value))
    return PressureEstimate(value, per_size, err, "affine")


def _geometric_estimate(sizes: list, narr: np.ndarray, step: float,
                        phis: np.ndarray) -> PressureEstimate:
    per_size = tuple((n, float(p)) for n, p in zip(sizes, phis))
    fitted = _two_mode_value(narr, phis, step)
    if fitted is None:
        raise NumericRangeError("the two-mode fit found no positive dominant root")
    value, ratio = fitted
    increment = (narr[-1] * phis[-1] - narr[-2] * phis[-2]) / step
    err = abs(value - float(increment))
    tail = _two_mode_value(narr[-4:], phis[-4:], step) if len(narr) >= 6 else None
    if tail is not None:
        err = min(err, abs(value - tail[0]))
    floor = _roundoff_floor(narr, value, ratio)
    return PressureEstimate(value, per_size, max(err, floor), "geometric")


def random_density_state(dim: int, rng: np.random.Generator) -> DensityState:
    """Full-rank random state from a complex Ginibre square (G G^dagger / Tr)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    return DensityState.from_matrix(m)


def maximally_mixed(dim: int) -> DensityState:
    return DensityState(np.full(dim, 1.0 / dim), None, validate=False)
