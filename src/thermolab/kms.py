"""Finite-volume Heisenberg dynamics and KMS-identity residuals.

The dynamics generated by theta.Q is alpha_t(A) = e^{i theta.Q t} A
e^{-i theta.Q t}; the canonical state psi_theta is a thermal equilibrium
state for it, which shows up numerically as the vanishing of

    pointwise:  | omega(alpha_t(A) B) - omega(B alpha_{t+i}(A)) |
    smeared:    | int f(t) omega(alpha_t(A) B) dt
                  - int f(t-i) omega(B alpha_t(A)) dt |

with omega the psi_theta expectation. Both sides of each identity are
evaluated through their own exponent assembly, but from the same levels, the
same fold and the same theta, so both residuals are the roundoff of an
identity that holds by construction, for a wrong state as for a right one.
Pointwise, on the built-in diagonal families that roundoff is nil:
-lam_m - (lam_l - lam_m) rounds back to -lam_l, so the residual reads
exactly 0 for every probe pair; on the dense transverse chain most rows read
0.0 as well, the rest about 1e-17. Smeared, the Gaussian's transform
fhat(delta) = sigma_w sqrt(2 pi) exp(-sigma_w^2 delta^2 / 2) makes the sides
sum cross e^{-lam_l} fhat(delta) and cross e^{-lam_m - delta} fhat(delta),
equal term by term, so a row is trapezoid roundoff, 1e-17 to 1e-14. The
residuals detect a broken evaluation, not a wrong state: an exponent out of
the float range (NumericRangeError) and, smeared, a time grid too coarse for
the Bohr frequencies (the step-halving QuadratureError).

Spectrally, each two-point function only needs the weight that A and B
carry between each pair of joint levels (l, m), at the Bohr frequency
E_l - E_m. The residuals therefore fold the dim x dim cross weights
A~[j,k] B~[k,j] into an L x L level-pair table, from the family's cached
level view (:meth:`ObservableFamily.level_view`), and do all phases,
Boltzmann weights and quadrature over the L^2 level pairs. The table
depends on neither theta nor t, so it is folded once per (family, A, B)
and kept in a small build-once memo (``lattice._locked_memo``) that
pointwise and smeared residuals share (see ``FOLD_MEMO_SIZE`` and
``release_folds``).

Site Paulis are monomial probes, a permutation times one phase per row,
and their dense matrices are built only when read. On a diagonal family
(product basis) a fold with a monomial operand has one possibly nonzero
product per row, so it costs O(dim) instead of O(dim^2), with the dense
fold's bits; a dense family rotates both probes' matrices into its
eigenbasis first. Bohr frequencies come in exact pairs, delta_ml =
-delta_lm, so the smeared sides take one complex exp per distinct |omega|
and time, not per level pair, and conjugate it for the negative ones. A
pointwise call takes a stack of times and builds its level and weight
tables once for all of them.

Test functions are Gaussians: entire, rapidly decaying, and with f(t-i)
available in closed form along the shifted line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_RANGE_POINTS
from .convex import as_components
from .errors import NumericRangeError, QuadratureError, ResourceError, UsageError
from .lattice import ObservableFamily, _frozen, _locked_memo, lift_site_operator

# Residual checks form the dim x dim cross table A~[j,k] B~[k,j] (and, for a
# dense family, rotate both probes into its eigenbasis) before folding it over
# level pairs, once per distinct (family, A, B); a monomial operand on a
# diagonal family needs only dim of its entries, but the cap holds for every
# operand.
_RESIDUAL_DIM_CAP = 2**10
# Folds kept by the residuals' memo. default_probes makes 3 distinct pairs,
# so one kms-verify run's folds all stay in it.
FOLD_MEMO_SIZE = 8
# Rows of A~ per strip when the cross table is folded over level pairs.
_FOLD_ROWS = 64
# A Gaussian test function is cut off where |f(t)| and |f(t - i)| fall below this.
_SUPPORT_EPS = 1e-14
# The default trapezoid step never exceeds this.
MAX_QUADRATURE_STEP = 0.1
# The smeared sides take their (times, level pairs) phase table in blocks of
# at most 128 times and this many entries, a power of two of times (at least 2).
_PHASE_ENTRIES = 2**22

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
# Each Pauli's entries as every lift of it rounds them: kron multiplies them by
# the identities' 1.0 as complex numbers, which turns -1j's real -0.0 into +0.0.
_PAULI_ENTRIES = {w: lift_site_operator(p, 0, 1) for w, p in _PAULI.items()}


class TestOperator:
    """A labeled square probe used in residual checks.

    A probe is either dense, ``TestOperator(matrix, label)``, or monomial,
    with one nonzero per row, as every Pauli string is: ``cols[j]`` is the
    column of row j's nonzero and ``phase[j]`` its value (see
    :func:`site_pauli`). A monomial probe's ``matrix`` is built on first
    read; a dense probe's ``cols`` and ``phase`` are None. Every array is a
    read-only view, and operators compare and hash by identity, so the
    residuals' fold memo can key on the operator itself.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, matrix: np.ndarray, label: str):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UsageError(f"test operator must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise UsageError("test operator has non-finite entries")
        vars(self).update(_matrix=_frozen([m])[0], _build=None, label=label,
                          cols=None, phase=None)

    @classmethod
    def _monomial(cls, cols: np.ndarray, phase: np.ndarray, label: str, build):
        """A monomial probe whose dense matrix ``build()`` makes on first read."""
        op = cls.__new__(cls)
        cols, phase = _frozen([cols, phase])
        vars(op).update(_matrix=None, _build=build, label=label, cols=cols, phase=phase)
        return op

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    @property
    def matrix(self) -> np.ndarray:
        # two threads reading an unbuilt matrix at once at worst both build it
        if self._matrix is None:
            vars(self)["_matrix"] = _frozen([np.asarray(self._build(), dtype=complex)])[0]
        return self._matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] if self.cols is None else len(self.cols)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.matrix if self.cols is None else self.phase)))


def site_pauli(which: str, site: int, n_sites: int) -> TestOperator:
    """sigma_{x|y|z} embedded at a site of the n-site spin space, as a
    monomial probe: a bit flip (x, y) or none (z) times one phase per row,
    built in O(2^n). Its ``matrix``, read on demand, is
    ``lift_site_operator``'s; each phase has the bits of that matrix's entry
    (signed zeros included), as both come from the same products."""
    if which not in _PAULI:
        raise UsageError(f"which must be one of x, y, z, got {which!r}")
    if not 0 <= site < n_sites:
        raise UsageError(f"site {site} out of range for {n_sites} sites")
    shift = n_sites - site - 1  # site 0 is the most significant bit
    rows = np.arange(2**n_sites)
    bit = (rows >> shift) & 1
    flip = 0 if which == "z" else 1
    phase = _PAULI_ENTRIES[which][bit, bit ^ flip]
    return TestOperator._monomial(rows ^ (flip << shift), phase, f"s{which}@{site}",
                                  lambda: lift_site_operator(_PAULI[which], site, n_sites))


def random_hermitian(dim: int, rng: np.random.Generator, label: str = "random") -> TestOperator:
    """Random hermitian probe scaled to spectral norm 1: (g + g^H) / 2 for
    g = a + ib (a drawn first), built in place, as a + a^T and b - b^T."""
    h = np.empty((dim, dim), dtype=complex)
    a = rng.standard_normal((dim, dim))
    np.add(a, a.T, out=h.real)
    del a
    b = rng.standard_normal((dim, dim))
    np.subtract(b, b.T, out=h.imag)
    del b
    h /= 2.0
    h *= 1.0 / max(np.max(np.abs(np.linalg.eigvalsh(h))), 1e-30)
    return TestOperator(h, label)


@dataclass(frozen=True)
class GaussianTestFunction:
    """f(z) = exp(-z^2 / (2 sigma_w^2)): entire, bounded on the unit strip."""

    sigma_w: float

    def __post_init__(self):
        if not (self.sigma_w > 0 and math.isfinite(self.sigma_w)):
            raise UsageError(f"sigma_w must be positive and finite, got {self.sigma_w}")

    def values(self, ts: np.ndarray, imag_shift: float = 0.0) -> np.ndarray:
        """f(t + i*imag_shift) on an array of real times."""
        z = np.asarray(ts, dtype=float) + 1j * imag_shift
        return np.exp(-(z * z) / (2.0 * self._variance()))

    def support_radius(self) -> float:
        """|f(t)| and |f(t - i)| both fall below _SUPPORT_EPS outside [-r, r]."""
        return math.sqrt(1.0 + 2.0 * self._variance() * math.log(1.0 / _SUPPORT_EPS))

    def _variance(self) -> float:
        """sigma_w**2 by libm's pow, whose bits set the quadrature grid (it is
        not always sigma_w * sigma_w), or inf where the power would overflow."""
        return self.sigma_w**2 if self.sigma_w < 1e154 else math.inf


def _rotate(op: np.ndarray, vec: np.ndarray | None) -> np.ndarray:
    return op if vec is None else vec.conj().T @ op @ vec


def _check_dims(family: ObservableFamily, *ops: TestOperator):
    for op in ops:
        if op.dim != family.dim:
            raise UsageError(f"operator {op.label} has dimension {op.dim}, family {family.dim}")
    if family.dim > _RESIDUAL_DIM_CAP:
        raise ResourceError(f"residual checks are capped at dimension {_RESIDUAL_DIM_CAP}")


def evolve(a: TestOperator, family: ObservableFamily, theta, t: float) -> TestOperator:
    """Heisenberg evolution e^{i theta.Q t} A e^{-i theta.Q t}, spectrally.

    Unitary conjugation: the spectrum of the result equals the spectrum of A.
    """
    if not math.isfinite(t):
        raise UsageError(f"time {t} is not finite")
    _check_dims(family, a)
    view = family.level_view()
    tilde = _rotate(a.matrix, view.basis)
    phases = np.exp(1j * family.control_generator(theta) * t)
    moved = (phases[:, None] * tilde) * phases.conj()[None, :]
    if view.basis is not None:
        moved = view.basis @ moved @ view.basis.conj().T
    return TestOperator(moved, f"alpha[{t}]({a.label})")


def _monomial_products(atil, btil, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, p) with k[j] the one column at which row j of A~ can meet column j
    of B~ and p[j] = A~[j, k[j]] * B~[k[j], j], when A~ or B~ is a monomial
    probe; every other product A~[j,k] B~[k,j] is a zero."""
    rows = np.arange(dim)
    if isinstance(atil, TestOperator):
        k, a_vals = atil.cols, atil.phase
    else:  # B~[k, j] is nonzero only where B's column map sends k to j
        k = np.empty_like(rows)
        k[btil.cols] = rows
        a_vals = atil[rows, k]
    if isinstance(btil, TestOperator):
        b_vals = np.where(btil.cols[k] == rows, btil.phase[k], 0.0)
    else:
        b_vals = btil[k, rows]
    return k, a_vals * b_vals


def _folded_cross(atil, btil, index: np.ndarray, n_levels: int) -> np.ndarray:
    """cross[l, m]: the sum of A~[j,k] B~[k,j] over j in level l and k in level m.

    A~ and B~ are dense matrices, or monomial probes (a TestOperator with
    ``cols``) in the product basis. Each strip of _FOLD_ROWS rows of A~ is
    summed into the table by its own ``bincount``, and the strips' partial
    sums are added in order. With two dense operands a strip is the
    _FOLD_ROWS x dim block of products, so it and its level-pair indices
    stay in cache and B~ is read by column strips rather than transposed
    whole. With a monomial operand a strip is its rows' one possibly nonzero
    product each, the same complex multiply in the same operand order: an
    O(dim) fold with the dense fold's bits, as the zero products it skips
    leave every partial sum's bits alone.
    """
    size = n_levels * n_levels
    rows = [slice(start, start + _FOLD_ROWS) for start in range(0, len(index), _FOLD_ROWS)]
    if isinstance(atil, TestOperator) or isinstance(btil, TestOperator):
        k, products = _monomial_products(atil, btil, len(index))
        pairs = index * n_levels + index[k]
        strips = ((pairs[r], products[r]) for r in rows)
    else:
        strips = ((np.add.outer(index[r] * n_levels, index).ravel(),
                   (atil[r] * btil[:, r].T).ravel()) for r in rows)
    real = np.zeros(size)
    imag = np.zeros(size)
    for pair, strip in strips:
        real += np.bincount(pair, weights=strip.real, minlength=size)
        imag += np.bincount(pair, weights=strip.imag, minlength=size)
    return (real + 1j * imag).reshape(n_levels, n_levels)


def _fold_operand(op: TestOperator, basis: np.ndarray | None):
    """A probe as the fold reads it: a monomial probe as itself in the product
    basis, anything else as its matrix rotated into the basis."""
    return op if basis is None and op.cols is not None else _rotate(op.matrix, basis)


@_locked_memo(FOLD_MEMO_SIZE)
def _memo_cross(family: ObservableFamily, a: TestOperator, b: TestOperator) -> np.ndarray:
    """The folded cross table of (family, A, B), folded on first request."""
    # keyed by the identity of all three (neither class defines equality);
    # the memo holds them, so their ids are not reused while an entry lives.
    # _folded_cross is looked up at call time, so a rebinding (tests) sees
    # every fold
    view = family.level_view()
    cross = _folded_cross(_fold_operand(a, view.basis), _fold_operand(b, view.basis),
                          view.index, len(view.rows))
    return _frozen([cross])[0]


def release_folds() -> None:
    """Drop the folds the residuals have kept; later calls fold afresh."""
    _memo_cross.cache_clear()


def _residual_tables(family: ObservableFamily, theta, a: TestOperator, b: TestOperator):
    """Shared level-pair tables: shifted levels, log partition, folded cross weights.

    cross[l, m] sums A~[j,k] B~[k,j] over the basis vectors j of level l and
    k of level m; delta[l, m] = lam_l - lam_m are the Bohr frequencies. A
    dense family's index is the identity (one level per eigenvector), so its
    fold is the plain table A~[j,k] B~[k,j]. The fold does not depend on
    theta; it is taken from the memo (read-only), the rest is built per call.
    """
    view = family.level_view()
    lam = family.level_energies(theta)
    lam = lam - lam.min()  # spectral shift; cancels in conjugations and in omega
    log_z = math.log(float(np.exp(view.log_mult - lam).sum()))
    if not math.isfinite(log_z):
        raise NumericRangeError("partition sum left the representable range")
    cross = _memo_cross(family, a, b)
    delta = lam[:, None] - lam[None, :]
    return lam, log_z, cross, delta


def kms_residual(family: ObservableFamily, theta, a: TestOperator, b: TestOperator,
                 t) -> float | np.ndarray:
    """Pointwise residual |omega(alpha_t(A) B) - omega(B alpha_{t+i}(A))|.

    The complex-time side is evaluated as exp((it-1) theta.Q) A
    exp(-(it-1) theta.Q) with all real exponents combined before
    exponentiation, so control norms up to ~700 stay in range. Exact
    arithmetic gives zero by trace cyclicity; the float result is pure
    roundoff.

    A time gives a float; a 1-D sequence of times gives an array, each entry
    with the bits of its single-time call. The level and weight tables are
    built once per call, and one L x L phase table serves every time.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise UsageError(f"times must be a number or a 1-D sequence, not {times.shape}")
    bad = ~np.isfinite(times)
    if bad.any():
        raise UsageError(f"time {times.ravel()[np.argmax(bad)]} is not finite")
    _check_dims(family, a, b)
    lam, log_z, cross, delta = _residual_tables(family, theta, a, b)
    # omega(alpha_t(A) B): weight e^{-lam_l} / Z on the l index
    w_lhs = np.exp(-lam[:, None] - log_z)
    # omega(B alpha_{t+i}(A)): weight e^{-lam_m} / Z and the analytic
    # continuation factor e^{-(lam_l - lam_m)} from the complex time
    w_rhs = np.exp(-lam[None, :] - delta - log_z)
    phase = np.empty(delta.shape, dtype=complex)
    out = np.empty(times.size)
    for k, tk in enumerate(times.ravel().tolist()):
        # the bits of np.exp(1j * delta * t), with no new table per time
        np.multiply(1j, delta, out=phase)
        phase *= tk
        np.exp(phase, out=phase)
        lhs = np.sum(w_lhs * phase * cross)
        rhs = np.sum(w_rhs * phase * cross)
        if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
            raise NumericRangeError("guarded exponential overflowed in kms_residual")
        out[k] = abs(lhs - rhs)
    return out if times.ndim else out[0]


def default_quadrature_step(family: ObservableFamily, theta,
                            f: GaussianTestFunction) -> float:
    """Trapezoid step resolving the fastest Bohr frequency of theta.Q."""
    lam = family.level_energies(theta)
    spread = float(lam.max() - lam.min())
    return min(MAX_QUADRATURE_STEP, math.pi / (2.0 * spread + 12.0 / f.sigma_w + 2.0))


def check_quadrature_length(t_range: float, step: float) -> None:
    """UsageError if the half-step grid over [-t_range, t_range] has over
    MAX_RANGE_POINTS points (4 t_range / step)."""
    points = 4.0 * t_range / step
    if not points <= MAX_RANGE_POINTS:
        raise UsageError(f"the smeared quadrature over [-{t_range!r}, {t_range!r}] at half "
                         f"step {step / 2.0!r} needs {points:.3g} points, over {MAX_RANGE_POINTS}")


def _smeared_sides(f: GaussianTestFunction, w_lhs: np.ndarray, w_rhs: np.ndarray,
                   freqs: np.ndarray, t_range: float, h: float) -> tuple[complex, complex]:
    """(int f(t) LHS(t) dt, int f(t-i) RHS(t) dt) by the trapezoid rule at step h
    over [-t_range, t_range], with LHS(t) = sum w_lhs e^{i freqs t} and
    RHS(t) = sum w_rhs e^{i freqs t} over the level pairs.

    Level pairs share Bohr frequencies, and a pair's reverse has the
    negated one (39 distinct |omega| of 121 pairs on the 6-site Ising ring
    at h = 0, theta = (1, 0.2)), so each block of times takes one complex exp per
    distinct |omega|, gathers the (times, pairs) phase table from them and
    conjugates the negative frequencies' columns in place: t (-omega) is
    -(t omega) exactly and libm's complex exp is conjugate-symmetric, so
    these are the full table's values (bar the sign of a zero imaginary part
    at t = 0), gathered C-ordered so that its products with the weights sum
    in the full table's order. One block is held at a time."""
    ts = np.arange(-t_range, t_range + h / 2.0, h)
    mags, inverse = np.unique(np.abs(freqs), return_inverse=True)
    sign = np.where(freqs < 0, -1.0, 1.0)
    lhs_t = np.empty(len(ts), dtype=complex)
    rhs_t = np.empty(len(ts), dtype=complex)
    rows = max([2] + [r for r in (128, 64, 32, 16, 8, 4) if r * len(freqs) <= _PHASE_ENTRIES])
    # numpy's (1, n) @ (n,) does not round as a taller block's mat-vec does, so
    # a lone last time joins the block before it unless 128-time blocks leave
    # it alone too (rows divides 128, so then it is alone here as well)
    starts = list(range(0, len(ts) - (len(ts) % 128 != 1), rows)) + [len(ts)]
    for start, stop in zip(starts, starts[1:]):
        phases = np.exp(1j * np.outer(ts[start:stop], mags)).take(inverse, axis=1)
        phases.imag *= sign
        lhs_t[start:stop] = phases @ w_lhs
        rhs_t[start:stop] = phases @ w_rhs
        del phases  # before the next block is gathered
    lhs_int = np.trapezoid(f.values(ts) * lhs_t, dx=h)
    rhs_int = np.trapezoid(f.values(ts, imag_shift=-1.0) * rhs_t, dx=h)
    return lhs_int, rhs_int


def kms_smeared_residual(family: ObservableFamily, theta, a: TestOperator, b: TestOperator,
                         f: GaussianTestFunction, t_range: float | None = None,
                         step: float | None = None) -> float:
    """Smeared residual |int f(t) LHS(t) dt - int f(t-i) RHS(t) dt|.

    LHS(t) = omega(alpha_t(A) B), RHS(t) = omega(B alpha_t(A)); trapezoidal
    quadrature over [-t_range, t_range]. The range defaults to where
    |f| > 1e-14 on the strip and the step to resolving the fastest Bohr
    frequency of theta.Q. A step-halving disagreement above
    1e-6 * max|A| * max|B| (entrywise, see TestOperator.max_norm) raises
    QuadratureError; the half-step value is returned otherwise. A given
    t_range or step must be positive and finite (an empty time grid would
    read as a perfect pass), else UsageError; so is a half-step grid of over
    MAX_RANGE_POINTS points (:func:`check_quadrature_length`), before any
    table is built.
    """
    for name, value in (("t_range", t_range), ("step", step)):
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise UsageError(f"{name} must be positive and finite, got {value}")
    _check_dims(family, a, b)
    if t_range is None:
        t_range = f.support_radius()
    if step is None:
        step = default_quadrature_step(family, theta, f)
    check_quadrature_length(t_range, step)

    lam, log_z, cross, delta = _residual_tables(family, theta, a, b)
    w_lhs = (np.exp(-lam[:, None] - log_z) * cross).ravel()
    w_rhs = (np.exp(-lam[None, :] - log_z) * cross).ravel()
    freqs = delta.ravel()

    lhs, rhs = _smeared_sides(f, w_lhs, w_rhs, freqs, t_range, step)
    coarse = abs(lhs - rhs)
    lhs, rhs = _smeared_sides(f, w_lhs, w_rhs, freqs, t_range, step / 2.0)
    fine = abs(lhs - rhs)
    if abs(coarse - fine) > 1e-6 * a.max_norm() * b.max_norm():
        raise QuadratureError(
            f"step-halving disagreement {abs(coarse - fine):.3e} at step {step:.3e}"
        )
    return fine


@dataclass(frozen=True)
class ProbeScore:
    a_label: str
    b_label: str
    t: float
    score: float


@dataclass(frozen=True)
class DiscriminationReport:
    """Whether the dynamics generated by two controls can be told apart."""

    theta_1: tuple
    theta_2: tuple
    scores: tuple
    max_score: float
    distinguishable: bool


def kms_theta_discrimination(family: ObservableFamily, theta_1, theta_2,
                             probes) -> DiscriminationReport:
    """Max deviation between the two evolutions over a probe set.

    Probes are (A, B, t) triples; both operators are evolved under each
    control and compared in max norm. A score at zero (within 1e-10) means
    the controls generate the same dynamics on these probes, which happens
    exactly when their difference couples only to multiples of the identity.
    """
    probes = list(probes)
    if not probes:
        raise UsageError("probe set must be non-empty")
    th1 = as_components(theta_1, family.n_observables)
    th2 = as_components(theta_2, family.n_observables)
    scores = []
    for a, b, t in probes:
        best = 0.0
        for op in (a, b):
            moved1 = evolve(op, family, th1, t)
            moved2 = evolve(op, family, th2, t)
            best = max(best, float(np.max(np.abs(moved1.matrix - moved2.matrix))))
        scores.append(ProbeScore(a.label, b.label, float(t), best))
    max_score = max(s.score for s in scores)
    return DiscriminationReport(tuple(map(float, th1)), tuple(map(float, th2)),
                                tuple(scores), max_score, max_score > 1e-10)


DEFAULT_PROBE_PAIRS = 3  # the distinct (A, B) pairs default_probes gives at each time


def default_probes(family: ObservableFamily, seed: int, times) -> list:
    """Site-0 Pauli probes plus one seeded random hermitian, at each time.
    Past the residuals' dimension cap, ResourceError before any probe is built.

    On a diagonal family the pointwise residual of every pair reads exactly
    0, whatever the probes (see the module docstring): all 27 rows of
    configs/kms_ising.cfg's residuals.csv do. The (sz@0, sx@0) pair has no
    cross weight at all there, as sz is diagonal in the product basis and sx
    has a zero diagonal. The smeared residual of every pair is zero by
    construction too, up to quadrature roundoff, so these pairs check the
    evaluation of the residuals, not the state."""
    _check_dims(family)
    n = family.region.size
    rng = np.random.default_rng(seed)
    rand = random_hermitian(family.dim, rng, label=f"random#{seed}")
    sx0 = site_pauli("x", 0, n)
    sy0 = site_pauli("y", 0, n)
    sz0 = site_pauli("z", 0, n)
    probes = []
    for t in times:
        probes.append((sx0, sy0, float(t)))
        probes.append((sz0, sx0, float(t)))
        probes.append((rand, sx0, float(t)))
    return probes
