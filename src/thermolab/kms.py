"""Finite-volume Heisenberg dynamics and KMS-identity residuals.

The dynamics generated by theta.Q is alpha_t(A) = e^{i theta.Q t} A
e^{-i theta.Q t}; the canonical state psi_theta is a thermal equilibrium
state for it, which shows up numerically as the vanishing of

    pointwise:  | omega(alpha_t(A) B) - omega(B alpha_{t+i}(A)) |
    smeared:    | int f(t) omega(alpha_t(A) B) dt
                  - int f(t-i) omega(B alpha_t(A)) dt |

with omega the psi_theta expectation. Both sides of each identity are
evaluated through their own exponent assembly. On a dense family (the
transverse chain) the pointwise residual then measures the actual
cancellation. On the built-in diagonal families it does not: there
-lam_m - (lam_l - lam_m) rounds back to -lam_l, so both pointwise sums have
the same bits and the residual reads exactly 0 for every probe pair,
right or wrong. There the smeared residual and the dense family are the
real checks.

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

Test functions are Gaussians: entire, rapidly decaying, and with f(t-i)
available in closed form along the shifted line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .convex import as_components
from .errors import NumericRangeError, QuadratureError, ResourceError, UsageError
from .lattice import ObservableFamily, _frozen, _locked_memo, lift_site_operator

# Residual checks form the dim x dim cross table A~[j,k] B~[k,j] (and, for a
# dense family, rotate both probes into its eigenbasis) before folding it over
# level pairs, once per distinct (family, A, B).
_RESIDUAL_DIM_CAP = 2**10
# Folds kept by the residuals' memo. default_probes makes 3 distinct pairs,
# so one kms-verify run's folds all stay in it.
FOLD_MEMO_SIZE = 8
# Rows of A~ per strip when the cross table is folded over level pairs.
_FOLD_ROWS = 64
# A Gaussian test function is cut off where |f(t)| and |f(t - i)| fall below this.
_SUPPORT_EPS = 1e-14

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


@dataclass(frozen=True, eq=False)
class TestOperator:
    """A labeled square matrix used as a probe in residual checks.

    The matrix is a read-only view, and operators compare and hash by
    identity, so the residuals' fold memo can key on the operator itself.
    """

    __test__ = False  # not a pytest class, despite the name

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UsageError(f"test operator must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise UsageError("test operator has non-finite entries")
        object.__setattr__(self, "matrix", _frozen([m])[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.matrix)))


def site_pauli(which: str, site: int, n_sites: int) -> TestOperator:
    """sigma_{x|y|z} embedded at a site of the n-site spin space."""
    if which not in _PAULI:
        raise UsageError(f"which must be one of x, y, z, got {which!r}")
    return TestOperator(lift_site_operator(_PAULI[which], site, n_sites), f"s{which}@{site}")


def random_hermitian(dim: int, rng: np.random.Generator, label: str = "random") -> TestOperator:
    """Random hermitian probe scaled to spectral norm 1."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
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
        return np.exp(-(z * z) / (2.0 * self.sigma_w**2))

    def support_radius(self) -> float:
        """|f(t)| and |f(t - i)| both fall below _SUPPORT_EPS outside [-r, r]."""
        return math.sqrt(1.0 + 2.0 * self.sigma_w**2 * math.log(1.0 / _SUPPORT_EPS))


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


def _folded_cross(atil: np.ndarray, btil: np.ndarray, index: np.ndarray,
                  n_levels: int) -> np.ndarray:
    """cross[l, m]: the sum of A~[j,k] B~[k,j] over j in level l and k in level m.

    Built one strip of _FOLD_ROWS rows of A~ at a time, so each strip of the
    product and its level-pair indices stay in cache and B~ is read by
    column strips rather than transposed whole.
    """
    size = n_levels * n_levels
    real = np.zeros(size)
    imag = np.zeros(size)
    for start in range(0, len(index), _FOLD_ROWS):
        rows = slice(start, start + _FOLD_ROWS)
        strip = atil[rows] * btil[:, rows].T
        pair = np.add.outer(index[rows] * n_levels, index).ravel()
        real += np.bincount(pair, weights=strip.real.ravel(), minlength=size)
        imag += np.bincount(pair, weights=strip.imag.ravel(), minlength=size)
    return (real + 1j * imag).reshape(n_levels, n_levels)


@_locked_memo(FOLD_MEMO_SIZE)
def _memo_cross(family: ObservableFamily, a: TestOperator, b: TestOperator) -> np.ndarray:
    """The folded cross table of (family, A, B), folded on first request."""
    # keyed by the identity of all three (neither class defines equality);
    # the memo holds them, so their ids are not reused while an entry lives.
    # _folded_cross is looked up at call time, so a rebinding (tests) sees
    # every fold
    view = family.level_view()
    cross = _folded_cross(_rotate(a.matrix, view.basis), _rotate(b.matrix, view.basis),
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
                 t: float) -> float:
    """Pointwise residual |omega(alpha_t(A) B) - omega(B alpha_{t+i}(A))|.

    The complex-time side is evaluated as exp((it-1) theta.Q) A
    exp(-(it-1) theta.Q) with all real exponents combined before
    exponentiation, so control norms up to ~700 stay in range. Exact
    arithmetic gives zero by trace cyclicity; the float result is pure
    roundoff.
    """
    if not math.isfinite(t):
        raise UsageError(f"time {t} is not finite")
    _check_dims(family, a, b)
    lam, log_z, cross, delta = _residual_tables(family, theta, a, b)
    phase = np.exp(1j * delta * t)
    # omega(alpha_t(A) B): weight e^{-lam_l} / Z on the l index
    lhs = np.sum(np.exp(-lam[:, None] - log_z) * phase * cross)
    # omega(B alpha_{t+i}(A)): weight e^{-lam_m} / Z and the analytic
    # continuation factor e^{-(lam_l - lam_m)} from the complex time
    rhs = np.sum(np.exp(-lam[None, :] - delta - log_z) * phase * cross)
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise NumericRangeError("guarded exponential overflowed in kms_residual")
    return abs(lhs - rhs)


def default_quadrature_step(family: ObservableFamily, theta,
                            f: GaussianTestFunction) -> float:
    """Trapezoid step resolving the fastest Bohr frequency of theta.Q."""
    lam = family.level_energies(theta)
    spread = float(lam.max() - lam.min())
    return min(0.1, math.pi / (2.0 * spread + 12.0 / f.sigma_w + 2.0))


def _smeared_sides(f: GaussianTestFunction, w_lhs: np.ndarray, w_rhs: np.ndarray,
                   freqs: np.ndarray, t_range: float, h: float) -> tuple[complex, complex]:
    """(int f(t) LHS(t) dt, int f(t-i) RHS(t) dt) by the trapezoid rule at step h
    over [-t_range, t_range], with LHS(t) = sum w_lhs e^{i freqs t} and
    RHS(t) = sum w_rhs e^{i freqs t} over the level pairs."""
    ts = np.arange(-t_range, t_range + h / 2.0, h)
    lhs_t = np.empty(len(ts), dtype=complex)
    rhs_t = np.empty(len(ts), dtype=complex)
    for start in range(0, len(ts), 128):  # bound the phase-table memory
        block = ts[start : start + 128]
        phases = np.exp(1j * np.outer(block, freqs))
        lhs_t[start : start + 128] = phases @ w_lhs
        rhs_t[start : start + 128] = phases @ w_rhs
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
    QuadratureError; the half-step value is returned otherwise.
    """
    _check_dims(family, a, b)
    lam, log_z, cross, delta = _residual_tables(family, theta, a, b)
    w_lhs = (np.exp(-lam[:, None] - log_z) * cross).ravel()
    w_rhs = (np.exp(-lam[None, :] - log_z) * cross).ravel()
    freqs = delta.ravel()

    if t_range is None:
        t_range = f.support_radius()
    if step is None:
        step = default_quadrature_step(family, theta, f)

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


def default_probes(family: ObservableFamily, seed: int, times) -> list:
    """Site-0 Pauli probes plus one seeded random hermitian, at each time.
    Past the residuals' dimension cap, ResourceError before any probe is built.

    On a diagonal family the pointwise residual of every pair reads exactly
    0, whatever the probes (see the module docstring): all 27 rows of
    configs/kms_ising.cfg's residuals.csv do. The (sz@0, sx@0) pair has no
    cross weight at all there, as sz is diagonal in the product basis and sx
    has a zero diagonal; the other two pairs test something only through the
    smeared residual."""
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
