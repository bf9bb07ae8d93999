"""Finite-region observable families for the built-in lattice models.

Each family is a finite set of commuting hermitian observables
(Q_0 = energy, Q_1, ...) on the 2^N-dimensional spin space of a region.
The built-in models are all diagonal in the product sigma_z basis, apart
from one non-commuting extra (transverse-field chain, a single-observable
family). A dense observable must commute with the global spin flip
prod sigma_x, as the transverse chain does on both boundaries; it is kept as
the two inputs of its flip-parity blocks of dimension 2^(N-1) and
diagonalized in one stacked solve.
A built-in family is defined by its structure, not its storage: the diagonal
kinds count their level table from (walls, down spins) classes, and build
their 2^N diagonals from the spin bits only when something reads them. The
open transverse chain's levels are the 2^N sums +-eps_1 +- ... +- eps_N of
its N free-fermion mode energies (``_mode_levels``); its parity blocks are
built only when the matrix or the eigenvectors are read, and the dense
matrix is assembled from them on first read.
Only this module reads that storage: other modules see a family through its
cached spectral form, the joint level table (``levels``) or the levels with
the basis they live in (``level_view``).

Basis convention: basis index i encodes the spin configuration with site 0
in the most significant bit; bit 0 means sigma_z = +1, bit 1 means -1.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .config import Config
from .convex import as_components
from .errors import NumericRangeError, ResourceError, UsageError

DIMENSION_CAP = 2**14

CHAIN = "chain"
COMPLETE_GRAPH = "complete_graph"
SINGLE_SITES = "single_sites"

_GEOMETRIES = (CHAIN, COMPLETE_GRAPH, SINGLE_SITES)
_BOUNDARIES = ("periodic", "open")

# The one table of a model kind's facts: kind -> (geometry, observable labels,
# the ModelSpec fields it reads, which are also its config keys besides model).
_KINDS = {
    "free_spins": (SINGLE_SITES, ("energy",), ()),
    "ising_chain": (CHAIN, ("energy", "magnetization"), ("J", "h", "boundary")),
    "curie_weiss": (COMPLETE_GRAPH, ("energy", "magnetization"), ("J", "h")),
    "transverse_ising_chain": (CHAIN, ("energy",), ("J", "hx", "boundary")),
}
MODEL_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class Region:
    """A finite one-dimensional region: chain, complete graph or loose sites."""

    geometry: str
    size: int
    boundary: str | None = None

    def __post_init__(self):
        if self.geometry not in _GEOMETRIES:
            raise UsageError(f"unknown geometry {self.geometry!r}")
        if self.size < 1:
            raise UsageError(f"region needs at least one site, got {self.size}")
        if self.geometry == CHAIN:
            if self.boundary not in _BOUNDARIES:
                raise UsageError(f"chain boundary must be periodic or open, got {self.boundary!r}")
        elif self.boundary is not None:
            raise UsageError(f"{self.geometry} takes no boundary condition")

    @property
    def translation_invariant(self) -> bool:
        """Whether a cyclic site shift is a symmetry of the geometry."""
        return not (self.geometry == CHAIN and self.boundary == "open")


@dataclass(frozen=True)
class ModelSpec:
    """Named model with couplings; energy units are absorbed into theta.

    kinds: free_spins (H = sum of number operators), ising_chain(J, h),
    curie_weiss(J, h) on the complete graph, and transverse_ising_chain(J, hx)
    which ships as a single-observable family because a transverse field
    breaks [H, M] = 0. A kind reads only its own fields (``_KINDS``); the
    others keep their defaults.
    """

    kind: str
    J: float = 0.0
    h: float = 0.0
    hx: float = 0.0
    boundary: str = "periodic"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UsageError(f"unknown model kind {self.kind!r}")
        for name in ("J", "h", "hx"):
            if not np.isfinite(getattr(self, name)):
                raise UsageError(f"non-finite coupling {name}")

    @classmethod
    def from_config(cls, cfg: Config) -> "ModelSpec":
        """The model named by ``model``, with the config keys its kind reads.
        Any other model key is left unread, so ``Config.finalize`` refuses it."""
        kind = cfg.get_str("model", required=True, choices=MODEL_KINDS)
        fields = {}
        for key in _KINDS[kind][2]:
            if key == "boundary":
                fields[key] = cfg.get_str(key, "periodic", choices=_BOUNDARIES)
            else:
                fields[key] = cfg.get_float(key, 0.0)
        return cls(kind, **fields)

    def region(self, n_sites: int) -> Region:
        geometry = _KINDS[self.kind][0]
        return Region(geometry, n_sites, self.boundary if geometry == CHAIN else None)

    @property
    def labels(self) -> tuple[str, ...]:
        return _KINDS[self.kind][1]

    @property
    def n_observables(self) -> int:
        return len(self.labels)

    def config_echo(self) -> dict:
        return {"model": self.kind, **{key: getattr(self, key) for key in _KINDS[self.kind][2]}}


def parse_model_config(text: str) -> tuple[ModelSpec, int | None]:
    """Parse a plain-text model description into (ModelSpec, site count).

    The experiment config format (:class:`Config`), with commas also
    separating pairs: ``model=ising_chain, J=1.0, N=10``. Only the keys the
    model kind reads are accepted, plus an optional N, returned separately
    since a ModelSpec is size-free. Bad input raises ``ConfigError``, a
    ``UsageError``.
    """
    cfg = Config.parse(text.replace(",", "\n"))
    spec = ModelSpec.from_config(cfg)
    n_sites = cfg.get_int("N")
    cfg.finalize()
    return spec, n_sites


class ObservableFamily:
    """Commuting hermitian observables on a region's spin space.

    Observables are given either as diagonal vectors or as one dense
    hermitian matrix that commutes with the global spin flip (the
    transverse-field chain); a dense matrix is kept as its flip-parity
    inputs ``near`` and ``far`` (see :meth:`_spectrum`), its one
    representation. A family from :func:`build_model` is defined by its
    structure: a diagonal kind counts :meth:`levels` from its model, the open
    transverse chain sums them from its free-fermion modes, and
    ``diagonals``, the parity blocks and ``dense`` are built on first read.
    This class is the only code that reads the storage: every spectral
    consumer goes through :meth:`levels`, :meth:`level_view`,
    :meth:`level_energies` or :meth:`control_generator`. The arrays are kept
    read-only, so a family can be shared between sweeps and threads. ``spec``
    records the generating model when the family came out of
    :func:`build_model`.
    """

    def __init__(self, region: Region, labels, diagonals=None, matrices=None,
                 spec: ModelSpec | None = None):
        if (diagonals is None) == (matrices is None):
            raise UsageError("provide exactly one of diagonals or matrices")
        labels = tuple(labels)
        dim = 2**region.size
        if diagonals is not None:
            diagonals = _frozen(np.asarray(d, dtype=float) for d in diagonals)
            n = len(diagonals)
            shapes_ok = all(d.shape == (dim,) for d in diagonals)
        else:
            matrices = [np.asarray(m) for m in matrices]
            n = len(matrices)
            if n > 1:
                raise UsageError("dense families hold a single observable; "
                                 "commuting observables are stored as diagonals")
            shapes_ok = all(m.shape == (dim, dim) for m in matrices)
        if not shapes_ok:  # first: the checks below need square matrices
            raise UsageError(f"observable shape mismatch for dimension {dim}")
        blocks = None
        if matrices:  # a dense family's one matrix
            m, half = matrices[0], dim // 2
            if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
                raise UsageError("observables must be hermitian")
            if not np.array_equal(m, m[::-1, ::-1]):
                raise UsageError("a dense observable must commute with the global spin flip")
            blocks = _frozen((m[:half, :half], m[:half, ::-1][:, :half]))
        if n == 0:
            raise UsageError("family needs at least one observable")
        if len(labels) != n:
            raise UsageError("one label per observable required")
        self._setup(region, labels, spec, diagonals, blocks)

    @classmethod
    def _of_model(cls, spec: ModelSpec, region: Region) -> "ObservableFamily":
        """A built-in model's family, defined by ``spec`` alone."""
        family = cls.__new__(cls)
        family._setup(region, spec.labels, spec, None, None)
        return family

    def _setup(self, region, labels, spec, diagonals, blocks):
        self.region = region
        self.labels = tuple(labels)
        self.spec = spec
        self._diagonals = diagonals
        self._near_far = blocks
        self._dense = None
        # a family with no given storage is its model's: its storage is built
        # when read, and its level table counted where the model allows
        self._model = diagonals is None and blocks is None
        self._levels = None
        self._level_view = None

    @property
    def diagonals(self) -> tuple | None:
        """The observables as vectors over the product basis; None for a dense
        family. A built-in model's are built from the spin bits on first read;
        two threads asking at once at worst both build them."""
        if self._diagonals is None and self._model and self.is_diagonal:
            self._diagonals = _frozen(_model_diagonals(self.spec, self.region.size))
        return self._diagonals

    @property
    def _blocks(self) -> tuple | None:
        """The dense observable's flip-parity inputs (near, far); None for a
        diagonal family. A built-in model's are built from the spin bits
        (``_transverse_blocks``) on first read; two threads asking at once at
        worst both build them."""
        if self._near_far is None and self._model and not self.is_diagonal:
            self._near_far = _transverse_blocks(self.spec, self.region.size)
        return self._near_far

    @property
    def dense(self) -> tuple | None:
        """The dense observable as a one-matrix tuple; None for a diagonal
        family. Assembled from its blocks on first read and kept: the top
        half is [near | far reversed], the bottom half the top's flip
        image."""
        if self._dense is None and not self.is_diagonal:
            near, far = self._blocks
            top = np.concatenate([near, far[:, ::-1]], axis=1)
            self._dense = _frozen([np.concatenate([top, top[::-1, ::-1]])])
        return self._dense

    def _spectrum(self, vectors: bool) -> tuple:
        """(rows, log_mult, index, basis) of the joint spectrum.

        Diagonal families are grouped exactly: equal quantum numbers give
        bitwise-equal floats, and the basis is the product basis (None). The
        dense family has one level per eigenvalue, in ascending order; its
        eigenvectors are computed only when ``vectors`` is set, the basis is
        None otherwise. The open transverse chain's :meth:`levels` do not come
        from here but from its modes (``_mode_levels``); its blocks are built
        when this first reads them, for :meth:`level_view`.

        Grouping is a stable lexicographic sort of the states (first
        observable first) with a level break wherever neighbours differ
        (``_grouped``): ``np.unique(..., axis=0)``'s rows, counts and index
        without its sort of structured rows. A level takes the values of its
        lowest state.

        The dense observable commutes with the global flip prod sigma_x, which
        maps index i to dim - 1 - i, so it splits into an even and an odd
        block on the states (|i> +- |dim-1-i>)/sqrt(2), i < dim/2. With
        near = H[:half, :half] and far[i, j] = H[i, dim-1-j], the family's
        stored blocks, these are near + far and near - far, solved in one
        stacked call. Eigenvalues of both blocks are merged by a stable sort;
        block eigenvector v becomes v/sqrt(2) on the lower half and
        +-v/sqrt(2), reversed, on the upper.
        """
        if self.is_diagonal:
            order, breaks, rows = _grouped(self.diagonals)
            starts = np.flatnonzero(breaks)
            index = np.empty(self.dim, dtype=np.intp)
            index[order] = np.cumsum(breaks) - 1
            return rows, np.log(np.diff(starts, append=self.dim)), index, None
        near, far = self._blocks
        half = self.dim // 2
        blocks = np.stack([near + far, near - far])
        if vectors:
            lam, vec = np.linalg.eigh(blocks)
        else:
            lam, vec = np.linalg.eigvalsh(blocks), None
        lam = lam.ravel()
        order = np.argsort(lam, kind="stable")
        if vectors:
            lower = np.concatenate(vec * np.sqrt(0.5), axis=1)
            parity = np.repeat([1.0, -1.0], half)
            vec = np.concatenate([lower, (lower * parity)[::-1]])[:, order]
        return lam[order][:, None], np.zeros(self.dim), np.arange(self.dim), vec

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct joint eigenvalue rows and the log of their multiplicities.

        Row ``k`` of the first array holds the eigenvalues of (Q_0, Q_1, ...)
        on one joint eigenspace, whose dimension is ``exp`` of entry ``k`` of
        the second. Taken from :meth:`level_view` when that is built, so on
        a transverse chain the levels, and pressures read from them, differ by
        a few ulp depending on whether the view was built first. A
        built-in diagonal family counts it otherwise (``_counted_levels``:
        O(N^2) classes, no 2^N storage, the grouping's bits), and the built-in
        open transverse chain sums it from its N free-fermion modes
        (``_mode_levels``: one 2N x 2N eigensolve, no parity blocks); other
        families compute it without eigenvectors. Computed on first use and
        kept; two threads asking at once at worst both compute it.
        """
        if self._levels is None:
            view = self._level_view
            if view is not None:
                self._levels = (view.rows, view.log_mult)
            elif self._model and self.is_diagonal:
                self._levels = _frozen(_counted_levels(self.spec, self.region.size))
            elif self._model and self.spec.boundary == "open":
                self._levels = _frozen(_mode_levels(self.spec, self.region.size))
            else:
                self._levels = _frozen(self._spectrum(vectors=False)[:2])
        return self._levels

    def level_view(self) -> "LevelView":
        """The joint levels together with the level of each basis vector.

        Diagonal families keep the product basis, with each state's level
        index. The dense family is diagonalized once, in its two flip-parity
        blocks; each eigenvector, assembled back into a dense column of the
        product basis, is a level of its own. Computed on first use and kept,
        apart from :meth:`levels`, so pressure sweeps never pay for the
        eigenvectors; two threads asking at once at worst both compute it.
        """
        if self._level_view is None:
            self._level_view = LevelView(*_frozen(self._spectrum(vectors=True)))
        return self._level_view

    @property
    def dim(self) -> int:
        return 2**self.region.size

    @property
    def n_observables(self) -> int:
        return len(self.labels)

    @property
    def is_diagonal(self) -> bool:
        """False for the dense family, whether or not its blocks are built."""
        if self._model:
            return self.spec.kind != "transverse_ising_chain"
        return self._near_far is None

    def level_energies(self, theta) -> np.ndarray:
        """theta . Q on each level of :meth:`level_view`, summed in column order."""
        th = as_components(theta, self.n_observables)
        rows = self.level_view().rows
        energy = np.zeros(rows.shape[0])
        for c, column in zip(th, rows.T):
            energy += c * column
        return energy

    def control_generator(self, theta) -> np.ndarray:
        """theta . Q on each basis vector of :meth:`level_view`.

        The generator is diagonal in the view's basis (the product basis, or
        the dense family's eigenbasis), so this vector is all of it.
        """
        return self.level_energies(theta)[self.level_view().index]

    def gram_matrix(self) -> np.ndarray:
        """Gram matrix under the normalized trace inner product Tr(A^t B)/dim.

        Diagonal families read it off the level table. The dense family's one
        entry is sum |H_ij|^2 / dim, read off the matrix with no eigensolve.
        """
        if not self.is_diagonal:
            m = self.dense[0]
            return np.array([[np.vdot(m, m).real / self.dim]])
        rows, log_mult = self.levels()
        return (rows * np.exp(log_mult)[:, None]).T @ rows / self.dim


@dataclass(frozen=True)
class LevelView:
    """Joint levels of a family and the level each basis vector lies in.

    ``rows`` and ``log_mult`` are as in :meth:`ObservableFamily.levels`.
    Basis vector j, the j-th product state when ``basis`` is None and
    column j of ``basis`` otherwise, lies in level ``index[j]``.
    """

    rows: np.ndarray
    log_mult: np.ndarray
    index: np.ndarray
    basis: np.ndarray | None


@dataclass(frozen=True)
class Translation:
    """Cyclic site shift on a region, acting as a basis permutation."""

    n_sites: int
    shift: int = 1

    def __post_init__(self):
        if self.n_sites < 1:
            raise UsageError(f"translation needs at least one site, got {self.n_sites}")

    def permutation(self) -> np.ndarray:
        """tau with tau[i] = index of the shifted configuration."""
        n = self.n_sites
        x = self.shift % n
        idx = np.arange(2**n, dtype=np.int64)
        # rotate the n-bit index right by x: its low x bits move to the top
        return (idx >> x) | ((idx << (n - x)) & (2**n - 1))

    def conjugate_diagonal(self, diag: np.ndarray) -> np.ndarray:
        """Diagonal of sigma(x) Q sigma(x)^-1 for diagonal Q."""
        tau = self.permutation()
        out = np.empty_like(diag)
        out[tau] = diag
        return out

    def conjugate_dense(self, matrix: np.ndarray) -> np.ndarray:
        tau = self.permutation()
        inv = np.argsort(tau)
        return matrix[np.ix_(inv, inv)]


@dataclass(frozen=True)
class StructureReport:
    """Structural diagnostics of a family: defects are reported, not thrown."""

    kind: str | None
    n_sites: int
    hermiticity_defect: float
    commutator_norm: float
    gram_min_eigenvalue: float
    translation_defect: float | None
    extensivity_defects: dict | None
    split: tuple | None


def _frozen(arrays) -> tuple:
    """Read-only views of the given arrays (None passes through); their
    owners stay writeable."""
    views = tuple(None if a is None else a.view() for a in arrays)
    for view in views:
        if view is not None:
            view.setflags(write=False)
    return views


def _locked_memo(maxsize: int):
    """Decorator: a build-once memo, an ``lru_cache`` of ``maxsize`` entries
    behind one lock, so a thread asking for an entry another thread is
    building waits for it. Exposes the cache's ``cache_info`` and ``cache_clear``."""
    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        lock = threading.Lock()

        @functools.wraps(fn)
        def memo(*args):
            with lock:
                return cached(*args)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo
    return decorate


def _grouped(columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of equal-length ``columns`` (first column first).

    Returns the stable lexicographic order of the rows, the level breaks in
    that order (True where a row differs from the one before it) and the
    distinct rows, each with the values of its first row in the order.
    """
    order = np.lexsort(columns[::-1])
    columns = [column[order] for column in columns]
    breaks = np.zeros(order.size, dtype=bool)
    breaks[0] = True
    for column in columns:
        breaks[1:] |= column[1:] != column[:-1]
    return order, breaks, np.stack([column[breaks] for column in columns], axis=1)


def _site_spins(n_sites: int) -> np.ndarray:
    """(n_sites, 2^n) array of sigma_z values per site and basis state."""
    idx = np.arange(2**n_sites, dtype=np.int64)
    bits = (idx[:, None] >> (n_sites - 1 - np.arange(n_sites))[None, :]) & 1
    return (1 - 2 * bits).T.astype(float)


def lift_site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at ``site`` of an n-site spin space."""
    if not 0 <= site < n_sites:
        raise UsageError(f"site {site} out of range for {n_sites} sites")
    left = np.eye(2**site)
    right = np.eye(2 ** (n_sites - site - 1))
    return np.kron(np.kron(left, np.asarray(op)), right)


def _n_bonds(spec: ModelSpec, n: int) -> int:
    """Bonds of a chain of n sites: n - 1 open, n periodic (a self bond on one
    site, a doubled bond on two)."""
    return n if spec.boundary == "periodic" else n - 1


def _kind_columns(spec: ModelSpec, n: int, bonds, total_sz) -> list:
    """A diagonal kind's observables on n sites from the bond sum (sum of
    sz_i sz_{i+1} over a chain's bonds) and total sz M of a state or class,
    both exact integers: the one copy of :func:`build_model`'s formulas.
    Free spins count the down spins, (n - M)/2."""
    if spec.kind == "free_spins":
        return [(n - total_sz) / 2.0]
    if spec.kind == "ising_chain":
        energy = -spec.J * bonds - spec.h * total_sz
    else:  # curie_weiss
        energy = -(spec.J / (2.0 * n)) * total_sz**2 - spec.h * total_sz
    return [energy, total_sz]


def _model_diagonals(spec: ModelSpec, n: int) -> list[np.ndarray]:
    """A diagonal kind's observables on n sites, one vector over the product
    basis each, from the bond sums and total sz of the spin bits."""
    spins = _site_spins(n)
    bonds = 0.0
    if spec.kind == "ising_chain":
        bonds = sum(spins[i] * spins[(i + 1) % n] for i in range(_n_bonds(spec, n)))
    return _kind_columns(spec, n, bonds, spins.sum(axis=0))


def _chain_classes(n: int, periodic: bool) -> np.ndarray:
    """counts[w, d]: the states of an n-site chain with w walls (bonds that
    join unequal spins) and d down spins, counted by runs (Ising 1925) in
    Python ints and rounded to float64 once. Beside the two uniform states,
    the u = n - d up and d down spins form alternating runs: w + 1 on the
    open chain, a = (w + 2)//2 of the first spin and b = (w + 1)//2 of the
    other; on the ring (w even) r = w/2 of each, placed in n/r ways.
    """
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = table[0][n] = 1
    for d in range(1, n):
        u = n - d
        if periodic:
            for r in range(1, min(u, d) + 1):
                table[2 * r][d] = n * comb(u - 1, r - 1) * comb(d - 1, r - 1) // r
        else:
            for w in range(1, n):
                a, b = (w + 2) // 2, (w + 1) // 2
                table[w][d] = (comb(u - 1, a - 1) * comb(d - 1, b - 1)
                               + comb(d - 1, a - 1) * comb(u - 1, b - 1))
    return np.array(table, dtype=float)


def _counted_levels(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The level table of a diagonal kind on n sites, counted from classes.

    A state's observables depend only on its class: its down-spin count d
    and, on a chain, its walls w. Each class row is ``_kind_columns`` of the
    class values (bonds = n_bonds - 2w, M = n - 2d), so it has the bits of
    the states in it; free spins and Curie-Weiss count binomially, the chain
    by ``_chain_classes``. Classes with equal rows are merged by ``_grouped``
    and their counts summed. The classes enter in ascending wall order, so a
    merged level takes the row of its fewest-wall class, which holds the
    level's lowest state (0..01..1 has the fewest walls of its d): that
    decides the sign of the +-0.0 energies a J = 0 chain merges. Rows and
    log-multiplicities equal the grouping of the 2^N states bit for bit, and
    no dimension cap applies, but a class count past the float range raises
    NumericRangeError.
    """
    try:
        if spec.kind == "ising_chain":
            counts = _chain_classes(n, spec.boundary == "periodic")
            walls, downs = np.nonzero(counts)  # walls ascending
            counts = counts[walls, downs]
        else:
            walls, downs = 0, np.arange(n + 1)
            counts = np.array([comb(n, d) for d in downs], dtype=float)
    except OverflowError:
        raise NumericRangeError(f"the state counts of N = {n} sites pass the float "
                                "range") from None
    columns = _kind_columns(spec, n, _n_bonds(spec, n) - 2.0 * walls, n - 2.0 * downs)
    order, breaks, rows = _grouped(columns)
    return rows, np.log(np.add.reduceat(counts[order], np.flatnonzero(breaks)))


def _transverse_blocks(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """near = H[:half, :half] and far = H[:half, ::-1][:, :half] of the
    transverse chain on n sites, from the spin bits of the lower half.

    The lower half holds the states with site 0 up. sz sz is diagonal and
    sits in near; sx_i, i > 0, flips bit n-1-i within near; sx_0 joins state
    i to dim-1-(half-1-i), so it lies on far's anti-diagonal. Entries are
    computed as in the full build (bonds subtracted one by one, -hx as
    0.0 - hx), so the assembled matrix has its bits.
    """
    half = 2 ** (n - 1)
    spins = np.vstack([np.ones(half), _site_spins(n - 1)])
    diag = np.zeros(half)
    for i in range(_n_bonds(spec, n)):
        diag -= spec.J * (spins[i] * spins[(i + 1) % n])
    idx = np.arange(half)
    near = np.zeros((half, half))
    near[idx, idx] = diag
    for i in range(1, n):
        near[idx, idx ^ (1 << (n - 1 - i))] -= spec.hx
    far = np.zeros((half, half))
    far[idx, idx[::-1]] -= spec.hx
    return _frozen((near, far))


def _mode_levels(spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The open transverse chain's level table from its free-fermion modes.

    By the Jordan-Wigner map the open chain is a free-fermion chain (Lieb,
    Schultz and Mattis 1961; Pfeuty 1970): H = sum_k eps_k (2 n_k - 1), so
    its 2^n levels are the sums +-eps_1 +- ... +-eps_n. The mode energies
    eps_k are the singular values of the n x n bidiagonal matrix with hx on
    the diagonal and J above it, read as the upper n eigenvalues of its
    Golub-Kahan form: the 2n x 2n symmetric tridiagonal matrix with zero
    diagonal and off-diagonal (hx, J, hx, ..., J, hx), one eigensolve. The
    sums are built by n outer sums, modes ascending, then one stable sort.
    Each level is a row of its own with multiplicity 1 (log_mult 0), as the
    dense spectrum has; a level agrees with the block eigensolve's to
    roundoff, not bit for bit.
    """
    off = np.full(2 * n - 1, spec.hx, dtype=float)
    off[1::2] = spec.J
    modes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[n:]
    levels = np.zeros(1)
    for eps in modes:
        levels = np.add.outer(levels, (-eps, eps)).ravel()
    return np.sort(levels, kind="stable")[:, None], np.zeros(levels.size)


def build_model(spec: ModelSpec, region: Region, cap: int = DIMENSION_CAP) -> ObservableFamily:
    """Instantiate a built-in model's observable family on a region.

    free_spins: H = sum_i n_i with n_i = diag(0, 1).
    ising_chain: H = -J sum sz_i sz_{i+1} - h sum sz_i, plus M = sum sz_i.
    curie_weiss: H = -(J/2N)(sum sz_i)^2 - h sum sz_i, plus M.
    transverse_ising_chain: H = -J sum sz sz - hx sum sx_i, single observable,
    built from the spin bits: sz sz is diagonal and sx_i flips bit n-1-i. The
    matrix stays real (half the memory of a complex one, a real eigensolve).

    The family is defined by its structure, and its storage is built on
    first read. Every kind keeps only ``spec``. A diagonal kind's level table
    is counted from (walls, down spins) classes when ``levels`` is first
    asked for, and its 2^N diagonals are built from the spin bits only when
    read. The open transverse chain's level table is summed from its N
    free-fermion modes (``_mode_levels``), so a pressure sweep stores nothing
    of size 2^N x 2^N. The transverse chain's two flip-parity blocks
    (``_transverse_blocks``, half the entries of the matrix) are built when
    ``dense`` or ``level_view`` first reads them, or, on the periodic chain,
    whose Jordan-Wigner sectors have parity-dependent boundary conditions,
    when ``levels`` does; ``dense`` is assembled from them on first read.
    The cap holds for every kind.
    """
    expected = spec.region(region.size)
    if (region.geometry, region.boundary) != (expected.geometry, expected.boundary):
        raise UsageError(f"model {spec.kind} expects geometry {expected.geometry}"
                         f"{'/' + str(expected.boundary) if expected.boundary else ''}")
    check_size(region.size, cap)
    return ObservableFamily._of_model(spec, region)


def check_size(n: int, cap: int = DIMENSION_CAP) -> None:
    """ResourceError if the 2^n-dimensional space of n sites exceeds cap,
    told from n alone: 2^n is never formed, so a huge n is refused at once."""
    if n >= cap.bit_length():
        raise ResourceError(f"dimension 2^{n} exceeds cap {cap}")


def _split_defects(family: ObservableFamily) -> tuple[dict, tuple] | tuple[None, None]:
    """Extensivity defect per observable under a half/half site split.

    Splitting a chain yields two open sub-chains; the other geometries split
    into their own kind. The defect is the max-norm of
    Q(A u B) - (Q(A) x 1 + 1 x Q(B)); for interacting models this is the
    boundary-term norm rather than an exact zero.
    """
    if family.spec is None or family.region.size < 2:
        return None, None
    spec = family.spec
    n = family.region.size
    na, nb = n // 2, n - n // 2
    sub_spec = spec
    if family.region.geometry == CHAIN:
        # halves of a chain are open sub-chains regardless of the parent's boundary
        sub_spec = replace(spec, boundary="open")
    fam_a = build_model(sub_spec, sub_spec.region(na))
    fam_b = build_model(sub_spec, sub_spec.region(nb))
    whole, part_a, part_b = (f.diagonals or f.dense for f in (family, fam_a, fam_b))
    if family.is_diagonal:
        joined = [np.add.outer(a, b).ravel() for a, b in zip(part_a, part_b)]
    else:
        joined = [np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b)
                  for a, b in zip(part_a, part_b)]
    defects = {label: float(np.max(np.abs(q - j)))
               for label, q, j in zip(family.labels, whole, joined)}
    return defects, (na, nb)


def verify_family(family: ObservableFamily) -> StructureReport:
    """Structural audit: hermiticity, commutation, independence, covariance.

    Translation covariance is checked against the unit cyclic shift and only
    for translation-invariant geometries (open chains report None). The
    extensivity entry needs the generating ModelSpec and at least two sites.
    """
    herm = 0.0
    if not family.is_diagonal:
        m = family.dense[0]
        herm = float(np.max(np.abs(m - m.conj().T)))

    gram = family.gram_matrix()
    # a single observable's 1 x 1 Gram matrix is its own eigenvalue
    gram_min = float(gram[0, 0] if gram.shape == (1, 1) else np.min(np.linalg.eigvalsh(gram)))

    trans = None
    if family.region.translation_invariant and family.region.size >= 2:
        shift = Translation(family.region.size)
        conjugate = shift.conjugate_diagonal if family.is_diagonal else shift.conjugate_dense
        trans = 0.0
        for q in family.diagonals or family.dense:
            trans = max(trans, float(np.max(np.abs(conjugate(q) - q))))

    defects, split = _split_defects(family)
    return StructureReport(
        kind=family.spec.kind if family.spec else None,
        n_sites=family.region.size,
        hermiticity_defect=herm,
        # diagonal observables commute and a dense family holds only one
        commutator_norm=0.0,
        gram_min_eigenvalue=gram_min,
        translation_defect=trans,
        extensivity_defects=defects,
        split=split,
    )
