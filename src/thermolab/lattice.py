"""Finite-region observable families for the built-in lattice models.

Each family is a finite set of commuting hermitian observables
(Q_0 = energy, Q_1, ...) on the 2^N-dimensional spin space of a region.
The built-in models are all diagonal in the product sigma_z basis, so they
are stored as diagonal vectors; dense storage is used for the one
non-commuting extra (transverse-field chain, a single-observable family).
A dense observable must commute with the global spin flip prod sigma_x, as
the transverse chain does on both boundaries; it is diagonalized in its two
flip-parity blocks of dimension 2^(N-1), in one stacked solve.
Only this module reads that storage: other modules see a family through its
cached spectral form, the joint level table (``levels``) or the levels with
the basis they live in (``level_view``).

Basis convention: basis index i encodes the spin configuration with site 0
in the most significant bit; bit 0 means sigma_z = +1, bit 1 means -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import as_components
from .errors import ResourceError, UsageError

DIMENSION_CAP = 2**14

CHAIN = "chain"
COMPLETE_GRAPH = "complete_graph"
SINGLE_SITES = "single_sites"

_GEOMETRIES = (CHAIN, COMPLETE_GRAPH, SINGLE_SITES)
MODEL_KINDS = ("free_spins", "ising_chain", "curie_weiss", "transverse_ising_chain")


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
            if self.boundary not in ("periodic", "open"):
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
    breaks [H, M] = 0.
    """

    kind: str
    J: float = 0.0
    h: float = 0.0
    hx: float = 0.0
    boundary: str = "periodic"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise UsageError(f"unknown model kind {self.kind!r}")
        for name in ("J", "h", "hx"):
            if not np.isfinite(getattr(self, name)):
                raise UsageError(f"non-finite coupling {name}")

    def region(self, n_sites: int) -> Region:
        if self.kind == "free_spins":
            return Region(SINGLE_SITES, n_sites)
        if self.kind == "curie_weiss":
            return Region(COMPLETE_GRAPH, n_sites)
        return Region(CHAIN, n_sites, self.boundary)

    @property
    def labels(self) -> tuple[str, ...]:
        if self.kind in ("free_spins", "transverse_ising_chain"):
            return ("energy",)
        return ("energy", "magnetization")

    @property
    def n_observables(self) -> int:
        return len(self.labels)

    def config_echo(self) -> dict:
        echo = {"model": self.kind}
        if self.kind in ("ising_chain", "curie_weiss", "transverse_ising_chain"):
            echo["J"] = self.J
        if self.kind in ("ising_chain", "curie_weiss"):
            echo["h"] = self.h
        if self.kind == "transverse_ising_chain":
            echo["hx"] = self.hx
        if self.kind in ("ising_chain", "transverse_ising_chain"):
            echo["boundary"] = self.boundary
        return echo


def parse_model_config(text: str) -> tuple[ModelSpec, int | None]:
    """Parse a plain-text model description into (ModelSpec, site count).

    Accepts one ``key=value`` pair per line (or comma-separated), with '#'
    comments: ``model=ising_chain``, ``J=1.0``, ``h=0.0``, ``N=10``,
    ``boundary=periodic``. N is optional and returned separately since a
    ModelSpec is size-free.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.replace(",", "\n").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"expected key=value on line {lineno}, got {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    if "model" not in fields:
        raise UsageError("missing 'model=' entry")
    try:
        spec = ModelSpec(
            fields.pop("model"),
            J=float(fields.pop("J", 0.0)),
            h=float(fields.pop("h", 0.0)),
            hx=float(fields.pop("hx", 0.0)),
            boundary=fields.pop("boundary", "periodic"),
        )
        n_sites = int(fields.pop("N")) if "N" in fields else None
    except ValueError as exc:
        raise UsageError(f"bad model config value: {exc}") from None
    if fields:
        raise UsageError(f"unknown model config keys {sorted(fields)}")
    return spec, n_sites


class ObservableFamily:
    """Commuting hermitian observables on a region's spin space.

    Observables are stored either as diagonal vectors (all built-in models)
    or as one dense hermitian matrix that commutes with the global spin flip
    (the transverse-field chain). This class is the only code that reads the
    storage: every spectral consumer goes through :meth:`levels`,
    :meth:`level_view`, :meth:`level_energies` or :meth:`control_generator`.
    The arrays are kept read-only, so a family can be shared between sweeps
    and threads. ``spec`` records the generating model when the family came
    out of :func:`build_model`.
    """

    def __init__(self, region: Region, labels, diagonals=None, matrices=None,
                 spec: ModelSpec | None = None):
        if (diagonals is None) == (matrices is None):
            raise UsageError("provide exactly one of diagonals or matrices")
        self.region = region
        self.labels = tuple(labels)
        self.spec = spec
        self._levels = None
        self._level_view = None
        dim = self.dim
        if diagonals is not None:
            self.diagonals = _frozen(np.asarray(d, dtype=float) for d in diagonals)
            self.dense = None
            n = len(self.diagonals)
            shapes_ok = all(d.shape == (dim,) for d in self.diagonals)
        else:
            self.dense = _frozen(np.asarray(m) for m in matrices)
            self.diagonals = None
            n = len(self.dense)
            if n > 1:
                raise UsageError("dense families hold a single observable; "
                                 "commuting observables are stored as diagonals")
            shapes_ok = all(m.shape == (dim, dim) for m in self.dense)
            for m in self.dense:
                if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
                    raise UsageError("observables must be hermitian")
        if not shapes_ok:
            raise UsageError(f"observable shape mismatch for dimension {dim}")
        if self.dense is not None and not all(np.array_equal(m, m[::-1, ::-1])
                                              for m in self.dense):
            raise UsageError("a dense observable must commute with the global spin flip")
        if n == 0:
            raise UsageError("family needs at least one observable")
        if len(self.labels) != n:
            raise UsageError("one label per observable required")

    def _spectrum(self, vectors: bool) -> tuple:
        """(rows, log_mult, index, basis) of the joint spectrum.

        Diagonal families are grouped exactly: equal quantum numbers give
        bitwise-equal floats, and the basis is the product basis (None). The
        dense family has one level per eigenvalue, in ascending order; its
        eigenvectors are computed only when ``vectors`` is set, the basis is
        None otherwise.

        Grouping is a stable lexicographic sort of the states (first
        observable first) with a level break wherever neighbours differ:
        ``np.unique(..., axis=0)``'s rows, counts and index without its sort
        of structured rows. A level takes the values of its lowest state.

        The dense observable commutes with the global flip prod sigma_x, which
        maps index i to dim - 1 - i, so it splits into an even and an odd
        block on the states (|i> +- |dim-1-i>)/sqrt(2), i < dim/2. With
        near = H[:half, :half] and far[i, j] = H[i, dim-1-j], the blocks are
        near + far and near - far, solved in one stacked call. Eigenvalues of
        both blocks are merged by a stable sort; block eigenvector v becomes
        v/sqrt(2) on the lower half and +-v/sqrt(2), reversed, on the upper.
        """
        if self.is_diagonal:
            order = np.lexsort(self.diagonals[::-1])
            columns = [d[order] for d in self.diagonals]
            breaks = np.zeros(self.dim, dtype=bool)
            breaks[0] = True
            for column in columns:
                breaks[1:] |= column[1:] != column[:-1]
            starts = np.flatnonzero(breaks)
            index = np.empty(self.dim, dtype=np.intp)
            index[order] = np.cumsum(breaks) - 1
            rows = np.stack([column[starts] for column in columns], axis=1)
            return rows, np.log(np.diff(starts, append=self.dim)), index, None
        m, half = self.dense[0], self.dim // 2
        near, far = m[:half, :half], m[:half, ::-1][:, :half]
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
        the second. Taken from :meth:`level_view` when that is built, and
        computed without eigenvectors otherwise. Computed on first use and
        kept; two threads asking at once at worst both compute it.
        """
        if self._levels is None:
            view = self._level_view
            if view is not None:
                self._levels = (view.rows, view.log_mult)
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
        return self.diagonals is not None

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

    def permutation(self) -> np.ndarray:
        """tau with tau[i] = index of the shifted configuration."""
        n = self.n_sites
        x = self.shift % n
        idx = np.arange(2**n, dtype=np.int64)
        tau = idx.copy()
        for _ in range(x):
            tau = (tau >> 1) | ((tau & 1) << (n - 1))
        return tau

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


def build_model(spec: ModelSpec, region: Region, cap: int = DIMENSION_CAP) -> ObservableFamily:
    """Instantiate a built-in model's observable family on a region.

    free_spins: H = sum_i n_i with n_i = diag(0, 1).
    ising_chain: H = -J sum sz_i sz_{i+1} - h sum sz_i, plus M = sum sz_i.
    curie_weiss: H = -(J/2N)(sum sz_i)^2 - h sum sz_i, plus M.
    transverse_ising_chain: H = -J sum sz sz - hx sum sx_i, single observable,
    built from the spin bits: sz sz is diagonal and sx_i flips bit n-1-i. The
    matrix stays real (half the memory of a complex one, a real eigensolve).
    """
    expected = spec.region(region.size)
    if (region.geometry, region.boundary) != (expected.geometry, expected.boundary):
        raise UsageError(f"model {spec.kind} expects geometry {expected.geometry}"
                         f"{'/' + str(expected.boundary) if expected.boundary else ''}")
    n = region.size
    dim = 2**n
    if dim > cap:
        raise ResourceError(f"dimension 2^{n} = {dim} exceeds cap {cap}")

    spins = _site_spins(n)
    if spec.kind == "transverse_ising_chain":
        last = n if region.boundary == "periodic" else n - 1
        diag = np.zeros(dim)
        for i in range(last):
            diag -= spec.J * (spins[i] * spins[(i + 1) % n])
        ham = np.zeros((dim, dim))
        idx = np.arange(dim)
        ham[idx, idx] = diag
        for i in range(n):
            ham[idx, idx ^ (1 << (n - 1 - i))] -= spec.hx
        return ObservableFamily(region, spec.labels, matrices=[ham], spec=spec)

    total_sz = spins.sum(axis=0)
    if spec.kind == "free_spins":
        number = (1.0 - spins) / 2.0
        diags = [number.sum(axis=0)]
    elif spec.kind == "ising_chain":
        last = n if region.boundary == "periodic" else n - 1
        bonds = sum(spins[i] * spins[(i + 1) % n] for i in range(last)) if last else 0.0
        diags = [-spec.J * bonds - spec.h * total_sz, total_sz.copy()]
    else:  # curie_weiss
        diags = [-(spec.J / (2.0 * n)) * total_sz**2 - spec.h * total_sz, total_sz.copy()]
    return ObservableFamily(region, spec.labels, diagonals=diags, spec=spec)


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
    if spec.kind in ("ising_chain", "transverse_ising_chain"):
        # halves of a chain are open sub-chains regardless of the parent's boundary
        sub_spec = ModelSpec(spec.kind, spec.J, spec.h, spec.hx, boundary="open")
    fam_a = build_model(sub_spec, sub_spec.region(na))
    fam_b = build_model(sub_spec, sub_spec.region(nb))
    defects = {}
    for j, label in enumerate(family.labels):
        if family.is_diagonal:
            joined = np.add.outer(fam_a.diagonals[j], fam_b.diagonals[j]).ravel()
            defects[label] = float(np.max(np.abs(family.diagonals[j] - joined)))
        else:
            joined = np.kron(fam_a.dense[j], np.eye(fam_b.dim)) + np.kron(
                np.eye(fam_a.dim), fam_b.dense[j]
            )
            defects[label] = float(np.max(np.abs(family.dense[j] - joined)))
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
        trans = 0.0
        for j in range(family.n_observables):
            if family.is_diagonal:
                moved = shift.conjugate_diagonal(family.diagonals[j])
                trans = max(trans, float(np.max(np.abs(moved - family.diagonals[j]))))
            else:
                moved = shift.conjugate_dense(family.dense[j])
                trans = max(trans, float(np.max(np.abs(moved - family.dense[j]))))

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
