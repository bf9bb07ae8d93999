"""Closed-form and brute-force reference values, independent of thermolab.

Everything here is computed from first principles (configuration sums,
transfer matrices, fixed-point bisection, hull geometry) so library results
can be checked against an implementation that shares no code path with them.
"""

from decimal import Decimal, localcontext

import numpy as np


def binary_entropy(p):
    """-p ln p - (1-p) ln(1-p), elementwise, with the x ln x -> 0 convention."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    for w in (p, 1.0 - p):
        live = w > 0
        out[live] -= w[live] * np.log(w[live])
    return out if out.ndim else float(out)


def free_spin_pressure(theta0):
    """Per-site log partition sum of independent two-level systems."""
    return np.log1p(np.exp(-np.asarray(theta0, dtype=float)))


def ising_log_lambda_plus(beta, j, h):
    """Infinite periodic Ising chain: log of the top transfer-matrix eigenvalue."""
    lam = np.exp(beta * j) * np.cosh(beta * h) + np.sqrt(
        np.exp(2 * beta * j) * np.sinh(beta * h) ** 2 + np.exp(-2 * beta * j)
    )
    return float(np.log(lam))


def enumerate_spin_chain_logz(n, beta, j, h, periodic=True):
    """ln Z of the n-site Ising chain by direct configuration enumeration."""
    total = 0.0
    energies = []
    for config in range(2**n):
        spins = [1 - 2 * ((config >> (n - 1 - k)) & 1) for k in range(n)]
        bonds = range(n) if periodic else range(n - 1)
        energy = -j * sum(spins[k] * spins[(k + 1) % n] for k in bonds)
        energy -= h * sum(spins)
        energies.append(energy)
    energies = np.array(energies)
    shift = energies.min()
    return float(np.log(np.exp(-beta * (energies - shift)).sum()) - beta * shift)


def enumerate_curie_weiss_logz(n, beta, j, h):
    """ln Z of the complete-graph model via the total-spin binomial sum."""
    log_terms = []
    for k in range(n + 1):  # k down spins, total sz = n - 2k
        sz = n - 2 * k
        energy = -(j / (2.0 * n)) * sz**2 - h * sz
        log_comb = (
            sum(np.log(i) for i in range(1, n + 1))
            - sum(np.log(i) for i in range(1, k + 1))
            - sum(np.log(i) for i in range(1, n - k + 1))
        )
        log_terms.append(log_comb - beta * energy)
    log_terms = np.array(log_terms)
    shift = log_terms.max()
    return float(shift + np.log(np.exp(log_terms - shift).sum()))


def transverse_ising_matrix(n, j, hx, periodic=True):
    """Dense H = -j sum sz_k sz_k+1 - hx sum sx_k, built entry by entry.

    sz sz is diagonal in the configuration basis (site 0 in the most
    significant bit, bit 0 meaning sz = +1) and sx_k flips bit n-1-k.
    """
    dim = 2**n
    ham = np.zeros((dim, dim))
    bonds = range(n) if periodic else range(n - 1)
    for config in range(dim):
        spins = [1 - 2 * ((config >> (n - 1 - k)) & 1) for k in range(n)]
        ham[config, config] = -j * sum(spins[k] * spins[(k + 1) % n] for k in bonds)
        for k in range(n):
            ham[config ^ (1 << (n - 1 - k)), config] -= hx
    return ham


def spin_model_diagonals(kind, n, j=0.0, h=0.0, periodic=True):
    """Observables of a diagonal built-in model, configuration by configuration.

    free_spins: (number of down spins,); ising_chain and curie_weiss:
    (energy, total sz), in the basis convention of transverse_ising_matrix.
    """
    columns = []
    for config in range(2**n):
        spins = [1 - 2 * ((config >> (n - 1 - k)) & 1) for k in range(n)]
        m = sum(spins)
        if kind == "free_spins":
            columns.append((sum((1 - s) // 2 for s in spins),))
        elif kind == "ising_chain":
            bonds = range(n) if periodic else range(n - 1)
            bond_sum = sum(spins[k] * spins[(k + 1) % n] for k in bonds)
            columns.append((-j * bond_sum - h * m, m))
        elif kind == "curie_weiss":
            columns.append((-(j / (2.0 * n)) * m * m - h * m, m))
        else:
            raise ValueError(f"no diagonal observables for {kind!r}")
    return [np.array(col, dtype=float) for col in zip(*columns)]


def thermal_two_point(gen, a, b, t):
    """Tr(rho alpha_t(A) B) for rho = e^-G / Tr e^-G and alpha_t(A) = e^iGt A e^-iGt.

    Every factor is a dense matrix built from one eigendecomposition of the
    dense hermitian generator G.
    """
    lam, vec = np.linalg.eigh(gen)
    weights = np.exp(-(lam - lam.min()))
    rho = (vec * (weights / weights.sum())) @ vec.conj().T
    unitary = (vec * np.exp(1j * lam * t)) @ vec.conj().T
    moved = unitary @ a @ unitary.conj().T
    return complex(np.trace(rho @ moved @ b))


def open_transverse_ising_logz(n, beta, j, hx):
    """ln Z of the open transverse-field chain from its free-fermion modes.

    The mode energies are the nonnegative eigenvalues of the 2n x 2n chiral
    matrix [[0, B], [B^T, 0]], B bidiagonal with hx on the diagonal and j
    above it (Lieb, Schultz and Mattis); Z = prod_k 2 cosh(beta eps_k).
    """
    b = np.diag(np.full(n, float(hx))) + np.diag(np.full(n - 1, float(j)), 1)
    chiral = np.block([[np.zeros((n, n)), b], [b.T, np.zeros((n, n))]])
    eps = np.linalg.eigvalsh(chiral)[n:]
    return float(np.sum(np.logaddexp(beta * eps, -beta * eps)))


def mean_field_fixed_point(theta0, tol=1e-12):
    """Positive solution of m = tanh(theta0 * m), by bisection."""
    if theta0 <= 1.0:
        return 0.0
    lo, hi = 1e-12, 1.0
    glo = np.tanh(theta0 * lo) - lo
    assert glo > 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.tanh(theta0 * mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def product_state_roots(kind, j, h, k, target):
    """Polarizations m in [-1, 1] with density component k equal to target,
    and the per-site entropy eta at each: (roots, etas), roots ascending.

    Densities of the product state of polarization m: (1 - m)/2 for free
    spins; e = -J m^2 - h m (Ising chain) or -(J/2) m^2 - h m (Curie-Weiss)
    for k = 0, m itself for k = 1. The energy roots come from the textbook
    formula (-B +- sqrt(B^2 - 4AC)) / 2A, evaluated in 60-digit decimal
    arithmetic from the exact float inputs, so the only error left in a
    root is its final rounding to a float.
    """
    t = Decimal(float(target))
    with localcontext() as ctx:
        ctx.prec = 60
        if kind == "free_spins":
            exact = [1 - 2 * t]
        elif k == 1:
            exact = [t]
        else:
            a = Decimal(float(j)) / (1 if kind == "ising_chain" else 2)
            b = Decimal(float(h))
            if a == 0:
                exact = [-t / b] if b != 0 else []
            else:
                disc = b * b - 4 * a * t
                if disc < 0:
                    exact = []
                else:
                    exact = sorted({(-b + sign * disc.sqrt()) / (2 * a) for sign in (1, -1)})
        roots = sorted(float(x) for x in exact if -1 <= x <= 1)
    return roots, [binary_entropy((1.0 + m) / 2.0) for m in roots]


def mean_field_pressure_bounds(kind, j, h, theta, points=2_000_001):
    """(at_roots, on_scan) for sup over m in [-1, 1] of eta(m) - theta . q(m).

    q(m) is (1 - m)/2 for free spins, and (e(m), m) otherwise, with
    e = -J m^2 - h m (Ising chain) or -(J/2) m^2 - h m (Curie-Weiss).
    Stationary points solve m = tanh(s m + r), s = -2 theta . (m^2 terms),
    r = -theta . (m terms). ``at_roots`` is the best value at m = +-1 and at
    every root of m - tanh(s m + r), each bracketed by a sign change on the
    ``points``-point grid and bisected to adjacent floats. ``on_scan`` is
    the best value on that grid, a lower bound for the supremum.
    """
    theta = [float(t) for t in theta]
    if kind == "free_spins":
        terms = [(0.0, -0.5, 0.5)]
    else:
        a = -j if kind == "ising_chain" else -j / 2.0
        terms = [(a, -h, 0.0), (0.0, 1.0, 0.0)]
    qa, qb, qc = (sum(t * term[i] for t, term in zip(theta, terms)) for i in range(3))
    s, r = -2.0 * qa, -qb

    def objective(m):
        m = np.asarray(m, dtype=float)
        eta = 0.0
        for w in ((1.0 + m) / 2.0, (1.0 - m) / 2.0):  # w ln w -> 0 at w = 0
            eta = eta - w * np.log(np.where(w > 0.0, w, 1.0))
        return eta - (qa * m * m + qb * m + qc)

    def f(m):
        return m - np.tanh(s * m + r)

    on_scan, brackets = -np.inf, []
    edges = np.linspace(-1.0, 1.0, 11)
    for k in range(10):  # ten slices keep the arrays small
        grid = np.linspace(edges[k], edges[k + 1], (points - 1) // 10 + 1)
        on_scan = max(on_scan, float(np.max(objective(grid))))
        neg = f(grid) < 0.0
        for i in np.nonzero(neg[:-1] != neg[1:])[0]:
            brackets.append((float(grid[i]), float(grid[i + 1]), bool(neg[i])))
    candidates = [-1.0, 1.0]
    for lo, hi, rising in brackets:
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if (float(f(mid)) < 0.0) == rising:
                lo = mid
            else:
                hi = mid
        candidates += [lo, hi]
    return max(float(objective(m)) for m in candidates), on_scan


def upper_concave_envelope(grid, values):
    """Concave envelope of 1-d samples, by direct upper-hull construction."""
    pts = list(zip(np.asarray(grid, dtype=float), np.asarray(values, dtype=float)))
    hull = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) <= (y - y2) * (x2 - x1):
                hull.pop()  # middle point below the chord: not a hull vertex
            else:
                break
        hull.append((x, y))
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return np.interp(np.asarray(grid, dtype=float), hx, hy)


def two_level_gibbs(theta0):
    """Weights (p0, p1) of exp(-theta0 * diag(0, 1)) normalized."""
    z = 1.0 + np.exp(-theta0)
    return np.array([1.0, np.exp(-theta0)]) / z


def looped_monotone_segments(column):
    """Index ranges [i0, i1] on which a sampled column is monotone.

    A segment ends wherever the step direction flips between two nonzero
    steps; zero steps never break a segment. Plain Python loop.
    """
    values = [float(v) for v in column]
    direction = [(b > a) - (b < a) for a, b in zip(values, values[1:])]
    breaks = [0]
    for i in range(1, len(direction)):
        if direction[i] != 0 and direction[i - 1] != 0 and direction[i] != direction[i - 1]:
            breaks.append(i)
    breaks.append(len(direction))
    return [(breaks[j], breaks[j + 1]) for j in range(len(breaks) - 1)]


_FLOOR = 1e-13  # abscissae closer than this, relative to their scale, coincide


def _stencil_slope(xs, ys):
    """Slope at xs[-1] from a 3-point (or 2-point) one-sided stencil."""
    scale = max(1.0, *(abs(x) for x in xs))
    if len(xs) == 3:
        (x0, x1, x2), (y0, y1, y2) = xs, ys
        d01, d12, d02 = x1 - x0, x2 - x1, x2 - x0
        if min(abs(d01), abs(d12), abs(d02)) > _FLOOR * scale and (d01 < 0) == (d12 < 0):
            # derivative at x2 of the parabola through the three points
            return y0 * d12 / (d01 * d02) - y1 * d02 / (d01 * d12) + y2 * (d02 + d12) / (d02 * d12)
        xs, ys = xs[1:], ys[1:]
    if abs(xs[1] - xs[0]) <= _FLOOR * scale:
        return None
    return (ys[1] - ys[0]) / (xs[1] - xs[0])


def stencil_tangent_interval(xs, ys, i):
    """(lower, upper, tol) of the supporting slopes at position i of a chain.

    xs, ys are sequences of floats along one coordinate of an ordered chain.
    Each side's slope uses the (up to) two grid intervals on that side; a
    missing side is unbounded. tol = 10 x (larger adjacent spacing) x (the
    largest |second difference| of the one-sided triples ending or starting
    at i).
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n = len(xs)
    left = _stencil_slope(xs[max(0, i - 2): i + 1], ys[max(0, i - 2): i + 1]) if i >= 1 else None
    right = None
    if i <= n - 2:
        stop = min(n - 1, i + 2) + 1
        right = _stencil_slope(xs[i:stop][::-1], ys[i:stop][::-1])
    if left is None and right is None:
        raise ValueError("no resolvable side")
    if left is None:
        lower, upper = right, float("inf")
    elif right is None:
        lower, upper = float("-inf"), left
    else:
        lower, upper = min(left, right), max(left, right)

    curvature = 0.0
    for lo in (i - 2, i):
        if lo < 0 or lo + 2 >= n:
            continue
        (x0, x1, x2), (y0, y1, y2) = xs[lo: lo + 3], ys[lo: lo + 3]
        d01, d12 = x1 - x0, x2 - x1
        if min(abs(d01), abs(d12)) <= _FLOOR * max(1.0, abs(x0), abs(x1), abs(x2)):
            continue
        if (d01 < 0) != (d12 < 0):
            continue
        second = 2.0 * (y0 / (d01 * (d01 + d12)) - y1 / (d01 * d12) + y2 / (d12 * (d01 + d12)))
        curvature = max(curvature, abs(second))
    gaps = [abs(xs[i] - xs[i - 1])] if i >= 1 else []
    if i <= n - 2:
        gaps.append(abs(xs[i + 1] - xs[i]))
    spacing = max(gaps) if gaps else 0.0
    return lower, upper, 10.0 * spacing * curvature
