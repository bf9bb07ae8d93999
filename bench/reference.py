"""Independent references for every result row the benchmark checks.

Nothing here imports thermolab. The references come from closed forms:
the 2x2 transfer matrix of the periodic Ising chain, the free-fermion
spectrum of the open transverse-field chain, the mean-field fixed point
m = tanh(theta0 m - theta1), and the binary entropy of the product-state
family. Each checked row is one operation; a row that is missing, out of
order or off its reference counts as failed.

Usage: ``expected = expectations(experiment)`` once per workload, then
``check(experiment, expected, out_dir, tally)`` after every pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerances, each far above the float error of a correct result and far
# below any change of physics.
PHI_TOL = 1e-10        # per-size pressure phi_N against its closed form
LIMIT_TOL = 1e-8       # extrapolated pressure against the exact limit
RESIDUAL_BOUND = 1e-9  # KMS residuals are roundoff when the identity holds
ENTROPY_TOL = 1e-8     # constrained entropies (the solver refines m to 1e-10)
SLOPE_TOL = 1e-5       # one-sided slopes at step 1e-4 against +-m*
WIDTH_BOUND = 1e-3     # tangent widths on the smooth entropy surface


@dataclass
class Tally:
    """Attempted and failed operations, with the first failures for the log."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.fail(1, what)

    def fail(self, count: int, what: str, attempted: bool = False):
        """Count ``count`` failed operations; ``attempted`` adds them to the
        attempted total too (for rows that were never checked one by one)."""
        if attempted:
            self.attempted += count
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(what)


def read_csv(path: Path) -> list[dict]:
    """Rows of a thermolab CSV artifact ('#' header lines skipped)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _close(value: str, ref: float, tol: float) -> bool:
    x = float(value)
    return math.isfinite(x) and abs(x - ref) <= tol


def _sweep(params: dict) -> list[tuple]:
    """(theta0, theta1) pairs in the CLI's sweep order: theta0 outer."""
    return [(t0, t1) for t0 in params["theta0"] for t1 in params["theta1"]]


def binary_entropy(m: np.ndarray) -> np.ndarray:
    """eta(m), the entropy of a spin with polarization m, in nats."""
    out = np.zeros_like(np.asarray(m, dtype=float))
    for w in ((1.0 + np.asarray(m)) / 2.0, (1.0 - np.asarray(m)) / 2.0):
        live = w > 0.0
        out[live] -= w[live] * np.log(w[live])
    return out


# -- pressure-chain: periodic Ising chain, transfer matrix ------------------


def ising_transfer_eigenvalues(K: float, H: float) -> tuple[float, float]:
    """Eigenvalues of [[e^(K+H), e^-K], [e^-K, e^(K-H)]]."""
    a = math.exp(K) * math.cosh(H)
    b = math.sqrt(math.exp(2.0 * K) * math.sinh(H) ** 2 + math.exp(-2.0 * K))
    return a + b, a - b


def _expect_pressure_chain(p: dict) -> list[tuple]:
    rows = []
    for t0, t1 in _sweep(p):
        # exp(-theta.Q) = exp(K sum s_i s_i+1 + H sum s_i)
        lp, lm = ising_transfer_eigenvalues(t0 * p["J"], t0 * p["h"] - t1)
        for n in p["sizes"]:
            phi = math.log(lp) + math.log1p((lm / lp) ** n) / n
            rows.append((t0, t1, n, phi, math.log(lp)))
    return rows


def _check_pressure_chain(exp, expected, out: Path, tally: Tally):
    got = read_csv(out / "pressure.csv")
    for i, (t0, t1, n, phi, limit) in enumerate(expected):
        row = got[i] if i < len(got) else None
        ok = (row is not None
              and float(row["theta_0"]) == t0 and float(row["theta_1"]) == t1
              and int(row["N"]) == n
              and _close(row["phi_N"], phi, PHI_TOL)
              and _close(row["value"], limit, LIMIT_TOL)
              and float(row["extrapolation_error"]) >= 0.0)
        tally.check(ok, f"pressure-chain row {i}: {row} vs phi={phi!r} limit={limit!r}")
    _check_no_extra(got, expected, "pressure.csv", tally)


# -- pressure-dense: open transverse-field chain, free fermions -------------


def free_fermion_pressure(theta0: float, n: int, J: float, hx: float) -> float:
    """phi_N = N^-1 sum_k ln 2cosh(theta0 eps_k), eps_k the singular values of
    the bidiagonal matrix with hx on the diagonal and J above it."""
    b = np.diag(np.full(n, hx)) + np.diag(np.full(n - 1, J), 1)
    x = theta0 * np.linalg.svd(b, compute_uv=False)
    return float(np.sum(x + np.log1p(np.exp(-2.0 * x)))) / n


def affine_intercept(sizes, phis) -> float:
    """Intercept of the least-squares line through (1/N, phi_N)."""
    x = 1.0 / np.asarray(sizes, dtype=float)
    y = np.asarray(phis, dtype=float)
    slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    return float(y.mean() - slope * x.mean())


def _expect_pressure_dense(p: dict) -> list[tuple]:
    rows = []
    for t0 in p["theta0"]:
        phis = [free_fermion_pressure(t0, n, p["J"], p["hx"]) for n in p["sizes"]]
        limit = affine_intercept(p["sizes"], phis)
        rows.extend((t0, n, phi, limit) for n, phi in zip(p["sizes"], phis))
    return rows


def _check_pressure_dense(exp, expected, out: Path, tally: Tally):
    got = read_csv(out / "pressure.csv")
    for i, (t0, n, phi, limit) in enumerate(expected):
        row = got[i] if i < len(got) else None
        ok = (row is not None
              and float(row["theta_0"]) == t0 and int(row["N"]) == n
              and _close(row["phi_N"], phi, PHI_TOL)
              and _close(row["value"], limit, LIMIT_TOL)
              and float(row["extrapolation_error"]) >= 0.0)
        tally.check(ok, f"pressure-dense row {i}: {row} vs phi={phi!r} limit={limit!r}")
    _check_no_extra(got, expected, "pressure.csv", tally)


# -- kms: residual rows against a fixed bound --------------------------------


def _expect_kms(p: dict, seed: int) -> dict:
    probes = [("sx@0", "sy@0"), ("sz@0", "sx@0"), (f"random#{seed}", "sx@0")]
    pointwise = [(t0, t1, a, b, t) for t0, t1 in _sweep(p)
                 for t in p["times"] for a, b in probes]
    smeared = []
    if p["sigma_w"] > 0:
        smeared = [(t0, t1, a, b) for t0, t1 in _sweep(p)
                   for a, b in probes[:p["smeared_probes"]]]
    return {"pointwise": pointwise, "smeared": smeared}


def _residual_ok(row, n: int, t0: float, t1: float, a: str, b: str) -> bool:
    res = float(row["residual"])
    return (row["model"] == "ising_chain" and int(row["N"]) == n
            and float(row["theta_0"]) == t0 and float(row["theta_1"]) == t1
            and row["A"] == a and row["B"] == b
            and 0.0 <= res <= RESIDUAL_BOUND)


def _check_kms(exp, expected, out: Path, tally: Tally):
    n = exp.params["N"]
    got = read_csv(out / "residuals.csv")
    for i, (t0, t1, a, b, t) in enumerate(expected["pointwise"]):
        row = got[i] if i < len(got) else None
        ok = (row is not None and _residual_ok(row, n, t0, t1, a, b)
              and float(row["t"]) == t)
        tally.check(ok, f"{exp.name} residual row {i}: {row}")
    _check_no_extra(got, expected["pointwise"], "residuals.csv", tally)
    if not expected["smeared"]:
        return
    got = read_csv(out / "smeared.csv")
    for i, (t0, t1, a, b) in enumerate(expected["smeared"]):
        row = got[i] if i < len(got) else None
        ok = (row is not None and _residual_ok(row, n, t0, t1, a, b)
              and float(row["sigma_w"]) == exp.params["sigma_w"]
              and 0.0 < float(row["quadrature_step"]) < math.inf)
        tally.check(ok, f"{exp.name} smeared row {i}: {row}")
    _check_no_extra(got, expected["smeared"], "smeared.csv", tally)


# -- mean field: Curie-Weiss fixed point and product-state entropy ----------


def mean_field_magnetization(theta0: float, theta1: float) -> float:
    """The maximizing solution of m = tanh(theta0 m - theta1), by bisection.

    For theta1 != 0 the global maximum sits on the branch with the sign of
    -theta1; at theta1 = 0 both signs tie and the positive one is returned.
    """
    sign = -1.0 if theta1 > 0 else 1.0

    def g(u):  # positive below the root u = |m| on the favoured branch
        return sign * math.tanh(theta0 * sign * u - theta1) - u

    lo, hi = 0.0, 1.0
    if theta1 == 0.0:
        if theta0 <= 1.0:
            return 0.0
        lo = 1e-12  # skip the unstable root m = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return sign * 0.5 * (lo + hi)


def mean_field_pressure(theta0: float, theta1: float) -> float:
    """sup_m eta(m) + theta0 m^2 / 2 - theta1 m (Curie-Weiss, J = 1, h = 0)."""
    m = mean_field_magnetization(theta0, theta1)
    return float(binary_entropy(np.array(m))) + theta0 * m * m / 2.0 - theta1 * m


def _grid_points(m_max: float, spacing: float) -> int:
    return 2 * int(round(m_max / spacing)) + 1


def _expect_diff_test(p: dict) -> dict:
    m_star = mean_field_magnetization(p["theta0"], 0.0)
    scan = [(t1, mean_field_pressure(p["theta0"], t1)) for t1 in p["theta1_values"]]
    return {"m_star": m_star, "scan": scan,
            "widths": _grid_points(p["m_max"], p["m_spacing"])}


def _check_diff_test(exp, expected, out: Path, tally: Tally):
    p = exp.params
    spacing, m_max = p["m_spacing"], p["m_max"]
    got = read_csv(out / "tangent_widths.csv")
    # The sweep covers [-m_max, m_max] at m_spacing. An endpoint may fall
    # just outside m_max by float drift of the CLI's internal np.arange, so
    # one missing endpoint row is accepted; every row present is checked.
    missing = expected["widths"] - len(got)
    if not 0 <= missing <= 1:
        tally.fail(max(missing, 1), f"tangent_widths.csv has {len(got)} rows, "
                   f"expected {expected['widths']}", attempted=True)
    start = -m_max if abs(float(got[0]["q_1"]) + m_max) < spacing / 2 else -m_max + spacing
    for i, row in enumerate(got):
        m = float(row["q_1"])
        widths = (float(row["width_0"]), float(row["width_1"]))
        ok = (abs(m - (start + i * spacing)) <= 1e-9
              and abs(float(row["q_0"]) + m * m / 2.0) <= 1e-12
              and min(widths) >= 0.0 and float(row["max_width"]) == max(widths)
              and max(widths) < WIDTH_BOUND)
        tally.check(ok, f"tangent width row {i}: {row}")

    kink = read_csv(out / "pressure_kink.csv")
    m_star = expected["m_star"]
    ok = (len(kink) == 1 and float(kink[0]["theta_0"]) == p["theta0"]
          and _close(kink[0]["left_slope"], -m_star, SLOPE_TOL)
          and _close(kink[0]["right_slope"], m_star, SLOPE_TOL)
          and _close(kink[0]["gap"], 2.0 * m_star, 2.0 * SLOPE_TOL))
    tally.check(ok, f"pressure kink {kink} vs 2m*={2.0 * m_star!r}")

    got = read_csv(out / "pressure_scan.csv")
    for i, (t1, phi) in enumerate(expected["scan"]):
        row = got[i] if i < len(got) else None
        ok = (row is not None and float(row["theta_1"]) == t1
              and _close(row["value"], phi, ENTROPY_TOL))
        tally.check(ok, f"pressure scan row {i}: {row} vs {phi!r}")
    _check_no_extra(got, expected["scan"], "pressure_scan.csv", tally)


def _expect_legendre(p: dict) -> dict:
    e = np.sort(np.asarray(p["e_values"], dtype=float))
    s = binary_entropy(np.sqrt(-2.0 * e / p["J"]))  # both +-m give this entropy
    # conjugate of the sampled concave curve: the best sample, phi = max s - theta e
    pressure = [(t0, float(np.max(s - t0 * e))) for t0 in p["theta0"]]
    return {"curve": list(zip(e.tolist(), s.tolist())), "pressure": pressure}


def _check_legendre(exp, expected, out: Path, tally: Tally):
    got = read_csv(out / "pressure_curve.csv")
    for i, (t0, phi) in enumerate(expected["pressure"]):
        row = got[i] if i < len(got) else None
        ok = (row is not None and float(row["theta_0"]) == t0
              and _close(row["value"], phi, ENTROPY_TOL))
        tally.check(ok, f"legendre pressure row {i}: {row} vs {phi!r}")
    _check_no_extra(got, expected["pressure"], "pressure_curve.csv", tally)

    # the entropy curve is concave, so its biconjugate must give it back
    got = read_csv(out / "biconjugate.csv")
    for i, (e, s) in enumerate(expected["curve"]):
        row = got[i] if i < len(got) else None
        ok = row is not None and float(row["q_0"]) == e and _close(row["value"], s, ENTROPY_TOL)
        tally.check(ok, f"biconjugate row {i}: {row} vs eta={s!r}")
    _check_no_extra(got, expected["curve"], "biconjugate.csv", tally)
    summary = json.loads((out / "manifest.json").read_text()).get("summary", {})
    defect = summary.get("biconjugate_max_defect", math.inf)
    tally.check(0.0 <= defect <= ENTROPY_TOL, f"biconjugate_max_defect {defect}")


def _expect_completeness(p: dict) -> list[tuple]:
    # below the critical energy the +-m pair ties: two maximizers, Incomplete
    out = []
    for e in p["e_values"]:
        m = math.sqrt(-2.0 * e / p["J"])
        out.append((e, m, float(binary_entropy(np.array(m)))))
    return out


def _check_completeness(exp, expected, out: Path, tally: Tally):
    payload = json.loads((out / "completeness.json").read_text())
    records = payload.get("records", [])
    for i, (e, m, s) in enumerate(expected):
        rec = records[i] if i < len(records) else None
        ok = (rec is not None and rec["constraint"] == {"0": e}
              and rec["multiplicity"] == 2 and rec["verdict"] == "Incomplete"
              and len(rec["maximizers"]) == 2
              and abs(rec["maximizers"][0] + m) <= ENTROPY_TOL
              and abs(rec["maximizers"][1] - m) <= ENTROPY_TOL
              and abs(rec["s"] - s) <= ENTROPY_TOL)
        tally.check(ok, f"completeness record {i}: {rec} vs m={m!r} s={s!r}")
    _check_no_extra(records, expected, "completeness.json records", tally)
    tally.check(payload.get("verdict") == "Incomplete",
                f"completeness verdict {payload.get('verdict')!r}")


def _check_no_extra(got: list, expected: list, what: str, tally: Tally):
    if len(got) > len(expected):
        extra = len(got) - len(expected)
        tally.fail(extra, f"{what}: {extra} unexpected rows", attempted=True)


# -- dispatch -----------------------------------------------------------------


def expectations(exp, seed: int):
    """Reference values for one experiment; computed once per benchmark run."""
    if exp.kind == "kms":
        return _expect_kms(exp.params, seed)
    return _EXPECT[exp.kind](exp.params)


def expected_ops(exp, expected) -> int:
    """Operations an experiment would have produced; all fail if it raised."""
    if exp.kind == "kms":
        return len(expected["pointwise"]) + len(expected["smeared"])
    if exp.kind == "diff-test":
        return expected["widths"] + 1 + len(expected["scan"])
    if exp.kind == "legendre":
        return len(expected["pressure"]) + len(expected["curve"]) + 1
    if exp.kind == "completeness":
        return len(expected) + 1
    return len(expected)


def check(exp, expected, out_dir: Path, tally: Tally):
    """Check one experiment's artifacts in ``out_dir`` against its reference."""
    before = tally.attempted
    try:
        _CHECK[exp.kind](exp, expected, Path(out_dir), tally)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        # unreadable or malformed artifacts: whatever was not checked failed
        left = max(expected_ops(exp, expected) - (tally.attempted - before), 1)
        tally.fail(left, f"{exp.name}: unreadable artifacts ({exc!r})", attempted=True)


_EXPECT = {
    "pressure-chain": _expect_pressure_chain,
    "pressure-dense": _expect_pressure_dense,
    "diff-test": _expect_diff_test,
    "legendre": _expect_legendre,
    "completeness": _expect_completeness,
}
_CHECK = {
    "pressure-chain": _check_pressure_chain,
    "pressure-dense": _check_pressure_dense,
    "kms": _check_kms,
    "diff-test": _check_diff_test,
    "legendre": _check_legendre,
    "completeness": _check_completeness,
}
