"""Experiment orchestration: configs in, CSV/JSON artifacts plus manifest out.

Configs are plain-text ``key = value`` lines, read by :mod:`.config`. Each
runner reads every key it needs and calls ``Config.finalize`` before its
first solve, so a key no reader takes costs no computation; an output
directory that could not be made is refused before the runner starts. Every
artifact carries its seed and config echo in '#' header lines; reruns with
the same config and seed produce byte-identical files except for the
``# generated=<timestamp>`` line. Results of sweep points are written in
sweep order regardless of worker completion order.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .completeness import (
    ErgodicFamily,
    completeness_verdict,
    entropy_curve,
    family_curve_constraints,  # noqa: F401  (kept in cli; the runners pass arrays)
    mean_field_pressure,
    pressure_slope_gap,
)
# callers import Config and _parse_number_list from here too
from .config import Config, _decimal_range, _decimals, _parse_number_list  # noqa: F401
from .convex import CurveSamples, biconjugate, conjugate, float_body, tangent_set
from .errors import ConfigError, ThermolabError, UsageError
from .gibbs import pressure_limit, release_families
from .kms import (
    DEFAULT_PROBE_PAIRS,
    MAX_QUADRATURE_STEP,
    GaussianTestFunction,
    check_quadrature_length,
    default_probes,
    default_quadrature_step,
    kms_residual,
    kms_smeared_residual,
    release_folds,
)
from .lattice import ModelSpec, build_model

class ArtifactWriter:
    """Buffered single writer: runners queue rendered artifacts, flush writes them.

    Runners finalize their config before the first solve, so an artifact is
    rendered when queued and its CSV header carries the complete config echo
    and the seed. The flush makes the output directory, so a run that fails
    leaves none behind.
    """

    def __init__(self, out_dir: Path, seed: int, cfg: Config):
        self.out_dir = out_dir
        self.seed = seed
        self.cfg = cfg
        self.pending: list[tuple[str, str]] = []  # (file name, text)
        self.records: list[dict] = []

    def _queue(self, name: str, kind: str, rows: int, text: str):
        self.pending.append((name, text))
        self.records.append({"path": name, "kind": kind, "rows": rows})

    def write_csv(self, name: str, columns: list[str], lines: list[str]):
        """Queue a CSV of ``_line`` body lines, one per row."""
        self._queue_csv(name, columns, len(lines), "\n".join([*lines, ""]))

    def write_table(self, name: str, columns: list[str], table):
        """Queue a CSV of an all-float (rows, cols) table, one row per line."""
        self._queue_csv(name, columns, len(table), float_body(table))

    def _queue_csv(self, name: str, columns: list[str], rows: int, body: str):
        self._queue(name, "csv", rows, "".join([self._header(), ",".join(columns), "\n", body]))

    def write_curve(self, name: str, curve: CurveSamples):
        """Queue a curve's CSV; its seed is the run header's."""
        self._queue(name, "curve_csv", curve.npoints, self._header() + curve.to_csv())

    def write_json(self, name: str, payload, rows: int):
        self._queue(name, "json", rows, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def _header(self) -> str:
        lines = [
            f"# generated={datetime.datetime.now(datetime.timezone.utc).isoformat()}",
            f"# thermolab={__version__}",
            f"# seed={self.seed}",
        ]
        lines.extend(f"# {k}={v}" for k, v in self.cfg.echo().items())
        return "\n".join(lines) + "\n"

    def flush(self):
        """Make the output directory and write the queued artifacts."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.pending:
            (self.out_dir / name).write_text(text)


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _line(row) -> str:
    """One CSV body line of a mixed row: floats by ``repr``, the rest by ``str``."""
    return ",".join(map(_cell, row))


def _pool_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    # imported here: a one-thread run never pays for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _chunks(items: list, parts: int) -> list[list]:
    """items cut into at most ``parts`` contiguous runs, in order, whose
    lengths differ by at most one; none when items is empty."""
    count = len(items)
    parts = min(max(parts, 1), count)
    return [items[count * k // parts:count * (k + 1) // parts] for k in range(parts)]


def _theta_grid(cfg: Config, n_components: int) -> list[tuple]:
    theta0 = cfg.get_floats("theta0", required=True)
    if n_components == 1:
        return [(t0,) for t0 in theta0]
    theta1 = cfg.get_floats("theta1", [0.0])
    return [(t0, t1) for t0 in theta0 for t1 in theta1]


# -- subcommand runners ----------------------------------------------------


def _run_pressure(cfg: Config, writer: ArtifactWriter, threads: int):
    spec = ModelSpec.from_config(cfg)
    sizes = cfg.get_ints("sizes")
    fit = cfg.get_str("fit", "affine", choices=("affine", "geometric"))
    thetas = _theta_grid(cfg, spec.n_observables)
    cfg.finalize()

    # one stacked pressure_limit call per thread's contiguous chunk of the
    # grid; the chunks share each size's family through the memo. A run keeps
    # its families for its own thetas only (run_experiment drops them), so
    # every run pays for (and its trace shows) the builds it needs
    chunks = _pool_map(lambda rows: pressure_limit(spec, rows, sizes, fit=fit),
                       _chunks(thetas, threads), threads)
    estimates = [est for chunk in chunks for est in chunk]
    columns = [f"theta_{k}" for k in range(spec.n_observables)]
    columns += ["N", "phi_N", "value", "extrapolation_error"]
    lines = []
    for th, est in zip(thetas, estimates):
        # cells shared by the theta's size rows are rendered once; N is an
        # int and phi_N a float, so their cells are str and repr
        head = _line(th)
        tail = _line((est.value, est.extrapolation_error))
        lines.extend(f"{head},{n},{phi!r},{tail}" for n, phi in est.per_size)
    writer.write_csv("pressure.csv", columns, lines)
    return {}


def _constraints_from_config(cfg: Config, family: ErgodicFamily, mode: str):
    """(targets, components), as ``constrain`` (default ``mode``) asks: the
    energy (component 0) at ``e_values`` as a (P, 1) column, or the family
    curve at ``m_values`` as a (P, n) array; each row is also a constraint."""
    mode = cfg.get_str("constrain", mode, choices=("energy", "joint"))
    if mode == "energy":
        return np.array(cfg.get_floats("e_values", required=True))[:, None], (0,)
    return (family.densities(cfg.get_floats("m_values", required=True)),
            tuple(range(family.n_components)))


def _run_entropy_curve(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(ModelSpec.from_config(cfg))
    targets, comps = _constraints_from_config(cfg, family, "joint")
    cfg.finalize()
    curve = entropy_curve(family, targets, components=comps)
    writer.write_curve("entropy_curve.csv", curve)
    return {}


def _run_legendre(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(ModelSpec.from_config(cfg))
    targets, comps = _constraints_from_config(cfg, family, "joint")
    # the curve's coordinates are the constrained components
    thetas = _theta_grid(cfg, len(comps))
    cfg.finalize()
    curve = entropy_curve(family, targets, components=comps)
    # both are GIL-bound (microseconds of numpy, a pure-Python bisection), so
    # threads could not overlap them
    scan = curve.ndim == family.n_components
    results = [(conjugate(curve, th), mean_field_pressure(family, th) if scan else math.nan)
               for th in thetas]
    columns = [f"theta_{k}" for k in range(curve.ndim)] + ["value", "scan_value"]
    writer.write_table("pressure_curve.csv", columns, np.hstack([thetas, results]))

    extras = {}
    if curve.axes() is not None:
        # chain-of-samples grids (joint curves) have no product structure to
        # conjugate back onto; the round trip is emitted where it is defined
        hull = biconjugate(curve)
        hull.metadata["roundtrip"] = "biconjugate"
        writer.write_curve("biconjugate.csv", hull)
        extras["biconjugate_max_defect"] = float(np.max(np.abs(hull.values - curve.values)))
    return extras


def _run_completeness(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(ModelSpec.from_config(cfg))
    tol = cfg.get_float("tol", 1e-9, positive=True)
    targets, _ = _constraints_from_config(cfg, family, "energy")
    cfg.finalize()
    report = completeness_verdict(family, targets, tol=tol)
    payload = {
        "verdict": report.verdict,
        "witness": report.witness.to_json_dict(),
        "records": [r.to_json_dict(report.verdict) for r in report.records],
        "family": family.kind,
        "model": family.model.config_echo(),
    }
    writer.write_json("completeness.json", payload, rows=len(report.records))
    return {"verdict": report.verdict}


def _run_kms_verify(cfg: Config, writer: ArtifactWriter, threads: int):
    spec = ModelSpec.from_config(cfg)
    n = cfg.get_int("N", required=True)
    thetas = _theta_grid(cfg, spec.n_observables)
    times = cfg.get_floats("times", [0.0, 0.7, 2.3])
    seed = int(writer.seed)
    sigma_w = cfg.get_float("sigma_w", 2.0)
    smeared_pairs = cfg.get_int("smeared_probes", 1)
    cfg.finalize()
    if sigma_w < 0.0:  # 0 is the one way to write no smeared rows
        raise cfg.error(f"expected a finite width >= 0, got {sigma_w!r}", "sigma_w")
    if not 1 <= smeared_pairs <= DEFAULT_PROBE_PAIRS:
        raise cfg.error(f"expected 1 to {DEFAULT_PROBE_PAIRS} pairs, got {smeared_pairs}",
                        "smeared_probes")
    if sigma_w > 0:
        f = GaussianTestFunction(sigma_w)
        # no default step exceeds the cap, so a grid too long at the cap is
        # too long at every theta: refused before any probe is built
        check_quadrature_length(f.support_radius(), MAX_QUADRATURE_STEP)

    family = build_model(spec, spec.region(n))
    # the distinct (A, B) pairs, in probe order; every pair comes at every time
    pairs = list(dict.fromkeys((a, b) for a, b, _ in default_probes(family, seed, times)))
    cols = ["model", "N"] + [f"theta_{k}" for k in range(spec.n_observables)]
    cols += ["A", "B", "t", "residual"]

    # one serial pass over theta (a thread pool slowed every shipped kms
    # config). Each probe pair is folded once and shared by every theta and t,
    # pointwise and smeared; run_experiment drops the folds when the run ends
    rows, smeared_rows = [], []
    for th in thetas:
        head = (spec.kind, n) + tuple(th)
        # one stacked call per pair; rows are time-major, as default_probes' are
        res = [kms_residual(family, th, a, b, times).tolist() for a, b in pairs]
        rows += [head + (a.label, b.label, t, r[k])
                 for k, t in enumerate(times) for (a, b), r in zip(pairs, res)]
        if sigma_w > 0:
            step = default_quadrature_step(family, th, f)
            smeared_rows += [head + (a.label, b.label, math.nan,
                                     kms_smeared_residual(family, th, a, b, f, step=step),
                                     sigma_w, step) for a, b in pairs[:smeared_pairs]]
    writer.write_csv("residuals.csv", cols, [_line(row) for row in rows])
    if sigma_w > 0:
        writer.write_csv("smeared.csv", cols + ["sigma_w", "quadrature_step"],
                         [_line(row) for row in smeared_rows])
    worst = max([r[-1] for r in rows] + [r[-3] for r in smeared_rows], default=0.0)
    return {"max_residual": worst}


def _run_diff_test(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(ModelSpec.from_config(cfg))
    theta0 = cfg.get_float("theta0", required=True)
    step = cfg.get_float("kink_step", 1e-4, positive=True)
    spacing = cfg.get_float("m_spacing", 1e-3, positive=True)
    m_max = cfg.get_float("m_max", 0.97)
    theta1_values = cfg.get_floats("theta1_values", None)
    cfg.finalize()
    if theta1_values and family.n_components == 1:
        raise cfg.error(f"model {family.model.kind} has one control component, "
                        "so there is no theta_1 to scan", "theta1_values")
    # one-sided pressure slopes across the symmetry-breaking control value,
    # first: a kink_step too small to read a kink is refused before the curve
    base = [theta0] + [0.0] * (family.n_components - 1)
    component = family.n_components - 1
    gap = pressure_slope_gap(family, base, component=component, step=step)

    # smoothness of the entropy surface along the family curve; the sweep is
    # padded two steps so every reported point has full two-interval stencils
    decimals = max(_decimals(repr(x)) for x in (m_max, spacing))
    edge = round(m_max + 2.0 * spacing, decimals)
    if not (m_max >= 0.0 and edge <= 1.0):
        raise cfg.error(f"the padded sweep m_max + 2 * m_spacing = {edge!r} "
                        "must lie in [0, 1]", "m_max")
    try:
        m_values = _decimal_range(-edge, edge, spacing, decimals)
    except ValueError as exc:
        raise cfg.error(str(exc), "m_spacing") from None
    densities = family.densities(m_values)
    curve = entropy_curve(family, densities)
    # rows are picked by the sweep's m, not by a density column (free spins
    # have only (1 - m)/2). Some density of every family is strictly monotone
    # in m, so the box around the window's densities holds exactly its points.
    window = densities[np.abs(m_values) <= m_max]
    reported = np.all((curve.grid >= window.min(axis=0))
                      & (curve.grid <= window.max(axis=0)), axis=1)
    inner = np.flatnonzero(reported[2:curve.npoints - 2]) + 2
    widths = np.empty((0, 2 * curve.ndim + 1))
    if inner.size:
        ts = tangent_set(curve, curve.grid[inner])
        widths = np.column_stack([ts.point, ts.width, ts.max_width])
    coord_cols = [f"q_{k}" for k in range(curve.ndim)]
    width_cols = [f"width_{k}" for k in range(curve.ndim)]
    writer.write_table("tangent_widths.csv", coord_cols + width_cols + ["max_width"], widths)
    max_tangent_width = max(widths[:, -1].tolist(), default=0.0)
    # a large width along a density strictly monotone in m means a kink; along
    # one that turns back (q_0 at its vertex) the width is large on a smooth curve
    chart = next(k for k, (a, b, _) in enumerate(map(family.component_coefficients,
                                                      range(family.n_components)))
                 if b != 0.0 and abs(b) >= 2.0 * abs(a))
    max_chart_width = max(widths[:, curve.ndim + chart].tolist(), default=0.0)

    writer.write_csv(
        "pressure_kink.csv",
        ["theta_0", "component", "step", "left_slope", "right_slope", "gap"],
        [_line((theta0, component, step, gap.left, gap.right, gap.gap))],
    )

    if theta1_values:
        head = [theta0] + [0.0] * (family.n_components - 2)
        phis = [mean_field_pressure(family, head + [t1]) for t1 in theta1_values]
        writer.write_table("pressure_scan.csv", ["theta_1", "value"],
                           np.column_stack([theta1_values, phis]))

    return {
        "pressure_kink": {
            "theta_0": theta0,
            "left_slope": gap.left,
            "right_slope": gap.right,
            "gap": gap.gap,
        },
        "max_tangent_width": max_tangent_width,
        "chart_component": chart,
        "max_chart_width": max_chart_width,
    }


_RUNNERS = {
    "pressure": _run_pressure,
    "entropy-curve": _run_entropy_curve,
    "legendre": _run_legendre,
    "completeness": _run_completeness,
    "kms-verify": _run_kms_verify,
    "diff-test": _run_diff_test,
}
SUBCOMMANDS = tuple(_RUNNERS)


def _check_out_dir(out: Path) -> None:
    """Refuse an output directory that the flush could not make or write
    into, before any solve: the nearest existing one of ``out`` and its
    ancestors must be a writable directory, so ``out`` is a directory or does
    not exist yet. Creates nothing."""
    ancestor = out
    while not ancestor.exists() and ancestor.parent != ancestor:
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise UsageError(f"output directory {str(out)!r} cannot be made: "
                         f"{str(ancestor)!r} is not a writable directory")


def run_experiment(subcommand: str, config_path, out_dir, seed: int = 0,
                   threads: int = 1) -> dict:
    """Run one experiment and return its manifest (also written to disk)."""
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    if threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads}")
    start = time.monotonic()
    out = Path(out_dir)
    _check_out_dir(out)
    cfg = Config.load(config_path)
    writer = ArtifactWriter(out, seed, cfg)
    try:
        extras = _RUNNERS[subcommand](cfg, writer, threads)
    finally:
        # the build-once memos (families, folds, rotations) live for one run
        release_families()
        release_folds()
    writer.flush()

    manifest = {
        "subcommand": subcommand,
        "config": cfg.echo(),
        "seed": seed,
        "artifacts": writer.records,
        "wall_ms": int((time.monotonic() - start) * 1000),
    }
    if extras:
        manifest["summary"] = extras
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def main(argv=None) -> int:
    # imported here: library callers of run_experiment never pay for argparse
    import argparse

    parser = argparse.ArgumentParser(
        prog="thermolab",
        description="Thermodynamics experiments on finite lattice models.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="key=value experiment config")
    parser.add_argument("--out", default="thermolab_out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="theta threads for pressure (the others run serially)")
    args = parser.parse_args(argv)

    try:
        manifest = run_experiment(args.subcommand, args.config, args.out,
                                  seed=args.seed, threads=args.threads)
    except (ThermolabError, OSError) as exc:
        print(f"thermolab: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0
