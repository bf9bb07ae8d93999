"""Experiment orchestration: configs in, CSV/JSON artifacts plus manifest out.

Configs are plain-text ``key = value`` lines ('#' starts a comment). Every
artifact carries its seed and config echo in '#' header lines; reruns with
the same config and seed produce byte-identical files except for the
``# generated=<timestamp>`` line. Results of sweep points are written in
sweep order regardless of worker completion order.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .completeness import (
    ErgodicFamily,
    completeness_verdict,
    entropy_curve,
    family_curve_constraints,
    mean_field_pressure,
    pressure_slope_gap,
)
from .convex import CurveSamples, biconjugate, conjugate, tangent_set
from .errors import ConfigError, ThermolabError
from .gibbs import pressure_limit, release_families
from .kms import (
    GaussianTestFunction,
    default_probes,
    default_quadrature_step,
    kms_residual,
    kms_smeared_residual,
    release_folds,
)
from .lattice import MODEL_KINDS, ModelSpec, build_model

# Longest list a lo:hi:step range may expand to.
MAX_RANGE_POINTS = 10**6

SUBCOMMANDS = ("pressure", "entropy-curve", "legendre", "completeness",
               "kms-verify", "diff-test")


class Config:
    """key=value config with typed access and unused-key detection."""

    def __init__(self, entries: dict, source: str = "<config>"):
        self.entries = entries  # key -> (raw value, line number)
        self.source = source
        self.consumed: dict = {}

    @classmethod
    def load(cls, path) -> "Config":
        entries: dict = {}
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError("empty key", line=lineno)
            if key in entries:
                raise ConfigError("duplicate key", key=key, line=lineno)
            entries[key] = (value, lineno)
        return cls(entries, str(path))

    def _take(self, key: str, required: bool):
        if key not in self.entries:
            if required:
                raise ConfigError("missing required key", key=key)
            return None
        value, _ = self.entries[key]
        self.consumed[key] = value
        return value

    def get_str(self, key: str, default: str | None = None, required: bool = False,
                choices=None) -> str | None:
        value = self._take(key, required)
        if value is None:
            value = default
        if value is not None and choices and value not in choices:
            raise ConfigError(f"value {value!r} not in {sorted(choices)}",
                              key=key, line=self._line(key))
        return value

    def get_float(self, key: str, default=None, required: bool = False,
                  positive: bool = False):
        value = self._take(key, required)
        if value is None:
            return default
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"cannot parse {value!r} as a number",
                              key=key, line=self._line(key)) from None
        if positive and not 0.0 < number < math.inf:
            raise ConfigError(f"expected a positive finite number, got {value!r}",
                              key=key, line=self._line(key))
        return number

    def get_int(self, key: str, default=None, required: bool = False):
        value = self._take(key, required)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"cannot parse {value!r} as an integer",
                              key=key, line=self._line(key)) from None

    def get_floats(self, key: str, default=None, required: bool = False):
        value = self._take(key, required)
        if value is None:
            return default
        try:
            return _parse_number_list(value)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=self._line(key)) from None

    def get_ints(self, key: str):
        """A required list of integers (see ``_parse_number_list``)."""
        floats = self.get_floats(key, required=True)
        if not all(math.isfinite(x) for x in floats):
            raise ConfigError("expected finite integers", key=key, line=self._line(key))
        ints = [int(round(x)) for x in floats]
        if any(abs(i - x) > 1e-9 for i, x in zip(ints, floats)):
            raise ConfigError("expected integers", key=key, line=self._line(key))
        return ints

    def _line(self, key: str):
        return self.entries[key][1] if key in self.entries else None

    def finalize(self):
        unused = sorted(set(self.entries) - set(self.consumed))
        if unused:
            key = unused[0]
            raise ConfigError("unknown key", key=key, line=self._line(key))

    def echo(self) -> dict:
        return dict(sorted(self.consumed.items()))


def _parse_number_list(text: str) -> list[float]:
    """Scalars, comma lists, and lo:hi[:step] inclusive ranges (see
    ``_decimal_range``)."""
    text = text.strip()
    if "," in text:
        numbers = [float(tok) for tok in text.split(",") if tok.strip()]
        if not numbers:
            raise ValueError(f"no numbers in the list {text!r}")
        return numbers
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise ValueError(f"bad range {text!r}")
        lo, hi, step = (float(p) for p in parts)
        return _decimal_range(lo, hi, step, max(_decimals(p) for p in parts))
    return [float(text)]


def _decimal_range(lo: float, hi: float, step: float, decimals: int) -> list[float]:
    """lo, lo + step, ... up to hi inclusive, each point rounded to ``decimals``.

    Rounding to the most decimals among lo, hi and step makes
    ``-0.1:0.1:0.01`` pass through 0 exactly and ``0:0.3:0.1`` end at 0.3;
    no point lies past hi. Bad bounds and ranges of over MAX_RANGE_POINTS
    points raise ValueError before any point is built.
    """
    text = f"{lo!r}:{hi!r}:{step!r}"
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"range bounds must be finite in {text}")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range bounds {text}")
    if (hi - lo) / step >= MAX_RANGE_POINTS:
        raise ValueError(f"range {text} has over {MAX_RANGE_POINTS} points")
    count = math.floor((hi - lo) / step + 0.5) + 1
    if round(lo + (count - 1) * step, decimals) > hi:
        count -= 1  # the span was rounded up to a whole step past hi
    # "+ 0.0" turns a rounded -0.0 into 0.0
    return [round(lo + k * step, decimals) + 0.0 for k in range(count)]


def _decimals(token: str) -> int:
    """Decimal places of a number token that float() accepts ("1.25e-1": 3)."""
    mantissa, _, exponent = token.lower().partition("e")
    return max(0, len(mantissa.partition(".")[2]) - int(exponent or 0))


def _model_from_config(cfg: Config) -> ModelSpec:
    kind = cfg.get_str("model", required=True, choices=MODEL_KINDS)
    return ModelSpec(
        kind,
        J=cfg.get_float("J", 0.0),
        h=cfg.get_float("h", 0.0),
        hx=cfg.get_float("hx", 0.0),
        boundary=cfg.get_str("boundary", "periodic", choices=("periodic", "open")),
    )


class ArtifactWriter:
    """Buffered single writer: runners queue artifacts, flush emits them.

    Flushing happens once the whole config has been consumed, so every CSV
    header carries the complete config echo alongside the seed.
    """

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = out_dir
        self.seed = seed
        self.pending: list[tuple] = []
        self.records: list[dict] = []

    def write_csv(self, name: str, columns: list[str], rows: list[tuple]):
        self.pending.append(("csv", name, columns, list(rows)))

    def write_curve(self, name: str, curve: CurveSamples):
        self.pending.append(("curve_csv", name, None, curve))

    def write_json(self, name: str, payload, rows: int):
        self.pending.append(("json", name, rows, payload))

    def _header(self, echo: dict) -> str:
        lines = [
            f"# generated={datetime.datetime.now(datetime.timezone.utc).isoformat()}",
            f"# thermolab={__version__}",
            f"# seed={self.seed}",
        ]
        lines.extend(f"# {k}={v}" for k, v in sorted(echo.items()))
        return "\n".join(lines) + "\n"

    def flush(self, echo: dict):
        for kind, name, extra, payload in self.pending:
            path = self.out_dir / name
            if kind == "csv":
                body = "".join([",".join(map(_cell, row)) + "\n" for row in payload])
                path.write_text(self._header(echo) + ",".join(extra) + "\n" + body)
                rows = len(payload)
            elif kind == "curve_csv":
                meta = dict(payload.metadata)
                meta["seed"] = self.seed
                body = CurveSamples(payload.grid, payload.values,
                                    payload.orientation, meta).to_csv()
                path.write_text(self._header(echo) + body)
                rows = payload.npoints
            else:
                path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
                rows = extra
            self.records.append({"path": name, "kind": kind, "rows": rows})
        self.pending.clear()


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _pool_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
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
    spec = _model_from_config(cfg)
    sizes = cfg.get_ints("sizes")
    fit = cfg.get_str("fit", "affine", choices=("affine", "geometric"))
    thetas = _theta_grid(cfg, spec.n_observables)

    # one stacked pressure_limit call per thread's contiguous chunk of the
    # grid; the chunks share each size's family through the memo. A run keeps
    # its families for its own thetas only, so every run pays for (and its
    # trace shows) the builds it needs
    try:
        chunks = _pool_map(lambda rows: pressure_limit(spec, rows, sizes, fit=fit),
                           _chunks(thetas, threads), threads)
    finally:
        release_families()
    estimates = [est for chunk in chunks for est in chunk]
    columns = [f"theta_{k}" for k in range(spec.n_observables)]
    columns += ["N", "phi_N", "value", "extrapolation_error"]
    rows = []
    for th, est in zip(thetas, estimates):
        # cells shared by the theta's size rows are rendered once
        head = tuple(_cell(x) for x in th)
        tail = (_cell(est.value), _cell(est.extrapolation_error))
        for n, phi in est.per_size:
            rows.append(head + (n, phi) + tail)
    writer.write_csv("pressure.csv", columns, rows)
    return {}


def _curve_from_config(cfg: Config, family: ErgodicFamily) -> CurveSamples:
    mode = cfg.get_str("constrain", "joint", choices=("energy", "joint"))
    if mode == "energy":
        e_values = cfg.get_floats("e_values", required=True)
        grid = [{0: e} for e in e_values]
    else:
        m_values = cfg.get_floats("m_values", required=True)
        grid = family_curve_constraints(family, m_values)
    return entropy_curve(family, grid)


def _run_entropy_curve(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(_model_from_config(cfg))
    curve = _curve_from_config(cfg, family)
    writer.write_curve("entropy_curve.csv", curve)
    return {}


def _run_legendre(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(_model_from_config(cfg))
    curve = _curve_from_config(cfg, family)
    thetas = _theta_grid(cfg, curve.ndim)

    def one(th):
        grid_value = conjugate(curve, th)
        scan_value = (
            mean_field_pressure(family, th) if curve.ndim == family.n_components
            else float("nan")
        )
        return grid_value, scan_value

    results = _pool_map(one, thetas, threads)
    columns = [f"theta_{k}" for k in range(curve.ndim)] + ["value", "scan_value"]
    rows = [tuple(th) + tuple(res) for th, res in zip(thetas, results)]
    writer.write_csv("pressure_curve.csv", columns, rows)

    extras = {}
    if curve.ndim == 1 or curve.axes() is not None:
        # chain-of-samples grids (joint curves) have no product structure to
        # conjugate back onto; the round trip is emitted where it is defined
        hull = biconjugate(curve)
        roundtrip = CurveSamples(
            curve.grid, hull.values, curve.orientation,
            dict(curve.metadata, roundtrip="biconjugate"),
        )
        writer.write_curve("biconjugate.csv", roundtrip)
        extras["biconjugate_max_defect"] = float(np.max(np.abs(hull.values - curve.values)))
    return extras


def _run_completeness(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(_model_from_config(cfg))
    mode = cfg.get_str("constrain", "energy", choices=("energy", "joint"))
    tol = cfg.get_float("tol", 1e-9, positive=True)
    if mode == "energy":
        constraints = [{0: e} for e in cfg.get_floats("e_values", required=True)]
    else:
        constraints = family_curve_constraints(
            family, cfg.get_floats("m_values", required=True)
        )
    report = completeness_verdict(family, constraints, tol=tol)
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
    spec = _model_from_config(cfg)
    n = cfg.get_int("N", required=True)
    family = build_model(spec, spec.region(n))
    thetas = _theta_grid(cfg, spec.n_observables)
    times = cfg.get_floats("times", [0.0, 0.7, 2.3])
    seed = int(writer.seed)
    sigma_w = cfg.get_float("sigma_w", 2.0)
    smeared_per_theta = cfg.get_int("smeared_probes", 1)

    probes = default_probes(family, seed, times)
    family.level_view()  # built here, so the theta threads share one eigensolve
    theta_cols = [f"theta_{k}" for k in range(spec.n_observables)]

    def residual_rows(th):
        rows = []
        for a, b, t in probes:
            res = kms_residual(family, th, a, b, t)
            rows.append((spec.kind, n) + tuple(th) + (a.label, b.label, t, res))
        return rows

    # each distinct probe pair is folded once and shared by every theta and t
    # (and by the smeared rows); the run drops its folds when it ends
    try:
        rows = [row for batch in _pool_map(residual_rows, thetas, threads) for row in batch]
        writer.write_csv("residuals.csv",
                         ["model", "N"] + theta_cols + ["A", "B", "t", "residual"], rows)

        smeared_rows = []
        if sigma_w > 0 and smeared_per_theta > 0:
            f = GaussianTestFunction(sigma_w)
            for th in thetas:
                step = default_quadrature_step(family, th, f)
                for a, b, _ in probes[:smeared_per_theta]:
                    res = kms_smeared_residual(family, th, a, b, f, step=step)
                    smeared_rows.append(
                        (spec.kind, n) + tuple(th)
                        + (a.label, b.label, float("nan"), res, sigma_w, step)
                    )
            writer.write_csv(
                "smeared.csv",
                ["model", "N"] + theta_cols
                + ["A", "B", "t", "residual", "sigma_w", "quadrature_step"],
                smeared_rows,
            )
    finally:
        release_folds()
    worst = max(
        [r[-1] for r in rows] + [r[-3] for r in smeared_rows], default=0.0
    )
    return {"max_residual": worst}


def _run_diff_test(cfg: Config, writer: ArtifactWriter, threads: int):
    family = ErgodicFamily(_model_from_config(cfg))
    theta0 = cfg.get_float("theta0", required=True)
    step = cfg.get_float("kink_step", 1e-4, positive=True)
    spacing = cfg.get_float("m_spacing", 1e-3, positive=True)
    m_max = cfg.get_float("m_max", 0.97)
    theta1_values = cfg.get_floats("theta1_values", None)
    if theta1_values and family.n_components == 1:
        raise ConfigError(f"model {family.model.kind} has one control component, "
                          "so there is no theta_1 to scan",
                          key="theta1_values", line=cfg._line("theta1_values"))

    # smoothness of the entropy surface along the family curve; the sweep is
    # padded two steps so every reported point has full two-interval stencils
    decimals = max(_decimals(repr(x)) for x in (m_max, spacing))
    edge = round(m_max + 2.0 * spacing, decimals)
    if not (m_max >= 0.0 and edge <= 1.0):
        raise ConfigError(f"the padded sweep m_max + 2 * m_spacing = {edge!r} "
                          "must lie in [0, 1]", key="m_max", line=cfg._line("m_max"))
    try:
        m_values = _decimal_range(-edge, edge, spacing, decimals)
    except ValueError as exc:
        raise ConfigError(str(exc), key="m_spacing", line=cfg._line("m_spacing")) from None
    curve = entropy_curve(family, family_curve_constraints(family, m_values))
    # rows are picked by the sweep's m, not by a density column (free spins
    # have only (1 - m)/2). Some density of every family is strictly monotone
    # in m, so the box around the window's densities holds exactly its points.
    window = family.densities([m for m in m_values if abs(m) <= m_max])
    reported = np.all((curve.grid >= window.min(axis=0))
                      & (curve.grid <= window.max(axis=0)), axis=1)
    inner = np.flatnonzero(reported[2:curve.npoints - 2]) + 2
    width_rows = []
    if inner.size:
        ts = tangent_set(curve, curve.grid[inner])
        width_rows = np.column_stack([ts.point, ts.width, ts.max_width]).tolist()
    coord_cols = [f"q_{k}" for k in range(curve.ndim)]
    width_cols = [f"width_{k}" for k in range(curve.ndim)]
    writer.write_csv("tangent_widths.csv", coord_cols + width_cols + ["max_width"],
                     width_rows)
    max_tangent_width = max((r[-1] for r in width_rows), default=0.0)
    # a large width along a density strictly monotone in m means a kink; along
    # one that turns back (q_0 at its vertex) the width is large on a smooth curve
    chart = next(k for k, (a, b, _) in enumerate(map(family.component_coefficients,
                                                      range(family.n_components)))
                 if b != 0.0 and abs(b) >= 2.0 * abs(a))
    max_chart_width = max((r[curve.ndim + chart] for r in width_rows), default=0.0)

    # one-sided pressure slopes across the symmetry-breaking control value
    base = [theta0] + [0.0] * (family.n_components - 1)
    gap = pressure_slope_gap(family, base, component=family.n_components - 1, step=step)
    writer.write_csv(
        "pressure_kink.csv",
        ["theta_0", "component", "step", "left_slope", "right_slope", "gap"],
        [(theta0, gap.component, gap.step, gap.left, gap.right, gap.gap)],
    )

    if theta1_values:
        def scan_phi(t1):
            return mean_field_pressure(family, [theta0] + [0.0] * (family.n_components - 2) + [t1])
        phis = _pool_map(scan_phi, theta1_values, threads)
        writer.write_csv("pressure_scan.csv", ["theta_1", "value"],
                         list(zip(theta1_values, phis)))

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


def run_experiment(subcommand: str, config_path, out_dir, seed: int = 0,
                   threads: int = 1) -> dict:
    """Run one experiment and return its manifest (also written to disk)."""
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    start = time.monotonic()
    cfg = Config.load(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    writer = ArtifactWriter(out, seed)
    extras = _RUNNERS[subcommand](cfg, writer, threads)
    cfg.finalize()
    writer.flush(cfg.echo())

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
    parser = argparse.ArgumentParser(
        prog="thermolab",
        description="Thermodynamics experiments on finite lattice models.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="key=value experiment config")
    parser.add_argument("--out", default="thermolab_out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        manifest = run_experiment(args.subcommand, args.config, args.out,
                                  seed=args.seed, threads=args.threads)
    except (ThermolabError, OSError) as exc:
        print(f"thermolab: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0
