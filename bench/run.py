"""thermolab benchmark: seeded sweep workloads run through ``thermolab.cli``.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pressure-chain, pressure-dense, kms-ring, mean-field (see
README.md here). Load model: one closed-loop client. Each pass is a fresh
``python3 bench/child.py`` process that imports thermolab from ``src/`` and
runs the workload's experiments with ``--threads 1``; passes repeat while
another one is expected to end within ``--seconds`` (at least MIN_PASSES).
Every pass's artifacts are checked against the independent references in
reference.py.

``--trace 0`` reports the end-to-end metrics (medians over passes):
setup_s (child CPU time from its start until thermolab is imported),
norm_cpu_s (child CPU time of one pass, config parsing and artifact writing
included) and peak_rss_mb (child ru_maxrss). The child runs on one thread
(``--threads 1``, one BLAS thread), so its CPU time is the time the user
waits minus the time the machine gives to other work. Both times are
scaled to the reference machine's speed by a fixed kernel timed before,
during and after each pass (PROBE_REF_S, child.SpeedProbe). Raw CPU and
wall times are kept in the record line.

``--trace 1`` alternates traced and untraced passes and reports per-layer
spans (``<module>.<function>.calls``, ``.s``, ``.self_s``) plus
trace.overhead_frac (median over neighbouring traced/untraced pass pairs of
the ratio of their scaled CPU times, minus 1). The error rate is
``failed / attempted`` over checked result rows; it is carried by those two
fields of the result rather than as a metric, because it is 0 when the
program is correct.

Output: a ``{"record": ...}`` line (environment, generated configs, samples)
and, last, one result line ``{"correct", "attempted", "failed", "metrics"}``.
Exit status 1, with no result line, when the source tree is missing, a
child cannot start, or a span records no calls on its home workload.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by every child: with
# ``--threads 1`` a pass then runs on one core, and its CPU time holds no
# BLAS spin-waiting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # scratch space, removed when the run ends
THREADS = 1
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two traced and two untraced
CHILD_TIMEOUT_S = 150.0

# Median CPU seconds of one child.SpeedProbe kernel on the reference machine
# (a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4 with one OpenBLAS thread). A
# pass's CPU times are scaled by PROBE_REF_S over the mean of its probes, i.e.
# reported at the reference machine's speed: on a shared host the raw CPU
# time of the same work drifts by tens of percent, and this scaling removes
# most of that drift.
PROBE_REF_S = 0.01

END_TO_END = {"setup_s": "s", "norm_cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in spans.SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.s"] = "s"
        units[f"{span}.self_s"] = "s"
    units["cli.artifact_bytes"] = "B"
    units["completeness.feasible_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def _blas_threads() -> int | None:
    """Thread count of the scipy-openblas bundled with numpy wheels, if present."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def spawn_pass(plan: dict, plan_path: Path) -> tuple[float, dict]:
    """Run one child; return (wall seconds from spawn to ready, its report)."""
    plan_path.write_text(json.dumps(plan))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(plan_path)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"child did not start (exit status {proc.poll()})")
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass  # reported below as a failed pass
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    report_path = Path(plan["report"])
    if proc.returncode != 0 or not report_path.exists():
        return setup, {"status": {e["name"]: f"child exit status {proc.returncode}"
                                  for e in plan["experiments"]}}
    return setup, json.loads(report_path.read_text())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    exps = workloads.build(name, seed)
    expected = [reference.expectations(e, seed) for e in exps]
    tally = reference.Tally()
    samples = {"setup_s": [], "norm_cpu_s": [], "peak_rss_mb": [],
               "setup_cpu_s": [], "cpu_s": [], "probe_mean_s": [], "probes": [],
               "spawn_wall_s": [],
               "wall_s": [], "traced_norm_cpu_s": [], "artifact_bytes": [],
               "curve_points": []}
    traced_spans = []
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        configs = {}
        for exp in exps:
            configs[exp.name] = workdir / f"{exp.name}.cfg"
            configs[exp.name].write_text(exp.config_text())
        min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
        start = time.perf_counter()
        durations = []  # per pass, spawn to checked; predicts whether one more fits
        index = 0
        while index < min_passes or (time.perf_counter() - start
                                     + statistics.median(durations) <= seconds):
            pass_start = time.perf_counter()
            traced = trace and index % 2 == 0
            pass_dir = workdir / f"pass{index}"
            pass_dir.mkdir()
            plan = {
                "src": str(SRC), "seed": seed, "trace": traced,
                "report": str(pass_dir / "report.json"),
                "experiments": [{"name": e.name, "subcommand": e.subcommand,
                                 "config": str(configs[e.name]), "out": str(pass_dir / e.name)}
                                for e in exps],
            }
            spawn_wall, report = spawn_pass(plan, workdir / "plan.json")
            for exp, exp_expected in zip(exps, expected):
                status = report["status"].get(exp.name, "not run")
                if status == "ok":
                    reference.check(exp, exp_expected, pass_dir / exp.name, tally)
                else:
                    tally.fail(reference.expected_ops(exp, exp_expected),
                               f"{exp.name}: {status}", attempted=True)
            if "cpu_s" in report:
                probe_mean = statistics.fmean(report["probe_cpu_s"])
                scale = PROBE_REF_S / probe_mean
                samples["setup_s"].append(report["setup_cpu_s"] * scale)
                samples["setup_cpu_s"].append(report["setup_cpu_s"])
                samples["probe_mean_s"].append(probe_mean)
                samples["probes"].append(len(report["probe_cpu_s"]))
                samples["spawn_wall_s"].append(spawn_wall)
                samples["peak_rss_mb"].append(report["peak_rss_mb"])
                if traced:
                    samples["traced_norm_cpu_s"].append(report["cpu_s"] * scale)
                    samples["artifact_bytes"].append(
                        sum(_dir_bytes(pass_dir / e.name) for e in exps))
                    samples["curve_points"].append(report["curve_points"])
                    traced_spans.append({span: [calls, total * scale, self_s * scale]
                                         for span, (calls, total, self_s)
                                         in report["spans"].items()})
                else:
                    samples["norm_cpu_s"].append(report["cpu_s"] * scale)
                    samples["cpu_s"].append(report["cpu_s"])
                    samples["wall_s"].append(report["wall_s"])
            shutil.rmtree(pass_dir)
            durations.append(time.perf_counter() - pass_start)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return {"exps": exps, "tally": tally, "samples": samples,
            "traced_spans": traced_spans, "passes": index}


def end_to_end_metrics(samples: dict) -> dict:
    if not samples["norm_cpu_s"]:
        raise BenchError("no pass completed")
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(name: str, samples: dict, traced_spans: list) -> dict:
    if not traced_spans or not samples["norm_cpu_s"]:
        raise BenchError("no traced and untraced pass pair completed")
    values = {}
    for span in spans.SPAN_NAMES:
        calls, total, self_s = zip(*(s[span] for s in traced_spans))
        values[f"{span}.calls"] = statistics.median_low(calls)
        values[f"{span}.s"] = statistics.median(total)
        values[f"{span}.self_s"] = statistics.median(self_s)
    for span in workloads.HOME_SPANS[name] + workloads.ALL_WORKLOAD_SPANS:
        if values[f"{span}.calls"] == 0:
            raise BenchError(f"span {span} recorded no calls on its home workload {name}")
    values["cli.artifact_bytes"] = statistics.median_low(samples["artifact_bytes"])
    requested = sum(p[0] for p in samples["curve_points"])
    kept = sum(p[1] for p in samples["curve_points"])
    values["completeness.feasible_ratio"] = kept / requested if requested else 1.0
    # traced and untraced passes alternate; pairing neighbours cancels the
    # machine's slow speed drift, which a ratio of run medians would keep
    values["trace.overhead_frac"] = statistics.median(
        t / u - 1.0 for t, u in zip(samples["traced_norm_cpu_s"], samples["norm_cpu_s"]))
    units = per_layer_units()
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        if not (SRC / "thermolab" / "cli.py").is_file():
            raise BenchError(f"no thermolab source tree at {SRC}")
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        samples = run["samples"]
        if args.trace:
            metrics = per_layer_metrics(args.workload, samples, run["traced_spans"])
        else:
            metrics = end_to_end_metrics(samples)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1

    tally = run["tally"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": run["passes"],
        "environment": environment(),
        "configs": {e.name: {"subcommand": e.subcommand, "config": e.config_text()}
                    for e in run["exps"]},
        "samples": {k: v for k, v in samples.items() if v},
        "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0,
        "failures": tally.failures,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
