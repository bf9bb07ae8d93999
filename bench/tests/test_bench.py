"""Tests of the benchmark itself: inputs, references, tracing, interface."""

from __future__ import annotations

import contextlib
import csv
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import child
import oracles
import reference
import run
import spans
import workloads
from thermolab import cli

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


def _run_workload(name: str, out_root: Path, traced: bool) -> list:
    """Run a workload's experiments in-process; return (exp, out_dir) pairs."""
    exps = workloads.build(name, SEED)
    out_root.mkdir(parents=True)
    done = []
    with spans.Tracer() if traced else contextlib.nullcontext() as tracer:
        for exp in exps:
            cfg = out_root / f"{exp.name}.cfg"
            cfg.write_text(exp.config_text())
            cli.run_experiment(exp.subcommand, cfg, out_root / exp.name, seed=SEED, threads=1)
            done.append((exp, out_root / exp.name))
    if traced:
        for span in workloads.HOME_SPANS[name] + workloads.ALL_WORKLOAD_SPANS:
            assert tracer.stats[span][0] > 0, span
    return done


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return {(name, traced): _run_workload(name, root / f"{name}-{traced}", traced)
            for name in workloads.NAMES for traced in (False, True)}


def _tally(exp, out_dir) -> reference.Tally:
    tally = reference.Tally()
    reference.check(exp, reference.expectations(exp, SEED), out_dir, tally)
    return tally


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_seeded_explicit_lists_of_fixed_shape(name):
    a, b, c = (workloads.build(name, s) for s in (1, 1, 2))
    assert a == b
    assert a != c
    for x, y in zip(a, c):
        assert x.name == y.name and x.params.keys() == y.params.keys()
        for key, value in x.params.items():
            if isinstance(value, list):
                assert len(value) == len(y.params[key])
        assert ":" not in x.config_text()


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.build("nope", 0)


# -- references -----------------------------------------------------------------


def test_references_agree_with_the_test_oracles():
    for n in (4, 7):
        for t0, t1 in ((0.7, 0.2), (1.9, -0.8)):
            lp, lm = reference.ising_transfer_eigenvalues(t0 * 1.1, t0 * 0.4 - t1)
            # theta1 couples M, which acts as a field -theta1 / theta0 per unit beta
            logz = oracles.enumerate_spin_chain_logz(n, t0, 1.1, 0.4 - t1 / t0)
            assert math.log(lp ** n + lm ** n) == pytest.approx(logz, abs=1e-12)
    assert math.log(reference.ising_transfer_eigenvalues(1.3, 0.2)[0]) == pytest.approx(
        oracles.ising_log_lambda_plus(1.3, 1.0, 0.2 / 1.3), abs=1e-14)
    for theta0 in (1.5, 3.0):
        assert reference.mean_field_magnetization(theta0, 0.0) == pytest.approx(
            oracles.mean_field_fixed_point(theta0), abs=1e-10)
    e = np.linspace(-0.5, 0.0, 11)
    s = reference.binary_entropy(np.sqrt(-2.0 * e))
    assert np.allclose(s, oracles.binary_entropy((1.0 + np.sqrt(-2.0 * e)) / 2.0))
    assert np.allclose(oracles.upper_concave_envelope(e, s), s)  # concave


def test_free_fermion_reference_matches_brute_force():
    n, theta0, hx = 4, 0.9, 0.7
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])

    def lift(op, i):
        return np.kron(np.kron(np.eye(2 ** i), op), np.eye(2 ** (n - i - 1)))

    ham = (-sum(lift(sz, i) @ lift(sz, i + 1) for i in range(n - 1))
           - hx * sum(lift(sx, i) for i in range(n)))
    lam = np.linalg.eigvalsh(theta0 * ham)
    brute = (math.log(np.exp(-(lam - lam.min())).sum()) - lam.min()) / n
    assert reference.free_fermion_pressure(theta0, n, 1.0, hx) == pytest.approx(brute, abs=1e-12)


def test_mean_field_pressure_matches_a_dense_scan():
    m = np.linspace(-1.0, 1.0, 2_000_001)
    eta = reference.binary_entropy(m)
    for t0, t1 in ((3.0, 0.05), (3.0, -0.07), (0.8, 0.1), (2.0, 0.0)):
        scan = np.max(eta + t0 * m * m / 2.0 - t1 * m)
        assert reference.mean_field_pressure(t0, t1) == pytest.approx(scan, abs=1e-9)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_program_output_passes_every_check(outputs, name):
    for exp, out in outputs[(name, False)]:
        tally = _tally(exp, out)
        assert tally.failed == 0, tally.failures
        # diff-test may lose one endpoint row to float drift (see reference.py)
        expected = reference.expected_ops(exp, reference.expectations(exp, SEED))
        assert expected - (exp.kind == "diff-test") <= tally.attempted <= expected


def _edit_csv(path: Path, row: int, column: str, change):
    lines = path.read_text().splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    col = table[0].index(column)
    table[row + 1][col] = str(change(table[row + 1][col]))
    path.write_text("".join(header) + "".join(",".join(r) + "\n" for r in table))


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _shift(delta):
    return lambda cell: repr(float(cell) + delta)


def _edit_json(path: Path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def _drop_last_row(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


# (workload, experiment name, description, perturbation of its output dir)
PERTURBATIONS = [
    ("pressure-chain", "pressure-chain", "phi_N",
     lambda d: _edit_csv(d / "pressure.csv", 17, "phi_N", _scale(1 + 1e-7))),
    ("pressure-chain", "pressure-chain", "value",
     lambda d: _edit_csv(d / "pressure.csv", 200, "value", _shift(1e-6))),
    ("pressure-chain", "pressure-chain", "N",
     lambda d: _edit_csv(d / "pressure.csv", 3, "N", lambda c: int(c) + 1)),
    ("pressure-chain", "pressure-chain", "missing row",
     lambda d: _drop_last_row(d / "pressure.csv")),
    ("pressure-dense", "pressure-dense", "phi_N",
     lambda d: _edit_csv(d / "pressure.csv", 5, "phi_N", _shift(1e-8))),
    ("pressure-dense", "pressure-dense", "value",
     lambda d: _edit_csv(d / "pressure.csv", 40, "value", _shift(1e-6))),
    ("kms-ring", "kms-n9-pointwise", "residual",
     lambda d: _edit_csv(d / "residuals.csv", 3, "residual", lambda c: "1e-6")),
    ("kms-ring", "kms-n9-pointwise", "probe label",
     lambda d: _edit_csv(d / "residuals.csv", 4, "A", lambda c: "sy@0")),
    ("kms-ring", "kms-n6-smeared", "smeared residual",
     lambda d: _edit_csv(d / "smeared.csv", 2, "residual", lambda c: "1e-6")),
    ("mean-field", "diff-test", "tangent width",
     lambda d: _edit_csv(d / "tangent_widths.csv", 900, "max_width", lambda c: "0.002")),
    ("mean-field", "diff-test", "kink gap",
     lambda d: _edit_csv(d / "pressure_kink.csv", 0, "gap", _shift(1e-3))),
    ("mean-field", "diff-test", "pressure scan",
     lambda d: _edit_csv(d / "pressure_scan.csv", 10, "value", _shift(1e-6))),
    ("mean-field", "diff-test", "missing width rows",
     lambda d: [_drop_last_row(d / "tangent_widths.csv") for _ in range(2)]),
    ("mean-field", "legendre", "Legendre pressure",
     lambda d: _edit_csv(d / "pressure_curve.csv", 7, "value", _shift(1e-6))),
    ("mean-field", "legendre", "biconjugate row",
     lambda d: _edit_csv(d / "biconjugate.csv", 250, "value", _shift(1e-6))),
    ("mean-field", "legendre", "biconjugate defect",
     lambda d: _edit_json(d / "manifest.json",
                          lambda p: p["summary"].update(biconjugate_max_defect=1e-6))),
    ("mean-field", "completeness", "maximizer",
     lambda d: _edit_json(d / "completeness.json",
                          lambda p: p["records"][1]["maximizers"].__setitem__(1, 0.5))),
    ("mean-field", "completeness", "verdict",
     lambda d: _edit_json(d / "completeness.json", lambda p: p.update(verdict="Complete"))),
    ("mean-field", "completeness", "unreadable",
     lambda d: (d / "completeness.json").write_text("{")),
]


@pytest.mark.parametrize("workload,exp_name,what,perturb", PERTURBATIONS,
                         ids=[f"{w}:{e}:{what}" for w, e, what, _ in PERTURBATIONS])
def test_each_check_rejects_a_perturbed_result(outputs, tmp_path, workload, exp_name, what,
                                               perturb):
    exp, out = next(pair for pair in outputs[(workload, False)] if pair[0].name == exp_name)
    copy = tmp_path / exp_name
    shutil.copytree(out, copy)
    perturb(copy)
    tally = _tally(exp, copy)
    assert tally.failed >= 1, what
    assert tally.attempted >= tally.failed


# -- tracing --------------------------------------------------------------------


def _bodies(out_dir: Path) -> dict:
    bodies = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name == "manifest.json":
            payload = json.loads(text)
            payload.pop("wall_ms")
            text = json.dumps(payload, sort_keys=True)
        bodies[path.name] = [line for line in text.splitlines()
                             if not line.startswith("# generated=")]
    return bodies


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_passes_write_the_same_artifacts(outputs, name):
    plain = outputs[(name, False)]
    traced = outputs[(name, True)]
    for (exp, a), (_, b) in zip(plain, traced):
        assert _bodies(a) == _bodies(b), exp.name


def test_tracer_restores_every_name():
    before = (cli.pressure_limit, cli.build_model, cli.Config.__dict__["load"],
              cli.ArtifactWriter.flush, sys.modules["thermolab.gibbs"].build_model)
    with spans.Tracer():
        assert cli.pressure_limit is not before[0]
        assert sys.modules["thermolab.gibbs"].build_model is not before[4]
    after = (cli.pressure_limit, cli.build_model, cli.Config.__dict__["load"],
             cli.ArtifactWriter.flush, sys.modules["thermolab.gibbs"].build_model)
    assert after == before


def test_a_home_span_without_calls_fails_the_traced_run():
    stats = {span: [1, 0.1, 0.05] for span in spans.SPAN_NAMES}
    stats["kms.kms_residual"] = [0, 0.0, 0.0]
    samples = {"norm_cpu_s": [1.0], "traced_norm_cpu_s": [1.1], "artifact_bytes": [10],
               "curve_points": [[0, 0]]}
    with pytest.raises(run.BenchError, match="kms.kms_residual"):
        run.per_layer_metrics("kms-ring", samples, [stats])
    metrics = run.per_layer_metrics("pressure-chain", samples, [stats])  # bypassed there
    assert metrics["kms.kms_residual.calls"]["value"] == 0
    assert metrics["trace.overhead_frac"]["value"] == pytest.approx(0.1)


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    outer = tracer._wrap("gibbs.pressure_limit", lambda: inner())
    inner = tracer._wrap("lattice.build_model", lambda: sum(range(200_000)))
    outer()
    calls, total, self_s = tracer.stats["gibbs.pressure_limit"]
    assert calls == 1
    assert self_s == pytest.approx(total - tracer.stats["lattice.build_model"][1], abs=1e-12)
    assert 0.0 <= self_s < total


# -- speed probes ---------------------------------------------------------------


def test_speed_probe_samples_during_a_pass_and_leaves_its_time_out():
    probe = child.SpeedProbe()
    with probe:
        start_cpu, start, start_wall = probe.cpu_time(), time.process_time(), time.perf_counter()
        while time.perf_counter() - start_wall < 6 * child.PROBE_INTERVAL_S:
            sum(range(10_000))
        work = probe.cpu_time() - start_cpu
        total = time.process_time() - start
        probed = len(probe.times)
        assert min(probe.times) > 0.0  # the clock is not read in whole ticks
    assert probed >= 5  # one before the loop, the rest from the timer
    assert len(probe.times) == probed + 1  # and one after
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert work == pytest.approx(total - sum(probe.times[1:probed]), abs=1e-3)


# -- interface: BENCHMARK.json and the command line ------------------------------


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_without_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mean-field",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
