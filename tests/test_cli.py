import json
import math
import os
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import free_spin_pressure, ising_log_lambda_plus, mean_field_fixed_point
import thermolab.cli as cli
import thermolab.gibbs as gibbs
from thermolab import ConfigError, CurveSamples, NumericRangeError, UsageError, tangent_set
from thermolab.cli import Config, _chunks, _parse_number_list, main, run_experiment
from thermolab.lattice import MODEL_KINDS

LN2 = math.log(2.0)


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def body_lines(path: Path) -> list[str]:
    return [
        line for line in path.read_text().splitlines()
        if not line.startswith("# generated=")
    ]


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        cfg = Config.load(write_config(tmp_path, """
        # an experiment
        model = free_spins
        theta0 = 0.5, 1.0   # inline comment
        """))
        assert cfg.get_str("model") == "free_spins"
        assert cfg.get_floats("theta0") == [0.5, 1.0]

    def test_range_syntax(self):
        assert _parse_number_list("4:8") == [4.0, 5.0, 6.0, 7.0, 8.0]
        assert_allclose(_parse_number_list("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert _parse_number_list("3") == [3.0]
        assert _parse_number_list("1, 2,3") == [1.0, 2.0, 3.0]

    def test_parse_errors_name_key_and_line(self, tmp_path):
        path = write_config(tmp_path, "model = free_spins\nsizes = four\n")
        cfg = Config.load(path)
        with pytest.raises(ConfigError) as exc:
            cfg.get_ints("sizes")
        assert "sizes" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_malformed_line_reports_position(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            Config.load(write_config(tmp_path, "model free_spins\n"))
        assert "line 1" in str(exc.value)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            Config.load(write_config(tmp_path, "a = 1\na = 2\n"))

    def test_unknown_key_detected(self, tmp_path):
        path = write_config(
            tmp_path, "model = free_spins\ntheta0 = 0\nsizes = 3:5\nbogus = 1\n"
        )
        with pytest.raises(ConfigError) as exc:
            run_experiment("pressure", path, tmp_path / "out")
        assert "bogus" in str(exc.value)
        assert "line 4" in str(exc.value)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, "model = free_spins\n")
        with pytest.raises(ConfigError) as exc:
            run_experiment("pressure", path, tmp_path / "out")
        assert "sizes" in str(exc.value)


class TestPressureCommand:
    def test_free_spins_zero_control(self, tmp_path):
        path = write_config(tmp_path, """
        model = free_spins
        theta0 = 0
        sizes = 3:5
        """)
        manifest = run_experiment("pressure", path, tmp_path / "out", seed=3)
        assert manifest["subcommand"] == "pressure"
        assert manifest["seed"] == 3
        assert manifest["artifacts"][0]["path"] == "pressure.csv"
        assert manifest["artifacts"][0]["rows"] == 3
        text = (tmp_path / "out" / "pressure.csv").read_text()
        assert "# seed=3" in text
        assert "# model=free_spins" in text
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "theta_0,N,phi_N,value,extrapolation_error"
        for row in lines[1:]:
            fields = row.split(",")
            assert_allclose(float(fields[2]), LN2, atol=1e-12)
            assert_allclose(float(fields[3]), LN2, atol=1e-12)

    def test_ising_geometric_matches_transfer_matrix(self, tmp_path):
        path = write_config(tmp_path, """
        model = ising_chain
        J = 1.0
        h = 0.5
        boundary = periodic
        theta0 = 1.0
        theta1 = 0.0
        sizes = 4:12
        fit = geometric
        """)
        manifest = run_experiment("pressure", path, tmp_path / "out")
        text = (tmp_path / "out" / "pressure.csv").read_text()
        last = [l for l in text.splitlines() if l and not l.startswith("#")][-1]
        value = float(last.split(",")[4])
        assert_allclose(value, ising_log_lambda_plus(1.0, 1.0, 0.5), atol=1e-5)


class TestCurveCommands:
    def test_entropy_curve_artifact_round_trips(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        h = 0.0
        constrain = joint
        m_values = -0.9:0.9:0.1
        """)
        manifest = run_experiment("entropy-curve", path, tmp_path / "out")
        artifact = tmp_path / "out" / "entropy_curve.csv"
        curve = CurveSamples.from_csv(artifact.read_text())
        assert curve.orientation == "concave"
        assert curve.metadata["family"] == "product_states"
        assert curve.metadata["model"] == "curie_weiss"
        assert curve.npoints == manifest["artifacts"][0]["rows"] == 19

    def test_energy_mode(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        constrain = energy
        e_values = -0.45,-0.3,-0.125
        """)
        run_experiment("entropy-curve", path, tmp_path / "out")
        curve = CurveSamples.from_csv((tmp_path / "out" / "entropy_curve.csv").read_text())
        assert curve.ndim == 1
        assert curve.npoints == 3

    def test_legendre_consistency_columns(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        constrain = joint
        m_values = -0.999:0.999:0.001
        theta0 = 0.5, 1.0
        theta1 = -0.2, 0.0, 0.2
        """)
        manifest = run_experiment("legendre", path, tmp_path / "out")
        text = (tmp_path / "out" / "pressure_curve.csv").read_text()
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "theta_0,theta_1,value,scan_value"
        for row in rows[1:]:
            fields = [float(x) for x in row.split(",")]
            assert abs(fields[2] - fields[3]) <= 1e-6
        # joint chains carry no product structure, so no round-trip artifact
        assert {a["path"] for a in manifest["artifacts"]} == {"pressure_curve.csv"}

    def test_legendre_energy_mode_roundtrip(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        constrain = energy
        e_values = -0.5:0:0.005
        theta0 = 0.5, 1.0, 2.0
        """)
        manifest = run_experiment("legendre", path, tmp_path / "out")
        assert manifest["summary"]["biconjugate_max_defect"] <= 1e-4
        hull = CurveSamples.from_csv((tmp_path / "out" / "biconjugate.csv").read_text())
        assert hull.metadata["roundtrip"] == "biconjugate"


class TestCompletenessCommand:
    def test_energy_sweep_incomplete(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        constrain = energy
        e_values = -0.45,-0.3,-0.125
        """)
        manifest = run_experiment("completeness", path, tmp_path / "out")
        assert manifest["summary"]["verdict"] == "Incomplete"
        payload = json.loads((tmp_path / "out" / "completeness.json").read_text())
        assert payload["verdict"] == "Incomplete"
        assert len(payload["records"]) == 3
        for record in payload["records"]:
            assert set(record) == {"constraint", "s", "maximizers", "multiplicity",
                                   "verdict"}
            assert record["multiplicity"] == 2

    def test_joint_sweep_complete(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        constrain = joint
        m_values = -0.8:0.8:0.2
        """)
        manifest = run_experiment("completeness", path, tmp_path / "out")
        assert manifest["summary"]["verdict"] == "Complete"


class TestKmsVerifyCommand:
    def test_default_probes_all_small(self, tmp_path):
        path = write_config(tmp_path, """
        model = ising_chain
        J = 1.0
        h = 0.0
        N = 4
        theta0 = 0.5, 1.0
        theta1 = 0.0
        times = 0.3, 1.1
        sigma_w = 2.0
        """)
        manifest = run_experiment("kms-verify", path, tmp_path / "out", seed=5)
        assert manifest["summary"]["max_residual"] <= 1e-7
        residuals = tmp_path / "out" / "residuals.csv"
        rows = [l for l in residuals.read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[0] == "model,N,theta_0,theta_1,A,B,t,residual"
        assert len(rows) - 1 == 2 * 6  # 2 thetas x (3 probes x 2 times)
        for row in rows[1:]:
            assert float(row.split(",")[-1]) <= 1e-9
        smeared = tmp_path / "out" / "smeared.csv"
        srows = [l for l in smeared.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert srows[0] == ("model,N,theta_0,theta_1,A,B,t,residual,"
                            "sigma_w,quadrature_step")
        for row in srows[1:]:
            fields = row.split(",")
            assert math.isnan(float(fields[6]))  # t is integrated out
            assert float(fields[7]) <= 1e-7
            assert float(fields[8]) == 2.0
            assert 0.0 < float(fields[9]) <= 0.1


class TestDiffTestCommand:
    def test_kink_and_smoothness_summary(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        theta0 = 3.0
        m_spacing = 0.001
        m_max = 0.5
        theta1_values = -0.05:0.05:0.025
        """)
        manifest = run_experiment("diff-test", path, tmp_path / "out")
        kink = manifest["summary"]["pressure_kink"]
        m_star = mean_field_fixed_point(3.0)
        assert_allclose(kink["gap"], 2 * m_star, atol=1e-3)
        assert manifest["summary"]["max_tangent_width"] <= 1e-3
        names = {a["path"] for a in manifest["artifacts"]}
        assert names == {"tangent_widths.csv", "pressure_kink.csv", "pressure_scan.csv"}

    def test_sweep_reports_both_endpoints(self, tmp_path):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        theta0 = 3.0
        m_spacing = 0.01
        m_max = 0.5
        """)
        run_experiment("diff-test", path, tmp_path / "out")
        text = (tmp_path / "out" / "tangent_widths.csv").read_text()
        lines = [line for line in text.splitlines() if not line.startswith("#")][1:]
        m_values = [float(line.split(",")[1]) for line in lines]
        assert len(m_values) == 2 * 50 + 1
        assert m_values[0] == -0.5 and m_values[-1] == 0.5
        assert m_values == [round(k / 100, 2) for k in range(-50, 51)]

    def test_free_spin_rows_follow_the_sweep_m(self, tmp_path):
        # the free-spin density is (1 - m)/2, so the m window [-0.5, 0.5]
        # reports q_0 from 0.25 to 0.75
        path = write_config(tmp_path, """
        model = free_spins
        theta0 = 1.0
        m_spacing = 0.01
        m_max = 0.5
        """)
        run_experiment("diff-test", path, tmp_path / "out")
        text = (tmp_path / "out" / "tangent_widths.csv").read_text()
        lines = [line for line in text.splitlines() if not line.startswith("#")][1:]
        q0 = [float(line.split(",")[0]) for line in lines]
        assert len(q0) == 2 * 50 + 1
        assert q0[0] == 0.25 and q0[-1] == 0.75
        assert_allclose(q0, [(1.0 - k / 100) / 2.0 for k in range(50, -51, -1)], atol=1e-15)

    BAD_SWEEPS = {
        "zero-spacing": ("m_spacing = 0", "m_spacing"),
        "zero-kink-step": ("kink_step = 0", "kink_step"),
        "negative-spacing": ("m_spacing = -0.001", "m_spacing"),
        "negative-kink-step": ("kink_step = -1e-4", "kink_step"),
        "past-one": ("m_max = 0.99\nm_spacing = 0.01", "m_max"),  # padded sweep ends at 1.01
        "negative-m-max": ("m_max = -0.1", "m_max"),
        "too-many-points": ("m_spacing = 1e-9", "m_spacing"),  # about 2e9 points
    }

    @pytest.mark.parametrize("entries, key", BAD_SWEEPS.values(), ids=BAD_SWEEPS.keys())
    def test_bad_sweeps_exit_2(self, tmp_path, capsys, entries, key):
        path = write_config(tmp_path, f"model = curie_weiss\nJ = 1.0\ntheta0 = 3.0\n{entries}\n")
        with pytest.raises(ConfigError) as exc:
            run_experiment("diff-test", path, tmp_path / "out")
        assert key in str(exc.value)
        code = main(["diff-test", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_bodies_identical(self, tmp_path):
        cfg_text = """
        model = ising_chain
        J = 1.0
        h = 0.0
        N = 3
        theta0 = 1.0
        theta1 = 0.0
        times = 0.5
        sigma_w = 2.0
        """
        path = write_config(tmp_path, cfg_text)
        run_experiment("kms-verify", path, tmp_path / "a", seed=11)
        run_experiment("kms-verify", path, tmp_path / "b", seed=11)
        for name in ("residuals.csv", "smeared.csv"):
            assert body_lines(tmp_path / "a" / name) == body_lines(tmp_path / "b" / name)

    def test_threads_do_not_change_output(self, tmp_path):
        cfg_text = """
        model = free_spins
        theta0 = 0.2:2.0:0.2
        sizes = 3:6
        """
        path = write_config(tmp_path, cfg_text)
        run_experiment("pressure", path, tmp_path / "a", seed=1, threads=1)
        run_experiment("pressure", path, tmp_path / "b", seed=1, threads=4)
        assert body_lines(tmp_path / "a" / "pressure.csv") == body_lines(
            tmp_path / "b" / "pressure.csv"
        )


class TestMainEntry:
    def test_exit_zero_and_manifest_on_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, "model = free_spins\ntheta0 = 0\nsizes = 3:5\n")
        code = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["subcommand"] == "pressure"

    def test_exit_nonzero_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "model = no_such_model\ntheta0 = 0\nsizes = 3:5\n")
        code = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_module_execution(self, tmp_path):
        path = write_config(tmp_path, "model = free_spins\ntheta0 = 0\nsizes = 3:5\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "thermolab", "pressure", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["subcommand"] == "pressure"


class TestShippedConfigs:
    """Every config in configs/ runs, under the subcommand its file name names."""

    SUBCOMMAND_OF = {"pressure": "pressure", "kms": "kms-verify",
                     "diff_test": "diff-test", "completeness": "completeness"}
    CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

    def test_every_config_is_covered(self):
        assert len(self.CONFIGS) >= 4

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_config_runs(self, tmp_path, path):
        prefix = next(k for k in self.SUBCOMMAND_OF if path.stem.startswith(k + "_"))
        manifest = run_experiment(self.SUBCOMMAND_OF[prefix], path, tmp_path)
        assert manifest["artifacts"]
        for record in manifest["artifacts"]:
            assert record["rows"] > 0, record


class TestGeometricFitGate:
    def test_models_without_two_modes_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, """
        model = curie_weiss
        J = 1.0
        theta0 = 0.5, 1.0
        sizes = 4:8
        fit = geometric
        """)
        with pytest.raises(UsageError):
            run_experiment("pressure", path, tmp_path / "out")
        code = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "geometric" in capsys.readouterr().err


class TestBadNumbers:
    @pytest.mark.parametrize("sizes", ["3, 4, inf", "3, 4, nan", "3, 4, -inf"])
    def test_non_finite_sizes_are_config_errors(self, tmp_path, capsys, sizes):
        path = write_config(tmp_path, f"model = free_spins\ntheta0 = 0\nsizes = {sizes}\n")
        with pytest.raises(ConfigError) as exc:
            run_experiment("pressure", path, tmp_path / "out")
        assert "sizes" in str(exc.value)
        code = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sizes" in capsys.readouterr().err

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "model = free_spins\ntheta0 = 0\nsizes = 3:5\n")
        with pytest.raises(ConfigError):
            run_experiment("pressure", path, tmp_path / "out", seed=-1)
        code = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_range_points_lie_on_the_decimal_grid(self):
        values = _parse_number_list("-0.1:0.1:0.01")
        assert values == [float(f"{k / 100:.2f}") for k in range(-10, 11)]
        assert values[10] == 0.0 and math.copysign(1.0, values[10]) == 1.0
        assert _parse_number_list("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.3]
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("text", ["0:inf", "nan:1:0.1", "0:1:inf", "0:1e9:1e-9"])
    def test_unbounded_ranges_are_config_errors(self, tmp_path, text):
        cfg = Config.load(write_config(tmp_path, f"theta0 = {text}\n"))
        with pytest.raises(ConfigError) as exc:
            cfg.get_floats("theta0")
        assert "theta0" in str(exc.value)


class TestPressureSweepBuilds:
    def test_each_size_built_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        build = gibbs.build_model

        def counting_build(*args, **kwargs):
            calls.append(args[1].size)
            return build(*args, **kwargs)

        monkeypatch.setattr(gibbs, "build_model", counting_build)
        path = write_config(tmp_path, """
        model = ising_chain
        J = 0.9
        h = 0.3
        theta0 = 0.2:2.4:0.2
        theta1 = 0.0
        sizes = 4:9
        fit = geometric
        """)
        interval = sys.getswitchinterval()
        for threads in (1, 4):
            gibbs.release_families()
            calls.clear()
            # frequent thread switches give concurrent misses on the memo a chance
            sys.setswitchinterval(1e-5)
            try:
                manifest = run_experiment("pressure", path, tmp_path / f"t{threads}",
                                          threads=threads)
            finally:
                sys.setswitchinterval(interval)
            assert manifest["artifacts"][0]["rows"] == 12 * 6
            assert sorted(calls) == list(range(4, 10))
        assert body_lines(tmp_path / "t1" / "pressure.csv") == body_lines(
            tmp_path / "t4" / "pressure.csv"
        )


class TestKmsVerifyThreads:
    """Theta threads share the family's lazily built level view."""

    @pytest.mark.parametrize("model", [
        "model = ising_chain\nJ = 1.0\nh = 0.3\nN = 5\ntheta1 = -0.2, 0.0, 0.4\n",
        "model = transverse_ising_chain\nJ = 1.0\nhx = 0.6\nboundary = open\nN = 4\n",
    ], ids=["ising_chain", "transverse_ising_chain"])
    def test_threads_do_not_change_output(self, tmp_path, model):
        path = write_config(tmp_path, model + """
        theta0 = 0.4:2.0:0.4
        times = 0.3, 1.7
        sigma_w = 2.0
        smeared_probes = 2
        """)
        interval = sys.getswitchinterval()
        for threads in (1, 2):
            # frequent thread switches give both threads a chance to build the view
            sys.setswitchinterval(1e-5)
            try:
                run_experiment("kms-verify", path, tmp_path / f"t{threads}", seed=3,
                               threads=threads)
            finally:
                sys.setswitchinterval(interval)
        for name in ("residuals.csv", "smeared.csv"):
            assert body_lines(tmp_path / "t1" / name) == body_lines(tmp_path / "t2" / name)


class TestCompletenessTol:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, tol):
        path = write_config(tmp_path, "model = curie_weiss\nJ = 1.0\n"
                            f"constrain = energy\ne_values = -0.3\ntol = {tol}\n")
        with pytest.raises(ConfigError) as exc:
            run_experiment("completeness", path, tmp_path / "out")
        assert exc.value.key == "tol"
        code = main(["completeness", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'tol'" in capsys.readouterr().err


class TestKmsVerifyResources:
    def test_oversized_run_refused_before_any_probe(self, tmp_path, monkeypatch, capsys):
        import thermolab.kms as kms

        built = []
        monkeypatch.setattr(kms, "random_hermitian", lambda *a, **k: built.append(a))
        path = write_config(tmp_path, "model = ising_chain\nJ = 1.0\nh = 0.0\nN = 11\n"
                            "theta0 = 1.0\ntimes = 0.3\n")
        code = main(["kms-verify", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "capped" in capsys.readouterr().err
        assert built == []

    def test_threads_share_one_eigensolve(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, _solve=np.linalg.eigh, **kwargs):
            calls.append(1)
            time.sleep(0.01)  # a second thread would reach the view meanwhile
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        path = write_config(tmp_path, "model = transverse_ising_chain\nJ = 1.0\nhx = 0.6\n"
                            "boundary = open\nN = 8\ntheta0 = 0.5, 1.0, 1.5, 2.0\n"
                            "times = 0.3\nsigma_w = 0\n")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_experiment("kms-verify", path, tmp_path / "out", threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1


class TestPressureGridChunks:
    """A pressure sweep is one stacked pressure_limit call per thread's chunk."""

    @pytest.mark.parametrize("count, parts", [(0, 3), (1, 3), (7, 1), (7, 2), (7, 3),
                                              (7, 7), (7, 9), (12, 5)])
    def test_chunks_are_contiguous_and_even(self, count, parts):
        items = list(range(count))
        chunks = _chunks(items, parts)
        lengths = [len(chunk) for chunk in chunks]
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) == min(parts, count)
        assert all(lengths) and max(lengths, default=0) - min(lengths, default=0) <= 1

    def test_uneven_chunks_write_the_same_bytes(self, tmp_path, monkeypatch):
        calls = []
        reference = cli.pressure_limit

        def counting(spec, theta, *args, **kwargs):
            calls.append(len(theta))
            return reference(spec, theta, *args, **kwargs)

        monkeypatch.setattr(cli, "pressure_limit", counting)
        path = write_config(tmp_path, """
        model = ising_chain
        J = 1.0
        h = 0.4
        theta0 = 0.3, 0.7, 1.1, 1.6, 2.2
        theta1 = -0.5, 0.0, 0.8
        sizes = 4:12
        fit = geometric
        """)
        bodies = []
        for threads in (1, 2, 3, 4):
            calls.clear()
            run_experiment("pressure", path, tmp_path / f"t{threads}", threads=threads)
            assert len(calls) == threads and sum(calls) == 15
            bodies.append(body_lines(tmp_path / f"t{threads}" / "pressure.csv"))
        assert all(body == bodies[0] for body in bodies[1:])


class TestPressureOverflow:
    CONFIG = """
    model = ising_chain
    J = 1
    h = 0.3
    theta0 = 1e308
    theta1 = 0
    sizes = 4,5,6
    """

    def test_overflowing_theta_exits_2_without_warnings(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match=r"1e\+308"):
                run_experiment("pressure", path, tmp_path / "out")
            code = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "theta = (1e+308, 0.0)" in err and "Warning" not in err
        assert not (tmp_path / "out" / "pressure.csv").exists()


class TestDiffTestSingleComponentScan:
    def test_free_spins_theta1_values_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "model = free_spins\ntheta0 = 1.5\n"
                                      "theta1_values = -2:2:0.1\n")
        with pytest.raises(ConfigError) as exc:
            run_experiment("diff-test", path, tmp_path / "out")
        assert exc.value.key == "theta1_values" and exc.value.line == 3
        code = main(["diff-test", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'theta1_values', line 3" in err


class TestEmptyNumberList:
    CONFIGS = {
        "theta0": ("model = free_spins\ntheta0 = ,\nsizes = 3:5\n", 2),
        "theta1": ("model = ising_chain\nJ = 1.0\ntheta0 = 1.0\ntheta1 = ,\nsizes = 3:5\n", 4),
    }

    @pytest.mark.parametrize("key", CONFIGS)
    def test_comma_list_without_numbers_exits_2(self, tmp_path, capsys, key):
        text, line = self.CONFIGS[key]
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as exc:
            run_experiment("pressure", path, tmp_path / "out")
        assert exc.value.key == key and exc.value.line == line
        code = main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"'{key}', line {line}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "pressure.csv").exists()


class TestDiffTestTangentStack:
    """diff-test reads its tangent widths in one stacked call, and writes the
    rows that per-point calls give."""

    CONFIGS = {
        "curie-weiss": None,  # configs/diff_test_curie_weiss.cfg
        "free-spins": "model = free_spins\ntheta0 = 1.5\nm_spacing = 0.002\nm_max = 0.9\n",
        "ising-field": ("model = ising_chain\nJ = 1.0\nh = 0.3\ntheta0 = 1.2\n"
                        "m_spacing = 0.002\nm_max = 0.9\n"),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_one_call_with_per_point_rows(self, tmp_path, monkeypatch, name):
        text = self.CONFIGS[name]
        if text is None:
            path = Path(__file__).resolve().parents[1] / "configs" / "diff_test_curie_weiss.cfg"
        else:
            path = write_config(tmp_path, text)
        calls = []

        def recording(curve, q, tol=None):
            calls.append((curve, np.array(q)))
            return tangent_set(curve, q, tol)

        monkeypatch.setattr(cli, "tangent_set", recording)
        run_experiment("diff-test", path, tmp_path / "out")
        assert len(calls) == 1
        curve, points = calls[0]
        assert points.ndim == 2 and points.shape[1] == curve.ndim
        expected = []
        for point in points:
            ts = tangent_set(curve, point)
            cells = [*point.tolist(), *ts.width.tolist(), ts.max_width]
            expected.append(",".join(repr(float(c)) for c in cells))
        lines = (tmp_path / "out" / "tangent_widths.csv").read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")][1:] == expected


class TestConfigValueErrors:
    """Each typed getter names the key and line of a value it cannot read."""

    def test_empty_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"empty key \(line 2\)"):
            Config.load(write_config(tmp_path, "model = free_spins\n= 3\n"))

    @pytest.mark.parametrize("getter, text, message", [
        ("get_float", "J = abc", "as a number"),
        ("get_int", "J = 2.5", "as an integer"),
        ("get_ints", "J = 3.5, 4", "expected integers"),
    ])
    def test_unreadable_value(self, tmp_path, getter, text, message):
        cfg = Config.load(write_config(tmp_path, "model = free_spins\n" + text + "\n"))
        with pytest.raises(ConfigError, match=message) as exc:
            getattr(cfg, getter)("J")
        assert exc.value.key == "J" and exc.value.line == 2

    def test_unknown_model_lists_every_kind(self, tmp_path):
        path = write_config(tmp_path, "model = no_such_model\ntheta0 = 0\nsizes = 3:5\n")
        with pytest.raises(ConfigError) as exc:
            run_experiment("pressure", path, tmp_path / "out")
        assert all(kind in str(exc.value) for kind in MODEL_KINDS)

    def test_unknown_subcommand(self, tmp_path):
        path = write_config(tmp_path, "model = free_spins\ntheta0 = 0\nsizes = 3:5\n")
        with pytest.raises(ConfigError, match="unknown subcommand 'nope'"):
            run_experiment("nope", path, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestModuleEntryPoint:
    def test_run_as_main_in_process(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, "model = free_spins\ntheta0 = 0\nsizes = 3:5\n")
        monkeypatch.setattr(sys, "argv", ["thermolab", "pressure", "--config", str(path),
                                          "--out", str(tmp_path / "out")])
        monkeypatch.delitem(sys.modules, "thermolab.__main__", raising=False)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("thermolab", run_name="__main__")
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["subcommand"] == "pressure"


class TestNoMaskedArrayImport:
    """A diff-test run never imports numpy.ma: np.unique would, on its first
    call, at about 21 ms CPU in a fresh process."""

    def test_diff_test_leaves_numpy_ma_unimported(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import sys\n"
            "from thermolab.cli import run_experiment\n"
            f"run_experiment('diff-test', {str(root / 'configs' / 'diff_test_curie_weiss.cfg')!r},"
            f" {str(tmp_path / 'out')!r})\n"
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]


class TestStrayKeyRefusedBeforeAnySolve:
    """Every runner finalizes its config before its first solve: a key no
    reader takes is a ConfigError, and the solver never runs."""

    CASES = {
        "pressure": ("pressure_limit", "model = ising_chain\nJ = 1.0\nhx = 0.3\n"
                     "theta0 = 0.1:2.0:0.01\ntheta1 = -0.5:0.5:0.1\nsizes = 4:14\n", 3),
        "entropy-curve": ("entropy_curve",
                          "model = curie_weiss\nJ = 1.0\nm_values = -0.9:0.9:0.1\nbogus = 1\n", 4),
        "legendre": ("entropy_curve", "model = curie_weiss\nJ = 1.0\nm_values = -0.9:0.9:0.1\n"
                     "theta0 = 1.0\nbogus = 1\n", 5),
        "completeness": ("completeness_verdict", "model = curie_weiss\nJ = 1.0\n"
                         "constrain = energy\ne_values = -0.3\nbogus = 1\n", 5),
        "kms-verify": ("build_model", "model = ising_chain\nJ = 1.0\nN = 4\ntheta0 = 1.0\n"
                       "bogus = 1\n", 5),
        "diff-test": ("entropy_curve", "model = curie_weiss\nJ = 1.0\ntheta0 = 3.0\nbogus = 1\n", 4),
    }

    @pytest.mark.parametrize("subcommand", CASES)
    def test_stray_key_stops_the_run_before_the_solver(self, tmp_path, monkeypatch, subcommand):
        solver, text, line = self.CASES[subcommand]
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError(f"{solver} ran before the config was finalized")

        monkeypatch.setattr(cli, solver, refuse)
        path = write_config(tmp_path, text)
        key = text.splitlines()[line - 1].split("=")[0].strip()
        with pytest.raises(ConfigError, match="unknown key") as exc:
            run_experiment(subcommand, path, tmp_path / "out")
        assert (exc.value.key, exc.value.line) == (key, line)
        assert calls == []


class TestConfigErrorNamesItsFile:
    def test_main_names_the_config_on_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path, "model = ising_chain\nJ = 1.0\nh = 0.3\nhx = 0.3\n"
                                      "theta0 = 1.0\nsizes = 3:5\n", name="x.cfg")
        assert main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{path}: unknown key (key 'hx', line 4)" in capsys.readouterr().err

    def test_parse_error_names_its_source(self):
        with pytest.raises(ConfigError, match=r"^x\.cfg: expected 'key = value' \(line 2\)$"):
            Config.parse("model = free_spins\nsizes 3:5\n", source="x.cfg")


class TestFailedRunLeavesNoOutDir:
    @pytest.mark.parametrize("text", [TestPressureOverflow.CONFIG,
                                      "model = free_spins\ntheta0 = 1.0\nsizes = 3:5\nbogus = 1\n"],
                             ids=["theta-overflow", "stray-key"])
    def test_exit_2_makes_no_out_dir(self, tmp_path, text):
        path = write_config(tmp_path, text)
        assert main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


class TestUnusableOutDirRefusedFirst:
    """An --out that cannot be made exits 2 before any solve and makes nothing."""

    CONFIG = "model = ising_chain\nJ = 1.0\nh = 0.3\ntheta0 = 0.5, 1.0\nsizes = 3:6\n"

    @pytest.mark.parametrize("where", ["under-a-file", "is-a-file", "deep-under-a-file"])
    def test_exit_2_without_solving(self, tmp_path, monkeypatch, capsys, where):
        calls = []
        monkeypatch.setattr(cli, "pressure_limit", lambda *args, **kwargs: calls.append(args))
        path = write_config(tmp_path, self.CONFIG)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = {"under-a-file": blocker / "out", "is-a-file": blocker,
               "deep-under-a-file": blocker / "a" / "b"}[where]
        before = sorted(tmp_path.rglob("*"))
        assert main(["pressure", "--config", str(path), "--out", str(out)]) == 2
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "not a directory\n"
        assert str(out) in capsys.readouterr().err

    def test_missing_parents_are_still_made(self, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "a" / "b" / "c"
        assert main(["pressure", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "pressure.csv").is_file()


class TestThreadsBelowOneRefused:
    """--threads below 1 exits 2 before any solve and makes nothing."""

    @pytest.mark.parametrize("threads", [0, -3])
    def test_exit_2_without_solving(self, tmp_path, monkeypatch, capsys, threads):
        def never(*args, **kwargs):
            raise AssertionError("pressure_limit must not run")

        monkeypatch.setattr(cli, "pressure_limit", never)
        path = write_config(tmp_path, "model = free_spins\ntheta0 = 0.5\nsizes = 3:5\n")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="threads"):
            run_experiment("pressure", path, out, threads=threads)
        assert main(["pressure", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)]) == 2
        assert "threads" in capsys.readouterr().err
        assert not out.exists()
