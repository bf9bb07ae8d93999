"""Each runner does its work once, in the loop its traffic pays for.

legendre and diff-test items hold the GIL (microseconds of numpy, a
pure-Python bisection), so they run as plain loops whatever ``--threads``
says. kms-verify solves each distinct default probe pair once per theta, and
refuses a smeared setting it cannot honour before any probe is built.
"""

import concurrent.futures
from pathlib import Path

import pytest

import thermolab.cli as cli
from thermolab import ConfigError, ModelSpec, build_model
from thermolab.cli import main, run_experiment
from thermolab.kms import DEFAULT_PROBE_PAIRS, default_probes

ROOT = Path(__file__).resolve().parents[1]


def body(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestSerialRunners:
    @pytest.mark.parametrize("subcommand, config, looped", [
        ("legendre", "tools/ci_configs/legendre_energy_curie_weiss.cfg", "pressure_curve.csv"),
        ("legendre", "tools/ci_configs/legendre_joint_curie_weiss.cfg", "pressure_curve.csv"),
        ("diff-test", "configs/diff_test_curie_weiss.cfg", "pressure_scan.csv"),
    ], ids=["legendre-energy", "legendre-joint", "diff-test"])
    def test_four_threads_make_no_pool_and_the_one_thread_bodies(self, tmp_path, monkeypatch,
                                                                  subcommand, config, looped):
        run_experiment(subcommand, ROOT / config, tmp_path / "t1", threads=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        run_experiment(subcommand, ROOT / config, tmp_path / "t4", threads=4)
        names = sorted(p.name for p in (tmp_path / "t1").iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in (tmp_path / "t4").iterdir()
                               if p.name != "manifest.json")
        assert looped in names  # the table a thread pool used to fill
        for name in names:
            assert body(tmp_path / "t1" / name) == body(tmp_path / "t4" / name)


RING = ("model = ising_chain\nJ = 1.0\nh = 0.3\nN = 4\ntheta0 = 0.5, 1.0, 2.0\n"
        "theta1 = 0.2\ntimes = 0.3, 1.1\n")


class TestSmearedPairs:
    """Smeared rows take the run's first k distinct probe pairs, once per theta."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_k_distinct_pairs_per_theta_in_probe_order(self, tmp_path, monkeypatch, k,
                                                       threads):
        calls = []
        reference = cli.kms_smeared_residual

        def counting(family, theta, a, b, f, **kwargs):
            calls.append((tuple(theta), a.label, b.label))
            return reference(family, theta, a, b, f, **kwargs)

        monkeypatch.setattr(cli, "kms_smeared_residual", counting)
        cfg = tmp_path / "k.cfg"
        cfg.write_text(RING + f"sigma_w = 2.0\nsmeared_probes = {k}\n")
        run_experiment("kms-verify", cfg, tmp_path / "out", seed=7, threads=threads)
        thetas = [(0.5, 0.2), (1.0, 0.2), (2.0, 0.2)]
        assert len(calls) == k * len(thetas)

        spec = ModelSpec("ising_chain", J=1.0, h=0.3)
        probes = default_probes(build_model(spec, spec.region(4)), 7, [0.3, 1.1])
        order = list(dict.fromkeys((a.label, b.label) for a, b, _ in probes))
        assert len(order) == DEFAULT_PROBE_PAIRS
        rows = [line.split(",") for line in body(tmp_path / "out" / "smeared.csv")[1:]]
        assert len(rows) == k * len(thetas)
        for j, th in enumerate(thetas):
            block = rows[j * k:(j + 1) * k]
            assert all((float(r[2]), float(r[3])) == th for r in block)
            assert [(r[4], r[5]) for r in block] == order[:k]
        assert calls == [(th,) + pair for th in thetas for pair in order[:k]]

    def test_residual_rows_keep_every_pair_at_every_time(self, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(RING + "sigma_w = 0\nsmeared_probes = 3\n")
        run_experiment("kms-verify", cfg, tmp_path / "out", seed=7)
        assert not (tmp_path / "out" / "smeared.csv").exists()
        rows = [line.split(",") for line in body(tmp_path / "out" / "residuals.csv")[1:]]
        assert len(rows) == 3 * 2 * DEFAULT_PROBE_PAIRS  # thetas x times x pairs
        first = rows[:2 * DEFAULT_PROBE_PAIRS]
        assert [r[6] for r in first] == ["0.3"] * 3 + ["1.1"] * 3  # time-major
        assert len({(r[4], r[5]) for r in first}) == DEFAULT_PROBE_PAIRS


class TestBadSmearedSettingsRefusedFirst:
    """A width or pair count kms-verify cannot honour is a ConfigError naming
    its key and line, before any probe is built and without an --out."""

    @pytest.mark.parametrize("key, value", [
        ("sigma_w", "-1"), ("sigma_w", "nan"), ("sigma_w", "inf"), ("sigma_w", "-inf"),
        ("smeared_probes", "-2"), ("smeared_probes", "0"), ("smeared_probes", "4"),
        ("smeared_probes", "5"),
    ])
    def test_config_error_exit_2_before_default_probes(self, tmp_path, capsys, monkeypatch,
                                                       key, value):
        built = []
        monkeypatch.setattr(cli, "default_probes", lambda *a, **k: built.append(a))
        text = RING + f"{key} = {value}\n"
        cfg = tmp_path / "k.cfg"
        cfg.write_text(text)
        line = text.count("\n")
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as exc:
            run_experiment("kms-verify", cfg, out)
        assert (exc.value.key, exc.value.line) == (key, line)
        assert main(["kms-verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"thermolab: error: {cfg}: ")
        assert f"(key '{key}', line {line})" in err
        assert not out.exists()
        assert built == []

    def test_zero_width_still_switches_smeared_rows_off(self, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(RING + "sigma_w = 0\n")
        manifest = run_experiment("kms-verify", cfg, tmp_path / "out")
        assert [a["path"] for a in manifest["artifacts"]] == ["residuals.csv"]
