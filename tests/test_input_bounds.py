"""Inputs out of bounds are refused where they are read, before any work.

A size whose 2^N-dimensional space passes the cap is told from N alone, so
a huge N is refused at once (2^N is never formed), and a pressure sweep
refuses its largest size before it builds any. A config number that is not
finite is a ConfigError naming the file, key and line, raised by the getter
that reads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermolab.cli as cli
import thermolab.gibbs as gibbs
from thermolab import ConfigError, ModelSpec, ResourceError
from thermolab.cli import main, run_experiment
from thermolab.config import Config
from thermolab.gibbs import pressure_limit, release_families
from thermolab.lattice import DIMENSION_CAP, check_size

ROOT = Path(__file__).resolve().parents[1]
HUGE = "1" + "0" * 19  # a 20-digit size

# runs argv through main with a counter on gibbs.build_model; prints the exit
# code and the number of builds. Its address space is capped at 2 GiB, so a
# 2**N formed from a huge N fails with MemoryError instead of filling memory
COUNTED_MAIN = """
import resource
import sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
import thermolab.gibbs as gibbs
from thermolab.cli import main
builds = []
real = gibbs.build_model
gibbs.build_model = lambda *a, **k: builds.append(a) or real(*a, **k)
code = main(sys.argv[1:])
print(code, len(builds))
"""


def counted_main(tmp_path, subcommand, text):
    path = tmp_path / "big.cfg"
    path.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    # a size that is not refused from N alone would hang, or solve for minutes
    proc = subprocess.run([sys.executable, "-c", COUNTED_MAIN, subcommand, "--config",
                           str(path), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc


class TestOverCapSizeRefusedFromNAlone:
    @pytest.mark.parametrize("subcommand, text", [
        ("pressure", "model = free_spins\ntheta0 = 1.0\nsizes = 3, 4, 1e20\n"),
        ("pressure", "model = transverse_ising_chain\nJ = 1.0\nhx = 0.7\n"
                     "theta0 = 1.0\nsizes = 13:15\n"),
        ("kms-verify", f"model = ising_chain\nJ = 1.0\nN = {HUGE}\ntheta0 = 1.0\n"),
    ], ids=["pressure-1e20", "pressure-periodic-transverse-13:15", "kms-verify-20-digits"])
    def test_exit_2_at_once_without_a_build(self, tmp_path, subcommand, text):
        proc = counted_main(tmp_path, subcommand, text)
        assert proc.stdout.split() == ["2", "0"], proc.stderr
        assert "exceeds cap" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_pressure_limit_builds_no_size_below_the_refused_one(self, monkeypatch):
        builds = []
        real = gibbs.build_model
        monkeypatch.setattr(gibbs, "build_model",
                            lambda *a, **k: builds.append(a) or real(*a, **k))
        try:
            with pytest.raises(ResourceError, match="exceeds cap"):
                pressure_limit(ModelSpec("free_spins"), [1.0], [3, 4, 15])
        finally:
            release_families()
        assert builds == []

    @pytest.mark.parametrize("cap", [1, 2, 3, 1000, 1024, 1025, DIMENSION_CAP])
    def test_the_check_is_2_to_the_n_above_cap(self, cap):
        for n in range(0, 16):
            if 2**n > cap:
                with pytest.raises(ResourceError):
                    check_size(n, cap)
            else:
                check_size(n, cap)


class TestConfigNumbersMustBeFinite:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_getters_name_file_key_and_line(self, value):
        cfg = Config.parse(f"model = ising_chain\nJ = {value}\ntimes = 0.3, {value}\n",
                           "exp.cfg")
        with pytest.raises(ConfigError) as exc:
            cfg.get_float("J")
        assert (exc.value.key, exc.value.line) == ("J", 2)
        assert str(exc.value).startswith("exp.cfg: ")
        with pytest.raises(ConfigError) as exc:
            cfg.get_floats("times")
        assert (exc.value.key, exc.value.line) == ("times", 3)

    def test_legendre_refuses_a_nan_energy(self, tmp_path, capsys):
        path = tmp_path / "leg.cfg"
        path.write_text("model = curie_weiss\nJ = 1.0\nconstrain = energy\n"
                        "e_values = -0.3, nan\ntheta0 = 0.5\n")
        assert main(["legendre", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and "(key 'e_values', line 4)" in err
        assert not (tmp_path / "out").exists()

    def test_a_nan_coupling_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "p.cfg"
        path.write_text("model = ising_chain\nJ = nan\ntheta0 = 1.0\nsizes = 3:5\n")
        assert main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "(key 'J', line 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("key, line", [("times", "times = 0.3, nan"),
                                           ("theta0", "theta0 = nan")])
    def test_kms_verify_refuses_before_any_probe(self, tmp_path, monkeypatch, key, line):
        built = []
        monkeypatch.setattr(cli, "default_probes", lambda *a, **k: built.append(a))
        lines = ["model = ising_chain", "J = 1.0", "N = 4", "theta0 = 1.0", "times = 0.3"]
        lines = [line if text.startswith(key) else text for text in lines]
        path = tmp_path / "k.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as exc:
            run_experiment("kms-verify", path, tmp_path / "out")
        assert (exc.value.key, exc.value.line) == (key, lines.index(line) + 1)
        assert built == []
