"""The config reader and the model-kind table: each kind reads only its keys."""

from dataclasses import replace

import pytest

from thermolab import ConfigError, ModelSpec, UsageError
from thermolab.cli import main, run_experiment
from thermolab.config import Config
from thermolab.lattice import MODEL_KINDS, parse_model_config

# (model lines, a key that kind does not read, its value)
IGNORED_KEYS = [
    ("model = ising_chain\nJ = 1.0\n", "hx", "0.5"),
    ("model = free_spins\n", "J", "1.0"),
    ("model = free_spins\n", "h", "0.2"),
    ("model = curie_weiss\nJ = 1.0\n", "boundary", "open"),
    ("model = transverse_ising_chain\nJ = 1.0\nhx = 0.7\n", "h", "0.3"),
]
IDS = [f"{text.split()[2]}-{key}" for text, key, _ in IGNORED_KEYS]

# every field set away from its default; a kind keeps only the ones it reads
ALL_FIELDS = dict(J=0.75, h=-0.25, hx=0.5, boundary="open")


class TestKeysAModelIgnoresAreRefused:
    @pytest.mark.parametrize("model, key, value", IGNORED_KEYS, ids=IDS)
    def test_run_refuses_key_with_its_line(self, tmp_path, model, key, value):
        text = model + f"{key} = {value}\ntheta0 = 1.0\nsizes = 3:5\n"
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        line = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError, match="unknown key") as exc:
            run_experiment("pressure", path, tmp_path / "out")
        assert (exc.value.key, exc.value.line) == (key, line)
        assert not (tmp_path / "out" / "pressure.csv").exists()

    @pytest.mark.parametrize("model, key, value", IGNORED_KEYS, ids=IDS)
    def test_cli_exits_2_naming_the_key(self, tmp_path, capsys, model, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(model + f"{key} = {value}\ntheta0 = 1.0\nsizes = 3:5\n")
        assert main(["pressure", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key (key {key!r}, line" in capsys.readouterr().err

    @pytest.mark.parametrize("model, key, value", IGNORED_KEYS, ids=IDS)
    def test_parse_model_config_refuses_key(self, model, key, value):
        with pytest.raises(UsageError, match=f"unknown key \\(key {key!r}"):
            parse_model_config(model + f"{key}={value}\n")

    @pytest.mark.parametrize("text", ["model=ising_chain\nJ=1.0\nJ=2.0",
                                      "model=curie_weiss, h=0.1, h=0.2, N=4",
                                      "model=free_spins, N=3\nN=4"])
    def test_parse_model_config_refuses_duplicate_key(self, text):
        with pytest.raises(UsageError, match="duplicate key"):
            parse_model_config(text)


class TestOneModelReader:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_text_and_config_agree(self, kind):
        echo = replace(ModelSpec(kind), **ALL_FIELDS).config_echo()
        text = "\n".join(f"{k} = {v}" for k, v in echo.items())
        spec, n = parse_model_config(text + "\nN = 5")
        cfg = Config.parse(text)
        assert ModelSpec.from_config(cfg) == spec
        cfg.finalize()
        assert n == 5
        assert spec == ModelSpec(kind, **{k: v for k, v in echo.items() if k != "model"})
        assert spec.config_echo() == echo

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_unread_fields_keep_their_defaults(self, kind):
        spec = ModelSpec.from_config(Config.parse(f"model = {kind}"))
        assert spec == ModelSpec(kind)

    def test_config_error_is_a_usage_error(self):
        assert issubclass(ConfigError, UsageError)

    def test_load_is_parse_of_the_file(self, tmp_path):
        text = "model = ising_chain  # ring\n\nJ = 1.0\n"
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        loaded = Config.load(path)
        assert loaded.entries == Config.parse(text).entries == {
            "model": ("ising_chain", 1), "J": ("1.0", 3)}
        assert loaded.source == str(path)

    def test_boundary_is_checked_while_reading(self):
        with pytest.raises(ConfigError, match="key 'boundary', line 2"):
            parse_model_config("model=ising_chain\nboundary=twisted")
