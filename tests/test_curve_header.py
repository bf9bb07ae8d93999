"""One writer per curve-header fact.

A curve CSV's '#' lines are the run header (timestamp, version, seed, config
echo) followed by the curve's own (orientation and metadata). The model kind
and its couplings belong to the config echo, so the curve's metadata holds
only what the config cannot state: the product-state ``family``, and
``roundtrip`` on the Legendre round trip.
"""

import pytest

from thermolab.cli import ArtifactWriter, Config, run_experiment
from thermolab.completeness import ErgodicFamily, entropy_curve
from thermolab.convex import CurveSamples
from thermolab.lattice import ModelSpec

RUNS = [
    ("entropy-curve", "model = curie_weiss\nJ = 1.0\nh = 0.2\nm_values = -0.9:0.9:0.1\n",
     "entropy_curve.csv", {}),
    ("legendre", "model = curie_weiss\nJ = 1.0\nh = 0.2\nconstrain = energy\n"
                 "e_values = -0.6:0.0:0.05\ntheta0 = 0.5, 1.0\n",
     "biconjugate.csv", {"roundtrip": "biconjugate"}),
]


@pytest.mark.parametrize("subcommand, cfg_text, artifact, extra", RUNS,
                         ids=[run[0] for run in RUNS])
def test_each_header_key_is_written_once(tmp_path, subcommand, cfg_text, artifact, extra):
    path = tmp_path / "exp.cfg"
    path.write_text(cfg_text)
    run_experiment(subcommand, path, tmp_path / "out", seed=7)
    text = (tmp_path / "out" / artifact).read_text()
    keys = [line[1:].partition("=")[0].strip() for line in text.splitlines()
            if line.startswith("#") and "=" in line]
    assert sorted(set(keys)) == sorted(keys)
    # a reader still finds every fact, the model keys from the run header
    metadata = CurveSamples.from_csv(text).metadata
    expected = {"family": "product_states", "model": "curie_weiss", "J": "1.0", "h": "0.2",
                "seed": "7", **extra}
    assert {key: metadata.get(key) for key in expected} == expected


def test_curve_metadata_is_the_family_alone():
    family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.2))
    curve = entropy_curve(family, family.densities([-0.5, 0.0, 0.5]))
    assert curve.metadata == {"family": "product_states"}


def test_header_echo_is_sorted_whatever_the_read_order(tmp_path):
    cfg = Config.parse("b = 2\nc = x\na = 1.5\n", "x.cfg")
    cfg.get_str("c")
    cfg.get_float("a")
    cfg.get_int("b")
    writer = ArtifactWriter(tmp_path / "out", 3, cfg)
    writer.write_csv("t.csv", ["v"], ["1"])
    (_, text), = writer.pending
    echo = [line for line in text.splitlines()[3:] if line.startswith("# ")]
    assert echo == ["# a=1.5", "# b=2", "# c=x"]
