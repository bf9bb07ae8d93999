"""Each job done once: the structural audit, the site rotation, the curve CSV
header map, the config getters and the curve artifact's seed line.

The audit and the rotation are checked against the loops they replaced,
kept here as references: ``verify_family`` read a diagonal and a dense
family in two branches per observable, and ``Translation.permutation``
rotated the index one bit at a time.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from thermolab.cli import ArtifactWriter, Config, run_experiment
from thermolab.convex import CONCAVE, CurveSamples
from thermolab.errors import ConfigError, DataError, UsageError
from thermolab.lattice import (
    CHAIN,
    ModelSpec,
    ObservableFamily,
    StructureReport,
    Translation,
    build_model,
    verify_family,
)

from oracles import spin_model_diagonals, transverse_ising_matrix

SPECS = [
    ModelSpec("free_spins"),
    ModelSpec("ising_chain", J=1.0, h=0.3),
    ModelSpec("ising_chain", J=-0.7, h=0.2, boundary="open"),
    ModelSpec("curie_weiss", J=0.7, h=-0.2),
    ModelSpec("transverse_ising_chain", J=1.0, hx=0.6),
    ModelSpec("transverse_ising_chain", J=0.8, hx=1.3, boundary="open"),
]
SPEC_IDS = [f"{s.kind}-{s.boundary}" for s in SPECS]


def looped_permutation(n: int, shift: int) -> np.ndarray:
    """The index rotated right by ``shift % n``, one bit at a time."""
    idx = np.arange(2**n, dtype=np.int64)
    tau = idx.copy()
    for _ in range(shift % n):
        tau = (tau >> 1) | ((tau & 1) << (n - 1))
    return tau


def reference_split(family: ObservableFamily):
    """The extensivity defects with one branch per observable."""
    if family.spec is None or family.region.size < 2:
        return None, None
    n = family.region.size
    na, nb = n // 2, n - n // 2
    sub_spec = family.spec
    if family.region.geometry == CHAIN:
        sub_spec = replace(sub_spec, boundary="open")
    fam_a = build_model(sub_spec, sub_spec.region(na))
    fam_b = build_model(sub_spec, sub_spec.region(nb))
    defects = {}
    for j, label in enumerate(family.labels):
        if family.is_diagonal:
            joined = np.add.outer(fam_a.diagonals[j], fam_b.diagonals[j]).ravel()
            defects[label] = float(np.max(np.abs(family.diagonals[j] - joined)))
        else:
            joined = np.kron(fam_a.dense[j], np.eye(fam_b.dim)) + np.kron(
                np.eye(fam_a.dim), fam_b.dense[j]
            )
            defects[label] = float(np.max(np.abs(family.dense[j] - joined)))
    return defects, (na, nb)


def reference_report(family: ObservableFamily) -> StructureReport:
    """``verify_family`` with one branch per observable and a looped rotation."""
    herm = 0.0
    if not family.is_diagonal:
        m = family.dense[0]
        herm = float(np.max(np.abs(m - m.conj().T)))
    gram = family.gram_matrix()
    gram_min = float(gram[0, 0] if gram.shape == (1, 1) else np.min(np.linalg.eigvalsh(gram)))
    trans = None
    if family.region.translation_invariant and family.region.size >= 2:
        tau = looped_permutation(family.region.size, 1)
        inv = np.argsort(tau)
        trans = 0.0
        for j in range(family.n_observables):
            if family.is_diagonal:
                moved = np.empty_like(family.diagonals[j])
                moved[tau] = family.diagonals[j]
                trans = max(trans, float(np.max(np.abs(moved - family.diagonals[j]))))
            else:
                moved = family.dense[j][np.ix_(inv, inv)]
                trans = max(trans, float(np.max(np.abs(moved - family.dense[j]))))
    defects, split = reference_split(family)
    return StructureReport(
        kind=family.spec.kind if family.spec else None,
        n_sites=family.region.size,
        hermiticity_defect=herm,
        commutator_norm=0.0,
        gram_min_eigenvalue=gram_min,
        translation_defect=trans,
        extensivity_defects=defects,
        split=split,
    )


def assert_same_bits(report: StructureReport, reference: StructureReport):
    assert report == reference
    # repr round-trips every float64, so equal reprs are equal bits, -0.0 included
    for field in dataclasses.fields(StructureReport):
        got, want = getattr(report, field.name), getattr(reference, field.name)
        assert repr(got) == repr(want), field.name


class TestVerifyFamilyReference:
    @pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_built_in_kinds(self, spec, n):
        family = build_model(spec, spec.region(n))
        assert_same_bits(verify_family(family), reference_report(family))

    @pytest.mark.parametrize("with_spec", [True, False], ids=["spec", "no-spec"])
    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_family_given_diagonals(self, n, with_spec):
        spec = ModelSpec("ising_chain", J=0.9, h=-0.4)
        diagonals = spin_model_diagonals("ising_chain", n, 0.9, -0.4)
        family = ObservableFamily(spec.region(n), spec.labels, diagonals=diagonals,
                                  spec=spec if with_spec else None)
        report = verify_family(family)
        assert (report.extensivity_defects is not None) == with_spec
        assert_same_bits(report, reference_report(family))

    @pytest.mark.parametrize("with_spec", [True, False], ids=["spec", "no-spec"])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_family_given_one_dense_matrix(self, n, periodic, with_spec):
        spec = ModelSpec("transverse_ising_chain", J=1.1, hx=0.7,
                         boundary="periodic" if periodic else "open")
        matrix = transverse_ising_matrix(n, 1.1, 0.7, periodic=periodic)
        family = ObservableFamily(spec.region(n), spec.labels, matrices=[matrix],
                                  spec=spec if with_spec else None)
        assert family.diagonals is None
        assert_same_bits(verify_family(family), reference_report(family))


class TestTranslationRotation:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_one_step_equals_the_bitwise_loop(self, n):
        for shift in range(-n, 2 * n + 1):
            tau = Translation(n, shift).permutation()
            assert tau.dtype == np.int64
            np.testing.assert_array_equal(tau, looped_permutation(n, shift))

    @pytest.mark.parametrize("n_sites", [0, -1, -5])
    def test_no_sites_is_a_usage_error(self, n_sites):
        with pytest.raises(UsageError, match="at least one site"):
            Translation(n_sites)


class TestCurveCsvHeader:
    def test_orientation_anywhere_in_the_header(self):
        text = "# a=1\n# orientation=concave\n# b=2\nq_0,value\n0,0\n1,1\n"
        curve = CurveSamples.from_csv(text)
        assert curve.orientation == CONCAVE
        assert list(curve.metadata) == ["a", "b"]
        assert curve.metadata == {"a": "1", "b": "2"}

    def test_repeated_keys_keep_the_last_value_and_the_first_place(self):
        text = ("# b=1\n# orientation=convex\n# a=1\n# b=2\n# orientation=concave\n"
                "q_0,value\n0,0\n1,1\n")
        curve = CurveSamples.from_csv(text)
        assert curve.orientation == CONCAVE
        assert list(curve.metadata.items()) == [("b", "2"), ("a", "1")]

    def test_missing_orientation(self):
        with pytest.raises(DataError, match="orientation"):
            CurveSamples.from_csv("# a=1\n# orientation\nq_0,value\n0,0\n")


class TestMalformedCurveBody:
    HEAD = "# orientation=concave\nq_0,value\n"

    @pytest.mark.parametrize("body, line, match", [
        ("1,abc\n", 3, "cannot parse '1,abc'"),
        ("1,2\n,3\n", 4, "cannot parse ',3'"),
        ("1,2\n3\n", 4, "1 columns"),
        ("1\n2\n", 3, "1 columns"),
        ("1,2\n\n3,4,5\n", 5, "3 columns"),
    ], ids=["word", "empty-cell", "ragged", "one-column", "wide"])
    def test_data_error_names_the_line(self, body, line, match):
        with pytest.raises(DataError, match=match) as info:
            CurveSamples.from_csv(self.HEAD + body)
        assert str(info.value).startswith(f"line {line}: ")

    def test_rows_of_the_first_row_width_still_read(self):
        curve = CurveSamples.from_csv("# orientation=concave\nq_0,q_1,value\n"
                                      "0,0,0\n0,1,1\n1,0,1\n1,1,2\n")
        assert curve.grid.shape == (4, 2)
        np.testing.assert_array_equal(curve.values, [0.0, 1.0, 1.0, 2.0])


class TestConfigGetters:
    def cfg(self, text):
        return Config.parse(text, "x.cfg")

    @pytest.mark.parametrize("getter, value, message", [
        ("get_float", "abc", "cannot parse 'abc' as a number"),
        ("get_float", "inf", "expected a finite number, got 'inf'"),
        ("get_int", "1.5", "cannot parse '1.5' as an integer"),
        ("get_floats", "1, x", "could not convert string to float: ' x'"),
        ("get_floats", "1:0", "bad range bounds 1.0:0.0:1.0"),
        ("get_floats", "1, nan", "expected finite numbers, got '1, nan'"),
    ])
    def test_messages(self, getter, value, message):
        cfg = self.cfg(f"a = 1\nk = {value}\n")
        with pytest.raises(ConfigError) as info:
            getattr(cfg, getter)("k")
        assert str(info.value) == f"x.cfg: {message} (key 'k', line 2)"
        assert info.value.key == "k" and info.value.line == 2

    def test_positive(self):
        with pytest.raises(ConfigError) as info:
            self.cfg("k = -2\n").get_float("k", positive=True)
        assert str(info.value) == "x.cfg: expected a positive finite number, got '-2' (key 'k', line 1)"

    @pytest.mark.parametrize("getter", ["get_str", "get_float", "get_int", "get_floats"])
    def test_absent_key_returns_the_default_unread(self, getter):
        default = object()
        cfg = self.cfg("other = 1\n")
        assert getattr(cfg, getter)("k", default) is default
        assert "k" not in cfg.consumed

    @pytest.mark.parametrize("getter", ["get_str", "get_float", "get_int", "get_floats"])
    def test_missing_required(self, getter):
        with pytest.raises(ConfigError, match="missing required key"):
            getattr(self.cfg("other = 1\n"), getter)("k", required=True)

    def test_present_key_is_parsed_even_when_equal_to_the_default(self):
        cfg = self.cfg("f = 2.0\ni = 3\nl = 0:1:0.5\ns = x\n")
        assert cfg.get_float("f", 2.0) == 2.0
        assert cfg.get_int("i", 3) == 3
        assert cfg.get_floats("l", [0.0, 0.5, 1.0]) == [0.0, 0.5, 1.0]
        assert cfg.get_str("s", "x", choices=("x", "y")) == "x"
        assert cfg.echo() == {"f": "2.0", "i": "3", "l": "0:1:0.5", "s": "x"}


class TestCurveSeedLine:
    def test_writer_leaves_the_curve_as_handed(self, tmp_path):
        writer = ArtifactWriter(tmp_path / "out", 7, Config.parse("", "x.cfg"))
        curve = CurveSamples([[0.0], [1.0]], [0.0, 1.0], CONCAVE, {"model": "free_spins"})
        writer.write_curve("c.csv", curve)
        assert curve.metadata == {"model": "free_spins"}
        (name, text), = writer.pending
        assert text.count("# seed=") == 1
        assert "# seed=7\n" in text

    @pytest.mark.parametrize("subcommand, cfg_text, artifact", [
        ("entropy-curve", "model = curie_weiss\nJ = 1.0\nh = 0.2\nm_values = -0.9:0.9:0.1\n",
         "entropy_curve.csv"),
        ("legendre", "model = curie_weiss\nJ = 1.0\nh = 0.1\nconstrain = energy\n"
                     "e_values = -0.6:0.0:0.05\ntheta0 = 0.5, 1.0\n", "biconjugate.csv"),
    ], ids=["entropy-curve", "legendre"])
    def test_one_seed_line_per_curve_artifact(self, tmp_path, subcommand, cfg_text, artifact):
        path = tmp_path / "exp.cfg"
        path.write_text(cfg_text)
        run_experiment(subcommand, path, tmp_path / "out", seed=7)
        text = (tmp_path / "out" / artifact).read_text()
        assert [line for line in text.splitlines() if line.startswith("# seed=")] == ["# seed=7"]
        # a reader still finds the seed, from the run header
        assert CurveSamples.from_csv(text).metadata["seed"] == "7"

