import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import enumerate_spin_chain_logz, transverse_ising_matrix
from thermolab import (
    ModelSpec,
    Region,
    ResourceError,
    Translation,
    UsageError,
    build_model,
    verify_family,
)
from thermolab.lattice import ObservableFamily, _site_spins, lift_site_operator
from thermolab.lattice import MODEL_KINDS, parse_model_config


def test_region_validation():
    with pytest.raises(UsageError):
        Region("chain", 4)  # missing boundary
    with pytest.raises(UsageError):
        Region("complete_graph", 4, boundary="periodic")
    with pytest.raises(UsageError):
        Region("chain", 0, boundary="open")
    with pytest.raises(UsageError):
        Region("torus", 4)


def test_model_spec_validation():
    with pytest.raises(UsageError):
        ModelSpec("heisenberg")
    with pytest.raises(UsageError):
        ModelSpec("ising_chain", J=np.inf)


def test_site_spin_convention():
    spins = _site_spins(3)
    # index 4 = 100b: site 0 carries the high bit and is flipped down
    assert_allclose(spins[:, 4], [-1.0, 1.0, 1.0])
    assert_allclose(spins[:, 0], [1.0, 1.0, 1.0])
    assert_allclose(spins[:, 7], [-1.0, -1.0, -1.0])


def test_free_spins_single_site():
    spec = ModelSpec("free_spins")
    fam = build_model(spec, spec.region(1))
    assert_allclose(fam.diagonals[0], [0.0, 1.0])
    assert fam.labels == ("energy",)


def test_ising_three_site_spectrum():
    spec = ModelSpec("ising_chain", J=1.0, h=0.0)
    fam = build_model(spec, spec.region(3))
    vals, counts = np.unique(fam.diagonals[0], return_counts=True)
    assert_allclose(vals, [-3.0, 1.0])
    assert list(counts) == [2, 6]


def test_curie_weiss_two_site_diagonal():
    spec = ModelSpec("curie_weiss", J=1.0, h=0.0)
    fam = build_model(spec, spec.region(2))
    assert_allclose(fam.diagonals[0], [-1.0, 0.0, 0.0, -1.0])
    assert_allclose(fam.diagonals[1], [2.0, 0.0, 0.0, -2.0])


def test_ising_energies_match_enumeration():
    spec = ModelSpec("ising_chain", J=0.8, h=-0.3)
    for n in (2, 3, 5):
        for boundary in ("periodic", "open"):
            sp = ModelSpec("ising_chain", J=0.8, h=-0.3, boundary=boundary)
            fam = build_model(sp, sp.region(n))
            beta = 0.9
            shift = fam.diagonals[0].min()
            logz = float(
                np.log(np.exp(-beta * (fam.diagonals[0] - shift)).sum()) - beta * shift
            )
            expected = enumerate_spin_chain_logz(n, beta, 0.8, -0.3, boundary == "periodic")
            assert_allclose(logz, expected, atol=1e-10)


def test_build_is_deterministic():
    spec = ModelSpec("curie_weiss", J=1.3, h=0.2)
    a = build_model(spec, spec.region(5))
    b = build_model(spec, spec.region(5))
    for da, db in zip(a.diagonals, b.diagonals):
        assert np.array_equal(da, db)


def test_dimension_cap():
    spec = ModelSpec("free_spins")
    with pytest.raises(ResourceError):
        build_model(spec, spec.region(15))
    build_model(spec, spec.region(14))  # exactly at the cap


def test_geometry_mismatch_rejected():
    spec = ModelSpec("ising_chain", J=1.0)
    with pytest.raises(UsageError):
        build_model(spec, Region("complete_graph", 4))


def test_translation_matches_dense_conjugation():
    n = 3
    shift = Translation(n)
    tau = shift.permutation()
    perm_matrix = np.zeros((8, 8))
    perm_matrix[tau, np.arange(8)] = 1.0
    rng = np.random.default_rng(11)
    diag = rng.standard_normal(8)
    assert_allclose(
        shift.conjugate_diagonal(diag),
        np.diag(perm_matrix @ np.diag(diag) @ perm_matrix.T),
        atol=1e-14,
    )
    dense = rng.standard_normal((8, 8))
    assert_allclose(
        shift.conjugate_dense(dense), perm_matrix @ dense @ perm_matrix.T, atol=1e-14
    )


def test_translation_moves_site_operators():
    # sigma_z at site 0 must become sigma_z at site 1 under a unit shift
    n = 3
    spins = _site_spins(n)
    moved = Translation(n).conjugate_diagonal(spins[0])
    assert_allclose(moved, spins[1], atol=0)


class TestVerifyFamily:
    def test_free_spins_strictly_additive(self):
        spec = ModelSpec("free_spins")
        report = verify_family(build_model(spec, spec.region(4)))
        assert report.extensivity_defects == {"energy": 0.0}
        assert report.split == (2, 2)
        assert report.commutator_norm == 0.0
        assert report.hermiticity_defect == 0.0
        assert report.translation_defect == 0.0
        assert report.gram_min_eigenvalue > 1e-10

    def test_periodic_ising_translation_invariant(self):
        spec = ModelSpec("ising_chain", J=1.0, h=0.5)
        report = verify_family(build_model(spec, spec.region(4)))
        assert report.translation_defect <= 1e-12
        assert report.gram_min_eigenvalue > 1e-10

    def test_open_ising_boundary_bond(self):
        spec = ModelSpec("ising_chain", J=1.0, h=0.25, boundary="open")
        report = verify_family(build_model(spec, spec.region(4)))
        assert report.translation_defect is None  # shift is not a symmetry here
        assert_allclose(report.extensivity_defects["energy"], 1.0)  # one J bond
        assert report.extensivity_defects["magnetization"] == 0.0

    def test_periodic_ising_two_boundary_bonds(self):
        spec = ModelSpec("ising_chain", J=0.7, h=0.0)
        report = verify_family(build_model(spec, spec.region(6)))
        assert_allclose(report.extensivity_defects["energy"], 2 * 0.7)

    def test_curie_weiss_mean_field_boundary_term(self):
        spec = ModelSpec("curie_weiss", J=1.0, h=0.3)
        report = verify_family(build_model(spec, spec.region(4)))
        assert report.translation_defect <= 1e-12
        assert report.extensivity_defects["magnetization"] == 0.0
        # (J/8)(S_A - S_B)^2 peaks at 2J for opposite fully polarized halves
        assert_allclose(report.extensivity_defects["energy"], 2.0)

    def test_transverse_family_is_single_observable(self):
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.7)
        fam = build_model(spec, spec.region(3))
        assert not fam.is_diagonal
        assert fam.n_observables == 1
        report = verify_family(fam)
        assert report.commutator_norm == 0.0
        assert report.hermiticity_defect <= 1e-12
        assert report.translation_defect <= 1e-12

    def test_large_diagonal_families_stay_clean(self):
        # diagonal storage keeps the audits cheap right up to large sizes
        for spec in (ModelSpec("free_spins"), ModelSpec("ising_chain", J=1.0, h=0.3),
                     ModelSpec("curie_weiss", J=1.0, h=0.1)):
            report = verify_family(build_model(spec, spec.region(12)))
            assert report.hermiticity_defect <= 1e-12
            assert report.commutator_norm <= 1e-12
            assert report.gram_min_eigenvalue > 1e-10
            assert report.translation_defect <= 1e-12

    def test_custom_family_without_spec_skips_extensivity(self):
        region = Region("single_sites", 2)
        fam = ObservableFamily(region, ("a",), diagonals=[np.array([0.0, 1.0, 1.0, 2.0])])
        report = verify_family(fam)
        assert report.extensivity_defects is None
        assert report.kind is None


def test_gram_detects_dependence():
    region = Region("single_sites", 1)
    with_dependent = ObservableFamily(
        region, ("a", "b"), diagonals=[np.array([1.0, 2.0]), np.array([2.0, 4.0])]
    )
    report = verify_family(with_dependent)
    assert report.gram_min_eigenvalue < 1e-10


def test_parse_model_config():
    from thermolab.lattice import parse_model_config

    spec, n = parse_model_config(
        "model=ising_chain\nJ=1.0\nh=0.0\nN=10\nboundary=periodic\n"
    )
    assert spec == ModelSpec("ising_chain", J=1.0, h=0.0, boundary="periodic")
    assert n == 10
    spec, n = parse_model_config("model=free_spins  # comment")
    assert spec.kind == "free_spins"
    assert n is None
    spec, n = parse_model_config("model=curie_weiss, J=2.0, h=0.1, N=8")
    assert spec == ModelSpec("curie_weiss", J=2.0, h=0.1)
    assert n == 8
    with pytest.raises(UsageError):
        parse_model_config("J=1.0")  # no model
    with pytest.raises(UsageError):
        parse_model_config("model=ising_chain\nJ=strong")
    with pytest.raises(UsageError):
        parse_model_config("model=ising_chain\ncolor=blue")


def test_control_generator_combines_observables():
    spec = ModelSpec("ising_chain", J=1.0, h=0.0)
    fam = build_model(spec, spec.region(3))
    gen = fam.control_generator([2.0, 0.5])
    assert_allclose(gen, 2.0 * fam.diagonals[0] + 0.5 * fam.diagonals[1])
    with pytest.raises(UsageError):
        fam.control_generator([1.0])


class TestLevelView:
    def test_diagonal_view_indexes_the_level_table(self):
        spec = ModelSpec("ising_chain", J=1.0, h=0.3)
        fam = build_model(spec, spec.region(6))
        view = fam.level_view()
        rows, log_mult = fam.levels()
        assert np.array_equal(view.rows, rows)
        assert np.array_equal(view.log_mult, log_mult)
        assert view.basis is None
        assert np.array_equal(view.rows[view.index], np.stack(fam.diagonals, axis=1))
        assert fam.level_view() is view
        with pytest.raises(ValueError):
            view.index[0] = 1

    def test_dense_view_is_an_eigenbasis(self):
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.6, boundary="open")
        fam = build_model(spec, spec.region(4))
        view = fam.level_view()
        vec, lam = view.basis, view.rows[:, 0]
        assert np.array_equal(view.index, np.arange(fam.dim))
        assert_allclose(vec.T @ vec, np.eye(fam.dim), atol=1e-12)
        assert_allclose((vec * lam) @ vec.T, fam.dense[0], atol=1e-12)
        assert_allclose(lam, fam.levels()[0][:, 0], atol=1e-12)


def _kron_transverse_hamiltonian(n, j, hx, periodic):
    """-J sum sz sz - hx sum sx from kron-lifted single-site Paulis."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    ham = np.zeros((2**n, 2**n))
    for i in range(n if periodic else n - 1):
        ham -= j * lift_site_operator(sz, i, n) @ lift_site_operator(sz, (i + 1) % n, n)
    for i in range(n):
        ham -= hx * lift_site_operator(sx, i, n)
    return ham


class TestTransverseHamiltonian:
    """The bit-operation build equals the kron build exactly."""

    # n=1 periodic has a self bond and n=2 periodic a doubled bond
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_kron_reference_bit_for_bit(self, n, boundary):
        for j, hx in ((1.0, 0.7), (0.7, 0.3), (-0.9, -0.4)):
            spec = ModelSpec("transverse_ising_chain", J=j, hx=hx, boundary=boundary)
            ham = build_model(spec, spec.region(n)).dense[0]
            periodic = boundary == "periodic"
            reference = _kron_transverse_hamiltonian(n, j, hx, periodic)
            assert ham.dtype == reference.dtype
            assert ham.tobytes() == reference.tobytes()
            # bonds are summed one by one, so an entry whose bonds cancel
            # carries their roundoff instead of an exact zero
            assert_allclose(ham, transverse_ising_matrix(n, j, hx, periodic), rtol=1e-15,
                            atol=n * np.finfo(float).eps * abs(j))


class TestSpectralForm:
    """Gram matrix and generator read the family's levels, whatever its storage."""

    def test_gram_matrix_from_levels(self):
        spec = ModelSpec("ising_chain", J=0.8, h=0.3)
        fam = build_model(spec, spec.region(5))
        table = np.stack(fam.diagonals)
        assert_allclose(fam.gram_matrix(), table @ table.T / fam.dim, rtol=1e-14)
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.6)
        fam = build_model(spec, spec.region(4))
        ham = fam.dense[0]
        assert_allclose(fam.gram_matrix(), [[np.trace(ham @ ham) / fam.dim]], rtol=1e-13)

    def test_dense_generator_is_diagonal_in_the_view_basis(self):
        spec = ModelSpec("transverse_ising_chain", J=1.0, hx=0.6, boundary="open")
        fam = build_model(spec, spec.region(4))
        gen = fam.control_generator([-0.7])
        vec = fam.level_view().basis
        assert_allclose((vec * gen) @ vec.T, -0.7 * fam.dense[0], atol=1e-12)


class TestDenseGramWithoutEigensolve:
    """A fresh dense family's Gram entry is sum H_ij^2 / dim, with no eigensolve."""

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_gram_and_audit_skip_the_spectrum(self, monkeypatch, boundary):
        spec = ModelSpec("transverse_ising_chain", J=0.9, hx=0.7, boundary=boundary)
        fam = build_model(spec, spec.region(6))
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        gram = fam.gram_matrix()
        report = verify_family(fam)
        assert calls == []
        assert report.gram_min_eigenvalue == gram[0, 0]
        rows, log_mult = fam.levels()  # the level-table form, eigvalsh now runs
        assert calls == ["eigvalsh"]
        assert_allclose(gram, (rows * np.exp(log_mult)[:, None]).T @ rows / fam.dim,
                        rtol=1e-13)


GROUPING_SPECS = [ModelSpec("free_spins")] + [
    ModelSpec(kind, J=j, h=h, boundary=boundary)
    for kind, boundary in (("ising_chain", "periodic"), ("ising_chain", "open"),
                           ("curie_weiss", "periodic"))
    for j, h in ((1.0, 0.0), (0.9, 0.35), (-0.7, 0.0), (-0.7, -0.4))
]


class TestLevelGrouping:
    """The sort-and-break grouping of diagonal rows is np.unique's, byte for byte."""

    @staticmethod
    def unique_reference(fam):
        rows, index, counts = np.unique(np.stack(fam.diagonals, axis=1), axis=0,
                                        return_inverse=True, return_counts=True)
        return rows, np.log(counts), index.reshape(-1)

    @pytest.mark.parametrize("spec", GROUPING_SPECS,
                             ids=lambda s: f"{s.kind}-{s.boundary}-J{s.J}-h{s.h}")
    def test_matches_np_unique(self, spec):
        for n in range(1, 13):
            fam = build_model(spec, spec.region(n))
            view = fam.level_view()
            for got, want in zip((view.rows, view.log_mult, view.index),
                                 self.unique_reference(fam)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            rows, log_mult = build_model(spec, spec.region(n)).levels()
            assert rows.tobytes() == view.rows.tobytes()
            assert log_mult.tobytes() == view.log_mult.tobytes()

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_mixed_signed_zero_level_takes_its_lowest_state(self, boundary):
        # at J = 0 the energy -0.0 * bonds - h * M is 0.0 on some states and
        # -0.0 on others of one level; np.unique's unstable sort picks either
        spec = ModelSpec("ising_chain", J=0.0, h=0.0, boundary=boundary)
        for n in range(1, 13):
            fam = build_model(spec, spec.region(n))
            view = fam.level_view()
            rows, log_mult, index = self.unique_reference(fam)
            assert np.array_equal(view.rows, rows)
            assert view.log_mult.tobytes() == log_mult.tobytes()
            assert view.index.tobytes() == index.tobytes()
            states = np.stack(fam.diagonals, axis=1)
            lowest = [int(np.flatnonzero(view.index == k)[0]) for k in range(len(view.rows))]
            assert view.rows.tobytes() == states[lowest].tobytes()


class TestModelTextAndFamilyChecks:
    def test_model_config_skips_comments_and_blank_lines(self):
        spec, n = parse_model_config("# a ring\n\nmodel=ising_chain\nJ=0.5  # coupling\nN=6\n")
        assert spec == ModelSpec("ising_chain", J=0.5)
        assert n == 6

    def test_model_config_line_without_equals(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_model_config("model=free_spins\nJ 1.0\n")

    def test_transverse_echo_names_hx(self):
        echo = ModelSpec("transverse_ising_chain", J=1.0, hx=0.6).config_echo()
        assert echo == {"model": "transverse_ising_chain", "J": 1.0, "hx": 0.6,
                        "boundary": "periodic"}

    def test_model_kinds_are_the_accepted_kinds(self):
        for kind in MODEL_KINDS:
            assert ModelSpec(kind).kind == kind
        with pytest.raises(UsageError):
            ModelSpec("no_such_model")

    @pytest.mark.parametrize("kwargs, message", [
        ({}, "exactly one"),
        ({"diagonals": [np.zeros(2)], "matrices": [np.eye(2)]}, "exactly one"),
        ({"matrices": [np.array([[0.0, 1.0], [0.0, 0.0]])]}, "hermitian"),
        ({"diagonals": [np.zeros(3)]}, "shape mismatch"),
        ({"diagonals": []}, "at least one observable"),
        ({"diagonals": [np.zeros(2), np.ones(2)]}, "one label per observable"),
    ], ids=["neither", "both", "not-hermitian", "shape", "empty", "labels"])
    def test_family_construction_errors(self, kwargs, message):
        labels = ("energy",) if kwargs.get("diagonals") != [] else ()
        with pytest.raises(UsageError, match=message):
            ObservableFamily(Region("single_sites", 1), labels, **kwargs)

    def test_lift_site_out_of_range(self):
        with pytest.raises(UsageError, match="out of range"):
            lift_site_operator(np.eye(2), -1, 3)
