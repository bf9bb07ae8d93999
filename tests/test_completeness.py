import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    binary_entropy,
    free_spin_pressure,
    looped_monotone_segments,
    mean_field_fixed_point,
    mean_field_pressure_bounds,
    product_state_roots,
)
from thermolab import (
    ErgodicFamily,
    InfeasibleConstraintError,
    ModelSpec,
    UsageError,
    completeness_verdict,
    concavity_violations,
    conjugate,
    constrained_entropy_max,
    entropy_curve,
    family_curve_constraints,
    mean_field_pressure,
    pressure_slope_gap,
    tangent_set,
)
from thermolab.cli import Config
from thermolab.completeness import InfeasibleGridPointWarning, normalize_constraint
from thermolab.cli import run_experiment
from thermolab.completeness import MERGE_RADIUS, _component_roots

LN2 = math.log(2.0)


def cw(j=1.0, h=0.0):
    return ErgodicFamily(ModelSpec("curie_weiss", J=j, h=h))


class TestFamily:
    def test_entropy_endpoints(self):
        fam = cw()
        assert fam.entropy(1.0) == 0.0
        assert fam.entropy(-1.0) == 0.0
        assert_allclose(fam.entropy(0.0), LN2, atol=1e-15)
        m = np.linspace(-1, 1, 101)
        eta = fam.entropy(m)
        assert np.all(eta >= 0.0) and np.all(eta <= LN2 + 1e-15)
        assert_allclose(eta, binary_entropy((1 + m) / 2), atol=1e-14)

    def test_density_functions(self):
        fam = cw(j=2.0, h=0.3)
        m = np.array([-0.5, 0.0, 0.5])
        q = fam.densities(m)
        assert_allclose(q[:, 0], -1.0 * m**2 - 0.3 * m)
        assert_allclose(q[:, 1], m)
        free = ErgodicFamily(ModelSpec("free_spins"))
        assert free.n_components == 1
        assert_allclose(free.densities(m)[:, 0], (1 - m) / 2)
        chain = ErgodicFamily(ModelSpec("ising_chain", J=1.5, h=0.0))
        assert_allclose(chain.densities(m)[:, 0], -1.5 * m**2)

    def test_single_site_density(self):
        rho = cw().single_site_density(0.5)
        assert_allclose(rho, np.diag([0.75, 0.25]))
        with pytest.raises(UsageError):
            cw().single_site_density(1.5)

    def test_unsupported_kind(self):
        with pytest.raises(UsageError):
            ErgodicFamily(ModelSpec("transverse_ising_chain", J=1.0, hx=0.5))

    def test_constraint_labels(self):
        fam = cw()
        assert normalize_constraint(fam, {"energy": -0.125}) == {0: -0.125}
        assert normalize_constraint(fam, {"magnetization": 0.5, 0: -0.125}) == {
            0: -0.125,
            1: 0.5,
        }
        with pytest.raises(UsageError):
            normalize_constraint(fam, {"charge": 1.0})
        with pytest.raises(UsageError):
            normalize_constraint(fam, {})


class TestConstrainedMax:
    def test_symmetric_pair_below_transition(self):
        result = constrained_entropy_max(cw(), {0: -0.125})
        assert result.multiplicity == 2
        assert_allclose(result.maximizers, [-0.5, 0.5], atol=1e-8)
        assert_allclose(result.entropy_value, binary_entropy(0.75), atol=1e-10)
        assert_allclose(result.entropy_value, 0.562335, atol=1e-6)

    def test_zero_energy_unique(self):
        result = constrained_entropy_max(cw(), {0: 0.0})
        assert result.multiplicity == 1
        assert_allclose(result.maximizers, [0.0], atol=1e-8)
        assert_allclose(result.entropy_value, LN2, atol=1e-12)

    def test_joint_constraint_pins_phase(self):
        result = constrained_entropy_max(cw(), {0: -0.125, 1: 0.5})
        assert result.multiplicity == 1
        assert_allclose(result.maximizers, [0.5], atol=1e-8)

    def test_field_breaks_symmetry_near_band_edge(self):
        fam = cw(h=0.3)
        e_min = fam.component_range(0)[0]
        result = constrained_entropy_max(fam, {0: e_min + 1e-3})
        assert result.multiplicity == 1
        # oracle: positive root of -m^2/2 - 0.3 m = e
        target = e_min + 1e-3
        root = (-0.6 + math.sqrt(0.36 - 8 * target)) / 2.0
        assert_allclose(result.maximizers, [root], atol=1e-7)

    def test_infeasible_reports_reachable_range(self):
        with pytest.raises(InfeasibleConstraintError) as exc:
            constrained_entropy_max(cw(), {0: 0.5})
        lo, hi = exc.value.reachable[0]
        assert_allclose([lo, hi], [-0.5, 0.0], atol=1e-9)

    def test_band_edge_fully_polarized(self):
        result = constrained_entropy_max(cw(), {0: -0.5})
        assert_allclose(result.entropy_value, 0.0, atol=1e-8)
        assert result.multiplicity == 2  # both poles reach the minimum energy
        assert_allclose(np.abs(result.maximizers), [1.0, 1.0], atol=1e-8)

    def test_magnetization_only_constraint(self):
        result = constrained_entropy_max(cw(), {1: 0.25})
        assert result.multiplicity == 1
        assert_allclose(result.maximizers, [0.25], atol=1e-9)
        assert_allclose(result.entropy_value, binary_entropy(0.625), atol=1e-10)

    def test_flat_optimum_reports_interval(self):
        class FlatFamily(ErgodicFamily):
            def entropy(self, m):
                return np.zeros_like(np.asarray(m, dtype=float)) + 0.25

        fam = FlatFamily(ModelSpec("ising_chain", J=0.0, h=0.0))
        result = constrained_entropy_max(fam, {0: 0.0})  # e(m) is identically zero
        assert result.multiplicity == math.inf
        assert result.interval is not None
        assert_allclose(result.interval, [-1.0, 1.0], atol=1e-9)

    def test_tol_must_be_positive(self):
        with pytest.raises(UsageError):
            constrained_entropy_max(cw(), {0: -0.1}, tol=0.0)


class TestVerdict:
    def test_energy_only_incomplete(self):
        fam = cw()
        constraints = [{0: e} for e in np.arange(-0.45, -0.049, 0.05)]
        report = completeness_verdict(fam, constraints)
        assert report.verdict == "Incomplete"
        assert not report.complete
        assert all(r.multiplicity == 2 for r in report.records)
        assert report.witness.multiplicity == 2
        for rec in report.records:
            e = rec.constraint[0]
            assert_allclose(np.abs(rec.maximizers), math.sqrt(-2 * e), atol=1e-7)

    def test_joint_constraints_complete(self):
        fam = cw()
        constraints = family_curve_constraints(fam, np.linspace(-0.9, 0.9, 19))
        report = completeness_verdict(fam, constraints)
        assert report.verdict == "Complete"
        assert all(r.multiplicity == 1 for r in report.records)

    def test_json_serialization_shape(self):
        fam = cw()
        report = completeness_verdict(fam, [{0: -0.125}])
        payload = report.records[0].to_json_dict(report.verdict)
        assert set(payload) == {"constraint", "s", "maximizers", "multiplicity", "verdict"}
        assert payload["multiplicity"] == 2
        assert payload["verdict"] == "Incomplete"


class TestEntropyCurve:
    def test_joint_curve_equals_eta(self):
        fam = cw()
        m_values = np.linspace(-0.9, 0.9, 181)
        curve = entropy_curve(fam, family_curve_constraints(fam, m_values))
        assert curve.ndim == 2
        assert_allclose(curve.values, fam.entropy(m_values), atol=1e-9)
        assert_allclose(curve.grid[:, 1], m_values, atol=1e-12)
        assert curve.metadata["family"] == "product_states"
        assert concavity_violations(curve, 1e-9) == []

    @pytest.mark.parametrize("h", [0.0, 0.3])
    def test_joint_constraint_returns_eta_of_its_m(self, h):
        # the magnetization component pins m exactly, so the entropy of each
        # joint constraint is eta(m) itself, not that of a nearby energy root
        fam = cw(h=h)
        m_values = np.round(np.arange(-972, 973) / 1000, 3)
        curve = entropy_curve(fam, family_curve_constraints(fam, m_values))
        assert curve.values.tolist() == [fam.entropy(float(m)) for m in m_values]
        assert_allclose(curve.values, binary_entropy((1 + m_values) / 2), rtol=0, atol=1e-15)

    def test_energy_only_curve(self):
        fam = cw()
        e_values = np.linspace(-0.5, 0.0, 26)
        curve = entropy_curve(fam, [{0: e} for e in e_values])
        expected = binary_entropy((1 + np.sqrt(-2 * e_values)) / 2)
        assert_allclose(curve.values, expected, atol=1e-8)
        assert_allclose(curve.values[0], 0.0, atol=1e-8)  # fully polarized edge

    def test_infeasible_points_skipped_with_warning(self):
        fam = cw()
        grid = [{0: -0.125}, {0: 0.75}]
        with pytest.warns(InfeasibleGridPointWarning):
            curve = entropy_curve(fam, grid)
        assert curve.npoints == 1

    def test_mixed_components_rejected(self):
        fam = cw()
        with pytest.raises(UsageError):
            entropy_curve(fam, [{0: -0.125}, {1: 0.5}])

    def test_all_infeasible_raises(self):
        fam = cw()
        with pytest.warns(InfeasibleGridPointWarning):
            with pytest.raises(InfeasibleConstraintError):
                entropy_curve(fam, [{0: 0.9}])


class TestMeanFieldPressure:
    def test_free_spin_closed_form(self):
        fam = ErgodicFamily(ModelSpec("free_spins"))
        for theta0 in (0.3, 1.0, 2.7):
            assert_allclose(mean_field_pressure(fam, [theta0]),
                            free_spin_pressure(theta0), atol=1e-9)

    def test_matches_grid_conjugation(self):
        fam = cw()
        m_values = np.arange(-0.999, 0.9995, 1e-4)
        curve = entropy_curve(fam, family_curve_constraints(fam, m_values))
        for theta in ([0.8, 0.2], [0.5, -0.1], [1.0, 0.0]):
            assert_allclose(conjugate(curve, theta),
                            mean_field_pressure(fam, theta), atol=1e-8)

    def test_high_temperature_smooth(self):
        # above the transition the quotient gap is pure curvature bias,
        # step * phi'' = 1e-4 * 2 here, not an order-one kink
        fam = cw()
        gap = pressure_slope_gap(fam, [0.5, 0.0])
        assert abs(gap.gap) <= 5e-4

    def test_kink_matches_fixed_point(self):
        fam = cw()
        gap = pressure_slope_gap(fam, [3.0, 0.0])
        m_star = mean_field_fixed_point(3.0)
        assert_allclose(gap.gap, 2 * m_star, atol=1e-3)
        assert_allclose(gap.right, m_star, atol=1e-3)
        assert_allclose(gap.left, -m_star, atol=1e-3)

    def test_component_validation(self):
        fam = ErgodicFamily(ModelSpec("free_spins"))
        with pytest.raises(UsageError):
            pressure_slope_gap(fam, [1.0], component=1)

    @pytest.mark.parametrize("step", [0.0, -1e-4, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(UsageError):
            pressure_slope_gap(cw(), [3.0, 0.0], step=step)


class TestJointCurveSmoothness:
    def test_tangent_widths_small_inside(self):
        # sampled two steps past the reported window so every tested point
        # has full two-interval stencils on both sides
        fam = cw()
        spacing = 1e-3
        m_values = np.arange(-0.972, 0.972 + spacing / 2, spacing)
        curve = entropy_curve(fam, family_curve_constraints(fam, m_values))
        widths = [
            tangent_set(curve, curve.grid[i]).max_width
            for i in range(2, curve.npoints - 2)
            if abs(curve.grid[i, 1]) <= 0.97
        ]
        assert len(widths) > 1900
        assert max(widths) <= 1e-3


SEGMENT_SPECS = [
    ModelSpec("free_spins"),
    ModelSpec("ising_chain", J=1.0, h=0.3),
    ModelSpec("ising_chain", J=-0.7, h=-1.1),
    ModelSpec("curie_weiss", J=1.0, h=0.25),
    ModelSpec("curie_weiss", J=2.0, h=-0.05),
    ModelSpec("curie_weiss", J=1.0, h=0.0),
]


class TestMonotoneSegmentsReference:
    """The vectorized segment split equals a looped scan of the same column."""

    @pytest.mark.parametrize("spec", SEGMENT_SPECS, ids=lambda s: f"{s.kind}-J{s.J}-h{s.h}")
    def test_segments_equal_looped_scan(self, spec):
        family = ErgodicFamily(spec)
        _, q, _ = family._scan_arrays()
        for k in range(family.n_components):
            assert family._monotone_segments(k) == looped_monotone_segments(q[:, k])

    @pytest.mark.parametrize("seed", range(4))
    def test_columns_with_flat_steps(self, seed):
        # model columns almost never repeat a value; a synthetic scan with
        # runs of equal values checks that zero steps never break a segment
        rng = np.random.default_rng(seed)
        column = np.cumsum(rng.choice([-1.0, 0.0, 0.0, 1.0], size=2001))
        family = cw(h=0.1)
        m, _, eta = family._scan_arrays()
        family._scan = (m[:2001], np.stack([column, column], -1), eta[:2001])
        assert family._monotone_segments(0) == looped_monotone_segments(column)

    def test_looped_scan_splits_at_flips_only(self):
        # zero steps neither break a segment nor hide a later flip
        column = [0.0, 1.0, 1.0, 2.0, 1.0, 1.0, 0.0, 3.0]
        assert looped_monotone_segments(column) == [(0, 3), (3, 6), (6, 7)]


class TestComponentOffset:
    """The refinement closures evaluate the family's densities."""

    @pytest.mark.parametrize("spec", SEGMENT_SPECS, ids=lambda s: f"{s.kind}-J{s.J}-h{s.h}")
    def test_matches_densities(self, spec):
        family = ErgodicFamily(spec)
        xs = np.random.default_rng(3).uniform(-1.0, 1.0, 50).tolist() + [-1.0, 0.0, 1.0]
        q = family.densities(np.array(xs))
        for k in range(family.n_components):
            fn = family.component_offset(k, 0.25)
            got = np.array([fn(x) for x in xs])
            assert_allclose(got, q[:, k] - 0.25, rtol=1e-15, atol=1e-15)


SHIPPED_E_VALUES = Config.load(
    Path(__file__).resolve().parents[1] / "configs" / "completeness_curie_weiss.cfg"
).get_floats("e_values")

# (kind, J, h, component, target); band-edge targets use dyadic J and h, so
# the edge values e(+-1) and the vertex value are exact floats
EXACT_ROOT_CASES = (
    [("curie_weiss", 1.0, 0.0, 0, e) for e in SHIPPED_E_VALUES]
    + [("curie_weiss", 1.0, 0.3, 0, e) for e in (-0.7, -0.5, -0.1, 0.0, 0.03)]
    + [("curie_weiss", 2.0, -0.05, 0, e) for e in (-0.9, -0.2, 0.0005)]
    + [("ising_chain", 1.5, -0.4, 0, e) for e in (-1.8, -1.0, -0.3, 0.02)]
    + [("ising_chain", 1.0, 0.0, 0, e) for e in (-0.81, -0.25)]
    + [("free_spins", 1.0, 0.0, 0, 0.3), ("curie_weiss", 1.0, 0.3, 1, -0.4)]
    + [
        ("curie_weiss", 1.0, 0.0, 0, -0.5),  # both poles
        ("curie_weiss", 1.0, 0.25, 0, -0.75),  # m = 1
        ("curie_weiss", 1.0, 0.25, 0, -0.25),  # m = -1 and m = 0.5
        ("curie_weiss", 1.0, 0.5, 0, 0.125),  # double root at the vertex m = -0.5
        ("ising_chain", 1.0, 0.5, 0, -1.5),  # m = 1
        ("ising_chain", 1.0, 0.5, 0, -0.5),  # m = -1 and m = 0.5
        ("ising_chain", 1.0, 0.5, 0, 0.0625),  # double root at the vertex m = -0.25
        ("free_spins", 1.0, 0.0, 0, 0.0),  # m = 1
    ]
)


class TestExactRoots:
    """Entropies and maximizers equal eta at the exact roots to a few ulp."""

    @pytest.mark.parametrize("case", EXACT_ROOT_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_matches_oracle(self, case):
        kind, j, h, k, target = case
        family = ErgodicFamily(ModelSpec(kind, J=j, h=h))
        roots, etas = product_state_roots(kind, j, h, k, target)
        assert roots
        best = max(etas)
        expected = [m for m, eta in zip(roots, etas) if eta >= best - 1e-9]
        result = constrained_entropy_max(family, {k: target})
        assert abs(result.entropy_value - best) <= 1e-14
        assert len(result.maximizers) == len(expected)
        assert_allclose(result.maximizers, expected, rtol=0, atol=1e-14)


class TestLargeCouplings:
    """The root and feasibility tolerance scales with the coefficients."""

    @pytest.mark.parametrize("target", [-2.5e7, -2.5e7 + 0.1, -24999996.7])
    def test_both_phases_at_large_coupling(self, target):
        j = 2e8
        roots, etas = product_state_roots("curie_weiss", j, 0.0, 0, target)
        assert len(roots) == 2
        result = constrained_entropy_max(cw(j=j), {0: target})
        assert result.multiplicity == 2
        assert_allclose(result.maximizers, roots, rtol=1e-15, atol=0)
        assert_allclose(result.entropy_value, max(etas), rtol=1e-14)

    @pytest.mark.parametrize("kind, j, h", [
        ("free_spins", 0.0, 0.0),
        ("curie_weiss", 1.0, 1.0),
        ("curie_weiss", -1.0, -0.3),
        ("ising_chain", 1.0, -1.0),
        ("ising_chain", 0.25, 0.5),
    ])
    def test_unit_couplings_keep_the_plain_tolerance(self, kind, j, h):
        family = ErgodicFamily(ModelSpec(kind, J=j, h=h))
        assert family.coefficient_scale == (1.0,) * family.n_components

    def test_scale_follows_the_largest_coefficient(self):
        assert cw(j=2e8, h=3.0).coefficient_scale == (1e8, 1.0)
        family = ErgodicFamily(ModelSpec("ising_chain", J=0.5, h=-7.0))
        assert family.coefficient_scale == (7.0, 1.0)


class TestOverflowingCouplings:
    """Past |J| ~ 1e154, b * b or 4 a c leaves the float range; the root table
    scales a, b and c - t by one power of two, so the roots survive with the
    bits the unscaled formula gives wherever it stays in range."""

    @pytest.mark.parametrize("j", [1e160, 1e300])
    def test_both_phases_at_overflowing_coupling(self, j):
        roots, etas = product_state_roots("curie_weiss", j, 0.0, 0, -j / 4.0)
        result = constrained_entropy_max(cw(j=j), {0: -j / 4.0})
        assert result.multiplicity == 2
        assert_allclose(result.maximizers, roots, rtol=1e-15, atol=0)
        assert abs(result.maximizers[1] - 1.0 / math.sqrt(2.0)) <= 2e-16
        assert_allclose(result.entropy_value, max(etas), rtol=1e-14)

    @pytest.mark.parametrize("j", [1.0, 3.0, 1e10, 1e150])
    @pytest.mark.parametrize("h_over_j", [0.0, 0.3])
    def test_roots_keep_the_unscaled_bits(self, j, h_over_j):
        h, target = h_over_j * j, -j / 4.0
        a, b, c = -j / 2.0, -h, -0.0 - target
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        unscaled = sorted(x + 0.0 for x in (q / a, c / q) if -1.0 <= x <= 1.0)
        assert _component_roots(cw(j=j, h=h), 0, target, 1e-9) == unscaled


class TestScanFreeSolves:
    """Roots, ranges and pressures come from the coefficient triples alone."""

    @pytest.mark.parametrize("spec", SEGMENT_SPECS, ids=lambda s: f"{s.kind}-J{s.J}-h{s.h}")
    def test_no_scan_is_built(self, spec):
        family = ErgodicFamily(spec)
        inside = family.densities(0.3).tolist()
        constrained_entropy_max(family, {0: inside[0]})
        constrained_entropy_max(family, dict(enumerate(inside)))
        with pytest.raises(InfeasibleConstraintError):
            constrained_entropy_max(family, {0: family.component_range(0)[1] + 1.0})
        completeness_verdict(family, family_curve_constraints(family, [-0.4, 0.1, 0.6]))
        theta = [1.7] + [0.2] * (family.n_components - 1)
        mean_field_pressure(family, theta)
        pressure_slope_gap(family, theta, component=family.n_components - 1)
        assert family._scan is None

    @pytest.mark.parametrize("spec", SEGMENT_SPECS, ids=lambda s: f"{s.kind}-J{s.J}-h{s.h}")
    def test_ranges_bound_the_densities(self, spec):
        family = ErgodicFamily(spec)
        q = family.densities(np.linspace(-1.0, 1.0, 20001))
        for k in range(family.n_components):
            lo, hi = family.component_range(k)
            assert lo <= q[:, k].min() and q[:, k].max() <= hi
            assert_allclose([lo, hi], [q[:, k].min(), q[:, k].max()], rtol=0, atol=1e-8)

    def test_zero_energy_keeps_its_sign(self):
        # -0.0 coefficients add nothing, so e(0) stays -J*0 - h*0 = -0.0
        q = cw().densities([0.0])
        assert math.copysign(1.0, q[0, 0]) == -1.0
        assert math.copysign(1.0, q[0, 1]) == 1.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tol_must_be_finite(self, tol):
        with pytest.raises(UsageError):
            constrained_entropy_max(cw(), {0: -0.1}, tol=tol)


class TestKinkMirror:
    """At h = 0 and theta_1 = 0 the one-sided slopes are exact mirrors."""

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 1.0001, 2.0, 3.0, 4.7])
    @pytest.mark.parametrize("kind", ["curie_weiss", "ising_chain"])
    def test_left_slope_mirrors_right(self, kind, theta0):
        family = ErgodicFamily(ModelSpec(kind, J=1.0, h=0.0))
        gap = pressure_slope_gap(family, [theta0, 0.0])
        assert gap.left == -gap.right

    def test_shipped_diff_test_config(self):
        cfg = Config.load(Path(__file__).resolve().parents[1] / "configs"
                          / "diff_test_curie_weiss.cfg")
        family = ErgodicFamily(ModelSpec("curie_weiss", J=cfg.get_float("J"),
                                         h=cfg.get_float("h")))
        gap = pressure_slope_gap(family, [cfg.get_float("theta0"), 0.0])
        assert gap.left == -gap.right
        assert_allclose(gap.right, mean_field_fixed_point(3.0), atol=1e-3)


def _oracle_cases():
    """(kind, J, h, theta): random draws with J, h in [-3, 3] and theta in
    [-5, 5]^k; a third with s within 1e-6 of 1, a third with a root so near
    +-1 that tanh(s m + r) rounds to it."""
    rng = np.random.default_rng(20240)
    cases = []
    for i in range(24):
        kind = ("free_spins", "ising_chain", "curie_weiss")[i % 3]
        j, h = (float(x) for x in rng.uniform(-3.0, 3.0, 2))
        theta = rng.uniform(-5.0, 5.0, 1 if kind == "free_spins" else 2)
        if i % 9 in (1, 2):  # s = 2 theta_0 J on the chain, theta_0 J on the complete graph
            theta[0] = (1.0 + rng.uniform(-1e-6, 1e-6)) / ((2.0 if kind == "ising_chain" else 1.0) * j)
        elif i % 9 in (4, 5):  # r = theta_0 h - theta_1 of 15 or more
            sign = float(rng.choice([-1.0, 1.0]))
            h = sign * float(rng.uniform(2.0, 3.0))
            theta[:] = [5.0, -5.0 * sign]
        elif kind == "free_spins" and i % 9 == 6:
            theta[0] = 5.0 * float(rng.choice([-1.0, 1.0]))
        cases.append((kind, j, h, theta.tolist()))
    return cases


class TestMeanFieldPressureOracle:
    """The pressure equals the best mean-field root of an independent
    bisection, and never falls below a 2,000,001-point scan."""

    @pytest.mark.parametrize("case", _oracle_cases(),
                             ids=lambda c: f"{c[0]}-J{c[1]:.3g}-h{c[2]:.3g}")
    def test_matches_oracle(self, case):
        kind, j, h, theta = case
        got = mean_field_pressure(ErgodicFamily(ModelSpec(kind, J=j, h=h)), theta)
        at_roots, on_scan = mean_field_pressure_bounds(kind, j, h, theta)
        scale = max(1.0, abs(at_roots))
        assert got >= on_scan - 1e-14 * scale
        assert abs(got - at_roots) <= 1e-14 * scale

    @pytest.mark.parametrize("theta", [[1e17, 0.0], [1e17, 3.0], [-1e17, 0.5], [3.0, 1e300]])
    def test_roots_past_the_last_float_below_one(self, theta):
        # for s > 4.5e15, sqrt(1 - 1/s) rounds to 1: the increasing piece
        # holds no float, and the maximum sits at m = +-1 to rounding
        got = mean_field_pressure(cw(), theta)
        m = np.array([-1.0, 1.0, 0.0])
        expected = np.max(cw().entropy(m) - cw().densities(m) @ np.asarray(theta))
        assert_allclose(got, expected, rtol=1e-15, atol=0)


class TestUnconstrainingEnergy:
    """At J = h = 0 the energy density is 0 for every m, so {0: 0.0}
    constrains nothing and the answer is eta's maximum at m = 0."""

    def test_sharp_maximum(self):
        result = constrained_entropy_max(ErgodicFamily(ModelSpec("curie_weiss")), {0: 0.0})
        assert result.maximizers == (0.0,)
        assert result.multiplicity == 1
        assert result.entropy_value == LN2

    def test_flat_maximum_reports_its_interval(self, tmp_path):
        path = tmp_path / "flat.cfg"
        path.write_text("model = curie_weiss\nJ = 0.0\nh = 0.0\nconstrain = energy\n"
                        "e_values = 0.0\ntol = 0.01\n")
        run_experiment("completeness", path, tmp_path / "out")
        payload = json.loads((tmp_path / "out" / "completeness.json").read_text())
        record = payload["records"][0]
        assert record["multiplicity"] == "inf"
        lo, hi = record["interval"]
        assert record["maximizers"] == [lo, hi]
        assert -0.2 < lo < -0.1 and 0.1 < hi < 0.2
        # the ends of the flat top are where eta falls tol below ln 2
        assert LN2 - 0.01 <= cw().entropy(hi) <= LN2 - 0.0099


class TestConstraintInputChecks:
    def test_component_index_out_of_range(self):
        with pytest.raises(UsageError, match="out of range"):
            constrained_entropy_max(cw(), {5: 0.0})

    def test_no_constraints(self):
        with pytest.raises(UsageError, match="no constraints"):
            completeness_verdict(cw(), [])

    def test_empty_curve_grid(self):
        with pytest.raises(UsageError, match="empty curve grid"):
            entropy_curve(cw(), [])


class TestMaximizersStayMerged:
    """Maximizers are sorted and farther apart than MERGE_RADIUS: they are
    a subsequence of one component's merged roots."""

    @pytest.mark.parametrize("constraint", [{0: -0.3}, {0: -0.125, 1: 0.5}, {1: -0.2}])
    def test_sorted_and_separated(self, constraint):
        result = constrained_entropy_max(cw(), constraint)
        gaps = np.diff(result.maximizers)
        assert np.all(gaps > MERGE_RADIUS)
        assert result.multiplicity == len(result.maximizers)


class TestFlatRowsBuildNoScan:
    """A flat row of an entropy curve takes eta(0) directly: the 200,001-point
    scan is built only where a flat optimum's interval is asked for."""

    def test_flat_energy_grid_leaves_the_scan_unbuilt(self):
        family = ErgodicFamily(ModelSpec("ising_chain", J=0.0, h=0.0))
        curve = entropy_curve(family, [{0: 0.0}])
        assert family._scan is None
        fresh = ErgodicFamily(ModelSpec("ising_chain", J=0.0, h=0.0))
        assert curve.values.tolist() == [constrained_entropy_max(fresh, {0: 0.0}).entropy_value]
