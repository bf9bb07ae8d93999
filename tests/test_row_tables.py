"""The mean-field pass's array forms keep the bits of their per-row forms.

Float tables render through one ``repr`` per cell at C level, ``biconjugate``
takes its f* and hull from blocked stacked mat-vec tables, the solver's
entropy is a float-only function, ``tangent_set`` finds its points' rows by
one sort, and joint constraints reach the runners as an array. Each is pinned
here against the per-row code it replaced.
"""

import math

import numpy as np
import pytest

import thermolab.cli as cli
from thermolab import CONCAVE, CurveSamples, ErgodicFamily, ModelSpec, tangent_set
from thermolab.cli import _line, run_experiment
from thermolab.completeness import _eta, completeness_verdict, family_curve_constraints
from thermolab.convex import _distinct, biconjugate, float_lines


def old_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def old_line(row) -> str:
    return ",".join(map(old_cell, row))


SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-5,
           0.1, -2.5, 1.7976931348623157e308, 123456789.0]


class TestFloatLines:
    def test_table_matches_old_cells(self):
        rng = np.random.default_rng(0)
        table = np.array([SPECIAL, rng.permutation(SPECIAL), rng.normal(size=len(SPECIAL)) * 1e8])
        want = [old_line(row) for row in table]  # np.float64 cells
        assert float_lines(table) == want
        assert float_lines(table.tolist()) == want

    def test_empty_table(self):
        assert float_lines(np.empty((0, 3))) == []

    def test_mixed_rows_keep_line_bytes(self):
        rows = [
            ("ising_chain", 9, np.float64(-0.0), 0.5, "sx@0", np.float64(5e-324), math.nan),
            (3, -1, np.float64(1e16), math.inf, -math.inf, np.float64(1e-5), True),
        ]
        for row in rows:
            assert _line(row) == old_line(row)

    def test_curve_csv_body(self):
        q = np.array([-2.5, -0.0, 5e-324, 1e-5, 0.1, 1e16])
        f = CurveSamples(q, np.array([-0.0, 1e-5, 1e16, 5e-324, 0.1, -2.5]), CONCAVE)
        body = f.to_csv().split("q_0,value\n", 1)[1]
        assert body == "".join(old_line(row) + "\n"
                               for row in np.column_stack([f.grid, f.values]))


def biconjugate_rows(f: CurveSamples) -> np.ndarray:
    """The hull values as the per-row loops computed them."""
    per_axis = []
    for k in range(f.ndim):
        step = f._neighbours(k)[:, 2:4]
        i, j = step[step[:, 1] >= 0].T
        slopes = (f.values[j] - f.values[i]) / (f.grid[j, k] - f.grid[i, k])
        per_axis.append(_distinct(slopes) if slopes.size else np.array([0.0]))
    mesh = np.meshgrid(*per_axis, indexing="ij")
    dual = np.stack([m.ravel() for m in mesh], axis=-1)
    fstar = np.array([np.max(f.values - f.grid @ th) for th in dual])
    return np.array([np.min(fstar + dual @ qrow) for qrow in f.grid]), len(dual)


def assert_same_hull(f):
    want, ndual = biconjugate_rows(f)
    got = biconjugate(f).values
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    return ndual


class TestBlockedBiconjugate:
    @pytest.mark.parametrize("n", [2, 3, 32, 33, 64, 65, 500])
    def test_1d_curves(self, n):
        rng = np.random.default_rng(n)
        q = np.sort(rng.uniform(-1.0, 1.0, n))
        assert_same_hull(CurveSamples(q, np.sin(5.0 * q) - q * q, CONCAVE))

    def test_1d_binary_entropy(self):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        m = np.linspace(-0.99, 0.99, 199)
        values = np.array([_eta(x) for x in m.tolist()])
        assert_same_hull(CurveSamples(family.densities(m)[:, 1], values, CONCAVE))

    def test_2d_product_grid_with_partial_last_block(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(-2.0, 2.0, 8))
        ys = np.sort(rng.uniform(-1.0, 3.0, 10))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        values = -(grid[:, 0] ** 2) + np.cos(3.0 * grid[:, 1]) + 0.3 * grid[:, 0] * grid[:, 1]
        ndual = assert_same_hull(CurveSamples(grid, values, CONCAVE))
        assert ndual % 32 and ndual > 32  # 7 x 9 slopes: a partial second block

    def test_signed_zeros(self):
        q = np.linspace(-1.0, 1.0, 41)
        values = np.where(np.arange(41) % 3 == 0, -0.0, 0.0)
        assert_same_hull(CurveSamples(q, values, CONCAVE))


def eta_reference(m) -> float:
    """ErgodicFamily.entropy's scalar path as it read before ``_eta``."""
    p = (1.0 + float(m)) / 2.0
    out = 0.0
    for w in (p, 1.0 - p):
        if w > 0.0:
            out -= w * math.log(w)
    return out


class TestEta:
    def test_bits_match_the_entropy(self):
        rng = np.random.default_rng(3)
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        ms = [-1.0, 1.0, 0.0, -0.0, 5e-324, 1.0 - 2.0**-53, -1.0 + 2.0**-52, 0.5]
        ms += rng.uniform(-1.0, 1.0, 2000).tolist()
        for m in ms:
            want = np.float64(eta_reference(m)).view(np.uint64)
            assert np.float64(_eta(m)).view(np.uint64) == want
            assert np.float64(family.entropy(m)).view(np.uint64) == want
            assert np.float64(family.entropy(np.float64(m))).view(np.uint64) == want
        assert _eta(1.0) == 0.0 and _eta(-1.0) == 0.0 and _eta(0.0) == math.log(2.0)


def dict_rows(f: CurveSamples, points: np.ndarray) -> list:
    """Each point's sample index as the dict of float tuples gave it."""
    rows = {row: i for i, row in enumerate(map(tuple, f.grid.tolist()))}
    return [rows.get(p, -1) for p in map(tuple, points.tolist())]


def assert_rows_are_single_calls(f, points):
    ts = tangent_set(f, points)
    for p, point in enumerate(points):
        one = tangent_set(f, point)
        for field in ("lower", "upper", "tol"):
            assert getattr(ts, field)[p].tobytes() == getattr(one, field).tobytes()


class TestExactRows:
    def test_1d_mixed_stack(self):
        q = np.linspace(-1.0, 1.0, 21)  # q[10] is 0.0
        f = CurveSamples(q, -(q * q) + 0.2 * q, CONCAVE)
        rng = np.random.default_rng(11)
        points = np.concatenate([
            f.grid[rng.permutation(21)], [[-0.0], [0.0]],
            rng.uniform(-1.0, 1.0, 9)[:, None], [[q[3] + 1e-12]], f.grid[[0, 20, 0]],
        ])
        got = f._exact_rows(points)
        assert got.tolist() == dict_rows(f, points)
        assert got[21] == got[22] == 10
        assert_rows_are_single_calls(f, points)

    def test_chain_with_signed_zero_coordinates(self):
        t = np.linspace(-1.0, 1.0, 15)  # t[7] is 0.0, so the chain meets (0, 0)
        grid = np.stack([t, t**3], axis=-1)
        f = CurveSamples(grid, -(t**2), CONCAVE)
        points = np.concatenate([grid[::-1], [[-0.0, -0.0], [0.0, -0.0], [t[2], 0.0]]])
        got = f._exact_rows(points)
        assert got.tolist() == dict_rows(f, points)
        assert got[15] == got[16] == 7 and got[17] == -1

    def test_points_before_and_after_every_row(self):
        q = np.array([0.0, 1.0, 2.0])
        f = CurveSamples(q, -q * q, CONCAVE)
        points = np.array([[-5.0], [-5.0], [0.0], [7.0], [2.0]])
        assert f._exact_rows(points).tolist() == [-1, -1, 0, -1, 2]


class TestJointConstraintsAreArrays:
    def test_runners_call_no_dict_builder(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a runner built constraint dicts")

        monkeypatch.setattr(cli, "family_curve_constraints", refuse)
        joint = "model = curie_weiss\nJ = 1.0\nh = 0.2\nconstrain = joint\nm_values = -0.9:0.9:0.05\n"
        runs = {
            "entropy-curve": joint,
            "legendre": joint + "theta0 = 0.5, 2.0\ntheta1 = -0.1, 0.1\n",
            "completeness": joint,
        }
        for sub, text in runs.items():
            cfg = tmp_path / f"{sub}.cfg"
            cfg.write_text(text)
            manifest = run_experiment(sub, cfg, tmp_path / sub)
            assert manifest["artifacts"]

    def test_completeness_reads_array_rows_as_constraints(self):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.2))
        m = [-0.7, -0.1, 0.0, 0.4, 0.95]
        by_rows = completeness_verdict(family, family.densities(m))
        by_dicts = completeness_verdict(family, family_curve_constraints(family, m))
        assert by_rows == by_dicts
