"""All-float CSV tables render from one ``repr`` per distinct value.

``convex.float_body`` renders each distinct float64 bit pattern once and
joins the whole body once. Its bytes are pinned here against the per-cell
rendering it replaced (``repr(float(v))`` joined by ','), on tables that are
mostly repeats, on the special values, and on every all-float artifact the
runners write.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

import thermolab.cli as cli
import thermolab.convex as convex
from thermolab.cli import run_experiment
from thermolab.convex import float_body, float_lines

NEG_NAN = float(np.copysign(np.nan, -1.0))
SPECIAL = [0.0, -0.0, math.nan, NEG_NAN, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308 / 3.0, 1e16, -1e16, 1.7976931348623157e308, 0.1, -2.5]


def old_lines(table) -> list[str]:
    return [",".join(repr(float(v)) for v in row) for row in table]


def old_body(table) -> str:
    return "".join(line + "\n" for line in old_lines(table))


def assert_renders_as_before(table):
    want = old_lines(np.asarray(table, dtype=float))
    assert float_body(table) == "".join(line + "\n" for line in want)
    assert float_lines(table) == want


class TestFloatBody:
    @pytest.mark.parametrize("shape", [(200, 5), (37, 1), (1, 9), (3000, 2)])
    def test_repeat_heavy_tables(self, shape):
        rng = np.random.default_rng(sum(shape))
        pool = np.array(SPECIAL + rng.normal(size=6).tolist())
        assert_renders_as_before(rng.choice(pool, size=shape))

    def test_special_values_in_one_column_and_one_row(self):
        column = np.array(SPECIAL * 3)[:, None]
        assert_renders_as_before(column)
        assert_renders_as_before(column.T)
        cells = float_lines(column)
        # distinct bits, distinct keys: the signed zeros stay apart, both NaNs read nan
        assert cells[:4] == ["0.0", "-0.0", "nan", "nan"]
        assert cells[6] == "5e-324" and cells[9] == "1e+16"
        assert cells[11] == "1.7976931348623157e+308"

    def test_mirrored_sweep(self):
        # e(m) = e(-m) on a symmetric sweep: every energy cell but one repeats
        m = np.round(np.arange(-970, 971) * 1e-3, 3)
        table = np.column_stack([-0.5 * m * m, m, np.abs(m)])
        assert_renders_as_before(table)

    def test_empty_table(self):
        assert float_body(np.empty((0, 3))) == ""
        assert float_lines(np.empty((0, 3))) == []
        assert float_body([]) == ""

    def test_list_input(self):
        rows = [[-0.0, 1e16, 0.5], [0.5, math.inf, -0.0], [5e-324, 0.5, math.nan]]
        assert float_body(rows) == old_body(rows)
        assert float_lines(rows) == old_lines(rows)

    def test_non_contiguous_and_integer_input(self):
        table = np.arange(24.0).reshape(4, 6)[:, ::2] - 11.5
        assert_renders_as_before(table)
        assert_renders_as_before(np.arange(12).reshape(3, 4))

    def test_memory_stays_below_one_float_per_cell(self):
        # 1941 x 5, as diff-test's tangent_widths.csv, and mostly repeats.
        # Rendering takes about 60 bytes per cell beyond the body; keeping a
        # Python float per cell (24 bytes, plus the lists that hold them)
        # adds about 45 more
        m = np.round(np.arange(-970, 971) * 1e-3, 3)
        rng = np.random.default_rng(5)
        table = np.column_stack([-0.5 * m * m, np.abs(m), rng.choice(rng.normal(size=40), 1941),
                                 np.abs(m)[::-1], rng.choice([0.0, 1e-9, 2e-9], 1941)])
        float_body(table)  # first-call allocations (numpy's caches) left out
        tracemalloc.start()
        try:
            body = float_body(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert body == old_body(table)
        assert peak - sys.getsizeof(body) < 80 * table.size


class TestArtifactBodies:
    """Every all-float artifact's body is the per-cell rendering of the
    table the runner handed to the renderer."""

    RUNS = {
        "diff-test": ("model = curie_weiss\nJ = 1.0\ntheta0 = 2.9\nm_spacing = 0.01\n"
                      "m_max = 0.9\ntheta1_values = -0.05, 0.0, 0.05\n",
                      ("tangent_widths.csv", "pressure_scan.csv")),
        "legendre": ("model = curie_weiss\nJ = 1.0\nconstrain = energy\n"
                     "e_values = -0.45:-0.05:0.01\ntheta0 = 0.5, 1.0, 2.0\n",
                     ("pressure_curve.csv", "biconjugate.csv")),
        "entropy-curve": ("model = curie_weiss\nJ = 1.0\nh = 0.2\nm_values = -0.9:0.9:0.05\n",
                          ("entropy_curve.csv",)),
    }

    @pytest.mark.parametrize("subcommand", RUNS)
    def test_body_is_the_old_rendering(self, tmp_path, monkeypatch, subcommand):
        tables = []

        def recording(table):
            tables.append(np.array(table, dtype=float))
            return float_body(table)

        monkeypatch.setattr(cli, "float_body", recording)
        monkeypatch.setattr(convex, "float_body", recording)
        text, names = self.RUNS[subcommand]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        run_experiment(subcommand, cfg, tmp_path / "out")
        want = {old_body(t) for t in tables}
        for name in names:
            lines = (tmp_path / "out" / name).read_text().splitlines(keepends=True)
            body = "".join(line for line in lines if not line.startswith("#"))
            body = body.split("\n", 1)[1]  # after the column names
            assert body and body in want, name
