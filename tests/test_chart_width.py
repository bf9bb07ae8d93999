"""diff-test's chart width: the largest tangent width along the first density
that is strictly monotone in m, where a large width means a kink, unlike
a width along a density that turns back."""

import numpy as np
import pytest

from thermolab.cli import run_experiment


def _diff_test(tmp_path, lines):
    path = tmp_path / "diff.cfg"
    path.write_text("\n".join(lines) + "\n")
    manifest = run_experiment("diff-test", path, tmp_path / "out")
    body = (tmp_path / "out" / "tangent_widths.csv").read_text().splitlines()
    rows = [line for line in body if not line.startswith("#")]
    header = rows[0].split(",")
    widths = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return manifest["summary"], header, widths


def test_ising_field_fold_keeps_the_chart_width_small(tmp_path):
    # q_0 = -m^2 - 0.3 m turns back at m = -0.15: the width along q_0 alone
    # blows up there, while the width along m stays at rounding level
    summary, header, widths = _diff_test(tmp_path, [
        "model = ising_chain", "J = 1.0", "h = 0.3", "theta0 = 1.2",
        "m_spacing = 0.002", "m_max = 0.9",
    ])
    assert summary["chart_component"] == 1
    assert summary["max_tangent_width"] > 100.0
    assert summary["max_chart_width"] <= 1e-4
    assert summary["max_chart_width"] == widths[:, header.index("width_1")].max()


@pytest.mark.parametrize("lines, chart", [
    (["model = curie_weiss", "J = 1.0", "h = 0.0", "theta0 = 3.0",
      "m_spacing = 0.01", "m_max = 0.9"], 1),
    (["model = free_spins", "theta0 = 1.5", "m_spacing = 0.01", "m_max = 0.9"], 0),
    # at J = 0 the energy -h m is itself monotone in m, so it is the chart
    (["model = ising_chain", "J = 0.0", "h = 0.5", "theta0 = 1.0",
      "m_spacing = 0.01", "m_max = 0.9"], 0),
])
def test_chart_is_the_first_monotone_density(tmp_path, lines, chart):
    summary, header, widths = _diff_test(tmp_path, lines)
    assert summary["chart_component"] == chart
    assert summary["max_chart_width"] == widths[:, header.index(f"width_{chart}")].max()
    assert summary["max_chart_width"] <= summary["max_tangent_width"]
