"""entropy_curve on a (P, n) array of joint constraints.

The array form is the dict form without the round trip: the same curve,
bit for bit, and the same warning for a point off the family's reach.
"""

import warnings

import numpy as np
import pytest

import thermolab.cli as cli
from thermolab import (
    DataError,
    ErgodicFamily,
    InfeasibleConstraintError,
    ModelSpec,
    UsageError,
    entropy_curve,
    family_curve_constraints,
)
from thermolab.cli import run_experiment
from thermolab.completeness import InfeasibleGridPointWarning

FAMILIES = [
    ModelSpec("curie_weiss", J=1.0, h=0.0),
    ModelSpec("curie_weiss", J=1.3, h=0.2),
    ModelSpec("ising_chain", J=1.0, h=0.3),
    ModelSpec("free_spins"),
]


def same_curve(a, b):
    assert a.grid.tobytes() == b.grid.tobytes()
    assert a.values.tobytes() == b.values.tobytes()
    assert a.orientation == b.orientation and a.metadata == b.metadata


class TestArrayGrid:
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.kind}-{s.h}")
    def test_array_equals_dict_constraints(self, spec):
        family = ErgodicFamily(spec)
        m_values = np.round(np.arange(-974, 975, 2) / 1000, 3)
        same_curve(entropy_curve(family, family.densities(m_values)),
                   entropy_curve(family, family_curve_constraints(family, m_values)))

    def test_infeasible_row_warns_like_its_dict(self):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        grid = family.densities([-0.5, 0.0, 0.5])
        grid[1, 1] = 0.3  # m = 0.3 with the energy of m = 0: off the curve
        caught = []
        for form in (grid, [dict(enumerate(row)) for row in grid.tolist()]):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                curve = entropy_curve(family, form)
            assert curve.npoints == 2
            caught.append([(w.category, str(w.message)) for w in seen])
        assert caught[0] == caught[1]
        assert len(caught[0]) == 1 and caught[0][0][0] is InfeasibleGridPointWarning
        assert caught[0][0][1].startswith("skipping infeasible grid point {0: -0.0, 1: 0.3}")

    def test_every_row_infeasible_raises(self):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        with pytest.warns(InfeasibleGridPointWarning):
            with pytest.raises(InfeasibleConstraintError):
                entropy_curve(family, np.array([[-0.2, 0.9]]))

    @pytest.mark.parametrize("grid, error", [
        (np.zeros((0, 2)), UsageError),
        (np.zeros((3, 1)), UsageError),
        (np.array([[0.0, np.nan]]), DataError),
    ], ids=["empty", "partial", "non-finite"])
    def test_bad_arrays_are_refused(self, grid, error):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        with pytest.raises(error):
            entropy_curve(family, grid)


class TestDiffTestPassesTheArray:
    def test_runner_builds_no_constraint_dicts(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the diff-test runner built constraint dicts")

        monkeypatch.setattr(cli, "family_curve_constraints", refuse)
        cfg = tmp_path / "d.cfg"
        cfg.write_text("model = curie_weiss\nJ = 1.0\ntheta0 = 1.2\nm_spacing = 0.01\n"
                       "m_max = 0.9\n")
        run_experiment("diff-test", cfg, tmp_path / "out")
        assert (tmp_path / "out" / "tangent_widths.csv").exists()
