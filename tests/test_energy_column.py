"""entropy_curve on one column of targets for a subset of components.

Energy-mode runs pass ``e_values`` as a (P, 1) array with ``components=(0,)``
instead of one ``{0: e}`` dict per point: the same curve, bit for bit, and
the same warning for a point off the family's reach.
"""

import warnings

import numpy as np
import pytest

import thermolab.cli as cli
import thermolab.completeness as completeness
from thermolab import ErgodicFamily, ModelSpec, UsageError, entropy_curve
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


def energies(family: ErgodicFamily, count: int) -> list[float]:
    lo, hi = family.component_range(0)
    rng = np.random.default_rng(count)
    return rng.permutation(np.linspace(lo, hi, count)).tolist()


class TestEnergyColumn:
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.kind}-{s.h}")
    def test_column_equals_dict_constraints(self, spec):
        family = ErgodicFamily(spec)
        e_values = energies(family, 301)
        by_dicts = entropy_curve(family, [{0: e} for e in e_values])
        same_curve(entropy_curve(family, np.array(e_values)[:, None], components=(0,)), by_dicts)
        label = family.component_labels[0]
        same_curve(entropy_curve(family, np.array(e_values)[:, None], components=[label]),
                   by_dicts)

    def test_second_component_alone(self):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.2))
        m = np.linspace(-0.95, 0.95, 39)
        same_curve(entropy_curve(family, m[:, None], components=(1,)),
                   entropy_curve(family, [{1: x} for x in m.tolist()]))

    def test_infeasible_row_warns_like_its_dict(self):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        caught = []
        for form, comps in ((np.array([[-0.125], [0.75]]), (0,)),
                            ([{0: -0.125}, {0: 0.75}], None)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                curve = entropy_curve(family, form, components=comps)
            assert curve.npoints == 1
            caught.append([(w.category, str(w.message)) for w in seen])
        assert caught[0] == caught[1]
        assert caught[0][0][0] is InfeasibleGridPointWarning
        assert caught[0][0][1].startswith("skipping infeasible grid point {0: 0.75}")

    @pytest.mark.parametrize("comps, grid", [
        ((1, 0), np.zeros((2, 2))),
        ((0, 0), np.zeros((2, 2))),
        ((0, "energy"), np.zeros((2, 2))),
        ((2,), np.zeros((2, 1))),
        ((), np.zeros((2, 0))),
        ((0,), np.zeros((2, 2))),
    ], ids=["descending", "repeated", "label-repeats-index", "out-of-range", "none",
            "too-many-columns"])
    def test_bad_components_are_refused(self, comps, grid):
        family = ErgodicFamily(ModelSpec("curie_weiss", J=1.0, h=0.0))
        with pytest.raises(UsageError):
            entropy_curve(family, grid, components=comps)


class TestEnergyRunsPassOneColumn:
    def test_runners_build_no_constraint_dicts(self, tmp_path, monkeypatch):
        seen = []
        real = completeness.normalize_constraint

        def counting(family, constraint):
            seen.append(type(constraint))
            return real(family, constraint)

        monkeypatch.setattr(completeness, "normalize_constraint", counting)
        text = "model = curie_weiss\nJ = 1.0\nconstrain = energy\ne_values = -0.45:-0.05:0.01\n"
        cfg = tmp_path / "legendre.cfg"
        cfg.write_text(text + "theta0 = 0.5, 1.0\n")
        run_experiment("legendre", cfg, tmp_path / "legendre")
        # one call reads the components; no point is a dict
        assert seen == [dict]
        seen.clear()
        cfg = tmp_path / "completeness.cfg"
        cfg.write_text(text)
        run_experiment("completeness", cfg, tmp_path / "completeness")
        # each record reads its row of the column
        assert len(seen) == 41 and dict not in seen

    def test_entropy_curve_is_looked_up_at_call_time(self, tmp_path, monkeypatch):
        calls = []

        def recording(family, grid, *args, **kwargs):
            calls.append((grid.shape, kwargs))
            return entropy_curve(family, grid, *args, **kwargs)

        monkeypatch.setattr(cli, "entropy_curve", recording)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = curie_weiss\nJ = 1.0\nconstrain = energy\n"
                       "e_values = -0.4, -0.2, -0.1\ntheta0 = 1.0\n")
        run_experiment("legendre", cfg, tmp_path / "out")
        assert calls == [((3, 1), {"components": (0,)})]
