"""Seeded inputs for the four benchmark workloads.

Every list reaches the program as an explicit comma list, never as a
``lo:hi:step`` range, so a change to how the CLI expands ranges cannot change
what the benchmark feeds it. The seed moves the values; the shape of each
workload (grid sizes, system sizes, number of experiments) is the same for
every seed, so run-to-run cost stays comparable. README.md in this directory
says why each workload exists and which layer it isolates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAMES = ("pressure-chain", "pressure-dense", "kms-ring", "mean-field")

# Spans (see spans.py) that must record calls on each workload; a layer that
# silently stops being reached must not read as "0 s spent there".
HOME_SPANS = {
    "pressure-chain": ("lattice.build_model", "gibbs.finite_pressure",
                       "gibbs.pressure_limit"),
    "pressure-dense": ("lattice.build_model", "gibbs.finite_pressure",
                       "gibbs.pressure_limit"),
    "kms-ring": ("lattice.build_model", "kms.kms_residual", "kms.kms_smeared_residual",
                 "kms.default_probes", "kms.default_quadrature_step"),
    "mean-field": ("completeness.constrained_entropy_max", "completeness.entropy_curve",
                   "completeness.mean_field_pressure", "completeness.completeness_verdict",
                   "completeness.pressure_slope_gap", "convex.tangent_set",
                   "convex.conjugate", "convex.biconjugate"),
}
ALL_WORKLOAD_SPANS = ("cli.run_experiment", "cli.config_load", "cli.artifact_flush")


@dataclass(frozen=True)
class Experiment:
    """One ``thermolab`` invocation: a subcommand and its config entries.

    ``kind`` selects the reference check in reference.py; ``params`` holds
    the config entries as numbers, which the checks read back.
    """

    name: str
    kind: str
    subcommand: str
    params: dict

    def config_text(self) -> str:
        return "".join(f"{key} = {_render(value)}\n" for key, value in self.params.items())


def _render(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jittered(rng: np.random.Generator, lo: float, hi: float, n: int, digits: int) -> list:
    """n sorted values, one drawn from the middle half of each of n equal
    cells of [lo, hi]: spread like a grid, never closer than (hi-lo)/(2n)."""
    cells = (np.arange(n) + rng.uniform(0.25, 0.75, n)) / n
    return [round(float(lo + (hi - lo) * c), digits) for c in cells]


def _pressure_chain(rng) -> list:
    return [Experiment("pressure-chain", "pressure-chain", "pressure", {
        "model": "ising_chain",
        "J": round(float(rng.uniform(0.8, 1.2)), 3),
        "h": round(float(rng.uniform(0.3, 0.7)), 3),
        "boundary": "periodic",
        "theta0": _jittered(rng, 0.1, 2.0, 30, 6),
        "theta1": _jittered(rng, -1.0, 1.0, 11, 6),
        "sizes": list(range(4, 15)),
        "fit": "geometric",
    })]


def _pressure_dense(rng) -> list:
    return [Experiment("pressure-dense", "pressure-dense", "pressure", {
        "model": "transverse_ising_chain",
        "J": 1.0,
        "hx": round(float(rng.uniform(0.6, 0.8)), 3),
        "boundary": "open",
        "theta0": _jittered(rng, 0.2, 2.0, 8, 6),
        "sizes": list(range(4, 10)),
        "fit": "affine",
    })]


def _kms_ring(rng) -> list:
    # h = 0 and narrow theta bands keep the spectral spread of theta.Q, and
    # with it the quadrature length of the smeared residual, nearly the same
    # for every seed.
    def ring(n, sigma_w):
        return {
            "model": "ising_chain",
            "J": 1.0,
            "h": 0.0,
            "boundary": "periodic",
            "N": n,
            "theta0": _jittered(rng, 0.5, 1.5, 4, 6),
            "theta1": _jittered(rng, -0.3, 0.3, 2, 6),
            "times": _jittered(rng, 0.2, 5.0, 3, 4),
            "sigma_w": sigma_w,
            "smeared_probes": 1,
        }
    return [
        Experiment("kms-n9-pointwise", "kms", "kms-verify", ring(9, 0.0)),
        Experiment("kms-n6-smeared", "kms", "kms-verify", ring(6, 2.0)),
    ]


def _mean_field(rng) -> list:
    cw = {"model": "curie_weiss", "J": 1.0, "h": 0.0}
    return [
        Experiment("diff-test", "diff-test", "diff-test", {
            **cw,
            "theta0": round(float(rng.uniform(2.5, 3.5)), 3),
            "m_spacing": 0.001,
            "m_max": 0.97,
            "theta1_values": _jittered(rng, -0.1, 0.1, 21, 4),
        }),
        Experiment("legendre", "legendre", "legendre", {
            **cw,
            "constrain": "energy",
            "e_values": _jittered(rng, -0.5, 0.0, 500, 8),
            "theta0": _jittered(rng, 0.5, 3.0, 16, 6),
        }),
        Experiment("completeness", "completeness", "completeness", {
            **cw,
            "constrain": "energy",
            "e_values": _jittered(rng, -0.48, -0.05, 3, 6),
        }),
    ]


_BUILDERS = {
    "pressure-chain": _pressure_chain,
    "pressure-dense": _pressure_dense,
    "kms-ring": _kms_ring,
    "mean-field": _mean_field,
}


def build(name: str, seed: int) -> list:
    """The experiments of workload ``name`` for ``seed``, in run order."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return _BUILDERS[name](np.random.default_rng(seed))
