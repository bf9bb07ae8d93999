"""Print one sha256 per artifact body of a set of thermolab runs.

    PYTHONPATH=src python tools/artifact_bodies.py [--threads T]
        [--bench-seeds S,S,...] [CONFIG ...]

Each CONFIG runs through ``thermolab.cli.run_experiment`` with seed 0 and T
threads (default 1), under the subcommand its file name starts with
(``pressure_``, ``kms_``, ``diff_test_``, ``completeness_``, ``legendre_``,
``entropy_curve_``). With ``--bench-seeds``, the experiments of every
benchmark workload (``bench/workloads.py``, imported as it is) run too, at
each given seed and with that seed, as the benchmark runs them. For every
artifact but ``manifest.json`` the tool prints ``<sha256>  <run>/<file>``,
the hash taken over the file's lines that do not start with '#' (the header
lines carry a timestamp). Two thread counts, or two source trees on
PYTHONPATH, write identical bodies exactly when their outputs are equal.

Standard library plus thermolab (and numpy, for the benchmark inputs). Exits
1 on a config whose subcommand cannot be told from its name; a failing run
raises.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = (
    ("pressure_", "pressure"),
    ("kms_", "kms-verify"),
    ("diff_test_", "diff-test"),
    ("completeness_", "completeness"),
    ("legendre_", "legendre"),
    ("entropy_curve_", "entropy-curve"),
)


def subcommand_of(stem: str) -> str | None:
    return next((sub for prefix, sub in SUBCOMMANDS if stem.startswith(prefix)), None)


def body_digests(out: Path, run: str) -> list[str]:
    lines = []
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        body = [line for line in path.read_bytes().splitlines(keepends=True)
                if not line.startswith(b"#")]
        lines.append(f"{hashlib.sha256(b''.join(body)).hexdigest()}  {run}/{path.name}")
    return lines


def bench_runs(seeds: list[int], scratch: Path) -> list[tuple]:
    """(run name, subcommand, config path, seed) of every benchmark experiment."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    runs = []
    for seed in seeds:
        for name in workloads.NAMES:
            for exp in workloads.build(name, seed):
                run = f"bench-{name}-{seed}-{exp.name}"
                path = scratch / f"{run}.cfg"
                path.write_text(exp.config_text())
                runs.append((run, exp.subcommand, path, seed))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--bench-seeds", default="",
                        help="comma list of benchmark seeds whose inputs also run")
    args = parser.parse_args(argv)

    from thermolab.cli import run_experiment

    runs = []
    for path in args.configs:
        sub = subcommand_of(path.stem)
        if sub is None:
            print(f"artifact_bodies: no subcommand for {path}", file=sys.stderr)
            return 1
        runs.append((path.stem, sub, path, 0))
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        seeds = [int(s) for s in args.bench_seeds.split(",") if s.strip()]
        runs += bench_runs(seeds, scratch)
        for run, sub, path, seed in runs:
            out = scratch / "out" / run
            run_experiment(sub, path, out, seed=seed, threads=args.threads)
            print("\n".join(body_digests(out, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
