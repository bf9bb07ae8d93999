"""Print a benchmark pass's peak RSS and malloc heap at each of its stages.

    PYTHONPATH=src python tools/rss_stages.py --workload NAME [--seed N]

Runs one pass of a benchmark workload in this process the way
``bench/child.py`` runs it (``bench/workloads.py`` builds the experiments;
``child.SpeedProbe`` probes before, during and after them; one thread, one
BLAS thread), with thermolab imported from PYTHONPATH, so two source trees
compare by changing PYTHONPATH alone. Nothing under ``bench/`` changes. One
line per stage: after ``import thermolab.cli``, after the first speed probe,
after each experiment, and after the exit probe, where the bench reads its
``peak_rss_mb``. Columns, in MB: ``ru_maxrss`` (the peak so far) and glibc
``mallinfo2``'s ``arena`` (the brk heap), ``hblkhd`` (mmap'd blocks),
``uordblks`` (in use) and ``fordblks`` (free but kept); "n/a" without glibc
2.33 or later. This script's own imports (argparse, ctypes, tempfile) add
a little to every row, the same for every tree.

Standard library plus numpy and thermolab. Exits 2 on an unknown workload.
"""

from __future__ import annotations

import os

# as bench/run.py sets them for its children, before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import workloads  # noqa: E402

MALLINFO_FIELDS = ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
                   "uordblks", "fordblks", "keepcost")
SHOWN = ("arena", "hblkhd", "uordblks", "fordblks")


class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in MALLINFO_FIELDS]


def _mallinfo2():
    """glibc's mallinfo2, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        return None
    fn.restype = Mallinfo2
    return fn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    mallinfo = _mallinfo2()

    def stage(name: str) -> None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cells = [f"{peak:9.2f}"]
        info = mallinfo() if mallinfo else None
        cells += [f"{getattr(info, k) / 2**20:9.2f}" if info else f"{'n/a':>9}" for k in SHOWN]
        print(f"{name:<26}" + "".join(cells), flush=True)

    with tempfile.TemporaryDirectory() as work:
        configs = []
        for exp in workloads.build(args.workload, args.seed):
            configs.append((exp, Path(work) / f"{exp.name}.cfg"))
            configs[-1][1].write_text(exp.config_text())
        import thermolab.cli as cli

        print(f"# thermolab from {Path(cli.__file__).parent}; workload {args.workload}, "
              f"seed {args.seed}")
        print(f"{'stage':<26}{'maxrss':>9}" + "".join(f"{k:>9}" for k in SHOWN))
        stage("import")
        probe = child.SpeedProbe()
        with probe:
            stage("first probe")
            for exp, config in configs:
                cli.run_experiment(exp.subcommand, config, Path(work) / exp.name,
                                   seed=args.seed, threads=1)
                stage(f"after {exp.name}")
        stage("exit probe")
    return 0


if __name__ == "__main__":
    sys.exit(main())
