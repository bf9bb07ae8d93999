"""One benchmark pass in a fresh interpreter: import thermolab, run the plan.

Usage: python3 child.py PLAN.json

The plan (written by run.py) names the source tree, the experiments, the
seed, whether to trace, and where to write the report. The process prints
``ready`` once ``thermolab`` is imported; then it runs every experiment
through ``thermolab.cli.run_experiment`` with one thread, as one
closed-loop client. The report gives the process CPU time spent up to
``ready`` (interpreter start and import) and on the experiments, the wall
time of the experiments, and the CPU times of the speed probes taken before,
during and after them (see SpeedProbe).
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer  # this script's directory is on sys.path


PROBE_INTERVAL_S = 0.2  # seconds between probes during a pass


class SpeedProbe:
    """Times a fixed ~10 ms kernel before, during and after a pass.

    The kernel depends on nothing in thermolab. The shared host's speed
    drifts by tens of percent within seconds, so one probe next to a pass
    says little about the pass; a SIGALRM timer therefore probes every
    PROBE_INTERVAL_S throughout it, and run.py scales the pass's CPU time by
    the probes' mean. (A SIGPROF timer would not do: while a process CPU
    timer is armed, Linux reads the process CPU clock in whole ticks.) The kernel's parts take about
    1 : 2 : 2 of its time: a bytecode loop, bit expansion of a 2^14-state
    basis (an L2-sized array, as in the lattice code) and small symmetric
    eigensolves; that mix tracked the speed drift of all four workloads best.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((64, 64))
        self._sym = sym + sym.T
        self._idx = np.arange(2**14, dtype=np.int64)
        self._shifts = np.arange(14)[None, :]
        self.times: list[float] = []
        self._spent = 0.0
        self._busy = False

    def probe(self) -> None:
        if self._busy:  # a timer signal arrived while probing
            return
        self._busy = True
        start = time.process_time()
        total = 0
        for i in range(16_000):
            total += i * i % 7
        bits = (self._idx[:, None] >> self._shifts) & 1
        (1 - 2 * bits).T.astype(float).sum(axis=0)
        for _ in range(13):
            np.linalg.eigvalsh(self._sym)
        elapsed = time.process_time() - start
        self.times.append(elapsed)
        self._spent += elapsed
        self._busy = False

    def cpu_time(self) -> float:
        """Process CPU seconds, less the time spent probing."""
        while True:  # retry if a probe ran while the clock was read
            count, spent = len(self.times), self._spent
            now = time.process_time()
            if len(self.times) == count:
                return now - spent

    def __enter__(self) -> "SpeedProbe":
        self.probe()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import thermolab.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"child: thermolab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    setup_cpu = time.process_time()  # CPU time since the process started
    print("ready", flush=True)

    probe = SpeedProbe()
    trace = Tracer(clock=probe.cpu_time) if plan["trace"] else contextlib.nullcontext()
    status = {}
    with probe, trace as tracer:
        start, start_cpu = time.perf_counter(), probe.cpu_time()
        for exp in plan["experiments"]:
            try:
                cli.run_experiment(exp["subcommand"], exp["config"], exp["out"],
                                   seed=plan["seed"], threads=1)
                status[exp["name"]] = "ok"
            except Exception as exc:  # a failing experiment is a measured outcome
                traceback.print_exc()
                status[exp["name"]] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = probe.cpu_time() - start_cpu

    report = {
        "setup_cpu_s": setup_cpu,
        "cpu_s": cpu,
        "wall_s": wall,
        "probe_cpu_s": probe.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "status": status,
    }
    if tracer is not None:
        report["spans"] = tracer.stats
        report["curve_points"] = tracer.curve_points
    Path(plan["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
