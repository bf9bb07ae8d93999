"""Per-layer spans around thermolab's public functions, recorded from outside.

The package is left untouched: each function is wrapped once and the wrapper
is bound under every module attribute that refers to the original, because
``from .x import y`` gives each caller its own name to look ``y`` up by
(``thermolab.gibbs.build_model`` and ``thermolab.cli.build_model`` are both
needed). A span's self time is its total minus the time of spans it called.

Spans are kept on one stack, which assumes the CLI runs with ``--threads 1``.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (defining module, function name)
FUNCTION_SPANS = {
    "lattice.build_model": ("thermolab.lattice", "build_model"),
    "gibbs.finite_pressure": ("thermolab.gibbs", "finite_pressure"),
    "gibbs.pressure_limit": ("thermolab.gibbs", "pressure_limit"),
    "kms.kms_residual": ("thermolab.kms", "kms_residual"),
    "kms.kms_smeared_residual": ("thermolab.kms", "kms_smeared_residual"),
    "kms.default_probes": ("thermolab.kms", "default_probes"),
    "kms.default_quadrature_step": ("thermolab.kms", "default_quadrature_step"),
    "completeness.constrained_entropy_max": ("thermolab.completeness", "constrained_entropy_max"),
    "completeness.entropy_curve": ("thermolab.completeness", "entropy_curve"),
    "completeness.mean_field_pressure": ("thermolab.completeness", "mean_field_pressure"),
    "completeness.completeness_verdict": ("thermolab.completeness", "completeness_verdict"),
    "completeness.pressure_slope_gap": ("thermolab.completeness", "pressure_slope_gap"),
    "convex.tangent_set": ("thermolab.convex", "tangent_set"),
    "convex.conjugate": ("thermolab.convex", "conjugate"),
    "convex.biconjugate": ("thermolab.convex", "biconjugate"),
    "cli.run_experiment": ("thermolab.cli", "run_experiment"),
}
# span name -> (module, class, method): config parsing and artifact writing
METHOD_SPANS = {
    "cli.config_load": ("thermolab.cli", "Config", "load"),
    "cli.artifact_flush": ("thermolab.cli", "ArtifactWriter", "flush"),
}
SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)


class Tracer:
    """Context manager that installs the span wrappers and removes them on exit.

    ``stats[name]`` is ``[calls, total seconds, self seconds]``, read from
    ``clock``. The ``curve_points`` pair counts requested and kept
    entropy-curve points.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.curve_points = [0, 0]
        self._stack: list[float] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "thermolab" or name.startswith("thermolab.")]
        for span, (home, attr) in FUNCTION_SPANS.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)
        for span, (home, cls_name, attr) in METHOD_SPANS.items():
            cls = getattr(sys.modules[home], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self._wrap(span, raw.__func__)))
            else:
                self._rebind(cls, attr, self._wrap(span, raw))
        return self

    def __exit__(self, *exc_info):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name: str, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, span: str, fn):
        stat = self.stats[span]
        stack = self._stack
        clock = self._clock
        observe_curve = span == "completeness.entropy_curve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)  # time spent in spans this one calls
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if observe_curve:
                grid = args[1] if len(args) > 1 else kwargs["grid"]
                self.curve_points[0] += len(grid)
                self.curve_points[1] += result.npoints
            return result

        return wrapper
