"""Per-module spans and counters, recorded from outside the package.

The tracer replaces chosen public functions of gatelab by timing wrappers at
every module binding they are looked up through (``optimizer`` imports
``first_order_integrals`` by name, so patching ``gate`` alone would miss
those calls).  Spans (group, start, end, parent, raised) stay in memory until
:meth:`Tracer.write`; :meth:`Tracer.metrics` turns them into the per-layer
figures, where a group's time is its self time: each span's duration minus
what its child spans cover.
"""

import json
import statistics
import sys
import time

# (module, function) -> span group; a group's self time is reported as
# "<group>_s" unless LAYER_METRICS names it otherwise.
SPANNED = {
    ("crystal", "solve_equilibrium"): "crystal.solve",
    ("modes", "axial_spectrum"): "modes.spectrum",
    ("modes", "critical_beta"): "modes.critical_beta",
    ("gate", "first_order_integrals"): "gate.kernel",
    ("gate", "phase_kernels"): "gate.kernel",
    ("gate", "pair_phase_matrix"): "gate.kernel",
    ("gate", "gate_report"): "gate.report",
    ("optimizer", "solve_amplitudes"): "optimizer.solve",
    ("oracle", "evolve"): "oracle.evolve",
    ("oracle", "fidelity_from_state"): "oracle.fidelity",
    ("cli", "main"): "cli.main",
    ("cli", "cached_crystal"): "cli.main",
    ("_textio", "atomic_write_text"): "textio.write",
}

# (module, function) -> counter; these are called too often for spans.
COUNTED = {
    ("crystal", "potential_gradient"): "crystal.gradient_evals",
    ("crystal", "curvature_blocks"): "crystal.hessian_builds",
    ("crystal", "potential_energy"): "crystal.energy_evals",
}

# Every per-layer metric in report order, with its unit.
LAYER_METRICS = (
    ("crystal.solve_s", "s"), ("crystal.solves", "count"),
    ("crystal.gradient_evals", "count"), ("crystal.hessian_builds", "count"),
    ("crystal.energy_evals", "count"),
    ("modes.spectrum_s", "s"), ("modes.critical_beta_s", "s"),
    ("gate.kernel_s", "s"), ("gate.kernel_calls", "count"),
    ("gate.report_s", "s"),
    ("optimizer.solve_self_s", "s"), ("optimizer.points", "count"),
    ("optimizer.points_failed", "count"), ("optimizer.point_ms_p50", "ms"),
    ("optimizer.point_ms_p95", "ms"),
    ("oracle.evolve_s", "s"), ("oracle.magnus_steps", "count"),
    ("oracle.fidelity_s", "s"),
    ("cli.main_s", "s"), ("cli.cache_hits", "count"),
    ("cli.cache_misses", "count"),
    ("textio.write_s", "s"), ("textio.bytes_written", "count"),
    ("trace.overhead_s", "s"),
)


def _percentile(values, q):
    """Linearly interpolated percentile (numpy's default); 0 when empty."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """Installs the wrappers on construction; :meth:`remove` restores the
    original functions."""

    def __init__(self):
        self.spans = []    # [group, start, end, parent index, raised]
        self.counts = dict.fromkeys(COUNTED.values(), 0)
        self.counts.update({"oracle.magnus_steps": 0, "cli.cache_hits": 0,
                            "cli.cache_misses": 0,
                            "textio.bytes_written": 0})
        self._stack = []
        self._solves_started = 0
        self._patched = []  # (module, attribute name, original)
        for (module, name), group in SPANNED.items():
            self._install(module, name, self._spanned(group, name))
        for (module, name), counter in COUNTED.items():
            self._install(module, name, self._counted(counter))

    def _install(self, module, name, make_wrapper):
        original = getattr(sys.modules["gatelab." + module], name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gatelab" and not mod_name.startswith("gatelab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _counted(self, counter):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _spanned(self, group, name):
        spans, stack = self.spans, self._stack

        def make(original):
            def wrapper(*args, **kwargs):
                if name == "solve_equilibrium":
                    self._solves_started += 1
                solves_before = self._solves_started
                span = [group, time.perf_counter(), None,
                        stack[-1] if stack else None, True]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = original(*args, **kwargs)
                    span[4] = False
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                self._count_result(name, args, kwargs, result,
                                   self._solves_started > solves_before)
                return result
            return wrapper
        return make

    def _count_result(self, name, args, kwargs, result, solved_inside):
        """Counters read off a completed call's arguments or result."""
        counts = self.counts
        if name == "evolve":
            counts["oracle.magnus_steps"] += result.step_count
        elif name == "atomic_write_text":
            text = args[1] if len(args) > 1 else kwargs["text"]
            counts["textio.bytes_written"] += len(text.encode())
        elif name == "cached_crystal":
            cache_dir = args[1] if len(args) > 1 else kwargs.get("cache_dir")
            if cache_dir:
                key = "cli.cache_misses" if solved_inside else "cli.cache_hits"
                counts[key] += 1

    def metrics(self):
        """Per-layer figures as {name: value}; the tracing overhead is
        measured by the caller against an untraced run."""
        child_time = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = {}
        for (group, start, end, _, _), inner in zip(self.spans, child_time):
            self_time[group] = (self_time.get(group, 0.0)
                                + (end - start) - inner)
        points = [(end - start) * 1e3 for group, start, end, _, _
                  in self.spans if group == "optimizer.solve"]

        def calls(group, raised=None):
            return sum(1 for span in self.spans if span[0] == group
                       and (raised is None or span[4] == raised))

        values = dict(self.counts)
        values.update({
            "crystal.solves": calls("crystal.solve"),
            "gate.kernel_calls": calls("gate.kernel"),
            "optimizer.solve_self_s": self_time.get("optimizer.solve", 0.0),
            "optimizer.points": len(points),
            "optimizer.points_failed": calls("optimizer.solve", raised=True),
            "optimizer.point_ms_p50": _percentile(points, 50),
            "optimizer.point_ms_p95": _percentile(points, 95),
        })
        for group in set(SPANNED.values()) - {"optimizer.solve"}:
            values[group + "_s"] = self_time.get(group, 0.0)
        return {name: values[name] for name, _ in LAYER_METRICS
                if name != "trace.overhead_s"}

    def write(self, path):
        """Dump the spans as JSON lines: group, start, end, parent, raised."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
