"""Per-layer tracing by wrapping ventrc's public functions and methods.

Each wrapped call is a span: its duration counts toward the layer's
inclusive time, and the part of it not covered by wrapped calls made inside
it is the layer's self time.  Per-sample calls (plant, filters, controllers)
are only aggregated; the coarser calls are also kept as span records with
their parent and written out when the worker ends.  Nothing under ``src/``
is changed: the wrappers replace the module and class attributes in the
running process only.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (layer.name, module, attribute, class or None, kept as a span record)
TARGETS = [
    ("plant.step", "ventrc.plant", "step", "VentilatorPlant", False),
    ("plant.peek", "ventrc.plant", "peek_measurement", "VentilatorPlant", False),
    ("lti.streaming_filter_step", "ventrc.lti", "step", "StreamingFilter", False),
    ("lti.evaluate", "ventrc.lti", "evaluate", None, True),
    ("sysid.estimate_frf", "ventrc.sysid", "estimate_frf", None, True),
    ("sysid.fit_rational", "ventrc.sysid", "fit_rational", None, True),
    ("rc_design.design_pipeline", "ventrc.rc_design", "design_pipeline", None, True),
    ("rc_design.check_stability", "ventrc.rc_design", "check_stability", None, True),
    ("control_rt.rc_step", "ventrc.control_rt", "step", "RepetitiveController", False),
    ("control_rt.pid_step", "ventrc.control_rt", "step", "IntegralController", False),
    ("control_rt.controller_step", "ventrc.control_rt", "step", "VentilatorController", False),
    ("harness.run_experiment", "ventrc.harness", "run_experiment", None, True),
    ("harness.emit_report", "ventrc.harness", "emit_report", None, True),
    ("harness.emit_comparison_report", "ventrc.harness", "emit_comparison_report", None, True),
    ("svg.line_plot", "ventrc.svg", "line_plot", None, True),
    ("cli.main", "ventrc.cli", "main", None, True),
]

MIB = 1024.0 * 1024.0


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


class Tracer:
    """Aggregated call statistics per layer, split by benchmark phase."""

    def __init__(self):
        self.phase = "setup"
        self.calls = defaultdict(int)       # (phase, name) -> calls
        self.total_ns = defaultdict(int)    # name -> inclusive ns
        self.self_ns = defaultdict(int)     # name -> self ns
        self.counts = defaultdict(float)    # (phase, counter) -> amount
        self.spans: list[tuple] = []        # (name, start_ns, end_ns, parent index)
        self._stack: list[list] = []        # [child ns, index of enclosing span record]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, cls, record in TARGETS:
            owner = getattr(sys.modules[module], cls) if cls else sys.modules[module]
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, record, _HOOKS.get(name))
            if cls:
                setattr(owner, attr, wrapper)
                continue
            # functions are imported by name into other modules, the caller's
            # too: replace every binding
            for mod_name, mod in list(sys.modules.items()):
                if mod_name in ("ventrc", "__main__") or mod_name.startswith("ventrc."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, fn, record, hook):
        stack, clock = self._stack, time.perf_counter_ns
        calls, total_ns, self_ns, spans = self.calls, self.total_ns, self.self_ns, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = parent
            if record:
                index = len(spans)
                spans.append(None)
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[(self.phase, name)] += 1
                total_ns[name] += duration
                self_ns[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result, duration)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count(self, counter: str, amount: float) -> None:
        self.counts[(self.phase, counter)] += amount

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures; counts are per round, times per call or sample."""

        def calls_all(name):
            return sum(v for (_, n), v in self.calls.items() if n == name)

        def per_call(name, scale, inclusive=True):
            n = calls_all(name)
            ns = self.total_ns[name] if inclusive else self.self_ns[name]
            return ns / n / scale if n else 0.0

        def per_round(counter):
            return self.counts[("round", counter)] / rounds

        def calls_per_round(name):
            return self.calls[("round", name)] / rounds

        def total(counter):
            return sum(v for (_, c), v in self.counts.items() if c == counter)

        def per_sample(ns, samples):
            return ns / samples / 1e3 if samples else 0.0

        samples = {m: total(f"run_samples.{m}") for m in ("pid", "rc")}
        fits = calls_all("sysid.fit_rational")
        return {
            "plant.step_us": per_call("plant.step", 1e3, inclusive=False),
            "plant.peek_us": per_call("plant.peek", 1e3, inclusive=False),
            "plant.samples": calls_per_round("plant.step"),
            "lti.streaming_filter_step_us": per_call("lti.streaming_filter_step", 1e3,
                                                     inclusive=False),
            "lti.evaluate_ms": per_call("lti.evaluate", 1e6),
            "lti.evaluate_calls": calls_per_round("lti.evaluate"),
            "sysid.estimate_frf_us_per_sample": per_sample(self.total_ns["sysid.estimate_frf"],
                                                           total("ident_samples")),
            "sysid.ident_samples": per_round("ident_samples"),
            "sysid.fit_rational_ms": per_call("sysid.fit_rational", 1e6),
            "sysid.fit_iterates": total("fit_iterates") / fits if fits else 0.0,
            "rc_design.design_pipeline_ms": per_call("rc_design.design_pipeline", 1e6),
            "rc_design.check_stability_ms": per_call("rc_design.check_stability", 1e6),
            "rc_design.check_stability_calls": calls_per_round("rc_design.check_stability"),
            "rc_design.stability_bins": per_round("stability_bins"),
            "control_rt.rc_step_us": per_call("control_rt.rc_step", 1e3, inclusive=False),
            "control_rt.pid_step_us": per_call("control_rt.pid_step", 1e3, inclusive=False),
            "control_rt.controller_step_us": per_call("control_rt.controller_step", 1e3,
                                                      inclusive=False),
            "control_rt.clamped_samples": per_round("clamped_samples"),
            "harness.run_experiment_us_per_sample.pid": per_sample(total("run_ns.pid"),
                                                                   samples["pid"]),
            "harness.run_experiment_us_per_sample.rc": per_sample(total("run_ns.rc"),
                                                                  samples["rc"]),
            "harness.run_experiment_self_us": per_sample(self.self_ns["harness.run_experiment"],
                                                         samples["pid"] + samples["rc"]),
            "harness.emit_report_s": per_call("harness.emit_report", 1e9),
            "harness.report_mib": per_round("report_bytes") / MIB,
            "svg.line_plot_ms": per_call("svg.line_plot", 1e6),
            "svg.mib": per_round("svg_bytes") / MIB,
            "cli.main_s": per_call("cli.main", 1e9),
        }

    def span_records(self) -> list[dict]:
        return [{"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3]}
                for s in self.spans if s is not None]


# -- hooks: counts taken from a call's arguments and result ----------------------

def _on_estimate_frf(tracer, args, kwargs, result, duration):
    spec = args[3] if len(args) > 3 else kwargs.get("excitation")
    if spec is None:  # estimate_frf's default excitation
        from ventrc.sysid import MultisineSpec
        spec = MultisineSpec()
    n = (spec.periods_recorded + spec.periods_discarded) * spec.period_samples
    tracer.count("ident_samples", n)


def _on_fit_rational(tracer, args, kwargs, result, duration):
    tracer.count("fit_iterates", len(getattr(result, "fit_residual_history", ())))


def _on_check_stability(tracer, args, kwargs, result, duration):
    frfs = args[3] if len(args) > 3 else kwargs["frfs"]
    tracer.count("stability_bins", sum(len(f) for f in frfs.values()))


def _on_pid_step(tracer, args, kwargs, result, duration):
    if args[0].windup_active:
        tracer.count("clamped_samples", 1)


def _on_run_experiment(tracer, args, kwargs, result, duration):
    mode = result.mode
    tracer.count(f"run_samples.{mode}", len(result.reference))
    tracer.count(f"run_ns.{mode}", duration)


def _on_report(tracer, args, kwargs, result, duration):
    tracer.count("report_bytes", _file_bytes(result.values()))


def _on_line_plot(tracer, args, kwargs, result, duration):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("svg_bytes", _file_bytes([path]))


_HOOKS = {
    "sysid.estimate_frf": _on_estimate_frf,
    "sysid.fit_rational": _on_fit_rational,
    "rc_design.check_stability": _on_check_stability,
    "control_rt.pid_step": _on_pid_step,
    "harness.run_experiment": _on_run_experiment,
    "harness.emit_report": _on_report,
    "harness.emit_comparison_report": _on_report,
    "svg.line_plot": _on_line_plot,
}
