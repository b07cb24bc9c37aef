"""Outside-in tracing of rdmprop's layers.

The tracer replaces public functions of the program with wrappers that
record one span (name, start, end, parent) per call plus optional counts.
Spans stay in memory; `summary` turns them into per-layer metrics when the
pass ends. Modules bind many of these names with `from .x import y`, so
every namespace that holds one is patched. A name that no longer exists is
reported as absent instead of failing the run.

The right-hand-side closure handed to the ODE solver is never wrapped: the
RHS evaluation count comes from the solver's own `nfev`.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# layer span name -> the (module, attribute) bindings that reach it
TARGETS = {
    "cli.main": [("rdmprop.cli", "main")],
    "propagate.integrate": [("rdmprop.cli", "integrate"),
                            ("rdmprop.propagate", "integrate")],
    "scenario.build": [("rdmprop.scenario", "Scenario.build")],
    "generators.build_generator": [("rdmprop.scenario", "build_generator"),
                                   ("rdmprop.generators", "build_generator")],
    "channels.decompose": [("rdmprop.generators", "decompose"),
                           ("rdmprop.channels", "decompose")],
    "bath.build_rate_table": [("rdmprop.generators", "build_rate_table")],
    "bath.xi_integral": [("rdmprop.generators", "xi_integral"),
                         ("rdmprop.bath", "xi_integral")],
    "bath.ule_lamb_coefficient": [("rdmprop.generators",
                                   "ule_lamb_coefficient"),
                                  ("rdmprop.bath", "ule_lamb_coefficient")],
    "bath.sample_spectra": [("rdmprop.cli", "sample_spectra"),
                            ("rdmprop.bath", "sample_spectra")],
    "generators.liouvillian_action": [
        ("rdmprop.propagate", "liouvillian_action"),
        ("rdmprop.representability", "liouvillian_action"),
        ("rdmprop.generators", "liouvillian_action")],
    "generators.ttensor_terms": [("rdmprop.generators", "ttensor_terms")],
    "propagate.assemble": [("rdmprop.propagate", "build_packed_generator"),
                           ("rdmprop.propagate", "build_blocked_rhs")],
    "propagate.solve": [("rdmprop.propagate", "solve_ivp")],
    "propagate.propagate_state": [("rdmprop.propagate", "propagate_state")],
    "representability.audit": [("rdmprop.cli", "audit_trajectory"),
                               ("rdmprop.representability",
                                "audit_trajectory")],
    "representability.unitality": [("rdmprop.cli", "unitality_residual"),
                                   ("rdmprop.representability",
                                    "unitality_residual")],
    "representability.copropagate": [("rdmprop.representability",
                                      "copropagate_hole")],
    "output.write": [("rdmprop.cli", "write_trajectory_csv"),
                     ("rdmprop.cli", "write_metadata_json"),
                     ("rdmprop.cli", "write_spectra_csv"),
                     ("rdmprop.output", "write_trajectory_csv"),
                     ("rdmprop.output", "write_metadata_json"),
                     ("rdmprop.output", "write_spectra_csv")],
}


def _count_channels(tracer, result):
    tracer.counts["channels.blocks"] += len(getattr(result, "blocks", ()))
    tracer.counts["channels.frequencies"] += len(
        getattr(result, "frequencies", ()))


def _count_terms(tracer, result):
    tracer.counts["generators.ttensor_terms.count"] += len(result)


def _count_nfev(tracer, result):
    tracer.counts["propagate.rhs_evals"] += int(getattr(result, "nfev", 0))


def _count_samples(tracer, result):
    tracer.counts["propagate.samples"] += len(getattr(result, "times", ()))


def _count_bytes(tracer, result):
    try:
        tracer.counts["output.bytes"] += os.path.getsize(result)
    except (OSError, TypeError):
        pass


COUNTERS = {
    "channels.decompose": _count_channels,
    "generators.ttensor_terms": _count_terms,
    "propagate.solve": _count_nfev,
    "propagate.propagate_state": _count_samples,
    "output.write": _count_bytes,
}


class Tracer:
    """Span recorder for one pass. Spans are [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.counts[name + ".calls"] += 1
            if counter is not None:
                counter(self, result)
            return result

        return wrapper

    def install(self):
        """Patch every binding in TARGETS; record the ones that are gone."""
        wrappers = {}
        for name, bindings in TARGETS.items():
            found = False
            for module_name, attr in bindings:
                try:
                    owner = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    continue
                found = True
                # one wrapper per original function, shared by its aliases
                key = (name, id(fn))
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, fn)
                setattr(owner, leaf, wrappers[key])
                self._undo.append((owner, leaf, fn))
            if not found:
                self.absent.append(name)

    def uninstall(self):
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    def totals(self):
        """Inclusive and self seconds per span name."""
        inclusive = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = end - start
            inclusive[name] += dur
            if parent >= 0:
                child[parent] += dur
        own = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[idx]
        return inclusive, own


# metric -> span whose time it reports, and whether it is self time
_SPAN_TIMES = {
    "bath.xi_integral.s": ("bath.xi_integral", False),
    "bath.ule_lamb_coefficient.s": ("bath.ule_lamb_coefficient", False),
    "bath.build_rate_table.s": ("bath.build_rate_table", False),
    "bath.sample_spectra.s": ("bath.sample_spectra", False),
    "channels.decompose.s": ("channels.decompose", False),
    "generators.build_generator.s": ("generators.build_generator", True),
    "generators.liouvillian_action.s": ("generators.liouvillian_action",
                                        False),
    "propagate.assemble.s": ("propagate.assemble", False),
    "propagate.solve.s": ("propagate.solve", False),
    "propagate.post.s": ("propagate.propagate_state", True),
    "representability.audit.s": ("representability.audit", False),
    "representability.unitality.s": ("representability.unitality", False),
    "representability.copropagate.s": ("representability.copropagate", True),
    "output.write.s": ("output.write", False),
    "scenario.build.s": ("scenario.build", True),
    "cli.self.s": ("cli.main", True),
}

_SPAN_COUNTS = {
    "bath.xi_integral.calls": ("bath.xi_integral.calls", "bath.xi_integral"),
    "bath.ule_lamb_coefficient.calls": ("bath.ule_lamb_coefficient.calls",
                                        "bath.ule_lamb_coefficient"),
    "generators.liouvillian_action.calls": (
        "generators.liouvillian_action.calls",
        "generators.liouvillian_action"),
    "channels.blocks": ("channels.blocks", "channels.decompose"),
    "channels.frequencies": ("channels.frequencies", "channels.decompose"),
    "generators.ttensor_terms.count": ("generators.ttensor_terms.count",
                                       "generators.ttensor_terms"),
    "propagate.rhs_evals": ("propagate.rhs_evals", "propagate.solve"),
    "propagate.samples": ("propagate.samples", "propagate.propagate_state"),
    "output.bytes": ("output.bytes", "output.write"),
}


# per-layer metric -> unit
LAYER_METRICS = {**{m: "s" for m in _SPAN_TIMES},
                 **{m: "count" for m in _SPAN_COUNTS},
                 "output.bytes": "bytes", "propagate.rhs_us": "us"}


def summary(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer values for one traced pass, and the absent metric names."""
    inclusive, own = tracer.totals()
    values = {}
    absent = set(tracer.absent)
    for metric, (span, use_self) in _SPAN_TIMES.items():
        values[metric] = (own if use_self else inclusive).get(span, 0.0)
    for metric, (counter, span) in _SPAN_COUNTS.items():
        values[metric] = tracer.counts.get(counter, 0)
    evals = values["propagate.rhs_evals"]
    values["propagate.rhs_us"] = (1e6 * values["propagate.solve.s"] / evals
                                  if evals else 0.0)
    missing = [m for m, (span, _) in _SPAN_TIMES.items() if span in absent]
    missing += [m for m, (_, span) in _SPAN_COUNTS.items() if span in absent]
    if "propagate.solve" in absent:
        missing.append("propagate.rhs_us")
    return values, sorted(missing)


def shares(values: dict, run_s: float) -> dict:
    """Share of the traced run taken by each workload's dominant layer."""
    if run_s <= 0:
        return {}
    return {
        "share.solve": values["propagate.solve.s"] / run_s,
        "share.assembly": (values["propagate.assemble.s"]
                           + values["generators.build_generator.s"]
                           + values["channels.decompose.s"]) / run_s,
        "share.bath": (values["bath.build_rate_table.s"]
                       + values["bath.sample_spectra.s"]) / run_s,
        "share.post_audit_output": (values["propagate.post.s"]
                                    + values["representability.audit.s"]
                                    + values["output.write.s"]) / run_s,
    }
