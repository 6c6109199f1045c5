"""Spans around the calls into each qinlab layer, kept in memory.

A traced run replaces the layer functions listed in ``LAYER_CALLS`` by
wrappers on their modules (and classes), so a call made by the benchmark or
by another layer through the module attribute opens a span. Spans record
name, start, end, parent span and job id; the benchmark's own job span is the
root of each job. Untraced runs install nothing, so they time the program
exactly as users call it.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute path) of every layer function the benchmark times.
LAYER_CALLS = (
    ("querytree", "tree_from_json"),
    ("querytree", "profile_from_json"),
    ("querytree", "ReportProfile.truthful"),
    ("querytree", "derive_reported_tree"),
    ("querytree", "allocate"),
    ("querytree", "tree_to_json"),
    ("querytree", "generate_random_tree"),
    ("mechanisms", "specs_for_rho"),
    ("mechanisms", "reward_vector"),
    ("adversary", "apply_sybil_to_tree"),
    ("adversary", "run_scenario"),
    ("analytics", "rounding_mismatches"),
    ("analytics", "sybil_profile"),
    ("analytics", "lambda_star"),
    ("auditor", "check_po"),
    ("auditor", "check_bb"),
    ("auditor", "check_split"),
    ("auditor", "check_sp"),
    ("auditor", "check_cp"),
    ("auditor", "check_monotone_solver_reward"),
    ("auditor", "reward_table"),
    ("auditor", "impossibility_certificate"),
    ("auditor", "check_ic"),
    ("auditor", "check_core"),
    ("auditor", "replay_witness"),
    ("experiments", "run"),
    ("cli", "main"),
)

MODULES = ("querytree", "mechanisms", "adversary", "analytics", "auditor",
           "experiments", "cli")


class Tracer:
    def __init__(self):
        # [span id, parent id, name, start ns, end ns, job id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._last_error = None
        self.job = None
        self.errors = Counter()

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter_ns(), None, self.job]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        except Exception as exc:
            # count an exception once, in the innermost layer it left
            if exc is not self._last_error:
                self._last_error = exc
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every LAYER_CALLS entry of ``package`` for the duration."""
        undo = []
        for module_name, path in LAYER_CALLS:
            owner = getattr(package, module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{module_name}.{path}"
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def self_seconds(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time (duration minus the time its
        child spans cover) and call count."""
        child = Counter()
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy, calls = Counter(), Counter()
        for sid, _, name, start, end, _ in self.spans:
            busy[name] += (end - start - child[sid]) / 1e9
            calls[name] += 1
        return busy, calls

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, start, end, job in self.spans:
                out.write(json.dumps({"span": sid, "parent": parent,
                                      "name": name, "job": job,
                                      "start_ns": start, "end_ns": end})
                          + "\n")
