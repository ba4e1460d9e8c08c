"""Spans around the package's public functions, installed from outside.

The tracer wraps the functions listed in SPANS and COUNTERS in every
loaded ``borel_orbits`` module namespace, so calls bound through
``from .x import f`` are caught too.  Spans are aggregated in memory per
group as [calls, total seconds, self seconds]; self time is a span's
duration minus the time of the spans it encloses, so the self times of
all groups add up to at most the traced wall time.  A function the
package no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import sys
import time

# group -> (module, public functions timed as one layer)
SPANS = {
    "root_system.build": ("root_system", ("build_root_system",)),
    "root_system.minmax": ("root_system", ("min_elements", "max_elements")),
    "ideals.validate": ("ideals", ("check_abelian_ideal", "is_abelian", "is_ideal")),
    "orbits.enum": ("orbits", ("strongly_orth_subsets",)),
    "orbits.shift": ("orbits", ("shift_up", "shift_down")),
    "orbits.peel": ("orbits", ("lower_canonical", "upper_canonical", "kostant_cascade")),
    "weyl.sigma": ("weyl", ("sigma_of_orth_set",)),
    "weyl.length": ("weyl", ("length",)),
    "weyl.abs_length": ("weyl", ("absolute_length",)),
    "weyl.bruhat": ("weyl", ("bruhat_leq",)),
    "chevalley.table": ("chevalley", ("build_structure_table",)),
    "chevalley.exp": ("chevalley", ("ad_exp_action", "coad_exp_action")),
    "intlin.snf": ("intlin", ("smith_normal_form",)),
    "intlin.rank": ("intlin", ("matrix_rank",)),
    "normal_form.reduce": ("normal_form", ("reduce_in_ideal", "reduce_in_dual")),
    "normal_form.char": ("normal_form", ("char_value",)),
    "normal_form.replay": ("normal_form", ("replay",)),
    "anr.report": ("anr", ("conjecture_check", "maximal_ideal_report")),
    "anr.statistic": ("anr", ("anr_statistic",)),
    "cli.render": ("cli", ("main",)),
}

# group -> (module, functions only counted: their time stays with the caller)
COUNTERS = {
    "weyl.reflection": ("weyl", ("reflection",)),
}


class Tracer:
    """Per-group span totals and work counters of one traced process."""

    def __init__(self):
        self.spans = {group: [0, 0.0, 0.0] for group in SPANS}
        self.calls = {group: 0 for group in COUNTERS}
        self.counts = {"orbits.labels": 0, "weyl.bruhat_true": 0,
                       "normal_form.kill_steps": 0, "normal_form.normalized": 0,
                       "normal_form.label_reuse": 0, "anr.covers": 0}
        self._labels_seen = set()
        self._stack = []

    def _observe(self, name, args, result):
        c = self.counts
        if name == "strongly_orth_subsets":
            c["orbits.labels"] += len(result)
        elif name == "bruhat_leq":
            c["weyl.bruhat_true"] += bool(result)
        elif name in ("reduce_in_ideal", "reduce_in_dual"):
            label, transcript = result
            c["normal_form.kill_steps"] += len(transcript.steps)
            c["normal_form.normalized"] += bool(transcript.normalized)
            key = (str(args[0].type), name, label)
            c["normal_form.label_reuse"] += key in self._labels_seen
            self._labels_seen.add(key)
        elif name in ("conjecture_check", "maximal_ideal_report"):
            c["anr.covers"] += len(result.covers)

    def _span(self, group, fn):
        stat = self.spans[group]
        stack = self._stack
        observe = self._observe
        name = fn.__name__
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if stack:
                    stack[-1] += dt
            observe(name, args, result)
            return result

        return traced

    def _counter(self, group, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[group] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every binding of a listed function in the loaded package."""
        package = "borel_orbits"
        wrappers = {}
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for group, (module, names) in table.items():
                mod = sys.modules.get(f"{package}.{module}")
                for name in names:
                    fn = getattr(mod, name, None)
                    if callable(fn):
                        wrappers[id(fn)] = (fn, make(group, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def snapshot(self) -> dict:
        return {"spans": {g: list(v) for g, v in self.spans.items()},
                "calls": dict(self.calls), "counts": dict(self.counts)}
