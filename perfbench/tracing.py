"""Spans around the prover's layers, installed from outside the prover.

`install()` replaces each traced function by a wrapper in every namespace
that looks it up (for example `ddrt.prover.closed_reducts` as well as
`ddrt.rewriting.closed_reducts`), so calls from inside the prover are
caught too. A span records its name, layer, start, end, parent span and
problem id; spans stay in memory until `dump()` writes them at the end of
the process. `summarize()` turns spans and counters into the per-layer
metrics. The `terms` layer is not wrapped: it is called millions of times,
and its cost shows in the self time of `rewriting` and `joinability`.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict


def _closed(counts, result, args, kwargs, raised):
    if not raised:
        counts["rewriting.closed_reducts.closed"] += 1


def _steps(counts, result, args, kwargs, raised):
    if not raised:
        counts["rewriting.normalize.steps"] += len(result[1])


def _instances(counts, result, args, kwargs, raised):
    if not raised:
        counts["joinability.instances"] += len(result)


def _unsat(counts, result, args, kwargs, raised):
    if not raised and result is None:
        counts["rule_labeling.unsat"] += 1


def _relative(counts, result, args, kwargs, raised):
    if not raised:
        counts["interpretations.prove_relative_termination.yes"] += result.kind == "YES"
        counts["interpretations.rounds"] += len(result.details.get("chain", []))


def _dd_name(args, kwargs):
    trivial = kwargs.get("exclude_trivial", args[2] if len(args) > 2 else False)
    return "prover.dd2x" if trivial else "prover.dd2"


# span name (or a function of the call's arguments), layer, the namespaces
# that look the function up (defining module first), and a result counter
TARGETS = [
    ("cli.run", "cli", ["ddrt.cli.run"], None),
    ("tpdb.parse_trs", "tpdb", ["ddrt.tpdb.parse_trs", "ddrt.cli.parse_trs"], None),
    ("prover.prove", "prover", ["ddrt.prover.prove", "ddrt.cli.prove"], None),
    ("prover.nc", "prover", ["ddrt.prover.check_nonconfluence"], None),
    ("prover.ortho", "prover", ["ddrt.prover.check_orthogonal"], None),
    ("prover.rl", "prover", ["ddrt.prover.check_rule_labeling"], None),
    ("prover.kb", "prover", ["ddrt.prover.check_knuth_bendix"], None),
    ("prover.dd1", "prover", ["ddrt.prover.check_dd_l1"], None),
    (_dd_name, "prover", ["ddrt.prover.check_dd_l2"], None),
    ("critical_pairs.overlaps", "critical_pairs",
     ["ddrt.critical_pairs.overlaps", "ddrt.prover.overlaps", "ddrt.rule_labeling.overlaps"],
     None),
    ("rewriting.one_step_reducts", "rewriting",
     ["ddrt.rewriting.one_step_reducts", "ddrt.joinability.one_step_reducts"], None),
    ("rewriting.closed_reducts", "rewriting",
     ["ddrt.rewriting.closed_reducts", "ddrt.prover.closed_reducts"], _closed),
    ("rewriting.normalize", "rewriting",
     ["ddrt.rewriting.normalize", "ddrt.prover.normalize"], _steps),
    ("joinability.join_instances", "joinability",
     ["ddrt.joinability.join_instances", "ddrt.rule_labeling.join_instances"], _instances),
    ("rule_labeling.build_rl", "rule_labeling", ["ddrt.rule_labeling.build_rl"], None),
    ("rule_labeling.solve_precedence", "rule_labeling",
     ["ddrt.rule_labeling.solve_precedence"], _unsat),
    ("interpretations.prove_relative_termination", "interpretations",
     ["ddrt.interpretations.prove_relative_termination",
      "ddrt.prover.prove_relative_termination"], _relative),
    ("interpretations.prove_termination", "interpretations",
     ["ddrt.interpretations.prove_termination", "ddrt.prover.prove_termination"], None),
]

LAYERS = ("cli", "tpdb", "prover", "critical_pairs", "rewriting", "joinability",
          "rule_labeling", "interpretations")

# the metrics a traced run reports; each is 0 where its layer never ran
COUNT_METRICS = [
    "prover.nc.calls", "prover.ortho.calls", "prover.rl.calls", "prover.kb.calls",
    "prover.dd1.calls", "prover.dd2.calls", "prover.dd2x.calls",
    "critical_pairs.overlaps.calls",
    "rewriting.one_step_reducts.calls", "rewriting.closed_reducts.calls",
    "rewriting.closed_reducts.closed", "rewriting.normalize.steps",
    "joinability.join_instances.calls", "joinability.instances",
    "rule_labeling.solve_precedence.calls", "rule_labeling.unsat",
    "interpretations.prove_relative_termination.calls",
    "interpretations.prove_relative_termination.yes",
    "interpretations.prove_termination.calls", "interpretations.rounds",
]
TIME_METRICS = [
    "tpdb.parse_trs.s",
    "prover.nc.s", "prover.ortho.s", "prover.rl.s", "prover.kb.s",
    "prover.dd1.s", "prover.dd2.s", "prover.dd2x.s",
    "critical_pairs.overlaps.s",
    "rewriting.one_step_reducts.s", "rewriting.closed_reducts.s", "rewriting.normalize.s",
    "joinability.join_instances.s",
    "rule_labeling.build_rl.s", "rule_labeling.solve_precedence.s",
    "interpretations.prove_relative_termination.s", "interpretations.prove_termination.s",
] + [f"{layer}.self_s" for layer in LAYERS if layer != "tpdb"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        # [name id, start, end, parent span index or -1, problem id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.problem: str | None = None

    def _name_id(self, name: str, layer: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            self.layers.append(layer)
            return len(self.names) - 1

    def wrap(self, fn, name, layer, counter):
        tracer = self
        fixed = None if callable(name) else self._name_id(name, layer)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._name_id(name(args, kwargs), layer)
            span = [nid, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1, tracer.problem]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if counter is not None:
                    counter(tracer.counts, None if raised else result, args, kwargs, raised)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that the prover still defines."""
        for name, layer, paths, counter in TARGETS:
            owner, _, attr = paths[0].rpartition(".")
            original = getattr(importlib.import_module(owner), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, layer, counter)
            for path in paths:
                module, _, attr = path.rpartition(".")
                mod = importlib.import_module(module)
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def summarize(self) -> dict:
        """Calls, inclusive seconds and counters per name; self seconds per layer."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        child = defaultdict(float)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self: Counter = Counter()
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            layer_self[self.layers[nid]] += (end - start) - child[i]
            # a recursive call's time is already inside its outermost span
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        out = {f"{n}.calls": c for n, c in calls.items()}
        out.update({f"{n}.s": s for n, s in inclusive.items()})
        out.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "layers": self.layers,
                       "fields": ["name", "start", "end", "parent", "problem"],
                       "spans": self.spans}, fh, separators=(",", ":"))
