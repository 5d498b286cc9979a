"""Spans and counters around the calls between lammu's modules.

Installed only in a traced run; an untraced run never imports this module.
Each wrapped call records a span (name, start, end, parent, op id) in memory,
and its self time, the span minus the time of the spans and aggregated calls
inside it.  Calls into ``typelang`` happen about a million times per suites
run, so they get no span, only a call count and their time.
"""

from __future__ import annotations

import gc
import time

perf_counter = time.perf_counter

# Work counters the tracer reads; for one seed they repeat exactly, so the
# runner compares them between runs.
WORK_COUNTERS = ("iu.derive.nodes", "iu.derive.exhausted",
                 "iu.check_derivation.nodes", "grammar.bytes_in")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []      # open spans: [index, child seconds]
        self.layers: dict[str, list] = {}  # name -> [calls, wall, self, max]
        self.counts: dict[str, int] = {}
        self.op = "setup"
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def reset(self):
        """Start a new round: drop spans, zero every total in place (the
        wrappers hold references to the total lists)."""
        self.spans.clear()
        self.stack.clear()
        for rec in self.layers.values():
            rec[:] = [0, 0.0, 0.0, 0.0]
        for k in self.counts:
            self.counts[k] = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _layer(self, name: str) -> list:
        return self.layers.setdefault(name, [0, 0.0, 0.0, 0.0])

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.count("runtime.gc.collections")
            self._layer("runtime.gc")[1] += perf_counter() - self._gc_start

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so every call is a span; ``after(args)`` may record
        counters once the span has closed."""
        rec = self._layer(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                wall = end - start
                rec[0] += 1
                rec[1] += wall
                rec[2] += wall - frame[1]
                if wall > rec[3]:
                    rec[3] = wall
                if stack:
                    stack[-1][1] += wall
                spans[index] = (name, start, end, parent, self.op)
                if after is not None:
                    after(args)

        return traced

    def aggregate(self, name: str, fn):
        """Wrap ``fn`` with a call count and total time only."""
        rec = self._layer(name)
        stack = self.stack

        def counted(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                wall = perf_counter() - start
                rec[0] += 1
                rec[1] += wall
                rec[2] += wall
                if stack:
                    stack[-1][1] += wall

        return counted

    def totals(self) -> dict:
        return {"layers": {k: list(v) for k, v in self.layers.items()},
                "counts": dict(self.counts)}

    def write_spans(self, fh) -> None:
        for name, start, end, parent, op in self.spans:
            fh.write(f"{name}\t{start:.7f}\t{end:.7f}\t{parent}\t{op}\n")


def install(tracer: Tracer, calls) -> None:
    """Wrap lammu's functions where one module calls another, and the
    benchmark's own call table ``calls``.  Nothing under src/ changes."""
    from lammu import grammar, iu, metatheory, typelang
    from lammu.iu import SearchBudget
    from workloads import derivation_nodes

    def after_derive(args):
        budget = args[4]
        tracer.count("iu.derive.nodes", budget.nodes)
        tracer.count("iu.derive.exhausted", int(budget.exhausted))

    def after_check(args):
        tracer.count("iu.check_derivation.nodes", derivation_nodes(args[0]))

    def after_parse(args):
        tracer.count("grammar.bytes_in", len(args[0].encode()))

    for name in WORK_COUNTERS + ("runtime.gc.collections",):
        tracer.count(name, 0)
    traced_derive = tracer.span("iu.derive", iu.derive, after_derive)

    def derive(gamma, term, ty, delta, budget=None):
        # a budget of our own when the caller passes none, so its node count
        # can be read; it is the default derive() would build
        return traced_derive(gamma, term, ty, delta,
                             budget if budget is not None else SearchBudget())

    check = tracer.span("iu.check_derivation", iu.check_derivation, after_check)

    # typelang, where iu and metatheory call it
    for mod in (iu, metatheory):
        mod.canonicalize = tracer.aggregate("typelang.canonicalize",
                                            typelang.canonicalize)
        mod.subtype = tracer.aggregate("typelang.subtype", typelang.subtype)

    # iu, reduction and metatheory's own phases, where metatheory calls them
    metatheory.derive = derive
    metatheory.check_derivation = check
    for name in ("redexes", "step", "subst_term", "subst_structural"):
        setattr(metatheory, name,
                tracer.span(f"reduction.{name}", getattr(metatheory, name)))
    metatheory.gen_typed_judgment = tracer.span(
        "metatheory.generate", metatheory.gen_typed_judgment)
    metatheory.Generator.judgment = tracer.span(
        "metatheory.generate", metatheory.Generator.judgment)
    for name in ("subst_derivation", "struct_subst_derivation", "sr_step",
                 "se_beta_vacuous", "se_beta_var", "se_mu_named", "se_mu_self",
                 "se_renaming"):
        setattr(metatheory, name,
                tracer.span("metatheory.transform", getattr(metatheory, name)))

    # iu's certificate codec imports these from grammar at call time
    grammar.parse_judgment = tracer.span(
        "grammar.parse_judgment", grammar.parse_judgment, after_parse)
    grammar.print_judgment = tracer.span(
        "grammar.print_judgment", grammar.print_judgment)

    # the benchmark's own call sites
    calls.derive = derive
    calls.check_derivation = check
    calls.parse_judgment = grammar.parse_judgment
    calls.gen_typed_judgment = metatheory.gen_typed_judgment
    for name, layer in (("derivation_to_json", "iu"),
                        ("derivation_from_json", "iu"),
                        ("embed_simple", "iu"),
                        ("infer_simple", "simple"),
                        ("check_simple", "simple"),
                        ("normalize", "reduction")):
        setattr(calls, name,
                tracer.span(f"{layer}.{name}", getattr(calls, name)))
    calls.parse_term = tracer.span("grammar.parse_term", calls.parse_term,
                                   after_parse)
    calls.print_term = tracer.span("grammar.print_term", calls.print_term)
    for key, fn in calls.suites.items():
        calls.suites[key] = tracer.span(
            f"metatheory.{key.replace('-', '_')}", fn)
