"""Span recorder for the benchmark's traced rounds.

The tracer wraps tvec's public functions from outside the program, at the
names their callers import: `tvec.typecheck.joinable`, `tvec.oracle.erase`,
`tvec.cli.parse`, and so on.  A defining module's own global is wrapped only
when the function is not recursive and its callers reach it through the
defining module (`tokenize`, `pretty`, `parse_term`, `enumerate_terms`).
Recursive functions such as `erase` and `free_vars` call themselves through
their own global, so wrapping that global would record one span per
recursive call instead of one per call from another module.  The one
recursive function reachable only through its own global,
`canonical_shape`, is wrapped there with a guard that records only the
outermost call.

Each span has a name, a parent, and start and end times in nanoseconds.
Spans are kept in memory in flat arrays and are written out, and turned
into per-layer figures, only after the timed section.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import collections
import functools
import json
import sys
import time
from pathlib import Path

# (span name, defining module, function name).  The layer of a span is the
# part of its name before the first dot.
FUNCTIONS = (
    ("frontend.parse", "tvec.frontend", "parse"),
    ("frontend.resolve", "tvec.frontend", "resolve_defs"),
    ("frontend.pretty", "tvec.frontend", "pretty"),
    ("erase.erase", "tvec.erase", "erase"),
    ("erase.subst_annotated", "tvec.erase", "subst_annotated"),
    ("reduce.normalize", "tvec.reduce", "normalize"),
    ("reduce.eval_cbv", "tvec.reduce", "eval_cbv"),
    ("reduce.joinable", "tvec.reduce", "joinable"),
    ("syntax.alpha_eq", "tvec.syntax", "alpha_eq"),
    ("syntax.free_vars", "tvec.syntax", "free_vars"),
    ("syntax.subst", "tvec.syntax", "subst"),
    ("syntax.open_at", "tvec.syntax", "open_at"),
    ("syntax.open1", "tvec.syntax", "open1"),
    ("syntax.open2", "tvec.syntax", "open2"),
    ("syntax.close_at", "tvec.syntax", "close_at"),
    ("syntax.close1", "tvec.syntax", "close1"),
    ("syntax.has_bound_at", "tvec.syntax", "has_bound_at"),
    ("oracle.run_property_suite", "tvec.oracle", "run_property_suite"),
)

# Non-recursive functions whose callers reach them through the defining
# module, wrapped there.
OWN_GLOBALS = (
    ("frontend.tokenize", "tvec.frontend", "tokenize"),
    ("frontend.parse", "tvec.frontend", "parse_term"),
    ("frontend.pretty", "tvec.frontend", "pretty"),
)

CHECKER_METHODS = (
    ("typecheck.infer", "infer"),
    ("typecheck.check_against", "check_against"),
)

CHECKER_SPANS = ("typecheck.infer", "typecheck.check_against")
JOIN_SPANS = ("reduce.joinable", "reduce.normalize")
LAYERS = ("frontend", "typecheck", "erase", "reduce", "syntax", "oracle",
          "cli")


def _observe_tokens(counters, result):
    counters["tokens"] += len(result)


def _observe_infer(counters, result):
    counters["infer_accepted"] += type(result).__name__ == "Inferred"


def _observe_reduction(counters, result):
    kind = type(result).__name__
    if kind == "FuelExhausted":
        counters["fuel_exhausted"] += 1
        counters["steps"] += result.fuel
    else:
        counters["steps"] += result.steps


def _observe_joinable(counters, result):
    counters["fuel_exhausted"] += type(result).__name__ == "FuelExhausted"


OBSERVERS = {
    "frontend.tokenize": _observe_tokens,
    "typecheck.infer": _observe_infer,
    "reduce.normalize": _observe_reduction,
    "reduce.eval_cbv": _observe_reduction,
    "reduce.joinable": _observe_joinable,
}


class Tracer:
    """Records spans around wrapped calls; one instance per traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._open = [-1]
        self.counters: collections.Counter[str] = collections.Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, outermost: bool = False):
        """A function that records a span named `name` around each call.

        With `outermost`, a call made while a span of the same name is the
        innermost open span is passed straight through.
        """
        nid = self._id(name)
        observe = OBSERVERS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters = self._open, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and stack[-1] >= 0 and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """Like `wrap` for a generator function: one span per item drawn,
        so the caller's work between items is not counted."""
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                sid = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(sid)
                starts.append(clock())
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    ends[sid] = clock()
                    stack.pop()
                yield item

        return traced

    def install(self) -> None:
        """Wrap every traced function in the loaded tvec modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("tvec.") and mod is not None}
        for span, home, attr in FUNCTIONS:
            fn = getattr(modules.get(home), attr, None)
            if fn is None:
                continue
            for mod_name, mod in modules.items():
                if mod_name != home and getattr(mod, attr, None) is fn:
                    setattr(mod, attr, self.wrap(fn, span))
        for span, home, attr in OWN_GLOBALS:
            mod = modules.get(home)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(getattr(mod, attr), span))
        oracle = modules.get("tvec.oracle")
        if hasattr(oracle, "enumerate_terms"):
            oracle.enumerate_terms = self.wrap_generator(
                oracle.enumerate_terms, "oracle.enumerate")
        if hasattr(oracle, "canonical_shape"):
            oracle.canonical_shape = self.wrap(
                oracle.canonical_shape, "oracle.canonical_shape",
                outermost=True)
        typecheck = modules.get("tvec.typecheck")
        checker = getattr(typecheck, "Checker", None)
        if checker is not None:
            for cls in [checker, *checker.__subclasses__()]:
                for span, attr in CHECKER_METHODS:
                    if attr in cls.__dict__:
                        setattr(cls, attr, self.wrap(cls.__dict__[attr], span))

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": [["name", self.span_name.typecode],
                             ["parent", self.span_parent.typecode],
                             ["start_ns", self.span_start.typecode],
                             ["end_ns", self.span_end.typecode]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(out)

    def summarize(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures for a traced section that took `wall_s`."""
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]

        checker_ids = {self._ids[s] for s in CHECKER_SPANS if s in self._ids}
        join_ids = {self._ids[s] for s in JOIN_SPANS if s in self._ids}
        pretty_id = self._ids.get("frontend.pretty")
        in_checker = [False] * n   # has a checker span as an ancestor
        in_join = [False] * n      # has a join span as an ancestor
        self_ns: collections.Counter[int] = collections.Counter()
        calls: collections.Counter[int] = collections.Counter()
        checker_ns = join_ns = top_ns = diag_calls = 0
        for i in range(n):
            nid, p = names[i], parents[i]
            self_ns[nid] += dur[i] - child[i]
            calls[nid] += 1
            if p < 0:
                top_ns += dur[i]
            else:
                in_checker[i] = in_checker[p] or names[p] in checker_ids
                in_join[i] = in_join[p] or names[p] in join_ids
            if nid in checker_ids and not in_checker[i]:
                checker_ns += dur[i]
            if nid in join_ids and in_checker[i] and not in_join[i]:
                join_ns += dur[i]
            if nid == pretty_id and p >= 0 and names[p] in checker_ids:
                diag_calls += 1

        def self_s(span: str) -> float:
            return self_ns[self._ids[span]] / 1e9 if span in self._ids else 0.0

        def count(span: str) -> int:
            return calls[self._ids[span]] if span in self._ids else 0

        layer_ns = collections.Counter()
        for nid, ns in self_ns.items():
            layer_ns[self.names[nid].split(".", 1)[0]] += ns
        c = self.counters
        tokenize_s = self_s("frontend.tokenize")
        infer_calls = count("typecheck.infer")
        out = {
            "frontend.tokenize.calls": count("frontend.tokenize"),
            "frontend.tokenize.self_s": tokenize_s,
            "frontend.tokens_per_s": c["tokens"] / tokenize_s
            if tokenize_s else 0.0,
            "frontend.parse.self_s": self_s("frontend.parse"),
            "frontend.resolve.self_s": self_s("frontend.resolve"),
            "frontend.pretty.calls": count("frontend.pretty"),
            "frontend.pretty.self_s": self_s("frontend.pretty"),
            "frontend.pretty.diag_calls": diag_calls,
            "typecheck.infer.calls": infer_calls,
            "typecheck.infer.self_s": self_s("typecheck.infer"),
            "typecheck.accept_ratio": c["infer_accepted"] / infer_calls
            if infer_calls else 0.0,
            "typecheck.join_share": join_ns / checker_ns
            if checker_ns else 0.0,
            "erase.calls": count("erase.erase"),
            "erase.self_s": self_s("erase.erase"),
            "reduce.normalize.self_s": self_s("reduce.normalize"),
            "reduce.eval_cbv.self_s": self_s("reduce.eval_cbv"),
            "reduce.steps": c["steps"],
            "reduce.joinable.calls": count("reduce.joinable"),
            "reduce.fuel_exhausted": c["fuel_exhausted"],
            "syntax.alpha_eq.calls": count("syntax.alpha_eq"),
            "syntax.free_vars.calls": count("syntax.free_vars"),
            "oracle.enumerate.self_s": self_s("oracle.enumerate"),
            "oracle.canonical_shape.self_s":
                self_s("oracle.canonical_shape"),
            "trace.wall_s": wall_s,
        }
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_ns[layer] / 1e9
        out["layer.harness.self_s"] = max(wall_s - top_ns / 1e9, 0.0)
        return out
