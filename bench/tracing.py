"""Per-layer tracing from outside the program.

For the length of a traced run, ``Tracer.install`` replaces the names one
awarekit module uses to call another (``awarekit.cli.decide_bounded``,
``awarekit.proof.is_tautology``, ...) with wrappers, and ``Tracer.restore``
puts the originals back.  Nothing under src/ knows about tracing.

Three kinds of boundary:

* span: records a span (name, start, end, parent, item id, thread);
* leaf: a hot call with no traced callees, such as ``first_failure`` on
  one formula.  Leaves are added up per enclosing span as (calls, seconds)
  instead of being stored one by one, which keeps a fuzz run's millions of
  calls in bounded memory;
* gen: a skeleton generator.  Its lifetime on a thread becomes a
  ``search.shard`` span, the sweep that consumes it; the time spent inside
  the generator's own ``next`` calls and the number of skeletons it yields
  become the ``model.enumerate`` leaf of that span.

A span opened on a worker thread with no open span of its own takes as
parent the innermost open span of the thread that installed the tracer:
the call that caused it.  A span's self time is its duration minus what its
children cover on its own thread; ``search.decide`` also subtracts the part
of its interval that the shards it fanned out to other threads cover.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from dataclasses import asdict, dataclass, field
from time import perf_counter

SPAN, LEAF, GEN = "span", "leaf", "gen"

# (module, attribute, span name, kind)
BOUNDARIES = [
    ("awarekit.cli", "main", "cli", SPAN),
    ("awarekit.cli", "parse", "syntax.parse", LEAF),
    ("awarekit.cli", "load_model", "model.load", LEAF),
    ("awarekit.cli", "model_to_json", "model.to_json", LEAF),
    ("awarekit.cli", "satisfies", "checker.satisfies", LEAF),
    ("awarekit.cli", "decide_bounded", "search.decide", SPAN),
    ("awarekit.cli", "fuzz_soundness", "search.fuzz", SPAN),
    ("awarekit.cli", "default_registry", "proof.registry", SPAN),
    ("awarekit.cli", "parse_proof", "proof.parse_proof", SPAN),
    ("awarekit.cli", "check_proof", "proof.check", SPAN),
    ("awarekit.search", "_iter_skeletons", "search.shard", GEN),
    ("awarekit.search", "_iter_skeletons_wa", "search.shard", GEN),
    ("awarekit.search", "_materialize", "model.materialize", LEAF),
    ("awarekit.search", "random_model", "model.random_model", LEAF),
    ("awarekit.search", "ModelEvaluator", "checker.evaluator", LEAF),
    ("awarekit.search", "satisfies", "checker.satisfies", LEAF),
    ("awarekit.search", "instantiate", "syntax.instantiate", LEAF),
    ("awarekit.checker", "ModelEvaluator.first_failure", "checker.first_failure", LEAF),
    ("awarekit.proof", "check", "proof.check", SPAN),
    ("awarekit.proof", "default_registry", "proof.registry", SPAN),
    ("awarekit.proof", "parse", "syntax.parse", LEAF),
    ("awarekit.proof", "is_tautology", "syntax.is_tautology", LEAF),
    ("awarekit.proof", "match_schema", "syntax.match_schema", LEAF),
    ("awarekit.proof", "instantiate", "syntax.instantiate", LEAF),
    ("awarekit.proof", "deduction", "proof.transform", SPAN),
    ("awarekit.proof", "lift_knowledge", "proof.transform", SPAN),
]


@dataclass(eq=False)
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    item: int | None
    thread: int
    end: float = 0.0
    leaves: dict[str, list] = field(default_factory=dict)  # name -> [calls, seconds]
    attrs: dict = field(default_factory=dict)

    def add_leaf(self, name: str, calls: int, seconds: float) -> None:
        acc = self.leaves.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += seconds


def _resolve(module: str, attr: str):
    """(owner object, final attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item: int | None = None
        self.missing: dict[str, str] = {}  # "module.attr" -> reason
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[Span] = []
        self._orphans = Span(-1, "orphans", 0.0, None, None, 0)
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping --

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._root_stack if threading.get_ident() == self._root_thread else []
            self._local.stack = stack
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._root_stack[-1].id if self._root_stack else None
        span = Span(next(self._ids), name, perf_counter(), parent, self.item, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break

    def _current(self) -> Span:
        stack = self._stack()
        return stack[-1] if stack else self._orphans

    # -- wrappers --

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
                _annotate(span, args, out)
                return out
            finally:
                self._close(span)

        return wrapper

    def _leaf(self, name: str, fn):
        local = self._local

        def wrapper(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return fn(*args, **kwargs)
            local.in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                local.in_leaf = False
                self._current().add_leaf(name, 1, dt)

        return wrapper

    def _gen(self, name: str, fn):
        local = self._local

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if getattr(local, "in_enum", False):
                return inner  # called from inside a traced generator
            return self._traced_gen(name, inner)

        return wrapper

    def _traced_gen(self, name: str, inner):
        local = self._local
        span = self._open(name)
        count, busy = 0, 0.0
        try:
            while True:
                t0 = perf_counter()
                local.in_enum = True
                try:
                    item = next(inner)
                except StopIteration:
                    break
                finally:
                    local.in_enum = False
                    busy += perf_counter() - t0
                count += 1
                yield item
        finally:
            inner.close()
            span.add_leaf("model.enumerate", count, busy)
            self._close(span)

    # -- install / restore --

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        make = {SPAN: self._span, LEAF: self._leaf, GEN: self._gen}
        for module, attr, name, kind in BOUNDARIES:
            try:
                owner, last = _resolve(module, attr)
                original = owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)
            except (ImportError, AttributeError, KeyError):
                self.missing[f"{module}.{attr}"] = "attribute not found"
                continue
            if not callable(original):
                self.missing[f"{module}.{attr}"] = "attribute is not callable"
                continue
            self._patched.append((owner, last, original))
            setattr(owner, last, make[kind](name, original))

    def restore(self) -> None:
        while self._patched:
            owner, last, original = self._patched.pop()
            setattr(owner, last, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results --

    def dump(self) -> list[dict]:
        """Every span, and last the leaves called outside any span."""
        return [asdict(s) for s in self.spans + [self._orphans]]

    def metrics(self, overhead_share: float) -> tuple[dict[str, float], dict[str, str]]:
        """Per-layer metric values, and the reason for each absent one."""
        return layer_metrics(self.spans + [self._orphans], self.missing, overhead_share)


def _annotate(span: Span, args: tuple, out) -> None:
    """Counts recorded at the boundary, from the call's own inputs and outputs."""
    if span.name == "search.decide":
        checked = getattr(out, "models_checked", None)
        span.attrs["valid"] = checked is not None
        if checked is not None:
            span.attrs["models_checked"] = checked
    elif span.name == "proof.check" and args:
        span.attrs["lines"] = len(getattr(args[0], "lines", ()))


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# metric name -> (unit, span names it is built from)
LAYER_METRICS = {
    "cli.calls": ("count", ["cli"]),
    "cli.self_s": ("s", ["cli"]),
    "syntax.parse.calls": ("count", ["syntax.parse"]),
    "syntax.parse.s": ("s", ["syntax.parse"]),
    "syntax.is_tautology.calls": ("count", ["syntax.is_tautology"]),
    "syntax.is_tautology.s": ("s", ["syntax.is_tautology"]),
    "syntax.match_schema.calls": ("count", ["syntax.match_schema"]),
    "syntax.match_schema.s": ("s", ["syntax.match_schema"]),
    "syntax.instantiate.calls": ("count", ["syntax.instantiate"]),
    "syntax.instantiate.s": ("s", ["syntax.instantiate"]),
    "model.skeletons": ("count", ["search.shard"]),
    "model.enumerate.s": ("s", ["search.shard"]),
    "model.random_model.calls": ("count", ["model.random_model"]),
    "model.random_model.s": ("s", ["model.random_model"]),
    "model.materialize.calls": ("count", ["model.materialize"]),
    "model.materialize.s": ("s", ["model.materialize"]),
    "model.load.s": ("s", ["model.load"]),
    "model.to_json.s": ("s", ["model.to_json"]),
    "checker.evaluator.builds": ("count", ["checker.evaluator"]),
    "checker.evaluator.build_s": ("s", ["checker.evaluator"]),
    "checker.first_failure.calls": ("count", ["checker.first_failure"]),
    "checker.first_failure.s": ("s", ["checker.first_failure"]),
    "checker.satisfies.calls": ("count", ["checker.satisfies"]),
    "checker.satisfies.s": ("s", ["checker.satisfies"]),
    "search.decide.calls": ("count", ["search.decide"]),
    "search.decide.s": ("s", ["search.decide"]),
    "search.self_s": ("s", ["search.decide", "search.shard"]),
    "search.models_checked": ("count", ["search.decide"]),
    "search.models_per_s": ("1/s", ["search.decide", "search.shard"]),
    "search.skeletons_per_s": ("1/s", ["search.decide", "search.shard"]),
    "search.threads": ("count", ["search.decide", "search.shard"]),
    "search.fuzz.s": ("s", ["search.fuzz"]),
    "search.fuzz.self_s": ("s", ["search.fuzz"]),
    "proof.check.calls": ("count", ["proof.check"]),
    "proof.lines": ("count", ["proof.check"]),
    "proof.check.s": ("s", ["proof.check"]),
    "proof.self_s": ("s", ["proof.check"]),
    "proof.taut_share": ("ratio", ["proof.check", "syntax.is_tautology"]),
    "proof.registry.calls": ("count", ["proof.registry"]),
    "proof.registry.s": ("s", ["proof.registry"]),
    "proof.parse_proof.s": ("s", ["proof.parse_proof"]),
    "proof.transform.calls": ("count", ["proof.transform"]),
    "proof.transform.s": ("s", ["proof.transform"]),
    "trace.spans": ("count", []),
    "trace.overhead_share": ("ratio", []),
}


def layer_metrics(spans: list[Span], missing: dict[str, str], overhead_share: float):
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def dur(s: Span) -> float:
        return s.end - s.start

    def self_time(s: Span) -> float:
        own = sum(secs for _, secs in s.leaves.values())
        kids = children.get(s.id, [])
        own += sum(dur(k) for k in kids if k.thread == s.thread)
        if s.name == "search.decide":
            own += _union_length([(k.start, k.end) for k in kids if k.thread != s.thread], s.start, s.end)
        return dur(s) - own

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def under(s: Span, names: set[str]) -> bool:
        """Whether some ancestor of s has one of these names."""
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = by_id.get(parent.parent)
        return False

    leaf_calls: dict[str, int] = {}
    leaf_secs: dict[str, float] = {}
    for s in spans:
        for name, (calls, secs) in s.leaves.items():
            leaf_calls[name] = leaf_calls.get(name, 0) + calls
            leaf_secs[name] = leaf_secs.get(name, 0.0) + secs

    decides = named("search.decide")
    shards_of = {d.id: [k for k in children.get(d.id, []) if k.name == "search.shard"] for d in decides}
    valid = [d for d in decides if d.attrs.get("valid")]
    valid_self = sum(self_time(d) + sum(self_time(k) for k in shards_of[d.id]) for d in valid)
    valid_models = sum(d.attrs["models_checked"] for d in valid)
    valid_skeletons = sum(k.leaves.get("model.enumerate", [0, 0.0])[0] for d in valid for k in shards_of[d.id])
    # Only the checks a caller asked for: the registry checks every builtin
    # it loads and a transformer checks its input and output, and that time
    # belongs to proof.registry and proof.transform.
    checks = [s for s in named("proof.check") if not under(s, {"proof.registry", "proof.transform"})]
    check_s = sum(dur(s) for s in checks)
    check_taut_s = sum(s.leaves.get("syntax.is_tautology", [0, 0.0])[1] for s in checks)
    transforms = [s for s in named("proof.transform") if not under(s, {"proof.transform"})]

    values = {
        "cli.calls": len(named("cli")),
        "cli.self_s": sum(self_time(s) for s in named("cli")),
        "model.skeletons": leaf_calls.get("model.enumerate", 0),
        "model.enumerate.s": leaf_secs.get("model.enumerate", 0.0),
        "model.load.s": leaf_secs.get("model.load", 0.0),
        "model.to_json.s": leaf_secs.get("model.to_json", 0.0),
        "checker.evaluator.builds": leaf_calls.get("checker.evaluator", 0),
        "checker.evaluator.build_s": leaf_secs.get("checker.evaluator", 0.0),
        "search.decide.calls": len(decides),
        "search.decide.s": sum(dur(d) for d in decides),
        "search.self_s": sum(self_time(s) for s in decides + named("search.shard")),
        "search.models_checked": valid_models,
        "search.models_per_s": valid_models / valid_self if valid_self > 0 else 0.0,
        "search.skeletons_per_s": valid_skeletons / valid_self if valid_self > 0 else 0.0,
        "search.threads": max((len({k.thread for k in shards_of[d.id]}) for d in decides), default=0),
        "search.fuzz.s": sum(dur(s) for s in named("search.fuzz")),
        "search.fuzz.self_s": sum(self_time(s) for s in named("search.fuzz")),
        "proof.check.calls": len(checks),
        "proof.lines": sum(s.attrs.get("lines", 0) for s in checks),
        "proof.check.s": check_s,
        "proof.self_s": sum(self_time(s) for s in checks),
        "proof.taut_share": check_taut_s / check_s if check_s > 0 else 0.0,
        "proof.registry.calls": len(named("proof.registry")),
        "proof.registry.s": sum(dur(s) for s in named("proof.registry")),
        "proof.parse_proof.s": sum(dur(s) for s in named("proof.parse_proof")),
        "proof.transform.calls": len(transforms),
        "proof.transform.s": sum(dur(s) for s in transforms),
        "trace.spans": len(spans) - 1,  # minus the orphan-leaf holder
        "trace.overhead_share": overhead_share,
    }
    for leaf in ("syntax.parse", "syntax.is_tautology", "syntax.match_schema", "syntax.instantiate",
                 "model.random_model", "model.materialize", "checker.first_failure", "checker.satisfies"):
        values[f"{leaf}.calls"] = leaf_calls.get(leaf, 0)
        values[f"{leaf}.s"] = leaf_secs.get(leaf, 0.0)

    installed = {name for module, attr, name, _ in BOUNDARIES if f"{module}.{attr}" not in missing}
    absent = {}
    for metric, (_, needs) in LAYER_METRICS.items():
        lost = [n for n in needs if n not in installed]
        if lost:
            where = sorted(f"{m}.{a}" for m, a, n, _ in BOUNDARIES if n in lost)
            absent[metric] = "no boundary left for " + ", ".join(lost) + " (" + "; ".join(
                f"{w}: {missing[w]}" for w in where) + ")"
            values[metric] = 0.0
    return {name: values[name] for name in LAYER_METRICS}, absent
