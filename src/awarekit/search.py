"""Bounded validity decisions by exhaustive countermodel search, plus
randomized soundness fuzzing.

``decide_bounded`` scans every model the bounds allow, in the same order
``enumerate_models`` yields them, and returns either the first falsifying
(model, point) or an explicit valid-up-to-bounds verdict.  Validity up to a
bound is all it ever claims; no finite sweep can promise more.

Internally the scan groups models by skeleton (counts, presence,
partitions), and groups the skeletons into runs that share counts and
presence.  It sweeps each run on the column engine of ``awarekit.checker``:
each subformula's truth at a pair becomes one big integer whose bit
i * 2**total + v, a lane, says "true in skeleton i of the run under
valuation v", so the per-skeleton and per-valuation work collapses into
wide bitwise operations.  Lane order is enumeration order, so the lowest
failing lane gives the first failing model; the witness point is its
lowest failing pair in agent-major order, and it is re-verified against
the reference checker before it leaves this module.

The runs, their frames and each pass's block layout depend on the shape
(world count, agent count), the number of propositions, prune and the
pass width, never on the formula.  So a process that decides many
formulas at one bound reuses them as a plan per shape, and each decision
redoes only the formula work: the valuation columns, the evaluation, the
lowest failing lane and the re-verification.  The first sweep that
reaches the end of a shape counts its skeletons; the next one keeps the
plan if the shape has at most _PLAN_SKELETONS (8,192) skeletons: (3,3)
has 3,375 and (4,2) 2,704, but (4,3) has 140,608 and always streams.
The plans kept hold at most that many skeletons in all, least recently
used out first.  The plans of the (3,3) bound take about 0.7 MB with one
proposition and 1 MB with two.  A process that decides once keeps
nothing, and a sweep that stops at a witness keeps nothing of the shape
it stopped in.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from itertools import chain, groupby, product
from operator import attrgetter
from typing import Iterator, Sequence

from . import checker
from .checker import ModelEvaluator, _Frame, satisfies
from .model import (
    Bounds,
    EpistemicModel,
    Point,
    _iter_skeletons,  # unused here; the benchmark's tracer wraps this name
    _iter_skeletons_wa,
    _materialize,
    _scatter,
    random_model,
)
from .proof import AXIOM_SCHEMAS, NON_TAUT_AXIOMS
from .syntax import (
    And,
    Atom,
    DeDicto,
    DeRe,
    Falsum,
    Formula,
    Implies,
    Know,
    Not,
    Or,
    atoms,
    instantiate,  # unused here; the benchmark's tracer wraps this name
    metavariables,
)

__all__ = [
    "ValidUpToBounds",
    "Countermodel",
    "Verdict",
    "FuzzViolation",
    "FuzzReport",
    "AtomNotInBoundsError",
    "decide_bounded",
    "find_countermodel",
    "fuzz_soundness",
    "random_formula",
]


@dataclass(frozen=True)
class ValidUpToBounds:
    """No countermodel exists within the bounds; models_checked were scanned."""

    bounds: Bounds
    models_checked: int


@dataclass(frozen=True)
class Countermodel:
    """A model and a present point at which the queried formula is false."""

    model: EpistemicModel
    point: Point


Verdict = ValidUpToBounds | Countermodel


class AtomNotInBoundsError(ValueError):
    def __init__(self, missing: set[str]):
        self.missing = missing
        super().__init__(
            f"formula atoms {sorted(missing)} are not covered by the bounds propositions"
        )


# ---------- bounded decisions ----------

# plans and shape sizes by (W, A, number of props, prune, _CHUNK_BITS);
# see the module docstring
_PLAN_SKELETONS = 8192
_sizes: dict[tuple, int] = {}  # key -> skeleton count, once swept to the end
_plans: dict[tuple, tuple[_Frame, ...]] = {}  # least recently used first
_plans_lock = threading.Lock()


def _runs(worlds: int, agents: int, nprops: int, prune: bool) -> Iterator[_Frame]:
    """The frames of the runs of one (worlds, agents) shape in enumeration
    order: from the shape's kept plan, or else built as the skeletons
    stream in.  Only a sweep that reaches the end of the shape records or
    keeps anything, so one that stops at a witness leaves no partial plan."""
    key = (worlds, agents, nprops, prune, checker._CHUNK_BITS)
    with _plans_lock:
        plan = _plans.pop(key, None)
        if plan is not None:
            _plans[key] = plan
        size = _sizes.get(key)
    if plan is not None:
        yield from plan
        return
    keep = size is not None and size <= _PLAN_SKELETONS
    table: dict | None = {} if keep else None
    frames: list[_Frame] = []
    count = 0
    for _, group in groupby(_iter_skeletons_wa(worlds, agents, prune), attrgetter("presence_mask")):
        frame = _Frame(group, table)
        count += len(frame.uses)
        if keep:
            frames.append(frame)
        yield frame
    with _plans_lock:
        _sizes[key] = count
        if keep:
            _plans[key] = tuple(frames)
            total = sum(_sizes[k] for k in _plans)
            while total > _PLAN_SKELETONS:
                oldest = next(iter(_plans))
                total -= _sizes[oldest]
                del _plans[oldest]


def _scan(
    f: Formula, bounds: Bounds, prune: bool
) -> tuple[int, tuple[EpistemicModel, Point] | None]:
    props = bounds.props
    checked = 0
    shapes = product(range(1, bounds.max_worlds + 1), range(1, bounds.max_agents + 1))
    for frame in chain.from_iterable(_runs(w, a, len(props), prune) for w, a in shapes):
        m = frame.m
        total = len(props) * m
        # the first proposition is most significant: valuation bit
        # total - (j + 1) * m + i is proposition j at slot i
        lows = [(p, total - (j + 1) * m) for j, p in enumerate(props)]
        hit = frame.first_failure(
            f, total, lambda bits: ({p: bits[lo : lo + m] for p, lo in lows}, {})
        )
        if hit is None:
            checked += len(frame.uses) << total
            continue
        lane, slot = hit
        checked += lane
        sk, index = frame.skeleton(lane >> total), lane & ((1 << total) - 1)
        masks = tuple(_scatter(index >> lo & ((1 << m) - 1), frame.pairs) for _, lo in lows)
        model = _materialize(sk, masks, props)
        a, w = divmod(frame.pairs[slot], sk.world_count)
        point = Point(w, a)
        if satisfies(model, point, f):
            raise AssertionError(
                "search engine and reference checker disagree; please report"
            )
        return checked, (model, point)
    return checked, None


def decide_bounded(f: Formula, bounds: Bounds, prune: bool = False) -> Verdict:
    """Scan every model within the bounds for a falsifying point.

    Returns the first countermodel in enumeration order, re-verified by the
    reference checker, or ValidUpToBounds carrying the number of models
    scanned.  With prune=True, relabeling-equivalent skeletons are skipped;
    the verdict kind never changes but the witness and the count may.
    The scan is sequential and stops at the first witness, so the same
    inputs always give the same verdict.
    """
    missing = atoms(f) - set(bounds.props)
    if missing:
        raise AtomNotInBoundsError(missing)
    checked, hit = _scan(f, bounds, prune)
    if hit is None:
        return ValidUpToBounds(bounds, checked)
    return Countermodel(*hit)


def find_countermodel(
    f: Formula, bounds: Bounds, prune: bool = False
) -> tuple[EpistemicModel, Point] | None:
    """The Countermodel payload of decide_bounded, or None when valid."""
    verdict = decide_bounded(f, bounds, prune)
    if isinstance(verdict, Countermodel):
        return verdict.model, verdict.point
    return None


# ---------- soundness fuzzing ----------


@dataclass(frozen=True)
class FuzzViolation:
    model: EpistemicModel
    point: Point
    schema_id: str
    substitution: dict[str, Formula]


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    schema_instances_checked: int
    violations: tuple[FuzzViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# node kinds by name with their class and arity; the order fixes the draws
_KINDS = {
    "atom": (Atom, 0),
    "false": (Falsum, 0),
    "not": (Not, 1),
    "implies": (Implies, 2),
    "and": (And, 2),
    "or": (Or, 2),
    "K": (Know, 1),
    "R": (DeRe, 1),
    "D": (DeDicto, 1),
}
_NODE_KINDS = tuple(_KINDS)
_LEAF_KINDS = ("atom", "false")


def random_formula(rng: random.Random, props: Sequence[str], max_depth: int) -> Formula:
    """Random formula over props, uniform over node kinds, depth-bounded."""
    kind = rng.choice(_LEAF_KINDS if max_depth <= 0 else _NODE_KINDS)
    if kind == "atom":
        return Atom(rng.choice(list(props)))
    node, arity = _KINDS[kind]
    if arity == 2:
        left = random_formula(rng, props, max_depth - 1)
        return node(left, random_formula(rng, props, max_depth - 1))
    return node(random_formula(rng, props, max_depth - 1)) if arity else node()


def default_fuzz_schemas() -> list[tuple[str, Formula]]:
    """The ten non-tautology axiom schemas, keyed by their keyword."""
    return [(ax.value, AXIOM_SCHEMAS[ax]) for ax in NON_TAUT_AXIOMS]


def fuzz_soundness(
    trials: int,
    seed: int,
    bounds: Bounds,
    pool_depth: int,
    instances_per_schema: int = 10,
    schemas: list[tuple[str, Formula]] | None = None,
) -> FuzzReport:
    """Check axiom-schema instances on random models, at every present point.

    Each trial draws one random model; each schema gets instances_per_schema
    random substitutions from a formula pool of the given depth over the
    bounds propositions.  Deterministic in (trials, seed, bounds,
    pool_depth).  A violation records the model, the first failing point,
    the schema, and the substitution; on a sound axiom set the report is
    expected to stay empty.

    The instances of one schema on one model are evaluated as the lanes of
    one pass (see ModelEvaluator.first_failures), never built one by one.
    The violations and their order are those of checking each instance in
    turn.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if instances_per_schema < 1:
        raise ValueError("instances_per_schema must be at least 1")
    if pool_depth < 0:
        raise ValueError("pool_depth must be at least 0")
    if schemas is None:
        schemas = default_fuzz_schemas()
    rng = random.Random(seed)
    checked = 0
    violations: list[FuzzViolation] = []
    schemas = [(schema_id, schema, sorted(metavariables(schema))) for schema_id, schema in schemas]
    for _ in range(trials):
        model = random_model(rng.getrandbits(64), bounds)
        evaluator = ModelEvaluator(model)
        for schema_id, schema, mvs in schemas:
            substs = [
                {mv: random_formula(rng, bounds.props, pool_depth) for mv in mvs}
                for _ in range(instances_per_schema)
            ]
            checked += instances_per_schema
            for j, point in evaluator.first_failures(schema, substs):
                violations.append(FuzzViolation(model, point, schema_id, substs[j]))
    return FuzzReport(trials, checked, tuple(violations))
