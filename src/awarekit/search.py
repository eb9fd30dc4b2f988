"""Bounded validity decisions by exhaustive countermodel search, plus
randomized soundness fuzzing.

``decide_bounded`` decides as if it scanned every model the bounds allow,
in the same order ``enumerate_models`` yields them, and returns either the
first falsifying (model, point) or an explicit valid-up-to-bounds verdict.
Validity up to a bound is all it ever claims; no finite sweep can promise
more.

Truth is invariant under renaming worlds and agents, and a renaming maps
the valuations of one skeleton one to one onto those of its image.  So a
(world count, agent count) shape holds a countermodel exactly when one of
its canonical skeletons, the least of each relabeling orbit, does.  The
scan therefore sweeps each shape's canonical skeletons first, which is all
prune=True ever sweeps.  Where none fails, a plain decision adds the
shape's closed-form model count (model._model_count) without sweeping it.
Where one fails, first at skeleton c, the first failing model in full
order lies in a skeleton F no later than c, and F's representative, which
fails too, lies no earlier than c.  The canonical skeletons are the full
order filtered, both orders sort by presence mask first, and a
representative has the least mask of its orbit; so F has c's mask.  A
plain decision sweeps that mask's skeletons again in full order up to c,
and nothing when c is the mask's first, as it is in every (1, a) shape.
Verdicts, witnesses and counts are those of the full ordered scan, and a
plain valid verdict costs what a pruned one does.  It rests on the
canonical skeletons covering every orbit, which
TestCanonicalSkeletons::test_pruned_equals_brute_force_oracle checks on
ORACLE_SHAPES.

The sweeps evaluate syntax._fold_constants(f), not f: f with false and
true folded out, which is false, true, or free of false, and equal to f
at every present point of every model.  So the fold changes no lane's
verdict, and the promise to claim no more than was checked holds: every
frame and every pass is still swept and evaluated, a fold to true
included, and models_checked is the same.  Only the work per pass falls,
since ~ of the shared zero column is one shared all-ones column, and a
pass whose root columns are all full needs no failure check.  A formula
with no false is swept as it is.  A witness is re-verified against f
itself, so the reference checker stays independent of the fold.

Internally the scan groups models by skeleton (counts, presence,
partitions), and packs skeletons in order into frames that fill one pass
of at most 2**16 lanes, whatever their presence; a skeleton wider than a
pass takes a frame alone and spans several.  It sweeps the frames on the
column engine of ``awarekit.checker``: each subformula's truth at a pair
becomes one big integer whose bits, the lanes, say "true in this skeleton
under this valuation", each skeleton over a segment of its own
valuations, so the per-skeleton and per-valuation work collapses into
wide bitwise operations.  Lane order is enumeration order, so the lowest
failing lane gives the first failing model, and its skeleton gives the
witness's shape; a lane fails only at a pair its skeleton has.  The
witness point is the lowest failing pair in agent-major order, and it is
re-verified against the reference checker before it leaves this module.

A sweep packs each world count's canonical skeletons as one run, and
packs the run in order into frames (_frames).  The grouping and the
packing are both lazy, so a sweep enumerates at most one pass of
skeletons, and one skeleton more, past what it has checked, and a bound
far too large to enumerate past its first shape still returns a
countermodel in (1,1).  A frame never mixes world counts, so the pair
bits of its skeletons are its own.  With one proposition each world
count's shapes up to (3,3) fit one pass, so a valid decision at the (3,3)
bound runs 3 passes, not one per shape; one at (4,3) runs 22, and one at
(3,3) over two propositions 93.

The canonical frames, their block tables and the atom columns of each
frame that packs several skeletons depend on the bound, the number of
propositions and the pass width, never on the formula.  So every
decision sweeps one frame source, _plan(bounds): the bound's kept plan,
or else _frames as they are built, which _plan collects while they take
at most _PLAN_BYTES (16 MiB) in all by _Frame.nbytes: the lane masks and
atom columns, which grow with the lanes of the frames that pack several
skeletons.  The first sweep to take the bound's last frame keeps what
was collected as the bound's plan.  Every later decision at the bound
sweeps its plan and redoes only the formula work: the evaluation, the
lowest failing lane and the re-verification.  A sweep that stops sooner,
at a witness or by raising, keeps nothing of its bound; a full-order
sweep always stops at one, so plans are kept of canonical skeletons
alone.  The plans kept hold at most _PLAN_BYTES in all, least recently
used out first.  By that measure the plan of the (3,3) bound takes
0.14 MB with one proposition and 2.9 MB with two, that of the (4,3)
bound 6.5 MB with one, and that of the (6,2) bound 10.4 MB; (3,5) over
one proposition takes 29 MB and streams, as (5,3) and (4,4) do, each
holding up to _PLAN_BYTES of frames before it stops collecting them.
"""

from __future__ import annotations

import random
import threading
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence

from . import checker
from ._record import Record
from .checker import ModelEvaluator, _Frame, _pack, satisfies
from .model import (
    Bounds,
    EpistemicModel,
    Point,
    _iter_skeletons,
    _iter_skeletons_wa,
    _materialize,
    _model_count,
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
    _fold_program,
    _program,
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


class ValidUpToBounds(Record):
    """No countermodel exists within the bounds; models_checked were scanned."""

    bounds: Bounds
    models_checked: int


class Countermodel(Record):
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

# kept plans by bound, (max worlds, max agents, number of props,
# _CHUNK_BITS) -> (frames, their _Frame.nbytes); see the module docstring
_PLAN_BYTES = 16 << 20
_plans: dict[tuple, tuple[tuple[_Frame, ...], int]] = {}  # least recently used first
_plans_lock = threading.Lock()


def _frames(bounds: Bounds) -> Iterator[_Frame]:
    """The bound's canonical frames in order: each world count's canonical
    skeletons are one run, packed by _pack.  Lazy, so a sweep enumerates
    at most one frame's skeletons, plus one, past what it has checked."""
    nprops = len(bounds.props)
    for _, run in groupby(_iter_skeletons(bounds, True), lambda sk: sk.world_count):
        yield from _pack(run, nprops)


def _sweep(
    f: Formula, props: tuple[str, ...], frames: Iterable[_Frame]
) -> tuple[int, tuple[_Frame, int, int] | None]:
    """Sweep the frames in order for a lane where f fails.  Returns the
    lanes of the frames it swept, and the (frame, lane, slot) of the
    lowest failing lane, where the slot is the lowest present one at which
    f fails in that lane, or None.  A frame's lanes are its skeletons'
    segments in order, each under every valuation in order, so the lowest
    lane is the first failure in enumeration order."""
    checked = 0
    for frame in frames:
        checked += frame.size
        gaps = frame.absent
        for start, full, atoms in frame._passes(len(props)):
            [result] = frame.columns([f], dict(zip(props, atoms)), full)
            if result.count(full) == len(result):
                continue  # true in every lane at every slot, as a folded true is
            # a lane fails where f is false at a slot its skeleton has
            ok = full
            for c, gap in zip(result, gaps):
                ok &= c | gap
            failing = full ^ ok
            if failing:
                lane = (failing & -failing).bit_length() - 1
                slot = next(i for i, c in enumerate(result) if not (c | gaps[i]) >> lane & 1)
                return checked, (frame, start + lane, slot)
    return checked, None


def _plan(bounds: Bounds) -> Iterator[_Frame]:
    """The bound's canonical frames in order: its kept plan, or else
    _frames as they are built.  Once a sweep has taken the last built
    frame, the frames become the bound's plan if they take at most
    _PLAN_BYTES in all, and the plans kept hold at most that much in all,
    least recently used out first.  A sweep that stops sooner, at a
    witness or by raising, keeps nothing."""
    key = (bounds.max_worlds, bounds.max_agents, len(bounds.props), checker._CHUNK_BITS)
    with _plans_lock:
        kept = _plans.pop(key, None)
        if kept is not None:
            _plans[key] = kept  # now the most recently used
    if kept is not None:
        yield from kept[0]
        return
    size = 0
    frames: list[_Frame] | None = []
    for frame in _frames(bounds):
        yield frame
        if frames is not None:
            size += frame.nbytes()
            if size <= _PLAN_BYTES:
                frames.append(frame)
            else:
                frames = None  # too many bytes to keep: collect no more
    if frames is not None:
        with _plans_lock:
            _plans.pop(key, None)
            _plans[key] = tuple(frames), size
            total = sum([nbytes for _, nbytes in _plans.values()])
            while total > _PLAN_BYTES:
                oldest = next(iter(_plans))
                total -= _plans.pop(oldest)[1]


def _witness(
    f: Formula, props: tuple[str, ...], frame: _Frame, lane: int, slot: int
) -> tuple[EpistemicModel, Point]:
    """The model and point of a failing lane, re-verified by the reference
    checker."""
    sk, masks = frame.valuation(lane, len(props))
    model = _materialize(sk, masks, props)
    point = frame.point(slot)
    if satisfies(model, point, f):
        raise AssertionError("search engine and reference checker disagree; please report")
    return model, point


def _scan(f: Formula, g: Formula, bounds: Bounds, prune: bool) -> Verdict:
    """decide_bounded's scan: the sweeps evaluate g, f folded, and the
    witness is re-verified against f itself."""
    props, nprops = bounds.props, len(bounds.props)
    checked, hit = _sweep(g, props, _plan(bounds))
    if hit is None:
        if not prune:
            checked = sum(
                _model_count(w, a, nprops)
                for w in range(1, bounds.max_worlds + 1)
                for a in range(1, bounds.max_agents + 1)
            )
        return ValidUpToBounds(bounds, checked)
    if not prune:
        # the first failing model in full order has the canonical witness
        # skeleton's presence mask and lies no later than that skeleton
        # (see the module docstring): sweep the mask's skeletons up to it,
        # in frames that nothing keeps, unless it is the mask's first
        frame, lane, _ = hit
        sk, _ = frame.valuation(lane, nprops)
        before = []
        for other in _iter_skeletons_wa(sk.world_count, sk.agent_count, False, sk.presence_mask):
            if other.partitions == sk.partitions:
                break
            before.append(other)
        if before:
            _, hit = _sweep(g, props, _pack([*before, sk], nprops))
            if hit is None:
                raise AssertionError("canonical and full sweeps disagree; please report")
    return Countermodel(*_witness(f, props, *hit))


def decide_bounded(f: Formula, bounds: Bounds, prune: bool = False) -> Verdict:
    """Scan every model within the bounds for a falsifying point.

    Returns the first countermodel in enumeration order, re-verified by the
    reference checker, or ValidUpToBounds carrying the number of models
    scanned.  With prune=True, relabeling-equivalent skeletons are skipped;
    the verdict kind never changes but the witness and the count may.
    The scan is sequential and stops at the first witness, so the same
    inputs always give the same verdict.

    Both kinds sweep each shape's canonical skeletons, one per relabeling
    orbit.  Where one of them fails, a plain decision sweeps in full order
    only the skeletons of its presence mask up to it, and it counts each
    shape without a countermodel in closed form, so its verdict, witness
    and count are those of the full ordered scan (see the module
    docstring).

    A formula that does not fold to a constant and is nested deeper than
    the recursion limit allows raises RecursionError here, since the
    column engine evaluates it by recursion; the CLI reports that as a
    formula nested too deeply, with exit code 2.
    """
    # one program of f serves the atoms check and the fold
    entries, _, nodes = _program([f])
    missing = {entry[1] for entry in entries if entry[0] is Atom} - set(bounds.props)
    if missing:
        raise AtomNotInBoundsError(missing)
    return _scan(f, _fold_program(entries, nodes), bounds, prune)


def find_countermodel(
    f: Formula, bounds: Bounds, prune: bool = False
) -> tuple[EpistemicModel, Point] | None:
    """The Countermodel payload of decide_bounded, or None when valid."""
    verdict = decide_bounded(f, bounds, prune)
    if isinstance(verdict, Countermodel):
        return verdict.model, verdict.point
    return None


# ---------- soundness fuzzing ----------


class FuzzViolation(Record):
    model: EpistemicModel
    point: Point
    schema_id: str
    substitution: dict[str, Formula]


class FuzzReport(Record):
    trials: int
    schema_instances_checked: int
    violations: tuple[FuzzViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def random_formula(rng: random.Random, props: Sequence[str], max_depth: int) -> Formula:
    """Random formula over props, uniform over node kinds, depth-bounded.
    Equal subtrees of one result may be one object.  Empty props raise
    ValueError before any rng call."""
    return _drawer(rng, props)(max_depth, {})


def _drawer(rng: random.Random, props: Sequence[str]) -> Callable[[int, dict], Formula]:
    """draw(max_depth, interned): a random formula over props of depth at
    most max_depth, uniform over node kinds, with equal subtrees shared.

    Each choice is Random.choice done inline, as CPython does it:
    getrandbits(k) with k = n.bit_length(), drawn again while it is n or
    more.  Leaves are one Atom per proposition and one Falsum; every other
    node is interned in interned by (kind, id of each child), so equal
    subtrees drawn into one dict are one object.  The dict keeps each node
    it holds alive, so those ids stay unique while it lives.
    """
    if not props:
        raise ValueError("random formulas need at least one proposition")
    getrandbits = rng.getrandbits
    leaves = [Atom(p) for p in props]
    falsum = Falsum()
    # each kind's class and arity, the two leaves first; the order fixes the draws
    kinds = (
        (Atom, 0), (Falsum, 0), (Not, 1), (Implies, 2), (And, 2), (Or, 2), (Know, 1), (DeRe, 1), (DeDicto, 1)
    )
    n_kinds, k_kinds = len(kinds), len(kinds).bit_length()
    n_leaves, k_leaves = 2, (2).bit_length()
    n_props, k_props = len(leaves), len(leaves).bit_length()

    def draw(depth: int, interned: dict) -> Formula:
        if depth > 0:
            i = getrandbits(k_kinds)
            while i >= n_kinds:
                i = getrandbits(k_kinds)
        else:
            i = getrandbits(k_leaves)
            while i >= n_leaves:
                i = getrandbits(k_leaves)
        if i == 0:
            j = getrandbits(k_props)
            while j >= n_props:
                j = getrandbits(k_props)
            return leaves[j]
        if i == 1:
            return falsum
        node, arity = kinds[i]
        if arity == 2:
            left = draw(depth - 1, interned)
            right = draw(depth - 1, interned)
            args, key = (left, right), (i, id(left), id(right))
        else:
            child = draw(depth - 1, interned)
            args, key = (child,), (i, id(child))
        got = interned.get(key)
        if got is None:
            got = interned[key] = node(*args)
        return got

    return draw


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
    A trial draws every schema's substitutions first, into one hash-consed
    pool whose equal subtrees are one object, and hands them all to
    ModelEvaluator._failures, which evaluates the pool on the trial's
    model in one engine call, so each distinct subtree is evaluated once
    for all schemas.  The violations, their order and the report are
    those of checking each instance in turn.
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
    draw = _drawer(rng, bounds.props)
    violations: list[FuzzViolation] = []
    schemas = [(schema_id, schema, sorted(metavariables(schema))) for schema_id, schema in schemas]
    for _ in range(trials):
        model = random_model(rng.getrandbits(64), bounds)
        # the trial's pool, schema by schema, one hash-consed dict of
        # shared subtrees, evaluated on this model in one call
        interned: dict = {}
        jobs = [
            (schema, mvs, [{mv: draw(pool_depth, interned) for mv in mvs} for _ in range(instances_per_schema)])
            for _, schema, mvs in schemas
        ]
        failures = ModelEvaluator(model)._failures(jobs)
        for (schema_id, *_), (*_, substs), found in zip(schemas, jobs, failures):
            for j, point in found:
                violations.append(FuzzViolation(model, point, schema_id, substs[j]))
    return FuzzReport(trials, trials * len(schemas) * instances_per_schema, tuple(violations))
