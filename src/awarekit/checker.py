"""Satisfaction of formulas at (world, agent) points of an epistemic model.

The semantics is written out twice here.  ``_eval`` is the reference
recursion: ``satisfies`` memoizes it per query on (world, agent, subformula
identity), and ``satisfies_naive`` runs it without the cache so the cache
can be cross-checked.  ``_Frame`` is the column engine, which every fast
path runs on.  It takes a run of skeletons (models minus their valuation)
that share world count, agent count and presence, and evaluates a formula
over all of them under all valuations at once: each present pair gets one
integer column whose bit i * 2**total + v, a lane, says "true in skeleton
i of the run under valuation v".  ``ModelEvaluator`` runs a concrete model
as a run of one skeleton under its one valuation: a column of one formula
is a single bit, and the instances of a schema run as the lanes of one
column, lane j for substitution j; and the bounded search in
``awarekit.search`` sweeps each presence mask's run of skeletons under
every valuation.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .model import AgentNotPresentError, EpistemicModel, Point, _Skeleton
from .syntax import (
    And,
    Atom,
    DeDicto,
    DeRe,
    Falsum,
    Formula,
    Implies,
    Know,
    MetaVar,
    Not,
    Or,
    UnboundMetavariableError,
    _CHUNK_BITS,
    _pattern_column,
    children,
    render,
)

__all__ = [
    "satisfies",
    "satisfies_naive",
    "valid_in_model",
    "extension",
    "explain",
    "ModelEvaluator",
]


def _check_point(m: EpistemicModel, pt: Point):
    if not 0 <= pt.agent < m.agent_count:
        raise IndexError(f"agent index {pt.agent} out of range")
    if not 0 <= pt.world < m.world_count:
        raise IndexError(f"world index {pt.world} out of range")
    if (pt.agent, pt.world) not in m.presence:
        raise AgentNotPresentError(pt.agent, pt.world)


def _eval(m: EpistemicModel, w: int, a: int, f: Formula, memo: dict | None) -> bool:
    if memo is not None:
        key = (w, a, id(f))
        cached = memo.get(key)
        if cached is not None:
            return cached
    if isinstance(f, Atom):
        value = (a, w) in m.valuation.get(f.name, frozenset())
    elif isinstance(f, Falsum):
        value = False
    elif isinstance(f, Not):
        value = not _eval(m, w, a, f.child, memo)
    elif isinstance(f, Implies):
        value = (not _eval(m, w, a, f.left, memo)) or _eval(m, w, a, f.right, memo)
    elif isinstance(f, And):
        value = _eval(m, w, a, f.left, memo) and _eval(m, w, a, f.right, memo)
    elif isinstance(f, Or):
        value = _eval(m, w, a, f.left, memo) or _eval(m, w, a, f.right, memo)
    # K, R and D loop in place of all()/any() over generators, which would
    # cost extra frames per level and cut the depth a formula may reach
    elif isinstance(f, Know):
        value = True
        for u in m.block(a, w):
            if not _eval(m, u, a, f.child, memo):
                value = False
                break
    elif isinstance(f, DeRe):
        blk = m.block(a, w)
        row = m._rows
        value = False
        for b in m._agents_at[w]:
            if all(u in row[b] for u in blk) and _eval(m, w, b, f.child, memo):
                value = True
                break
    elif isinstance(f, DeDicto):
        value = True
        for u in m.block(a, w):
            for b in m._agents_at[u]:
                if _eval(m, u, b, f.child, memo):
                    break
            else:
                value = False
                break
    elif isinstance(f, MetaVar):
        raise ValueError(f"cannot evaluate a schema; metavariable {f.name} is unbound")
    else:
        raise TypeError(f"not a formula node: {f!r}")
    if memo is not None:
        memo[key] = value
    return value


def satisfies(m: EpistemicModel, pt: Point, f: Formula) -> bool:
    """Does f hold at the point?  The point's agent must be present there."""
    _check_point(m, pt)
    return _eval(m, pt.world, pt.agent, f, {})


def satisfies_naive(m: EpistemicModel, pt: Point, f: Formula) -> bool:
    """Unmemoized twin of satisfies; exists so the cache can be cross-checked."""
    _check_point(m, pt)
    return _eval(m, pt.world, pt.agent, f, None)


# ---------- the column engine ----------

_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _widen(flags: bytearray, total_bits: int) -> int:
    """Lane mask over len(flags) skeletons of 2**total_bits lanes each, in
    which the lanes of skeleton j are set iff flags[j]."""
    if total_bits >= 3:  # whole bytes per skeleton
        size = 1 << (total_bits - 3)
        spans = (bytes(size), b"\xff" * size)
        return int.from_bytes(b"".join([spans[f] for f in flags]), "little")
    seg = (1 << (1 << total_bits)) - 1
    return sum(seg << (j << total_bits) for j, f in enumerate(flags) if f)


# a block as (member slots, worlds, (member slot, its R witness slots) pairs)
_Block = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]
# what one pass needs: its blocks and, parallel to them, each block's lane
# mask, the lanes of the pass whose skeleton uses the block
_Layout = tuple[tuple[_Block, ...], tuple[int, ...]]


class _Frame:
    """The column engine over a run of skeletons that share world count,
    agent count and presence mask.

    Slot i is the i-th present pair in ascending pair-bit order, which is
    agent-major (agent, world) order and the same in every skeleton of the
    run.  Lane i * 2**total + v stands for skeleton i of the run under
    valuation v, where total is the number of valuation bits; a column
    holds one bit per lane of the current pass.  Construction does the
    structural work once per run: it finds the agents present at each
    world and every (agent, block) that some skeleton of the run uses,
    with the block's member slots and, per member, the slots of the agents
    able to witness an R step there (those whose row covers the block).
    A pass then gives each block it needs the mask of the lanes whose
    skeleton uses that block.

    None of this depends on the formula.  The frame builds the layouts of
    all its passes at its first sweep and keeps them, so later sweeps of
    the same width reuse them.  Its table maps each tuple and lane mask
    the frame builds to one shared copy; frames built with one table, as
    the frames of one plan are, hold each only once.
    """

    __slots__ = ("pairs", "m", "world_slots", "blocks", "uses", "_first", "_table", "_kept")

    def __init__(self, run: Iterable[_Skeleton], table: dict | None = None):
        run = iter(run)
        first = next(run)
        W = first.world_count
        self.pairs = tuple(first.pair_bits())
        self.m = len(self.pairs)
        slot_of = {t: i for i, t in enumerate(self.pairs)}
        rows = [0] * first.agent_count
        agents_at: list[list[int]] = [[] for _ in range(W)]
        for t in self.pairs:
            a, w = divmod(t, W)
            rows[a] |= 1 << w
            agents_at[w].append(a)
        self._first = first
        self._table = table = {} if table is None else table

        def share(x):
            return table.setdefault(x, x)

        self.world_slots = tuple([share(tuple([slot_of[b * W + u] for b in agents_at[u]])) for u in range(W)])
        blocks: list[_Block] = []
        block_of: dict[tuple[int, tuple[int, ...]], int] = {}

        def block(a: int, blk: tuple[int, ...]) -> int:
            b = block_of.get((a, blk))
            if b is None:
                b = block_of[a, blk] = len(blocks)
                cover = 0
                for u in blk:
                    cover |= 1 << u
                slots = share(tuple([slot_of[a * W + u] for u in blk]))
                reach = []
                for s, u in zip(slots, blk):
                    cands = tuple([slot_of[c * W + u] for c in agents_at[u] if cover & rows[c] == cover])
                    reach.append(share((s, share(cands))))
                blocks.append(share((slots, blk, tuple(reach))))
            return b

        # per agent: each partition some skeleton gives it -> its blocks
        part_of: list[dict] = [{} for _ in rows]
        uses: list[tuple[int, ...]] = []  # per skeleton: indices of its blocks
        for sk in chain((first,), run):
            used: tuple[int, ...] = ()
            for a, part in enumerate(sk.partitions):
                got = part_of[a].get(part)
                if got is None:
                    got = part_of[a][part] = tuple([block(a, blk) for blk in part])
                used += got
            uses.append(share(used))
        self.blocks = tuple(blocks)
        self.uses = tuple(uses)
        # (total_bits, _CHUNK_BITS) and the layouts of every pass at them
        self._kept: tuple[tuple[int, int], tuple[_Layout, ...]] | None = None

    def skeleton(self, i: int) -> _Skeleton:
        """Skeleton i of the run, rebuilt from the blocks it uses."""
        first = self._first
        W = first.world_count
        parts: list[list[tuple[int, ...]]] = [[] for _ in range(first.agent_count)]
        for b in self.uses[i]:
            slots, blk, _ = self.blocks[b]
            parts[self.pairs[slots[0]] // W].append(blk)
        return _Skeleton(W, first.agent_count, first.presence_mask, tuple(map(tuple, parts)))

    def plain(self, i: int) -> _Layout:
        """The layout of a pass that holds skeleton i alone.  Every lane of
        the pass uses every block of the skeleton, so each mask is -1, all
        lanes.  It cuts nothing, which is sound because a block is never
        empty and every column lies within full."""
        used = self.uses[i]
        return tuple([self.blocks[b] for b in used]), (-1,) * len(used)

    def _lane_mask(self, flags: bytearray, total_bits: int) -> int:
        key = (bytes(flags), total_bits)
        mask = self._table.get(key)
        if mask is None:
            mask = self._table[key] = _widen(flags, total_bits)
        return mask

    def _layouts(self, total_bits: int) -> Iterator[_Layout]:
        """The layouts of the run's passes in order (see _passes): one per
        pass when passes hold whole skeletons, otherwise one per skeleton,
        which serves every pass of that skeleton."""
        if total_bits >= _CHUNK_BITS:
            for i in range(len(self.uses)):
                yield self.plain(i)
            return
        per_pass = 1 << (_CHUNK_BITS - total_bits)  # skeletons
        for first in range(0, len(self.uses), per_pass):
            group = self.uses[first : first + per_pass]
            # users[b][j] flags that skeleton first + j uses block b
            users: dict[int, bytearray] = {}
            for j, used in enumerate(group):
                for b in used:
                    users.setdefault(b, bytearray(len(group)))[j] = 1
            blocks = tuple([self.blocks[b] for b in users])
            yield blocks, tuple([self._lane_mask(flags, total_bits) for flags in users.values()])

    def _passes(self, total_bits: int) -> Iterator[tuple[int, int, list[int], _Layout]]:
        """Split the run's lanes into ascending passes of at most
        2**_CHUNK_BITS, so a pass holds as many whole skeletons as fit, or
        part of one.  Yield (start, full, bits, layout) per pass: full has
        one bit per lane of the pass, bit l of bits[t] is bit t of the
        valuation of lane start + l, and layout (see _Layout) gives the
        blocks the pass needs and, parallel to them, the mask of the lanes
        whose skeleton uses each one.  The layouts of all passes are built
        at the first call for a width and kept for the next."""
        # passes start at multiples of width, and width and 2**total_bits
        # are powers of two: so a pass never cuts a skeleton it does not
        # hold alone, and valuation bits below low are lane-offset bits
        width = 1 << _CHUNK_BITS
        low = min(total_bits, _CHUNK_BITS)
        end = len(self.uses) << total_bits
        # read once: threads share a kept frame, and another width may
        # replace its layouts meanwhile
        key, kept = (total_bits, _CHUNK_BITS), self._kept
        if kept is None or kept[0] != key:
            kept = self._kept = key, tuple(self._layouts(total_bits))
        layouts = kept[1]
        # a layout serves one pass, or every pass of one skeleton
        serves = max(width, 1 << total_bits)
        wide = [_pattern_column(t, _CHUNK_BITS) for t in range(low)]
        for start in range(0, end, width):
            n = min(width, end - start)
            full = (1 << n) - 1
            # the memoized columns are already as wide as a full pass
            bits = wide[:] if n == width else [c & full for c in wide]
            bits += [full if start >> t & 1 else 0 for t in range(low, total_bits)]
            yield start, full, bits, layouts[start // serves]

    def columns(
        self,
        roots: Sequence[Formula],
        atoms: dict[str, list[int]],
        full: int,
        memo: dict[int, list[int]],
        layout: _Layout,
    ) -> list[list[int]]:
        """Per root, its column per slot: bit l set iff the root holds at
        the slot's pair in lane l of the pass whose lanes are the bits of
        full.

        atoms gives each proposition's column per slot; one it lacks is
        false everywhere.  memo maps node ids to columns already known, so
        a node seeded there is a leaf whatever its kind.  layout gives the
        pass's blocks and their lane masks, as _passes yields it.
        """
        m = self.m
        zero = [0] * m
        blocks, lanes = layout

        def ev(node: Formula) -> list[int]:
            got = memo.get(id(node))
            if got is not None:
                return got
            # exact types, as _program dispatches: a subclass is no formula
            kind = type(node)
            if kind is Atom:
                out = atoms.get(node.name, zero)
            elif kind is Falsum:
                out = zero
            elif kind is Not:
                out = [full ^ c for c in ev(node.child)]
            elif kind is Implies:
                left, right = ev(node.left), ev(node.right)
                out = [(full ^ l) | r for l, r in zip(left, right)]
            elif kind is And:
                left, right = ev(node.left), ev(node.right)
                out = [l & r for l, r in zip(left, right)]
            elif kind is Or:
                left, right = ev(node.left), ev(node.right)
                out = [l | r for l, r in zip(left, right)]
            # K, R and D combine the child over each block, cut the result
            # to the block's lanes and OR it into the block's member slots
            elif kind is Know:
                child = ev(node.child)
                out = [0] * m
                for (slots, _, _), acc in zip(blocks, lanes):
                    for s in slots:
                        acc &= child[s]
                    for s in slots:
                        out[s] |= acc
            elif kind is DeRe:
                child = ev(node.child)
                out = [0] * m
                for (_, _, reach), mask in zip(blocks, lanes):
                    for s, cands in reach:
                        acc = 0
                        for c in cands:
                            acc |= child[c]
                        out[s] |= acc & mask
            elif kind is DeDicto:
                child = ev(node.child)
                inhabited = []
                for slots in self.world_slots:
                    acc = 0
                    for s in slots:
                        acc |= child[s]
                    inhabited.append(acc)
                out = [0] * m
                for (slots, worlds, _), acc in zip(blocks, lanes):
                    for u in worlds:
                        acc &= inhabited[u]
                    for s in slots:
                        out[s] |= acc
            elif kind is MetaVar:
                raise ValueError(f"cannot evaluate a schema; metavariable {node.name} is unbound")
            else:
                raise TypeError(f"not a formula node: {node!r}")
            memo[id(node)] = out
            return out

        try:
            return [ev(f) for f in roots]
        finally:
            # ev holds itself through its closure; without this the cycle
            # keeps the pass's columns alive until the cyclic collector runs
            del ev


class ModelEvaluator:
    """Batch evaluation over one model: extensions as pair bitmasks.

    Pair (agent a, world w) is bit a * world_count + w.  The model runs on
    the column engine as its skeleton under its one valuation, so the
    column of one formula is a single bit; first_failures runs many
    instances of a schema at once, one lane each.  Constructing the
    evaluator builds that frame once, so evaluating many formulas against
    the same model does no repeated structural work.  A model that breaks
    the laws checked by EpistemicModel.validate() raises ValueError naming
    the violations.
    """

    def __init__(self, m: EpistemicModel):
        violations = m.validate()
        if violations:
            raise ValueError(
                "model violates the model laws: " + "; ".join(str(v) for v in violations)
            )
        self.model = m
        W = m.world_count
        self.present_mask = 0
        for a, w in m.presence:
            self.present_mask |= 1 << (a * W + w)
        self._frame = _Frame([_Skeleton(W, m.agent_count, self.present_mask, m.indist)])
        self._layout = self._frame.plain(0)
        self._atoms = {
            p: [int(divmod(t, W) in pairs) for t in self._frame.pairs]
            for p, pairs in m.valuation.items()
        }

    def _columns(self, f: Formula) -> list[int]:
        return self._frame.columns([f], self._atoms, 1, {}, self._layout)[0]

    def extension_mask(self, f: Formula) -> int:
        out = 0
        for t, c in zip(self._frame.pairs, self._columns(f)):
            out |= c << t
        return out

    def holds_everywhere(self, f: Formula) -> bool:
        return all(self._columns(f))

    def extension(self, f: Formula) -> set[Point]:
        W = self.model.world_count
        return {
            Point(t % W, t // W)
            for t, c in zip(self._frame.pairs, self._columns(f))
            if c
        }

    def _point(self, slot: int) -> Point:
        a, w = divmod(self._frame.pairs[slot], self.model.world_count)
        return Point(w, a)

    def first_failure(self, f: Formula, _column: list[int] | None = None) -> Point | None:
        """Lowest present pair (agent-major order) where f fails, if any.

        _column is f's column when it is already known: first_failures
        passes one instance's lane of its pass.
        """
        if _column is None:
            _column = self._columns(f)
        for slot, c in enumerate(_column):
            if not c:
                return self._point(slot)
        return None

    def first_failures(
        self,
        schema: Formula,
        substitutions: Sequence[Mapping[str, Formula]],
        _memo: dict[int, list[int]] | None = None,
    ) -> list[tuple[int, Point]]:
        """(j, first_failure of instance j) for each instance of schema
        that fails, in ascending j, where instance j substitutes
        substitutions[j] into the schema's metavariables.

        No instance is built.  The instances run as the lanes of one
        column: each substitution formula is evaluated once, its column
        goes into lane j of its metavariable's column, every metavariable
        node is seeded with that column as a leaf, and the schema body is
        evaluated once over all lanes.  Each instance's failure is then
        read off its lane by first_failure.

        _memo, when given, maps ids of substitution nodes to their columns
        on this model alone, and takes the new ones: fuzz_soundness shares
        one across a trial's schemas.  The caller keeps every node it
        names alive while it is used.  It never seeds the schema body,
        whose columns are as wide as the instances.
        """
        n = len(substitutions)
        if not n:
            return []
        full = (1 << n) - 1
        metavars: list[MetaVar] = []
        stack = [schema]
        while stack:
            node = stack.pop()
            if isinstance(node, MetaVar):
                metavars.append(node)
            else:
                stack += children(node)
        names = list(dict.fromkeys(node.name for node in metavars))
        try:
            roots = [subst[name] for name in names for subst in substitutions]
        except KeyError as exc:
            raise UnboundMetavariableError(exc.args[0]) from None
        # each substitution formula once, on the model alone
        single = self._frame.columns(
            roots, self._atoms, 1, {} if _memo is None else _memo, self._layout
        )
        packed: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            # bit j of slot s is the single bit of substitution j at slot s:
            # the slot's bits, lane n - 1 first, read as a binary numeral
            per_slot = zip(*single[i * n : i * n + n])
            packed[name] = [int(bytes(bits[::-1]).translate(_BINARY_DIGITS), 2) for bits in per_slot]
        memo = {id(node): packed[node.name] for node in metavars}
        atoms = {p: [full if b else 0 for b in col] for p, col in self._atoms.items()}
        [result] = self._frame.columns([schema], atoms, full, memo, self._layout)
        out = []
        for j in range(n):
            point = self.first_failure(schema, [c >> j & 1 for c in result])
            if point is not None:
                out.append((j, point))
        return out


def valid_in_model(m: EpistemicModel, f: Formula) -> bool:
    """True when f holds at every present point; vacuously true with empty presence."""
    return ModelEvaluator(m).holds_everywhere(f)


def extension(m: EpistemicModel, f: Formula) -> set[Point]:
    """All points of the model where f holds."""
    return ModelEvaluator(m).extension(f)


# ---------- human-readable evaluation traces ----------


def explain(
    m: EpistemicModel,
    pt: Point,
    f: Formula,
    world_names: list[str] | None = None,
    agent_names: list[str] | None = None,
) -> str:
    """A deterministic indented trace of why f holds or fails at the point."""
    _check_point(m, pt)
    wn = world_names or [f"w{i}" for i in range(m.world_count)]
    an = agent_names or [f"a{i}" for i in range(m.agent_count)]
    out: list[str] = []
    memo: dict = {}

    def ev(w: int, a: int, g: Formula) -> bool:
        return _eval(m, w, a, g, memo)

    def rec(w: int, a: int, g: Formula, depth: int):
        value = ev(w, a, g)
        pad = "  " * depth
        head = f"{pad}{render(g)} at ({wn[w]}, {an[a]}): {'true' if value else 'false'}"
        out.append(head)
        if isinstance(g, (Atom, Falsum)):
            return
        if isinstance(g, Not):
            rec(w, a, g.child, depth + 1)
        elif isinstance(g, (And, Or, Implies)):
            rec(w, a, g.left, depth + 1)
            rec(w, a, g.right, depth + 1)
        elif isinstance(g, Know):
            blk = m.block(a, w)
            if value:
                worlds = ", ".join(wn[u] for u in blk)
                out.append(f"{pad}  holds about {an[a]} at every indistinguishable world: {worlds}")
            else:
                u = next(u for u in blk if not ev(u, a, g.child))
                out.append(f"{pad}  fails at indistinguishable world {wn[u]}:")
                rec(u, a, g.child, depth + 2)
        elif isinstance(g, DeRe):
            blk = m.block(a, w)
            rows = m._rows
            for b in m._agents_at[w]:
                covers = all(u in rows[b] for u in blk)
                if covers and ev(w, b, g.child):
                    out.append(f"{pad}  witness agent {an[b]} (present in every world {an[a]} considers possible):")
                    rec(w, b, g.child, depth + 2)
                    return
            for b in m._agents_at[w]:
                missing = [u for u in blk if u not in rows[b]]
                if missing:
                    out.append(
                        f"{pad}  candidate {an[b]}: absent from {', '.join(wn[u] for u in missing)}"
                    )
                else:
                    out.append(f"{pad}  candidate {an[b]}: fails {render(g.child)} at {wn[w]}")
        elif isinstance(g, DeDicto):
            blk = m.block(a, w)
            if value:
                for u in blk:
                    b = next(b for b in m._agents_at[u] if ev(u, b, g.child))
                    out.append(f"{pad}  world {wn[u]}: witness agent {an[b]}")
            else:
                u = next(
                    u for u in blk if not any(ev(u, b, g.child) for b in m._agents_at[u])
                )
                out.append(f"{pad}  no agent at world {wn[u]} satisfies {render(g.child)}")

    rec(pt.world, pt.agent, f, 0)
    return "\n".join(out)
