"""Satisfaction of formulas at (world, agent) points of an epistemic model.

The semantics is written out twice here.  ``_eval`` is the reference
recursion: ``satisfies`` memoizes it per query on (world, agent, subformula
identity), and ``satisfies_naive`` runs it without the cache so the cache
can be cross-checked.  ``_Frame`` is the column engine, which every fast
path runs on.  It takes consecutive skeletons (models minus their
valuation) of any shapes and presence, and evaluates a formula over all
of them under all valuations at once:
each pair present in some skeleton gets one integer column, whose bits,
the lanes, say "true in this skeleton under this valuation", skeleton by
skeleton, each over a segment as long as its own valuations.  K, and D
through K's table, fold over one table of the frame's blocks, R another.
A call reads atoms and metavariables alike by name from one leaf map, and
keeps nothing once it returns.  ``ModelEvaluator`` runs a concrete model
as a frame of one skeleton under its one valuation: a column of one
formula is a single bit, and the instances of a schema run as the lanes of
one column, lane j for substitution j.  The bounded search in
``awarekit.search`` packs skeletons into frames (``_pack``), one shape's
at a time or runs of shapes for a kept plan, each frame one pass wide or
one skeleton that needs several, and sweeps them under every valuation.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .model import AgentNotPresentError, EpistemicModel, Point, _scatter, _Skeleton
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

def _valuation_bit(nprops: int, p: int, m: int, k: int) -> int:
    """The bit of a skeleton's valuation index that gives proposition p
    at the k-th of its m present pairs (pair-bit order): the first
    proposition is most significant, and each one's m bits are
    consecutive."""
    return (nprops - 1 - p) * m + k


class _Frame:
    """The column engine over consecutive skeletons of one world count, of
    any agent counts and presence masks.

    The frame numbers pairs a * W + u, W the world count its skeletons
    share (world_count), so each skeleton's own pair bits are the frame's.
    Slot i is the i-th pair, in ascending pair-bit order (agent-major
    (agent, world) order), that some skeleton of the frame has present, and
    worlds[u] holds the slots at world u.  Skeleton i owns the segment of
    2**(nprops * m_i) lanes from starts[i], where m_i is its own number of
    present pairs: lane starts[i] + v stands for it under valuation v,
    whose bits _valuation_bit places.  A column holds one bit per lane of
    the current pass.  A frame holds as many whole skeletons as fit in one
    pass of 2**_CHUNK_BITS lanes (see _pack), or one skeleton too wide for
    a pass, which then spans several passes alone.

    Presence is a property of each lane: absent[i] has the lanes whose
    skeleton lacks slot i.  A column is exact at every present (slot, lane)
    and may hold anything at an absent one, and nothing reads it there.
    Construction files every block some skeleton uses, under that
    skeleton's presence, in two tables: know has one entry per distinct
    tuple of member slots, dere one per distinct (member slot, R
    candidates) pair.  R reads dere; K reads know, and so does D, through
    one inhabited column per world.  An entry's mask is the OR of the lanes
    of the skeletons whose blocks share it, and equal masks are one
    integer; a node cuts its result to the mask, so (x & m1) | (x & m2) ==
    x & (m1 | m2) makes the sharing sound.  In a frame of one skeleton every
    mask is -1, all lanes: that cuts nothing, which is sound because a
    block is never empty and every column lies within full.

    None of this depends on the formula, and neither do the atom columns
    of a frame of several skeletons, which construction builds as well; a
    kept plan keeps it all.  A frame of one skeleton takes its atom columns
    from the shared counting patterns at each pass.
    """

    __slots__ = (
        "skeletons", "world_count", "starts", "size", "pairs", "m", "worlds", "know", "dere", "absent", "_atoms"
    )

    def __init__(self, skeletons: Sequence[_Skeleton], nprops: int):
        self.skeletons = skeletons = tuple(skeletons)
        self.world_count = W = skeletons[0].world_count
        A = max([sk.agent_count for sk in skeletons])
        union, size, starts = 0, 0, []
        for sk in skeletons:
            mask = sk.presence_mask
            union |= mask
            starts.append(size)
            size += 1 << nprops * mask.bit_count()
        self.starts, self.size = tuple(starts), size
        self.pairs = tuple([t for t in range(union.bit_length()) if union >> t & 1])
        self.m = m = len(self.pairs)
        self.worlds = tuple([tuple([i for i, t in enumerate(self.pairs) if t % W == u]) for u in range(W)])
        slot_of = {t: i for i, t in enumerate(self.pairs)}
        # each table: key -> [first, end, ...] lane spans of its skeletons, consecutive ones merged
        know: dict[tuple[int, ...], list[int]] = {}
        dere: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        parts: dict[tuple, list[list[int]]] = {}  # (presence, agent, partition) -> spans of its entries
        runs: list[int] = []  # the first skeleton of each run of one presence mask
        ends = (*starts, size)
        mask = None
        for i, sk in enumerate(skeletons):
            if sk.presence_mask != mask:
                runs.append(i)
                mask = sk.presence_mask
                rows = [mask >> a * W & ((1 << W) - 1) for a in range(A)]
            lo, hi = ends[i], ends[i + 1]
            for a, part in enumerate(sk.partitions):
                key = (mask, a, part)
                got = parts.get(key)
                if got is None:
                    got = parts[key] = []
                    for blk in part:
                        cover = sum([1 << u for u in blk])
                        slots = tuple([slot_of[a * W + u] for u in blk])
                        got.append(know.setdefault(slots, []))
                        for s, u in zip(slots, blk):
                            cands = tuple([slot_of[c * W + u] for c in range(A) if rows[c] & cover == cover])
                            got.append(dere.setdefault((s, cands), []))
                for spans in got:
                    if spans and spans[-1] == lo:
                        spans[-1] = hi
                    else:
                        spans += (lo, hi)
        self._atoms: list[list[int]] | None = None
        if len(skeletons) == 1:
            self.know = tuple([(slots, -1) for slots in know])
            self.dere = tuple([(s, cands, -1) for s, cands in dere])
            self.absent = (0,) * m
            return
        shared: dict[tuple[int, ...], int] = {}  # spans -> their mask: equal masks are one integer

        def lanes(spans: list[int]) -> int:
            if (key := tuple(spans)) not in shared:
                out = 0
                for first, end in zip(spans[::2], spans[1::2]):
                    out |= ((1 << end - first) - 1) << first
                shared[key] = out
            return shared[key]

        self.know = tuple([(slots, lanes(spans)) for slots, spans in know.items()])
        self.dere = tuple([(s, cands, lanes(spans)) for (s, cands), spans in dere.items()])
        # atoms[j][i] is proposition j at slot i, built per run of
        # skeletons with one presence mask from counting patterns, whose
        # periods divide every segment of the run
        low = (size - 1).bit_length()
        atoms = [[0] * m for _ in range(nprops)]
        present = [0] * m
        for i, j in zip(runs, [*runs[1:], len(skeletons)]):
            start = starts[i]
            ones = (1 << (ends[j] - start)) - 1
            own = [slot_of[t] for t in skeletons[i].pair_bits()]
            for k, s in enumerate(own):
                present[s] |= ones << start
                for p in range(nprops):
                    bit = _valuation_bit(nprops, p, len(own), k)
                    atoms[p][s] |= (_pattern_column(bit, low) & ones) << start
        self._atoms = atoms
        full = (1 << size) - 1
        self.absent = tuple([full ^ c for c in present])

    def _passes(self, nprops: int) -> Iterator[tuple[int, int, list[list[int]]]]:
        """The frame's lanes in ascending passes of at most 2**_CHUNK_BITS:
        one pass for a frame of several skeletons, otherwise as many as its
        one skeleton needs.  Yield (start, full, atoms) per pass: full has
        one bit per lane of the pass, whose first lane is start, and
        atoms[j][i] is proposition j at slot i."""
        if self._atoms is not None:
            yield 0, (1 << self.size) - 1, self._atoms
            return
        # one skeleton of 2**total lanes: valuation bits below low count
        # within a pass, and those above it are fixed by the pass's start
        m = self.m
        total = nprops * m
        low = min(total, _CHUNK_BITS)
        full = (1 << (1 << low)) - 1
        counting = [_pattern_column(t, low) for t in range(low)]
        firsts = [_valuation_bit(nprops, j, m, 0) for j in range(nprops)]
        for start in range(0, self.size, 1 << low):
            bits = counting + [full if start >> t & 1 else 0 for t in range(low, total)]
            yield start, full, [bits[t : t + m] for t in firsts]

    def valuation(self, lane: int, nprops: int) -> tuple[_Skeleton, tuple[int, ...]]:
        """The skeleton of a lane and its valuation there: per proposition,
        the mask, in the skeleton's own pair bits, of the pairs where it is
        true."""
        i = bisect_right(self.starts, lane) - 1
        sk, index = self.skeletons[i], lane - self.starts[i]
        pairs = sk.pair_bits()
        m = len(pairs)
        firsts = [_valuation_bit(nprops, p, m, 0) for p in range(nprops)]
        return sk, tuple([_scatter(index >> t & ((1 << m) - 1), pairs) for t in firsts])

    def nbytes(self) -> int:
        """Bytes of the frame's lane masks, each shared one once, absent
        masks and atom columns: what it holds in proportion to its lanes."""
        masks = {id(e[-1]): e[-1] for e in chain(self.know, self.dere)}
        return sum(map(sys.getsizeof, chain(masks.values(), self.absent, *self._atoms or ())))

    def point(self, slot: int) -> Point:
        """The point of a slot's pair."""
        a, w = divmod(self.pairs[slot], self.world_count)
        return Point(w, a)

    def columns(self, roots: Sequence[Formula], leaves: Mapping[str, list[int]], full: int) -> list[list[int]]:
        """Per root, its column per slot: bit l set iff the root holds at
        the slot's pair in lane l of the pass whose lanes are the bits of
        full.

        leaves maps names to columns per slot, and every Atom and MetaVar
        reads its name there: a proposition it lacks is false everywhere,
        and a metavariable it lacks raises ValueError.  Each distinct node
        is evaluated once per call, and nothing is kept across calls.  false
        and a proposition leaves lacks read one shared zero column, and ~ of
        it is one shared column of full at every slot.
        """
        m = self.m
        zero, ones = [0] * m, [full] * m
        memo: dict[int, list[int]] = {}
        cut: list[int] = []  # per slot, the lanes where it is present, once a D needs it

        # K's fold, which D shares: AND over each know entry's slots, cut, OR into them
        def fold(col: list[int]) -> list[int]:
            out = [0] * m
            for slots, acc in self.know:
                for s in slots:
                    acc &= col[s]
                for s in slots:
                    out[s] |= acc
            return out

        def ev(node: Formula) -> list[int]:
            got = memo.get(id(node))
            if got is not None:
                return got
            # exact types, as _program dispatches: a subclass is no formula
            kind = type(node)
            if kind is Atom:
                out = leaves.get(node.name, zero)
            elif kind is Falsum:
                out = zero
            elif kind is Not:
                child = ev(node.child)
                out = ones if child is zero else [full ^ c for c in child]
            elif kind is Implies:
                left, right = ev(node.left), ev(node.right)
                out = [(full ^ l) | r for l, r in zip(left, right)]
            elif kind is And:
                left, right = ev(node.left), ev(node.right)
                out = [l & r for l, r in zip(left, right)]
            elif kind is Or:
                left, right = ev(node.left), ev(node.right)
                out = [l | r for l, r in zip(left, right)]
            elif kind is Know:
                out = fold(ev(node.child))
            elif kind is DeRe:
                child = ev(node.child)
                out = [0] * m
                for s, cands, mask in self.dere:
                    acc = 0
                    for c in cands:
                        acc |= child[c]
                    out[s] |= acc & mask
            elif kind is DeDicto:
                # K over each slot's world's inhabited column: the child ORed over
                # the world's slots, each cut to the lanes where it is present
                child = ev(node.child)
                if len(self.skeletons) > 1:
                    if not cut:
                        cut.extend([full ^ gap for gap in self.absent])
                    child = [c & here for c, here in zip(child, cut)]
                inhabited = [0] * m
                for slots in self.worlds:
                    acc = 0
                    for s in slots:
                        acc |= child[s]
                    for s in slots:
                        inhabited[s] = acc
                out = fold(inhabited)
            elif kind is MetaVar:
                out = leaves.get(node.name)
                if out is None:
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


def _pack(skeletons: Iterable[_Skeleton], nprops: int) -> Iterator[_Frame]:
    """Frames of the skeletons, all of one world count, in order, packed
    greedily: each frame takes the next skeletons while their lanes fit
    one pass of 2**_CHUNK_BITS, and a skeleton wider than that takes a
    frame alone."""
    width = 1 << _CHUNK_BITS
    group: list[_Skeleton] = []
    lanes = 0
    for sk in skeletons:
        size = 1 << nprops * sk.presence_mask.bit_count()
        if group and lanes + size > width:
            yield _Frame(group, nprops)
            group, lanes = [], 0
        group.append(sk)
        lanes += size
    if group:
        yield _Frame(group, nprops)


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
        self._frame = _Frame([_Skeleton(W, m.agent_count, self.present_mask, m.indist)], 0)
        self._atoms = {
            p: [int(divmod(t, W) in pairs) for t in self._frame.pairs]
            for p, pairs in m.valuation.items()
        }

    def _columns(self, roots: Sequence[Formula]) -> list[list[int]]:
        """Each root's single-lane column per slot, in one engine call."""
        return self._frame.columns(roots, self._atoms, 1)

    def extension_mask(self, f: Formula) -> int:
        out = 0
        for t, c in zip(self._frame.pairs, self._columns([f])[0]):
            out |= c << t
        return out

    def holds_everywhere(self, f: Formula) -> bool:
        return all(self._columns([f])[0])

    def extension(self, f: Formula) -> set[Point]:
        return {self._frame.point(slot) for slot, c in enumerate(self._columns([f])[0]) if c}

    def first_failure(self, f: Formula, _column: list[int] | None = None) -> Point | None:
        """Lowest present pair (agent-major order) where f fails, if any.

        _column is f's column when it is already known: first_failures
        passes one instance's lane of its pass.
        """
        if _column is None:
            _column = self._columns([f])[0]
        for slot, c in enumerate(_column):
            if not c:
                return self._frame.point(slot)
        return None

    def first_failures(
        self,
        schema: Formula,
        substitutions: Sequence[Mapping[str, Formula]],
        _single: Sequence[list[int]] | None = None,
    ) -> list[tuple[int, Point]]:
        """(j, first_failure of instance j) for each instance of schema
        that fails, in ascending j, where instance j substitutes
        substitutions[j] into the schema's metavariables.

        No instance is built.  The instances run as the lanes of one
        column: each substitution formula is evaluated once on the model
        alone, its column goes into lane j of its metavariable's column,
        that column joins the atoms' in the leaf map, and the schema body
        is evaluated once over all lanes.  Each instance's failure is then
        read off its lane by first_failure.

        _single, when given, holds the single-lane columns of the
        substitution formulas, metavariable by metavariable in sorted name
        order and instance by instance within each, in place of evaluating
        them here: fuzz_soundness evaluates a trial's whole pool in one
        call and hands each schema its columns by position.
        """
        n = len(substitutions)
        if not n:
            return []
        full = (1 << n) - 1
        found: set[str] = set()
        stack = [schema]
        while stack:
            node = stack.pop()
            if isinstance(node, MetaVar):
                found.add(node.name)
            else:
                stack += children(node)
        names = sorted(found)
        if _single is None:
            try:
                roots = [subst[name] for name in names for subst in substitutions]
            except KeyError as exc:
                raise UnboundMetavariableError(exc.args[0]) from None
            _single = self._columns(roots)
        leaves = {p: [full if b else 0 for b in col] for p, col in self._atoms.items()}
        for i, name in enumerate(names):
            # bit j of slot s is the single bit of substitution j at slot s:
            # the slot's bits, lane n - 1 first, read as a binary numeral
            per_slot = zip(*_single[i * n : i * n + n])
            leaves[name] = [int(bytes(bits[::-1]).translate(_BINARY_DIGITS), 2) for bits in per_slot]
        [result] = self._frame.columns([schema], leaves, full)
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
