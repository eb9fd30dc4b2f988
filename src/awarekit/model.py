"""Epistemic models: worlds, agents, presence, indistinguishability, valuation.

A model holds a grid of agent/world pairs.  The presence relation says
which agents exist in which worlds; every query about an agent's knowledge
or awareness is anchored at a present (world, agent) point.  Each agent
carries an equivalence over the worlds she is present in, stored as a
partition into blocks so the equivalence laws hold by construction.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from ._record import Record, _set
from .syntax import is_prop_name

__all__ = [
    "Point",
    "Bounds",
    "Violation",
    "EpistemicModel",
    "AgentNotPresentError",
    "ModelFormatError",
    "random_model",
    "enumerate_models",
    "model_from_json",
    "model_to_json",
    "load_model",
    "model_to_dot",
]


class AgentNotPresentError(ValueError):
    """Raised when a query names an agent at a world where she is not present."""

    def __init__(self, agent: int, world: int):
        self.agent = agent
        self.world = world
        super().__init__(f"agent {agent} is not present at world {world}")


class Point(Record):
    """A (world, agent) pair; satisfaction is only defined at present points."""

    world: int
    agent: int

    def __init__(self, world: int, agent: int):
        _set(self, "world", world)
        _set(self, "agent", agent)


class Violation(Record):
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class Bounds(Record):
    """Search-space bounds: world/agent caps and the propositions in play."""

    max_worlds: int
    max_agents: int
    props: tuple[str, ...]

    def __post_init__(self):
        for field in ("max_worlds", "max_agents"):
            if type(getattr(self, field)) is not int:
                raise ValueError(f"bounds {field} must be an int, got {getattr(self, field)!r}")
        if isinstance(self.props, str):
            raise ValueError(f"bounds props must be a sequence of names, not the string {self.props!r}")
        object.__setattr__(self, "props", tuple(self.props))
        if self.max_worlds < 1 or self.max_agents < 1:
            raise ValueError("bounds must allow at least one world and one agent")
        if not self.props:
            raise ValueError("bounds need at least one proposition")
        if len(set(self.props)) != len(self.props):
            raise ValueError("bounds propositions must be duplicate-free")
        for p in self.props:
            if not is_prop_name(p):
                raise ValueError(f"invalid proposition name {p!r}")


def _canonical_partition(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    cleaned = [tuple(sorted(set(int(w) for w in b))) for b in blocks]
    cleaned = [b for b in cleaned if b]
    return tuple(sorted(cleaned, key=lambda b: b[0]))


class EpistemicModel(Record):
    """Worlds and agents are dense integer indices; names live in files only.

    Invariants checked by validate():
      * presence pairs stay inside the agent/world grid,
      * indist[a] is a partition of exactly the worlds agent a is present in,
      * every valuation pair is a presence pair.
    """

    world_count: int
    agent_count: int
    presence: frozenset[tuple[int, int]]
    indist: tuple[tuple[tuple[int, ...], ...], ...]
    valuation: dict[str, frozenset[tuple[int, int]]]

    def __post_init__(self):
        object.__setattr__(
            self, "presence", frozenset((int(a), int(w)) for a, w in self.presence)
        )
        object.__setattr__(
            self, "indist", tuple(_canonical_partition(blocks) for blocks in self.indist)
        )
        object.__setattr__(
            self,
            "valuation",
            {
                str(p): frozenset((int(a), int(w)) for a, w in pairs)
                for p, pairs in dict(self.valuation).items()
            },
        )

    # -- derived views ------------------------------------------------

    @cached_property
    def _rows(self) -> tuple[frozenset[int], ...]:
        rows = [set() for _ in range(self.agent_count)]
        for a, w in self.presence:
            if 0 <= a < self.agent_count:
                rows[a].add(w)
        return tuple(frozenset(r) for r in rows)

    @cached_property
    def _agents_at(self) -> tuple[tuple[int, ...], ...]:
        cols = [[] for _ in range(self.world_count)]
        for a, w in sorted(self.presence):
            if 0 <= w < self.world_count:
                cols[w].append(a)
        return tuple(tuple(c) for c in cols)

    @cached_property
    def _block_lookup(self) -> dict[tuple[int, int], tuple[int, ...]]:
        table: dict[tuple[int, int], tuple[int, ...]] = {}
        for a, blocks in enumerate(self.indist):
            for blk in blocks:
                for w in blk:
                    table[(a, w)] = blk
        return table

    def _check_agent(self, agent: int):
        if not 0 <= agent < self.agent_count:
            raise IndexError(f"agent index {agent} out of range")

    def _check_world(self, world: int):
        if not 0 <= world < self.world_count:
            raise IndexError(f"world index {world} out of range")

    def present_worlds(self, agent: int) -> set[int]:
        """Worlds where the agent is present."""
        self._check_agent(agent)
        return set(self._rows[agent])

    def present_agents(self, world: int) -> set[int]:
        """Agents present at the world."""
        self._check_world(world)
        return set(self._agents_at[world])

    def block(self, agent: int, world: int) -> tuple[int, ...]:
        """The indistinguishability block of the agent's partition containing world."""
        self._check_agent(agent)
        self._check_world(world)
        blk = self._block_lookup.get((agent, world))
        if blk is None:
            raise AgentNotPresentError(agent, world)
        return blk

    def indistinguishable(self, agent: int, w: int, u: int) -> bool:
        """True when the agent cannot tell worlds w and u apart."""
        blk = self.block(agent, w)
        if self._block_lookup.get((agent, u)) is None:
            raise AgentNotPresentError(agent, u)
        return u in blk

    def points(self) -> Iterator[Point]:
        """All present points in (agent, world) order."""
        for a, w in sorted(self.presence):
            yield Point(w, a)

    # -- validation ----------------------------------------------------

    def validate(self) -> list[Violation]:
        """Empty list when all model invariants hold; violations are data."""
        out: list[Violation] = []
        for a, w in sorted(self.presence):
            if not (0 <= a < self.agent_count and 0 <= w < self.world_count):
                out.append(
                    Violation(
                        "presence-out-of-range",
                        f"presence pair (agent {a}, world {w}) is outside the "
                        f"{self.agent_count} x {self.world_count} grid",
                    )
                )
        if len(self.indist) != self.agent_count:
            out.append(
                Violation(
                    "partition-count",
                    f"expected one partition per agent ({self.agent_count}), "
                    f"got {len(self.indist)}",
                )
            )
        for a in range(min(len(self.indist), self.agent_count)):
            present = {w for (b, w) in self.presence if b == a}
            seen: set[int] = set()
            for blk in self.indist[a]:
                for w in blk:
                    if w in seen:
                        out.append(
                            Violation(
                                "partition-overlap",
                                f"agent {a}: world {w} appears in more than one block",
                            )
                        )
                    seen.add(w)
                    if w not in present:
                        out.append(
                            Violation(
                                "partition-extra",
                                f"agent {a}: world {w} is in a block but the agent "
                                "is not present there",
                            )
                        )
            for w in sorted(present - seen):
                out.append(
                    Violation(
                        "partition-missing",
                        f"agent {a}: present world {w} is not covered by any block",
                    )
                )
        for p in self.valuation:
            if not is_prop_name(p):
                out.append(
                    Violation("proposition-name", f"invalid proposition name {p!r}")
                )
            for a, w in sorted(self.valuation[p] - self.presence):
                out.append(
                    Violation(
                        "valuation-outside-presence",
                        f"proposition {p!r} is assigned at (agent {a}, world {w}) "
                        "where the agent is not present",
                    )
                )
        return out


# ---------- random generation ----------


@lru_cache(maxsize=None)
def _partition_weight(remaining: int, open_blocks: int) -> int:
    # number of ways to finish a partition given `remaining` unplaced elements
    if remaining == 0:
        return 1
    return open_blocks * _partition_weight(remaining - 1, open_blocks) + _partition_weight(
        remaining - 1, open_blocks + 1
    )


def _random_partition(rng: random.Random, elems: list[int]) -> tuple[tuple[int, ...], ...]:
    """Uniform random set partition via weighted sequential block assignment."""
    if not elems:
        return ()
    blocks: list[list[int]] = [[elems[0]]]
    for i in range(1, len(elems)):
        remaining = len(elems) - i - 1
        b = len(blocks)
        pick = rng.randrange(_partition_weight(remaining + 1, b))
        join = _partition_weight(remaining, b)
        placed = False
        for j in range(b):
            if pick < (j + 1) * join:
                blocks[j].append(elems[i])
                placed = True
                break
        if not placed:
            blocks.append([elems[i]])
    return _canonical_partition(blocks)


# random_model draws a partition by counting the partitions of an agent's
# worlds, which takes a recursion as deep as their number and big integers
# of about as many digits, and its presence grid has worlds x agents pairs
MAX_RANDOM_SIZE = 256


def random_model(seed: int, bounds: Bounds, ensure_inhabited: bool = True) -> EpistemicModel:
    """Deterministic random model within the bounds.

    World and agent counts are drawn from [1..max]; each presence pair is
    kept with probability 1/2; when ensure_inhabited is set, each empty
    world is patched with one random agent; each agent's partition is drawn
    uniformly from the set partitions of her worlds; each proposition gets a
    random subset of presence.  The output always validates cleanly.

    Raises ValueError when the bounds allow more than MAX_RANDOM_SIZE (256)
    worlds or agents.
    """
    if max(bounds.max_worlds, bounds.max_agents) > MAX_RANDOM_SIZE:
        raise ValueError(
            f"random models have at most {MAX_RANDOM_SIZE} worlds and "
            f"{MAX_RANDOM_SIZE} agents; the bounds allow {bounds.max_worlds} "
            f"and {bounds.max_agents}"
        )
    rng = random.Random(seed)
    worlds = rng.randint(1, bounds.max_worlds)
    agents = rng.randint(1, bounds.max_agents)
    presence = {
        (a, w) for a in range(agents) for w in range(worlds) if rng.getrandbits(1)
    }
    if ensure_inhabited:
        for w in range(worlds):
            if not any((a, w) in presence for a in range(agents)):
                presence.add((rng.randrange(agents), w))
    indist = tuple(
        _random_partition(rng, sorted(w for (a2, w) in presence if a2 == a))
        for a in range(agents)
    )
    valuation = {
        p: frozenset(pair for pair in sorted(presence) if rng.getrandbits(1))
        for p in bounds.props
    }
    return EpistemicModel(worlds, agents, frozenset(presence), indist, valuation)


# ---------- exhaustive enumeration ----------


class _Skeleton(Record):
    """A model minus its valuation: counts, presence bitmask, partitions."""

    world_count: int
    agent_count: int
    presence_mask: int
    partitions: tuple[tuple[tuple[int, ...], ...], ...]

    def pair_bits(self) -> list[int]:
        return [
            t
            for t in range(self.agent_count * self.world_count)
            if self.presence_mask >> t & 1
        ]


def _pair_bit(agent: int, world: int, world_count: int) -> int:
    return agent * world_count + world


@lru_cache(maxsize=None)
def _set_partitions(elems: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of elems, in restricted-growth-string order (coarsest first)."""
    # growth strings in lexicographic order: element i joins block g[i],
    # an existing block or the next new one
    strings = [()]
    for _ in elems:
        strings = [g + (b,) for g in strings for b in range(max(g, default=-1) + 2)]
    out = []
    for g in strings:
        blocks: list[list[int]] = [[] for _ in range(max(g, default=-1) + 1)]
        for e, b in zip(elems, g):
            blocks[b].append(e)
        out.append(tuple(map(tuple, blocks)))
    return tuple(out)


@lru_cache(maxsize=None)
def _world_relabelings(worlds: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(perm, table) for every non-identity permutation of the worlds, where
    table[r] is the row bitmask r with each world w moved to perm[w]."""
    identity = tuple(range(worlds))
    return tuple(
        (perm, tuple(sum(1 << perm[w] for w in identity if r >> w & 1) for r in range(1 << worlds)))
        for perm in itertools.permutations(identity)
        if perm != identity
    )


def _canonical_skeletons(worlds: int, agents: int) -> Iterator[_Skeleton]:
    """The skeletons whose key (presence_mask, partitions) is the least in its
    orbit under relabeling worlds and agents, in enumeration order.

    For a fixed world relabeling, the least agent order sorts agents by
    (-row, partition): the highest agent's row is the most significant part
    of the mask, and partitions compare from agent 0 up.  So a least key
    has its rows non-increasing and its partitions non-decreasing among
    equal rows (orderly generation), and it is the least in its orbit
    exactly when no world relabeling, followed by that sort, yields a
    smaller key.  Only the W! world relabelings are tried, not W!·A!.
    """
    relabelings = _world_relabelings(worlds)
    images: dict = {}  # (relabeling index, partition) -> relabeled partition
    # non-decreasing tuples come in lexicographic order; read from the
    # highest agent down they are the non-increasing rows, by ascending mask
    for ascending in itertools.combinations_with_replacement(range(1 << worlds), agents):
        rows = ascending[::-1]
        # a relabeling whose sorted rows are smaller beats every partition
        # choice; one whose sorted rows are equal must be checked per choice
        fixing = []
        for i, (perm, table) in enumerate(relabelings):
            image = tuple(sorted(table[r] for r in ascending))
            if image < ascending:
                break
            if image == ascending:
                fixing.append((i, perm, [-table[r] for r in rows]))
        else:
            mask = sum(r << a * worlds for a, r in enumerate(rows))
            ties = [a for a in range(agents - 1) if rows[a] == rows[a + 1]]
            choices = [
                _set_partitions(tuple(w for w in range(worlds) if r >> w & 1)) for r in rows
            ]
            for combo in itertools.product(*choices):
                if any(combo[a] > combo[a + 1] for a in ties):
                    continue
                for i, perm, keys in fixing:
                    relabeled = []
                    for part in combo:
                        img = images.get((i, part))
                        if img is None:
                            img = images[i, part] = _canonical_partition(
                                [perm[w] for w in blk] for blk in part
                            )
                        relabeled.append(img)
                    if tuple(p for _, p in sorted(zip(keys, relabeled))) < combo:
                        break
                else:
                    yield _Skeleton(worlds, agents, mask, combo)


def _iter_skeletons_wa(
    worlds: int, agents: int, prune: bool = False, mask: int | None = None
) -> Iterator[_Skeleton]:
    """The shape's skeletons in enumeration order: the canonical ones with
    prune, otherwise all of them, or with mask only those of that presence
    mask, each agent's row partitioned every way."""
    if prune:
        yield from _canonical_skeletons(worlds, agents)
        return
    masks = range(1 << (agents * worlds)) if mask is None else (mask,)
    for mask in masks:
        rows = [
            tuple(w for w in range(worlds) if mask >> _pair_bit(a, w, worlds) & 1)
            for a in range(agents)
        ]
        part_choices = [_set_partitions(r) for r in rows]
        for combo in itertools.product(*part_choices):
            yield _Skeleton(worlds, agents, mask, combo)


def _iter_skeletons(bounds: Bounds, prune: bool = False) -> Iterator[_Skeleton]:
    """Skeletons in canonical enumeration order: ascending world count, then
    agent count, then presence bitmask, then per-agent partition index."""
    for worlds in range(1, bounds.max_worlds + 1):
        for agents in range(1, bounds.max_agents + 1):
            yield from _iter_skeletons_wa(worlds, agents, prune)


@lru_cache(maxsize=None)
def _model_count(worlds: int, agents: int, nprops: int) -> int:
    """The number of models of the (worlds, agents) shape over nprops
    propositions: the sum over its plain skeletons of 2**(nprops * m), m
    their present pairs.  Each agent picks a row of k worlds and a
    partition of it, Bell(k) ways, on its own and brings nprops * k
    valuation bits, so the sum is one agent's sum to the power agents."""
    per_agent = sum(
        math.comb(worlds, k) * len(_set_partitions(tuple(range(k)))) << nprops * k
        for k in range(worlds + 1)
    )
    return per_agent**agents


def _scatter(compact: int, positions: list[int]) -> int:
    mask = 0
    for i, pos in enumerate(positions):
        if compact >> i & 1:
            mask |= 1 << pos
    return mask


def _materialize(sk: _Skeleton, prop_masks: tuple[int, ...], props: tuple[str, ...]) -> EpistemicModel:
    W = sk.world_count
    presence = frozenset(divmod(t, W) for t in sk.pair_bits())
    valuation = {
        p: frozenset(divmod(t, W) for t in range(sk.agent_count * W) if m >> t & 1)
        for p, m in zip(props, prop_masks)
    }
    return EpistemicModel(W, sk.agent_count, presence, sk.partitions, valuation)


def enumerate_models(bounds: Bounds, prune: bool = False) -> Iterator[EpistemicModel]:
    """Every model within the bounds, exactly once, in a deterministic order.

    The order is: ascending world count, agent count, presence bitmask
    (agent-major pair bits), partition choice, then valuation bitmask with
    the first proposition most significant.  With prune=True, only the
    skeleton with the least key (presence bitmask, partitions) in each orbit
    under relabeling worlds and agents is kept: agents are generated sorted,
    and only the world relabelings are tried against each candidate.  This
    never changes which formulas have countermodels, only which witnesses
    are seen.
    """
    nprops = len(bounds.props)
    for sk in _iter_skeletons(bounds, prune):
        positions = sk.pair_bits()
        per_prop = [_scatter(c, positions) for c in range(1 << len(positions))]
        for combo in itertools.product(per_prop, repeat=nprops):
            yield _materialize(sk, combo, bounds.props)


# ---------- model files ----------


class ModelFormatError(ValueError):
    """Raised when a model file is structurally malformed."""


def _names_to_index(kind: str, names) -> dict[str, int]:
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ModelFormatError(f"'{kind}' must be a list of names")
    if len(set(names)) != len(names):
        raise ModelFormatError(f"duplicate {kind} names")
    return {n: i for i, n in enumerate(names)}


def _resolve_pair(pair, agent_idx, world_idx) -> tuple[int, int]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ModelFormatError(f"presence/valuation entries must be [agent, world] pairs, got {pair!r}")
    a, w = pair
    # names are strings; a list or object would not even hash
    if not isinstance(a, str) or a not in agent_idx:
        raise ModelFormatError(f"unknown agent name {a!r}")
    if not isinstance(w, str) or w not in world_idx:
        raise ModelFormatError(f"unknown world name {w!r}")
    return agent_idx[a], world_idx[w]


def model_from_json(text: str) -> tuple[EpistemicModel, list[str], list[str]]:
    """Parse the JSON model format; returns (model, world_names, agent_names).

    Structural problems (wrong types, unknown names) raise ModelFormatError.
    Semantic problems (for example a valuation entry outside presence) are
    left for validate() so the caller can report them as violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("top level must be an object")
    for key in ("worlds", "agents", "presence", "indist", "valuation"):
        if key not in doc:
            raise ModelFormatError(f"missing key {key!r}")
    world_idx = _names_to_index("worlds", doc["worlds"])
    agent_idx = _names_to_index("agents", doc["agents"])
    if not isinstance(doc["presence"], list):
        raise ModelFormatError("'presence' must be a list of [agent, world] pairs")
    presence = frozenset(_resolve_pair(p, agent_idx, world_idx) for p in doc["presence"])
    if not isinstance(doc["indist"], dict):
        raise ModelFormatError("'indist' must map agent names to block lists")
    indist_blocks: list[list[list[int]]] = [[] for _ in agent_idx]
    for name, blocks in doc["indist"].items():
        if name not in agent_idx:
            raise ModelFormatError(f"unknown agent name {name!r} in 'indist'")
        if not isinstance(blocks, list):
            raise ModelFormatError(f"'indist' entry for {name!r} must be a list of blocks")
        resolved = []
        for blk in blocks:
            if not isinstance(blk, list):
                raise ModelFormatError(f"indistinguishability blocks must be lists, got {blk!r}")
            for w in blk:
                if not isinstance(w, str) or w not in world_idx:
                    raise ModelFormatError(f"unknown world name {w!r} in 'indist'")
            resolved.append([world_idx[w] for w in blk])
        indist_blocks[agent_idx[name]] = resolved
    if not isinstance(doc["valuation"], dict):
        raise ModelFormatError("'valuation' must map propositions to pair lists")
    valuation = {}
    for prop, pairs in doc["valuation"].items():
        if not isinstance(pairs, list):
            raise ModelFormatError(f"valuation for {prop!r} must be a list of pairs")
        valuation[prop] = frozenset(_resolve_pair(p, agent_idx, world_idx) for p in pairs)
    model = EpistemicModel(
        len(world_idx), len(agent_idx), presence, tuple(indist_blocks), valuation
    )
    return model, list(doc["worlds"]), list(doc["agents"])


def load_model(path) -> tuple[EpistemicModel, list[str], list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


def _default_names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def model_to_json(
    m: EpistemicModel,
    world_names: list[str] | None = None,
    agent_names: list[str] | None = None,
) -> str:
    """Serialize to the JSON model format (deterministic key and pair order)."""
    wn = world_names or _default_names("w", m.world_count)
    an = agent_names or _default_names("a", m.agent_count)
    doc = {
        "worlds": wn,
        "agents": an,
        "presence": [[an[a], wn[w]] for a, w in sorted(m.presence)],
        "indist": {
            an[a]: [[wn[w] for w in blk] for blk in (m.indist[a] if a < len(m.indist) else ())]
            for a in range(m.agent_count)
        },
        "valuation": {
            p: [[an[a], wn[w]] for a, w in sorted(m.valuation[p])]
            for p in m.valuation
        },
    }
    return json.dumps(doc, indent=2)


def _dot_escape(name: str) -> str:
    """Escape a name for use inside a double-quoted DOT string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def model_to_dot(
    m: EpistemicModel,
    world_names: list[str] | None = None,
    agent_names: list[str] | None = None,
    mark: Iterable[Point] = (),
) -> str:
    """Render the model as GraphViz DOT: worlds as clusters, present agents
    as nodes, indistinguishability blocks as dashed chains, marked points
    highlighted."""
    wn = [_dot_escape(n) for n in world_names or _default_names("w", m.world_count)]
    an = [_dot_escape(n) for n in agent_names or _default_names("a", m.agent_count)]
    marked = {(pt.agent, pt.world) for pt in mark}
    lines = ["graph model {", "  node [shape=box];"]
    for w in range(m.world_count):
        lines.append(f'  subgraph "cluster_{wn[w]}" {{')
        lines.append(f'    label="{wn[w]}";')
        agents_here = sorted(a for (a, w2) in m.presence if w2 == w)
        if not agents_here:
            lines.append(f'    "empty@{wn[w]}" [label="(no agents)", shape=plaintext];')
        for a in agents_here:
            props = sorted(p for p in m.valuation if (a, w) in m.valuation[p])
            label = an[a] if not props else an[a] + r"\n" + ", ".join(map(_dot_escape, props))
            style = ' style=filled fillcolor="lightcoral"' if (a, w) in marked else ""
            lines.append(f'    "{an[a]}@{wn[w]}" [label="{label}"{style}];')
        lines.append("  }")
    for a in range(min(m.agent_count, len(m.indist))):
        for blk in m.indist[a]:
            for w, u in zip(blk, blk[1:]):
                lines.append(
                    f'  "{an[a]}@{wn[w]}" -- "{an[a]}@{wn[u]}" '
                    f'[style=dashed, label="~{an[a]}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
