"""Syntax of the awareness language: formula trees, parsing, printing, schemas.

The language has atomic propositions, boolean connectives, and three unary
modalities: ``K`` (the agent knows the property holds of herself), ``R``
(the agent is aware of a concrete individual that has the property), and
``D`` (the agent is aware that some individual with the property must
exist).  The surface form ``A x`` abbreviates ``R x | D x`` and is expanded
by the parser; no tree node exists for it.  ``true`` is sugar for
``~false``.

Schemas are formula trees that may additionally contain metavariables.
Metavariables are spelled as uppercase Greek letter names (``PHI``, ``PSI``,
optionally with a digit suffix) so that formulas and schemas share one
parser without ambiguity.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, repeat

from ._record import Record, _set

__all__ = [
    "Formula",
    "Atom",
    "Falsum",
    "Not",
    "Implies",
    "And",
    "Or",
    "Know",
    "DeRe",
    "DeDicto",
    "MetaVar",
    "FALSE",
    "TRUE",
    "ParseError",
    "UnboundMetavariableError",
    "parse",
    "render",
    "awareness_tower",
    "match_schema",
    "instantiate",
    "is_tautology",
    "subformula_closure",
    "atoms",
    "metavariables",
    "modal_depth",
]

_RESERVED = frozenset({"K", "R", "D", "A", "true", "false"})
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_GREEK = frozenset(
    "ALPHA BETA GAMMA DELTA EPSILON ZETA ETA THETA IOTA KAPPA LAMBDA MU NU "
    "XI OMICRON PI RHO SIGMA TAU UPSILON PHI CHI PSI OMEGA".split()
)
_METAVAR_RE = re.compile(r"([A-Z]+)([0-9]*)")


def is_metavar_name(name: str) -> bool:
    m = _METAVAR_RE.fullmatch(name)
    return m is not None and m.group(1) in _GREEK


def is_prop_name(name: str) -> bool:
    """Whether name can name a proposition: an identifier that is neither a
    reserved word nor a metavariable name.  Atom, Bounds and
    EpistemicModel.validate all apply this one rule."""
    return _IDENT_RE.fullmatch(name) is not None and name not in _RESERVED and not is_metavar_name(name)


class Formula(Record):
    """Base class for formula and schema tree nodes. Immutable.

    Two nodes are equal when they are the same tree: the same class at
    every position and equal names at the leaves.  ``==`` and ``hash`` walk
    the trees with an explicit stack, so they take any nesting, and shared
    subtrees cost them linear time.  A node keeps its hash once computed.
    """

    __slots__ = ("_hash",)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        # Record.__repr__'s text, built on an explicit stack of nodes and
        # of the text between them, so it takes any nesting
        parts = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
                continue
            stack.append(")")
            names = item.__match_args__
            for k in range(len(names) - 1, -1, -1):
                value = getattr(item, names[k])
                stack.append(value if isinstance(value, Formula) else repr(value))
                stack.append(f", {names[k]}=" if k else f"{names[k]}=")
            stack.append(f"{type(item).__qualname__}(")
        return "".join(parts)

    # nodes are immutable, so a copy, shallow or deep, is the node itself
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # an operator node pickles flat, as its program and its leaves, so
        # any nesting pickles; a leaf pickles through its constructor
        if self.__class__ not in _OPERATORS:
            return super().__reduce__()
        entries, _, nodes = _program([self])
        return _rebuild, (entries, [None if e[0] in _OPERATORS else n for e, n in zip(entries, nodes)])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same_trees(self, other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # a hashed node's formula fields are hashed, so the walk enters
        # only unhashed nodes, and probes each once; a node waits under a
        # None on the stack until its fields are hashed
        stack = [self]
        while stack:
            node = stack.pop()
            if node is None:
                node = stack.pop()
                _set(node, "_hash", hash((node.__class__, *node._values())))
            elif not hasattr(node, "_hash"):
                stack += (node, None, *children(node))
        return self._hash


def _same_trees(f: Formula, g: Formula) -> bool:
    """Whether two nodes of one class are equal trees, by an explicit-stack
    walk over pairs of nodes that walks under each pair once, so shared
    subtrees cost linear time."""
    seen = set()
    stack = [f, g]
    while stack:
        b = stack.pop()
        a = stack.pop()
        for name in a.__match_args__:
            x, y = getattr(a, name), getattr(b, name)
            if x is y:
                continue
            if x.__class__ is not y.__class__ or not isinstance(x, Formula):
                if x != y:
                    return False
            elif (id(x), id(y)) not in seen:
                seen.add((id(x), id(y)))
                stack += (x, y)
    return True


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if not is_prop_name(name):
            if name in _RESERVED:
                raise ValueError(f"{name!r} is a reserved word, not a proposition name")
            if is_metavar_name(name):
                raise ValueError(f"{name!r} is a metavariable name; use MetaVar")
            raise ValueError(f"invalid proposition name {name!r}")
        _set(self, "name", name)


class MetaVar(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if not is_metavar_name(name):
            raise ValueError(
                f"invalid metavariable name {name!r}; expected an uppercase "
                "Greek letter name, optionally followed by digits"
            )
        _set(self, "name", name)


class Falsum(Formula):
    __slots__ = ()

    def __init__(self):
        pass


class _Unary(Formula):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: Formula):
        _set(self, "child", child)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class Not(_Unary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Know(_Unary):
    __slots__ = ()


class DeRe(_Unary):
    __slots__ = ()


class DeDicto(_Unary):
    __slots__ = ()


FALSE = Falsum()
TRUE = Not(FALSE)

_UNARY = (Not, Know, DeRe, DeDicto)
_BINARY = (Implies, And, Or)
_MODAL = (Know, DeRe, DeDicto)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _UNARY):
        return (f.child,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    return ()


# ---------- parsing ----------


class ParseError(ValueError):
    """Syntax error with a 1-based byte offset and the set of expected tokens."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected "
            f"{' or '.join(expected)}, found {found}"
        )


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8")) + 1


_ATOM_EXPECTED = ("identifier", "'true'", "'false'", "'('", "'~'", "'K'", "'R'", "'D'", "'A'")


# one token per match: ->, a one-character operator, an identifier, or any
# other character but space, which no rule accepts.  Spaces fall between
# matches, so findall skips them without the quadratic rescan that a leading
# \s* costs on trailing space.
_TOKEN_RE = re.compile(r"->|[~&|()]|[A-Za-z][A-Za-z0-9_]*|\S")
_OPERATOR_TOKENS = frozenset(["->", "~", "&", "|", "(", ")"])
_END = ""  # appended after the last token; no match is empty
_SPACED_OPERATORS = [(op, f" {op} ") for op in _OPERATOR_TOKENS]

# on a text of fewer characters findall is the faster tokenizer and the
# group memo costs more than it saves, so parse uses neither _tokens nor
# the memo there
_LONG_TEXT = 64


def _tokens(text: str) -> list[str]:
    """The matches of _TOKEN_RE in text.  Where every token is an operator or
    an identifier, str.split yields them once each operator is set apart by
    spaces, at a third of findall's cost on long texts; a text with a
    character that no rule accepts goes through findall."""
    spaced = text
    for op, apart in _SPACED_OPERATORS:
        spaced = spaced.replace(op, apart)
    toks = spaced.split()
    for tok in set(toks).difference(_OPERATOR_TOKENS):
        if not _IDENT_RE.fullmatch(tok):
            return _TOKEN_RE.findall(text)
    return toks


# the parser recurses once per level of parentheses and loops over chains
# of prefix operators and of ->, so only parentheses are bounded
MAX_PAREN_DEPTH = 100
_PAREN_STEP = {"(": 1, ")": -1}
_PREFIX = {"~": Not, "K": Know, "R": DeRe, "D": DeDicto, "A": None}


class _Stuck(Exception):
    """The parser cannot go on at token index args[0]; args[1] is what it
    expected there."""


def _cons(table: dict, kind: type, *children: Formula) -> Formula:
    """The node kind(*children) of table, made on first use.  The parser
    inlines this for its hot operators."""
    key = (kind, *map(id, children))
    node = table.get(key)
    if node is None:
        node = table[key] = kind(*children)
    return node


def _leaf(table: dict, token: str) -> Formula | None:
    """The leaf a token names, made and entered in table; None when the
    token names no leaf."""
    if not _IDENT_RE.match(token):
        return None
    if token == "true":
        node = _cons(table, Not, table.get("false") or _leaf(table, "false"))
    elif token == "false":
        node = Falsum()
    elif is_metavar_name(token):
        node = MetaVar(token)
    else:
        node = Atom(token)
    table[token] = node
    return node


def _formula(toks: list[str], i: int, table: dict, depth: int, levels: list[int]) -> tuple[Formula, int]:
    """The formula that starts at toks[i] inside depth open parentheses, and
    the index of the token after it, by precedence climbing: -> over | over
    & over the prefix operators.  levels[k] is the parenthesis level after
    toks[k].

    Where levels is not empty, a parenthesized group that parsed is entered
    in table with its own depth of parentheses, keyed by its tokens up to
    its closing parenthesis joined by spaces, which no leaf key starts
    with.  A later equal group takes that node and skips its tokens where
    the parentheses stay within MAX_PAREN_DEPTH, and is parsed anew
    elsewhere, so an error is raised where a parse without the entry
    raises it."""
    operands = []  # of ->, which folds from the right
    while True:
        disj = None
        while True:
            conj = None
            while True:
                tok = toks[i]
                ops = []
                while tok in _PREFIX:
                    ops.append(_PREFIX[tok])
                    i += 1
                    tok = toks[i]
                if tok == "(":
                    hit = key = None
                    if levels:
                        # the closing parenthesis is the first later token
                        # back at the level before this one; a text that
                        # never closes it has none
                        try:
                            close = levels.index(levels[i] - 1, i + 1)
                        except ValueError:
                            pass
                        else:
                            key = " ".join(toks[i:close])
                            hit = table.get(key)
                    if hit is not None and depth + hit[1] <= MAX_PAREN_DEPTH:
                        f, i = hit[0], close
                    else:
                        if depth == MAX_PAREN_DEPTH:
                            raise _Stuck(i, (f"at most {MAX_PAREN_DEPTH} nested parentheses",))
                        start = i
                        f, i = _formula(toks, i + 1, table, depth + 1, levels)
                        if toks[i] != ")":
                            raise _Stuck(i, ("')'", "'->'", "'&'", "'|'"))
                        if key is not None:
                            # its own depth: the highest level inside it,
                            # counted from the level before it
                            table[key] = f, max(levels[start:i]) - levels[start] + 1
                else:
                    f = table.get(tok) or _leaf(table, tok)
                    if f is None:
                        raise _Stuck(i, _ATOM_EXPECTED)
                i += 1
                while ops:
                    op = ops.pop()
                    if op is None:  # A f is R f | D f
                        f = _cons(table, Or, _cons(table, DeRe, f), _cons(table, DeDicto, f))
                        continue
                    key = (op, id(f))
                    f = table.get(key) or table.setdefault(key, op(f))
                if conj is not None:
                    key = (And, id(conj), id(f))
                    f = table.get(key) or table.setdefault(key, And(conj, f))
                conj = f
                if toks[i] != "&":
                    break
                i += 1
            if disj is not None:
                key = (Or, id(disj), id(conj))
                conj = table.get(key) or table.setdefault(key, Or(disj, conj))
            disj = conj
            if toks[i] != "|":
                break
            i += 1
        operands.append(disj)
        if toks[i] != "->":
            break
        i += 1
    f = operands.pop()
    while operands:
        left = operands.pop()
        key = (Implies, id(left), id(f))
        f = table.get(key) or table.setdefault(key, Implies(left, f))
    return f, i


def _parse_error(text: str, toks: list[str], i: int, expected: tuple[str, ...]) -> ParseError:
    """The error for a parse stuck at token i, unless some token is a
    character no rule accepts: the first of those wins, as if the whole text
    were scanned first."""
    for k, tok in enumerate(toks):
        if tok and tok not in _OPERATOR_TOKENS and not _IDENT_RE.match(tok):
            i, expected = k, _ATOM_EXPECTED + ("'->'", "'&'", "'|'", "')'")
            found = repr(tok)
            break
    else:
        found = "end of input" if toks[i] == _END else f"'{toks[i]}'"
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    return ParseError(_byte_offset(text, starts[i]), expected, found)


def parse(text: str, _table: dict | None = None) -> Formula:
    """Parse a formula (or schema, if it contains metavariables) from text.

    Raises ParseError with a 1-based byte offset on malformed input.
    Parentheses may nest at most MAX_PAREN_DEPTH (100) deep; a deeper
    opening parenthesis raises ParseError at its offset.  Chains of
    prefix operators (~, K, R, D, A) and of -> have no such limit.

    Equal subtrees of one result may be one shared object.  _table, when
    given, is the node table to build through, so that the results of the
    calls sharing it share their equal subtrees too.  A text of at least
    _LONG_TEXT (64) characters reads each distinct parenthesized group once
    per table, so an awareness tower, whose text doubles per level, costs
    what its distinct groups cost beyond its tokenizing.
    """
    if len(text) < _LONG_TEXT:
        toks, levels = _TOKEN_RE.findall(text), []
    else:
        toks = _tokens(text)
        levels = list(accumulate(map(_PAREN_STEP.get, toks, repeat(0)))) if "(" in toks else []
    toks.append(_END)
    try:
        f, i = _formula(toks, 0, {} if _table is None else _table, 0, levels)
        if toks[i] != _END:
            raise _Stuck(i, ("end of input", "'->'", "'&'", "'|'"))
    except _Stuck as stuck:
        raise _parse_error(text, toks, *stuck.args) from None
    return f


# ---------- printing ----------

# each operator's text, its precedence, and the least precedence each
# operand may have without parentheses: the unary operators bind tightest,
# & and | associate to the left and -> to the right
_OPERATORS = {
    Not: ("~", 4, (4,)),
    Know: ("K ", 4, (4,)),
    DeRe: ("R ", 4, (4,)),
    DeDicto: ("D ", 4, (4,)),
    And: (" & ", 3, (3, 4)),
    Or: (" | ", 2, (2, 3)),
    Implies: (" -> ", 1, (2, 1)),
}
_LEAF_PREC = 5


def render(f: Formula) -> str:
    """Print a formula with minimal parentheses; parse(render(f)) == f."""
    entries = _program([f])[0]
    # an operand's text is dropped at its last use, so a chain holds the
    # text of one level at a time
    last = {c: i for i, (kind, *args) in enumerate(entries) if kind in _OPERATORS for c in args}
    text: list[str | None] = []
    prec: list[int] = []
    for i, (kind, *args) in enumerate(entries):
        if kind not in _OPERATORS:
            text.append(args[0])
            prec.append(_LEAF_PREC)
            continue
        sym, p, least = _OPERATORS[kind]
        parts = [text[c] if prec[c] >= m else f"({text[c]})" for c, m in zip(args, least)]
        for c in args:
            if last[c] == i:
                text[c] = None
        text.append(sym.join(parts) if len(parts) == 2 else sym + parts[0])
        prec.append(p)
    return text[-1]


def rendered_length(f: Formula) -> int:
    """len(render(f)), computed without building the text, whose length
    can be exponential in the number of distinct subtrees."""
    length: list[int] = []
    prec: list[int] = []
    for kind, *args in _program([f])[0]:
        if kind in _OPERATORS:
            sym, p, least = _OPERATORS[kind]
            length.append(len(sym) + sum(length[c] + 2 * (prec[c] < m) for c, m in zip(args, least)))
        else:
            length.append(len(args[0]))
            p = _LEAF_PREC
        prec.append(p)
    return length[-1]


# ---------- derived forms and schema tools ----------


def awareness_tower(f: Formula, n: int) -> Formula:
    """n-fold general awareness: 0 levels is f itself, each level wraps R _ | D _."""
    if n < 0:
        raise ValueError("tower height must be nonnegative")
    t = f
    for _ in range(n):
        t = Or(DeRe(t), DeDicto(t))
    return t


class UnboundMetavariableError(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"metavariable {name} is not bound by the substitution")


def match_schema(schema: Formula, f: Formula) -> dict[str, Formula] | None:
    """First-order matching of f against schema.

    Metavariables may occur on the schema side only; a repeated metavariable
    must match structurally equal subtrees.  Returns the substitution, or
    None when no match exists.
    """
    subst: dict[str, Formula] = {}
    # the pairs left to compare, leftmost on top
    stack = [(schema, f)]
    while stack:
        s, g = stack.pop()
        if isinstance(s, MetaVar):
            bound = subst.setdefault(s.name, g)
            if bound is not g and bound != g:
                return None
        elif type(s) is not type(g) or getattr(s, "name", None) != getattr(g, "name", None):
            return None
        else:
            stack += zip(children(s)[::-1], children(g)[::-1])
    return subst


def instantiate(schema: Formula, subst: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of subst into schema's metavariables, by a
    fold over the program of schema, so it takes any nesting.  The leftmost
    metavariable that subst does not bind raises UnboundMetavariableError."""
    entries, _, nodes = _program([schema])
    # in post-order, so the leftmost metavariable comes first
    for i, (kind, *args) in enumerate(entries):
        if kind is MetaVar:
            try:
                nodes[i] = subst[args[0]]
            except KeyError:
                raise UnboundMetavariableError(args[0]) from None
    return _rebuild(entries, nodes)


def _rebuild(entries: list[tuple], leaves: list) -> Formula:
    """The last entry's node of a program, built bottom-up: each operator
    entry from its children's nodes, each other entry as its node in leaves."""
    built: list[Formula] = []
    for entry, leaf in zip(entries, leaves):
        kind = entry[0]
        built.append(kind(*[built[c] for c in entry[1:]]) if kind in _OPERATORS else leaf)
    return built[-1]


def _program(roots: list[Formula]) -> tuple[list[tuple], dict[int, int], list[Formula]]:
    """The formulas under roots as one post-order program, built bottom-up
    without recursion or hashing a node.

    Returns the entries, each (kind, child entries...) or (kind, name) for a
    leaf, where kind is the node class, false is Falsum's name and a child
    entry is an index that comes before its parent; then the entry of each
    node id; then one node per entry.  Equal subtrees share one entry, so
    two nodes get the same entry iff they are equal trees, and a single
    root's entry is the last.  The roots must outlive the result, which is
    keyed by node id.
    """
    index: dict[tuple, int] = {}  # entry -> its position, in post-order
    entry_of: dict[int, int] = {}
    nodes: list[Formula] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in entry_of:
            continue
        kind = type(node)
        # a node whose children have no entry yet waits under them
        if kind in _UNARY:
            child = entry_of.get(id(node.child))
            if child is None:
                stack += (node, node.child)
                continue
            entry = (kind, child)
        elif kind in _BINARY:
            left, right = entry_of.get(id(node.left)), entry_of.get(id(node.right))
            if left is None or right is None:
                stack += (node, node.right, node.left)
                continue
            entry = (kind, left, right)
        elif kind in (Atom, MetaVar, Falsum):
            entry = (kind, getattr(node, "name", "false"))
        else:
            raise TypeError(f"not a formula node: {node!r}")
        i = index.setdefault(entry, len(nodes))
        if i == len(nodes):
            nodes.append(node)
        entry_of[id(node)] = i
    return list(index), entry_of, nodes


def subformula_closure(f: Formula) -> set[Formula]:
    """All subtrees of f, including f itself."""
    return set(_program([f])[2])


def atoms(f: Formula) -> set[str]:
    return {e[1] for e in _program([f])[0] if e[0] is Atom}


def metavariables(f: Formula) -> set[str]:
    return {e[1] for e in _program([f])[0] if e[0] is MetaVar}


def modal_depth(f: Formula) -> int:
    """The deepest nesting of K, R and D in f."""
    depth: list[int] = []
    for kind, *args in _program([f])[0]:
        below = max((depth[c] for c in args), default=0) if kind in _OPERATORS else 0
        depth.append(below + (kind in _MODAL))
    return depth[-1]


def _fold_constants(f: Formula) -> Formula:
    """f with false and true folded out: FALSE, TRUE (~false), or a formula
    with no false in it, equal to f at every present point of every model.
    A fold over the program of f, so it takes any nesting.

    false is the constant falsehood, ~ flips a constant, and &, | and ->
    drop or absorb a constant operand by the Boolean identities (l -> false
    is ~l).  K, R and D keep true as true and false as false.  At a present
    point (a, w) the block of a at w holds w, and a is present at every
    world of its block: so K and D range over a block that is never empty,
    a is its own R candidate at w, and a is its own D witness at each world
    of the block.  Each of them reads its operand only at present points,
    so equality there is all the fold needs.

    A formula with no false, and a schema (a formula with a metavariable),
    comes back as the same object: the engine then does exactly the work
    it would do on f, and still raises on an unbound metavariable.  Where
    the fold keeps a subtree unchanged, it keeps that node.
    """
    entries, _, nodes = _program([f])
    return _fold_program(entries, nodes)


def _fold_program(entries: list[tuple], nodes: list[Formula]) -> Formula:
    """_fold_constants of the formula whose _program gives entries and
    nodes, for a caller that reads that program for more; the formula is
    nodes[-1], its single root's node."""
    kinds = {entry[0] for entry in entries}
    if Falsum not in kinds or MetaVar in kinds:
        return nodes[-1]
    folded: list[Formula] = []  # per entry; a constant is FALSE or TRUE itself
    for (kind, *args), node in zip(entries, nodes):
        if kind not in _OPERATORS:
            folded.append(FALSE if kind is Falsum else node)
            continue
        sub = [folded[c] for c in args]
        out = None
        if kind in _BINARY:
            left, right = sub
            if kind is And:
                if left is FALSE or right is FALSE:
                    out = FALSE
                elif left is TRUE or right is TRUE:
                    out = right if left is TRUE else left
            elif kind is Or:
                if left is TRUE or right is TRUE:
                    out = TRUE
                elif left is FALSE or right is FALSE:
                    out = right if left is FALSE else left
            elif left is FALSE or right is TRUE:  # Implies
                out = TRUE
            elif left is TRUE:
                out = right
            elif right is FALSE:
                out = Not(left)
        elif sub[0] is TRUE or sub[0] is FALSE:
            out = (TRUE if sub[0] is FALSE else FALSE) if kind is Not else sub[0]
        if out is None:
            out = node if all(s is nodes[c] for s, c in zip(sub, args)) else kind(*sub)
        folded.append(out)
    return folded[-1]


MAX_TAUTOLOGY_VARIABLES = 20
_UNITS = (Know, DeRe, DeDicto, Atom, MetaVar)
_CHUNK_BITS = 16  # at most 2**16 valuations, or lanes, evaluated per pass


@lru_cache(maxsize=None)
def _pattern_column(bit: int, total_bits: int) -> int:
    """Counting pattern: bit v of the result is (v >> bit) & 1, v < 2**total_bits."""
    ones = 1 << bit
    period = ones << 1
    reps = 1 << (total_bits - bit - 1)
    unit = (1 << ones) - 1
    return (unit * (((1 << (period * reps)) - 1) // ((1 << period) - 1))) << ones


def is_tautology(f: Formula) -> bool:
    """Truth-table tautology check over the boolean abstraction of f.

    Each maximal subformula headed by K, R, or D, and each atom (or
    metavariable), counts as one independent boolean variable; equal
    subformulas share one.  false is the constant falsehood.  At most 20
    abstraction variables are allowed.  The check folds the program of f
    bottom-up over integers whose bit v is the entry's value under
    valuation v, in passes of at most 2**_CHUNK_BITS valuations; a pass
    fixes the variables above its width.
    """
    entries = _program([f])[0]
    root = len(entries) - 1
    spare = len(entries)  # a slot that a step clears when no operand dies there
    # from the root down, every entry before its children: the units
    # reached without passing through a unit are the variables, and an
    # operand first reached from an entry is used last by that entry
    reached = {root}
    units: dict[int, int] = {}  # entry -> variable
    plan = []  # each reached connective: (entry, kind, operands, slots to clear)
    for i in range(root, -1, -1):
        if i not in reached:
            continue
        kind, *args = entries[i]
        if kind in _UNITS:
            units[i] = len(units)
        elif kind in _OPERATORS:
            a, b = args[0], args[-1]
            plan.append((i, kind, a, b, spare if a in reached else a, spare if b in reached else b))
            reached.update(args)
    plan.reverse()
    n = len(units)
    if n > MAX_TAUTOLOGY_VARIABLES:
        raise ValueError(
            f"boolean abstraction has {n} variables; "
            f"at most {MAX_TAUTOLOGY_VARIABLES} are supported"
        )
    low = min(n, _CHUNK_BITS)
    full = (1 << (1 << low)) - 1
    for high in range(1 << (n - low)):
        value = [0] * (spare + 1)  # false stays 0
        for i, j in units.items():
            value[i] = _pattern_column(j, low) if j < low else full * (high >> (j - low) & 1)
        for i, kind, a, b, clear_a, clear_b in plan:
            if kind is Not:
                v = full ^ value[a]
            elif kind is Implies:
                v = (full ^ value[a]) | value[b]
            elif kind is And:
                v = value[a] & value[b]
            else:  # Or
                v = value[a] | value[b]
            # each operand's integer goes at its last use, so a chain holds
            # the integers of one level at a time
            value[clear_a] = value[clear_b] = 0
            value[i] = v
        if value[root] != full:
            return False
    return True
