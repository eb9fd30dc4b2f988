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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

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
_METAVAR_RE = re.compile(r"([A-Z]+)([0-9]*)$")


def is_metavar_name(name: str) -> bool:
    m = _METAVAR_RE.match(name)
    return m is not None and m.group(1) in _GREEK


class Formula:
    """Base class for formula and schema tree nodes. Immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid proposition name {self.name!r}")
        if self.name in _RESERVED:
            raise ValueError(f"{self.name!r} is a reserved word, not a proposition name")
        if is_metavar_name(self.name):
            raise ValueError(f"{self.name!r} is a metavariable name; use MetaVar")


@dataclass(frozen=True, slots=True)
class MetaVar(Formula):
    name: str

    def __post_init__(self):
        if not is_metavar_name(self.name):
            raise ValueError(
                f"invalid metavariable name {self.name!r}; expected an uppercase "
                "Greek letter name, optionally followed by digits"
            )


@dataclass(frozen=True, slots=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Know(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class DeRe(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class DeDicto(Formula):
    child: Formula


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            toks.append(("->", "->", i))
            i += 2
            continue
        if ch in "~&|()":
            toks.append((ch, ch, i))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(
            _byte_offset(text, i),
            _ATOM_EXPECTED + ("'->'", "'&'", "'|'", "')'"),
            f"{ch!r}",
        )
    return toks


# the parser recurses once per level of parentheses and loops over chains
# of prefix operators and of ->, so only parentheses are bounded
MAX_PAREN_DEPTH = 100
_PREFIX = {
    "~": Not,
    "K": Know,
    "R": DeRe,
    "D": DeDicto,
    "A": lambda f: Or(DeRe(f), DeDicto(f)),
}


class _Parser:
    def __init__(self, text: str, tokens: list[tuple[str, str, int]]):
        self._text = text
        self._toks = tokens
        self._i = 0
        self._depth = 0  # parentheses open around the current token

    def _peek(self) -> tuple[str, str, int]:
        if self._i < len(self._toks):
            return self._toks[self._i]
        return ("end", "", len(self._text))

    def _advance(self) -> tuple[str, str, int]:
        tok = self._peek()
        self._i += 1
        return tok

    def _fail(self, expected: tuple[str, ...]):
        kind, text, pos = self._peek()
        found = "end of input" if kind == "end" else f"'{text}'"
        raise ParseError(_byte_offset(self._text, pos), expected, found)

    def formula(self) -> Formula:
        # -> is right associative: fold the operands from the right
        operands = [self.disj()]
        while self._peek()[0] == "->":
            self._advance()
            operands.append(self.disj())
        f = operands.pop()
        while operands:
            f = Implies(operands.pop(), f)
        return f

    def disj(self) -> Formula:
        left = self.conj()
        while self._peek()[0] == "|":
            self._advance()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self._peek()[0] == "&":
            self._advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        ops = []
        while self._peek()[1] in _PREFIX:
            ops.append(_PREFIX[self._advance()[1]])
        f = self.atom()
        for op in reversed(ops):
            f = op(f)
        return f

    def atom(self) -> Formula:
        kind, text, _ = self._peek()
        if kind == "(":
            if self._depth == MAX_PAREN_DEPTH:
                self._fail((f"at most {MAX_PAREN_DEPTH} nested parentheses",))
            self._advance()
            self._depth += 1
            inner = self.formula()
            if self._peek()[0] != ")":
                self._fail(("')'", "'->'", "'&'", "'|'"))
            self._advance()
            self._depth -= 1
            return inner
        if kind == "ident":
            self._advance()
            if text == "true":
                return Not(Falsum())
            if text == "false":
                return Falsum()
            if is_metavar_name(text):
                return MetaVar(text)
            return Atom(text)
        self._fail(_ATOM_EXPECTED)

    def expect_end(self):
        if self._peek()[0] != "end":
            self._fail(("end of input", "'->'", "'&'", "'|'"))


def parse(text: str) -> Formula:
    """Parse a formula (or schema, if it contains metavariables) from text.

    Raises ParseError with a 1-based byte offset on malformed input.
    Parentheses may nest at most MAX_PAREN_DEPTH (100) deep; a deeper
    opening parenthesis raises ParseError at its offset.  Chains of
    prefix operators (~, K, R, D, A) and of -> have no such limit.
    """
    p = _Parser(text, _tokenize(text))
    f = p.formula()
    p.expect_end()
    return f


# ---------- printing ----------

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4


def render(f: Formula) -> str:
    """Print a formula with minimal parentheses; parse(render(f)) == f."""
    return _render(f, _PREC_IMPLIES)


def _render(f: Formula, min_prec: int) -> str:
    if isinstance(f, Atom) or isinstance(f, MetaVar):
        return f.name
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Not):
        s, prec = "~" + _render(f.child, _PREC_UNARY), _PREC_UNARY
    elif isinstance(f, Know):
        s, prec = "K " + _render(f.child, _PREC_UNARY), _PREC_UNARY
    elif isinstance(f, DeRe):
        s, prec = "R " + _render(f.child, _PREC_UNARY), _PREC_UNARY
    elif isinstance(f, DeDicto):
        s, prec = "D " + _render(f.child, _PREC_UNARY), _PREC_UNARY
    elif isinstance(f, And):
        # left associative: the right operand needs parens if it is an And
        s = _render(f.left, _PREC_AND) + " & " + _render(f.right, _PREC_AND + 1)
        prec = _PREC_AND
    elif isinstance(f, Or):
        s = _render(f.left, _PREC_OR) + " | " + _render(f.right, _PREC_OR + 1)
        prec = _PREC_OR
    elif isinstance(f, Implies):
        # right associative
        s = _render(f.left, _PREC_IMPLIES + 1) + " -> " + _render(f.right, _PREC_IMPLIES)
        prec = _PREC_IMPLIES
    else:
        raise TypeError(f"not a formula node: {f!r}")
    return "(" + s + ")" if prec < min_prec else s


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
    if _match(schema, f, subst):
        return subst
    return None


def _match(schema: Formula, f: Formula, subst: dict[str, Formula]) -> bool:
    if isinstance(schema, MetaVar):
        bound = subst.get(schema.name)
        if bound is None:
            subst[schema.name] = f
            return True
        return bound == f
    if type(schema) is not type(f):
        return False
    return all(_match(s, g, subst) for s, g in zip(children(schema), children(f)))


def instantiate(schema: Formula, subst: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of subst into schema's metavariables."""
    if isinstance(schema, MetaVar):
        try:
            return subst[schema.name]
        except KeyError:
            raise UnboundMetavariableError(schema.name) from None
    if isinstance(schema, _UNARY):
        return type(schema)(instantiate(schema.child, subst))
    if isinstance(schema, _BINARY):
        return type(schema)(
            instantiate(schema.left, subst), instantiate(schema.right, subst)
        )
    return schema


def subformula_closure(f: Formula) -> set[Formula]:
    """All subtrees of f, including f itself."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node in out:
            continue
        out.add(node)
        stack.extend(children(node))
    return out


def _nodes(f: Formula, opaque: tuple[type, ...] = ()) -> Iterator[Formula]:
    """Each node object of f once, by identity, never hashing a node, so
    deep trees are safe; nodes of the opaque types are not descended into."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if not isinstance(node, opaque):
            stack.extend(children(node))


def _shapes(roots: list[Formula]) -> dict[int, int]:
    """Number the nodes under roots by structure, bottom-up and without
    recursion or hashing a node: two nodes get the same number iff they are
    equal trees.  Keyed by node id; the roots must outlive the result."""
    number: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in number:
            continue
        kind = type(node)
        # a node whose children are not numbered yet waits under them
        if kind in _UNARY:
            child = number.get(id(node.child))
            if child is None:
                stack += (node, node.child)
                continue
            key = (kind, child)
        elif kind in _BINARY:
            left, right = number.get(id(node.left)), number.get(id(node.right))
            if left is None or right is None:
                stack += (node, node.left, node.right)
                continue
            key = (kind, left, right)
        else:
            key = (kind, getattr(node, "name", None))
        number[id(node)] = table.setdefault(key, len(table))
    return number


def atoms(f: Formula) -> set[str]:
    return {n.name for n in _nodes(f) if isinstance(n, Atom)}


def metavariables(f: Formula) -> set[str]:
    return {n.name for n in _nodes(f) if isinstance(n, MetaVar)}


def modal_depth(f: Formula) -> int:
    """The deepest nesting of K, R and D in f, found without recursion;
    each shared node object is measured once."""
    depth: dict[int, int] = {}
    stack = [f]
    while stack:
        node = stack[-1]
        kids = children(node)
        pending = [k for k in kids if id(k) not in depth]
        if pending:
            stack += pending
            continue
        stack.pop()
        below = max((depth[id(k)] for k in kids), default=0)
        depth[id(node)] = below + isinstance(node, _MODAL)
    return depth[id(f)]


MAX_TAUTOLOGY_VARIABLES = 20
_UNITS = (Know, DeRe, DeDicto, Atom, MetaVar)


def is_tautology(f: Formula) -> bool:
    """Truth-table tautology check over the boolean abstraction of f.

    Each maximal subformula headed by K, R, or D, and each atom (or
    metavariable), counts as one independent boolean variable; equal
    subformulas share one.  false is the constant falsehood.  At most 20
    abstraction variables are allowed.  The check runs on the column engine
    over a one-pair frame, each variable's column seeded as a leaf, so the
    engine never descends into a variable.
    """
    tops = [n for n in _nodes(f, _UNITS) if isinstance(n, _UNITS)]
    shape = _shapes(tops)
    units: dict[int, int] = {}  # shape number -> variable
    unit_of = {id(n): units.setdefault(shape[id(n)], len(units)) for n in tops}
    if len(units) > MAX_TAUTOLOGY_VARIABLES:
        raise ValueError(
            f"boolean abstraction has {len(units)} variables; "
            f"at most {MAX_TAUTOLOGY_VARIABLES} are supported"
        )

    def leaves(bits: list[int]):
        return {}, {k: [bits[j]] for k, j in unit_of.items()}

    return _one_pair().first_failure(f, len(units), leaves) is None


@lru_cache(maxsize=None)
def _one_pair():
    """The column engine over one world and one agent, for is_tautology."""
    # imported here because the checker imports this module
    from .checker import _Frame
    from .model import _Skeleton

    return _Frame([_Skeleton(1, 1, 1, (((0,),),))])
