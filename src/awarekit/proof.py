"""Hilbert-style proof scripts and checking for the K/R/D logic.

Two derivation modes exist and the checker keeps them strictly apart:

* theorem mode: lines may use axiom instances, modus ponens, necessitation,
  and the two monotonicity rules (one for D, one for R);
* hypothesis mode: lines may use axiom instances, the listed hypotheses,
  citations of registered theorems, and modus ponens only.

The split is what keeps necessitation from leaking under hypotheses.  A
registry stores checked theorem-mode results as schemas; hypothesis-mode
scripts reuse them through Cite lines carrying explicit substitutions.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache

from ._record import Record
from .syntax import (
    Atom,
    DeDicto,
    DeRe,
    FALSE,
    Formula,
    Implies,
    Know,
    MetaVar,
    Not,
    Or,
    ParseError,
    UnboundMetavariableError,
    awareness_tower,
    instantiate,
    is_tautology,
    match_schema,
    metavariables,
    parse,
    render,
)

__all__ = [
    "AxiomId",
    "AXIOM_SCHEMAS",
    "Axiom",
    "Hyp",
    "MP",
    "Nec",
    "MonoD",
    "MonoR",
    "Cite",
    "ProofLine",
    "ProofScript",
    "ProofError",
    "ProofFileError",
    "Registry",
    "TheoremEntry",
    "check",
    "deduction",
    "lift_knowledge",
    "builtin",
    "BUILTIN_NAMES",
    "default_registry",
    "parse_proof",
    "format_proof",
]


class AxiomId(Enum):
    """The axiom schemas; enum values double as proof-file keywords."""

    TAUT = "taut"
    TRUTH = "truth"
    NEG_INTRO = "negintro"
    DIST = "dist"
    SELF_AWARE_R = "selfR"
    SELF_AWARE_D = "selfD"
    INTRO_AWARE = "introaware"
    UNAWARE_FALSE_R = "unfalseR"
    UNAWARE_FALSE_D = "unfalseD"
    DISJ = "disj"
    GEN_AWARE = "genaware"


AXIOM_SCHEMAS: dict[AxiomId, Formula | None] = {
    AxiomId.TAUT: None,  # checked semantically by is_tautology
    AxiomId.TRUTH: parse("K PHI -> PHI"),
    AxiomId.NEG_INTRO: parse("~K PHI -> K ~K PHI"),
    AxiomId.DIST: parse("K (PHI -> PSI) -> (K PHI -> K PSI)"),
    AxiomId.SELF_AWARE_R: parse("PHI -> R PHI"),
    AxiomId.SELF_AWARE_D: parse("K PHI -> D PHI"),
    AxiomId.INTRO_AWARE: parse("D PHI -> K D PHI"),
    AxiomId.UNAWARE_FALSE_R: parse("~R false"),
    AxiomId.UNAWARE_FALSE_D: parse("~D false"),
    AxiomId.DISJ: parse("R (PHI | PSI) -> R PHI | R PSI"),
    AxiomId.GEN_AWARE: parse("D (R PHI | D PHI) -> D PHI"),
}

NON_TAUT_AXIOMS: tuple[AxiomId, ...] = tuple(
    ax for ax in AxiomId if ax is not AxiomId.TAUT
)


class Axiom(Record):
    axiom: AxiomId


class Hyp(Record):
    index: int


class MP(Record):
    antecedent: int
    implication: int


class Nec(Record):
    source: int


class MonoD(Record):
    source: int


class MonoR(Record):
    source: int


class Cite(Record):
    name: str
    substitution: dict[str, Formula]

    def __init__(self, name: str, substitution: dict[str, Formula] | None = None):
        # each Cite without a substitution gets its own empty one
        super().__init__(name, {} if substitution is None else substitution)


Justification = Axiom | Hyp | MP | Nec | MonoD | MonoR | Cite

# The rules whose fields are all line or hypothesis indices (0-based in a
# script, 1-based in a proof file), with their proof-file keywords.
_INDEX_RULES: dict[type, str] = {
    Hyp: "hyp",
    MP: "mp",
    Nec: "nec",
    MonoD: "monoD",
    MonoR: "monoR",
}
_MONO_WRAP = {MonoD: DeDicto, MonoR: DeRe}


class ProofLine(Record):
    formula: Formula
    justification: Justification


class ProofScript(Record):
    """hypotheses is None for theorem mode; a tuple (possibly empty) otherwise."""

    lines: tuple[ProofLine, ...]
    hypotheses: tuple[Formula, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.hypotheses is not None:
            object.__setattr__(self, "hypotheses", tuple(self.hypotheses))

    @property
    def is_theorem_mode(self) -> bool:
        return self.hypotheses is None

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty proof script has no conclusion")
        return self.lines[-1].formula


class ProofError(ValueError):
    """A checking failure: the offending line (0-based), rule, and reason."""

    def __init__(self, line_index: int | None, rule: str, reason: str):
        self.line_index = line_index
        self.rule = rule
        self.reason = reason
        where = "script" if line_index is None else f"line {line_index + 1}"
        super().__init__(f"{where}: {rule}: {reason}")


class TheoremEntry(Record):
    name: str
    schema: Formula
    proof: ProofScript


class Registry:
    """Checked theorem-mode results, stored once as schemas and cited with
    explicit substitutions.  Register everything before checking begins."""

    def __init__(self):
        self._entries: dict[str, TheoremEntry] = {}

    def register(
        self,
        name: str,
        schema: Formula,
        proof: ProofScript,
        instance: dict[str, Formula] | None = None,
    ) -> TheoremEntry:
        """Verify and store a theorem.

        The proof must be a theorem-mode script that checks against this
        registry, and its conclusion must equal the schema instantiated at
        the designated instance (required when the schema has
        metavariables).
        """
        if name in self._entries:
            raise ValueError(f"theorem {name!r} is already registered")
        if not proof.is_theorem_mode:
            raise ValueError("only theorem-mode results can be registered")
        return self._store(name, schema, proof, check(proof, self), instance)

    def _store(
        self,
        name: str,
        schema: Formula,
        proof: ProofScript,
        conclusion: Formula,
        instance: dict[str, Formula] | None = None,
    ) -> TheoremEntry:
        """register after its check: store a theorem under a new name, given
        its checked theorem-mode proof and that proof's conclusion."""
        mvs = metavariables(schema)
        if mvs:
            if instance is None or set(instance) != mvs:
                raise ValueError(
                    f"schema for {name!r} has metavariables {sorted(mvs)}; "
                    "a designated instance covering exactly those is required"
                )
            expected = instantiate(schema, instance)
        else:
            expected = schema
        if expected != conclusion:
            raise ValueError(
                f"proof of {name!r} concludes {render(conclusion)}, "
                f"which is not the designated instance {render(expected)}"
            )
        entry = TheoremEntry(name, schema, proof)
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> TheoremEntry:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries)


def _rule_name(just: Justification) -> str:
    if isinstance(just, Axiom):
        return just.axiom.value
    return _INDEX_RULES.get(type(just), "cite")


def check(script: ProofScript, registry: Registry | None = None) -> Formula:
    """Verify every line of the script and return the conclusion.

    Raises ProofError naming the first failing line, its rule, and why.
    """
    if not script.lines:
        raise ProofError(None, "script", "a proof needs at least one line")
    for k in range(len(script.lines)):
        _check_line(script, k, registry)
    return script.lines[-1].formula


def _check_line(script: ProofScript, k: int, registry: Registry | None) -> None:
    """Verify line k of the script, given its earlier lines; raise ProofError
    if it does not follow."""
    lines = script.lines
    line = lines[k]
    just = line.justification
    rule = _rule_name(just)
    hyp_mode = not script.is_theorem_mode
    if hyp_mode and isinstance(just, (Nec, MonoD, MonoR)):
        raise ProofError(
            k,
            rule,
            "only modus ponens, axioms, hypotheses, and citations are "
            "allowed when deriving from hypotheses",
        )
    if isinstance(just, Axiom):
        if just.axiom is AxiomId.TAUT:
            try:
                holds = is_tautology(line.formula)
            except ValueError as exc:  # too many abstraction variables
                raise ProofError(k, rule, str(exc)) from None
            if not holds:
                raise ProofError(
                    k, rule, f"{render(line.formula)} is not a propositional tautology"
                )
        else:
            schema = AXIOM_SCHEMAS[just.axiom]
            if match_schema(schema, line.formula) is None:
                raise ProofError(
                    k,
                    rule,
                    f"{render(line.formula)} is not an instance of {render(schema)}",
                )
    elif isinstance(just, Hyp):
        if not hyp_mode:
            raise ProofError(k, rule, "hypotheses are not available in theorem mode")
        if not 0 <= just.index < len(script.hypotheses):
            raise ProofError(k, rule, f"no hypothesis {just.index + 1}")
        if script.hypotheses[just.index] != line.formula:
            raise ProofError(
                k,
                rule,
                f"line states {render(line.formula)} but hypothesis "
                f"{just.index + 1} is {render(script.hypotheses[just.index])}",
            )
    elif isinstance(just, MP):
        _earlier(k, just.antecedent, rule)
        _earlier(k, just.implication, rule)
        imp = lines[just.implication].formula
        want = Implies(lines[just.antecedent].formula, line.formula)
        if imp != want:
            raise ProofError(
                k,
                rule,
                f"line {just.implication + 1} is {render(imp)}, expected {render(want)}",
            )
    elif isinstance(just, Nec):
        _earlier(k, just.source, rule)
        if line.formula != Know(lines[just.source].formula):
            raise ProofError(
                k,
                rule,
                f"expected K applied to line {just.source + 1}",
            )
    elif isinstance(just, (MonoD, MonoR)):
        _earlier(k, just.source, rule)
        src = lines[just.source].formula
        if not isinstance(src, Implies):
            raise ProofError(k, rule, f"line {just.source + 1} is not an implication")
        wrap = _MONO_WRAP[type(just)]
        want = Implies(wrap(src.left), wrap(src.right))
        if line.formula != want:
            raise ProofError(k, rule, f"expected {render(want)}")
    elif isinstance(just, Cite):
        if registry is None or just.name not in registry:
            raise ProofError(k, rule, f"theorem {just.name!r} is not registered")
        entry = registry.get(just.name)
        try:
            concrete = instantiate(entry.schema, just.substitution)
        except UnboundMetavariableError as exc:
            raise ProofError(k, rule, str(exc)) from None
        if concrete != line.formula:
            raise ProofError(
                k,
                rule,
                f"citation yields {render(concrete)}, line states {render(line.formula)}",
            )
    else:
        raise ProofError(k, "?", f"unknown justification {just!r}")


def _earlier(k: int, i: int, rule: str) -> None:
    if not 0 <= i < k:
        raise ProofError(k, rule, f"reference to line {i + 1} is not strictly earlier")


# ---------- construction helper ----------


class _Builder:
    """Append-only proof construction after any given lines; indices are
    returned as lines are added."""

    def __init__(
        self, hypotheses: tuple[Formula, ...] | None, lines: tuple[ProofLine, ...] = ()
    ):
        self._hyps = hypotheses
        self._lines = list(lines)

    def add(self, formula: Formula, just: Justification) -> int:
        self._lines.append(ProofLine(formula, just))
        return len(self._lines) - 1

    def formula(self, i: int) -> Formula:
        return self._lines[i].formula

    def taut(self, f: Formula) -> int:
        return self.add(f, Axiom(AxiomId.TAUT))

    def axiom(self, ax: AxiomId, f: Formula) -> int:
        return self.add(f, Axiom(ax))

    def hyp(self, i: int) -> int:
        return self.add(self._hyps[i], Hyp(i))

    def mp(self, antecedent: int, implication: int) -> int:
        imp = self.formula(implication)
        assert isinstance(imp, Implies) and imp.left == self.formula(antecedent)
        return self.add(imp.right, MP(antecedent, implication))

    def nec(self, i: int) -> int:
        return self.add(Know(self.formula(i)), Nec(i))

    def mono(self, rule: type[MonoD] | type[MonoR], i: int) -> int:
        src = self.formula(i)
        wrap = _MONO_WRAP[rule]
        return self.add(Implies(wrap(src.left), wrap(src.right)), rule(i))

    def chain(self, i: int, j: int) -> int:
        """From lines proving a -> b and b -> c, derive a -> c."""
        ab = self.formula(i)
        bc = self.formula(j)
        assert isinstance(ab, Implies) and isinstance(bc, Implies) and ab.right == bc.left
        goal = Implies(ab.left, bc.right)
        t = self.taut(Implies(ab, Implies(bc, goal)))
        x = self.mp(i, t)
        return self.mp(j, x)

    def script(self) -> ProofScript:
        return ProofScript(tuple(self._lines), self._hyps)


# ---------- constructive transformations ----------


def deduction(
    script: ProofScript, hyp_index: int, registry: Registry | None = None
) -> ProofScript:
    """Discharge the hypothesis at hyp_index.

    Given a hypothesis-mode proof of psi from hypotheses including phi (the
    one at hyp_index), produce a hypothesis-mode proof of phi -> psi from
    the remaining hypotheses, as _discharge builds it.  The input is checked
    first, and the output is checked before being returned.
    """
    if script.is_theorem_mode:
        raise ValueError("deduction applies to hypothesis-mode scripts")
    check(script, registry)
    if not 0 <= hyp_index < len(script.hypotheses):
        raise ValueError(f"no hypothesis at index {hyp_index}")
    return _discharge(script, (hyp_index,), registry)


def _discharge(
    script: ProofScript, gone: tuple[int, ...], registry: Registry | None
) -> ProofScript:
    """Discharge the hypotheses at the ascending indices gone in one pass;
    the others stay, renumbered.  With H(f) = phi_g0 -> (phi_g1 -> ... -> f),
    a line proving f maps to lines proving H(f): a discharged hypothesis to
    the tautology H(f); an axiom, citation or kept hypothesis to itself, the
    tautology f -> H(f) and modus ponens; modus ponens on a and a -> f to the
    tautology H(a) -> (H(a -> f) -> H(f)) and two modus ponens.  The input
    must check; the output is checked."""
    hyps = script.hypotheses
    phis = [hyps[g] for g in gone]
    kept = [i for i in range(len(hyps)) if i not in gone]
    renumber = {old: new for new, old in enumerate(kept)}

    def under(f: Formula) -> Formula:  # H(f)
        for phi in reversed(phis):
            f = Implies(phi, f)
        return f

    b = _Builder(tuple(hyps[i] for i in kept))
    mapped: dict[int, int] = {}  # source line -> output line proving H(formula)
    for k, line in enumerate(script.lines):
        psi = line.formula
        just = line.justification
        if isinstance(just, MP):
            i, j = mapped[just.antecedent], mapped[just.implication]
            t = b.taut(Implies(b.formula(i), Implies(b.formula(j), under(psi))))
            mapped[k] = b.mp(j, b.mp(i, t))
        elif isinstance(just, Hyp) and just.index not in renumber:
            mapped[k] = b.taut(under(psi))
        elif isinstance(just, (Hyp, Axiom, Cite)):
            t = b.add(psi, Hyp(renumber[just.index]) if isinstance(just, Hyp) else just)
            mapped[k] = b.mp(t, b.taut(Implies(psi, under(psi))))
        else:  # pragma: no cover - check() already rejected these
            raise ProofError(k, _rule_name(just), "not allowed in hypothesis mode")
    out = b.script()
    check(out, registry)
    return out


def _lift_name(conclusion: Formula) -> str:
    # imported here: hashlib is slow to import, and only lifting needs it
    import hashlib

    digest = hashlib.sha256(render(conclusion).encode("utf-8")).hexdigest()[:12]
    return f"k_distribution_{digest}"


def lift_knowledge(script: ProofScript, registry: Registry) -> ProofScript:
    """From a proof of psi under hypotheses phi_1..phi_n, build a proof of
    K psi under hypotheses K phi_1..K phi_n.

    With no hypotheses the result is a theorem-mode script ending in a
    necessitation step.  Otherwise all hypotheses are discharged in one
    pass, at about three lines per source line, and the discharged proof
    plus one necessitation step, proving K (phi_1 -> ... -> psi), is
    registered under a content-derived name.  The returned
    hypothesis-mode script cites it and peels one antecedent per
    hypothesis with a distribution axiom and modus ponens.

    Each line is checked once: the input, the discharge's output, the
    necessitation line added to it, and the returned script.  A script that
    checks in hypothesis mode with no hypotheses checks in theorem mode, so
    the lines before the necessitation line need no second check.  Each
    tautology of the discharge holds every hypothesis, so a lift whose
    hypotheses hold over 20 distinct K, R and D units and atoms raises
    ProofError.
    """
    if script.is_theorem_mode:
        raise ValueError("lift_knowledge applies to hypothesis-mode scripts")
    check(script, registry)
    hyps = script.hypotheses
    cur = _discharge(script, tuple(range(len(hyps))), registry) if hyps else script
    tb = _Builder(None, cur.lines)
    tb.nec(len(cur.lines) - 1)
    theorem = tb.script()
    _check_line(theorem, len(theorem.lines) - 1, registry)
    if not hyps:
        return theorem
    conclusion = theorem.conclusion  # K (phi_1 -> (phi_2 -> ... -> psi))
    name = _lift_name(conclusion)
    if name not in registry:
        registry._store(name, conclusion, theorem, conclusion)

    ob = _Builder(tuple(Know(h) for h in hyps))
    acc = ob.add(conclusion, Cite(name))
    for i in range(len(hyps)):
        imp = ob.formula(acc).child  # phi_i -> rest
        d = ob.axiom(AxiomId.DIST, Implies(Know(imp), Implies(Know(imp.left), Know(imp.right))))
        step = ob.mp(acc, d)  # K phi_i -> K rest
        acc = ob.mp(ob.hyp(i), step)
    out = ob.script()
    check(out, registry)
    if out.conclusion != Know(script.conclusion):
        raise AssertionError("lift_knowledge produced an unexpected conclusion")
    return out


# ---------- builtin derivations ----------

_P = Atom("p")


def _builtin_positive_introspection() -> ProofScript:
    # K p -> K K p, derived from Truth, Negative Introspection, and
    # Distributivity with necessitation
    b = _Builder(None)
    kp = Know(_P)
    nk = Not(kp)  # ~K p
    knk = Know(nk)  # K ~K p
    nknk = Not(knk)  # ~K ~K p
    l1 = b.axiom(AxiomId.TRUTH, Implies(knk, nk))
    l2 = b.taut(Implies(Implies(knk, nk), Implies(kp, nknk)))
    l3 = b.mp(l1, l2)  # K p -> ~K ~K p
    l4 = b.axiom(AxiomId.NEG_INTRO, Implies(nk, knk))
    l5 = b.taut(Implies(Implies(nk, knk), Implies(nknk, kp)))
    l6 = b.mp(l4, l5)  # ~K ~K p -> K p
    l7 = b.nec(l6)
    l8 = b.axiom(
        AxiomId.DIST,
        Implies(Know(Implies(nknk, kp)), Implies(Know(nknk), Know(kp))),
    )
    l9 = b.mp(l7, l8)  # K ~K ~K p -> K K p
    l10 = b.axiom(AxiomId.NEG_INTRO, Implies(nknk, Know(nknk)))
    l11 = b.chain(l3, l10)  # K p -> K ~K ~K p
    b.chain(l11, l9)  # K p -> K K p
    return b.script()


def _builtin_lemma_a(n: int) -> ProofScript:
    # D applied to an n-level awareness tower implies D of the core formula
    b = _Builder(None)
    cur = b.taut(Implies(DeDicto(_P), DeDicto(_P)))
    for k in range(1, n + 1):
        below = awareness_tower(_P, k - 1)
        ga = b.axiom(
            AxiomId.GEN_AWARE,
            Implies(DeDicto(Or(DeRe(below), DeDicto(below))), DeDicto(below)),
        )
        cur = b.chain(ga, cur)
    return b.script()


def _builtin_unaware_top(n: int) -> ProofScript:
    # nobody is aware, at any tower height, of the negation of truth
    nt = Not(Not(FALSE))  # ~true spelled out as ~~false
    b = _Builder(None)
    cur = b.taut(Not(nt))
    for k in range(n):
        tower = awareness_tower(nt, k)
        s1 = b.taut(Implies(Not(tower), Implies(tower, FALSE)))
        falls = b.mp(cur, s1)  # tower -> false
        unaware = []  # ~R tower, then ~D tower
        for rule, axiom in ((MonoR, AxiomId.UNAWARE_FALSE_R), (MonoD, AxiomId.UNAWARE_FALSE_D)):
            wrap = _MONO_WRAP[rule]
            lifted = b.mono(rule, falls)  # wrap tower -> wrap false
            no_false = b.axiom(axiom, Not(wrap(FALSE)))
            t = b.taut(
                Implies(
                    Implies(wrap(tower), wrap(FALSE)),
                    Implies(Not(wrap(FALSE)), Not(wrap(tower))),
                )
            )
            unaware.append(b.mp(no_false, b.mp(lifted, t)))
        not_r, not_d = unaware
        goal = Not(Or(DeRe(tower), DeDicto(tower)))
        j1 = b.taut(Implies(Not(DeRe(tower)), Implies(Not(DeDicto(tower)), goal)))
        j2 = b.mp(not_r, j1)
        cur = b.mp(not_d, j2)
    return b.script()


def _builtin_mono_a(m: int, n: int) -> ProofScript:
    # an m-level awareness tower implies any taller n-level tower
    if n < m:
        raise ValueError(f"mono_A requires n >= m, got m={m}, n={n}")
    base = awareness_tower(_P, m)
    b = _Builder(None)
    cur = b.taut(Implies(base, base))
    for k in range(n - m):
        tower = awareness_tower(base, k)
        sa = b.axiom(AxiomId.SELF_AWARE_R, Implies(tower, DeRe(tower)))
        widened = Implies(tower, Or(DeRe(tower), DeDicto(tower)))
        t = b.taut(Implies(Implies(tower, DeRe(tower)), widened))
        step = b.mp(sa, t)
        cur = b.chain(cur, step)
    return b.script()


# name -> (parameter count, unchecked builder)
_BUILTINS = {
    "positive_introspection": (0, _builtin_positive_introspection),
    "lemma_A": (1, _builtin_lemma_a),
    "unaware_top": (1, _builtin_unaware_top),
    "mono_A": (2, _builtin_mono_a),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, *params: int) -> ProofScript:
    """A checked theorem-mode script for one of the library derivations.

    positive_introspection (no parameters), lemma_A(n), unaware_top(n), and
    mono_A(m, n) with n >= m >= 0.  Inductive arguments are unrolled to the
    requested depth; the checker itself has no induction rule.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    count, build = _BUILTINS[name]
    script = build(*_int_params(name, params, count))
    check(script)
    return script


def _int_params(name: str, params: tuple[int, ...], count: int) -> tuple[int, ...]:
    if len(params) != count or any(not isinstance(p, int) or p < 0 for p in params):
        raise ValueError(f"{name} takes {count} nonnegative integer parameter(s)")
    return params


_PHI = MetaVar("PHI")


def default_registry() -> Registry:
    """Registry preloaded with the builtin derivations at small depths.

    The builtins are built and checked once per process; each call returns
    a new registry holding them, so what is registered into one registry
    never reaches another."""
    reg = Registry()
    reg._entries.update(_builtin_entries())
    return reg


@lru_cache(maxsize=None)
def _builtin_entries() -> tuple[tuple[str, TheoremEntry], ...]:
    """The builtin theorems, each proof checked as it is registered; the
    builders run unchecked."""
    reg = Registry()
    reg.register(
        "positive_introspection",
        parse("K PHI -> K K PHI"),
        _builtin_positive_introspection(),
        {"PHI": _P},
    )
    for n in range(4):
        reg.register(
            f"lemma_A_{n}",
            Implies(DeDicto(awareness_tower(_PHI, n)), DeDicto(_PHI)),
            _builtin_lemma_a(n),
            {"PHI": _P},
        )
        unaware_top = _builtin_unaware_top(n)
        reg.register(f"unaware_top_{n}", unaware_top.conclusion, unaware_top)
    for m, n in ((0, 1), (1, 3)):
        reg.register(
            f"mono_A_{m}_{n}",
            Implies(awareness_tower(_PHI, m), awareness_tower(_PHI, n)),
            _builtin_mono_a(m, n),
            {"PHI": _P},
        )
    return tuple(reg._entries.items())


# ---------- proof files ----------


class ProofFileError(ValueError):
    """Raised when a proof file cannot be parsed (distinct from check failures)."""

    def __init__(self, lineno: int, reason: str):
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"proof file line {lineno}: {reason}")


_LINE_RE = re.compile(r"(\d+)\s*:\s*(.*)$")
# the greedy head splits at the last "by" with whitespace on both sides
_BY_RE = re.compile(r"(.*)\sby\s(.*)")
_KEYWORD_TO_AXIOM = {ax.value: ax for ax in AxiomId}
_KEYWORD_TO_RULE = {keyword: rule for rule, keyword in _INDEX_RULES.items()}


def parse_proof(text: str) -> tuple[str | None, ProofScript]:
    """Parse the line-oriented proof format; returns (name, script).

    The header is either ``theorem <name>`` or ``from f1; f2; ...`` (the
    hypothesis list may be empty).  Numbered lines follow, ``<n>: <formula>
    by <justification>``, numbered consecutively from 1; a line splits at
    its last ``by`` with whitespace on both sides.  References use those
    numbers, and ``hyp <i>`` counts hypotheses from 1.  ``#`` starts
    a comment.  The header keyword is followed by whitespace or ends the
    line.  Every formula of the file is parsed through one node table, so
    equal subformulas anywhere in the file are one object.
    """
    table: dict = {}
    header: str | None = None
    name: str | None = None
    hypotheses: tuple[Formula, ...] | None = None
    lines: list[ProofLine] = []
    expected_number = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if header is None:
            keyword = stripped.split(None, 1)[0]
            if keyword == "theorem":
                name = stripped[len("theorem") :].strip()
                if not name:
                    raise ProofFileError(lineno, "theorem header needs a name")
                hypotheses = None
            elif keyword == "from":
                rest = stripped[len("from") :].strip()
                hyps = []
                if rest:
                    for part in rest.split(";"):
                        part = part.strip()
                        if not part:
                            continue
                        try:
                            hyps.append(parse(part, _table=table))
                        except ParseError as exc:
                            raise ProofFileError(lineno, f"bad hypothesis: {exc}") from None
                hypotheses = tuple(hyps)
            else:
                raise ProofFileError(lineno, "expected a 'theorem <name>' or 'from ...' header")
            header = stripped
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise ProofFileError(lineno, "expected '<n>: <formula> by <justification>'")
        number = int(m.group(1))
        if number != expected_number:
            raise ProofFileError(
                lineno, f"lines must be numbered consecutively; expected {expected_number}"
            )
        expected_number += 1
        by = _BY_RE.fullmatch(m.group(2))
        if not by:
            raise ProofFileError(lineno, "missing 'by <justification>'")
        formula_text, just_text = by.groups()
        try:
            formula = parse(formula_text.strip(), _table=table)
        except ParseError as exc:
            raise ProofFileError(lineno, f"bad formula: {exc}") from None
        lines.append(ProofLine(formula, _parse_just(just_text.strip(), lineno, table)))
    if header is None:
        raise ProofFileError(1, "empty proof file")
    if not lines:
        raise ProofFileError(1, "proof file has a header but no lines")
    return name, ProofScript(tuple(lines), hypotheses)


def _parse_just(text: str, lineno: int, table: dict) -> Justification:
    # never blank: the line is stripped and "by" has whitespace after it
    parts = text.split(None, 1)
    head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
    if head in _KEYWORD_TO_AXIOM:
        if rest:
            raise ProofFileError(lineno, f"{head} takes no arguments")
        return Axiom(_KEYWORD_TO_AXIOM[head])
    rule = _KEYWORD_TO_RULE.get(head)
    if rule is not None:
        return rule(*_ref(rest, len(rule.__match_args__), lineno, head))
    if head == "cite":
        m = re.fullmatch(r"(\S+)(?:\s*\[(.*)\])?", rest.strip())
        if not m:
            raise ProofFileError(lineno, "expected 'cite <name> [<var>=<formula>, ...]'")
        cite_name, raw_subst = m.group(1), m.group(2)
        subst: dict[str, Formula] = {}
        if raw_subst:
            for item in raw_subst.split(","):
                if "=" not in item:
                    raise ProofFileError(lineno, f"bad substitution item {item.strip()!r}")
                var, val = item.split("=", 1)
                try:
                    subst[var.strip()] = parse(val.strip(), _table=table)
                except ParseError as exc:
                    raise ProofFileError(lineno, f"bad substitution formula: {exc}") from None
        return Cite(cite_name, subst)
    raise ProofFileError(lineno, f"unknown justification {head!r}")


def _ref(rest: str, count: int, lineno: int, rule: str) -> list[int]:
    """The count line or hypothesis numbers of rest, each 1 or more, as
    0-based indices."""
    parts = rest.split()
    # a decimal digit is one that int() reads; a superscript digit is not
    if len(parts) == count and all(map(str.isdecimal, parts)):
        indices = [int(p) - 1 for p in parts]
        if min(indices) >= 0:
            return indices
    raise ProofFileError(lineno, f"{rule} takes {count} positive line number(s)")


def format_proof(script: ProofScript, name: str | None = None) -> str:
    """Serialize a script to the proof file format (inverse of parse_proof)."""
    out = []
    if script.is_theorem_mode:
        out.append(f"theorem {name or 'unnamed'}")
    else:
        hyps = "; ".join(render(h) for h in script.hypotheses)
        out.append(f"from {hyps}" if hyps else "from")
    out.append("")
    for k, line in enumerate(script.lines, start=1):
        out.append(f"{k}: {render(line.formula)} by {_format_just(line.justification)}")
    return "\n".join(out) + "\n"


def _format_just(just: Justification) -> str:
    if isinstance(just, Axiom):
        return just.axiom.value
    if isinstance(just, Cite):
        if just.substitution:
            items = ", ".join(
                f"{var}={render(val)}" for var, val in sorted(just.substitution.items())
            )
            return f"cite {just.name} [{items}]"
        return f"cite {just.name}"
    keyword = _INDEX_RULES.get(type(just))
    if keyword is None:
        raise TypeError(f"unknown justification {just!r}")
    return " ".join([keyword, *(str(i + 1) for i in just._values())])
