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

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(frozen=True)
class Axiom:
    axiom: AxiomId


@dataclass(frozen=True)
class Hyp:
    index: int


@dataclass(frozen=True)
class MP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class Nec:
    source: int


@dataclass(frozen=True)
class MonoD:
    source: int


@dataclass(frozen=True)
class MonoR:
    source: int


@dataclass(frozen=True)
class Cite:
    name: str
    substitution: dict[str, Formula] = field(default_factory=dict)


Justification = Axiom | Hyp | MP | Nec | MonoD | MonoR | Cite


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofScript:
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


@dataclass(frozen=True)
class TheoremEntry:
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
        conclusion = check(proof, self)
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
    if isinstance(just, Hyp):
        return "hyp"
    if isinstance(just, MP):
        return "mp"
    if isinstance(just, Nec):
        return "nec"
    if isinstance(just, MonoD):
        return "monoD"
    if isinstance(just, MonoR):
        return "monoR"
    return "cite"


def check(script: ProofScript, registry: Registry | None = None) -> Formula:
    """Verify every line of the script and return the conclusion.

    Raises ProofError naming the first failing line, its rule, and why.
    """
    if not script.lines:
        raise ProofError(None, "script", "a proof needs at least one line")
    hyp_mode = not script.is_theorem_mode
    lines = script.lines

    def earlier(k: int, i: int, rule: str):
        if not 0 <= i < k:
            raise ProofError(k, rule, f"reference to line {i + 1} is not strictly earlier")

    for k, line in enumerate(lines):
        just = line.justification
        rule = _rule_name(just)
        if hyp_mode and isinstance(just, (Nec, MonoD, MonoR)):
            raise ProofError(
                k,
                rule,
                "only modus ponens, axioms, hypotheses, and citations are "
                "allowed when deriving from hypotheses",
            )
        if isinstance(just, Axiom):
            if just.axiom is AxiomId.TAUT:
                if not is_tautology(line.formula):
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
            earlier(k, just.antecedent, rule)
            earlier(k, just.implication, rule)
            imp = lines[just.implication].formula
            want = Implies(lines[just.antecedent].formula, line.formula)
            if imp != want:
                raise ProofError(
                    k,
                    rule,
                    f"line {just.implication + 1} is {render(imp)}, expected {render(want)}",
                )
        elif isinstance(just, Nec):
            earlier(k, just.source, rule)
            if line.formula != Know(lines[just.source].formula):
                raise ProofError(
                    k,
                    rule,
                    f"expected K applied to line {just.source + 1}",
                )
        elif isinstance(just, (MonoD, MonoR)):
            earlier(k, just.source, rule)
            src = lines[just.source].formula
            if not isinstance(src, Implies):
                raise ProofError(k, rule, f"line {just.source + 1} is not an implication")
            wrap = DeDicto if isinstance(just, MonoD) else DeRe
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
    return lines[-1].formula


# ---------- construction helper ----------


class _Builder:
    """Append-only proof construction; indices are returned as lines are added."""

    def __init__(self, hypotheses: tuple[Formula, ...] | None):
        self._hyps = hypotheses
        self._lines: list[ProofLine] = []

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

    def cite(self, name: str, subst: dict[str, Formula], f: Formula) -> int:
        return self.add(f, Cite(name, dict(subst)))

    def mp(self, antecedent: int, implication: int) -> int:
        imp = self.formula(implication)
        assert isinstance(imp, Implies) and imp.left == self.formula(antecedent)
        return self.add(imp.right, MP(antecedent, implication))

    def nec(self, i: int) -> int:
        return self.add(Know(self.formula(i)), Nec(i))

    def mono_d(self, i: int) -> int:
        src = self.formula(i)
        return self.add(Implies(DeDicto(src.left), DeDicto(src.right)), MonoD(i))

    def mono_r(self, i: int) -> int:
        src = self.formula(i)
        return self.add(Implies(DeRe(src.left), DeRe(src.right)), MonoR(i))

    def weaken(self, i: int, extra: Formula) -> int:
        """From line i proving f, derive extra -> f."""
        f = self.formula(i)
        t = self.taut(Implies(f, Implies(extra, f)))
        return self.mp(i, t)

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
    the remaining hypotheses.  Each source line is mapped by case: theorem
    lines and surviving hypotheses are weakened under phi, the discharged
    hypothesis becomes the tautology phi -> phi, and modus ponens steps are
    replayed through the composition tautology with two modus ponens
    applications.  The output is re-checked before being returned.
    """
    if script.is_theorem_mode:
        raise ValueError("deduction applies to hypothesis-mode scripts")
    check(script, registry)
    hyps = script.hypotheses
    if not 0 <= hyp_index < len(hyps):
        raise ValueError(f"no hypothesis at index {hyp_index}")
    phi = hyps[hyp_index]
    rest = hyps[:hyp_index] + hyps[hyp_index + 1 :]
    b = _Builder(rest)
    mapped: dict[int, int] = {}  # source line -> output line proving phi -> formula
    for k, line in enumerate(script.lines):
        psi = line.formula
        just = line.justification
        if isinstance(just, Hyp) and just.index == hyp_index:
            mapped[k] = b.taut(Implies(phi, phi))
        elif isinstance(just, Hyp):
            new_index = just.index if just.index < hyp_index else just.index - 1
            t = b.add(psi, Hyp(new_index))
            mapped[k] = b.weaken(t, phi)
        elif isinstance(just, (Axiom, Cite)):
            t = b.add(psi, just)
            mapped[k] = b.weaken(t, phi)
        elif isinstance(just, MP):
            psi_i = script.lines[just.antecedent].formula
            goal = Implies(phi, psi)
            t = b.taut(
                Implies(
                    Implies(phi, psi_i),
                    Implies(Implies(phi, Implies(psi_i, psi)), goal),
                )
            )
            step = b.mp(mapped[just.antecedent], t)
            mapped[k] = b.mp(mapped[just.implication], step)
        else:  # pragma: no cover - check() already rejected these
            raise ProofError(k, _rule_name(just), "not allowed in hypothesis mode")
    out = b.script()
    check(out, registry)
    return out


def _lift_name(conclusion: Formula) -> str:
    digest = hashlib.sha256(render(conclusion).encode("utf-8")).hexdigest()[:12]
    return f"k_distribution_{digest}"


def lift_knowledge(script: ProofScript, registry: Registry) -> ProofScript:
    """From a proof of psi under hypotheses phi_1..phi_n, build a proof of
    K psi under hypotheses K phi_1..K phi_n.

    With no hypotheses the result is a theorem-mode script ending in a
    necessitation step.  Otherwise the hypotheses are discharged one by one,
    the resulting implication chain is necessitated and distributed over K
    in theorem mode, that theorem is registered under a content-derived
    name, and the returned hypothesis-mode script cites it and restores the
    hypotheses by modus ponens.  Outputs are re-checked before return.
    """
    if script.is_theorem_mode:
        raise ValueError("lift_knowledge applies to hypothesis-mode scripts")
    check(script, registry)
    hyps = script.hypotheses
    psi = script.conclusion

    if not hyps:
        b = _Builder(None)
        for line in script.lines:
            b.add(line.formula, line.justification)
        b.nec(len(script.lines) - 1)
        out = b.script()
        check(out, registry)
        return out

    cur = script
    for i in range(len(hyps) - 1, -1, -1):
        cur = deduction(cur, i, registry)
    nested = cur.conclusion  # phi_1 -> (phi_2 -> ... -> psi)

    tb = _Builder(None)
    for line in cur.lines:
        tb.add(line.formula, line.justification)
    k_nested = tb.nec(len(cur.lines) - 1)

    # peel the implication chain, pushing K through one antecedent at a time
    def dist_instance(imp: Implies) -> Formula:
        return Implies(
            Know(imp), Implies(Know(imp.left), Know(imp.right))
        )

    d = tb.axiom(AxiomId.DIST, dist_instance(nested))
    acc = tb.mp(k_nested, d)  # K phi_1 -> K rest
    rest = nested.right
    prefix: list[Formula] = [Know(nested.left)]
    while isinstance(rest, Implies) and len(prefix) < len(hyps):
        d = tb.axiom(AxiomId.DIST, dist_instance(rest))
        # (K rest -> (K phi_j -> K tail)) lets the accumulated nested
        # implication swap its innermost consequent, propositionally
        old = tb.formula(acc)
        new = _replace_consequent(old, len(prefix), tb.formula(d).right)
        t = tb.taut(Implies(tb.formula(d), Implies(old, new)))
        step = tb.mp(d, t)
        acc = tb.mp(acc, step)
        prefix.append(Know(rest.left))
        rest = rest.right
    theorem = tb.script()
    conclusion = theorem.conclusion
    name = _lift_name(conclusion)
    if name not in registry:
        registry.register(name, conclusion, theorem)

    ob = _Builder(tuple(Know(h) for h in hyps))
    acc = ob.cite(name, {}, conclusion)
    for i in range(len(hyps)):
        h = ob.hyp(i)
        acc = ob.mp(h, acc)
    out = ob.script()
    check(out, registry)
    if out.conclusion != Know(psi):
        raise AssertionError("lift_knowledge produced an unexpected conclusion")
    return out


def _replace_consequent(nested: Formula, depth: int, new_tail: Formula) -> Formula:
    """Rebuild a right-nested implication with its depth-th consequent replaced."""
    if depth == 0:
        return new_tail
    assert isinstance(nested, Implies)
    return Implies(nested.left, _replace_consequent(nested.right, depth - 1, new_tail))


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
        r1 = b.mono_r(falls)  # R tower -> R false
        r2 = b.axiom(AxiomId.UNAWARE_FALSE_R, Not(DeRe(FALSE)))
        r3 = b.taut(
            Implies(
                Implies(DeRe(tower), DeRe(FALSE)),
                Implies(Not(DeRe(FALSE)), Not(DeRe(tower))),
            )
        )
        r4 = b.mp(r1, r3)
        not_r = b.mp(r2, r4)  # ~R tower
        d1 = b.mono_d(falls)
        d2 = b.axiom(AxiomId.UNAWARE_FALSE_D, Not(DeDicto(FALSE)))
        d3 = b.taut(
            Implies(
                Implies(DeDicto(tower), DeDicto(FALSE)),
                Implies(Not(DeDicto(FALSE)), Not(DeDicto(tower))),
            )
        )
        d4 = b.mp(d1, d3)
        not_d = b.mp(d2, d4)  # ~D tower
        goal = Not(Or(DeRe(tower), DeDicto(tower)))
        j1 = b.taut(Implies(Not(DeRe(tower)), Implies(Not(DeDicto(tower)), goal)))
        j2 = b.mp(not_r, j1)
        cur = b.mp(not_d, j2)
    return b.script()


def _builtin_mono_a(m: int, n: int) -> ProofScript:
    # an m-level awareness tower implies any taller n-level tower (n >= m)
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


BUILTIN_NAMES = ("positive_introspection", "lemma_A", "unaware_top", "mono_A")


def builtin(name: str, *params: int) -> ProofScript:
    """A checked theorem-mode script for one of the library derivations.

    positive_introspection (no parameters), lemma_A(n), unaware_top(n), and
    mono_A(m, n) with n >= m >= 0.  Inductive arguments are unrolled to the
    requested depth; the checker itself has no induction rule.
    """
    if name == "positive_introspection":
        if params:
            raise ValueError("positive_introspection takes no parameters")
        script = _builtin_positive_introspection()
    elif name == "lemma_A":
        (n,) = _int_params(name, params, 1)
        script = _builtin_lemma_a(n)
    elif name == "unaware_top":
        (n,) = _int_params(name, params, 1)
        script = _builtin_unaware_top(n)
    elif name == "mono_A":
        m, n = _int_params(name, params, 2)
        if n < m:
            raise ValueError(f"mono_A requires n >= m, got m={m}, n={n}")
        script = _builtin_mono_a(m, n)
    else:
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    check(script)
    return script


def _int_params(name: str, params: tuple[int, ...], count: int) -> tuple[int, ...]:
    if len(params) != count or any(not isinstance(p, int) or p < 0 for p in params):
        raise ValueError(f"{name} takes {count} nonnegative integer parameter(s)")
    return params


_PHI = MetaVar("PHI")


def default_registry() -> Registry:
    """Registry preloaded with the builtin derivations at small depths."""
    reg = Registry()
    reg.register(
        "positive_introspection",
        parse("K PHI -> K K PHI"),
        builtin("positive_introspection"),
        {"PHI": _P},
    )
    for n in range(4):
        reg.register(
            f"lemma_A_{n}",
            Implies(DeDicto(awareness_tower(_PHI, n)), DeDicto(_PHI)),
            builtin("lemma_A", n),
            {"PHI": _P},
        )
        unaware_top = builtin("unaware_top", n)
        reg.register(f"unaware_top_{n}", unaware_top.conclusion, unaware_top)
    for m, n in ((0, 1), (1, 3)):
        reg.register(
            f"mono_A_{m}_{n}",
            Implies(awareness_tower(_PHI, m), awareness_tower(_PHI, n)),
            builtin("mono_A", m, n),
            {"PHI": _P},
        )
    return reg


# ---------- proof files ----------


class ProofFileError(ValueError):
    """Raised when a proof file cannot be parsed (distinct from check failures)."""

    def __init__(self, lineno: int, reason: str):
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"proof file line {lineno}: {reason}")


_LINE_RE = re.compile(r"(\d+)\s*:\s*(.*)$")
_KEYWORD_TO_AXIOM = {ax.value: ax for ax in AxiomId}


def parse_proof(text: str) -> tuple[str | None, ProofScript]:
    """Parse the line-oriented proof format; returns (name, script).

    The header is either ``theorem <name>`` or ``from f1; f2; ...`` (the
    hypothesis list may be empty).  Numbered lines follow, ``<n>: <formula>
    by <justification>``, numbered consecutively from 1; references use
    those numbers, and ``hyp <i>`` counts hypotheses from 1.  ``#`` starts
    a comment.
    """
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
            if stripped.startswith("theorem"):
                name = stripped[len("theorem") :].strip()
                if not name:
                    raise ProofFileError(lineno, "theorem header needs a name")
                hypotheses = None
            elif stripped == "from" or stripped.startswith("from "):
                rest = stripped[len("from") :].strip()
                hyps = []
                if rest:
                    for part in rest.split(";"):
                        part = part.strip()
                        if not part:
                            continue
                        try:
                            hyps.append(parse(part))
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
        body = m.group(2)
        if " by " not in body:
            raise ProofFileError(lineno, "missing 'by <justification>'")
        formula_text, just_text = body.rsplit(" by ", 1)
        try:
            formula = parse(formula_text.strip())
        except ParseError as exc:
            raise ProofFileError(lineno, f"bad formula: {exc}") from None
        lines.append(ProofLine(formula, _parse_just(just_text.strip(), lineno)))
    if header is None:
        raise ProofFileError(1, "empty proof file")
    if not lines:
        raise ProofFileError(1, "proof file has a header but no lines")
    return name, ProofScript(tuple(lines), hypotheses)


def _parse_just(text: str, lineno: int) -> Justification:
    parts = text.split(None, 1)
    if not parts:
        raise ProofFileError(lineno, "empty justification")
    head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
    if head in _KEYWORD_TO_AXIOM:
        if rest:
            raise ProofFileError(lineno, f"{head} takes no arguments")
        return Axiom(_KEYWORD_TO_AXIOM[head])
    if head == "hyp":
        return Hyp(_ref(rest, 1, lineno, "hyp")[0] - 1)
    if head == "mp":
        i, j = _ref(rest, 2, lineno, "mp")
        return MP(i - 1, j - 1)
    if head == "nec":
        return Nec(_ref(rest, 1, lineno, "nec")[0] - 1)
    if head == "monoD":
        return MonoD(_ref(rest, 1, lineno, "monoD")[0] - 1)
    if head == "monoR":
        return MonoR(_ref(rest, 1, lineno, "monoR")[0] - 1)
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
                    subst[var.strip()] = parse(val.strip())
                except ParseError as exc:
                    raise ProofFileError(lineno, f"bad substitution formula: {exc}") from None
        return Cite(cite_name, subst)
    raise ProofFileError(lineno, f"unknown justification {head!r}")


def _ref(rest: str, count: int, lineno: int, rule: str) -> tuple[int, ...]:
    parts = rest.split()
    if len(parts) != count or not all(p.isdigit() and int(p) >= 1 for p in parts):
        raise ProofFileError(lineno, f"{rule} takes {count} positive line number(s)")
    return tuple(int(p) for p in parts)


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
    if isinstance(just, Hyp):
        return f"hyp {just.index + 1}"
    if isinstance(just, MP):
        return f"mp {just.antecedent + 1} {just.implication + 1}"
    if isinstance(just, Nec):
        return f"nec {just.source + 1}"
    if isinstance(just, MonoD):
        return f"monoD {just.source + 1}"
    if isinstance(just, MonoR):
        return f"monoR {just.source + 1}"
    if isinstance(just, Cite):
        if just.substitution:
            items = ", ".join(
                f"{var}={render(val)}" for var, val in sorted(just.substitution.items())
            )
            return f"cite {just.name} [{items}]"
        return f"cite {just.name}"
    raise TypeError(f"unknown justification {just!r}")
