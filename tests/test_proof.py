import random
import time
from collections import Counter

import pytest

from awarekit.checker import valid_in_model
from awarekit.model import Bounds, random_model
from awarekit.proof import (
    AXIOM_SCHEMAS,
    Axiom,
    AxiomId,
    Cite,
    Hyp,
    MP,
    MonoD,
    MonoR,
    Nec,
    ProofError,
    ProofFileError,
    ProofLine,
    ProofScript,
    Registry,
    _discharge,
    builtin,
    check,
    deduction,
    default_registry,
    format_proof,
    lift_knowledge,
    parse_proof,
)
from awarekit.search import ValidUpToBounds, decide_bounded, random_formula
from awarekit.syntax import (
    Atom,
    DeDicto,
    DeRe,
    Implies,
    Know,
    _program,
    instantiate,
    metavariables,
    parse,
    render,
)

from conftest import PROOFS, REPO

P = Atom("p")
Q = Atom("q")


def random_mp_proof(rng, n_hyps=None, steps=6, registry=None):
    """A random hypothesis-mode script that checks by construction.

    Moves: restate a hypothesis, add a weakening tautology x -> (y -> x)
    over proven formulas, add an axiom instance, cite a registered theorem,
    or apply modus ponens to a proven implication with a proven antecedent.
    """
    if n_hyps is None:
        n_hyps = rng.randint(1, 3)
    hyps = tuple(random_formula(rng, ("p", "q"), 2) for _ in range(n_hyps))
    lines = [ProofLine(hyps[i], Hyp(i)) for i in range(n_hyps)]
    if not lines:
        lines.append(ProofLine(parse("p -> p"), Axiom(AxiomId.TAUT)))

    def proven(i):
        return lines[i].formula

    for _ in range(steps):
        move = rng.choice(["weaken", "axiom", "mp", "hyp", "cite"])
        if move == "hyp" and hyps:
            i = rng.randrange(len(hyps))
            lines.append(ProofLine(hyps[i], Hyp(i)))
        elif move == "weaken":
            i = rng.randrange(len(lines))
            g = random_formula(rng, ("p", "q"), 1)
            taut = Implies(proven(i), Implies(g, proven(i)))
            lines.append(ProofLine(taut, Axiom(AxiomId.TAUT)))
            lines.append(ProofLine(Implies(g, proven(i)), MP(i, len(lines) - 1)))
        elif move == "axiom":
            ax = rng.choice([AxiomId.TRUTH, AxiomId.SELF_AWARE_R, AxiomId.GEN_AWARE])
            from awarekit.syntax import instantiate, metavariables

            schema = AXIOM_SCHEMAS[ax]
            subst = {
                mv: random_formula(rng, ("p", "q"), 1)
                for mv in sorted(metavariables(schema))
            }
            lines.append(ProofLine(instantiate(schema, subst), Axiom(ax)))
        elif move == "cite" and registry is not None:
            f = random_formula(rng, ("p", "q"), 1)
            lines.append(
                ProofLine(
                    Implies(Know(f), Know(Know(f))),
                    Cite("positive_introspection", {"PHI": f}),
                )
            )
        else:
            pairs = [
                (i, j)
                for j in range(len(lines))
                if isinstance(proven(j), Implies)
                for i in range(len(lines))
                if proven(i) == proven(j).left and i != j
            ]
            if pairs:
                i, j = pairs[rng.randrange(len(pairs))]
                lines.append(ProofLine(proven(j).right, MP(i, j)))
    return ProofScript(tuple(lines), hyps)


def random_theorem_proof(rng, steps=8):
    """A random theorem-mode script using all four rules, valid by construction."""
    from awarekit.syntax import instantiate, metavariables

    lines = [ProofLine(parse("p -> p"), Axiom(AxiomId.TAUT))]

    def proven(i):
        return lines[i].formula

    for _ in range(steps):
        move = rng.choice(["weaken", "axiom", "mp", "nec", "monoD", "monoR"])
        if move == "weaken":
            i = rng.randrange(len(lines))
            g = random_formula(rng, ("p", "q"), 1)
            taut = Implies(proven(i), Implies(g, proven(i)))
            lines.append(ProofLine(taut, Axiom(AxiomId.TAUT)))
            lines.append(ProofLine(Implies(g, proven(i)), MP(i, len(lines) - 1)))
        elif move == "axiom":
            ax = rng.choice(list(NON_TAUT_IDS))
            schema = AXIOM_SCHEMAS[ax]
            subst = {
                mv: random_formula(rng, ("p", "q"), 1)
                for mv in sorted(metavariables(schema))
            }
            lines.append(ProofLine(instantiate(schema, subst), Axiom(ax)))
        elif move == "nec":
            i = rng.randrange(len(lines))
            lines.append(ProofLine(Know(proven(i)), Nec(i)))
        elif move in ("monoD", "monoR"):
            imps = [i for i in range(len(lines)) if isinstance(proven(i), Implies)]
            if imps:
                i = imps[rng.randrange(len(imps))]
                src = proven(i)
                if move == "monoD":
                    from awarekit.syntax import DeDicto

                    lines.append(
                        ProofLine(Implies(DeDicto(src.left), DeDicto(src.right)), MonoD(i))
                    )
                else:
                    from awarekit.syntax import DeRe

                    lines.append(
                        ProofLine(Implies(DeRe(src.left), DeRe(src.right)), MonoR(i))
                    )
        else:
            pairs = [
                (i, j)
                for j in range(len(lines))
                if isinstance(proven(j), Implies)
                for i in range(len(lines))
                if proven(i) == proven(j).left and i != j
            ]
            if pairs:
                i, j = pairs[rng.randrange(len(pairs))]
                lines.append(ProofLine(proven(j).right, MP(i, j)))
    return ProofScript(tuple(lines), None)


NON_TAUT_IDS = tuple(ax for ax in AxiomId if ax is not AxiomId.TAUT)
TAUT_SCHEMAS = tuple(
    parse(text)
    for text in (
        "PHI -> PHI",
        "PHI -> PSI -> PHI",
        "(PHI -> PSI -> CHI) -> (PHI -> PSI) -> PHI -> CHI",
        "~~PHI -> PHI",
        "PHI | ~PHI",
    )
)


def random_candidate(rng, lines):
    """A random theorem-mode line to follow lines, which check mostly rejects.

    A tautology instance or a random formula by taut; an axiom instance,
    half the time claimed as a random axiom; or mp, nec, monoD or monoR with
    random line references, to this line itself one time in four, stating
    what the rule would give from the referenced lines.
    """
    k = len(lines)

    def formula():
        return random_formula(rng, ("p", "q"), rng.choice((1, 2)))

    def instance(schema):
        return instantiate(schema, {mv: formula() for mv in sorted(metavariables(schema))})

    def ref():  # this line itself one time in four
        i = k if not k or rng.random() < 0.25 else rng.randrange(k)
        return i, (lines[i].formula if i < k else formula())

    move = rng.choice(("taut", "axiom", "mp", "mp", "nec", "monoD", "monoR"))
    if move == "taut":
        schema = rng.choice(TAUT_SCHEMAS + (None,))
        return ProofLine(formula() if schema is None else instance(schema), Axiom(AxiomId.TAUT))
    if move == "axiom":
        ax = rng.choice(NON_TAUT_IDS)
        claimed = ax if rng.random() < 0.5 else rng.choice(NON_TAUT_IDS)
        return ProofLine(instance(AXIOM_SCHEMAS[ax]), Axiom(claimed))
    if move == "mp":
        (i, _), (j, imp) = ref(), ref()
        return ProofLine(imp.right if isinstance(imp, Implies) else formula(), MP(i, j))
    i, src = ref()
    if move == "nec":
        return ProofLine(Know(src), Nec(i))
    rule, wrap = (MonoD, DeDicto) if move == "monoD" else (MonoR, DeRe)
    if not isinstance(src, Implies):
        return ProofLine(formula(), rule(i))
    return ProofLine(Implies(wrap(src.left), wrap(src.right)), rule(i))


class TestProofSoundness:
    def test_theorem_conclusions_hold_everywhere(self):
        # the executable face of soundness: whatever checks in theorem mode
        # is true at every present point of random models
        rng = random.Random(2718)
        bounds = Bounds(3, 3, ("p", "q"))
        models = [random_model(s, bounds) for s in range(20)]
        for _ in range(60):
            script = random_theorem_proof(rng)
            conclusion = check(script)
            for m in models:
                assert valid_in_model(m, conclusion)

    def test_whatever_check_accepts_is_valid_up_to_bounds(self):
        # the soundness theorem as a property: scripts grow by random
        # candidate lines, and each candidate that check accepts ends a
        # script check accepts, so its formula holds in every model of the
        # (2,2) bounds
        rng = random.Random(31415)
        bounds = Bounds(2, 2, ("p", "q"))
        verdicts = {}
        accepted = rejected = 0
        for _ in range(200):
            lines = []
            for _ in range(12):
                script = ProofScript((*lines, random_candidate(rng, lines)), None)
                try:
                    conclusion = check(script)
                except ProofError:
                    rejected += 1
                    continue
                accepted += 1
                lines = script.lines
                if conclusion not in verdicts:
                    verdicts[conclusion] = decide_bounded(conclusion, bounds)
                assert isinstance(verdicts[conclusion], ValidUpToBounds), format_proof(script)
        assert accepted >= 500 and rejected >= 1000

    def test_hypothesis_mode_is_locally_sound(self):
        # wherever all hypotheses hold, the conclusion holds
        from awarekit.checker import satisfies

        rng = random.Random(1618)
        reg = default_registry()
        bounds = Bounds(3, 3, ("p", "q"))
        models = [random_model(s, bounds) for s in range(20)]
        for _ in range(40):
            script = random_mp_proof(rng, registry=reg)
            conclusion = check(script, reg)
            for m in models:
                for pt in m.points():
                    if all(satisfies(m, pt, h) for h in script.hypotheses):
                        assert satisfies(m, pt, conclusion)


class TestCheck:
    def test_builtin_positive_introspection(self):
        assert render(check(builtin("positive_introspection"))) == "K p -> K K p"

    def test_unjustified_first_line(self):
        script = ProofScript(
            (ProofLine(P, Hyp(0)), ProofLine(Know(P), Nec(0))), None
        )
        with pytest.raises(ProofError) as exc:
            check(script)
        assert exc.value.line_index == 0

    def test_nec_forbidden_under_hypotheses(self):
        script = ProofScript(
            (ProofLine(P, Hyp(0)), ProofLine(Know(P), Nec(0))), (P,)
        )
        with pytest.raises(ProofError) as exc:
            check(script)
        assert exc.value.line_index == 1 and exc.value.rule == "nec"

    def test_mono_rules_forbidden_under_hypotheses(self):
        imp = parse("p -> q")
        for just in (MonoD(0), MonoR(0)):
            script = ProofScript(
                (ProofLine(imp, Hyp(0)), ProofLine(parse("D p -> D q"), just)), (imp,)
            )
            with pytest.raises(ProofError):
                check(script)

    def test_empty_script(self):
        with pytest.raises(ProofError):
            check(ProofScript((), None))

    def test_forward_reference_rejected(self):
        script = ProofScript(
            (
                ProofLine(Q, MP(1, 2)),
                ProofLine(P, Axiom(AxiomId.TAUT)),
            ),
            None,
        )
        with pytest.raises(ProofError) as exc:
            check(script)
        assert "strictly earlier" in exc.value.reason

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("1: p -> p by taut\n2: p by mp 2 1", "line 2: mp: reference to line 2 is not strictly earlier"),
            ("1: p -> p by taut\n2: p by mp 1 2", "line 2: mp: reference to line 2 is not strictly earlier"),
            ("1: p -> p by taut\n2: K (p -> p) by nec 2", "line 2: nec: reference to line 2 is not strictly earlier"),
            ("1: p -> p by taut\n2: D p -> D p by monoD 2", "line 2: monoD: reference to line 2 is not strictly earlier"),
            ("1: p -> p by taut\n2: R p -> R p by monoR 2", "line 2: monoR: reference to line 2 is not strictly earlier"),
            (
                "1: p -> p by taut\n2: q -> q by taut\n3: p by mp 2 1",
                "line 3: mp: line 1 is p -> p, expected (q -> q) -> p",
            ),
        ],
        ids=["mp-antecedent-self", "mp-implication-self", "nec-self", "monoD-self", "monoR-self", "mp-other-antecedent"],
    )
    def test_unsound_step_rejected(self, lines, message):
        # a rule cites only earlier lines, and mp only an antecedent equal to
        # the implication's left side; accepted, the first and last would prove p
        _, script = parse_proof(f"theorem t\n{lines}\n")
        with pytest.raises(ProofError) as exc:
            check(script)
        assert str(exc.value) == message

    def test_bad_taut_rejected(self):
        script = ProofScript((ProofLine(parse("K p -> p"), Axiom(AxiomId.TAUT)),), None)
        with pytest.raises(ProofError) as exc:
            check(script)
        assert exc.value.rule == "taut"

    def test_taut_over_too_many_variables_is_a_proof_error(self):
        big = parse(" -> ".join(f"p{i}" for i in range(21)) + " -> p0")
        script = ProofScript(
            (
                ProofLine(parse("p -> p"), Axiom(AxiomId.TAUT)),
                ProofLine(big, Axiom(AxiomId.TAUT)),
            ),
            None,
        )
        with pytest.raises(ProofError) as exc:
            check(script)
        assert (exc.value.line_index, exc.value.rule) == (1, "taut")
        assert exc.value.reason == "boolean abstraction has 21 variables; at most 20 are supported"

    def test_bad_axiom_instance_rejected(self):
        script = ProofScript((ProofLine(parse("K p -> q"), Axiom(AxiomId.TRUTH)),), None)
        with pytest.raises(ProofError):
            check(script)

    def test_mp_shape_checked(self):
        script = ProofScript(
            (
                ProofLine(P, Axiom(AxiomId.TAUT)),  # not actually a taut, fails first
                ProofLine(Q, MP(0, 0)),
            ),
            None,
        )
        with pytest.raises(ProofError):
            check(script)

    def test_cite_requires_registry(self):
        script = ProofScript(
            (ProofLine(parse("K p -> K K p"), Cite("positive_introspection", {"PHI": P})),),
            (),
        )
        with pytest.raises(ProofError):
            check(script, None)
        assert render(check(script, default_registry())) == "K p -> K K p"

    def test_cite_substitution_mismatch(self):
        script = ProofScript(
            (ProofLine(parse("K p -> K K q"), Cite("positive_introspection", {"PHI": P})),),
            (),
        )
        with pytest.raises(ProofError) as exc:
            check(script, default_registry())
        assert exc.value.rule == "cite"


class TestBuiltins:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_lemma_a(self, n):
        from awarekit.syntax import DeDicto, awareness_tower

        s = builtin("lemma_A", n)
        assert check(s) == Implies(DeDicto(awareness_tower(P, n)), DeDicto(P))

    def test_lemma_a_zero_is_single_taut_line(self):
        s = builtin("lemma_A", 0)
        assert len(s.lines) == 1
        assert s.lines[0].justification == Axiom(AxiomId.TAUT)
        assert render(s.conclusion) == "D p -> D p"

    def test_unaware_top_zero(self):
        s = builtin("unaware_top", 0)
        assert len(s.lines) == 1
        assert render(check(s)) == "~~~false"

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_unaware_top(self, n):
        from awarekit.syntax import FALSE, Not, awareness_tower

        s = builtin("unaware_top", n)
        assert check(s) == Not(awareness_tower(Not(Not(FALSE)), n))

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 3), (2, 2), (0, 0)])
    def test_mono_a(self, m, n):
        from awarekit.syntax import awareness_tower

        s = builtin("mono_A", m, n)
        assert check(s) == Implies(awareness_tower(P, m), awareness_tower(P, n))

    def test_mono_a_rejects_shrinking(self):
        with pytest.raises(ValueError):
            builtin("mono_A", 3, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("no_such_lemma")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            builtin("lemma_A", -1)
        with pytest.raises(ValueError):
            builtin("positive_introspection", 2)

    def test_default_registry_checks_each_proof_once(self, monkeypatch):
        import awarekit.proof

        calls = []
        real_check = awarekit.proof.check

        def counting_check(script, registry=None):
            calls.append(script)
            return real_check(script, registry)

        monkeypatch.setattr(awarekit.proof, "check", counting_check)
        awarekit.proof._builtin_entries.cache_clear()
        reg = default_registry()
        assert len(calls) == len(reg.names()) == 11
        # the checked builtins are kept for the rest of the process
        calls.clear()
        assert default_registry().names() == reg.names()
        assert calls == []

    def test_registering_into_one_registry_leaves_the_next_unchanged(self):
        reg, other = default_registry(), default_registry()
        builtins = other.names()
        script = ProofScript((ProofLine(P, Hyp(0)),), (P,))
        lift_knowledge(script, reg)
        assert len(reg.names()) == len(builtins) + 1
        assert other.names() == default_registry().names() == builtins

    def test_conclusions_hold_semantically(self):
        scripts = [
            builtin("positive_introspection"),
            builtin("lemma_A", 2),
            builtin("unaware_top", 2),
            builtin("mono_A", 1, 3),
        ]
        bounds = Bounds(3, 3, ("p",))
        for seed in range(30):
            m = random_model(seed, bounds)
            for s in scripts:
                assert valid_in_model(m, s.conclusion)


def atom_hypotheses_script(n):
    """p0 from the atom hypotheses p0 .. p(n-1), in five lines: two hyp, one
    taut and two mp."""
    hyps = tuple(Atom(f"p{i}") for i in range(n))
    p0, p1 = hyps[:2]
    lines = (
        ProofLine(p0, Hyp(0)),
        ProofLine(p1, Hyp(1)),
        ProofLine(Implies(p0, Implies(p1, p0)), Axiom(AxiomId.TAUT)),
        ProofLine(Implies(p1, p0), MP(0, 2)),
        ProofLine(p0, MP(1, 3)),
    )
    return ProofScript(lines, hyps)


class TestDeduction:
    def test_identity_case(self):
        script = ProofScript((ProofLine(P, Hyp(0)),), (P,))
        out = deduction(script, 0)
        assert out.hypotheses == ()
        assert render(check(out)) == "p -> p"

    def test_hypothesis_in_rest_case(self):
        script = ProofScript((ProofLine(Q, Hyp(1)),), (P, Q))
        out = deduction(script, 0)
        assert out.hypotheses == (Q,)
        assert render(check(out)) == "p -> q"

    def test_requires_hypothesis_mode(self):
        script = ProofScript((ProofLine(parse("p -> p"), Axiom(AxiomId.TAUT)),), None)
        with pytest.raises(ValueError):
            deduction(script, 0)

    def test_discharging_some_hypotheses_keeps_the_rest_in_order(self):
        reg = default_registry()
        script = random_mp_proof(random.Random(77), n_hyps=3, registry=reg)
        phi0, phi1, phi2 = script.hypotheses
        out = _discharge(script, (0, 2), reg)
        assert out.hypotheses == (phi1,)
        assert check(out, reg) == Implies(phi0, Implies(phi2, script.conclusion))

    def test_round_trip_random_proofs(self):
        rng = random.Random(99)
        reg = default_registry()
        for _ in range(100):
            script = random_mp_proof(rng, registry=reg)
            idx = rng.randrange(len(script.hypotheses))
            phi = script.hypotheses[idx]
            psi = script.conclusion
            out = deduction(script, idx, reg)
            assert check(out, reg) == Implies(phi, psi)
            assert len(out.hypotheses) == len(script.hypotheses) - 1


class TestLiftKnowledge:
    def test_zero_hypotheses_uses_necessitation(self):
        reg = Registry()
        script = ProofScript((ProofLine(parse("p -> p"), Axiom(AxiomId.TAUT)),), ())
        out = lift_knowledge(script, reg)
        assert out.is_theorem_mode
        assert isinstance(out.lines[-1].justification, Nec)
        assert check(out, reg) == Know(parse("p -> p"))

    def test_single_hypothesis(self):
        reg = Registry()
        script = ProofScript((ProofLine(P, Hyp(0)),), (P,))
        out = lift_knowledge(script, reg)
        assert out.hypotheses == (Know(P),)
        assert check(out, reg) == Know(P)

    def test_random_instances(self):
        rng = random.Random(4242)
        reg = default_registry()
        for _ in range(50):
            script = random_mp_proof(rng, n_hyps=rng.randint(0, 3), registry=reg)
            psi = script.conclusion
            out = lift_knowledge(script, reg)
            assert check(out, reg) == Know(psi)
            if script.hypotheses:
                assert out.hypotheses == tuple(Know(h) for h in script.hypotheses)

    @pytest.mark.parametrize("hyps", [(), (P,)])
    def test_bad_input_rejected_like_check(self, hyps):
        script = ProofScript(
            (
                ProofLine(parse("p -> p"), Axiom(AxiomId.TAUT)),
                ProofLine(Q, MP(0, 0)),
            ),
            hyps,
        )
        with pytest.raises(ProofError) as want:
            check(script, Registry())
        with pytest.raises(ProofError) as got:
            lift_knowledge(script, Registry())
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("hyps", [(P,), (P, Q)])
    def test_public_deduction_still_rejects_a_bad_input(self, hyps):
        # lift_knowledge checks its input once and discharges without
        # checking it again; deduction, called alone, checks it first
        script = ProofScript(
            (
                ProofLine(parse("p -> p"), Axiom(AxiomId.TAUT)),
                ProofLine(Q, MP(0, 0)),
            ),
            hyps,
        )
        with pytest.raises(ProofError) as want:
            check(script, Registry())
        with pytest.raises(ProofError) as got:
            deduction(script, 0, Registry())
        assert str(got.value) == str(want.value)

    def test_each_line_of_a_lift_is_verified_once(self, monkeypatch):
        from awarekit import proof

        reg = default_registry()
        script = random_mp_proof(random.Random(2026), n_hyps=3, steps=8, registry=reg)
        # one discharge of all three hypotheses
        discharged = _discharge(script, (0, 1, 2), reg)

        verified = []  # the lines, in the order they are verified
        decided = []  # the formulas that is_tautology and match_schema decide
        check_line = proof._check_line

        def spy_line(script, k, registry):
            verified.append(script.lines[k])
            return check_line(script, k, registry)

        def spy(real):
            def wrapped(*args):
                decided.append(args[-1])
                return real(*args)

            return wrapped

        monkeypatch.setattr(proof, "_check_line", spy_line)
        monkeypatch.setattr(proof, "is_tautology", spy(proof.is_tautology))
        monkeypatch.setattr(proof, "match_schema", spy(proof.match_schema))
        out = lift_knowledge(script, reg)
        monkeypatch.undo()

        assert set(Counter(map(id, verified)).values()) == {1}
        # the input, the discharge's output, the necessitation line, and the
        # output
        assert len(verified) == len(script.lines) + len(discharged.lines) + 1 + len(out.lines)
        theorem = reg.get(out.lines[0].justification.name).proof
        assert {id(line) for line in script.lines + theorem.lines + out.lines} <= set(map(id, verified))
        # each axiom line is decided once, when it is verified, and nothing else is
        axioms = [line.formula for line in verified if isinstance(line.justification, Axiom)]
        assert list(map(id, decided)) == list(map(id, axioms))

    def test_registered_name_is_stable_golden(self):
        # the name hashes the rendered conclusion with sha256
        reg = Registry()
        script = ProofScript(
            (ProofLine(P, Hyp(0)), ProofLine(parse("p -> q"), Hyp(1)), ProofLine(Q, MP(0, 1))),
            (P, parse("p -> q")),
        )
        out = lift_knowledge(script, reg)
        assert reg.names() == ["k_distribution_b68086be5a23"]
        assert any(line.justification == Cite("k_distribution_b68086be5a23") for line in out.lines)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_output_cites_one_necessitation_and_peels_each_hypothesis(self, n):
        rng = random.Random(170 + n)
        reg = default_registry()
        script = random_mp_proof(rng, n_hyps=n, registry=reg)
        discharged = _discharge(script, tuple(range(n)), reg)
        out = lift_knowledge(script, reg)
        assert len(out.lines) == 1 + 4 * n
        assert Axiom(AxiomId.TAUT) not in [line.justification for line in out.lines]
        cite = out.lines[0].justification
        assert isinstance(cite, Cite) and cite.substitution == {}
        # the registered theorem is the discharged proof plus one necessitation
        entry = reg.get(cite.name)
        last = len(discharged.lines) - 1
        nec = ProofLine(Know(discharged.conclusion), Nec(last))
        assert entry.proof.lines == discharged.lines + (nec,)
        assert entry.schema == out.lines[0].formula == Know(discharged.conclusion)
        for i in range(n):
            dist, peeled, hyp, kept = out.lines[1 + 4 * i : 5 + 4 * i]
            assert dist.justification == Axiom(AxiomId.DIST)
            assert peeled.justification == MP(4 * i, 1 + 4 * i)
            assert hyp == ProofLine(Know(script.hypotheses[i]), Hyp(i))
            assert kept.justification == MP(3 + 4 * i, 2 + 4 * i)
        assert check(out, reg) == Know(script.conclusion)

    def test_registered_proof_is_linear_in_the_script(self):
        script = atom_hypotheses_script(4)
        reg = Registry()
        out = lift_knowledge(script, reg)
        assert len(reg.get(out.lines[0].justification.name).proof.lines) <= 3 * len(script.lines) + 1

    @pytest.mark.parametrize("n", [12, 20])
    def test_many_hypotheses_lift_quickly(self, n):
        script = atom_hypotheses_script(n)
        reg = Registry()
        start = time.perf_counter()
        out = lift_knowledge(script, reg)
        assert time.perf_counter() - start < 1.0
        assert out.conclusion == Know(script.conclusion)
        assert out.hypotheses == tuple(Know(h) for h in script.hypotheses)
        assert check(out, reg) == Know(script.conclusion)

    def test_over_twenty_hypothesis_atoms_is_a_proof_error(self):
        # each discharge tautology holds every hypothesis
        script = atom_hypotheses_script(21)
        start = time.perf_counter()
        with pytest.raises(ProofError) as exc:
            lift_knowledge(script, Registry())
        assert time.perf_counter() - start < 1.0
        assert (exc.value.line_index, exc.value.rule) == (0, "taut")
        assert exc.value.reason == "boolean abstraction has 21 variables; at most 20 are supported"

    def test_an_implication_conclusion_stays_whole(self):
        # q -> p from p: one antecedent is peeled, not two
        reg = Registry()
        q_to_p = parse("q -> p")
        script = ProofScript(
            (
                ProofLine(P, Hyp(0)),
                ProofLine(Implies(P, q_to_p), Axiom(AxiomId.TAUT)),
                ProofLine(q_to_p, MP(0, 1)),
            ),
            (P,),
        )
        out = lift_knowledge(script, reg)
        assert out.hypotheses == (Know(P),)
        assert [line.formula for line in out.lines] == [
            parse("K (p -> q -> p)"),
            parse("K (p -> q -> p) -> (K p -> K (q -> p))"),
            parse("K p -> K (q -> p)"),
            Know(P),
            Know(q_to_p),
        ]
        assert check(out, reg) == Know(q_to_p)

    def test_theorem_conclusions_are_sound(self):
        reg = Registry()
        script = ProofScript(
            (
                ProofLine(P, Hyp(0)),
                ProofLine(parse("p -> q"), Hyp(1)),
                ProofLine(Q, MP(0, 1)),
            ),
            (P, parse("p -> q")),
        )
        out = lift_knowledge(script, reg)
        assert check(out, reg) == Know(Q)
        # and the registered distribution theorem is semantically valid
        bounds = Bounds(3, 3, ("p", "q"))
        for name in reg.names():
            schema = reg.get(name).schema
            for seed in range(20):
                assert valid_in_model(random_model(seed, bounds), schema)


class TestRegistry:
    def test_empty_hypotheses_wrap_of_theorem(self):
        reg = default_registry()
        wrapped = ProofScript(
            (
                ProofLine(
                    parse("K (q & q) -> K K (q & q)"),
                    Cite("positive_introspection", {"PHI": parse("q & q")}),
                ),
            ),
            (),
        )
        assert render(check(wrapped, reg)) == "K (q & q) -> K K (q & q)"

    def test_register_rejects_wrong_instance(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.register(
                "pi",
                parse("K PHI -> K K PHI"),
                builtin("positive_introspection"),
                {"PHI": Q},  # proof concludes the p instance, not q
            )

    def test_register_rejects_hypothesis_mode(self):
        reg = Registry()
        script = ProofScript((ProofLine(P, Hyp(0)),), (P,))
        with pytest.raises(ValueError):
            reg.register("x", P, script)

    def test_duplicate_names_rejected(self):
        reg = default_registry()
        with pytest.raises(ValueError):
            reg.register(
                "positive_introspection",
                parse("K PHI -> K K PHI"),
                builtin("positive_introspection"),
                {"PHI": P},
            )


class TestProofFiles:
    def test_shipped_positive_introspection(self):
        name, script = parse_proof((PROOFS / "positive_introspection.proof").read_text())
        assert name == "positive_introspection"
        assert render(check(script)) == "K p -> K K p"

    def test_shipped_lemma_a_2_matches_builtin(self):
        name, script = parse_proof((PROOFS / "lemma_a_2.proof").read_text())
        assert script == builtin("lemma_A", 2)

    def test_format_parse_round_trip(self):
        rng = random.Random(5)
        reg = default_registry()
        for _ in range(20):
            script = random_mp_proof(rng, registry=reg)
            name, back = parse_proof(format_proof(script))
            assert back == script

    @pytest.mark.parametrize("header", ["theoremfoo", "theorems  my thm", "fromp"])
    def test_header_keyword_needs_whitespace(self, header):
        with pytest.raises(ProofFileError) as exc:
            parse_proof(f"{header}\n1: p -> p by taut\n")
        assert str(exc.value) == "proof file line 1: expected a 'theorem <name>' or 'from ...' header"

    def test_header_keyword_takes_any_whitespace(self):
        assert parse_proof("theorem\tx\n1: p -> p by taut\n")[0] == "x"
        assert parse_proof("theorem  my thm\n1: p -> p by taut\n")[0] == "my thm"
        assert parse_proof("from\tp; q\n1: p by hyp 1\n")[1].hypotheses == (P, Q)

    def test_equal_subformulas_are_one_object(self):
        text = "from K p; p -> q\n1: K p by hyp 1\n2: K p -> p by truth\n3: p by mp 1 2\n"
        _, script = parse_proof(text)
        hyp_kp, hyp_pq = script.hypotheses
        kp, truth, p = (line.formula for line in script.lines)
        assert kp is hyp_kp and truth.left is kp and truth.right is p is hyp_pq.left

    @pytest.mark.parametrize(
        "path",
        sorted(PROOFS.glob("*.proof")) + sorted((REPO / "bench" / "corpus").glob("*.proof")),
        ids=lambda path: f"{path.parent.name}/{path.name}",
    )
    def test_shipped_files(self, path):
        text = path.read_text()
        name, script = parse_proof(text)
        # the files are what format_proof writes, byte for byte
        assert format_proof(script, name) == text
        assert parse_proof(format_proof(script, name))[1] == script
        # one node per distinct subformula over the whole file
        roots = [line.formula for line in script.lines] + list(script.hypotheses or ())
        roots += [f for line in script.lines for f in getattr(line.justification, "substitution", {}).values()]
        entries, entry_of, _ = _program(roots)
        assert len(entries) == len(entry_of)
        # a second parse shares no node with the first
        _, again = parse_proof(text)
        assert again == script
        assert not set(entry_of) & set(_program([line.formula for line in again.lines])[1])

    def test_from_header_with_no_hypotheses(self):
        name, script = parse_proof("from\n1: p -> p by taut\n")
        assert script.hypotheses == ()
        assert name is None

    def test_comments_and_blank_lines(self):
        text = "# a comment\ntheorem t\n\n1: p -> p by taut  # trailing\n"
        _, script = parse_proof(text)
        assert render(check(script)) == "p -> p"

    def test_nonconsecutive_numbering_rejected(self):
        with pytest.raises(ProofFileError):
            parse_proof("theorem t\n2: p -> p by taut\n")

    @pytest.mark.parametrize(
        "line",
        ["1: p -> p\tby taut", "1: p -> p by\ttaut", "1: p -> p \t by \t taut"],
        ids=["tab-before", "tab-after", "mixed"],
    )
    def test_any_whitespace_surrounds_by(self, line):
        _, script = parse_proof(f"theorem t\n{line}\n")
        assert script == parse_proof("theorem t\n1: p -> p by taut\n")[1]
        assert format_proof(script, "t") == "theorem t\n\n1: p -> p by taut\n"

    def test_a_line_splits_at_its_last_by(self):
        _, script = parse_proof("theorem t\n1: by -> by by taut\n")
        assert render(check(script)) == "by -> by"
        assert format_proof(script, "t") == "theorem t\n\n1: by -> by by taut\n"

    def test_missing_by_rejected(self):
        with pytest.raises(ProofFileError):
            parse_proof("theorem t\n1: p -> p\n")

    def test_bad_formula_rejected(self):
        with pytest.raises(ProofFileError):
            parse_proof("theorem t\n1: p -> by taut\n")

    def test_unknown_justification_rejected(self):
        with pytest.raises(ProofFileError):
            parse_proof("theorem t\n1: p -> p by magic\n")

    def test_round_trip_every_keyword(self):
        from awarekit.syntax import DeDicto, DeRe, instantiate

        pp = parse("p -> p")
        theorem = [
            ProofLine(pp, Axiom(AxiomId.TAUT)),
            *(
                ProofLine(instantiate(AXIOM_SCHEMAS[ax], {"PHI": P, "PSI": Q}), Axiom(ax))
                for ax in NON_TAUT_IDS
            ),
            ProofLine(Know(pp), Nec(0)),
            ProofLine(Implies(DeDicto(P), DeDicto(P)), MonoD(0)),
            ProofLine(Implies(DeRe(P), DeRe(P)), MonoR(0)),
            ProofLine(parse("(p -> p) -> q -> p -> p"), Axiom(AxiomId.TAUT)),
            ProofLine(parse("q -> p -> p"), MP(0, 14)),
            ProofLine(parse("K q -> K K q"), Cite("positive_introspection", {"PHI": Q})),
            ProofLine(parse("~~~false"), Cite("unaware_top_0")),
        ]
        scripts = [
            ProofScript(tuple(theorem), None),
            ProofScript((ProofLine(P, Hyp(0)),), (P,)),
        ]
        reg = default_registry()
        texts = []
        for script in scripts:
            check(script, reg)
            text = format_proof(script, "t")
            assert parse_proof(text)[1] == script
            texts.append(text)
        used = {
            line.rsplit(" by ", 1)[1].split()[0]
            for text in texts
            for line in text.splitlines()
            if " by " in line
        }
        assert used == {ax.value for ax in AxiomId} | {"hyp", "mp", "nec", "monoD", "monoR", "cite"}
        assert "by cite positive_introspection [PHI=q]\n" in texts[0]
        assert "by cite unaware_top_0\n" in texts[0]

    @pytest.mark.parametrize(
        "just,count",
        [
            ("hyp", 1),
            ("hyp 0", 1),
            ("hyp 1 1", 1),
            ("mp 1", 2),
            ("mp 1 1 1", 2),
            ("nec", 1),
            ("nec x", 1),
            ("monoD 1 2", 1),
            ("monoR 1 2", 1),
            # digits that str.isdigit accepts and int() does not read
            ("mp \u00b2 1", 2),
            ("nec \u00b9", 1),
        ],
        ids=lambda v: str(v).replace(" ", "_"),
    )
    def test_wrong_index_count_rejected(self, just, count):
        with pytest.raises(ProofFileError) as exc:
            parse_proof(f"from p\n1: p by hyp 1\n2: p by {just}\n")
        keyword = just.split()[0]
        assert str(exc.value) == f"proof file line 3: {keyword} takes {count} positive line number(s)"
