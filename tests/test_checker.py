import random
from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awarekit.checker import (
    ModelEvaluator,
    explain,
    extension,
    satisfies,
    satisfies_naive,
    valid_in_model,
)
from awarekit.model import AgentNotPresentError, Bounds, EpistemicModel, Point, random_model
from awarekit.proof import AXIOM_SCHEMAS, NON_TAUT_AXIOMS
from awarekit.search import random_formula
from awarekit.syntax import (
    And,
    Know,
    Not,
    UnboundMetavariableError,
    instantiate,
    metavariables,
    parse,
    render,
)

from conftest import formulas, small_models


class TestMuseumScenario:
    @pytest.mark.parametrize(
        "world,agent,text",
        [
            ("w1", "c", "police & near"),
            ("w2", "c", "weride & near"),
            ("w1", "b", "weride & near"),
            ("w1", "a", "R(police & near)"),
            ("w1", "a", "~R(weride & near)"),
            ("w1", "a", "D(weride & near)"),
        ],
    )
    def test_satisfaction(self, museum, world, agent, text):
        model, W, A = museum
        assert satisfies(model, Point(W[world], A[agent]), parse(text))

    def test_constants(self, museum):
        model, W, A = museum
        pt = Point(W["w1"], A["a"])
        assert satisfies(model, pt, parse("true"))
        assert not satisfies(model, pt, parse("K false"))

    def test_non_present_point_is_an_error(self, museum):
        model, W, A = museum
        with pytest.raises(AgentNotPresentError):
            satisfies(model, Point(W["w2"], A["b"]), parse("weride"))

    def test_out_of_range_point(self, museum):
        model, _, _ = museum
        with pytest.raises(IndexError):
            satisfies(model, Point(9, 0), parse("true"))


class TestValidInModel:
    def test_truth_axiom_in_museum(self, museum):
        model, _, _ = museum
        assert valid_in_model(model, parse("K weride -> weride"))

    def test_atom_is_not_valid(self, museum):
        model, _, _ = museum
        assert not valid_in_model(model, parse("weride"))

    def test_vacuous_on_empty_presence(self):
        m = EpistemicModel(1, 1, set(), ((),), {})
        assert valid_in_model(m, parse("false"))

    @pytest.mark.parametrize(
        "presence,indist",
        [
            ({(0, 0)}, (((0, 1),),)),  # a block holds a world the agent is absent from
            ({(0, 0), (0, 1)}, (((0,),),)),  # a present world is in no block
        ],
    )
    def test_model_breaking_the_laws_is_rejected(self, presence, indist):
        m = EpistemicModel(2, 1, presence, indist, {"p": {(0, 0)}})
        with pytest.raises(ValueError, match="partition-"):
            valid_in_model(m, parse("K p"))


class TestExtension:
    def test_museum_weride(self, museum):
        model, W, A = museum
        assert extension(model, parse("weride")) == {
            Point(W["w1"], A["b"]),
            Point(W["w2"], A["c"]),
        }

    def test_true_and_false(self, museum):
        model, _, _ = museum
        every = set(model.points())
        assert extension(model, parse("true")) == every
        assert extension(model, parse("false")) == set()

    @settings(max_examples=60, deadline=None)
    @given(small_models(), formulas(max_depth=3), formulas(max_depth=3))
    def test_classicality(self, m, f, g):
        ext_f = extension(m, f)
        ext_not = extension(m, Not(f))
        every = set(m.points())
        assert ext_f | ext_not == every and not ext_f & ext_not
        assert extension(m, And(f, g)) == extension(m, f) & extension(m, g)
        assert extension(m, parse("false")) == set()

    @settings(max_examples=60, deadline=None)
    @given(small_models(), formulas(max_depth=3))
    def test_matches_pointwise_reference(self, m, f):
        assert extension(m, f) == {pt for pt in m.points() if satisfies(m, pt, f)}

    @settings(max_examples=60, deadline=None)
    @given(small_models(), formulas(max_depth=3))
    def test_extension_mask_is_the_extension_as_pair_bits(self, m, f):
        ev = ModelEvaluator(m)
        want = 0
        for pt in ev.extension(f):
            want |= 1 << (pt.agent * m.world_count + pt.world)
        assert ev.extension_mask(f) == want


class TestAbsentProposition:
    def test_false_everywhere(self, museum):
        # the formula names a proposition the model's valuation lacks
        model, _, _ = museum
        ghost = parse("ghost")
        assert "ghost" not in model.valuation
        assert ModelEvaluator(model).first_failure(ghost) == next(model.points())
        assert extension(model, ghost) == set()
        assert not valid_in_model(model, ghost)
        assert valid_in_model(model, Not(ghost))
        assert not any(satisfies(model, pt, ghost) for pt in model.points())


class TestMemoizationTransparency:
    @settings(max_examples=150, deadline=None)
    @given(small_models(), formulas(max_depth=4))
    def test_memoized_equals_naive(self, m, f):
        for pt in m.points():
            assert satisfies(m, pt, f) == satisfies_naive(m, pt, f)


def larger_models(n, props=("p", "q")):
    """The first n random models, by seed, with 4-5 worlds and 4-5 agents:
    past the 3 worlds and 3 agents of small_models."""
    bounds = Bounds(5, 5, props)
    models = (random_model(seed, bounds) for seed in count())
    return list(islice((m for m in models if min(m.world_count, m.agent_count) >= 4), n))


def planted_model(w, a):
    """5 worlds and 5 agents, each present everywhere; p holds only at
    (w, a), and every agent's partition is {w} and the four other worlds."""
    others = tuple(u for u in range(5) if u != w)
    presence = {(b, u) for b in range(5) for u in range(5)}
    return EpistemicModel(5, 5, presence, (((w,), others),) * 5, {"p": {(a, w)}})


class TestLargerModels:
    # the engine and the reference checker against each other, and against
    # hand-derived extensions, at world and agent indices 3 and 4

    @pytest.mark.parametrize("w,a", [(3, 3), (3, 4), (4, 3), (4, 4)])
    def test_planted_witness_and_counterexample(self, w, a):
        m = planted_model(w, a)
        every = set(m.points())
        planted = {Point(w, a)}
        at_w = {Point(w, b) for b in range(5)}
        want = {
            "p": planted,  # the only witness of an atom
            "~p": every - planted,  # and its only counterexample
            "K p": planted,
            "K ~p": every - planted,
            "R p": at_w,  # agent a is the only witness, at world w
            "D p": at_w,  # likewise; no other block holds p in every world
            "D ~p": every,
        }
        ev = ModelEvaluator(m)
        for text, ext in want.items():
            f = parse(text)
            assert ev.extension(f) == ext, text
            assert {pt for pt in every if satisfies(m, pt, f)} == ext, text
            assert {pt for pt in every if satisfies_naive(m, pt, f)} == ext, text

    def test_engine_and_oracle_agree_on_random_models(self):
        rng = random.Random(45)
        for m in larger_models(30):
            ev = ModelEvaluator(m)
            for _ in range(8):
                f = random_formula(rng, ("p", "q"), 3)
                ext = ev.extension(f)
                assert ext == {pt for pt in m.points() if satisfies(m, pt, f)}, render(f)
                assert ext == {pt for pt in m.points() if satisfies_naive(m, pt, f)}, render(f)


class TestAxiomSoundnessPerModel:
    @settings(max_examples=40, deadline=None)
    @given(small_models(), st.integers(min_value=0, max_value=2**32))
    def test_all_schemas_hold(self, m, seed):
        rng = random.Random(seed)
        for ax in NON_TAUT_AXIOMS:
            schema = AXIOM_SCHEMAS[ax]
            subst = {
                mv: random_formula(rng, ("p", "q"), 2)
                for mv in sorted(metavariables(schema))
            }
            assert valid_in_model(m, instantiate(schema, subst)), ax

    @settings(max_examples=40, deadline=None)
    @given(small_models(), formulas(max_depth=2))
    def test_general_awareness_semantics(self, m, f):
        # if an agent is D-aware of general awareness of f, she is D-aware of f
        from awarekit.syntax import DeDicto, DeRe, Implies, Or

        claim = Implies(DeDicto(Or(DeRe(f), DeDicto(f))), DeDicto(f))
        assert valid_in_model(m, claim)


class TestRuleSoundness:
    @settings(max_examples=60, deadline=None)
    @given(small_models(), formulas(max_depth=3))
    def test_necessitation_pointwise(self, m, f):
        if valid_in_model(m, f):
            assert valid_in_model(m, Know(f))

    @settings(max_examples=40, deadline=None)
    @given(small_models(), formulas(max_depth=2))
    def test_s5_laws_for_knowledge(self, m, f):
        from awarekit.syntax import Implies

        k = Know(f)
        assert valid_in_model(m, Implies(k, f))
        assert valid_in_model(m, Implies(k, Know(k)))
        assert valid_in_model(m, Implies(Not(k), Know(Not(k))))


class TestEvaluatorEngine:
    @settings(max_examples=80, deadline=None)
    @given(small_models(), formulas(max_depth=4))
    def test_first_failure_agrees_with_reference(self, m, f):
        ev = ModelEvaluator(m)
        pt = ev.first_failure(f)
        if pt is None:
            assert all(satisfies(m, q, f) for q in m.points())
        else:
            assert not satisfies(m, pt, f)
            # agent-major order: no earlier failing point
            for q in m.points():
                if (q.agent, q.world) < (pt.agent, pt.world):
                    assert satisfies(m, q, f)


    @settings(max_examples=60, deadline=None)
    @given(small_models(), st.integers(min_value=0, max_value=2**32), st.integers(1, 70))
    def test_first_failures_agree_with_each_instance(self, m, seed, n):
        rng = random.Random(seed)
        schemas = [AXIOM_SCHEMAS[ax] for ax in NON_TAUT_AXIOMS]
        schemas += [parse("PHI -> K PHI"), parse("R PHI -> K PHI | PSI"), parse("~R false")]
        # bodies that read an atom, whose column there is one lane per instance
        schemas += [parse("PHI -> K p"), parse("p & PHI -> R (p & ~PSI)")]
        schema = rng.choice(schemas)
        substs = [
            {mv: random_formula(rng, ("p", "q", "z"), 3) for mv in metavariables(schema)}
            for _ in range(n)
        ]
        ev = ModelEvaluator(m)
        each = [ev.first_failure(instantiate(schema, subst)) for subst in substs]
        assert ev.first_failures(schema, substs) == [(j, pt) for j, pt in enumerate(each) if pt]

    def test_first_failures_of_no_instances(self, museum):
        model, _, _ = museum
        assert ModelEvaluator(model).first_failures(parse("PHI -> K PHI"), []) == []

    def test_first_failures_names_an_unbound_metavariable(self, museum):
        model, _, _ = museum
        schema = parse("PHI -> K PSI")
        with pytest.raises(UnboundMetavariableError, match="PSI"):
            ModelEvaluator(model).first_failures(schema, [{"PHI": parse("p")}])

    # the engine dispatches on exact node types, as render does, so a
    # subclass of a node class is no formula node either
    @pytest.mark.parametrize(
        "node",
        [object(), "p", Not(object()), And(parse("p"), 3), type("Negation", (Not,), {})(parse("p"))],
        ids=["object", "str", "under-not", "under-and", "not-subclass"],
    )
    def test_rejects_what_is_not_a_formula_node(self, museum, node):
        ev = ModelEvaluator(museum[0])
        with pytest.raises(TypeError, match="^not a formula node"):
            ev.holds_everywhere(node)
        with pytest.raises(TypeError, match="^not a formula node"):
            ev.first_failures(parse("PHI -> K PHI"), [{"PHI": parse("p")}, {"PHI": node}])


class TestExplain:
    def test_dere_failure_names_the_absent_candidate(self, museum):
        model, W, A = museum
        text = explain(
            model,
            Point(W["w1"], A["a"]),
            parse("R(weride & near)"),
            list(W),
            list(A),
        )
        assert "false" in text.splitlines()[0]
        assert "candidate b: absent from w2" in text

    def test_dere_witness_is_named(self, museum):
        model, W, A = museum
        text = explain(
            model, Point(W["w1"], A["a"]), parse("R(police & near)"), list(W), list(A)
        )
        assert text == (
            "R (police & near) at (w1, a): true\n"
            "  witness agent c (present in every world a considers possible):\n"
            "    police & near at (w1, c): true\n"
            "      police at (w1, c): true\n"
            "      near at (w1, c): true"
        )

    def test_dedicto_lists_witnesses(self, museum):
        model, W, A = museum
        text = explain(
            model, Point(W["w1"], A["a"]), parse("D(weride & near)"), list(W), list(A)
        )
        assert "world w1: witness agent b" in text
        assert "world w2: witness agent c" in text

    def test_know_failure_names_world(self, museum):
        model, W, A = museum
        text = explain(model, Point(W["w1"], A["a"]), parse("K police"), list(W), list(A))
        assert text == (
            "K police at (w1, a): false\n"
            "  fails at indistinguishable world w1:\n"
            "    police at (w1, a): false"
        )

    def test_deterministic(self, museum):
        model, W, A = museum
        args = (model, Point(0, 0), parse("D(weride & near) & ~R(weride & near)"), list(W), list(A))
        assert explain(*args) == explain(*args)

    def test_know_success_lists_the_block(self, museum):
        model, W, A = museum
        text = explain(model, Point(W["w1"], A["a"]), parse("K ~police"), list(W), list(A))
        assert text == (
            "K ~police at (w1, a): true\n"
            "  holds about a at every indistinguishable world: w1, w2"
        )

    def test_dedicto_failure_names_the_empty_world(self, museum):
        model, W, A = museum
        text = explain(model, Point(W["w1"], A["a"]), parse("D police"), list(W), list(A))
        assert text == "D police at (w1, a): false\n  no agent at world w2 satisfies police"


class TestSchemaEvaluation:
    # a schema is no formula: both evaluators refuse it and name the
    # unbound metavariable
    @pytest.mark.parametrize("text", ["PHI", "K PHI -> p"])
    def test_satisfies_names_the_metavariable(self, museum, text):
        model, W, A = museum
        with pytest.raises(ValueError, match="^cannot evaluate a schema; metavariable PHI is unbound$"):
            satisfies(model, Point(W["w1"], A["a"]), parse(text))

    @pytest.mark.parametrize("text", ["PHI", "K PHI -> p"])
    def test_holds_everywhere_names_the_metavariable(self, museum, text):
        with pytest.raises(ValueError, match="^cannot evaluate a schema; metavariable PHI is unbound$"):
            ModelEvaluator(museum[0]).holds_everywhere(parse(text))
