import pytest

from awarekit.checker import satisfies
from awarekit.model import Bounds, enumerate_models
from awarekit.search import (
    AtomNotInBoundsError,
    Countermodel,
    ValidUpToBounds,
    decide_bounded,
    default_fuzz_schemas,
    find_countermodel,
    fuzz_soundness,
    random_formula,
)
from awarekit.syntax import parse, render

B1 = Bounds(2, 2, ("p",))


def naive_decide(f, bounds):
    """Oracle: scan the public enumeration with the reference checker."""
    count = 0
    for m in enumerate_models(bounds):
        for pt in m.points():
            if not satisfies(m, pt, f):
                return m, pt
        count += 1
    return count


class TestDecideBounded:
    def test_truth_axiom_is_valid(self):
        v = decide_bounded(parse("K p -> p"), Bounds(3, 3, ("p",)))
        assert isinstance(v, ValidUpToBounds)
        assert v.models_checked == 365441

    def test_tautology_is_valid(self):
        v = decide_bounded(parse("true"), B1)
        assert isinstance(v, ValidUpToBounds)

    def test_dere_introspection_fails(self):
        v = decide_bounded(parse("R p -> K R p"), Bounds(3, 3, ("p",)))
        assert isinstance(v, Countermodel)
        assert not satisfies(v.model, v.point, parse("R p -> K R p"))

    def test_dedicto_does_not_imply_dere(self):
        v = decide_bounded(parse("D p -> R p"), Bounds(2, 3, ("p",)))
        assert isinstance(v, Countermodel)
        # the countermodel realizes description-awareness without
        # object-awareness at the witness point
        assert satisfies(v.model, v.point, parse("D p"))
        assert not satisfies(v.model, v.point, parse("R p"))

    def test_atom_not_in_bounds(self):
        with pytest.raises(AtomNotInBoundsError):
            decide_bounded(parse("q"), B1)

    def test_false_has_countermodel_with_presence(self):
        v = decide_bounded(parse("false"), Bounds(1, 1, ("p",)))
        assert isinstance(v, Countermodel)
        assert v.model.presence

    @pytest.mark.parametrize(
        "text",
        ["K p -> p", "p -> R p", "R p -> K R p", "D p -> R p", "D p | ~D p", "p"],
    )
    def test_agrees_with_naive_enumeration(self, text):
        f = parse(text)
        got = decide_bounded(f, B1)
        want = naive_decide(f, B1)
        if isinstance(got, ValidUpToBounds):
            assert got.models_checked == want
        else:
            want_model, want_point = want
            assert got.model == want_model
            assert got.point == want_point

    def test_agrees_with_naive_on_random_formulas_two_props(self):
        import random as _r

        rng = _r.Random(77)
        wide = Bounds(2, 2, ("p", "q"))
        for _ in range(10):
            f = random_formula(rng, ("p", "q"), 3)
            got = decide_bounded(f, wide)
            want = naive_decide(f, wide)
            if isinstance(got, ValidUpToBounds):
                assert got.models_checked == want, render(f)
            else:
                assert (got.model, got.point) == want, render(f)

    def test_witness_is_stable_golden(self):
        # frozen once from the deterministic enumeration order
        v = decide_bounded(parse("R p -> K R p"), Bounds(3, 3, ("p",)))
        assert v.model.world_count == 2 and v.model.agent_count == 1
        assert v.model.presence == {(0, 0), (0, 1)}
        assert v.model.indist == (((0, 1),),)
        assert v.model.valuation["p"] == {(0, 0)}
        assert (v.point.world, v.point.agent) == (0, 0)

    def test_runs_twice_identically(self):
        f = parse("D p -> R p")
        a = decide_bounded(f, Bounds(3, 3, ("p",)))
        b = decide_bounded(f, Bounds(3, 3, ("p",)))
        assert a == b


class TestFindCountermodel:
    def test_self_awareness_has_none(self):
        assert find_countermodel(parse("p -> R p"), Bounds(3, 3, ("p",))) is None

    def test_witness_reverified(self):
        got = find_countermodel(parse("R p -> K R p"), Bounds(3, 3, ("p",)))
        assert got is not None
        model, point = got
        assert not satisfies(model, point, parse("R p -> K R p"))


class TestMonotoneBounds:
    @pytest.mark.parametrize("text", ["R p -> K R p", "D p -> R p", "p"])
    def test_countermodels_persist_under_larger_bounds(self, text):
        f = parse(text)
        small = decide_bounded(f, Bounds(2, 2, ("p",)))
        if isinstance(small, Countermodel):
            bigger = decide_bounded(f, Bounds(3, 3, ("p",)))
            assert isinstance(bigger, Countermodel)


class TestPruning:
    @pytest.mark.parametrize(
        "text",
        ["K p -> p", "R p -> K R p", "D p -> R p", "p -> R p", "D p -> K D p"],
    )
    def test_verdict_kind_unchanged(self, text):
        f = parse(text)
        full = decide_bounded(f, B1)
        pruned = decide_bounded(f, B1, prune=True)
        assert type(full) is type(pruned)
        if isinstance(pruned, Countermodel):
            assert not satisfies(pruned.model, pruned.point, f)

    def test_pruned_checks_fewer_models(self):
        full = decide_bounded(parse("K p -> p"), B1)
        pruned = decide_bounded(parse("K p -> p"), B1, prune=True)
        assert pruned.models_checked < full.models_checked


class TestChunkedSweep:
    def test_tiny_chunks_change_nothing(self, monkeypatch):
        # force the column engine through its multi-chunk path
        import awarekit.search as search_mod

        wide = Bounds(2, 2, ("p", "q"))
        texts = ["K p -> p", "R p -> K R q", "D p -> R p", "p -> q", "K (p -> q) -> (K p -> K q)"]
        baseline = [decide_bounded(parse(t), wide) for t in texts]
        monkeypatch.setattr(search_mod, "_CHUNK_BITS", 3)
        chunked = [decide_bounded(parse(t), wide) for t in texts]
        assert chunked == baseline


class TestFuzz:
    def test_zero_violations_on_the_axioms(self):
        report = fuzz_soundness(60, 7, Bounds(4, 4, ("p", "q", "r")), 3)
        assert report.violations == ()
        assert report.trials == 60
        assert report.schema_instances_checked == 60 * 10 * 10

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            fuzz_soundness(0, 7, Bounds(2, 2, ("p",)), 2)

    def test_deterministic(self):
        a = fuzz_soundness(20, 5, Bounds(3, 3, ("p", "q")), 2)
        b = fuzz_soundness(20, 5, Bounds(3, 3, ("p", "q")), 2)
        assert a == b

    def test_corrupted_schema_is_caught(self):
        # negative control: description-awareness does not entail
        # object-awareness, so this fake axiom must produce violations
        bad = [("bad_d_implies_r", parse("D PHI -> R PHI"))]
        report = fuzz_soundness(50, 11, Bounds(3, 3, ("p",)), 1, schemas=bad)
        assert report.violations
        v = report.violations[0]
        assert v.schema_id == "bad_d_implies_r"
        # the recorded point really falsifies the recorded instance
        from awarekit.syntax import instantiate

        instance = instantiate(bad[0][1], v.substitution)
        assert not satisfies(v.model, v.point, instance)

    def test_schema_list_defaults_to_the_ten_axioms(self):
        assert len(default_fuzz_schemas()) == 10


class TestRandomFormula:
    def test_depth_bound(self):
        import random as _r

        from awarekit.syntax import atoms

        rng = _r.Random(3)
        for _ in range(200):
            f = random_formula(rng, ("p", "q"), 3)
            assert atoms(f) <= {"p", "q"}
            assert _node_depth(f) <= 3

    def test_deterministic(self):
        import random as _r

        assert [render(random_formula(_r.Random(1), ("p",), 3)) for _ in range(5)] == [
            render(random_formula(_r.Random(1), ("p",), 3)) for _ in range(5)
        ]


def _node_depth(f):
    from awarekit.syntax import children

    kids = children(f)
    return 0 if not kids else 1 + max(_node_depth(k) for k in kids)
