import itertools
import re

import pytest
from hypothesis import given, settings

from awarekit.model import (
    AgentNotPresentError,
    Bounds,
    EpistemicModel,
    ModelFormatError,
    Point,
    enumerate_models,
    load_model,
    model_from_json,
    model_to_dot,
    model_to_json,
    random_model,
)

from conftest import GOLDEN, MUSEUM, small_models


class TestValidate:
    def test_museum_is_clean(self, museum):
        model, _, _ = museum
        assert model.validate() == []

    def test_valuation_outside_presence(self):
        m = EpistemicModel(
            1, 1, {(0, 0)}, (((0,),),), {"p": {(0, 0)}, "q": {(0, 5)}}
        )
        violations = m.validate()
        assert len(violations) == 1
        assert violations[0].code == "valuation-outside-presence"

    def test_partition_missing_world(self):
        m = EpistemicModel(2, 1, {(0, 0), (0, 1)}, (((0,),),), {})
        violations = m.validate()
        assert [v.code for v in violations] == ["partition-missing"]

    def test_partition_extra_world(self):
        m = EpistemicModel(2, 1, {(0, 0)}, (((0, 1),),), {})
        assert [v.code for v in m.validate()] == ["partition-extra"]

    def test_partition_overlap(self):
        m = EpistemicModel(2, 1, {(0, 0), (0, 1)}, (((0, 1), (1,)),), {})
        assert "partition-overlap" in [v.code for v in m.validate()]

    def test_presence_out_of_range(self):
        m = EpistemicModel(1, 1, {(0, 0), (1, 0)}, (((0,),), ()), {})
        codes = [v.code for v in m.validate()]
        assert "presence-out-of-range" in codes

    def test_empty_model_is_legal(self):
        m = EpistemicModel(0, 0, set(), (), {})
        assert m.validate() == []


class TestAccessors:
    def test_present_worlds(self, museum):
        model, W, A = museum
        assert model.present_worlds(A["b"]) == {W["w1"]}
        assert model.present_worlds(A["a"]) == {W["w1"], W["w2"]}

    def test_present_agents(self, museum):
        model, W, A = museum
        assert model.present_agents(W["w1"]) == {A["a"], A["b"], A["c"]}
        assert model.present_agents(W["w2"]) == {A["a"], A["c"]}

    def test_empty_model_accessors_raise(self):
        m = EpistemicModel(0, 0, set(), (), {})
        with pytest.raises(IndexError):
            m.present_worlds(0)
        with pytest.raises(IndexError):
            m.present_agents(0)

    def test_indistinguishable(self, museum):
        model, W, A = museum
        assert model.indistinguishable(A["a"], W["w1"], W["w2"])
        assert model.indistinguishable(A["a"], W["w1"], W["w1"])
        # the shipped file uses the finest partition for c
        assert not model.indistinguishable(A["c"], W["w1"], W["w2"])

    def test_indistinguishable_needs_presence(self, museum):
        model, W, A = museum
        with pytest.raises(AgentNotPresentError):
            model.indistinguishable(A["b"], W["w1"], W["w2"])


class TestPartitionLaws:
    @settings(max_examples=60, deadline=None)
    @given(small_models())
    def test_equivalence_laws(self, m):
        for a in range(m.agent_count):
            present = sorted(m.present_worlds(a))
            for w in present:
                assert m.indistinguishable(a, w, w)
            for w, u in itertools.product(present, repeat=2):
                assert m.indistinguishable(a, w, u) == m.indistinguishable(a, u, w)
            for w, u, v in itertools.product(present, repeat=3):
                if m.indistinguishable(a, w, u) and m.indistinguishable(a, u, v):
                    assert m.indistinguishable(a, w, v)


class TestRandomModel:
    def test_deterministic(self):
        b = Bounds(4, 4, ("p", "q"))
        assert random_model(123, b) == random_model(123, b)

    def test_always_validates(self):
        b = Bounds(4, 4, ("p", "q", "r"))
        for seed in range(1000):
            assert random_model(seed, b).validate() == []

    def test_inhabited_patching(self):
        b = Bounds(4, 4, ("p",))
        for seed in range(100):
            m = random_model(seed, b)
            for w in range(m.world_count):
                assert m.present_agents(w)

    def test_uninhabited_worlds_allowed_when_disabled(self):
        b = Bounds(4, 4, ("p",))
        found_empty = False
        for seed in range(50):
            m = random_model(seed, b, ensure_inhabited=False)
            assert m.validate() == []
            if any(not m.present_agents(w) for w in range(m.world_count)):
                found_empty = True
        assert found_empty

    @pytest.mark.parametrize(
        "seed,bounds,golden",
        [
            (7, Bounds(1, 1, ("p",)), "random_seed7_b11p.json"),
            (2024, Bounds(4, 4, ("p", "q", "r")), "random_seed2024_b44pqr.json"),
        ],
    )
    def test_golden_outputs(self, seed, bounds, golden):
        m = random_model(seed, bounds)
        assert model_to_json(m) + "\n" == (GOLDEN / golden).read_text()


class TestEnumeration:
    def test_count_one_world_one_agent_one_prop(self):
        models = list(enumerate_models(Bounds(1, 1, ("p",))))
        assert len(models) == 3
        # hand count: empty presence first, then the present pair with the
        # valuation off, then on
        assert models[0].presence == frozenset()
        assert models[1].presence == {(0, 0)} and models[1].valuation["p"] == frozenset()
        assert models[2].valuation["p"] == {(0, 0)}

    def test_count_one_world_one_agent_two_props(self):
        assert sum(1 for _ in enumerate_models(Bounds(1, 1, ("p", "q")))) == 5

    def test_all_validate(self):
        for m in enumerate_models(Bounds(2, 2, ("p",))):
            assert m.validate() == []

    def test_no_duplicates_and_deterministic(self):
        b = Bounds(2, 2, ("p",))
        first = list(enumerate_models(b))
        second = list(enumerate_models(b))
        assert first == second
        seen = {model_to_json(m) for m in first}
        assert len(seen) == len(first)

    def test_pruned_is_subsequence(self):
        b = Bounds(2, 2, ("p",))
        full = list(enumerate_models(b))
        pruned = list(enumerate_models(b, prune=True))
        assert len(pruned) < len(full)
        it = iter(full)
        for m in pruned:
            assert any(m == x for x in it)


class TestModelFiles:
    def test_round_trip(self, museum):
        model, W, A = museum
        text = model_to_json(model, list(W), list(A))
        back, wn, an = model_from_json(text)
        assert back == model
        assert wn == list(W) and an == list(A)

    def test_museum_file_content(self):
        model, wn, an = load_model(MUSEUM)
        assert wn == ["w1", "w2"] and an == ["a", "b", "c"]
        assert (1, 1) not in model.presence  # b absent from w2
        assert len(model.presence) == 5
        assert model.valuation["weride"] == {(1, 0), (2, 1)}

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_json('{"worlds": ["w"], "agents": ["a"], "presence": [["b", "w"]], "indist": {}, "valuation": {}}')

    def test_missing_key_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_json('{"worlds": [], "agents": []}')

    def test_not_json_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_json("worlds: nope")

    def test_valuation_outside_presence_is_kept_for_validate(self):
        # the loader must not silently drop it; validate reports it
        text = (
            '{"worlds": ["w", "v"], "agents": ["a"],'
            ' "presence": [["a", "w"]], "indist": {"a": [["w"]]},'
            ' "valuation": {"p": [["a", "v"]]}}'
        )
        model, _, _ = model_from_json(text)
        assert [v.code for v in model.validate()] == ["valuation-outside-presence"]


class TestDot:
    def test_contains_clusters_and_blocks(self, museum):
        model, W, A = museum
        dot = model_to_dot(model, list(W), list(A))
        assert dot.startswith("graph model {")
        assert '"a@w1" -- "a@w2"' in dot
        assert "cluster_w1" in dot and "cluster_w2" in dot
        assert "weride" in dot

    def test_marked_points_highlighted(self, museum):
        model, W, A = museum
        dot = model_to_dot(model, list(W), list(A), mark=[Point(0, 0)])
        assert "lightcoral" in dot

    def test_quotes_and_backslashes_in_names_are_escaped(self):
        m = EpistemicModel(
            2, 2, {(0, 0), (0, 1), (1, 0)}, (((0, 1),), ((0,),)), {'p"q': {(0, 1)}}
        )
        worlds, agents = ['w"1', "w\\2"], ['a"', "b\\"]
        dot = model_to_dot(m, worlds, agents, mark=[Point(0, 0)])
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        # outside well-formed quoted strings no quote or backslash is left over
        for line in dot.splitlines():
            assert '"' not in quoted.sub("", line) and "\\" not in quoted.sub("", line)
        strings = {re.sub(r"\\(.)", r"\1", q) for q in quoted.findall(dot)}
        assert {'cluster_w"1', "cluster_w\\2", 'a"@w"1', 'b\\@w"1', 'a"@w\\2'} <= strings
        # the agent/props line break stays a DOT escape, not an escaped backslash
        assert r'label="a\"\np\"q"' in dot
