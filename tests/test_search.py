import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awarekit.checker import ModelEvaluator, satisfies
from awarekit.model import Bounds, Point, enumerate_models, random_model
from awarekit.search import (
    AtomNotInBoundsError,
    Countermodel,
    FuzzReport,
    FuzzViolation,
    ValidUpToBounds,
    decide_bounded,
    default_fuzz_schemas,
    find_countermodel,
    fuzz_soundness,
    random_formula,
)
from awarekit.search import _drawer
from awarekit.syntax import (
    And,
    Atom,
    DeDicto,
    DeRe,
    Falsum,
    Implies,
    Know,
    MetaVar,
    Not,
    Or,
    _fold_constants,
    _program,
    children,
    instantiate,
    metavariables,
    parse,
    render,
)

B1 = Bounds(2, 2, ("p",))


def naive_decide(f, bounds, prune=False):
    """Oracle: scan the public enumeration with the reference checker."""
    count = 0
    for m in enumerate_models(bounds, prune):
        for pt in m.points():
            if not satisfies(m, pt, f):
                return m, pt
        count += 1
    return count


def naive_verdict(f, bounds):
    """naive_decide's answer as the Verdict a plain decide_bounded gives."""
    got = naive_decide(f, bounds)
    return ValidUpToBounds(bounds, got) if isinstance(got, int) else Countermodel(*got)


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

    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "pruned"])
    @pytest.mark.parametrize("worlds,agents", [(10**20, 1), (1, 10**20)], ids=["worlds", "agents"])
    def test_bound_past_the_size_limit(self, worlds, agents, prune):
        # the scan loops over shapes lazily, so a countermodel in the first
        # shape comes back whatever the bound; ranges this long have no len()
        v = decide_bounded(parse("K p"), Bounds(worlds, agents, ("p",)), prune)
        assert v == decide_bounded(parse("K p"), Bounds(1, 1, ("p",)), prune)
        assert _witness_shape(v) == (1, 1)

    @pytest.mark.parametrize("depth", [600, 900])
    def test_deeply_nested_negation(self, depth):
        # an even number of negations over p: falsified where p is false
        v = decide_bounded(parse("~" * depth + "p"), Bounds(1, 1, ("p",)))
        assert isinstance(v, Countermodel)
        assert v.model.valuation["p"] == frozenset()

    @pytest.mark.parametrize("depth", [300, 600, 900])
    @pytest.mark.parametrize("op", ["K", "R", "D"])
    def test_deep_modal_chain(self, op, depth):
        # on one world and one agent each operator collapses to p
        v = decide_bounded(parse(f"{op} " * depth + "p"), Bounds(1, 1, ("p",)))
        assert isinstance(v, Countermodel)
        assert v.model.valuation["p"] == frozenset()

    def test_sweep_leaves_no_reference_cycles(self):
        # each pass's columns are freed as the pass ends, not whenever the
        # cyclic garbage collector next runs
        import gc

        f, bounds = parse("K p -> p"), Bounds(2, 2, ("p",))
        decide_bounded(f, bounds)  # fill the enumeration caches first
        gc.collect()
        gc.disable()
        try:
            decide_bounded(f, bounds)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cold_enumeration_leaves_no_reference_cycles(self, clear_plans):
        # a sweep served from a kept plan would not enumerate at all
        import gc

        from awarekit.model import _set_partitions

        _set_partitions.cache_clear()
        gc.collect()
        gc.disable()
        try:
            decide_bounded(parse("K p -> p"), Bounds(2, 2, ("p",)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_refutes_over_four_propositions(self):
        v = decide_bounded(parse("p | q | r | ~s"), Bounds(1, 1, ("p", "q", "r", "s")))
        assert isinstance(v, Countermodel)
        assert v.model.valuation == {"p": set(), "q": set(), "r": set(), "s": {(0, 0)}}
        assert v.point == Point(0, 0)

    @pytest.mark.parametrize("worlds,agents,want", [(4, 3, 96_018_740), (5, 2, 11_473_992)])
    def test_plain_count_past_three_by_three(self, worlds, agents, want):
        # a shape of w worlds and a agents over one proposition has
        # per_agent(w)**a models: each agent picks a row of k worlds, one
        # of its Bell(k) partitions and one of 2**k valuations of p on it
        bell = [1, 1, 2, 5, 15, 52]

        def per_agent(w):
            return sum(math.comb(w, k) * bell[k] * 2**k for k in range(w + 1))

        closed = sum(
            per_agent(w) ** a for w in range(1, worlds + 1) for a in range(1, agents + 1)
        )
        assert closed == want
        v = decide_bounded(parse("K p -> p"), Bounds(worlds, agents, ("p",)))
        assert v == ValidUpToBounds(Bounds(worlds, agents, ("p",)), want)

    def test_witness_disagreeing_with_the_reference_raises(self, monkeypatch):
        # the reference checker re-verifies every witness before it is returned
        import awarekit.search

        monkeypatch.setattr(awarekit.search, "satisfies", lambda m, pt, f: True)
        with pytest.raises(AssertionError, match="search engine and reference checker disagree"):
            decide_bounded(parse("K p"), Bounds(1, 1, ("p",)))

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
    WIDE = Bounds(2, 2, ("p", "q"))
    TEXTS = ["K p -> p", "R p -> K R q", "D p -> R p", "p -> q", "K (p -> q) -> (K p -> K q)"]

    def test_tiny_chunks_change_nothing(self, monkeypatch):
        # force the column engine through every pass layout: several
        # skeletons in one pass, skeletons of different presence masks in
        # one pass, and one skeleton over several passes
        import awarekit.checker as engine

        baseline = [decide_bounded(parse(t), self.WIDE) for t in self.TEXTS]
        passes = engine._Frame._passes
        seen = set()

        def spy(frame, nprops):
            run = 0
            for start, full, atoms in passes(frame, nprops):
                run += 1
                yield start, full, atoms
            if len(frame.skeletons) > 1:
                seen.add("skeletons share a pass")
            if len({sk.presence_mask for sk in frame.skeletons}) > 1:
                seen.add("presence masks share a pass")
            if run > 1:
                assert len(frame.skeletons) == 1
                seen.add("skeleton over several passes")

        monkeypatch.setattr(engine._Frame, "_passes", spy)
        for bits in (3, 5, 9):
            monkeypatch.setattr(engine, "_CHUNK_BITS", bits)
            chunked = [decide_bounded(parse(t), self.WIDE) for t in self.TEXTS]
            assert chunked == baseline, bits
        assert seen == {
            "skeletons share a pass",
            "presence masks share a pass",
            "skeleton over several passes",
        }

    def test_every_column_lies_within_full(self, monkeypatch):
        # a frame of one skeleton masks its know and dere entries with -1,
        # all lanes, and K, R and D cut by the mask: that cuts nothing, so it
        # is sound only while every column, a leaf's or a computed one, has
        # no bit outside full.  Each call is repeated with every distinct
        # subformula of its roots as a root, so the intermediate columns
        # are checked too.
        import awarekit.checker as engine

        columns = engine._Frame.columns
        masks = set()

        def spy(frame, roots, leaves, full):
            nodes, stack = {}, list(roots)
            while stack:
                node = stack.pop()
                if id(node) not in nodes:
                    nodes[id(node)] = node
                    stack += children(node)
            for col in [*columns(frame, list(nodes.values()), leaves, full), *leaves.values()]:
                assert len(col) == frame.m
                assert all(0 <= c <= full for c in col)
            assert all(0 <= gap <= full for gap in frame.absent)
            for *_, mask in [*frame.know, *frame.dere]:
                assert mask == -1 if len(frame.skeletons) == 1 else 0 < mask <= full
                masks.add(-1 if mask == -1 else "lanes")
            return columns(frame, roots, leaves, full)

        monkeypatch.setattr(engine._Frame, "columns", spy)
        for bits in (3, 5, 9, engine._CHUNK_BITS):
            monkeypatch.setattr(engine, "_CHUNK_BITS", bits)
            for t in self.TEXTS:
                decide_bounded(parse(t), self.WIDE)
        assert masks == {-1, "lanes"}
        masks.clear()
        assert fuzz_soundness(3, 11, Bounds(3, 3, ("p", "q")), 3).ok
        assert masks == {-1}

    def test_warm_three_by_three_runs_three_passes(self, clear_plans, monkeypatch):
        # the kept plan of the (3,3) bound over p packs the canonical
        # skeletons of each world count's three shapes, whatever their
        # presence masks, into one pass: 3 passes, not one per shape
        import awarekit.checker as engine

        f, bounds = parse("K p -> p"), Bounds(3, 3, ("p",))
        decide_bounded(f, bounds)  # keeps the bound's plan
        columns = engine._Frame.columns
        calls = []

        def counting(frame, *args):
            calls.append(frame)
            return columns(frame, *args)

        monkeypatch.setattr(engine._Frame, "columns", counting)
        assert decide_bounded(f, bounds) == ValidUpToBounds(bounds, 365441)
        assert len(calls) == 3


class TestMixedPresencePasses:
    """Skeletons of different presence masks share a pass, each over its
    own lane segment; a lane must never read a pair its skeleton lacks.
    Checked against the reference scan with passes of 2**5 and 2**9 lanes,
    where a pass holds a presence-0 skeleton (one lane, no slots) among
    others, and wider skeletons span several passes."""

    BOUNDS = [Bounds(2, 2, ("p", "q")), Bounds(3, 2, ("p",)), Bounds(2, 3, ("p",))]
    IDS = ["2x2pq", "3x2p", "2x3p"]

    @staticmethod
    def agree(f, bounds, bits):
        import awarekit.checker as engine

        passes = engine._Frame._passes
        mixed = []

        def spy(frame, nprops):
            masks = [sk.presence_mask for sk in frame.skeletons]
            if 0 in masks and len(set(masks)) > 1:
                mixed.append(masks)
            return passes(frame, nprops)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK_BITS", bits)
            mp.setattr(engine._Frame, "_passes", spy)
            assert decide_bounded(f, bounds) == naive_verdict(f, bounds), render(f)
            pruned = decide_bounded(f, bounds, prune=True)
        want = naive_decide(f, bounds, prune=True)
        if isinstance(pruned, ValidUpToBounds):
            assert pruned.models_checked == want, render(f)
        else:
            assert (pruned.model, pruned.point) == want, render(f)
        # every sweep starts at the (1,1) shape, whose presence-0 skeleton
        # shares the first pass with the skeleton of one present pair
        assert mixed

    @pytest.mark.parametrize("bits", [5, 9])
    @pytest.mark.parametrize("bounds", BOUNDS, ids=IDS)
    @pytest.mark.parametrize("text", ["D p", "R ~p", "~R ~R p -> ~D ~R p"])
    def test_absent_pairs_are_never_read(self, text, bounds, bits):
        self.agree(parse(text), bounds, bits)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @pytest.mark.parametrize("bits", [5, 9])
    @pytest.mark.parametrize("bounds", BOUNDS, ids=IDS)
    def test_equals_naive_scan(self, bounds, bits, seed):
        self.agree(random_formula(random.Random(seed), bounds.props, 4), bounds, bits)


class TestPackedRuns:
    # at these bounds a shape's skeletons, of every presence mask, share
    # one pass, each over its own segment of lanes (skeleton x valuation)
    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "pruned"])
    @pytest.mark.parametrize("bounds", [Bounds(3, 2, ("p",)), Bounds(2, 3, ("p",))], ids=["3x2", "2x3"])
    def test_agrees_with_naive_on_random_formulas(self, bounds, prune):
        import random as _r

        # refuted in runs of several skeletons, past the first one
        formulas = [
            parse(t)
            for t in ["R K p -> K R p", "~D ~K p -> ~R ~D p", "K ~R p -> ~D K p", "~R ~R p -> ~D ~R p"]
        ]
        rng = _r.Random(2024)
        formulas += [random_formula(rng, ("p",), 3) for _ in range(4)]
        # schema instances are valid, so these sweep every run to its end
        for _, schema in default_fuzz_schemas()[:3]:
            subst = {"PHI": random_formula(rng, ("p",), 2), "PSI": random_formula(rng, ("p",), 2)}
            formulas.append(instantiate(schema, subst))
        for f in formulas:
            got = decide_bounded(f, bounds, prune)
            want = naive_decide(f, bounds, prune)
            if isinstance(got, ValidUpToBounds):
                assert got.models_checked == want, render(f)
            else:
                assert (got.model, got.point) == want, render(f)


class TestEngineAgainstOracle:
    """Bit by bit: in a packed frame, every present (slot, lane) bit of every
    subformula's column equals the reference recursion on the lane's
    materialized model.  Passes of 2**5 and 2**9 lanes put the presence-0
    skeleton in a pass with others and spread wide skeletons over several
    passes; 2**16 packs each shape into a few frames of many presence
    masks, where blocks of different skeletons share know and dere
    entries.  Lanes are sampled, about LANES per case spread over its
    passes: per pass, one lane in each of a few skeleton segments, and
    random ones up to the pass's share."""

    CASES = [(3, 3, ("p",), None), (2, 3, ("p",), None), (2, 2, ("p", "q"), None), (4, 3, ("p",), 6)]
    IDS = ["3x3p", "2x3p", "2x2pq", "4x3p-first-frames"]
    LANES, LANES_PER_PASS = 400, 100

    @staticmethod
    def modal_formula(rng, props, depth):
        # K, R and D drawn three times as often as each other kind
        if depth == 0 or rng.random() < 0.15:
            return Atom(rng.choice(props)) if rng.random() < 0.9 else Falsum()
        kind = rng.choice([Not, Implies, And, Or] + [Know, DeRe, DeDicto] * 3)
        if kind in (Implies, And, Or):
            return kind(
                TestEngineAgainstOracle.modal_formula(rng, props, depth - 1),
                TestEngineAgainstOracle.modal_formula(rng, props, depth - 1),
            )
        return kind(TestEngineAgainstOracle.modal_formula(rng, props, depth - 1))

    @pytest.mark.parametrize("bits", [5, 9, 16])
    @pytest.mark.parametrize("worlds,agents,props,limit", CASES, ids=IDS)
    def test_every_present_bit_equals_eval(self, monkeypatch, worlds, agents, props, limit, bits):
        import itertools

        import awarekit.checker as engine
        from awarekit.model import _iter_skeletons_wa

        monkeypatch.setattr(engine, "_CHUNK_BITS", bits)
        rng = random.Random(f"{worlds}x{agents}x{len(props)}:{bits}")
        frames = list(itertools.islice(engine._pack(_iter_skeletons_wa(worlds, agents, True), len(props)), limit))
        shared = self.check(rng, frames, props, bits)
        assert shared or bits == 5

    # kept plans, whose frames pack skeletons of several shapes, of one
    # world count and several agent counts
    MIXED = [
        (2, 3, ("p",), None),
        (3, 3, ("p",), None),
        (4, 3, ("p",), 5),
        (3, 3, ("p", "q"), 4),
        (3, 2, ("p",), None),
        (2, 2, ("p", "q"), None),
    ]
    MIXED_IDS = ["2x3p", "3x3p", "4x3p-first-frames", "3x3pq-first-frames", "3x2p", "2x2pq"]

    @pytest.mark.parametrize("bits", [9, 16])
    @pytest.mark.parametrize("worlds,agents,props,limit", MIXED, ids=MIXED_IDS)
    def test_mixed_shape_kept_frames_equal_eval(self, clear_plans, monkeypatch, worlds, agents, props, limit, bits):
        import awarekit.checker as engine
        from awarekit import search

        monkeypatch.setattr(engine, "_CHUNK_BITS", bits)
        bounds = Bounds(worlds, agents, props)
        decide_bounded(parse("K p -> p"), bounds)  # keeps the bound's plan
        frames = search._plans[worlds, agents, len(props), bits][0][:limit]
        shapes = [{(sk.world_count, sk.agent_count) for sk in frame.skeletons} for frame in frames]
        assert any(len(shape) > 1 for shape in shapes)
        for frame, shape in zip(frames, shapes):
            assert {w for w, _ in shape} == {frame.world_count}
        rng = random.Random(f"mixed {worlds}x{agents}x{len(props)}:{bits}")
        self.check(rng, frames, props, bits)

    def check(self, rng, frames, props, bits):
        """Check sampled lanes of the frames against _eval; return whether
        some frame holds skeletons of several presence masks."""
        from awarekit.checker import _eval
        from awarekit.model import _materialize

        roots = [self.modal_formula(rng, props, 4) for _ in range(4)]
        nodes, stack = {}, list(roots)
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack += children(node)
        subformulas = list(nodes.values())
        checked, shared = 0, False
        per_pass = max(1, self.LANES // sum(max(1, frame.size >> bits) for frame in frames))
        for frame in frames:
            shared |= len({sk.presence_mask for sk in frame.skeletons}) > 1
            for start, full, atoms in frame._passes(len(props)):
                # every distinct subformula is a root, so each one's column comes back
                cols = frame.columns(subformulas, dict(zip(props, atoms)), full)
                # the segments of the skeletons this pass holds, cut to it
                width = full.bit_length()
                segments = [
                    (max(lo, start), min(hi, start + width))
                    for lo, hi in zip(frame.starts, [*frame.starts[1:], frame.size])
                    if lo < start + width and hi > start
                ]
                count = min(per_pass, self.LANES_PER_PASS, width)
                lanes = {rng.randrange(lo, hi) for lo, hi in rng.sample(segments, min(len(segments), count))}
                while len(lanes) < count:
                    lanes.add(rng.randrange(start, start + width))
                for lane in sorted(lanes):
                    sk, masks = frame.valuation(lane, len(props))
                    model = _materialize(sk, masks, props)
                    oracle = {}
                    for slot, t in enumerate(frame.pairs):
                        # the frame's pair bits are a * W + u, W its skeletons' world count
                        agent, world = divmod(t, frame.world_count)
                        if (agent, world) not in model.presence:
                            continue
                        for node, col in zip(subformulas, cols):
                            got = col[slot] >> (lane - start) & 1
                            assert got == _eval(model, world, agent, node, oracle), (render(node), lane, slot)
                    checked += 1
        assert checked >= 30
        return shared


class TestCanonicalFirstScan:
    """A plain decision sweeps each shape's canonical skeletons and sweeps in
    full order only the shape where one fails; its verdict, witness, point
    and count are still those of the full ordered scan."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @pytest.mark.parametrize(
        "bounds",
        [Bounds(2, 2, ("p", "q")), Bounds(3, 2, ("p",)), Bounds(2, 3, ("p",))],
        ids=["2x2pq", "3x2p", "2x3p"],
    )
    def test_equals_naive_scan(self, bounds, seed):
        f = random_formula(random.Random(seed), bounds.props, 4)
        assert decide_bounded(f, bounds) == naive_verdict(f, bounds), render(f)

    # The first failing model in full order lies in a skeleton that is not
    # the canonical one of its orbit, past (1,1).  Found by deciding
    # random_formula(random.Random(seed), ("p",), 5) for seeds below 8,000
    # at Bounds(2, 3, ("p",)) and keeping the witnesses whose (presence
    # mask, partitions) is not among _iter_skeletons_wa(W, A, True); these
    # are seeds 7221, 3731 and 1280, simplified.
    @pytest.mark.parametrize(
        "text,shape",
        [("D p | ~R K p", (2, 2)), ("R D p -> D p", (2, 2)), ("R p | ~K R R p", (2, 3))],
    )
    @pytest.mark.parametrize("bounds", [Bounds(2, 3, ("p",)), Bounds(3, 3, ("p",))], ids=["2x3", "3x3"])
    def test_witness_in_non_canonical_skeleton(self, text, shape, bounds):
        from awarekit.model import _Skeleton, _iter_skeletons_wa

        f = parse(text)
        got = decide_bounded(f, bounds)
        assert got == naive_verdict(f, bounds)
        W, A = shape
        mask = sum(1 << (a * W + w) for a, w in got.model.presence)
        assert _witness_shape(got) == shape
        assert _Skeleton(W, A, mask, got.model.indist) not in set(_iter_skeletons_wa(W, A, True))

    @pytest.mark.parametrize("text,shape", [("K p -> p", None), ("D p -> K D p", None), ("D p | ~R K p", (2, 2))])
    def test_full_order_sweeps_only_the_witness_shape(self, clear_plans, monkeypatch, text, shape):
        from awarekit import search

        f, bounds = parse(text), Bounds(3, 3, ("p",))
        frames = [frame.skeletons for frame in search._frames(bounds)]
        hit = search._canonical_sweep(_fold_constants(f), bounds)[1]
        clear_plans()
        enumerated, canonical = _counting_enumeration(monkeypatch)
        for _ in range(3):
            decide_bounded(f, bounds)
        plain = [args[:2] for args in enumerated if not args[2]]
        if shape is None:
            # the first decision keeps the plan, which the others reuse
            assert plain == []
            assert canonical == [sk for skeletons in frames for sk in skeletons]
        else:
            assert plain == [shape] * 3
            # a refuted sweep keeps nothing, so each one streams, and
            # enumerates through the frame of its witness and one skeleton
            # more, with which the run of the next world count begins
            through = sum(len(skeletons) for skeletons in frames[: frames.index(hit[0].skeletons) + 1])
            assert len(canonical) == 3 * (through + 1)


class TestWitnessMaskSweep:
    """A plain refutation sweeps in full order only the canonical witness
    skeleton's presence mask, up to that skeleton, and gives the witness
    the whole shape's full-order sweep gives."""

    # each fails first in full order in a skeleton before the canonical
    # witness skeleton, and the first three hold false for the fold
    TEXTS = [
        ("R R p -> (K p | (false -> false)) & R p", ("p",)),
        ("R R q -> (K q | (false -> false)) & R q", ("p", "q")),
        ("R (~false & (false & p) | R D p) -> D R R (false | p)", ("p",)),
        ("D p | ~R K p", ("p",)),
        ("R D p -> D p", ("p",)),
        ("R p | ~K R R p", ("p",)),
    ]

    def whole_shape(self, f, bounds):
        """The canonical witness skeleton c, and the first failing model of
        c's whole shape in full order as a Countermodel."""
        from awarekit import search
        from awarekit.checker import _pack
        from awarekit.model import _iter_skeletons_wa

        g, n = _fold_constants(f), len(bounds.props)
        _, (frame, lane, _) = search._canonical_sweep(g, bounds)
        c, _ = frame.valuation(lane, n)
        _, hit = search._sweep(g, bounds.props, _pack(_iter_skeletons_wa(c.world_count, c.agent_count), n))
        return c, Countermodel(*search._witness(f, bounds.props, *hit))

    @pytest.mark.parametrize("text,props", TEXTS)
    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)], ids=["3x3", "2x3"])
    def test_resweeps_the_mask_up_to_the_canonical_witness(self, monkeypatch, text, props, shape):
        from awarekit import search
        from awarekit.model import _iter_skeletons_wa

        bounds = Bounds(*shape, props)
        f = parse(text)
        c, want = self.whole_shape(f, bounds)
        packed = []
        pack = search._pack

        def recording(skeletons, nprops):
            packed.append(list(skeletons))
            return pack(packed[-1], nprops)

        monkeypatch.setattr(search, "_pack", recording)
        assert decide_bounded(f, bounds) == want
        mask = list(_iter_skeletons_wa(c.world_count, c.agent_count, False, c.presence_mask))
        assert packed[-1] == mask[: mask.index(c) + 1]
        assert len(packed[-1]) > 1

    @pytest.mark.parametrize("bounds", [Bounds(3, 3, ("p", "q")), Bounds(3, 3, ("p",)), Bounds(4, 2, ("p",))])
    def test_equals_the_whole_shape_sweep(self, bounds):
        # formulas valid at (1,1), so that most witnesses lie past it
        checked = 0
        for seed in range(3000):
            f = random_formula(random.Random(seed), bounds.props, 4)
            if isinstance(decide_bounded(f, Bounds(1, 1, bounds.props)), Countermodel):
                continue
            got = decide_bounded(f, bounds)
            if isinstance(got, Countermodel):
                assert got == self.whole_shape(f, bounds)[1], render(f)
                checked += 1
        assert checked >= 30


class TestConstantFold:
    """The sweeps evaluate _fold_constants(f), which is f unless f holds
    false; verdicts, witnesses and counts are those of sweeping f."""

    BOUNDS = [Bounds(2, 2, ("p", "q")), Bounds(3, 3, ("p",)), Bounds(3, 2, ("p",)), Bounds(3, 3, ("p", "q"))]

    # 50 random formulas at each bound, 200 in all, about half of whose
    # leaves are false
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @pytest.mark.parametrize("bounds", BOUNDS, ids=["2x2pq", "3x3p", "3x2p", "3x3pq"])
    def test_equals_sweeping_the_formula_itself(self, bounds, seed):
        from awarekit import search

        f = random_formula(random.Random(seed), bounds.props, 4)
        decide_bounded(parse("K p -> p"), bounds)  # keeps the bound's plan

        def decisions():
            warm = [decide_bounded(f, bounds, prune) for prune in (False, True)]
            with pytest.MonkeyPatch.context() as mp:
                _streamed(mp)
                cold = [decide_bounded(f, bounds, prune) for prune in (False, True)]
            return warm + cold

        got = decisions()
        with pytest.MonkeyPatch.context() as mp:
            # the fold's result replaced by its root, f itself
            mp.setattr(search, "_fold_program", lambda entries, nodes: nodes[-1])
            want = decisions()
        assert got == want, render(f)
        assert got[:2] == got[2:]

    def test_a_folded_true_is_evaluated_on_every_pass(self, clear_plans, monkeypatch):
        # no early return: each of the plan's 93 passes evaluates true, to
        # a column of full at every slot
        from awarekit import search
        from awarekit.checker import _Frame

        bounds = Bounds(3, 3, ("p", "q"))
        want = decide_bounded(parse("K p -> p"), bounds)  # keeps the bound's plan
        calls = []
        columns = _Frame.columns

        def counting(frame, roots, leaves, full):
            out = columns(frame, roots, leaves, full)
            calls.append([c == full for c in out[0]])
            return out

        monkeypatch.setattr(_Frame, "columns", counting)
        assert decide_bounded(parse("K (false & q | false) -> K R p"), bounds) == want
        assert len(calls) == 93 and all(all(full) for full in calls)


@pytest.fixture
def clear_plans():
    """Forget every kept plan, before and after the test."""
    from awarekit import search

    search._plans.clear()
    yield search._plans.clear
    search._plans.clear()


def _streamed(mp):
    """Through mp, make every decision stream: no plan is found or kept."""
    from awarekit import search

    mp.setattr(search, "_plans", {})
    mp.setattr(search, "_PLAN_BYTES", -1)


def _counting_enumeration(mp):
    """Through mp, record the arguments of every _iter_skeletons_wa call
    of the search, and each skeleton its _iter_skeletons yields."""
    from awarekit import search

    calls, yielded = [], []
    wa, each = search._iter_skeletons_wa, search._iter_skeletons

    def counting_wa(*args):
        calls.append(args)
        return wa(*args)

    def counting(*args):
        for sk in each(*args):
            yielded.append(sk)
            yield sk

    mp.setattr(search, "_iter_skeletons_wa", counting_wa)
    mp.setattr(search, "_iter_skeletons", counting)
    return calls, yielded


def _witness_shape(verdict):
    return verdict.model.world_count, verdict.model.agent_count


def _key(bounds):
    from awarekit.checker import _CHUNK_BITS

    return bounds.max_worlds, bounds.max_agents, len(bounds.props), _CHUNK_BITS


def _bound_bytes(bounds):
    """_Frame.nbytes summed over the bound's canonical frames, as the plan
    cap counts them, streamed or kept."""
    from awarekit.search import _frames

    return sum(frame.nbytes() for frame in _frames(bounds))


def _kept_bytes():
    """Each kept plan's bytes, by bound, least recently used first."""
    from awarekit import search

    return {key: nbytes for key, (_, nbytes) in search._plans.items()}


class TestPlanReuse:
    # decisions at one bound share its frames and pass layouts: the first
    # sweep that reaches the bound's end keeps the frames it built as the
    # bound's plan, which is reused from then on
    CASES = [
        ("K p -> p", Bounds(2, 2, ("p",)), False),
        ("D p -> R p", Bounds(2, 2, ("p", "q")), True),  # witness in (2,2), presence 7 of 15
        ("~D ~K p -> ~R ~D p", Bounds(3, 2, ("p",)), False),  # witness in (3,2), presence 31 of 63
        ("K ~R p -> ~D K p", Bounds(3, 2, ("p",)), True),
        ("R (p & q) -> R p & R q", Bounds(2, 2, ("p", "q")), False),
        ("~R ~R p -> ~D ~R p", Bounds(3, 2, ("p", "q")), True),  # witness in (3,2), presence 29 of 63
        ("K ~R p -> ~D K p", Bounds(3, 2, ("p",)), False),
        ("D p -> R p", Bounds(3, 2, ("p",)), False),
    ]

    def cold(self, clear_plans):
        out = []
        for text, bounds, prune in self.CASES:
            clear_plans()
            out.append(decide_bounded(parse(text), bounds, prune))
        clear_plans()
        return out

    def test_repeated_and_interleaved_decisions_match_cold_runs(self, clear_plans, monkeypatch):
        from awarekit import search

        want = self.cold(clear_plans)
        enumerated, canonical = _counting_enumeration(monkeypatch)
        order = list(range(len(self.CASES)))
        for rounds in (order, order[::-1]):
            for i in rounds:
                text, bounds, prune = self.CASES[i]
                assert decide_bounded(parse(text), bounds, prune) == want[i], text
        # each bound with a valid case has had it swept to its end, so its
        # plan is kept, and no decision there enumerates a canonical skeleton
        kept = {_key(bounds) for (_, bounds, _), v in zip(self.CASES, want) if isinstance(v, ValidUpToBounds)}
        assert set(search._plans) == kept
        for i in order:
            text, bounds, prune = self.CASES[i]
            enumerated.clear()
            canonical.clear()
            got = decide_bounded(parse(text), bounds, prune)
            assert got == want[i], text
            if _key(bounds) in kept:
                assert canonical == [], text
            if isinstance(got, ValidUpToBounds):
                assert enumerated == [], text

    def test_witness_partway_keeps_no_partial_plan(self, clear_plans):
        from awarekit import search

        f, bounds = parse("~D ~K p -> ~R ~D p"), Bounds(3, 2, ("p",))
        for _ in range(3):
            v = decide_bounded(f, bounds)
        assert isinstance(v, Countermodel) and _witness_shape(v) == (3, 2)
        # no sweep reached the end of the bound, so nothing of it is kept,
        # though the sweeps passed five of its six shapes
        assert search._plans == {}
        # one valid decision keeps its plan, and the next decision finds
        # the same witness there
        decide_bounded(parse("K p -> p"), bounds)
        assert _kept_bytes() == {_key(bounds): _bound_bytes(bounds)}
        plan = search._plans[_key(bounds)]
        assert decide_bounded(f, bounds) == v
        assert search._plans == {_key(bounds): plan}

    @pytest.mark.parametrize("over", ["one-bound-over", "total-over"])
    def test_cap(self, clear_plans, monkeypatch, over):
        from awarekit import search

        # plans are kept and evicted whole, one per bound, by the one
        # byte count of the frames streamed and kept alike.  The cap is
        # either below the bytes of the (3,2) bound, so only the (2,3)
        # bound's plan is kept, or above either bound's and below both
        # together, so each bound's plan evicts the other's
        big, small = Bounds(3, 2, ("p",)), Bounds(2, 3, ("p",))
        size = {b: _bound_bytes(b) for b in (big, small)}
        if over == "one-bound-over":
            cap = size[big] - 1
            assert size[small] <= cap
        else:
            cap = max(size.values())
            assert cap < size[big] + size[small]
        texts = ["K p -> p", "D p -> R p", "K ~R p -> ~D K p", "R K p -> K R p"]
        want = {}
        for b in (small, big):
            clear_plans()
            want[b] = [decide_bounded(parse(t), b) for t in texts]
        clear_plans()
        monkeypatch.setattr(search, "_PLAN_BYTES", cap)
        for _ in range(3):
            for b in (small, big):
                assert [decide_bounded(parse(t), b) for t in texts] == want[b]
        if over == "one-bound-over":
            # the big bound streams every time and is never kept
            assert _kept_bytes() == {_key(small): size[small]}
        else:
            assert _kept_bytes() == {_key(big): size[big]}
        assert sum(_kept_bytes().values()) <= cap

    def test_default_cap_keeps_the_documented_bounds(self):
        from awarekit import search

        # the (3,3) bound over p and over p,q, and the (4,3) bound over p,
        # fit the cap: each is kept whole
        for bounds in [Bounds(3, 3, ("p",)), Bounds(3, 3, ("p", "q")), Bounds(4, 3, ("p",))]:
            assert _bound_bytes(bounds) <= search._PLAN_BYTES, bounds

    # the (3,3) plans, frame by frame: its shapes and its lanes.  Each
    # world count's shapes make one run
    def test_run_rule_on_the_three_by_three_plans(self, clear_plans):
        from awarekit import search

        shapes = {w: [(w, a) for a in (1, 2, 3)] for w in (1, 2, 3)}
        for props, head, passes in [
            (("p",), [(shapes[1], 25), (shapes[2], 609), (shapes[3], 22193)], 3),
            (("p", "q"), [(shapes[1], 111), (shapes[2], 22575), (shapes[3], 63727)], 93),
        ]:
            bounds = Bounds(3, 3, props)
            decide_bounded(parse("K p -> p"), bounds)  # keeps the bound's plan
            plan, _ = search._plans[_key(bounds)]
            layout = [(sorted({(sk.world_count, sk.agent_count) for sk in f.skeletons}), f.size) for f in plan]
            assert layout[:3] == head, props
            # over p,q the third run, (3,1) to (3,3), spans 49 frames
            assert all(frame_shapes[0][0] == 3 for frame_shapes, _ in layout[2:])
            assert sum(size for _, size in layout[2:]) == (22193 if len(props) == 1 else 5936559)
            assert len(layout) == (3 if len(props) == 1 else 51)
            assert sum(1 for frame in plan for _ in frame._passes(len(props))) == passes

    # 50 random formulas at each bound, 200 in all, plain and pruned
    WARM = [Bounds(2, 3, ("p",)), Bounds(3, 3, ("p",)), Bounds(4, 3, ("p",)), Bounds(3, 3, ("p", "q"))]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @pytest.mark.parametrize("bounds", WARM, ids=["2x3p", "3x3p", "4x3p", "3x3pq"])
    def test_warm_decision_equals_cold(self, bounds, seed):
        # a decision through the bound's kept plan gives the verdict,
        # witness and models_checked of a streamed one
        from awarekit import search

        if _key(bounds) not in search._plans:
            decide_bounded(parse("K p -> p"), bounds)  # keeps the bound's plan
        plan = search._plans[_key(bounds)]
        f = random_formula(random.Random(seed), bounds.props, 4)
        with pytest.MonkeyPatch.context() as mp:
            _streamed(mp)
            cold = [decide_bounded(f, bounds, prune) for prune in (False, True)]
        assert [decide_bounded(f, bounds, prune) for prune in (False, True)] == cold, render(f)
        assert search._plans[_key(bounds)] is plan

    def test_concurrent_decisions_agree(self, clear_plans, monkeypatch):
        # threads share the plans; a small cap makes them evict each other's
        import sys
        import threading

        from awarekit import search

        cases = [
            ("K p -> p", Bounds(2, 3, ("p",)), False),
            ("D p -> R p", Bounds(2, 3, ("p",)), True),
            ("K ~R p -> ~D K p", Bounds(3, 2, ("p",)), False),
            ("K p -> p", Bounds(3, 2, ("p",)), True),
        ]
        want = []
        for text, bounds, prune in cases:
            clear_plans()
            want.append(decide_bounded(parse(text), bounds, prune))
        clear_plans()
        # room for either bound's plan, not both
        bounds = [Bounds(2, 3, ("p",)), Bounds(3, 2, ("p",))]
        cap = max(_bound_bytes(b) for b in bounds)
        assert cap < sum(_bound_bytes(b) for b in bounds)
        monkeypatch.setattr(search, "_PLAN_BYTES", cap)
        wrong: list = []

        def work(k):
            try:
                for i in range(60):
                    text, bounds, prune = cases[(i + k) % len(cases)]
                    if decide_bounded(parse(text), bounds, prune) != want[(i + k) % len(cases)]:
                        wrong.append((k, i))
            except Exception as exc:  # reported below, with the thread's place
                wrong.append((k, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert sum(_kept_bytes().values()) <= cap

    def test_no_reference_cycles_on_any_path(self, clear_plans):
        # a streamed sweep that stops at its witness, one that keeps the
        # plan, and valid and refuted ones that reuse it
        import gc

        bounds = Bounds(2, 2, ("p",))
        decide_bounded(parse("K p -> p"), bounds)  # fill the enumeration caches first
        clear_plans()
        gc.collect()
        gc.disable()
        try:
            for text in ("K p", "K p -> p", "K p -> p", "K p"):
                decide_bounded(parse(text), bounds)
                assert gc.collect() == 0
        finally:
            gc.enable()

    # the kept plan is the frames the first full sweep streamed, each of
    # one world count
    @pytest.mark.parametrize(
        "bounds,frames,passes",
        [
            (Bounds(2, 2, ("p",)), 2, 2),
            (Bounds(3, 3, ("p",)), 3, 3),
            (Bounds(3, 3, ("p", "q")), 51, 93),
            (Bounds(4, 3, ("p",)), 22, 22),
        ],
        ids=["2x2p", "3x3p", "3x3pq", "4x3p"],
    )
    def test_streamed_frames_are_the_kept_plan(self, clear_plans, monkeypatch, bounds, frames, passes):
        from awarekit import search

        swept = []
        sweep = search._sweep

        def recording(f, props, frames):
            frames = list(frames)
            swept.extend(frames)
            return sweep(f, props, frames)

        monkeypatch.setattr(search, "_sweep", recording)
        decide_bounded(parse("K p -> p"), bounds)
        plan, nbytes = search._plans[_key(bounds)]
        assert len(plan) == len(swept) == frames
        assert all(kept is built for kept, built in zip(plan, swept))
        assert nbytes == sum(frame.nbytes() for frame in plan)
        assert [frame.skeletons for frame in plan] == [frame.skeletons for frame in search._frames(bounds)]
        for frame in plan:
            assert {sk.world_count for sk in frame.skeletons} == {frame.world_count}
        assert sum(1 for frame in plan for _ in frame._passes(len(bounds.props))) == passes

    def test_decision_after_the_first_valid_one_enumerates_nothing(self, clear_plans, monkeypatch):
        enumerated, canonical = _counting_enumeration(monkeypatch)
        bounds = Bounds(3, 3, ("p",))
        assert isinstance(decide_bounded(parse("K p -> p"), bounds), ValidUpToBounds)
        assert canonical and not enumerated
        canonical.clear()
        assert isinstance(decide_bounded(parse("D p -> K D p"), bounds), ValidUpToBounds)
        assert isinstance(decide_bounded(parse("R p -> K R p"), bounds, prune=True), Countermodel)
        assert canonical == [] and enumerated == []


class TestFuzz:
    def test_zero_violations_on_the_axioms(self):
        report = fuzz_soundness(60, 7, Bounds(4, 4, ("p", "q", "r")), 3)
        assert report.violations == ()
        assert report.trials == 60
        assert report.schema_instances_checked == 60 * 10 * 10

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            fuzz_soundness(0, 7, Bounds(2, 2, ("p",)), 2)

    @pytest.mark.parametrize("instances", [0, -1])
    def test_instances_must_be_positive(self, instances):
        with pytest.raises(ValueError, match="instances_per_schema must be at least 1"):
            fuzz_soundness(2, 7, Bounds(2, 2, ("p",)), 2, instances_per_schema=instances)

    def test_pool_depth_must_not_be_negative(self):
        with pytest.raises(ValueError, match="pool_depth must be at least 0"):
            fuzz_soundness(2, 7, Bounds(2, 2, ("p",)), -1)

    @pytest.mark.parametrize("bounds", [Bounds(10**11, 1, ("p",)), Bounds(4, 257, ("p",))])
    def test_bounds_past_the_random_model_cap(self, bounds):
        with pytest.raises(ValueError, match="random models have at most 256 worlds and 256 agents"):
            fuzz_soundness(1, 7, bounds, 2)
        with pytest.raises(ValueError, match="the bounds allow"):
            random_model(7, bounds)

    def test_bounds_at_the_random_model_cap(self):
        report = fuzz_soundness(1, 7, Bounds(256, 1, ("p",)), 1, instances_per_schema=1)
        assert report.violations == ()

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


def per_instance_fuzz(trials, seed, bounds, pool_depth, instances_per_schema=10, schemas=None):
    """Reference for fuzz_soundness: the same draws, but each instance built
    with instantiate and checked alone by ModelEvaluator.first_failure."""
    if schemas is None:
        schemas = default_fuzz_schemas()
    rng = random.Random(seed)
    checked = 0
    violations = []
    for _ in range(trials):
        model = random_model(rng.getrandbits(64), bounds)
        evaluator = ModelEvaluator(model)
        for schema_id, schema in schemas:
            mvs = sorted(metavariables(schema))
            for _ in range(instances_per_schema):
                subst = {mv: random_formula(rng, bounds.props, pool_depth) for mv in mvs}
                checked += 1
                point = evaluator.first_failure(instantiate(schema, subst))
                if point is not None:
                    violations.append(FuzzViolation(model, point, schema_id, subst))
    return FuzzReport(trials, checked, tuple(violations))


def _schemas(*texts):
    return [(text, parse(text)) for text in texts]


# schemas the fuzzer must refute; the last has two metavariables
PLANTED = _schemas("PHI -> K PHI", "D PHI -> R PHI", "R PHI -> K PHI | PSI")


class TestFuzzLanes:
    """fuzz_soundness evaluates the instances of a schema as lanes; the
    report must be the one the per-instance path gives."""

    @pytest.mark.parametrize(
        "schemas",
        [
            PLANTED,
            # a repeated metavariable
            _schemas("K PHI | K ~PHI", "PHI & R PSI -> K (PSI & PHI)"),
            # z is outside the bounds and reads as false
            _schemas("PHI -> K PHI | z", "z"),
            # no metavariable at all
            _schemas("~R false", "p -> K p"),
        ],
        ids=["planted", "repeated", "outside-bounds", "no-metavariable"],
    )
    @pytest.mark.parametrize("instances", [1, 10, 70])
    @pytest.mark.parametrize("pool_depth", [0, 3])
    def test_equals_per_instance_report(self, schemas, instances, pool_depth):
        bounds = Bounds(3, 3, ("p", "q"))
        for seed in range(3):
            args = (4, seed, bounds, pool_depth, instances, schemas)
            assert fuzz_soundness(*args) == per_instance_fuzz(*args)

    def test_planted_schemas_are_refuted(self):
        args = (30, 0, Bounds(3, 3, ("p", "q")), 3, 10, PLANTED)
        report = fuzz_soundness(*args)
        assert {v.schema_id for v in report.violations} == {schema_id for schema_id, _ in PLANTED}
        assert report == per_instance_fuzz(*args)

    @pytest.mark.parametrize("seed", range(3))
    def test_default_schemas_match_per_instance_report(self, seed):
        args = (15, seed, Bounds(4, 4, ("p", "q", "r")), 3)
        assert fuzz_soundness(*args) == per_instance_fuzz(*args)

    def test_builds_no_instance(self, monkeypatch):
        import awarekit.search

        def refuse(*_):
            raise AssertionError("instantiate called")

        monkeypatch.setattr(awarekit.search, "instantiate", refuse)
        report = fuzz_soundness(10, 0, Bounds(3, 3, ("p", "q")), 2, schemas=PLANTED)
        assert report.violations


# node kinds by name with their class and arity; the order fixes the draws
_KINDS = {
    "atom": (Atom, 0),
    "false": (Falsum, 0),
    "not": (Not, 1),
    "implies": (Implies, 2),
    "and": (And, 2),
    "or": (Or, 2),
    "K": (Know, 1),
    "R": (DeRe, 1),
    "D": (DeDicto, 1),
}
_NODE_KINDS = tuple(_KINDS)
_LEAF_KINDS = ("atom", "false")


def reference_formula(rng, props, max_depth):
    """The draw of random_formula as a plain recursion over Random.choice,
    with no sharing: the reference the inline drawer is checked against."""
    kind = rng.choice(_LEAF_KINDS if max_depth <= 0 else _NODE_KINDS)
    if kind == "atom":
        return Atom(rng.choice(list(props)))
    node, arity = _KINDS[kind]
    if arity == 2:
        left = reference_formula(rng, props, max_depth - 1)
        return node(left, reference_formula(rng, props, max_depth - 1))
    return node(reference_formula(rng, props, max_depth - 1)) if arity else node()


class TestPoolDraw:
    """fuzz_soundness and random_formula draw with search._drawer, which
    does Random.choice inline; it must draw what the Random.choice recursion
    draws and leave the rng where that recursion leaves it."""

    @pytest.mark.parametrize("props", [("p",), ("p", "q"), ("p", "q", "r"), ("a", "b", "c", "d", "e")])
    def test_equals_random_formula(self, props):
        for seed in range(200):
            for depth in range(6):
                ref, rng, public = random.Random(seed), random.Random(seed), random.Random(seed)
                draw, interned = _drawer(rng, props), {}
                for _ in range(3):
                    want = reference_formula(ref, props, depth)
                    got = draw(depth, interned)
                    assert got == want and render(got) == render(want)
                    f = random_formula(public, props, depth)
                    assert f == want
                    # one node per distinct subtree: the program has one entry per id
                    entries, entry_of, _ = _program([f])
                    assert len(entries) == len(entry_of)
                assert rng.getstate() == ref.getstate() == public.getstate()

    def test_no_props_raise_before_any_draw(self):
        rng = random.Random(6)
        state = rng.getstate()
        for depth in range(4):
            with pytest.raises(ValueError, match="at least one proposition"):
                random_formula(rng, (), depth)
        assert rng.getstate() == state

    def test_equal_subtrees_are_one_object(self):
        draw, interned = _drawer(random.Random(4), ("p", "q")), {}
        first: dict = {}
        walked = 0
        for _ in range(300):
            stack = [draw(3, interned)]
            while stack:
                node = stack.pop()
                assert first.setdefault(node, node) is node
                stack += children(node)
                walked += 1
        # the pool repeats subtrees, so sharing is exercised
        assert len(first) < walked / 2


class TestFuzzMemo:
    """fuzz_soundness evaluates a trial's pool on one lane in one engine
    call and hands each schema its columns by position; no column may
    reach a schema body but as its metavariables' lanes, and no call may
    see another call's columns."""

    def test_schema_atom_used_as_substitution(self):
        # p is an atom of the body, one lane per instance there, and a
        # substitution formula, one lane in all in the pool's call
        p = Atom("p")
        schema = Implies(MetaVar("PHI"), Know(p))
        substs = [{"PHI": p}, {"PHI": Not(p)}, {"PHI": Know(p)}, {"PHI": p}]
        for seed in range(30):
            evaluator = ModelEvaluator(random_model(seed, Bounds(3, 3, ("p", "q"))))
            want = [
                (j, point)
                for j, subst in enumerate(substs)
                if (point := evaluator.first_failure(instantiate(schema, subst))) is not None
            ]
            single = evaluator._columns([subst["PHI"] for subst in substs])
            assert evaluator.first_failures(schema, substs, single) == want
            assert evaluator.first_failures(schema, substs) == want

    def test_fuzz_with_concrete_atoms_in_schemas(self):
        schemas = _schemas("PHI -> K p", "p & PHI -> R (p & PHI)", "K (PHI | q) -> K p")
        for seed in range(5):
            args = (6, seed, Bounds(3, 3, ("p", "q")), 2, 10, schemas)
            assert fuzz_soundness(*args) == per_instance_fuzz(*args)

    def test_fresh_substitutions_on_one_evaluator(self):
        # each round's substitutions die with the round, so the next round's
        # nodes reuse their ids; no call may see another call's columns.
        # An axiom holds whatever column its metavariable gets, so only
        # refutable schemas on models with several pairs can show one.
        rng = random.Random(2)

        def round_agrees(evaluator, schema):
            mvs = sorted(metavariables(schema))
            substs = [{mv: random_formula(rng, ("p", "q"), 3) for mv in mvs} for _ in range(5)]
            got = evaluator.first_failures(schema, substs)
            return got == [
                (j, point)
                for j, subst in enumerate(substs)
                if (point := evaluator.first_failure(instantiate(schema, subst))) is not None
            ]

        for model_seed in (1, 5):
            evaluator = ModelEvaluator(random_model(model_seed, Bounds(3, 3, ("p", "q"))))
            assert len(evaluator.model.presence) >= 3
            for _, schema in PLANTED:
                for _ in range(20):
                    assert round_agrees(evaluator, schema)

    def test_one_pool_call_per_trial(self, monkeypatch):
        # one single-lane call whose roots are the trial's substitution
        # formulas, schema by schema in draw order, then one call per body
        import awarekit.checker as engine

        columns = engine._Frame.columns
        calls = []

        def spy(frame, roots, leaves, full):
            calls.append((list(roots), full))
            return columns(frame, roots, leaves, full)

        monkeypatch.setattr(engine._Frame, "columns", spy)
        bounds, schemas = Bounds(3, 3, ("p", "q")), default_fuzz_schemas()
        for seed in range(3):
            rng = random.Random(seed)
            draw = _drawer(rng, bounds.props)
            want = []
            for _ in range(2):
                rng.getrandbits(64)  # the trial's model
                interned, pool = {}, []
                for _, schema in schemas:
                    mvs = sorted(metavariables(schema))
                    substs = [{mv: draw(3, interned) for mv in mvs} for _ in range(10)]
                    pool += [subst[mv] for mv in mvs for subst in substs]
                want += [(pool, 1)] + [([schema], (1 << 10) - 1) for _, schema in schemas]
            calls.clear()
            assert fuzz_soundness(2, seed, bounds, 3).ok
            assert calls == want

    @pytest.mark.parametrize(
        "name,call",
        [
            ("PHI", lambda model: decide_bounded(parse("PHI -> p"), Bounds(2, 2, ("p",)))),
            ("PHI", lambda model: ModelEvaluator(model).holds_everywhere(parse("K PHI"))),
            (
                "PSI",
                lambda model: ModelEvaluator(model).first_failures(
                    parse("PHI -> K PHI"), [{"PHI": parse("p")}, {"PHI": parse("p & PSI")}]
                ),
            ),
        ],
        ids=["decide_bounded", "holds_everywhere", "schema-substitution"],
    )
    def test_unbound_metavariable_reaching_the_engine(self, name, call):
        model = random_model(3, Bounds(2, 2, ("p",)))
        with pytest.raises(ValueError, match=f"^cannot evaluate a schema; metavariable {name} is unbound$"):
            call(model)


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
