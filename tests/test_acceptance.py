"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance and time budget is pinned here.
"""

import random
import time
from contextlib import contextmanager

import pytest

from awarekit.checker import satisfies, satisfies_naive, valid_in_model
from awarekit.model import Bounds, Point, enumerate_models, load_model, model_to_json, random_model
from awarekit.proof import (
    AXIOM_SCHEMAS,
    NON_TAUT_AXIOMS,
    builtin,
    check,
    default_registry,
    deduction,
    lift_knowledge,
)
from awarekit.search import (
    Countermodel,
    ValidUpToBounds,
    decide_bounded,
    fuzz_soundness,
    random_formula,
)
from awarekit.syntax import Atom, Implies, Know, atoms, instantiate, metavariables, parse

from conftest import GOLDEN, MUSEUM
from test_proof import random_mp_proof


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_running_example():
    with criterion(1, "museum example satisfaction judgments"):
        started = time.monotonic()
        model, world_names, agent_names = load_model(MUSEUM)
        W = {n: i for i, n in enumerate(world_names)}
        A = {n: i for i, n in enumerate(agent_names)}
        judgments = [
            ("w1", "c", "police & near"),
            ("w2", "c", "weride & near"),
            ("w1", "b", "weride & near"),
            ("w1", "a", "R(police & near)"),
            ("w1", "a", "~R(weride & near)"),
            ("w1", "a", "D(weride & near)"),
        ]
        for world, agent, text in judgments:
            assert satisfies(model, Point(W[world], A[agent]), parse(text)) is True, text
        assert time.monotonic() - started < 1.0


def test_criterion_2_soundness_fuzz():
    with criterion(2, "1000-model soundness fuzz with zero violations"):
        started = time.monotonic()
        report = fuzz_soundness(
            trials=1000,
            seed=20260808,
            bounds=Bounds(4, 4, ("p", "q", "r")),
            pool_depth=3,
            instances_per_schema=10,
        )
        assert report.trials == 1000
        assert report.schema_instances_checked == 1000 * 10 * 10
        assert report.violations == ()
        assert time.monotonic() - started < 60.0


def test_criterion_3_non_theorem_separation():
    with criterion(3, "countermodels for the two non-theorems, none for the axioms"):
        started = time.monotonic()
        bounds = Bounds(3, 3, ("p",))
        for text in ("R p -> K R p", "D p -> R p"):
            f = parse(text)
            verdict = decide_bounded(f, bounds)
            assert isinstance(verdict, Countermodel), text
            assert satisfies(verdict.model, verdict.point, f) is False, text
        p = Atom("p")
        for ax in NON_TAUT_AXIOMS:
            schema = AXIOM_SCHEMAS[ax]
            instance = instantiate(schema, {mv: p for mv in metavariables(schema)})
            verdict = decide_bounded(instance, bounds)
            assert isinstance(verdict, ValidUpToBounds), ax.value
        assert time.monotonic() - started < 30.0


def test_axioms_valid_by_generic_instances():
    """Every instance of each non-tautology axiom and of each builtin
    registry schema is valid up to (3,3), not only the one with every
    metavariable replaced by p.

    The generic instance puts a distinct fresh atom in place of each
    metavariable, and deciding it at a bound covers every instance at
    every model of the bound, by uniform substitution.  Valuations range
    over all sets of present pairs, and so do the extensions of formulas.
    So an instance is true at a point of a model exactly when the generic
    instance is true at that point of the model with the same skeleton
    whose valuation gives each fresh atom the extension of the formula
    put in its place.  A countermodel of any instance within the bound
    would thus give one of the generic instance, and there is none.
    """
    with criterion("3b", "generic instances of the axioms and registry schemas are valid up to (3,3)"):
        started = time.monotonic()
        schemas = {ax.value: AXIOM_SCHEMAS[ax] for ax in NON_TAUT_AXIOMS}
        registry = default_registry()
        schemas.update((name, registry.get(name).schema) for name in registry.names())
        for name, schema in schemas.items():
            fresh = {mv: Atom(mv.lower()) for mv in metavariables(schema)}
            assert not atoms(schema) & {a.name for a in fresh.values()}, name
            instance = instantiate(schema, fresh)
            bounds = Bounds(3, 3, tuple(sorted(atoms(instance))) or ("p",))
            assert isinstance(decide_bounded(instance, bounds), ValidUpToBounds), name
        assert len(schemas) == 21
        assert time.monotonic() - started < 30.0


def test_criterion_4_proof_library():
    with criterion(4, "builtin proof library checks and holds semantically"):
        scripts = [builtin("positive_introspection")]
        scripts += [builtin("lemma_A", n) for n in range(4)]
        scripts += [builtin("unaware_top", n) for n in range(4)]
        scripts += [builtin("mono_A", m, n) for m, n in ((0, 1), (1, 3))]
        conclusions = [check(s) for s in scripts]
        bounds = Bounds(4, 4, ("p",))
        for i in range(100):
            m = random_model(900_000 + i, bounds)
            for conclusion in conclusions:
                assert valid_in_model(m, conclusion)


def test_criterion_5_deduction_and_lifting():
    with criterion(5, "deduction and knowledge lifting round-trips"):
        rng = random.Random(31337)
        registry = default_registry()
        for _ in range(100):
            script = random_mp_proof(rng, registry=registry)
            idx = rng.randrange(len(script.hypotheses))
            phi = script.hypotheses[idx]
            psi = script.conclusion
            out = deduction(script, idx, registry)
            assert check(out, registry) == Implies(phi, psi)
        for _ in range(50):
            script = random_mp_proof(rng, n_hyps=rng.randint(0, 3), registry=registry)
            psi = script.conclusion
            out = lift_knowledge(script, registry)
            assert check(out, registry) == Know(psi)


def test_criterion_6_oracle_equivalence():
    with criterion(6, "memoized checker equals naive recursion on 1000 triples"):
        rng = random.Random(606)
        bounds = Bounds(3, 3, ("p", "q", "r"))
        checked = 0
        seed = 0
        while checked < 1000:
            seed += 1
            m = random_model(rng.getrandbits(64), bounds)
            points = list(m.points())
            if not points:
                continue
            pt = points[rng.randrange(len(points))]
            f = random_formula(rng, bounds.props, 5)
            assert satisfies(m, pt, f) == satisfies_naive(m, pt, f)
            checked += 1


def test_criterion_7_enumeration_ground_truth():
    with criterion(7, "enumeration hand counts and random-model golden files"):
        assert sum(1 for _ in enumerate_models(Bounds(1, 1, ("p",)))) == 3
        assert sum(1 for _ in enumerate_models(Bounds(1, 1, ("p", "q")))) == 5
        for seed, bounds, name in [
            (7, Bounds(1, 1, ("p",)), "random_seed7_b11p.json"),
            (2024, Bounds(4, 4, ("p", "q", "r")), "random_seed2024_b44pqr.json"),
        ]:
            got = model_to_json(random_model(seed, bounds)) + "\n"
            assert got == (GOLDEN / name).read_text()
