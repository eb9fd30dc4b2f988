"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They check that inputs depend on the seed alone, that the closed-form model
count agrees with ``enumerate_models``, and that the trace wrappers put back
every attribute they patch and change no byte of CLI output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

STREAMS = {
    "conjectures": gen.conjectures,
    "scan": gen.scan_instances,
    "proofs": lambda seed: gen.proof_jobs(seed, gen.load_corpus()),
    "fuzz": gen.fuzz_calls,
}


def take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("name", STREAMS)
def test_same_seed_gives_byte_identical_inputs(name):
    first = json.dumps(take(STREAMS[name](7), 60)).encode()
    again = json.dumps(take(STREAMS[name](7), 60)).encode()
    other = json.dumps(take(STREAMS[name](8), 60)).encode()
    assert first == again
    assert first != other


def test_generated_formulas_parse_with_the_promised_atoms():
    from awarekit import atoms, parse

    for item in take(gen.conjectures(1), 40):
        assert atoms(parse(item["formula"])) == {"p", "q"}
        assert gen.connectives(item["formula"]) == gen.CONJECTURE_CONNECTIVES
    for item in take(gen.scan_instances(1), 40):
        assert atoms(parse(item["formula"])) <= {"p"}


@pytest.mark.parametrize("bounds", [(2, 2, ("p", "q")), (2, 3, ("p",))])
def test_closed_form_equals_enumeration(bounds):
    from awarekit import Bounds, enumerate_models

    worlds, agents, props = bounds
    enumerated = sum(1 for _ in enumerate_models(Bounds(worlds, agents, props)))
    assert oracle.model_count(worlds, agents, len(props)) == enumerated


def test_closed_form_values():
    assert oracle.model_count(3, 3, 1) == 365_441
    assert oracle.model_count(3, 3, 2) == 79_208_857
    assert oracle.model_count(4, 3, 1) == 96_018_740
    assert oracle.model_count(2, 2, 2) == 1_752


def test_redecide_accepts_axiom_instances_and_rejects_a_non_theorem():
    for item in take(gen.scan_instances(3), 4):
        assert oracle.redecide_valid(item["formula"], ["p"]) is None
    assert oracle.redecide_valid("D p -> R p", ["p"]) is not None


def test_rounds_follow_the_mix_in_run_order():
    latencies = [("a", 1.0), ("b", 10.0), ("a", 2.0), ("a", 3.0), ("b", 20.0), ("a", 4.0), ("a", 5.0)]
    rounds = run.complete_rounds(latencies, {"a": 2, "b": 1})
    assert rounds == [[1.0, 2.0, 10.0], [3.0, 4.0, 20.0]]


def cli_output(argv):
    import awarekit.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = awarekit.cli.main(argv)
    return rc, out.getvalue().encode()


COMMANDS = [
    ["valid", "D p -> R p", "--json"],
    ["valid", "K p -> p", "--max-worlds", "2", "--max-agents", "2", "--json"],
    ["valid", "K p -> p", "--max-worlds", "2", "--max-agents", "2", "--prune"],
    ["check", str(ROOT / "models" / "museum.model.json"), "w1", "a", "R(police & near)", "--json"],
    ["prove", str(gen.CORPUS_DIR / "lemma_a_2.proof"), "--json"],
    ["fuzz", "--trials", "3", "--seed", "5", "--json"],
]


def boundary_objects():
    found = {}
    for module, attr, _, _ in tracing.BOUNDARIES:
        owner, last = tracing._resolve(module, attr)
        found[(module, attr)] = owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)
    return found


def test_tracer_restores_attributes_and_keeps_cli_bytes():
    before = boundary_objects()
    plain = [cli_output(argv) for argv in COMMANDS]
    tracer = tracing.Tracer()
    with tracer:
        assert all(boundary_objects()[key] is not obj for key, obj in before.items())
        traced = [cli_output(argv) for argv in COMMANDS]
    after = boundary_objects()
    assert all(after[key] is obj for key, obj in before.items())
    assert traced == plain
    values, absent = tracer.metrics(0.0)
    assert not tracer.missing and not absent
    assert values["cli.calls"] == len(COMMANDS)
    assert values["search.decide.calls"] == 3
    # the plain scan counts every (2,2) model; the pruned one adds its own count
    assert values["search.models_checked"] > oracle.model_count(2, 2, 1)
    # one prove command: the registry's own checks of its builtins do not count
    assert values["proof.check.calls"] == 1 and values["proof.registry.calls"] == 1
    assert values["checker.first_failure.calls"] >= 300


def test_proof_check_counts_only_the_checks_asked_for(tmp_path):
    import awarekit.cli

    workload = run.Proofs(run.Client(awarekit.cli), 3, tmp_path)
    batch = take(workload.items(), len(gen.PROOF_ROUND))
    failures: dict = {}
    tracer = tracing.Tracer()
    with tracer:
        run.run_batch(workload, batch, [], failures, tracer)
    assert not failures
    values, absent = tracer.metrics(0.0)
    assert not absent
    proves = sum(item["stratum"] != "transform" for item in batch)
    transforms = len(batch) - proves
    assert proves == 9 and transforms == 1
    # a check per prove, and the benchmark's own check of each transformer output
    assert values["proof.check.calls"] == proves + 2 * transforms
    assert values["proof.registry.calls"] == proves + transforms
    assert values["proof.transform.calls"] == 2 * transforms
    assert 0 < values["proof.taut_share"] < 1


def test_missing_boundary_is_reported_absent(monkeypatch):
    import awarekit.proof

    monkeypatch.delattr(awarekit.proof, "is_tautology")
    tracer = tracing.Tracer()
    with tracer:
        pass
    values, absent = tracer.metrics(0.0)
    assert "awarekit.proof.is_tautology" in tracer.missing
    assert set(absent) == {"syntax.is_tautology.calls", "syntax.is_tautology.s", "proof.taut_share"}
    assert all("awarekit.proof.is_tautology" in reason for reason in absent.values())
    assert values["syntax.is_tautology.calls"] == 0
