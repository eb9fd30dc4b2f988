"""Seeded workload inputs, generated without calling into awarekit.

Formula text comes from this module's own generator, not from
``awarekit.search.random_formula``, so a change to the program cannot change
what the benchmark feeds it.  Every binary subformula is parenthesised, so
the text means the same under any precedence rules.  The same
(workload, seed) pair always yields byte-identical inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path
from typing import Iterator

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# The ten non-tautology axiom schemas, as fixed text.  PHI and PSI are
# metavariables, replaced textually by parenthesised formulas.
AXIOM_SCHEMAS = {
    "truth": "K PHI -> PHI",
    "negintro": "~K PHI -> K ~K PHI",
    "dist": "K (PHI -> PSI) -> (K PHI -> K PSI)",
    "selfR": "PHI -> R PHI",
    "selfD": "K PHI -> D PHI",
    "introaware": "D PHI -> K D PHI",
    "unfalseR": "~R false",
    "unfalseD": "~D false",
    "disj": "R (PHI | PSI) -> R PHI | R PSI",
    "genaware": "D (R PHI | D PHI) -> D PHI",
}

_BINARY = {"implies": "->", "and": "&", "or": "|"}
_UNARY = {"not": "~", "K": "K ", "R": "R ", "D": "D "}
_KINDS = ("atom", "false", "not", "implies", "and", "or", "K", "R", "D")


def rng_for(workload: str, seed: int) -> random.Random:
    """A generator private to one workload and seed; ``random`` hashes string
    seeds with SHA-512, so the stream is the same in every process."""
    return random.Random(f"{workload}:{seed}")


def formula(rng: random.Random, props: tuple[str, ...], depth: int) -> str:
    """Random formula text over props, at most depth connectives deep."""
    kind = rng.choice(_KINDS[:2] if depth <= 0 else _KINDS)
    if kind == "atom":
        return rng.choice(props)
    if kind == "false":
        return "false"
    if kind in _UNARY:
        return _UNARY[kind] + formula(rng, props, depth - 1)
    left = formula(rng, props, depth - 1)
    right = formula(rng, props, depth - 1)
    return f"({left} {_BINARY[kind]} {right})"


def atoms_of(text: str, props: tuple[str, ...]) -> list[str]:
    """The props that occur in formula text produced by ``formula``."""
    found = set(re.findall(r"[a-z][A-Za-z0-9_]*", text)) - {"false", "true"}
    return sorted(p for p in props if p in found)


def instantiate(schema: str, subst: dict[str, str]) -> str:
    return re.sub(r"\b(PHI|PSI)\b", lambda m: f"({subst[m.group(1)]})", schema)


def connectives(text: str) -> int:
    return len(re.findall(r"->|[&|~]|[KRD] ", text))


CONJECTURE_CONNECTIVES = 6


def conjectures(seed: int) -> Iterator[dict]:
    """Random conjectures of depth 3-4 that use both p and q and have exactly
    six connectives.  Every valid one then costs a full 3x3 scan over 18
    valuation bits of about the same size, and about a fifth are valid."""
    rng = rng_for("conjectures", seed)
    for i in itertools.count():
        text = ""
        while atoms_of(text, ("p", "q")) != ["p", "q"] or connectives(text) != CONJECTURE_CONNECTIVES:
            text = formula(rng, ("p", "q"), rng.choice((3, 4)))
        yield {"id": i, "formula": text, "props": ["p", "q"]}


def scan_instances(seed: int) -> Iterator[dict]:
    """Axiom-schema instances over {p}: valid by soundness at any bound."""
    rng = rng_for("scan", seed)
    names = sorted(AXIOM_SCHEMAS)
    for i in itertools.count():
        name = rng.choice(names)
        subst = {mv: formula(rng, ("p",), rng.choice((1, 2))) for mv in ("PHI", "PSI")}
        yield {"id": i, "schema": name, "formula": instantiate(AXIOM_SCHEMAS[name], subst)}


def load_corpus() -> list[dict]:
    """The fixed proof corpus: file name, recorded conclusion, tier, weight."""
    with open(CORPUS_DIR / "index.json", encoding="utf-8") as fh:
        return json.load(fh)


def hypothesis_script(rng: random.Random) -> dict:
    """A hypothesis-mode proof of C from A, A -> B, B -> C by two modus ponens
    steps, with A, B, C random formulas over {p, q}."""
    a, b, c = (formula(rng, ("p", "q"), rng.choice((1, 2))) for _ in range(3))
    hyps = [a, f"({a}) -> ({b})", f"({b}) -> ({c})"]
    text = (
        f"from {'; '.join(hyps)}\n"
        f"1: {hyps[0]} by hyp 1\n"
        f"2: {hyps[1]} by hyp 2\n"
        f"3: {b} by mp 1 2\n"
        f"4: {hyps[2]} by hyp 3\n"
        f"5: {c} by mp 3 4\n"
    )
    return {"text": text, "hypotheses": hyps, "conclusion": c}


PROOF_ROUND = ("shallow", "shallow", "deep") * 3 + ("transform",)


def proof_jobs(seed: int, corpus: list[dict]) -> Iterator[dict]:
    """Rounds of ten items: six `prove` calls on shallow corpus scripts and
    three on deep awareness towers, each drawn by weight within its tier, and
    one run of the two proof transformers on a fresh hypothesis-mode proof.

    The shallow calls are over half of a round and the deep ones its
    costliest three in ten, so the median latency falls inside the shallow
    tier and the 90th percentile inside the deep one."""
    rng = rng_for("proofs", seed)
    tiers = {tier: [e for e in corpus if e["tier"] == tier] for tier in ("shallow", "deep")}
    for i in itertools.count():
        stratum = PROOF_ROUND[i % len(PROOF_ROUND)]
        if stratum == "transform":
            yield {"id": i, "stratum": stratum, **hypothesis_script(rng)}
        else:
            entries = tiers[stratum]
            entry = rng.choices(entries, [e["weight"] for e in entries])[0]
            yield {"id": i, "stratum": stratum, "file": entry["file"], "conclusion": entry["conclusion"]}


FUZZ_ROUND = 5


def fuzz_calls(seed: int) -> Iterator[dict]:
    """`fuzz` calls at CLI defaults, each with its own seed, in rounds of five.

    A round draws one trial count from each fifth of 10..49, so every round
    checks about 150 trials while call sizes spread evenly over a fivefold
    range.  On a machine that switches between a fast and a slow state, the
    median over calls of one size jumps between the two levels as the share
    of a run spent slow crosses one half; over calls of spread sizes it moves
    with that share instead."""
    rng = rng_for("fuzz", seed)
    for i in itertools.count():
        low = 10 + 8 * (i % FUZZ_ROUND)
        yield {"id": i, "stratum": "call", "trials": rng.randint(low, low + 7), "seed": rng.getrandbits(32)}
