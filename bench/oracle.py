"""Correctness checks that do not trust the search engine under test."""

from __future__ import annotations

from math import comb


def bell(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def model_count(max_worlds: int, max_agents: int, nprops: int) -> int:
    """How many models a bounded search must scan to answer "valid".

    A model has W <= max_worlds worlds and A <= max_agents agents.  Each
    agent independently picks the k worlds it is present in, a partition of
    them, and a truth value for every prop at each of its k points, so
    the count is sum over W, A of (sum_k C(W,k) * Bell(k) * 2^(P*k)) ** A.
    """
    total = 0
    for worlds in range(1, max_worlds + 1):
        per_agent = sum(comb(worlds, k) * bell(k) * 2 ** (nprops * k) for k in range(worlds + 1))
        total += sum(per_agent**agents for agents in range(1, max_agents + 1))
    return total


def redecide_valid(formula_text: str, props: list[str], max_worlds: int = 2, max_agents: int = 2) -> str | None:
    """Re-decide a claimed-valid formula by brute force over ``enumerate_models``
    with the unmemoized reference evaluator; returns a failure reason or None."""
    from awarekit import Bounds, enumerate_models, parse, satisfies_naive

    f = parse(formula_text)
    seen = 0
    for model in enumerate_models(Bounds(max_worlds, max_agents, tuple(props))):
        seen += 1
        for point in model.points():
            if not satisfies_naive(model, point, f):
                return f"claimed valid but false at {point} of a ({max_worlds},{max_agents}) model"
    want = model_count(max_worlds, max_agents, len(props))
    if seen != want:
        return f"enumerate_models gave {seen} models at ({max_worlds},{max_agents}), closed form {want}"
    return None
