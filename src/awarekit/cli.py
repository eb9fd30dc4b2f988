"""Command-line surface: check, valid, prove, fuzz, lint, expand.

Exit codes follow one contract across subcommands: 0 when the queried
property holds (formula true, valid up to bounds, proof checks, no fuzz
violations, model clean), 1 when it fails (formula false, countermodel
found, proof error, violations), 2 for usage or input errors.  All outputs
are deterministic given the same inputs, flags, and seeds, and every
command has a --json twin of its human-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .checker import explain as explain_point
from .checker import satisfies
from .model import (
    AgentNotPresentError,
    Bounds,
    ModelFormatError,
    Point,
    load_model,
    model_to_dot,
    model_to_json,
)
from .proof import ProofError, ProofFileError, default_registry, check as check_proof, parse_proof
from .search import Countermodel, decide_bounded, fuzz_soundness
from .syntax import ParseError, atoms, awareness_tower, metavariables, parse, render, rendered_length

OK, FAIL, USAGE = 0, 1, 2

# expand refuses to print a longer formula: each level doubles the text
MAX_EXPAND_CHARS = 10_000_000


def _die(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE


def _load_checked_model(path: str):
    model, world_names, agent_names = load_model(path)
    violations = model.validate()
    if violations:
        raise ModelFormatError(
            "model file violates the model laws:\n"
            + "\n".join(f"  {v}" for v in violations)
        )
    return model, world_names, agent_names


def cmd_check(args) -> int:
    try:
        model, world_names, agent_names = _load_checked_model(args.model)
    except ModelFormatError as exc:
        return _die(str(exc))
    try:
        formula = parse(args.formula)
    except ParseError as exc:
        return _die(str(exc))
    if args.world not in world_names:
        return _die(f"unknown world name {args.world!r}")
    if args.agent not in agent_names:
        return _die(f"unknown agent name {args.agent!r}")
    schema_vars = metavariables(formula)
    if schema_vars:
        return _die(f"cannot evaluate a schema; metavariable {min(schema_vars)} is unbound")
    point = Point(world_names.index(args.world), agent_names.index(args.agent))
    try:
        holds = satisfies(model, point, formula)
    except AgentNotPresentError:
        return _die(
            f"agent {args.agent!r} is not present at world {args.world!r}; "
            "satisfaction is only defined at present points"
        )
    if args.json:
        print(
            json.dumps(
                {
                    "holds": holds,
                    "world": args.world,
                    "agent": args.agent,
                    "formula": render(formula),
                },
                indent=2,
            )
        )
    else:
        print("true" if holds else "false")
        if args.explain:
            print(explain_point(model, point, formula, world_names, agent_names))
    return OK if holds else FAIL


def cmd_valid(args) -> int:
    try:
        formula = parse(args.formula)
    except ParseError as exc:
        return _die(str(exc))
    # an explicit --props, even "", is taken as given and checked by Bounds
    props = args.props.split(",") if args.props is not None else sorted(atoms(formula)) or ["p"]
    try:
        bounds = Bounds(args.max_worlds, args.max_agents, tuple(props))
        verdict = decide_bounded(formula, bounds, prune=args.prune)
    except ValueError as exc:
        return _die(str(exc))
    if isinstance(verdict, Countermodel):
        doc = model_to_json(verdict.model)
        world = f"w{verdict.point.world}"
        agent = f"a{verdict.point.agent}"
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(model_to_dot(verdict.model, mark=[verdict.point]))
        if args.json:
            print(
                json.dumps(
                    {
                        "verdict": "countermodel",
                        "formula": render(formula),
                        "point": {"world": world, "agent": agent},
                        "model": json.loads(doc),
                    },
                    indent=2,
                )
            )
        else:
            print(f"countermodel (falsified at world {world}, agent {agent}):")
            print(doc)
        return FAIL
    if args.json:
        print(
            json.dumps(
                {
                    "verdict": "valid-up-to-bounds",
                    "formula": render(formula),
                    "max_worlds": bounds.max_worlds,
                    "max_agents": bounds.max_agents,
                    "props": list(bounds.props),
                    "models_checked": verdict.models_checked,
                },
                indent=2,
            )
        )
    else:
        print(f"valid up to bounds ({verdict.models_checked} models)")
    return OK


def cmd_prove(args) -> int:
    with open(args.script, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        _, script = parse_proof(text)
    except ProofFileError as exc:
        return _die(str(exc))
    registry = default_registry()
    try:
        conclusion = check_proof(script, registry)
    except ProofError as exc:
        if args.json:
            print(
                json.dumps(
                    {
                        "ok": False,
                        "line": None if exc.line_index is None else exc.line_index + 1,
                        "rule": exc.rule,
                        "reason": exc.reason,
                    },
                    indent=2,
                )
            )
        else:
            print(str(exc))
        return FAIL
    if args.json:
        print(json.dumps({"ok": True, "conclusion": render(conclusion)}, indent=2))
    else:
        print(render(conclusion))
    return OK


def cmd_fuzz(args) -> int:
    if args.trials < 1:
        return _die("--trials must be at least 1")
    if args.instances < 1:
        return _die("--instances must be at least 1")
    if args.pool_depth < 0:
        return _die("--pool-depth must be at least 0")
    props = tuple(args.props.split(","))
    try:
        bounds = Bounds(args.max_worlds, args.max_agents, props)
        report = fuzz_soundness(
            args.trials,
            args.seed,
            bounds,
            args.pool_depth,
            instances_per_schema=args.instances,
        )
    except ValueError as exc:
        return _die(str(exc))
    if args.json:
        print(
            json.dumps(
                {
                    "trials": report.trials,
                    "schema_instances_checked": report.schema_instances_checked,
                    "violations": [
                        {
                            "schema": v.schema_id,
                            "point": {"world": v.point.world, "agent": v.point.agent},
                            "substitution": {
                                mv: render(f) for mv, f in sorted(v.substitution.items())
                            },
                            "model": json.loads(model_to_json(v.model)),
                        }
                        for v in report.violations
                    ],
                },
                indent=2,
            )
        )
    else:
        print(f"trials: {report.trials}")
        print(f"schema instances checked: {report.schema_instances_checked}")
        print(f"violations: {len(report.violations)}")
        for v in report.violations:
            print(
                f"  {v.schema_id} fails at (world {v.point.world}, agent {v.point.agent}) "
                f"under {{{', '.join(f'{mv}={render(f)}' for mv, f in sorted(v.substitution.items()))}}}"
            )
    return OK if report.ok else FAIL


def cmd_lint(args) -> int:
    try:
        model, world_names, agent_names = load_model(args.model)
    except ModelFormatError as exc:
        return _die(str(exc))
    violations = model.validate()
    if args.dot and not violations:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(model_to_dot(model, world_names, agent_names))
    if args.json:
        print(
            json.dumps(
                {"violations": [{"code": v.code, "message": v.message} for v in violations]},
                indent=2,
            )
        )
    else:
        if violations:
            for v in violations:
                print(str(v))
        else:
            print("ok")
    return FAIL if violations else OK


def cmd_expand(args) -> int:
    if args.levels < 0:
        return _die("levels must be nonnegative")
    try:
        formula = parse(args.formula)
    except ParseError as exc:
        return _die(str(exc))
    # the text more than doubles with each level, so the loop refuses
    # within about 24 levels, before building the deeper ones
    expanded = formula
    for _ in range(args.levels):
        expanded = awareness_tower(expanded, 1)
        if rendered_length(expanded) > MAX_EXPAND_CHARS:
            return _die(
                f"the {args.levels}-level expansion is longer than "
                f"{MAX_EXPAND_CHARS} characters"
            )
    if args.json:
        print(json.dumps({"formula": render(expanded)}, indent=2))
    else:
        print(render(expanded))
    return OK


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and in-process callers of main pay for the build once."""
    top = argparse.ArgumentParser(
        prog="awarekit",
        description="Model checking, proof checking, and bounded validity "
        "search for a logic of knowledge and agent awareness.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a point of a model file")
    p.add_argument("model", help="path to a model JSON file")
    p.add_argument("world", help="world name")
    p.add_argument("agent", help="agent name")
    p.add_argument("formula", help="formula text")
    p.add_argument("--explain", action="store_true", help="print an evaluation trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("valid", help="decide validity up to bounded model size")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--max-agents", type=int, default=3)
    p.add_argument("--props", help="comma-separated propositions (default: formula atoms)")
    p.add_argument(
        "--prune",
        action="store_true",
        help="skip skeletons that are relabelings (of worlds or agents) of an earlier one",
    )
    p.add_argument("--dot", metavar="PATH", help="write countermodel DOT here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_valid)

    p = sub.add_parser("prove", help="check a proof script file")
    p.add_argument("script", help="path to a proof file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("fuzz", help="fuzz the axiom schemas on random models")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--max-agents", type=int, default=4)
    p.add_argument("--props", default="p,q,r")
    p.add_argument("--pool-depth", type=int, default=3)
    p.add_argument("--instances", type=int, default=10, help="instances per schema per model")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("lint", help="validate a model file")
    p.add_argument("model")
    p.add_argument("--dot", metavar="PATH", help="write the model as DOT here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("expand", help="print the n-level awareness expansion of a formula")
    p.add_argument("formula")
    p.add_argument("levels", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; keep the contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RecursionError:
        return _die("formula is nested too deeply")
    except (OSError, UnicodeDecodeError) as exc:
        # unreadable input or an unwritable --dot path; commands write such
        # files before printing anything
        return _die(str(exc))


if __name__ == "__main__":
    sys.exit(main())
