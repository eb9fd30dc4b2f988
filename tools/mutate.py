"""Mutation score of the test suite over a curated list of mutants.

Each mutant is one textual change to one file of ``src/awarekit``: the old
text must occur there exactly once.  The script copies the repository to a
temporary directory once, and for each mutant writes the changed file into
the copy, runs pytest with ``-x`` on the tests that cover that code,
and restores the file.  A mutant is killed when pytest fails.  It prints
one line per mutant and then ``killed K of N``; the exit code is 0 whatever
the score, and 2 when the unchanged copy fails its tests or a mutant's old
text is not found exactly once.

Usage, from the repository root:

    python3 tools/mutate.py

A killed mutant takes seconds; a surviving one takes a full run of its
test files.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEARCH_TESTS = ("tests/test_search.py",)
CHECKER_TESTS = ("tests/test_checker.py",)
SYNTAX_TESTS = ("tests/test_syntax.py",)
PROOF_TESTS = ("tests/test_proof.py",)
MODEL_TESTS = ("tests/test_model.py",)
GENERIC_INSTANCE_TESTS = ("tests/test_acceptance.py::test_axioms_valid_by_generic_instances",)

# (name, description, file under src/awarekit, old text, new text, test files or test ids)
MUTANTS = [
    (
        "atom-world-3",
        "the oracle makes every atom true at world index 3 or above",
        "checker.py",
        "        value = (a, w) in m.valuation.get(f.name, frozenset())",
        "        value = w >= 3 or (a, w) in m.valuation.get(f.name, frozenset())",
        CHECKER_TESTS,
    ),
    (
        "atom-agent-3",
        "the oracle makes every atom true at agent index 3 or above",
        "checker.py",
        "        value = (a, w) in m.valuation.get(f.name, frozenset())",
        "        value = a >= 3 or (a, w) in m.valuation.get(f.name, frozenset())",
        CHECKER_TESTS,
    ),
    (
        "atom-either-3",
        "the oracle makes every atom true at world or agent index 3 or above",
        "checker.py",
        "        value = (a, w) in m.valuation.get(f.name, frozenset())",
        "        value = w >= 3 or a >= 3 or (a, w) in m.valuation.get(f.name, frozenset())",
        CHECKER_TESTS,
    ),
    (
        "atom-both-3",
        "the oracle makes every atom true at world and agent index 3 or above",
        "checker.py",
        "        value = (a, w) in m.valuation.get(f.name, frozenset())",
        "        value = (w >= 3 and a >= 3) or (a, w) in m.valuation.get(f.name, frozenset())",
        CHECKER_TESTS,
    ),
    (
        "oracle-d-agent-3",
        "the oracle's D finds a witness at every agent index above 2",
        "checker.py",
        "                if _eval(m, u, b, f.child, memo):\n                    break",
        "                if b > 2 or _eval(m, u, b, f.child, memo):\n                    break",
        CHECKER_TESTS,
    ),
    (
        "four-props-valid",
        "decide_bounded answers valid whenever the bounds have 4 or more propositions",
        "search.py",
        "    if hit is None:\n        if not prune:",
        "    if hit is None or len(props) >= 4:\n        if not prune:",
        SEARCH_TESTS,
    ),
    (
        "model-count-4x3",
        "_model_count is one too many for shapes of (4,3) and up",
        "model.py",
        "    return per_agent**agents\n",
        "    return per_agent**agents + (worlds >= 4 and agents >= 3)\n",
        SEARCH_TESTS,
    ),
    (
        "explain-k-indent",
        "explain indents the K-failure branch one level less",
        "checker.py",
        "fails at indistinguishable world {wn[u]}:\")\n                rec(u, a, g.child, depth + 2)",
        "fails at indistinguishable world {wn[u]}:\")\n                rec(u, a, g.child, depth + 1)",
        CHECKER_TESTS,
    ),
    (
        "no-reverification",
        "the witness is not re-verified by the reference checker",
        "search.py",
        "    if satisfies(model, point, f):",
        "    if False:",
        SEARCH_TESTS,
    ),
    (
        "plan-kept-whatever-its-bytes",
        "a sweep that reaches the end of the bound keeps its frames however many bytes they take",
        "search.py",
        "            if size <= _PLAN_BYTES:",
        "            if True:",
        SEARCH_TESTS,
    ),
    (
        "runs-per-shape",
        "each (worlds, agents) shape's canonical skeletons are a run of their own",
        "search.py",
        "groupby(_iter_skeletons(bounds, True), lambda sk: sk.world_count)",
        "groupby(_iter_skeletons(bounds, True), lambda sk: (sk.world_count, sk.agent_count))",
        SEARCH_TESTS,
    ),
    (
        "one-run-per-bound",
        "the whole bound's canonical skeletons are one run, so frames mix world counts",
        "search.py",
        "groupby(_iter_skeletons(bounds, True), lambda sk: sk.world_count)",
        "groupby(_iter_skeletons(bounds, True), lambda sk: 0)",
        SEARCH_TESTS,
    ),
    (
        "witness-shape-of-first-skeleton",
        "a plain decision sweeps in full order the shape of the failing frame's first skeleton",
        "search.py",
        "        sk, _ = frame.valuation(lane, nprops)\n",
        "        sk = frame.skeletons[0]\n",
        SEARCH_TESTS,
    ),
    (
        "sweep-skips-on-one-full-slot",
        "a pass is taken as passing when one slot's column, not every one, is full",
        "search.py",
        "            if result.count(full) == len(result):",
        "            if full in result:",
        SEARCH_TESTS,
    ),
    (
        "resweep-skips-canonical-witness",
        "the full-order sweep of the witness mask stops before the canonical witness skeleton",
        "search.py",
        "            _, hit = _sweep(g, props, _pack([*before, sk], nprops))",
        "            _, hit = _sweep(g, props, _pack(before, nprops))",
        SEARCH_TESTS,
    ),
    (
        "resweep-dropped",
        "a plain refutation takes the canonical sweep's witness",
        "search.py",
        "        if before:",
        "        if False:",
        SEARCH_TESTS,
    ),
    (
        "d-reads-absent",
        "D counts inhabitants that are absent in the lane's skeleton",
        "checker.py",
        "                    child = [c & here for c, here in zip(child, cut)]",
        "                    child = [c for c, here in zip(child, cut)]",
        SEARCH_TESTS,
    ),
    (
        "know-one-block",
        "a know entry keeps the lanes of one run of its blocks, not their OR",
        "checker.py",
        "        self.know = tuple([(slots, lanes(spans)) for slots, spans in know.items()])",
        "        self.know = tuple([(slots, lanes(spans[:2])) for slots, spans in know.items()])",
        SEARCH_TESTS,
    ),
    (
        "dere-one-block",
        "a dere entry keeps the lanes of one run of its blocks, not their OR",
        "checker.py",
        "        self.dere = tuple([(s, cands, lanes(spans)) for (s, cands), spans in dere.items()])",
        "        self.dere = tuple([(s, cands, lanes(spans[-2:])) for (s, cands), spans in dere.items()])",
        SEARCH_TESTS,
    ),
    (
        "dere-keyed-by-slot",
        "dere is keyed by member slot alone: a slot keeps the R candidates first found for it",
        "checker.py",
        "                            got.append(dere.setdefault((s, cands), []))",
        "                            got.append(dere.setdefault(next((k for k in dere if k[0] == s), (s, cands)), []))",
        SEARCH_TESTS,
    ),
    (
        "fold-counts-absent",
        "the failing-lane fold counts slots absent in the lane's skeleton",
        "search.py",
        "                ok &= c | gap",
        "                ok &= c",
        SEARCH_TESTS,
    ),
    (
        "r-other-presence",
        "a block, with its R candidates, is reused from another presence",
        "checker.py",
        "                key = (mask, a, part)",
        "                key = (a, part)",
        SEARCH_TESTS,
    ),
    (
        "r-union-rows",
        "R candidates are taken under the presence of the whole frame",
        "checker.py",
        "for c in range(A) if rows[c] & cover == cover])",
        "for c in range(A) if union >> c * W & cover == cover])",
        SEARCH_TESTS,
    ),
    (
        "witness-segment-off-by-one",
        "the witness reads a lane's segment offset one lane late",
        "checker.py",
        "        sk, index = self.skeletons[i], lane - self.starts[i]",
        "        sk, index = self.skeletons[i], lane - self.starts[i] - 1",
        SEARCH_TESTS,
    ),
    (
        "lanes-read-lane-0-first",
        "first_failures packs a slot's instance bits with lane 0 most significant",
        "checker.py",
        "int(bytes(bits[::-1]).translate(_BINARY_DIGITS), 2)",
        "int(bytes(bits).translate(_BINARY_DIGITS), 2)",
        CHECKER_TESTS + SEARCH_TESTS,
    ),
    (
        "body-atoms-one-lane",
        "the schema body reads each atom's single-lane column, lane 0 alone",
        "checker.py",
        "        leaves = {p: [full if b else 0 for b in col] for p, col in self._atoms.items()}",
        "        leaves = dict(self._atoms)",
        CHECKER_TESTS + SEARCH_TESTS,
    ),
    (
        "metavar-leaf-false",
        "a bound metavariable reads as false everywhere",
        "checker.py",
        "                out = leaves.get(node.name)\n",
        "                out = leaves.get(node.name) and zero\n",
        CHECKER_TESTS + SEARCH_TESTS,
    ),
    (
        "fuzz-call-per-schema",
        "fuzz evaluates each schema's substitutions in an engine call of their own",
        "search.py",
        "        single, end = evaluator._columns(pool), 0\n"
        "        for (schema_id, schema, mvs), substs in zip(schemas, drawn):\n"
        "            start, end = end, end + len(mvs) * instances_per_schema\n"
        "            for j, point in evaluator.first_failures(schema, substs, single[start:end]):\n",
        "        for (schema_id, schema, mvs), substs in zip(schemas, drawn):\n"
        "            for j, point in evaluator.first_failures(schema, substs):\n",
        SEARCH_TESTS,
    ),
    (
        "tie-check-skipped",
        "the canonical enumerator keeps agents with equal rows in any partition order",
        "model.py",
        "                if any(combo[a] > combo[a + 1] for a in ties):",
        "                if False:",
        MODEL_TESTS,
    ),
    (
        "finest-partition-dropped",
        "a row's partitions leave out the finest one, all singletons",
        "model.py",
        "    return tuple(out)\n",
        "    return tuple(out[:-1] or out)\n",
        MODEL_TESTS,
    ),
    (
        "first-fixing-relabeling-only",
        "the canonical enumerator tries only the first relabeling that fixes the rows",
        "model.py",
        "                for i, perm, keys in fixing:",
        "                for i, perm, keys in fixing[:1]:",
        MODEL_TESTS,
    ),
    (
        "taut-first-pass-only",
        "is_tautology checks only the first pass of valuations",
        "syntax.py",
        "    for high in range(1 << (n - low)):",
        "    for high in range(1):",
        SYNTAX_TESTS,
    ),
    (
        "fold-and-keeps-false-side",
        "the fold leaves an & with one false operand as it is",
        "syntax.py",
        "                if left is FALSE or right is FALSE:",
        "                if left is FALSE and right is FALSE:",
        SYNTAX_TESTS,
    ),
    (
        "fold-implies-false-keeps-antecedent",
        "the fold turns l -> false into l, not ~l",
        "syntax.py",
        "                out = Not(left)",
        "                out = left",
        SYNTAX_TESTS,
    ),
    (
        "fold-modal-flips-constant",
        "the fold flips a constant under K, R and D as it does under ~",
        "syntax.py",
        "            out = (TRUE if sub[0] is FALSE else FALSE) if kind is Not else sub[0]",
        "            out = TRUE if sub[0] is FALSE else FALSE",
        SYNTAX_TESTS,
    ),
    (
        "memo-ignores-depth",
        "the parser's group memo serves a group however deep it then sits",
        "syntax.py",
        "                    if hit is not None and depth + hit[1] <= MAX_PAREN_DEPTH:",
        "                    if hit is not None:",
        SYNTAX_TESTS,
    ),
    (
        "memo-key-drops-last-token",
        "the parser's group memo keys a group without its last token",
        "syntax.py",
        '                            key = " ".join(toks[i:close])',
        '                            key = " ".join(toks[i : close - 1])',
        SYNTAX_TESTS,
    ),
    (
        "lift-skips-input-check",
        "lift_knowledge does not check its input script",
        "proof.py",
        '        raise ValueError("lift_knowledge applies to hypothesis-mode scripts")\n    check(script, registry)\n',
        '        raise ValueError("lift_knowledge applies to hypothesis-mode scripts")\n',
        PROOF_TESTS,
    ),
    (
        "lift-nec-unchecked",
        "lift_knowledge stores its theorem without checking the necessitation line",
        "proof.py",
        "    _check_line(theorem, len(theorem.lines) - 1, registry)\n",
        "",
        PROOF_TESTS,
    ),
    (
        "nec-in-hypothesis-mode",
        "nec is allowed when deriving from hypotheses",
        "proof.py",
        "    if hyp_mode and isinstance(just, (Nec, MonoD, MonoR)):",
        "    if hyp_mode and isinstance(just, (MonoD, MonoR)):",
        PROOF_TESTS,
    ),
    (
        "mono-swapped",
        "monoD wraps an implication in R and monoR wraps it in D",
        "proof.py",
        "_MONO_WRAP = {MonoD: DeDicto, MonoR: DeRe}",
        "_MONO_WRAP = {MonoD: DeRe, MonoR: DeDicto}",
        PROOF_TESTS,
    ),
    (
        "cite-unchecked",
        "a citation is not compared with the instance it names",
        "proof.py",
        "        if concrete != line.formula:",
        "        if False:",
        PROOF_TESTS,
    ),
    (
        "register-unchecked",
        "register does not compare the conclusion with the designated instance",
        "proof.py",
        "        if expected != conclusion:",
        "        if False:",
        PROOF_TESTS,
    ),
    (
        "disj-reads-d",
        "the disj axiom is read with D in place of R",
        "proof.py",
        '    AxiomId.DISJ: parse("R (PHI | PSI) -> R PHI | R PSI"),',
        '    AxiomId.DISJ: parse("D (PHI | PSI) -> D PHI | D PSI"),',
        PROOF_TESTS,
    ),
    (
        "disj-and",
        "the disj axiom concludes R PHI & R PSI, which only distinct arguments refute",
        "proof.py",
        '    AxiomId.DISJ: parse("R (PHI | PSI) -> R PHI | R PSI"),',
        '    AxiomId.DISJ: parse("R (PHI | PSI) -> R PHI & R PSI"),',
        GENERIC_INSTANCE_TESTS,
    ),
    (
        "earlier-allows-self",
        "a rule may cite the line it justifies",
        "proof.py",
        "    if not 0 <= i < k:\n",
        "    if not 0 <= i <= k:\n",
        PROOF_TESTS,
    ),
    (
        "mp-ignores-antecedent",
        "modus ponens does not compare its antecedent line with the implication",
        "proof.py",
        "        want = Implies(lines[just.antecedent].formula, line.formula)",
        "        want = Implies(imp.left, line.formula)",
        PROOF_TESTS,
    ),
    (
        "discharge-order-reversed",
        "the discharge nests the hypotheses it discharges last first",
        "proof.py",
        "        for phi in reversed(phis):",
        "        for phi in phis:",
        PROOF_TESTS,
    ),
    (
        "discharge-composition-swapped",
        "the discharge's composition tautology takes its two antecedents swapped",
        "proof.py",
        "            t = b.taut(Implies(b.formula(i), Implies(b.formula(j), under(psi))))",
        "            t = b.taut(Implies(b.formula(j), Implies(b.formula(i), under(psi))))",
        PROOF_TESTS,
    ),
    (
        "discharge-weakening-backwards",
        "the discharge weakens a line through H(f) -> f, not f -> H(f)",
        "proof.py",
        "            mapped[k] = b.mp(t, b.taut(Implies(psi, under(psi))))",
        "            mapped[k] = b.mp(t, b.taut(Implies(under(psi), psi)))",
        PROOF_TESTS,
    ),
]


def _pytest(copy: Path, tests: tuple[str, ...]) -> bool:
    """Do the tests pass in the copy?"""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="awarekit-mutate-") as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
        for part in ("src", "tests", "bench", "models", "proofs", "pyproject.toml"):
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=ignore)
            else:
                shutil.copy2(source, copy / part)
        covered = sorted({t for m in MUTANTS for t in m[5]})
        if not _pytest(copy, tuple(covered)):
            print(f"the unchanged copy fails {' '.join(covered)}", file=sys.stderr)
            return 2
        killed = 0
        for name, description, file, old, new, tests in MUTANTS:
            path = copy / "src" / "awarekit" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: old text occurs {text.count(old)} times in {file}", file=sys.stderr)
                return 2
            path.write_text(text.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                survived = _pytest(copy, tests)
            finally:
                path.write_text(text, encoding="utf-8")
            killed += not survived
            verdict = "SURVIVED" if survived else "killed"
            print(f"{verdict:8} {name} ({time.perf_counter() - start:.1f} s): {description}", flush=True)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
