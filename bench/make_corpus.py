"""Regenerate the fixed proof corpus in bench/corpus/ from the awarekit sources.

    python3 bench/make_corpus.py

The corpus was generated once and is checked in; benchmark runs only read
it, so later changes to the builtin derivations or to ``deduction`` do not
change the workload.  Rerunning this script on a later commit is a change
to the benchmark, to be made in a change of its own.  Each entry records
the conclusion the checker reported when the file was generated, a tier
and a draw weight within the tier.  Each tier holds files of about the
same cost, so that a latency percentile which falls inside a tier does not
depend on which files a seed happens to draw: a `prove` on a shallow file
costs little more than the registry rebuild, one on a deep awareness tower
(lemma_A_7, mono_A_2_5, mono_A_3_5) about 2.3 times that.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from awarekit import builtin, check, deduction, default_registry, format_proof, parse_proof, render  # noqa: E402

import gen  # noqa: E402

BUILTINS = [
    # (name, params, tier, weight within the tier)
    ("lemma_A", (3,), "shallow", 3),
    ("unaware_top", (2,), "shallow", 3),
    ("mono_A", (0, 2), "shallow", 3),
    ("lemma_A", (7,), "deep", 1),
    ("mono_A", (2, 5), "deep", 1),
    ("mono_A", (3, 5), "deep", 1),
]
SHIPPED = ["positive_introspection.proof", "lemma_a_2.proof"]
DEDUCTION_SEED = 2511
DEDUCTIONS = 3


def main() -> None:
    out = gen.CORPUS_DIR
    out.mkdir(exist_ok=True)
    for old in out.glob("*.proof"):
        old.unlink()
    registry = default_registry()
    files: list[tuple[str, str, int]] = []
    for name in SHIPPED:
        shutil.copyfile(ROOT / "proofs" / name, out / name)
        files.append((name, "shallow", 4))
    for name, params, tier, weight in BUILTINS:
        stem = "_".join([name, *map(str, params)])
        (out / f"{stem}.proof").write_text(format_proof(builtin(name, *params), stem), encoding="utf-8")
        files.append((f"{stem}.proof", tier, weight))
    rng = gen.rng_for("corpus", DEDUCTION_SEED)
    for k in range(DEDUCTIONS):
        _, script = parse_proof(gen.hypothesis_script(rng)["text"])
        stem = f"deduction_{k}"
        (out / f"{stem}.proof").write_text(format_proof(deduction(script, 0, registry)), encoding="utf-8")
        files.append((f"{stem}.proof", "shallow", 3))
    index = []
    for name, tier, weight in files:
        _, script = parse_proof((out / name).read_text(encoding="utf-8"))
        index.append({"file": name, "conclusion": render(check(script, registry)), "tier": tier, "weight": weight})
    (out / "index.json").write_text(json.dumps(index, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(index)} proofs to {out}")


if __name__ == "__main__":
    main()
