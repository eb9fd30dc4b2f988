"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 bench/spread.py --workloads conjectures scan --seeds 1 2 3 4 5
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline bench/baseline.json

Runs bench/run.py once per (workload, seed), one run at a time, and prints
for every metric the median and the spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  A benchmark is steady when each spread stays well inside the
metric's bound in BENCHMARK.json.  With --baseline, the medians, spreads and
every run's values are written to that file; add --trace-seed to add one
traced run per workload, whose per-layer values go in as well, with the
notes and the absent metrics of its result file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the provenance line of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="write medians and runs to this file")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, prov = run(workload, seed, args.seconds, 0)
            report.setdefault("provenance", {k: v for k, v in prov.items() if k not in ("workload", "seed", "items")})
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "spread": (q3 - q1) / med, "bound": bounds[name],
                             "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if summary[name]["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:16s} median {med:12.6g}  spread {summary[name]['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        entry = {"end_to_end": summary, "runs": runs,
                 "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs)}
        if args.trace_seed is not None:
            traced, _ = run(workload, args.trace_seed, args.seconds, 1)
            record = json.loads((BENCH / "out" / f"result-{workload}-seed{args.trace_seed}-trace1.json")
                                .read_text(encoding="utf-8"))
            entry["per_layer"] = {"seed": args.trace_seed,
                                  **{k: v["value"] for k, v in traced["metrics"].items()},
                                  "notes": record["notes"], "absent": record["absent"]}
        report["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
