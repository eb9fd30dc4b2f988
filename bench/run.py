"""awarekit benchmark: seeded workloads driven through the command line.

    python3 bench/run.py --workload conjectures --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--seconds`` has no default: the run length of record is ``run_seconds``
in BENCHMARK.json.

Each workload is one client in a closed loop: an item starts when the one
before it has finished.  Items go through ``awarekit.cli.main(argv)`` with
``--json``, called in this process with stdout captured; the proof
transformers, which have no command, go through the public API.
``AWAREKIT_THREADS`` is left as the caller has it, so by default ``valid``
shards over ``os.cpu_count()`` threads, as users get it.

Items run back to back until ``--seconds`` have passed.  Each workload
names the mix of one round by stratum, such as 9 refuted and 2 valid
conjectures; items are grouped into rounds of that mix in run order, so
every round does comparable work whatever the seed.  The timing metrics
are taken over every complete round.  Every item's output is checked by
means that do not trust the engine under test (see ``oracle.py``); an item
that raises, exits with the wrong code or fails a check is counted in
``failed``.

``--trace 0`` reports the end-to-end metrics:

  setup_s         median over fresh processes, started between rounds, of
                  importing awarekit.cli through the end of one warm-up call
  wall_s          mean wall time of one complete round: the time of the
                  complete rounds' items over their number.  A mean, not a
                  median: a shared machine can switch between a fast and a
                  slow state for seconds at a time, and a mean moves with
                  the share of a run spent slow where a median jumps when
                  that share crosses one half
  latency_p50_ms  median latency of the items of the complete rounds
  latency_p90_ms  90th-percentile latency of the same items
  peak_rss_mb     peak resident memory of this process after the timed loop

``--trace 1`` runs a fixed number of rounds, each once untraced and once
traced through ``tracing.Tracer`` on the same items, and reports the
per-layer metrics of the traced rounds plus ``trace.overhead_share``, the
median over rounds of a round's traced wall time over its untraced one,
minus 1.  When the 95% confidence interval of that median (see
``median_interval``) holds 0, the tracing cost is within the run's noise
and the value is marked unresolved.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a results file
and, when traced, the spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 11

SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import awarekit.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = awarekit.cli.main(sys.argv[2:])
print(rc, time.perf_counter() - t0)
"""


def load_cli():
    """Import awarekit.cli from this checkout's sources, never from elsewhere."""
    package = SRC / "awarekit"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no awarekit sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import awarekit.cli

    if Path(awarekit.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported awarekit from {awarekit.cli.__file__}, not {package}")
    return awarekit.cli


class Client:
    """Calls the CLI entry point in-process, the way a script would."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def call(self, argv: list[str]) -> tuple[int, dict | None]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(argv)  # looked up per call, so trace wrappers apply
        text = out.getvalue()
        return rc, json.loads(text) if text.strip() else None


# ---------- workloads ----------


class Workload:
    """One kind of client.  A subclass sets the mix of one round by stratum,
    the number of rounds a traced run makes and the warm-up command, and
    defines items(), the seeded item stream, and run(item), which returns a
    failure reason or None."""

    mix: dict[str, int]
    trace_rounds: int
    warmup: list[str]

    def __init__(self, client: Client, seed: int, workdir: Path):
        self.client, self.seed, self.workdir = client, seed, workdir

    def post_checks(self) -> dict[int, str]:
        """Checks made after the timed loop: {item id: failure reason}."""
        return {}


class Conjectures(Workload):
    """Random formulas decided with `valid` at CLI defaults (3x3); each
    countermodel is written to a file and fed back to `check`."""

    mix = {"countermodel": 9, "valid": 2}
    trace_rounds = 12
    warmup = ["valid", "K p -> p", "--max-worlds", "1", "--max-agents", "1", "--json"]

    def __init__(self, client: Client, seed: int, workdir: Path):
        super().__init__(client, seed, workdir)
        self.valid: list[dict] = []

    def items(self):
        return gen.conjectures(self.seed)

    def run(self, item: dict) -> str | None:
        rc, doc = self.client.call(["valid", item["formula"], "--json"])
        item["stratum"] = "valid" if rc == 0 else "countermodel"
        if rc == 0:
            want = oracle.model_count(3, 3, len(item["props"]))
            if doc["verdict"] != "valid-up-to-bounds" or doc["props"] != item["props"]:
                return f"valid exited 0 with {doc['verdict']} over {doc['props']}"
            if doc["models_checked"] != want:
                return f"models_checked {doc['models_checked']}, closed form {want}"
            self.valid.append(item)
            return None
        if rc != 1 or doc["verdict"] != "countermodel":
            return f"valid exited {rc}"
        path = self.workdir / "countermodel.json"
        path.write_text(json.dumps(doc["model"]), encoding="utf-8")
        point = doc["point"]
        rc, checked = self.client.call(["check", str(path), point["world"], point["agent"], item["formula"], "--json"])
        if rc != 1 or checked["holds"] is not False:
            return f"countermodel does not falsify the formula: check exited {rc}"
        return None

    def post_checks(self) -> dict[int, str]:
        """Re-decide a seeded sample of valid verdicts at (2,2) by brute force."""
        rng = gen.rng_for("conjectures-oracle", self.seed)
        sample = rng.sample(self.valid, min(3, len(self.valid)))
        failures = {}
        for item in sample:
            reason = oracle.redecide_valid(item["formula"], item["props"])
            if reason:
                failures[item["id"]] = reason
        return failures


class Scan(Workload):
    """Axiom-schema instances over {p} at the (3,3) bound, once as is and once
    with --prune; each round is one instance, each call one item.

    The plain leg sweeps 3,784 small skeletons, so the per-skeleton sweep cost
    dominates it; the pruned leg tries W!*A! = 36 relabelings per skeleton.
    At the (4,3) bound one instance takes about 30 s on 2 cores, too long to
    measure more than once in a run."""

    mix = {"plain": 1, "pruned": 1}
    trace_rounds = 14
    bounds = ["--max-worlds", "3", "--max-agents", "3", "--props", "p"]
    warmup = ["valid", "K p -> p", "--max-worlds", "1", "--max-agents", "1", "--props", "p", "--prune", "--json"]

    def __init__(self, client: Client, seed: int, workdir: Path):
        super().__init__(client, seed, workdir)
        self.plain_verdict: dict[int, str] = {}

    def items(self):
        for inst in gen.scan_instances(self.seed):
            for k, stratum in enumerate(self.mix):
                yield {"id": 2 * inst["id"] + k, "stratum": stratum, "instance": inst["id"], "formula": inst["formula"]}

    def run(self, item: dict) -> str | None:
        pruned = item["stratum"] == "pruned"
        rc, doc = self.client.call(["valid", item["formula"], *self.bounds, "--json"] + ["--prune"] * pruned)
        if pruned:
            twin = self.plain_verdict.get(item["instance"])
            if doc is None or doc.get("verdict") != twin:
                return f"pruned verdict {doc and doc.get('verdict')} differs from plain {twin}"
            return None
        if doc is not None:
            self.plain_verdict[item["instance"]] = doc.get("verdict")
        if rc != 0:
            return f"axiom instance refuted: valid exited {rc}"
        want = oracle.model_count(3, 3, 1)
        if doc["models_checked"] != want:
            return f"models_checked {doc['models_checked']}, closed form {want}"
        return None


class Proofs(Workload):
    """`prove` on scripts drawn from the fixed corpus, and one item in ten
    `deduction` plus `lift_knowledge` through the public API."""

    mix = {s: gen.PROOF_ROUND.count(s) for s in dict.fromkeys(gen.PROOF_ROUND)}
    trace_rounds = 24
    warmup = ["prove", str(gen.CORPUS_DIR / "positive_introspection.proof"), "--json"]

    def __init__(self, client: Client, seed: int, workdir: Path):
        super().__init__(client, seed, workdir)
        self.corpus = gen.load_corpus()
        import awarekit.proof
        import awarekit.syntax

        self.proof, self.parse = awarekit.proof, awarekit.syntax.parse

    def items(self):
        return gen.proof_jobs(self.seed, self.corpus)

    def run(self, item: dict) -> str | None:
        if item["stratum"] != "transform":
            rc, doc = self.client.call(["prove", str(gen.CORPUS_DIR / item["file"]), "--json"])
            if rc != 0 or not doc["ok"]:
                return f"prove exited {rc}"
            if doc["conclusion"] != item["conclusion"]:
                return f"prove concluded {doc['conclusion']!r}, corpus records {item['conclusion']!r}"
            return None
        proof = self.proof  # module attributes, looked up per call
        _, script = proof.parse_proof(item["text"])
        registry = proof.default_registry()
        hyps = [self.parse(h) for h in item["hypotheses"]]
        discharged = proof.deduction(script, 0, registry)
        want = self.parse(f"({item['hypotheses'][0]}) -> ({item['conclusion']})")
        if discharged.conclusion != want or discharged.hypotheses != tuple(hyps[1:]):
            return "deduction output has the wrong conclusion or hypotheses"
        if proof.check(discharged, registry) != want:
            return "deduction output does not check"
        lifted = proof.lift_knowledge(script, registry)
        want = self.parse(f"K ({item['conclusion']})")
        k_hyps = tuple(self.parse(f"K ({h})") for h in item["hypotheses"])
        if lifted.conclusion != want or lifted.hypotheses != k_hyps:
            return "lift_knowledge output has the wrong conclusion or hypotheses"
        if proof.check(lifted, registry) != want:
            return "lift_knowledge output does not check"
        return None


class Fuzz(Workload):
    """`fuzz` at CLI defaults (4x4 bounds, props p,q,r, pool depth 3,
    10 instances per schema), 10 to 49 trials per call, each call its own
    seed."""

    mix = {"call": gen.FUZZ_ROUND}
    trace_rounds = 10
    warmup = ["fuzz", "--trials", "1", "--seed", "0", "--json"]

    def items(self):
        return gen.fuzz_calls(self.seed)

    def run(self, item: dict) -> str | None:
        rc, doc = self.client.call(["fuzz", "--trials", str(item["trials"]), "--seed", str(item["seed"]), "--json"])
        if rc != 0 or doc["violations"]:
            return f"fuzz exited {rc} with {len(doc['violations'])} violations"
        want = item["trials"] * 100
        if doc["trials"] != item["trials"] or doc["schema_instances_checked"] != want:
            return f"fuzz checked {doc['schema_instances_checked']} instances, expected {want}"
        return None


WORKLOADS = {"conjectures": Conjectures, "scan": Scan, "proofs": Proofs, "fuzz": Fuzz}


# ---------- measurement ----------


def run_batch(workload, batch: list[dict], latencies: list, failures: dict, tracer=None) -> float:
    """Run items back to back, appending (stratum, latency) for each; returns
    the wall time of the whole batch."""
    t_round = perf_counter()
    for item in batch:
        if tracer is not None:
            tracer.item = item["id"]
        t0 = perf_counter()
        try:
            reason = workload.run(item)
        except Exception as exc:  # a crash is a failed item, not a failed run
            reason = f"raised {type(exc).__name__}: {exc}"
        latencies.append((item.get("stratum"), perf_counter() - t0))
        if reason:
            failures[item["id"]] = reason
    return perf_counter() - t_round


def run_rounds(workload, seconds: float):
    """Closed loop over batches of items until the time budget is spent.

    Between batches, when one is due, a set-up sample is taken in a fresh
    process, so the samples spread over the run like the items do.  Returns
    (stratum, latency) per item, {item id: failure reason} and the set-up
    samples.
    """
    stream = workload.items()
    latencies: list = []
    failures: dict = {}
    setups: list[float] = []
    start = perf_counter()
    while not latencies or perf_counter() - start < seconds:
        run_batch(workload, list(itertools.islice(stream, sum(workload.mix.values()))), latencies, failures)
        if perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_sample(workload.warmup))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload.warmup))
    return latencies, failures, setups


def complete_rounds(latencies: list, mix: dict[str, int]) -> list[list[float]]:
    """Group items into rounds of the workload's mix: the first mix[s] items
    of each stratum s in run order form round 1, the next ones round 2, and
    so on.  Returns the item latencies of each complete round; items left
    over are not reported."""
    by_stratum: dict = {}
    for stratum, secs in latencies:
        by_stratum.setdefault(stratum, []).append(secs)
    count = min(len(by_stratum.get(s, [])) // n for s, n in mix.items())
    return [[t for s, n in mix.items() for t in by_stratum[s][r * n:(r + 1) * n]] for r in range(count)]


def median_interval(values: list[float]) -> tuple[float, float]:
    """Distribution-free 95% confidence interval of the median: the order
    statistics n/2 -+ 0.98 sqrt(n) places from the middle (sign test)."""
    ordered = sorted(values)
    k = max(0, math.floor(len(ordered) / 2 - 0.98 * math.sqrt(len(ordered))))
    return ordered[k], ordered[-1 - k]


def setup_sample(argv: list[str]) -> float:
    """Seconds a fresh process takes to import awarekit.cli and finish one
    warm-up call, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
        sys.exit(f"error: warm-up {argv} failed in a fresh process: {proc.stderr.strip()[-500:]}")
    return float(fields[1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(workload: str, seed: int, counts: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "awarekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "awarekit_threads": os.environ.get("AWAREKIT_THREADS") or f"unset (default {os.cpu_count() or 1})",
        "items": counts,
    }


def end_to_end(workload, client: Client, seconds: float):
    client.call(workload.warmup)
    latencies, failures, setups = run_rounds(workload, seconds)
    rss = peak_rss_mb()
    failures.update(workload.post_checks())
    rounds = complete_rounds(latencies, workload.mix)
    if not rounds:  # verdicts that never fill a round are failures already
        rounds = [[t for _, t in latencies]]
    secs = [t for r in rounds for t in r]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(secs) / len(rounds), "s"),
        "latency_p50_ms": (statistics.median(secs) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(secs, n=10, method="inclusive")[8] * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    counts = {"attempted": len(latencies), "rounds": len(rounds), "items_reported": len(secs)}
    return metrics, counts, failures, None


def per_layer(workload_cls, client: Client, seed: int, workdir: Path):
    """A fixed number of rounds, each run untraced and traced on the same
    items; the order alternates per round so warm-up favours neither."""
    plain, replay = workload_cls(client, seed, workdir), workload_cls(client, seed, workdir)
    client.call(plain.warmup)
    streams = plain.items(), replay.items()
    tracer = tracing.Tracer()
    ratios: list[float] = []
    latencies: list = []
    failures: dict = {}
    traced_failures: dict = {}
    for r in range(plain.trace_rounds):
        batches = [list(itertools.islice(s, sum(plain.mix.values()))) for s in streams]
        wall = {}
        for traced in (False, True) if r % 2 == 0 else (True, False):
            if traced:
                with tracer:
                    wall[True] = run_batch(replay, batches[1], latencies, traced_failures, tracer)
            else:
                wall[False] = run_batch(plain, batches[0], latencies, failures)
        ratios.append(wall[True] / wall[False])
    failures.update(plain.post_checks())
    failures.update({f"traced-{k}": v for k, v in traced_failures.items()})
    lo, hi = median_interval(ratios)
    values, absent = tracer.metrics(statistics.median(ratios) - 1)
    notes = {"trace.overhead_share": f"95% interval {lo - 1:+.4f} .. {hi - 1:+.4f} over {len(ratios)} rounds"
             + (", which holds 0: unresolved" if lo <= 1 <= hi else "")}
    metrics = {name: (values[name], unit) for name, (unit, _) in tracing.LAYER_METRICS.items()}
    counts = {"attempted": len(latencies), "rounds": 2 * plain.trace_rounds}
    return metrics, counts, failures, (tracer, absent, notes)


def run_one(args) -> int:
    cli = load_cli()
    client = Client(cli)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, counts, failures, traced = per_layer(WORKLOADS[args.workload], client, args.seed, workdir)
        else:
            workload = WORKLOADS[args.workload](client, args.seed, workdir)
            metrics, counts, failures, traced = end_to_end(workload, client, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts["failed"] = len(failures)
    prov = provenance(args.workload, args.seed, counts)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failed_share": len(failures) / counts["attempted"],
        "failures": dict(itertools.islice(((str(k), v) for k, v in failures.items()), 20)),
    }
    if traced:
        tracer, absent, notes = traced
        record["absent"] = absent
        record["notes"] = notes
        spans_path = OUT / f"spans-{stem}.json"
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        note = f"  (absent: {traced[1][name]})" if traced and name in traced[1] else ""
        note += f"  ({traced[2][name]})" if traced and name in traced[2] else ""
        print(f"{name:28s} {value:16.6f} {unit}{note}")
    print(f"{'failed_share':28s} {record['failed_share']:16.6f} ratio")
    for key, reason in record["failures"].items():
        print(f"failed item {key}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": counts["attempted"],
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one table of every metric."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in rows))
    for metric in names:
        unit = rows[next(iter(rows))]["metrics"][metric]["unit"]
        print(f"{metric:28s} {unit:6s} " + " ".join(f"{r['metrics'][metric]['value']:14.6g}" for r in rows.values()))
    print(f"{'failed/attempted':28s} {'':6s} " + " ".join(f"{r['failed']:>7d}/{r['attempted']:<6d}" for r in rows.values()))
    print(json.dumps(rows))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
