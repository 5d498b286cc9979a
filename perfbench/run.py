"""The lammu benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py                     # all workloads, seed 2024
    python3 perfbench/run.py --workload certs --seed 7 --seconds 10 --trace 0

Run from the root of a checkout.  For each workload the runner starts
fresh interpreters (``worker.py``): a few that only set up, for the median
set-up time, then one that runs the timed rounds.  With ``--trace 1`` a
second, traced worker runs the same rounds and gives the per-layer metrics
and the tracing overhead.  The last line of output is one JSON object.

The exit code is 1 when an output differs from its reference, the inputs or
work counters differ between runs of one seed, or a worker fails.  Work
counters are recorded per round under ``perfbench/out/counters`` and compared
with every later run of the same code and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_S
from tracer import WORK_COUNTERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("suites", "certs", "reduce")
SETUP_PROBES = 8          # set-up-only workers per run, besides the timed one
TIME_LIMIT = 170          # seconds for all the workers of one workload


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker; on timeout stop it and the round it forked."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker ran past {TIME_LIMIT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker failed:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def code_digest() -> str:
    """Digest of the program and the benchmark, keying recorded counters."""
    paths = []
    for base in (os.path.join(ROOT, "src", "lammu"), HERE):
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = [d for d in dirnames if d not in ("out", "__pycache__")]
            paths += [os.path.join(dirpath, f) for f in files
                      if f.endswith((".py", ".json"))]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def round_counters(rnd: dict) -> dict:
    """The work counters of one round that must repeat exactly."""
    counters = dict(rnd["counters"])
    if "trace" in rnd:
        for key in WORK_COUNTERS:
            counters[f"trace.{key}"] = rnd["trace"]["counts"][key]
    return counters


def compare_counters(a: dict, b: dict, what: str) -> list[str]:
    problems = []
    for i in sorted(set(a) & set(b), key=int):
        for key in sorted(set(a[i]) & set(b[i])):
            if a[i][key] != b[i][key]:
                problems.append(f"{what}: round {i} {key} "
                                f"{a[i][key]} != {b[i][key]}")
    return problems


def check_recorded(workload: str, seed: int, counters: dict) -> list[str]:
    """Compare with the counters recorded by earlier runs, then record."""
    path = os.path.join(OUT, "counters",
                        f"{code_digest()}-{workload}-{seed}.json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as fh:
            recorded = json.load(fh)
    problems = compare_counters(recorded, counters, "earlier run")
    for i, c in counters.items():
        known = recorded.setdefault(i, {})
        for key, value in c.items():
            known.setdefault(key, value)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(recorded, fh)
    return problems


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def best_of_repeats(rounds: list[dict], period: int) -> list[float]:
    """The fastest time of each op of one period of rounds.

    Round i + period runs the same ops in the same order as round i, forked
    from the same set-up, so the op in one place of a period does the same
    work each time it runs, garbage collections included.  Its slower runs
    are the ones in which the shared host slowed it down: a run of the same
    op takes up to twice its best time, in spells that last from a fraction
    of a second to many seconds, and the repeats of an op are a period
    apart."""
    best: dict[tuple, float] = {}
    for i, r in enumerate(rounds):
        for k, t in enumerate(r["latencies"]):
            key = (i % period, k)
            best[key] = min(best.get(key, t), t)
    return list(best.values())


def host_scale(rounds: list[dict]) -> float:
    """The factor that turns the run's CPU seconds into seconds on a host
    that runs the reference program in REFERENCE_S: REFERENCE_S over the
    reference's best time in the run, as the ops' times are their best."""
    return REFERENCE_S / min(t for r in rounds for t in r["references"])


def end_to_end(runs: list[dict], rounds: list[dict],
               period: int) -> tuple[dict, dict]:
    scale = host_scale(rounds)
    samples = [t * scale for t in best_of_repeats(rounds, period)]
    attempted = sum(r["ops"] for r in rounds)
    tail_ms, pct = tail(samples)
    repeats = len(rounds) / min(period, len(rounds))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs) * scale,
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": statistics.median(samples) * 1000,
        "op_tail_ms": tail_ms * 1000,
        "ok_ratio": 1 - sum(r["failed"] for r in rounds) / attempted,
        "decided_ratio": 1 - sum(r["undecided"] for r in rounds) / attempted,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    best = f"each op its best of {repeats:.1f} runs, host scale {scale:.3f}"
    notes = {"op_tail_ms": f"p{pct:.1f} of {len(samples)} ops, {best}",
             "op_p50_ms": best, "ops_per_s": best,
             "peak_rss_mb": f"median of {len(rounds)} rounds",
             "setup_s": f"median of {len(runs)} set-ups, host-scaled"}
    return metrics, notes


def per_layer(traced: dict, plain_rounds: list[dict]) -> dict:
    layers: dict[str, list] = {}
    counts = {f"reduction.steps.{rule}": 0 for rule in ("beta", "mu", "renaming")}
    hits = misses = 0
    sizes = []

    def add(totals):
        for name, rec in totals["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += rec[0]
            acc[1] += rec[1]
            acc[2] += rec[2]
            acc[3] = max(acc[3], rec[3])
        for name, n in totals["counts"].items():
            counts[name] = counts.get(name, 0) + n

    add(traced["setup_trace"])
    for rnd in traced["rounds"]:
        add(rnd["trace"])
        hits += rnd["trace"]["cache"][0]
        misses += rnd["trace"]["cache"][1]
        sizes.append(rnd["trace"]["cache"][2])
        for key, n in rnd["counters"].items():
            if key.startswith("reduction.steps."):
                counts[key] = counts.get(key, 0) + n

    out = {}
    for name, (calls, wall, self_s, max_s) in layers.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.wall_s"] = wall
        out[f"{name}.self_s"] = self_s
        out[f"{name}.max_s"] = max_s
    out.update(counts)
    out["runtime.gc_s"] = layers.get("runtime.gc", [0, 0.0])[1]
    out["typelang.canonicalize.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    out["typelang.canonicalize.cache_size"] = statistics.median(sizes)
    out["trace.overhead_ratio"] = (
        sum(r["busy"] for r in traced["rounds"])
        / sum(r["busy"] for r in plain_rounds))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 declared: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    probes = [worker(workload, seed, deadline, "--setup-only")
              for _ in range(SETUP_PROBES)]
    main = worker(workload, seed, deadline, "--seconds", str(seconds))
    runs = probes + [main]
    problems = []
    if len({r["digest"] for r in runs}) != 1:
        problems.append("inputs differ between set-ups of one seed")
    rounds = main["rounds"]
    counters = {str(i): round_counters(r) for i, r in enumerate(rounds)}
    mismatches = [m for r in rounds for m in r["mismatches"]]
    metrics, notes = end_to_end(runs, rounds, main["period"])
    units = declared["end_to_end"]

    if trace:
        traced = worker(workload, seed, deadline, "--rounds", str(len(rounds)),
                        "--trace", "1")
        if traced["digest"] != main["digest"]:
            problems.append("inputs differ between the plain and traced run")
        traced_counters = {str(i): round_counters(r)
                           for i, r in enumerate(traced["rounds"])}
        problems += compare_counters(counters, traced_counters, "traced run")
        counters = traced_counters
        mismatches += [m for r in traced["rounds"] for m in r["mismatches"]]
        metrics = per_layer(traced, rounds)
        units = declared["per_layer"]
        notes = {}
    problems += check_recorded(workload, seed, counters)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:7} {name:42} {metrics[name]:14.6g} {unit}{note}")
    for m in mismatches[:10]:
        print(f"{workload}: MISMATCH {m}", file=sys.stderr)
    for p in problems[:10]:
        print(f"{workload}: NONDETERMINISM {p}", file=sys.stderr)
    return {"correct": not mismatches and not problems,
            "attempted": sum(r["ops"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lammu benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        declared = declared_metrics()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace), declared)
                   for w in names}
    except (BenchError, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}/{name}": v for w, r in results.items()
                              for name, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
