"""One workload run in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --workload reduce --seed 2024 --seconds 10
    python3 perfbench/worker.py --workload reduce --seed 2024 --setup-only
    python3 perfbench/worker.py --workload reduce --seed 2024 --rounds 7 --trace 1

The worker imports lammu from the checkout's ``src``, builds the inputs from
the seed (the set-up), then runs rounds until ``--seconds`` have passed, or
exactly ``--rounds`` rounds.  Every round runs in a process forked from the
set-up process, so rounds start from the same heap and the same typelang
caches, and the peak resident memory of each round is its own: rare rounds
with a capped proof search take hundreds of megabytes and would otherwise set
the peak of the whole run.  Before each fork the worker times the reference
program (``calibration.py``), which the runner uses to scale the run's
timings.  With ``--trace 1`` the tracer wraps lammu's calls before the
set-up, and each round's spans are appended to
``perfbench/out/spans-<workload>-<seed>.tsv``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
# A capped proof search in the suites keeps enumerating after its node cap
# and can grow past a gigabyte; a round that needs more than this fails the
# run instead of starving the machine.
ROUND_MEMORY = 2 << 30
# Runs of the reference program (calibration.py) before each round.
ROUND_REFERENCES = 3


def import_lammu():
    """Import lammu from the checkout, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import lammu.cli
    if not os.path.abspath(lammu.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"lammu was imported from {lammu.cli.__file__}")


def run_round(workload, i: int, tracer, spans_path: str | None) -> dict:
    if tracer is not None:
        from lammu.typelang import canonicalize
        tracer.reset()
        before = canonicalize.cache_info()
    start = time.perf_counter()
    rnd = workload.run_round(i, tracer)
    wall = time.perf_counter() - start
    res = rnd.result()
    res["wall"] = wall
    if tracer is not None:
        after = canonicalize.cache_info()
        res["trace"] = tracer.totals()
        res["trace"]["cache"] = [after.hits - before.hits,
                                 after.misses - before.misses, after.currsize]
        with open(spans_path, "a") as fh:
            tracer.write_spans(fh)
    return res


def forked_round(workload, i: int, tracer, spans_path) -> dict:
    references = [calibration.reference() for _ in range(ROUND_REFERENCES)]
    # Freeze the set-up heap (mostly the benchmark's own inputs), as Python
    # documents for fork: otherwise the round's first full collection touches
    # every inherited object and copies the whole heap, a 30-50 ms pause that
    # comes from forking, not from lammu.  Collecting first zeroes the
    # collector's counts, so every round starts its collections alike.
    gc.collect()
    gc.freeze()
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            resource.setrlimit(resource.RLIMIT_AS, (ROUND_MEMORY, ROUND_MEMORY))
            res = run_round(workload, i, tracer, spans_path)
            with os.fdopen(w, "w") as fh:
                json.dump(res, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"round {i} ended with status {status}")
    res = json.loads(data)
    res["rss_mb"] = usage.ru_maxrss / 1024
    res["references"] = references
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--rounds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    start = time.perf_counter()
    import_lammu()
    import workloads
    calls = workloads.call_table()
    tracer = spans_path = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, calls)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
        open(spans_path, "w").close()
    workload = workloads.WORKLOADS[args.workload](args.seed, calls)
    setup_s = time.perf_counter() - start

    out = {"setup_s": setup_s, "digest": workload.digest(),
           "period": workload.period}
    if tracer is not None:
        out["setup_trace"] = tracer.totals()
        with open(spans_path, "a") as fh:
            tracer.write_spans(fh)
    if not args.setup_only:
        rounds = []
        loop_start = time.perf_counter()
        while (len(rounds) < args.rounds if args.rounds is not None
               else not rounds
               or time.perf_counter() - loop_start < args.seconds):
            rounds.append(forked_round(workload, len(rounds), tracer,
                                       spans_path))
        out["rounds"] = rounds
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
