"""One round of a suite workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <check 0|1> <spans file or ->

Prints `ready` once `latchcheck` is imported (and traced, with trace 1),
then runs the workload's operations and prints one JSON line: the number
of operations, the round's wall time, peak RSS at the end of the
operations, the suite summaries, the per-layer metrics when traced, and
the problems the correctness checks found when asked to check.  The checks run after the
timed operations, on cases regenerated from the same suite seeds.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_program(src: str):
    """Import `latchcheck` from the checkout's sources, not from anywhere
    else on the path."""
    sys.path.insert(0, src)
    import latchcheck
    import latchcheck.suites

    where = os.path.dirname(os.path.abspath(latchcheck.__file__))
    if where != os.path.join(src, "latchcheck"):
        raise ImportError(f"latchcheck imported from {where}, not from {src}")
    return latchcheck.suites


def main(argv: list[str]) -> int:
    workload, seed, trace, check, spans = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1", argv[4]
    sys.path.insert(0, HERE)
    import checks
    import workloads

    suites = import_program(os.path.join(ROOT, "src"))
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    ops = workloads.suite_ops(workload, seed)
    summaries = []
    t0 = time.perf_counter()
    for op in ops:
        summary = suites.run_suite(op["suite"], seed=op["seed"], cases=op["cases"],
                                   strategy=op["strategy"])
        summaries.append(summary.to_json())
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"ops": len(ops), "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "summaries": summaries, "failed": sum(not s["passed"] for s in summaries)}
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics()
        layer["suites.discards"] = sum(s["discards"] for s in summaries)
        result["layers"] = layer
        result["missing"] = tracer.missing
        tracer.write_spans(spans)
    if check:
        if workload == "set-lemmas":
            result["problems"] = checks.lemma_checks(ops, summaries)
        else:
            result["problems"] = checks.theorem_checks(ops, summaries)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
