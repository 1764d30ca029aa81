"""latchcheck benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: flat-maps, realization, set-lemmas (theorem and lemma suites,
run in a fresh worker process per round) and cli (a script of `latchcheck`
invocations, a fresh process each); `all` runs the four one after another.  A run repeats whole rounds of the
workload's fixed operations, each round in fresh processes, while another
round still fits in `--seconds`; it always runs at least one.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones (setup_s, run_s, peak_rss_mb, cmd_p50_s); with `--trace 1`
the run makes one untraced and one traced round and reports the per-layer
metrics of the traced one, plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# every child must end well within the benchmark's own 180 s limit
CHILD_TIMEOUT_S = 120
# address-space limit for the hostile-input invocations
HOSTILE_MEMORY_BYTES = 1 << 30

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """A child failed in a way that leaves no result to report."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("NO_COLOR", None)
    return env


def spawn_until_ready(argv: list[str], cwd: str) -> tuple[subprocess.Popen, float]:
    """Start a child and wait for its `ready` line; returns the child and
    the seconds from the start of the process to that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"{argv[1]} did not start (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Rest of a child's output, after it has ended."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a child process timed out")
    return out


def layer_report(metrics: dict, missing: list[str]) -> dict:
    """Per-layer metrics with their units.  A function the program no
    longer defines has no metrics; it is named on standard error."""
    for name in sorted(set(missing)):
        print(f"warning: traced function {name} not found; its metrics are absent",
              file=sys.stderr)
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units}


def add_rounds(rounds: list[dict], spent: float, seconds: float, one_round) -> None:
    """Run more rounds while another one, as long as the median round so
    far, still fits in `seconds`."""
    while spent + statistics.median(r["run_s"] for r in rounds) <= seconds:
        r = one_round()
        rounds.append(r)
        spent += r.get("setup_s", 0.0) + r["run_s"]


def end_to_end(setup_s: float, rounds: list[dict], peak_rss_mb: float, cmd_p50_s: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "cmd_p50_s": {"value": cmd_p50_s, "unit": "s"},
    }


# ---------------------------------------------------------------------------
# suite workloads


def suite_round(workload: str, seed: int, trace: bool, check: bool) -> dict:
    spans = os.path.join(OUT, f"spans-{workload}.jsonl") if trace else "-"
    proc, setup = spawn_until_ready(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         str(int(trace)), str(int(check)), spans], ROOT)
    out = finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def run_suite_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    first = suite_round(workload, seed, trace=False, check=True)
    rounds = [first]
    problems = list(first["problems"])
    if trace:
        traced = suite_round(workload, seed, trace=True, check=False)
        rounds.append(traced)
        metrics = dict(traced["layers"])
        # this workload never imports the cli module
        metrics["cli.import_s"] = 0.0
        metrics["trace.overhead_s"] = traced["run_s"] - first["run_s"]
        report = layer_report(metrics, traced["missing"])
    else:
        add_rounds(rounds, first["setup_s"] + first["run_s"], seconds,
                   lambda: suite_round(workload, seed, trace=False, check=False))
        # The calls of a round differ in size (0.7 s to 4.6 s for one 4.2 case),
        # so the median of a round's few calls jumps between two of them under
        # timing noise; the per-call figure is a round's mean, medianed over rounds.
        report = end_to_end(first["setup_s"], rounds,
                            statistics.median(r["peak_rss_mb"] for r in rounds),
                            statistics.median(r["run_s"] / r["ops"] for r in rounds))
    for r in rounds[1:]:
        problems += checks.check_equal(r["summaries"], first["summaries"],
                                       "suite summaries of a repeated round")
    return {"problems": problems, "attempted": sum(r["ops"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds), "metrics": report}


# ---------------------------------------------------------------------------
# cli workload


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (HOSTILE_MEMORY_BYTES, HOSTILE_MEMORY_BYTES))


def invoke(argv: tuple[str, ...], cwd: str, hostile: bool,
           trace_files: tuple[str, str] | None) -> dict:
    if trace_files is None:
        cmd = [sys.executable, "-m", "latchcheck.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), *trace_files, *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S,
                              preexec_fn=_limit_memory if hostile else None)
    except subprocess.TimeoutExpired:
        raise BenchError(f"latchcheck {' '.join(argv)} timed out")
    return {"seconds": time.perf_counter() - t0, "exit": proc.returncode, "stdout": proc.stdout}


def cli_round(seed: int, trace: bool) -> dict:
    """One pass over the script in a fresh temporary directory.  Every
    command but the hostile ones runs twice, to compare their outputs."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        workloads.write_inputs(work, seed)
        runs: list[tuple[workloads.Command, list[dict]]] = []
        traces: list[str] = []
        if trace:
            spans_dir = os.path.join(OUT, "spans-cli")
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
        t0 = time.perf_counter()
        for cmd in workloads.cli_script():
            reps = []
            for rep in range(1 if cmd.hostile else 2):
                trace_files = None
                if trace:
                    trace_files = (os.path.join(work, f"trace-{len(traces)}.json"),
                                   os.path.join(spans_dir, f"{len(traces):02d}-{cmd.label}.jsonl"))
                    traces.append(trace_files[0])
                r = invoke(cmd.argv, work, cmd.hostile, trace_files)
                if cmd.save_stdout and rep == 0:
                    with open(os.path.join(work, cmd.save_stdout), "w", encoding="utf-8") as fh:
                        fh.write(r["stdout"])
                if cmd.emits:
                    with open(os.path.join(work, cmd.emits), encoding="utf-8") as fh:
                        r["emitted"] = fh.read()
                reps.append(r)
            runs.append((cmd, reps))
        run_s = time.perf_counter() - t0
        layer_parts = []
        if trace:
            for path in traces:
                with open(path, encoding="utf-8") as fh:
                    layer_parts.append(json.load(fh))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"runs": runs, "run_s": run_s, "layer_parts": layer_parts}


def output(invocation: dict) -> tuple:
    return invocation["exit"], invocation["stdout"], invocation.get("emitted")


def cli_problems(runs) -> list[str]:
    """Correctness checks of one round, for every command that is not a
    hostile input; those count as failed operations instead."""
    from latchcheck.documents import dumps, loads, to_document
    from latchcheck.spectra import sphere_spectrum

    by_label = {cmd.label: reps for cmd, reps in runs}
    problems = checks.check_exit_codes(
        [(cmd.label, cmd.expect, r["exit"]) for cmd, reps in runs if not cmd.hostile
         for r in reps])
    for cmd, reps in runs:
        if len(reps) == 2:
            problems += checks.check_equal(output(reps[1]), output(reps[0]),
                                           f"second invocation of {cmd.label}")
    emitted = {
        "latch stdout": by_label["latch-bar-s"][0]["stdout"],
        "realize stdout": by_label["realize-constant-sphere"][0]["stdout"],
        "cofiber stdout": by_label["cofiber-thm14"][0]["stdout"],
    }
    emitted.update({cmd.emits: reps[0]["emitted"] for cmd, reps in runs if cmd.emits})
    for what, text in emitted.items():
        name = json.loads(text)["name"]
        problems += checks.check_equal(dumps(loads(text), name=name), text,
                                       f"{what} after parse-then-serialize")
    problems += checks.check_equal(emitted["nu2.json"], emitted["latch stdout"], "latch -o file")
    problems += checks.check_equal(emitted["value.json"], emitted["realize stdout"],
                                   "realize -o file")
    problems += checks.check_equal(emitted["cofiber.json"], emitted["cofiber stdout"],
                                   "cofiber -o file")
    problems += checks.check_witness_collides(by_label["bar-s-flat"][0]["stdout"],
                                              emitted["nu2.json"])
    problems += checks.check_same_payload(emitted["value.json"],
                                          to_document(sphere_spectrum(3, 3)),
                                          "realize --builtin constant-sphere vs S(3,3)")
    return problems


def cli_setup_s() -> float:
    """A fresh interpreter's import of latchcheck.cli, from process start."""
    proc, setup = spawn_until_ready(
        [sys.executable, "-c", "import latchcheck.cli; print('ready', flush=True)"], ROOT)
    finish(proc)
    return setup


def run_cli_workload(seed: int, seconds: float, trace: bool) -> dict:
    setup = cli_setup_s()
    first = cli_round(seed, trace=False)
    rounds = [first]
    if trace:
        traced = cli_round(seed, trace=True)
        rounds.append(traced)
        parts = traced["layer_parts"]
        metrics = tracing.merge([p["layers"] for p in parts], [p["cases_s"] for p in parts])
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in parts)
        metrics["suites.discards"] = sum(
            suite["discards"] for cmd, reps in traced["runs"] if cmd.argv[0] == "selftest"
            for x in reps for suite in json.loads(x["stdout"])["suites"])
        metrics["trace.overhead_s"] = traced["run_s"] - first["run_s"]
        report = layer_report(metrics, [m for p in parts for m in p["missing"]])
    else:
        add_rounds(rounds, setup + first["run_s"], seconds, lambda: cli_round(seed, trace=False))
        # the largest peak of any child: the setup child and every invocation
        report = end_to_end(setup, rounds,
                            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                            statistics.median(x["seconds"] for r in rounds
                                              for _, reps in r["runs"] for x in reps))
    problems = cli_problems(first["runs"])
    for r in rounds[1:]:
        problems += checks.check_equal(
            [output(x) for _, reps in r["runs"] for x in reps],
            [output(x) for _, reps in first["runs"] for x in reps],
            "cli outputs of a repeated round")
    invocations = [(cmd, x) for r in rounds for cmd, reps in r["runs"] for x in reps]
    failed = sum(x["exit"] != cmd.expect for cmd, x in invocations)
    return {"problems": problems, "attempted": len(invocations), "failed": failed,
            "metrics": report}


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, each by its own run of this script; prints each
    metric by name, then one JSON object with the metrics prefixed by
    workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{workload}.{name}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latchcheck", "__init__.py")):
        print(f"error: no latchcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)
    try:
        if args.workload == "cli":
            result = run_cli_workload(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_suite_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
