"""Workload definitions: which operations each workload runs, and the
inputs they are given.

A suite workload is a list of `run_suite` calls.  The theorem workloads
run a fixed corpus of suite seeds in a fixed order: one suite seed fixes
the coefficient pool of all its cases, and one 4.2 case took from 0.7 s to
4.6 s across 30 suite seeds, so a seeded sample of the few cases a run can
afford moves the run's time by a fifth between benchmark seeds, and the
order of the calls moves peak memory, through the program's bounded
caches, by a tenth.  The set-lemmas workload draws its suite seeds from the
benchmark seed: its 1250 small cases average out.

The `cli` workload is a fixed script of `latchcheck` invocations; one of
the documents it reads is generated from the benchmark seed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


def sub_seed(workload: str, seed: int, index: int) -> int:
    """Seed of input `index` of a workload, a pure function of its arguments."""
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{index}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % (2**31 - 1)


@dataclass(frozen=True)
class SuiteWorkload:
    suite: str
    cases: int
    strategy: str
    corpus: tuple[int, ...] = ()  # fixed suite seeds; empty: draw `ops` from the seed
    ops: int = 0


SUITE_WORKLOADS = {
    # suite 4.2 at K = N = 3, D = 4; attempt 0 of every call is the bar-s case
    "flat-maps": SuiteWorkload("4.2", cases=1, strategy="adversarial",
                               corpus=tuple(range(1, 7))),
    # suite 1.4 at square truncation K = N = D = 3
    "realization": SuiteWorkload("1.4", cases=1, strategy="adversarial",
                                 corpus=tuple(range(1, 13))),
    # 286 mono cospans per call, then per-case set and bisimplicial lemmas
    "set-lemmas": SuiteWorkload("lemmas", cases=250, strategy="structured-good", ops=5),
}

WORKLOADS = tuple(SUITE_WORKLOADS) + ("cli",)


def suite_ops(workload: str, seed: int) -> list[dict]:
    """The `run_suite` calls of one round, in order."""
    w = SUITE_WORKLOADS[workload]
    seeds = w.corpus or tuple(sub_seed(workload, seed, j) for j in range(w.ops))
    return [{"suite": w.suite, "seed": s, "cases": w.cases, "strategy": w.strategy}
            for s in seeds]


# ---------------------------------------------------------------------------
# the cli script


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    expect: int                   # exit code the contract requires
    save_stdout: str | None = None  # file, in the working directory, to keep stdout in
    emits: str | None = None      # document file the command writes with -o
    hostile: bool = False


# A minimal valid simplicial set (a point with one extra vertex, truncated
# at dimension 1): faces[k][i] maps dimension k to k-1, degens[k][i] maps
# k to k+1.
def _tiny_sset(name: str) -> dict:
    return {"kind": "sset", "name": name, "trunc": 1,
            "levels": [{"size": 2, "labels": None}, {"size": 2, "labels": None}],
            "faces": [[], [[0, 1], [0, 1]]], "degens": [[[0, 1]], []]}


def hostile_documents() -> dict[str, dict]:
    """Malformed documents that `validate` must reject with exit 2.  They
    do not depend on the seed."""
    faces = _tiny_sset("hostile-faces")
    faces["faces"] = 5
    fraction = _tiny_sset("hostile-fraction")
    fraction["degens"] = [[[0, 1.7]], []]
    return {
        "hostile-faces.json": faces,
        "hostile-fraction.json": fraction,
        "hostile-labels.json": {"kind": "pointed-set", "name": "hostile-labels",
                                "size": 3, "labels": "abc"},
        "hostile-size.json": {"kind": "pointed-set", "name": "hostile-size",
                              "size": 1e9, "labels": None},
    }


def write_inputs(directory: str, seed: int) -> None:
    """Write the documents the script reads: the hostile documents and a
    simplicial set generated from the seed."""
    import os
    import random

    from latchcheck.documents import dumps
    from latchcheck.generators import gen_sset

    for name, doc in hostile_documents().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    s = gen_sset(random.Random(sub_seed("cli", seed, 0)), 3, max_base=3, max_new=2)
    with open(os.path.join(directory, "seeded.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(s, name="seeded"))


def cli_script() -> list[Command]:
    """The script does not depend on the seed; the seeded document it reads
    does.  Its selftests keep the seeds of criterion 11: a seeded 3.2 suite
    moved the peak memory of the workload from 34 to 48 MB."""
    j = ("--format", "json")
    cmds = [
        # the byte-stable commands of acceptance criterion 11
        Command("bar-s-flat", ("check", "--builtin", "bar-s", "flat") + j, 1,
                save_stdout="witness.json"),
        Command("sphere-positive-flat",
                ("check", "--builtin", "sphere", "positive-flat") + j, 1),
        Command("selftest-lemmas", ("selftest", "--suite", "lemmas", "--seed", "1",
                                    "--cases", "5") + j, 0),
        Command("selftest-3.2", ("selftest", "--suite", "3.2", "--seed", "4",
                                 "--cases", "2") + j, 0),
        Command("latch-bar-s", ("latch", "--builtin", "bar-s", "--spectral", "2"), 0),
        Command("realize-constant-sphere", ("realize", "--builtin", "constant-sphere"), 0),
        Command("cofiber-thm14", ("cofiber", "--builtin", "thm14-demo"), 0),
        # check on every builtin, and the replay of the bar-s witness
        Command("bar-s-replay", ("check", "--builtin", "bar-s", "flat",
                                 "--replay", "witness.json"), 0),
        Command("sphere-flat", ("check", "--builtin", "sphere", "flat") + j, 0),
        Command("constant-sphere-good", ("check", "--builtin", "constant-sphere", "good") + j, 0),
        Command("good-demo-good", ("check", "--builtin", "good-demo", "good") + j, 0),
        Command("thm14-reedy-flat", ("check", "--builtin", "thm14-demo", "reedy-flat") + j, 0),
        # documents written with -o, read back by validate and check
        Command("latch-bar-s-o", ("latch", "--builtin", "bar-s", "--spectral", "2",
                                  "-o", "nu2.json"), 0, emits="nu2.json"),
        Command("realize-o", ("realize", "--builtin", "constant-sphere", "-o", "value.json"),
                0, emits="value.json"),
        Command("cofiber-o", ("cofiber", "--builtin", "thm14-demo", "-o", "cofiber.json"),
                0, emits="cofiber.json"),
        Command("validate-nu2", ("validate", "nu2.json") + j, 0),
        Command("validate-value", ("validate", "value.json") + j, 0),
        Command("validate-cofiber", ("validate", "cofiber.json") + j, 0),
        Command("value-flat", ("check", "value.json", "flat") + j, 0),
        Command("validate-seeded", ("validate", "seeded.json") + j, 0),
        Command("latch-seeded-o", ("latch", "seeded.json", "--simplicial", "2",
                                   "-o", "seeded-l2.json"), 0, emits="seeded-l2.json"),
        Command("validate-seeded-l2", ("validate", "seeded-l2.json") + j, 0),
    ]
    cmds += [Command(f"validate-{name[:-5]}", ("validate", name), 2, hostile=True)
             for name in hostile_documents()]
    return cmds
