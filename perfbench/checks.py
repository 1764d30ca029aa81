"""Correctness checks that do not trust the program's own verdicts.

Each `check_*` function takes plain data (tables, sizes, summaries, exit
codes, document text) and returns a list of problems, empty when the check
holds, so that a test can hand it a corrupted input and see it fail.  The
extraction helpers pull that data out of `latchcheck` objects.
"""
from __future__ import annotations

import json
import math
from math import perm


# ---------------------------------------------------------------------------
# plain-data checks


def injective(table) -> bool:
    return len(set(table)) == len(table)


def check_suite_passed(summary: dict) -> list[str]:
    """A suite summary (`SuiteSummary.to_json()`) that passed every case."""
    problems = []
    name = f"suite {summary.get('suite')} seed {summary.get('seed')}"
    if summary.get("starved"):
        problems.append(f"{name}: starved")
    if summary.get("counterexample") is not None:
        problems.append(f"{name}: counterexample {summary['counterexample']}")
    if summary.get("passes") != summary.get("cases"):
        problems.append(f"{name}: {summary.get('passes')}/{summary.get('cases')} cases passed")
    return problems


def attempts_of(summary: dict) -> int:
    """Every attempt of a finished theorem suite either produced a case or
    was discarded."""
    return summary["cases"] + summary["discards"]


def check_discards(summary: dict, period: int = 7) -> list[str]:
    """Under the adversarial strategy every `period`-th attempt, from
    attempt 0 on, is the bar-s case and must be discarded; no other is."""
    attempts = attempts_of(summary)
    expected = math.ceil(attempts / period)
    if summary["discards"] != expected:
        return [f"suite seed {summary.get('seed')}: {summary['discards']} discards in "
                f"{attempts} attempts, expected {expected}"]
    return []


def check_injective_tables(tables: dict) -> list[str]:
    """Every table (keyed by its location) is injective."""
    return [f"table at {loc} is not injective: {list(t)}"
            for loc, t in tables.items() if not injective(t)]


def check_some_table_collides(tables: dict, what: str) -> list[str]:
    """At least one table collides: the object is not flat."""
    if all(injective(t) for t in tables.values()):
        return [f"{what}: every latching comparison table is injective"]
    return []


def check_additive(sizes_y: dict, sizes_x: dict, sizes_z: dict) -> list[str]:
    """Non-basepoint sizes add: |L(y)| - 1 = (|L(x)| - 1) + (|L(z)| - 1)."""
    problems = []
    for loc, size in sizes_y.items():
        if loc not in sizes_x or loc not in sizes_z:
            problems.append(f"latching size at {loc} missing on a summand")
        elif size - 1 != (sizes_x[loc] - 1) + (sizes_z[loc] - 1):
            problems.append(f"latching at {loc}: {size} != {sizes_x[loc]} + {sizes_z[loc]} - 1")
    return problems


def check_equal(got, want, what: str) -> list[str]:
    return [] if got == want else [f"{what}: {got!r} != {want!r}"]


def degenerate_count(size: int, degen_tables) -> int:
    """Number of degenerate simplices of a degree, the basepoint included,
    from the raw degeneracy tables into that degree."""
    image = {0}
    for table in degen_tables:
        image.update(table)
    if not all(0 <= v < size for v in image):
        raise ValueError("degeneracy table points outside its codomain")
    return len(image)


def mono_cospan_count(max_size: int) -> int:
    """Cospans B -> D <- C of pointed monos with |B|, |C| <= |D| <= max_size:
    injective pointed maps from a b-element set into a d-element set number
    (d-1)!/(d-b)!."""
    return sum(sum(perm(d - 1, b - 1) for b in range(1, d + 1)) ** 2
               for d in range(1, max_size + 1))


def check_exit_codes(results: list[tuple[str, int, int]]) -> list[str]:
    """(label, expected, got) for each invocation."""
    return [f"{label}: exit {got}, expected {want}" for label, want, got in results
            if got != want]


def check_witness_collides(witness_report: str, latch_document: str) -> list[str]:
    """The witness pair of `check ... flat --format json` collides in the
    table of the `latch --spectral N` document at the witness's dimension."""
    report = json.loads(witness_report)["report"]
    witness = report.get("witness")
    if not witness:
        return ["the flat check reported no witness"]
    loc = {k: v for k, v in witness["location"]}
    i, j = witness["pair"]
    doc = json.loads(latch_document)
    table = doc["components"][loc["dim"]]
    if i == j or table[i] != table[j]:
        return [f"witness pair ({i}, {j}) does not collide at dim {loc['dim']}"]
    return []


def check_same_payload(document: str, reference: dict, what: str) -> list[str]:
    """Document equals the reference document, names aside."""
    doc = {k: v for k, v in json.loads(document).items() if k != "name"}
    ref = {k: v for k, v in reference.items() if k != "name"}
    return [] if doc == ref else [f"{what} differs from the reference document"]


# ---------------------------------------------------------------------------
# extraction from latchcheck objects


def simplicial_spectrum_map_tables(f) -> dict:
    """Tables of a map of simplicial spectra keyed (degree, level, dim)."""
    return {(m, n, k): c.table
            for m, fm in enumerate(f.components)
            for n, fn in enumerate(fm.components)
            for k, c in enumerate(fn.components)}


def spectrum_map_tables(f) -> dict:
    return {(n, k): c.table for n, fn in enumerate(f.components)
            for k, c in enumerate(fn.components)}


def latching_nu_tables(x) -> dict:
    """Comparison-map tables L_n X -> X(n) of a spectrum, keyed (level, dim)."""
    from latchcheck.spectra import spectral_latching

    return {(n, k): c.table for n in range(x.strunc + 1)
            for k, c in enumerate(spectral_latching(x, n).nu.components)}


def latching_sizes(x) -> dict:
    """Sizes of L_n(x_m) for a simplicial spectrum, keyed (degree, level, dim)."""
    from latchcheck.spectra import spectral_latching

    return {(m, n, k): p.size for m, xm in enumerate(x.degrees)
            for n in range(xm.strunc + 1)
            for k, p in enumerate(spectral_latching(xm, n).obj.levels)}


def level_sizes(s) -> tuple[int, ...]:
    return tuple(p.size for p in s.levels)


# ---------------------------------------------------------------------------
# checks of the suite workloads, on cases regenerated from the suite seeds


def regenerate(op: dict):
    """The theorem instances of one `run_suite` call, attempt by attempt:
    None for an adversarial attempt, else the structured instance, rebuilt
    from `GenConfig.rng` and the public generators the way
    `gen_thm_hypothesis_instance` builds it (a wedge inclusion x -> x v w
    of two good simplicial spectra), without its hypothesis re-checks."""
    from latchcheck.generators import TheoremInstance, gen_good_simplicial_spectrum
    from latchcheck.reedy import wedge_simplicial_spectra
    from latchcheck.suites import SUITE_ALIASES, default_config

    cfg = default_config(SUITE_ALIASES[op["suite"]], op["seed"], op["strategy"])
    out = []
    for attempt in range(op["attempts"]):
        if op["strategy"] == "adversarial" and attempt % 7 == 0:
            out.append((attempt, cfg, None))
            continue
        rng = cfg.rng(attempt)
        positive = rng.random() < 0.3
        x = gen_good_simplicial_spectrum(rng, cfg, positive=positive)
        w = gen_good_simplicial_spectrum(rng, cfg, positive=positive)
        y, legs = wedge_simplicial_spectra([x, w])
        out.append((attempt, cfg, TheoremInstance(op["suite"], positive, x, y, legs[0])))
    return out


def adversarial_spectrum(cfg):
    """The bar-s case's degree: the truncated sphere spectrum smashed with
    the suite's first coefficient, the 0-sphere."""
    from latchcheck.simplicial import sphere
    from latchcheck.spectra import bar_s, smash_spectrum_sset

    return smash_spectrum_sset(bar_s(cfg.strunc, cfg.dtrunc), sphere(0, cfg.dtrunc))


def theorem_checks(ops: list[dict], summaries: list[dict]) -> list[str]:
    """Checks of the flat-maps and realization workloads.  The costlier
    checks (additivity, unit, cofiber interchange) run on the first call's
    case only."""
    from latchcheck.reedy import pointwise_cofiber, realize, realize_map
    from latchcheck.spectra import (
        pushout_spectra, smash_over_s, sphere_spectrum, spectrum_zero_map, zero_spectrum)

    problems = []
    for j, (op, summary) in enumerate(zip(ops, summaries)):
        problems += check_suite_passed(summary)
        if op["strategy"] == "adversarial":
            problems += check_discards(summary)
        for attempt, cfg, inst in regenerate(dict(op, attempts=attempts_of(summary))):
            where = f"seed {op['seed']} attempt {attempt}"
            if inst is None:
                problems += check_some_table_collides(
                    latching_nu_tables(adversarial_spectrum(cfg)), f"bar-s case at {where}")
                continue
            problems += check_injective_tables(simplicial_spectrum_map_tables(inst.f))
            if op["suite"] == "1.4":
                rf = realize_map(inst.f)
                problems += check_injective_tables(spectrum_map_tables(rf))
            if j > 0:
                continue
            z, _ = pointwise_cofiber(inst.f)
            problems += check_additive(latching_sizes(inst.y), latching_sizes(inst.x),
                                       latching_sizes(z))
            x0 = inst.x.degrees[0]
            s = sphere_spectrum(x0.strunc, x0.dtrunc)
            for n in range(x0.strunc + 1):
                problems += check_equal(level_sizes(smash_over_s(s, x0, n).obj),
                                        level_sizes(x0.levels[n]), f"(S ^_S X)({n}) at {where}")
            if op["suite"] == "1.4":
                zero = zero_spectrum(rf.dom.strunc, rf.dom.dtrunc)
                cofiber = pushout_spectra(rf, spectrum_zero_map(rf.dom, zero)).obj
                problems += check_equal(realize(z) == cofiber, True,
                                        f"realize(cofiber) = cofiber(realize) at {where}")
    return problems


def lemma_checks(ops: list[dict], summaries: list[dict]) -> list[str]:
    """Checks of the set-lemmas workload: suite verdicts, the mono-cospan
    count against its closed form, and set-level latching sizes against the
    degenerate simplices counted from the raw degeneracy tables of the first
    call's cases."""
    from latchcheck.generators import GenConfig, all_mono_cospans, gen_sset
    from latchcheck.reedy import SetsAmbient, simplicial_latching, view_of_sset

    problems = []
    want = mono_cospan_count(4)
    problems += check_equal(sum(1 for _ in all_mono_cospans(4)), want, "mono cospans enumerated")
    for j, (op, summary) in enumerate(zip(ops, summaries)):
        problems += check_suite_passed(summary)
        problems += check_equal(f"exhausted {want} mono cospans of size <= 4" in summary["notes"],
                                True, f"suite seed {op['seed']} cospan note")
        if j > 0:
            continue
        cfg = GenConfig(seed=op["seed"], ktrunc=3, strunc=3, dtrunc=3)
        for i in range(op["cases"]):
            s = gen_sset(cfg.rng(i), 3, max_base=3, max_new=2)
            for n in range(min(3, s.trunc) + 1):
                latch = simplicial_latching(view_of_sset(s), n, SetsAmbient())
                tables = [m.table for m in s.degens[n - 1]] if n > 0 else []
                problems += check_equal(latch.obj.size,
                                        degenerate_count(s.levels[n].size, tables),
                                        f"set latching size, seed {op['seed']} case {i} degree {n}")
    return problems
