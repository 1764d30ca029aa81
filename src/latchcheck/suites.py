"""Reproducible theorem suites.

Each suite draws seeded cases, re-verifies the theorem's hypotheses
(discarding cases that fail them, with a starvation ceiling), evaluates
the theorem's conclusion through the real classifiers, and reports a
summary.  A counterexample is serialized as a replayable document pair
and is a build-failing defect, since the statements under test are
proven; the suites exist to indict the implementation, not the claims.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import documents
from .generators import (
    GenConfig,
    GeneratorStarvation,
    TheoremInstance,
    _coefficient_pool,
    all_mono_cospans,
    constant_simplicial_spectrum,
    face_section_holds,
    gen_bisimplicial,
    gen_sset,
    gen_thm_hypothesis_instance,
    latching_image_agrees,
    pushout_over_pullback_mono,
)
from .reedy import (
    bisimplicial_reedy_report,
    is_good,
    is_positive_good,
    is_reedy_cofibration,
    realize_map,
    reedy_cofibrant_report,
)
from .reports import CheckReport
from .spectra import (
    bar_s,
    is_flat_cofibration,
    is_positive_flat,
    smash_spectrum_sset,
)

SUITE_ALIASES = {
    "3.2": "good-reedy-flat",
    "4.1": "pointwise-flat-levelwise",
    "4.2": "pointwise-flat-flat",
    "1.4": "realization-flat",
    "lemmas": "lemmas",
    "good-reedy-flat": "good-reedy-flat",
    "pointwise-flat-levelwise": "pointwise-flat-levelwise",
    "pointwise-flat-flat": "pointwise-flat-flat",
    "realization-flat": "realization-flat",
}

DEFAULT_CASES = {
    "good-reedy-flat": 200,
    "pointwise-flat-levelwise": 100,
    "pointwise-flat-flat": 100,
    "realization-flat": 100,
    "lemmas": 200,
}

_THEOREM_ID = {
    "good-reedy-flat": "3.2",
    "pointwise-flat-levelwise": "4.1",
    "pointwise-flat-flat": "4.2",
    "realization-flat": "1.4",
}

_DISCARD_CEILING = 0.95
# under the adversarial strategy, every attempt divisible by this period
# is a hypothesis-violating case
_ADVERSARIAL_PERIOD = 7


@dataclass
class SuiteSummary:
    suite: str
    seed: int
    strategy: str
    cases: int
    passes: int
    discards: int
    positives: int = 0
    starved: bool = False
    counterexample: dict | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.starved) and self.counterexample is None and self.passes == self.cases

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "strategy": self.strategy,
            "cases": self.cases,
            "passes": self.passes,
            "discards": self.discards,
            "positives": self.positives,
            "starved": self.starved,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "notes": sorted(self.notes),
        }


def default_config(suite: str, seed: int, strategy: str = "structured-good") -> GenConfig:
    name = SUITE_ALIASES[suite]
    if name == "realization-flat":
        # realization needs square truncation
        return GenConfig(seed=seed, ktrunc=3, strunc=3, dtrunc=3, strategy=strategy)
    return GenConfig(seed=seed, ktrunc=3, strunc=3, dtrunc=4, strategy=strategy)


def theorem_hypotheses_report(inst: TheoremInstance, cfg: GenConfig) -> CheckReport:
    """Re-verification of the named theorem's hypothesis clauses."""
    name = inst.name
    if name == "3.2":
        return is_positive_good(inst.x) if inst.positive else is_good(inst.x)
    f = inst.f
    for m in range(cfg.ktrunc + 1):
        rep = (is_positive_flat(f.components[m]) if inst.positive
               else is_flat_cofibration(f.components[m]))
        if not rep.passed:
            return CheckReport(f"hypotheses-{name}", False, rep.witness,
                               rep.failure_kind, f"pointwise clause fails at degree {m}")
    if name == "4.1":
        return reedy_cofibrant_report(inst.y, "levelwise")
    if name == "4.2":
        for side in (inst.x, inst.y):
            rep = reedy_cofibrant_report(side, "flat")
            if not rep.passed:
                return rep
        return CheckReport(f"hypotheses-{name}", True)
    if name == "1.4":
        for side in (inst.x, inst.y):
            rep = is_positive_good(side) if inst.positive else is_good(side)
            if not rep.passed:
                return rep
        return CheckReport(f"hypotheses-{name}", True)
    raise ValueError(f"unknown theorem id {name!r}")


def theorem_conclusion_report(inst: TheoremInstance) -> CheckReport:
    name = inst.name
    if name == "3.2":
        rep = reedy_cofibrant_report(inst.x, "flat")
        if rep.passed and inst.positive:
            rep = reedy_cofibrant_report(inst.x, "positive-flat")
        return rep
    if name == "4.1":
        model = "positive-levelwise" if inst.positive else "levelwise"
        return is_reedy_cofibration(inst.f, model)
    if name == "4.2":
        model = "positive-flat" if inst.positive else "flat"
        return is_reedy_cofibration(inst.f, model)
    if name == "1.4":
        model = "positive-flat" if inst.positive else "flat"
        rep = is_reedy_cofibration(inst.f, model)
        if not rep.passed:
            return rep
        realized = realize_map(inst.f)
        check = is_positive_flat if inst.positive else is_flat_cofibration
        rep2 = check(realized)
        if not rep2.passed:
            return CheckReport("realized-" + rep2.prop, False, rep2.witness,
                               rep2.failure_kind, "realized map fails the cofibration test")
        return CheckReport(f"conclusion-{name}", True)
    raise ValueError(f"unknown theorem id {name!r}")


def _counterexample_payload(inst: TheoremInstance, case: int, rep: CheckReport) -> dict:
    docs = {}
    if inst.f is not None:
        docs["map"] = documents.to_document(inst.f, name=f"counterexample-case-{case}")
    else:
        docs["object"] = documents.to_document(inst.x, name=f"counterexample-case-{case}")
    return {"case": case, "report": rep.to_json(), "documents": docs}


def _adversarial_instance(cfg: GenConfig, case: int, theorem: str) -> TheoremInstance:
    """A case violating the hypotheses: a constant simplicial spectrum on
    the non-flat truncated sphere spectrum (wedged in as the map target
    for the map-shaped theorems)."""
    pool = _coefficient_pool(cfg.seed, cfg.dtrunc)
    bad_level = smash_spectrum_sset(bar_s(cfg.strunc, cfg.dtrunc), pool[0])
    bad = constant_simplicial_spectrum(bad_level, cfg.ktrunc)
    if theorem == "3.2":
        return TheoremInstance("3.2", False, bad, None, None)
    from .reedy import SimplicialSpectrumMap, wedge_simplicial_spectra, zero_simplicial_spectrum

    zero = zero_simplicial_spectrum(cfg.ktrunc, cfg.strunc, cfg.dtrunc)
    y, legs = wedge_simplicial_spectra([zero, bad])
    return TheoremInstance(theorem, False, zero, y, legs[0])


def run_theorem_suite(suite: str, seed: int, cases: int,
                      strategy: str = "structured-good") -> SuiteSummary:
    name = SUITE_ALIASES[suite]
    theorem = _THEOREM_ID[name]
    cfg = default_config(name, seed, strategy)
    pool = _coefficient_pool(cfg.seed, cfg.dtrunc)
    summary = SuiteSummary(suite=name, seed=seed, strategy=cfg.strategy,
                           cases=cases, passes=0, discards=0)
    produced = 0
    attempt = 0
    budget = max(20, cases * 4)
    while produced < cases:
        if attempt >= budget or (attempt > 20 and summary.discards / attempt > _DISCARD_CEILING):
            summary.starved = True
            summary.notes.append(f"starved after {attempt} attempts")
            break
        rng = cfg.rng(attempt)
        adversarial = cfg.strategy == "adversarial" and attempt % _ADVERSARIAL_PERIOD == 0
        try:
            if adversarial:
                inst = _adversarial_instance(cfg, attempt, theorem)
            else:
                inst = gen_thm_hypothesis_instance(rng, cfg, theorem, pool=pool)
        except GeneratorStarvation as exc:
            summary.discards += 1
            attempt += 1
            summary.notes.append(f"generator rejected a case: {exc}")
            continue
        attempt += 1
        gate = theorem_hypotheses_report(inst, cfg)
        if not gate.passed:
            summary.discards += 1
            continue
        rep = theorem_conclusion_report(inst)
        if inst.positive:
            summary.positives += 1
        if rep.passed:
            summary.passes += 1
        elif summary.counterexample is None:
            summary.counterexample = _counterexample_payload(inst, attempt - 1, rep)
        produced += 1
    return summary


def run_lemmas_suite(seed: int, cases: int) -> SuiteSummary:
    """Element-level lemmas: the exhaustive pushout-over-pullback check,
    the face-section property, latching-vs-degeneracy-union agreement,
    and Reedy cofibrancy of random bisimplicial sets."""
    summary = SuiteSummary(suite="lemmas", seed=seed, strategy="structured-good",
                           cases=cases, passes=0, discards=0)
    bad = 0
    cospans = 0
    for f1, f2 in all_mono_cospans(4):
        cospans += 1
        if not pushout_over_pullback_mono(f1, f2):
            bad += 1
            if summary.counterexample is None:
                summary.counterexample = {
                    "lemma": "pushout-over-pullback",
                    "f1": list(f1.table), "f2": list(f2.table),
                }
    summary.notes.append(f"exhausted {cospans} mono cospans of size <= 4")

    cfg = GenConfig(seed=seed, ktrunc=3, strunc=3, dtrunc=3)
    per_case_ok = 0
    for i in range(cases):
        rng = cfg.rng(i)
        s = gen_sset(rng, 3, max_base=3, max_new=2)
        ok = face_section_holds(s)
        ok = ok and all(latching_image_agrees(s, n) for n in range(min(3, s.trunc) + 1))
        b = gen_bisimplicial(rng, 3, 3)
        ok = ok and bisimplicial_reedy_report(b).passed
        if ok:
            per_case_ok += 1
        elif summary.counterexample is None:
            summary.counterexample = {
                "lemma": "per-case",
                "case": i,
                "document": documents.to_document(s, name=f"lemma-case-{i}"),
            }
    summary.passes = per_case_ok if bad == 0 else 0
    return summary


def run_suite(suite: str, seed: int = 1, cases: int | None = None,
              strategy: str = "structured-good") -> SuiteSummary:
    name = SUITE_ALIASES.get(suite)
    if name is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(set(SUITE_ALIASES))}")
    cases = cases if cases is not None else DEFAULT_CASES[name]
    if cases < 0:
        raise ValueError(f"cases must be nonnegative, got {cases}")
    if name == "lemmas":
        return run_lemmas_suite(seed, cases)
    return run_theorem_suite(name, seed, cases, strategy=strategy)
