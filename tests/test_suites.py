"""Suite machinery: summaries, discard accounting, counterexample
serialization, reproducibility."""
from __future__ import annotations

import pytest

from latchcheck import documents
from latchcheck.generators import GenConfig, gen_thm_hypothesis_instance
from latchcheck.reports import CheckReport
from latchcheck.suites import (
    SUITE_ALIASES,
    _counterexample_payload,
    run_suite,
    theorem_conclusion_report,
    theorem_hypotheses_report,
)

SMALL = GenConfig(seed=8, ktrunc=2, strunc=2, dtrunc=2)


class TestSummaries:
    def test_suite_aliases_resolve(self):
        assert SUITE_ALIASES["3.2"] == "good-reedy-flat"
        assert SUITE_ALIASES["good-reedy-flat"] == "good-reedy-flat"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("5.5", seed=1, cases=1)

    @pytest.mark.parametrize("suite", ["1.4", "4.2", "lemmas"])
    def test_negative_case_count_rejected(self, suite):
        with pytest.raises(ValueError, match="nonnegative"):
            run_suite(suite, seed=1, cases=-1)

    def test_small_suite_passes_and_reproduces(self):
        a = run_suite("3.2", seed=3, cases=3)
        b = run_suite("3.2", seed=3, cases=3)
        assert a.passed and a.to_json() == b.to_json()

    def test_lemmas_suite(self):
        s = run_suite("lemmas", seed=2, cases=5)
        assert s.passed
        assert any("286" in note or "cospans" in note for note in s.notes)


class TestStrategies:
    def test_rejection_strategy_terminates_with_accounting(self):
        s = run_suite("3.2", seed=6, cases=2, strategy="rejection")
        assert s.cases == 2
        assert s.passed or s.starved  # never a silent weaker case
        b = run_suite("3.2", seed=6, cases=2, strategy="rejection")
        assert s.to_json() == b.to_json()


class TestHypothesisGate:
    def test_adversarial_cases_discarded(self):
        s = run_suite("4.2", seed=5, cases=3, strategy="adversarial")
        assert s.passed
        assert s.discards >= 1

    def test_conclusions_hold_for_instances(self):
        for theorem in ("3.2", "4.1", "4.2"):
            inst = gen_thm_hypothesis_instance(SMALL.rng(1), SMALL, theorem)
            assert theorem_hypotheses_report(inst, SMALL).passed
            assert theorem_conclusion_report(inst).passed


class TestCounterexampleSerialization:
    def test_payload_documents_are_replayable(self):
        inst = gen_thm_hypothesis_instance(SMALL.rng(2), SMALL, "4.2")
        payload = _counterexample_payload(
            inst, case=2, rep=CheckReport("flat", False, None, "mono", "forced"))
        doc = payload["documents"]["map"]
        back = documents.parse_document(doc)
        assert back == inst.f
        # canonical fixed point
        assert documents.canonical_json(documents.to_document(back, doc["name"])) \
            == documents.canonical_json(doc)
