"""Harness layer: generator postconditions, oracles, reproducibility."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from latchcheck.generators import (
    GenConfig,
    all_mono_cospans,
    face_section_holds,
    gen_bisimplicial,
    gen_good_simplicial_spectrum,
    gen_pointed,
    gen_pointed_map,
    gen_spectrum,
    gen_sset,
    gen_thm_hypothesis_instance,
    latching_image_agrees,
    oracle_latching_sets,
    pushout_over_pullback_mono,
    shifted_free_spectrum,
    suspension_spectrum,
)
from latchcheck.pointed import is_mono
from latchcheck.reedy import (
    SetsAmbient,
    bisimplicial_reedy_report,
    is_good,
    is_positive_good,
    reedy_cofibrant_report,
    simplicial_latching,
    view_of_bisimplicial,
    view_of_sset,
)
from latchcheck.simplicial import sphere, validate_bisimplicial, validate_sset
from latchcheck.spectra import (
    cofibrant_report,
    is_flat_cofibration,
    is_levelwise_cofibration,
    validate_spectrum,
)

CFG = GenConfig(seed=5, ktrunc=2, strunc=2, dtrunc=2)


class TestSsetGenerator:
    def test_streams_are_reproducible(self):
        a = gen_sset(random.Random(11), 3)
        b = gen_sset(random.Random(11), 3)
        assert a == b

    def test_generated_ssets_validate(self):
        for seed in range(40):
            s = gen_sset(random.Random(seed), 3)
            assert validate_sset(s).passed

    def test_level_cap_is_respected_when_feasible(self):
        # seed 3 draws level sizes [2, 2, 2, 2, 2], inside the cap; only when
        # every draw busts the cap does gen_sset fall back to its smallest
        # candidate, which may exceed it
        s = gen_sset(random.Random(3), 4, max_base=2, max_new=1, level_cap=5)
        assert max(p.size for p in s.levels) <= 5

    def test_degeneracy_union_oracle_agrees(self):
        for seed in range(60):
            s = gen_sset(random.Random(seed), 3)
            for n in range(4):
                assert latching_image_agrees(s, n)

    def test_face_section_property(self):
        for seed in range(30):
            assert face_section_holds(gen_sset(random.Random(seed), 3))


class TestBisimplicialGenerator:
    def test_generated_bisimplicials_validate_and_are_reedy_cofibrant(self):
        for seed in range(30):
            b = gen_bisimplicial(random.Random(seed), 3, 3)
            assert validate_bisimplicial(b).passed
            assert bisimplicial_reedy_report(b).passed

    def test_oracle_matches_on_bisimplicial_rows(self):
        # latching objects of the underlying simplicial object of
        # simplicial sets have images given by degeneracy unions in
        # every dimension slice
        b = gen_bisimplicial(random.Random(77), 2, 2)
        view = view_of_bisimplicial(b)
        for n in range(1, 3):
            for l in range(3):
                slice_view = type(view)(
                    top=b.htrunc,
                    obj_at=lambda k, l=l: b.rows[k].levels[l],
                    degen_at=lambda k, i, l=l: b.hdegens[k][i].components[l],
                )
                latch = simplicial_latching(slice_view, n, SetsAmbient())
                image = tuple(sorted(set(latch.nu.table)))
                assert image == oracle_latching_sets(slice_view, n)


class TestSpectrumGenerator:
    def test_generated_spectra_validate(self):
        for seed in range(6):
            x = gen_spectrum(random.Random(seed), 2, 2)
            assert validate_spectrum(x).passed

    def test_unit_oracle_on_generated_spectra(self):
        from latchcheck.spectra import unit_oracle

        for seed in range(4):
            x = gen_spectrum(random.Random(seed), 2, 2)
            for n in range(3):
                assert unit_oracle(x, n).report.passed


class TestShiftedFree:
    def test_is_valid_and_positive_flat_cofibrant(self):
        f1 = shifted_free_spectrum(sphere(0, 2), 2)
        assert validate_spectrum(f1).passed
        rep = cofibrant_report(f1, "positive-flat")
        assert rep.passed

    def test_level0_is_point(self):
        f1 = shifted_free_spectrum(sphere(0, 2), 2)
        assert all(p.size == 1 for p in f1.levels[0].levels)


class TestGoodGenerator:
    def test_postcondition_good(self):
        for case in range(6):
            x = gen_good_simplicial_spectrum(CFG.rng(case), CFG)
            assert is_good(x).passed

    def test_postcondition_positive_good(self):
        x = gen_good_simplicial_spectrum(CFG.rng(0), CFG, positive=True)
        assert is_positive_good(x).passed

    def test_good_cases_are_reedy_flat(self):
        x = gen_good_simplicial_spectrum(CFG.rng(1), CFG)
        assert reedy_cofibrant_report(x, "flat").passed

    def test_rejection_strategy_also_yields_good(self):
        cfg = GenConfig(seed=9, ktrunc=2, strunc=2, dtrunc=2, strategy="rejection")
        x = gen_good_simplicial_spectrum(cfg.rng(0), cfg)
        assert is_good(x).passed


class TestTheoremInstances:
    def test_41_instance_hypotheses(self):
        inst = gen_thm_hypothesis_instance(CFG.rng(2), CFG, "4.1")
        for m in range(CFG.ktrunc + 1):
            assert is_flat_cofibration(inst.f.components[m]).passed
        assert reedy_cofibrant_report(inst.y, "levelwise").passed

    def test_42_instance_hypotheses(self):
        inst = gen_thm_hypothesis_instance(CFG.rng(3), CFG, "4.2")
        assert reedy_cofibrant_report(inst.x, "flat").passed
        assert reedy_cofibrant_report(inst.y, "flat").passed

    def test_14_instance_hypotheses(self):
        cfg = GenConfig(seed=5, ktrunc=2, strunc=2, dtrunc=2)
        inst = gen_thm_hypothesis_instance(cfg.rng(4), cfg, "1.4")
        assert is_good(inst.x).passed and is_good(inst.y).passed

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            gen_thm_hypothesis_instance(CFG.rng(0), CFG, "9.9")


class TestLemmas:
    def test_mono_cospan_enumeration_size(self):
        count = sum(1 for _ in all_mono_cospans(3))
        # D of size 3: (1+2)^2 mono pairs, plus D of size 2: 4, D of size 1: 1
        assert count == 25 + 4 + 1

    def test_pushout_over_pullback_mono_small(self):
        for f1, f2 in all_mono_cospans(3):
            assert pushout_over_pullback_mono(f1, f2)


class TestPointedGenerators:
    def test_maps_are_valid(self):
        rng = random.Random(0)
        for _ in range(20):
            a, b = gen_pointed(rng), gen_pointed(rng)
            m = gen_pointed_map(rng, a, b)
            assert m.dom == a and m.cod == b


class TestPostconditionsUnderOptimize:
    def test_failing_postcondition_raises_under_python_O(self):
        # assert statements vanish under -O; the generators' re-checks must not
        code = (
            "import random, sys\n"
            "import latchcheck.generators as g\n"
            "from latchcheck.reports import failed\n"
            "print('optimize', sys.flags.optimize)\n"
            "g.validate_sset = lambda s: failed('simplicial-identities', None, 'forced', 'forced failure')\n"
            "g.gen_sset(random.Random(0), 2)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env)
        assert "optimize 1" in proc.stdout
        assert proc.returncode != 0
        assert "AssertionError: forced failure" in proc.stderr
