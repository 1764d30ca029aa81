"""Fast tests of the benchmark itself: each correctness check passes on a
good input and fails on a deliberately corrupted one, the tracer wraps
and unwraps every alias, and the benchmark refuses to run without the
program's sources.

    python3 perfbench/check_tests.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def summary(**over) -> dict:
    base = {"suite": "pointwise-flat-flat", "seed": 5, "cases": 1, "passes": 1,
            "discards": 1, "starved": False, "counterexample": None, "notes": []}
    base.update(over)
    return base


class SuiteChecks(unittest.TestCase):
    def test_suite_passed(self):
        self.assertEqual(checks.check_suite_passed(summary()), [])
        self.assertTrue(checks.check_suite_passed(summary(starved=True)))
        self.assertTrue(checks.check_suite_passed(summary(counterexample={"case": 3})))
        self.assertTrue(checks.check_suite_passed(summary(passes=0)))

    def test_discard_count(self):
        self.assertEqual(checks.check_discards(summary()), [])
        self.assertEqual(checks.check_discards(summary(cases=6, passes=6, discards=1)), [])
        self.assertTrue(checks.check_discards(summary(discards=0)))
        self.assertTrue(checks.check_discards(summary(cases=7, passes=7, discards=1)))

    def test_regenerated_instance_is_the_generated_one(self):
        from latchcheck.generators import gen_thm_hypothesis_instance
        from latchcheck.suites import default_config

        op = {"suite": "1.4", "seed": 9, "strategy": "adversarial", "attempts": 2}
        (_, _, adversarial), (attempt, cfg, inst) = checks.regenerate(op)
        self.assertIsNone(adversarial)
        cfg = default_config("1.4", 9, "adversarial")
        want = gen_thm_hypothesis_instance(cfg.rng(attempt), cfg, "1.4")
        self.assertEqual((inst.positive, inst.f), (want.positive, want.f))

    def test_injective_tables(self):
        self.assertEqual(checks.check_injective_tables({(0, 0, 1): (0, 2, 1)}), [])
        self.assertTrue(checks.check_injective_tables({(0, 0, 1): (0, 2, 2)}))

    def test_bar_s_collides_and_sphere_does_not(self):
        from latchcheck.spectra import bar_s, sphere_spectrum

        self.assertEqual(checks.check_some_table_collides(
            checks.latching_nu_tables(bar_s(3, 2)), "bar-s"), [])
        self.assertTrue(checks.check_some_table_collides(
            checks.latching_nu_tables(sphere_spectrum(3, 2)), "sphere"))

    def test_additive(self):
        y = {(0, 1, 0): 5, (0, 1, 1): 7}
        x = {(0, 1, 0): 3, (0, 1, 1): 4}
        z = {(0, 1, 0): 3, (0, 1, 1): 4}
        self.assertEqual(checks.check_additive(y, x, z), [])
        self.assertTrue(checks.check_additive(y, x, {(0, 1, 0): 3, (0, 1, 1): 5}))
        self.assertTrue(checks.check_additive(y, x, {(0, 1, 0): 3}))

    def test_unit_sizes(self):
        from latchcheck.spectra import bar_s, smash_over_s, sphere_spectrum

        s = sphere_spectrum(2, 2)
        x = bar_s(2, 2)
        got = checks.level_sizes(smash_over_s(s, x, 2).obj)
        self.assertEqual(checks.check_equal(got, checks.level_sizes(x.levels[2]), "unit"), [])
        self.assertTrue(checks.check_equal(got, checks.level_sizes(x.levels[1]), "unit"))

    def test_degenerate_count(self):
        from latchcheck.generators import gen_sset
        from latchcheck.reedy import SetsAmbient, simplicial_latching, view_of_sset
        import random

        s = gen_sset(random.Random(3), 3, max_base=3, max_new=2)
        for n in range(1, 4):
            tables = [m.table for m in s.degens[n - 1]]
            latch = simplicial_latching(view_of_sset(s), n, SetsAmbient())
            self.assertEqual(latch.obj.size, checks.degenerate_count(s.levels[n].size, tables))
        # a degeneracy forced onto an extra simplex changes the count
        self.assertEqual(checks.degenerate_count(4, [(0, 1), (0, 2)]), 3)
        self.assertEqual(checks.degenerate_count(4, [(0, 1), (0, 1)]), 2)
        with self.assertRaises(ValueError):
            checks.degenerate_count(2, [(0, 3)])

    def test_mono_cospan_closed_form(self):
        from latchcheck.generators import all_mono_cospans

        self.assertEqual(checks.mono_cospan_count(4), 286)
        self.assertEqual(checks.mono_cospan_count(3), sum(1 for _ in all_mono_cospans(3)))
        self.assertTrue(checks.check_equal(285, checks.mono_cospan_count(4), "cospans"))

    def test_realize_cofiber_interchange(self):
        from latchcheck.builtins_corpus import builtin
        from latchcheck.reedy import pointwise_cofiber, realize, realize_map
        from latchcheck.spectra import pushout_spectra, spectrum_zero_map, zero_spectrum

        f = builtin("thm14-demo")
        z, _ = pointwise_cofiber(f)
        rf = realize_map(f)
        cofiber = pushout_spectra(rf, spectrum_zero_map(
            rf.dom, zero_spectrum(rf.dom.strunc, rf.dom.dtrunc))).obj
        self.assertEqual(checks.check_equal(realize(z) == cofiber, True, "interchange"), [])
        self.assertTrue(checks.check_equal(realize(f.cod) == cofiber, True, "interchange"))
        tables = checks.spectrum_map_tables(rf)
        self.assertEqual(checks.check_injective_tables(tables), [])
        loc = next(k for k, t in tables.items() if len(t) > 2)
        tables[loc] = (0,) + (1,) * (len(tables[loc]) - 1)
        self.assertTrue(checks.check_injective_tables(tables))


class CliChecks(unittest.TestCase):
    def test_exit_codes(self):
        self.assertEqual(checks.check_exit_codes([("a", 0, 0), ("b", 2, 2)]), [])
        self.assertTrue(checks.check_exit_codes([("a", 0, 0), ("b", 2, 1)]))

    def test_witness_collides(self):
        report = json.dumps({"report": {"witness": {
            "location": [["spectral_level", 2], ["dim", 1]], "pair": [3, 4]}}})
        latch = json.dumps({"components": [[0], [0, 1, 2, 5, 5]]})
        self.assertEqual(checks.check_witness_collides(report, latch), [])
        apart = json.dumps({"components": [[0], [0, 1, 2, 5, 6]]})
        self.assertTrue(checks.check_witness_collides(report, apart))
        no_witness = json.dumps({"report": {"witness": None}})
        self.assertTrue(checks.check_witness_collides(no_witness, latch))

    def test_same_payload_and_fixed_point(self):
        from latchcheck.documents import dumps, loads, to_document
        from latchcheck.spectra import sphere_spectrum

        sphere = sphere_spectrum(3, 3)
        text = dumps(sphere, name="realization")
        self.assertEqual(checks.check_same_payload(text, to_document(sphere), "S"), [])
        altered = json.loads(text)
        altered["sigma"][0][1][1] = 0
        self.assertTrue(checks.check_same_payload(json.dumps(altered), to_document(sphere), "S"))
        reserialized = dumps(loads(text), name="realization")
        self.assertEqual(checks.check_equal(reserialized, text, "doc"), [])
        self.assertTrue(checks.check_equal(reserialized, text.replace(",", ", ", 1), "doc"))

    def test_repeated_invocation(self):
        self.assertEqual(checks.check_equal((0, "x", None), (0, "x", None), "c"), [])
        self.assertTrue(checks.check_equal((0, "x", None), (0, "y", None), "c"))

    def test_hostile_documents_are_validated_and_must_exit_2(self):
        hostile = [c for c in workloads.cli_script() if c.hostile]
        self.assertEqual([c.argv[1] for c in hostile], list(workloads.hostile_documents()))
        self.assertTrue(all(c.argv[0] == "validate" and c.expect == 2 for c in hostile))


class TracerTests(unittest.TestCase):
    def test_wraps_every_alias_and_restores_them(self):
        import latchcheck.pointed as pointed
        import latchcheck.reedy as reedy
        from latchcheck.pointed import PointedSet, identity

        original = pointed.compose
        t = tracer.Tracer()
        self.assertEqual(t.install(), [])
        try:
            self.assertIsNot(reedy.compose, original)
            self.assertIs(reedy.compose, pointed.compose)
            a = PointedSet(3)
            reedy.compose(identity(a), identity(a))
            pointed.compose(identity(a), identity(a))
        finally:
            t.uninstall()
        self.assertIs(reedy.compose, original)
        m = t.metrics()
        self.assertEqual(m["pointed.compose.calls"], 2)
        self.assertGreaterEqual(m["pointed.maps_built"], 4)
        self.assertGreater(len(t.span_start), 0)

    def test_self_time_excludes_children(self):
        t = tracer.Tracer()
        inner = t.wrap("inner", lambda: sum(range(20000)))
        outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
        outer()
        total = t.span_end[0] - t.span_start[0]
        self.assertEqual(t.calls["inner"], 3)
        self.assertAlmostEqual(t.self_s["outer"] + t.self_s["inner"], total, places=6)
        self.assertEqual(list(t.span_parent), [-1, 0, 0, 0])

    def test_missing_function_is_absent(self):
        saved = tracer.LAYERS
        tracer.LAYERS = dict(saved, pointed=saved["pointed"] + ("no_such_function",))
        t = tracer.Tracer()
        try:
            self.assertIn("pointed.no_such_function", t.install())
        finally:
            t.uninstall()
            tracer.LAYERS = saved
        self.assertNotIn("pointed.no_such_function.calls", t.metrics())


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         tracer.per_layer_metrics())
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         ["setup_s", "run_s", "peak_rss_mb", "cmd_p50_s"])

    def test_refuses_to_run_without_the_sources(self):
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=""))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
