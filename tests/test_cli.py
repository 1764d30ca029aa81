"""CLI surface: exit codes, witnesses, replay, constructions, output
determinism."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from latchcheck.cli import main
from latchcheck.documents import canonical_json, dumps, loads, to_document
from latchcheck.simplicial import circle
from latchcheck.spectra import bar_s, sphere_spectrum


def run_cli(*argv, expect: int):
    proc = subprocess.run(
        [sys.executable, "-m", "latchcheck.cli", *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def run_inproc(*argv, capsys=None):
    return main(list(argv))


class TestValidate:
    def test_builtin_bar_validates(self):
        proc = run_cli("validate", "--builtin", "bar-s", expect=0)
        assert "PASS" in proc.stdout

    def test_missing_file_is_input_error(self):
        run_cli("validate", "no-such-file.json", expect=2)

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        proc = run_cli("validate", str(path), expect=2)
        assert "line" in proc.stderr

    def test_broken_identity_is_invariant_failure(self, tmp_path):
        doc = to_document(circle(2), name="broken")
        # swap the two degeneracies out of dimension 1 to break an identity
        doc["degens"][1] = [doc["degens"][1][1], doc["degens"][1][0]]
        path = tmp_path / "broken.json"
        path.write_text(canonical_json(doc))
        proc = run_cli("validate", str(path), "--format", "json", expect=1)
        report = json.loads(proc.stdout)["report"]
        assert not report["passed"]
        loc = dict(tuple(x) for x in report["witness"]["location"])
        assert {"k", "i", "j"} <= set(loc)


def _tiny_sset_doc(name):
    return {"kind": "sset", "name": name, "trunc": 1,
            "levels": [{"size": 2, "labels": None}, {"size": 2, "labels": None}],
            "faces": [[], [[0, 1], [0, 1]]], "degens": [[[0, 1]], []]}


def _hostile_faces():
    doc = _tiny_sset_doc("faces")
    doc["faces"] = 5
    return doc


def _hostile_fraction():
    doc = _tiny_sset_doc("fraction")
    doc["degens"] = [[[0, 1.7]], []]
    return doc


class TestHostileDocuments:
    """Malformed documents exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("doc, needle", [
        (_hostile_faces(), "faces"),
        (_hostile_fraction(), "integers"),
        ({"kind": "pointed-set", "name": "labels", "size": 3, "labels": "abc"}, "labels"),
        ({"kind": "pointed-set", "name": "size", "size": 1e9, "labels": None}, "size"),
        ({"kind": "pointed-set", "name": "bool", "size": True, "labels": None}, "size"),
    ], ids=["faces-not-a-list", "fractional-table-entry", "labels-string",
            "float-size", "bool-size"])
    def test_validate_rejects_with_input_error(self, tmp_path, doc, needle):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("validate", str(path), expect=2)
        assert proc.stderr.startswith("error:") and needle in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_valid_tiny_document_still_passes(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(_tiny_sset_doc("tiny")))
        run_cli("validate", str(path), expect=0)

    @pytest.mark.parametrize("argv", [
        ("latch", "--spectral", "2"),
        ("check", "flat"),
        ("check", "positive-flat"),
        ("check", "levelwise"),
        ("latch", "--spectral", "1"),
    ], ids=["latch", "check-flat", "check-positive-flat", "check-levelwise", "latch-level-1"])
    def test_spectrum_breaking_its_axioms_is_input_error(self, tmp_path, argv):
        # well-formed tables, but the level-2 action is the identity, so the
        # structure maps are not equivariant; every computing command
        # validates the document first, even where its computation would
        # not fail
        path = tmp_path / "trivial-action.json"
        path.write_text(canonical_json(_trivial_level2_action_doc()))
        run_cli("validate", str(path), expect=1)
        proc = run_cli(argv[0], str(path), *argv[1:], expect=2)
        assert proc.stderr.startswith("error:") and "equivariance" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_mismatch_on_valid_input_is_not_blamed_on_the_input(self, tmp_path, monkeypatch):
        import latchcheck.cli as cli
        from latchcheck.pointed import MismatchError

        def broken(x, n):
            raise MismatchError("internal fault")

        monkeypatch.setattr(cli, "spectral_latching", broken)
        path = tmp_path / "sphere.json"
        path.write_text(canonical_json(to_document(sphere_spectrum(2, 2), name="sphere")))
        for target in ((str(path),), ("--builtin", "sphere")):
            with pytest.raises(MismatchError):
                main(["latch", *target, "--spectral", "2"])


def _trivial_level2_action_doc():
    doc = to_document(sphere_spectrum(2, 2), name="trivial-action")
    doc["actions"][2] = [[list(range(len(t))) for t in g] for g in doc["actions"][2]]
    return doc


class TestCheck:
    def test_bar_flat_fails_with_witness_at_level_2(self):
        proc = run_cli("check", "--builtin", "bar-s", "flat", "--format", "json", expect=1)
        report = json.loads(proc.stdout)["report"]
        loc = dict(tuple(x) for x in report["witness"]["location"])
        assert loc["spectral_level"] == 2

    def test_sphere_flat_passes(self):
        run_cli("check", "--builtin", "sphere", "flat", expect=0)

    def test_sphere_positive_flat_fails_on_level0_clause(self):
        proc = run_cli("check", "--builtin", "sphere", "positive-flat",
                       "--format", "json", expect=1)
        report = json.loads(proc.stdout)["report"]
        assert report["failure_kind"] == "level0-iso"

    def test_kind_mismatch_is_input_error(self):
        run_cli("check", "--builtin", "bar-s", "good", expect=2)

    def test_replay_reproduces_bar_witness(self, tmp_path):
        proc = run_cli("check", "--builtin", "bar-s", "flat", "--format", "json", expect=1)
        witness_file = tmp_path / "witness.json"
        witness_file.write_text(proc.stdout)
        proc2 = run_cli("check", "--builtin", "bar-s", "flat",
                        "--replay", str(witness_file), expect=0)
        assert "REPLAYED" in proc2.stdout

    def test_replay_rejects_stale_witness(self, tmp_path):
        proc = run_cli("check", "--builtin", "bar-s", "flat", "--format", "json", expect=1)
        data = json.loads(proc.stdout)
        data["report"]["witness"]["pair"] = [5, 6]
        data["report"]["witness"]["location"] = [["spectral_level", 3], ["dim", 4]]
        witness_file = tmp_path / "witness.json"
        witness_file.write_text(json.dumps(data))
        run_cli("check", "--builtin", "bar-s", "flat",
                "--replay", str(witness_file), expect=1)

    # the witness bar-s flat reports, at spectral level 2 and dim 1
    _WITNESS = {"location": [["spectral_level", 2], ["dim", 1]], "pair": [1, 2],
                "provenance": ""}

    @pytest.mark.parametrize("report", [
        5,
        {"witness": 3},
        {"witness": dict(_WITNESS, location=1)},
        {"witness": dict(_WITNESS, location=[["spectral_level", 2], ["dim", "x"]])},
        {"witness": dict(_WITNESS, location=[["spectral_level", 2, 0]])},
        {"witness": dict(_WITNESS, pair=[1])},
        {"witness": dict(_WITNESS, pair=[1, 2, 3])},
        {"witness": dict(_WITNESS, pair=[-1, -2])},
        {"witness": dict(_WITNESS, pair=[True, 2])},
        {"witness": dict(_WITNESS, provenance=7)},
    ], ids=["report-int", "witness-int", "location-int", "index-string", "location-triple",
            "pair-short", "pair-long", "pair-negative", "pair-bool", "provenance-int"])
    def test_replay_of_malformed_witness_is_input_error(self, tmp_path, report):
        witness_file = tmp_path / "witness.json"
        witness_file.write_text(json.dumps({"report": report}))
        proc = run_cli("check", "--builtin", "bar-s", "flat",
                       "--replay", str(witness_file), expect=2)
        assert "Traceback" not in proc.stderr

    def test_replay_of_index_outside_the_map_is_not_reproduced(self, tmp_path):
        # a pair (i, i) cites i as missed by the map; an i past its codomain is no such element
        witness_file = tmp_path / "witness.json"
        witness_file.write_text(json.dumps({"report": {"witness": dict(self._WITNESS, pair=[99, 99])}}))
        proc = run_cli("check", "--builtin", "bar-s", "flat",
                       "--replay", str(witness_file), expect=1)
        assert "NOT REPRODUCED" in proc.stdout


class TestConstructions:
    def test_latch_simplicial_0_outputs_zero_object(self, tmp_path):
        doc = to_document(circle(3), name="circle")
        src = tmp_path / "circle.json"
        src.write_text(canonical_json(doc))
        out = tmp_path / "latch.json"
        run_cli("latch", str(src), "--simplicial", "0", "-o", str(out), expect=0)
        result = json.loads(out.read_text())
        assert result["kind"] == "pointed-map"
        assert result["dom"]["size"] == 1

    def test_latch_out_of_range_is_input_error(self, tmp_path):
        doc = to_document(circle(2), name="circle")
        src = tmp_path / "circle.json"
        src.write_text(canonical_json(doc))
        run_cli("latch", str(src), "--simplicial", "9", expect=2)

    def test_spectral_latch_of_bar(self, tmp_path):
        out = tmp_path / "latch.json"
        run_cli("latch", "--builtin", "bar-s", "--spectral", "2", "-o", str(out), expect=0)
        result = json.loads(out.read_text())
        assert result["kind"] == "sset-map"

    def test_simplicial_latch_of_simplicial_spectrum(self, tmp_path):
        out = tmp_path / "latch.json"
        run_cli("latch", "--builtin", "constant-sphere", "--simplicial", "2",
                "-o", str(out), expect=0)
        result = json.loads(out.read_text())
        assert result["kind"] == "spectrum-map"

    def test_realize_constant_is_the_value(self, tmp_path):
        out = tmp_path / "realized.json"
        run_cli("realize", "--builtin", "constant-sphere", "-o", str(out), expect=0)
        realized = loads(out.read_text())
        assert realized.levels == sphere_spectrum(3, 3).levels

    def test_cofiber_of_thm14_demo(self, tmp_path):
        out = tmp_path / "cofiber.json"
        run_cli("cofiber", "--builtin", "thm14-demo", "-o", str(out), expect=0)
        result = json.loads(out.read_text())
        assert result["kind"] == "simplicial-spectrum-map"

    def test_cofiber_needs_a_map_document(self):
        run_cli("cofiber", "--builtin", "bar-s", expect=2)


class TestDeterminism:
    def test_check_json_output_is_byte_identical(self):
        a = run_cli("check", "--builtin", "bar-s", "flat", "--format", "json", expect=1)
        b = run_cli("check", "--builtin", "bar-s", "flat", "--format", "json", expect=1)
        assert a.stdout == b.stdout

    def test_selftest_json_is_byte_identical(self):
        args = ("selftest", "--suite", "lemmas", "--seed", "3", "--cases", "3",
                "--format", "json")
        a = run_cli(*args, expect=0)
        b = run_cli(*args, expect=0)
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout)
        assert payload["suites"][0]["passed"]


class TestSelftest:
    def test_tiny_theorem_suite_runs(self):
        proc = run_cli("selftest", "--suite", "3.2", "--seed", "2", "--cases", "2", expect=0)
        assert "2/2 passed" in proc.stdout

    @pytest.mark.parametrize("suite,cases", [("1.4", "-2"), ("4.2", "-3"), ("lemmas", "-1")])
    def test_negative_case_count_is_input_error(self, suite, cases):
        proc = run_cli("selftest", "--suite", suite, "--cases", cases, expect=2)
        assert "nonnegative" in proc.stderr and "passed" not in proc.stdout

    def test_descriptive_alias_accepted(self):
        run_cli("selftest", "--suite", "good-reedy-flat", "--seed", "2", "--cases", "1", expect=0)

    def test_adversarial_cases_are_discarded_not_evaluated(self):
        proc = run_cli("selftest", "--suite", "3.2", "--seed", "2", "--cases", "3",
                       "--strategy", "adversarial", "--format", "json", expect=0)
        data = json.loads(proc.stdout)
        suite = data["suites"][0]
        assert suite["discards"] >= 1
        assert suite["passes"] == 3
