"""Document serialization: round trips, canonical bytes, error paths."""
from __future__ import annotations

import json

import pytest

from latchcheck.builtins_corpus import builtin
from latchcheck.documents import (
    DocumentError,
    canonical_json,
    dumps,
    loads,
    parse_document,
    to_document,
)
from latchcheck.pointed import PointedMap, PointedSet
from latchcheck.reedy import constant_simplicial_spectrum
from latchcheck.simplicial import circle, sphere, sset_identity
from latchcheck.spectra import bar_s, bar_to_sphere, sphere_spectrum, zero_spectrum


ROUND_TRIP_CASES = [
    PointedSet(3, labels=("*", "a", "b")),
    PointedMap(PointedSet(2), PointedSet(3), (0, 2)),
    circle(3),
    sset_identity(sphere(1, 2)),
    bar_s(2, 2),
    bar_to_sphere(2, 2),
    constant_simplicial_spectrum(sphere_spectrum(1, 1), 1),
]


class TestRoundTrip:
    @pytest.mark.parametrize("obj", ROUND_TRIP_CASES, ids=lambda o: type(o).__name__)
    def test_parse_inverts_serialize(self, obj):
        text = dumps(obj, name="case")
        back = loads(text)
        assert back == obj

    @pytest.mark.parametrize("obj", ROUND_TRIP_CASES, ids=lambda o: type(o).__name__)
    def test_serialization_is_canonical_fixed_point(self, obj):
        text = dumps(obj, name="case")
        again = dumps(loads(text), name="case")
        assert text == again

    def test_builtin_documents_are_byte_stable(self):
        a = dumps(builtin("bar-s"), name="bar-s")
        b = dumps(builtin("bar-s"), name="bar-s")
        assert a == b

    def test_keys_are_sorted_and_nothing_is_omitted(self):
        doc = to_document(PointedSet(2), name="x")
        text = canonical_json(doc)
        data = json.loads(text)
        assert list(data.keys()) == sorted(data.keys())
        assert "labels" in data  # null labels still serialized


class TestRefs:
    def test_named_reference_resolves(self):
        payload = {
            "kind": "pointed-map",
            "name": "f",
            "defs": {"two": {"size": 2, "labels": None}},
            "dom": {"ref": "two"},
            "cod": {"size": 3, "labels": None},
            "table": [0, 2],
        }
        f = parse_document(payload)
        assert f.dom.size == 2 and f.cod.size == 3

    def test_unresolved_reference_is_an_error(self):
        payload = {"kind": "pointed-set", "name": "x", "ref": "nowhere"}
        with pytest.raises(DocumentError):
            parse_document({"kind": "pointed-map", "name": "f",
                            "dom": {"ref": "nowhere"}, "cod": {"size": 1, "labels": None},
                            "table": [0]})


class TestErrors:
    def test_bad_json_reports_position(self):
        with pytest.raises(DocumentError) as err:
            loads("{not json")
        assert "line" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            parse_document({"kind": "mystery"})

    def test_basepoint_violation_caught(self):
        with pytest.raises(DocumentError):
            parse_document({"kind": "pointed-map", "name": "",
                            "dom": {"size": 2, "labels": None},
                            "cod": {"size": 2, "labels": None},
                            "table": [1, 0]})

    def test_operator_shape_mismatch_caught(self):
        doc = to_document(circle(2), name="c")
        doc["faces"] = doc["faces"][:-1]
        with pytest.raises(DocumentError):
            parse_document(doc)

    def test_spectrum_truncation_checked_before_any_circle_is_built(self, monkeypatch):
        # each sigma's domain is circle(D) smashed with a level, and circle(D)
        # is quadratic in D and memoized for good, so D is checked against
        # the levels first
        import latchcheck.documents as documents

        real_circle = documents.circle

        def guarded(n):
            if n > 50:
                raise AssertionError(f"circle({n}) was built")
            return real_circle(n)

        monkeypatch.setattr(documents, "circle", guarded)
        doc = to_document(sphere_spectrum(1, 1), name="huge-d")
        assert len(doc["sigma"]) == 1
        doc["trunc"]["D"] = 10**6
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert "D=1000000" in str(err.value)

    def test_spectrum_beyond_the_sphere_cell_budget_is_refused(self):
        # validating a spectrum builds sphere(p, D), with k**p cells in
        # dimension k, for every p <= N; N=30, D=4 would ask for about
        # 10**18 cells, so the parser refuses the document up front
        with pytest.raises(DocumentError) as err:
            loads(dumps(zero_spectrum(30, 4), name="deep"))
        assert "N=30, D=4" in str(err.value)

    def test_sphere_cell_budget_keeps_headroom_over_the_builtins(self):
        # bar-s, the largest builtin spectrum (N=3, D=4), needs 130 cells
        import latchcheck.documents as documents

        assert documents.sphere_cells(3, 4) == 130
        assert documents.SPHERE_CELL_BUDGET >= 10 * 130
        assert loads(dumps(zero_spectrum(7, 3))) == zero_spectrum(7, 3)
        with pytest.raises(DocumentError):
            loads(dumps(zero_spectrum(8, 3)))
