"""Fuzz of the CLI exit-code contract over mutated documents.

One table entry of a small valid document is set to a value in
[-1, max + 1], where max is the largest entry of that table; the
mutated document then goes through `validate` and three computing
commands, in process.  Every command must exit 0, 1 or 2 without an
exception, and a document that `validate` does not accept must be
malformed input (exit 2) for every computing command.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from latchcheck.cli import main
from latchcheck.documents import canonical_json, to_document
from latchcheck.generators import gen_sset
from latchcheck.spectra import sphere_spectrum

DOCUMENTS = {
    "sphere": (to_document(sphere_spectrum(2, 2), name="sphere"), ("--spectral", "2")),
    "sset": (to_document(gen_sset(random.Random(3), 2), name="sset"), ("--simplicial", "2")),
}


def _table_entries(node, out: list) -> list:
    """(table, index) for every entry of every integer table in a document."""
    if isinstance(node, dict):
        for value in node.values():
            _table_entries(value, out)
    elif isinstance(node, list):
        if node and all(isinstance(v, int) and not isinstance(v, bool) for v in node):
            out.extend((node, i) for i in range(len(node)))
        else:
            for value in node:
                _table_entries(value, out)
    return out


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="document")
    original, latch_args = DOCUMENTS[name]
    doc = json.loads(json.dumps(original))
    entries = _table_entries(doc, [])
    table, i = entries[data.draw(st.integers(0, len(entries) - 1), label="entry")]
    table[i] = data.draw(st.integers(-1, max(table) + 1), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
        validated = _run("validate", path)
        computed = {
            "check levelwise": _run("check", path, "levelwise"),
            "check flat": _run("check", path, "flat"),
            "latch": _run("latch", path, *latch_args),
        }
    assert validated in (0, 1, 2)
    assert all(code in (0, 1, 2) for code in computed.values()), computed
    if validated != 0:
        assert all(code == 2 for code in computed.values()), (validated, computed)
