"""Verdicts and witnesses shared by every checker in the package.

A failed monomorphism check always carries a witness: a located pair of
distinct elements with equal image.  Witnesses are deterministic (least
pair, non-basepoint pairs preferred) so reports are reproducible, and
they carry enough location data to be replayed against a fresh run.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Witness:
    """Located counterexample to an injectivity/isomorphism claim.

    location is an ordered tuple of (axis, index) pairs, outermost axis
    first, e.g. (("spectral_level", 2), ("dim", 1)).  pair holds the two
    colliding domain indices for mono failures; for non-surjectivity the
    pair is (missed_index, missed_index).
    """

    location: tuple[tuple[str, int], ...]
    pair: tuple[int, int]
    provenance: str = ""

    def locate(self, axis: str) -> int | None:
        for name, value in self.location:
            if name == axis:
                return value
        return None

    def to_json(self) -> dict:
        return {
            "location": [[name, value] for name, value in self.location],
            "pair": list(self.pair),
            "provenance": self.provenance,
        }

    @staticmethod
    def from_json(data: dict) -> "Witness":
        """The witness to_json wrote; ValueError on anything else.  Indices
        are non-negative ints, never bools, and the pair has exactly two."""
        def index(v) -> bool:
            return type(v) is int and v >= 0

        loc, pair, provenance = data.get("location"), data.get("pair"), data.get("provenance", "")
        if not (isinstance(loc, list) and all(isinstance(e, list) and len(e) == 2
                                              and isinstance(e[0], str) and index(e[1]) for e in loc)
                and isinstance(pair, list) and len(pair) == 2 and all(map(index, pair))
                and isinstance(provenance, str)):
            raise ValueError("a witness needs a location of [axis, index] pairs, a pair of "
                             "two non-negative integers and a string provenance")
        return Witness(tuple(map(tuple, loc)), tuple(pair), provenance)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a named check, with a witness when it fails.

    failure_kind distinguishes which clause failed, e.g. "mono" for a
    latching/levelwise injectivity failure versus "level0-iso" for the
    positivity clause.  Verdicts are always truncation-qualified by the
    caller; the report only records what was actually checked.
    """

    prop: str
    passed: bool
    witness: Witness | None = None
    failure_kind: str = ""
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "passed": self.passed,
            "witness": self.witness.to_json() if self.witness else None,
            "failure_kind": self.failure_kind,
            "detail": self.detail,
        }


def passed(prop: str, detail: str = "") -> CheckReport:
    return CheckReport(prop=prop, passed=True, detail=detail)


def failed(prop: str, witness: Witness | None, kind: str, detail: str = "") -> CheckReport:
    return CheckReport(prop=prop, passed=False, witness=witness, failure_kind=kind, detail=detail)
