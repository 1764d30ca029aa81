"""Truncated finite pointed simplicial sets and bisimplicial sets.

A simplicial set here is a dimension-indexed family of pointed sets with
face and degeneracy tables.  Truncation is a hard contract: trunc is the
top retained dimension, every operation states the largest dimension at
which its output is meaningful, and nothing ever reads above it.

Colimits are computed dimensionwise by the pointed-set engine and
returned as the kernel's `CoconeResult`.  `lift_ssets` is the kernel's
one lifting (`pointed.lift`) over the dimension grid: given the pointed
wedge or coequalizer of each dimension, it induces every face and
degeneracy through the kernel's `pointed.induced`, which concatenates a
wedge's operator tables through the legs and chases each class's least
member through a quotient, raising when another member disagrees, so an
ill-defined induction never yields a table.  The pushout is the
kernel's `pushout_by` over the wedge and coequalizer.
`identity_failure` checks the simplicial identities of any simplicial
object, given its composition and equality; the simplicial-set,
bisimplicial and simplicial-spectrum validators all call it.  In the
same way `commutation_failure` checks that a map commutes with the
operators of its ends, for simplicial-set, spectrum and
simplicial-spectrum maps.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from . import pointed
from .pointed import (
    CoconeResult,
    MismatchError,
    PointedMap,
    PointedSet,
    compose,
    identity,
    mono_witness,
    stored_hash,
    zero_map,
)
from .reports import CheckReport, Witness, failed, passed


class TruncationError(ValueError):
    """An index exceeded the stated truncation of its object."""


@dataclass(frozen=True)
class SimplicialSet:
    trunc: int
    levels: tuple[PointedSet, ...]
    faces: tuple[tuple[PointedMap, ...], ...]
    degens: tuple[tuple[PointedMap, ...], ...]
    _h: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        h = self._h
        if h is None:
            h = stored_hash(self, (self.trunc, self.levels, self.faces, self.degens))
        return h

    def __post_init__(self) -> None:
        d = self.trunc
        if d < 0:
            raise ValueError("truncation must be nonnegative")
        if len(self.levels) != d + 1:
            raise ValueError("levels must cover dimensions 0..trunc")
        if len(self.faces) != d + 1 or len(self.degens) != d + 1:
            raise ValueError("operator families must cover dimensions 0..trunc")
        if self.faces[0] != ():
            raise ValueError("dimension 0 has no faces")
        if self.degens[d] != ():
            raise ValueError("no degeneracies out of the top dimension")
        for k in range(1, d + 1):
            if len(self.faces[k]) != k + 1:
                raise ValueError(f"level {k} needs {k + 1} faces")
            for m in self.faces[k]:
                if m.dom != self.levels[k] or m.cod != self.levels[k - 1]:
                    raise ValueError(f"face at level {k} has wrong endpoints")
        for k in range(d):
            if len(self.degens[k]) != k + 1:
                raise ValueError(f"level {k} needs {k + 1} degeneracies")
            for m in self.degens[k]:
                if m.dom != self.levels[k] or m.cod != self.levels[k + 1]:
                    raise ValueError(f"degeneracy at level {k} has wrong endpoints")


@dataclass(frozen=True)
class SimplicialMap:
    dom: SimplicialSet
    cod: SimplicialSet
    components: tuple[PointedMap, ...]
    _h: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        h = self._h
        if h is None:
            h = stored_hash(self, (self.dom, self.cod, self.components))
        return h

    def __post_init__(self) -> None:
        if self.dom.trunc != self.cod.trunc:
            raise MismatchError("simplicial map endpoints must share truncation")
        if len(self.components) != self.dom.trunc + 1:
            raise MismatchError("one component per dimension required")
        for k, m in enumerate(self.components):
            if m.dom != self.dom.levels[k] or m.cod != self.cod.levels[k]:
                raise MismatchError(f"component {k} has wrong endpoints")


def sset_identity(a: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(a, a, tuple(identity(p) for p in a.levels))


def sset_zero_map(a: SimplicialSet, b: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(a, b, tuple(zero_map(p, q) for p, q in zip(a.levels, b.levels)))


def compose_sset_maps(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    if f.cod != g.dom:
        raise MismatchError("compose: f.cod != g.dom")
    return SimplicialMap(f.dom, g.cod, tuple(compose(a, b) for a, b in zip(f.components, g.components)))


def sset_maps_equal(f: SimplicialMap, g: SimplicialMap) -> bool:
    return f.components == g.components and f.dom == g.dom and f.cod == g.cod


def operator_rows(top: int, face_for: Callable[[int, int], object],
                  degen_for: Callable[[int, int], object]) -> tuple[tuple, tuple]:
    """Face and degeneracy rows of a simplicial object up to degree top."""
    faces = ((),) + tuple(tuple(face_for(k, i) for i in range(k + 1)) for k in range(1, top + 1))
    degens = tuple(tuple(degen_for(k, i) for i in range(k + 1)) for k in range(top)) + ((),)
    return faces, degens


def identity_failure(top: int, faces, degens, comp: Callable, eq: Callable,
                     ident: Callable[[int], object]):
    """First simplicial identity that fails up to degree top, or None.

    Works for any simplicial object whose operators compose with comp
    and compare with eq; ident(k) is the identity at degree k.  A
    failure is returned as (family, k, i, j, lhs, rhs), the families
    checked in the order face-face, degeneracy-degeneracy,
    face-degeneracy.
    """
    for k in range(2, top + 1):
        for j in range(k + 1):
            for i in range(j):
                lhs = comp(faces[k][j], faces[k - 1][i])
                rhs = comp(faces[k][i], faces[k - 1][j - 1])
                if not eq(lhs, rhs):
                    return ("face-face", k, i, j, lhs, rhs)
    for k in range(top - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                lhs = comp(degens[k][j], degens[k + 1][i])
                rhs = comp(degens[k][i], degens[k + 1][j + 1])
                if not eq(lhs, rhs):
                    return ("degeneracy-degeneracy", k, i, j, lhs, rhs)
    for k in range(top):
        for j in range(k + 1):
            for i in range(k + 2):
                lhs = comp(degens[k][j], faces[k + 1][i])
                if i in (j, j + 1):
                    rhs = ident(k)
                elif i < j:
                    rhs = comp(faces[k][i], degens[k - 1][j - 1])
                else:
                    rhs = comp(faces[k][i - 1], degens[k - 1][j])
                if not eq(lhs, rhs):
                    return ("face-degeneracy", k, i, j, lhs, rhs)
    return None


def validate_sset(s: SimplicialSet) -> CheckReport:
    """Check every simplicial identity that fits inside the truncation.

    Failure names the identity family, the indices (k, i, j) and the
    least element where the two composites differ.
    """
    prop = "simplicial-identities"
    bad = identity_failure(s.trunc, s.faces, s.degens, compose, operator.eq,
                           lambda k: identity(s.levels[k]))
    if bad is None:
        return passed(prop, detail=f"all identities hold up to dimension {s.trunc}")
    kind, k, i, j, lhs, rhs = bad
    elt = next(e for e in range(lhs.dom.size) if lhs.table[e] != rhs.table[e])
    w = Witness(
        location=(("k", k), ("i", i), ("j", j), ("element", elt)),
        pair=(lhs.table[elt], rhs.table[elt]),
        provenance=f"{kind} identity fails at (k,i,j)=({k},{i},{j}) on element {lhs.dom.label(elt)}",
    )
    return failed(prop, w, kind)


def commutation_failure(f, comp: Callable, eq: Callable, families: Sequence[tuple] = ()):
    """First operator that the components of the map f fail to commute
    with, or None.

    families lists (family, dom_ops, cod_ops, shift): dom_ops[k][i] and
    cod_ops[k][i] are operator i out of degree k of f's domain and
    codomain, landing in degree k + shift, and f commutes with it when
    comp(dom_op, component k + shift) equals comp(component k, cod_op)
    under eq.  By default they are the faces and degeneracies of f's
    ends.  A failure is returned as (family, k, i), the families checked
    in the order given.
    """
    families = families or (("face", f.dom.faces, f.cod.faces, -1),
                            ("degeneracy", f.dom.degens, f.cod.degens, 1))
    comps = f.components
    for family, dom_ops, cod_ops, shift in families:
        for k, row in enumerate(dom_ops):
            for i, op in enumerate(row):
                if not eq(comp(op, comps[k + shift]), comp(comps[k], cod_ops[k][i])):
                    return family, k, i
    return None


def validate_sset_map(f: SimplicialMap) -> CheckReport:
    prop = "simplicial-map"
    bad = commutation_failure(f, compose, operator.eq)
    if bad is None:
        return passed(prop)
    family, k, i = bad
    return failed(prop, None, f"{family}-commutation", f"component {k} vs {family} {i}")


def is_mono_ssetmap(f: SimplicialMap, prop: str = "levelwise-mono",
                    location: tuple[tuple[str, int], ...] = (),
                    describe: Callable[[int, int], str] | None = None) -> CheckReport:
    """Pass iff every component is injective; witness carries (dim, pair)."""
    for k, m in enumerate(f.components):
        pair = mono_witness(m)
        if pair is not None:
            if describe is not None:
                prov = f"{describe(k, pair[0])} and {describe(k, pair[1])} share image index {m.table[pair[0]]}"
            else:
                prov = (f"{m.dom.label(pair[0])} and {m.dom.label(pair[1])} "
                        f"share image {m.cod.label(m.table[pair[0]])}")
            w = Witness(location=location + (("dim", k),), pair=pair, provenance=prov)
            return failed(prop, w, "mono")
    return passed(prop)


def is_iso_ssetmap(f: SimplicialMap) -> bool:
    return all(pointed.is_iso(m) for m in f.components)


# ---------------------------------------------------------------------------
# basic constructions


def point_sset(trunc: int) -> SimplicialSet:
    return constant_sset(PointedSet(1, labels=("*",)), trunc)


def constant_sset(p: PointedSet, trunc: int) -> SimplicialSet:
    """The constant (discrete) simplicial set on a pointed set."""
    ident = identity(p)
    return SimplicialSet(trunc, (p,) * (trunc + 1),
                         *operator_rows(trunc, lambda k, i: ident, lambda k, i: ident))


def constant_sset_map(f: PointedMap, trunc: int) -> SimplicialMap:
    return SimplicialMap(constant_sset(f.dom, trunc), constant_sset(f.cod, trunc),
                         (f,) * (trunc + 1))


def _circle_label(k: int, a: int) -> str:
    return "0" * a + "1" * (k + 1 - a)


@lru_cache(maxsize=None)
def circle(trunc: int) -> SimplicialSet:
    """The simplicial circle: the interval with its endpoints collapsed.

    Nondegenerate cells: the basepoint and one 1-simplex.  At dimension
    k >= 1 the non-basepoint k-simplices are the nonconstant monotone
    0/1-strings of length k+1, indexed by their number of zeros.
    """
    levels = [PointedSet(1, labels=("*",))]
    for k in range(1, trunc + 1):
        levels.append(PointedSet(k + 1, labels=("*",) + tuple(_circle_label(k, a) for a in range(1, k + 1))))
    faces: list[tuple[PointedMap, ...]] = [()]
    degens: list[tuple[PointedMap, ...]] = []
    for k in range(1, trunc + 1):
        row = []
        for i in range(k + 1):
            table = [0]
            for a in range(1, k + 1):
                b = a - 1 if i < a else a
                table.append(0 if b == 0 or b == k else b)
            row.append(PointedMap(levels[k], levels[k - 1], tuple(table)))
        faces.append(tuple(row))
    for k in range(trunc):
        row = []
        for i in range(k + 1):
            table = [0]
            for a in range(1, k + 1):
                table.append(a + 1 if i < a else a)
            row.append(PointedMap(levels[k], levels[k + 1], tuple(table)))
        degens.append(tuple(row))
    degens.append(())
    return SimplicialSet(trunc=trunc, levels=tuple(levels), faces=tuple(faces), degens=tuple(degens))


def _sphere_codec(n: int, k: int):
    """encode/decode between circle-index tuples (entries 1..k) and
    non-basepoint sphere(n) indices at dimension k."""

    def encode(tup: Sequence[int]) -> int:
        idx = 0
        for a in tup:
            if a == 0:
                return 0
            idx = idx * k + (a - 1)
        return idx + 1

    def decode(idx: int) -> tuple[int, ...]:
        idx -= 1
        out = []
        for _ in range(n):
            idx, r = divmod(idx, k)
            out.append(r + 1)
        out.reverse()
        # idx was consumed most-significant first during encode
        return tuple(out)

    return encode, decode


@lru_cache(maxsize=None)
def sphere(n: int, trunc: int) -> SimplicialSet:
    """n-fold smash power of the circle (sphere(0) is the constant
    two-point simplicial set).

    At dimension k >= 1 the non-basepoint cells are tuples of k-simplices
    of the circle, one per smash factor, encoded most-significant factor
    first; any basepoint coordinate collapses the whole tuple.
    """
    if n < 0:
        raise ValueError("sphere needs n >= 0")
    if n == 0:
        return constant_sset(PointedSet(2, labels=("*", "e")), trunc)
    circ = circle(trunc)
    levels = [PointedSet(1, labels=("*",))]
    for k in range(1, trunc + 1):
        encode, decode = _sphere_codec(n, k)
        labels = ["*"]
        for idx in range(1, k**n + 1):
            labels.append("∧".join(_circle_label(k, a) for a in decode(idx)))
        levels.append(PointedSet(k**n + 1, labels=tuple(labels)))
    faces: list[tuple[PointedMap, ...]] = [()]
    for k in range(1, trunc + 1):
        encode_lo, _ = _sphere_codec(n, k - 1) if k > 1 else (lambda t: 0, None)
        _, decode = _sphere_codec(n, k)
        row = []
        for i in range(k + 1):
            ftab = circ.faces[k][i].table
            table = [0] + [
                encode_lo([ftab[a] for a in decode(idx)]) if k > 1 else 0
                for idx in range(1, k**n + 1)
            ]
            row.append(PointedMap(levels[k], levels[k - 1], tuple(table)))
        faces.append(tuple(row))
    degens: list[tuple[PointedMap, ...]] = []
    for k in range(trunc):
        _, decode = _sphere_codec(n, k) if k > 0 else (None, None)
        encode_hi, _ = _sphere_codec(n, k + 1)
        row = []
        for i in range(k + 1):
            stab = circ.degens[k][i].table
            if k == 0:
                table = [0]
            else:
                table = [0] + [
                    encode_hi([stab[a] for a in decode(idx)])
                    for idx in range(1, k**n + 1)
                ]
            row.append(PointedMap(levels[k], levels[k + 1], tuple(table)))
        degens.append(tuple(row))
    degens.append(())
    return SimplicialSet(trunc=trunc, levels=tuple(levels), faces=tuple(faces), degens=tuple(degens))


def sphere_encode_tuple(n: int, k: int, tup: Sequence[int]) -> int:
    if n == 0:
        raise ValueError("sphere(0) has no tuple codec")
    if k == 0 or any(a == 0 for a in tup):
        return 0
    encode, _ = _sphere_codec(n, k)
    return encode(tup)


def sphere_decode_index(n: int, k: int, idx: int) -> tuple[int, ...]:
    if idx == 0:
        return (0,) * n
    _, decode = _sphere_codec(n, k)
    return decode(idx)


@lru_cache(maxsize=512)
def smash_ssets(a: SimplicialSet, b: SimplicialSet) -> SimplicialSet:
    """Levelwise smash with coordinatewise (diagonal) operators.

    Memoized: results are immutable and smash domains (structure maps,
    tensor summands) recur constantly.
    """
    if a.trunc != b.trunc:
        raise MismatchError("smash: truncation mismatch")
    levels = tuple(pointed.smash_sets(p, q) for p, q in zip(a.levels, b.levels))
    return _assemble(a.trunc, levels,
                     lambda k, i: pointed.smash_map(a.faces[k][i], b.faces[k][i]),
                     lambda k, i: pointed.smash_map(a.degens[k][i], b.degens[k][i]))


def smash_sset_maps(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    return SimplicialMap(
        smash_ssets(f.dom, g.dom),
        smash_ssets(f.cod, g.cod),
        tuple(pointed.smash_map(p, q) for p, q in zip(f.components, g.components)),
    )


# ---------------------------------------------------------------------------
# colimits with induced operators


def _assemble(trunc: int, levels: Sequence[PointedSet],
              face_for: Callable[[int, int], PointedMap],
              degen_for: Callable[[int, int], PointedMap]) -> SimplicialSet:
    return SimplicialSet(trunc, tuple(levels), *operator_rows(trunc, face_for, degen_for))


def lift_ssets(cells: Sequence[CoconeResult], pieces: Sequence[SimplicialSet]) -> CoconeResult:
    """The colimit of simplicial sets whose dimension-k colimit is cells[k]."""
    trunc = len(cells) - 1
    return pointed.lift(cells, pieces, SimplicialMap, lambda levels, induce: _assemble(
        trunc, levels,
        lambda k, i: induce(k, k - 1, [p.faces[k][i] for p in pieces]),
        lambda k, i: induce(k, k + 1, [p.degens[k][i] for p in pieces]),
    ))


def wedge_ssets(parts: Sequence[SimplicialSet]) -> CoconeResult:
    trunc = parts[0].trunc
    if any(p.trunc != trunc for p in parts):
        raise MismatchError("wedge: truncation mismatch")
    return lift_ssets([pointed.wedge([p.levels[k] for p in parts]) for k in range(trunc + 1)], parts)


def coequalizer_ssets(f: SimplicialMap, g: SimplicialMap) -> CoconeResult:
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchError("coequalizer: not a parallel pair")
    return lift_ssets([pointed.coequalizer(a, b) for a, b in zip(f.components, g.components)],
                      [f.cod])


def pushout_ssets(f: SimplicialMap, g: SimplicialMap) -> CoconeResult:
    return pointed.pushout_by(wedge_ssets, coequalizer_ssets, compose_sset_maps, f, g)


@dataclass(frozen=True)
class SsetPullback:
    obj: SimplicialSet
    proj1: SimplicialMap
    proj2: SimplicialMap


def pullback_ssets(f: SimplicialMap, g: SimplicialMap) -> SsetPullback:
    """Pullback of B -f-> D <-g- C, dimensionwise pairs with equal image."""
    if f.cod != g.cod:
        raise MismatchError("pullback: maps must share their codomain")
    trunc = f.dom.trunc
    pbs = [pointed.pullback(f.components[k], g.components[k]) for k in range(trunc + 1)]
    index_of = [
        {pair: i for i, pair in enumerate(pb.pairs)} for pb in pbs
    ]

    def induced(k_from: int, k_to: int, mb: PointedMap, mc: PointedMap) -> PointedMap:
        table = tuple(
            index_of[k_to][(mb.table[b], mc.table[c])] for b, c in pbs[k_from].pairs
        )
        return PointedMap(pbs[k_from].obj, pbs[k_to].obj, table)

    obj = _assemble(
        trunc,
        [pb.obj for pb in pbs],
        lambda k, i: induced(k, k - 1, f.dom.faces[k][i], g.dom.faces[k][i]),
        lambda k, i: induced(k, k + 1, f.dom.degens[k][i], g.dom.degens[k][i]),
    )
    proj1 = SimplicialMap(obj, f.dom, tuple(pb.proj1 for pb in pbs))
    proj2 = SimplicialMap(obj, g.dom, tuple(pb.proj2 for pb in pbs))
    return SsetPullback(obj=obj, proj1=proj1, proj2=proj2)


# ---------------------------------------------------------------------------
# bisimplicial sets


@dataclass(frozen=True)
class BisimplicialSet:
    """A simplicial object in pointed simplicial sets.

    rows[k] is the vertical simplicial set in horizontal degree k; the
    horizontal operators are simplicial maps between rows, so the two
    operator families commute by construction of SimplicialMap validity.
    """

    htrunc: int
    vtrunc: int
    rows: tuple[SimplicialSet, ...]
    hfaces: tuple[tuple[SimplicialMap, ...], ...]
    hdegens: tuple[tuple[SimplicialMap, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.htrunc + 1:
            raise ValueError("rows must cover horizontal degrees 0..htrunc")
        for r in self.rows:
            if r.trunc != self.vtrunc:
                raise ValueError("all rows must share the vertical truncation")


def validate_bisimplicial(b: BisimplicialSet) -> CheckReport:
    prop = "bisimplicial"
    for k, row in enumerate(b.rows):
        rep = validate_sset(row)
        if not rep.passed:
            return failed(prop, rep.witness, rep.failure_kind, f"row {k}: {rep.detail}")
    for k in range(1, b.htrunc + 1):
        for i, m in enumerate(b.hfaces[k]):
            if m.dom != b.rows[k] or m.cod != b.rows[k - 1]:
                return failed(prop, None, "endpoints", f"horizontal face ({k},{i})")
            rep = validate_sset_map(m)
            if not rep.passed:
                return failed(prop, None, rep.failure_kind, f"horizontal face ({k},{i}) does not commute vertically")
    for k in range(b.htrunc):
        for i, m in enumerate(b.hdegens[k]):
            if m.dom != b.rows[k] or m.cod != b.rows[k + 1]:
                return failed(prop, None, "endpoints", f"horizontal degeneracy ({k},{i})")
            rep = validate_sset_map(m)
            if not rep.passed:
                return failed(prop, None, rep.failure_kind, f"horizontal degeneracy ({k},{i}) does not commute vertically")
    bad = identity_failure(b.htrunc, b.hfaces, b.hdegens, compose_sset_maps, sset_maps_equal,
                           lambda k: sset_identity(b.rows[k]))
    if bad is not None:
        kind, k, i, j = bad[:4]
        return failed(prop, None, kind, f"horizontal (k,i,j)=({k},{i},{j})")
    return passed(prop)


def constant_bisimplicial(s: SimplicialSet, htrunc: int) -> BisimplicialSet:
    ident = sset_identity(s)
    return BisimplicialSet(htrunc, s.trunc, (s,) * (htrunc + 1),
                           *operator_rows(htrunc, lambda k, i: ident, lambda k, i: ident))


def diagonal(b: BisimplicialSet) -> SimplicialSet:
    """Diagonal simplicial set of a square-truncated bisimplicial set.

    Level k is the (k,k) grid entry; each operator is the horizontal
    operator followed by the matching vertical one (the two commute).
    """
    if b.htrunc != b.vtrunc:
        raise TruncationError("diagonal needs square truncation")
    d = b.htrunc
    levels = [b.rows[k].levels[k] for k in range(d + 1)]
    return _assemble(
        d,
        levels,
        lambda k, i: compose(b.hfaces[k][i].components[k], b.rows[k - 1].faces[k][i]),
        lambda k, i: compose(b.hdegens[k][i].components[k], b.rows[k + 1].degens[k][i]),
    )


def diagonal_map(dom: BisimplicialSet, cod: BisimplicialSet,
                 rowmaps: Sequence[SimplicialMap]) -> SimplicialMap:
    return SimplicialMap(
        diagonal(dom),
        diagonal(cod),
        tuple(rowmaps[k].components[k] for k in range(dom.htrunc + 1)),
    )
