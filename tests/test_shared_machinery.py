"""The machinery shared across ambients: the simplicial-identity checker
behind every validator, the map-commutation checker behind every map
validator, the congruence closure behind the quotient generators, and
the levelwise quotient of spectra.

Each identity family is broken on purpose in a simplicial set, a
bisimplicial set and a simplicial spectrum, by replacing one operator of
a constant object with an involution; the reports must name the family
and the indices exactly.  Each commutation family is broken in the same
way at every layer whose maps it applies to.  The quotient generators
are pinned by sha256 of their output on seeds that take the quotient
path.  The five table types hash once: the stored value must be the hash
a frozen dataclass generates, and stay out of equality, repr and
documents.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from latchcheck import generators
from latchcheck.documents import dumps, loads
from latchcheck.pointed import MismatchError, PointedMap, PointedSet, compose, identity
from latchcheck.reedy import (
    SimplicialSpectrum,
    SimplicialSpectrumMap,
    constant_simplicial_spectrum,
    from_zero_simplicial,
    pointwise_cofiber,
    validate_simplicial_spectrum,
    validate_simplicial_spectrum_map,
)
from latchcheck.simplicial import (
    BisimplicialSet,
    SimplicialMap,
    SimplicialSet,
    compose_sset_maps,
    constant_bisimplicial,
    constant_sset,
    constant_sset_map,
    identity_failure,
    sset_identity,
    validate_bisimplicial,
    validate_sset,
    validate_sset_map,
)
from latchcheck.spectra import (
    SpectrumMap,
    SymSpectrum,
    coequalizer_spectra,
    spectrum_identity,
    spectrum_zero_map,
    sphere_spectrum,
    validate_spectrum,
    validate_spectrum_map,
    wedge_spectra,
)

# Which operator is replaced by the involution, and where the first
# failure then sits: (family, k, i, j).
#   face d^2_0: d^2_1 d^1_0 = id but d^2_0 d^1_0 is not;
#   degeneracy s^1_1: s^0_0 s^1_0 = id but s^0_0 s^1_1 is not;
#   degeneracy s^0_0: faces and degeneracies still satisfy the first two
#   families, but d^1_0 s^0_0 is not the identity.
BREAKS = {
    "face-face": (("faces", 2, 0), ("face-face", 2, 0, 1)),
    "degeneracy-degeneracy": (("degens", 1, 1), ("degeneracy-degeneracy", 0, 0, 0)),
    "face-degeneracy": (("degens", 0, 0), ("face-degeneracy", 0, 0, 0)),
}
FAMILIES = tuple(BREAKS)
# the two composites at element 1: the involution sits on the right-hand
# side of the first two failures and on the left-hand side of the third
PAIRS = {"face-face": (1, 2), "degeneracy-degeneracy": (1, 2), "face-degeneracy": (2, 1)}


def _replace(rows: tuple, k: int, i: int, op) -> tuple:
    row = list(rows[k])
    row[i] = op
    return rows[:k] + (tuple(row),) + rows[k + 1:]


def _broken_operators(faces, degens, family, swap):
    (which, k, i), _ = BREAKS[family]
    if which == "faces":
        return _replace(faces, k, i, swap), degens
    return faces, _replace(degens, k, i, swap)


_P = PointedSet(3)
_SIGMA = PointedMap(_P, _P, (0, 2, 1))


def broken_sset(family: str) -> SimplicialSet:
    s = constant_sset(_P, 2)
    faces, degens = _broken_operators(s.faces, s.degens, family, _SIGMA)
    return SimplicialSet(2, s.levels, faces, degens)


def broken_bisimplicial(family: str) -> BisimplicialSet:
    b = constant_bisimplicial(constant_sset(_P, 1), 2)
    faces, degens = _broken_operators(b.hfaces, b.hdegens, family, constant_sset_map(_SIGMA, 1))
    return BisimplicialSet(2, 1, b.rows, faces, degens)


def broken_simplicial_spectrum(family: str) -> SimplicialSpectrum:
    # the swap of the two summands of S v S is a spectrum automorphism
    cone = wedge_spectra([sphere_spectrum(1, 1)] * 2)
    swap = cone.factor([cone.legs[1], cone.legs[0]])
    x = constant_simplicial_spectrum(cone.obj, 2)
    faces, degens = _broken_operators(x.faces, x.degens, family, swap)
    return SimplicialSpectrum(2, x.degrees, faces, degens)


class TestIdentityFailure:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_checker_returns_the_first_failing_identity(self, family):
        s = broken_sset(family)
        bad = identity_failure(s.trunc, s.faces, s.degens, compose, lambda a, b: a == b,
                               lambda k: identity(s.levels[k]))
        assert bad[:4] == BREAKS[family][1]
        lhs, rhs = bad[4:]
        assert lhs != rhs and lhs.dom == rhs.dom


class TestBrokenIdentities:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_simplicial_set(self, family):
        _, (kind, k, i, j) = BREAKS[family]
        rep = validate_sset(broken_sset(family))
        assert not rep.passed and rep.failure_kind == kind
        assert rep.witness.location == (("k", k), ("i", i), ("j", j), ("element", 1))
        assert rep.witness.pair == PAIRS[family]
        assert rep.witness.provenance == (
            f"{kind} identity fails at (k,i,j)=({k},{i},{j}) on element e1")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bisimplicial_set(self, family):
        _, (kind, k, i, j) = BREAKS[family]
        rep = validate_bisimplicial(broken_bisimplicial(family))
        assert not rep.passed and rep.failure_kind == kind
        assert rep.witness is None
        assert rep.detail == f"horizontal (k,i,j)=({k},{i},{j})"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_simplicial_spectrum(self, family):
        _, (kind, k, i, j) = BREAKS[family]
        rep = validate_simplicial_spectrum(broken_simplicial_spectrum(family))
        assert not rep.passed and rep.failure_kind == "simplicial-identity"
        assert rep.detail == f"{kind} at (k,i,j)=({k},{i},{j})"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pointwise_cofiber_reasserts_the_identities(self, family):
        # the cofiber of the zero map into Y carries Y's operators
        _, (kind, k, i, j) = BREAKS[family]
        y = broken_simplicial_spectrum(family)
        with pytest.raises(MismatchError) as exc:
            pointwise_cofiber(from_zero_simplicial(y))
        assert str(exc.value) == (
            f"cofiber operators violate a simplicial identity: {kind} at (k,i,j)=({k},{i},{j})")

    def test_unbroken_objects_pass(self):
        assert validate_sset(constant_sset(_P, 2)).passed
        assert validate_bisimplicial(constant_bisimplicial(constant_sset(_P, 1), 2)).passed
        cone = wedge_spectra([sphere_spectrum(1, 1)] * 2)
        x = constant_simplicial_spectrum(cone.obj, 2)
        assert validate_simplicial_spectrum(x).passed
        z, _ = pointwise_cofiber(from_zero_simplicial(x))
        assert validate_simplicial_spectrum(z).passed


# sha256 of the outputs below, computed before the two quotient generators
# shared one congruence closure; every seed here takes the quotient path.
SPECTRUM_PINS = {
    0: "4fbfa84f5972383ffcb3dfe7dd7d48b0977ec0bcbaa3b640ee4bece0d40b2763",
    1: "3e24136b1e309115f90bd48d09a21cad9146c93f1fe218eb22ae1ca1874e30c2",
    3: "147b64b4b3af713e30e40f87284361620a45b461db1c28ca89763f15349043e9",
    4: "3c07d951f92e238a7223d9165afd9e59126dfd20c071ad139313572f700fb669",
    5: "9d4ddf0a425bbbf7faff90f82e2c2f1510b0e0424f9dc9237b524d0fd8d5b7bf",
    6: "e639c7f70d912d6a1a400dc245496bc4e60753ecf8a03d5e470015646b68b648",
    10: "b681b100906c593141291fa6a63de9b38e6c1e4d3085fdad7d9df1e855745760",
}
BISIMPLICIAL_PINS = {
    0: "eee3184a806dd9bfc46f7c883e0431ae024f05273fec76d3d7ee0533276b8996",
    1: "d7fd297af6e492fa500d4a1c7f1ba320c6dfd6c9919e6eceb536e73ee4a34228",
    3: "6a82bc44a9ff421bdc0953eec3c614fcc06f5789c7f8e2f3944cb8bc78595476",
    10: "00e2ddd92ff0230e662337803cc8aa5ed998242774672b7c58e4b47581a81a4e",
    11: "508425d267fdd8e9b9c3b74461409941577bc36a9725b1a418f41cac2246881b",
}


def _bisimplicial_tables(b: BisimplicialSet) -> str:
    def tables(rows):
        return [[[list(c.table) for c in m.components] for m in row] for row in rows]

    return json.dumps([[dumps(r) for r in b.rows], tables(b.hfaces), tables(b.hdegens)])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _counting(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(generators, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(generators, name, counted)
    return calls


class TestQuotientGeneratorsPinned:
    @pytest.mark.parametrize("seed", sorted(SPECTRUM_PINS))
    def test_generated_spectrum(self, seed, monkeypatch):
        calls = _counting(monkeypatch, "_quotient_spectrum")
        x = generators.gen_spectrum(random.Random(seed), 2, 3)
        assert calls, "seed no longer takes the quotient path"
        assert _sha(dumps(x)) == SPECTRUM_PINS[seed]

    @pytest.mark.parametrize("seed", sorted(BISIMPLICIAL_PINS))
    def test_generated_bisimplicial_set(self, seed, monkeypatch):
        calls = _counting(monkeypatch, "_quotient_bisimplicial")
        b = generators.gen_bisimplicial(random.Random(seed), 3, 3)
        assert calls, "seed no longer takes the quotient path"
        assert _sha(_bisimplicial_tables(b)) == BISIMPLICIAL_PINS[seed]


# ---------------------------------------------------------------------------
# map commutation: one broken component (or operator) per family and layer


def _swap_of_wedge(x):
    cone = wedge_spectra([x, x])
    return cone, cone.factor([cone.legs[1], cone.legs[0]])


def _degeneracy_breaking_sset() -> tuple[SimplicialSet, PointedMap]:
    """A vertex a with its degenerate edge s0(a) and a loop b at a, and the
    swap of s0(a) and b, which commutes with both faces but not with s0."""
    v, e = PointedSet(2), PointedSet(3)
    fold = PointedMap(e, v, (0, 1, 1))
    s = SimplicialSet(1, (v, e), ((), (fold, fold)), ((PointedMap(v, e, (0, 1)),), ()))
    return s, PointedMap(e, e, (0, 2, 1))


class TestBrokenCommutation:
    def test_simplicial_map_face(self):
        s = constant_sset(_P, 2)
        f = SimplicialMap(s, s, (identity(_P), _SIGMA, identity(_P)))
        rep = validate_sset_map(f)
        assert not rep.passed and rep.failure_kind == "face-commutation"
        assert rep.detail == "component 1 vs face 0"

    def test_simplicial_map_degeneracy(self):
        s, swap = _degeneracy_breaking_sset()
        rep = validate_sset_map(SimplicialMap(s, s, (identity(s.levels[0]), swap)))
        assert not rep.passed and rep.failure_kind == "degeneracy-commutation"
        assert rep.detail == "component 0 vs degeneracy 0"

    def test_spectrum_map_equivariance(self):
        # the identity into a copy of S whose level-2 generator is trivial
        x = sphere_spectrum(2, 2)
        trivial = (x.gens[0], x.gens[1], (sset_identity(x.levels[2]),))
        y = SymSpectrum(x.strunc, x.dtrunc, x.levels, trivial, x.sigmas)
        rep = validate_spectrum_map(SpectrumMap(x, y, spectrum_identity(x).components))
        assert not rep.passed and rep.failure_kind == "equivariance"
        assert rep.detail == "component 2 vs generator 0"

    def test_simplicial_spectrum_map_face(self):
        cone, swap = _swap_of_wedge(sphere_spectrum(1, 1))
        x = constant_simplicial_spectrum(cone.obj, 2)
        ident = spectrum_identity(cone.obj)
        rep = validate_simplicial_spectrum_map(SimplicialSpectrumMap(x, x, (ident, swap, ident)))
        assert not rep.passed and rep.failure_kind == "face-commutation"
        assert rep.detail == "component 1 vs face 0"

    def test_simplicial_spectrum_map_degeneracy(self):
        # S at degree 0, S v S at degree 1 with the fold as both faces and
        # the first leg as degeneracy; the swap of the summands commutes
        # with the fold but not with the leg
        s = sphere_spectrum(1, 1)
        cone, swap = _swap_of_wedge(s)
        fold = cone.factor([spectrum_identity(s), spectrum_identity(s)])
        x = SimplicialSpectrum(1, (s, cone.obj), ((), (fold, fold)), ((cone.legs[0],), ()))
        f = SimplicialSpectrumMap(x, x, (spectrum_identity(s), swap))
        rep = validate_simplicial_spectrum_map(f)
        assert not rep.passed and rep.failure_kind == "degeneracy-commutation"
        assert rep.detail == "component 0 vs degeneracy 0"


# ---------------------------------------------------------------------------
# quotients of spectra


class TestSpectrumQuotients:
    def test_coequalizer_rejects_a_pair_with_different_codomains(self):
        # w2 has w's levels and generators, but each sigma is followed by
        # the summand swap, so the two maps out of w are not parallel
        cone, swap = _swap_of_wedge(sphere_spectrum(2, 2))
        w = cone.obj
        sigmas = tuple(compose_sset_maps(sig, swap.components[n + 1]) for n, sig in enumerate(w.sigmas))
        w2 = SymSpectrum(w.strunc, w.dtrunc, w.levels, w.gens, sigmas)
        assert w2 != w
        with pytest.raises(MismatchError):
            coequalizer_spectra(spectrum_identity(w), SpectrumMap(w, w2, spectrum_identity(w).components))

    def test_coequalizer_rejects_a_generator_that_does_not_descend(self):
        # collapse the first summand of S v S, where the level-2 generator
        # also swaps the summands, so it carries the collapsed summand onto
        # the other one
        s = sphere_spectrum(2, 2)
        cone, swap = _swap_of_wedge(s)
        w = cone.obj
        gens = w.gens[:2] + ((compose_sset_maps(w.gens[2][0], swap.components[2]),),)
        y = SymSpectrum(w.strunc, w.dtrunc, w.levels, gens, w.sigmas)
        leg = SpectrumMap(s, y, cone.legs[0].components)
        with pytest.raises(MismatchError):
            coequalizer_spectra(leg, spectrum_zero_map(s, y))
        # with w's own, diagonal action the same collapse is well defined
        assert validate_spectrum(coequalizer_spectra(cone.legs[0], spectrum_zero_map(s, w)).obj).passed


def _relabelled(x, tag):
    """A separately built copy of x, through its document, whose pointed
    sets carry the labels tag1, tag2, ..."""
    def pset(p):
        return PointedSet(p.size, ("*",) + tuple(f"{tag}{i}" for i in range(1, p.size)))

    def pmap(m):
        return PointedMap(pset(m.dom), pset(m.cod), m.table)

    def sset(a):
        return SimplicialSet(a.trunc, tuple(map(pset, a.levels)),
                             tuple(tuple(map(pmap, row)) for row in a.faces),
                             tuple(tuple(map(pmap, row)) for row in a.degens))

    def smap(f):
        return SimplicialMap(sset(f.dom), sset(f.cod), tuple(map(pmap, f.components)))

    x = loads(dumps(x))
    if isinstance(x, PointedSet):
        return pset(x)
    if isinstance(x, PointedMap):
        return pmap(x)
    if isinstance(x, SimplicialSet):
        return sset(x)
    if isinstance(x, SimplicialMap):
        return smap(x)
    return SymSpectrum(x.strunc, x.dtrunc, tuple(map(sset, x.levels)),
                       tuple(tuple(map(smap, fam)) for fam in x.gens), tuple(map(smap, x.sigmas)))


_LABELLED = PointedSet(3, ("*", "a", "b"))
HASHED = {
    "pointed-set": lambda: _LABELLED,
    "pointed-map": lambda: PointedMap(_LABELLED, _LABELLED, (0, 2, 1)),
    "sset": lambda: constant_sset(_LABELLED, 2),
    "sset-map": lambda: constant_sset_map(PointedMap(_LABELLED, _LABELLED, (0, 2, 0)), 2),
    "spectrum": lambda: sphere_spectrum(2, 2),
}


class TestHashOnce:
    @pytest.mark.parametrize("kind", sorted(HASHED))
    def test_hash_is_the_generated_one(self, kind):
        x = _relabelled(HASHED[kind](), "h")
        assert x._h is None
        key = tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)
        assert hash(x) == hash(key)
        assert x._h == hash(key) and hash(x) == hash(key)

    @pytest.mark.parametrize("kind", sorted(HASHED))
    def test_relabelled_copy_is_equal_with_equal_hash(self, kind):
        x = HASHED[kind]()
        y = _relabelled(x, "other")
        assert y is not x and dumps(y) != dumps(x)
        assert y == x and hash(y) == hash(x)
        assert len({x, y}) == 1

    @pytest.mark.parametrize("kind", sorted(HASHED))
    def test_stored_hash_stays_out_of_repr_and_documents(self, kind):
        x = HASHED[kind]()
        before = (repr(x), dumps(x))
        hash(x)
        assert x._h is not None
        assert (repr(x), dumps(x)) == before
        assert "_h" not in before[0] and "_h" not in before[1]
