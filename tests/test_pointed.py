"""Pointed-set layer: spec examples, universal-property round trips,
and the exhaustive pushout-over-pullback lemma at small sizes."""
from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latchcheck.pointed import (
    CoconeResult,
    MismatchError,
    PointedMap,
    PointedSet,
    coequalizer,
    compose,
    epi_missed,
    identity,
    invert,
    is_epi,
    is_iso,
    is_mono,
    mono_witness,
    pullback,
    pushout,
    quotient_by_pairs,
    smash_index,
    smash_map,
    smash_sets,
    smash_split,
    smash_swap,
    wedge,
    wedge_split,
    zero_map,
)


def maps_between(a: PointedSet, b: PointedSet):
    """All pointed maps a -> b (exhaustive; keep sizes tiny)."""
    for tail in product(range(b.size), repeat=a.size - 1):
        yield PointedMap(a, b, (0,) + tail)


def mono_maps_between(a: PointedSet, b: PointedSet):
    return (f for f in maps_between(a, b) if is_mono(f))


A2 = PointedSet(2)
A3 = PointedSet(3)
A4 = PointedSet(4)


class TestCompose:
    def test_identity_composes_to_identity(self):
        assert compose(identity(A3), identity(A3)) == identity(A3)

    def test_zero_map_absorbs(self):
        f = PointedMap(A3, A3, (0, 2, 1))
        assert compose(f, zero_map(A3, A2)) == zero_map(A3, A2)

    def test_inclusion_then_collapse(self):
        # {*,a} -> {*,a,b}, then b -> *: entrywise evaluation gives the identity table
        incl = PointedMap(A2, A3, (0, 1))
        collapse = PointedMap(A3, A2, (0, 1, 0))
        assert compose(incl, collapse) == PointedMap(A2, A2, (0, 1))

    def test_mismatch_raises(self):
        with pytest.raises(MismatchError):
            compose(PointedMap(A2, A3, (0, 1)), PointedMap(A2, A2, (0, 1)))


class TestMonoEpiIso:
    def test_identity_is_mono_epi_iso(self):
        f = identity(A3)
        assert is_mono(f) and is_epi(f) and is_iso(f)

    def test_collapse_witness_prefers_nonbase_pair(self):
        f = zero_map(A3, A3)
        assert mono_witness(f) == (1, 2)

    def test_witness_falls_back_to_basepoint_pair(self):
        f = PointedMap(A2, PointedSet(1), (0, 0))
        assert mono_witness(f) == (0, 1)

    def test_witness_is_lexicographically_least(self):
        f = PointedMap(PointedSet(5), PointedSet(5), (0, 3, 4, 4, 3))
        assert mono_witness(f) == (1, 4)

    def test_proper_inclusion_is_not_epi(self):
        f = PointedMap(A2, A3, (0, 1))
        assert not is_epi(f)
        assert epi_missed(f) == 2

    def test_relabeling_is_iso(self):
        f = PointedMap(A4, A4, (0, 3, 1, 2))
        assert is_iso(f)
        assert compose(f, invert(f)) == identity(A4)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monos_compose(self, data):
        sizes = st.integers(min_value=1, max_value=5)
        a, b, c = (PointedSet(data.draw(sizes)) for _ in range(3))
        f = data.draw(st.sampled_from(list(maps_between(a, b)) or [None]))
        g = data.draw(st.sampled_from(list(maps_between(b, c)) or [None]))
        if is_mono(f) and is_mono(g):
            assert is_mono(compose(f, g))

    def test_monos_left_cancellable(self):
        # h mono and f∘h = g∘h as tables forces f = g entrywise
        h = PointedMap(A3, A4, (0, 2, 3))
        for f in maps_between(A2, A3):
            for g in maps_between(A2, A3):
                if compose(f, h) == compose(g, h):
                    assert f == g


class TestWedge:
    def test_unit(self):
        w = wedge([PointedSet(1), A3])
        assert w.obj.size == A3.size
        assert w.legs[1].table == (0, 1, 2)

    def test_two_point_sets(self):
        assert wedge([A2, A2]).obj.size == 3

    def test_summand_count_formula(self):
        parts = [A3, A2, A4]
        w = wedge(parts)
        assert w.obj.size == 1 + sum(p.size - 1 for p in parts)

    def test_legs_are_mono_and_split(self):
        parts = [A3, A2, A4]
        w = wedge(parts)
        for j, leg in enumerate(w.legs):
            assert is_mono(leg)
            for i in range(1, leg.dom.size):
                assert wedge_split(parts, leg.table[i]) == (j, i)

    def test_factor_reproduces_cocone(self):
        w = wedge([A2, A3])
        u = PointedMap(A2, A4, (0, 3))
        v = PointedMap(A3, A4, (0, 1, 1))
        m = w.factor([u, v])
        assert compose(w.legs[0], m) == u
        assert compose(w.legs[1], m) == v


class TestSmash:
    def test_unit(self):
        b = A4
        s = smash_sets(A2, b)
        assert s.size == b.size

    def test_point_absorbs(self):
        assert smash_sets(PointedSet(1), A4).size == 1

    def test_size_formula(self):
        assert smash_sets(A3, A3).size == 5

    def test_pairing_roundtrip(self):
        a, b = A3, A4
        s = smash_sets(a, b)
        for idx in range(1, s.size):
            i, j = smash_split(a, b, idx)
            assert smash_index(a, b, i, j) == idx

    def test_smash_of_monos_is_mono(self):
        f = PointedMap(A2, A3, (0, 2))
        g = PointedMap(A3, A4, (0, 1, 3))
        assert is_mono(smash_map(f, g))

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_swap_is_the_symmetry(self, m, n):
        a, b = PointedSet(m), PointedSet(n)
        swap = smash_swap(a, b)
        assert (swap.dom, swap.cod) == (smash_sets(a, b), smash_sets(b, a))
        assert compose(swap, smash_swap(b, a)) == identity(smash_sets(a, b))
        for idx in range(1, swap.dom.size):
            i, j = smash_split(a, b, idx)
            assert swap(idx) == smash_index(b, a, j, i)


def exhaustive_factor_uniqueness(cone: CoconeResult, competing, mediating):
    """The mediating map exists, reproduces the cocone, and is unique."""
    cod = competing[0].cod
    count = 0
    for cand in maps_between(cone.obj, cod):
        if all(compose(leg, cand) == comp for leg, comp in zip(cone.legs, competing)):
            count += 1
            assert cand == mediating
    assert count == 1


class TestCoequalizer:
    def test_equal_pair_gives_iso(self):
        f = PointedMap(A3, A4, (0, 2, 3))
        co = coequalizer(f, f)
        assert is_iso(co.legs[0])

    def test_from_point_gives_iso(self):
        z1 = zero_map(PointedSet(1), A3)
        co = coequalizer(z1, z1)
        assert is_iso(co.legs[0])

    def test_single_merge(self):
        f = PointedMap(A2, A3, (0, 1))
        g = PointedMap(A2, A3, (0, 2))
        co = coequalizer(f, g)
        assert co.obj.size == 2
        assert co.legs[0].table == (0, 1, 1)

    def test_factor_round_trip_and_uniqueness(self):
        f = PointedMap(A2, A3, (0, 1))
        g = PointedMap(A2, A3, (0, 2))
        co = coequalizer(f, g)
        m = PointedMap(A3, A2, (0, 1, 1))  # coequalizes the pair
        med = co.factor([m])
        assert compose(co.legs[0], med) == m
        exhaustive_factor_uniqueness(co, [m], med)

    def test_factor_rejects_non_coequalizing_map(self):
        f = PointedMap(A2, A3, (0, 1))
        g = PointedMap(A2, A3, (0, 2))
        co = coequalizer(f, g)
        with pytest.raises(MismatchError):
            co.factor([PointedMap(A3, A3, (0, 1, 2))])


class TestPushoutPullback:
    def test_pushout_along_point(self):
        pt = PointedSet(1)
        po = pushout(zero_map(pt, pt), zero_map(pt, A3))
        assert po.obj.size == A3.size
        assert is_iso(po.legs[1])

    def test_pullback_of_identity_is_diagonal(self):
        pb = pullback(identity(A3), identity(A3))
        assert pb.obj.size == A3.size
        assert pb.pairs == tuple((i, i) for i in range(3))

    def test_pushout_factor_round_trip(self):
        f = PointedMap(A2, A3, (0, 1))
        g = PointedMap(A2, A3, (0, 2))
        po = pushout(f, g)
        u = PointedMap(A3, A4, (0, 3, 1))  # u(f(t)) = 3
        v = PointedMap(A3, A4, (0, 2, 3))  # v(g(t)) = 3, so the cocone commutes
        med = po.factor([u, v])
        assert compose(po.legs[0], med) == u
        assert compose(po.legs[1], med) == v
        exhaustive_factor_uniqueness(po, [u, v], med)


def all_pointed_sets(max_size):
    return [PointedSet(s) for s in range(1, max_size + 1)]


class TestPushoutOverPullbackLemma:
    """Monos f1: B -> D, f2: C -> D force a mono mediating map from the
    pushout over the pullback into D.  Exhaustive over sizes <= 4."""

    def test_exhaustive_small_sizes(self):
        for d in all_pointed_sets(4):
            for b in all_pointed_sets(d.size):
                for c in all_pointed_sets(d.size):
                    for f1 in mono_maps_between(b, d):
                        for f2 in mono_maps_between(c, d):
                            pb = pullback(f1, f2)
                            po = pushout(pb.proj1, pb.proj2)
                            med = po.factor([f1, f2])
                            assert is_mono(med), (f1.table, f2.table)


def closure_classes(size, pairs):
    """The classes of the equivalence relation generated by pairs, by naive
    fixpoint iteration over the class of every element."""
    cls = [{i} for i in range(size)]
    changed = True
    while changed:
        changed = False
        for x, y in pairs:
            if cls[x] is not cls[y]:
                merged = cls[x] | cls[y]
                for i in merged:
                    cls[i] = merged
                changed = True
    return cls


class TestQuotientByPairs:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_closure(self, data):
        size = data.draw(st.integers(min_value=1, max_value=12))
        elem = st.integers(min_value=0, max_value=size - 1)
        # self-pairs and pairs with the basepoint are drawn too
        pairs = data.draw(st.lists(st.tuples(elem, elem), max_size=20))
        q = quotient_by_pairs(PointedSet(size), pairs)
        cls = closure_classes(size, pairs)
        least = sorted({min(c) for c in cls})
        assert q.cod.size == len(least)
        assert q.table == tuple(least.index(min(cls[i])) for i in range(size))

    def test_deep_chains(self):
        # descending links build a path n-1 -> n-2 -> ... -> 1, so the
        # finds of the last pair halve through grandparents that are not roots
        for n in range(3, 10):
            chain = [(i, i + 1) for i in reversed(range(1, n - 1))]
            for last in ((n - 1, n), (n, n - 1), (n - 1, 0), (0, n - 1)):
                pairs = chain + [last]
                q = quotient_by_pairs(PointedSet(n + 1), pairs)
                cls = closure_classes(n + 1, pairs)
                least = sorted({min(c) for c in cls})
                assert q.table == tuple(least.index(min(cls[i])) for i in range(n + 1)), pairs

    def test_self_pairs_and_basepoint_pairs(self):
        q = quotient_by_pairs(PointedSet(5), [(3, 3), (4, 0), (2, 2)])
        assert q.table == (0, 1, 2, 3, 0)
        assert quotient_by_pairs(PointedSet(4), iter([(3, 1)])).table == (0, 1, 2, 1)
