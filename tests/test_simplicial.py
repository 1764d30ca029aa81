"""Simplicial layer: identities, spheres, smash, colimits, diagonal."""
from __future__ import annotations

import pytest

from latchcheck import pointed
from latchcheck.pointed import (
    MismatchError,
    PointedMap,
    PointedSet,
    compose,
    is_iso,
    is_mono,
)
from latchcheck.simplicial import (
    BisimplicialSet,
    SimplicialMap,
    SimplicialSet,
    circle,
    compose_sset_maps,
    constant_bisimplicial,
    constant_sset,
    diagonal,
    diagonal_map,
    is_iso_ssetmap,
    is_mono_ssetmap,
    point_sset,
    pullback_ssets,
    pushout_ssets,
    coequalizer_ssets,
    smash_sset_maps,
    smash_ssets,
    sphere,
    sphere_decode_index,
    sphere_encode_tuple,
    sset_identity,
    sset_zero_map,
    validate_bisimplicial,
    validate_sset,
    validate_sset_map,
    wedge_ssets,
)
from latchcheck.spectra import sphere_perm_map


class TestValidate:
    def test_point_passes(self):
        assert validate_sset(point_sset(3)).passed

    def test_circle_passes(self):
        assert validate_sset(circle(4)).passed

    def test_spheres_pass(self):
        for n in range(4):
            assert validate_sset(sphere(n, 4)).passed

    def test_broken_degeneracy_identity_is_located(self):
        # edit one degeneracy table of a wedge of circles to break s_0 s_0 = s_1 s_0
        s = smash_ssets(circle(3), sphere(0, 3))
        bad_row = (s.degens[1][0], s.degens[1][1])
        swapped = PointedMap(s.levels[1], s.levels[2], s.degens[1][1].table)
        broken = SimplicialSet(
            s.trunc, s.levels, s.faces,
            (s.degens[0], (swapped, bad_row[0]), s.degens[2], ()),
        )
        rep = validate_sset(broken)
        assert not rep.passed
        assert rep.failure_kind in ("degeneracy-degeneracy", "face-degeneracy")
        assert rep.witness is not None


class TestCircleAndSpheres:
    def test_circle_level_sizes(self):
        c = circle(4)
        assert [p.size for p in c.levels] == [1, 2, 3, 4, 5]

    def test_sphere0_is_constant_two_points(self):
        s = sphere(0, 3)
        assert all(p.size == 2 for p in s.levels)

    def test_sphere2_level_sizes(self):
        # k^2 + 1 at dimension k; enumeration of smash classes of
        # circle∧circle gives 5 at dimension 2
        s = sphere(2, 4)
        assert [p.size for p in s.levels] == [1, 2, 5, 10, 17]

    def test_sphere2_equals_smash_of_circles(self):
        assert sphere(2, 4) == smash_ssets(circle(4), circle(4))

    def test_sphere3_equals_iterated_smash(self):
        assert sphere(3, 3) == smash_ssets(smash_ssets(circle(3), circle(3)), circle(3))

    def test_sphere_codec_roundtrip(self):
        for k in (1, 2, 3):
            size = k**3
            for idx in range(1, size + 1):
                tup = sphere_decode_index(3, k, idx)
                assert sphere_encode_tuple(3, k, tup) == idx

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            sphere(-1, 3)


class TestSmash:
    def test_unit(self):
        b = sphere(2, 3)
        assert smash_ssets(sphere(0, 3), b).levels == b.levels

    def test_point_absorbs(self):
        assert smash_ssets(point_sset(3), circle(3)) == point_sset(3)

    def test_smash_is_associative_up_to_canonical_relabeling(self):
        a, b, c = circle(2), sphere(0, 2), circle(2)
        left = smash_ssets(smash_ssets(a, b), c)
        right = smash_ssets(a, smash_ssets(b, c))
        # sizes and operator tables agree since the mixed-radix pairing
        # of a unit factor is degenerate
        assert left == right

    def test_associativity_bijection_for_general_factors(self):
        # construct the relabeling bijection ((x,y),z) -> (x,(y,z)) and
        # check it is a simplicial isomorphism
        from latchcheck.pointed import PointedMap, smash_index, smash_split
        from latchcheck.simplicial import SimplicialMap, validate_sset_map

        a, b, c = circle(2), circle(2), sphere(0, 2)
        left = smash_ssets(smash_ssets(a, b), c)
        right = smash_ssets(a, smash_ssets(b, c))
        comps = []
        for k in range(3):
            ak, bk, ck = a.levels[k], b.levels[k], c.levels[k]
            abk = smash_ssets(a, b).levels[k]
            bck = smash_ssets(b, c).levels[k]
            table = [0] * left.levels[k].size
            for idx in range(1, left.levels[k].size):
                ab, z = smash_split(abk, ck, idx)
                x, y = smash_split(ak, bk, ab)
                table[idx] = smash_index(ak, bck, x, smash_index(bk, ck, y, z))
            comps.append(PointedMap(left.levels[k], right.levels[k], tuple(table)))
        relabel = SimplicialMap(left, right, tuple(comps))
        assert validate_sset_map(relabel).passed
        assert is_iso_ssetmap(relabel)

    def test_smash_preserves_monos(self):
        f = sset_identity(circle(3))
        g = sset_identity(sphere(2, 3))
        assert is_mono_ssetmap(smash_sset_maps(f, g)).passed


class TestMonoCheck:
    def test_identity_passes(self):
        assert is_mono_ssetmap(sset_identity(sphere(1, 3))).passed

    def test_collapse_fails_at_dim_1(self):
        f = sset_zero_map(sphere(1, 3), point_sset(3))
        rep = is_mono_ssetmap(f)
        assert not rep.passed
        assert rep.witness.locate("dim") == 1

    def test_degeneracies_are_split_monos(self):
        for s in (circle(4), sphere(2, 4)):
            for k in range(s.trunc):
                for i in range(k + 1):
                    assert compose(s.degens[k][i], s.faces[k + 1][i]).table == tuple(
                        range(s.levels[k].size)
                    )
                    assert is_mono(s.degens[k][i])


class TestColimits:
    def test_wedge_unit(self):
        w = wedge_ssets([point_sset(3), circle(3)])
        assert w.obj == circle(3)
        assert validate_sset(w.obj).passed

    def test_wedge_operators_validate(self):
        w = wedge_ssets([circle(3), sphere(2, 3), circle(3)])
        assert validate_sset(w.obj).passed
        for leg in w.legs:
            assert validate_sset_map(leg).passed
            assert is_mono_ssetmap(leg).passed

    def test_coequalizer_collapse_and_factor(self):
        c = circle(3)
        f = sset_identity(c)
        g = compose_sset_maps(f, f)
        co = coequalizer_ssets(f, g)
        assert is_iso_ssetmap(co.legs[0])
        med = co.factor([sset_zero_map(c, point_sset(3))])
        assert validate_sset_map(med).passed

    def test_coequalizer_rejects_ill_defined_operator(self):
        # f and g are not simplicial: they identify a with b in dimension 1
        # only, so the face of the merged class has no single value
        a_b = PointedSet(3, labels=("*", "a", "b"))
        y = constant_sset(a_b, 1)
        x = constant_sset(PointedSet(2), 1)
        pick_a = PointedMap(x.levels[0], a_b, (0, 1))
        pick_b = PointedMap(x.levels[0], a_b, (0, 2))
        f = SimplicialMap(x, y, (pick_a, pick_a))
        g = SimplicialMap(x, y, (pick_a, pick_b))
        with pytest.raises(MismatchError):
            coequalizer_ssets(f, g)

    def test_direct_operator_tables_match_universal_property(self):
        # the induced operators equal the factorizations they replace
        parts = [circle(3), sphere(2, 3), point_sset(3), circle(3)]
        w = wedge_ssets(parts)
        for k in range(1, 4):
            for i in range(k + 1):
                cone = pointed.wedge([p.levels[k] for p in parts])
                lo = pointed.wedge([p.levels[k - 1] for p in parts])
                expect = cone.factor([compose(p.faces[k][i], lo.legs[j])
                                      for j, p in enumerate(parts)])
                assert w.obj.faces[k][i] == expect
        s = sphere(2, 3)
        ident, swap = sset_identity(s), sphere_perm_map(2, 3, (1, 0))
        co = coequalizer_ssets(ident, swap)
        quot = [pointed.coequalizer(ident.components[k], swap.components[k]) for k in range(4)]
        for k in range(3):
            for i in range(k + 1):
                expect = quot[k].factor([compose(s.degens[k][i], quot[k + 1].legs[0])])
                assert co.obj.degens[k][i] == expect
                expect = quot[k + 1].factor([compose(s.faces[k + 1][i], quot[k].legs[0])])
                assert co.obj.faces[k + 1][i] == expect
        assert validate_sset(co.obj).passed

    def test_pushout_validates(self):
        pt = point_sset(3)
        po = pushout_ssets(sset_zero_map(pt, circle(3)), sset_zero_map(pt, sphere(2, 3)))
        assert validate_sset(po.obj).passed
        for leg in po.legs:
            assert validate_sset_map(leg).passed
        # pushout along the point is the wedge
        assert po.obj.levels == wedge_ssets([circle(3), sphere(2, 3)]).obj.levels

    def test_pullback_of_identities_is_diagonal(self):
        c = circle(3)
        pb = pullback_ssets(sset_identity(c), sset_identity(c))
        assert pb.obj.levels == c.levels
        assert validate_sset(pb.obj).passed
        assert validate_sset_map(pb.proj1).passed


class TestBisimplicial:
    def test_constant_bisimplicial_validates(self):
        b = constant_bisimplicial(sphere(1, 3), 3)
        assert validate_bisimplicial(b).passed

    def test_diagonal_of_constant_is_the_value(self):
        s = sphere(1, 3)
        b = constant_bisimplicial(s, 3)
        assert diagonal(b) == s

    def test_diagonal_of_identity_is_identity(self):
        s = circle(2)
        b = constant_bisimplicial(s, 2)
        d = diagonal_map(b, b, tuple(sset_identity(s) for _ in range(3)))
        assert d.components == sset_identity(s).components

    def test_diagonal_validates_on_nonconstant_input(self):
        # rows are V_k ∧ Z for a 2-level discrete direction
        z = circle(2)
        v0 = constant_sset(PointedSet(2), 2)
        rows = []
        for k in range(3):
            rows.append(smash_ssets(v0, z))
        ident = sset_identity(rows[0])
        b = BisimplicialSet(
            htrunc=2, vtrunc=2, rows=tuple(rows),
            hfaces=((), (ident, ident), (ident, ident, ident)),
            hdegens=((ident,), (ident, ident), ()),
        )
        assert validate_bisimplicial(b).passed
        assert validate_sset(diagonal(b)).passed

    def test_diagonal_preserves_levelwise_monos(self):
        s = sphere(1, 2)
        b = constant_bisimplicial(s, 2)
        c = constant_bisimplicial(smash_ssets(s, sphere(0, 2)), 2)
        rowmaps = tuple(
            SimplicialMap(s, c.rows[0], tuple(
                PointedMap(p, q, tuple(range(p.size)))
                for p, q in zip(s.levels, c.rows[0].levels)
            ))
            for _ in range(3)
        )
        d = diagonal_map(b, c, rowmaps)
        assert is_mono_ssetmap(d).passed
