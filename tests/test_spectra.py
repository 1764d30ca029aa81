"""Symmetric-spectrum layer: actions, structure maps, the graded smash,
latching levels and the four cofibration classifiers."""
from __future__ import annotations

import gc
import weakref
from itertools import permutations

import pytest

from latchcheck import spectra
from latchcheck.documents import dumps, loads
from latchcheck.perms import compose_perm, identity_perm, multi_shuffles
from latchcheck.pointed import PointedSet, is_iso
from latchcheck.simplicial import (
    SimplicialMap,
    circle,
    coequalizer_ssets,
    compose_sset_maps,
    constant_sset,
    is_iso_ssetmap,
    is_mono_ssetmap,
    point_sset,
    smash_sset_maps,
    sphere,
    sset_identity,
    validate_sset,
)
from latchcheck.spectra import (
    COFIBRATION_TESTS,
    SpectrumMap,
    SymSpectrum,
    bar_s,
    bar_to_sphere,
    cofibrant_report,
    coequalizer_spectra,
    compose_spectrum_maps,
    day_tensor,
    from_zero,
    is_flat_cofibration,
    is_levelwise_cofibration,
    is_positive_flat,
    is_positive_levelwise,
    iterated_sigma,
    latching_corner,
    latching_map_of_spectrum_map,
    pushout_spectra,
    realize_perm,
    smash_over_s,
    smash_spectrum_map_sset,
    smash_spectrum_sset,
    spectral_latching,
    spectrum_identity,
    sphere_perm_map,
    sphere_spectrum,
    unit_oracle,
    validate_spectrum,
    validate_spectrum_map,
    wedge_spectra,
    zero_spectrum,
)

N, D = 3, 4


def two_cell_sset(trunc):
    return constant_sset(PointedSet(2, labels=("*", "c")), trunc)


class TestBuiltinsValidate:
    def test_sphere_spectrum_is_valid(self):
        assert validate_spectrum(sphere_spectrum(N, D)).passed

    def test_bar_is_valid_and_level0_is_point(self):
        b = bar_s(N, D)
        assert validate_spectrum(b).passed
        assert all(p.size == 1 for p in b.levels[0].levels)

    def test_bar_to_sphere_is_valid_and_iso_above_0(self):
        f = bar_to_sphere(N, D)
        assert validate_spectrum_map(f).passed
        for n in range(1, N + 1):
            assert is_iso_ssetmap(f.components[n])
        assert not is_iso_ssetmap(f.components[0])

    def test_zero_spectrum_valid(self):
        assert validate_spectrum(zero_spectrum(N, D)).passed

    def test_suspension_and_wedge_valid(self):
        a = two_cell_sset(D)
        x = smash_spectrum_sset(sphere_spectrum(N, D), a)
        assert validate_spectrum(x).passed
        w = wedge_spectra([x, sphere_spectrum(N, D)])
        assert validate_spectrum(w.obj).passed
        for leg in w.legs:
            assert validate_spectrum_map(leg).passed

    def test_pushout_spectra_valid(self):
        s = sphere_spectrum(2, 3)
        po = pushout_spectra(spectrum_identity(s), spectrum_identity(s))
        assert validate_spectrum(po.obj).passed
        assert validate_spectrum_map(po.legs[0]).passed


class TestActions:
    def test_realized_action_matches_place_permutation(self):
        s = sphere_spectrum(N, D)
        for p in permutations(range(3)):
            assert realize_perm(s, 3, p).components == sphere_perm_map(3, D, p).components

    def test_realization_is_a_homomorphism(self):
        # word-independence: both routes to p∘q give equal tables
        s = sphere_spectrum(N, D)
        perms3 = list(permutations(range(3)))
        for p in perms3:
            for q in perms3:
                direct = realize_perm(s, 3, compose_perm(p, q))
                steps = compose_sset_maps(realize_perm(s, 3, q), realize_perm(s, 3, p))
                assert direct.components == steps.components


class TestIteratedSigma:
    def test_concatenation_on_spheres(self):
        s = sphere_spectrum(N, D)
        lam = iterated_sigma(s, 2, 1)
        # lam sends (u, v) ∧ w to the 3-tuple (u, v, w); spot-check sizes
        assert lam.cod == s.levels[3]
        assert validate_sset(lam.dom).passed
        for k in range(D + 1):
            assert lam.components[k].cod.size == s.levels[3].levels[k].size

    def test_unit_case_is_identity(self):
        s = sphere_spectrum(N, D)
        lam = iterated_sigma(s, 0, 2)
        assert all(tuple(c.table) == tuple(range(c.dom.size)) for c in lam.components)


class TestDayTensor:
    def test_level0_is_single_summand(self):
        t = day_tensor(bar_s(N, D), sphere_spectrum(N, D), 0)
        assert len(t.summands) == 1

    def test_level1_has_two_summands(self):
        t = day_tensor(bar_s(N, D), sphere_spectrum(N, D), 1)
        assert [(s.p, s.q) for s in t.summands] == [(0, 1), (1, 0)]

    def test_level2_has_four_summands(self):
        t = day_tensor(bar_s(N, D), bar_s(N, D), 2)
        assert len(t.summands) == 4
        assert sum(1 for s in t.summands if (s.p, s.q) == (1, 1)) == 2

    def test_action_generators_validate(self):
        t = day_tensor(sphere_spectrum(N, D), sphere_spectrum(N, D), 2)
        for g in t.gens:
            assert is_iso_ssetmap(g)


class TestUnitOracle:
    def test_unit_iso_for_builtins(self):
        for x in (sphere_spectrum(N, D), bar_s(N, D)):
            for n in range(N + 1):
                assert unit_oracle(x, n).report.passed

    def test_unit_iso_for_suspension(self):
        x = smash_spectrum_sset(sphere_spectrum(N, D), two_cell_sset(D))
        for n in range(N + 1):
            assert unit_oracle(x, n).report.passed

    def test_right_unit_against_bar(self):
        # (bar ∧_S S)(n) is the n-th level of bar: collapse with the
        # right total action and compare sizes levelwise
        from latchcheck.perms import chi
        from latchcheck.simplicial import SimplicialMap
        from latchcheck.spectra import right_action

        b, s = bar_s(N, D), sphere_spectrum(N, D)
        for n in range(N + 1):
            sm = smash_over_s(b, s, n)
            legs = []
            for summand in sm.tensor.summands:
                ra = right_action(b, summand.p, summand.q)
                act = realize_perm(b, n, summand.gamma)
                legs.append(compose_sset_maps(
                    SimplicialMap(summand.sset, ra.cod, ra.components), act))
            psi = sm.tensor.cone.factor(legs)
            back = sm.cone.factor([psi])
            assert all(is_iso(c) for c in back.components)


class TestSpectralLatching:
    def test_latching_level0_is_point(self):
        for x in (sphere_spectrum(N, D), bar_s(N, D)):
            l0 = spectral_latching(x, 0)
            assert all(p.size == 1 for p in l0.obj.levels)

    def test_nu2_of_bar_is_not_mono_with_witness(self):
        b = bar_s(N, D)
        l2 = spectral_latching(b, 2)
        rep = is_mono_ssetmap(l2.nu, location=(("spectral_level", 2),))
        assert not rep.passed
        k = rep.witness.locate("dim")
        i, j = rep.witness.pair
        # the witness replays: re-evaluating the cited component reproduces it
        assert i != j
        assert l2.nu.components[k].table[i] == l2.nu.components[k].table[j]

    def test_latching_of_sphere_is_bar_level(self):
        s = sphere_spectrum(N, D)
        for n in range(N + 1):
            ln = spectral_latching(s, n)
            assert is_mono_ssetmap(ln.nu).passed
            bar_sizes = [p.size for p in bar_s(N, D).levels[n].levels]
            assert [p.size for p in ln.obj.levels] == bar_sizes
            if n >= 1:
                assert is_iso_ssetmap(ln.nu)

    def test_nu_is_equivariant(self):
        s = sphere_spectrum(N, D)
        l2 = spectral_latching(s, 2)
        for g_l, g_x in zip(l2.gens, s.gens[2]):
            lhs = compose_sset_maps(g_l, l2.nu)
            rhs = compose_sset_maps(l2.nu, g_x)
            assert lhs.components == rhs.components

    def test_nu_naturality(self):
        f = bar_to_sphere(N, D)
        for n in range(N + 1):
            lf = latching_map_of_spectrum_map(f, n)
            lhs = compose_sset_maps(lf, spectral_latching(f.cod, n).nu)
            rhs = compose_sset_maps(spectral_latching(f.dom, n).nu, f.components[n])
            assert lhs.components == rhs.components

    def test_latching_functorial_on_composites(self):
        x = smash_spectrum_sset(sphere_spectrum(N, D), two_cell_sset(D))
        w = wedge_spectra([sphere_spectrum(N, D), x])
        f = w.legs[0]
        g = spectrum_identity(w.obj)
        for n in (1, 2):
            direct = latching_map_of_spectrum_map(compose_spectrum_maps(f, g), n)
            steps = compose_sset_maps(latching_map_of_spectrum_map(f, n),
                                      latching_map_of_spectrum_map(g, n))
            assert direct.components == steps.components


class TestClassifiers:
    def test_identity_corner_is_iso(self):
        s = sphere_spectrum(N, D)
        for n in range(N + 1):
            corner = latching_corner(spectrum_identity(s), n)
            assert is_iso_ssetmap(corner.map)

    def test_zero_source_corner_is_nu(self):
        s = sphere_spectrum(N, D)
        for n in range(N + 1):
            corner = latching_corner(from_zero(s), n)
            assert corner.map.components == spectral_latching(s, n).nu.components

    def test_sphere_is_flat_but_not_positive(self):
        rep = cofibrant_report(sphere_spectrum(N, D), "flat")
        assert rep.passed
        rep_pos = cofibrant_report(sphere_spectrum(N, D), "positive-flat")
        assert not rep_pos.passed
        assert rep_pos.failure_kind == "level0-iso"

    def test_bar_is_not_flat_at_level_2(self):
        rep = cofibrant_report(bar_s(N, D), "flat")
        assert not rep.passed
        assert rep.witness.locate("spectral_level") == 2
        assert rep.witness.provenance

    def test_bar_is_levelwise(self):
        assert cofibrant_report(bar_s(N, D), "levelwise").passed

    def test_wedge_inclusion_is_flat_cofibration(self):
        s = sphere_spectrum(N, D)
        x = smash_spectrum_sset(s, two_cell_sset(D))
        w = wedge_spectra([s, x])
        rep = is_flat_cofibration(w.legs[0])
        assert rep.passed
        assert is_levelwise_cofibration(w.legs[0]).passed
        # not positive: the level-0 component is a proper inclusion
        rep_pos = is_positive_flat(w.legs[0])
        assert not rep_pos.passed and rep_pos.failure_kind == "level0-iso"

    def test_flat_failure_of_smashed_bar(self):
        x = smash_spectrum_sset(bar_s(N, D), two_cell_sset(D))
        assert validate_spectrum(x).passed
        rep = cofibrant_report(x, "flat")
        assert not rep.passed
        assert rep.witness.locate("spectral_level") == 2

    def test_positive_levelwise_for_identity(self):
        s = sphere_spectrum(N, D)
        assert is_positive_levelwise(spectrum_identity(s)).passed

    def test_flat_implies_levelwise_on_sample(self):
        s = sphere_spectrum(N, D)
        x = smash_spectrum_sset(s, two_cell_sset(D))
        cases = [from_zero(s), from_zero(x), wedge_spectra([s, x]).legs[0],
                 spectrum_identity(x), bar_to_sphere(N, D), from_zero(bar_s(N, D))]
        for f in cases:
            if is_flat_cofibration(f).passed:
                assert is_levelwise_cofibration(f).passed


class TestMemoizationIdempotence:
    def test_concurrent_realization_is_consistent(self):
        # memo fills must behave as-if-pure under shared concurrent use
        import threading
        from itertools import permutations as perms

        s = sphere_spectrum(3, 3)
        results = []

        def worker():
            local = []
            for p in perms(range(3)):
                local.append(realize_perm(s, 3, p).components)
            results.append(tuple(local))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


def relation_quotient(a, b, n, every_block=False):
    """The canonical quotient tables of (A ⊗ B)(n) by the relation of the
    smash over S, one per dimension."""
    t2 = day_tensor(a, b, n)
    u1, u2 = spectra._triple_relation_maps(a, b, n, t2, every_block=every_block)
    return tuple(m.table for m in coequalizer_ssets(u1, u2).legs[0].components)


def assert_circle_generates(a, b):
    for n in range(b.strunc + 1):
        assert relation_quotient(a, b, n) == relation_quotient(a, b, n, every_block=True), n


def _distinct(xs):
    out = []
    for x in xs:
        if not any(x is y for y in out):
            out.append(x)
    return out


class TestTripleTensorUnitSummands:
    def test_relation_maps_agree_on_empty_middle_block(self):
        # the q = 0 summands of the full relation map equally on both sides
        a = sphere_spectrum(2, 3)
        x = smash_spectrum_sset(sphere_spectrum(2, 3), two_cell_sset(3))
        for n in (1, 2):
            t2 = day_tensor(a, x, n)
            u1, u2 = spectra._triple_relation_maps(a, x, n, t2, every_block=True)
            for k in range(4):
                # the wedge lays the summands out in plan order: p, then q, then shuffles
                sizes = []
                for p in range(n + 1):
                    for q in range(n - p + 1):
                        r = n - p - q
                        block = ((a.levels[p].levels[k].size - 1) * (sphere(q, 3).levels[k].size - 1)
                                 * (x.levels[r].levels[k].size - 1))
                        sizes += [(q, block)] * len(list(multi_shuffles((p, q, r))))
                assert 1 + sum(size for _, size in sizes) == u1.dom.levels[k].size
                start, unit_cells = 1, 0
                for q, size in sizes:
                    if q == 0:
                        rows = slice(start, start + size)
                        assert u1.components[k].table[rows] == u2.components[k].table[rows]
                        unit_cells += size
                    start += size
                assert unit_cells > 0 or k == 0


class TestCircleGeneratesTheRelation:
    """The relation of the smash over S, built from the one-letter (q = 1)
    summands alone, has the same quotient as the one built from every
    middle block q = 0..n."""

    def test_builtins_against_bar_s_and_sphere(self):
        from latchcheck.builtins_corpus import BUILTIN_NAMES, builtin
        from latchcheck.reedy import SimplicialSpectrum, SimplicialSpectrumMap

        targets = []
        for name in BUILTIN_NAMES:
            obj = builtin(name)
            if isinstance(obj, SymSpectrum):
                targets.append(obj)
            elif isinstance(obj, SimplicialSpectrum):
                targets += obj.degrees
            elif isinstance(obj, SimplicialSpectrumMap):
                targets += obj.dom.degrees + obj.cod.degrees
        targets = _distinct(targets)
        assert len(targets) >= 5
        for x in targets:
            for a in (bar_s(x.strunc, x.dtrunc), sphere_spectrum(x.strunc, x.dtrunc)):
                assert_circle_generates(a, x)

    @pytest.mark.parametrize("strunc,dtrunc", [(2, 3), (3, 3), (3, 4)])
    def test_generated_spectra(self, strunc, dtrunc):
        import random

        from latchcheck.generators import gen_spectrum

        rng = random.Random(strunc * 10 + dtrunc)
        for _ in range(15):
            x = gen_spectrum(rng, strunc, dtrunc)
            for a in (bar_s(strunc, dtrunc), sphere_spectrum(strunc, dtrunc)):
                assert_circle_generates(a, x)

    @pytest.mark.parametrize("suite", ["4.2", "1.4"])
    def test_spectra_latched_by_a_suite(self, suite, monkeypatch):
        from latchcheck.suites import run_suite

        latched = []
        real_compute = spectra._compute_latching

        def computing(x, n):
            latched.append(x)
            return real_compute(x, n)

        monkeypatch.setattr(spectra, "_compute_latching", computing)
        assert run_suite(suite, seed=1, cases=1, strategy="adversarial").passed
        monkeypatch.undo()
        assert latched
        for x in _distinct(latched):
            assert_circle_generates(bar_s(x.strunc, x.dtrunc), x)


class TestColimitsOfSpectra:
    def test_coequalizer_of_equal_pair(self):
        s = sphere_spectrum(2, 3)
        co = coequalizer_spectra(spectrum_identity(s), spectrum_identity(s))
        assert validate_spectrum(co.obj).passed
        for n in range(3):
            assert is_iso_ssetmap(co.legs[0].components[n])

    def test_smash_map_preserves_validity(self):
        f = bar_to_sphere(2, 3)
        g = smash_spectrum_map_sset(f, two_cell_sset(3))
        assert validate_spectrum_map(g).passed


def relabelled_copy(x, tag):
    """A separately built spectrum with x's tables and labels tag1, tag2..."""
    doc = loads(dumps(x))
    levels = []
    for lvl in doc.levels:
        parts = [PointedSet(p.size, ("*",) + tuple(f"{tag}{i}" for i in range(1, p.size)))
                 for p in lvl.levels]
        levels.append(type(lvl)(lvl.trunc, tuple(parts), lvl.faces, lvl.degens))
    return SymSpectrum(doc.strunc, doc.dtrunc, tuple(levels), doc.gens, doc.sigmas)


class TestLatchingSharedByContent:
    def test_equal_copies_compute_each_level_once(self, monkeypatch):
        base = smash_spectrum_sset(sphere_spectrum(2, 2), two_cell_sset(2))
        a = relabelled_copy(base, "shared")
        b = relabelled_copy(base, "shared")
        assert a == b and a is not b
        calls = []
        real = spectra.day_tensor

        def counting(left, right, n):
            calls.append((left, right, n))
            return real(left, right, n)

        monkeypatch.setattr(spectra, "day_tensor", counting)
        for n in range(3):
            assert spectral_latching(a, n) is spectral_latching(b, n)
        # one tensor per level, with the truncated sphere, on the first copy
        assert all(left is bar_s(2, 2) and right is a for left, right, _ in calls)
        assert sorted(n for _, _, n in calls) == [0, 1, 2]

    def test_copies_differing_in_labels_keep_their_own_text(self):
        base = smash_spectrum_sset(sphere_spectrum(2, 2), two_cell_sset(2))
        a = relabelled_copy(base, "alpha")
        b = relabelled_copy(base, "beta")
        assert a == b
        for n in range(3):
            la, lb = spectral_latching(a, n), spectral_latching(b, n)
            assert la is not lb
            assert la.nu.cod.levels == lb.nu.cod.levels
            for k in range(3):
                assert la.nu.cod.levels[k].labels == a.levels[n].levels[k].labels
                assert lb.nu.cod.levels[k].labels == b.levels[n].levels[k].labels
                texts = [la.describe(k, i) for i in range(la.obj.levels[k].size)]
                assert [t.replace("alpha", "beta") for t in texts] == \
                    [lb.describe(k, i) for i in range(lb.obj.levels[k].size)]
        assert any("alpha" in la.describe(k, i) for k in range(3)
                   for i in range(la.obj.levels[k].size))

    @pytest.mark.parametrize("suite", ["4.2", "1.4"])
    def test_shared_levels_match_direct_computation(self, suite, monkeypatch):
        from latchcheck.suites import run_suite

        seen = []
        computed_on = []
        real_latching, real_compute = spectra.spectral_latching, spectra._compute_latching

        def recording(x, n):
            out = real_latching(x, n)
            seen.append((x, n, out))
            return out

        def computing(x, n):
            computed_on.append(id(x))
            return real_compute(x, n)

        monkeypatch.setattr(spectra, "spectral_latching", recording)
        monkeypatch.setattr(spectra, "_compute_latching", computing)
        summary = run_suite(suite, seed=1, cases=2, strategy="adversarial")
        assert summary.passed
        monkeypatch.undo()
        # some levels were shared between distinct objects
        assert len({(id(x), n) for x, n, _ in seen}) > len(computed_on)
        direct: dict = {}
        for x, n, out in seen:
            key = (x, n)
            if key not in direct:
                # a fresh copy with an empty memo, outside the shared table
                fresh = SymSpectrum(x.strunc, x.dtrunc, x.levels, x.gens, x.sigmas)
                direct[key] = real_compute(fresh, n)
            ref = direct[key]
            assert out.nu == ref.nu and out.gens == ref.gens
            for k in range(x.dtrunc + 1):
                assert out.nu.cod.levels[k].labels == x.levels[n].levels[k].labels

    def test_concurrent_copies_agree(self):
        # threads racing on the shared table may each compute a level, but
        # every copy must end with the same tables
        import sys
        import threading

        base = smash_spectrum_sset(sphere_spectrum(2, 2), two_cell_sset(2))
        copies = [relabelled_copy(base, "race") for _ in range(8)]
        results = {}

        def worker(i):
            results[i] = tuple(spectral_latching(copies[i], n).nu for n in range(3))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 and len(set(results.values())) == 1

    def test_shared_table_keeps_nothing_alive(self):
        base = smash_spectrum_sset(sphere_spectrum(2, 2), two_cell_sset(2))
        a = relabelled_copy(base, "transient")
        b = relabelled_copy(base, "transient")
        results = [spectral_latching(a, n) for n in range(3)]
        assert spectral_latching(b, 2) is results[2]
        refs = [weakref.ref(a), weakref.ref(b)] + [weakref.ref(r) for r in results]
        del a, b, results
        gc.collect()
        assert all(r() is None for r in refs)


def unit_iso_latching(x, n):
    """Latching level n by the unit-isomorphism route: the map from the
    truncated sphere's smash into S ∧_S X induced by bar_to_sphere, then
    the inverse of the certified unit isomorphism."""
    sm_bar = smash_over_s(bar_s(x.strunc, x.dtrunc), x, n)
    sm_s = smash_over_s(sphere_spectrum(x.strunc, x.dtrunc), x, n)
    unit = unit_oracle(x, n)
    assert unit.report.passed
    incl = bar_to_sphere(x.strunc, x.dtrunc)
    legs = []
    for summand in sm_bar.tensor.summands:
        tgt = sm_s.tensor.summands[sm_s.tensor.index_of[(summand.p, summand.q, summand.gamma)]]
        local = smash_sset_maps(incl.components[summand.p], sset_identity(x.levels[summand.q]))
        legs.append(compose_sset_maps(compose_sset_maps(
            SimplicialMap(summand.sset, local.cod, local.components), tgt.leg), sm_s.cone.legs[0]))
    w = sm_bar.cone.factor([sm_bar.tensor.cone.factor(legs)])
    return sm_bar, compose_sset_maps(w, unit.back)


class TestLatchingAgainstUnitIso:
    @pytest.mark.parametrize("suite", ["4.2", "1.4", "3.2"])
    def test_action_induced_nu_matches_unit_iso_route(self, suite, monkeypatch):
        from latchcheck.suites import run_suite

        # every level the suite reads, computed now or shared from a memo
        seen = {}
        real_latching = spectra.spectral_latching

        def recording(x, n):
            out = real_latching(x, n)
            seen.setdefault((x, spectra._labels(x), n), (x, n, out))
            return out

        monkeypatch.setattr(spectra, "spectral_latching", recording)
        assert run_suite(suite, seed=1, cases=2, strategy="adversarial").passed
        monkeypatch.undo()
        assert seen
        for x, n, out in seen.values():
            # a fresh copy, so the oracle builds everything from the tables
            fresh = SymSpectrum(x.strunc, x.dtrunc, x.levels, x.gens, x.sigmas)
            sm_bar, nu = unit_iso_latching(fresh, n)
            assert out.nu.dom == nu.dom and out.nu.cod == nu.cod
            assert out.nu.components == nu.components
            for k in range(x.dtrunc + 1):
                assert out.nu.cod.levels[k].labels == nu.cod.levels[k].labels
                assert [out.describe(k, i) for i in range(out.obj.levels[k].size)] == \
                    [sm_bar.describe(k, i) for i in range(sm_bar.obj.levels[k].size)]


_HOT_PATH_PROBE = """
import json
from latchcheck import spectra
from latchcheck.suites import run_suite

oracle_calls, left_factors = [], []
real_oracle, real_smash = spectra.unit_oracle, spectra.smash_over_s

def oracle(x, n):
    oracle_calls.append(n)
    return real_oracle(x, n)

def smash(a, b, n):
    left_factors.append(a is spectra.bar_s(a.strunc, a.dtrunc))
    return real_smash(a, b, n)

spectra.unit_oracle, spectra.smash_over_s = oracle, smash
run_suite("4.2", 1, cases=1, strategy="adversarial")
print(json.dumps({"oracle": len(oracle_calls), "left_is_bar": left_factors}))
"""


class TestLatchingHotPath:
    def test_suite_never_runs_the_unit_oracle(self):
        # a fresh interpreter, so no memo filled by other tests hides the calls
        import json
        import subprocess
        import sys

        proc = subprocess.run([sys.executable, "-c", _HOT_PATH_PROBE],
                              capture_output=True, text=True, check=True)
        counts = json.loads(proc.stdout.strip().splitlines()[-1])
        assert counts["oracle"] == 0
        assert counts["left_is_bar"] and all(counts["left_is_bar"])
