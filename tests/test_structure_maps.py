"""The structure maps, iterated structure maps and right action built from
the kernel's smash pairing, held to the index-by-index constructions
they replaced.

Each oracle below re-derives its map one smash index at a time through
`smash_index` and the sphere codec: the concatenation structure maps of
the sphere spectrum (the level-0 one separately), the iterated structure
map, the right action, the structure map of a levelwise colimit, which
checks single-valuedness on every member of a class, and the structure
map of X ∧ A.  The tests compare tables with the package's maps on the
sphere and truncated sphere spectra, every builtin, generated spectra
and colimits of generated pairs, and check that a quotient which
sigma does not respect still raises MismatchError.
"""
from __future__ import annotations

import random

import pytest

from latchcheck import pointed
from latchcheck.builtins_corpus import BUILTIN_NAMES, builtin
from latchcheck.generators import (
    _congruence,
    _quotient_ssets,
    _sset_images,
    gen_spectrum,
    gen_sset,
    suspension_spectrum,
)
from latchcheck.perms import chi
from latchcheck.pointed import MismatchError
from latchcheck.reedy import SimplicialSpectrum, SimplicialSpectrumMap
from latchcheck.simplicial import (
    SimplicialMap,
    circle,
    sphere,
    sphere_decode_index,
    sphere_encode_tuple,
)
from latchcheck.spectra import (
    SymSpectrum,
    bar_s,
    coequalizer_spectra,
    compose_spectrum_maps,
    iterated_sigma,
    lift_spectra,
    pushout_spectra,
    realize_perm,
    right_action,
    smash_spectrum_sset,
    spectrum_zero_map,
    sphere_spectrum,
    wedge_spectra,
)

smash_index = pointed.smash_index
smash_sets = pointed.smash_sets


def tables(m: SimplicialMap) -> list:
    return [c.table for c in m.components]


# ---------------------------------------------------------------------------
# the index-by-index oracles


def oracle_level0_sigma(d: int) -> list:
    """circle ∧ sphere(0) -> sphere(1): drop the unit coordinate."""
    out = []
    for k in range(d + 1):
        ca, s0 = circle(d).levels[k], sphere(0, d).levels[k]
        table = [0] * smash_sets(ca, s0).size
        for a in range(1, ca.size):
            table[smash_index(ca, s0, a, 1)] = a
        out.append(tuple(table))
    return out


def oracle_concat_sigma(n: int, d: int) -> list:
    """circle ∧ sphere(n) -> sphere(n+1), n >= 1, through the codec."""
    out = []
    for k in range(d + 1):
        ca, sn = circle(d).levels[k], sphere(n, d).levels[k]
        table = [0] * smash_sets(ca, sn).size
        for a in range(1, ca.size):
            for t in range(1, sn.size):
                tup = (a,) + sphere_decode_index(n, k, t)
                table[smash_index(ca, sn, a, t)] = sphere_encode_tuple(n + 1, k, tup)
        out.append(tuple(table))
    return out


def oracle_iterated_sigma(x: SymSpectrum, q: int, r: int) -> list:
    """lam^q, decoding the first circle letter of each sphere cell."""
    d = x.dtrunc
    if q == 0:
        return [tuple(range(l.size)) for l in x.levels[r].levels]
    if q == 1:
        return tables(x.sigmas[r])
    prev = oracle_iterated_sigma(x, q - 1, r)
    out = []
    for k in range(d + 1):
        sq, xr = sphere(q, d).levels[k], x.levels[r].levels[k]
        sq1, circ = sphere(q - 1, d).levels[k], circle(d).levels[k]
        xmid = x.levels[q - 1 + r].levels[k]
        sig = x.sigmas[q - 1 + r].components[k]
        table = [0] * smash_sets(sq, xr).size
        for si in range(1, sq.size):
            tup = sphere_decode_index(q, k, si)
            rest = sphere_encode_tuple(q - 1, k, tup[1:]) if k > 0 else 0
            for xi in range(1, xr.size):
                z = prev[k][smash_index(sq1, xr, rest, xi)]
                table[smash_index(sq, xr, si, xi)] = sig.table[smash_index(circ, xmid, tup[0], z)]
        out.append(tuple(table))
    return out


def oracle_right_action(x: SymSpectrum, p: int, q: int) -> list:
    """Swap each pair by hand, then lam^q, then the chi(q, p) twist."""
    lam = oracle_iterated_sigma(x, q, p)
    twist = realize_perm(x, p + q, chi(q, p))
    out = []
    for k in range(x.dtrunc + 1):
        xp, sq = x.levels[p].levels[k], sphere(q, x.dtrunc).levels[k]
        table = [0] * smash_sets(xp, sq).size
        for a in range(1, xp.size):
            for s in range(1, sq.size):
                v = lam[k][smash_index(sq, xp, s, a)]
                table[smash_index(xp, sq, a, s)] = twist.components[k].table[v]
        out.append(tuple(table))
    return out


def oracle_induced_sigma(n: int, d: int, pieces, cone_n, cone_n1) -> list:
    """Chase every element of every piece, asserting one value per index
    and that every index is hit."""
    obj_n = cone_n.obj
    out = []
    for k in range(d + 1):
        ca, qn = circle(d).levels[k], obj_n.levels[k]
        table = [-1] * smash_sets(ca, qn).size
        table[0] = 0
        for j, piece in enumerate(pieces):
            leg_n = cone_n.legs[j].components[k]
            leg_n1 = cone_n1.legs[j].components[k]
            sig = piece.sigmas[n].components[k]
            pk = piece.levels[n].levels[k]
            for a in range(1, ca.size):
                for y in range(pk.size):
                    idx = smash_index(ca, qn, a, leg_n.table[y])
                    val = leg_n1.table[sig.table[smash_index(ca, pk, a, y)]]
                    if table[idx] < 0:
                        table[idx] = val
                    elif table[idx] != val:
                        raise MismatchError("structure map is not well defined on the colimit")
        if any(v < 0 for v in table):
            raise MismatchError("structure map left an element of the colimit uncovered")
        out.append(tuple(table))
    return out


def oracle_smash_sigma(x: SymSpectrum, a, n: int) -> list:
    """sigma_n of X ∧ A, re-associating circle ∧ (X(n) ∧ A) by hand."""
    out = []
    for k in range(x.dtrunc + 1):
        ca, xn, ak = circle(x.dtrunc).levels[k], x.levels[n].levels[k], a.levels[k]
        xa, xn1 = smash_sets(xn, ak), x.levels[n + 1].levels[k]
        sig = x.sigmas[n].components[k]
        table = [0] * smash_sets(ca, xa).size
        for c in range(1, ca.size):
            for xi in range(1, xn.size):
                for ai in range(1, ak.size):
                    idx = smash_index(ca, xa, c, smash_index(xn, ak, xi, ai))
                    table[idx] = smash_index(xn1, ak, sig.table[smash_index(ca, xn, c, xi)], ai)
        out.append(tuple(table))
    return out


# ---------------------------------------------------------------------------
# comparisons


def assert_actions_agree(x: SymSpectrum) -> None:
    """Every valid lam^q out of X(r) and every right action X(p) ∧ S(q)."""
    for r in range(x.strunc + 1):
        for q in range(x.strunc - r + 1):
            assert tables(iterated_sigma(x, q, r)) == oracle_iterated_sigma(x, q, r), (q, r)
            assert tables(right_action(x, r, q)) == oracle_right_action(x, r, q), (r, q)


def assert_colimit_sigmas_agree(cone, pieces) -> None:
    x = cone.obj
    for n in range(x.strunc):
        assert tables(x.sigmas[n]) == oracle_induced_sigma(
            n, x.dtrunc, pieces, cone.cells[n], cone.cells[n + 1]), n


def spectra_of(obj) -> list:
    if isinstance(obj, SymSpectrum):
        return [obj]
    if isinstance(obj, SimplicialSpectrum):
        return list(obj.degrees)
    if isinstance(obj, SimplicialSpectrumMap):
        return list(obj.dom.degrees) + list(obj.cod.degrees)
    raise TypeError(type(obj).__name__)


SPHERE_TRUNCATIONS = ((0, 2), (1, 1), (2, 3), (3, 4))


@pytest.mark.parametrize("strunc,dtrunc", SPHERE_TRUNCATIONS)
def test_sphere_structure_maps(strunc, dtrunc):
    s = sphere_spectrum(strunc, dtrunc)
    for n, sig in enumerate(s.sigmas):
        want = oracle_level0_sigma(dtrunc) if n == 0 else oracle_concat_sigma(n, dtrunc)
        assert tables(sig) == want, n
    assert_actions_agree(s)


@pytest.mark.parametrize("strunc,dtrunc", SPHERE_TRUNCATIONS)
def test_truncated_sphere_structure_maps(strunc, dtrunc):
    b = bar_s(strunc, dtrunc)
    for n, sig in enumerate(b.sigmas):
        if n == 0:
            assert all(set(t) == {0} for t in tables(sig))
        else:
            assert tables(sig) == oracle_concat_sigma(n, dtrunc), n
    assert_actions_agree(b)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_actions(name):
    for x in spectra_of(builtin(name)):
        assert_actions_agree(x)


@pytest.mark.parametrize("strunc,dtrunc", ((2, 3), (3, 4)))
def test_generated_actions(strunc, dtrunc):
    for seed in range(15):
        assert_actions_agree(gen_spectrum(random.Random(seed), strunc, dtrunc))


@pytest.mark.parametrize("seed", range(6))
def test_colimit_structure_maps(seed):
    rng = random.Random(seed)
    x, y = gen_spectrum(rng, 2, 3), gen_spectrum(rng, 2, 3)
    w, ww = wedge_spectra([x, y]), wedge_spectra([x, x])
    assert_colimit_sigmas_agree(w, [x, y])
    assert_colimit_sigmas_agree(ww, [x, x])
    for f, g in ((ww.legs[0], ww.legs[1]), (w.legs[0], spectrum_zero_map(x, w.obj))):
        assert_colimit_sigmas_agree(coequalizer_spectra(f, g), [f.cod])
    # the pushout of X v Y <- X -> X v X coequalizes into the wedge of the two
    f, g = w.legs[0], ww.legs[0]
    into = wedge_spectra([f.cod, g.cod])
    co = coequalizer_spectra(compose_spectrum_maps(f, into.legs[0]),
                             compose_spectrum_maps(g, into.legs[1]))
    assert_colimit_sigmas_agree(co, [into.obj])
    assert tables(pushout_spectra(f, g).obj.sigmas[0]) == tables(co.obj.sigmas[0])
    assert pushout_spectra(f, g).obj == co.obj


def test_smash_with_a_simplicial_set():
    bases = [bar_s(3, 3), sphere_spectrum(3, 3), gen_spectrum(random.Random(3), 3, 3)]
    for seed in range(4):
        a = gen_sset(random.Random(100 + seed), 3, 2, 1, level_cap=4)
        for x in bases:
            xa = smash_spectrum_sset(x, a)
            for n in range(x.strunc):
                assert tables(xa.sigmas[n]) == oracle_smash_sigma(x, a, n), (seed, n)
    for name in ("good-demo", "thm14-demo"):
        for x in spectra_of(builtin(name))[:2]:
            a = gen_sset(random.Random(7), x.dtrunc, 2, 1, level_cap=3)
            xa = smash_spectrum_sset(x, a)
            for n in range(x.strunc):
                assert tables(xa.sigmas[n]) == oracle_smash_sigma(x, a, n), (name, n)


def test_quotient_that_sigma_does_not_respect_raises():
    """Level 0 quotiented by a congruence closed only under faces and
    degeneracies, identity quotients above: sigma_0 descends exactly
    when the oracle finds it single-valued."""
    raised = 0
    for seed in range(30):
        x = suspension_spectrum(gen_sset(random.Random(seed), 3, 3, 2), 2)
        (q0,) = _congruence(random.Random(seed), [x.levels[0].levels], 2,
                            lambda a, l: _sset_images(x.levels[0], a, l))
        quots = [q0] + [[pointed.identity(p) for p in lvl.levels] for lvl in x.levels[1:]]
        cells = _quotient_ssets(x.levels, quots)
        try:
            want = [oracle_induced_sigma(n, x.dtrunc, [x], cells[n], cells[n + 1])
                    for n in range(x.strunc)]
        except MismatchError:
            raised += 1
            with pytest.raises(MismatchError):
                lift_spectra(cells, [x])
            continue
        assert [tables(s) for s in lift_spectra(cells, [x]).obj.sigmas] == want
    assert raised == 25

