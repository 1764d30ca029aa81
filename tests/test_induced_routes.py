"""The maps between same-shape colimits that `pointed.induced` builds,
held to the compose-and-factor routes they replaced: the latching map of
a spectrum map, the latching map of a simplicial object map in all three
ambients, and the degreewise cofiber."""
from __future__ import annotations

import random

import pytest

from latchcheck import spectra
from latchcheck.builtins_corpus import builtin
from latchcheck.documents import to_document
from latchcheck.generators import gen_sset
from latchcheck.pointed import MismatchError, PointedMap
from latchcheck.reedy import (
    SetsAmbient,
    SimplicialSpectrum,
    SimplicialSpectrumMap,
    SimplicialView,
    SpectrumAmbient,
    SsetAmbient,
    from_zero_simplicial,
    latching_of_map,
    pointwise_cofiber,
    simplicial_latching,
    view_of_simplicial_spectrum,
    view_of_sset,
)
from latchcheck.simplicial import (
    SimplicialMap,
    SimplicialSet,
    compose_sset_maps,
    operator_rows,
    smash_sset_maps,
    sset_identity,
)
from latchcheck.spectra import (
    SymSpectrum,
    bar_s,
    compose_spectrum_maps,
    pushout_spectra,
    spectral_latching,
    spectrum_zero_map,
    zero_spectrum,
)


# ---------------------------------------------------------------------------
# the compose-and-factor routes, kept as oracles


def factored_latching_map(f, n):
    """L_nX -> L_nY by composing each summand's map with the target's leg
    and quotient, then factoring through the wedge and the coequalizer."""
    lx = spectral_latching(f.dom, n)
    ly = spectral_latching(f.cod, n)
    tx, ty = lx.smash.tensor, ly.smash.tensor
    legs = []
    for s in tx.summands:
        tgt = ty.summands[ty.index_of[(s.p, s.q, s.gamma)]]
        local = smash_sset_maps(sset_identity(bar_s(f.dom.strunc, f.dom.dtrunc).levels[s.p]),
                                f.components[s.q])
        legs.append(compose_sset_maps(compose_sset_maps(
            SimplicialMap(s.sset, local.cod, local.components), tgt.leg), ly.smash.cone.legs[0]))
    return lx.smash.cone.factor([tx.cone.factor(legs)])


def factored_latching_of_map(comp_at, n, ambient, lx, ly):
    """The degree-(n-1) component followed by each summand's way into the
    target's latching object, mediated through the source's scaffold."""
    if n == 0:
        return ambient.identity(lx.obj)
    if n == 1:
        return comp_at(0)
    sy = ly.scaffold
    return lx.scaffold.mediate([
        ambient.compose(comp_at(n - 1), ambient.compose(leg, sy.quotient.legs[0]))
        for leg in sy.summands.legs
    ])


def pushout_cofiber(f):
    """Z_m = Y_m ⊔_{X_m} 0 by pushout_spectra, with the operators of Y
    factored through the pushouts."""
    x, y = f.dom, f.cod
    k = x.ktrunc
    zero = zero_spectrum(x.strunc, x.dtrunc)
    cones = [pushout_spectra(f.components[m], spectrum_zero_map(x.degrees[m], zero))
             for m in range(k + 1)]
    degrees = tuple(c.obj for c in cones)

    def induce(m_from, m_to, op):
        u = compose_spectrum_maps(op, cones[m_to].legs[0])
        return cones[m_from].factor([u, spectrum_zero_map(zero, degrees[m_to])])

    z = SimplicialSpectrum(k, degrees, *operator_rows(
        k, lambda m, i: induce(m, m - 1, y.faces[m][i]),
        lambda m, i: induce(m, m + 1, y.degens[m][i])))
    return z, SimplicialSpectrumMap(y, z, tuple(c.legs[0] for c in cones))


# ---------------------------------------------------------------------------
# inputs


def _thm14_maps():
    f = builtin("thm14-demo")
    return [f, pointwise_cofiber(f)[1], from_zero_simplicial(builtin("good-demo")),
            from_zero_simplicial(builtin("constant-sphere"))]


def _part(obj, m, d=None):
    """The level-m slice of a spectrum or spectrum map, or its level-m,
    dim-d slice."""
    part = obj.levels[m] if isinstance(obj, SymSpectrum) else obj.components[m]
    if d is None:
        return part
    return part.levels[d] if isinstance(part, SimplicialSet) else part.components[d]


def _slices(f: SimplicialSpectrumMap):
    """(view of dom, view of cod, components, ambient) for f itself, for
    its slice at every spectral level (simplicial sets) and at every level
    and dim (pointed sets)."""
    x, y, k = f.dom, f.cod, f.dom.ktrunc
    yield (view_of_simplicial_spectrum(x), view_of_simplicial_spectrum(y),
           lambda e: f.components[e], SpectrumAmbient(x.strunc, x.dtrunc))
    cells = [(m, None, SsetAmbient(x.dtrunc)) for m in range(x.strunc + 1)]
    cells += [(m, d, SetsAmbient()) for m in range(x.strunc + 1) for d in range(x.dtrunc + 1)]
    for m, d, ambient in cells:
        def view(s, m=m, d=d):
            return SimplicialView(top=k, obj_at=lambda e: _part(s.degrees[e], m, d),
                                  degen_at=lambda e, i: _part(s.degens[e][i], m, d))
        yield view(x), view(y), lambda e, m=m, d=d: _part(f.components[e], m, d), ambient


# ---------------------------------------------------------------------------
# tests


class TestLatchingMapOfSpectrumMap:
    def test_thm14_components_every_level(self):
        for f in _thm14_maps():
            for comp in f.components:
                for n in range(comp.dom.strunc + 1):
                    new = spectra.latching_map_of_spectrum_map(comp, n)
                    old = factored_latching_map(comp, n)
                    assert (new.dom, new.cod, new.components) == (old.dom, old.cod, old.components)

    @pytest.mark.parametrize("suite", ["4.2", "1.4"])
    def test_maps_a_suite_reads(self, suite, monkeypatch):
        from latchcheck.suites import run_suite

        seen = []
        real = spectra.latching_map_of_spectrum_map

        def recording(f, n):
            out = real(f, n)
            seen.append((f, n, out))
            return out

        monkeypatch.setattr(spectra, "latching_map_of_spectrum_map", recording)
        run_suite(suite, seed=1, cases=2, strategy="adversarial")
        monkeypatch.undo()
        assert seen
        for f, n, new in seen:
            old = factored_latching_map(f, n)
            assert new.components == old.components and new.cod == old.cod


class TestLatchingOfMap:
    def test_three_ambients(self):
        kinds = set()
        for f in _thm14_maps():
            for dv, cv, comp_at, ambient in _slices(f):
                kinds.add(type(ambient).__name__)
                for n in range(dv.top + 1):
                    lx = simplicial_latching(dv, n, ambient)
                    ly = simplicial_latching(cv, n, ambient)
                    new = latching_of_map(comp_at, n, ambient, lx, ly)
                    old = factored_latching_of_map(comp_at, n, ambient, lx, ly)
                    assert new == old
        assert kinds == {"SetsAmbient", "SsetAmbient", "SpectrumAmbient"}

    def test_unnatural_components_raise(self):
        # swap a degenerate 1-cell s0(x), x != *, with a nondegenerate one:
        # the two summands' copies of s0(x) land apart in the target
        ambient = SetsAmbient()
        tried = 0
        for seed in range(40):
            s = gen_sset(random.Random(seed), 2, max_base=3, max_new=2)
            degenerate = {s.degens[0][0].table[i] for i in range(1, s.levels[0].size)}
            fresh = [e for e in range(1, s.levels[1].size) if e not in degenerate]
            if not degenerate or not fresh:
                continue
            tried += 1
            d, e = min(degenerate), fresh[0]
            table = list(range(s.levels[1].size))
            table[d], table[e] = e, d
            swap = PointedMap(s.levels[1], s.levels[1], tuple(table))
            comps = [sset_identity(s).components[0], swap]
            lx = simplicial_latching(view_of_sset(s), 2, ambient)
            with pytest.raises(MismatchError):
                latching_of_map(lambda k: comps[k], 2, ambient, lx, lx)
            with pytest.raises(MismatchError):
                factored_latching_of_map(lambda k: comps[k], 2, ambient, lx, lx)
        assert tried >= 3


class TestPointwiseCofiber:
    def test_against_degreewise_pushouts(self):
        for f in _thm14_maps():
            z, proj = pointwise_cofiber(f)
            z_old, proj_old = pushout_cofiber(f)
            assert to_document(z) == to_document(z_old)
            assert proj.components == proj_old.components
