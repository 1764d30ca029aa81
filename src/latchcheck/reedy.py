"""Simplicial objects in an ambient category and their latching calculus.

The same latching coequalizer runs uniformly over three ambients: finite
pointed sets, pointed simplicial sets (so simplicial objects there are
bisimplicial sets), and symmetric spectra.  Each ambient is a small
capability record with zero object, wedge, coequalizer, pushout, map
algebra, and a cofibration test.  Its wedge, coequalizer and pushout
return the kernel's `CoconeResult` as the ambient's own colimit
functions build it, and the latching code reads only its obj, legs and
factor.  Colimits of spectra are computed levelwise and colimits of
simplicial sets pointwise, all through the kernel's one lifting
(`pointed.lift`), so the spectrum ambient's slice at a fixed level and
dimension agrees table-for-table with the pointed-set ambient (tested).
The wedge of simplicial spectra is the same lifting once more, over the
degree x level x dim grid: its faces and degeneracies are induced cell
by cell by `pointed.induced` from the degreewise wedges of spectra.

The latching object at degree n is the coequalizer of the two shuffled
coproducts of degeneracies; at degree 0 it is the zero object, at degree
1 it is the degree-0 object with its degeneracy as comparison map.  The
comparison map exists because the two composites into degree n agree,
which is asserted on tables before factoring rather than assumed.

Realization is the levelwise `simplicial.diagonal` of the associated
bisimplicial sets and requires square truncation.  Verdicts are
truncation-qualified: a pass means "up to (K, N, D)", never the
untruncated statement.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import pointed
from .pointed import MismatchError, PointedSet, compose, identity, zero_map
from .reports import CheckReport, Witness, failed, passed
from .simplicial import (
    BisimplicialSet,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    circle,
    coequalizer_ssets,
    commutation_failure,
    compose_sset_maps,
    diagonal,
    identity_failure,
    is_mono_ssetmap,
    operator_rows,
    point_sset,
    pushout_ssets,
    smash_ssets,
    sset_identity,
    sset_zero_map,
    wedge_ssets,
)
from .spectra import (
    COFIBRATION_TESTS,
    SpectrumMap,
    SymSpectrum,
    cofibrant_report,
    coequalizer_spectra,
    compose_spectrum_maps,
    is_levelwise_cofibration,
    pushout_spectra,
    spectrum_identity,
    spectrum_maps_equal,
    spectrum_zero_map,
    validate_spectrum,
    validate_spectrum_map,
    wedge_spectra,
    zero_spectrum,
)

REEDY_MODELS = ("levelwise", "positive-levelwise", "flat", "positive-flat")


# ---------------------------------------------------------------------------
# ambient capability records


class SetsAmbient:
    """Finite pointed sets with the Quillen-style cofibrations: monos."""

    def zero(self):
        return PointedSet(1)

    def zero_map(self, a, b):
        return zero_map(a, b)

    def identity(self, a):
        return identity(a)

    def compose(self, f, g):
        return compose(f, g)

    def maps_equal(self, f, g):
        return f.table == g.table

    def wedge(self, parts):
        return pointed.wedge(parts)

    def coequalizer(self, f, g):
        return pointed.coequalizer(f, g)

    def pushout(self, f, g):
        return pointed.pushout(f, g)

    def cofib_report(self, f, model, prop, location):
        pair = pointed.mono_witness(f)
        if pair is None:
            return passed(prop)
        w = Witness(location=location, pair=pair,
                    provenance=f"elements {pair[0]} and {pair[1]} share image {f.table[pair[0]]}")
        return failed(prop, w, "mono")


class SsetAmbient:
    """Pointed simplicial sets at a fixed truncation; cofibrations are
    the levelwise monomorphisms."""

    def __init__(self, trunc: int) -> None:
        self.trunc = trunc

    def zero(self):
        return point_sset(self.trunc)

    def zero_map(self, a, b):
        return sset_zero_map(a, b)

    def identity(self, a):
        return sset_identity(a)

    def compose(self, f, g):
        return compose_sset_maps(f, g)

    def maps_equal(self, f, g):
        return f.components == g.components

    def wedge(self, parts):
        return wedge_ssets(parts)

    def coequalizer(self, f, g):
        return coequalizer_ssets(f, g)

    def pushout(self, f, g):
        return pushout_ssets(f, g)

    def cofib_report(self, f, model, prop, location):
        return is_mono_ssetmap(f, prop=prop, location=location)


class SpectrumAmbient:
    """Symmetric spectra; the cofibration test dispatches on the model."""

    def __init__(self, strunc: int, dtrunc: int) -> None:
        self.strunc = strunc
        self.dtrunc = dtrunc

    def zero(self):
        return zero_spectrum(self.strunc, self.dtrunc)

    def zero_map(self, a, b):
        return spectrum_zero_map(a, b)

    def identity(self, a):
        return spectrum_identity(a)

    def compose(self, f, g):
        return compose_spectrum_maps(f, g)

    def maps_equal(self, f, g):
        return spectrum_maps_equal(f, g)

    def wedge(self, parts):
        return wedge_spectra(parts)

    def coequalizer(self, f, g):
        return coequalizer_spectra(f, g)

    def pushout(self, f, g):
        return pushout_spectra(f, g)

    def cofib_report(self, f, model, prop, location):
        rep = COFIBRATION_TESTS[model](f)
        if rep.passed:
            return passed(prop)
        w = rep.witness
        if w is not None:
            w = Witness(location=location + w.location, pair=w.pair, provenance=w.provenance)
        return failed(prop, w, rep.failure_kind, rep.detail)


# ---------------------------------------------------------------------------
# simplicial objects as views


@dataclass(frozen=True)
class SimplicialView:
    """Read-only view of a simplicial object: degree objects, their
    degeneracies, and (when present) faces."""

    top: int
    obj_at: Callable[[int], object]
    degen_at: Callable[[int, int], object]


def view_of_sset(s: SimplicialSet) -> SimplicialView:
    return SimplicialView(top=s.trunc, obj_at=lambda k: s.levels[k],
                          degen_at=lambda k, i: s.degens[k][i])


def view_of_bisimplicial(b: BisimplicialSet) -> SimplicialView:
    return SimplicialView(top=b.htrunc, obj_at=lambda k: b.rows[k],
                          degen_at=lambda k, i: b.hdegens[k][i])


@dataclass(frozen=True)
class LatchScaffold:
    """Degree-n latching object built from data strictly below degree n.

    into_latch[k] is the canonical map from the degree-(n-1) object into
    the k-th coequalized summand; mediate takes one map out of the
    degree-(n-1) object per summand and factors the induced map through
    the coequalizer, asserting that the two shuffled composites agree.
    """

    n: int
    obj: object
    into_latch: tuple
    mediate: Callable[[Sequence[object]], object] = field(compare=False)


def latch_scaffold(obj_at: Callable[[int], object],
                   degen_at: Callable[[int, int], object],
                   n: int, ambient) -> LatchScaffold:
    if n < 1:
        raise ValueError("scaffold needs degree >= 1")
    if n == 1:
        z0 = obj_at(0)
        return LatchScaffold(n=1, obj=z0, into_latch=(ambient.identity(z0),),
                             mediate=lambda legs: legs[0])
    z_lo = obj_at(n - 2)
    z_hi = obj_at(n - 1)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    dom = ambient.wedge([z_lo] * len(pairs))
    cod = ambient.wedge([z_hi] * n)
    s_prime = dom.factor([
        ambient.compose(degen_at(n - 2, i), cod.legs[j]) for (i, j) in pairs
    ])
    s_second = dom.factor([
        ambient.compose(degen_at(n - 2, j - 1), cod.legs[i]) for (i, j) in pairs
    ])
    co = ambient.coequalizer(s_prime, s_second)
    into = tuple(ambient.compose(cod.legs[k], co.legs[0]) for k in range(n))

    def mediate(legs: Sequence[object]) -> object:
        big = cod.factor(list(legs))
        if not ambient.maps_equal(ambient.compose(s_prime, big), ambient.compose(s_second, big)):
            raise MismatchError(
                "summand maps disagree on a coequalized pair; no mediating map exists"
            )
        return co.factor([big])

    return LatchScaffold(n=n, obj=co.obj, into_latch=into, mediate=mediate)


@dataclass(frozen=True)
class LatchObject:
    n: int
    obj: object
    nu: object
    into_latch: tuple
    mediate: Callable | None = field(default=None, compare=False)


def simplicial_latching(view: SimplicialView, n: int, ambient) -> LatchObject:
    """Degree-n latching object with its comparison map into degree n.

    Degree 0 yields the zero object, degree 1 the degree-0 object with
    its degeneracy as comparison map.  For n >= 2 the two shuffled
    coproducts of degeneracies are coequalized; the comparison map is
    the mediated coproduct of the degeneracies into degree n, whose two
    composites are asserted equal on tables before factoring.
    """
    if not 0 <= n <= view.top:
        raise TruncationError(f"latching degree {n} out of range 0..{view.top}")
    if n == 0:
        z = ambient.zero()
        return LatchObject(n=0, obj=z, nu=ambient.zero_map(z, view.obj_at(0)), into_latch=())
    scaffold = latch_scaffold(view.obj_at, view.degen_at, n, ambient)
    nu = scaffold.mediate([view.degen_at(n - 1, k) for k in range(n)])
    return LatchObject(n=n, obj=scaffold.obj, nu=nu,
                       into_latch=scaffold.into_latch, mediate=scaffold.mediate)


def latching_of_map(comp_at: Callable[[int], object], n: int, ambient,
                    lx: LatchObject, ly: LatchObject):
    """Induced map between degree-n latching objects; the factorization
    asserts naturality dynamically."""
    if n == 0:
        return ambient.identity(lx.obj)
    if n == 1:
        return comp_at(0)
    legs = [ambient.compose(comp_at(n - 1), ly.into_latch[k]) for k in range(n)]
    return lx.mediate(legs)


@dataclass(frozen=True)
class CornerInfo:
    n: int
    map: object
    pushout_obj: object
    legs: tuple


def reedy_corner(dom_view: SimplicialView, cod_view: SimplicialView,
                 comp_at: Callable[[int], object], n: int, ambient,
                 lx: LatchObject | None = None, ly: LatchObject | None = None) -> CornerInfo:
    """The degree-n corner map X_n ⊔_{latch X} latch Y -> Y_n."""
    lx = lx or simplicial_latching(dom_view, n, ambient)
    ly = ly or simplicial_latching(cod_view, n, ambient)
    lf = latching_of_map(comp_at, n, ambient, lx, ly)
    po = ambient.pushout(lx.nu, lf)
    corner = po.factor([comp_at(n), ly.nu])
    return CornerInfo(n=n, map=corner, pushout_obj=po.obj, legs=po.legs)


# ---------------------------------------------------------------------------
# simplicial spectra


@dataclass(frozen=True)
class SimplicialSpectrum:
    ktrunc: int
    degrees: tuple[SymSpectrum, ...]
    faces: tuple[tuple[SpectrumMap, ...], ...]
    degens: tuple[tuple[SpectrumMap, ...], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        k = self.ktrunc
        if len(self.degrees) != k + 1:
            raise ValueError("degrees must cover 0..ktrunc")
        tr = (self.degrees[0].strunc, self.degrees[0].dtrunc)
        for x in self.degrees:
            if (x.strunc, x.dtrunc) != tr:
                raise ValueError("all degrees must share spectral truncations")
        if len(self.faces) != k + 1 or len(self.degens) != k + 1:
            raise ValueError("operator families must cover 0..ktrunc")
        if self.faces[0] != () or self.degens[k] != ():
            raise ValueError("no faces at degree 0, no degeneracies at the top degree")
        for m in range(1, k + 1):
            if len(self.faces[m]) != m + 1:
                raise ValueError(f"degree {m} needs {m + 1} faces")
            for op in self.faces[m]:
                if op.dom != self.degrees[m] or op.cod != self.degrees[m - 1]:
                    raise ValueError(f"face at degree {m} has wrong endpoints")
        for m in range(k):
            if len(self.degens[m]) != m + 1:
                raise ValueError(f"degree {m} needs {m + 1} degeneracies")
            for op in self.degens[m]:
                if op.dom != self.degrees[m] or op.cod != self.degrees[m + 1]:
                    raise ValueError(f"degeneracy at degree {m} has wrong endpoints")

    @property
    def strunc(self) -> int:
        return self.degrees[0].strunc

    @property
    def dtrunc(self) -> int:
        return self.degrees[0].dtrunc


@dataclass(frozen=True)
class SimplicialSpectrumMap:
    dom: SimplicialSpectrum
    cod: SimplicialSpectrum
    components: tuple[SpectrumMap, ...]

    def __post_init__(self) -> None:
        if self.dom.ktrunc != self.cod.ktrunc:
            raise MismatchError("simplicial truncations must agree")
        if len(self.components) != self.dom.ktrunc + 1:
            raise MismatchError("one component per degree required")
        for m, f in enumerate(self.components):
            if f.dom != self.dom.degrees[m] or f.cod != self.cod.degrees[m]:
                raise MismatchError(f"component {m} has wrong endpoints")


def view_of_simplicial_spectrum(x: SimplicialSpectrum) -> SimplicialView:
    return SimplicialView(top=x.ktrunc, obj_at=lambda k: x.degrees[k],
                          degen_at=lambda k, i: x.degens[k][i])


def spectrum_ambient_for(x: SimplicialSpectrum) -> SpectrumAmbient:
    return SpectrumAmbient(x.strunc, x.dtrunc)


def zero_simplicial_spectrum(ktrunc: int, strunc: int, dtrunc: int) -> SimplicialSpectrum:
    return constant_simplicial_spectrum(zero_spectrum(strunc, dtrunc), ktrunc)


def from_zero_simplicial(x: SimplicialSpectrum) -> SimplicialSpectrumMap:
    z = zero_simplicial_spectrum(x.ktrunc, x.strunc, x.dtrunc)
    return SimplicialSpectrumMap(z, x, tuple(
        spectrum_zero_map(z.degrees[m], x.degrees[m]) for m in range(x.ktrunc + 1)
    ))


def _identity_text(bad: tuple) -> str:
    family, k, i, j = bad[:4]
    return f"{family} at (k,i,j)=({k},{i},{j})"


def validate_simplicial_spectrum(x: SimplicialSpectrum, deep: bool = True) -> CheckReport:
    prop = "simplicial-spectrum"
    if deep:
        for m, sp in enumerate(x.degrees):
            rep = validate_spectrum(sp)
            if not rep.passed:
                return failed(prop, rep.witness, rep.failure_kind, f"degree {m}: {rep.detail}")
    for m in range(1, x.ktrunc + 1):
        for i, op in enumerate(x.faces[m]):
            rep = validate_spectrum_map(op)
            if not rep.passed:
                return failed(prop, None, rep.failure_kind, f"face ({m},{i}): {rep.detail}")
    for m in range(x.ktrunc):
        for i, op in enumerate(x.degens[m]):
            rep = validate_spectrum_map(op)
            if not rep.passed:
                return failed(prop, None, rep.failure_kind, f"degeneracy ({m},{i}): {rep.detail}")
    bad = identity_failure(x.ktrunc, x.faces, x.degens, compose_spectrum_maps,
                           spectrum_maps_equal, lambda k: spectrum_identity(x.degrees[k]))
    if bad is not None:
        return failed(prop, None, "simplicial-identity", _identity_text(bad))
    return passed(prop, detail=f"valid up to (K={x.ktrunc}, N={x.strunc}, D={x.dtrunc})")


def validate_simplicial_spectrum_map(f: SimplicialSpectrumMap) -> CheckReport:
    prop = "simplicial-spectrum-map"
    for m, c in enumerate(f.components):
        rep = validate_spectrum_map(c)
        if not rep.passed:
            return failed(prop, None, rep.failure_kind, f"component {m}: {rep.detail}")
    bad = commutation_failure(f, compose_spectrum_maps, spectrum_maps_equal)
    if bad is None:
        return passed(prop)
    family, m, i = bad
    return failed(prop, None, f"{family}-commutation", f"component {m} vs {family} {i}")


# ---------------------------------------------------------------------------
# goodness and Reedy verdicts


def latch_of_simplicial_spectrum(x: SimplicialSpectrum, n: int) -> LatchObject:
    hit = x._cache.get(("latch", n))
    if hit is None:
        hit = simplicial_latching(view_of_simplicial_spectrum(x), n, spectrum_ambient_for(x))
        x._cache[("latch", n)] = hit
    return hit


def is_good(x: SimplicialSpectrum) -> CheckReport:
    """Flat-cofibrant degrees and levelwise-cofibration degeneracies."""
    prop = "good"
    for m, sp in enumerate(x.degrees):
        rep = cofibrant_report(sp, "flat")
        if not rep.passed:
            w = rep.witness
            if w is not None:
                w = Witness(location=(("degree", m),) + w.location, pair=w.pair,
                            provenance=w.provenance)
            return failed(prop, w, rep.failure_kind, f"degree {m} is not flat-cofibrant")
    for m in range(x.ktrunc):
        for i, op in enumerate(x.degens[m]):
            rep = is_levelwise_cofibration(op)
            if not rep.passed:
                w = rep.witness
                if w is not None:
                    w = Witness(location=(("degree", m), ("index", i)) + w.location,
                                pair=w.pair, provenance=w.provenance)
                return failed(prop, w, rep.failure_kind,
                              f"degeneracy ({m},{i}) is not a levelwise cofibration")
    return passed(prop, detail=f"good up to (K={x.ktrunc}, N={x.strunc}, D={x.dtrunc})")


def is_positive_good(x: SimplicialSpectrum) -> CheckReport:
    prop = "positive-good"
    base = is_good(x)
    if not base.passed:
        return CheckReport(prop, False, base.witness, base.failure_kind, base.detail)
    for m, sp in enumerate(x.degrees):
        rep = cofibrant_report(sp, "positive-flat")
        if not rep.passed:
            return failed(prop, rep.witness, rep.failure_kind,
                          f"degree {m} is not positive flat-cofibrant")
    return passed(prop)


def reedy_cofibrant_report(x: SimplicialSpectrum, model: str) -> CheckReport:
    """Reedy cofibrancy of x in the chosen model: every latching
    comparison map is a cofibration of that class."""
    prop = f"reedy-{model}"
    hit = x._cache.get(("reedy", model))
    if hit is not None:
        return hit
    ambient = spectrum_ambient_for(x)
    out = None
    for n in range(x.ktrunc + 1):
        latch = latch_of_simplicial_spectrum(x, n)
        rep = ambient.cofib_report(latch.nu, model, prop, (("degree", n),))
        if not rep.passed:
            out = failed(prop, rep.witness, rep.failure_kind,
                         f"latching comparison at degree {n} fails {model}")
            break
    if out is None:
        out = passed(prop, detail=f"pass up to (K={x.ktrunc}, N={x.strunc}, D={x.dtrunc})")
    x._cache[("reedy", model)] = out
    return out


def is_reedy_cofibration(f: SimplicialSpectrumMap, model: str) -> CheckReport:
    """Reedy cofibration verdict for a map of simplicial spectra: the
    corner map at every degree is a cofibration in the chosen class."""
    prop = f"reedy-{model}"
    ambient = spectrum_ambient_for(f.dom)
    dv = view_of_simplicial_spectrum(f.dom)
    cv = view_of_simplicial_spectrum(f.cod)
    for n in range(f.dom.ktrunc + 1):
        corner = reedy_corner(dv, cv, lambda k: f.components[k], n, ambient,
                              lx=latch_of_simplicial_spectrum(f.dom, n),
                              ly=latch_of_simplicial_spectrum(f.cod, n))
        rep = ambient.cofib_report(corner.map, model, prop, (("degree", n),))
        if not rep.passed:
            return failed(prop, rep.witness, rep.failure_kind,
                          f"corner map at degree {n} fails {model}")
    return passed(prop, detail=f"pass up to (K={f.dom.ktrunc}, N={f.dom.strunc}, D={f.dom.dtrunc})")


def bisimplicial_reedy_report(b: BisimplicialSet) -> CheckReport:
    """Reedy cofibrancy of a pointed bisimplicial set: every latching
    comparison map is a monomorphism."""
    prop = "reedy-cofibrant-bisimplicial"
    ambient = SsetAmbient(b.vtrunc)
    view = view_of_bisimplicial(b)
    for n in range(b.htrunc + 1):
        latch = simplicial_latching(view, n, ambient)
        rep = is_mono_ssetmap(latch.nu, prop=prop, location=(("degree", n),))
        if not rep.passed:
            return rep
    return passed(prop, detail=f"latching maps mono up to K={b.htrunc}")


# ---------------------------------------------------------------------------
# realization and pointwise cofibers


def realize(x: SimplicialSpectrum) -> SymSpectrum:
    """Levelwise diagonal of the associated bisimplicial sets: at
    spectral level m, row e is X_e(m) and the horizontal operators are
    the level-m components of the simplicial operators of X."""
    k = x.ktrunc
    if k != x.dtrunc:
        raise TruncationError("realization needs square truncation K = D")
    strunc = x.strunc
    levels = [
        diagonal(BisimplicialSet(
            k, k,
            tuple(x.degrees[e].levels[m] for e in range(k + 1)),
            tuple(tuple(op.components[m] for op in row) for row in x.faces),
            tuple(tuple(op.components[m] for op in row) for row in x.degens),
        ))
        for m in range(strunc + 1)
    ]
    gens = []
    for m in range(strunc + 1):
        fam = []
        for i in range(max(0, m - 1)):
            fam.append(SimplicialMap(levels[m], levels[m], tuple(
                x.degrees[e].gens[m][i].components[e] for e in range(k + 1)
            )))
        gens.append(tuple(fam))
    sigmas = []
    for m in range(strunc):
        dom = smash_ssets(circle(k), levels[m])
        sigmas.append(SimplicialMap(dom, levels[m + 1], tuple(
            x.degrees[e].sigmas[m].components[e] for e in range(k + 1)
        )))
    return SymSpectrum(strunc, k, tuple(levels), tuple(gens), tuple(sigmas))


def realize_map(f: SimplicialSpectrumMap) -> SpectrumMap:
    rx = realize(f.dom)
    ry = realize(f.cod)
    comps = []
    for m in range(rx.strunc + 1):
        comps.append(SimplicialMap(rx.levels[m], ry.levels[m], tuple(
            f.components[e].components[m].components[e] for e in range(f.dom.ktrunc + 1)
        )))
    return SpectrumMap(rx, ry, tuple(comps))


def pointwise_cofiber(f: SimplicialSpectrumMap) -> tuple[SimplicialSpectrum, SimplicialSpectrumMap]:
    """Degreewise categorical cofiber Z with the projection Y -> Z.

    Z at degree n is the pushout of 0 <- X_n -> Y_n (a plain colimit,
    not a homotopy colimit); the induced operators are factored through
    the pushouts and the simplicial identities are re-asserted.
    """
    x, y = f.dom, f.cod
    k = x.ktrunc
    zero = zero_spectrum(x.strunc, x.dtrunc)
    cones = [pushout_spectra(f.components[m], spectrum_zero_map(x.degrees[m], zero))
             for m in range(k + 1)]
    degrees = tuple(c.obj for c in cones)

    def induce(m_from: int, m_to: int, op: SpectrumMap) -> SpectrumMap:
        u = compose_spectrum_maps(op, cones[m_to].legs[0])
        w = spectrum_zero_map(zero, degrees[m_to])
        return cones[m_from].factor([u, w])

    z = SimplicialSpectrum(k, degrees, *operator_rows(
        k, lambda m, i: induce(m, m - 1, y.faces[m][i]), lambda m, i: induce(m, m + 1, y.degens[m][i])))
    bad = identity_failure(k, z.faces, z.degens, compose_spectrum_maps,
                           spectrum_maps_equal, lambda m: spectrum_identity(degrees[m]))
    if bad is not None:
        raise MismatchError(f"cofiber operators violate a simplicial identity: {_identity_text(bad)}")
    proj = SimplicialSpectrumMap(y, z, tuple(c.legs[0] for c in cones))
    return z, proj


def constant_simplicial_spectrum(sp: SymSpectrum, ktrunc: int) -> SimplicialSpectrum:
    ident = spectrum_identity(sp)
    return SimplicialSpectrum(ktrunc, (sp,) * (ktrunc + 1),
                              *operator_rows(ktrunc, lambda m, i: ident, lambda m, i: ident))


def wedge_simplicial_spectra(parts: Sequence[SimplicialSpectrum]
                             ) -> tuple[SimplicialSpectrum, tuple[SimplicialSpectrumMap, ...]]:
    """Degreewise wedge with the induced operators and its inclusions."""
    k = parts[0].ktrunc
    if any(p.ktrunc != k for p in parts):
        raise MismatchError("wedge: simplicial truncations differ")
    cone = pointed.lift(
        [wedge_spectra([p.degrees[m] for p in parts]) for m in range(k + 1)], parts,
        SimplicialSpectrumMap,
        lambda degrees, induce: SimplicialSpectrum(k, tuple(degrees), *operator_rows(
            k,
            lambda m, i: induce(m, m - 1, [p.faces[m][i] for p in parts]),
            lambda m, i: induce(m, m + 1, [p.degens[m][i] for p in parts]))))
    return cone.obj, cone.legs
