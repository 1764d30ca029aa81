"""Truncated symmetric spectra in pointed simplicial sets.

A spectrum is a sequence of pointed simplicial sets X(0..N) with a
symmetric-group action on each level, stored on the adjacent
transpositions only, and structure maps sigma_n from circle ∧ X(n) to
X(n+1).  Validity includes the usual axiom that every iterated
structure map from sphere(p) ∧ X(n) to X(p+n) is equivariant for the
block inclusion with the sphere letters first.

Convention for the graded smash (fixed once, certified by the unit
oracle rather than by matching any particular sign convention):

* left action of the sphere on X is the plain iterated structure map
  lam^q : sphere(q) ∧ X(r) -> X(q+r), equivariant for (q-block, r-block);
* right action is swap, then lam, then the block transposition
  chi(q, p), giving A(p) ∧ sphere(q) -> A(p+q) equivariant for
  (p-block, q-block);
* the graded tensor (A ⊗ B)(n) is a wedge of A(p) ∧ B(q) over p+q = n
  and (p,q)-shuffles as coset representatives, with the full group
  acting by shuffle recoset plus the residual action on the factors;
* the smash over the sphere spectrum coequalizes the two evident maps
  from (A ⊗ S ⊗ B)(n) into (A ⊗ B)(n).  Only the summands whose middle
  block is the circle S¹ are built: S is the free commutative monoid on
  S¹ (Hovey-Shipley-Smith 2000), so they generate the whole relation
  (see _triple_relation_maps, whose every_block argument builds every
  middle block as a test oracle).

The spectral latching object of X at level n is the smash of the
truncated sphere spectrum (point at level 0) with X, taken at level n.
Its comparison map nu into X(n) is induced on the coequalizer by the
action of the truncated sphere on X: zero on the summands with a point
factor, the iterated structure map then the shuffle on the others.
Since S is the unit of the smash over S, this is the map through the
unit isomorphism, which is never built on this path; the unit oracle
certifies the convention on its own, and a test compares both routes.
Whether these conventions coincide with any published ones is not
decided here; only unit-oracle correctness is claimed.  Flatness is
tested as plain injectivity of latching maps, which is the pointed
simplicial set case; the equivariant-cofibration variant needed for a
general ambient category is not implemented.

Colimits of spectra are formed levelwise (Hovey-Shipley-Smith 2000) by
`lift_spectra`, the kernel's lifting (`pointed.lift`) over the level x
dim grid: it induces the action generators cell by cell with
`pointed.induced`, and the structure maps with `_induced_sigma`, which
asserts them single-valued.

Latching levels are shared by content.  Smashing over the sphere
spectrum preserves colimits, so spectra with equal tables have equal
latching levels.  spectral_latching therefore keeps, per content, one
canonical live spectrum and computes each level once, on that spectrum;
a content-equal copy reuses the canonical result and keeps it in its own
_cache.  Sharing also needs equal labels, because witness text reads
them while PointedSet equality ignores them.  The table of canonical
spectra holds weak references only, so it keeps no spectrum or result
alive.  Below the latching level, the iterated structure maps, realized
permutations and unit oracle stay memoized per object, in _cache; the
smash over S is not memoized, as each of its callers keeps its result.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from . import pointed
from .perms import (
    Perm,
    adjacent_transposition,
    adjacent_word,
    block_sum,
    chi,
    compose_perm,
    factor_by_blocks,
    identity_perm,
    multi_shuffles,
    shuffles,
)
from .pointed import CoconeResult, MismatchError, PointedMap, identity, stored_hash, zero_map
from .reports import CheckReport, Witness, failed, passed
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    circle,
    coequalizer_ssets,
    commutation_failure,
    compose_sset_maps,
    is_iso_ssetmap,
    is_mono_ssetmap,
    point_sset,
    pushout_ssets,
    smash_sset_maps,
    smash_ssets,
    sphere,
    sphere_decode_index,
    sphere_encode_tuple,
    sset_identity,
    sset_zero_map,
    validate_sset,
    validate_sset_map,
    wedge_ssets,
)


@dataclass(frozen=True)
class SymSpectrum:
    strunc: int
    dtrunc: int
    levels: tuple[SimplicialSet, ...]
    gens: tuple[tuple[SimplicialMap, ...], ...]
    sigmas: tuple[SimplicialMap, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _h: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        h = self._h
        if h is None:
            h = stored_hash(self, (self.strunc, self.dtrunc, self.levels, self.gens, self.sigmas))
        return h

    def __post_init__(self) -> None:
        n, d = self.strunc, self.dtrunc
        if len(self.levels) != n + 1:
            raise ValueError("levels must cover spectral levels 0..strunc")
        for lvl in self.levels:
            if lvl.trunc != d:
                raise ValueError("every level must share the simplicial truncation")
        if len(self.gens) != n + 1:
            raise ValueError("one generator family per level required")
        for m, fam in enumerate(self.gens):
            if len(fam) != max(0, m - 1):
                raise ValueError(f"level {m} needs {max(0, m - 1)} adjacent transpositions")
            for g in fam:
                if g.dom != self.levels[m] or g.cod != self.levels[m]:
                    raise ValueError(f"action generator at level {m} has wrong endpoints")
        if len(self.sigmas) != n:
            raise ValueError("one structure map per level below the top")
        for m, s in enumerate(self.sigmas):
            if s.dom != smash_ssets(circle(d), self.levels[m]) or s.cod != self.levels[m + 1]:
                raise ValueError(f"structure map at level {m} has wrong endpoints")


@dataclass(frozen=True)
class SpectrumMap:
    dom: SymSpectrum
    cod: SymSpectrum
    components: tuple[SimplicialMap, ...]

    def __post_init__(self) -> None:
        if (self.dom.strunc, self.dom.dtrunc) != (self.cod.strunc, self.cod.dtrunc):
            raise MismatchError("spectrum map endpoints must share truncations")
        if len(self.components) != self.dom.strunc + 1:
            raise MismatchError("one component per spectral level required")
        for m, f in enumerate(self.components):
            if f.dom != self.dom.levels[m] or f.cod != self.cod.levels[m]:
                raise MismatchError(f"component {m} has wrong endpoints")


def spectrum_identity(x: SymSpectrum) -> SpectrumMap:
    return SpectrumMap(x, x, tuple(sset_identity(l) for l in x.levels))


def spectrum_zero_map(x: SymSpectrum, y: SymSpectrum) -> SpectrumMap:
    return SpectrumMap(x, y, tuple(sset_zero_map(a, b) for a, b in zip(x.levels, y.levels)))


def compose_spectrum_maps(f: SpectrumMap, g: SpectrumMap) -> SpectrumMap:
    if f.cod != g.dom:
        raise MismatchError("compose: f.cod != g.dom")
    return SpectrumMap(f.dom, g.cod, tuple(
        compose_sset_maps(a, b) for a, b in zip(f.components, g.components)
    ))


def spectrum_maps_equal(f: SpectrumMap, g: SpectrumMap) -> bool:
    return all(a.components == b.components for a, b in zip(f.components, g.components))


# ---------------------------------------------------------------------------
# permutation actions and iterated structure maps


def realize_perm(x: SymSpectrum, n: int, perm: Perm) -> SimplicialMap:
    """The action of perm on X(n), composed from the stored generators.

    Memoized in x._cache; the fill is idempotent so shared reuse is safe.
    The memo is per object: a content-equal copy of x that takes its
    latching levels from the canonical spectrum (see spectral_latching)
    never fills its own.
    """
    if len(perm) != n:
        raise ValueError("permutation degree must match the spectral level")
    if n < 2 or perm == identity_perm(n):
        return sset_identity(x.levels[n])
    key = ("perm", n, perm)
    hit = x._cache.get(key)
    if hit is not None:
        return hit
    out = sset_identity(x.levels[n])
    for i in reversed(adjacent_word(perm)):
        out = compose_sset_maps(out, x.gens[n][i])
    x._cache[key] = out
    return out


def sphere_perm_map(p: int, d: int, perm: Perm) -> SimplicialMap:
    """Place permutation of the smash factors of sphere(p)."""
    s = sphere(p, d)
    if p < 2:
        return sset_identity(s)
    inv = tuple(perm.index(j) for j in range(p))
    comps = []
    for k, lvl in enumerate(s.levels):
        if k == 0:
            comps.append(identity(lvl))
            continue
        table = [0]
        for idx in range(1, lvl.size):
            t = sphere_decode_index(p, k, idx)
            table.append(sphere_encode_tuple(p, k, tuple(t[inv[j]] for j in range(p))))
        comps.append(PointedMap(lvl, lvl, tuple(table)))
    return SimplicialMap(s, s, tuple(comps))


def iterated_sigma(x: SymSpectrum, q: int, r: int) -> SimplicialMap:
    """lam^q : sphere(q) ∧ X(r) -> X(q+r), peeling circle factors left to
    right through the structure maps."""
    if q + r > x.strunc:
        raise TruncationError("iterated structure map exceeds spectral truncation")
    key = ("lam", q, r)
    hit = x._cache.get(key)
    if hit is not None:
        return hit
    d = x.dtrunc
    dom = smash_ssets(sphere(q, d), x.levels[r])
    if q == 0:
        out = SimplicialMap(dom, x.levels[r], tuple(identity(l) for l in x.levels[r].levels))
    elif q == 1:
        out = SimplicialMap(dom, x.levels[r + 1], x.sigmas[r].components)
    else:
        prev = iterated_sigma(x, q - 1, r)
        comps = []
        for k in range(d + 1):
            sq = sphere(q, d).levels[k]
            xr = x.levels[r].levels[k]
            sq1 = sphere(q - 1, d).levels[k]
            circ = circle(d).levels[k]
            xmid = x.levels[q - 1 + r].levels[k]
            sig = x.sigmas[q - 1 + r].components[k]
            table = [0] * pointed.smash_sets(sq, xr).size
            for si in range(1, sq.size):
                tup = sphere_decode_index(q, k, si)
                rest = sphere_encode_tuple(q - 1, k, tup[1:]) if k > 0 else 0
                for xi in range(1, xr.size):
                    z = prev.components[k].table[pointed.smash_index(sq1, xr, rest, xi)]
                    table[pointed.smash_index(sq, xr, si, xi)] = sig.table[
                        pointed.smash_index(circ, xmid, tup[0], z)
                    ]
            comps.append(PointedMap(pointed.smash_sets(sq, xr), x.levels[q + r].levels[k], tuple(table)))
        out = SimplicialMap(dom, x.levels[q + r], tuple(comps))
    x._cache[key] = out
    return out


def right_action(x: SymSpectrum, p: int, q: int) -> SimplicialMap:
    """X(p) ∧ sphere(q) -> X(p+q): swap, iterate, then the chi(q,p) twist."""
    key = ("rho", p, q)
    hit = x._cache.get(key)
    if hit is not None:
        return hit
    d = x.dtrunc
    lam = iterated_sigma(x, q, p)
    twist = realize_perm(x, p + q, chi(q, p))
    dom = smash_ssets(x.levels[p], sphere(q, d))
    comps = []
    for k in range(d + 1):
        xp = x.levels[p].levels[k]
        sq = sphere(q, d).levels[k]
        table = [0] * pointed.smash_sets(xp, sq).size
        for a in range(1, xp.size):
            for s in range(1, sq.size):
                v = lam.components[k].table[pointed.smash_index(sq, xp, s, a)]
                table[pointed.smash_index(xp, sq, a, s)] = twist.components[k].table[v]
        comps.append(PointedMap(pointed.smash_sets(xp, sq), x.levels[p + q].levels[k], tuple(table)))
    out = SimplicialMap(dom, x.levels[p + q], tuple(comps))
    x._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# validation


def validate_spectrum(x: SymSpectrum) -> CheckReport:
    prop = "symmetric-spectrum"
    for m, lvl in enumerate(x.levels):
        rep = validate_sset(lvl)
        if not rep.passed:
            return failed(prop, rep.witness, rep.failure_kind, f"level {m}: {rep.detail}")
    for m in range(2, x.strunc + 1):
        fam = x.gens[m]
        for i, g in enumerate(fam):
            rep = validate_sset_map(g)
            if not rep.passed:
                return failed(prop, None, "action-generator", f"generator {i} at level {m} is not simplicial")
            if not is_iso_ssetmap(g):
                return failed(prop, None, "action-generator", f"generator {i} at level {m} is not invertible")
        ident = sset_identity(x.levels[m]).components
        for i, g in enumerate(fam):
            if compose_sset_maps(g, g).components != ident:
                return failed(prop, None, "coxeter", f"involution fails for generator {i} at level {m}")
        for i in range(len(fam)):
            for j in range(i + 2, len(fam)):
                lhs = compose_sset_maps(fam[i], fam[j])
                rhs = compose_sset_maps(fam[j], fam[i])
                if lhs.components != rhs.components:
                    return failed(prop, None, "coxeter", f"commutation fails at level {m} ({i},{j})")
        for i in range(len(fam) - 1):
            lhs = compose_sset_maps(compose_sset_maps(fam[i], fam[i + 1]), fam[i])
            rhs = compose_sset_maps(compose_sset_maps(fam[i + 1], fam[i]), fam[i + 1])
            if lhs.components != rhs.components:
                return failed(prop, None, "coxeter", f"braid fails at level {m} ({i},{i + 1})")
    for m, s in enumerate(x.sigmas):
        rep = validate_sset_map(s)
        if not rep.passed:
            return failed(prop, None, "structure-map", f"sigma at level {m} is not simplicial")
    d = x.dtrunc
    for r in range(x.strunc + 1):
        for p in range(1, x.strunc - r + 1):
            lam = iterated_sigma(x, p, r)
            for i in range(p - 1):
                twist_dom = smash_sset_maps(sphere_perm_map(p, d, adjacent_transposition(p, i)),
                                            sset_identity(x.levels[r]))
                lhs = compose_sset_maps(twist_dom, lam)
                rhs = compose_sset_maps(lam, realize_perm(
                    x, p + r, block_sum(adjacent_transposition(p, i), identity_perm(r))))
                if lhs.components != rhs.components:
                    return failed(prop, None, "equivariance",
                                  f"sphere-side equivariance fails for p={p}, r={r}, generator {i}")
            for j in range(r - 1):
                twist_dom = smash_sset_maps(sset_identity(sphere(p, d)), x.gens[r][j])
                lhs = compose_sset_maps(twist_dom, lam)
                rhs = compose_sset_maps(lam, realize_perm(
                    x, p + r, block_sum(identity_perm(p), adjacent_transposition(r, j))))
                if lhs.components != rhs.components:
                    return failed(prop, None, "equivariance",
                                  f"level-side equivariance fails for p={p}, r={r}, generator {j}")
    return passed(prop, detail=f"valid up to (N={x.strunc}, D={x.dtrunc})")


def validate_spectrum_map(f: SpectrumMap) -> CheckReport:
    prop = "spectrum-map"
    for m, comp in enumerate(f.components):
        rep = validate_sset_map(comp)
        if not rep.passed:
            return failed(prop, None, rep.failure_kind, f"component {m} is not simplicial")
    bad = commutation_failure(f, compose_sset_maps, lambda a, b: a.components == b.components,
                              (("generator", f.dom.gens, f.cod.gens, 0),))
    if bad is not None:
        _, m, i = bad
        return failed(prop, None, "equivariance", f"component {m} vs generator {i}")
    for m in range(f.dom.strunc):
        lhs = compose_sset_maps(f.dom.sigmas[m], f.components[m + 1])
        rhs = compose_sset_maps(
            smash_sset_maps(sset_identity(circle(f.dom.dtrunc)), f.components[m]),
            f.cod.sigmas[m],
        )
        if lhs.components != rhs.components:
            return failed(prop, None, "structure-map", f"component {m} does not commute with sigma")
    return passed(prop)


# ---------------------------------------------------------------------------
# built-in spectra


def _sphere_level_gens(n: int, d: int) -> tuple[SimplicialMap, ...]:
    return tuple(sphere_perm_map(n, d, adjacent_transposition(n, i)) for i in range(n - 1))


def _concat_sigma(n: int, d: int) -> SimplicialMap:
    """circle ∧ sphere(n) -> sphere(n+1) by prepending the circle factor."""
    dom = smash_ssets(circle(d), sphere(n, d))
    cod = sphere(n + 1, d)
    comps = []
    for k in range(d + 1):
        ca = circle(d).levels[k]
        sn = sphere(n, d).levels[k]
        table = [0] * pointed.smash_sets(ca, sn).size
        for a in range(1, ca.size):
            for t in range(1, sn.size):
                tup = (a,) + sphere_decode_index(n, k, t) if n > 0 else (a,)
                table[pointed.smash_index(ca, sn, a, t)] = sphere_encode_tuple(n + 1, k, tup)
        comps.append(PointedMap(pointed.smash_sets(ca, sn), cod.levels[k], tuple(table)))
    return SimplicialMap(dom, cod, tuple(comps))


@lru_cache(maxsize=None)
def sphere_spectrum(strunc: int, dtrunc: int) -> SymSpectrum:
    """The sphere spectrum: sphere(n) at level n, coordinate permutation
    action, concatenation structure maps."""
    levels = tuple(sphere(n, dtrunc) for n in range(strunc + 1))
    gens = tuple(_sphere_level_gens(n, dtrunc) for n in range(strunc + 1))
    sigmas = []
    for n in range(strunc):
        if n == 0:
            # circle ∧ S^0 -> circle: drop the unit coordinate
            dom = smash_ssets(circle(dtrunc), sphere(0, dtrunc))
            comps = []
            for k in range(dtrunc + 1):
                ca = circle(dtrunc).levels[k]
                s0 = sphere(0, dtrunc).levels[k]
                table = [0] * pointed.smash_sets(ca, s0).size
                for a in range(1, ca.size):
                    table[pointed.smash_index(ca, s0, a, 1)] = a
                comps.append(PointedMap(pointed.smash_sets(ca, s0), circle(dtrunc).levels[k], tuple(table)))
            sigmas.append(SimplicialMap(dom, sphere(1, dtrunc), tuple(comps)))
        else:
            sigmas.append(_concat_sigma(n, dtrunc))
    return SymSpectrum(strunc, dtrunc, levels, gens, tuple(sigmas))


@lru_cache(maxsize=None)
def bar_s(strunc: int, dtrunc: int) -> SymSpectrum:
    """The truncated sphere spectrum: a point at level 0, sphere(n) above,
    with the zero structure map out of level 0."""
    levels = (point_sset(dtrunc),) + tuple(sphere(n, dtrunc) for n in range(1, strunc + 1))
    gens = tuple(_sphere_level_gens(n, dtrunc) if n >= 1 else () for n in range(strunc + 1))
    sigmas = []
    for n in range(strunc):
        if n == 0:
            dom = smash_ssets(circle(dtrunc), point_sset(dtrunc))
            sigmas.append(SimplicialMap(dom, sphere(1, dtrunc),
                                        tuple(zero_map(p, q) for p, q in zip(dom.levels, sphere(1, dtrunc).levels))))
        else:
            sigmas.append(_concat_sigma(n, dtrunc))
    return SymSpectrum(strunc, dtrunc, levels, gens, tuple(sigmas))


def bar_to_sphere(strunc: int, dtrunc: int) -> SpectrumMap:
    """The evident map from the truncated sphere spectrum to the sphere
    spectrum: basepoint inclusion at level 0, the identity above."""
    b, s = bar_s(strunc, dtrunc), sphere_spectrum(strunc, dtrunc)
    comps = [SimplicialMap(b.levels[0], s.levels[0],
                           tuple(zero_map(p, q) for p, q in zip(b.levels[0].levels, s.levels[0].levels)))]
    for n in range(1, strunc + 1):
        comps.append(SimplicialMap(b.levels[n], s.levels[n], sset_identity(s.levels[n]).components))
    return SpectrumMap(b, s, tuple(comps))


# ---------------------------------------------------------------------------
# graded tensor over the shuffles


@dataclass(frozen=True)
class TensorSummand:
    p: int
    q: int
    gamma: Perm
    sset: SimplicialSet
    leg: SimplicialMap


@dataclass(frozen=True)
class TensorResult:
    """(A ⊗ B)(n) as a wedge of shuffled smash summands with its action."""

    n: int
    obj: SimplicialSet
    summands: tuple[TensorSummand, ...]
    gens: tuple[SimplicialMap, ...]
    index_of: dict = field(compare=False, repr=False)
    factor: Callable[[Sequence[SimplicialMap]], SimplicialMap] = field(compare=False)
    split: Callable[[int, int], tuple[int, int]] = field(compare=False)
    describe: Callable[[int, int], str] = field(compare=False)


def day_tensor(a: SymSpectrum, b: SymSpectrum, n: int) -> TensorResult:
    """Level n of the graded tensor of two spectra, with summand
    bookkeeping and the symmetric-group action on generators."""
    if n > min(a.strunc, b.strunc) or a.dtrunc != b.dtrunc:
        raise TruncationError("tensor level out of range")
    d = a.dtrunc
    plan: list[tuple[int, int, Perm]] = []
    block: dict[int, SimplicialSet] = {}
    for p in range(n + 1):
        block[p] = smash_ssets(a.levels[p], b.levels[n - p])
        for gamma in shuffles(p, n - p):
            plan.append((p, n - p, gamma))
    ssets = [block[p] for p, _, _ in plan]
    w = wedge_ssets(ssets)
    summands = tuple(
        TensorSummand(p=p, q=q, gamma=g, sset=ss, leg=leg)
        for (p, q, g), ss, leg in zip(plan, ssets, w.legs)
    )
    index_of = {(p, q, g): j for j, (p, q, g) in enumerate(plan)}

    parts_by_dim = [[ss.levels[k] for ss in ssets] for k in range(d + 1)]

    def split(k: int, idx: int) -> tuple[int, int]:
        return pointed.wedge_split(parts_by_dim[k], idx)

    gens = []
    for i in range(n - 1):
        tau = adjacent_transposition(n, i)
        comp_legs = []
        for (p, q, g) in plan:
            gamma2, (rho, kappa) = factor_by_blocks(compose_perm(tau, g), (p, q))
            target = summands[index_of[(p, q, gamma2)]]
            fa = realize_perm(a, p, rho)
            fb = realize_perm(b, q, kappa)
            local = smash_sset_maps(fa, fb)
            comp_legs.append(compose_sset_maps(local, target.leg))
        gens.append(w.factor(comp_legs))

    def describe(k: int, idx: int) -> str:
        if idx == 0:
            return "*"
        j, local = split(k, idx)
        s = summands[j]
        ai, bi = pointed.smash_split(a.levels[s.p].levels[k], b.levels[s.q].levels[k], local)
        return (f"(p={s.p},q={s.q},shuffle={list(s.gamma)}) "
                f"{a.levels[s.p].levels[k].label(ai)}⊗{b.levels[s.q].levels[k].label(bi)}")

    return TensorResult(n=n, obj=w.obj, summands=summands, gens=tuple(gens),
                        index_of=index_of, factor=w.factor, split=split, describe=describe)


@dataclass(frozen=True)
class SmashResult:
    """(A ∧_S B)(n): the coequalized tensor with its descended action."""

    n: int
    obj: SimplicialSet
    tensor: TensorResult
    quotient: SimplicialMap
    gens: tuple[SimplicialMap, ...]
    factor: Callable[[Sequence[SimplicialMap]], SimplicialMap] = field(compare=False)
    describe: Callable[[int, int], str] = field(compare=False)


def _triple_relation_maps(a: SymSpectrum, b: SymSpectrum, n: int,
                          t2: TensorResult, every_block: bool = False
                          ) -> tuple[SimplicialMap, SimplicialMap]:
    """The two maps (A ⊗ S ⊗ B)(n) ⇉ (A ⊗ B)(n): right action on A and
    left action on B, reindexed through shuffle factorization.

    Only the summands whose middle block is the circle S¹ (q = 1) are
    built, since they generate the same relation as all of them.  The
    sphere spectrum is the free commutative monoid on S¹ (Hovey-Shipley-
    Smith 2000), so a q-letter relation is a chain of q one-letter
    relations: on B's side through iterated_sigma, which peels one circle
    at a time, and on A's side through the associativity of A's action.
    Summands with an empty middle block (q = 0) contribute equal maps on
    both sides, as both actions are the smash unit.  every_block builds
    every middle block q = 0..n instead; it is the oracle that tests
    compare the reduced relation against.
    """
    d = a.dtrunc
    plan: list[tuple[int, int, int, Perm]] = []
    block3: dict[tuple[int, int], SimplicialSet] = {}
    for p in range(n + 1):
        for q in range(n - p + 1) if every_block else (1,) if p < n else ():
            r = n - p - q
            block3[(p, q)] = smash_ssets(a.levels[p], smash_ssets(sphere(q, d), b.levels[r]))
            for delta in multi_shuffles((p, q, r)):
                plan.append((p, q, r, delta))
    ssets = [block3[(p, q)] for p, q, _, _ in plan]
    if not ssets:
        pt = point_sset(d)
        zm = SimplicialMap(pt, t2.obj, tuple(zero_map(l, m) for l, m in zip(pt.levels, t2.obj.levels)))
        return zm, zm
    w3 = wedge_ssets(ssets)

    legs1 = []
    legs2 = []
    for (p, q, r, delta), ss in zip(plan, ssets):
        # right action: collapse the (p, q) blocks
        gamma1, (xi, tau) = factor_by_blocks(delta, (p + q, r))
        if tau != identity_perm(r):
            raise AssertionError("right action: the shuffle moved the B block")
        tgt1 = t2.summands[t2.index_of[(p + q, r, gamma1)]]
        ra = right_action(a, p, q)
        act1 = realize_perm(a, p + q, xi)
        # left action: collapse the (q, r) blocks
        gamma2, (rho, eta) = factor_by_blocks(delta, (p, q + r))
        if rho != identity_perm(p):
            raise AssertionError("left action: the shuffle moved the A block")
        tgt2 = t2.summands[t2.index_of[(p, q + r, gamma2)]]
        la = iterated_sigma(b, q, r)
        act2 = realize_perm(b, q + r, eta)

        comps1 = []
        comps2 = []
        for k in range(d + 1):
            ap = a.levels[p].levels[k]
            sq = sphere(q, d).levels[k]
            br = b.levels[r].levels[k]
            apw, sqw, brw = ap.size - 1, sq.size - 1, br.size - 1
            inner_w = sqw * brw
            dom_k = pointed.smash_sets(ap, pointed.smash_sets(sq, br))
            tab1 = [0] * dom_k.size
            tab2 = [0] * dom_k.size
            if apw and sqw and brw:
                rat = ra.components[k].table
                act1t = act1.components[k].table
                lat = la.components[k].table
                act2t = act2.components[k].table
                leg1t = tgt1.leg.components[k].table
                leg2t = tgt2.leg.components[k].table
                bqrw = b.levels[q + r].levels[k].size - 1
                for si in range(1, sqw + 1):
                    srow = (si - 1) * brw
                    v2row = [act2t[lat[1 + srow + bi]] for bi in range(brw)]
                    for ai in range(1, apw + 1):
                        v1 = act1t[rat[1 + (ai - 1) * sqw + (si - 1)]]
                        base = 1 + (ai - 1) * inner_w + srow
                        if v1:
                            off1 = 1 + (v1 - 1) * brw
                            for bi in range(brw):
                                tab1[base + bi] = leg1t[off1 + bi]
                        off2 = (ai - 1) * bqrw
                        for bi in range(brw):
                            v2 = v2row[bi]
                            if v2:
                                tab2[base + bi] = leg2t[off2 + v2]
            comps1.append(PointedMap(dom_k, t2.obj.levels[k], tuple(tab1)))
            comps2.append(PointedMap(dom_k, t2.obj.levels[k], tuple(tab2)))
        legs1.append(SimplicialMap(ss, t2.obj, tuple(comps1)))
        legs2.append(SimplicialMap(ss, t2.obj, tuple(comps2)))
    return w3.factor(legs1), w3.factor(legs2)


def smash_over_s(a: SymSpectrum, b: SymSpectrum, n: int) -> SmashResult:
    """Level n of the smash of two spectra over the sphere spectrum.

    The tensor is coequalized by the relation of the one-letter (S¹)
    summands of (A ⊗ S ⊗ B)(n), which generate the relation of all of
    them (see _triple_relation_maps).  Not memoized: its two callers,
    unit_oracle and the latching computation, each keep their own result
    in b._cache.
    """
    t2 = day_tensor(a, b, n)
    u1, u2 = _triple_relation_maps(a, b, n, t2)
    co = coequalizer_ssets(u1, u2)
    gens = tuple(pointed.induced(co, co, [g]) for g in t2.gens)

    def describe(k: int, idx: int) -> str:
        # a class is named by its least member
        return f"[{t2.describe(k, co.cells[k].reps[idx])}]"

    return SmashResult(n=n, obj=co.obj, tensor=t2, quotient=co.legs[0], gens=gens,
                       factor=co.factor, describe=describe)


# ---------------------------------------------------------------------------
# the unit isomorphism oracle and spectral latching


@dataclass(frozen=True)
class UnitIso:
    """Explicit two-sided inverse pair between X(n) and (S ∧_S X)(n)."""

    into: SimplicialMap
    back: SimplicialMap
    report: CheckReport


def unit_oracle(x: SymSpectrum, n: int) -> UnitIso:
    """Construct the unit bijection X(n) ≅ (S ∧_S X)(n) and certify it.

    The backward map is induced by the total action (shuffle action after
    the iterated structure map); the forward map is the trivial-shuffle
    summand at p = 0.  This is the primary correctness oracle for the
    whole graded-smash construction: it is checked by exact table
    equality with zero tolerance.
    """
    key = ("unit", n)
    hit = x._cache.get(key)
    if hit is not None:
        return hit
    prop = "unit-isomorphism"
    s = sphere_spectrum(x.strunc, x.dtrunc)
    sm = smash_over_s(s, x, n)
    legs = []
    for summand in sm.tensor.summands:
        lam = iterated_sigma(x, summand.p, summand.q)
        act = realize_perm(x, n, summand.gamma)
        legs.append(compose_sset_maps(
            SimplicialMap(summand.sset, lam.cod, lam.components), act))
    phi = sm.tensor.factor(legs)
    back = sm.factor([phi])  # raises if phi does not coequalize the relations
    unit_summand = sm.tensor.summands[sm.tensor.index_of[(0, n, identity_perm(n))]]
    into = compose_sset_maps(
        SimplicialMap(x.levels[n], sm.obj,
                      compose_sset_maps(unit_summand.leg, sm.quotient).components),
        sset_identity(sm.obj),
    )
    round1 = compose_sset_maps(into, back)
    round2 = compose_sset_maps(back, into)
    ok = (round1.components == sset_identity(x.levels[n]).components
          and round2.components == sset_identity(sm.obj).components)
    rep = passed(prop) if ok else failed(prop, None, "unit", f"unit roundtrip failed at level {n}")
    out = UnitIso(into=into, back=back, report=rep)
    x._cache[key] = out
    return out


@dataclass(frozen=True)
class LatchingResult:
    """Latching level of a spectrum: the smash of the truncated sphere
    spectrum with X at level n, its action, and the comparison map nu
    into X(n)."""

    n: int
    obj: SimplicialSet
    gens: tuple[SimplicialMap, ...]
    nu: SimplicialMap
    smash: SmashResult
    describe: Callable[[int, int], str] = field(compare=False)


# Canonical live spectra per content, one per labelling.  The table is a
# WeakKeyDictionary, which finds a key equal by content; its value maps
# a labelling to a weak reference to the spectrum that carries it.  No
# entry keeps a spectrum alive.
_CANONICAL: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _labels(x: SymSpectrum) -> tuple:
    return tuple(tuple(p.labels for p in lvl.levels) for lvl in x.levels)


def _canonical(x: SymSpectrum) -> SymSpectrum:
    """The live spectrum, equal to x by content and labels, whose latching
    levels x shares; x itself when it is the first of its kind."""
    by_labels = _CANONICAL.setdefault(x, {})
    labels = _labels(x)
    ref = by_labels.get(labels)
    canon = ref() if ref is not None else None
    if canon is None:
        by_labels[labels] = weakref.ref(x)
        return x
    return canon


def spectral_latching(x: SymSpectrum, n: int) -> LatchingResult:
    """Latching level n of x, computed once per content.

    Memoized in x._cache.  On a miss the result is taken from the
    canonical live spectrum equal to x by content and labels, and
    computed there first if that spectrum lacks it (see the module
    docstring).  Its nu lands in the canonical spectrum's level n, which
    equals x's level n, labels included.
    """
    if not 0 <= n <= x.strunc:
        raise TruncationError(f"latching level {n} out of range")
    key = ("latching", n)
    hit = x._cache.get(key)
    if hit is None:
        canon = _canonical(x)
        hit = canon._cache.get(key)
        if hit is None:
            hit = _compute_latching(canon, n)
            canon._cache[key] = hit
        x._cache[key] = hit
    return hit


def _compute_latching(x: SymSpectrum, n: int) -> LatchingResult:
    """nu is induced on the coequalizer by the action of the truncated
    sphere: zero on the p = 0 summands, lam^p then the shuffle for p > 0."""
    sm_bar = smash_over_s(bar_s(x.strunc, x.dtrunc), x, n)
    legs = []
    for summand in sm_bar.tensor.summands:
        if summand.p == 0:
            legs.append(sset_zero_map(summand.sset, x.levels[n]))
            continue
        lam = iterated_sigma(x, summand.p, summand.q)
        legs.append(compose_sset_maps(SimplicialMap(summand.sset, lam.cod, lam.components),
                                      realize_perm(x, n, summand.gamma)))
    # raises MismatchError if the legs do not coequalize the relations
    nu = sm_bar.factor([sm_bar.tensor.factor(legs)])
    return LatchingResult(n=n, obj=sm_bar.obj, gens=sm_bar.gens, nu=nu,
                          smash=sm_bar, describe=sm_bar.describe)


def latching_map_of_spectrum_map(f: SpectrumMap, n: int) -> SimplicialMap:
    """Functorial part: the induced map between latching levels."""
    lx = spectral_latching(f.dom, n)
    ly = spectral_latching(f.cod, n)
    legs = []
    for summand in lx.smash.tensor.summands:
        tgt = ly.smash.tensor.summands[ly.smash.tensor.index_of[(summand.p, summand.q, summand.gamma)]]
        local = smash_sset_maps(sset_identity(bar_s(f.dom.strunc, f.dom.dtrunc).levels[summand.p]),
                                f.components[summand.q])
        legs.append(compose_sset_maps(compose_sset_maps(
            SimplicialMap(summand.sset, local.cod, local.components), tgt.leg), ly.smash.quotient))
    to_ly = lx.smash.tensor.factor(legs)
    return lx.smash.factor([to_ly])


# ---------------------------------------------------------------------------
# the four cofibration classifiers


@dataclass(frozen=True)
class CornerResult:
    n: int
    map: SimplicialMap
    describe: Callable[[int, int], str] = field(compare=False)


def latching_corner(f: SpectrumMap, n: int) -> CornerResult:
    """The latching comparison map X(n) ⊔_{L_nX} L_nY -> Y(n)."""
    lx = spectral_latching(f.dom, n)
    ly = spectral_latching(f.cod, n)
    lf = latching_map_of_spectrum_map(f, n)
    po = pushout_ssets(lx.nu, lf)
    corner = po.factor([f.components[n], ly.nu])
    leg_x, leg_l = po.legs

    def describe(k: int, idx: int) -> str:
        for i in range(f.dom.levels[n].levels[k].size):
            if leg_x.components[k].table[i] == idx:
                return f"X({n}) element {f.dom.levels[n].levels[k].label(i)}"
        for i in range(ly.obj.levels[k].size):
            if leg_l.components[k].table[i] == idx:
                return f"latching class {ly.describe(k, i)}"
        return f"corner element {idx}"

    return CornerResult(n=n, map=corner, describe=describe)


def _level0_iso_clause(f: SpectrumMap, prop: str) -> CheckReport:
    comp = f.components[0]
    for k, m in enumerate(comp.components):
        pair = pointed.mono_witness(m)
        if pair is not None:
            w = Witness(location=(("spectral_level", 0), ("dim", k)), pair=pair,
                        provenance="level-0 component is not injective")
            return failed(prop, w, "level0-iso", "the level-0 map is not an isomorphism")
        missed = pointed.epi_missed(m)
        if missed is not None:
            w = Witness(location=(("spectral_level", 0), ("dim", k)), pair=(missed, missed),
                        provenance=f"element {m.cod.label(missed)} of the target is not hit")
            return failed(prop, w, "level0-iso", "the level-0 map is not an isomorphism")
    return passed(prop)


def is_levelwise_cofibration(f: SpectrumMap) -> CheckReport:
    prop = "levelwise"
    for n, comp in enumerate(f.components):
        rep = is_mono_ssetmap(comp, prop=prop, location=(("spectral_level", n),))
        if not rep.passed:
            return rep
    return passed(prop, detail=f"monomorphism at every level <= {f.dom.strunc}, dim <= {f.dom.dtrunc}")


def is_flat_cofibration(f: SpectrumMap) -> CheckReport:
    prop = "flat"
    for n in range(f.dom.strunc + 1):
        corner = latching_corner(f, n)
        rep = is_mono_ssetmap(corner.map, prop=prop,
                              location=(("spectral_level", n),),
                              describe=corner.describe)
        if not rep.passed:
            return rep
    return passed(prop, detail=f"latching maps injective for every level <= {f.dom.strunc}")


def is_positive_levelwise(f: SpectrumMap) -> CheckReport:
    prop = "positive-levelwise"
    base = is_levelwise_cofibration(f)
    if not base.passed:
        return CheckReport(prop, False, base.witness, base.failure_kind, base.detail)
    return _level0_iso_clause(f, prop)


def is_positive_flat(f: SpectrumMap) -> CheckReport:
    prop = "positive-flat"
    base = is_flat_cofibration(f)
    if not base.passed:
        return CheckReport(prop, False, base.witness, base.failure_kind, base.detail)
    return _level0_iso_clause(f, prop)


COFIBRATION_TESTS: dict[str, Callable[[SpectrumMap], CheckReport]] = {
    "levelwise": is_levelwise_cofibration,
    "positive-levelwise": is_positive_levelwise,
    "flat": is_flat_cofibration,
    "positive-flat": is_positive_flat,
}


def zero_spectrum(strunc: int, dtrunc: int) -> SymSpectrum:
    pt = point_sset(dtrunc)
    ident = sset_identity(pt)
    dom = smash_ssets(circle(dtrunc), pt)
    sig = SimplicialMap(dom, pt, tuple(zero_map(p, q) for p, q in zip(dom.levels, pt.levels)))
    return SymSpectrum(
        strunc, dtrunc,
        levels=(pt,) * (strunc + 1),
        gens=tuple((ident,) * max(0, n - 1) for n in range(strunc + 1)),
        sigmas=(sig,) * strunc,
    )


def from_zero(x: SymSpectrum) -> SpectrumMap:
    return spectrum_zero_map(zero_spectrum(x.strunc, x.dtrunc), x)


def cofibrant_report(x: SymSpectrum, model: str) -> CheckReport:
    """Cofibrancy of the unique map from the zero spectrum."""
    key = ("cofibrant", model)
    hit = x._cache.get(key)
    if hit is None:
        hit = COFIBRATION_TESTS[model](from_zero(x))
        x._cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# colimits of spectra (levelwise, with induced structure)


def _induced_sigma(n: int, d: int, pieces: Sequence[SymSpectrum],
                   cone_n: CoconeResult, cone_n1: CoconeResult) -> SimplicialMap:
    """Structure map at level n of a levelwise colimit whose levels n and
    n+1 are the colimits cone_n and cone_n1, built by representative
    chasing with a full single-valuedness assertion."""
    obj_n, obj_n1 = cone_n.obj, cone_n1.obj
    dom = smash_ssets(circle(d), obj_n)
    comps = []
    for k in range(d + 1):
        ca = circle(d).levels[k]
        qn = obj_n.levels[k]
        table = [-1] * pointed.smash_sets(ca, qn).size
        table[0] = 0
        for j, piece in enumerate(pieces):
            leg_n = cone_n.legs[j].components[k]
            leg_n1 = cone_n1.legs[j].components[k]
            sig = piece.sigmas[n].components[k]
            pk = piece.levels[n].levels[k]
            for a in range(1, ca.size):
                for y in range(pk.size):
                    idx = pointed.smash_index(ca, qn, a, leg_n.table[y])
                    val = leg_n1.table[sig.table[pointed.smash_index(ca, pk, a, y)]]
                    if table[idx] < 0:
                        table[idx] = val
                    elif table[idx] != val:
                        raise MismatchError("structure map is not well defined on the colimit")
        if any(v < 0 for v in table):
            raise MismatchError("structure map left an element of the colimit uncovered")
        comps.append(PointedMap(pointed.smash_sets(ca, qn), obj_n1.levels[k], tuple(table)))
    return SimplicialMap(dom, obj_n1, tuple(comps))


def lift_spectra(cells: Sequence[CoconeResult], pieces: Sequence[SymSpectrum]) -> CoconeResult:
    """The colimit of spectra whose level-n colimit is the simplicial-set
    colimit cells[n]: action generators are induced cell by cell,
    structure maps by _induced_sigma."""
    strunc, d = len(cells) - 1, pieces[0].dtrunc

    def build(levels, induce):
        gens = tuple(
            tuple(induce(n, n, [p.gens[n][i] for p in pieces]) for i in range(max(0, n - 1)))
            for n in range(strunc + 1)
        )
        sigmas = tuple(_induced_sigma(n, d, pieces, cells[n], cells[n + 1]) for n in range(strunc))
        return SymSpectrum(strunc, d, tuple(levels), gens, sigmas)

    return pointed.lift(cells, pieces, SpectrumMap, build)


def wedge_spectra(parts: Sequence[SymSpectrum]) -> CoconeResult:
    return _wedge_spectra_cached(tuple(parts))


@lru_cache(maxsize=96)
def _wedge_spectra_cached(parts: tuple[SymSpectrum, ...]) -> CoconeResult:
    """Memoized: wedges of spectra from small generator pools recur, and
    sharing the result shares its latching caches across cases."""
    strunc, d = parts[0].strunc, parts[0].dtrunc
    if any((p.strunc, p.dtrunc) != (strunc, d) for p in parts):
        raise MismatchError("wedge: truncation mismatch")
    return lift_spectra([wedge_ssets([p.levels[n] for p in parts]) for n in range(strunc + 1)],
                        parts)


def coequalizer_spectra(f: SpectrumMap, g: SpectrumMap) -> CoconeResult:
    # identity first: deep equality of spectra is costly
    if (f.dom is not g.dom and f.dom != g.dom) or (f.cod is not g.cod and f.cod != g.cod):
        raise MismatchError("coequalizer: not a parallel pair")
    return lift_spectra([coequalizer_ssets(a, b) for a, b in zip(f.components, g.components)],
                        [f.cod])


def pushout_spectra(f: SpectrumMap, g: SpectrumMap) -> CoconeResult:
    return pointed.pushout_by(wedge_spectra, coequalizer_spectra, compose_spectrum_maps, f, g)


@lru_cache(maxsize=128)
def smash_spectrum_sset(x: SymSpectrum, a: SimplicialSet) -> SymSpectrum:
    """X ∧ A for a pointed simplicial set A, smashed levelwise."""
    if a.trunc != x.dtrunc:
        raise MismatchError("smash: truncation mismatch")
    ia = sset_identity(a)
    levels = tuple(smash_ssets(l, a) for l in x.levels)
    gens = tuple(
        tuple(smash_sset_maps(g, ia) for g in fam) for fam in x.gens
    )
    d = x.dtrunc
    sigmas = []
    for n in range(x.strunc):
        dom = smash_ssets(circle(d), levels[n])
        comps = []
        for k in range(d + 1):
            ca = circle(d).levels[k]
            xn = x.levels[n].levels[k]
            ak = a.levels[k]
            xa = levels[n].levels[k]
            sig = x.sigmas[n].components[k]
            xn1 = x.levels[n + 1].levels[k]
            table = [0] * pointed.smash_sets(ca, xa).size
            for c in range(1, ca.size):
                for xi in range(1, xn.size):
                    for ai in range(1, ak.size):
                        idx = pointed.smash_index(ca, xa, c, pointed.smash_index(xn, ak, xi, ai))
                        table[idx] = pointed.smash_index(
                            xn1, ak, sig.table[pointed.smash_index(ca, xn, c, xi)], ai
                        )
            comps.append(PointedMap(pointed.smash_sets(ca, xa), levels[n + 1].levels[k], tuple(table)))
        sigmas.append(SimplicialMap(dom, levels[n + 1], tuple(comps)))
    return SymSpectrum(x.strunc, x.dtrunc, levels, gens, tuple(sigmas))


def smash_spectrum_map_sset(f: SpectrumMap, a: SimplicialSet) -> SpectrumMap:
    ia = sset_identity(a)
    return SpectrumMap(
        smash_spectrum_sset(f.dom, a),
        smash_spectrum_sset(f.cod, a),
        tuple(smash_sset_maps(c, ia) for c in f.components),
    )


def smash_spectrum_sset_map(x: SymSpectrum, f: SimplicialMap) -> SpectrumMap:
    """X ∧ f for a map f of pointed simplicial sets."""
    return SpectrumMap(
        smash_spectrum_sset(x, f.dom),
        smash_spectrum_sset(x, f.cod),
        tuple(smash_sset_maps(sset_identity(l), f) for l in x.levels),
    )
