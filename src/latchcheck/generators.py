"""Seeded random generators and brute-force oracles.

Every generator derives a per-case stream from (seed, case index), so a
fixed configuration reproduces the exact case list regardless of
execution order.  Generators re-check the properties they promise
before yielding: a good simplicial spectrum is certified good by the
real classifier, a theorem-hypothesis instance has its hypotheses
re-verified, and a failure to produce a case within the retry budget is
a distinct generator-starvation error, never a silently weaker case.

Simplicial sets are generated by the free-degeneracy construction: each
new dimension is the latching object of the data below it plus a few
fresh nondegenerate cells whose faces are drawn at random subject to the
face-face identities (with a degenerate fallback).  Spectra are
generated structurally (suspensions of random simplicial sets, wedges,
equivariant quotients); arbitrary level sets do not carry valid
equivariant structure maps, so levelwise sampling is not meaningful.
The positive corpus uses a one-slot shifted suspension: words with a
single marked coordinate, permuted by place, which the flat classifier
certifies positive flat-cofibrant.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import pointed
from .pointed import PointedMap, PointedSet, compose, identity
from .simplicial import (
    BisimplicialSet,
    SimplicialMap,
    SimplicialSet,
    circle,
    constant_bisimplicial,
    constant_sset,
    constant_sset_map,
    lift_ssets,
    operator_rows,
    point_sset,
    smash_sset_maps,
    smash_ssets,
    sphere,
    sset_identity,
    validate_bisimplicial,
    validate_sset,
)
from .reedy import (
    SetsAmbient,
    SimplicialSpectrum,
    SimplicialSpectrumMap,
    SimplicialView,
    constant_simplicial_spectrum,
    is_good,
    is_positive_good,
    latch_scaffold,
    reedy_cofibrant_report,
    simplicial_latching,
    view_of_sset,
    wedge_simplicial_spectra,
)
from .spectra import (
    SymSpectrum,
    is_flat_cofibration,
    is_positive_flat,
    lift_spectra,
    smash_spectrum_sset,
    smash_spectrum_sset_map,
    sphere_spectrum,
    validate_spectrum,
    wedge_spectra,
)

_SETS = SetsAmbient()


class GeneratorStarvation(RuntimeError):
    """The rejection budget was exhausted before a case satisfied the
    required hypotheses."""


def derive_rng(*parts) -> random.Random:
    """Stream derived from the parts by digest, so the same (seed, case)
    pair yields the same cases in any process and any execution order."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class GenConfig:
    seed: int
    ktrunc: int = 3
    strunc: int = 3
    dtrunc: int = 4
    strategy: str = "structured-good"

    def rng(self, case: int) -> random.Random:
        return derive_rng(self.seed, case, self.strategy)


# ---------------------------------------------------------------------------
# pointed sets and maps


def gen_pointed(rng: random.Random, max_size: int = 4) -> PointedSet:
    return PointedSet(rng.randint(1, max_size))


def gen_pointed_map(rng: random.Random, dom: PointedSet, cod: PointedSet) -> PointedMap:
    return PointedMap(dom, cod, (0,) + tuple(
        rng.randrange(cod.size) for _ in range(dom.size - 1)
    ))


# ---------------------------------------------------------------------------
# random truncated pointed simplicial sets


def gen_sset(rng: random.Random, trunc: int, max_base: int = 3,
             max_new: int = 2, fresh_top: bool = False,
             level_cap: int | None = None, tries: int = 12) -> SimplicialSet:
    """Free-degeneracy generation with an optional per-level size cap.

    Degenerate parts are forced by the data below, so the cap is met by
    rejection: draw again with the same stream, keeping the smallest
    candidate if every draw busts the cap."""
    if level_cap is not None:
        best = None
        for _ in range(tries):
            cand = gen_sset(rng, trunc, max_base, max_new, fresh_top)
            worst = max(p.size for p in cand.levels)
            if worst <= level_cap:
                return cand
            if best is None or worst < max(p.size for p in best.levels):
                best = cand
        return best
    return _gen_sset_once(rng, trunc, max_base, max_new, fresh_top)


def _gen_sset_once(rng: random.Random, trunc: int, max_base: int = 3,
                   max_new: int = 2, fresh_top: bool = False) -> SimplicialSet:
    """Free-degeneracy generation: level k is the latching object of the
    levels below plus up to max_new fresh nondegenerate cells with
    randomly chosen compatible faces."""
    levels: list[PointedSet] = [PointedSet(rng.randint(1, max_base))]
    faces: list[tuple[PointedMap, ...]] = [()]
    degens: list[tuple[PointedMap, ...]] = []
    for k in range(1, trunc + 1):
        scaffold = latch_scaffold(lambda m: levels[m], lambda m, i: degens[m][i], k, _SETS)
        lower = max_new if not fresh_top or k < trunc else max(1, max_new)
        n_new = rng.randint(1 if fresh_top and k == trunc else 0, lower)
        fresh = PointedSet(1 + n_new)
        cone = pointed.wedge([scaffold.obj, fresh])
        level_k = cone.obj
        # degeneracies land in the latching part, degeneracy i on summand i
        if k == 1:
            degens.append((cone.legs[0],))
        else:
            into = compose(scaffold.quotient.legs[0], cone.legs[0])
            degens.append(tuple(compose(leg, into) for leg in scaffold.summands.legs))
        # fresh cells draw one compatible face tuple each, used for all i
        fresh_faces = _gen_cell_faces(rng, levels, faces, k, n_new)
        # faces on the latching part are forced by the identities
        face_row = []
        for i in range(k + 1):
            summand_maps = []
            for j in range(k):
                if i == j or i == j + 1:
                    summand_maps.append(identity(levels[k - 1]))
                elif i < j:
                    summand_maps.append(compose(faces[k - 1][i], degens[k - 2][j - 1]))
                else:
                    summand_maps.append(compose(faces[k - 1][i - 1], degens[k - 2][j]))
            latch_face = scaffold.mediate(summand_maps)
            fresh_face = PointedMap(fresh, levels[k - 1],
                                    (0,) + tuple(row[i] for row in fresh_faces))
            face_row.append(cone.factor([latch_face, fresh_face]))
        faces.append(tuple(face_row))
        levels.append(level_k)
    degens.append(())
    out = SimplicialSet(trunc, tuple(levels), tuple(faces), tuple(degens))
    rep = validate_sset(out)
    if not rep.passed:
        raise AssertionError(rep.detail)
    return out


def _gen_cell_faces(rng: random.Random, levels, faces, k: int, n_new: int,
                    tries: int = 40) -> list[tuple[int, ...]]:
    """Faces for fresh k-cells: random subject to d_i d_j = d_{j-1} d_i,
    falling back to all-basepoint faces."""
    rows = []
    size = levels[k - 1].size
    for _ in range(n_new):
        chosen = None
        for _ in range(tries):
            cand = tuple(rng.randrange(size) for _ in range(k + 1))
            if k == 1 or _faces_compatible(faces, k, cand):
                chosen = cand
                break
        rows.append(chosen if chosen is not None else (0,) * (k + 1))
    return rows


def _faces_compatible(faces, k: int, cand: tuple[int, ...]) -> bool:
    for j in range(k + 1):
        for i in range(j):
            if faces[k - 1][i].table[cand[j]] != faces[k - 1][j - 1].table[cand[i]]:
                return False
    return True


# ---------------------------------------------------------------------------
# random bisimplicial sets


def _discrete_bisimplicial(v: SimplicialSet, vtrunc: int) -> BisimplicialSet:
    """Rows are constant simplicial sets on the levels of v; horizontal
    operators are the constant extensions of v's operators."""
    rows = tuple(constant_sset(p, vtrunc) for p in v.levels)
    return BisimplicialSet(v.trunc, vtrunc, rows, *operator_rows(
        v.trunc, lambda k, i: constant_sset_map(v.faces[k][i], vtrunc),
        lambda k, i: constant_sset_map(v.degens[k][i], vtrunc)))


def _smash_bisimplicial(b: BisimplicialSet, z: SimplicialSet) -> BisimplicialSet:
    iz = sset_identity(z)
    rows = tuple(smash_ssets(r, z) for r in b.rows)
    return BisimplicialSet(b.htrunc, b.vtrunc, rows, *operator_rows(
        b.htrunc, lambda k, i: smash_sset_maps(b.hfaces[k][i], iz),
        lambda k, i: smash_sset_maps(b.hdegens[k][i], iz)))


def _congruence(rng: random.Random, grid: Sequence[Sequence[PointedSet]], n_seeds: int,
                images: Callable[[int, int], list]) -> list[list[PointedMap]]:
    """Quotient maps of the least congruence on a grid of pointed sets
    that relates n_seeds random pairs and is closed under the grid's
    operators.

    grid[a][l] is the pointed set in cell (a, l); images(a, l) lists
    ((a', l'), table) for every operator out of that cell.  Seeds draw a
    cell, then two of its elements.  The result holds the canonical
    quotient map of every cell, indexed like the grid.
    """
    parent = {(a, l): list(range(p.size)) for a, row in enumerate(grid) for l, p in enumerate(row)}
    ops = {key: images(*key) for key in parent}
    work = []
    for _ in range(n_seeds):
        a = rng.randint(0, len(grid) - 1)
        l = rng.randint(0, len(grid[a]) - 1)
        size = grid[a][l].size
        if size < 2:
            continue
        work.append((a, l, rng.randrange(size), rng.randrange(size)))
    while work:
        a, l, x, y = work.pop()
        if not pointed.union(parent[(a, l)], x, y):
            continue
        for (a2, l2), table in ops[(a, l)]:
            work.append((a2, l2, table[x], table[y]))
    return [[pointed.quotient_of(p, parent[(a, l)]) for l, p in enumerate(row)]
            for a, row in enumerate(grid)]


def _sset_images(s: SimplicialSet, a: int, l: int) -> list:
    """Faces and degeneracies out of dimension l of s, which sits in row
    a of a congruence grid."""
    return ([((a, l - 1), m.table) for m in s.faces[l]]
            + [((a, l + 1), m.table) for m in s.degens[l]])


def _quotient_ssets(rows: Sequence[SimplicialSet], quots) -> list:
    """Quotient cocone of each simplicial set in rows by its congruence's
    canonical quotient maps, one per dimension."""
    return [lift_ssets([pointed.quotient(q) for q in qs], [r]) for r, qs in zip(rows, quots)]


def _quotient_bisimplicial(rng: random.Random, b: BisimplicialSet,
                           n_seeds: int) -> BisimplicialSet:
    """Quotient by a congruence generated by random pairs, closed under
    both operator families; cell (k, l) is row k at vertical dimension l."""
    quots = _congruence(rng, [r.levels for r in b.rows], n_seeds, lambda k, l: (
        _sset_images(b.rows[k], k, l)
        + [((k - 1, l), m.components[l].table) for m in b.hfaces[k]]
        + [((k + 1, l), m.components[l].table) for m in b.hdegens[k]]))
    rows = _quotient_ssets(b.rows, quots)
    hfaces, hdegens = operator_rows(
        b.htrunc,
        lambda k, i: pointed.induced(rows[k], rows[k - 1], [b.hfaces[k][i]]),
        lambda k, i: pointed.induced(rows[k], rows[k + 1], [b.hdegens[k][i]]))
    return BisimplicialSet(b.htrunc, b.vtrunc, tuple(r.obj for r in rows), hfaces, hdegens)


def gen_bisimplicial(rng: random.Random, htrunc: int = 3, vtrunc: int = 3,
                     max_base: int = 2, max_new: int = 1,
                     grid_cap: int = 4) -> BisimplicialSet:
    b = None
    for _ in range(10):
        kind = rng.randrange(4)
        if kind == 0:
            cand = _discrete_bisimplicial(
                gen_sset(rng, htrunc, max_base, max_new, level_cap=grid_cap), vtrunc)
        elif kind == 1:
            cand = constant_bisimplicial(
                gen_sset(rng, vtrunc, max_base, max_new, level_cap=grid_cap), htrunc)
        else:
            base = _discrete_bisimplicial(
                gen_sset(rng, htrunc, 2, max_new, level_cap=3), vtrunc)
            cand = _smash_bisimplicial(base, gen_sset(rng, vtrunc, 2, 1, level_cap=3))
        if rng.random() < 0.5:
            cand = _quotient_bisimplicial(rng, cand, rng.randint(1, 3))
        b = cand
        if max(p.size for row in cand.rows for p in row.levels) <= grid_cap:
            break
    rep = validate_bisimplicial(b)
    if not rep.passed:
        raise AssertionError(rep.detail)
    return b


# ---------------------------------------------------------------------------
# random symmetric spectra


def _quotient_spectrum(rng: random.Random, x: SymSpectrum, n_seeds: int) -> SymSpectrum:
    """Quotient by an equivariant congruence closed under faces,
    degeneracies, action generators and structure maps; cell (n, l) is
    spectral level n at dimension l.  The quotient is built by the
    spectrum lifting, whose induced operators assert single-valuedness."""
    circ = circle(x.dtrunc)

    def images(n: int, l: int) -> list:
        out = _sset_images(x.levels[n], n, l) + [((n, l), g.components[l].table) for g in x.gens[n]]
        if n < x.strunc:
            # row a of sigma is its restriction to {a} ∧ X(n)
            sig = x.sigmas[n].components[l].table
            w = x.levels[n].levels[l].size - 1
            out += [((n + 1, l), (0,) + sig[1 + a * w:1 + (a + 1) * w])
                    for a in range(circ.levels[l].size - 1)]
        return out

    quots = _congruence(rng, [lvl.levels for lvl in x.levels], n_seeds, images)
    return lift_spectra(_quotient_ssets(x.levels, quots), [x]).obj


@lru_cache(maxsize=None)
def suspension_spectrum(a: SimplicialSet, strunc: int) -> SymSpectrum:
    """Sphere spectrum smashed with a fixed pointed simplicial set."""
    return smash_spectrum_sset(sphere_spectrum(strunc, a.trunc), a)


def gen_spectrum(rng: random.Random, strunc: int = 3, dtrunc: int = 4,
                 max_base: int = 2, max_new: int = 1) -> SymSpectrum:
    """Structured random spectrum: wedge of suspensions of random
    simplicial sets, sometimes quotiented by a random equivariant
    congruence.  Ingredient simplicial sets respect the size caps."""
    n_parts = rng.randint(1, 2)
    parts = [suspension_spectrum(gen_sset(rng, dtrunc, max_base, max_new, level_cap=5),
                                 strunc)
             for _ in range(n_parts)]
    x = parts[0] if n_parts == 1 else wedge_spectra(parts).obj
    if rng.random() < 0.5:
        x = _quotient_spectrum(rng, x, rng.randint(1, 3))
    rep = validate_spectrum(x)
    if not rep.passed:
        raise AssertionError(rep.detail)
    return x


# ---------------------------------------------------------------------------
# the positive building block: a one-slot shifted suspension


@lru_cache(maxsize=None)
def shifted_free_spectrum(a: SimplicialSet, strunc: int) -> SymSpectrum:
    """Level n holds words of n letters: one marked slot carrying a cell
    of a, the rest circle cells; the group permutes slots by place and
    the structure map prepends a circle letter.  Level 0 is the point,
    so the spectrum is a positive candidate; positivity of the flat
    verdict is certified by the classifier at generation time.
    """
    d = a.trunc
    levels: list[SimplicialSet] = [point_sset(d)]
    sizes: dict[tuple[int, int], int] = {}

    def level_size(n: int, l: int) -> int:
        # n >= 1; circle has l non-basepoint cells in dimension l
        return n * (l ** (n - 1)) * (a.levels[l].size - 1) + 1

    def encode(n: int, l: int, c: int, us: tuple[int, ...], av: int) -> int:
        if av == 0 or any(u == 0 for u in us):
            return 0
        rank = 0
        for u in us:
            rank = rank * l + (u - 1)
        return 1 + ((c * (l ** (n - 1)) + rank) * (a.levels[l].size - 1)) + (av - 1)

    def decode(n: int, l: int, idx: int) -> tuple[int, tuple[int, ...], int]:
        idx -= 1
        idx, arem = divmod(idx, a.levels[l].size - 1)
        c, rank = divmod(idx, l ** (n - 1))
        us = []
        for _ in range(n - 1):
            rank, r = divmod(rank, l)
            us.append(r + 1)
        us.reverse()
        return c, tuple(us), arem + 1

    circ = circle(d)
    for n in range(1, strunc + 1):
        lvls = [PointedSet(1) if n > 1 else PointedSet(a.levels[0].size)]
        if n == 1:
            lvls = [a.levels[0]]
        for l in range(1, d + 1):
            lvls.append(PointedSet(level_size(n, l)))
        fc: list[tuple] = [()]
        for l in range(1, d + 1):
            row = []
            for i in range(l + 1):
                ct = circ.faces[l][i].table
                at = a.faces[l][i].table
                table = [0] * lvls[l].size
                for idx in range(1, lvls[l].size):
                    c, us, av = decode(n, l, idx)
                    if l - 1 == 0 and n > 1:
                        table[idx] = 0
                        continue
                    table[idx] = encode(n, l - 1, c, tuple(ct[u] for u in us), at[av])
                row.append(PointedMap(lvls[l], lvls[l - 1], tuple(table)))
            fc.append(tuple(row))
        dg: list[tuple] = []
        for l in range(d):
            row = []
            for i in range(l + 1):
                st = circ.degens[l][i].table
                at = a.degens[l][i].table
                table = [0] * lvls[l].size
                for idx in range(1, lvls[l].size):
                    c, us, av = decode(n, l, idx)
                    table[idx] = encode(n, l + 1, c, tuple(st[u] for u in us), at[av])
                row.append(PointedMap(lvls[l], lvls[l + 1], tuple(table)))
            dg.append(tuple(row))
        dg.append(())
        levels.append(SimplicialSet(d, tuple(lvls), tuple(fc), tuple(dg)))

    gens: list[tuple[SimplicialMap, ...]] = [(), ()]
    for n in range(2, strunc + 1):
        fam = []
        for i in range(n - 1):
            comps = []
            for l in range(d + 1):
                lvl = levels[n].levels[l]
                table = [0] * lvl.size
                for idx in range(1, lvl.size):
                    c, us, av = decode(n, l, idx)
                    if c == i:
                        c2, us2 = i + 1, us
                    elif c == i + 1:
                        c2, us2 = i, us
                    else:
                        r = i if i < c else i - 1
                        lst = list(us)
                        lst[r], lst[r + 1] = lst[r + 1], lst[r]
                        c2, us2 = c, tuple(lst)
                    table[idx] = encode(n, l, c2, us2, av)
                comps.append(PointedMap(lvl, lvl, tuple(table)))
            fam.append(SimplicialMap(levels[n], levels[n], tuple(comps)))
        gens.append(tuple(fam))

    sigmas = []
    for n in range(strunc):
        dom = smash_ssets(circ, levels[n])
        comps = []
        for l in range(d + 1):
            ca = circ.levels[l]
            src = levels[n].levels[l]
            tgt = levels[n + 1].levels[l]
            table = [0] * pointed.smash_sets(ca, src).size
            for u in range(1, ca.size):
                for idx in range(1, src.size):
                    if n == 0:
                        continue
                    if n == 1:
                        c, us, av = 0, (), idx
                    else:
                        c, us, av = decode(n, l, idx)
                    table[pointed.smash_index(ca, src, u, idx)] = encode(
                        n + 1, l, c + 1, (u,) + us, av)
            comps.append(PointedMap(pointed.smash_sets(ca, src), tgt, tuple(table)))
        sigmas.append(SimplicialMap(dom, levels[n + 1], tuple(comps)))

    out = SymSpectrum(strunc, d, tuple(levels), tuple(gens[: strunc + 1]), tuple(sigmas))
    rep = validate_spectrum(out)
    if not rep.passed:
        raise AssertionError(rep.detail)
    return out


# ---------------------------------------------------------------------------
# good and positive-good simplicial spectra


@lru_cache(maxsize=None)
def _block(base: SymSpectrum, width: int, dtrunc: int) -> SymSpectrum:
    """base ∧ (discrete pointed set of the given size); shared across
    cases so cofibrancy verdicts are computed once per block."""
    return smash_spectrum_sset(base, constant_sset(PointedSet(width), dtrunc))


def mold_simplicial_spectrum(base: SymSpectrum, mold: SimplicialSet) -> SimplicialSpectrum:
    """Degrees base ∧ (discrete mold level); operators act on the mold
    part only, so degeneracies are split monomorphisms levelwise."""
    d = base.dtrunc
    k = mold.trunc
    degrees = tuple(_block(base, mold.levels[m].size, d) for m in range(k + 1))
    return SimplicialSpectrum(k, degrees, *operator_rows(
        k, lambda m, i: smash_spectrum_sset_map(base, constant_sset_map(mold.faces[m][i], d)),
        lambda m, i: smash_spectrum_sset_map(base, constant_sset_map(mold.degens[m][i], d))))


def _coefficient_pool(seed: int, dtrunc: int, count: int = 3) -> list[SimplicialSet]:
    """Small pool of coefficient simplicial sets shared by a whole run,
    so smashed blocks repeat and their verdicts are cached.  Ingredient
    level sizes are capped at 5."""
    rng = derive_rng("coefficients", seed)
    pool = [sphere(0, dtrunc)]
    for _ in range(count - 1):
        pool.append(gen_sset(rng, dtrunc, max_base=2, max_new=1, level_cap=5))
    return pool


def gen_good_simplicial_spectrum(rng: random.Random, cfg: GenConfig,
                                 pool: Sequence[SimplicialSet] | None = None,
                                 positive: bool = False) -> SimplicialSpectrum:
    """A good (optionally positive-good) simplicial spectrum: a wedge of
    mold-shaped suspension blocks.  The goodness verdict is re-checked
    by the classifier before the case is returned."""
    pool = pool or _coefficient_pool(cfg.seed, cfg.dtrunc)
    if cfg.strategy == "rejection":
        return _gen_good_by_rejection(rng, cfg)
    n_parts = rng.randint(1, 2)
    parts = []
    for _ in range(n_parts):
        a = pool[0] if rng.random() < 0.4 else rng.choice(pool)
        base = (shifted_free_spectrum(a, cfg.strunc) if positive
                else suspension_spectrum(a, cfg.strunc))
        if rng.random() < 0.3:
            parts.append(constant_simplicial_spectrum(
                _block(base, rng.randint(2, 3), cfg.dtrunc), cfg.ktrunc))
        else:
            mold = gen_sset(rng, cfg.ktrunc, max_base=2, max_new=1, level_cap=6)
            parts.append(mold_simplicial_spectrum(base, mold))
    x = parts[0] if n_parts == 1 else wedge_simplicial_spectra(parts)[0]
    rep = is_positive_good(x) if positive else is_good(x)
    if not rep.passed:
        raise AssertionError(f"generator postcondition violated: {rep.detail}")
    return x


def _gen_good_by_rejection(rng: random.Random, cfg: GenConfig,
                           max_tries: int = 60) -> SimplicialSpectrum:
    """Unbiased source: random spectra shaped by a mold, kept only if
    the goodness classifier accepts; starvation after the retry budget."""
    discards = 0
    for _ in range(max_tries):
        base = gen_spectrum(rng, cfg.strunc, cfg.dtrunc, max_base=2, max_new=1)
        mold = gen_sset(rng, cfg.ktrunc, max_base=2, max_new=1, level_cap=6)
        x = mold_simplicial_spectrum(base, mold)
        if is_good(x).passed:
            return x
        discards += 1
        if discards / max_tries > 0.95:
            break
    raise GeneratorStarvation(
        f"no good case within {max_tries} tries (discarded {discards})")


# ---------------------------------------------------------------------------
# theorem-hypothesis instances


@dataclass(frozen=True)
class TheoremInstance:
    name: str
    positive: bool
    x: SimplicialSpectrum
    y: SimplicialSpectrum | None
    f: SimplicialSpectrumMap | None


def gen_thm_hypothesis_instance(rng: random.Random, cfg: GenConfig, theorem: str,
                                pool: Sequence[SimplicialSet] | None = None
                                ) -> TheoremInstance:
    """An instance provably satisfying the named theorem's hypotheses.

    Maps are degreewise wedge inclusions between good objects; the
    hypotheses are re-verified by the real classifiers before the
    instance is returned, and a violation raises instead of yielding a
    weaker case.
    """
    positive = cfg.strategy != "rejection" and rng.random() < 0.3
    pool = pool or _coefficient_pool(cfg.seed, cfg.dtrunc)
    if theorem == "3.2":
        x = gen_good_simplicial_spectrum(rng, cfg, pool=pool, positive=positive)
        rep = is_positive_good(x) if positive else is_good(x)
        if not rep.passed:
            raise GeneratorStarvation(rep.detail)
        return TheoremInstance("3.2", positive, x, None, None)

    x = gen_good_simplicial_spectrum(rng, cfg, pool=pool, positive=positive)
    w = gen_good_simplicial_spectrum(rng, cfg, pool=pool, positive=positive)
    y, legs = wedge_simplicial_spectra([x, w])
    f = legs[0]

    # pointwise cofibration clause, in the positive variant when asked
    for m in range(cfg.ktrunc + 1):
        rep = (is_positive_flat(f.components[m]) if positive
               else is_flat_cofibration(f.components[m]))
        if not rep.passed:
            raise GeneratorStarvation(f"pointwise clause fails at degree {m}: {rep.detail}")
    if theorem == "4.1":
        if not reedy_cofibrant_report(y, "levelwise").passed:
            raise GeneratorStarvation("target is not Reedy levelwise-cofibrant")
    elif theorem == "4.2":
        for obj in (x, y):
            if not reedy_cofibrant_report(obj, "flat").passed:
                raise GeneratorStarvation("a side is not Reedy flat-cofibrant")
    elif theorem == "1.4":
        for obj in (x, y):
            rep = is_positive_good(obj) if positive else is_good(obj)
            if not rep.passed:
                raise GeneratorStarvation("a side is not good")
    else:
        raise ValueError(f"unknown theorem id {theorem!r}")
    return TheoremInstance(theorem, positive, x, y, f)


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_latching_sets(view: SimplicialView, n: int) -> tuple[int, ...]:
    """Independent latching oracle for set-like ambients: the union of
    the images of the degeneracies into degree n, as a sorted tuple of
    element indices of the degree-n object.

    Valid only where the ambient is pointed sets; the spectral latching
    object is not a union of degeneracy images in general.
    """
    if n == 0:
        return (0,)
    image = {0}
    for i in range(n):
        image.update(view.degen_at(n - 1, i).table)
    return tuple(sorted(image))


def latching_image_agrees(s: SimplicialSet, n: int) -> bool:
    """Coequalizer-built latching vs the degeneracy-union oracle: equal
    images, and the comparison map is injective (set-like case)."""
    latch = simplicial_latching(view_of_sset(s), n, _SETS)
    image = tuple(sorted(set(latch.nu.table)))
    oracle = oracle_latching_sets(view_of_sset(s), n)
    mono = pointed.mono_witness(latch.nu) is None
    return image == oracle and mono


def face_section_holds(s: SimplicialSet) -> bool:
    """Every element of degree k is a face of its own degeneracy: some j
    has d_j s_j = id, making each element of degree k a face of an
    element of degree k+1."""
    for k in range(s.trunc):
        if not any(
            compose(s.degens[k][j], s.faces[k + 1][j]).table == tuple(range(s.levels[k].size))
            for j in range(k + 1)
        ):
            return False
    return True


def pushout_over_pullback_mono(f1: PointedMap, f2: PointedMap) -> bool:
    """The mediating map from the pushout over the pullback of a cospan
    of monos is a monomorphism (checked directly)."""
    pb = pointed.pullback(f1, f2)
    po = pointed.pushout(pb.proj1, pb.proj2)
    med = po.factor([f1, f2])
    return pointed.mono_witness(med) is None


def all_mono_cospans(max_size: int):
    """Every cospan (f1: B -> D, f2: C -> D) of monos with sizes bounded
    by max_size, enumerated exhaustively."""
    from itertools import permutations

    def monos_into(b: int, dsize: int):
        # injective pointed tables from a size-b set into a size-d set
        items = list(range(1, dsize))
        for img in permutations(items, b - 1):
            yield PointedMap(PointedSet(b), PointedSet(dsize), (0,) + img)

    for dsize in range(1, max_size + 1):
        for bsize in range(1, dsize + 1):
            for csize in range(1, dsize + 1):
                for f1 in monos_into(bsize, dsize):
                    for f2 in monos_into(csize, dsize):
                        yield f1, f2
