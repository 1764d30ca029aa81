"""Finite pointed sets with all the finite limits and colimits used here.

Every higher-level check in the package bottoms out in these tables.
Conventions, fixed once:

* elements of a pointed set are the indices 0..size-1 and the basepoint
  is always index 0;
* maps are total tables of codomain indices with table[0] == 0;
* quotients relabel canonically: classes are ordered by their least
  member, so the basepoint class is index 0 and equal constructions
  yield equal tables;
* all values are immutable after construction and operations are pure.

Optional labels are witness decoration only; they never participate in
equality.

Every table type here and in `simplicial` and `spectra` computes its hash
once, on first use, into a declared field (`_h`) that takes no part in
equality, repr or documents.  The value is the one a frozen dataclass
would generate, the hash of the tuple of compare fields, so no set or
dict order depends on the caching.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


class MismatchError(ValueError):
    """Domain/codomain (or truncation) mismatch between composed pieces."""


def stored_hash(obj, key: tuple) -> int:
    """Store hash(key) in obj._h and return it.  key is obj's tuple of
    compare fields, so the value is the hash a frozen dataclass generates."""
    h = hash(key)
    object.__setattr__(obj, "_h", h)
    return h


@dataclass(frozen=True)
class PointedSet:
    size: int
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    _h: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        h = self._h
        if h is None:
            h = stored_hash(self, (self.size,))
        return h

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"pointed set needs size >= 1, got {self.size}")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError("label table length must equal size")

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return "*" if i == 0 else f"e{i}"


POINT = PointedSet(1, labels=("*",))


@dataclass(frozen=True)
class PointedMap:
    dom: PointedSet
    cod: PointedSet
    table: tuple[int, ...]
    _h: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        h = self._h
        if h is None:
            h = stored_hash(self, (self.dom, self.cod, self.table))
        return h

    def __post_init__(self) -> None:
        if len(self.table) != self.dom.size:
            raise ValueError(
                f"table length {len(self.table)} != domain size {self.dom.size}"
            )
        if self.table[0] != 0:
            raise ValueError("maps must send basepoint to basepoint")
        if min(self.table) < 0 or max(self.table) >= self.cod.size:
            bad = next(i for i, v in enumerate(self.table) if not 0 <= v < self.cod.size)
            raise ValueError(
                f"table[{bad}]={self.table[bad]} outside codomain of size {self.cod.size}"
            )

    def __call__(self, i: int) -> int:
        return self.table[i]


def identity(a: PointedSet) -> PointedMap:
    return PointedMap(a, a, tuple(range(a.size)))


def zero_map(a: PointedSet, b: PointedSet) -> PointedMap:
    return PointedMap(a, b, (0,) * a.size)


def compose(f: PointedMap, g: PointedMap) -> PointedMap:
    """f followed by g: result.table[i] = g.table[f.table[i]]."""
    # identity first: the common case, and it skips the generated __eq__
    if f.cod is not g.dom and f.cod != g.dom:
        raise MismatchError("compose: f.cod != g.dom")
    gt = g.table
    return PointedMap(f.dom, g.cod, tuple([gt[v] for v in f.table]))


def mono_witness(f: PointedMap) -> tuple[int, int] | None:
    """Lexicographically least colliding pair, non-basepoint pairs preferred.

    Returns None when the table is injective.  A pair involving the
    basepoint (index 0) is reported only when no two non-basepoint
    elements collide.
    """
    occurrences: dict[int, list[int]] = {}
    for i, v in enumerate(f.table):
        hits = occurrences.setdefault(v, [])
        if len(hits) < 3:
            hits.append(i)
    best: tuple[int, int] | None = None
    base_pair: tuple[int, int] | None = None
    for hits in occurrences.values():
        if len(hits) < 2:
            continue
        pair = (hits[0], hits[1])
        if hits[0] == 0:
            base_pair = pair
            if len(hits) >= 3:
                pair = (hits[1], hits[2])
            else:
                continue
        if best is None or pair < best:
            best = pair
    return best if best is not None else base_pair


def is_mono(f: PointedMap) -> bool:
    return mono_witness(f) is None


def epi_missed(f: PointedMap) -> int | None:
    """Least codomain index not hit, or None if f is surjective."""
    hit = [False] * f.cod.size
    for v in f.table:
        hit[v] = True
    for i, h in enumerate(hit):
        if not h:
            return i
    return None


def is_epi(f: PointedMap) -> bool:
    return epi_missed(f) is None


def is_iso(f: PointedMap) -> bool:
    return f.dom.size == f.cod.size and is_mono(f)


def invert(f: PointedMap) -> PointedMap:
    if not is_iso(f):
        raise ValueError("invert: map is not an isomorphism")
    table = [0] * f.cod.size
    for i, v in enumerate(f.table):
        table[v] = i
    return PointedMap(f.cod, f.dom, tuple(table))


@dataclass(frozen=True)
class CoconeResult:
    """A colimit object with its legs and the universal factorization.

    One cocone type serves every ambient: obj and legs are pointed sets
    and maps here, simplicial sets and maps in `simplicial`, spectra and
    spectrum maps in `spectra`, simplicial spectra and their maps in
    `reedy`.  factor takes one competing leg per defining leg (maps out
    of the original diagram's objects, commuting with the diagram) and
    returns the unique mediating map out of obj.  It raises
    MismatchError when the competing cone does not commute, which
    doubles as a dynamic well-definedness assertion everywhere quotients
    are extended.

    The higher ambients form colimits levelwise through `lift`, which
    records one cocone per index of its grid (dim; level x dim; degree
    x level x dim) as cells, and its layer's map constructor as
    make_map.  A quotient records reps, the least member of each class.
    `induced`, the one induced-map kernel, reads these fields.
    """

    obj: object
    legs: tuple
    factor: Callable[[Sequence], object] = field(compare=False)
    reps: tuple[int, ...] | None = field(default=None, compare=False)
    cells: tuple = field(default=(), compare=False)
    make_map: Callable | None = field(default=None, compare=False)


def wedge(parts: Sequence[PointedSet]) -> CoconeResult:
    """Coproduct: one basepoint plus the disjoint non-base parts, in order."""
    offsets: list[int] = []
    total = 1
    for p in parts:
        offsets.append(total - 1)
        total += p.size - 1
    obj = PointedSet(total)
    legs = tuple(
        PointedMap(p, obj, (0,) + tuple(offsets[j] + i for i in range(1, p.size)))
        for j, p in enumerate(parts)
    )

    def factor(competing: Sequence[PointedMap]) -> PointedMap:
        if len(competing) != len(parts):
            raise MismatchError("wedge.factor: wrong number of legs")
        cod = competing[0].cod if competing else POINT
        table = [0]
        for leg, comp in zip(legs, competing):
            if comp.dom != leg.dom or comp.cod != cod:
                raise MismatchError("wedge.factor: leg endpoints do not match")
            table += comp.table[1:]
        return PointedMap(obj, cod, tuple(table))

    return CoconeResult(obj=obj, legs=legs, factor=factor)


def wedge_split(parts: Sequence[PointedSet], idx: int) -> tuple[int, int]:
    """Inverse of the wedge injections: global index -> (part, local index)."""
    if idx == 0:
        return (0, 0)
    for j, p in enumerate(parts):
        if idx < p.size:
            return (j, idx)
        idx -= p.size - 1
    raise IndexError("wedge_split: index out of range")


def smash_sets(a: PointedSet, b: PointedSet) -> PointedSet:
    """Smash product: pairs with either coordinate at basepoint collapsed.

    The canonical pairing is smash_index: (i, j) with i, j >= 1 goes to
    1 + (i-1)*(b.size-1) + (j-1); anything with a basepoint coordinate
    goes to 0.  smash_split inverts it on non-basepoint indices.
    """
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = ["*"]
        for i in range(1, a.size):
            for j in range(1, b.size):
                labels.append(f"{a.labels[i]}∧{b.labels[j]}")
        labels = tuple(labels)
    return PointedSet((a.size - 1) * (b.size - 1) + 1, labels=labels)


def smash_index(a: PointedSet, b: PointedSet, i: int, j: int) -> int:
    if i == 0 or j == 0:
        return 0
    return 1 + (i - 1) * (b.size - 1) + (j - 1)


def smash_split(a: PointedSet, b: PointedSet, idx: int) -> tuple[int, int]:
    if idx == 0:
        return (0, 0)
    q, r = divmod(idx - 1, b.size - 1)
    return (q + 1, r + 1)


def smash_map(f: PointedMap, g: PointedMap) -> PointedMap:
    dom = smash_sets(f.dom, g.dom)
    cod = smash_sets(f.cod, g.cod)
    table = [0] * dom.size
    gw = g.dom.size - 1
    cw = g.cod.size - 1
    ft, gt = f.table, g.table
    pos = 1
    for i in range(1, f.dom.size):
        fi = ft[i]
        if fi == 0:
            pos += gw
            continue
        base = 1 + (fi - 1) * cw
        for j in range(1, g.dom.size):
            gj = gt[j]
            if gj:
                table[pos] = base + gj - 1
            pos += 1
    return PointedMap(dom, cod, tuple(table))


def smash_swap(a: PointedSet, b: PointedSet) -> PointedMap:
    """The symmetry a ∧ b -> b ∧ a, sending the pair (i, j) to (j, i)."""
    aw, bw = a.size - 1, b.size - 1
    table = [0] + [1 + j * aw + i for i in range(aw) for j in range(bw)]
    return PointedMap(smash_sets(a, b), smash_sets(b, a), tuple(table))


def union(parent: list[int], x: int, y: int) -> bool:
    """Merge the classes of x and y in a flat union-find; False when they
    were already one class.

    The least member of a class is its root, so parent[i] <= i always.
    find is inlined, with path halving; the chained assignment binds
    parent[x] before x.
    """
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    while parent[y] != y:
        parent[y] = y = parent[parent[y]]
    if x == y:
        return False
    if x < y:
        parent[y] = x
    else:
        parent[x] = y
    return True


def quotient_of(target: PointedSet, parent: list[int]) -> PointedMap:
    """The canonical quotient map of a union-find over target, in one
    ascending pass: a root opens the next class, and any other element
    joins its parent's class, already numbered since parent[i] < i."""
    table = [0] * len(parent)
    k = 0
    for i, p in enumerate(parent):
        if p == i:
            table[i] = k
            k += 1
        else:
            table[i] = table[p]
    return PointedMap(target, PointedSet(k), tuple(table))


def quotient_by_pairs(target: PointedSet, pairs: Iterable[tuple[int, int]]) -> PointedMap:
    """Canonical quotient of target by the relation generated by pairs.

    Classes are relabelled by least representative, ascending, so the
    basepoint class is index 0.
    """
    parent = list(range(target.size))
    for x, y in pairs:
        if x != y:
            union(parent, x, y)
    return quotient_of(target, parent)


def quotient(q: PointedMap) -> CoconeResult:
    """A canonical quotient map, classes numbered in order of their least
    members, as a one-legged cocone."""
    obj = q.cod
    least = [-1] * obj.size
    for i, c in enumerate(q.table):
        if least[c] < 0:
            least[c] = i
    reps = tuple(least)

    def factor(competing: Sequence[PointedMap]) -> PointedMap:
        (m,) = competing
        if m.dom != q.dom:
            raise MismatchError("coequalizer.factor: wrong domain")
        table = tuple(m.table[r] for r in reps)
        for i, c in enumerate(q.table):
            if m.table[i] != table[c]:
                raise MismatchError(
                    "coequalizer.factor: competing map does not coequalize the pair"
                )
        return PointedMap(obj, m.cod, table)

    return CoconeResult(obj=obj, legs=(q,), factor=factor, reps=reps)


def coequalizer(f: PointedMap, g: PointedMap) -> CoconeResult:
    """Coequalizer of a parallel pair, computed by union-find."""
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchError("coequalizer: maps are not a parallel pair")
    return quotient(quotient_by_pairs(f.cod, zip(f.table, g.table)))


def induced(src: CoconeResult, dst: CoconeResult, ops: Sequence) -> object:
    """The map src.obj -> dst.obj induced by one map per piece.

    src and dst are colimits of the same shape, and ops[j] maps src's
    piece j to dst's piece j.  A lifted colimit induces it cell by cell;
    a wedge concatenates each part's map followed by its leg; a quotient
    chases each class's least member through its map and dst's quotient,
    and raises MismatchError when another member of the class lands
    elsewhere, so an ill-defined induction never yields a table.
    """
    if src.cells:
        return src.make_map(src.obj, dst.obj, tuple(
            induced(s, t, [op.components[i] for op in ops])
            for i, (s, t) in enumerate(zip(src.cells, dst.cells))
        ))
    if src.reps is None:
        # the parts sit in order after the basepoint
        table = [0]
        for leg, op in zip(dst.legs, ops):
            lt = leg.table
            table += [lt[v] for v in op.table[1:]]
        return PointedMap(src.obj, dst.obj, tuple(table))
    (op,) = ops
    qt = dst.legs[0].table
    image = [qt[v] for v in op.table]
    table = tuple([image[r] for r in src.reps])
    if image != [table[c] for c in src.legs[0].table]:
        raise MismatchError("coequalizer: an operator does not respect the quotient")
    return PointedMap(src.obj, dst.obj, table)


def lift(cells: Sequence[CoconeResult], pieces: Sequence, make_map: Callable,
         build: Callable) -> CoconeResult:
    """The levelwise colimit of pieces whose component at index i has the
    colimit cells[i].

    make_map(dom, cod, components) is the map constructor of the layer.
    build(objs, induce) assembles the colimit object from the cells'
    objects, where induce(i, j, ops) is the operator from index i to
    index j induced by one operator per piece.  Legs and factor are
    taken cell by cell.
    """
    obj = build([c.obj for c in cells], lambda i, j, ops: induced(cells[i], cells[j], ops))
    legs = tuple(make_map(p, obj, tuple(c.legs[j] for c in cells)) for j, p in enumerate(pieces))

    def factor(competing: Sequence) -> object:
        return make_map(obj, competing[0].cod, tuple(
            c.factor([m.components[i] for m in competing]) for i, c in enumerate(cells)
        ))

    return CoconeResult(obj=obj, legs=legs, factor=factor, cells=tuple(cells), make_map=make_map)


def pushout_by(wedge_fn: Callable, coequalizer_fn: Callable, compose_fn: Callable,
               f, g) -> CoconeResult:
    """Pushout of B <-f- A -g-> C in any ambient: coequalize the two
    composites into B v C, using that ambient's wedge, coequalizer and
    composition."""
    if f.dom != g.dom:
        raise MismatchError("pushout: maps must share their domain")
    w = wedge_fn([f.cod, g.cod])
    co = coequalizer_fn(compose_fn(f, w.legs[0]), compose_fn(g, w.legs[1]))
    q = co.legs[0]

    def factor(competing: Sequence) -> object:
        u, v = competing
        return co.factor([w.factor([u, v])])

    return CoconeResult(obj=co.obj, legs=(compose_fn(w.legs[0], q), compose_fn(w.legs[1], q)),
                        factor=factor)


def pushout(f: PointedMap, g: PointedMap) -> CoconeResult:
    return pushout_by(wedge, coequalizer, compose, f, g)


@dataclass(frozen=True)
class PullbackResult:
    obj: PointedSet
    proj1: PointedMap
    proj2: PointedMap
    pairs: tuple[tuple[int, int], ...]


def pullback(f: PointedMap, g: PointedMap) -> PullbackResult:
    """Pullback of B -f-> D <-g- C: pairs with equal image, basepoint (0,0)."""
    if f.cod != g.cod:
        raise MismatchError("pullback: maps must share their codomain")
    pairs = [
        (b, c)
        for b in range(f.dom.size)
        for c in range(g.dom.size)
        if f.table[b] == g.table[c]
    ]
    pairs.sort()
    if pairs[0] != (0, 0):
        raise AssertionError("pullback: the basepoint pair (0, 0) is missing")
    obj = PointedSet(len(pairs))
    proj1 = PointedMap(obj, f.dom, tuple(b for b, _ in pairs))
    proj2 = PointedMap(obj, g.dom, tuple(c for _, c in pairs))
    return PullbackResult(obj=obj, proj1=proj1, proj2=proj2, pairs=tuple(pairs))
