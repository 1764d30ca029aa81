"""Permutations of {0..n-1} as image tuples, with the block calculus
needed for symmetric-group actions on graded smash products.

compose_perm(p, q) is p after q: (p∘q)[i] = p[q[i]].  Block sums put the
first factor on the low letters.  chi(a, b) is the block transposition
moving the first a letters past the last b.  Shuffles are the canonical
coset representatives: increasing on each block, enumerated in
lexicographic order of their image tuples.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose_perm(p: Perm, q: Perm) -> Perm:
    return tuple(p[v] for v in q)


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def adjacent_transposition(n: int, i: int) -> Perm:
    t = list(range(n))
    t[i], t[i + 1] = t[i + 1], t[i]
    return tuple(t)


def block_sum(p: Perm, q: Perm) -> Perm:
    a = len(p)
    return p + tuple(a + v for v in q)


def chi(a: int, b: int) -> Perm:
    """Block transposition in S_{a+b}: letters < a move up by b."""
    return tuple(i + b for i in range(a)) + tuple(range(b))


def adjacent_word(p: Perm) -> tuple[int, ...]:
    """Word w with p = t_{w[0]} ∘ t_{w[1]} ∘ ... ∘ t_{w[-1]}.

    Bubble-sorting the image tuple right-multiplies by adjacent
    transpositions, so the recorded swaps, reversed, spell p.
    """
    a = list(p)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(a) - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                swaps.append(i)
                changed = True
    return tuple(reversed(swaps))


@lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple[Perm, ...]:
    """(p,q)-shuffles of S_{p+q}, lexicographic in the image tuple."""
    n = p + q
    out = []
    for pos in combinations(range(n), p):
        rest = sorted(set(range(n)) - set(pos))
        out.append(tuple(pos) + tuple(rest))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def multi_shuffles(sizes: tuple[int, ...]) -> tuple[Perm, ...]:
    """Shuffles for several blocks: increasing on each block, lex order."""
    n = sum(sizes)

    def rec(remaining: tuple[int, ...], free: tuple[int, ...]) -> Iterable[Perm]:
        if not remaining:
            yield ()
            return
        k, rest = remaining[0], remaining[1:]
        for pos in combinations(free, k):
            left = tuple(x for x in free if x not in pos)
            for tail in rec(rest, left):
                yield tuple(pos) + tail

    out = sorted(rec(tuple(sizes), tuple(range(n))))
    return tuple(out)


def factor_by_blocks(sigma: Perm, sizes: Sequence[int]) -> tuple[Perm, tuple[Perm, ...]]:
    """Factor sigma = gamma ∘ (rho_1 ⊕ ... ⊕ rho_m) with gamma a shuffle.

    gamma sends each block to the sorted image positions of that block;
    rho_b is the relative order of sigma within block b.
    """
    gamma: list[int] = []
    parts: list[Perm] = []
    start = 0
    for k in sizes:
        img = sigma[start : start + k]
        ranked = sorted(img)
        gamma.extend(ranked)
        rank = {v: r for r, v in enumerate(ranked)}
        parts.append(tuple(rank[v] for v in img))
        start += k
    return tuple(gamma), tuple(parts)


def is_shuffle(p: Perm, sizes: Sequence[int]) -> bool:
    start = 0
    for k in sizes:
        block = p[start : start + k]
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            return False
        start += k
    return True
