"""Permutations on {1..n} as tuples, plus pairings and a union-find.

A permutation on n points is stored as a tuple `p` of length n with
``p[i - 1]`` the image of i (images are 1-based as well).  This matches the
half-edge labelling used throughout the package, where half-edges are numbered
1..2e.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]

__all__ = [
    "compose",
    "inverse",
    "cycles_of",
    "from_cycles",
    "is_involution_without_fixed_points",
    "fixed_point_free_involutions",
    "UnionFind",
]


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation x -> p(q(x))."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, img in enumerate(p, start=1):
        inv[img - 1] = i
    return tuple(inv)


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles of p, each rotated smallest-first, sorted by smallest element."""
    seen = [False] * len(p)
    cycles = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        nxt = p[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt - 1] = True
            nxt = p[nxt - 1]
        cycles.append(tuple(cycle))
    return cycles


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation on {1..n} from disjoint cycles; unlisted points are fixed.

    Raises ValueError on out-of-range or repeated entries.
    """
    images = list(range(1, n + 1))
    used = [False] * n
    for cycle in cycles:
        for x in cycle:
            if not 1 <= x <= n:
                raise ValueError(f"cycle entry {x} outside 1..{n}")
            if used[x - 1]:
                raise ValueError(f"element {x} appears in more than one cycle")
            used[x - 1] = True
        for i, x in enumerate(cycle):
            images[x - 1] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def is_involution_without_fixed_points(p: Perm) -> bool:
    return all(p[i - 1] != i and p[p[i - 1] - 1] == i for i in range(1, len(p) + 1))


def fixed_point_free_involutions(n: int) -> Iterator[Perm]:
    """Yield all (n-1)!! fixed-point-free involutions of {1..n} (n even).

    Deterministic order: the smallest unmatched point is always paired next,
    with partners tried in increasing order.  Iterative, stack-driven.
    """
    if n % 2 != 0:
        raise ValueError("a fixed-point-free involution needs an even ground set")
    if n == 0:
        yield ()
        return
    # Stack of (pairs-so-far, frozenset of unused points as sorted tuple).
    stack: list[tuple[list[tuple[int, int]], tuple[int, ...]]] = [([], tuple(range(1, n + 1)))]
    while stack:
        pairs, free = stack.pop()
        if not free:
            images = [0] * n
            for a, b in pairs:
                images[a - 1] = b
                images[b - 1] = a
            yield tuple(images)
            continue
        first = free[0]
        rest = free[1:]
        # Push partners in reverse so the smallest partner pops first.
        for idx in range(len(rest) - 1, -1, -1):
            partner = rest[idx]
            remaining = rest[:idx] + rest[idx + 1:]
            stack.append((pairs + [(first, partner)], remaining))


class UnionFind:
    """Union-find over {0..n-1} with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False if they already were one class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True
