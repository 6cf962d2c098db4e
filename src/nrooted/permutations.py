"""Permutations on {1..n} as tuples, plus pairings and their connectivity.

A permutation on n points is stored as a tuple `p` of length n with
``p[i - 1]`` the image of i (images are 1-based as well).  This matches the
half-edge labelling used throughout the package, where half-edges are numbered
1..2e.

``_one_pairing_orbits`` turns the count of both (2e)!-division oracles, made
on one pairing, into classes.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Iterator, Sequence

from .combinat import double_factorial
from .errors import ConsistencyError

Perm = tuple[int, ...]

__all__ = [
    "compose",
    "inverse",
    "cycles_of",
    "from_cycles",
    "is_involution_without_fixed_points",
    "fixed_point_free_involutions",
    "standard_pairing",
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
    n = len(p)  # an image outside 1..n is no involution of 1..n either
    return all(0 < x <= n and x != i and p[x - 1] == i for i, x in enumerate(p, start=1))


def fixed_point_free_involutions(n: int) -> Iterator[Perm]:
    """Yield all (n-1)!! fixed-point-free involutions of {1..n} (n even).

    Deterministic order: the smallest unmatched point is always paired next,
    with partners tried in increasing order.  Recursive, over one image buffer.
    """
    if n % 2 != 0:
        raise ValueError("a fixed-point-free involution needs an even ground set")
    images = [0] * (n + 1)  # images[p] for points 1..n, 0 while unmatched

    def pair(first: int) -> Iterator[Perm]:
        while first <= n and images[first]:
            first += 1
        if first > n:
            yield tuple(images[1:])
            return
        for partner in range(first + 1, n + 1):
            if not images[partner]:
                images[first], images[partner] = partner, first
                yield from pair(first + 1)
                images[first] = images[partner] = 0

    yield from pair(1)


def standard_pairing(n: int) -> Perm:
    """(1 2)(3 4)… on {1..n}, n even: the one pairing every counting oracle scans."""
    return tuple(h + 1 if h % 2 else h - 1 for h in range(1, n + 1))


def _one_pairing_orbits(count: int, edges: int, what: str) -> int:
    """The class count from ``count`` labeled objects on the pairing (1 2)(3 4)…
    of 2e points: all (2e−1)!! pairings carry as many, being conjugate, and
    each class has (2e)! labelings.  An inexact division is a
    :class:`ConsistencyError` that names the ``what`` total."""
    total = count * double_factorial(2 * edges - 1)
    denom = factorial(2 * edges)
    if total % denom:
        raise ConsistencyError(f"{what} total {total} is not divisible by (2e)! = {denom}")
    return total // denom


class UnionFind:
    """Union-find over {0..n-1} with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def join(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Merge the classes of each pair; return how many pairs already were one class."""
        parent = self.parent
        closed = 0
        for a, b in pairs:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            closed += a == b
            parent[b] = a
        return closed


def _pairing_components(n_paths: int, n: int, matching: Perm, targets) -> tuple[int, int]:
    """(components, independent cycles) of points 1..n joined by arrows and a matching.

    ``targets[k]`` starts path k (k < n_paths), ``targets[n_paths + p - 1]`` is
    the arrow out of point p, and an entry above n ends a path.  Each point is
    labelled by its arrow block, a path or a cycle; the blocks are then joined
    along ``matching`` from both ends of each pair (the second end always finds
    one class).  Cycles = arrow cycles + pairs that close one, for an involution
    ``matching``; components hold for any permutation.  A map has no paths.
    """
    block = [-1] * n
    for k in range(n_paths):
        t = targets[k]
        while t <= n:
            block[t - 1] = k
            t = targets[n_paths + t - 1]
    blocks = n_paths
    for p in range(n):
        if block[p] < 0:
            q = p
            while block[q] < 0:
                block[q] = blocks
                q = targets[n_paths + q] - 1
            blocks += 1
    closed = UnionFind(blocks).join(zip(block, [block[b - 1] for b in matching]))
    return blocks - n + closed, blocks - n_paths + closed - n // 2
