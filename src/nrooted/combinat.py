"""Small exact-combinatorics helpers: double factorials and compositions.

Everything here is exact integer arithmetic.  The generator is iterative
(no recursion) and yields in a fixed lexicographic order, so enumeration order
is reproducible across runs.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import factorial

__all__ = ["double_factorial", "compositions", "factorial"]


@cache
def double_factorial(n: int) -> int:
    """n!! for n >= -1, with the empty-product conventions (-1)!! = 0!! = 1.

    >>> [double_factorial(n) for n in (-1, 0, 1, 3, 5, 6)]
    [1, 1, 1, 3, 15, 48]
    """
    if n < -1:
        raise ValueError(f"double factorial undefined for n={n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def compositions(total: int, parts: int):
    """Yield all ordered tuples of `parts` positive integers summing to `total`.

    Lexicographic order, e.g. compositions(4, 2) -> (1,3), (2,2), (3,1).
    Yields nothing when parts > total; yields the empty tuple for (0, 0).
    """
    if parts < 0 or total < 0:
        raise ValueError("total and parts must be non-negative")
    if parts == 0:
        if total == 0:
            yield ()
        return
    # Cut-point construction: choosing parts-1 cut positions inside [1, total)
    # in combinations' lexicographic order yields compositions lexicographically.
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts:
            out.append(c - prev)
            prev = c
        out.append(total - prev)
        yield tuple(out)
