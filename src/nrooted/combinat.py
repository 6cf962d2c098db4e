"""Small exact-combinatorics helpers: the double factorial, in exact integers."""

from __future__ import annotations

from functools import cache

__all__ = ["double_factorial"]


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
