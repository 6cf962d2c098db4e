"""Exact truncated power series in one formal variable.

A :class:`Series` is a dense vector of rational coefficients c[0..K] for the
powers x^0..x^K of the formal variable, together with its truncation order K.
All arithmetic is exact; floats are rejected.

Storage: ``int`` numerators n[0..K] over one positive denominator d, in lowest
terms (gcd(d, n[0], …, n[K]) = 1), so equality and hashing compare
``(numerators, denominator)``.  Every operation runs on those integers and
ends with one content gcd; multiply, and invert, exp and log as one divided
recurrence, run the classical recurrences (Knuth, TAOCP vol. 2, §4.7) and
skip zero factors.  ``Fraction`` values are formed only when ``coefficients``
or ``coefficient(p)`` is read.

Truncation-order rules
----------------------
* Binary operations return a result truncated to the *minimum* of the two
  operand orders: coefficients beyond that are not fully determined, so they
  are dropped rather than silently kept.
* ``derivative`` drops the order by one for the same reason.
* Reading a coefficient beyond the order raises ``IndexError`` — a truncated
  series does not know those coefficients, and pretending they are zero is a
  classic source of silent wrong answers.

Serialization
-------------
``to_json_dict`` writes ``{"order": K, "coeffs": ["num/den", ...]}`` with
``len(coeffs) == K + 1`` and every rational in lowest terms with an explicit
denominator.  Series JSON is output only: no reader parses it back.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Sequence, TypeVar, Union

from .errors import ConsistencyError

Rational = Union[int, Fraction]
T = TypeVar("T")

__all__ = ["Series", "Rational", "cumulants", "first_difference", "horner",
           "require_agreement"]


def cumulants(moments: Sequence[T], known: Sequence[T] = ()) -> list[T]:
    """K_1..K_n with log(1 + Σ_j A_j t^j/j!) = Σ_j K_j t^j/j! + O(t^{n+1}),
    for the moments A_1..A_n.

    The moment–cumulant recurrence K_n = A_n − Σ_{i<n} C(n−1, i−1)·K_i·A_{n−i}.
    ``known`` holds K_1..K_m already found for the same A_1..A_m; the
    recurrence resumes at K_{m+1}.  The A_j may come from any commutative ring
    that admits ``+``, ``*`` and multiplication by ``int`` — rationals, series,
    polynomials; each binomial weight scales a moment, not a product.
    """
    found: list[T] = list(known)
    for n in range(len(found) + 1, len(moments) + 1):
        acc = moments[n - 1]
        for i in range(1, n):
            acc = acc + found[i - 1] * (moments[n - i - 1] * -comb(n - 1, i - 1))
        found.append(acc)
    return found


def first_difference(a: Series, b: Series) -> tuple[int, Fraction, Fraction] | None:
    """The first power at which a and b differ, with both coefficients.

    Only the powers known to both (up to the smaller order) are compared;
    ``None`` means they agree on all of them.
    """
    for p, (x, y) in enumerate(zip(a._nums, b._nums)):
        if x * b._den != y * a._den:
            return p, Fraction(x, a._den), Fraction(y, b._den)
    return None


def require_agreement(lhs: Series, rhs: Series, context: str = "") -> None:
    """A check that lhs and rhs agree at every power both know; a failure
    names the first differing λ-power and both values there, after
    ``context`` when one is given."""
    diff = None if lhs == rhs else first_difference(lhs, rhs)
    if diff is not None:
        p, x, y = diff
        raise ConsistencyError(f"{context} at λ^{p}: {x} != {y}".lstrip(), power=p)


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _product(a: Sequence[int], b: Sequence[int], k: int) -> list[int]:
    """The integer convolution of a and b through index k, skipping zero factors."""
    nonzero_b = [(j, b_j) for j, b_j in enumerate(b[: k + 1]) if b_j]
    out = [0] * (k + 1)
    for i, a_i in enumerate(a[: k + 1]):
        if a_i:
            for j, b_j in nonzero_b:
                if i + j > k:
                    break
                out[i + j] += a_i * b_j
    return out


def horner(rows: Sequence[Sequence[int]], den: int, x: "Series", order: int) -> "Series":
    """Σ_i (rows[i]/den)·x^i to ``order`` for integer coefficient rows (missing
    ones are zero), by Horner's rule on integers: with x = X/d it keeps
    Σ_i rows[i]·X^i·d^{deg−i} and divides by den·d^deg once."""
    if x.order < order:
        raise ValueError(f"need the substitution series to order {order}, got {x.order}")
    rows = [list(row[: order + 1]) + [0] * (order + 1 - len(row)) for row in rows]
    acc, scale = rows[-1], 1
    for row in reversed(rows[:-1]):
        scale *= x._den
        acc = [p + scale * r for p, r in zip(_product(acc, x._nums, order), row)]
    return Series._reduced(acc, den * scale)


def _divided_recurrence(c: list[int], seed: list[int], divisor) -> list[int]:
    """g_0 = seed_0 and divisor(q)·g_q = seed_q + Σ_{i=1}^{q} c_i·g_{q−i}, divided exactly."""
    k = len(c) - 1
    terms = [(i, c_i) for i, c_i in enumerate(c) if i and c_i]
    g = list(seed)
    for p in range(k + 1):
        g_p = g[p] = g[p] // divisor(p) if p else g[0]
        if g_p:  # complete now: push it into the later sums, skipping zeros
            for i, c_i in terms:
                if p + i > k:
                    break
                g[p + i] += c_i * g_p
    return g


class Series:
    """An exactly-truncated formal power series."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Rational], order: int | None = None):
        """Build a series from coefficients c0, c1, ...; pad with zeros to `order`.

        When `order` is given it must be >= len(coeffs) - 1.
        """
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if order < len(cs) - 1:
                raise ValueError(
                    f"{len(cs)} coefficients exceed requested order {order}"
                )
            cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        # Over the lcm of lowest-terms denominators the content is already 1.
        d = lcm(*{c.denominator for c in cs})
        self._nums = tuple(c.numerator * (d // c.denominator) for c in cs)
        self._den = d

    @classmethod
    def _reduced(cls, nums: Sequence[int], den: int) -> "Series":
        """n/den for den > 0, divided by its content gcd."""
        g = gcd(den, *nums)
        series = object.__new__(cls)
        series._nums = tuple(n // g for n in nums) if g != 1 else tuple(nums)
        series._den = den // g
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order=order)

    @classmethod
    def monomial(cls, coeff: Rational, power: int, order: int) -> "Series":
        """coeff * x^power, truncated at `order` (power must be <= order)."""
        if power < 0:
            raise ValueError("monomial power must be non-negative")
        if power > order:
            raise ValueError(f"monomial power {power} exceeds order {order}")
        cs = [Fraction(0)] * (power + 1)
        cs[power] = _as_fraction(coeff)
        return cls(cs, order=order)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._nums)

    def coefficient(self, power: int) -> Fraction:
        """The coefficient of x^power; power must lie in 0..order."""
        if not 0 <= power <= self.order:
            raise IndexError(
                f"coefficient of x^{power} requested, but series is only "
                f"known to order {self.order}"
            )
        return Fraction(self._nums[power], self._den)

    def truncate(self, order: int) -> "Series":
        """The same series cut down to a lower (or equal) order."""
        if order > self.order:
            raise ValueError(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        if order < 0:
            raise ValueError("order must be non-negative")
        return Series._reduced(self._nums[: order + 1], self._den)

    def shifted(self, powers: int) -> "Series":
        """Multiply by x^powers (powers >= 0).  Exact, so the order rises too."""
        if powers < 0:
            raise ValueError("shift must be non-negative")
        return Series._reduced((0,) * powers + self._nums, self._den)

    def unshifted(self, powers: int, context: str) -> "Series":
        """Divide by x^powers (0 <= powers <= order); a non-zero dropped coefficient
        raises :class:`ConsistencyError`, prefixed by ``context``."""
        if not 0 <= powers <= self.order:
            raise ValueError(f"shift must lie in 0..{self.order}")
        for p, n in enumerate(self._nums[:powers]):
            if n:
                raise ConsistencyError(
                    f"{context}: negative power λ^{p - powers} fails to cancel "
                    f"(coefficient {Fraction(n, self._den)})"
                )
        return Series._reduced(self._nums[powers:], self._den)

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign·other for a series or an exact scalar other."""
        if not isinstance(other, Series):
            try:
                other = Series([other], order=self.order)
            except TypeError:
                return NotImplemented
        da, db = self._den, other._den
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        # zip stops at the shorter operand: the minimum-order rule
        return Series._reduced(
            [x * fa + y * fb for x, y in zip(self._nums, other._nums)], d
        )

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Series._reduced([-n for n in self._nums], self._den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            k = min(self.order, other.order)
            return Series._reduced(_product(self._nums, other._nums, k), self._den * other._den)
        try:
            c = _as_fraction(other)
        except TypeError:
            return NotImplemented
        return Series._reduced([c.numerator * n for n in self._nums], c.denominator * self._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if type(exponent) is not int or exponent < 0:  # a bool is not an exponent
            raise ValueError("series exponent must be a non-negative integer")
        result = Series.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def invert(self) -> "Series":
        """The multiplicative inverse; requires a non-zero constant term."""
        a, d = self._nums, self._den
        if a[0] == 0:
            raise ValueError("cannot invert a series with zero constant term")
        # self = a/d and 1/a = Σ g_p x^p / a0^{k+1}, where g_0 = a0^k and
        # a0·g_p = −Σ_{i=1}^{p} a_i·g_{p−i}.
        a0, a0_k = a[0], a[0] ** self.order
        g = _divided_recurrence([-a_i for a_i in a], [a0_k] + [0] * self.order, lambda p: a0)
        den = a0 * a0_k  # a0^{k+1}: negative for a negative a0 and even k
        sign = -1 if den < 0 else 1
        return Series._reduced([sign * d * g_p for g_p in g], sign * den)

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.invert()
        try:
            c = _as_fraction(other)
        except TypeError:
            return NotImplemented
        if c == 0:
            raise ZeroDivisionError("division of a series by zero")
        return self * (Fraction(1) / c)

    # -- calculus-flavoured operations --------------------------------------

    def derivative(self) -> "Series":
        """Formal derivative; the order drops by one."""
        if self.order == 0:
            raise ValueError(
                "cannot differentiate a series known only to order 0"
            )
        return Series._reduced(
            [i * n for i, n in enumerate(self._nums) if i], self._den
        )

    def x_derivative(self) -> "Series":
        """x * d/dx, which keeps the order (coefficient p maps to p*c_p)."""
        return Series._reduced([i * n for i, n in enumerate(self._nums)], self._den)

    def log(self) -> "Series":
        """Formal logarithm; requires constant term exactly 1."""
        a, d, k = self._nums, self._den, self.order
        if a[0] != d:  # lowest terms: c_0 = 1 iff n_0 = d
            raise ValueError("log requires a series with constant term 1")
        # self = a/d; h = x·a′/a has d·h_p = p·a_p − Σ_{i=1}^{p} a_i·h_{p−i}, so
        # g = d^k·h is integral and log = Σ_p g_p/(p·d^k)·x^p, over lcm(1..k)·d^k.
        d_k, m = d**k, lcm(*range(1, k + 1))
        seed = [p * n * d_k for p, n in enumerate(a)]
        g = _divided_recurrence([-n for n in a], seed, lambda p: d)
        return Series._reduced([g_p * (m // p) if p else 0 for p, g_p in enumerate(g)], m * d_k)

    def exp(self) -> "Series":
        """Formal exponential; requires constant term exactly 0."""
        if self._nums[0] != 0:
            raise ValueError("exp requires a series with constant term 0")
        # self = a/d and exp(self) = Σ g_q x^q / s with s = k!·d^k, where
        # g_0 = s and q·d·g_q = Σ_{i=1}^{q} i·a_i·g_{q−i} (from exp′ = self′·exp).
        a, d, k = self._nums, self._den, self.order
        s = factorial(k) * d**k
        g = _divided_recurrence([i * n for i, n in enumerate(a)], [s] + [0] * k, lambda q: q * d)
        return Series._reduced(g, s)

    # -- equality / hashing / display ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return f"Series(order={self.order}, {self.format_terms()})"

    def format_terms(self) -> str:
        """Human-readable sum of non-zero terms, e.g. ``1 + 2*λ^2 + 10*λ^4``."""
        terms = []
        for p, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if p == 0:
                terms.append(str(c))
            elif p == 1:
                terms.append(f"{c}*λ")
            else:
                terms.append(f"{c}*λ^{p}")
        return " + ".join(terms) if terms else "0"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coefficients],
        }
