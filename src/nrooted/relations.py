"""Structural identities tying the correlator family to the one-root series.

This module machine-checks the algebraic layer of the enumeration:

* an integer triangle ``B[n][k]`` (for ``B_{n,2k-1}``) defined by the recursion
  B_{n+1,2k-1} = B_{n,2k-3} + (2k+n+1) B_{n,2k-1}, which expresses λ^n Z_0^{(n)}
  in a basis of double-factorial series;
* the double-factorial series R_i(λ) = Σ_k (2k+i)!! λ^{2k} and their
  re-expressions through Z_0;
* each quotient Z_j/Z_0 — and then every M_N — written as a polynomial in M₁
  whose coefficients are finite Laurent polynomials in λ, built once per
  process whatever the order (negative powers appear in intermediate terms
  and must cancel after substituting the M₁ series; the cancellation is
  asserted at each requested order, never assumed);
* residual checks for the ordinary differential equations satisfied by M₁,
  M₀ and the normalized Z₀.

Everything is exact; any route disagreement raises
:class:`~nrooted.errors.ConsistencyError`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm
from typing import Sequence

from .combinat import double_factorial
from .errors import ConsistencyError
from .qft import _z0_inverse, m0_series, m_series, z_series
from .series import (
    Series,
    _as_fraction,
    _require_equal,
    first_difference,
    horner,
    log_coefficients,
)

__all__ = [
    "BTable",
    "b_table",
    "r_series",
    "M1Polynomial",
    "zj_over_z0_in_m1",
    "mn_in_m1",
    "VerificationReport",
    "verify_ode_m1",
    "verify_ode_m0",
    "verify_ode_z0",
]


# ---------------------------------------------------------------------------
# B-table
# ---------------------------------------------------------------------------


class BTable:
    """The triangle of integers B[n][k] = B_{n,2k-1}, 0 <= k <= n <= n_max.

    Index mapping: the second index k corresponds to subscript 2k-1, so
    ``value(n, 0)`` is B_{n,-1} and ``value(n, n)`` is B_{n,2n-1}.  Row 0
    holds only the single entry B_{0,-1} = 1; entries outside the triangle
    are structurally absent and raise ``ValueError``.
    """

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self._rows = rows

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def value(self, n: int, k: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} outside table (n_max={self.n_max})")
        if not 0 <= k <= n:
            raise ValueError(
                f"entry (n={n}, k={k}) is structurally absent from the triangle"
            )
        return self._rows[n][k]

    def __repr__(self):
        return f"BTable(n_max={self.n_max})"


def b_table(n_max: int) -> BTable:
    """Build the triangle up to row n_max (>= 1) from the defining recursion.

    Row 1 is pinned by the initial conditions B_{1,-1} = B_{1,1} = 1; rows
    above it follow from B_{n+1,2k-1} = B_{n,2k-3} + (2k+n+1) B_{n,2k-1},
    with vanishing out-of-triangle terms.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows: list[tuple[int, ...]] = [(1,), (1, 1)]
    for n in range(1, n_max):
        prev = rows[n]
        nxt = []
        for k in range(n + 2):
            left = prev[k - 1] if 1 <= k <= n + 1 and k - 1 <= n else 0
            right = prev[k] if k <= n else 0
            nxt.append(left + (2 * k + n + 1) * right)
        rows.append(tuple(nxt))
    return BTable(tuple(rows[: n_max + 1]))


# ---------------------------------------------------------------------------
# R-series
# ---------------------------------------------------------------------------


def r_series(i: int, order: int) -> Series:
    """R_i(λ) = Σ_k (2k+i)!! λ^{2k} for odd i >= -1, cross-checked through Z_0.

    The direct summation is compared against the matching re-expression
    (R_{-1} = Z_0;  R_1 = (Z_0-1)/λ²;  for i >= 3,
    R_i = (Z_0-1)/λ^{i+1} - Σ_{m=0}^{(i-3)/2} (2m+1)!!/λ^{i-2m-1}), with the
    negative λ-powers required to cancel exactly.
    """
    if i < -1 or i % 2 == 0:
        raise ValueError("r_series index must be odd and >= -1")
    if order < 0:
        raise ValueError("order must be non-negative")

    direct = Series([double_factorial(p + i) if p % 2 == 0 else 0 for p in range(order + 1)])

    if i == -1:
        alt = z_series(0, order)
    else:
        shift = i + 1
        # 1 + Σ_m (2m+1)!! λ^{2m+2}, the part of Z_0 below λ^{i+1}
        head = [1] + [0] * i
        for m in range((i - 1) // 2):
            head[2 * m + 2] = double_factorial(2 * m + 1)
        z0 = z_series(0, order + shift)
        alt = (z0 - Series(head, order=z0.order)).unshifted(shift, f"r_series({i})")

    _require_equal(f"r_series({i}): direct sum and Z_0 route differ", direct, alt)
    return direct


# ---------------------------------------------------------------------------
# Polynomials in M1
# ---------------------------------------------------------------------------


class M1Polynomial:
    """Σ_i c_i(λ) · M₁^i, each c_i a finite Laurent polynomial in λ.

    Stored as :class:`~nrooted.series.Series` stores a series: an ``int``
    table over one positive denominator, in lowest terms.  Row i holds the
    numerators of c_i at λ^low, λ^{low+1}, …; the rows share one width, with
    no all-zero edge column and no trailing all-zero row (the zero polynomial
    is one empty row).  ``coefficients`` reads each c_i back in Laurent form.

    The c_i may carry negative λ-powers individually; only after substituting
    the M₁ power series must everything collapse to an honest power series.
    :meth:`evaluate` performs that substitution and asserts the cancellation.
    """

    __slots__ = ("_table", "_low", "_denominator")

    def __init__(self, table: Sequence[Sequence[int]], low: int = 0, denominator: int = 1):
        """Row i of ``table`` lists the numerators of c_i from λ^low upwards."""
        if any(type(v) is not int for v in [low, denominator, *(v for r in table for v in r)]):
            raise TypeError("M1Polynomial entries, low and denominator must be int")
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        width = max((len(row) for row in table), default=0)
        rows = [list(row) + [0] * (width - len(row)) for row in table] or [[]]
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()
        used = [k for k, column in enumerate(zip(*rows)) if any(column)]
        if not used:
            rows, low, denominator = [[]], 0, 1
        else:
            g = gcd(denominator, *(v for row in rows for v in row))
            rows = [[v // g for v in row[used[0] : used[-1] + 1]] for row in rows]
            low, denominator = low + used[0], denominator // g
        self._table = tuple(tuple(row) for row in rows)
        self._low = low
        self._denominator = denominator

    @property
    def degree(self) -> int:
        return len(self._table) - 1

    @property
    def coefficients(self) -> tuple[dict[int, Fraction], ...]:
        """Each c_i as {λ-power: coefficient}, non-zero terms by rising power."""
        return tuple(
            {self._low + k: Fraction(v, self._denominator) for k, v in enumerate(row) if v}
            for row in self._table
        )

    def min_lambda_power(self) -> int:
        """The lowest λ-power with a non-zero coefficient; 0 for the zero polynomial."""
        return self._low

    def __add__(self, other: "M1Polynomial") -> "M1Polynomial":
        if not isinstance(other, M1Polynomial):
            return NotImplemented
        operands = (self, other)
        low = min(p._low for p in operands)
        top = max(p._low + len(p._table[0]) for p in operands)
        den = lcm(self._denominator, other._denominator)
        rows = [[0] * (top - low) for _ in range(max(len(p._table) for p in operands))]
        for p in operands:
            scale, offset = den // p._denominator, p._low - low
            for target, row in zip(rows, p._table):
                for k, v in enumerate(row):
                    target[offset + k] += scale * v
        return M1Polynomial(rows, low, den)

    def __mul__(self, other):
        if not isinstance(other, M1Polynomial):
            try:
                c = _as_fraction(other)
            except TypeError:
                return NotImplemented
            rows = [[c.numerator * v for v in row] for row in self._table]
            return M1Polynomial(rows, self._low, c.denominator * self._denominator)
        width = len(self._table[0]) + len(other._table[0]) - 1
        rows = [[0] * max(width, 0) for _ in range(len(self._table) + len(other._table) - 1)]
        for i, a in enumerate(self._table):
            for j, b in enumerate(other._table):
                target = rows[i + j]
                for k, a_k in enumerate(a):
                    if a_k:
                        for m, b_m in enumerate(b):
                            target[k + m] += a_k * b_m
        return M1Polynomial(
            rows, self._low + other._low, self._denominator * other._denominator
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, M1Polynomial):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        return f"M1Polynomial({self._table}, low={self._low}, denominator={self._denominator})"

    def evaluate(self, m1: Series, order: int) -> Series:
        """Substitute a truncated M₁ series, demanding a clean power series.

        `m1` must be supplied to order ``order + s`` where s is the depth of
        the most negative λ-power among the coefficients; the extra orders are
        consumed by the division.  Horner's rule runs on λ^s times the
        polynomial; non-cancelling negative powers raise :class:`ConsistencyError`.
        """
        shift = max(0, -self._low)
        lifted = [[0] * (self._low + shift) + list(row) for row in self._table]
        return horner(lifted, self._denominator, m1, order + shift).unshifted(
            shift, "M₁ substitution"
        )


@cache
def _zj_table(j: int) -> M1Polynomial:
    """Z_j/Z_0 as a degree-<=1 polynomial in M₁, whatever the order.

    Z_j/Z_0 = Σ_{n≤j} Σ_{k≤n} (−1)^{n−k}·j!·C(j,n)/n!·B_{n,2k−1}·bracket(k), with

        bracket(k) = δ_{k,0} + [k>=1] M₁ λ^{-(2k-2)}
                     - [k>=2] (1 - λ² M₁) Σ_{m=0}^{k-2} (2m+1)!! λ^{-(2k-2m-2)}.

    Every weight is an integer, so the table is over denominator 1.
    """
    table = b_table(max(j, 1))
    low = min(0, 2 - 2 * j)
    const, linear = [0] * (1 - low), [0] * (1 - low)  # λ^low .. λ^0
    for n in range(j + 1):
        outer = comb(j, n) * factorial(j) // factorial(n)
        for k in range(n + 1):
            weight = (-1) ** (n - k) * outer * table.value(n, k)
            if k == 0:
                const[-low] += weight
            else:
                linear[2 - 2 * k - low] += weight
            for m in range(k - 1):
                term = weight * double_factorial(2 * m + 1)
                const[2 * m + 2 - 2 * k - low] -= term
                linear[2 * m + 4 - 2 * k - low] += term
    return M1Polynomial([const, linear], low)


def _require_substitution(context: str, poly: M1Polynomial, expected: Series) -> None:
    """Substitute the M₁ series into poly and require it to equal `expected`."""
    order = expected.order
    shift = max(0, -poly.min_lambda_power())
    _require_equal(context, poly.evaluate(m_series(1, order + shift), order), expected)


@cache
def _zj_checked(j: int, order: int) -> None:
    _require_substitution(
        f"zj_over_z0_in_m1({j}): substitution and direct division differ",
        _zj_table(j),
        z_series(j, order) * _z0_inverse(order),
    )


def zj_over_z0_in_m1(j: int, order: int) -> M1Polynomial:
    """The quotient Z_j/Z_0 as a degree-<=1 polynomial in M₁.

    Assembled from the B-table against the bracket terms once per j, whatever
    the order; validated by substituting the M₁ series and comparing with the
    direct series division to the requested order, once per (j, order).
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    _zj_checked(j, order)
    return _zj_table(j)


@cache
def _mn_table(n: int) -> M1Polynomial:
    """M_N, whatever the order, resumed from the lower M_i/i!; unchecked, so
    that a failed check of one :func:`mn_in_m1` does not fail those above it."""
    known = [_mn_table(i) * Fraction(1, factorial(i)) for i in range(1, n)]
    scaled = [_zj_table(j) * Fraction(1, factorial(j) ** 2) for j in range(1, n + 1)]
    return log_coefficients(scaled, known)[-1] * factorial(n)


@cache
def _mn_checked(n: int, order: int) -> None:
    _require_substitution(
        f"mn_in_m1({n}): substitution and the direct series differ",
        _mn_table(n),
        m_series(n, order),
    )


def mn_in_m1(n: int, order: int) -> M1Polynomial:
    """M_N as a polynomial of degree exactly N in M₁.

    Takes the same logarithm as :func:`~nrooted.qft.m_series`,
    M_N = N! · [t^N] log(1 + Σ_j (Z_j/Z_0) t^j/(j!)²), over the degree-1
    quotient polynomials instead of series, resumed from the lower M_i/i!,
    once per N whatever the order; validated by degree check and by
    substituting the M₁ series against m_series(N), once per (n, order).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = _mn_table(n)
    if total.degree != n:
        raise ConsistencyError(
            f"mn_in_m1({n}): degree {total.degree}, expected exactly {n}"
        )
    _mn_checked(n, order)
    return total


# ---------------------------------------------------------------------------
# ODE residual verification
# ---------------------------------------------------------------------------


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "identity order_checked passed first_failure_power detail",
        defaults=("",),
    )
):
    """Outcome of one identity check; ``first_failure_power`` is None on a pass."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "order_checked": self.order_checked,
            "pass": self.passed,
            "first_failure_power": self.first_failure_power,
        }


def report_from_difference(identity: str, lhs: Series, rhs: Series) -> VerificationReport:
    """Pass iff lhs and rhs agree to their common order.

    A failure names the first differing λ-power and both values there.
    """
    order = min(lhs.order, rhs.order)
    diff = first_difference(lhs, rhs)
    if diff is None:
        return VerificationReport(identity, order, True, None)
    p, left, right = diff
    return VerificationReport(
        identity, order, False, p, detail=f"at λ^{p}: {left} != {right}"
    )


def verify_ode_m1(order: int, m1: Series | None = None) -> VerificationReport:
    """Residual of  M₁ = 1 + λ²M₁ + λ²M₁² + λ³M₁′  (valid through order-1).

    Pass `m1` to check a hand-built series (e.g. a perturbed negative
    control); by default the canonical one-root series is used.
    """
    if order < 4:
        raise ValueError("order must be at least 4")
    if m1 is None:
        m1 = m_series(1, order)
    lam2 = Series.monomial(1, 2, order)
    lam3 = Series.monomial(1, 3, order)
    rhs = 1 + lam2 * m1 + lam2 * (m1 * m1) + lam3 * m1.derivative()
    return report_from_difference("m1-ode", m1, rhs)


def verify_ode_m0(order: int, m0: Series | None = None) -> VerificationReport:
    """Residual of  M₀′ = 2λ + 4λ²M₀′ + λ³M₀″ + λ³(M₀′)²  (through order-2)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    if m0 is None:
        m0 = m0_series(order)
    d1 = m0.derivative()
    d2 = d1.derivative()
    lam1 = Series.monomial(2, 1, order)
    lam2 = Series.monomial(4, 2, order)
    lam3 = Series.monomial(1, 3, order)
    rhs = lam1 + lam2 * d1 + lam3 * d2 + lam3 * (d1 * d1)
    return report_from_difference("m0-ode", d1, rhs)


def verify_ode_z0(order: int, z0: Series | None = None) -> VerificationReport:
    """Residual of the normalized  Z₀′ = λ³Z₀″ + 4λ²Z₀′ + 2λZ₀  (through order-2)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    if z0 is None:
        z0 = z_series(0, order)
    d1 = z0.derivative()
    d2 = d1.derivative()
    rhs = (
        Series.monomial(1, 3, order) * d2
        + Series.monomial(4, 2, order) * d1
        + Series.monomial(2, 1, order) * z0
    )
    return report_from_difference("z0-ode", d1, rhs)
