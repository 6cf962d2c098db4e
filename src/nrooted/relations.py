"""Structural identities tying the correlator family to the one-root series.

This module machine-checks the algebraic layer of the enumeration:

* an integer triangle ``B[n][k]`` (for ``B_{n,2k-1}``) defined by the recursion
  B_{n+1,2k-1} = B_{n,2k-3} + (2k+n+1) B_{n,2k-1}, which expresses λ^n Z_0^{(n)}
  in a basis of double-factorial series;
* the double-factorial series R_i(λ) = Σ_k (2k+i)!! λ^{2k} and their
  re-expressions through Z_0;
* each quotient Z_j/Z_0 — and then every M_N — written as a polynomial in M₁
  whose coefficients are finite Laurent polynomials in λ (negative powers
  appear in intermediate terms and must cancel after substituting the M₁
  series; the cancellation is asserted, never assumed);
* residual checks for the ordinary differential equations satisfied by M₁,
  M₀ and the normalized Z₀.

Everything is exact; any route disagreement raises
:class:`~nrooted.errors.ConsistencyError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .combinat import double_factorial
from .errors import ConsistencyError
from .qft import _z0_inverse, m_series, z_series
from .series import Rational, Series, _require_equal, first_difference, log_coefficients

__all__ = [
    "BTable",
    "b_table",
    "r_series",
    "LaurentPoly",
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


def _shift_down(coeffs: list[Fraction], m: int, context: str) -> list[Fraction]:
    """Divide a coefficient vector by λ^m, asserting that no negative power is left."""
    for p in range(min(m, len(coeffs))):
        if coeffs[p] != 0:
            raise ConsistencyError(
                f"{context}: negative power λ^{p - m} fails to cancel "
                f"(coefficient {coeffs[p]})"
            )
    return coeffs[m:]


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

    direct = Series(
        [
            double_factorial(p + i) if p % 2 == 0 else 0
            for p in range(order + 1)
        ]
    )

    if i == -1:
        alt = z_series(0, order)
    else:
        shift = i + 1
        z0 = z_series(0, order + shift)
        window = list(z0.coefficients)
        window[0] -= 1  # Z_0 - 1
        if i >= 3:
            for m in range((i - 3) // 2 + 1):
                # subtract (2m+1)!! λ^{2m+2} / λ^{i+1}, i.e. at window index 2m+2
                window[2 * m + 2] -= double_factorial(2 * m + 1)
        alt = Series(_shift_down(window, shift, f"r_series({i})"))

    _require_equal(f"r_series({i}): direct sum and Z_0 route differ", direct, alt)
    return direct


# ---------------------------------------------------------------------------
# Laurent polynomials and polynomials in M1
# ---------------------------------------------------------------------------


class LaurentPoly:
    """A finite Laurent polynomial in λ with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Rational] | None = None):
        cleaned: dict[int, Fraction] = {}
        for power, coeff in (terms or {}).items():
            frac = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if frac != 0:
                cleaned[power] = frac
        self._terms = cleaned

    @classmethod
    def monomial(cls, coeff: Rational, power: int) -> "LaurentPoly":
        return cls({power: coeff})

    @classmethod
    def constant(cls, coeff: Rational) -> "LaurentPoly":
        return cls({0: coeff})

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_power(self) -> int:
        return min(self._terms) if self._terms else 0

    @property
    def max_power(self) -> int:
        return max(self._terms) if self._terms else 0

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({p: -c for p, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: dict[int, Fraction] = {}
            for p, c in self._terms.items():
                for q, d in other._terms.items():
                    key = p + q
                    out[key] = out.get(key, Fraction(0)) + c * d
            return LaurentPoly(out)
        return LaurentPoly(
            {p: c * Fraction(other) for p, c in self._terms.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = [f"{c}*λ^{p}" if p else str(c) for p, c in self.items()]
        return " + ".join(bits)


class M1Polynomial:
    """Σ_i c_i(λ) · M₁^i with finite Laurent-polynomial coefficients c_i.

    The Laurent coefficients may carry negative λ-powers individually; only
    after substituting the M₁ power series must everything collapse to an
    honest power series.  :meth:`evaluate` performs that substitution and
    asserts the cancellation.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: list[LaurentPoly] | tuple[LaurentPoly, ...]):
        cs = list(coeffs) or [LaurentPoly()]
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    def coefficient(self, i: int) -> LaurentPoly:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else LaurentPoly()

    def __add__(self, other: "M1Polynomial") -> "M1Polynomial":
        size = max(len(self._coeffs), len(other._coeffs))
        return M1Polynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(size)]
        )

    def __mul__(self, other):
        if isinstance(other, M1Polynomial):
            out = [LaurentPoly() for _ in range(len(self._coeffs) + len(other._coeffs) - 1)]
            for i, ci in enumerate(self._coeffs):
                if ci.is_zero:
                    continue
                for j, cj in enumerate(other._coeffs):
                    if not cj.is_zero:
                        out[i + j] = out[i + j] + ci * cj
            return M1Polynomial(out)
        return M1Polynomial([c * other for c in self._coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, M1Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        bits = [f"({c})*M1^{i}" if i else f"({c})" for i, c in enumerate(self._coeffs)]
        return " + ".join(bits)

    def min_lambda_power(self) -> int:
        return min((c.min_power for c in self._coeffs if not c.is_zero), default=0)

    def evaluate(self, m1: Series, order: int) -> Series:
        """Substitute a truncated M₁ series, demanding a clean power series.

        `m1` must be supplied to order ``order + s`` where s is the depth of
        the most negative λ-power among the coefficients; the extra orders are
        consumed by the division.  Horner's rule runs on λ^s times the
        polynomial; non-cancelling negative powers raise :class:`ConsistencyError`.
        """
        shift = max(0, -self.min_lambda_power())
        top = order + shift
        if m1.order < top:
            raise ValueError(
                f"need the substitution series to order {top}, got {m1.order}"
            )

        def lifted(laurent: LaurentPoly) -> Series:  # λ^shift · laurent, to order top
            return Series([laurent._terms.get(p - shift, 0) for p in range(top + 1)])

        acc = lifted(self._coeffs[-1])
        for laurent in reversed(self._coeffs[:-1]):
            acc = acc * m1 + lifted(laurent)
        return Series(_shift_down(list(acc.coefficients), shift, "M₁ substitution"))


def _ratio_bracket(k: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The (constant, M₁) Laurent coefficients of the k-th bracket term.

    bracket(k) = δ_{k,0} + [k>=1] M₁ λ^{-(2k-2)}
                 - [k>=2] (1 - λ² M₁) Σ_{m=0}^{k-2} (2m+1)!! λ^{-(2k-2m-2)}
    """
    const = LaurentPoly.constant(1) if k == 0 else LaurentPoly()
    linear = LaurentPoly()
    if k >= 1:
        linear = linear + LaurentPoly.monomial(1, -(2 * k - 2))
    if k >= 2:
        for m in range(k - 1):
            dfac = double_factorial(2 * m + 1)
            const = const - LaurentPoly.monomial(dfac, -(2 * k - 2 * m - 2))
            linear = linear + LaurentPoly.monomial(dfac, -(2 * k - 2 * m - 4))
    return const, linear


def _require_substitution(context: str, poly: M1Polynomial, expected: Series) -> None:
    """Substitute the M₁ series into poly and require it to equal `expected`."""
    order = expected.order
    shift = max(0, -poly.min_lambda_power())
    _require_equal(context, poly.evaluate(m_series(1, order + shift), order), expected)


@cache
def zj_over_z0_in_m1(j: int, order: int) -> M1Polynomial:
    """The quotient Z_j/Z_0 as a degree-<=1 polynomial in M₁.

    Assembled from the B-table against the bracket terms; validated by
    substituting the M₁ series and comparing with the direct series division
    to the requested order, once per (j, order).
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    table = b_table(max(j, 1))
    poly = M1Polynomial([LaurentPoly()])
    for n in range(j + 1):
        outer = Fraction(comb(j, n) * factorial(j), factorial(n))
        for k in range(n + 1):
            if n == 0 and k > 0:
                continue
            sign = (-1) ** (n - k)
            weight = outer * sign * table.value(n, k)
            const, linear = _ratio_bracket(k)
            poly = poly + M1Polynomial([const * weight, linear * weight])

    _require_substitution(
        f"zj_over_z0_in_m1({j}): substitution and direct division differ",
        poly,
        z_series(j, order) * _z0_inverse(order),
    )
    return poly


@cache
def _mn_part(n: int, order: int) -> M1Polynomial:
    """M_N/N! resumed from the lower parts; unchecked, so that a failed
    check of one :func:`mn_in_m1` does not fail those above it."""
    known = [_mn_part(i, order) for i in range(1, n)]
    scaled = [
        zj_over_z0_in_m1(j, order) * Fraction(1, factorial(j) ** 2)
        for j in range(1, n + 1)
    ]
    return log_coefficients(scaled, known)[-1]


@cache
def mn_in_m1(n: int, order: int) -> M1Polynomial:
    """M_N as a polynomial of degree exactly N in M₁.

    Takes the same logarithm as :func:`~nrooted.qft.m_series`,
    M_N = N! · [t^N] log(1 + Σ_j (Z_j/Z_0) t^j/(j!)²), over the degree-1
    quotient polynomials instead of series, resumed from the lower M_i/i!;
    validated by degree check and by substituting the M₁ series against
    m_series(N), once per (n, order).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = _mn_part(n, order) * factorial(n)

    if total.degree != n:
        raise ConsistencyError(
            f"mn_in_m1({n}): degree {total.degree}, expected exactly {n}"
        )
    _require_substitution(
        f"mn_in_m1({n}): substitution and the direct series differ",
        total,
        m_series(n, order),
    )
    return total


# ---------------------------------------------------------------------------
# ODE residual verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check, serializable to the report schema."""

    identity: str
    order_checked: int
    passed: bool
    first_failure_power: int | None
    detail: str = ""

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
        from .qft import m0_series

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
