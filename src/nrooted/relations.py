"""Structural identities tying the correlator family to the one-root series.

This module machine-checks the algebraic layer of the enumeration:

* an integer triangle ``B[n][k]`` (for ``B_{n,2k-1}``) defined by the recursion
  B_{n+1,2k-1} = B_{n,2k-3} + (2k+n+1) B_{n,2k-1}, which expresses λ^n Z_0^{(n)}
  in a basis of double-factorial series, and those series
  R_i(λ) = Σ_k (2k+i)!! λ^{2k} with their re-expressions through Z_0: the
  paper's lemma, checked here but read by no construction;
* each quotient Z_j/Z_0, built by the raising ladder of Z_j and the M₁ ODE,
  and then every M_N, written as a polynomial in M₁ whose coefficients are
  finite Laurent polynomials in λ, built once per process whatever the order
  (negative powers appear in intermediate terms and must cancel after
  substituting the M₁ series; the cancellation is asserted at each requested
  order, never assumed);
* residual checks for the ordinary differential equations satisfied by M₁,
  M₀ and the normalized Z₀.

Everything is exact; any route disagreement raises
:class:`~nrooted.errors.ConsistencyError`.  Each ``check_*`` function is a
check: it returns on a pass and raises one on a failure, with the first
differing λ-power where there is one; :func:`attempt` reports its outcome.
The checks against :mod:`~nrooted.tables` import it when they run, so that
the ODE checks never load it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm
from typing import Callable, Sequence

from .combinat import double_factorial
from .errors import ConsistencyError
from .qft import _z0_inverse, m0_series, m_series, z_np_series, z_series
from .series import Series, _as_fraction, cumulants, horner, require_agreement

__all__ = [
    "b_table",
    "r_series",
    "M1Polynomial",
    "zj_over_z0_in_m1",
    "mn_in_m1",
    "VerificationReport",
    "attempt",
    "check_b_closed_forms",
    "check_derivative_basis",
    "check_z1_is_m1",
    "check_published_mn",
    "check_published_counts",
    "check_published_znp",
    "verify_ode_m1",
    "verify_ode_m0",
    "verify_ode_z0",
]


# ---------------------------------------------------------------------------
# B-table
# ---------------------------------------------------------------------------


def b_table(n_max: int) -> tuple[tuple[int, ...], ...]:
    """The triangle's rows 0..n_max (n_max >= 1), where ``rows[n][k]`` is
    B_{n,2k-1} for 0 <= k <= n: row 0 is (B_{0,-1},) = (1,), and each row
    follows from the one above by
    B_{n+1,2k-1} = B_{n,2k-3} + (2k+n+1) B_{n,2k-1},
    the out-of-triangle terms read as zero.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = [(1,)]
    for n in range(n_max):
        padded = (0, *rows[n], 0)
        rows.append(tuple(padded[k] + (2 * k + n + 1) * padded[k + 1] for k in range(n + 2)))
    return tuple(rows)


def check_b_closed_forms() -> None:
    """B[n][0] = n!, B[n][n−1] = n(3n−1)/2 and B[n][n] = 1 for n ≤ 12.

    A failure names the first entry off its closed form; the triangle has no
    λ-power, so the failure carries none.
    """
    rows = b_table(12)
    for n in range(13):
        closed = {0: factorial(n), n: 1}
        if n >= 1:
            closed[n - 1] = (3 * n - 1) * n // 2
        for k, want in sorted(closed.items()):
            got = rows[n][k]
            if got != want:
                raise ConsistencyError(f"B[{n}][{k}]: {got} != {want}")


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

    require_agreement(direct, alt, f"r_series({i}): direct sum and Z_0 route differ")
    return direct


def check_derivative_basis(n: int, order: int) -> None:
    """λⁿ Z₀⁽ⁿ⁾ = Σ_k (−1)^{n−k} B_{n,2k−1} R_{2k−1}, as truncated series."""
    deriv = z_series(0, order + n)
    for _ in range(n):
        deriv = deriv.derivative()
    lhs = deriv.shifted(n).truncate(order)
    row = b_table(n)[n]
    rhs = Series.zero(order)
    for k in range(n + 1):
        rhs = rhs + r_series(2 * k - 1, order) * ((-1) ** (n - k) * row[k])
    require_agreement(lhs, rhs, f"derivative-basis identity (n={n}): sides differ")


# ---------------------------------------------------------------------------
# Polynomials in M1
# ---------------------------------------------------------------------------


class M1Polynomial:
    """Σ_i c_i(λ) · M₁^i, each c_i a finite Laurent polynomial in λ.

    Stored as its non-zero monomials, ``{(i, p): numerator}`` for λ^p·M₁^i,
    over one positive denominator in lowest terms (the zero polynomial: none,
    over 1).  Only the constructor checks its entries; it and every operator
    share one normalizer, ``_reduced``, as series share ``Series._reduced``.
    ``coefficients`` reads each c_i back in Laurent form.

    The c_i may carry negative λ-powers individually; only after substituting
    the M₁ power series must everything collapse to an honest power series.
    :meth:`evaluate` performs that substitution and asserts the cancellation.
    """

    __slots__ = ("_terms", "_denominator")

    def __init__(self, table: Sequence[Sequence[int]], low: int = 0, denominator: int = 1):
        """Row i of ``table`` lists the numerators of c_i from λ^low upwards."""
        if any(type(v) is not int for v in [low, denominator, *(v for r in table for v in r)]):
            raise TypeError("M1Polynomial entries, low and denominator must be int")
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        terms = {(i, low + k): v for i, row in enumerate(table) for k, v in enumerate(row)}
        reduced = self._reduced(terms, denominator)
        self._terms, self._denominator = reduced._terms, reduced._denominator

    @classmethod
    def _reduced(cls, terms: dict[tuple[int, int], int], den: int) -> "M1Polynomial":
        """terms/den for den > 0, without its zero terms and divided by its content gcd."""
        terms = {key: v for key, v in terms.items() if v}
        g = gcd(den, *terms.values())
        poly = object.__new__(cls)
        poly._terms = {key: v // g for key, v in terms.items()} if g != 1 else terms
        poly._denominator = den // g
        return poly

    @property
    def degree(self) -> int:
        return max((i for i, _ in self._terms), default=0)

    @property
    def coefficients(self) -> tuple[dict[int, Fraction], ...]:
        """Each c_i as {λ-power: coefficient}, non-zero terms by rising power."""
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.degree + 1)]
        for (i, p), v in sorted(self._terms.items()):
            rows[i][p] = Fraction(v, self._denominator)
        return tuple(rows)

    def min_lambda_power(self) -> int:
        """The lowest λ-power with a non-zero coefficient; 0 for the zero polynomial."""
        return min((p for _, p in self._terms), default=0)

    def _rows(self, low: int) -> list[list[int]]:
        """Row i holds c_i's numerators from λ^low (at most the lowest power) up."""
        top = max((p for _, p in self._terms), default=low - 1)
        rows = [[0] * (top - low + 1) for _ in range(self.degree + 1)]
        for (i, p), v in self._terms.items():
            rows[i][p - low] = v
        return rows

    def __add__(self, other: "M1Polynomial") -> "M1Polynomial":
        if not isinstance(other, M1Polynomial):
            return NotImplemented
        den = lcm(self._denominator, other._denominator)
        terms = Counter()
        for poly in (self, other):
            scale = den // poly._denominator
            for key, v in poly._terms.items():
                terms[key] += scale * v
        return M1Polynomial._reduced(terms, den)

    def __mul__(self, other):
        if not isinstance(other, M1Polynomial):
            try:
                c = _as_fraction(other)
            except TypeError:
                return NotImplemented
            num = c.numerator
            terms = {key: num * v for key, v in self._terms.items()}
            return M1Polynomial._reduced(terms, c.denominator * self._denominator)
        terms = Counter()
        for (i, p), a in self._terms.items():
            for (j, q), b in other._terms.items():
                terms[i + j, p + q] += a * b
        return M1Polynomial._reduced(terms, self._denominator * other._denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, M1Polynomial):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        low = self.min_lambda_power()
        table = tuple(tuple(row) for row in self._rows(low))
        return f"M1Polynomial({table}, low={low}, denominator={self._denominator})"

    def evaluate(self, m1: Series, order: int) -> Series:
        """Substitute a truncated M₁ series, demanding a clean power series.

        `m1` must be supplied to order ``order + s`` where s is the depth of
        the most negative λ-power among the coefficients; the extra orders are
        consumed by the division.  Horner's rule runs on λ^s times the
        polynomial; non-cancelling negative powers raise :class:`ConsistencyError`.
        """
        shift = max(0, -self.min_lambda_power())
        return horner(self._rows(-shift), self._denominator, m1, order + shift).unshifted(
            shift, "M₁ substitution"
        )


@cache
def _zj_table(j: int) -> M1Polynomial:
    """Z_j/Z_0 = a + b·M₁, whatever the order; a and b are integer rows over
    λ^{2−2j}..λ⁰.  The raising ladder Z_{i+1} = (i+1+λ∂)Z_i of
    :func:`~nrooted.qft.z_recursion` runs from a = 1, b = 0; with
    λZ₀′ = (M₁−1)·Z₀ and the M₁ ODE λ³M₁′ = M₁ − 1 − λ²M₁ − λ²M₁², the M₁²
    terms cancel, and step i maps the coefficients at λ^p as

        a_p <- (i+p)·a_p − b_{p+2},    b_p <- (i−1+p)·b_p + a_p + b_{p+2}.
    """
    low = min(0, 2 - 2 * j)
    powers = range(low, 1)
    a, b = [0] * -low + [1], [0] * (1 - low)
    for i in range(j):
        b2 = [*b[2:], 0, 0]  # b_{p+2} at λ^p
        a, b = (
            [(i + p) * a_p - b2_p for p, a_p, b2_p in zip(powers, a, b2)],
            [(i - 1 + p) * b_p + a_p + b2_p for p, a_p, b_p, b2_p in zip(powers, a, b, b2)],
        )
    return M1Polynomial([a, b], low)


def _require_substitution(context: str, poly: M1Polynomial, expected: Series) -> None:
    """Substitute the M₁ series into poly and require it to equal `expected`."""
    order = expected.order
    shift = max(0, -poly.min_lambda_power())
    require_agreement(poly.evaluate(m_series(1, order + shift), order), expected, context)


def zj_over_z0_in_m1(j: int, order: int) -> M1Polynomial:
    """The quotient Z_j/Z_0 as a degree-<=1 polynomial in M₁.

    Built by the raising ladder of Z_j once per j, whatever the order;
    validated by substituting the M₁ series and comparing with the direct
    series division to the requested order, on every call.
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    _require_substitution(
        f"zj_over_z0_in_m1({j}): substitution and direct division differ",
        _zj_table(j),
        z_series(j, order) * _z0_inverse(order),
    )
    return _zj_table(j)


def check_z1_is_m1(order: int) -> None:
    """Z₁/Z₀, checked to ``order``, is exactly the polynomial M₁."""
    if zj_over_z0_in_m1(1, order) != M1Polynomial([[], [1]]):
        raise ConsistencyError("Z₁/Z₀ should be exactly M₁")


@cache
def _mn_table(n: int) -> M1Polynomial:
    """M_N, whatever the order: the N-th cumulant of the moments
    (Z_j/Z_0)/j!, resumed from the lower M_i; unchecked, so that a failed
    check of one :func:`mn_in_m1` does not fail those above it."""
    moments = [_zj_table(j) * Fraction(1, factorial(j)) for j in range(1, n + 1)]
    return cumulants(moments, [_mn_table(i) for i in range(1, n)])[-1]


def mn_in_m1(n: int, order: int) -> M1Polynomial:
    """M_N as a polynomial of degree exactly N in M₁.

    Takes the same logarithm as :func:`~nrooted.qft.m_series`,
    M_N = N! · [t^N] log(1 + Σ_j (Z_j/Z_0) t^j/(j!)²), as the N-th cumulant
    of the degree-1 moments (Z_j/Z_0)/j! instead of series, resumed from the
    lower M_i, once per N whatever the order; validated by degree check and
    by substituting the M₁ series against m_series(N), on every call.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = _mn_table(n)
    if total.degree != n:
        raise ConsistencyError(
            f"mn_in_m1({n}): degree {total.degree}, expected exactly {n}"
        )
    _require_substitution(
        f"mn_in_m1({n}): substitution and the direct series differ", total, m_series(n, order)
    )
    return total


def check_published_mn(n: int) -> None:
    """N!·λ^{2N−2}·M_N as built against its published row in
    :data:`~nrooted.tables.M1_IDENTITIES`; a failure names the first differing
    monomial, by λ-power and then M₁-power."""
    from .tables import M1_IDENTITIES

    shift = 2 * n - 2
    built = {
        (p + shift, i): c
        for i, laurent in enumerate((_mn_table(n) * factorial(n)).coefficients)
        for p, c in laurent.items()
    }
    published = {(lam, mpow): coeff for coeff, lam, mpow in M1_IDENTITIES[n]}
    for lam, mpow in sorted(built.keys() | published.keys()):
        got, want = built.get((lam, mpow), 0), published.get((lam, mpow), 0)
        if got != want:
            raise ConsistencyError(f"at λ^{lam}·M₁^{mpow}: {got} != {want}", power=lam)


# ---------------------------------------------------------------------------
# Reports, the published-table checks and the ODE residuals
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


def attempt(identity: str, order: int, check: Callable[[], object]) -> VerificationReport:
    """Run a check and report it: a pass if it returns, a failure carrying
    the ``ConsistencyError``'s message and λ-power if it raises one."""
    try:
        check()
    except ConsistencyError as exc:
        return VerificationReport(identity, order, False, exc.power, detail=str(exc))
    return VerificationReport(identity, order, True, None)


def report_from_difference(identity: str, lhs: Series, rhs: Series) -> VerificationReport:
    """The report of :func:`require_agreement` at the common order of lhs and rhs."""
    return attempt(identity, min(lhs.order, rhs.order), lambda: require_agreement(lhs, rhs))


def check_published_counts(n: int) -> None:
    """M_N through λ^12 against its published counts m_N(0..6) in
    :data:`~nrooted.tables.M_TABLES`."""
    from .tables import M_TABLES

    row = M_TABLES[n]
    published = Series([row[p // 2] if p % 2 == 0 else 0 for p in range(2 * len(row) - 1)])
    require_agreement(m_series(n, 12), published)


def check_published_znp() -> None:
    """Z_{1,1} at λ^5, the one term of it the paper gives: 90."""
    got = z_np_series(1, 1, 5).coefficient(5)
    if got != 90:
        raise ConsistencyError(f"at λ^5: {got} != 90", power=5)


def verify_ode_m1(order: int) -> VerificationReport:
    """Residual of  M₁ = 1 + λ²M₁ + λ²M₁² + λ³M₁′  (valid through order-1)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    m1 = m_series(1, order)
    lam2 = Series.monomial(1, 2, order)
    lam3 = Series.monomial(1, 3, order)
    rhs = 1 + lam2 * m1 + lam2 * (m1 * m1) + lam3 * m1.derivative()
    return report_from_difference("m1-ode", m1, rhs)


def verify_ode_m0(order: int) -> VerificationReport:
    """Residual of  M₀′ = 2λ + 4λ²M₀′ + λ³M₀″ + λ³(M₀′)²  (through order-2)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    d1 = m0_series(order).derivative()
    d2 = d1.derivative()
    lam1 = Series.monomial(2, 1, order)
    lam2 = Series.monomial(4, 2, order)
    lam3 = Series.monomial(1, 3, order)
    rhs = lam1 + lam2 * d1 + lam3 * d2 + lam3 * (d1 * d1)
    return report_from_difference("m0-ode", d1, rhs)


def verify_ode_z0(order: int) -> VerificationReport:
    """Residual of the normalized  Z₀′ = λ³Z₀″ + 4λ²Z₀′ + 2λZ₀  (through order-2)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    z0 = z_series(0, order)
    d1 = z0.derivative()
    d2 = d1.derivative()
    rhs = (
        Series.monomial(1, 3, order) * d2
        + Series.monomial(4, 2, order) * d1
        + Series.monomial(2, 1, order) * z0
    )
    return report_from_difference("z0-ode", d1, rhs)
