"""Triangle table, auxiliary double-factorial series, closures, and ODE checks."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

import nrooted.relations
from nrooted.errors import ConsistencyError
from nrooted.qft import m0_series, m_series, z_series
from nrooted.relations import (
    M1Polynomial,
    VerificationReport,
    b_table,
    mn_in_m1,
    r_series,
    report_from_difference,
    verify_ode_m0,
    verify_ode_m1,
    verify_ode_z0,
    zj_over_z0_in_m1,
)
from nrooted.series import Series, cumulants
from nrooted.tables import M1_IDENTITIES


def odd_double_factorial(m: int) -> int:
    assert m >= -1 and m % 2 == 1
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class TestBTable:
    def test_first_rows_frozen(self):
        assert b_table(3) == ((1,), (1, 1), (2, 5, 1), (6, 27, 12, 1))

    def test_specific_values(self):
        t = b_table(4)
        assert t[2][1] == 5
        assert t[3][0] == 6
        assert t[3][2] == 12

    def test_closed_form_leftmost_is_factorial(self):
        t = b_table(12)
        fact = 1
        for n in range(13):
            if n:
                fact *= n
            assert t[n][0] == fact

    def test_closed_form_rightmost_is_one(self):
        t = b_table(12)
        for n in range(13):
            assert t[n][n] == 1

    def test_closed_form_subleading(self):
        t = b_table(12)
        for n in range(1, 13):
            assert t[n][n - 1] == (3 * n - 1) * n // 2

    def test_recursion_holds_on_interior(self):
        t = b_table(10)
        for n in range(10):
            for k in range(1, n + 1):
                assert t[n + 1][k] == t[n][k - 1] + (2 * k + n + 1) * t[n][k]

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            b_table(0)


class TestRSeries:
    def test_base_case_equals_partition_function(self):
        assert r_series(-1, 6) == z_series(0, 6)

    def test_index_one(self):
        assert r_series(1, 4) == Series([Fraction(c) for c in (1, 0, 3, 0, 15)])

    @pytest.mark.parametrize("i", [-1, 1, 3, 5, 7])
    def test_coefficients_are_shifted_double_factorials(self, i):
        s = r_series(i, 10)
        for k in range(6):
            assert s.coefficient(2 * k) == odd_double_factorial(2 * k + i)
            if 2 * k + 1 <= 10:
                assert s.coefficient(2 * k + 1) == 0

    @pytest.mark.parametrize("k", [-1, 1, 3])
    def test_derivative_recurrence(self, k):
        # λ d/dλ R_k = R_{k+2} - (k+2) R_k
        order = 10
        lhs = r_series(k, order).x_derivative()
        rhs = r_series(k + 2, order) + Series.monomial(-(k + 2), 0, order) * r_series(
            k, order
        )
        assert lhs == rhs

    def test_even_index_rejected(self):
        with pytest.raises(ValueError):
            r_series(2, 6)

    def test_too_negative_index_rejected(self):
        with pytest.raises(ValueError):
            r_series(-3, 6)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            r_series(1, -1)


class TestDerivativeBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scaled_nth_derivative_expands_in_auxiliary_series(self, n):
        # λ^n d^n/dλ^n of the partition function = alternating triangle-table
        # combination of the auxiliary series
        order = 10
        z0 = z_series(0, order + n)
        d = z0
        for _ in range(n):
            d = d.derivative()
        lhs = d.shifted(n).truncate(order)
        row = b_table(n)[n]
        rhs = Series.zero(order)
        for k in range(n + 1):
            sign = (-1) ** (n - k)
            rhs = rhs + Series.monomial(sign * row[k], 0, order) * r_series(
                2 * k - 1, order
            )
        assert lhs == rhs


class TestFirstMomentIdentities:
    def test_partition_function_minus_one(self):
        # Z0 - 1 = λ² M1 Z0
        order = 12
        z0 = z_series(0, order)
        m1 = m_series(1, order)
        lhs = z0 + Series.monomial(-1, 0, order)
        rhs = Series.monomial(1, 2, order) * (m1 * z0)
        assert lhs == rhs

    def test_reciprocal_partition_function(self):
        # 1/Z0 = 1 - λ² M1
        order = 12
        lhs = z_series(0, order).invert()
        rhs = Series.one(order) + Series.monomial(-1, 2, order) * m_series(1, order)
        assert lhs == rhs


def random_polynomial(rng: random.Random) -> M1Polynomial:
    """Up to 3 rows of up to 4 small numerators, zeros among them, at a random
    λ-offset and denominator."""
    rows = [
        [rng.choice((0, 0, -3, -1, 1, 2, 6)) for _ in range(rng.randint(0, 4))]
        for _ in range(rng.randint(1, 3))
    ]
    return M1Polynomial(rows, rng.randint(-3, 2), rng.randint(1, 6))


#: Rational points (λ, M₁) at which random polynomials are compared by value.
POINTS = [
    (Fraction(1, 2), Fraction(3)),
    (Fraction(-2, 3), Fraction(1, 5)),
    (Fraction(3), Fraction(-1)),
]


def value_at(p: M1Polynomial, lam: Fraction, m1: Fraction) -> Fraction:
    """p at the point (λ, M₁), read from its ``coefficients``."""
    return sum(
        c * lam**k * m1**i for i, laurent in enumerate(p.coefficients) for k, c in laurent.items()
    )


class TestM1Polynomial:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_arithmetic_agrees_with_values(self, seed):
        rng = random.Random(seed)
        a, b = random_polynomial(rng), random_polynomial(rng)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        for lam, m1 in POINTS:
            va, vb = value_at(a, lam, m1), value_at(b, lam, m1)
            assert value_at(a + b, lam, m1) == va + vb
            assert value_at(a * b, lam, m1) == va * vb
            assert value_at(c * a, lam, m1) == c * va
        for p in (a, b, a + b, a * b, c * a):
            assert eval(repr(p)) == p

    def test_table_reads_back_in_laurent_form(self):
        p = M1Polynomial([[3]], low=-2, denominator=2)
        assert p.coefficients == ({-2: Fraction(3, 2)},)
        assert [list(c.items()) for c in p.coefficients] == [[(-2, Fraction(3, 2))]]
        assert p.min_lambda_power() == -2

    def test_zero_entries_dropped(self):
        p = M1Polynomial([[0, 0]], low=1)
        assert p.coefficients == ({},)
        assert p.degree == 0 and p.min_lambda_power() == 0
        assert M1Polynomial([[0, 4, 0, 2]], low=-3, denominator=2) == M1Polynomial([[2, 0, 1]], -2)

    def test_trailing_zero_coefficients_trimmed(self):
        p = M1Polynomial([[1], []])
        assert p.degree == 0

    def test_ring_arithmetic(self):
        a = M1Polynomial([[1]], low=-2)
        b = M1Polynomial([[2]])
        assert (a + b).coefficients == ({-2: Fraction(1), 0: Fraction(2)},)
        assert (a * b).coefficients == ({-2: Fraction(2)},)
        assert (a + a * -1).coefficients == ({},)
        assert M1Polynomial([[], [1]]) + M1Polynomial([[]]) == M1Polynomial([[0], [1]])

    def test_multiplication_degree(self):
        x = M1Polynomial([[], [1]])
        assert (x * x).degree == 2
        assert x * x * M1Polynomial([[]]) == M1Polynomial([[]])

    def test_scalar_multiplication(self):
        p = Fraction(1, 2) * M1Polynomial([[4]], low=3)
        assert p == M1Polynomial([[2]], low=3)
        assert p * 3 == M1Polynomial([[6]], low=3)

    @pytest.mark.parametrize("scalar", [0.1, 2.0, True, False])
    def test_scalar_product_rejects_float_and_bool(self, scalar):
        p = mn_in_m1(2, 8)
        with pytest.raises(TypeError):
            p * scalar
        with pytest.raises(TypeError):
            scalar * p

    def test_sum_with_a_scalar_is_a_type_error(self):
        # sums are of polynomials only; a scalar enters through a product
        with pytest.raises(TypeError):
            M1Polynomial([[1]]) + 1

    @pytest.mark.parametrize(
        "args",
        [([[0.5]],), ([[True]],), ([[1]], 0.0), ([[1]], 0, 2.0), ([[1]], 0, True)],
    )
    def test_constructor_takes_only_int(self, args):
        with pytest.raises(TypeError):
            M1Polynomial(*args)

    def test_constructor_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            M1Polynomial([[1]], 0, 0)

    def test_equality_is_on_lowest_terms(self):
        assert M1Polynomial([[2]], denominator=4) == M1Polynomial([[1]], denominator=2)
        assert M1Polynomial([[1]], low=-2) != M1Polynomial([[1]])
        assert M1Polynomial([[1]]) != Series.one(0)

    def test_repr_rebuilds_the_polynomial(self):
        p = M1Polynomial([[], [2, 0, 14]], low=-2, denominator=12)
        assert repr(p) == "M1Polynomial(((0, 0, 0), (1, 0, 7)), low=-2, denominator=6)"
        assert eval(repr(p)) == p

    def test_evaluate_requires_padded_input(self):
        p = mn_in_m1(2, 8)
        with pytest.raises(ValueError):
            p.evaluate(m_series(1, 8), 8)  # needs order 8 + 2

    def test_evaluate_detects_noncancelling_negative_powers(self):
        p = mn_in_m1(2, 8)
        wrong = Series.monomial(2, 0, 10)  # constant 2 leaves a λ^-2 remnant
        with pytest.raises(ConsistencyError, match=r"λ\^-2 fails to cancel \(coefficient 1/2\)"):
            p.evaluate(wrong, 8)

    def test_evaluate_over_a_rational_series(self):
        # (1 + λ·M₁ + M₁²/3) at M₁ = 1/2 + λ/3, against Series arithmetic
        x = Series([Fraction(1, 2), Fraction(1, 3), 0, 0])
        p = M1Polynomial([[3, 0], [0, 3], [1]], denominator=3)
        want = 1 + Series.monomial(1, 1, 3) * x + x * x * Fraction(1, 3)
        assert p.evaluate(x, 3) == want


def zj_table_from_b_table(j: int) -> M1Polynomial:
    """Z_j/Z_0 as the paper assembles it, from the B-table against its brackets:

    Z_j/Z_0 = Σ_{n≤j} Σ_{k≤n} (−1)^{n−k}·j!·C(j,n)/n!·B_{n,2k−1}·bracket(k), with

        bracket(k) = δ_{k,0} + [k>=1] M₁ λ^{-(2k-2)}
                     - [k>=2] (1 - λ² M₁) Σ_{m=0}^{k-2} (2m+1)!! λ^{-(2k-2m-2)}.
    """
    rows = b_table(max(j, 1))
    low = min(0, 2 - 2 * j)
    const, linear = [0] * (1 - low), [0] * (1 - low)  # λ^low .. λ^0
    for n in range(j + 1):
        outer = comb(j, n) * factorial(j) // factorial(n)
        for k in range(n + 1):
            weight = (-1) ** (n - k) * outer * rows[n][k]
            if k == 0:
                const[-low] += weight
            else:
                linear[2 - 2 * k - low] += weight
            for m in range(k - 1):
                term = weight * odd_double_factorial(2 * m + 1)
                const[2 * m + 2 - 2 * k - low] -= term
                linear[2 * m + 4 - 2 * k - low] += term
    return M1Polynomial([const, linear], low)


class TestRatioPolynomials:
    @pytest.mark.parametrize("j", range(17))
    def test_ladder_equals_the_b_table_assembly(self, j):
        assert nrooted.relations._zj_table(j) == zj_table_from_b_table(j)
        assert zj_over_z0_in_m1(j, 40) == zj_table_from_b_table(j)

    def test_index_zero_is_unity(self):
        p = zj_over_z0_in_m1(0, 10)
        assert p.coefficients == ({0: Fraction(1)},)

    def test_index_one_is_the_series_itself(self):
        p = zj_over_z0_in_m1(1, 10)
        assert p.coefficients == ({}, {0: Fraction(1)})

    def test_index_two_shape(self):
        # Z2/Z0 = (M1 - 1)/λ²
        p = zj_over_z0_in_m1(2, 10)
        assert p.coefficients == ({-2: Fraction(-1)}, {-2: Fraction(1)})

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
    def test_substitution_recovers_ratio(self, j):
        order = 10
        p = zj_over_z0_in_m1(j, order)
        shift = max(0, -p.min_lambda_power())
        value = p.evaluate(m_series(1, order + shift), order)
        assert value == z_series(j, order) / z_series(0, order)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            zj_over_z0_in_m1(-1, 8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            zj_over_z0_in_m1(1, -1)


class TestHigherMomentsInFirstMoment:
    def test_two_root_polynomial(self):
        # M2 = (M1 - 1)/(2λ²) - M1²
        p = mn_in_m1(2, 10)
        assert p.coefficients == (
            {-2: Fraction(-1, 2)}, {-2: Fraction(1, 2)}, {0: Fraction(-1)}
        )

    def test_three_root_polynomial(self):
        p = mn_in_m1(3, 10)
        assert p.coefficients == (
            {-4: Fraction(-1, 6)},
            {-4: Fraction(1, 6), -2: Fraction(7, 6)},
            {-2: Fraction(-3, 2)},
            {0: Fraction(2)},
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_top_coefficient_is_signed_factorial(self, n):
        p = mn_in_m1(n, 12)
        assert p.degree == n
        fact = 1
        for i in range(1, n):
            fact *= i
        assert p.coefficients[n] == {0: (-1) ** (n - 1) * fact}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_substitution_recovers_map_series(self, n):
        order = 12
        p = mn_in_m1(n, order)
        shift = max(0, -p.min_lambda_power())
        value = p.evaluate(m_series(1, order + shift), order)
        assert value == m_series(n, order)

    def test_single_root_passthrough(self):
        p = mn_in_m1(1, 8)
        assert p.coefficients == ({}, {0: Fraction(1)})

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            mn_in_m1(0, 8)

    def test_wrong_degree_is_a_consistency_error(self, monkeypatch):
        # M_3 with its M₁³ term, 2, dropped has degree 2
        real = nrooted.relations._mn_table
        dropped = M1Polynomial([[], [], [], [-2]])
        monkeypatch.setattr(
            nrooted.relations,
            "_mn_table",
            lambda n: real(n) + dropped if n == 3 else real(n),
        )
        with pytest.raises(
            ConsistencyError, match=r"mn_in_m1\(3\): degree 2, expected exactly 3"
        ):
            mn_in_m1(3, 10)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cold_cache_equals_warmed_and_unresumed(self, n, clear_caches):
        cold = mn_in_m1(n, 32)
        clear_caches()
        for i in range(1, n):
            mn_in_m1(i, 32)
        assert mn_in_m1(n, 32) == cold
        moments = [zj_over_z0_in_m1(j, 32) * Fraction(1, factorial(j)) for j in range(1, n + 1)]
        assert cumulants(moments)[-1] == cold

    def test_checks_run_on_every_call(self, monkeypatch):
        checked = []
        real = nrooted.relations._require_substitution

        def counted(context, poly, expected):
            checked.append(context.split(":")[0])
            real(context, poly, expected)

        monkeypatch.setattr(nrooted.relations, "_require_substitution", counted)
        mn_in_m1(4, 12)
        mn_in_m1(4, 12)
        mn_in_m1(3, 12)
        # no argument pair repeats in a workload, so no check is cached; the
        # Z_j/Z_0 tables that M_N is built from run no check of their own
        assert checked == ["mn_in_m1(4)", "mn_in_m1(4)", "mn_in_m1(3)"]


#: The Laurent view [[(λ-power, str(coefficient)), ...] per M₁-power] of each
#: polynomial, as the Fraction-valued Laurent class that preceded the integer
#: tables gave it.
LAURENT_VIEWS = {
    ("zj", 0): [[(0, "1")]],
    ("zj", 1): [[], [(0, "1")]],
    ("zj", 2): [[(-2, "-1")], [(-2, "1")]],
    ("zj", 3): [[(-4, "-1")], [(-4, "1"), (-2, "-2")]],
    ("zj", 4): [[(-6, "-1"), (-4, "3")], [(-6, "1"), (-4, "-5")]],
    ("zj", 5): [[(-8, "-1"), (-6, "7")], [(-8, "1"), (-6, "-9"), (-4, "8")]],
    ("zj", 6): [
        [(-10, "-1"), (-8, "12"), (-6, "-15")],
        [(-10, "1"), (-8, "-14"), (-6, "33")],
    ],
    ("mn", 1): [[], [(0, "1")]],
    ("mn", 2): [[(-2, "-1/2")], [(-2, "1/2")], [(0, "-1")]],
    ("mn", 3): [[(-4, "-1/6")], [(-4, "1/6"), (-2, "7/6")], [(-2, "-3/2")], [(0, "2")]],
    ("mn", 4): [
        [(-6, "-1/24"), (-4, "-5/8")],
        [(-6, "1/24"), (-4, "47/24")],
        [(-4, "-17/12"), (-2, "-14/3")],
        [(-2, "6")],
        [(0, "-6")],
    ],
    ("mn", 5): [
        [(-8, "-1/120"), (-6, "-31/40")],
        [(-8, "1/120"), (-6, "9/5"), (-4, "211/40")],
        [(-6, "-25/24"), (-4, "-125/8")],
        [(-4, "65/6"), (-2, "70/3")],
        [(-2, "-30")],
        [(0, "24")],
    ],
}


class TestOrderFreePolynomials:
    @pytest.mark.parametrize("key", sorted(LAURENT_VIEWS), ids=lambda k: f"{k[0]}{k[1]}")
    def test_laurent_view_is_pinned(self, key):
        family, index = key
        poly = (zj_over_z0_in_m1 if family == "zj" else mn_in_m1)(index, 16)
        view = [[(p, str(c)) for p, c in lp.items()] for lp in poly.coefficients]
        assert view == LAURENT_VIEWS[key]
        assert all(isinstance(c, Fraction) for lp in poly.coefficients for c in lp.values())

    @pytest.mark.parametrize("n", sorted(M1_IDENTITIES))
    def test_identity_rows_equal_the_built_tables(self, n):
        # N!·λ^{2N−2}·M_N term by term: integer coefficients, non-negative λ-powers
        built = {
            (p + 2 * n - 2, i): c
            for i, lp in enumerate((mn_in_m1(n, 8) * factorial(n)).coefficients)
            for p, c in lp.items()
        }
        published = {(lam, mpow): coeff for coeff, lam, mpow in M1_IDENTITIES[n]}
        assert built == published
        assert all(c.denominator == 1 for c in built.values())

    def test_each_polynomial_is_built_once_across_orders(self, monkeypatch):
        products, checked = [], []
        real_mul = M1Polynomial.__mul__
        real_check = nrooted.relations._require_substitution

        def counted_mul(a, b):
            products.append(1)
            return real_mul(a, b)

        def counted_check(context, poly, expected):
            checked.append((context.split(":")[0], expected.order))
            real_check(context, poly, expected)

        monkeypatch.setattr(M1Polynomial, "__mul__", counted_mul)
        monkeypatch.setattr(nrooted.relations, "_require_substitution", counted_check)
        first = mn_in_m1(5, 12)
        built = len(products)
        assert built > 0
        assert nrooted.relations._mn_table.cache_info().misses == 5
        assert nrooted.relations._zj_table.cache_info().misses == 5

        # a second and a third order cost the check alone
        for order in (20, 9):
            assert mn_in_m1(5, order) is first
        assert len(products) == built
        assert nrooted.relations._mn_table.cache_info().misses == 5
        assert nrooted.relations._zj_table.cache_info().misses == 5
        assert checked == [("mn_in_m1(5)", 12), ("mn_in_m1(5)", 20), ("mn_in_m1(5)", 9)]

        assert zj_over_z0_in_m1(5, 30) is zj_over_z0_in_m1(5, 11)
        assert nrooted.relations._zj_table.cache_info().misses == 5
        assert checked[3:] == [("zj_over_z0_in_m1(5)", 30), ("zj_over_z0_in_m1(5)", 11)]

    def test_check_reads_m1_as_a_slice_of_the_widest_series(self, monkeypatch):
        m_series(16, 64)
        inverts = []
        real_invert = Series.invert

        def counted_invert(series):
            inverts.append(series.order)
            return real_invert(series)

        monkeypatch.setattr(Series, "invert", counted_invert)
        mn_in_m1(5, 40)  # M₁ to 40 + 8 and M₅ to 40 are truncations of order-64 series
        assert inverts == []


class TestReports:
    def test_zero_residual_passes(self):
        rep = report_from_difference("demo", Series.zero(7), Series.zero(7))
        assert rep.passed and rep.first_failure_power is None
        assert rep.order_checked == 7

    def test_nonzero_residual_locates_first_failure(self):
        rep = report_from_difference("demo", Series.monomial(1, 3, 7), Series.zero(7))
        assert not rep.passed
        assert rep.first_failure_power == 3

    def test_json_shape_is_exact(self):
        rep = report_from_difference("demo", Series.zero(5), Series.zero(5))
        assert rep.to_json_dict() == {
            "identity": "demo",
            "order_checked": 5,
            "pass": True,
            "first_failure_power": None,
        }

    def test_dataclass_detail_not_serialized(self):
        rep = VerificationReport("x", 3, False, 1, detail="why")
        assert "detail" not in rep.to_json_dict()


class TestOdeVerification:
    def test_first_moment_ode(self):
        rep = verify_ode_m1(12)
        assert rep.passed
        assert rep.identity == "m1-ode"
        assert rep.order_checked == 11

    def test_log_partition_ode(self):
        rep = verify_ode_m0(12)
        assert rep.passed
        assert rep.identity == "m0-ode"
        assert rep.order_checked == 10

    def test_partition_function_ode(self):
        rep = verify_ode_z0(12)
        assert rep.passed
        assert rep.identity == "z0-ode"
        assert rep.order_checked == 10

    def test_minimal_order(self):
        assert verify_ode_m1(4).passed
        assert verify_ode_m0(4).passed
        assert verify_ode_z0(4).passed

    def test_order_below_minimum_rejected(self):
        for fn in (verify_ode_m1, verify_ode_m0, verify_ode_z0):
            with pytest.raises(ValueError):
                fn(3)

    def test_negative_control_first_moment(self, monkeypatch):
        # bump the two-edge count from 10 to 11: failure must surface at λ⁴
        monkeypatch.setattr(
            "nrooted.relations.m_series",
            lambda n, order: m_series(n, order) + Series.monomial(1, 4, order),
        )
        rep = verify_ode_m1(12)
        assert not rep.passed
        assert rep.first_failure_power == 4

    def test_negative_control_log_partition(self, monkeypatch):
        monkeypatch.setattr(
            "nrooted.relations.m0_series",
            lambda order: m0_series(order) + Series.monomial(1, 4, order),
        )
        rep = verify_ode_m0(12)
        assert not rep.passed

    def test_negative_control_partition_function(self, monkeypatch):
        monkeypatch.setattr(
            "nrooted.relations.z_series",
            lambda j, order: z_series(j, order) + Series.monomial(1, 2, order),
        )
        rep = verify_ode_z0(12)
        assert not rep.passed
