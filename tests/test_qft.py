"""Generating-function builders: factorial-sum families and map-count series."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrooted.qft
from nrooted.combinat import double_factorial
from nrooted.errors import BoundExceededError, ConsistencyError
from nrooted.qft import (
    MAX_CLOSED_FORM_EDGES,
    _closed_form_table,
    _composition_table,
    _m0_coefficient,
    _m1_from_table,
    m0_series,
    m1_closed_form,
    m2_via_routes,
    m3_via_routes,
    m_count,
    m_series,
    z_np_series,
    z_recursion,
    z_series,
)
from nrooted.relations import zj_over_z0_in_m1
from nrooted.series import Series, log_coefficients


def S(*coeffs):
    return Series([Fraction(c) for c in coeffs])


def arques_beraud(edges):
    """m_1(0..edges) by m_e = (2e−1)·m_{e−1} + Σ_{i<e} m_i·m_{e−1−i}, m_0 = 1."""
    m = [1]
    for e in range(1, edges + 1):
        m.append((2 * e - 1) * m[e - 1] + sum(m[i] * m[e - 1 - i] for i in range(e)))
    return m


def brute_composition_sums(f, total):
    """Σ Π f(part) over every composition of total into k parts, k = 0..total."""
    sums = [int(total == 0)] + [0] * total
    for k in range(1, total + 1):
        for cuts in combinations(range(1, total), k - 1):
            bounds = (0, *cuts, total)
            sums[k] += prod(f(b - a) for a, b in zip(bounds, bounds[1:]))
    return sums


class TestZSeries:
    def test_z0(self):
        assert z_series(0, 6) == S(1, 0, 1, 0, 3, 0, 15)

    def test_z1(self):
        assert z_series(1, 6) == S(1, 0, 3, 0, 15, 0, 105)

    def test_z2(self):
        assert z_series(2, 4) == S(2, 0, 12, 0, 90)

    def test_constant_terms_are_factorials(self):
        for j in range(6):
            expected = 1
            for i in range(1, j + 1):
                expected *= i
            assert z_series(j, 0).coefficient(0) == expected

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            z_series(-1, 4)

    def test_odd_powers_vanish(self):
        s = z_series(3, 9)
        assert all(s.coefficient(p) == 0 for p in range(1, 10, 2))


class TestZNpSeries:
    def test_even_weight_example(self):
        # two extra propagator endpoints on a single root:
        # k-th term (2k+1)!*(2k+1)!!/(2k)!
        s = z_np_series(1, 2, 6)
        assert [s.coefficient(2 * k) for k in range(4)] == [1, 9, 75, 735]

    def test_odd_weight_example_coefficient_90(self):
        s = z_np_series(1, 1, 5)
        assert s == S(0, 2, 0, 12, 0, 90)

    def test_zero_weight_reduces_to_plain_family(self):
        for n in range(6):
            assert z_np_series(n, 0, 12) == z_series(n, 12)

    def test_zero_roots_zero_weight(self):
        assert z_np_series(0, 2, 0).coefficient(0) == 1 * 1  # (0+0)!*(2-1)!!/0! = 1

    def test_odd_weight_only_odd_powers(self):
        s = z_np_series(2, 3, 9)
        assert all(s.coefficient(p) == 0 for p in range(0, 10, 2))

    @pytest.mark.parametrize("p", [0, 1, 2, 5, 40, 41])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_every_coefficient_is_its_factorial_quotient(self, n, p):
        # (2k+N)!(2k+p−1)!!/(2k)! at λ^{2k} for even p; (2k+N+1)!(2k+p)!!/(2k+1)!
        # at λ^{2k+1} for odd p
        s = z_np_series(n, p, 11)
        for q in range(12):
            want = (
                Fraction(factorial(q + n) * double_factorial(q + p - 1), factorial(q))
                if q % 2 == p % 2 else 0
            )
            assert s.coefficient(q) == want

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            z_np_series(-1, 0, 4)
        with pytest.raises(ValueError):
            z_np_series(0, -1, 4)
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            z_np_series(0, 0, -1)


class TestZRecursion:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_direct_series(self, n):
        assert z_recursion(n, 14) == z_series(n, 14)

    def test_low_order(self):
        assert z_recursion(2, 2) == S(2, 0, 12)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            z_recursion(-1, 4)


class TestM0:
    def test_low_coefficients(self):
        s = m0_series(4)
        assert [s.coefficient(p) for p in range(5)] == [0, 0, 1, 0, Fraction(5, 2)]

    def test_exp_recovers_partition_function(self):
        assert m0_series(12).exp() == z_series(0, 12)

    def test_constant_term_normalized_away(self):
        assert m0_series(8).coefficient(0) == 0


class TestLogCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=9),
            max_size=10,
        )
    )
    def test_exp_undoes_log(self, u):
        # Series.exp runs its own recurrence, so this is a round trip
        logs = log_coefficients(u)
        assert Series([0] + logs).exp() == Series([1] + u)

    def test_log_one_plus_t(self):
        assert log_coefficients([1, 0, 0, 0]) == [
            1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4),
        ]

    def test_empty_input(self):
        assert log_coefficients([]) == []

    def test_two_roots_over_m1_polynomials(self):
        # M_2 = Z_2/(2 Z_0) - (Z_1/Z_0)^2, from u_j = (Z_j/Z_0)/(j!)^2
        q1, q2 = zj_over_z0_in_m1(1, 12), zj_over_z0_in_m1(2, 12)
        logs = log_coefficients([q1, q2 * Fraction(1, 4)])
        assert logs[-1] * 2 == q2 * Fraction(1, 2) + q1 * q1 * (-1)


KNOWN_COUNTS = {
    1: [1, 2, 10, 74, 706, 8162, 110410],
    2: [0, 1, 13, 165, 2273, 34577, 581133],
    3: [0, 0, 6, 172, 3834, 81720, 1775198],
}


class TestMSeries:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_known_coefficient_tables(self, n):
        s = m_series(n, 12)
        assert [s.coefficient(2 * e) for e in range(7)] == KNOWN_COUNTS[n]

    def test_odd_powers_vanish(self):
        for n in [1, 2, 3]:
            s = m_series(n, 9)
            assert all(s.coefficient(p) == 0 for p in range(1, 10, 2))

    def test_coefficients_are_nonnegative_integers(self):
        for n in [1, 2, 3, 4]:
            s = m_series(n, 10)
            for p in range(11):
                c = s.coefficient(p)
                assert c.denominator == 1 and c >= 0

    def test_equals_ratio_of_factorial_families(self):
        assert m_series(1, 12) == z_series(1, 12) / z_series(0, 12)

    def test_equals_log_derivative_route(self):
        lhs = m_series(1, 12)
        m0p = m0_series(13).derivative()  # order 12
        rhs = Series.monomial(1, 1, 12) * m0p + Series.one(12)
        assert lhs == rhs

    def test_nonpositive_roots_rejected(self):
        with pytest.raises(ValueError):
            m_series(0, 4)

    @pytest.mark.parametrize(
        "offset, shown", [(Fraction(1, 2), "5/2"), (-3, "-1")], ids=["fraction", "negative"]
    )
    def test_non_count_coefficient_is_a_consistency_error(self, monkeypatch, offset, shown):
        # M_1 = Z_1/Z_0 = 1 + 2λ² + …; the offset moves its λ² coefficient
        real = nrooted.qft._scaled_quotient
        monkeypatch.setattr(
            nrooted.qft,
            "_scaled_quotient",
            lambda j, order: real(j, order) + Series.monomial(offset, 2, order),
        )
        with pytest.raises(
            ConsistencyError,
            match=rf"m_series\(1\): coefficient of λ\^2 is {shown}, expected a non-negative",
        ):
            m_series(1, 4)


class TestAgainstIntegerRoutes:
    """Routes that share no code with the Series kernels, at the orders they reach."""

    def test_single_root_series_matches_integer_recurrence(self):
        s = m_series(1, 256)
        assert [s.coefficient(2 * e) for e in range(129)] == arques_beraud(128)
        assert all(s.coefficient(p) == 0 for p in range(1, 257, 2))

    @pytest.mark.parametrize("e", [*range(33), 64, 127, MAX_CLOSED_FORM_EDGES])
    def test_closed_form_matches_integer_recurrence(self, e):
        value = m1_closed_form(e)
        assert type(value) is int
        assert value == arques_beraud(e)[e]

    def test_vacuum_series_matches_composition_sums(self):
        s = m0_series(128)
        odd = _closed_form_table(63)
        assert [s.coefficient(2 * e) for e in range(1, 65)] == [
            _m0_coefficient(odd, e) for e in range(1, 65)
        ]

    def test_two_root_routes_at_order_64(self):
        # route C needs m1_closed_form up to 31 edges, beyond the old 2^e bound
        assert m2_via_routes(64) == m_series(2, 64)


class TestCompositionSums:
    @pytest.mark.parametrize(
        "f",
        [
            lambda p: double_factorial(2 * p - 1),
            lambda p: factorial(2 * p) // factorial(p),
            lambda p: p - 2,  # a zero and a negative weight
        ],
        ids=["odd-double-factorial", "factorial-ratio", "p-minus-2"],
    )
    @pytest.mark.parametrize("total", range(11))
    def test_matches_brute_force_enumeration(self, f, total):
        # every column t of the table up to `total`, not only the last
        rows = _composition_table(f, total)
        for t in range(total + 1):
            assert [row[t] for row in rows[: t + 1]] == brute_composition_sums(f, t)
            assert all(row[t] == 0 for row in rows[t + 1 :])

    def test_double_factorial_below_minus_one_rejected(self):
        assert double_factorial(-1) == 1
        with pytest.raises(ValueError, match="^double factorial undefined for n=-2$"):
            double_factorial(-2)


class TestMCount:
    def test_single_root_values(self):
        assert [m_count(1, e) for e in range(7)] == KNOWN_COUNTS[1]

    def test_point_map_only_single_root(self):
        assert m_count(1, 0) == 1
        assert m_count(2, 0) == 0
        assert m_count(3, 0) == 0

    def test_three_roots_two_edges(self):
        assert m_count(3, 2) == 6

    def test_no_map_has_fewer_edges_than_roots_less_one(self):
        # roots lie in distinct vertices, and e edges connect at most e + 1 of them
        assert all(m_count(n, e) == 0 for n in range(2, 17) for e in range(n - 1))

    def test_tree_diagonal(self):
        # at N = e + 1 every vertex is a root, so the map is a plane tree
        want = [factorial(e - 1) * comb(3 * e, e - 1) for e in range(1, 16)]
        assert want[:3] == [1, 6, 72]
        assert [m_count(e + 1, e) for e in range(1, 16)] == want

    def test_negative_edges_rejected(self):
        with pytest.raises(ValueError):
            m_count(1, -1)


class TestM1ClosedForm:
    def test_point(self):
        assert m1_closed_form(0) == 1

    def test_one_edge(self):
        assert m1_closed_form(1) == 2

    def test_four_edges(self):
        assert m1_closed_form(4) == 706

    @pytest.mark.parametrize("e", range(9))
    def test_agrees_with_series_route(self, e):
        assert m1_closed_form(e) == m_count(1, e)

    def test_returns_plain_integer(self):
        # the composition sum is checked against the M₁ ODE on every call
        value = m1_closed_form(6)
        assert isinstance(value, int)
        assert value == 110410

    def test_negative_edges_rejected(self):
        with pytest.raises(ValueError):
            m1_closed_form(-1)

    def test_bound_rejects_before_summing(self):
        # the bound equals the theorem2 edge bound; the guard answers at once
        assert MAX_CLOSED_FORM_EDGES == 128
        with pytest.raises(BoundExceededError, match="bound of 128"):
            m1_closed_form(129)

    def test_wrong_table_entry_is_a_consistency_error(self):
        # S_1(e+1) enters the alternating sum with sign +1
        odd = _closed_form_table(3)
        odd[1][4] += 1
        with pytest.raises(
            ConsistencyError,
            match=r"^m1_closed_form\(3\): composition sum and M₁ ODE disagree \(75 vs 74\)$",
        ) as caught:
            _m1_from_table(3, odd, arques_beraud(3))
        assert caught.value.power == 6


class TestHigherRootRoutes:
    def test_two_root_route_values(self):
        s = m2_via_routes(12)
        assert [s.coefficient(2 * e) for e in range(7)] == KNOWN_COUNTS[2]

    def test_three_root_route_values(self):
        s = m3_via_routes(12)
        assert [s.coefficient(2 * e) for e in range(7)] == KNOWN_COUNTS[3]

    def test_routes_agree_with_general_formula(self):
        assert m2_via_routes(14) == m_series(2, 14)
        assert m3_via_routes(14) == m_series(3, 14)

    @pytest.mark.parametrize("route, n, message", [
        (m2_via_routes, 2, "routes A and B disagree at λ\\^4: 14 != 13"),
        (m3_via_routes, 3, "routes A and B disagree at λ\\^4: 7 != 6"),
    ])
    def test_routes_check_the_general_formula(self, monkeypatch, route, n, message):
        # route A is m_series itself, so a wrong m_n(2) there is caught
        monkeypatch.setattr(
            "nrooted.qft.m_series",
            lambda k, order: m_series(k, order) + Series.monomial(int(k == n), 4, order),
        )
        with pytest.raises(ConsistencyError, match=message):
            route(8)

    @pytest.mark.parametrize("order", [8, 24, 64])
    def test_routes_return_the_general_formula(self, order):
        assert m2_via_routes(order) == m_series(2, order)
        assert m3_via_routes(order) == m_series(3, order)

    def test_route_disagreement_names_the_power(self, monkeypatch):
        # one wrong m_1(2) feeds route C only; m_2(3) is the first it touches
        real = nrooted.qft._m1_from_table
        monkeypatch.setattr(
            "nrooted.qft._m1_from_table",
            lambda e, odd, by_ode: real(e, odd, by_ode) + (e == 2),
        )
        with pytest.raises(
            ConsistencyError, match=r"routes A and C disagree at λ\^6: 165 != 163"
        ):
            m2_via_routes(8)

    def test_three_root_disagreement_names_the_power(self, monkeypatch):
        # +λ⁴ in M0 adds λ³/6·(24λ) = 4λ⁴ to route B
        real = m0_series.__wrapped__
        monkeypatch.setattr(
            "nrooted.qft.m0_series",
            lambda order: real(order) + Series.monomial(1, 4, order),
        )
        with pytest.raises(
            ConsistencyError, match=r"routes A and B disagree at λ\^4: 6 != 10"
        ):
            m3_via_routes(8)


class TestZRecursionDetail:
    def test_disagreement_names_the_power(self, monkeypatch):
        real = Series.x_derivative
        monkeypatch.setattr(
            Series,
            "x_derivative",
            lambda self: real(self) + Series.monomial(1, 2, self.order),
        )
        with pytest.raises(
            ConsistencyError, match=r"routes disagree at λ\^2: 4 != 3"
        ):
            z_recursion(1, 6)

    def test_wrong_formula_names_the_first_power(self, monkeypatch):
        # Z_2 = 2 + 12λ² + 90λ⁴ + …; only the formula route is perturbed
        real = z_series
        monkeypatch.setattr(
            "nrooted.qft.z_series",
            lambda j, order: real(j, order) + Series.monomial(int(j == 2), 4, order),
        )
        with pytest.raises(
            ConsistencyError,
            match=r"^z_recursion\(2\): ladder and formula routes disagree at λ\^4: 90 != 91$",
        ) as caught:
            z_recursion(2, 8)
        assert caught.value.power == 4


class TestResumedLogarithm:
    @pytest.mark.parametrize("order", [0, 1, 2, 64])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cold_cache_equals_warmed_and_unresumed(self, n, order, clear_caches):
        cold = m_series(n, order)
        clear_caches()
        for i in range(1, n):
            m_series(i, order)
        assert m_series(n, order) == cold
        # the recurrence taken from scratch, without the cached lower parts
        z0 = z_series(0, order)
        scaled = [
            z_series(j, order) / z0 * Fraction(1, factorial(j) ** 2)
            for j in range(1, n + 1)
        ]
        assert log_coefficients(scaled)[-1] * factorial(n) == cold

    def test_resumes_from_known_logarithms(self):
        u = [Fraction(3), Fraction(-1, 2), Fraction(5, 7), Fraction(2)]
        full = log_coefficients(u)
        for m in range(len(u) + 1):
            assert log_coefficients(u, full[:m]) == full
        # the known prefix is used, not recomputed: a wrong L_1 shows in L_2
        wrong = log_coefficients(u, [full[0] + 1])
        assert wrong[0] == full[0] + 1 and wrong[1] != full[1]


def clear_qft_caches():
    for name in ("z_series", "_z0_inverse", "_scaled_quotient", "m_series", "m0_series"):
        getattr(nrooted.qft, name).cache_clear()


FAMILIES = {
    "m_series": lambda index, order: m_series(index, order),
    "z_series": lambda index, order: z_series(index - 1, order),
    "m0_series": lambda index, order: m0_series(order),
}


class TestWidestOrderCache:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.integers(1, 4),
        st.lists(st.integers(0, 40), min_size=2, max_size=4),
    )
    def test_truncation_equals_a_cold_build(self, family, index, orders):
        # the orders come low before high, high before low, and repeated
        call = FAMILIES[family]
        clear_qft_caches()
        served = [call(index, order) for order in orders]
        for order, series in zip(orders, served):
            clear_qft_caches()
            assert series == call(index, order)
            assert series.order == order

    @pytest.mark.parametrize("orders", [(8, 30), (30, 8)])
    def test_both_call_orders_match_cold_builds(self, orders):
        cold = {}
        for order in orders:
            clear_qft_caches()
            cold[order] = (m_series(3, order), z_series(2, order), m0_series(order))
        clear_qft_caches()
        for order in orders:
            assert (m_series(3, order), z_series(2, order), m0_series(order)) == cold[order]

    def test_a_lower_order_is_a_hit_and_builds_nothing(self, monkeypatch):
        m_series(2, 64)
        before = m_series.cache_info()
        inverts = []
        real_invert = Series.invert
        monkeypatch.setattr(Series, "invert", lambda s: inverts.append(s) or real_invert(s))
        assert m_series(2, 10) == m_series(2, 64).truncate(10)
        assert inverts == []
        after = m_series.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)
        assert after.currsize == 2  # one widest entry per n

    def test_a_higher_order_replaces_the_entry(self):
        m_series(1, 10)
        wide = m_series(1, 40)
        assert m_series(1, 40) is wide
        assert m_series.cache_info().currsize == 1

    def test_cache_clear_makes_the_next_call_cold(self, monkeypatch):
        z_series(0, 20)
        m0_series(20)
        for cached in (z_series, m0_series):
            cached.cache_clear()
            assert cached.cache_info() == (0, 0, None, 0)
        builds = []
        real_log = Series.log
        monkeypatch.setattr(Series, "log", lambda s: builds.append(s.order) or real_log(s))
        m0_series(12)
        assert builds == [12]
        assert m0_series.cache_info().misses == 1 and z_series.cache_info().misses == 1

    def test_a_negative_order_is_still_rejected(self):
        m_series(1, 10)
        with pytest.raises(ValueError, match="order must be non-negative"):
            m_series(1, -1)
        with pytest.raises(ValueError, match="order must be non-negative"):
            z_series(0, -1)

    def test_keywords_share_the_positional_entry(self):
        wide = m_series(2, 12)
        assert m_series(2, order=12) is wide
        assert m_series(n=2, order=6) == wide.truncate(6)
        assert z_series(j=1, order=4) == z_series(1, 4)
        assert m0_series(order=4) == m0_series(4)
        info = m_series.cache_info()
        assert info.currsize == 2 and info.hits == 2  # n = 1 and 2; only the first call built

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: m_series(order=6), r"missing 1 required positional argument: 'n'"),
            (lambda: m_series(2, degree=6), r"unexpected keyword argument 'degree'"),
            (lambda: m_series(2, n=2, order=6), r"multiple values for argument 'n'"),
            (lambda: z_series(1, 4, order=4), r"multiple values for argument 'order'"),
            (lambda: m_series(), r"missing 2 required positional arguments: 'n' and 'order'"),
            (lambda: m0_series(), r"missing 1 required positional argument: 'order'"),
            (lambda: z_series(), r"missing 2 required positional arguments: 'j' and 'order'"),
        ],
    )
    def test_a_bad_keyword_call_is_a_type_error(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()
