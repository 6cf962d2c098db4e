"""Acceptance criteria: one test — and one printed PASS/FAIL line — per criterion.

Every check is exact (integer or rational equality); the only tolerances are
the per-criterion wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from nrooted.qft import (
    m1_closed_form,
    m_count,
    m_series,
    z_np_series,
    z_series,
)
from nrooted.relations import (
    b_table,
    r_series,
    verify_ode_m0,
    verify_ode_m1,
    verify_ode_z0,
)
from nrooted.ribbon import (
    canonical_form,
    count_maps_by_division,
    enumerate_maps,
    genus,
    relabel,
)
from nrooted.series import Series
from nrooted.wick import (
    bijection_class_multiset,
    count_connected_classes,
    from_map,
    to_map,
    total_weighted_classes,
)

CROSS_VALIDATION_PAIRS = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2)]


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {description}")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed <= budget_seconds
    verdict = "PASS" if ok else "FAIL"
    print(
        f"criterion {number}: {verdict} "
        f"({elapsed:.2f}s, budget {budget_seconds:.0f}s) — {description}"
    )
    if not ok:
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget "
            f"({elapsed:.2f}s)"
        )


def test_criterion_01_single_root_counts():
    with criterion(1, "single-root map counts through six edges", 1.0):
        assert [m_count(1, e) for e in range(7)] == [
            1, 2, 10, 74, 706, 8162, 110410,
        ]


def test_criterion_02_two_root_counts():
    with criterion(2, "two-root map counts through six edges", 1.0):
        s = m_series(2, 12)
        assert [s.coefficient(2 * e) for e in range(7)] == [
            0, 1, 13, 165, 2273, 34577, 581133,
        ]


def test_criterion_03_three_root_counts():
    with criterion(3, "three-root map counts through six edges", 1.0):
        s = m_series(3, 12)
        assert [s.coefficient(2 * e) for e in range(7)] == [
            0, 0, 6, 172, 3834, 81720, 1775198,
        ]


def test_criterion_04_closed_form_agreement():
    with criterion(4, "single-root closed form matches series counts", 5.0):
        # each call checks its composition sum against the M₁ ODE's
        # recurrence before returning
        for e in range(9):
            assert m1_closed_form(e) == m_count(1, e)


def test_criterion_05_three_way_oracle_agreement():
    pairs = list(CROSS_VALIDATION_PAIRS)
    with criterion(5, "enumeration, division, and contraction oracles agree", 120.0):
        for n_roots, edges in pairs:
            expected = m_count(n_roots, edges)
            assert len(enumerate_maps(n_roots, edges)) == expected
            assert count_maps_by_division(n_roots, edges) == expected
            assert count_connected_classes(n_roots, edges) == expected
        assert len(enumerate_maps(1, 4)) == 706
        assert count_maps_by_division(1, 4) == 706
        assert count_connected_classes(1, 4) == 706


def test_criterion_06_bijection_round_trip_and_fibers():
    with criterion(6, "contraction bijection round trip with exact fibers", 120.0):
        factorial = [1]
        for i in range(1, 10):
            factorial.append(factorial[-1] * i)
        for n_roots, edges in CROSS_VALIDATION_PAIRS:
            maps = enumerate_maps(n_roots, edges)
            for m in maps:
                assert canonical_form(to_map(from_map(m))) == m
            multiset = bijection_class_multiset(n_roots, edges)
            assert set(multiset) == set(maps)
            assert all(c == factorial[2 * edges] for c in multiset.values())


def test_criterion_07_weighted_totals_match_series():
    with criterion(7, "weighted contraction totals equal series coefficients", 30.0):
        for n_external in range(3):
            for edges in range(4):
                assert total_weighted_classes(n_external, edges) == z_series(
                    n_external, 2 * edges
                ).coefficient(2 * edges)
        assert z_np_series(1, 1, 5).coefficient(5) == 90


def test_criterion_08_differential_equations():
    with criterion(8, "all three differential-equation residuals vanish", 1.0):
        for verify in (verify_ode_m1, verify_ode_m0, verify_ode_z0):
            report = verify(12)
            assert report.passed, report
            assert report.order_checked >= 10


def test_criterion_09_table_and_polynomial_identities():
    with criterion(9, "triangle-table closed forms and moment identities", 5.0):
        table = b_table(12)
        fact = 1
        for n in range(13):
            if n:
                fact *= n
            assert table[n][0] == fact
            assert table[n][n] == 1
            if n >= 1:
                assert table[n][n - 1] == (3 * n - 1) * n // 2

        # scaled n-th derivatives of the partition function expand in the
        # auxiliary double-factorial series with triangle-table coefficients
        order = 12
        for n in range(1, 7):
            z0 = z_series(0, order + n)
            d = z0
            for _ in range(n):
                d = d.derivative()
            lhs = d.shifted(n).truncate(order)
            rhs = Series.zero(order)
            for k in range(n + 1):
                coeff = (-1) ** (n - k) * b_table(n)[n][k]
                rhs = rhs + Series.monomial(coeff, 0, order) * r_series(
                    2 * k - 1, order
                )
            assert lhs == rhs

        # the five explicit moment identities, lowest roots first
        from nrooted.tables import M1_IDENTITIES

        m1 = m_series(1, order)
        for n_roots, terms in sorted(M1_IDENTITIES.items()):
            nfact = 1
            for i in range(2, n_roots + 1):
                nfact *= i
            lhs = (
                Series.monomial(nfact, 2 * (n_roots - 1), order)
                * m_series(n_roots, order)
            )
            rhs = Series.zero(order)
            for coeff, lam_power, m1_power in terms:
                term = Series.monomial(coeff, lam_power, order)
                for _ in range(m1_power):
                    term = term * m1
                rhs = rhs + term
            assert lhs == rhs, f"moment identity failed for {n_roots} roots"


def test_criterion_10_randomized_properties():
    with criterion(10, "randomized algebra, genus, and relabeling properties", 60.0):
        rng = random.Random(20260818)

        def random_series(order=8, constant=None):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(order + 1)
            ]
            if constant is not None:
                coeffs[0] = Fraction(constant)
            return Series(coeffs)

        cases = 0
        for _ in range(150):
            a, b, c = random_series(), random_series(), random_series()
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
            cases += 5
        for _ in range(60):
            u = random_series(constant=0)
            assert u.exp().log() == u
            v = random_series(constant=1)
            assert v.log().exp() == v
            assert v * v.invert() == Series.one(v.order)
            cases += 3
        assert cases >= 500

        pool = []
        for n_roots, edges in CROSS_VALIDATION_PAIRS:
            for m in enumerate_maps(n_roots, edges):
                value = genus(m)
                assert isinstance(value, int) and value >= 0
                if not m.is_point:
                    pool.append(m)

        relabelings = 0
        while relabelings < 1000:
            m = pool[relabelings % len(pool)]
            perm = list(range(1, m.half_edges + 1))
            rng.shuffle(perm)
            assert canonical_form(relabel(m, tuple(perm))) == m
            relabelings += 1
