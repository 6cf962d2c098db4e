"""Exact truncated-series arithmetic: examples, edge cases, and ring laws."""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrooted.errors import ConsistencyError
from nrooted.series import Series, first_difference, horner, log_coefficients, require_agreement


def S(*coeffs):
    return Series([Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs])


class TestConstruction:
    def test_monomial_identity_case(self):
        assert Series.monomial(1, 0, 4) == S(1, 0, 0, 0, 0)

    def test_monomial_interior(self):
        assert Series.monomial(2, 2, 4) == S(0, 0, 2, 0, 0)

    def test_monomial_rational(self):
        m = Series.monomial(Fraction(-1, 2), 3, 3)
        assert m.coefficient(3) == Fraction(-1, 2)
        assert m.order == 3

    def test_monomial_power_beyond_order_rejected(self):
        with pytest.raises(ValueError):
            Series.monomial(1, 5, 4)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series([0.5, 1])

    def test_booleans_rejected(self):
        with pytest.raises(TypeError):
            Series([True, 1])
        with pytest.raises(TypeError):
            Series.monomial(False, 0, 2)
        with pytest.raises(TypeError):
            S(1, 2) * True

    def test_zero_and_one(self):
        assert Series.zero(3) == S(0, 0, 0, 0)
        assert Series.one(2) == S(1, 0, 0)

    def test_zero_rejects_a_negative_order(self):
        with pytest.raises(ValueError, match="order must be non-negative"):
            Series.zero(-3)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Series([]), ValueError,
             "a series needs at least the constant coefficient"),
            (lambda: Series([1, 2], order=0), ValueError,
             "2 coefficients exceed requested order 0"),
            (lambda: Series.monomial(1, -1, 3), ValueError,
             "monomial power must be non-negative"),
            (lambda: S(1, 2).shifted(-1), ValueError, "shift must be non-negative"),
            (lambda: S(1, 2) / 0, ZeroDivisionError, "division of a series by zero"),
            (lambda: S(1, 2) * 1.5, TypeError,
             "unsupported operand type(s) for *: 'Series' and 'float'"),
            (lambda: S(1, 2) / 1.5, TypeError,
             "unsupported operand type(s) for /: 'Series' and 'float'"),
        ],
        ids=["empty", "too-many-coefficients", "negative-monomial-power",
             "negative-shift", "divide-by-zero", "times-float", "over-float"],
    )
    def test_refusal_names_its_cause(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


class TestArithmetic:
    def test_add_example(self):
        assert S(1, 0, 1) + S(0, 0, 1) == S(1, 0, 2)

    def test_add_zero_identity(self):
        s = S(1, 2, 3)
        assert s + Series.zero(2) == s

    def test_add_inverse(self):
        a = S(1, 0, 3, 0, 15)
        assert a + (-a) == Series.zero(4)

    def test_mul_example(self):
        assert S(1, 0, 1, 0, 0) * S(1, 0, -1, 0, 0) == S(1, 0, 0, 0, -1)

    def test_mul_one_identity(self):
        s = S(2, 3, 5)
        assert s * Series.one(2) == s

    def test_mul_z0_by_m1_gives_z1_through_lambda4(self):
        z0 = S(1, 0, 1, 0, 3)
        m1 = S(1, 0, 2, 0, 10)
        assert z0 * m1 == S(1, 0, 3, 0, 15)

    def test_min_order_rule(self):
        a = S(1, 1, 1, 1)  # order 3
        b = S(1, 1)  # order 1
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_integer_minus_series(self):
        assert 1 - S(1, 2, 3) == S(0, -2, -3)

    def test_invert_geometric(self):
        inv = S(1, 0, 1, 0, 0, 0).invert()
        assert inv == S(1, 0, -1, 0, 1, 0)

    def test_invert_scalar(self):
        assert S(2, 0, 0).invert() == S(Fraction(1, 2), 0, 0)

    def test_invert_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            S(0, 1).invert()

    def test_divide_z1_by_z0(self):
        z1 = S(1, 0, 3, 0, 15)
        z0 = S(1, 0, 1, 0, 3)
        assert z1 / z0 == S(1, 0, 2, 0, 10)

    def test_divide_self_is_one(self):
        s = S(3, 1, 4, 1)
        assert s / s == Series.one(3)

    def test_divide_z2_by_z0_low_order(self):
        z2 = S(2, 0, 12)
        z0 = S(1, 0, 1)
        assert z2 / z0 == S(2, 0, 10)

    def test_pow(self):
        s = S(1, 1, 0, 0)
        assert s**3 == S(1, 3, 3, 1)
        assert s**0 == Series.one(3)

    @pytest.mark.parametrize("exponent", [True, False, -1, 2.0])
    def test_pow_rejects_bool_negative_and_float_exponents(self, exponent):
        with pytest.raises(ValueError, match="non-negative integer"):
            Series([1, 2, 3]) ** exponent

    def test_unshifted_divides_by_a_power(self):
        s = S(0, 0, Fraction(1, 2), 3)
        assert s.unshifted(2, "demo") == S(Fraction(1, 2), 3)
        assert s.unshifted(0, "demo") == s
        assert Series.one(3).shifted(3).unshifted(3, "demo") == Series.one(3)

    def test_unshifted_names_the_first_negative_power_left(self):
        with pytest.raises(ConsistencyError, match=r"^demo: negative power λ\^-1 fails to cancel \(coefficient 2/3\)$"):
            S(0, Fraction(2, 3), 0, 5).unshifted(2, "demo")

    @pytest.mark.parametrize("powers", [-1, 4])
    def test_unshifted_beyond_the_order_is_rejected(self, powers):
        with pytest.raises(ValueError):
            S(0, 0, 0, 1).unshifted(powers, "demo")


class TestCalculus:
    def test_derivative_example(self):
        assert S(1, 0, 1, 0, 3).derivative() == S(0, 2, 0, 12)

    def test_derivative_constant(self):
        assert S(7, 0).derivative() == S(0)

    def test_derivative_of_order_zero_rejected(self):
        with pytest.raises(ValueError):
            S(7).derivative()

    def test_derivative_drops_order(self):
        assert S(1, 2, 3).derivative().order == 1

    def test_x_derivative_keeps_order(self):
        s = S(1, 2, 3)
        assert s.x_derivative() == S(0, 2, 6)

    def test_log_of_one_is_zero(self):
        assert Series.one(4).log() == Series.zero(4)

    def test_log_example(self):
        z0 = S(1, 0, 1, 0, 3)
        assert z0.log() == S(0, 0, 1, 0, Fraction(5, 2))

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError):
            S(2, 1).log()

    def test_exp_of_zero_is_one(self):
        assert Series.zero(4).exp() == Series.one(4)

    def test_exp_example(self):
        assert S(0, 0, 1, 0, 0).exp() == S(1, 0, 1, 0, Fraction(1, 2))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            S(1, 1).exp()

    def test_exp_log_round_trip(self):
        s = S(1, 2, 3, 4, 5)
        assert s.log().exp() == s


class TestFirstDifference:
    def test_names_first_differing_power_and_both_values(self):
        assert first_difference(S(1, 2, 10, 74), S(1, 2, 11, 70)) == (2, 10, 11)

    def test_equal_series_have_no_difference(self):
        assert first_difference(S(1, 0, 3), S(1, 0, 3)) is None

    def test_compares_only_the_common_order(self):
        assert first_difference(S(1, 2), S(1, 2, 99)) is None


class TestRequireAgreement:
    def test_agreement_on_the_common_powers_passes(self):
        require_agreement(S(1, 2), S(1, 2))
        require_agreement(S(1, 2), S(1, 2, 99))

    def test_failure_with_a_context_names_its_power(self):
        message = r"^demo: routes differ at λ\^2: 10 != 11$"
        with pytest.raises(ConsistencyError, match=message) as info:
            require_agreement(S(1, 2, 10, 74), S(1, 2, 11, 70), "demo: routes differ")
        assert info.value.power == 2

    def test_failure_without_a_context_names_its_power(self):
        with pytest.raises(ConsistencyError, match=r"^at λ\^1: 1/2 != 0$") as info:
            require_agreement(S(0, Fraction(1, 2)), S(0, 0, 5))
        assert info.value.power == 1


class TestCoefficientAccess:
    def test_coefficient(self):
        assert S(0, 0, 0, 0, 10).coefficient(4) == 10

    def test_coefficient_of_monomial(self):
        assert Series.monomial(Fraction(7, 3), 2, 5).coefficient(2) == Fraction(7, 3)

    def test_beyond_order_is_an_error_not_zero(self):
        with pytest.raises(IndexError):
            S(1, 2).coefficient(5)

    def test_negative_power_is_an_error(self):
        with pytest.raises(IndexError):
            S(1, 2).coefficient(-1)


class TestSerialization:
    def test_json_shape(self):
        data = S(1, 0, Fraction(5, 2)).to_json_dict()
        assert data == {"order": 2, "coeffs": ["1/1", "0/1", "5/2"]}

    def test_format_terms(self):
        assert S(1, 0, 2, 0, 10).format_terms() == "1 + 2*λ^2 + 10*λ^4"
        assert Series.zero(3).format_terms() == "0"


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=9
)


def series_strategy(order: int = 7, constant: st.SearchStrategy | None = None):
    head = constant if constant is not None else rationals
    return st.tuples(head, st.lists(rationals, min_size=order, max_size=order)).map(
        lambda t: Series([t[0], *t[1]])
    )


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_leibniz_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@settings(max_examples=60, deadline=None)
@given(series_strategy(constant=st.fractions(min_value=1, max_value=5, max_denominator=4)))
def test_inversion_properties(a):
    assert a * a.invert() == Series.one(a.order)
    assert a.invert().invert() == a


@settings(max_examples=60, deadline=None)
@given(series_strategy(constant=st.just(Fraction(0))))
def test_log_exp_mutually_inverse(a):
    assert a.exp().log() == a
    one_plus = Series.one(a.order) + a
    assert one_plus.log().exp() == one_plus


# ---------------------------------------------------------------------------
# Integer kernels against schoolbook Fraction arithmetic
# ---------------------------------------------------------------------------


def schoolbook_mul(a, b):
    k = min(len(a), len(b)) - 1
    return [sum((a[i] * b[p - i] for i in range(p + 1)), Fraction(0)) for p in range(k + 1)]


def schoolbook_invert(a):
    out = [1 / a[0]]
    for p in range(1, len(a)):
        out.append(-sum((a[i] * out[p - i] for i in range(1, p + 1)), Fraction(0)) / a[0])
    return out


def schoolbook_exp(a):
    out = [Fraction(1)]
    for p in range(1, len(a)):
        out.append(sum((i * a[i] * out[p - i] for i in range(1, p + 1)), Fraction(0)) / p)
    return out


def assert_kernel_result(series, want):
    assert series.coefficients == tuple(want)
    assert all(type(c) is Fraction for c in series.coefficients)
    # one stored form per value, whatever the signs of the operands
    assert series == Series(want) and hash(series) == hash(Series(want))


# Coefficients the kernels must all handle: integers, runs of zeros, and
# rationals whose pairwise coprime denominators up to 10^6 make the common
# denominator large.
kernel_coefficients = st.one_of(
    st.integers(-10**6, 10**6).map(Fraction),
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-10**6, 10**6),
        st.sampled_from([2, 3, 7, 999_983, 1_000_000, 999_999]),
    ),
)


@st.composite
def kernel_series(draw, min_order=0, max_order=12, constant=None):
    cs = draw(st.lists(kernel_coefficients, min_size=min_order + 1, max_size=max_order + 1))
    shape = draw(st.sampled_from(["dense", "even-only", "zero-run"]))
    if shape == "even-only":
        cs = [c if p % 2 == 0 else Fraction(0) for p, c in enumerate(cs)]
    elif shape == "zero-run":
        start = draw(st.integers(0, len(cs) - 1))
        cs[start : start + 5] = [Fraction(0)] * len(cs[start : start + 5])
    if constant is not None:
        cs[0] = draw(constant)
    return Series(cs)


nonzero_constants = st.one_of(
    st.sampled_from([Fraction(-7, 3), Fraction(1), Fraction(-1), Fraction(5, 999_983)]),
    kernel_coefficients.filter(lambda c: c != 0),
)


class TestIntegerKernels:
    @settings(max_examples=150, deadline=None)
    @given(kernel_series(), kernel_series())
    def test_mul_matches_schoolbook(self, a, b):
        assert_kernel_result(a * b, schoolbook_mul(a.coefficients, b.coefficients))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-50, 50), max_size=12), min_size=1, max_size=5),
        st.integers(1, 30),
        kernel_series(),
    )
    def test_horner_matches_series_arithmetic(self, rows, den, x):
        order = x.order
        want = Series.zero(order)
        for i, row in enumerate(rows):
            c = Series([Fraction(v, den) for v in row[: order + 1]], order=order)
            want = want + c * x**i
        assert_kernel_result(horner(rows, den, x, order), want.coefficients)

    def test_horner_needs_x_to_the_order(self):
        with pytest.raises(ValueError, match="to order 5, got 3"):
            horner([[1], [1]], 1, S(1, 2, 3, 4), 5)

    @settings(max_examples=150, deadline=None)
    @given(kernel_series(constant=nonzero_constants))
    def test_invert_matches_schoolbook(self, a):
        assert_kernel_result(a.invert(), schoolbook_invert(a.coefficients))

    def test_invert_negative_non_unit_constant(self):
        a = S(Fraction(-7, 3), 0, 2, Fraction(1, 999_983), 0, 0, 5)
        want = schoolbook_invert(a.coefficients)
        assert want[0] == Fraction(-3, 7)
        assert_kernel_result(a.invert(), want)

    @pytest.mark.parametrize("order", range(4))
    def test_invert_negative_constant_at_every_order_parity(self, order):
        # a0^{order+1} is negative only for odd order+1
        a = Series([Fraction(-2, 3), 1, 0, 5][: order + 1])
        assert_kernel_result(a.invert(), schoolbook_invert(a.coefficients))

    @settings(max_examples=100, deadline=None)
    @given(kernel_series(max_order=10, constant=st.just(Fraction(0))))
    def test_exp_matches_schoolbook(self, a):
        assert_kernel_result(a.exp(), schoolbook_exp(a.coefficients))

    @settings(max_examples=100, deadline=None)
    @given(kernel_series(max_order=10, constant=st.just(Fraction(1))))
    def test_log_matches_scalar_recurrence(self, a):
        # log_coefficients over Fraction scalars forms no Series products.
        want = [Fraction(0)] + log_coefficients(a.coefficients[1:])
        assert_kernel_result(a.log(), want)

    def test_order_zero_series(self):
        a, b = S(Fraction(-7, 3)), S(Fraction(2, 5))
        assert_kernel_result(a * b, [Fraction(-14, 15)])
        assert_kernel_result(a.invert(), [Fraction(-3, 7)])
        assert_kernel_result(S(1).log(), [Fraction(0)])
        assert_kernel_result(S(0).exp(), [Fraction(1)])

    def test_integer_results_serialize_over_one(self):
        product = S(1, 0, 3) * S(Fraction(1, 2), 0, Fraction(3, 2))
        assert product.to_json_dict() == {"order": 2, "coeffs": ["1/2", "0/1", "3/1"]}
        assert S(2, 4).invert().to_json_dict() == {"order": 1, "coeffs": ["1/2", "-1/1"]}


# ---------------------------------------------------------------------------
# The integer representation against a Fraction reference, op by op
# ---------------------------------------------------------------------------


def reference_log(a):
    # b_0 = 0 and p·b_p = p·a_p − Σ_{i=1}^{p−1} i·b_i·a_{p−i}, for a_0 = 1
    b = [Fraction(0)]
    for p in range(1, len(a)):
        acc = p * a[p] - sum((i * b[i] * a[p - i] for i in range(1, p)), Fraction(0))
        b.append(acc / p)
    return b


def reference_step(ref, op, arg):
    """One chain step on a list of Fractions; ValueError where Series refuses."""
    if op == "add":
        return [x + y for x, y in zip(ref, arg)]
    if op == "sub":
        return [x - y for x, y in zip(ref, arg)]
    if op == "scale":
        return [arg * x for x in ref]
    if op == "mul":
        return schoolbook_mul(ref, arg)
    if op == "invert":
        if ref[0] == 0:
            raise ValueError
        return schoolbook_invert(ref)
    if op == "log":
        if ref[0] != 1:
            raise ValueError
        return reference_log(ref)
    if op == "exp":
        if ref[0] != 0:
            raise ValueError
        return schoolbook_exp(ref)
    if op == "derivative":
        if len(ref) == 1:
            raise ValueError
        return [p * c for p, c in enumerate(ref)][1:]
    if op == "x_derivative":
        return [p * c for p, c in enumerate(ref)]
    if op == "shifted":
        return [Fraction(0)] * arg + ref
    if op == "truncate":
        if arg >= len(ref):
            raise ValueError
        return ref[: arg + 1]
    raise AssertionError(op)


def series_step(series, op, arg):
    binary = {"add": "__add__", "sub": "__sub__", "mul": "__mul__"}
    if op in binary:
        return getattr(series, binary[op])(Series(arg))
    if op == "scale":
        return series * arg
    if op in ("shifted", "truncate"):
        return getattr(series, op)(arg)
    return getattr(series, op)()


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
operands = st.lists(small_rationals, min_size=1, max_size=9)
chain_steps = st.one_of(
    st.tuples(st.sampled_from(["add", "sub", "mul"]), operands),
    st.tuples(st.just("scale"), small_rationals),
    st.tuples(
        st.sampled_from(["invert", "log", "exp", "derivative", "x_derivative"]),
        st.none(),
    ),
    st.tuples(st.just("shifted"), st.integers(0, 2)),
    st.tuples(st.just("truncate"), st.integers(0, 9)),
)


def assert_reads_lowest_terms(series):
    for c in series.coefficients:
        assert type(c) is Fraction
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


class TestRepresentationAgainstFractions:
    @settings(max_examples=200, deadline=None)
    @given(operands, st.lists(chain_steps, max_size=6))
    def test_operation_chains_match_a_fraction_reference(self, start, steps):
        series, ref = Series(start), list(start)
        for op, arg in steps:
            # log and exp need a fixed constant term; set it half of the time
            if op == "log" and ref[0] != 1 and len(ref) % 2:
                series, ref = series - ref[0] + 1, [Fraction(1)] + ref[1:]
            if op == "exp" and ref[0] != 0 and len(ref) % 2:
                series, ref = series - ref[0], [Fraction(0)] + ref[1:]
            try:
                want = reference_step(ref, op, arg)
            except ValueError:
                with pytest.raises(ValueError):
                    series_step(series, op, arg)
                continue
            series, ref = series_step(series, op, arg), want
            assert series.coefficients == tuple(ref)
            assert series.order == len(ref) - 1
            assert series == Series(ref) and hash(series) == hash(Series(ref))
            assert_reads_lowest_terms(series)

    @settings(max_examples=100, deadline=None)
    @given(operands, st.integers(2, 30), st.lists(small_rationals, min_size=9, max_size=9))
    def test_equal_values_from_different_routes_are_equal_with_one_hash(
        self, cs, k, other
    ):
        direct = Series(cs)
        order = direct.order
        routes = [
            Series(cs) * k * Fraction(1, k),
            Series([c * k for c in cs]) / k,
            (Series(cs) + Series(other[: order + 1])) - Series(other[: order + 1]),
            Series(cs) * Series.one(order),
            Series([*cs, Fraction(7, 3)]).truncate(order),
            -(-Series(cs)),
        ]
        if cs[0] != 0:
            routes.append(Series(cs).invert().invert())
        for route in routes:
            assert route == direct
            assert hash(route) == hash(direct)
            assert_reads_lowest_terms(route)

    def test_content_is_divided_out(self):
        # 2/6 + 4/6·x built over 6 equals 1/3 + 2/3·x built over 3
        assert S(Fraction(1, 6), Fraction(1, 3)) * 2 == S(Fraction(1, 3), Fraction(2, 3))
        assert (S(Fraction(1, 2), Fraction(1, 2)) + S(Fraction(1, 2), Fraction(1, 2))) == S(1, 1)
        assert hash(S(Fraction(1, 3)) * 3) == hash(S(1))
