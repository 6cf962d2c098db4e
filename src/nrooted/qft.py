"""Generating functions for N-rooted map counts, with cross-checked routes.

The zero-dimensional toy field theory behind the enumeration has one complex
field pair per electron line and a quartic-free photon coupling; expanding its
2N-point correlator in the coupling λ gives the family

    Z_N(λ) = Σ_k (2k+N)! (2k-1)!! / (2k)! · λ^{2k},

whose connected part M_N(λ) = Σ_e m_N(e) λ^{2e} counts N-rooted maps with e
edges.  It is taken as a logarithm,

    M_N = N! · [t^N] log Σ_{j≥0} (Z_j/Z_0) t^j / (j!)²

(see :func:`m_series`).  Everything here is exact rational arithmetic on
:class:`Series`.  Each order-indexed family (Z_j, 1/Z_0, the moments, M_N,
M_0) keeps one entry per index, at the widest order built so far, and
serves every lower order by truncating it.

Normalization note: ``m0_series`` is the logarithm of the *normalized* vacuum
series (constant term 1), i.e. M0(0) = 0; the additive constant of the
unnormalized integral is deliberately dropped.

Every function that admits more than one computation route computes all of its
routes and raises :class:`ConsistencyError` if they disagree — disagreement is
a bug, not a value.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from math import factorial, perm

from .combinat import double_factorial
from .errors import BoundExceededError, ConsistencyError
from .series import Series, cumulants, require_agreement

__all__ = [
    "z_series",
    "z_np_series",
    "z_recursion",
    "m0_series",
    "m_series",
    "m_count",
    "m1_closed_form",
    "MAX_CLOSED_FORM_EDGES",
    "m2_via_routes",
    "m3_via_routes",
]

#: Largest edge count :func:`m1_closed_form` accepts, equal to the edge bound
#: of ``count --method theorem2``.  Its composition table takes O(e³)
#: big-integer products; 128 edges take 0.058–0.060 s, about 1.5 ms of it the
#: M₁-ODE check (Python 3.11, one core of a 2-core VM).
MAX_CLOSED_FORM_EDGES = 128


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


def _widest_order_cache(build):
    """Cache ``build(*key, order)`` once per key, at the widest order built so far,
    and serve a lower order by :meth:`Series.truncate`, which is exact; a higher
    one is built and replaces the entry.  ``cache_info`` and ``cache_clear``
    behave as on a ``functools`` cache.  Keywords are moved to their positions,
    so both spellings of a call share one entry; any other keyword call goes to
    ``build``, which raises the ``TypeError``."""
    widest: dict[tuple, Series] = {}
    counts = [0, 0]  # hits, misses
    names = build.__code__.co_varnames[: build.__code__.co_argcount]

    @wraps(build)
    def cached(*args, **kwargs):
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if kwargs.keys() != set(rest):
                return build(*args, **kwargs)
            args += tuple(kwargs[name] for name in rest)
        key, order = args[:-1], args[-1]
        known = widest.get(key)
        hit = known is not None and known.order >= order
        counts[not hit] += 1
        if not hit:
            known = widest[key] = build(*args)
        return known.truncate(order) if known.order > order else known

    def cache_clear() -> None:
        widest.clear()
        counts[:] = [0, 0]

    cached.cache_info = lambda: _CacheInfo(*counts, None, len(widest))
    cached.cache_clear = cache_clear
    return cached


@_widest_order_cache
def z_series(j: int, order: int) -> Series:
    """The 2j-point correlator expansion Σ_k (2k+j)!(2k-1)!!/(2k)! λ^{2k}."""
    if j < 0:
        raise ValueError("j must be non-negative")
    return z_np_series(j, 0, order)


def z_np_series(n: int, p: int, order: int) -> Series:
    """Correlator with N electron pairs and one extra photon insertion of power p.

    Even p populates even λ-powers:  Σ_k (2k+N)!(2k+p-1)!!/(2k)! λ^{2k};
    odd p populates odd λ-powers:    Σ_k (2k+N+1)!(2k+p)!!/(2k+1)! λ^{2k+1}.
    """
    if n < 0 or p < 0:
        raise ValueError("n and p must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    # Term q, of p's parity, is (q+N)!/q!·(q+p−1)!!; the next q multiplies `odd` by q+p+1.
    coeffs = [0] * (order + 1)
    odd = double_factorial(p % 2 + p - 1)
    for q in range(p % 2, order + 1, 2):
        coeffs[q] = perm(q + n, n) * odd
        odd *= q + p + 1
    return Series(coeffs)


def z_recursion(n: int, order: int) -> Series:
    """Z_N from Z_0 by the ladder route, checked against :func:`z_series`.

    The ladder applies the raising operator f -> j*f + λ f' for j = 1..N,
    which keeps the order; the result must equal the closed formula of
    ``z_series(n, order)``, or :class:`ConsistencyError` names the first
    differing λ-power and both values.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    ladder = z_series(0, order)
    for j in range(1, n + 1):
        ladder = j * ladder + ladder.x_derivative()
    require_agreement(
        ladder, z_series(n, order), f"z_recursion({n}): ladder and formula routes disagree"
    )
    return ladder


@_widest_order_cache
def m0_series(order: int) -> Series:
    """Connected vacuum series: log of the normalized Z_0 (so M0(0) = 0)."""
    return z_series(0, order).log()


def _composition_table(f, total: int) -> list[list[int]]:
    """rows[k][t] = S_k(t) for 0 ≤ k, t ≤ total, where S_k(t) sums Π f(part)
    over the compositions of t into k parts.

    A dynamic programme over the last part: S_k(t) = Σ_p f(p)·S_{k−1}(t−p),
    with S_0(t) = [t = 0].  A composition of t into k parts has every part at
    most t−k+1.
    """
    weights = [0] + [f(p) for p in range(1, total + 1)]
    rows = [[1] + [0] * total]
    for k in range(1, total + 1):
        row = rows[-1]
        rows.append([0] * k + [
            sum(weights[p] * row[t - p] for p in range(1, t - k + 2))
            for t in range(k, total + 1)
        ])
    return rows


def _m0_coefficient(odd: list[list[int]], e: int) -> Fraction:
    """[λ^{2e}] M0 as the alternating composition sum over double factorials,
    read from a table of :func:`_closed_form_table` that reaches e."""
    return sum(
        (Fraction((-1) ** (k + 1), k) * odd[k][e] for k in range(1, e + 1)),
        Fraction(0),
    )


@_widest_order_cache
def _z0_inverse(order: int) -> Series:
    """1/Z_0, shared by every quotient Z_j/Z_0 of one order."""
    return z_series(0, order).invert()


@_widest_order_cache
def _moment(j: int, order: int) -> Series:
    """(Z_j/Z_0)/j!, the j-th moment whose cumulants are the M_N."""
    return z_series(j, order) * _z0_inverse(order) * Fraction(1, factorial(j))


@_widest_order_cache
def m_series(n: int, order: int) -> Series:
    """Generating function of N-rooted map counts by edge count.

    Connected-part extraction in its logarithm (moment–cumulant) form: with
    q_j = Z_j/Z_0,

        M_N = N! · [t^N] log(1 + Σ_{j≥1} q_j t^j / (j!)²),

    the closed form of the paper's Theorem-2 inclusion–exclusion.  So M_N is
    the N-th cumulant of the moments A_j = q_j/j!, by
    :func:`~nrooted.series.cumulants`, resumed from the cached lower
    m_series(i), i < N.
    The result (integers over one denominator, read as ``Fraction`` values)
    must have non-negative integer coefficients (they are counts); any other
    outcome raises :class:`ConsistencyError`.
    """
    if n < 1:
        raise ValueError("n must be at least 1 (counts are for rooted objects)")
    known = [m_series(i, order) for i in range(1, n)]
    moments = [_moment(j, order) for j in range(1, n + 1)]
    total = cumulants(moments, known)[-1]
    for p, c in enumerate(total.coefficients):
        if c.denominator != 1 or c < 0:
            raise ConsistencyError(
                f"m_series({n}): coefficient of λ^{p} is {c}, "
                "expected a non-negative integer",
                power=p,
            )
    return total


def m_count(n: int, edges: int) -> int:
    """The number of N-rooted maps with the given edge count."""
    if edges < 0:
        raise ValueError("edge count must be non-negative")
    return int(m_series(n, 2 * edges).coefficient(2 * edges))


def _closed_form_table(edges: int) -> list[list[int]]:
    """The composition table of the weights (2p−1)!! up to t = edges+1; beyond
    :data:`MAX_CLOSED_FORM_EDGES` edges, :class:`BoundExceededError`."""
    if edges > MAX_CLOSED_FORM_EDGES:
        raise BoundExceededError(
            f"closed form: {edges} edges exceed its bound of {MAX_CLOSED_FORM_EDGES}"
        )
    return _composition_table(lambda p: double_factorial(2 * p - 1), edges + 1)


def _m1_by_ode(edges: int) -> list[int]:
    """m_1(0..edges) by the recurrence of the M₁ ODE, m_1(0) = 1 and
    m_1(e) = (2e−1)·m_1(e−1) + Σ_{k<e} m_1(k)·m_1(e−1−k)."""
    m = [1]
    for e in range(1, edges + 1):
        m.append((2 * e - 1) * m[-1] + sum(m[k] * m[e - 1 - k] for k in range(e)))
    return m


def _m1_from_table(e: int, odd: list[list[int]], by_ode: list[int]) -> int:
    """m_1(e) from a table of :func:`_closed_form_table` that reaches e edges,
    checked against a list of :func:`_m1_by_ode` that reaches e."""
    # Σ_k (−1)^k S_{k+1}(e+1): the sign alternates with the number of parts.
    value = sum((-1) ** k * odd[k + 1][e + 1] for k in range(e + 1))
    expected = by_ode[e]
    if value != expected:
        raise ConsistencyError(
            f"m1_closed_form({e}): composition sum and M₁ ODE disagree "
            f"({value} vs {expected})",
            power=2 * e,
        )
    return value


def m1_closed_form(edges: int) -> int:
    """m_1(e) from the paper's alternating sum of products of odd double
    factorials over the compositions of e+1, checked against the recurrence
    of the M₁ ODE; a mismatch raises :class:`ConsistencyError`.  Beyond
    :data:`MAX_CLOSED_FORM_EDGES` edges it raises :class:`BoundExceededError`
    instead of starting either.
    """
    if edges < 0:
        raise ValueError("edge count must be non-negative")
    return _m1_from_table(edges, _closed_form_table(edges), _m1_by_ode(edges))


def m2_via_routes(order: int) -> Series:
    """M_2 from :func:`m_series` (route A), checked by two independent routes.

    B: connected-vacuum calculus   λ²/2·M0'' - λ²/2·(M0')²
    C: explicit coefficients       m_2(e) = e(2e-1)·[λ^{2e}]M0
                                          - ½ Σ_{k=1}^{e-1} m_1(k) m_1(e-k)
    using the closed forms for [λ^{2e}]M0 and m_1.
    """
    route_a = m_series(2, order)

    m0 = m0_series(order + 2)
    d1 = m0.derivative()
    d2 = d1.derivative()
    route_b = (
        (d2.shifted(2) * Fraction(1, 2)).truncate(order)
        - ((d1 * d1).shifted(2) * Fraction(1, 2)).truncate(order)
    )

    # One table serves every e: [λ^{2e}]M0 reads S_k(e) and m_1(k) reads
    # S_k(k+1), for e ≤ order/2 and k < order/2.
    half = order // 2
    odd, by_ode = _closed_form_table(half - 1), _m1_by_ode(half - 1)
    m1_values = {k: _m1_from_table(k, odd, by_ode) for k in range(1, half)}
    coeffs = [Fraction(0)] * (order + 1)
    for e in range(1, half + 1):
        first = e * (2 * e - 1) * _m0_coefficient(odd, e)
        conv = sum(m1_values[k] * m1_values[e - k] for k in range(1, e))
        coeffs[2 * e] = first - Fraction(conv, 2)
    route_c = Series(coeffs)

    require_agreement(route_a, route_b, "m2_via_routes: routes A and B disagree")
    require_agreement(route_a, route_c, "m2_via_routes: routes A and C disagree")
    return route_a


def m3_via_routes(order: int) -> Series:
    """M_3 from :func:`m_series` (route A), checked by an independent route.

    B: connected-vacuum calculus
       2/3·λ³(M0')³ - λ³·M0'·M0'' + λ³/6·M0'''.
    """
    route_a = m_series(3, order)

    m0 = m0_series(order + 3)
    d1 = m0.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    route_b = (
        ((d1 ** 3).shifted(3) * Fraction(2, 3)).truncate(order)
        - ((d1 * d2).shifted(3)).truncate(order)
        + (d3.shifted(3) * Fraction(1, 6)).truncate(order)
    )

    require_agreement(route_a, route_b, "m3_via_routes: routes A and B disagree")
    return route_a
