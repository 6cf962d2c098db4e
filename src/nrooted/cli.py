"""Command-line interface: series, counts, verification suites, conversions.

Exit-code contract: 0 on success, 1 when a verification or internal
consistency check fails, 2 on usage or input errors.  Output is
byte-deterministic for fixed inputs and flags, except for the ``elapsed_ms``
field of count reports.

The truncation order ``--order`` defaults to 12 and may not exceed
:data:`MAX_ORDER`.  Going past it, as past every other bound here, is a usage
error that answers at once.

Each command, count method and verify suite imports the package modules it
calls inside its own function, so a process loads only what its command runs
(a ``convert`` never loads the series layers).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple
from math import factorial
from typing import TYPE_CHECKING

from .errors import ConsistencyError

if TYPE_CHECKING:
    from .relations import VerificationReport
    from .series import Series

__all__ = ["main", "entry_point", "CountReport"]

DEFAULT_ORDER = 12

#: Largest ``--n`` that ``series --family m|z|znp`` and ``count --method
#: theorem2`` accept, and largest ``--edges`` of a theorem2 count.  The
#: corner, 16 roots with 128 edges, takes about 0.6 s.
MAX_ROOTS = 16
MAX_THEOREM2_EDGES = 128

#: Largest ``--order`` of ``series`` and ``verify``, and largest ``--p`` of
#: ``series --family znp``.  ``m_series(16, 256)`` takes about 0.5 s and
#: ``verify --suite all --order 256`` about 1.1 s, most of it the bijection
#: suite, which does not depend on the order.  At ``--p`` 2048 every
#: coefficient up to ``MAX_ORDER`` stays under Python's 4300-digit limit on
#: printing an int (2569 is the last that does at ``--n`` 16), and
#: ``z_np_series(16, 2048, 256)`` takes about 0.1 s.
MAX_ORDER = 2 * MAX_THEOREM2_EDGES
MAX_PHOTON_POWER = 2048

#: (N, e) pairs covered by the bijection suite at desk scale.
BIJECTION_CASES = [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (1, 3)]
FIBER_CASES = [(1, 1), (1, 2), (2, 1)]


class CountReport(
    namedtuple(
        "CountReport",
        "n_roots edges method value genus_profile elapsed_ms",
        defaults=(None, 0),
    )
):
    """One counting run, for the count-command JSON; ``genus_profile`` may be None."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out: dict = {
            "n_roots": self.n_roots,
            "edges": self.edges,
            "method": self.method,
            "value": self.value,
        }
        if self.genus_profile is not None:
            out["genus_profile"] = {str(g): c for g, c in self.genus_profile.items()}
        out["elapsed_ms"] = self.elapsed_ms
        return out


def _check_bound(flag: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{flag} {value} exceeds its bound of {bound}")


def _checked_order(args) -> int:
    order = args.order
    if order < 0:
        raise ValueError("order must be non-negative")
    _check_bound("--order", order, MAX_ORDER)
    return order


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _series_for(args) -> Series:
    from .qft import m0_series, m_series, z_np_series, z_series

    order = _checked_order(args)
    family = args.family
    if family == "m0":
        return m0_series(order)
    if args.n is not None:
        _check_bound("--n", args.n, MAX_ROOTS)
    if family == "m":
        if args.n is None or args.n < 1:
            raise ValueError("family m requires --n >= 1")
        return m_series(args.n, order)
    if family == "z":
        if args.n is None or args.n < 0:
            raise ValueError("family z requires --n >= 0")
        return z_series(args.n, order)
    if family == "znp":
        if args.n is None or args.n < 0:
            raise ValueError("family znp requires --n >= 0")
        if args.p is None or args.p < 0:
            raise ValueError("family znp requires --p >= 0")
        _check_bound("--p", args.p, MAX_PHOTON_POWER)
        return z_np_series(args.n, args.p, order)
    raise ValueError(f"unknown family {family!r}")


def _format_series(series: Series, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(series.to_json_dict(), indent=2)
    if fmt == "csv":
        return "\n".join(f"{p},{c}" for p, c in enumerate(series.coefficients) if c != 0)
    if fmt == "text":
        return series.format_terms()
    raise ValueError(f"unknown format {fmt!r}")


def _cmd_series(args) -> int:
    print(_format_series(_series_for(args), args.format))
    return 0


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _cmd_count(args) -> int:
    n, e = args.n, args.edges
    if n < 1:
        raise ValueError("--n must be at least 1")
    if e < 0:
        raise ValueError("--edges must be non-negative")
    started = time.monotonic()
    profile: dict[int, int] | None = None

    if args.method == "theorem2":
        from .qft import m_count

        _check_bound("--n", n, MAX_ROOTS)
        _check_bound("--edges", e, MAX_THEOREM2_EDGES)
        value = m_count(n, e)
    elif args.method == "closed-form":
        from .qft import m1_closed_form

        if n != 1:
            raise ValueError("method closed-form applies only to --n 1")
        value = m1_closed_form(e)
    elif args.method == "oracle-ribbon":
        from .ribbon import count_maps_by_division, genus_profile

        profile = genus_profile(n, e)
        value = sum(profile.values())
        division = count_maps_by_division(n, e)
        if division != value:
            raise ConsistencyError(
                f"enumeration found {value} classes but labeled division gives {division}"
            )
    elif args.method == "oracle-wick":
        from .wick import count_connected_classes

        value = count_connected_classes(n, e, workers=args.threads)
    else:
        raise ValueError(f"unknown method {args.method!r}")

    elapsed_ms = int(round((time.monotonic() - started) * 1000))
    report = CountReport(n, e, args.method, value, profile, elapsed_ms)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _attempt(identity: str, order: int, thunk) -> VerificationReport:
    """Run a self-validating construction; a ConsistencyError means failure."""
    from .relations import VerificationReport

    try:
        thunk()
    except ConsistencyError as exc:
        return VerificationReport(identity, order, False, exc.power, detail=str(exc))
    return VerificationReport(identity, order, True, None)


def _suite_ode(order: int) -> list[VerificationReport]:
    from .relations import verify_ode_m0, verify_ode_m1, verify_ode_z0

    return [verify_ode_m1(order), verify_ode_m0(order), verify_ode_z0(order)]


def _m1_identity_report(n: int, order: int) -> VerificationReport:
    """N!·λ^{2N−2}·M_N as built against its published row; a failure names the
    first differing monomial, by λ-power and then M₁-power."""
    from .relations import VerificationReport, _mn_table
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
            detail = f"at λ^{lam}·M₁^{mpow}: {got} != {want}"
            return VerificationReport(f"m{n}-in-m1", order, False, lam, detail=detail)
    return VerificationReport(f"m{n}-in-m1", order, True, None)


def _suite_theorem3(order: int) -> list[VerificationReport]:
    from .relations import mn_in_m1

    reports = [_b_closed_forms_report()]
    for n in range(1, 7):
        reports.append(
            _attempt(f"z0-derivative-basis-n{n}", order, lambda n=n: _check_oop(n, order))
        )

    reports.append(_attempt("z1-over-z0-is-m1", order, lambda: _check_z1_shape(order)))
    for n in range(2, 6):
        reports.append(_m1_identity_report(n, order))
        reports.append(
            _attempt(f"m{n}-in-m1-closure", order, lambda n=n: mn_in_m1(n, order))
        )
    return reports


def _b_closed_forms_report() -> VerificationReport:
    """B[n][0] = n!, B[n][n−1] = n(3n−1)/2 and B[n][n] = 1 for n ≤ 12.

    A failure names the first entry off its closed form; the triangle has no
    λ-power, so ``first_failure_power`` stays ``None``.
    """
    from .relations import VerificationReport, b_table

    table = b_table(12)
    for n in range(13):
        closed = {0: factorial(n), n: 1}
        if n >= 1:
            closed[n - 1] = (3 * n - 1) * n // 2
        for k, want in sorted(closed.items()):
            got = table.value(n, k)
            if got != want:
                return VerificationReport(
                    "b-closed-forms", 12, False, None, detail=f"B[{n}][{k}]: {got} != {want}"
                )
    return VerificationReport("b-closed-forms", 12, True, None)


def _check_oop(n: int, order: int) -> None:
    """λⁿ Z₀⁽ⁿ⁾ = Σ_k (−1)^{n−k} B_{n,2k−1} R_{2k−1}, as truncated series."""
    from .qft import z_series
    from .relations import b_table, r_series
    from .series import Series, _require_equal

    z0 = z_series(0, order + n)
    deriv = z0
    for _ in range(n):
        deriv = deriv.derivative()
    lhs = deriv.shifted(n).truncate(order)
    table = b_table(n)
    rhs = Series.zero(order)
    for k in range(n + 1):
        rhs = rhs + r_series(2 * k - 1, order) * ((-1) ** (n - k) * table.value(n, k))
    _require_equal(f"derivative-basis identity (n={n}): sides differ", lhs, rhs)


def _check_z1_shape(order: int) -> None:
    from .relations import M1Polynomial, zj_over_z0_in_m1

    if zj_over_z0_in_m1(1, order) != M1Polynomial([[], [1]]):
        raise ConsistencyError("Z₁/Z₀ should be exactly M₁")


def _suite_tables(order: int) -> list[VerificationReport]:
    from .qft import m_series, z_np_series
    from .relations import report_from_difference
    from .series import Series
    from .tables import M_TABLES

    reports = []
    for n, row in M_TABLES.items():
        published = Series([row[p // 2] if p % 2 == 0 else 0 for p in range(2 * len(row) - 1)])
        reports.append(report_from_difference(f"m{n}-table", m_series(n, 12), published))
    # The paper gives Z_{1,1} only at λ^5: compare that one term.
    term = Series.monomial(z_np_series(1, 1, 5).coefficient(5), 5, 5)
    reports.append(
        report_from_difference("znp-1-1-coefficient", term, Series.monomial(90, 5, 5))
    )
    return reports


def _suite_bijection(threads: int) -> list[VerificationReport]:
    from .qft import m_count
    from .relations import VerificationReport
    from .ribbon import count_maps_by_division, enumerate_maps
    from .wick import bijection_class_multiset, count_connected_classes

    reports = []
    for n, e in BIJECTION_CASES:
        expected = m_count(n, e)
        enum_count = len(enumerate_maps(n, e))
        division = count_maps_by_division(n, e)
        wick = count_connected_classes(n, e, workers=threads)
        values = {
            "enumeration": enum_count,
            "division": division,
            "contraction": wick,
            "series": expected,
        }
        ok = len(set(values.values())) == 1
        reports.append(
            VerificationReport(
                f"oracle-agreement-n{n}-e{e}",
                2 * e,
                ok,
                None if ok else 2 * e,
                detail="" if ok else str(values),
            )
        )
    for n, e in FIBER_CASES:
        fibers = bijection_class_multiset(n, e)
        classes = set(enumerate_maps(n, e))
        ok = set(fibers) == classes and all(
            v == factorial(2 * e) for v in fibers.values()
        )
        failure = None if ok else 2 * e
        reports.append(VerificationReport(f"fiber-size-n{n}-e{e}", 2 * e, ok, failure))
    return reports


def _cmd_verify(args) -> int:
    order = _checked_order(args)
    suites = {
        "ode": lambda: _suite_ode(order),
        "theorem3": lambda: _suite_theorem3(order),
        "tables": lambda: _suite_tables(order),
        "bijection": lambda: _suite_bijection(args.threads),
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    reports: list[VerificationReport] = []
    for name in selected:
        reports.extend(suites[name]())
    print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAIL {r.identity}: {r.detail}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def _cmd_convert(args) -> int:
    from .ribbon import canonical_form, map_from_json, map_to_json
    from .wick import contraction_from_json, contraction_to_json, from_map, to_map

    if args.input == "-":
        raw = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"input is not valid JSON: {exc}") from None

    if args.to == "contraction":
        m = map_from_json(data)
        print(json.dumps(contraction_to_json(from_map(m)), indent=2))
    else:
        w = contraction_from_json(data)
        print(json.dumps(map_to_json(canonical_form(to_map(w))), indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser & dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrooted",
        description="Exact enumeration of N-rooted maps: series, oracles, identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="print a generating-function series")
    p_series.add_argument("--family", required=True, choices=["z", "znp", "m", "m0"])
    p_series.add_argument("--n", type=int, default=None)
    p_series.add_argument("--p", type=int, default=None)
    p_series.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_series.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_series.set_defaults(func=_cmd_series)

    p_count = sub.add_parser("count", help="count N-rooted maps with e edges")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--edges", type=int, required=True)
    p_count.add_argument(
        "--method",
        required=True,
        choices=["theorem2", "closed-form", "oracle-ribbon", "oracle-wick"],
    )
    p_count.add_argument("--threads", type=int, default=1)
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="run identity/oracle verification suites")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=["ode", "theorem3", "bijection", "tables", "all"],
    )
    p_verify.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.set_defaults(func=_cmd_verify)

    p_convert = sub.add_parser("convert", help="convert between map JSON and contraction JSON")
    p_convert.add_argument("--input", default="-", help="path to a JSON file, or - for stdin")
    p_convert.add_argument("--to", required=True, choices=["map", "contraction"])
    p_convert.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
