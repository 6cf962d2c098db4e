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
from math import factorial
from typing import TYPE_CHECKING

from .errors import ConsistencyError

if TYPE_CHECKING:
    from .relations import VerificationReport
    from .series import Series

__all__ = ["main", "entry_point"]

DEFAULT_ORDER = 12

#: Largest ``--n`` that ``series --family m|z|znp`` and ``count --method
#: theorem2`` accept, and largest ``--edges`` of a theorem2 count.  The
#: corner, 16 roots with 128 edges, takes 0.31–0.32 s on a 2-core VM.
MAX_ROOTS = 16
MAX_THEOREM2_EDGES = 128

#: Largest ``--order`` of ``series`` and ``verify``, and largest ``--p`` of
#: ``series --family znp``.  ``m_series(16, 256)`` takes about 0.5 s and
#: ``verify --suite all --order 256`` about 0.35 s.  At ``--p`` 2048 every
#: coefficient up to ``MAX_ORDER`` stays under Python's 4300-digit limit on
#: printing an int (2569 is the last that does at ``--n`` 16), and
#: ``z_np_series(16, 2048, 256)`` takes about 2 ms.
MAX_ORDER = 2 * MAX_THEOREM2_EDGES
MAX_PHOTON_POWER = 2048

#: (N, e) pairs covered by the bijection suite at desk scale.
BIJECTION_CASES = [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (1, 3)]
FIBER_CASES = [(1, 1), (1, 2), (2, 1)]


def _check_bound(flag: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{flag} {value} exceeds its bound of {bound}")


def _check_threads(threads: int) -> None:
    # --threads has no effect, but a value below 1 is a usage error
    if threads < 1:
        raise ValueError(f"worker count must be at least 1, got {threads}")


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
    from .qft import m0_series, m_series, z_np_series, z_recursion

    order = _checked_order(args)
    family = args.family
    if family == "m0":
        return m0_series(order)
    minimum = 1 if family == "m" else 0
    if args.n is None or args.n < minimum:
        raise ValueError(f"family {family} requires --n >= {minimum}")
    _check_bound("--n", args.n, MAX_ROOTS)
    if family == "m":
        return m_series(args.n, order)
    if family == "z":
        return z_recursion(args.n, order)
    # family znp, the last of the parser's choices
    if args.p is None or args.p < 0:
        raise ValueError("family znp requires --p >= 0")
    _check_bound("--p", args.p, MAX_PHOTON_POWER)
    return z_np_series(args.n, args.p, order)


def _format_series(series: Series, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(series.to_json_dict(), indent=2)
    if fmt == "csv":
        return "\n".join(f"{p},{c}" for p, c in enumerate(series.coefficients) if c != 0)
    return series.format_terms()


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
    else:  # oracle-wick
        from .wick import count_connected_classes, enumerate_contractions

        enumerate_contractions(n, e)  # checks its bounds at once, before --threads
        _check_threads(args.threads)
        value = count_connected_classes(n, e)

    report: dict = {"n_roots": n, "edges": e, "method": args.method, "value": value}
    if profile is not None:
        report["genus_profile"] = {str(g): c for g, c in profile.items()}
    report["elapsed_ms"] = int(round((time.monotonic() - started) * 1000))
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_ode(order: int) -> list[VerificationReport]:
    from .relations import verify_ode_m0, verify_ode_m1, verify_ode_z0

    return [verify_ode_m1(order), verify_ode_m0(order), verify_ode_z0(order)]


def _suite_theorem3(order: int) -> list[VerificationReport]:
    from .relations import attempt, check_b_closed_forms, check_derivative_basis
    from .relations import check_published_mn, check_z1_is_m1, mn_in_m1

    table = [("b-closed-forms", 12, check_b_closed_forms)]
    for n in range(1, 7):
        table.append(
            (f"z0-derivative-basis-n{n}", order, lambda n=n: check_derivative_basis(n, order))
        )
    table.append(("z1-over-z0-is-m1", order, lambda: check_z1_is_m1(order)))
    for n in range(2, 6):
        table.append((f"m{n}-in-m1", order, lambda n=n: check_published_mn(n)))
        table.append((f"m{n}-in-m1-closure", order, lambda n=n: mn_in_m1(n, order)))
    return [attempt(*row) for row in table]


def _suite_tables() -> list[VerificationReport]:
    from .relations import attempt, check_published_counts, check_published_znp
    from .tables import M_TABLES

    table = [(f"m{n}-table", 12, lambda n=n: check_published_counts(n)) for n in M_TABLES]
    table.append(("znp-1-1-coefficient", 5, check_published_znp))
    return [attempt(*row) for row in table]


def _check_oracles_agree(n: int, e: int) -> None:
    """Enumeration, (2e)!-division, the contraction stream and Theorem 2 give one count."""
    from .qft import m_count
    from .ribbon import count_maps_by_division, enumerate_maps
    from .wick import count_connected_classes

    values = {
        "enumeration": len(enumerate_maps(n, e)),
        "division": count_maps_by_division(n, e),
        "contraction": count_connected_classes(n, e),
        "series": m_count(n, e),
    }
    if len(set(values.values())) != 1:
        raise ConsistencyError(str(values), power=2 * e)


def _check_fibers(n: int, e: int) -> None:
    """The contractions reach exactly the enumerated classes, each (2e)! times."""
    from .ribbon import enumerate_maps
    from .wick import bijection_class_multiset

    fibers = bijection_class_multiset(n, e)
    classes = set(enumerate_maps(n, e))
    full = factorial(2 * e)
    off = sorted(size for size in fibers.values() if size != full)
    if set(fibers) != classes or off:
        raise ConsistencyError(
            f"contractions reach {len(fibers)} classes, enumeration finds "
            f"{len(classes)}; fiber sizes other than (2e)! = {full}: {off}",
            power=2 * e,
        )


def _suite_bijection(threads: int) -> list[VerificationReport]:
    from .relations import attempt

    _check_threads(threads)
    table = [
        (f"oracle-agreement-n{n}-e{e}", 2 * e, lambda n=n, e=e: _check_oracles_agree(n, e))
        for n, e in BIJECTION_CASES
    ]
    table += [
        (f"fiber-size-n{n}-e{e}", 2 * e, lambda n=n, e=e: _check_fibers(n, e))
        for n, e in FIBER_CASES
    ]
    return [attempt(*row) for row in table]


def _cmd_verify(args) -> int:
    order = _checked_order(args)
    suites = {
        "ode": lambda: _suite_ode(order),
        "theorem3": lambda: _suite_theorem3(order),
        "tables": _suite_tables,
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
    except (json.JSONDecodeError, RecursionError) as exc:
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
