"""Reference values and output checks, computed inside the benchmark.

Every check returns ``None`` when the output is right and a short reason when
it is not.  The references here do not call into ``nrooted``: they are the
paper's tables, closed forms, an integer recurrence, and SHA-256 digests of
the exact outputs recorded at commit e69200d (``expected.json``).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import cache
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: m_N(e) for e = 0..6, as printed in the paper's tables.
PAPER_ROWS = {
    1: [1, 2, 10, 74, 706, 8162, 110410],
    2: [0, 1, 13, 165, 2273, 34577, 581133],
    3: [0, 0, 6, 172, 3834, 81720, 1775198],
}


@cache
def m1_recurrence(e_max: int) -> tuple[int, ...]:
    """m_1(0..e_max) from m_e = (2e-1) m_{e-1} + sum_{i<e} m_i m_{e-1-i}."""
    m = [1]
    for e in range(1, e_max + 1):
        m.append((2 * e - 1) * m[e - 1] + sum(m[i] * m[e - 1 - i] for i in range(e)))
    return tuple(m)


def tutte_planar(e: int) -> int:
    """Rooted planar maps with e edges: 2 * 3^e (2e)! / (e! (e+2)!)."""
    return 2 * 3**e * factorial(2 * e) // (factorial(e) * factorial(e + 2))


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def z_coefficient(j: int, power: int) -> int:
    """[λ^power] Z_j = (2k+j)! (2k-1)!! / (2k)! at power = 2k, else 0."""
    if power % 2:
        return 0
    k = power // 2
    return factorial(2 * k + j) * double_factorial(2 * k - 1) // factorial(2 * k)


# ---------------------------------------------------------------------------
# Canonical text of an output, for digests
# ---------------------------------------------------------------------------


def canonical(obj) -> object:
    """A JSON-able structure that identifies an output exactly.

    Built from public attributes only, so a change of ``repr`` or of internal
    storage does not count as a different answer.
    """
    name = type(obj).__name__
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if name == "Series":
        return ["Series", [str(c) for c in obj.coefficients]]
    if name == "M1Polynomial":
        return [
            "M1Polynomial",
            [[[p, str(c)] for p, c in lp.items()] for lp in obj.coefficients],
        ]
    if name == "RootedMap":
        return [obj.half_edges, list(obj.alpha), list(obj.sigma), list(obj.roots)]
    if name == "VerificationReport":
        return [obj.identity, obj.order_checked, obj.passed, obj.first_failure_power]
    if isinstance(obj, dict):
        return sorted([canonical(k), canonical(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    raise TypeError(f"no canonical text for {name}")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_of(obj) -> str:
    return digest_text(json.dumps(canonical(obj), separators=(",", ":")))


def strip_elapsed(stdout: str) -> str:
    """CLI stdout without the ``elapsed_ms`` line, the only non-deterministic field."""
    return "".join(
        line for line in stdout.splitlines(keepends=True) if '"elapsed_ms"' not in line
    )


@cache
def expected_digests() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def check_digest(job_id: str, digest: str) -> str | None:
    want = expected_digests().get(job_id)
    if want is None:
        return "no recorded digest for this job"
    if digest != want:
        return f"digest {digest[:12]} differs from recorded {want[:12]}"
    return None


# ---------------------------------------------------------------------------
# Checks on specific outputs
# ---------------------------------------------------------------------------


def check_series_row(series, n: int) -> str | None:
    row = [series.coefficient(2 * e) for e in range(min(7, series.order // 2 + 1))]
    want = PAPER_ROWS[n][: len(row)]
    if row != want:
        return f"m{n} row {row} differs from the paper's {want}"
    return None


def check_m1_series(series) -> str | None:
    ref = m1_recurrence(series.order // 2)
    for p in range(series.order + 1):
        want = ref[p // 2] if p % 2 == 0 else 0
        if series.coefficient(p) != want:
            return f"M1 at λ^{p} is {series.coefficient(p)}, recurrence gives {want}"
    return None


def check_z_series(series, j: int) -> str | None:
    for p in range(series.order + 1):
        if series.coefficient(p) != z_coefficient(j, p):
            return f"Z{j} at λ^{p} is {series.coefficient(p)}, closed form gives {z_coefficient(j, p)}"
    return None


def check_class_count(value: int, n: int, e: int) -> str | None:
    want = PAPER_ROWS[n][e]
    return None if value == want else f"{value} classes, the paper gives m{n}({e}) = {want}"


def check_genus_profile(profile: dict, n: int, e: int) -> str | None:
    if n == 1 and profile.get(0) != tutte_planar(e):
        return f"genus 0 count {profile.get(0)}, Tutte gives {tutte_planar(e)}"
    return check_class_count(sum(profile.values()), n, e)


def check_fibers(fibers: dict, n: int, e: int) -> str | None:
    sizes = set(fibers.values())
    if sizes != {factorial(2 * e)}:
        return f"fiber sizes {sorted(sizes)[:3]}, expected all (2e)! = {factorial(2 * e)}"
    return check_class_count(len(fibers), n, e)


def check_verify_stdout(stdout: str) -> str | None:
    reports = json.loads(stdout)
    failed = [r["identity"] for r in reports if not r["pass"]]
    return f"identities failed: {failed}" if failed else None


def all_of(*reasons: str | None) -> str | None:
    for reason in reasons:
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# Bench-side series algebra, the reference for the dense jobs
# ---------------------------------------------------------------------------


def convolve(a: list[Fraction], b: list[Fraction], k: int) -> list[Fraction]:
    return [sum(a[i] * b[p - i] for i in range(p + 1)) for p in range(k + 1)]


def derivative(a: list[Fraction]) -> list[Fraction]:
    return [i * a[i] for i in range(1, len(a))]


def check_dense(op: str, a: list[Fraction], b: list[Fraction] | None, out) -> str | None:
    """Check one dense-algebra output against bench-side arithmetic."""
    got = list(out.coefficients)
    k = len(a) - 1
    if len(got) != k + 1:
        return f"{op} returned order {len(got) - 1}, expected {k}"
    if op == "mul":
        want = convolve(a, b, k)
    elif op == "invert":
        want = [Fraction(1)] + [Fraction(0)] * k
        got = convolve(a, got, k)
    elif op == "log":  # a' = a * log(a)'
        want = derivative(a)
        got = convolve(a, derivative(got), k - 1) if got[0] == 0 else None
    else:  # exp:  exp(a)' = exp(a) * a'
        want = convolve(got, derivative(a), k - 1)
        got = derivative(got) if got[0] == 1 else None
    return None if got == want else f"{op} identity fails"
