"""The seeded job lists of the three workloads, with a check for every job.

A job is one call into the program: an in-process call for ``gf`` and
``oracle``, one ``nrooted.cli`` subprocess for ``cli``.  The seed fixes the
order of the jobs and the random inputs; the program sees only the inputs.
In-process calls look their function up on the module at call time, so a
tracer that rebinds the module attribute sees the call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MAPS_PATH = Path(__file__).resolve().parent / "maps_e3.json"

WORKLOADS = ("gf", "oracle", "cli")

#: Dense random-series jobs per gf pass, and round-trip jobs per oracle pass.
DENSE_JOBS = 240
ROUND_TRIP_JOBS = 100
#: relabel -> convert -> convert round trips per cli pass; with them a cli
#: pass has 100 jobs, enough for a p90 with ten jobs beyond it.
CONVERT_UNITS = 36


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Job:
    """One timed call into the program and the checks on its output."""

    id: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None] = lambda out: None
    #: When set, the output's digest must equal ``expected.json[id]``.
    digest: Callable[[Any], str] | None = None
    #: For CLI jobs: the argv after ``nrooted``, and a thunk giving stdin.
    argv: list[str] | None = None
    stdin: Callable[[], str] | None = field(default=None, repr=False)

    def verdict(self, out) -> str | None:
        reason = self.check(out)
        if reason is None and self.digest is not None:
            reason = checks.check_digest(self.id, self.digest(out))
        return reason


# ---------------------------------------------------------------------------
# Size guards
# ---------------------------------------------------------------------------

#: The largest arguments any job may pass.  They match what the workloads use,
#: so a job list that drifts into the exponential regime fails to build
#: instead of running for minutes: ``count --n 32 --edges 32 --method
#: theorem2`` ran for 437 s at e69200d.
CALL_GUARDS: dict[str, Callable[..., bool]] = {
    "m_series": lambda n, order: n <= 8 and order <= 256,
    "m0_series": lambda order: order <= 128,
    "m1_closed_form": lambda e: e <= 14,
    "m2_via_routes": lambda order: order <= 24,
    "m3_via_routes": lambda order: order <= 64,
    "z_recursion": lambda n, order: n <= 6 and order <= 64,
    "zj_over_z0_in_m1": lambda j, order: j <= 6 and order <= 32,
    "mn_in_m1": lambda n, order: n <= 5 and order <= 32,
    "verify_ode_m1": lambda order: order <= 64,
    "verify_ode_m0": lambda order: order <= 64,
    "verify_ode_z0": lambda order: order <= 64,
    "enumerate_maps": lambda n, e: e <= 3 and n <= 3,
    "count_maps_by_division": lambda n, e: e <= 3 and n <= 3,
    "genus_profile": lambda n, e: e <= 3 and n <= 3,
    "count_connected_classes": lambda n, e: 2 * e + n <= 8,
    "bijection_class_multiset": lambda n, e: 2 * e + n <= 7,
    "total_weighted_classes": lambda n, e: 2 * e + n <= 8,
}

COUNT_GUARDS: dict[str, Callable[[int, int], bool]] = {
    "theorem2": lambda n, e: n <= 3 and e <= 6,
    "closed-form": lambda n, e: n == 1 and e <= 10,
    "oracle-ribbon": lambda n, e: n <= 2 and e <= 2,
    "oracle-wick": lambda n, e: 2 * e + n <= 6,
}


def check_call_guard(name: str, args: tuple) -> None:
    if not CALL_GUARDS[name](*args):
        raise ValueError(f"{name}{args} is outside the benchmark's guarded sizes")


def check_cli_guard(argv: list[str]) -> None:
    """Raise ValueError unless the CLI argv stays within the guarded sizes."""
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if int(opts.get("--threads", 1)) > nproc():
        raise ValueError(f"{argv}: more workers than the {nproc()} CPUs")
    if command == "series":
        ok = int(opts.get("--order", 12)) <= 64 and int(opts.get("--n", 0)) <= 3
    elif command == "count":
        ok = COUNT_GUARDS[opts["--method"]](int(opts["--n"]), int(opts["--edges"]))
    elif command == "verify":
        ok = int(opts.get("--order", 12)) <= 12
    else:
        ok = command == "convert"
    if not ok:
        raise ValueError(f"{argv} is outside the benchmark's guarded sizes")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def load_maps() -> list[dict]:
    """Canonical e = 3 classes (N = 1 and 2) in the map JSON format at e69200d."""
    return json.loads(MAPS_PATH.read_text())


def perm_from_cycles(n: int, cycles: list[list[int]]) -> tuple[int, ...]:
    images = [0] * n
    for cyc in cycles:
        for i, h in enumerate(cyc):
            images[h - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def cycles_of(perm: tuple[int, ...]) -> list[list[int]]:
    seen, out = set(), []
    for start in range(1, len(perm) + 1):
        if start not in seen:
            cyc, h = [], start
            while h not in seen:
                seen.add(h)
                cyc.append(h)
                h = perm[h - 1]
            out.append(cyc)
    return out


def map_parts(data: dict) -> tuple[int, tuple, tuple, tuple]:
    n = data["half_edges"]
    return (
        n,
        perm_from_cycles(n, data["alpha"]),
        perm_from_cycles(n, data["sigma"]),
        tuple(data["roots"]),
    )


def relabel_parts(parts: tuple, perm: tuple[int, ...]) -> tuple:
    """Rename half-edge h to perm[h-1]; the benchmark's own copy of relabeling."""
    n, alpha, sigma, roots = parts
    new_alpha, new_sigma = [0] * n, [0] * n
    for h in range(1, n + 1):
        new_alpha[perm[h - 1] - 1] = perm[alpha[h - 1] - 1]
        new_sigma[perm[h - 1] - 1] = perm[sigma[h - 1] - 1]
    return n, tuple(new_alpha), tuple(new_sigma), tuple(perm[r - 1] for r in roots)


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def module_call(module, name: str, *args) -> Callable[[], Any]:
    check_call_guard(name, args)
    return lambda: getattr(module, name)(*args)


def _exact(job_id, call, check=lambda out: None) -> Job:
    return Job(job_id, "structured", call, check, checks.digest_of)


def gf_jobs(rng: random.Random) -> list[list[Job]]:
    from nrooted import qft, relations
    from nrooted.series import Series

    units = []
    for n in range(1, 9):
        check = lambda s, n=n: checks.all_of(
            checks.check_series_row(s, n) if n <= 3 else None,
            checks.check_m1_series(s) if n == 1 else None,
        )
        units.append(_exact(f"m_series({n}, 64)", module_call(qft, "m_series", n, 64), check))
    for order in (128, 256):
        units.append(
            _exact(f"m_series(1, {order})", module_call(qft, "m_series", 1, order),
                   checks.check_m1_series)
        )
    units.append(_exact("m0_series(128)", module_call(qft, "m0_series", 128)))
    for e in range(10, 15):
        units.append(
            _exact(f"m1_closed_form({e})", module_call(qft, "m1_closed_form", e),
                   lambda v, e=e: None if v == checks.m1_recurrence(e)[e]
                   else f"{v} differs from the recurrence")
        )
    units.append(_exact("m2_via_routes(24)", module_call(qft, "m2_via_routes", 24),
                        lambda s: checks.check_series_row(s, 2)))
    units.append(_exact("m3_via_routes(64)", module_call(qft, "m3_via_routes", 64),
                        lambda s: checks.check_series_row(s, 3)))
    units.append(_exact("z_recursion(6, 64)", module_call(qft, "z_recursion", 6, 64),
                        lambda s: checks.check_z_series(s, 6)))
    for j in range(1, 7):
        units.append(_exact(f"zj_over_z0_in_m1({j}, 32)",
                            module_call(relations, "zj_over_z0_in_m1", j, 32)))
    for n in range(2, 6):
        units.append(_exact(f"mn_in_m1({n}, 32)", module_call(relations, "mn_in_m1", n, 32)))
    for which in ("m1", "m0", "z0"):
        name = f"verify_ode_{which}"
        units.append(_exact(f"{name}(64)", module_call(relations, name, 64),
                            lambda r: None if r.passed else "identity reported failure"))

    for i in range(DENSE_JOBS):
        op = ("mul", "invert", "log", "exp")[i % 4]
        # Orders 8..24 in turn: the seed draws the coefficients, not the sizes,
        # so every seed asks for the same amount of work.
        k = 8 + (i // 4) % 17
        a = [random_fraction(rng) for _ in range(k + 1)]
        b = [random_fraction(rng) for _ in range(k + 1)] if op == "mul" else None
        if op == "log":
            a[0] = Fraction(1)
        elif op == "exp":
            a[0] = Fraction(0)
        sa, sb = Series(a), Series(b) if b else None
        call = {
            "mul": lambda sa=sa, sb=sb: sa * sb,
            "invert": lambda sa=sa: sa.invert(),
            "log": lambda sa=sa: sa.log(),
            "exp": lambda sa=sa: sa.exp(),
        }[op]
        units.append(Job(f"dense-{op}-{i}", "dense", call,
                         lambda out, op=op, a=a, b=b: checks.check_dense(op, a, b, out)))
    return [[job] for job in units]


ORACLE_GRID = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)]


def oracle_jobs(rng: random.Random) -> list[list[Job]]:
    from nrooted import ribbon, wick

    units = []
    for n, e in ORACLE_GRID:
        units.append(_exact(f"enumerate_maps({n}, {e})", module_call(ribbon, "enumerate_maps", n, e),
                            lambda ms, n=n, e=e: checks.check_class_count(len(ms), n, e)))
        units.append(Job(f"count_maps_by_division({n}, {e})", "structured",
                         module_call(ribbon, "count_maps_by_division", n, e),
                         lambda v, n=n, e=e: checks.check_class_count(v, n, e)))
    units.append(_exact("genus_profile(1, 3)", module_call(ribbon, "genus_profile", 1, 3),
                        lambda p: checks.check_genus_profile(p, 1, 3)))
    for n, e in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        units.append(Job(f"count_connected_classes({n}, {e})", "structured",
                         module_call(wick, "count_connected_classes", n, e),
                         lambda v, n=n, e=e: checks.check_class_count(v, n, e)))
    for n, e in [(1, 2), (2, 1), (2, 2), (1, 3)]:
        units.append(_exact(f"bijection_class_multiset({n}, {e})",
                            module_call(wick, "bijection_class_multiset", n, e),
                            lambda f, n=n, e=e: checks.check_fibers(f, n, e)))
    want = checks.z_coefficient(2, 6)
    units.append(_exact("total_weighted_classes(2, 3)",
                        module_call(wick, "total_weighted_classes", 2, 3),
                        lambda v: None if v == want else f"{v}, the Z2 coefficient is {want}"))

    maps = [ribbon.RootedMap(*map_parts(d)) for d in load_maps()]
    for i in range(ROUND_TRIP_JOBS):
        m = rng.choice(maps)
        perm = random_perm(rng, m.half_edges)
        if i % 2 == 0:
            call = lambda m=m, perm=perm: ribbon.canonical_form(ribbon.relabel(m, perm))
            units.append(Job(f"relabel-{i}", "relabel", call,
                             lambda out, m=m: None if out == m else "not the original class"))
        else:
            moved = ribbon.RootedMap(*relabel_parts(
                (m.half_edges, m.alpha, m.sigma, m.roots), perm))
            call = lambda moved=moved: wick.to_map(wick.from_map(moved))
            units.append(Job(f"wick-round-trip-{i}", "wick-round-trip", call,
                             lambda out, moved=moved: None if out == moved else "not the input map"))
    return [[job] for job in units]


def cli_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(argv: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    """One ``nrooted`` command.  Launched through sys.executable: see README."""
    return subprocess.run(
        [sys.executable, "-m", "nrooted.cli", *argv],
        input=stdin, capture_output=True, text=True, cwd=ROOT, env=cli_env(),
        timeout=60,  # the slowest CLI job takes about 1 s
    )


def _cli_check(proc, extra=None) -> str | None:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return extra(proc.stdout) if extra else None


def cli_job(argv: list[str], extra=None) -> Job:
    check_cli_guard(argv)
    # The worker count is left out of the id: it changes no output.
    shown = argv[: argv.index("--threads")] if "--threads" in argv else argv
    return Job(
        " ".join(shown), argv[0], lambda: run_cli(argv),
        lambda proc: _cli_check(proc, extra),
        lambda proc: checks.digest_text(checks.strip_elapsed(proc.stdout)),
        argv=argv,
    )


def convert_unit(data: dict, perm: tuple[int, ...], i: int) -> list[Job]:
    """Map JSON -> contraction JSON -> canonical map JSON, on a relabeled map."""
    n, alpha, sigma, roots = relabel_parts(map_parts(data), perm)
    moved = json.dumps({"half_edges": n, "alpha": cycles_of(alpha),
                        "sigma": cycles_of(sigma), "roots": list(roots)})
    to_contraction = ["convert", "--to", "contraction"]
    to_map = ["convert", "--to", "map"]
    handoff: dict[str, str] = {}

    def first():
        proc = run_cli(to_contraction, moved)
        handoff["contraction"] = proc.stdout
        return proc

    def shape(stdout: str) -> str | None:
        w = json.loads(stdout)
        if (w["n_vertices"], w["n_external"]) != (n, len(roots)):
            return "contraction has the wrong size"
        return None

    want = json.dumps(data, indent=2) + "\n"
    return [
        Job(f"convert-{i}-to-contraction", "convert", first,
            lambda proc: _cli_check(proc, shape),
            argv=to_contraction, stdin=lambda: moved),
        Job(f"convert-{i}-to-map", "convert",
            lambda: run_cli(to_map, handoff["contraction"]),
            lambda proc: _cli_check(
                proc, lambda out: None if out == want else "not the original map"),
            argv=to_map, stdin=lambda: handoff["contraction"]),
    ]


def cli_jobs(rng: random.Random) -> list[list[Job]]:
    # The jobs run the program in subprocesses.  Importing its command line
    # here still puts the program's import cost into the pass's set-up, as
    # in a user session that starts by importing it.
    import nrooted.cli  # noqa: F401

    threads = str(min(2, nproc()))
    units = [
        cli_job(["series", "--family", *family, *fmt])
        for family in (["z", "--n", "2"], ["znp", "--n", "1", "--p", "1"], ["m", "--n", "2"], ["m0"])
        for fmt in ([], ["--format", "csv"], ["--format", "json"])
    ]
    units.append(cli_job(["series", "--family", "m", "--n", "3", "--order", "64", "--format", "json"]))
    for method, sizes in [
        ("theorem2", [(1, 6), (2, 5), (3, 4)]),
        ("closed-form", [(1, 6), (1, 8), (1, 10)]),
        ("oracle-ribbon", [(1, 1), (1, 2), (2, 1), (2, 2)]),
    ]:
        for n, e in sizes:
            units.append(cli_job(["count", "--n", str(n), "--edges", str(e), "--method", method]))
    units.append(cli_job(["count", "--n", "2", "--edges", "2", "--method", "oracle-wick",
                          "--threads", threads]))
    units = [[job] for job in units]
    for suite in ("ode", "theorem3", "tables", "bijection"):
        units.append([cli_job(["verify", "--suite", suite], checks.check_verify_stdout)])
    maps = load_maps()
    for i in range(CONVERT_UNITS):
        data = rng.choice(maps)
        units.append(convert_unit(data, random_perm(rng, data["half_edges"]), i))
    return units


BUILDERS = {"gf": gf_jobs, "oracle": oracle_jobs, "cli": cli_jobs}


def build(workload: str, seed: int) -> list[Job]:
    """The pass's job list: inputs drawn from `seed`, units shuffled by it.

    Structured jobs keep their listed order among themselves, in the places
    the shuffle gives them.  They share the generating-function caches, so
    each one then finds the same caches warm whatever the seed, and the seed
    moves no work from one job to another.
    """
    rng = random.Random(f"{workload}:{seed}")
    units = BUILDERS[workload](rng)
    shuffled = units[:]
    rng.shuffle(shuffled)
    listed = iter([u for u in units if u[0].kind == "structured"])
    units = [next(listed) if u[0].kind == "structured" else u for u in shuffled]
    return [job for unit in units for job in unit]
