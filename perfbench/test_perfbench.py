"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They take about a minute: they run the light jobs of each workload, two
one-second benchmark runs, and the negative controls.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
HEAVY = ("(1, 3)", "(2, 3)")


def light(workload: str, job: jobs.Job) -> bool:
    if workload == "oracle":
        return not any(size in job.id for size in HEAVY) or job.kind != "structured"
    if workload == "cli":
        return job.kind in ("series", "convert")
    return True


def fingerprint(out) -> str:
    if isinstance(out, subprocess.CompletedProcess):
        return checks.digest_text(checks.strip_elapsed(out.stdout))
    return checks.digest_of(out)


#: Job kinds whose inputs the seed draws; the others have fixed inputs.
SEEDED = {"dense", "relabel", "wick-round-trip", "convert"}


def outputs(workload: str, seed: int) -> dict[str, tuple[str, str, str | None]]:
    result = {}
    for job in jobs.build(workload, seed):
        if light(workload, job):
            out = job.call()
            result[job.id] = (job.kind, fingerprint(out), job.verdict(out))
    return result


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_fixes_jobs_and_outputs(workload):
    first, again, other = outputs(workload, 3), outputs(workload, 3), outputs(workload, 4)
    assert list(first.items()) == list(again.items())
    assert list(first) != list(other), "another seed should reorder the jobs"
    assert {v[2] for v in first.values()} == {v[2] for v in other.values()} == {None}
    fixed = [job_id for job_id, v in first.items() if v[0] not in SEEDED]
    assert fixed and all(first[job_id] == other[job_id] for job_id in fixed)


def test_worker_counts_never_exceed_nproc():
    argvs = [j.argv for j in jobs.build("cli", 1) if j.argv]
    threads = [int(a[a.index("--threads") + 1]) for a in argvs if "--threads" in a]
    assert threads and all(1 <= t <= min(2, jobs.nproc()) for t in threads)
    with pytest.raises(ValueError, match="more workers"):
        jobs.check_cli_guard(["verify", "--suite", "ode", "--threads", str(jobs.nproc() + 1)])


def test_guards_reject_oversized_jobs_without_running_them():
    with pytest.raises(ValueError, match="guarded sizes"):
        jobs.check_cli_guard(["count", "--n", "32", "--edges", "32", "--method", "theorem2"])
    with pytest.raises(ValueError, match="guarded sizes"):
        jobs.check_call_guard("m1_closed_form", (40,))
    with pytest.raises(ValueError, match="guarded sizes"):
        jobs.check_call_guard("bijection_class_multiset", (2, 3))


def failures(job_list) -> list[str | None]:
    return [r["failed"] for r in worker.run_jobs(job_list)]


def test_negative_control_perturbed_coefficient():
    from nrooted.series import Series

    by_id = {j.id: j for j in jobs.build("gf", 1)}
    for job_id in ("m_series(1, 64)", "m_series(5, 64)"):
        job = by_id[job_id]
        assert failures([job]) == [None]

        def perturbed(call=job.call):
            coeffs = list(call().coefficients)
            coeffs[10] += 1
            return Series(coeffs)

        assert failures([dataclasses.replace(job, call=perturbed)])[0] is not None


def test_negative_control_changed_stdout_digit():
    job = next(j for j in jobs.build("cli", 1) if j.id.startswith("count --n 3"))
    assert failures([job]) == [None]

    def changed(call=job.call):
        proc = call()
        value = json.loads(proc.stdout)["value"]
        proc.stdout = proc.stdout.replace(str(value), str(value + 1), 1)
        return proc

    assert failures([dataclasses.replace(job, call=changed)])[0] is not None


def test_checks_use_independent_references():
    assert checks.m1_recurrence(6) == tuple(checks.PAPER_ROWS[1])
    assert [checks.tutte_planar(e) for e in range(7)] == [1, 2, 9, 54, 378, 2916, 24057]
    a = [Fraction(1), Fraction(2, 3), Fraction(-1, 2)]
    assert checks.convolve(a, [Fraction(1)] * 3, 2) == [1, Fraction(5, 3), Fraction(7, 6)]


def test_tracer_spans_counts_and_restore():
    from nrooted import qft, relations, wick

    original = relations.m_series
    tracer = tracing.Tracer().install()
    try:
        assert relations.m_series is not original and qft.m_series is relations.m_series
        fibers = wick.bijection_class_multiset(1, 2)
        relations.mn_in_m1(2, 8)
    finally:
        tracer.uninstall()
    assert relations.m_series is original
    metrics = tracer.metrics()
    assert metrics["wick.accepted"] == sum(fibers.values()) == 10 * 24
    assert metrics["wick.validate_per_accepted"] == 2
    assert metrics["series.mul.calls"] > 0 and metrics["relations.m1poly_mul.calls"] > 0
    assert metrics["series.self_s"] <= sum(
        tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
    )
    path = ROOT / ".bench_out" / "test-spans.bin"
    tracer.write(path)
    spans = tracing.read_spans(path)
    assert len(spans["start"]) == metrics["trace.spans"]
    assert all(p < i for i, p in enumerate(spans["parent"]))


def test_cache_hit_ratio_counts_lookups_across_cache_clears():
    from nrooted import qft

    caches = tracing.lru_caches()
    for cache in caches:
        cache.cache_clear()
    tracer = tracing.Tracer().install()
    try:
        qft.m_series(1, 8)
        qft.m_series(1, 8)
        hits, misses = tracing.qft_cache_info()
        tracer.bank_cache_info()
        for cache in caches:
            cache.cache_clear()
        qft.m_series(1, 8)
        later_hits, later_misses = tracing.qft_cache_info()
    finally:
        tracer.uninstall()
    assert hits > 0 and later_misses > 0
    total = hits + later_hits
    assert tracer.metrics()["qft.cache_hit_ratio"] == total / (total + misses + later_misses)


def bench_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_name_is_emitted_with_its_unit(trace):
    proc = bench_run("gf", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    printed = proc.stdout.splitlines()[:-1]
    for name, unit in (tracing.LAYER_METRICS if trace else run.END_TO_END).items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in printed)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench_run("gf", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout


def test_compare_verdicts():
    metric = {"name": "pass_s", "better": "lower", "bound": 0.1}
    base = {s: 10 + 0.1 * (s % 3) for s in range(10)}
    assert compare.verdict(metric, base, dict(base)) == "same"
    assert compare.verdict(metric, base, {s: v * 1.3 for s, v in base.items()}) == "worse"
    assert compare.verdict(metric, base, {s: v * 0.8 for s, v in base.items()}) == "better"
    noisy = {s: 10 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(metric, base, noisy) == "unresolved"
    setup = {**metric, "name": "setup_s"}
    assert compare.verdict(setup, base, noisy) == "unresolved"
