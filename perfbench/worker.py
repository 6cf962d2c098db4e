"""One pass of a workload, in the fresh interpreter that run.py starts for it.

    python3 perfbench/worker.py --workload gf --seed 1 [--trace --spans PATH] [--setup-only]

Builds the seeded job list, runs every job once, checks every output and
prints one JSON line: the perf_counter reading when the first job was ready
to start, the pass time, peak memory and one record per job.  Caches are
shared between the jobs of a pass and never outlive it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402  (needs the path above for nrooted)


def run_in_process(job, tracer, caches) -> float:
    """Milliseconds for the job's argv through ``nrooted.cli.main``, caches cleared."""
    from nrooted import cli

    tracer.bank_cache_info()
    for cache in caches:
        cache.cache_clear()
    stdin = io.StringIO(job.stdin() if job.stdin else "")
    saved, sys.stdin = sys.stdin, stdin
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            cli.main(job.argv)
            return (perf_counter() - t0) * 1000
    finally:
        sys.stdin = saved


def run_jobs(job_list, tracer=None, caches=None) -> list[dict]:
    """Run and check each job; a failing job is recorded, never fatal.

    With a tracer, CLI jobs get a span each and are then repeated in-process.
    """
    records = []
    for i, job in enumerate(job_list):
        if tracer is not None:
            tracer.job_id = i
        span = tracer.span(f"cli.{job.kind}") if tracer and job.argv else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                out = job.call()
            reason = None
        except Exception as exc:  # a failing job is counted, not fatal
            out, reason = None, f"raised {type(exc).__name__}: {exc}"
        ms = (perf_counter() - t0) * 1000
        if reason is None:
            try:
                reason = job.verdict(out)
            except Exception as exc:  # a malformed output fails its job
                reason = f"check raised {type(exc).__name__}: {exc}"
        record = {"id": job.id, "kind": job.kind, "ms": ms, "failed": reason}
        if tracer is not None and job.argv:
            record["in_process_ms"] = run_in_process(job, tracer, caches)
        records.append(record)
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    job_list = jobs.build(args.workload, args.seed)
    t_ready = perf_counter()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = caches = None
    if args.trace:
        import tracing

        caches = tracing.lru_caches()
        tracer = tracing.Tracer().install()
    t0 = perf_counter()
    records = run_jobs(job_list, tracer, caches)
    pass_s = perf_counter() - t0
    # A cli pass does its work in child processes: the largest child counts.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "t_ready": t_ready,
        "pass_s": pass_s,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "jobs": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
