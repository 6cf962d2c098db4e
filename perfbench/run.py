"""Run one workload of the nrooted benchmark and print its metrics.

    python3 perfbench/run.py --workload gf --seed 1 --seconds 30 --trace 0

Passes run one after another (a closed loop with one client), each in a
fresh interpreter, until ``--seconds`` have passed; the pass running at that
moment finishes.  Every metric is printed as ``name value unit`` and the last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
named in BENCHMARK.json with ``--trace 1``).  README.md explains each one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"

#: Set-up-only launches after each pass: one per this many seconds of the
#: pass, and at least two, so that they are spread over the run as the
#: passes are.  A run takes at least SETUP_SAMPLES set-ups in all.
SETUP_EVERY_S = 2
SETUPS_PER_PASS = 2
SETUP_SAMPLES = 21
#: Interpreter launches per CLI floor measurement in a traced run.
FLOOR_SAMPLES = 5
#: The longest pass, a traced oracle pass, takes about 20 s; at this it has hung.
WORKER_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def launch(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker pass; ``setup_s`` is from launch to its first job.

    perf_counter is CLOCK_MONOTONIC on Linux, one clock for all processes,
    so the worker's reading and ours can be subtracted.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t_launch = perf_counter()
    # The worker leads its own process group, so a hung pass is stopped
    # together with the CLI processes and pool workers it started.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, env=env, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_launch
    return out


def tail_percentile(samples: list[float]) -> tuple[float, int]:
    """p90, or if fewer than 10 samples lie beyond it, the highest percentile
    that has 10 beyond it (never below the median).  Returns (value, rank)."""
    n = len(samples)
    rank = max(min(int(0.9 * n), n - 10), (n + 1) // 2)
    return sorted(samples)[rank - 1], rank


def interpreter_ms(code: str) -> float:
    """Median wall time of ``sys.executable -c code``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(FLOOR_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                       capture_output=True, timeout=60)
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a run from its untraced passes.

    Other tenants of the host slow it in bursts of a fraction of a second to
    a few seconds.  So ``pass_s`` is the median pass, and a job's latency is
    its median over the run's passes: medians keep the bursts out, where
    fastest times depend on whether a run happened to see a quiet moment.
    """
    times: dict[str, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            times.setdefault(j["id"], []).append(j["ms"])
    latencies = [statistics.median(t) for t in times.values()]
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["failed"])
    p90, rank = tail_percentile(latencies)
    n = len(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "job_ms_p50": statistics.median(latencies),
        "job_ms_p90": p90,
        "failed_frac": failed / attempted,
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    jobs = f"{n} jobs, each its median over {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "pass_s": f"median of {len(passes)} passes",
        "job_ms_p50": jobs,
        "job_ms_p90": f"p{100 * rank / n:.3g} with {n - rank} jobs beyond; {jobs}",
        "failed_frac": f"{failed} of {attempted} jobs",
        "peak_rss_mb": "largest CLI process" if workload == "cli" else "largest pass process",
    }
    lines = [f"{k} {v:.6g} {END_TO_END[k]}  ({notes[k]})" for k, v in values.items()]
    return values, lines


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    values = tracing.median_metrics([p["layers"] for p in traced])
    floor = interpreter_ms("pass")
    values["cli.python_floor_ms"] = floor
    values["cli.import_ms"] = interpreter_ms("import nrooted.cli") - floor
    for kind in ("series", "count", "verify", "convert"):
        ms = [j["ms"] for p in plain + traced for j in p["jobs"] if j["kind"] == kind]
        values[f"cli.{kind}.ms"] = statistics.median(ms) if ms else 0.0
    in_process = [j["in_process_ms"] for p in traced for j in p["jobs"] if "in_process_ms" in j]
    values["cli.in_process_ms"] = statistics.median(in_process) if in_process else 0.0
    values["trace.overhead_s"] = (
        statistics.median(p["pass_s"] for p in traced)
        - statistics.median(p["pass_s"] for p in plain)
    )
    return {name: values[name] for name in tracing.LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nrooted" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'nrooted'} is missing", file=sys.stderr)
        return 2

    spans = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    deadline = perf_counter() + args.seconds
    plain, traced, setups = [], [], []
    try:
        while True:
            plain.append(launch(args.workload, args.seed))
            setups.append(plain[-1]["setup_s"])
            if args.trace:
                traced.append(launch(args.workload, args.seed, "--trace", "--spans", str(spans)))
            else:
                extra = max(SETUPS_PER_PASS, round(plain[-1]["pass_s"] / SETUP_EVERY_S))
                setups += [launch(args.workload, args.seed, "--setup-only")["setup_s"]
                           for _ in range(extra)]
            if perf_counter() >= deadline:
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(launch(args.workload, args.seed, "--setup-only")["setup_s"])
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [(j["id"], j["failed"]) for p in passes for j in p["jobs"] if j["failed"]]
    for job_id, reason in failures[:20]:
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)

    if args.trace:
        layer = per_layer(plain, traced)
        OUT.mkdir(exist_ok=True)
        (OUT / f"layers-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({k: [v, tracing.LAYER_METRICS[k]] for k, v in layer.items()}, indent=1))
        for name, value in layer.items():
            print(f"{name} {value:.6g} {tracing.LAYER_METRICS[name]}")
        print(f"spans written to {spans.relative_to(ROOT)}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        chosen = [m["name"] for m in bench["per_layer"]]
        metrics = {k: {"value": layer[k], "unit": tracing.LAYER_METRICS[k]} for k in chosen}
    else:
        values, lines = end_to_end(args.workload, plain, setups)
        print("\n".join(lines))
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()
                   if k != "failed_frac"}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
