"""Collect sets of benchmark runs, and judge their spread or two sets against each other.

    python3 perfbench/compare.py collect runs.jsonl --workloads gf oracle cli --seeds 1-10
    python3 perfbench/compare.py report runs.jsonl              # spread of one set
    python3 perfbench/compare.py report parent.jsonl change.jsonl

For each workload and end-to-end metric the report prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the sample count and the
spread (quartile distance over the median).  With two sets it adds a verdict
on the second against the first, using the bounds in BENCHMARK.json:

* ``unresolved``: a spread is wider than the bound, unless every run of the
  second set reads better than every run of the first (then ``better``);
* ``worse``: the second median is worse by more than the bound;
* ``better``: the medians differ by more than the first set's quartile
  distance and, where runs pair up by seed, the second wins 9 in 10 pairs;
* ``same``: none of these, so the same within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(path: Path, workloads: list[str], seeds: list[int], seconds: int) -> int:
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = {"workload": workload, "seed": seed, "result": result}
            with open(path, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
    return 0


def load(path: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metric values, from a file that collect wrote."""
    runs: dict[str, dict[int, dict]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        values = {k: m["value"] for k, m in record["result"]["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = values
    return runs


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median, "q1": median, "q3": median,
                "spread": float("nan")}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def verdict(metric: dict, a: dict[int, float], b: dict[int, float]) -> str:
    sign = 1 if metric["better"] == "lower" else -1
    sa, sb = summary(list(a.values())), summary(list(b.values()))
    bound = metric["bound"]
    if max(sa["spread"], sb["spread"]) > bound:
        if max(sign * v for v in b.values()) < min(sign * v for v in a.values()):
            return "better"
        return "unresolved"
    change = sign * (sb["median"] - sa["median"]) / sa["median"]
    if change > bound:
        return "worse"
    pairs = [sign * (a[s] - b[s]) for s in a.keys() & b.keys()]
    wins = sum(1 for d in pairs if d > 0)
    if -change * sa["median"] > sa["q3"] - sa["q1"] and (not pairs or wins >= 0.9 * len(pairs)):
        return "better"
    return "same"


def report(paths: list[Path]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(p) for p in paths]
    bad = 0
    for workload in [w for w in sets[0] if all(w in runs for runs in sets)]:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            for runs in sets:
                values = [v[name] for v in runs[workload].values()]
                s = summary(values)
                cells.append(f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']} "
                             f"spread={s['spread']:.3f}")
            if len(sets) == 1:
                if s["n"] < 2:
                    status = "too few runs"
                elif s["spread"] < bound / 3:
                    status = "steady"
                else:
                    status = "within bound" if s["spread"] <= bound else "UNSTEADY"
                bad += not s["spread"] <= bound
            else:
                a = {seed: v[name] for seed, v in sets[0][workload].items()}
                b = {seed: v[name] for seed, v in sets[1][workload].items()}
                status = verdict(metric, a, b)
                bad += status in ("worse", "unresolved")
            print(f"{workload:7s} {name:12s} bound {bound:<5} | " + " | ".join(cells) + f" | {status}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect", help="run the benchmark once per workload and seed")
    p_collect.add_argument("out", type=Path)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p_collect.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p_collect.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p_collect.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p_report = sub.add_parser("report", help="spread of one set, or verdicts of a second set")
    p_report.add_argument("paths", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args.out, args.workloads, args.seeds, args.seconds)
    if len(args.paths) > 2:
        parser.error("report takes one or two files")
    return report(args.paths)


if __name__ == "__main__":
    sys.exit(main())
