"""Fingerprint the nrooted CLI on a fixed corpus of calls, for byte-identity checks.

    python3 tools/cli_corpus.py SRC

runs every call of :func:`calls` in process, through ``nrooted.cli.main`` of
the ``nrooted`` package under the directory ``SRC`` (e.g. a checkout's
``src``), and prints one line per call: the argv (with the name of the
document on stdin, if any), the exit code or the type of the exception that
escaped ``main``, and the SHA-256 of stdout, with ``elapsed_ms`` masked, and
of stderr.  A last line totals the calls.  Two checkouts print the same
lines exactly when their CLI answers the corpus byte for byte the same:

    diff <(python3 tools/cli_corpus.py old/src) <(python3 tools/cli_corpus.py new/src)

The corpus covers ``series`` for every family and format, ``count`` for
every method, ``verify`` for every suite, each in and past its bounds, and
``convert`` both ways on every map of ``perfbench/maps_e3.json`` and on the
point map, and on malformed and oversized documents.  Every argv parses.  The script writes
no file (no bytecode either) and takes about 5 s (Python 3.11, 2-core VM).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Stdin marker: the stdout of the call before, so a map converted to a
#: contraction is converted back.
PREVIOUS = object()

EXAMPLE_MAP = {
    "half_edges": 12,
    "alpha": [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]],
    "sigma": [[1], [2, 7, 3, 9], [4, 6, 5], [11, 10, 8, 12]],
    "roots": [1, 2, 11],
}
POINT_MAP = {"half_edges": 0, "alpha": [], "sigma": [], "roots": []}
LOOP_CONTRACTION = {
    "n_external": 1, "n_vertices": 2, "photon_pairs": [[1, 2]], "electron_targets": [1, 2, "ket1"],
}

#: Changes to EXAMPLE_MAP that make a malformed map document.
MAP_FAULTS = {
    "no roots": {"roots": None},
    "unknown key": {"extra": 1},
    "odd half_edges": {"half_edges": 11},
    "entry past the end": {"alpha": [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 13]]},
    "missing vertex": {"sigma": [[1], [2, 7, 3, 9], [4, 6, 5]]},
    "roots sharing a vertex": {"roots": [1, 2, 9]},
    "duplicate roots": {"roots": [1, 1, 11]},
    "string roots": {"roots": "1"},
    "boolean root": {"roots": [True, 2, 11]},
    "boolean half_edges": {"half_edges": False, "alpha": [], "sigma": [], "roots": []},
    "falsy edgeless fields": {"half_edges": 0, "alpha": 0, "sigma": "", "roots": False},
    "fixed points": {"alpha": [[1], [2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]]},
    "alpha 3-cycles": {"alpha": [[1, 2, 4], [3, 5, 6], [7, 8], [9, 10], [11, 12]]},
    "empty cycle": {"sigma": [[1], [2, 7, 3, 9], [4, 6, 5], [11, 10, 8, 12], []]},
    "alpha not cycles": {"alpha": [1, 2]},
    "repeated entry": {"half_edges": 2, "alpha": [[1, 2], [2]], "sigma": [[1, 2]], "roots": [1]},
    "repeated entry, alpha short of half_edges": {"alpha": [[1, 2], [2]]},
    "alpha short of half_edges": {"alpha": [[1, 2], [3, 4]]},
    "empty roots": {"roots": []},
    "oversized": {"half_edges": 200_000, "alpha": [], "sigma": [], "roots": [1]},
}

#: Changes to LOOP_CONTRACTION that make a malformed contraction document.
CONTRACTION_FAULTS = {
    "no photon_pairs": {"photon_pairs": None},
    "unknown key": {"loops": 1},
    "self pair": {"photon_pairs": [[1, 1]]},
    "pair twice": {"photon_pairs": [[1, 2], [1, 2]]},
    "triple": {"photon_pairs": [[1, 2, 3]]},
    "pairs not a list": {"photon_pairs": {}},
    "unmatched vertex": {"n_vertices": 4, "photon_pairs": [[1, 2]]},
    "short targets": {"electron_targets": [1, 2]},
    "ket past the end": {"electron_targets": [1, 2, "ket2"]},
    "ket0": {"electron_targets": [1, 2, "ket0"]},
    "ket-1": {"electron_targets": [1, 2, "ket-1"]},
    "ket01": {"electron_targets": [1, 2, "ket01"]},
    "not a label": {"electron_targets": [1, 2, "bogus"]},
    "vertex past the end": {"electron_targets": [9, 2, "ket1"]},
    "repeated target": {"electron_targets": [1, 1, "ket1"]},
    "boolean target": {"electron_targets": [True, 2, "ket1"]},
    "boolean n_external": {"n_external": True},
    "crossed chains": {"n_external": 2, "photon_pairs": [[1, 2]],
                       "electron_targets": [1, 2, "ket2", "ket1"]},
    "disconnected": {"electron_targets": [3, 2, 1]},
    "oversized": {"n_vertices": 200_000, "photon_pairs": []},
}

#: Documents that are not JSON objects of either kind.
RAW_DOCUMENTS = {
    "empty": "",
    "not json": "{not json",
    "a list": "[]",
    "deeply nested": "[" * 100_000 + "]" * 100_000,
}


def _document(base: dict, changes: dict) -> str:
    doc = dict(base)
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def calls() -> list[tuple[list[str], str | None, object]]:
    """``(argv, name of the stdin document or None, its text or PREVIOUS)`` of every call."""
    out: list[tuple[list[str], str | None, object]] = []

    def add(*argv, name=None, text=None):
        out.append(([str(a) for a in argv], name, text))

    n_values = (None, -1, 0, 1, 3, 16, 17)
    p_values = (None, -1, 0, 3, 2048, 2049)
    for family in ("m0", "m", "z", "znp"):
        for n in n_values:
            for p in p_values if family == "znp" else (None,):
                for order in (0, 8, 40):
                    for fmt in ("text", "json", "csv"):
                        flags = [f for flag, v in (("--n", n), ("--p", p)) if v is not None
                                 for f in (flag, v)]
                        add("series", "--family", family, *flags, "--order", order,
                            "--format", fmt)
        valid = {"m0": [], "m": ["--n", 16], "z": ["--n", 16], "znp": ["--n", 16, "--p", 2048]}
        for order in (-1, 256, 257):
            add("series", "--family", family, *valid[family], "--order", order)
        if family != "znp":
            add("series", "--family", family, *valid[family], "--p", 5)  # --p is ignored

    count_cases = {
        "theorem2": [(1, 0), (1, 3), (3, 4), (16, 128), (17, 1), (16, 129), (0, 1), (1, -1)],
        "closed-form": [(1, 0), (1, 6), (1, 128), (1, 129), (2, 2), (0, 1), (1, -1)],
        "oracle-ribbon": [(1, 0), (2, 0), (1, 2), (2, 2), (3, 3), (1, 4), (9, 4), (1, 5),
                          (0, 1), (1, -1)],
        "oracle-wick": [(1, 0), (2, 0), (1, 2), (2, 2), (3, 3), (1, 4), (5, 2), (1, 5),
                        (8, 1), (0, 1), (1, -1)],
    }
    for method, cases in count_cases.items():
        for n, e in cases:
            add("count", "--n", n, "--edges", e, "--method", method)
        for threads, n, e in ((0, 1, 1), (0, 1, 5), (2, 1, 2)):
            add("count", "--n", n, "--edges", e, "--method", method, "--threads", threads)

    for suite in ("ode", "theorem3", "tables", "bijection", "all"):
        for order in (3, 12, 40, 256):
            add("verify", "--suite", suite, "--order", order)
        for order in (-1, 257):
            add("verify", "--suite", suite, "--order", order)
        add("verify", "--suite", suite, "--threads", 0)

    maps = json.loads((ROOT / "perfbench" / "maps_e3.json").read_text(encoding="utf-8"))
    for i, doc in enumerate(maps):
        add("convert", "--to", "contraction", name=f"maps_e3[{i}]", text=json.dumps(doc))
        add("convert", "--to", "map", name="the stdout before", text=PREVIOUS)
    add("convert", "--to", "contraction", name="the point map", text=json.dumps(POINT_MAP))
    add("convert", "--to", "map", name="the stdout before", text=PREVIOUS)
    for fault, changes in MAP_FAULTS.items():
        add("convert", "--to", "contraction", name=f"map, {fault}",
            text=_document(EXAMPLE_MAP, changes))
    for fault, changes in CONTRACTION_FAULTS.items():
        add("convert", "--to", "map", name=f"contraction, {fault}",
            text=_document(LOOP_CONTRACTION, changes))
    for to, doc in (("map", EXAMPLE_MAP), ("contraction", LOOP_CONTRACTION)):
        add("convert", "--to", to, name="the other kind", text=json.dumps(doc))
    for name, text in RAW_DOCUMENTS.items():
        for to in ("map", "contraction"):
            add("convert", "--to", to, name=name, text=text)
    add("convert", "--input", "no-such-file.json", "--to", "map")
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(main) -> list[str]:
    """One line per call of :func:`calls` through ``main``, then the total line."""
    lines, outcomes = [], Counter()
    stdout = ""
    saved_stdin = sys.stdin
    try:
        for argv, name, text in calls():
            sys.stdin = io.StringIO(stdout if text is PREVIOUS else text or "")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    outcome = str(main(argv))
                except Exception as exc:  # recorded as the call's outcome
                    outcome = type(exc).__name__
            outcomes[outcome] += 1
            stdout = out.getvalue()
            masked = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', stdout)
            shown = " ".join(argv) + (f" < {name}" if name else "")
            lines.append(f"{shown}\t{outcome}\t{_digest(masked)}\t{_digest(err.getvalue())}")
    finally:
        sys.stdin = saved_stdin
    tally = ", ".join(f"{k}: {v}" for k, v in sorted(outcomes.items()))
    lines.append(f"total\t{len(lines)} calls\t{tally}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/cli_corpus.py SRC", file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import nrooted.cli

    if src not in Path(nrooted.cli.__file__).resolve().parents:
        print(f"nrooted was imported from {nrooted.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for line in run(nrooted.cli.main):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
