"""The scripts under ``tools/``: the CLI corpus parses, and its lines have one shape."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import nrooted.cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def corpus():
    """``tools/cli_corpus.py``, imported without writing bytecode under ``tools/``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("cli_corpus", TOOLS / "cli_corpus.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = saved


def test_every_corpus_argv_parses(corpus):
    calls = corpus.calls()
    failed = []
    for argv, _, _ in calls:
        try:
            nrooted.cli._build_parser().parse_args(argv)
        except SystemExit:
            failed.append(argv)
    assert failed == []
    assert {argv[0] for argv, _, _ in calls} == {"series", "count", "verify", "convert"}
    maps = json.loads((TOOLS.parent / "perfbench" / "maps_e3.json").read_text(encoding="utf-8"))
    round_trips = [text for argv, _, text in calls if argv == ["convert", "--to", "contraction"]]
    assert [json.dumps(m) for m in maps] == round_trips[: len(maps)]


def test_each_call_prints_its_outcome_and_digests(corpus, monkeypatch):
    monkeypatch.setattr(corpus, "calls", lambda: [
        (["count"], None, None),
        (["convert"], "doc", "{}"),
        (["convert"], "the stdout before", corpus.PREVIOUS),
    ])

    def fake_main(argv):
        if argv == ["count"]:
            print('{"elapsed_ms": 17}')
            return 0
        print(f"read {sys.stdin.read()}")
        raise RecursionError

    masked, empty = corpus._digest('{"elapsed_ms": 0}\n'), corpus._digest("")
    first, second = corpus._digest("read {}\n"), corpus._digest("read read {}\n\n")
    assert corpus.run(fake_main) == [
        f"count\t0\t{masked}\t{empty}",
        f"convert < doc\tRecursionError\t{first}\t{empty}",
        f"convert < the stdout before\tRecursionError\t{second}\t{empty}",
        "total\t3 calls\t0: 1, RecursionError: 2",
    ]
