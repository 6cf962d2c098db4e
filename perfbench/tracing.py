"""Spans around the calls into each ``nrooted`` module, recorded from outside.

:class:`Tracer` rebinds the public functions of every ``nrooted`` module in
every ``nrooted`` namespace that binds them (``relations``, ``wick`` and
``cli`` import names directly), plus a few methods, so the program's own
files stay untouched.  A span is (name, start, end, parent, job id); spans
stay in compact arrays in memory and :meth:`Tracer.write` saves them at the
end.  A layer is the module that defines the function; a layer's self time
is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import GeneratorType

MODULES = ("series", "qft", "relations", "ribbon", "wick", "permutations", "combinat", "cli")

#: Methods traced besides the modules' public functions: (class home, class, method, span).
METHODS = [
    ("series", "Series", "__mul__", "series.mul"),
    ("series", "Series", "__rmul__", "series.mul"),
    ("series", "Series", "__truediv__", "series.truediv"),
    ("series", "Series", "invert", "series.invert"),
    ("series", "Series", "log", "series.log"),
    ("series", "Series", "exp", "series.exp"),
    ("relations", "M1Polynomial", "__mul__", "relations.m1poly_mul"),
    ("relations", "M1Polynomial", "__rmul__", "relations.m1poly_mul"),
    ("relations", "M1Polynomial", "evaluate", "relations.evaluate"),
]

#: Spans whose summed time is reported on its own (outermost call of that name).
TIMED = [
    "series.mul", "series.invert", "series.log", "series.exp",
    "qft.m_series", "qft.m1_closed_form", "relations.evaluate",
    "ribbon.enumerate_maps", "ribbon.count_maps_by_division", "ribbon.canonical_form",
    "wick.count_connected_classes", "wick.bijection_class_multiset",
    "wick.total_weighted_classes",
]

#: name -> unit, in report order.  See README.md for what each one should move.
LAYER_METRICS = {
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.mul.coeff_products": "count",
    "series.invert.calls": "count",
    "series.invert.s": "s",
    "series.log.s": "s",
    "series.exp.s": "s",
    "series.self_s": "s",
    "qft.calls": "count",
    "qft.busy_s": "s",
    "qft.self_s": "s",
    "qft.m_series.s": "s",
    "qft.m1_closed_form.s": "s",
    "qft.cache_hit_ratio": "ratio",
    "relations.calls": "count",
    "relations.busy_s": "s",
    "relations.self_s": "s",
    "relations.m1poly_mul.calls": "count",
    "relations.evaluate.s": "s",
    "ribbon.enumerate_maps.s": "s",
    "ribbon.count_maps_by_division.s": "s",
    "ribbon.canonical_form.calls": "count",
    "ribbon.canonical_form.s": "s",
    "ribbon.validate.calls": "count",
    "ribbon.maps_per_s": "1/s",
    "wick.count_connected_classes.s": "s",
    "wick.bijection_class_multiset.s": "s",
    "wick.total_weighted_classes.s": "s",
    "wick.stream_items": "count",
    "wick.accepted": "count",
    "wick.accept_ratio": "ratio",
    "wick.validate_per_accepted": "ratio",
    "permutations.fpf_involutions.items": "count",
    "permutations.union_find.inits": "count",
    "combinat.compositions.items": "count",
    "cli.python_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.series.ms": "ms",
    "cli.count.ms": "ms",
    "cli.verify.ms": "ms",
    "cli.convert.ms": "ms",
    "cli.in_process_ms": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def nrooted_modules() -> dict[str, object]:
    mods = {name: importlib.import_module(f"nrooted.{name}") for name in MODULES}
    mods[""] = importlib.import_module("nrooted")
    return mods


def lru_caches() -> list:
    """Every functools cache in the package, found on the module namespaces."""
    seen = {}
    for mod in nrooted_modules().values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                seen[id(obj)] = obj
    return list(seen.values())


def qft_cache_info() -> tuple[int, int]:
    """Hits and misses of the three qft caches since they were last cleared."""
    hits = misses = 0
    for cache in (getattr(nrooted_modules()["qft"], f) for f in ("z_series", "m_series", "m0_series")):
        info = (cache if hasattr(cache, "cache_info") else cache.__wrapped__).cache_info()
        hits, misses = hits + info.hits, misses + info.misses
    return hits, misses


def _coeff_products(a, b) -> int:
    """Non-zero coefficient products that ``a * b`` forms, counted from the operands."""
    ca = a.coefficients
    if type(b).__name__ != "Series":
        return sum(1 for c in ca if c != 0) if b != 0 else 0
    cb = b.coefficients
    k = min(len(ca), len(cb)) - 1
    prefix, running = [], 0
    for c in cb[: k + 1]:
        running += c != 0
        prefix.append(running)
    return sum(prefix[k - i] for i in range(k + 1) if ca[i] != 0)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _counted(self, gen, keys: tuple[str, ...]):
        counts = self.counts
        for item in gen:
            for key in keys:
                counts[key] += 1
            yield item

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stream_key = {
            "permutations.fixed_point_free_involutions": "fpf_items",
            "combinat.compositions": "composition_items",
            "wick.enumerate_contractions": "stream_items",
        }.get(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if stream_key and isinstance(out, GeneratorType):
                keys = (stream_key,)
                if stream_key == "stream_items" and self.stack:
                    keys += (f"stream_items_in:{self.names[self.name[self.stack[-1]]]}",)
                return self._counted(out, keys)
            if name == "ribbon.enumerate_maps":
                self.counts["classes_returned"] += len(out)
            elif name == "wick.bijection_class_multiset":
                self.counts["accepted"] += sum(out.values())
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------------

    def _rebind(self, namespace, attr: str, new) -> None:
        self._undo.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, new)

    def install(self) -> "Tracer":
        mods = nrooted_modules()
        for layer in MODULES:
            mod = mods[layer]
            for attr, fn in list(vars(mod).items()):
                is_function = inspect.isfunction(fn) or hasattr(fn, "cache_info")
                if attr.startswith("_") or not is_function or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for namespace in mods.values():
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._rebind(namespace, key, traced)
        wrapped: dict[tuple, object] = {}
        for home, cls_name, method, span in METHODS:
            cls = getattr(mods[home], cls_name)
            fn = cls.__dict__[method]
            key = (cls_name, fn)
            if key not in wrapped:
                wrapped[key] = self.wrap(span, fn)
                if span == "series.mul":
                    wrapped[key] = self._count_products(wrapped[key])
            self._rebind(cls, method, wrapped[key])
        union_find = mods["permutations"].UnionFind
        init = union_find.__init__

        def counted_init(uf, n):
            self.counts["union_find_inits"] += 1
            init(uf, n)

        self._rebind(union_find, "__init__", counted_init)
        return self

    def _count_products(self, traced_mul):
        counts = self.counts

        def mul(a, b):
            counts["coeff_products"] += _coeff_products(a, b)
            return traced_mul(a, b)

        return mul

    def bank_cache_info(self) -> None:
        """Keep the qft cache statistics; call it before clearing the caches."""
        hits, misses = qft_cache_info()
        self.counts["cache_hits"] += hits
        self.counts["cache_misses"] += misses

    def uninstall(self) -> None:
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Save the spans: one JSON header line, then the raw arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["job", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (see LAYER_METRICS)."""
        bits = {name: 1 << b for b, name in enumerate(list(MODULES) + TIMED)}
        layer_of = [n.split(".")[0] for n in self.names]
        name_bit = [bits.get(n, 0) for n in self.names]
        layer_bit = [bits.get(layer, 0) for layer in layer_of]
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        above = array("q", bytes(8 * n))  # bits of the names and layers of all ancestors
        calls, timed = Counter(), Counter()
        busy, self_s, layer_calls = Counter(), Counter(), Counter()
        validate_id = self._ids.get("ribbon.validate", -1)
        bcm_bit = bits["wick.bijection_class_multiset"]
        validate_in_bcm = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                above[i] = above[p] | name_bit[self.name[p]] | layer_bit[self.name[p]]
        for i in range(n):
            nid = self.name[i]
            name, layer = self.names[nid], layer_of[nid]
            calls[name] += 1
            layer_calls[layer] += 1
            self_s[layer] += dur[i] - child[i]
            if not above[i] & layer_bit[nid]:
                busy[layer] += dur[i]
            if not above[i] & name_bit[nid]:
                timed[name] += dur[i]
            if nid == validate_id and above[i] & bcm_bit:
                validate_in_bcm += 1

        c = self.counts
        hits, misses = qft_cache_info()
        hits, misses = hits + c["cache_hits"], misses + c["cache_misses"]
        accepted = c["accepted"]
        drawn = c["stream_items_in:wick.bijection_class_multiset"]
        enum_s = timed["ribbon.enumerate_maps"]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "series.mul.calls": calls["series.mul"],
            "series.mul.s": timed["series.mul"],
            "series.mul.coeff_products": c["coeff_products"],
            "series.invert.calls": calls["series.invert"],
            "series.invert.s": timed["series.invert"],
            "series.log.s": timed["series.log"],
            "series.exp.s": timed["series.exp"],
            "series.self_s": self_s["series"],
            "qft.calls": layer_calls["qft"],
            "qft.busy_s": busy["qft"],
            "qft.self_s": self_s["qft"],
            "qft.m_series.s": timed["qft.m_series"],
            "qft.m1_closed_form.s": timed["qft.m1_closed_form"],
            "qft.cache_hit_ratio": ratio(hits, hits + misses),
            "relations.calls": layer_calls["relations"],
            "relations.busy_s": busy["relations"],
            "relations.self_s": self_s["relations"],
            "relations.m1poly_mul.calls": calls["relations.m1poly_mul"],
            "relations.evaluate.s": timed["relations.evaluate"],
            "ribbon.enumerate_maps.s": enum_s,
            "ribbon.count_maps_by_division.s": timed["ribbon.count_maps_by_division"],
            "ribbon.canonical_form.calls": calls["ribbon.canonical_form"],
            "ribbon.canonical_form.s": timed["ribbon.canonical_form"],
            "ribbon.validate.calls": calls["ribbon.validate"],
            "ribbon.maps_per_s": ratio(c["classes_returned"], enum_s),
            "wick.count_connected_classes.s": timed["wick.count_connected_classes"],
            "wick.bijection_class_multiset.s": timed["wick.bijection_class_multiset"],
            "wick.total_weighted_classes.s": timed["wick.total_weighted_classes"],
            "wick.stream_items": c["stream_items"],
            "wick.accepted": accepted,
            "wick.accept_ratio": ratio(accepted, drawn),
            "wick.validate_per_accepted": ratio(validate_in_bcm, accepted),
            "permutations.fpf_involutions.items": c["fpf_items"],
            "permutations.union_find.inits": c["union_find_inits"],
            "combinat.compositions.items": c["composition_items"],
            "trace.spans": n,
        }
        return out


def read_spans(path: Path) -> dict[str, array]:
    """Load a file written by :meth:`Tracer.write` (used by the self-tests)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            out[field] = arr
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
