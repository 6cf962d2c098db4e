"""Labeled pairing model (contractions) and its bijection with rooted maps.

A contraction describes one labeled diagram of a correlator with N external
lines and 2e internal vertices: a perfect matching on the vertices (the
undirected "photon" pairs) together with a bijection π from the out-slots
{bra₁..bra_N} ∪ {v₁..v_{2e}} to the in-slots {v₁..v_{2e}} ∪ {ket₁..ket_N}
(the directed "electron" arrows).  There are (2e+N)!·(2e−1)!! of them.

Following π from bra_k passes through a chain of vertices and terminates at
some ket.  The bijection with N-rooted maps covers the *aligned* connected
contractions — those whose chain from bra_k ends at ket_k for every k:

* vertices become half-edges, the photon matching becomes the edge
  involution, chains and internal π-cycles become vertex cycles, and the
  first vertex on chain k becomes root k (:func:`to_map` / :func:`from_map`);
* vertex relabelings act freely on aligned connected contractions, so each
  isomorphism class of maps corresponds to exactly (2e)! of them — division
  by (2e)! is the second independent counting oracle
  (:func:`count_connected_classes`).

Connectivity treats bra_k and ket_k as separate leaf nodes: a chain that
enters at bra_k and leaves at ket_j is a path, never a cycle, so e.g. the
two bare crossed chains at N=2, e=0 form two components and are disconnected.
Counting connected contractions without the alignment restriction would
overcount every class by the N! ways to assign chain ends to kets; the
aligned convention is the one under which the (2e)!-fiber statement and the
series coefficients come out exactly.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from math import factorial
from typing import TYPE_CHECKING

from .errors import BoundExceededError, ConsistencyError
from .permutations import (
    Perm,
    UnionFind,
    cycles_of,
    fixed_point_free_involutions,
    is_involution_without_fixed_points,
)
from .ribbon import RootedMap, _canonical_relabeling, _require_valid, point_map, validate

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "MAX_SLOTS",
    "Contraction",
    "enumerate_contractions",
    "is_connected",
    "is_aligned",
    "external_chains",
    "to_map",
    "from_map",
    "loop_count",
    "count_connected_classes",
    "total_weighted_classes",
    "contraction_to_json",
    "contraction_from_json",
    "contraction_to_dot",
]

#: Ceiling on slots per side (2e + N) for exhaustive contraction streams.
MAX_SLOTS = 9


class Contraction(namedtuple("Contraction", "n_external n_vertices photon targets")):
    """One labeled contraction, immutable.

    ``photon`` is a fixed-point-free involution on the vertex set {1..2e},
    stored as an image tuple.  ``targets`` holds π in out-slot order
    bra₁..bra_N, v₁..v_{2e}; each entry is a vertex 1..2e or ``2e + k``
    meaning ket_k.
    """

    __slots__ = ()

    @property
    def n_edges(self) -> int:
        return self.n_vertices // 2

    def photon_pairs(self) -> list[tuple[int, int]]:
        return sorted(
            (h, self.photon[h - 1])
            for h in range(1, self.n_vertices + 1)
            if h < self.photon[h - 1]
        )

    def target_of_bra(self, k: int) -> int:
        return self.targets[k - 1]

    def target_of_vertex(self, v: int) -> int:
        return self.targets[self.n_external + v - 1]

    def __repr__(self):
        return (
            f"Contraction(N={self.n_external}, 2e={self.n_vertices}, "
            f"photon={self.photon_pairs()}, targets={self.targets})"
        )


def _check_contraction(w: Contraction) -> None:
    n, big_n = w.n_vertices, w.n_external
    if n < 0 or n % 2 != 0 or big_n < 0:
        raise ValueError("need an even vertex count and non-negative external count")
    if n > 0 and not is_involution_without_fixed_points(w.photon):
        raise ValueError("photon matching must be a fixed-point-free involution")
    if len(w.photon) != n:
        raise ValueError(f"photon matching must cover exactly {n} vertices")
    if len(w.targets) != big_n + n:
        raise ValueError(f"expected {big_n + n} electron targets")
    if sorted(w.targets) != list(range(1, n + big_n + 1)):
        raise ValueError("electron targets must form a bijection onto the in-slots")


def _check_bounds(n_external: int, edges: int) -> None:
    if n_external < 0:
        raise ValueError("n_external must be non-negative")
    if edges < 0:
        raise ValueError("edges must be non-negative")
    if 2 * edges + n_external > MAX_SLOTS:
        raise BoundExceededError(
            f"2e + N = {2 * edges + n_external} slots exceeds the "
            f"exhaustive-stream bound of {MAX_SLOTS}"
        )


def enumerate_contractions(n_external: int, edges: int):
    """Stream every labeled contraction exactly once.

    Yields (2e+N)!·(2e−1)!! contractions: each photon matching paired with
    each electron bijection.  Contractions are streamed, never materialized
    as a list.  Bounds are checked eagerly, before the first item is drawn.
    """
    _check_bounds(n_external, edges)
    return _iter_contractions(n_external, edges)


def _iter_contractions(n_external: int, edges: int):
    n = 2 * edges
    in_slots = tuple(range(1, n + n_external + 1))
    for matching in fixed_point_free_involutions(n):
        for targets in itertools.permutations(in_slots):
            yield Contraction(n_external, n, matching, targets)


def _components(big_n: int, n: int, photon: Perm, targets) -> tuple[int, int]:
    """(number of components, number of independent cycles) of the diagram graph.

    Nodes: bra₁..bra_N, then vertices 1..2e, then ket₁..ket_N — bra and ket
    ends are distinct leaves.  Out-slot s (0-based) is node s and in-slot t
    is node N + t − 1.  Edges: photon pairs and electron arrows.  Unchecked:
    the caller vouches for the contraction.
    """
    uf = UnionFind(n + 2 * big_n)
    offset = big_n - 1
    for a, b in enumerate(photon, start=1):
        if a < b:  # disjoint pairs, joined first: they never close a cycle
            uf.union(offset + a, offset + b)
    cycles = 0
    for s, t in enumerate(targets):
        if not uf.union(s, offset + t):
            cycles += 1
    return uf.components, cycles


def _chains(big_n: int, n: int, targets) -> list[tuple[tuple[int, ...], int]]:
    """For each bra_k in order: (vertices passed through, index of the ket reached)."""
    chains = []
    for k in range(big_n):
        path = []
        t = targets[k]
        while t <= n:
            path.append(t)
            t = targets[big_n + t - 1]
        chains.append((tuple(path), t - n))
    return chains


def _aligned_connected(big_n: int, n: int, photon: Perm, targets) -> bool:
    """The one filter of both oracles: is the contraction aligned and connected?

    Walks the chains first and stops at the first that ends at a wrong ket;
    only aligned contractions reach the union-find pass.  Unchecked.
    """
    for k in range(1, big_n + 1):
        t = targets[k - 1]
        while t <= n:
            t = targets[big_n + t - 1]
        if t != n + k:
            return False
    return _components(big_n, n, photon, targets)[0] == 1


def is_connected(w: Contraction) -> bool:
    """True iff the whole diagram — all vertices and all external ends — is one piece."""
    _check_contraction(w)
    if w.n_vertices == 0 and w.n_external == 0:
        return True
    return _components(w.n_external, w.n_vertices, w.photon, w.targets)[0] == 1


def external_chains(w: Contraction) -> list[tuple[tuple[int, ...], int]]:
    """For each bra_k in order: (vertices passed through, index of the ket reached)."""
    _check_contraction(w)
    return _chains(w.n_external, w.n_vertices, w.targets)


def is_aligned(w: Contraction) -> bool:
    """True iff the chain from bra_k terminates at ket_k for every k."""
    return all(end == k for k, (_, end) in enumerate(external_chains(w), start=1))


def loop_count(w: Contraction) -> int:
    """Independent cycles of the connected diagram; must equal e − N + 1."""
    _check_contraction(w)
    components, cycles = _components(w.n_external, w.n_vertices, w.photon, w.targets)
    if components != 1:
        raise ValueError("loop_count requires a connected contraction")
    expected = w.n_edges - w.n_external + 1
    if cycles != expected:
        raise ConsistencyError(
            f"diagram has {cycles} independent cycles, expected e − N + 1 = {expected}"
        )
    return cycles


def _build_map(photon: Perm, targets, chains) -> RootedMap:
    """The map of an aligned connected contraction, given its external chains.

    Unchecked: π already is σ on every vertex except the last of each chain,
    whose σ-image closes the chain into the root's cycle.
    """
    if not photon:
        return point_map()
    big_n = len(chains)
    sigma = list(targets[big_n:])
    for path, _ in chains:
        sigma[path[-1] - 1] = path[0]
    return RootedMap(len(photon), photon, tuple(sigma), tuple(p[0] for p, _ in chains))


def _valid(m: RootedMap) -> RootedMap:
    problems = validate(m)
    if problems:
        raise ConsistencyError(
            f"to_map produced an invalid map ({'; '.join(problems)})"
        )
    return m


def to_map(w: Contraction) -> RootedMap:
    """Build the N-rooted map of a connected aligned contraction.

    Vertices become half-edges and the photon matching the edge involution;
    the vertex chain from bra_k becomes the σ-cycle of root k (the chain's
    first vertex), and internal π-cycles become unrooted σ-cycles.  Raises
    ValueError when the contraction is disconnected, has no external line,
    or has a chain ending at the wrong ket (outside the bijection's domain).
    """
    _check_contraction(w)
    big_n, n = w.n_external, w.n_vertices
    if big_n < 1:
        raise ValueError("to_map requires at least one external line")
    if _components(big_n, n, w.photon, w.targets)[0] != 1:
        raise ValueError("to_map requires a connected contraction")
    chains = _chains(big_n, n, w.targets)
    for k, (_, end) in enumerate(chains, start=1):
        if end != k:
            raise ValueError(
                f"external chain {k} terminates at ket {end}; "
                "only aligned contractions correspond to rooted maps"
            )
    return _valid(_build_map(w.photon, w.targets, chains))


def from_map(m: RootedMap) -> Contraction:
    """Build the aligned contraction whose image under :func:`to_map` is m's class.

    Root k's σ-cycle, read root-first, becomes the chain bra_k → ĥ_k → … →
    ket_k; unrooted σ-cycles become internal π-cycles recorded from their
    smallest vertex.  The edgeless 1-rooted map becomes the bare line
    bra₁ → ket₁.
    """
    _require_valid(m, "from_map")
    if m.is_point:
        return Contraction(1, 0, (), (1,))

    n = m.half_edges
    big_n = len(m.roots)
    targets = [0] * (big_n + n)
    in_root_cycle = [False] * (n + 1)
    for k, r in enumerate(m.roots, start=1):
        cyc = [r]
        h = m.sigma[r - 1]
        while h != r:
            cyc.append(h)
            h = m.sigma[h - 1]
        targets[k - 1] = cyc[0]
        for i, v in enumerate(cyc):
            targets[big_n + v - 1] = cyc[i + 1] if i + 1 < len(cyc) else n + k
            in_root_cycle[v] = True

    for cyc in cycles_of(m.sigma):
        if in_root_cycle[cyc[0]]:
            continue
        for i, v in enumerate(cyc):
            targets[big_n + v - 1] = cyc[(i + 1) % len(cyc)]

    return Contraction(big_n, n, m.alpha, tuple(targets))


def _count_for_matching(args: tuple[int, int, Perm]) -> int:
    """Aligned connected contractions extending one photon matching."""
    n_external, n_vertices, matching = args
    count = 0
    for targets in itertools.permutations(range(1, n_vertices + n_external + 1)):
        if _aligned_connected(n_external, n_vertices, matching, targets):
            count += 1
    return count


def count_connected_classes(n_external: int, edges: int, workers: int = 1) -> int:
    """Number of map classes counted through the contraction oracle.

    Counts aligned connected contractions and divides by (2e)!; the quotient
    is exact because vertex relabelings act freely on them.  ``workers > 1``
    splits the stream by photon matching across processes, never more than
    there are matchings or CPUs in the process's affinity mask; the result is
    independent of the worker count.
    """
    _check_bounds(n_external, edges)
    if n_external < 1:
        raise ValueError("count_connected_classes requires n_external >= 1")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    n = 2 * edges
    if edges == 0:
        return 1 if n_external == 1 else 0

    tasks = [
        (n_external, n, matching) for matching in fixed_point_free_involutions(n)
    ]
    # the CPUs this process may run on: its affinity mask where the OS has one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(workers, len(tasks), cpus or 1)
    if processes > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=processes) as pool:
            per_matching = pool.map(_count_for_matching, tasks)
        total = sum(per_matching)
    else:
        total = sum(_count_for_matching(t) for t in tasks)

    denom = factorial(n)
    if total % denom != 0:
        raise ConsistencyError(
            f"aligned connected total {total} is not divisible by (2e)! = {denom}"
        )
    return total // denom


def total_weighted_classes(n_external: int, edges: int) -> Fraction:
    """All contractions (connected or not) counted with weight 1/(2e)!.

    The stream is counted item by item — no closed formula — and the exact
    rational total must reproduce the λ^{2e} coefficient of the
    corresponding correlator series.  Disconnected diagrams can have
    nontrivial symmetries, so this weighted total is a rational number,
    not a class count.
    """
    from fractions import Fraction  # here, not at module level: convert never needs it

    _check_bounds(n_external, edges)
    total = sum(1 for _ in enumerate_contractions(n_external, edges))
    return Fraction(total, factorial(2 * edges))


def bijection_class_multiset(n_external: int, edges: int) -> dict[RootedMap, int]:
    """Canonical form → number of aligned connected contractions mapping to it.

    The streamed contractions are well formed by construction, so each is
    filtered without re-checking it, and each accepted one's map is
    validated exactly once.
    """
    _check_bounds(n_external, edges)
    if n_external < 1:
        raise ValueError("bijection_class_multiset requires n_external >= 1")
    n = 2 * edges
    fibers: dict[RootedMap, int] = {}
    for w in enumerate_contractions(n_external, edges):
        if not _aligned_connected(n_external, n, w.photon, w.targets):
            continue
        m = _valid(_build_map(w.photon, w.targets, _chains(n_external, n, w.targets)))
        key = _canonical_relabeling(m)
        fibers[key] = fibers.get(key, 0) + 1
    return fibers


# ---------------------------------------------------------------------------
# Serialization & inspection
# ---------------------------------------------------------------------------


def contraction_to_json(w: Contraction) -> dict:
    """Stable JSON shape; ket targets appear as strings "ket1".."ketN"."""
    _check_contraction(w)
    n = w.n_vertices
    return {
        "n_external": w.n_external,
        "n_vertices": n,
        "photon_pairs": [list(p) for p in w.photon_pairs()],
        "electron_targets": [
            t if t <= n else f"ket{t - n}" for t in w.targets
        ],
    }


def contraction_from_json(data: dict) -> Contraction:
    """Parse and strictly validate the contraction JSON shape."""
    if not isinstance(data, dict):
        raise ValueError("contraction JSON must be an object")
    required = {"n_external", "n_vertices", "photon_pairs", "electron_targets"}
    missing = required - data.keys()
    if missing:
        raise ValueError(f"contraction JSON missing keys: {sorted(missing)}")
    extra = data.keys() - required
    if extra:
        raise ValueError(f"contraction JSON has unknown keys: {sorted(extra)}")

    # ``type(v) is int`` because JSON booleans parse to bool, a subclass of int.
    big_n, n = data["n_external"], data["n_vertices"]
    if type(big_n) is not int or big_n < 0:
        raise ValueError("n_external: expected a non-negative integer")
    if type(n) is not int or n < 0 or n % 2 != 0:
        raise ValueError("n_vertices: expected an even non-negative integer")

    pairs = data["photon_pairs"]
    if not isinstance(pairs, list) or any(
        not isinstance(p, list) or len(p) != 2 for p in pairs
    ):
        raise ValueError("photon_pairs: expected a list of [a, b] pairs")
    photon = [0] * n
    for p in pairs:
        a, b = p
        if not all(type(v) is int and 1 <= v <= n for v in (a, b)) or a == b:
            raise ValueError(f"photon_pairs: {p} is not a pair of distinct vertices")
        if photon[a - 1] or photon[b - 1]:
            raise ValueError(f"photon_pairs: vertex in {p} is matched twice")
        photon[a - 1], photon[b - 1] = b, a
    if any(v == 0 for v in photon):
        raise ValueError("photon_pairs: every vertex must be matched")

    raw = data["electron_targets"]
    if not isinstance(raw, list) or len(raw) != big_n + n:
        raise ValueError(f"electron_targets: expected {big_n + n} entries")
    targets = []
    for entry in raw:
        if type(entry) is int:
            if not 1 <= entry <= n:
                raise ValueError(f"electron_targets: vertex {entry} out of range 1..{n}")
            targets.append(entry)
        elif isinstance(entry, str) and entry.startswith("ket"):
            try:
                k = int(entry[3:])
                # int() also reads signs, spaces, "_" and non-ASCII digits.
                if entry != f"ket{k}":
                    raise ValueError
            except ValueError:
                raise ValueError(f"electron_targets: malformed ket label {entry!r}") from None
            if not 1 <= k <= big_n:
                raise ValueError(f"electron_targets: {entry!r} out of range 1..{big_n}")
            targets.append(n + k)
        else:
            raise ValueError(
                f"electron_targets: {entry!r} is neither a vertex nor a ket label"
            )

    w = Contraction(big_n, n, tuple(photon), tuple(targets))
    _check_contraction(w)  # duplicate-target and bijection checks
    return w


def contraction_to_dot(w: Contraction) -> str:
    """DOT text for inspection: solid directed electron arrows, dashed photons."""
    _check_contraction(w)
    n = w.n_vertices
    lines = ["digraph contraction {"]
    for k in range(1, w.n_external + 1):
        lines.append(f"  ext{k} [shape=plaintext];")
    for v in range(1, n + 1):
        lines.append(f"  v{v} [shape=circle];")

    def name(t: int) -> str:
        return f"v{t}" if t <= n else f"ext{t - n}"

    for k in range(1, w.n_external + 1):
        lines.append(f"  ext{k} -> {name(w.target_of_bra(k))};")
    for v in range(1, n + 1):
        lines.append(f"  v{v} -> {name(w.target_of_vertex(v))};")
    for a, b in w.photon_pairs():
        lines.append(f"  v{a} -> v{b} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines)
