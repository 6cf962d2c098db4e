"""Rooted maps as permutation pairs, with canonical labeling and enumeration.

A map with e edges is stored on the half-edge set {1..2e} as a pair of
permutations: ``alpha`` (a fixed-point-free involution pairing half-edges
into edges) and ``sigma`` (whose cycles are the vertices, in counterclockwise
half-edge order).  Faces are the cycles of σ⁻¹∘α, and the genus follows from
the Euler characteristic |V| − |E| + |F| = 2 − 2g.

An N-rooted map additionally carries N ordered root half-edges lying in N
distinct σ-cycles.  Rooted maps have no nontrivial automorphisms, which makes
a deterministic canonical relabeling possible: a breadth-first traversal
seeded by the roots visits σ(h) then α(h) from each dequeued half-edge and
assigns fresh labels in first-visit order.  Two rooted maps are isomorphic
(root order preserved) exactly when their canonical forms are equal.

The edgeless map on a single vertex is represented with ``half_edges == 0``
and an empty root tuple; by convention it is the unique 1-rooted object at
e = 0 (two or more roots would need two vertices and at least one edge).
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from math import factorial

from .errors import BoundExceededError, ConsistencyError
from .permutations import (
    Perm,
    UnionFind,
    compose,
    cycles_of,
    fixed_point_free_involutions,
    from_cycles,
    inverse,
)

__all__ = [
    "MAX_HALF_EDGES",
    "RootedMap",
    "point_map",
    "validate",
    "faces",
    "genus",
    "canonical_form",
    "relabel",
    "enumerate_maps",
    "count_maps_by_division",
    "genus_profile",
    "map_to_json",
    "map_from_json",
]

#: Ceiling on half-edges of the labeled scans in this module (e ≤ 4).
MAX_HALF_EDGES = 8


class RootedMap(namedtuple("RootedMap", "half_edges alpha sigma roots")):
    """An N-rooted map: half-edge count, edge involution, vertex permutation, roots.

    ``alpha`` and ``sigma`` are stored as image tuples: entry ``i-1`` is the
    image of half-edge ``i``.  ``roots`` lists the root half-edges in root
    order.  The edgeless one-vertex map is ``RootedMap(0, (), (), ())``.
    Maps are immutable and compare, sort and hash by their fields in order.
    """

    __slots__ = ()

    @property
    def n_edges(self) -> int:
        return self.half_edges // 2

    @property
    def n_roots(self) -> int:
        # The edgeless map carries its single root implicitly (no half-edge
        # exists to name it).
        return len(self.roots) if self.half_edges > 0 else 1

    @property
    def is_point(self) -> bool:
        return self.half_edges == 0

    def vertex_cycles(self) -> list[tuple[int, ...]]:
        return cycles_of(self.sigma)

    def __repr__(self):
        if self.is_point:
            return "RootedMap(point)"
        return (
            f"RootedMap(half_edges={self.half_edges}, alpha={self.alpha}, "
            f"sigma={self.sigma}, roots={self.roots})"
        )


def point_map() -> RootedMap:
    """The unique edgeless 1-rooted map."""
    return RootedMap(0, (), (), ())


def _is_perm(p, n: int) -> bool:
    return (
        isinstance(p, tuple)
        and len(p) == n
        and all(isinstance(v, int) for v in p)
        and sorted(p) == list(range(1, n + 1))
    )


def validate(m: RootedMap) -> list[str]:
    """Return a list of violation messages; an empty list means the map is valid.

    Checks structure (permutations of the right size), the involution and
    fixed-point-freeness of alpha, transitivity of the joint half-edge action,
    and the root conditions (distinct half-edges in distinct σ-cycles).
    Malformed inputs produce messages, never exceptions.
    """
    problems: list[str] = []
    n = m.half_edges
    if not isinstance(n, int) or n < 0 or n % 2 != 0:
        return [f"half_edges must be an even non-negative integer, got {n!r}"]

    if n == 0:
        if m.alpha != () or m.sigma != ():
            problems.append("edgeless map must have empty alpha and sigma")
        if m.roots != ():
            problems.append("edgeless map must have an empty root tuple")
        return problems

    if not _is_perm(m.alpha, n):
        problems.append(f"alpha is not a permutation of 1..{n}")
    if not _is_perm(m.sigma, n):
        problems.append(f"sigma is not a permutation of 1..{n}")
    if problems:
        return problems

    if any(m.alpha[h - 1] == h for h in range(1, n + 1)):
        problems.append("alpha not fixed-point-free")
    if any(m.alpha[m.alpha[h - 1] - 1] != h for h in range(1, n + 1)):
        problems.append("alpha not an involution")

    if not _is_transitive(m.alpha, m.sigma, n):
        problems.append("half-edge action not transitive (graph is disconnected)")

    if not m.roots:
        problems.append("at least one root half-edge is required")
    else:
        if any(not isinstance(r, int) or not 1 <= r <= n for r in m.roots):
            problems.append(f"root out of range 1..{n}")
        elif len(set(m.roots)) != len(m.roots):
            problems.append("duplicate root half-edges")
        elif not _roots_in_distinct_cycles(m.sigma, m.roots):
            problems.append("roots share a σ-cycle")
    return problems


def _require_valid(m: RootedMap, context: str) -> None:
    problems = validate(m)
    if problems:
        raise ValueError(f"{context}: invalid map: {'; '.join(problems)}")


def faces(m: RootedMap) -> list[tuple[int, ...]]:
    """The face cycles, i.e. the cycle decomposition of σ⁻¹∘α."""
    if m.is_point:
        return []
    return cycles_of(compose(inverse(m.sigma), m.alpha))


def genus(m: RootedMap) -> int:
    """Genus from |V| − |E| + |F| = 2 − 2g; asserted to be a non-negative integer."""
    if m.is_point:
        return 0
    v = len(cycles_of(m.sigma))
    e = m.n_edges
    f = len(faces(m))
    chi = v - e + f
    if (2 - chi) % 2 != 0 or chi > 2:
        raise ConsistencyError(
            f"Euler characteristic {chi} gives no valid genus (V={v}, E={e}, F={f})"
        )
    return (2 - chi) // 2


def _bfs_labels(m: RootedMap) -> dict[int, int]:
    """First-visit labels of the rooted breadth-first traversal (σ(h), then α(h))."""
    label: dict[int, int] = {}
    queue: deque[int] = deque()
    for r in m.roots:
        if r not in label:
            label[r] = len(label) + 1
            queue.append(r)
    while queue:
        h = queue.popleft()
        for nxt in (m.sigma[h - 1], m.alpha[h - 1]):
            if nxt not in label:
                label[nxt] = len(label) + 1
                queue.append(nxt)
    return label


def canonical_form(m: RootedMap) -> RootedMap:
    """The canonical representative of m's rooted-isomorphism class.

    Roots receive labels 1..N in root order; remaining half-edges are labeled
    in the first-visit order of the breadth-first traversal that expands σ(h)
    and then α(h) from each dequeued half-edge.  The traversal rule is an
    arbitrary but fixed convention, normative for the serialized format.
    """
    if m.is_point:
        return m
    _require_valid(m, "canonical_form")
    return _canonical_relabeling(m)


def _canonical_relabeling(m: RootedMap) -> RootedMap:
    """The relabeling step of :func:`canonical_form`, for a map known to be valid.

    The roots are visited first, so they receive 1..N in root order.
    """
    label = _bfs_labels(m)
    return _renamed(m, [label[h] for h in range(1, m.half_edges + 1)])


def relabel(m: RootedMap, perm: Perm) -> RootedMap:
    """Rename half-edges by ``perm`` (half-edge h becomes perm[h-1])."""
    if m.is_point:
        return m
    if not _is_perm(perm, m.half_edges):
        raise ValueError(f"relabeling must be a permutation of 1..{m.half_edges}")
    return _renamed(m, perm)


def _renamed(m: RootedMap, perm) -> RootedMap:
    """m with half-edge h renamed perm[h-1]; ``perm`` is not checked."""
    n = m.half_edges
    new_alpha = [0] * n
    new_sigma = [0] * n
    for old in range(1, n + 1):
        new_alpha[perm[old - 1] - 1] = perm[m.alpha[old - 1] - 1]
        new_sigma[perm[old - 1] - 1] = perm[m.sigma[old - 1] - 1]
    return RootedMap(
        n, tuple(new_alpha), tuple(new_sigma), tuple(perm[r - 1] for r in m.roots)
    )


def _check_bounds(n_roots: int, edges: int) -> None:
    if n_roots < 1:
        raise ValueError("n_roots must be at least 1")
    if edges < 0:
        raise ValueError("edges must be non-negative")
    if 2 * edges > MAX_HALF_EDGES:
        raise BoundExceededError(
            f"2e = {2 * edges} half-edges exceeds the exhaustive-enumeration "
            f"bound of {MAX_HALF_EDGES}"
        )


def _is_transitive(alpha: Perm, sigma: Perm, n: int) -> bool:
    uf = UnionFind(n)
    for h in range(n):
        uf.union(h, alpha[h] - 1)
        uf.union(h, sigma[h] - 1)
    return uf.components == 1


def _roots_in_distinct_cycles(sigma: Perm, roots: tuple[int, ...]) -> bool:
    """Do the root half-edges lie in pairwise distinct σ-cycles?"""
    seen: set[int] = set()
    for r in roots:
        if r in seen:
            return False
        h = r
        while True:
            seen.add(h)
            h = sigma[h - 1]
            if h == r:
                break
    return True


def _is_canonical_candidate(alpha: Perm, sigma: Perm, n_roots: int, n: int) -> bool:
    """Is (alpha, sigma, roots=(1..N)) already in canonical labeling?

    True iff the rooted breadth-first traversal visits half-edges in exactly
    the order 1, 2, …, n.  The traversal is seeded with all N roots, so it
    covers the union of their components; with a single root that implies
    transitivity, but for N ≥ 2 the caller must still check it.
    """
    visited = [False] * (n + 1)
    for r in range(1, n_roots + 1):
        visited[r] = True
    next_expected = n_roots + 1
    queue: deque[int] = deque(range(1, n_roots + 1))
    while queue:
        h = queue.popleft()
        for nxt in (sigma[h - 1], alpha[h - 1]):
            if not visited[nxt]:
                if nxt != next_expected:
                    return False
                visited[nxt] = True
                next_expected += 1
                queue.append(nxt)
    return next_expected == n + 1


def enumerate_maps(n_roots: int, edges: int) -> list[RootedMap]:
    """All isomorphism classes of N-rooted maps with the given edge count.

    Returns one canonical representative per class, sorted.  The scan
    enumerates (alpha, sigma) pairs and keeps exactly the labelings that are
    already canonical with roots (1..N) — each class has precisely one such
    labeling.  The contraction oracle of :mod:`nrooted.wick` is the
    independent check on this list.
    """
    _check_bounds(n_roots, edges)
    if edges == 0:
        return [point_map()] if n_roots == 1 else []
    n = 2 * edges
    if n_roots > n:
        return []

    found: list[RootedMap] = []
    roots = tuple(range(1, n_roots + 1))
    for alpha in fixed_point_free_involutions(n):
        for images in itertools.permutations(range(1, n + 1)):
            sigma: Perm = images
            if not _roots_in_distinct_cycles(sigma, roots):
                continue
            if _is_canonical_candidate(alpha, sigma, n_roots, n) and (
                n_roots == 1 or _is_transitive(alpha, sigma, n)
            ):
                found.append(RootedMap(n, alpha, sigma, roots))
    return sorted(found)


def count_maps_by_division(n_roots: int, edges: int) -> int:
    """Class count as (#valid labeled triples) / (2e)!, divisibility asserted.

    Every isomorphism class of N-rooted maps has exactly (2e)! labeled
    representatives, because relabelings act freely (rooted maps have no
    nontrivial automorphisms).  The labeled total is accumulated without
    building any canonical form, so this is independent of enumerate_maps.
    """
    _check_bounds(n_roots, edges)
    if edges == 0:
        return 1 if n_roots == 1 else 0
    n = 2 * edges

    total = 0
    for alpha in fixed_point_free_involutions(n):
        for images in itertools.permutations(range(1, n + 1)):
            sigma: Perm = images
            if not _is_transitive(alpha, sigma, n):
                continue
            sizes = [len(c) for c in cycles_of(sigma)]
            # Ordered N-tuples of roots in distinct cycles:
            # N! * e_N(cycle sizes), via the elementary symmetric polynomial.
            elementary = [1] + [0] * n_roots
            for s in sizes:
                for k in range(min(n_roots, len(sizes)), 0, -1):
                    elementary[k] += elementary[k - 1] * s
            total += factorial(n_roots) * elementary[n_roots]

    denom = factorial(n)
    if total % denom != 0:
        raise ConsistencyError(
            f"labeled-map total {total} is not divisible by (2e)! = {denom}"
        )
    return total // denom


def genus_profile(n_roots: int, edges: int) -> dict[int, int]:
    """Number of classes per genus; values sum to the total class count."""
    profile: dict[int, int] = {}
    for m in enumerate_maps(n_roots, edges):
        g = genus(m)
        profile[g] = profile.get(g, 0) + 1
    return dict(sorted(profile.items()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _oriented_cycles(m: RootedMap) -> list[list[int]]:
    """σ-cycles for output: root cycles rotated root-first, others smallest-first,
    the list ordered by each cycle's smallest element."""
    root_set = set(m.roots)
    out: list[tuple[int, list[int]]] = []
    for cyc in cycles_of(m.sigma):
        anchor = None
        for h in cyc:
            if h in root_set:
                anchor = h
                break
        rotated = list(cyc)
        if anchor is not None:
            i = rotated.index(anchor)
            rotated = rotated[i:] + rotated[:i]
        out.append((min(cyc), rotated))
    return [cyc for _, cyc in sorted(out, key=lambda item: item[0])]


def map_to_json(m: RootedMap) -> dict:
    """Serialize to the stable JSON shape (1-indexed, deterministic cycle order)."""
    _require_valid(m, "map_to_json")
    if m.is_point:
        return {"half_edges": 0, "alpha": [], "sigma": [], "roots": []}
    alpha_cycles = sorted([list(c) for c in cycles_of(m.alpha)])
    return {
        "half_edges": m.half_edges,
        "alpha": alpha_cycles,
        "sigma": _oriented_cycles(m),
        "roots": list(m.roots),
    }


def map_from_json(data: dict) -> RootedMap:
    """Parse the JSON shape back into a RootedMap, validating strictly.

    Raises ValueError with a field-specific message on any schema violation;
    the parsed map is re-validated so structural problems (e.g. a fixed point
    in alpha) surface with the same messages as :func:`validate`.
    """
    if not isinstance(data, dict):
        raise ValueError("map JSON must be an object")
    required = {"half_edges", "alpha", "sigma", "roots"}
    missing = required - data.keys()
    if missing:
        raise ValueError(f"map JSON missing keys: {sorted(missing)}")
    extra = data.keys() - required
    if extra:
        raise ValueError(f"map JSON has unknown keys: {sorted(extra)}")

    # ``type(v) is int`` because JSON booleans parse to bool, a subclass of int.
    n = data["half_edges"]
    if type(n) is not int or n < 0 or n % 2 != 0:
        raise ValueError(f"half_edges: expected an even non-negative integer, got {n!r}")

    def parse_cycles(field: str) -> Perm:
        raw = data[field]
        if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
            raise ValueError(f"{field}: expected a list of cycles (lists)")
        for cyc in raw:
            if not cyc:
                raise ValueError(f"{field}: a cycle must not be empty")
            if not all(type(v) is int and 1 <= v <= n for v in cyc):
                raise ValueError(f"{field}: cycle entries must be integers in 1..{n}")
        try:
            return from_cycles(n, [tuple(c) for c in raw])
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from None

    if n == 0:
        if any(data[field] != [] for field in ("alpha", "sigma", "roots")):
            raise ValueError("edgeless map JSON must have empty alpha/sigma/roots")
        return point_map()

    # Singleton or missing alpha cycles parse to fixed points; validate()
    # below reports them as "alpha not fixed-point-free".
    alpha = parse_cycles("alpha")
    sigma = parse_cycles("sigma")

    raw_roots = data["roots"]
    if (
        not isinstance(raw_roots, list)
        or not raw_roots
        or not all(type(r) is int and 1 <= r <= n for r in raw_roots)
    ):
        raise ValueError(f"roots: expected a non-empty list of integers in 1..{n}")

    m = RootedMap(n, alpha, sigma, tuple(raw_roots))
    problems = validate(m)
    if problems:
        raise ValueError("; ".join(problems))
    return m
