"""Rooted maps as permutation pairs, with canonical labeling and enumeration.

A map with e edges is stored on the half-edge set {1..2e} as a pair of
permutations: ``alpha`` (a fixed-point-free involution pairing half-edges
into edges) and ``sigma`` (whose cycles are the vertices, in counterclockwise
half-edge order).  Faces are the cycles of σ⁻¹∘α, and the genus follows from
the Euler characteristic |V| − |E| + |F| = 2 − 2g.

An N-rooted map additionally carries N ordered root half-edges lying in N
distinct σ-cycles.  Rooted maps have no nontrivial automorphisms, which makes
a deterministic canonical relabeling in one breadth-first walk: the visited
list starts with the roots and gains σ(h), then α(h), of each h read in order
when new, and a half-edge's label is its position there.  Two rooted maps are
isomorphic (root order preserved) exactly when their canonical forms agree.

The edgeless map on a single vertex is represented with ``half_edges == 0``
and an empty root tuple; by convention it is the unique 1-rooted object at
e = 0 (two or more roots would need two vertices and at least one edge).
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from math import factorial

from .errors import BoundExceededError, ConsistencyError, _require_json_object
from .permutations import (
    Perm,
    _one_pairing_orbits,
    _pairing_components,
    compose,
    cycles_of,
    from_cycles,
    inverse,
    standard_pairing,
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

#: Ceiling on half-edges of this module's oracles (e ≤ 4).
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
    def is_point(self) -> bool:
        return self.half_edges == 0

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
        and all(type(v) is int for v in p)
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
    if type(n) is not int or n < 0 or n % 2 != 0:
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

    if not isinstance(m.roots, tuple):
        problems.append(f"roots must be a tuple of half-edges, got {m.roots!r}")
    elif not m.roots:
        problems.append("at least one root half-edge is required")
    else:
        if any(type(r) is not int or not 1 <= r <= n for r in m.roots):
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


def canonical_form(m: RootedMap) -> RootedMap:
    """The canonical representative of m's rooted-isomorphism class.

    Roots receive labels 1..N in root order; remaining half-edges are labeled
    in the first-visit order of the breadth-first traversal that expands σ(h)
    and then α(h) from each half-edge, in visiting order.  The traversal rule
    is an arbitrary but fixed convention, normative for the serialized format.
    """
    _require_valid(m, "canonical_form")
    return _canonical_relabeling(m)


def _canonical_relabeling(m: RootedMap) -> RootedMap:
    """The relabeling step of :func:`canonical_form`, for a map known to be valid.

    ``visited``, seeded with the roots, is also the queue: the loop reads it
    while appending to it.  ``label[h]`` is h's position there, 0 while unvisited.
    """
    label = [0] * (m.half_edges + 1)
    visited = list(m.roots)
    for k, r in enumerate(visited, start=1):
        label[r] = k
    for h in visited:
        for nxt in (m.sigma[h - 1], m.alpha[h - 1]):
            if not label[nxt]:
                visited.append(nxt)
                label[nxt] = len(visited)
    return _renamed(m, label[1:])


def relabel(m: RootedMap, perm: Perm) -> RootedMap:
    """Rename half-edges by ``perm`` (half-edge h becomes perm[h-1])."""
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
    return _pairing_components(0, n, alpha, sigma)[0] == 1


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


def enumerate_maps(n_roots: int, edges: int) -> list[RootedMap]:
    """All isomorphism classes of N-rooted maps with the given edge count.

    Returns one canonical representative per class, sorted: the one labeling
    with roots (1..N) that the rooted breadth-first traversal visits in label
    order.  These are built directly, taking half-edge h in label order and
    sending it under σ, then α, to a visited label still free for that
    permutation or to the next label.  The contraction oracle of
    :mod:`nrooted.wick` is the independent check on this list.
    """
    _check_bounds(n_roots, edges)
    if edges == 0:
        return [point_map()] if n_roots == 1 else []
    n = 2 * edges
    if n_roots > n:
        return []

    found: list[RootedMap] = []
    roots = tuple(range(1, n_roots + 1))
    alpha = [0] * (n + 1)
    preimage = [0] * (n + 1)  # σ⁻¹, 0 where not chosen yet

    def extend(h: int, new: int) -> None:
        # σ and α are fixed on half-edges 1..h-1; labels 1..new-1 are visited
        if h > n:
            a, s = tuple(alpha[1:]), inverse(tuple(preimage[1:]))
            # one root's traversal covers its component: N = 1 is transitive
            if n_roots == 1 or (_roots_in_distinct_cycles(s, roots) and _is_transitive(a, s, n)):
                found.append(RootedMap(n, a, s, roots))
        elif h < new:  # else the traversal ran dry before visiting every half-edge
            for image in range(1, min(new, n) + 1):
                if not preimage[image]:
                    preimage[image] = h
                    after = new + (image == new)
                    if alpha[h]:
                        extend(h + 1, after)
                    else:
                        for x in range(h + 1, min(after, n) + 1):
                            if not alpha[x]:
                                alpha[h], alpha[x] = x, h
                                extend(h + 1, after + (x == after))
                                alpha[h] = alpha[x] = 0
                    preimage[image] = 0

    extend(1, n_roots + 1)
    return sorted(found)


def count_maps_by_division(n_roots: int, edges: int) -> int:
    """Class count as (#valid labeled triples) / (2e)!, divisibility asserted.

    Every isomorphism class of N-rooted maps has exactly (2e)! labeled
    representatives, because relabelings act freely (rooted maps have no
    nontrivial automorphisms).  All pairings α are conjugate, so each carries
    the same share: σ is scanned against one α.  No canonical form is built,
    so this is independent of enumerate_maps.
    """
    _check_bounds(n_roots, edges)
    if edges == 0:
        return 1 if n_roots == 1 else 0
    n = 2 * edges
    if n_roots > n:
        return 0  # N roots are N distinct half-edges
    alpha = standard_pairing(n)

    total = 0
    for sigma in itertools.permutations(range(1, n + 1)):
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
    return _one_pairing_orbits(total, edges, "labeled-map")


def genus_profile(n_roots: int, edges: int) -> dict[int, int]:
    """Number of classes per genus; values sum to the total class count."""
    profile = Counter(genus(m) for m in enumerate_maps(n_roots, edges))
    return dict(sorted(profile.items()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _oriented_cycles(m: RootedMap) -> list[list[int]]:
    """σ-cycles for output, as :func:`cycles_of` orders them (smallest-first,
    by smallest element), with each root cycle rotated to its root."""
    root_set = set(m.roots)
    out = []
    for cyc in cycles_of(m.sigma):
        i = next((i for i, h in enumerate(cyc) if h in root_set), 0)
        out.append(list(cyc[i:] + cyc[:i]))
    return out


def map_to_json(m: RootedMap) -> dict:
    """Serialize to the stable JSON shape (1-indexed, deterministic cycle order)."""
    _require_valid(m, "map_to_json")
    return {
        "half_edges": m.half_edges,
        "alpha": [list(c) for c in cycles_of(m.alpha)],
        "sigma": _oriented_cycles(m),
        "roots": list(m.roots),
    }


def map_from_json(data: dict) -> RootedMap:
    """Parse the JSON shape back into a RootedMap, validating strictly.

    Raises ValueError with a field-specific message on any schema violation;
    the parsed map is re-validated so structural problems (e.g. a fixed point
    in alpha) surface with the same messages as :func:`validate`.
    """
    _require_json_object(data, "map", {"half_edges", "alpha", "sigma", "roots"})

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
        # a fixed-point-free α lists all n half-edges, so n is within the document
        if field == "alpha" and (listed := sum(map(len, raw))) < n:
            raise ValueError(f"alpha: cycles list {listed} of the {n} half-edges")
        try:
            return from_cycles(n, [tuple(c) for c in raw])
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from None

    if n == 0:
        if any(data[field] != [] for field in ("alpha", "sigma", "roots")):
            raise ValueError("edgeless map JSON must have empty alpha/sigma/roots")
        return point_map()

    # Singleton alpha cycles parse to fixed points; validate() below reports
    # them as "alpha not fixed-point-free".
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
