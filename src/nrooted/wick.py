"""Labeled pairing model (contractions) and its bijection with rooted maps.

A contraction describes one labeled diagram of a correlator with N external
lines and 2e internal vertices: a perfect matching on the vertices (the
undirected "photon" pairs) together with a bijection π from the out-slots
{bra₁..bra_N} ∪ {v₁..v_{2e}} to the in-slots {v₁..v_{2e}} ∪ {ket₁..ket_N}
(the directed "electron" arrows).  There are (2e+N)!·(2e−1)!! of them.

Following π from bra_k passes through a chain of vertices and terminates at
some ket.  The bijection with N-rooted maps covers the *aligned* connected
contractions — those whose chain from bra_k ends at ket_k for every k:

* vertices become half-edges and the photon matching the edge involution;
  root k is π(bra_k), and σ is π with each ket_k read as root k, so chain k
  closes into root k's vertex cycle and internal π-cycles stay as they are
  (:func:`to_map`; :func:`from_map` makes the reverse substitution);
* vertex relabelings act freely on aligned connected contractions, so each
  isomorphism class of maps corresponds to exactly (2e)! of them — division
  by (2e)! is the second independent counting oracle
  (:func:`count_connected_classes`).

All photon matchings are conjugate, so each class has 2^e·e! contractions on
each of them: both contraction oracles scan the one matching (1 2)(3 4)… and
scale by the (2e−1)!! matchings (``permutations._one_pairing_orbits``).

Connectivity treats bra_k and ket_k as separate leaf nodes: a chain that
enters at bra_k and leaves at ket_j is a path, never a cycle, so e.g. the
two bare crossed chains at N=2, e=0 form two components and are disconnected.
``_components`` also decides a map's transitivity: a map has no external lines.
Counting connected contractions without the alignment restriction would
overcount every class by the N! ways to assign chain ends to kets; the
aligned convention is the one under which the (2e)!-fiber statement and the
series coefficients come out exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from math import factorial
from typing import TYPE_CHECKING

from .combinat import double_factorial
from .errors import BoundExceededError, ConsistencyError, _require_json_object
from .permutations import (
    Perm,
    _one_pairing_orbits,
    _pairing_components as _components,
    fixed_point_free_involutions,
    is_involution_without_fixed_points,
    standard_pairing,
)
from .ribbon import RootedMap, _canonical_relabeling, _require_valid, point_map, validate

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "MAX_SLOTS",
    "Contraction",
    "enumerate_contractions",
    "to_map",
    "from_map",
    "count_connected_classes",
    "total_weighted_classes",
    "contraction_to_json",
    "contraction_from_json",
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

    def photon_pairs(self) -> list[tuple[int, int]]:
        return sorted(
            (h, self.photon[h - 1])
            for h in range(1, self.n_vertices + 1)
            if h < self.photon[h - 1]
        )

    def __repr__(self):
        return (
            f"Contraction(N={self.n_external}, 2e={self.n_vertices}, "
            f"photon={self.photon_pairs()}, targets={self.targets})"
        )


def _all_ints(values) -> bool:
    # ``type(v) is int``, as in the JSON parsers: True indexes and sorts as 1,
    # and 2.0 sorts as 2, but neither is a label
    return all(type(v) is int for v in values)


def _check_contraction(w: Contraction) -> None:
    n, big_n = w.n_vertices, w.n_external
    if not _all_ints((n, big_n)) or n < 0 or n % 2 != 0 or big_n < 0:
        raise ValueError("need an even vertex count and non-negative external count")
    # tuples first, as ``ribbon._is_perm`` requires of a map's permutations
    if not isinstance(w.photon, tuple) or (
        n > 0 and not (_all_ints(w.photon) and is_involution_without_fixed_points(w.photon))
    ):
        raise ValueError("photon matching must be a fixed-point-free involution")
    if len(w.photon) != n:
        raise ValueError(f"photon matching must cover exactly {n} vertices")
    sized = isinstance(w.targets, tuple)
    if sized and len(w.targets) != big_n + n:
        raise ValueError(f"expected {big_n + n} electron targets")
    if not sized or not _all_ints(w.targets) or sorted(w.targets) != list(range(1, n + big_n + 1)):
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
    n = 2 * edges
    in_slots = tuple(range(1, n + n_external + 1))
    return (
        Contraction(n_external, n, matching, targets)
        for matching in fixed_point_free_involutions(n)
        for targets in itertools.permutations(in_slots)
    )


def _ket_reached(big_n: int, n: int, targets, k: int) -> int:
    """The index of the ket that the chain from bra_k reaches."""
    t = targets[k - 1]
    while t <= n:
        t = targets[big_n + t - 1]
    return t - n


def _aligned_connected(big_n: int, n: int, photon: Perm, targets) -> bool:
    """Is the contraction aligned and connected?

    Walks the chains first and stops at the first that ends at a wrong ket;
    only aligned contractions reach the connectivity pass.  Unchecked.
    """
    for k in range(1, big_n + 1):
        if _ket_reached(big_n, n, targets, k) != k:
            return False
    return _components(big_n, n, photon, targets)[0] == 1


def _aligned_connected_targets(big_n: int, n: int, photon: Perm):
    """The one scan of both oracles: the electron bijections that make
    ``photon`` aligned and connected.  A chain through no vertex is a component
    of its own, so past the bare line (N = 1, e = 0) N > 2e scans nothing."""
    if big_n > max(n, 1):
        return
    for targets in itertools.permutations(range(1, n + big_n + 1)):
        if _aligned_connected(big_n, n, photon, targets):
            yield targets


def _build_map(photon: Perm, targets) -> RootedMap:
    """The map of an aligned connected contraction: σ is π with each ket_k
    read as root k = π(bra_k).  Unchecked."""
    n = len(photon)
    if not n:
        return point_map()
    big_n = len(targets) - n
    roots = tuple(targets[:big_n])
    sigma = tuple(t if t <= n else roots[t - n - 1] for t in targets[big_n:])
    return RootedMap(n, photon, sigma, roots)


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
    root k is π(bra_k), and σ is π with each ket_k replaced by root k.  So
    the vertex chain from bra_k closes into root k's σ-cycle, and internal
    π-cycles become unrooted σ-cycles.  Raises ValueError when the
    contraction is disconnected, has no external line, or has a chain ending
    at the wrong ket (outside the bijection's domain).
    """
    _check_contraction(w)
    big_n, n = w.n_external, w.n_vertices
    if big_n < 1:
        raise ValueError("to_map requires at least one external line")
    if _components(big_n, n, w.photon, w.targets)[0] != 1:
        raise ValueError("to_map requires a connected contraction")
    for k in range(1, big_n + 1):
        end = _ket_reached(big_n, n, w.targets, k)
        if end != k:
            raise ValueError(
                f"external chain {k} terminates at ket {end}; "
                "only aligned contractions correspond to rooted maps"
            )
    return _valid(_build_map(w.photon, w.targets))


def from_map(m: RootedMap) -> Contraction:
    """Build the aligned contraction whose image under :func:`to_map` is m's class.

    The substitution of :func:`to_map` read backwards: π(bra_k) is root k,
    and π is σ with each root k replaced by ket_k.  So root k's σ-cycle, read
    root-first, becomes the chain bra_k → root k → … → ket_k, and unrooted
    σ-cycles become internal π-cycles.  The edgeless 1-rooted map becomes the
    bare line bra₁ → ket₁.
    """
    _require_valid(m, "from_map")
    if m.is_point:
        return Contraction(1, 0, (), (1,))

    n = m.half_edges
    ket = {r: n + k for k, r in enumerate(m.roots, start=1)}
    sigma = tuple(ket.get(h, h) for h in m.sigma)
    return Contraction(len(m.roots), n, m.alpha, tuple(m.roots) + sigma)


def count_connected_classes(n_external: int, edges: int) -> int:
    """Number of map classes counted through the contraction oracle.

    Counts the aligned connected contractions on one photon matching, all
    matchings being conjugate; relabelings act freely, so (2e)! divides.
    """
    _check_bounds(n_external, edges)
    if n_external < 1:
        raise ValueError("count_connected_classes requires n_external >= 1")
    n = 2 * edges
    total = sum(1 for _ in _aligned_connected_targets(n_external, n, standard_pairing(n)))
    return _one_pairing_orbits(total, edges, "aligned connected")


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

    Scans the one matching (1 2)(3 4)… and scales each fiber by the (2e−1)!!
    matchings; each scanned contraction's map is validated exactly once.
    """
    _check_bounds(n_external, edges)
    if n_external < 1:
        raise ValueError("bijection_class_multiset requires n_external >= 1")
    n = 2 * edges
    photon = standard_pairing(n)
    fibers = Counter(
        _canonical_relabeling(_valid(_build_map(photon, targets)))
        for targets in _aligned_connected_targets(n_external, n, photon)
    )
    matchings = double_factorial(n - 1)
    return {key: size * matchings for key, size in fibers.items()}


# ---------------------------------------------------------------------------
# Serialization
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
    keys = {"n_external", "n_vertices", "photon_pairs", "electron_targets"}
    _require_json_object(data, "contraction", keys)

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
    # partners in a dict, so the work is bounded by the document, not by n
    partner: dict[int, int] = {}
    for p in pairs:
        a, b = p
        if not all(type(v) is int and 1 <= v <= n for v in (a, b)) or a == b:
            raise ValueError(f"photon_pairs: {p} is not a pair of distinct vertices")
        if a in partner or b in partner:
            raise ValueError(f"photon_pairs: vertex in {p} is matched twice")
        partner[a], partner[b] = b, a
    if len(partner) != n:
        raise ValueError("photon_pairs: every vertex must be matched")
    photon = [partner[v] for v in range(1, n + 1)]

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
