"""One connectivity routine for contractions and maps, against a reference.

``wick._components`` and ``ribbon._is_transitive`` both run
``permutations._pairing_components``, which joins arrow blocks (paths and
cycles) along the matching.  The reference here walks the explicit diagram
graph instead, breadth first: one node per bra, vertex and ket, one edge per
photon pair and electron arrow, and the cycle rank edges − nodes + components.
The refusals of the other ``permutations`` builders close the file.
"""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrooted.permutations import fixed_point_free_involutions, from_cycles
from nrooted.ribbon import _is_transitive
from nrooted.wick import (
    MAX_SLOTS,
    Contraction,
    _components,
    enumerate_contractions,
    to_map,
)


def reference_components(big_n: int, n: int, photon, targets) -> tuple[int, int]:
    """(components, independent cycles) of the bra/vertex/ket graph, by breadth-first search."""
    nodes = [("bra", k) for k in range(1, big_n + 1)]
    nodes += [("v", v) for v in range(1, n + 1)]
    nodes += [("ket", k) for k in range(1, big_n + 1)]
    outs = nodes[: big_n + n]
    ins = nodes[big_n:]
    edges = [(("v", a), ("v", b)) for a, b in enumerate(photon, start=1) if a < b]
    edges += [(outs[s], ins[t - 1]) for s, t in enumerate(targets)]
    adjacent: dict = {node: [] for node in nodes}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen: set = set()
    components = 0
    for start in nodes:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for nxt in adjacent[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return components, len(edges) - len(nodes) + components


def reference_transitive(alpha, sigma, n: int) -> bool:
    """Does breadth-first search along α and σ from half-edge 1 reach every half-edge?"""
    seen = {1}
    queue = deque([1])
    while queue:
        h = queue.popleft()
        for nxt in (alpha[h - 1], sigma[h - 1]):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == n


SHAPES = [(big_n, e) for e in range(4) for big_n in range(8 - 2 * e)]


def test_shapes_cover_every_contraction_up_to_seven_slots():
    assert all(2 * e + big_n <= 7 for big_n, e in SHAPES)
    assert sum(1 for shape in SHAPES for _ in enumerate_contractions(*shape)) == 115_938


@pytest.mark.parametrize("big_n, e", SHAPES)
def test_components_match_the_reference(big_n, e):
    for w in enumerate_contractions(big_n, e):
        args = (big_n, 2 * e, w.photon, w.targets)
        assert _components(*args) == reference_components(*args), w


@pytest.mark.parametrize(
    "big_n, n, photon, targets, expected",
    [
        (0, 0, (), (), (0, 0)),
        (2, 0, (), (1, 2), (2, 0)),
        (2, 0, (), (2, 1), (2, 0)),
        # bra1 -> ket1 beside the electron cycle v1 -> v2 -> v1
        (1, 2, (2, 1), (3, 2, 1), (2, 2)),
        # the same cycle alone, and two one-vertex cycles joined by the photon
        (0, 2, (2, 1), (2, 1), (1, 2)),
        (0, 2, (2, 1), (1, 2), (1, 2)),
    ],
)
def test_edge_cases(big_n, n, photon, targets, expected):
    assert _components(big_n, n, photon, targets) == expected
    assert reference_components(big_n, n, photon, targets) == expected


@pytest.mark.parametrize("n", [2, 4, 6])
def test_transitivity_matches_the_reference_on_maps(n):
    for alpha in fixed_point_free_involutions(n):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert _is_transitive(alpha, sigma, n) == reference_transitive(alpha, sigma, n)


@pytest.mark.parametrize("n", [2, 4])
def test_transitivity_holds_for_any_alpha(n):
    # validate() asks for transitivity before it rejects a non-involution α
    for alpha in itertools.permutations(range(1, n + 1)):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert _is_transitive(alpha, sigma, n) == reference_transitive(alpha, sigma, n)


@st.composite
def full_contractions(draw) -> Contraction:
    """A contraction with 2e + N = MAX_SLOTS, the largest the streams allow."""
    edges = draw(st.integers(0, MAX_SLOTS // 2))
    n = 2 * edges
    order = draw(st.permutations(range(1, n + 1)))
    photon = [0] * n
    for a, b in zip(order[::2], order[1::2]):
        photon[a - 1], photon[b - 1] = b, a
    targets = draw(st.permutations(range(1, MAX_SLOTS + 1)))
    return Contraction(MAX_SLOTS - n, n, tuple(photon), tuple(targets))


@settings(max_examples=300, deadline=None)
@given(full_contractions())
def test_predicates_match_the_reference_at_the_slot_bound(w):
    args = (w.n_external, w.n_vertices, w.photon, w.targets)
    components, cycles = reference_components(*args)
    assert _components(*args) == (components, cycles)
    if components == 1:
        # the paper's loop number: a connected diagram has e − N + 1 loops
        assert cycles == w.n_vertices // 2 - w.n_external + 1
    else:
        with pytest.raises(ValueError, match="requires a connected contraction"):
            to_map(w)


class TestPermutationRefusals:
    def test_cycle_entry_out_of_range(self):
        with pytest.raises(ValueError, match="^cycle entry 3 outside 1..2$"):
            from_cycles(2, [(3,)])

    def test_odd_ground_set_has_no_fixed_point_free_involution(self):
        with pytest.raises(
            ValueError, match="^a fixed-point-free involution needs an even ground set$"
        ):
            list(fixed_point_free_involutions(3))
