"""Rooted-map structures: validation, invariants, canonical labels, oracles."""

import itertools
import json
import random
import re
from collections import deque
from math import factorial, prod

import pytest

import nrooted.ribbon
from nrooted.errors import BoundExceededError, ConsistencyError
from nrooted.permutations import cycles_of, fixed_point_free_involutions
from nrooted.qft import m_count
from nrooted.ribbon import (
    MAX_HALF_EDGES,
    RootedMap,
    canonical_form,
    count_maps_by_division,
    enumerate_maps,
    faces,
    genus,
    genus_profile,
    map_from_json,
    map_to_json,
    point_map,
    relabel,
    validate,
)
from nrooted.ribbon import _is_transitive

# A three-root map on six edges used as the main worked example.
EXAMPLE_JSON = {
    "half_edges": 12,
    "alpha": [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]],
    "sigma": [[1], [2, 7, 3, 9], [4, 6, 5], [11, 10, 8, 12]],
    "roots": [1, 2, 11],
}


@pytest.fixture()
def example_map():
    return map_from_json(EXAMPLE_JSON)


def loop_map(roots=(1,)):
    return RootedMap(2, (2, 1), (2, 1), roots)


def line_map():
    return RootedMap(2, (2, 1), (1, 2), (1,))


def torus_map():
    return RootedMap(4, (2, 1, 4, 3), (3, 4, 2, 1), (1,))


class TestRootedMap:
    def test_point_map(self):
        p = point_map()
        assert p.is_point
        assert p.half_edges == 0
        assert p.n_edges == 0

    def test_counts(self, example_map):
        assert example_map.n_edges == 6
        assert not example_map.is_point


class TestValidate:
    def test_example_is_valid(self, example_map):
        assert validate(example_map) == []

    def test_fixed_point_pairing_rejected(self):
        m = RootedMap(2, (1, 2), (2, 1), (1,))
        assert any("not fixed-point-free" in msg for msg in validate(m))

    def test_non_involution_rejected(self):
        m = RootedMap(4, (2, 3, 4, 1), (1, 2, 3, 4), (1,))
        assert any("involution" in msg for msg in validate(m))

    def test_disconnected_rejected(self):
        # two separate loops
        m = RootedMap(4, (2, 1, 4, 3), (2, 1, 4, 3), (1,))
        assert any("not transitive" in msg for msg in validate(m))

    def test_roots_sharing_a_vertex_rejected(self, example_map):
        m = RootedMap(
            example_map.half_edges, example_map.alpha, example_map.sigma, (1, 2, 7)
        )
        assert any("share" in msg for msg in validate(m))

    def test_duplicate_roots_rejected(self):
        m = loop_map(roots=(1, 1))
        assert any("duplicate" in msg for msg in validate(m))

    def test_root_out_of_range_rejected(self):
        m = loop_map(roots=(3,))
        assert any("out of range" in msg for msg in validate(m))

    @pytest.mark.parametrize(
        "m, problems",
        [
            (RootedMap(0, (1,), (), ()), ["edgeless map must have empty alpha and sigma"]),
            (RootedMap(0, (), (2,), ()), ["edgeless map must have empty alpha and sigma"]),
            (RootedMap(0, (), (), (1,)), ["edgeless map must have an empty root tuple"]),
            (RootedMap(2, (1, 1), (2, 1), (1,)), ["alpha is not a permutation of 1..2"]),
            (RootedMap(2, (2, 1), (2,), (1,)), ["sigma is not a permutation of 1..2"]),
            (
                RootedMap(2, [2, 1], (2, 3), (1,)),
                ["alpha is not a permutation of 1..2", "sigma is not a permutation of 1..2"],
            ),
            (RootedMap(2, (2, 1), (2, 1), ()), ["at least one root half-edge is required"]),
            (RootedMap(2, (2, 1), (1, 2), 1), ["roots must be a tuple of half-edges, got 1"]),
            (RootedMap(2, (2, 1), (2, 1), [1]), ["roots must be a tuple of half-edges, got [1]"]),
        ],
    )
    def test_each_problem_is_named(self, m, problems):
        assert validate(m) == problems

    @pytest.mark.parametrize(
        "m, problems",
        [
            (RootedMap(2, (2, True), (1, 2), (1,)), ["alpha is not a permutation of 1..2"]),
            (RootedMap(2, (2, 1), (True, 2), (1,)), ["sigma is not a permutation of 1..2"]),
            (RootedMap(2, (2, 1), (1, 2), (True,)), ["root out of range 1..2"]),
            (
                RootedMap(False, (), (), ()),
                ["half_edges must be an even non-negative integer, got False"],
            ),
        ],
        ids=["alpha", "sigma", "roots", "half_edges"],
    )
    def test_a_bool_is_no_half_edge(self, m, problems):
        # bool is a subclass of int; True sorts and compares as 1
        assert validate(m) == problems

    def test_validate_never_raises(self):
        assert isinstance(validate(RootedMap(3, (1, 2), (), ())), list)


class TestFacesAndGenus:
    def test_example_faces(self, example_map):
        assert faces(example_map) == [
            (1, 9, 11, 8, 2),
            (3, 5, 4, 7, 10),
            (6,),
            (12,),
        ]

    def test_example_genus_zero(self, example_map):
        # V=4, E=6, F=4 -> Euler characteristic 2
        assert genus(example_map) == 0

    def test_loop(self):
        assert faces(loop_map()) == [(1,), (2,)]
        assert genus(loop_map()) == 0

    def test_line(self):
        assert faces(line_map()) == [(1, 2)]
        assert genus(line_map()) == 0

    def test_torus(self):
        assert faces(torus_map()) == [(1, 3, 2, 4)]
        assert genus(torus_map()) == 1

    def test_point(self):
        assert faces(point_map()) == []
        assert genus(point_map()) == 0

    def test_roots_do_not_affect_the_surface(self):
        # faces and genus are functions of the pairing and vertex rotations only
        assert genus(loop_map(roots=(3,))) == genus(loop_map())

    def test_degenerate_pairing_detected(self):
        with pytest.raises(ConsistencyError):
            genus(RootedMap(2, (1, 2), (2, 1), (1,)))


class TestCanonicalForm:
    def test_enumerated_maps_are_fixed_points(self):
        for n_roots, edges in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for m in enumerate_maps(n_roots, edges):
                assert canonical_form(m) == m

    def test_relabeling_invariance_example(self, example_map):
        rng = random.Random(1702)
        base = canonical_form(example_map)
        n = example_map.half_edges
        for _ in range(20):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            shuffled = relabel(example_map, tuple(perm))
            assert canonical_form(shuffled) == base

    def test_root_marking_determines_form(self):
        # same unrooted loop, root marked at either half-edge
        assert canonical_form(loop_map((1,))) == canonical_form(loop_map((2,)))

    def test_root_order_matters(self):
        maps = enumerate_maps(2, 2)
        swapped = {
            canonical_form(
                RootedMap(m.half_edges, m.alpha, m.sigma, (m.roots[1], m.roots[0]))
            )
            for m in maps
        }
        # swapping root order permutes the class set without changing its size
        assert swapped == set(maps)

    def test_idempotent_on_random_relabelings(self):
        rng = random.Random(99)
        pool = []
        for n_roots, edges in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
            pool.extend(enumerate_maps(n_roots, edges))
        seen = 0
        while seen < 1000:
            m = pool[seen % len(pool)]
            perm = list(range(1, m.half_edges + 1))
            rng.shuffle(perm)
            c = canonical_form(relabel(m, tuple(perm)))
            assert c == m
            assert canonical_form(c) == c
            seen += 1

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(RootedMap(2, (1, 2), (2, 1), (1,)))


class TestRelabel:
    def test_identity(self, example_map):
        n = example_map.half_edges
        assert relabel(example_map, tuple(range(1, n + 1))) == example_map

    def test_preserves_validity_and_genus(self, example_map):
        perm = tuple([7, 3, 11, 2, 9, 4, 12, 1, 5, 10, 8, 6])
        moved = relabel(example_map, perm)
        assert validate(moved) == []
        assert genus(moved) == genus(example_map)

    def test_bad_permutation_rejected(self, example_map):
        with pytest.raises(ValueError):
            relabel(example_map, (1, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))

    def test_point_map_relabels_to_itself(self):
        assert relabel(point_map(), ()) == point_map()

    @pytest.mark.parametrize("perm", [(1, 1), (1,), "xyz"])
    def test_point_map_rejects_a_non_permutation(self, perm):
        # the empty map takes the permutation check like every other map
        with pytest.raises(ValueError, match=r"permutation of 1\.\.0"):
            relabel(point_map(), perm)


def reference_is_canonical(alpha, sigma, n_roots: int, n: int) -> bool:
    """Does the rooted breadth-first traversal from roots (1..N) visit
    half-edges in exactly the order 1, 2, …, n?"""
    visited = [False] * (n + 1)
    for r in range(1, n_roots + 1):
        visited[r] = True
    next_expected = n_roots + 1
    queue = deque(range(1, n_roots + 1))
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


def reference_enumeration(n_roots: int, edges: int) -> list[RootedMap]:
    """The labeled scan: every (α, σ) kept when it is already canonical with
    roots (1..N), the roots lie in distinct σ-cycles and the map is transitive."""
    n = 2 * edges
    if n_roots > n:
        return []  # each root is a half-edge of its own
    roots = tuple(range(1, n_roots + 1))
    return sorted(
        RootedMap(n, alpha, sigma, roots)
        for alpha in fixed_point_free_involutions(n)
        for sigma in itertools.permutations(range(1, n + 1))
        if reference_is_canonical(alpha, sigma, n_roots, n)
        and validate(RootedMap(n, alpha, sigma, roots)) == []
    )


class TestEnumeration:
    @pytest.mark.parametrize(
        "n_roots,edges", [(n, e) for e in range(1, 4) for n in range(1, 2 * e + 2)]
    )
    def test_matches_the_labeled_scan(self, n_roots, edges):
        assert enumerate_maps(n_roots, edges) == reference_enumeration(n_roots, edges)

    @pytest.mark.parametrize(
        "n_roots,edges,expected",
        [(1, 0, 1), (1, 1, 2), (1, 2, 10), (2, 1, 1), (2, 2, 13), (3, 2, 6)],
    )
    def test_class_counts(self, n_roots, edges, expected):
        maps = enumerate_maps(n_roots, edges)
        assert len(maps) == expected
        assert len(set(maps)) == expected
        assert maps == sorted(maps)

    def test_matches_series_counts(self):
        for n_roots, edges in [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
            assert len(enumerate_maps(n_roots, edges)) == m_count(n_roots, edges)

    def test_point_case(self):
        assert enumerate_maps(1, 0) == [point_map()]

    def test_impossible_cases_are_empty(self):
        assert enumerate_maps(2, 0) == []
        assert enumerate_maps(3, 1) == []
        assert enumerate_maps(5, 2) == []

    def test_every_enumerated_map_is_valid(self):
        for m in enumerate_maps(2, 2):
            assert validate(m) == []
            assert m.roots == (1, 2)

    def test_nonpositive_roots_rejected(self):
        with pytest.raises(ValueError):
            enumerate_maps(0, 1)

    def test_negative_edges_rejected(self):
        with pytest.raises(ValueError, match="^edges must be non-negative$"):
            enumerate_maps(1, -1)

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            enumerate_maps(1, MAX_HALF_EDGES // 2 + 1)


class TestDivisionOracle:
    @pytest.mark.parametrize(
        "n_roots,edges,expected",
        [(1, 0, 1), (1, 1, 2), (1, 2, 10), (1, 3, 74), (2, 1, 1), (2, 2, 13), (3, 2, 6)],
    )
    def test_counts(self, n_roots, edges, expected):
        assert count_maps_by_division(n_roots, edges) == expected

    def test_rootless_impossible_cases(self):
        assert count_maps_by_division(2, 0) == 0
        assert count_maps_by_division(4, 1) == 0

    @pytest.mark.parametrize("n_roots", [9, 10, 16])
    def test_more_roots_than_half_edges_need_no_scan(self, n_roots, monkeypatch):
        monkeypatch.setattr(nrooted.ribbon, "_is_transitive", None)  # any scan would call it
        assert count_maps_by_division(n_roots, MAX_HALF_EDGES // 2) == 0

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            count_maps_by_division(1, 5)

    @pytest.mark.parametrize("edges", [1, 2, 3])
    def test_every_pairing_has_the_same_share(self, edges):
        # all pairings α are conjugate; count_maps_by_division scans one
        n = 2 * edges
        # up to N = 2e + 2: N roots are N distinct half-edges, so past 2e none
        per_alpha: dict[int, list[int]] = {n_roots: [] for n_roots in range(1, n + 3)}
        for alpha in fixed_point_free_involutions(n):
            totals = dict.fromkeys(per_alpha, 0)
            for sigma in itertools.permutations(range(1, n + 1)):
                if not _is_transitive(alpha, sigma, n):
                    continue
                sizes = [len(c) for c in cycles_of(sigma)]
                for n_roots in totals:
                    # ordered roots in distinct cycles: a size per ordered pick of cycles
                    picks = itertools.permutations(sizes, n_roots)
                    totals[n_roots] += sum(prod(pick) for pick in picks)
            for n_roots, total in totals.items():
                per_alpha[n_roots].append(total)
        for n_roots, totals in per_alpha.items():
            share = 2**edges * factorial(edges) * m_count(n_roots, edges)
            assert set(totals) == {share}
            assert sum(totals) == factorial(n) * count_maps_by_division(n_roots, edges)

    def test_indivisible_labeled_total_is_a_consistency_error(self, monkeypatch):
        # only the identity σ passes: 3 matchings × 4 root choices = 12 < 4!
        monkeypatch.setattr(
            nrooted.ribbon,
            "_is_transitive",
            lambda alpha, sigma, n: sigma == tuple(range(1, n + 1)),
        )
        with pytest.raises(
            ConsistencyError, match=r"labeled-map total 12 is not divisible by \(2e\)! = 24"
        ):
            count_maps_by_division(1, 2)


class TestGenusProfile:
    def test_one_edge(self):
        assert genus_profile(1, 1) == {0: 2}

    def test_two_edges_single_root(self):
        assert genus_profile(1, 2) == {0: 9, 1: 1}

    def test_point(self):
        assert genus_profile(1, 0) == {0: 1}

    def test_totals_match_counts(self):
        for n_roots, edges in [(2, 1), (2, 2), (3, 2), (1, 3)]:
            profile = genus_profile(n_roots, edges)
            assert sum(profile.values()) == m_count(n_roots, edges)
            assert all(g >= 0 and c > 0 for g, c in profile.items())


class TestSerialization:
    def test_to_json_exact(self, example_map):
        data = map_to_json(example_map)
        assert data == EXAMPLE_JSON
        assert list(data.keys()) == ["half_edges", "alpha", "sigma", "roots"]

    def test_round_trip_bit_exact(self, example_map):
        text = json.dumps(map_to_json(example_map))
        again = map_to_json(map_from_json(json.loads(text)))
        assert json.dumps(again) == text

    def test_round_trip_all_enumerated(self):
        for n_roots, edges in [(1, 1), (1, 2), (2, 2), (3, 2)]:
            for m in enumerate_maps(n_roots, edges):
                assert map_from_json(map_to_json(m)) == m

    def test_point_round_trip(self):
        data = map_to_json(point_map())
        assert data["half_edges"] == 0
        assert map_from_json(data) == point_map()

    def test_root_cycles_listed_root_first(self, example_map):
        data = map_to_json(example_map)
        starts = [cycle[0] for cycle in data["sigma"]]
        for root in data["roots"]:
            assert root in starts

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("roots"),
            lambda d: d.update(extra=1),
            lambda d: d.update(half_edges=11),
            lambda d: d.update(alpha=[[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 13]]),
            lambda d: d.update(sigma=[[1], [2, 7, 3, 9], [4, 6, 5]]),
            lambda d: d.update(roots=[1, 2, 9]),
            lambda d: d.update(roots="1"),
            # JSON booleans are not integers, although bool subclasses int.
            lambda d: d.update(roots=[True, 2, 11]),
            lambda d: d["alpha"][0].__setitem__(0, True),
            lambda d: d.update(half_edges=False, alpha=[], sigma=[], roots=[]),
            # An edgeless map needs exactly [] in each field, not any falsy value.
            lambda d: d.update(half_edges=0, alpha=0, sigma=None, roots=False),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        data = json.loads(json.dumps(EXAMPLE_JSON))
        mutate(data)
        with pytest.raises(ValueError):
            map_from_json(data)

    @pytest.mark.parametrize("field", ["alpha", "sigma"])
    def test_empty_cycle_rejected(self, field):
        data = {"half_edges": 2, "alpha": [[1, 2]], "sigma": [[1, 2]], "roots": [1]}
        data[field].append([])
        with pytest.raises(ValueError, match=f"^{field}: a cycle must not be empty$"):
            map_from_json(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "map JSON must be an object"),
            ({"alpha": [1, 2]}, "alpha: expected a list of cycles (lists)"),
            ({"sigma": "12"}, "sigma: expected a list of cycles (lists)"),
            ({"alpha": [[1, 2], [2]]}, "alpha: element 2 appears in more than one cycle"),
            ({"sigma": [[1], [2, 1]]}, "sigma: element 1 appears in more than one cycle"),
            ({"genus": 0}, "map JSON has unknown keys: ['genus']"),
        ],
    )
    def test_malformed_document_is_named(self, data, message):
        if isinstance(data, dict):
            data = {"half_edges": 2, "alpha": [[1, 2]], "sigma": [[1, 2]], "roots": [1], **data}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            map_from_json(data)

    def test_missing_keys_are_named(self):
        with pytest.raises(ValueError, match=r"^map JSON missing keys: \['roots', 'sigma'\]$"):
            map_from_json({"half_edges": 2, "alpha": [[1, 2]]})

    def test_singleton_pairing_cycle_reported_as_fixed_point(self):
        data = json.loads(json.dumps(EXAMPLE_JSON))
        data["alpha"] = [[1], [2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]]
        with pytest.raises(ValueError, match="not fixed-point-free"):
            map_from_json(data)
