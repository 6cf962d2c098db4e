"""Labeled-contraction oracle: streaming, connectivity, and the map bijection."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest

import nrooted.wick
from nrooted.errors import BoundExceededError, ConsistencyError
from nrooted.permutations import cycles_of, fixed_point_free_involutions, standard_pairing
from nrooted.qft import m_count, z_series
from nrooted.ribbon import RootedMap, canonical_form, enumerate_maps, point_map, relabel
from nrooted.wick import (
    MAX_SLOTS,
    Contraction,
    _aligned_connected_targets,
    _build_map,
    _components,
    bijection_class_multiset,
    contraction_from_json,
    contraction_to_json,
    count_connected_classes,
    enumerate_contractions,
    from_map,
    to_map,
    total_weighted_classes,
)

NON_CANONICAL_KETS = ["ket01", "ket+1", "ket 1", "ket1 ", "ket\u0661", "ket1_0"]

LOOP_CONTRACTION = Contraction(1, 2, (2, 1), (1, 2, 3))
LINE_CONTRACTION = Contraction(1, 2, (2, 1), (1, 3, 2))

EXAMPLE_MAP_JSON = {
    "half_edges": 12,
    "alpha": [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]],
    "sigma": [[1], [2, 7, 3, 9], [4, 6, 5], [11, 10, 8, 12]],
    "roots": [1, 2, 11],
}


def factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def double_factorial_odd(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def components(w: Contraction) -> tuple[int, int]:
    """(components, independent cycles) of the whole diagram, vertices and external ends."""
    return _components(w.n_external, w.n_vertices, w.photon, w.targets)


def chains(w: Contraction) -> list[tuple[tuple[int, ...], int]]:
    """For each bra_k in order: (vertices passed through, index of the ket reached)."""
    big_n, n = w.n_external, w.n_vertices
    out = []
    for k in range(big_n):
        path = []
        t = w.targets[k]
        while t <= n:
            path.append(t)
            t = w.targets[big_n + t - 1]
        out.append((tuple(path), t - n))
    return out


def connected(w: Contraction) -> bool:
    return components(w)[0] == 1


def aligned(w: Contraction) -> bool:
    """Does the chain from bra_k end at ket_k for every k?"""
    return all(end == k for k, (_, end) in enumerate(chains(w), start=1))


def full_stream_fibers(n_external: int, edges: int) -> dict[RootedMap, int]:
    """Canonical form → aligned connected contractions over every photon matching."""
    fibers: dict[RootedMap, int] = {}
    for w in enumerate_contractions(n_external, edges):
        if connected(w) and aligned(w):
            key = canonical_form(to_map(w))
            fibers[key] = fibers.get(key, 0) + 1
    return fibers


class TestContractionType:
    def test_rejects_odd_vertex_count(self):
        with pytest.raises(ValueError):
            to_map(Contraction(2, 1, (2, 1), (1, 4, 2)))

    def test_rejects_non_involution_photons(self):
        w = Contraction(1, 2, (1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            to_map(w)

    @pytest.mark.parametrize(
        "w, message",
        [
            # (2, 1) is an involution on two vertices, but there are four
            (Contraction(0, 4, (2, 1), (1, 2, 3, 4)),
             "photon matching must cover exactly 4 vertices"),
            (Contraction(1, 2, (2, 1), (1, 2)), "expected 3 electron targets"),
            (Contraction(1, 2, (2, 1), (1, 1, 3)),
             "electron targets must form a bijection onto the in-slots"),
        ],
    )
    def test_malformed_contraction_is_named(self, w, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            to_map(w)


    @pytest.mark.parametrize("convert", [to_map, contraction_to_json])
    @pytest.mark.parametrize(
        "w, message",
        [
            (Contraction(1.5, 2, (2, 1), (1, 2, 3)),
             "need an even vertex count and non-negative external count"),
            (Contraction(True, 2, (2, 1), (1, 2, 3)),
             "need an even vertex count and non-negative external count"),
            (Contraction(1, 2.0, (2, 1), (1, 2, 3)),
             "need an even vertex count and non-negative external count"),
            (Contraction(1, 2, (2.0, 1), (1, 2, 3)),
             "photon matching must be a fixed-point-free involution"),
            (Contraction(1, 2, (2, True), (1, 2, 3)),
             "photon matching must be a fixed-point-free involution"),
            (Contraction(1, 2, (2, 1), (1, 2, "ket1")),
             "electron targets must form a bijection onto the in-slots"),
            (Contraction(1, 2, (2, 1), (1, 2, 3.0)),
             "electron targets must form a bijection onto the in-slots"),
            (Contraction(1, 2, (2, 1), (True, 2, 3)),
             "electron targets must form a bijection onto the in-slots"),
            # not tuples, so rejected before any ``len`` or indexing
            (Contraction(1, 2, 5, (1, 2, 3)),
             "photon matching must be a fixed-point-free involution"),
            (Contraction(1, 2, [2, 1], [1, 2, 3]),
             "photon matching must be a fixed-point-free involution"),
            (Contraction(1, 2, (2, 1), None),
             "electron targets must form a bijection onto the in-slots"),
            (Contraction(1, 0, (), 7),
             "electron targets must form a bijection onto the in-slots"),
        ],
        ids=[
            "float-external", "bool-external", "float-vertices", "float-photon",
            "bool-photon", "string-target", "float-target", "bool-target",
            "int-photon", "list-photon", "none-targets", "int-targets",
        ],
    )
    def test_non_integer_entry_is_named(self, convert, w, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convert(w)


class TestEnumeration:
    @pytest.mark.parametrize(
        "n_external,edges",
        [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)],
    )
    def test_cardinality(self, n_external, edges):
        expected = factorial(2 * edges + n_external) * double_factorial_odd(
            2 * edges - 1
        )
        assert sum(1 for _ in enumerate_contractions(n_external, edges)) == expected

    def test_photon_matchings_in_documented_order(self):
        # the smallest unmatched point is paired next, partners in increasing order
        assert list(fixed_point_free_involutions(6)) == [
            (2, 1, 4, 3, 6, 5), (2, 1, 5, 6, 3, 4), (2, 1, 6, 5, 4, 3),
            (3, 4, 1, 2, 6, 5), (3, 5, 1, 6, 2, 4), (3, 6, 1, 5, 4, 2),
            (4, 3, 2, 1, 6, 5), (4, 5, 6, 1, 2, 3), (4, 6, 5, 1, 3, 2),
            (5, 3, 2, 6, 1, 4), (5, 4, 6, 2, 1, 3), (5, 6, 4, 3, 1, 2),
            (6, 3, 2, 5, 4, 1), (6, 4, 5, 2, 3, 1), (6, 5, 4, 3, 2, 1),
        ]
        for n in range(0, 11, 2):
            assert sum(1 for _ in fixed_point_free_involutions(n)) == double_factorial_odd(n - 1)
            assert next(fixed_point_free_involutions(n)) == standard_pairing(n)  # (1 2)(3 4)…

    def test_no_duplicates(self):
        seen = set(enumerate_contractions(1, 1))
        assert len(seen) == 6

    def test_bound_checked_before_iteration(self):
        with pytest.raises(BoundExceededError):
            enumerate_contractions(1, (MAX_SLOTS + 1) // 2)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            enumerate_contractions(-1, 1)
        with pytest.raises(ValueError):
            enumerate_contractions(1, -1)


class TestConnectivity:
    def test_loop_contraction_connected(self):
        assert connected(LOOP_CONTRACTION)

    def test_two_straight_external_lines_disconnected(self):
        assert not connected(Contraction(2, 0, (), (1, 2)))

    def test_two_crossed_external_lines_disconnected(self):
        assert not connected(Contraction(2, 0, (), (2, 1)))

    def test_external_line_beside_vacuum_loop_disconnected(self):
        # bra1 -> ket1 directly while the two vertices pair off on their own
        w = Contraction(1, 2, (2, 1), (3, 2, 1))
        assert not connected(w)
        with pytest.raises(ValueError, match="requires a connected contraction"):
            to_map(w)

    def test_bare_external_line_connected(self):
        assert connected(Contraction(1, 0, (), (1,)))

    def test_crossed_but_photon_joined_is_connected(self):
        w = Contraction(2, 2, (2, 1), (1, 2, 4, 3))
        assert connected(w)
        assert not aligned(w)
        with pytest.raises(ValueError, match="terminates at ket 2"):
            to_map(w)


class TestChainsAndAlignment:
    def test_loop_chain(self):
        assert chains(LOOP_CONTRACTION) == [((1, 2), 1)]

    def test_line_chain(self):
        assert chains(LINE_CONTRACTION) == [((1,), 1)]

    def test_crossed_chains(self):
        assert chains(Contraction(2, 0, (), (2, 1))) == [((), 2), ((), 1)]

    def test_alignment(self):
        assert aligned(LOOP_CONTRACTION)
        assert aligned(Contraction(2, 0, (), (1, 2)))
        assert not aligned(Contraction(2, 0, (), (2, 1)))


class TestLoopCount:
    """A connected diagram has e − N + 1 independent cycles: the paper's loop number."""

    def test_loop_contraction(self):
        assert components(LOOP_CONTRACTION) == (1, 1)

    def test_line_contraction(self):
        assert components(LINE_CONTRACTION) == (1, 1)

    def test_bare_external_line(self):
        assert components(Contraction(1, 0, (), (1,))) == (1, 0)

    def test_example_map_contraction(self):
        from nrooted.ribbon import map_from_json

        w = from_map(map_from_json(EXAMPLE_MAP_JSON))
        assert components(w) == (1, 4)  # e - N + 1 = 6 - 3 + 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="requires a connected contraction"):
            to_map(Contraction(2, 0, (), (1, 2)))


class TestToMap:
    def test_loop(self):
        assert to_map(LOOP_CONTRACTION) == RootedMap(2, (2, 1), (2, 1), (1,))

    def test_line(self):
        assert to_map(LINE_CONTRACTION) == RootedMap(2, (2, 1), (1, 2), (1,))

    def test_bare_external_line_is_the_point_map(self):
        assert to_map(Contraction(1, 0, (), (1,))) == point_map()

    def test_crossed_chains_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            to_map(Contraction(2, 2, (2, 1), (1, 2, 4, 3)))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            to_map(Contraction(1, 2, (2, 1), (3, 2, 1)))

    def test_no_external_lines_rejected(self):
        with pytest.raises(ValueError):
            to_map(Contraction(0, 2, (2, 1), (2, 1)))

    @pytest.mark.parametrize("convert", [to_map, contraction_to_json])
    @pytest.mark.parametrize("photon", [(5, 1), (2,)], ids=["image-past-the-end", "too-short"])
    def test_photon_image_out_of_range_is_named(self, convert, photon):
        message = "^photon matching must be a fixed-point-free involution$"
        with pytest.raises(ValueError, match=message):
            convert(Contraction(1, 2, photon, (1, 2, 3)))


class TestFromMap:
    def test_point(self):
        assert from_map(point_map()) == Contraction(1, 0, (), (1,))

    def test_round_trip_is_exact_on_small_maps(self):
        assert to_map(from_map(to_map(LOOP_CONTRACTION))) == to_map(LOOP_CONTRACTION)
        assert to_map(from_map(to_map(LINE_CONTRACTION))) == to_map(LINE_CONTRACTION)

    def test_round_trip_example_map(self):
        from nrooted.ribbon import map_from_json

        m = map_from_json(EXAMPLE_MAP_JSON)
        assert to_map(from_map(m)) == m

    def test_round_trip_all_enumerated(self):
        for n_roots, edges in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
            for m in enumerate_maps(n_roots, edges):
                w = from_map(m)
                assert aligned(w) and connected(w)
                assert to_map(w) == m


def chain_walk_from_map(m: RootedMap) -> Contraction:
    """Reference for from_map: walk each root's σ-cycle into its chain."""
    if m.is_point:
        return Contraction(1, 0, (), (1,))
    n, big_n = m.half_edges, len(m.roots)
    targets = [0] * (big_n + n)
    in_root_cycle = [False] * (n + 1)
    for k, r in enumerate(m.roots, start=1):
        cyc = [r]
        h = m.sigma[r - 1]
        while h != r:
            cyc.append(h)
            h = m.sigma[h - 1]
        targets[k - 1] = r
        for i, v in enumerate(cyc):
            targets[big_n + v - 1] = cyc[i + 1] if i + 1 < len(cyc) else n + k
            in_root_cycle[v] = True
    for cyc in cycles_of(m.sigma):
        if not in_root_cycle[cyc[0]]:
            for i, v in enumerate(cyc):
                targets[big_n + v - 1] = cyc[(i + 1) % len(cyc)]
    return Contraction(big_n, n, m.alpha, tuple(targets))


def chain_walk_build_map(photon, targets) -> RootedMap:
    """Reference for _build_map: close each chain's last vertex onto its first."""
    if not photon:
        return point_map()
    n = len(photon)
    paths = [path for path, _ in chains(Contraction(len(targets) - n, n, photon, targets))]
    sigma = list(targets[len(paths):])
    for path in paths:
        sigma[path[-1] - 1] = path[0]
    return RootedMap(n, photon, tuple(sigma), tuple(path[0] for path in paths))


class TestSubstitutionMatchesChainWalk:
    """The bijection as one substitution agrees with walking every chain."""

    @staticmethod
    def check_from_map(m: RootedMap) -> None:
        w = from_map(m)
        assert w == chain_walk_from_map(m)
        assert to_map(w) == m

    def test_point_map(self):
        self.check_from_map(point_map())

    @pytest.mark.parametrize(
        "n_roots,edges", [(n, e) for n in range(1, 4) for e in range(3)]
    )
    def test_from_map_on_every_relabeling(self, n_roots, edges):
        for m in enumerate_maps(n_roots, edges):
            for rho in itertools.permutations(range(1, 2 * edges + 1)):
                self.check_from_map(relabel(m, rho))

    @pytest.mark.parametrize("n_roots", [1, 2, 3])
    def test_from_map_on_seeded_relabelings(self, n_roots):
        rng = random.Random(n_roots)
        for m in enumerate_maps(n_roots, 3):
            for _ in range(50):
                self.check_from_map(relabel(m, tuple(rng.sample(range(1, 7), 6))))

    @pytest.mark.parametrize(
        "n_external,edges",
        [(n, e) for e in range(4) for n in range(1, 8 - 2 * e)],
    )
    def test_build_map_on_one_matching(self, n_external, edges):
        n = 2 * edges
        photon = standard_pairing(n)
        for targets in _aligned_connected_targets(n_external, n, photon):
            m = _build_map(photon, targets)
            assert m == chain_walk_build_map(photon, targets)
            assert from_map(m) == Contraction(n_external, n, photon, targets)
            assert to_map(from_map(m)) == m


class TestCounting:
    @pytest.mark.parametrize(
        "n_external,edges,expected",
        [(1, 0, 1), (2, 0, 0), (1, 1, 2), (1, 2, 10), (2, 1, 1), (2, 2, 13)],
    )
    def test_connected_class_counts(self, n_external, edges, expected):
        assert count_connected_classes(n_external, edges) == expected
        assert count_connected_classes(n_external, edges) == m_count(n_external, edges)

    def test_zero_external_rejected(self):
        with pytest.raises(ValueError):
            count_connected_classes(0, 1)

    def test_indivisible_total_is_a_consistency_error(self, monkeypatch):
        # one contraction per photon matching: 3 for e = 2, against 4! = 24
        monkeypatch.setattr(nrooted.wick, "_aligned_connected_targets", lambda *args: [()])
        with pytest.raises(
            ConsistencyError,
            match=r"aligned connected total 3 is not divisible by \(2e\)! = 24",
        ):
            count_connected_classes(1, 2)

    @pytest.mark.parametrize(
        "n_external,edges", [(n, e) for e in range(4) for n in range(1, 8 - 2 * e)]
    )
    def test_every_matching_has_the_same_share(self, n_external, edges):
        # all photon matchings are conjugate; both oracles scan only the first
        n = 2 * edges
        per_matching = [
            sum(1 for _ in _aligned_connected_targets(n_external, n, matching))
            for matching in fixed_point_free_involutions(n)
        ]
        share = 2**edges * factorial(edges) * m_count(n_external, edges)
        assert set(per_matching) == {share}
        assert sum(per_matching) == factorial(n) * count_connected_classes(n_external, edges)

    @pytest.mark.parametrize(
        "n_external,edges",
        [(n, e) for e in (1, 2) for n in range(2 * e + 1, MAX_SLOTS - 2 * e + 1)],
    )
    def test_more_external_lines_than_vertices_count_none(self, n_external, edges, monkeypatch):
        # a chain through no vertex is a component of its own, on every matching
        n = 2 * edges
        matching = next(fixed_point_free_involutions(n))
        targets = itertools.permutations(range(1, n + n_external + 1))
        assert not any(
            nrooted.wick._aligned_connected(n_external, n, matching, t) for t in targets
        )
        monkeypatch.setattr(nrooted.wick, "_aligned_connected", None)  # the scan tests none
        assert count_connected_classes(n_external, edges) == 0
        assert bijection_class_multiset(n_external, edges) == {}

    @pytest.mark.parametrize(
        "n_external,edges,expected",
        [(1, 0, 1), (1, 1, 3), (0, 2, 3), (2, 1, 12)],
    )
    def test_weighted_totals(self, n_external, edges, expected):
        assert total_weighted_classes(n_external, edges) == expected

    def test_weighted_totals_match_series_coefficients(self):
        for n_external in range(3):
            for edges in range(3):
                assert total_weighted_classes(n_external, edges) == z_series(
                    n_external, 2 * edges
                ).coefficient(2 * edges)

    def test_weighted_total_is_exact_fraction(self):
        value = total_weighted_classes(1, 2)
        assert isinstance(value, Fraction)
        assert value.denominator == 1


def relabel_contraction(w: Contraction, rho: tuple[int, ...]) -> Contraction:
    """Apply a vertex relabeling; externals and kets stay put."""
    n, v = w.n_external, w.n_vertices

    def move(t: int) -> int:
        return rho[t - 1] if t <= v else t

    photon = [0] * v
    for i in range(1, v + 1):
        photon[rho[i - 1] - 1] = rho[w.photon[i - 1] - 1]
    targets = [0] * (n + v)
    for k in range(1, n + 1):
        targets[k - 1] = move(w.targets[k - 1])
    for i in range(1, v + 1):
        targets[n + rho[i - 1] - 1] = move(w.targets[n + i - 1])
    return Contraction(n, v, tuple(photon), tuple(targets))


class TestBijection:
    @pytest.mark.parametrize("n_external,edges", [(1, 1), (1, 2), (2, 1), (2, 3)])
    def test_fibers_have_size_exactly_vertex_factorial(self, n_external, edges):
        multiset = bijection_class_multiset(n_external, edges)
        assert all(c == factorial(2 * edges) for c in multiset.values())
        assert set(multiset) == set(enumerate_maps(n_external, edges))

    @pytest.mark.parametrize(
        "n_external,edges", [(n, e) for e in range(4) for n in range(1, 8 - 2 * e)]
    )
    def test_one_matching_equals_the_full_stream(self, n_external, edges):
        assert bijection_class_multiset(n_external, edges) == full_stream_fibers(
            n_external, edges
        )

    @pytest.mark.parametrize("n_external,edges", [(1, 1), (1, 2), (2, 1)])
    def test_fiber_equals_vertex_relabeling_orbit(self, n_external, edges):
        fibers: dict[RootedMap, set[Contraction]] = {}
        for w in enumerate_contractions(n_external, edges):
            if connected(w) and aligned(w):
                fibers.setdefault(canonical_form(to_map(w)), set()).add(w)
        for members in fibers.values():
            seed = next(iter(members))
            orbit = {
                relabel_contraction(seed, rho)
                for rho in itertools.permutations(range(1, 2 * edges + 1))
            }
            assert orbit == members

    @pytest.mark.parametrize("n_external,edges", [(2, 1), (2, 2), (3, 2)])
    def test_free_ket_connected_count(self, n_external, edges):
        free = sum(1 for w in enumerate_contractions(n_external, edges) if connected(w))
        kept = sum(
            1
            for w in enumerate_contractions(n_external, edges)
            if connected(w) and aligned(w)
        )
        assert free == factorial(n_external) * kept


class TestOneFilter:
    """Both oracles share one aligned-connected scan and validate each map once."""

    @pytest.mark.parametrize("n_external,edges", [(1, 2), (2, 2), (3, 1)])
    def test_filter_matches_public_predicates(self, n_external, edges):
        from nrooted.wick import _aligned_connected

        for w in enumerate_contractions(n_external, edges):
            expected = aligned(w) and connected(w)
            got = _aligned_connected(n_external, 2 * edges, w.photon, w.targets)
            assert got == expected

    @pytest.mark.parametrize("n_external,edges", [(2, 1), (1, 2)])
    def test_stream_validates_each_accepted_map_once(
        self, monkeypatch, n_external, edges
    ):
        import nrooted.ribbon

        calls = {"validate": 0, "check": 0}
        validate, check = nrooted.ribbon.validate, nrooted.wick._check_contraction

        def counted_validate(m):
            calls["validate"] += 1
            return validate(m)

        def counted_check(w):
            calls["check"] += 1
            return check(w)

        monkeypatch.setattr(nrooted.ribbon, "validate", counted_validate)
        monkeypatch.setattr(nrooted.wick, "validate", counted_validate)
        monkeypatch.setattr(nrooted.wick, "_check_contraction", counted_check)
        fibers = bijection_class_multiset(n_external, edges)
        assert sum(fibers.values()) == m_count(n_external, edges) * factorial(2 * edges)
        # one matching: each class's 2^e·e! contractions on it
        on_one_matching = m_count(n_external, edges) * 2**edges * factorial(edges)
        assert calls == {"validate": on_one_matching, "check": 0}

    def test_invalid_built_map_is_a_consistency_failure(self, monkeypatch):
        fixed_point_pairing = RootedMap(2, (1, 2), (2, 1), (1,))
        monkeypatch.setattr(
            nrooted.wick, "_build_map", lambda *args: fixed_point_pairing
        )
        with pytest.raises(ConsistencyError, match="not fixed-point-free"):
            bijection_class_multiset(1, 1)

    def test_rootless_stream_rejected(self):
        with pytest.raises(ValueError):
            bijection_class_multiset(0, 1)


class TestSerialization:
    def test_json_shape(self):
        data = contraction_to_json(LOOP_CONTRACTION)
        assert data == {
            "n_external": 1,
            "n_vertices": 2,
            "photon_pairs": [[1, 2]],
            "electron_targets": [1, 2, "ket1"],
        }

    def test_round_trip(self):
        ten_kets = Contraction(10, 0, (), tuple(range(10, 0, -1)))
        for w in [LOOP_CONTRACTION, LINE_CONTRACTION, Contraction(2, 0, (), (2, 1)), ten_kets]:
            assert contraction_from_json(contraction_to_json(w)) == w

    def test_round_trip_via_text(self):
        text = json.dumps(contraction_to_json(LOOP_CONTRACTION))
        assert contraction_from_json(json.loads(text)) == LOOP_CONTRACTION

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("photon_pairs"),
            lambda d: d.update(extra=0),
            lambda d: d.update(photon_pairs=[[1, 1]]),
            lambda d: d.update(photon_pairs=[[1, 2], [1, 2]]),
            lambda d: d.update(electron_targets=[1, 2]),
            lambda d: d.update(electron_targets=[1, 2, "ket2"]),
            lambda d: d.update(electron_targets=[1, 2, "ket0"]),
            lambda d: d.update(electron_targets=[1, 2, "bogus"]),
            lambda d: d.update(electron_targets=[9, 2, "ket1"]),
            # JSON booleans are not integers, although bool subclasses int.
            lambda d: d.update(electron_targets=[True, 2, "ket1"]),
            lambda d: d.update(photon_pairs=[[True, 2]]),
            lambda d: d.update(n_external=True),
            lambda d: d.update(
                n_vertices=False, photon_pairs=[], electron_targets=["ket1"]
            ),
            lambda d: d.update(electron_targets=[1, 2, "ket-1"]),
        ],
    )
    def test_malformed_rejected(self, mutate):
        data = contraction_to_json(LOOP_CONTRACTION)
        mutate(data)
        with pytest.raises(ValueError):
            contraction_from_json(data)

    # ``int()`` reads each of these as a ket number; none is written "ketK".
    @pytest.mark.parametrize("label", NON_CANONICAL_KETS)
    def test_non_canonical_ket_label_rejected(self, label):
        data = contraction_to_json(Contraction(10, 0, (), tuple(range(1, 11))))
        data["electron_targets"][0] = label
        with pytest.raises(ValueError, match="^electron_targets: malformed ket label"):
            contraction_from_json(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "contraction JSON must be an object"),
            ({"photon_pairs": [[1, 2, 3]]}, "photon_pairs: expected a list of [a, b] pairs"),
            ({"photon_pairs": [[1, 2], 3]}, "photon_pairs: expected a list of [a, b] pairs"),
            ({"photon_pairs": {}}, "photon_pairs: expected a list of [a, b] pairs"),
            ({"n_vertices": 4, "photon_pairs": [[1, 2]]},
             "photon_pairs: every vertex must be matched"),
            # each entry parses on its own; only the whole list is not a bijection
            ({"electron_targets": [1, 1, "ket1"]},
             "electron targets must form a bijection onto the in-slots"),
            ({"loops": 1}, "contraction JSON has unknown keys: ['loops']"),
        ],
    )
    def test_malformed_document_is_named(self, data, message):
        if isinstance(data, dict):
            data = {**contraction_to_json(LOOP_CONTRACTION), **data}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            contraction_from_json(data)

    def test_missing_keys_are_named(self):
        message = r"^contraction JSON missing keys: \['electron_targets', 'photon_pairs'\]$"
        with pytest.raises(ValueError, match=message):
            contraction_from_json({"n_external": 1, "n_vertices": 2})
