"""Labeled-contraction oracle: streaming, connectivity, and the map bijection."""

import json
from fractions import Fraction

import pytest

import nrooted.wick
from nrooted.errors import BoundExceededError, ConsistencyError
from nrooted.qft import m_count, z_series
from nrooted.ribbon import RootedMap, canonical_form, enumerate_maps, point_map
from nrooted.wick import (
    MAX_SLOTS,
    Contraction,
    bijection_class_multiset,
    contraction_from_json,
    contraction_to_dot,
    contraction_to_json,
    count_connected_classes,
    enumerate_contractions,
    external_chains,
    from_map,
    is_aligned,
    is_connected,
    loop_count,
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


class TestContractionType:
    def test_accessors(self):
        w = LOOP_CONTRACTION
        assert w.photon_pairs() == [(1, 2)]
        assert w.target_of_bra(1) == 1
        assert w.target_of_vertex(1) == 2
        assert w.target_of_vertex(2) == 3  # ket 1

    def test_rejects_odd_vertex_count(self):
        with pytest.raises(ValueError):
            external_chains(Contraction(2, 1, (2, 1), (1, 4, 2)))

    def test_rejects_non_involution_photons(self):
        w = Contraction(1, 2, (1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            external_chains(w)


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
        assert is_connected(LOOP_CONTRACTION)

    def test_two_straight_external_lines_disconnected(self):
        assert not is_connected(Contraction(2, 0, (), (1, 2)))

    def test_two_crossed_external_lines_disconnected(self):
        assert not is_connected(Contraction(2, 0, (), (2, 1)))

    def test_external_line_beside_vacuum_loop_disconnected(self):
        # bra1 -> ket1 directly while the two vertices pair off on their own
        w = Contraction(1, 2, (2, 1), (3, 2, 1))
        assert not is_connected(w)

    def test_bare_external_line_connected(self):
        assert is_connected(Contraction(1, 0, (), (1,)))

    def test_crossed_but_photon_joined_is_connected(self):
        w = Contraction(2, 2, (2, 1), (1, 2, 4, 3))
        assert is_connected(w)
        assert not is_aligned(w)


class TestChainsAndAlignment:
    def test_loop_chain(self):
        assert external_chains(LOOP_CONTRACTION) == [((1, 2), 1)]

    def test_line_chain(self):
        assert external_chains(LINE_CONTRACTION) == [((1,), 1)]

    def test_crossed_chains(self):
        assert external_chains(Contraction(2, 0, (), (2, 1))) == [((), 2), ((), 1)]

    def test_alignment(self):
        assert is_aligned(LOOP_CONTRACTION)
        assert is_aligned(Contraction(2, 0, (), (1, 2)))
        assert not is_aligned(Contraction(2, 0, (), (2, 1)))


class TestLoopCount:
    def test_loop_contraction(self):
        assert loop_count(LOOP_CONTRACTION) == 1

    def test_line_contraction(self):
        assert loop_count(LINE_CONTRACTION) == 1

    def test_bare_external_line(self):
        assert loop_count(Contraction(1, 0, (), (1,))) == 0

    def test_example_map_contraction(self):
        from nrooted.ribbon import map_from_json

        w = from_map(map_from_json(EXAMPLE_MAP_JSON))
        assert loop_count(w) == 4  # e - N + 1 = 6 - 3 + 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            loop_count(Contraction(2, 0, (), (1, 2)))

    def test_wrong_cycle_count_is_a_consistency_error(self, monkeypatch):
        monkeypatch.setattr(nrooted.wick, "_components", lambda *args: (1, 2))
        with pytest.raises(
            ConsistencyError,
            match=r"diagram has 2 independent cycles, expected e − N \+ 1 = 1",
        ):
            loop_count(LOOP_CONTRACTION)


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
                assert is_aligned(w) and is_connected(w)
                assert to_map(w) == m


class TestCounting:
    @pytest.mark.parametrize(
        "n_external,edges,expected",
        [(1, 0, 1), (2, 0, 0), (1, 1, 2), (1, 2, 10), (2, 1, 1), (2, 2, 13)],
    )
    def test_connected_class_counts(self, n_external, edges, expected):
        assert count_connected_classes(n_external, edges) == expected
        assert count_connected_classes(n_external, edges) == m_count(n_external, edges)

    def test_parallel_workers_agree(self):
        assert count_connected_classes(1, 2, workers=2) == 10
        assert count_connected_classes(2, 2, workers=3) == 13

    def test_zero_external_rejected(self):
        with pytest.raises(ValueError):
            count_connected_classes(0, 1)

    def test_indivisible_total_is_a_consistency_error(self, monkeypatch):
        # one contraction per photon matching: 3 for e = 2, against 4! = 24
        monkeypatch.setattr(nrooted.wick, "_count_for_matching", lambda args: 1)
        with pytest.raises(
            ConsistencyError,
            match=r"aligned connected total 3 is not divisible by \(2e\)! = 24",
        ):
            count_connected_classes(1, 2)

    @staticmethod
    def record_pool_sizes(monkeypatch) -> list:
        """Replace ``multiprocessing.Pool``; the returned list gets each requested size."""
        sizes = []

        class RecordingPool:
            """Records the requested size and maps in-process; starts nothing."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
        return sizes

    @pytest.mark.parametrize(
        "cpus,pool_sizes",
        [(64, [3]), (2, [2]), (None, [])],  # (1, 2) has 3 photon matchings
    )
    def test_worker_count_is_clamped(self, monkeypatch, cpus, pool_sizes):
        # cpus is the affinity mask's size (None: a one-CPU mask); os.cpu_count
        # also counts the CPUs outside the mask
        sizes = self.record_pool_sizes(monkeypatch)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus or 1)))
        monkeypatch.setattr("os.cpu_count", lambda: 1024)
        assert count_connected_classes(1, 2, workers=10**6) == 10
        assert sizes == pool_sizes

    @pytest.mark.parametrize("cpus,pool_sizes", [(2, [2]), (None, [])])
    def test_cpu_count_caps_without_an_affinity_mask(self, monkeypatch, cpus, pool_sizes):
        sizes = self.record_pool_sizes(monkeypatch)
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert count_connected_classes(1, 2, workers=10**6) == 10
        assert sizes == pool_sizes

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="at least 1"):
            count_connected_classes(1, 1, workers=workers)

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
    @pytest.mark.parametrize("n_external,edges", [(1, 1), (1, 2), (2, 1)])
    def test_fibers_have_size_exactly_vertex_factorial(self, n_external, edges):
        multiset = bijection_class_multiset(n_external, edges)
        assert all(c == factorial(2 * edges) for c in multiset.values())
        assert set(multiset) == set(enumerate_maps(n_external, edges))

    @pytest.mark.parametrize("n_external,edges", [(1, 1), (1, 2), (2, 1)])
    def test_fiber_equals_vertex_relabeling_orbit(self, n_external, edges):
        import itertools

        fibers: dict[RootedMap, set[Contraction]] = {}
        for w in enumerate_contractions(n_external, edges):
            if is_connected(w) and is_aligned(w):
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
        free = sum(1 for w in enumerate_contractions(n_external, edges) if is_connected(w))
        aligned = sum(
            1
            for w in enumerate_contractions(n_external, edges)
            if is_connected(w) and is_aligned(w)
        )
        assert free == factorial(n_external) * aligned


class TestOneFilter:
    """Both oracles share one aligned-connected filter and validate each map once."""

    @pytest.mark.parametrize("n_external,edges", [(1, 2), (2, 2), (3, 1)])
    def test_filter_matches_public_predicates(self, n_external, edges):
        from nrooted.wick import _aligned_connected

        for w in enumerate_contractions(n_external, edges):
            expected = is_aligned(w) and is_connected(w)
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
        accepted = sum(fibers.values())
        assert accepted == m_count(n_external, edges) * factorial(2 * edges)
        assert calls == {"validate": accepted, "check": 0}

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

    def test_dot_snapshot(self):
        assert contraction_to_dot(LOOP_CONTRACTION) == (
            "digraph contraction {\n"
            "  ext1 [shape=plaintext];\n"
            "  v1 [shape=circle];\n"
            "  v2 [shape=circle];\n"
            "  ext1 -> v1;\n"
            "  v1 -> v2;\n"
            "  v2 -> ext1;\n"
            "  v1 -> v2 [style=dashed, dir=none];\n"
            "}"
        )
