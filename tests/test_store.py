"""Store graph, shortest paths, exposure counting and traffic density."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_simple_paths, graph_adjacency, line_store
from storelayout.errors import InputError, ModelError
from storelayout.store import (
    MODE_LOCATION,
    MODE_SUBLOCATION,
    Edge,
    Location,
    Node,
    StoreGraph,
    Sublocation,
    accumulate_traffic,
    build_exposure_matrices,
    _single_source_paths,
    path_exposure,
    shortest_path,
    shortest_path_length,
)


def tiny_graph(nodes, edges, entrance, exit_node, subs=(), locs=()):
    if not subs:
        node0 = nodes[0].node_id
        subs = (
            Sublocation("s1", "L1", node0, frozenset({node0})),
        )
        locs = (Location("L1", "aisle", node0, ("s1",)),)
    return StoreGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        sublocations=tuple(subs),
        locations=tuple(locs),
        entrance_node=entrance,
        exit_node=exit_node,
    )


def random_connected_graph(rng: Random, n: int) -> StoreGraph:
    """Random tree plus a few chords, with random positive lengths."""
    nodes = [Node(f"n{i}", float(i), 0.0) for i in range(n)]
    edges = []
    seen_pairs = set()
    for i in range(1, n):
        j = rng.randrange(0, i)
        edges.append(Edge(f"n{i}", f"n{j}", round(rng.uniform(0.5, 3.0), 2)))
        seen_pairs.add((min(i, j), max(i, j)))
    for _ in range(n // 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or (min(i, j), max(i, j)) in seen_pairs:
            continue
        seen_pairs.add((min(i, j), max(i, j)))
        edges.append(Edge(f"n{i}", f"n{j}", round(rng.uniform(0.5, 3.0), 2)))
    return tiny_graph(nodes, edges, "n0", f"n{n - 1}")


class TestShortestPath:
    def test_line_graph_unique_path(self):
        g = line_store(1)
        assert shortest_path(g, "n00", "n02") == ["n00", "n01", "n02"]

    def test_node_to_itself(self):
        g = line_store(1)
        assert shortest_path(g, "n01", "n01") == ["n01"]

    def test_cycle_prefers_shorter_way_around(self):
        nodes = [Node(f"n{i}", float(i), 0.0) for i in range(4)]
        edges = [
            Edge("n0", "n1", 1.0),
            Edge("n1", "n2", 1.0),
            Edge("n2", "n3", 1.0),
            Edge("n0", "n3", 5.0),
        ]
        g = tiny_graph(nodes, edges, "n0", "n3")
        assert shortest_path(g, "n0", "n3") == ["n0", "n1", "n2", "n3"]

    def test_tie_breaks_lexicographically(self):
        # Two equal-length routes a->b->d and a->c->d; the node-id
        # lexicographic rule must pick the b route.
        nodes = [Node(x, 0.0, 0.0) for x in ("a", "b", "c", "d")]
        edges = [
            Edge("a", "b", 1.0),
            Edge("a", "c", 1.0),
            Edge("b", "d", 1.0),
            Edge("c", "d", 1.0),
        ]
        subs = (Sublocation("s1", "L1", "a", frozenset({"a"})),)
        locs = (Location("L1", "aisle", "a", ("s1",)),)
        g = tiny_graph(nodes, edges, "a", "d", subs, locs)
        assert shortest_path(g, "a", "d") == ["a", "b", "d"]
        assert shortest_path(g, "d", "a") == ["d", "b", "a"]

    def test_unknown_node_rejected(self):
        g = line_store(1)
        with pytest.raises(InputError):
            shortest_path(g, "n00", "nope")

    def test_matches_exhaustive_enumeration(self):
        rng = Random(7)
        for trial in range(30):
            n = rng.randrange(4, 11)
            g = random_connected_graph(rng, n)
            adj = graph_adjacency(g)
            ids = [node.node_id for node in g.nodes]
            for _ in range(6):
                a, b = rng.choice(ids), rng.choice(ids)
                got = shortest_path(g, a, b)
                enumerated = all_simple_paths(adj, a, b)
                best_len = min(length for _, length in enumerated)
                got_len = shortest_path_length(g, a, b)
                assert got_len == pytest.approx(best_len, abs=1e-9)
                # among all optimal paths, ties break to the smallest sequence
                optimal = sorted(
                    tuple(p) for p, length in enumerated if abs(length - best_len) < 1e-9
                )
                assert tuple(got) == optimal[0]

    def test_triangle_inequality(self):
        rng = Random(3)
        g = random_connected_graph(rng, 8)
        ids = [node.node_id for node in g.nodes]
        for a in ids:
            for b in ids:
                for c in ids:
                    ab = shortest_path_length(g, a, b)
                    bc = shortest_path_length(g, b, c)
                    ac = shortest_path_length(g, a, c)
                    assert ac <= ab + bc + 1e-9

    def test_repeated_calls_identical(self):
        rng = Random(11)
        g = random_connected_graph(rng, 9)
        pairs = [("n0", "n8"), ("n3", "n5"), ("n8", "n1")]
        first = [shortest_path(g, a, b) for a, b in pairs]
        second = [shortest_path(g, a, b) for a, b in pairs]
        assert first == second


class TestPathExposure:
    def test_counts_faced_sublocations_on_line(self):
        g = line_store(3)
        path = ["n00", "n01", "n02", "n03"]
        assert path_exposure(g, path, MODE_SUBLOCATION) == 3

    def test_single_unfaced_node(self):
        g = line_store(3)
        assert path_exposure(g, ["n00"], MODE_SUBLOCATION) == 0

    def test_location_mode_counts_whole_location(self):
        # s1,s2 grouped in L1; s3 alone in L2; seeing s1 exposes both of L1.
        g = line_store(3, group_sizes=(2, 1))
        assert path_exposure(g, ["n00", "n01"], MODE_LOCATION) == 2
        assert path_exposure(g, ["n00", "n01"], MODE_SUBLOCATION) == 1

    def test_location_dominates_sublocation_everywhere(self):
        rng = Random(5)
        g = line_store(6, group_sizes=(3, 2, 1))
        ids = [n.node_id for n in g.nodes]
        for _ in range(40):
            a, b = rng.choice(ids), rng.choice(ids)
            path = shortest_path(g, a, b)
            assert path_exposure(g, path, MODE_LOCATION) >= path_exposure(
                g, path, MODE_SUBLOCATION
            )

    def test_multi_facing_sublocation_counts_once(self):
        nodes = [Node(f"n{i}", float(i), 0.0) for i in range(4)]
        edges = [Edge(f"n{i}", f"n{i + 1}", 1.0) for i in range(3)]
        subs = (Sublocation("s1", "L1", "n1", frozenset({"n1", "n2"})),)
        locs = (Location("L1", "aisle", "n1", ("s1",)),)
        g = tiny_graph(nodes, edges, "n0", "n3", subs, locs)
        assert path_exposure(g, ["n0", "n1", "n2", "n3"], MODE_SUBLOCATION) == 1

    def test_rejects_unknown_node(self):
        g = line_store(2)
        with pytest.raises(InputError):
            path_exposure(g, ["n00", "bogus"], MODE_SUBLOCATION)

    def test_names_the_first_unknown_node(self):
        g = line_store(2)
        for mode in (MODE_SUBLOCATION, MODE_LOCATION):
            with pytest.raises(InputError, match="^unknown node id 'bogus' in path$"):
                path_exposure(g, ["n00", "bogus", "n01", "worse"], mode)

    def test_rejects_empty_path(self):
        g = line_store(2)
        with pytest.raises(InputError):
            path_exposure(g, [], MODE_SUBLOCATION)


def facing_store(rng: Random, n: int = 9) -> StoreGraph:
    """The random graph with sublocations that face one to three nodes each,
    centers shared by some of them, grouped into locations of random size."""
    base = random_connected_graph(rng, n)
    ids = [node.node_id for node in base.nodes]
    subs = []
    locs = []
    count = rng.randint(2, 7)
    for i in range(count):
        faced = rng.sample(ids, rng.randint(1, 3))
        subs.append([f"s{i + 1}", faced[0], frozenset(faced)])
    start = 0
    while start < count:
        members = subs[start : start + rng.randint(1, 3)]
        lid = f"L{len(locs) + 1}"
        for sub in members:
            sub.insert(1, lid)
        locs.append(Location(lid, "aisle", members[0][2], tuple(sub[0] for sub in members)))
        start += len(members)
    return StoreGraph(
        nodes=base.nodes,
        edges=base.edges,
        entrance_node=base.entrance_node,
        exit_node=base.exit_node,
        locations=tuple(locs),
        sublocations=tuple(Sublocation(*sub) for sub in subs),
    )


def reference_exposure(graph: StoreGraph, path, mode: str) -> int:
    """Shelf space passed by, read off each sublocation's own facing set."""
    on_path = set(path)
    faced = [s for s in graph.sublocations if s.facing_nodes & on_path]
    if mode == MODE_SUBLOCATION:
        return len(faced)
    parents = {s.parent_location_id for s in faced}
    return sum(len(loc.sublocation_ids) for loc in graph.locations if loc.location_id in parents)


class TestExposureMatchesSetReference:
    """The facing-mask exposure equals a count over the sublocations' facing
    sets, path by path and over every center pair."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matrices(self, seed):
        graph = facing_store(Random(seed))
        ex = build_exposure_matrices(graph)
        for axis, mode, matrix in (
            (ex.sub_axis, MODE_SUBLOCATION, ex.sub_exposure),
            (ex.loc_axis, MODE_LOCATION, ex.loc_exposure),
        ):
            centers = [graph.position_center(pid, mode) for pid in axis]
            for i, a in enumerate(centers):
                labels = _single_source_paths(graph, a)
                for j, b in enumerate(centers):
                    assert matrix[i, j] == reference_exposure(graph, labels[b][1], mode)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_path_exposure(self, seed, data):
        graph = facing_store(Random(seed))
        ids = [node.node_id for node in graph.nodes]
        path = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
        for mode in (MODE_SUBLOCATION, MODE_LOCATION):
            assert path_exposure(graph, path, mode) == reference_exposure(graph, path, mode)


class TestExposureMatrices:
    def test_axes_have_entrance_first_exit_last(self):
        g = line_store(3)
        ex = build_exposure_matrices(g)
        assert ex.sub_axis[0] == "entrance" and ex.sub_axis[-1] == "exit"
        assert ex.loc_axis[0] == "entrance" and ex.loc_axis[-1] == "exit"
        assert len(ex.sub_axis) == 5 and len(ex.loc_axis) == 5

    def test_line_store_entrance_to_last(self):
        g = line_store(3)
        ex = build_exposure_matrices(g)
        # walking entrance -> s3 passes every sublocation
        assert ex.sub_exposure[0, 3] == 3

    def test_symmetric_fixture_symmetric_matrix(self):
        g = line_store(4)
        ex = build_exposure_matrices(g)
        assert np.array_equal(ex.sub_exposure, ex.sub_exposure.T)
        assert np.array_equal(ex.sub_distance, ex.sub_distance.T)

    def test_diagonal_is_standing_exposure(self):
        g = line_store(3)
        ex = build_exposure_matrices(g)
        # standing at s1's center faces exactly s1
        assert ex.sub_exposure[1, 1] == 1
        assert ex.sub_distance[1, 1] == 0.0

    def test_location_matrix_uses_whole_location_counts(self):
        g = line_store(3, group_sizes=(2, 1))
        ex = build_exposure_matrices(g)
        # entrance -> L1 center (first sub's node) faces s1, exposing both of L1
        assert ex.loc_exposure[0, 1] == 2

    def test_matrices_integer_and_nonnegative(self):
        g = line_store(5, group_sizes=(2, 2, 1))
        ex = build_exposure_matrices(g)
        assert (ex.sub_exposure >= 0).all() and (ex.loc_exposure >= 0).all()
        assert ex.sub_exposure.dtype.kind == "i" and ex.loc_exposure.dtype.kind == "i"


class TestTrafficDensity:
    def test_zero_paths(self):
        g = line_store(2)
        density = accumulate_traffic(g, [])
        assert all(v == 0 for v in density.counts.values())
        assert density.path_count == 0

    def test_single_path(self):
        g = line_store(2)
        density = accumulate_traffic(g, [["n00", "n01", "n02"]])
        assert density.counts["n00"] == 1
        assert density.counts["n01"] == 1
        assert density.counts["n03"] == 0

    def test_shared_node_sums(self):
        g = line_store(2)
        density = accumulate_traffic(g, [["n00", "n01"], ["n01", "n02"]])
        assert density.counts["n01"] == 2

    def test_revisit_counts_twice(self):
        g = line_store(2)
        density = accumulate_traffic(g, [["n01", "n02", "n01"]])
        assert density.counts["n01"] == 2

    def test_unknown_node_rejected(self):
        g = line_store(2)
        with pytest.raises(InputError):
            accumulate_traffic(g, [["n00", "zzz"]])

    def test_names_the_first_unknown_node(self):
        g = line_store(2)
        paths = [["n00", "n01"], ["n01", "bad-b", "n00", "bad-a"], ["bad-a"]]
        with pytest.raises(InputError, match="^unknown node id 'bad-b' in path$"):
            accumulate_traffic(g, paths)

    def test_counts_keep_the_node_order(self):
        g = line_store(3)
        density = accumulate_traffic(g, [["n03", "n02", "n03"], ["n01"]])
        assert list(density.counts.items()) == [
            ("n00", 0), ("n01", 1), ("n02", 1), ("n03", 2), ("n04", 0)
        ]


class TestGraphValidation:
    def _nodes(self):
        return [Node("n0", 0.0, 0.0), Node("n1", 1.0, 0.0), Node("n2", 2.0, 0.0)]

    def test_duplicate_node_id(self):
        nodes = self._nodes() + [Node("n1", 5.0, 5.0)]
        with pytest.raises(InputError):
            tiny_graph(nodes, [Edge("n0", "n1", 1.0), Edge("n1", "n2", 1.0)], "n0", "n2")

    def test_edge_to_unknown_node(self):
        with pytest.raises(InputError):
            tiny_graph(self._nodes(), [Edge("n0", "nx", 1.0)], "n0", "n2")

    def test_nonpositive_edge_length(self):
        with pytest.raises(InputError):
            tiny_graph(
                self._nodes(),
                [Edge("n0", "n1", 0.0), Edge("n1", "n2", 1.0)],
                "n0",
                "n2",
            )

    @pytest.mark.parametrize("length", [float("inf"), float("nan")])
    def test_non_finite_edge_length(self, length):
        with pytest.raises(InputError, match="finite and positive"):
            tiny_graph(
                self._nodes(),
                [Edge("n0", "n1", length), Edge("n1", "n2", 1.0)],
                "n0",
                "n2",
            )

    def test_entrance_equals_exit(self):
        with pytest.raises(InputError):
            tiny_graph(
                self._nodes(),
                [Edge("n0", "n1", 1.0), Edge("n1", "n2", 1.0)],
                "n0",
                "n0",
            )

    def test_disconnected_graph(self):
        nodes = self._nodes() + [Node("n3", 9.0, 9.0)]
        subs = (Sublocation("s1", "L1", "n0", frozenset({"n0"})),)
        locs = (Location("L1", "aisle", "n0", ("s1",)),)
        with pytest.raises(ModelError):
            StoreGraph(
                nodes=tuple(nodes),
                edges=(Edge("n0", "n1", 1.0), Edge("n1", "n2", 1.0)),
                sublocations=subs,
                locations=locs,
                entrance_node="n0",
                exit_node="n2",
            )

    def test_center_must_be_facing(self):
        with pytest.raises(InputError):
            tiny_graph(
                self._nodes(),
                [Edge("n0", "n1", 1.0), Edge("n1", "n2", 1.0)],
                "n0",
                "n2",
                subs=(Sublocation("s1", "L1", "n0", frozenset({"n1"})),),
                locs=(Location("L1", "aisle", "n0", ("s1",)),),
            )

    def test_sublocation_outside_any_location(self):
        with pytest.raises(InputError):
            tiny_graph(
                self._nodes(),
                [Edge("n0", "n1", 1.0), Edge("n1", "n2", 1.0)],
                "n0",
                "n2",
                subs=(
                    Sublocation("s1", "L1", "n0", frozenset({"n0"})),
                    Sublocation("s2", "L9", "n1", frozenset({"n1"})),
                ),
                locs=(Location("L1", "aisle", "n0", ("s1",)),),
            )

    def test_self_loop_edge(self):
        with pytest.raises(InputError):
            tiny_graph(
                self._nodes(),
                [Edge("n0", "n0", 1.0), Edge("n0", "n1", 1.0), Edge("n1", "n2", 1.0)],
                "n0",
                "n2",
            )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=3, max_value=10))
def test_distances_form_a_metric(seed, n):
    g = random_connected_graph(Random(seed), n)
    ids = [node.node_id for node in g.nodes]
    rng = Random(seed + 1)
    for _ in range(5):
        a, b, c = rng.choice(ids), rng.choice(ids), rng.choice(ids)
        ab = shortest_path_length(g, a, b)
        assert ab == pytest.approx(shortest_path_length(g, b, a), abs=1e-9)
        assert ab <= shortest_path_length(g, a, c) + shortest_path_length(g, c, b) + 1e-9
    assert shortest_path_length(g, ids[0], ids[0]) == 0.0


def square_graph(ab: float, ac: float) -> StoreGraph:
    """a-b-d and a-c-d; the shorter side decides the a-d path."""
    nodes = [Node(x, 0.0, 0.0) for x in "abcd"]
    edges = [Edge("a", "b", ab), Edge("b", "d", 1.0), Edge("a", "c", ac), Edge("c", "d", 1.0)]
    return tiny_graph(nodes, edges, "a", "d")


class TestPathMemo:
    def test_memo_is_per_graph(self):
        left = square_graph(1.0, 2.0)
        right = square_graph(2.0, 1.0)
        for _ in range(2):
            assert shortest_path(left, "a", "d") == ["a", "b", "d"]
            assert shortest_path(right, "a", "d") == ["a", "c", "d"]
        build_exposure_matrices(left)
        assert shortest_path(right, "d", "a") == ["d", "c", "a"]
        assert shortest_path(left, "d", "a") == ["d", "b", "a"]

    def test_filled_memo_leaves_equality_and_repr(self):
        g = line_store(4, (2, 2))
        build_exposure_matrices(g)
        assert g._path_memo
        fresh = line_store(4, (2, 2))
        assert not fresh._path_memo
        assert g == fresh
        assert repr(g) == repr(fresh)

    def test_one_label_table_per_source(self):
        g = line_store(4, (2, 2))
        build_exposure_matrices(g)
        centers = {s.center_node for s in g.sublocations}
        centers |= {loc.center_node for loc in g.locations} | {g.entrance_node, g.exit_node}
        assert set(g._path_memo) == centers
        memo = dict(g._path_memo)
        for a in centers:
            for b in centers:
                shortest_path(g, a, b)
        assert g._path_memo == memo
        assert all(g._path_memo[c] is memo[c] for c in centers)

    def test_returned_path_is_a_copy(self):
        g = line_store(3)
        path = shortest_path(g, "n00", "n03")
        path.append("garbage")
        assert shortest_path(g, "n00", "n03") == ["n00", "n01", "n02", "n03"]

    def test_matches_fresh_dijkstra(self):
        rng = Random(19)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randrange(4, 12))
            ids = [node.node_id for node in g.nodes]
            for a in ids:
                fresh = _single_source_paths(g, a)
                for b in ids:
                    assert shortest_path(g, a, b) == list(fresh[b][1])

    def test_exposure_independent_of_memo_state(self):
        rng = Random(23)
        warm = random_connected_graph(rng, 9)
        cold = random_connected_graph(Random(23), 9)
        ids = [node.node_id for node in warm.nodes]
        for a in ids:
            shortest_path(warm, a, ids[-1])
        got, want = build_exposure_matrices(warm), build_exposure_matrices(cold)
        for name in ("sub_exposure", "loc_exposure", "sub_distance", "loc_distance"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("pair", [("nope", "n01"), ("n01", "nope"), ("nope", "nope")])
    def test_unknown_nodes_rejected_with_memo_filled(self, pair):
        g = line_store(2)
        build_exposure_matrices(g)
        with pytest.raises(InputError, match="unknown node id 'nope'"):
            shortest_path(g, *pair)
        assert "nope" not in g._path_memo


class TestIdLookups:
    def test_lookups_return_the_declared_objects(self):
        g = line_store(5, (2, 3))
        for s in g.sublocations:
            assert g.sublocation_by_id(s.sublocation_id) is s
        for loc in g.locations:
            assert g.location_by_id(loc.location_id) is loc

    def test_unknown_ids_keep_their_messages(self):
        g = line_store(2)
        with pytest.raises(InputError, match=r"^unknown sublocation id 'L1'$"):
            g.sublocation_by_id("L1")
        with pytest.raises(InputError, match=r"^unknown location id 's1'$"):
            g.location_by_id("s1")
