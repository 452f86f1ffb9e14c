"""Store walk-graph, shortest paths, exposure matrices and traffic counts.

The store is an undirected graph of walkable nodes. Shelf space is modeled at
two granularities: locations (strategic) partitioned into sublocations
(tactical). A sublocation is "passed by" on a walk when any of its facing
nodes lies on the node path, endpoints included. Exposure matrices count, for
every pair of position centers, how much shelf space a shopper walking the
shortest path between them passes by.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import or_

import numpy as np

from .errors import InputError, ModelError

# Reserved position ids for the entrance/exit pseudo-positions that bracket
# every position axis (first and last entries).
ENTRANCE_POS = "entrance"
EXIT_POS = "exit"

MODE_SUBLOCATION = "sublocation"
MODE_LOCATION = "location"


@dataclass(frozen=True)
class Node:
    node_id: str
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    node_a: str
    node_b: str
    length: float


@dataclass(frozen=True)
class Sublocation:
    sublocation_id: str
    parent_location_id: str
    center_node: str
    facing_nodes: frozenset[str]


@dataclass(frozen=True)
class Location:
    location_id: str
    fixture_type: str
    center_node: str
    sublocation_ids: tuple[str, ...]


@dataclass
class StoreGraph:
    """Immutable walk-graph plus shelf structure. Validated on construction;
    shortest paths from each source are computed once and kept."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    entrance_node: str
    exit_node: str
    locations: tuple[Location, ...]
    sublocations: tuple[Sublocation, ...]
    name: str = "store"

    _adjacency: dict[str, tuple[tuple[str, float], ...]] = field(init=False, repr=False)
    # exposure mode -> node -> facing mask (see __post_init__)
    _facing_masks: dict[str, dict[str, int]] = field(init=False, repr=False)
    # Id lookups and the lazily filled shortest-path memo (source -> Dijkstra
    # labels) take no part in equality: equal graphs stay equal whatever
    # their memos hold.
    _sublocation_index: dict[str, Sublocation] = field(init=False, repr=False, compare=False)
    _location_index: dict[str, Location] = field(init=False, repr=False, compare=False)
    _path_memo: dict[str, dict[str, tuple[float, tuple[str, ...]]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        node_ids = [n.node_id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise InputError("duplicate node ids in store graph")
        known = set(node_ids)

        adjacency: dict[str, list[tuple[str, float]]] = {nid: [] for nid in node_ids}
        seen_pairs = set()
        for e in self.edges:
            if e.node_a not in known or e.node_b not in known:
                raise InputError(f"edge {e.node_a}-{e.node_b} references unknown node")
            if e.node_a == e.node_b:
                raise InputError(f"self-loop edge at node {e.node_a}")
            if not (0 < e.length < math.inf):
                raise InputError(
                    f"edge {e.node_a}-{e.node_b} length must be finite and positive, got {e.length}"
                )
            pair = frozenset((e.node_a, e.node_b))
            if pair in seen_pairs:
                raise InputError(f"duplicate edge {e.node_a}-{e.node_b}")
            seen_pairs.add(pair)
            adjacency[e.node_a].append((e.node_b, e.length))
            adjacency[e.node_b].append((e.node_a, e.length))

        for nid in (self.entrance_node, self.exit_node):
            if nid not in known:
                raise InputError(f"entrance/exit node {nid!r} not in node list")
        if self.entrance_node == self.exit_node:
            raise InputError("entrance and exit must be distinct nodes")

        sub_by_id: dict[str, Sublocation] = {}
        for s in self.sublocations:
            if s.sublocation_id in sub_by_id:
                raise InputError(f"duplicate sublocation id {s.sublocation_id}")
            if not s.facing_nodes:
                raise InputError(f"sublocation {s.sublocation_id} has no facing nodes")
            if s.center_node not in s.facing_nodes:
                raise InputError(f"sublocation {s.sublocation_id}: center node must be a facing node")
            missing = sorted(set(s.facing_nodes) - known)
            if missing:
                raise InputError(f"sublocation {s.sublocation_id} faces unknown nodes {missing}")
            sub_by_id[s.sublocation_id] = s

        claimed: dict[str, str] = {}
        for loc in self.locations:
            if not loc.fixture_type:
                raise InputError(f"location {loc.location_id} has empty fixture type")
            if not loc.sublocation_ids:
                raise InputError(f"location {loc.location_id} has no sublocations")
            if loc.center_node not in known:
                raise InputError(f"location {loc.location_id} center node {loc.center_node!r} unknown")
            for sid in loc.sublocation_ids:
                if sid not in sub_by_id:
                    raise InputError(f"location {loc.location_id} lists unknown sublocation {sid}")
                if sid in claimed:
                    raise InputError(f"sublocation {sid} claimed by both {claimed[sid]} and {loc.location_id}")
                claimed[sid] = loc.location_id
                if sub_by_id[sid].parent_location_id != loc.location_id:
                    raise InputError(
                        f"sublocation {sid} declares parent {sub_by_id[sid].parent_location_id!r} "
                        f"but is listed under {loc.location_id!r}"
                    )
        unclaimed = sorted(set(sub_by_id) - set(claimed))
        if unclaimed:
            raise InputError(f"sublocations not owned by any location: {unclaimed}")
        loc_ids = [loc.location_id for loc in self.locations]
        if len(set(loc_ids)) != len(loc_ids):
            raise InputError("duplicate location ids")
        self._sublocation_index = sub_by_id
        self._location_index = {loc.location_id: loc for loc in self.locations}

        # Neighbor lists sorted by node id so traversal order is reproducible.
        self._adjacency = {nid: tuple(sorted(nbrs)) for nid, nbrs in adjacency.items()}

        # Facing masks: bit i stands for the i-th sublocation. A node's
        # sublocation mask holds the sublocations it faces; its location mask
        # holds every sublocation of each location it faces.
        bit = {s.sublocation_id: 1 << i for i, s in enumerate(self.sublocations)}
        whole = {loc.location_id: sum(bit[sid] for sid in loc.sublocation_ids) for loc in self.locations}
        sub_masks = dict.fromkeys(node_ids, 0)
        loc_masks = dict.fromkeys(node_ids, 0)
        for s in self.sublocations:
            for nid in s.facing_nodes:
                sub_masks[nid] |= bit[s.sublocation_id]
                loc_masks[nid] |= whole[s.parent_location_id]
        self._facing_masks = {MODE_SUBLOCATION: sub_masks, MODE_LOCATION: loc_masks}

        # Connectivity: every node reachable from the entrance.
        seen = {self.entrance_node}
        stack = [self.entrance_node]
        while stack:
            u = stack.pop()
            for v, _ in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != known:
            missing = sorted(known - seen)
            raise ModelError(f"store graph is disconnected; unreachable from entrance: {missing}")

    # -- lookups -------------------------------------------------------------

    def has_node(self, node_id: str) -> bool:
        return node_id in self._adjacency

    def neighbors(self, node_id: str) -> tuple[tuple[str, float], ...]:
        return self._adjacency[node_id]

    def location_by_id(self, location_id: str) -> Location:
        try:
            return self._location_index[location_id]
        except KeyError:
            raise InputError(f"unknown location id {location_id!r}") from None

    def sublocation_by_id(self, sublocation_id: str) -> Sublocation:
        try:
            return self._sublocation_index[sublocation_id]
        except KeyError:
            raise InputError(f"unknown sublocation id {sublocation_id!r}") from None

    @property
    def sublocation_axis(self) -> tuple[str, ...]:
        """Position ids at sublocation granularity: entrance, sublocations, exit."""
        return (ENTRANCE_POS, *(s.sublocation_id for s in self.sublocations), EXIT_POS)

    @property
    def location_axis(self) -> tuple[str, ...]:
        """Position ids at location granularity: entrance, locations, exit."""
        return (ENTRANCE_POS, *(loc.location_id for loc in self.locations), EXIT_POS)

    def position_center(self, position_id: str, level: str) -> str:
        """Center node of a position id on either axis (entrance/exit map to their nodes)."""
        if position_id == ENTRANCE_POS:
            return self.entrance_node
        if position_id == EXIT_POS:
            return self.exit_node
        if level == MODE_SUBLOCATION:
            return self.sublocation_by_id(position_id).center_node
        return self.location_by_id(position_id).center_node


@dataclass(frozen=True)
class ExposureMatrices:
    """Shortest-path exposure between all position pairs, both granularities.

    ``sub_exposure[k1, k2]`` counts distinct sublocations passed by on the
    shortest path between sublocation centers; ``loc_exposure`` counts whole
    locations (a faced sublocation exposes every sublocation of its parent).
    Distance matrices carry the corresponding shortest-path lengths in meters.
    """

    sub_axis: tuple[str, ...]
    loc_axis: tuple[str, ...]
    sub_exposure: np.ndarray
    loc_exposure: np.ndarray
    sub_distance: np.ndarray
    loc_distance: np.ndarray


@dataclass(frozen=True)
class TrafficDensity:
    """Per-node traversal counts aggregated over a set of replayed walks."""

    counts: dict[str, int]
    path_count: int


def _single_source_paths(graph: StoreGraph, source: str) -> dict[str, tuple[float, tuple[str, ...]]]:
    """Dijkstra labels ``node -> (length, path)`` from one source.

    Ties on length are broken toward the lexicographically smallest node-id
    sequence, which makes every derived matrix reproducible across runs.
    """
    best: dict[str, tuple[float, tuple[str, ...]]] = {source: (0.0, (source,))}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (source,), source)]
    while heap:
        dist, path, u = heapq.heappop(heap)
        cur = best.get(u)
        if cur is not None and (dist, path) > cur:
            continue
        for v, w in graph.neighbors(u):
            cand = (dist + w, path + (v,))
            old = best.get(v)
            if old is None or cand < old:
                best[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    return best


def _paths_from(graph: StoreGraph, source: str) -> dict[str, tuple[float, tuple[str, ...]]]:
    """Dijkstra labels from ``source``, computed once per graph and source."""
    labels = graph._path_memo.get(source)
    if labels is None:
        labels = graph._path_memo[source] = _single_source_paths(graph, source)
    return labels


def shortest_path(graph: StoreGraph, from_node: str, to_node: str) -> list[str]:
    """Minimum-length node sequence between two nodes (single node if equal)."""
    for nid in (from_node, to_node):
        if not graph.has_node(nid):
            raise InputError(f"unknown node id {nid!r}")
    if from_node == to_node:
        return [from_node]
    labels = _paths_from(graph, from_node)
    if to_node not in labels:
        raise ModelError(f"no path between {from_node!r} and {to_node!r}")
    return list(labels[to_node][1])


def shortest_path_length(graph: StoreGraph, from_node: str, to_node: str) -> float:
    path = shortest_path(graph, from_node, to_node)
    return _path_length(graph, path)


def _path_length(graph: StoreGraph, path: list[str]) -> float:
    total = 0.0
    for a, b in zip(path, path[1:]):
        for v, w in graph.neighbors(a):
            if v == b:
                total += w
                break
        else:
            raise InputError(f"nodes {a!r} and {b!r} are not adjacent")
    return total


def path_exposure(graph: StoreGraph, path: list[str], mode: str = MODE_SUBLOCATION) -> int:
    """Shelf space passed by along a node path.

    ``sublocation`` mode counts distinct sublocations with a facing node on
    the path. ``location`` mode applies whole-location counting: every
    location with at least one faced sublocation contributes its full
    sublocation count.
    """
    if not path:
        raise InputError("path must be non-empty")
    if mode not in (MODE_SUBLOCATION, MODE_LOCATION):
        raise InputError(f"unknown exposure mode {mode!r}")
    # the sublocations in the union of the nodes' facing masks
    try:
        return reduce(or_, map(graph._facing_masks[mode].__getitem__, path)).bit_count()
    except KeyError as exc:
        raise InputError(f"unknown node id {exc.args[0]!r} in path") from None


def build_exposure_matrices(graph: StoreGraph) -> ExposureMatrices:
    """Exposure and distance matrices over both position axes.

    Entry ``[k1, k2]`` is the exposure of the shortest path from the center
    of position ``k1`` to the center of position ``k2``; entrance and exit
    participate as pseudo-positions with no shelf space of their own.
    """
    sub_axis = graph.sublocation_axis
    loc_axis = graph.location_axis

    centers = {nid for nid in (graph.entrance_node, graph.exit_node)}
    centers.update(s.center_node for s in graph.sublocations)
    centers.update(loc.center_node for loc in graph.locations)
    labels = {c: _paths_from(graph, c) for c in sorted(centers)}

    def fill(axis: tuple[str, ...], level: str, mode: str) -> tuple[np.ndarray, np.ndarray]:
        n = len(axis)
        expo = np.zeros((n, n), dtype=np.int64)
        dist = np.zeros((n, n), dtype=np.float64)
        node_of = [graph.position_center(pid, level) for pid in axis]
        for i, src in enumerate(node_of):
            from_src = labels[src]
            for j, dst in enumerate(node_of):
                if dst not in from_src:
                    raise ModelError(f"no path between centers {src!r} and {dst!r}")
                length, path = from_src[dst]
                expo[i, j] = path_exposure(graph, path, mode)
                dist[i, j] = length
        return expo, dist

    sub_exposure, sub_distance = fill(sub_axis, MODE_SUBLOCATION, MODE_SUBLOCATION)
    loc_exposure, loc_distance = fill(loc_axis, MODE_LOCATION, MODE_LOCATION)
    return ExposureMatrices(
        sub_axis=sub_axis,
        loc_axis=loc_axis,
        sub_exposure=sub_exposure,
        loc_exposure=loc_exposure,
        sub_distance=sub_distance,
        loc_distance=loc_distance,
    )


def accumulate_traffic(graph: StoreGraph, paths: list[list[str]]) -> TrafficDensity:
    """Per-node visit counts over a list of walks (repeat visits count again)."""
    counts = {n.node_id: 0 for n in graph.nodes}
    visits = Counter(chain.from_iterable(paths))
    if not visits.keys() <= counts.keys():
        first = next(nid for nid in chain.from_iterable(paths) if nid not in counts)
        raise InputError(f"unknown node id {first!r} in path")
    counts.update(visits)
    return TrafficDensity(counts=counts, path_count=len(paths))
