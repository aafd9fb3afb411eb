"""Road network substrate: directed multi-lane edges discretized into CA cells.

Networks are built from a versioned JSON document, walked against the schema
tables below so that a bad value fails by its path, are immutable during
simulation (detector placement happens at setup time), and provide route
enumeration plus the graph-distance helpers the imputation module relies on.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

from .schema import ConfigError, Field, _section

DEFAULT_CELL_LENGTH_M = 1.5
MAX_ENUMERATED_PATHS = 10_000


class NetworkError(ValueError):
    """Inconsistent or malformed network description."""


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float


@dataclass
class Edge:
    id: str
    from_node: str
    to_node: str
    length_m: float
    lanes: int
    v_max_cells: int
    cell_count: int
    # as in the document: per lane, class names allowed (None: all); see traffic_ca.lane_mask
    lane_policy: list | None


@dataclass
class Detector:
    id: str
    edge: str
    cell: int
    lanes: tuple


# the JSON document (see hybridflow.schema); lane_policy and detectors meet their edge later
NODE = {"id": str, "x": float, "y": float}
EDGE = {"id": str, "from": str, "to": str, "length_m": Field(float, gt=0),
        "lanes": Field(int, ge=1), "v_max_kmh": Field(108.0, gt=0), "lane_policy": None}
DETECTOR = {"id": str, "edge": str, "cell": int,
            "lanes": Field(None, kind=tuple, item=Field(int))}
NETWORK = {"version": int, "cell_length_m": Field(DEFAULT_CELL_LENGTH_M, gt=0),
           "nodes": [NODE], "edges": [EDGE], "detectors": [DETECTOR]}


@dataclass(frozen=True)
class Route:
    """Ordered edge-id sequence from origin to destination."""

    edges: tuple
    free_flow_time_s: float


@dataclass
class RoadNetwork:
    nodes: dict
    edges: dict
    detectors: dict
    cell_length_m: float = DEFAULT_CELL_LENGTH_M
    _out_edges: dict = field(default_factory=dict, repr=False)
    # node -> [(neighbor, length_m)] of the undirected graph, for node_distances
    _adjacency: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for e in self.edges.values():
            self._adjacency.setdefault(e.from_node, []).append((e.to_node, e.length_m))
            self._adjacency.setdefault(e.to_node, []).append((e.from_node, e.length_m))
        if not self._out_edges:
            for e in self.edges.values():
                self._out_edges.setdefault(e.from_node, []).append(e.id)
            for lst in self._out_edges.values():
                lst.sort()

    def out_edges(self, node_id: str) -> list:
        return self._out_edges.get(node_id, [])

    def free_flow_time(self, edge_ids) -> float:
        """Seconds to traverse the edges at each edge's speed limit."""
        return sum(self.edges[eid].cell_count / self.edges[eid].v_max_cells for eid in edge_ids)

    def point_at(self, edge_id: str, cell: int) -> tuple:
        """Planar position of a cell center, for the radio co-simulation."""
        e = self.edges[edge_id]
        a, b = self.nodes[e.from_node], self.nodes[e.to_node]
        frac = min(1.0, (cell + 0.5) * self.cell_length_m / e.length_m)
        return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))


def build_network(spec: dict) -> RoadNetwork:
    """Build a cell-discretized network from its JSON description. NetworkError
    names the path of what the NETWORK schema rejects and of what it cannot
    state: a version other than 1, a repeated id, an unknown node, an edge of
    more cells than a float holds, and a detector outside its edge's cells or
    lanes."""
    try:
        spec = _section(spec, NETWORK, "network")
    except ConfigError as exc:
        raise NetworkError(str(exc)) from None
    if spec["version"] != 1:
        raise NetworkError(f"network.version: unsupported version {spec['version']!r}")
    cell_len = spec["cell_length_m"]
    nodes = {}
    for i, nd in enumerate(spec["nodes"]):
        if nd["id"] in nodes:
            raise NetworkError(f"network.nodes[{i}].id: duplicate node id {nd['id']!r}")
        nodes[nd["id"]] = Node(nd["id"], nd["x"], nd["y"])
    edges = {}
    for i, ed in enumerate(spec["edges"]):
        where, eid = f"network.edges[{i}]", ed["id"]
        if eid in edges:
            raise NetworkError(f"{where}.id: duplicate edge id {eid!r}")
        for key in ("from", "to"):
            if ed[key] not in nodes:
                raise NetworkError(f"{where}.{key}: edge {eid!r} has unknown node {ed[key]!r}")
        cells, v_cells = ed["length_m"] / cell_len, ed["v_max_kmh"] / 3.6 / cell_len
        if not math.isfinite(cells + v_cells):
            raise NetworkError(f"{where}: edge {eid!r} overflows cells of {cell_len!r} m")
        edges[eid] = Edge(eid, ed["from"], ed["to"], ed["length_m"], ed["lanes"],
                          max(1, round(v_cells)), max(1, math.ceil(cells)), ed["lane_policy"])
    net = RoadNetwork(nodes=nodes, edges=edges, detectors={}, cell_length_m=cell_len)
    for i, dd in enumerate(spec["detectors"]):
        try:
            place_detector(net, dd["edge"], dd["cell"], dd["lanes"], detector_id=dd["id"])
        except NetworkError as exc:
            raise NetworkError(f"network.detectors[{i}]: {exc}") from None
    return net


def load_network(path) -> RoadNetwork:
    """The network described by the JSON file at path; a NetworkError names the file."""
    try:
        with open(path) as fh:
            return build_network(json.load(fh))
    except (OSError, json.JSONDecodeError, NetworkError) as exc:
        raise NetworkError(f"{path}: {exc}") from None


def place_detector(net: RoadNetwork, edge_id: str, cell: int, lanes=None, detector_id=None) -> str:
    """Register a loop detector at (edge, cell); returns its id.

    ``lanes`` defaults to every lane of the edge. Two detectors may share a
    cell; each gets its own id and is served independently.
    """
    if edge_id not in net.edges:
        raise NetworkError(f"detector references unknown edge {edge_id!r}")
    e = net.edges[edge_id]
    if not 0 <= cell < e.cell_count:
        raise NetworkError(
            f"detector cell {cell} out of range [0, {e.cell_count}) on edge {edge_id!r}")
    lane_set = tuple(range(e.lanes)) if lanes is None else tuple(sorted(lanes))
    if not lane_set:
        raise NetworkError(f"detector on edge {edge_id!r} has no lanes")
    for l in lane_set:
        if not 0 <= l < e.lanes:
            raise NetworkError(f"detector lane {l} out of range on edge {edge_id!r}")
    if detector_id is None:
        detector_id = f"det{len(net.detectors)}"
    if detector_id in net.detectors:
        raise NetworkError(f"duplicate detector id {detector_id!r}")
    net.detectors[detector_id] = Detector(detector_id, edge_id, cell, lane_set)
    return detector_id


def _simple_paths(net: RoadNetwork, origin: str, dest: str):
    """All node-simple edge sequences origin->dest (desk-scale exhaustive DFS)."""
    paths = []
    stack = [(origin, (), frozenset((origin,)))]
    while stack:
        node, edges_so_far, visited = stack.pop()
        for eid in net.out_edges(node):
            e = net.edges[eid]
            nxt = e.to_node
            if nxt == dest:
                paths.append(edges_so_far + (eid,))
                if len(paths) > MAX_ENUMERATED_PATHS:
                    raise NetworkError(f"more than {MAX_ENUMERATED_PATHS} simple paths "
                                       f"between {origin!r} and {dest!r}")
            elif nxt not in visited:
                stack.append((nxt, edges_so_far + (eid,), visited | {nxt}))
    return paths


def route_candidates(net: RoadNetwork, origin: str, dest: str, k: int) -> list:
    """Up to k loop-free routes, fastest (free-flow) first.

    Ties break on the lexicographic edge-id sequence. No path -> empty list.
    """
    for ref in (origin, dest):
        if ref not in net.nodes:
            raise NetworkError(f"unknown node {ref!r}")
    if origin == dest:
        raise NetworkError(f"origin and destination are both {origin!r}")
    if k < 1:
        return []
    scored = [(net.free_flow_time(p), p) for p in _simple_paths(net, origin, dest)]
    scored.sort(key=lambda tp: (tp[0], tp[1]))
    return [Route(edges=p, free_flow_time_s=t) for t, p in scored[:k]]


def node_distances(net: RoadNetwork, source: str) -> dict:
    """Dijkstra over the undirected road graph, edge weights in meters."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        for nxt, w in net._adjacency.get(node, []):
            nd = d + w
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def ring_network(n_cells: int, lanes: int = 1, v_max_cells: int = 20) -> RoadNetwork:
    """Single self-loop edge with periodic boundary; the CA test substrate."""
    node = Node("ring", 0.0, 0.0)
    edge = Edge("ring", "ring", "ring", n_cells * DEFAULT_CELL_LENGTH_M, lanes, v_max_cells,
                n_cells, None)
    return RoadNetwork(nodes={"ring": node}, edges={"ring": edge}, detectors={})
