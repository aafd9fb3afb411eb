import json
import math
import re

import pytest

from hybridflow.road_net import (NETWORK, NetworkError, build_network, load_network,
                                 place_detector, ring_network, route_candidates)


def simple_spec(**overrides):
    spec = {
        "version": 1,
        "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 150, "y": 0}],
        "edges": [{"id": "ab", "from": "A", "to": "B", "length_m": 150.0,
                   "lanes": 1, "v_max_kmh": 108}],
        "detectors": [],
    }
    spec.update(overrides)
    return spec


def triangle_spec():
    # lengths chosen so ceil(length/1.5) is re-derivable by hand: 90/1.5=60,
    # 120/1.5=80, 151/1.5=100.67 -> 101
    return {
        "version": 1,
        "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 151, "y": 0},
                  {"id": "C", "x": 60, "y": 60}],
        "edges": [
            {"id": "ab", "from": "A", "to": "B", "length_m": 151.0, "lanes": 1,
             "v_max_kmh": 108},
            {"id": "ac", "from": "A", "to": "C", "length_m": 90.0, "lanes": 1,
             "v_max_kmh": 108},
            {"id": "cb", "from": "C", "to": "B", "length_m": 120.0, "lanes": 1,
             "v_max_kmh": 108},
        ],
        "detectors": [],
    }


class TestBuildNetwork:
    def test_cell_discretization(self):
        net = build_network(simple_spec())
        assert net.edges["ab"].cell_count == 100  # 150 / 1.5

    def test_unknown_node_named_in_error(self):
        spec = simple_spec()
        spec["edges"][0]["from"] = "X"
        with pytest.raises(NetworkError, match="X"):
            build_network(spec)

    def test_triangle_cell_counts(self):
        net = build_network(triangle_spec())
        assert net.edges["ac"].cell_count == 60
        assert net.edges["cb"].cell_count == 80
        assert net.edges["ab"].cell_count == 101

    def test_non_positive_length_rejected(self):
        spec = simple_spec()
        spec["edges"][0]["length_m"] = 0.0
        with pytest.raises(NetworkError, match=re.escape("network.edges[0].length_m: ")):
            build_network(spec)

    def test_zero_lanes_rejected(self):
        spec = simple_spec()
        spec["edges"][0]["lanes"] = 0
        with pytest.raises(NetworkError, match=re.escape("network.edges[0].lanes: ")):
            build_network(spec)

    def test_unknown_field_rejected(self):
        spec = simple_spec()
        spec["surprise"] = 1
        with pytest.raises(NetworkError, match="surprise"):
            build_network(spec)

    def test_build_is_pure(self):
        spec = triangle_spec()
        a = build_network(json.loads(json.dumps(spec)))
        b = build_network(json.loads(json.dumps(spec)))
        assert a.nodes == b.nodes
        assert a.edges == b.edges


_DROP = object()  # a case value: leave the key out


def _schema_cases():
    """(element kind or None, key, value, message) for every key of the NETWORK
    tables that the schema types: left out when required, of the wrong type, a
    bool, NaN, +-inf and, for an int, a fraction."""
    cases = []
    tables = [(None, NETWORK)] + [(kind, NETWORK[kind][0])
                                  for kind in ("nodes", "edges", "detectors")]
    for kind, table in tables:
        where = "network" if kind is None else f"network.{kind}[0]"
        for key, default in table.items():
            default = getattr(default, "default", default)  # a Field's default
            if default is None or isinstance(default, list):
                continue
            typ = default if isinstance(default, type) else type(default)
            path = f"{where}.{key}"
            if isinstance(default, type):
                cases.append((kind, key, _DROP, f"{where}: missing key {key!r}"))
            if typ is str:
                cases.append((kind, key, 5, f"{path}: expected str, got 5"))
                continue
            cases += [(kind, key, value, f"{path}: expected {typ.__name__}, got {value!r}")
                      for value in ("1", True)]
            rule = "is not an integer" if typ is int else "is not finite"
            cases += [(kind, key, value, f"{path}: {value!r} {rule}")
                      for value in (math.nan, math.inf, -math.inf)]
            if typ is int:
                cases.append((kind, key, 2.5, f"{path}: 2.5 is not an integer"))
    return cases


def detector_spec(**detector):
    spec = simple_spec()
    spec["detectors"] = [{"id": "d", "edge": "ab", "cell": 50, "lanes": [0], **detector}]
    return spec


class TestSchema:
    @pytest.mark.parametrize("kind, key, value, message", [
        pytest.param(*case, id=f"{case[0] or 'network'}.{case[1]}={case[2]!r}".replace(
            repr(_DROP), "missing")) for case in _schema_cases()])
    def test_bad_value_named_by_path(self, kind, key, value, message):
        spec = detector_spec()
        element = spec if kind is None else spec[kind][0]
        if value is _DROP:
            del element[key]
        else:
            element[key] = value
        with pytest.raises(NetworkError, match=re.escape(message)):
            build_network(spec)

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.update(nodes={"A": [0, 0]}), "network.nodes: expected a list, got dict"),
        (lambda s: s["nodes"].append({"id": "A", "x": 1, "y": 1}),
         "network.nodes[2].id: duplicate node id 'A'"),
        (lambda s: s["edges"].append(dict(s["edges"][0])),
         "network.edges[1].id: duplicate edge id 'ab'"),
        (lambda s: s["edges"][0].update(v_max_kmh=0),
         "network.edges[0].v_max_kmh: v_max_kmh must be positive, got 0.0"),
        (lambda s: s.update(cell_length_m=0),
         "network.cell_length_m: cell_length_m must be positive, got 0.0"),
        (lambda s: s.update(version=2), "network.version: unsupported version 2"),
        (lambda s: s["detectors"][0].update(lanes="01"),
         "network.detectors[0].lanes: expected a list, got str"),
        (lambda s: s["detectors"][0].update(lanes=[0.5]),
         "network.detectors[0].lanes[0]: 0.5 is not an integer"),
        (lambda s: s["detectors"][0].update(lanes=[]),
         "network.detectors[0]: detector on edge 'ab' has no lanes"),
        (lambda s: s["detectors"][0].update(cell=100),
         "network.detectors[0]: detector cell 100 out of range [0, 100) on edge 'ab'"),
        (lambda s: s["detectors"][0].update(edge="s1"),
         "network.detectors[0]: detector references unknown edge 's1'"),
    ])
    def test_check_beyond_the_schema_named_by_path(self, edit, message):
        spec = detector_spec()
        edit(spec)
        with pytest.raises(NetworkError, match=re.escape(message)):
            build_network(spec)

    def test_file_named(self, tmp_path):
        spec = detector_spec(cell=2.5)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(NetworkError, match=re.escape(
                f"{path}: network.detectors[0].cell: 2.5 is not an integer")):
            load_network(path)

    def test_malformed_file_named(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"version": 1, "nodes": ')
        with pytest.raises(NetworkError, match=re.escape(f"{path}: Expecting value: line 1")):
            load_network(path)

    def test_defaults(self):
        spec = simple_spec()
        del spec["cell_length_m"], spec["edges"][0]["v_max_kmh"]
        assert build_network(spec).edges == build_network(simple_spec()).edges


class TestRouteCandidates:
    def test_order_by_free_flow_time(self):
        net = build_network(triangle_spec())
        # direct: 101 cells / 20 = 5.05 s; via C: (60+80)/20 = 7.0 s
        routes = route_candidates(net, "A", "B", 2)
        assert [r.edges for r in routes] == [("ab",), ("ac", "cb")]
        assert routes[0].free_flow_time_s == pytest.approx(101 / 20)
        assert routes[1].free_flow_time_s == pytest.approx(140 / 20)

    def test_k_one_is_prefix(self):
        net = build_network(triangle_spec())
        assert [r.edges for r in route_candidates(net, "A", "B", 1)] == [("ab",)]

    def test_disconnected_gives_empty(self):
        spec = triangle_spec()
        spec["nodes"].append({"id": "Z", "x": 0, "y": 999})
        net = build_network(spec)
        assert route_candidates(net, "Z", "B", 3) == []

    def test_routes_sorted_and_simple_random_graphs(self):
        # brute-force oracle: recursive enumeration, separately coded
        import itertools
        import random
        rng = random.Random(7)
        for trial in range(15):
            n = rng.randint(3, 6)
            names = [chr(ord("A") + i) for i in range(n)]
            nodes = [{"id": nm, "x": i * 10.0, "y": 0.0} for i, nm in enumerate(names)]
            edges = []
            for i, (u, v) in enumerate(itertools.permutations(names, 2)):
                if rng.random() < 0.4:
                    edges.append({"id": f"e{i}", "from": u, "to": v,
                                  "length_m": rng.choice([30.0, 60.0, 90.0]),
                                  "lanes": 1, "v_max_kmh": 54})
            net = build_network({"version": 1, "cell_length_m": 1.5,
                                 "nodes": nodes, "edges": edges, "detectors": []})

            def enumerate_paths(node, dest, seen):
                if node == dest:
                    return [()]
                out = []
                for eid in sorted(net.edges):
                    e = net.edges[eid]
                    if e.from_node == node and e.to_node not in seen:
                        for rest in enumerate_paths(e.to_node, dest, seen | {e.to_node}):
                            out.append((eid,) + rest)
                return out

            origin, dest = names[0], names[-1]
            oracle = enumerate_paths(origin, dest, {origin})
            got = route_candidates(net, origin, dest, 4)
            assert len(got) == min(4, len(oracle))
            times = [r.free_flow_time_s for r in got]
            assert times == sorted(times)
            for r in got:
                assert len(set(r.edges)) == len(r.edges)
                assert r.edges in oracle
            if oracle:
                best = min((net.free_flow_time(p), p) for p in oracle)
                assert (got[0].free_flow_time_s, got[0].edges) == best


class TestDetectors:
    def test_place_valid(self):
        net = build_network(simple_spec())
        det = place_detector(net, "ab", 50)
        assert det in net.detectors

    def test_off_by_one_boundary(self):
        net = build_network(simple_spec())
        with pytest.raises(NetworkError):
            place_detector(net, "ab", 100)

    def test_two_detectors_same_cell(self):
        net = build_network(simple_spec())
        d1 = place_detector(net, "ab", 50)
        d2 = place_detector(net, "ab", 50)
        assert d1 != d2
        assert len(net.detectors) == 2


def test_ring_network():
    net = ring_network(30, v_max_cells=2)
    assert net.edges["ring"].cell_count == 30
    assert net.edges["ring"].v_max_cells == 2
