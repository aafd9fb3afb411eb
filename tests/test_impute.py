import itertools
import json
import math
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from hybridflow import impute
from hybridflow.impute import (GprParams, ImputeError, NetPoint, VolumeObservation,
                               _DistanceOracle, default_params, fit_gpr, knn_estimate,
                               knn_estimates, predict_gpr, read_observations_csv)
from hybridflow.road_net import build_network, node_distances


def line_net(n_nodes=5, seg_len=500.0):
    """Chain A-B-C-...; one edge per consecutive pair."""
    names = [chr(ord("A") + i) for i in range(n_nodes)]
    nodes = [{"id": nm, "x": i * seg_len, "y": 0.0} for i, nm in enumerate(names)]
    edges = [{"id": f"e{i}", "from": names[i], "to": names[i + 1],
              "length_m": seg_len, "lanes": 1, "v_max_kmh": 54}
             for i in range(n_nodes - 1)]
    return build_network({"version": 1, "cell_length_m": 1.5, "nodes": nodes,
                          "edges": edges, "detectors": []})


def branched_net():
    return build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 150, "y": 0},
                  {"id": "C", "x": 300, "y": 0}, {"id": "D", "x": 150, "y": 200},
                  {"id": "Z", "x": 999, "y": 999}],
        "edges": [
            {"id": "ab", "from": "A", "to": "B", "length_m": 150, "lanes": 1,
             "v_max_kmh": 54},
            {"id": "bc", "from": "B", "to": "C", "length_m": 150, "lanes": 1,
             "v_max_kmh": 54},
            {"id": "bd", "from": "B", "to": "D", "length_m": 200, "lanes": 1,
             "v_max_kmh": 54},
            {"id": "zz", "from": "Z", "to": "Z", "length_m": 50, "lanes": 1,
             "v_max_kmh": 54},
        ],
        "detectors": [],
    })


def network_distance(net, a, b):
    """d(a, b) along the undirected road graph, as the fit and kNN read it."""
    oracle = _DistanceOracle(net)
    return float(oracle.rows(oracle.points([a]), oracle.points([b]))[0, 0])


class TestNetworkDistance:
    def test_same_point(self):
        net = branched_net()
        p = NetPoint("ab", 42.0)
        assert network_distance(net, p, p) == 0.0

    def test_same_edge_offsets(self):
        net = branched_net()
        assert network_distance(net, NetPoint("ab", 10.0), NetPoint("ab", 60.0)) == 50.0

    def test_three_edge_path_matches_enumeration(self):
        net = branched_net()
        a, b = NetPoint("ab", 30.0), NetPoint("bd", 50.0)
        # brute force over all simple paths of the undirected graph
        # ab(30 from A, 120 to B); bd(50 from B): only sensible path via B
        expect = 120.0 + 50.0
        assert network_distance(net, a, b) == pytest.approx(expect)
        a2, b2 = NetPoint("ab", 30.0), NetPoint("bc", 40.0)
        assert network_distance(net, a2, b2) == pytest.approx(120.0 + 40.0)

    def test_disconnected_is_infinite(self):
        net = branched_net()
        assert network_distance(net, NetPoint("ab", 0.0), NetPoint("zz", 10.0)) == math.inf

    def test_undirected(self):
        net = line_net()
        a, b = NetPoint("e0", 100.0), NetPoint("e3", 400.0)
        assert network_distance(net, a, b) == network_distance(net, b, a)


def obs_at(edge, offset, flow, day=0):
    return VolumeObservation(NetPoint(edge, offset), day, flow)


class TestGpr:
    def test_single_observation_interpolates(self):
        net = line_net()
        model = fit_gpr(net, [obs_at("e0", 100.0, 123.0)],
                        GprParams(sigma_f2=1e4, length_scale_m=500.0, sigma_n2=0.0))
        mean, var = predict_gpr(model, [NetPoint("e0", 100.0)])[0]
        assert mean == pytest.approx(123.0, abs=1e-4)
        assert var >= 0.0

    def test_constant_observations_constant_prediction(self):
        net = line_net()
        obs = [obs_at(f"e{i}", 250.0, 77.0) for i in range(4)]
        model = fit_gpr(net, obs, GprParams(sigma_f2=100.0, length_scale_m=400.0))
        for mean, _ in predict_gpr(model, [NetPoint("e1", 10.0), NetPoint("e3", 499.0)]):
            assert mean == pytest.approx(77.0, abs=1e-6)

    def test_two_point_closed_form(self):
        # hand-computed 2x2 posterior: mu + k*^T K^-1 (y - mu)
        net = line_net(n_nodes=3, seg_len=500.0)
        obs = [obs_at("e0", 0.0, 100.0), obs_at("e1", 500.0, 200.0)]  # 0 m and 1000 m
        params = GprParams(sigma_f2=1e4, length_scale_m=500.0, sigma_n2=0.0)
        model = fit_gpr(net, obs, params)
        query = NetPoint("e0", 500.0)  # 500 m mark
        sf2, ell = 1e4, 500.0
        k01 = sf2 * math.exp(-(1000.0 ** 2) / (2 * ell ** 2))
        K = np.array([[sf2, k01], [k01, sf2]]) + 1e-8 * np.eye(2)
        ks = np.array([sf2 * math.exp(-(500.0 ** 2) / (2 * ell ** 2))] * 2)
        mu = 150.0
        expect_mean = mu + ks @ np.linalg.solve(K, np.array([100.0, 200.0]) - mu)
        expect_var = sf2 - ks @ np.linalg.solve(K, ks)
        mean, var = predict_gpr(model, [query])[0]
        assert mean == pytest.approx(expect_mean, abs=1e-9)
        assert var == pytest.approx(expect_var, abs=1e-6)

    def test_far_query_returns_prior(self):
        net = line_net(n_nodes=10, seg_len=2000.0)
        obs = [obs_at("e0", 0.0, 50.0), obs_at("e0", 1500.0, 150.0)]
        params = GprParams(sigma_f2=400.0, length_scale_m=300.0, sigma_n2=1.0)
        model = fit_gpr(net, obs, params)
        mean, var = predict_gpr(model, [NetPoint("e8", 1900.0)])[0]
        assert mean == pytest.approx(100.0, abs=1e-6)  # prior = training mean
        assert var == pytest.approx(400.0, rel=1e-6)

    def test_batch_equals_single(self):
        net = line_net()
        rng = np.random.default_rng(3)
        obs = [obs_at(f"e{i % 4}", float(rng.uniform(0, 500)), float(rng.uniform(50, 150)))
               for i in range(12)]
        model = fit_gpr(net, obs, default_params([o.flow_veh_day for o in obs], 1000.0))
        queries = [NetPoint(f"e{i % 4}", float(rng.uniform(0, 500))) for i in range(7)]
        batch = predict_gpr(model, queries)
        single = [predict_gpr(model, [q])[0] for q in queries]
        assert batch == single

    def test_no_queries(self):
        net = line_net()
        model = fit_gpr(net, [obs_at("e0", 100.0, 123.0)], GprParams(1e4, 500.0))
        assert predict_gpr(model, []) == []
        assert predict_gpr(model, iter([])) == []

    def test_generator_consumed_once(self, monkeypatch):
        net = line_net()
        model = fit_gpr(net, [obs_at("e0", 100.0, 123.0), obs_at("e2", 40.0, 80.0)],
                        GprParams(1e4, 500.0, 1.0))
        queries = [NetPoint(f"e{i % 4}", 7.0 * i) for i in range(70)]
        for threads in (1, 2):
            monkeypatch.setattr(impute, "_solver_threads", lambda n=threads: n)
            pulled = []

            def once():
                for q in queries:
                    pulled.append(q)
                    yield q

            assert predict_gpr(model, once()) == predict_gpr(model, queries), threads
            assert pulled == queries

    def test_noise_free_interpolation_and_variance_bound(self):
        # spacing comparable to the length scale keeps the kernel well posed
        net = line_net()
        rng = np.random.default_rng(5)
        offsets = [0.0, 120.0, 260.0, 390.0, 499.0]
        obs = [obs_at("e1", off, float(rng.uniform(40, 160))) for off in offsets]
        params = GprParams(sigma_f2=1e4, length_scale_m=200.0, sigma_n2=0.0)
        model = fit_gpr(net, obs, params)
        preds = predict_gpr(model, [o.location for o in obs])
        sigma_f = math.sqrt(params.sigma_f2)
        for o, (mean, var) in zip(obs, preds):
            assert abs(mean - o.flow_veh_day) < 1e-6 * sigma_f
            assert var <= params.sigma_f2 + 1e-9

    def test_duplicate_locations_zero_noise_rejected(self):
        net = line_net()
        obs = [obs_at("e0", 100.0, 10.0), obs_at("e0", 100.0, 20.0)]
        with pytest.raises(ImputeError, match="duplicate"):
            fit_gpr(net, obs, GprParams(sigma_f2=100.0, length_scale_m=300.0,
                                        sigma_n2=0.0))

    def test_posterior_variance_never_negative_many_queries(self):
        net = line_net(n_nodes=6)
        rng = np.random.default_rng(7)
        obs = [obs_at(f"e{int(rng.integers(0, 5))}", float(rng.uniform(0, 500)),
                      float(rng.uniform(0, 300))) for _ in range(40)]
        # drop duplicates for the zero-noise case
        seen, uniq = set(), []
        for o in obs:
            key = (o.location.edge, o.location.offset_m)
            if key not in seen:
                seen.add(key)
                uniq.append(o)
        model = fit_gpr(net, uniq, default_params([o.flow_veh_day for o in uniq], 1000.0))
        queries = [NetPoint(f"e{int(rng.integers(0, 5))}", float(rng.uniform(0, 500)))
                   for _ in range(2000)]
        for _, var in predict_gpr(model, queries):
            assert var >= 0.0

    def test_mean_linear_in_observations(self):
        net = line_net()
        params = GprParams(sigma_f2=100.0, length_scale_m=400.0, sigma_n2=1.0)
        locs = [("e0", 100.0), ("e1", 200.0), ("e2", 300.0)]
        y1 = [50.0, 80.0, 120.0]
        y2 = [10.0, 20.0, 5.0]
        queries = [NetPoint("e1", 50.0), NetPoint("e3", 400.0)]

        def predict_sum_free(values):
            # prior mean forced to zero by centering trick: use raw model but
            # subtract its prior contribution
            obs = [obs_at(e, off, v) for (e, off), v in zip(locs, values)]
            model = fit_gpr(net, obs, params)
            model.alpha = np.linalg.solve(model.chol.T, np.linalg.solve(
                model.chol, np.array(values, dtype=float)))
            model.prior_mean = 0.0
            return [m for m, _ in predict_gpr(model, queries)]

        a = predict_sum_free(y1)
        b = predict_sum_free(y2)
        both = predict_sum_free([p + q for p, q in zip(y1, y2)])
        for ma, mb, mab in zip(a, b, both):
            assert mab == pytest.approx(ma + mb, abs=1e-8)


class TestKnn:
    def observations(self):
        return [obs_at("e0", 100.0, 10.0, day=0),
                obs_at("e1", 100.0, 20.0, day=1),
                obs_at("e2", 100.0, 30.0, day=2)]

    def test_k_equals_n_plain_mean(self):
        net = line_net()
        got = knn_estimate(self.observations(), NetPoint("e0", 0.0), 3, net)
        assert got == pytest.approx(20.0)

    def test_k_one_nearest(self):
        net = line_net()
        got = knn_estimate(self.observations(), NetPoint("e1", 120.0), 1, net)
        assert got == 20.0

    def test_permutation_invariance(self):
        net = line_net()
        base = self.observations()
        ref = knn_estimate(base, NetPoint("e1", 250.0), 2, net)
        for perm in itertools.permutations(base):
            assert knn_estimate(list(perm), NetPoint("e1", 250.0), 2, net) == ref

    def test_distance_tie_breaks_on_edge_id(self):
        net = line_net()
        obs = [obs_at("e2", 100.0, 111.0), obs_at("e0", 400.0, 222.0)]
        # both are 100 m from the e1/e0 and e1/e2 boundaries -> equidistant
        got = knn_estimate(obs, NetPoint("e1", 250.0), 1, net)
        assert got == 222.0  # e0 < e2

    @pytest.mark.parametrize("flow", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_flow_rejected(self, flow):
        with pytest.raises(ImputeError, match="is negative or not finite"):
            VolumeObservation(NetPoint("e0", 0.0), 0, flow)

    @pytest.mark.parametrize("text, message", [
        ("edge,offset_m,day,flow\ne0,1,0,5\ne1,2,0,nan\n",
         "line 3, column flow: flow nan is negative or not finite"),
        ("edge,offset_m,day,flow\ne0,x,0,5\n", "line 2, column offset_m: 'x' is not float"),
        ("edge,offset_m,day,flow\ne0,1,0.5,5\n", "line 2, column day: '0.5' is not int"),
        ("edge,offset_m,day\ne0,1,0\n", "line 2, column flow: None is not float"),
        ("edge,offset_m,day,flow\ne0,1,0,5\nzz,2,0,5\n", "line 3, column edge: unknown edge 'zz'"),
        ("edge,offset_m,day,flow\ne0,-1,0,5\n",
         "line 2, column offset_m: offset -1.0 outside edge 'e0'"),
        ("edge,offset_m,day,flow\ne0,500.5,0,5\n",
         "line 2, column offset_m: offset 500.5 outside edge 'e0'"),
    ])
    def test_csv_names_line_and_column(self, tmp_path, text, message):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with pytest.raises(ImputeError, match=re.escape(f"{path}, {message}")):
            read_observations_csv(path, line_net())

    def test_bad_k_rejected(self):
        net = line_net()
        with pytest.raises(ImputeError):
            knn_estimate(self.observations(), NetPoint("e0", 0.0), 0, net)
        with pytest.raises(ImputeError):
            knn_estimate(self.observations(), NetPoint("e0", 0.0), 4, net)
        with pytest.raises(ImputeError):
            knn_estimate([], NetPoint("e0", 0.0), 1, net)


# --- differential references -------------------------------------------------
# The per-pair distance oracle and the per-query predictor that the row blocks
# and batched solves replaced. The array passes must reproduce them bit for bit.

class PairOracle:
    def __init__(self, net, euclidean=False):
        self.net = net
        self.euclidean = euclidean
        self._node_dist = {}

    def _from_node(self, node_id):
        if node_id not in self._node_dist:
            self._node_dist[node_id] = node_distances(self.net, node_id)
        return self._node_dist[node_id]

    def _euclid_pos(self, p):
        e = self.net.edges[p.edge]
        a, b = self.net.nodes[e.from_node], self.net.nodes[e.to_node]
        f = p.offset_m / e.length_m
        return (a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))

    def distance(self, a, b):
        ea, eb = self.net.edges[a.edge], self.net.edges[b.edge]
        if self.euclidean:
            pa, pb = self._euclid_pos(a), self._euclid_pos(b)
            return math.hypot(pa[0] - pb[0], pa[1] - pb[1])
        best = math.inf
        if a.edge == b.edge:
            best = abs(a.offset_m - b.offset_m)
        ends_a = ((ea.from_node, a.offset_m), (ea.to_node, ea.length_m - a.offset_m))
        ends_b = ((eb.from_node, b.offset_m), (eb.to_node, eb.length_m - b.offset_m))
        for na, da in ends_a:
            dist_map = self._from_node(na)
            for nb, db in ends_b:
                via = dist_map.get(nb, math.inf)
                best = min(best, da + via + db)
        return best


def pair_kernel(params, d):
    out = np.zeros_like(d, dtype=float)
    finite = np.isfinite(d)
    ell = params.length_scale_m
    out[finite] = params.sigma_f2 * np.exp(-(d[finite] ** 2) / (2 * ell * ell))
    return out


def pair_fit(net, obs, params):
    """(oracle, locations, prior, alpha, chol) as the per-pair fit made them."""
    oracle = PairOracle(net, params.euclidean)
    locations = [o.location for o in obs]
    y = np.array([o.flow_veh_day for o in obs], dtype=float)
    n = len(obs)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = oracle.distance(locations[i], locations[j])
    ell = params.length_scale_m
    K = np.where(np.isfinite(D),
                 params.sigma_f2 * np.exp(-(D ** 2) / (2 * ell * ell)), 0.0)
    A = K + (params.sigma_n2 + 1e-8) * np.eye(n)
    L = np.linalg.cholesky(A)
    prior = float(np.mean(y))
    resid = y - prior
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, resid))
    best = float(np.linalg.norm(resid - A @ alpha))
    for _ in range(4):
        r = resid - A @ alpha
        cand = alpha + np.linalg.solve(L.T, np.linalg.solve(L, r))
        norm = float(np.linalg.norm(resid - A @ cand))
        if norm >= best:
            break
        alpha, best = cand, norm
    return oracle, locations, prior, alpha, L


def pair_predict(fitted, params, queries, clamp=True):
    oracle, locations, prior, alpha, L = fitted
    out = []
    for loc in queries:
        k_star = pair_kernel(params, np.array([oracle.distance(loc, l) for l in locations]))
        mean = prior + float(k_star @ alpha)
        v = np.linalg.solve(L, k_star)
        var = params.sigma_f2 - float(v @ v)
        out.append((mean, max(var, 0.0) if clamp else var))
    return out


def city_net(seed, n=4, block=300.0):
    """Jittered n x n grid with lengths rounded to 0.1 m, plus a far island edge."""
    rng = np.random.default_rng(seed)
    nodes, pos = [], {}
    for i in range(n):
        for j in range(n):
            nid = f"n{i}_{j}"
            pos[nid] = (round(i * block + rng.uniform(-50, 50), 2),
                        round(j * block + rng.uniform(-50, 50), 2))
            nodes.append({"id": nid, "x": pos[nid][0], "y": pos[nid][1]})
    edges = []
    for i in range(n):
        for j in range(n):
            for di, dj in ((1, 0), (0, 1)):
                if i + di < n and j + dj < n:
                    a, b = f"n{i}_{j}", f"n{i + di}_{j + dj}"
                    if (i + j) % 2:
                        a, b = b, a
                    edges.append({"id": f"{a}-{b}", "from": a, "to": b,
                                  "length_m": round(math.dist(pos[a], pos[b]), 1),
                                  "lanes": 1, "v_max_kmh": 50})
    nodes += [{"id": "x0", "x": 5000.0, "y": 5000.0}, {"id": "x1", "x": 5120.0, "y": 5000.0}]
    edges.append({"id": "x", "from": "x0", "to": "x1", "length_m": 120.0, "lanes": 1,
                  "v_max_kmh": 50})
    return build_network({"version": 1, "cell_length_m": 1.5, "nodes": nodes,
                          "edges": edges, "detectors": []})


def random_points(net, rng, count, integer=False):
    ids = sorted(net.edges)
    out = []
    for _ in range(count):
        e = net.edges[ids[int(rng.integers(0, len(ids)))]]
        frac = float(rng.uniform(0.0, 1.0))
        off = int(frac * e.length_m) if integer else round(frac * e.length_m, 3)
        out.append(NetPoint(e.id, off))
    return out


def sensors(net, seed, count=40, integer=False):
    rng = np.random.default_rng(seed)
    points = random_points(net, rng, count, integer)
    # no sensor on the island: its queries are uncorrelated with every sensor
    return [VolumeObservation(p, i % 3, float(rng.uniform(100.0, 900.0)))
            for i, p in enumerate(points) if p.edge != "x"]


METRICS = pytest.mark.parametrize("euclidean", [False, True], ids=["network", "euclidean"])
INTEGER = pytest.mark.parametrize("integer", [False, True], ids=["float", "int"])


class TestMatchesPairwise:
    @METRICS
    @INTEGER
    def test_distance_rows(self, euclidean, integer):
        net = city_net(11)
        rng = np.random.default_rng(12)
        a = random_points(net, rng, 45, integer)
        b = random_points(net, rng, 60, integer)
        oracle, pairs = _DistanceOracle(net, euclidean), PairOracle(net, euclidean)
        got = oracle.rows(oracle.points(a), oracle.points(b))
        want = np.array([[pairs.distance(p, q) for q in b] for p in a])
        assert np.isinf(want).any() != euclidean
        assert np.array_equal(got, want)

    @METRICS
    @INTEGER
    def test_fit(self, euclidean, integer):
        net = city_net(21)
        obs = sensors(net, 22, integer=integer)
        params = default_params([o.flow_veh_day for o in obs], 100.0)
        params.euclidean = euclidean
        model = fit_gpr(net, obs, params)
        _, _, prior, alpha, chol = pair_fit(net, obs, params)
        assert model.prior_mean == prior
        assert np.array_equal(model.chol, chol)
        assert np.array_equal(model.alpha, alpha)

    @METRICS
    @INTEGER
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130])
    @pytest.mark.parametrize("clamp", [True, False])
    def test_predict(self, monkeypatch, euclidean, integer, count, clamp):
        net = city_net(31)
        obs = sensors(net, 32, integer=integer)
        params = default_params([o.flow_veh_day for o in obs], 100.0)
        params.euclidean = euclidean
        queries = random_points(net, np.random.default_rng(33 + count), count, integer)
        model = fit_gpr(net, obs, params)
        want = pair_predict(pair_fit(net, obs, params), params, queries, clamp)
        # every solver-thread count, the serial path (1) and the pool (2, 3)
        for threads in (1, 2, 3):
            monkeypatch.setattr(impute, "_solver_threads", lambda n=threads: n)
            assert predict_gpr(model, queries, clamp=clamp) == want, threads

    @pytest.mark.parametrize("euclidean", [False], ids=["network"])  # kNN is network-only
    @INTEGER
    def test_knn_rankings(self, euclidean, integer):
        net = city_net(41)
        obs = sensors(net, 42, count=25, integer=integer)
        pairs = PairOracle(net, euclidean)
        for q in random_points(net, np.random.default_rng(43), 8, integer):
            ranked = sorted(obs, key=lambda o: (pairs.distance(q, o.location),
                                                o.location.edge, o.day))
            for k in range(1, len(obs) + 1):
                got = knn_estimate(obs, q, k, net)
                assert got == sum(o.flow_veh_day for o in ranked[:k]) / k


@pytest.fixture
def started(monkeypatch):
    """Threads started while the test runs."""
    threads, start = [], threading.Thread.start

    def record(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    return threads


class TestSolverThreads:
    def model_and_queries(self, count):
        net = city_net(61)
        obs = sensors(net, 62)
        model = fit_gpr(net, obs, default_params([o.flow_veh_day for o in obs], 100.0))
        return model, random_points(net, np.random.default_rng(63), count)

    def test_single_block_starts_no_thread(self, monkeypatch, started):
        model, queries = self.model_and_queries(impute._BLOCK)
        want = predict_gpr(model, queries)
        monkeypatch.setattr(impute, "_solver_threads", lambda: 2)
        assert predict_gpr(model, queries) == want
        assert started == []

    def test_pool_ended_on_return(self, monkeypatch, started):
        model, queries = self.model_and_queries(130)
        monkeypatch.setattr(impute, "_solver_threads", lambda: 2)
        before = threading.active_count()
        predict_gpr(model, queries)
        assert 1 <= len(started) <= 2
        assert threading.active_count() == before

    def test_one_block_in_flight_per_thread(self, monkeypatch):
        model, queries = self.model_and_queries(5 * impute._BLOCK)
        monkeypatch.setattr(impute, "_solver_threads", lambda: 2)
        unread, in_flight = set(), []
        submit, result = ThreadPoolExecutor.submit, Future.result

        def counted_submit(self, *args):
            future = submit(self, *args)
            unread.add(future)
            in_flight.append(len(unread))
            return future

        def counted_result(self, *args):
            unread.discard(self)
            return result(self, *args)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counted_submit)
        monkeypatch.setattr(Future, "result", counted_result)
        predict_gpr(model, queries)
        assert in_flight == [1, 2, 2, 2, 2]

    def failing_last_block(self, monkeypatch):
        """Patches the solve to fail on the last, partial block of 130 queries;
        returns the threads that ran the failing solve."""
        solve, ran = impute._solve_block, []

        def fail_partial(L, K):
            if len(K) < impute._BLOCK:
                ran.append(threading.current_thread())
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(L, K)

        monkeypatch.setattr(impute, "_solve_block", fail_partial)
        monkeypatch.setattr(impute, "_solver_threads", lambda: 2)
        return ran

    def test_helper_error_propagates(self, monkeypatch):
        model, queries = self.model_and_queries(130)
        ran = self.failing_last_block(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            predict_gpr(model, queries)
        assert len(ran) == 1 and ran[0] is not threading.main_thread()

    def test_helper_error_leaves_no_thread(self, monkeypatch, started):
        model, queries = self.model_and_queries(130)
        self.failing_last_block(monkeypatch)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError):
            predict_gpr(model, queries)
        assert started and not any(t.is_alive() for t in started)
        assert threading.active_count() == before

    @pytest.mark.parametrize("env, cpus, expect", [
        ({}, 2, 1),                                                  # BLAS spreads each call
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "2"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "auto"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, 4),  # OpenBLAS's own first
    ])
    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    def test_thread_rule(self, monkeypatch, env, cpus, expect, affinity):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        if affinity:
            monkeypatch.setattr(impute.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(impute.os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(impute.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(impute.os, "cpu_count", lambda: cpus)
        assert impute._solver_threads() == expect


def demo_net():
    spec = json.loads((Path(__file__).resolve().parent.parent / "configs" / "demo.json")
                      .read_text())["network"]
    return build_network(spec)


class TestKnnOneOracle:
    @pytest.mark.parametrize("name", ["demo", "grid8"])
    def test_equal_to_per_target_calls(self, name, monkeypatch):
        net = demo_net() if name == "demo" else city_net(51, n=8)
        obs = sensors(net, 52, count=30)
        targets = random_points(net, np.random.default_rng(53), 40)
        runs = []

        def counting_dijkstra(net_, source):
            runs.append(source)
            return node_distances(net_, source)

        monkeypatch.setattr(impute, "node_distances", counting_dijkstra)
        for k in (1, 3, len(obs)):
            runs.clear()
            got = knn_estimates(obs, targets, k, net)
            # one Dijkstra run per end node of the targets, not two per target
            ends = {n for p in targets for n in (net.edges[p.edge].from_node,
                                                 net.edges[p.edge].to_node)}
            assert sorted(runs) == sorted(ends)
            assert got == [knn_estimate(obs, t, k, net) for t in targets]


def test_disconnected_query_gets_prior():
    net = city_net(51)
    obs = sensors(net, 52)
    params = default_params([o.flow_veh_day for o in obs], 100.0)
    model = fit_gpr(net, obs, params)
    mean, var = predict_gpr(model, [NetPoint("x", 60.0)])[0]
    assert mean == model.prior_mean
    assert var == params.sigma_f2
