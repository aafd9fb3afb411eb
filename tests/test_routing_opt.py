import numpy as np
import pytest

from hybridflow.road_net import build_network, place_detector
from hybridflow.routing_opt import (MSA_ITERS, MSA_TOL, AssignmentError, AssignmentProblem,
                                    ODProblem, RouteOption, assign_bmp, assign_combined,
                                    assign_wardrop, bpr_latency, detect_bottlenecks,
                                    SETTINGS, evaluate_policy)
from hybridflow.traffic_ca import (FlowObservation, ScenarioRuns, VehicleClass,
                                   default_classes)


def affine_latency(t0, slope):
    return lambda q: t0 + slope * q


def evaluate(runs, demand, method, k_routes):
    """evaluate_policy with the assign stage's default settings."""
    return evaluate_policy(runs, demand, method, k_routes,
                           *(SETTINGS[k].default for k in ("probe_factor", "density_crit",
                                                           "sustain_s", "lambda")), None)


def two_route_problem(demand=30.0, t0s=(10.0, 20.0), q_crits=(1000.0, 1000.0)):
    routes = [RouteOption(f"r{i}", affine_latency(t0, 1.0), qc)
              for i, (t0, qc) in enumerate(zip(t0s, q_crits))]
    return AssignmentProblem([ODProblem("od", demand, routes)])


class TestWardrop:
    def test_analytic_two_route_instance(self):
        # t1 = 10 + x1, t2 = 20 + x2, demand 30: solving 10+x1 = 20+(30-x1)
        # gives x = (20, 10), common latency 30
        split = assign_wardrop(two_route_problem())
        x = split.flows["od"]
        assert x[0] == pytest.approx(20.0, abs=0.1)
        assert x[1] == pytest.approx(10.0, abs=0.1)
        assert split.converged
        assert split.objective < MSA_TOL == 0.01
        assert split.iterations <= MSA_ITERS == 500

    def test_identical_routes_split_evenly(self):
        p = two_route_problem(demand=100.0, t0s=(10.0, 10.0))
        x = assign_wardrop(p).flows["od"]
        assert x[0] == pytest.approx(x[1], abs=0.5)
        assert sum(x) == pytest.approx(100.0, abs=1e-6)

    def test_single_route_takes_everything(self):
        p = AssignmentProblem([ODProblem("od", 55.0,
                                         [RouteOption("only", affine_latency(5.0, 1.0), 500.0)])])
        assert assign_wardrop(p).flows["od"] == [55.0]

    def test_certificate_on_bpr_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            routes = [RouteOption(f"r{i}", bpr_latency(float(rng.uniform(5, 60)),
                                                       float(rng.uniform(500, 2500))),
                                  float(rng.uniform(500, 2500))) for i in range(n)]
            demand = float(rng.uniform(100, 2000))
            p = AssignmentProblem([ODProblem("od", demand, routes)])
            split = assign_wardrop(p)
            x = split.flows["od"]
            assert sum(x) == pytest.approx(demand, abs=1e-6)
            lat = [r.latency(q) for r, q in zip(routes, x)]
            used = [l for l, q in zip(lat, x) if q > 1e-9]
            assert max(used) - min(lat) < MSA_TOL or not split.converged


def grid_search_margin(q_crits, demand, step=1.0):
    """Brute-force best min-margin on a 1 veh/h grid (2 or 3 routes)."""
    best = -np.inf
    if len(q_crits) == 2:
        q1 = np.arange(0.0, demand + step / 2, step)
        q2 = demand - q1
        margins = np.minimum(q_crits[0] - q1, q_crits[1] - q2)
        return float(margins.max())
    q1 = np.arange(0.0, demand + step / 2, step)
    for a in q1:
        q2 = np.arange(0.0, demand - a + step / 2, step)
        q3 = demand - a - q2
        m = np.minimum(np.minimum(q_crits[0] - a, q_crits[1] - q2), q_crits[2] - q3)
        best = max(best, float(m.max()))
    return best


class TestBmp:
    def test_reference_instance(self):
        p = two_route_problem(demand=1500.0, q_crits=(2000.0, 1000.0))
        split = assign_bmp(p)
        x = split.flows["od"]
        assert x == pytest.approx([1250.0, 250.0], abs=1e-9)
        margins = [2000.0 - x[0], 1000.0 - x[1]]
        assert margins == pytest.approx([750.0, 750.0], abs=1e-9)
        oracle = grid_search_margin((2000.0, 1000.0), 1500.0)
        assert split.objective >= oracle - 1.0

    def test_equal_capacity_splits_evenly(self):
        p = two_route_problem(demand=600.0, q_crits=(1500.0, 1500.0))
        x = assign_bmp(p).flows["od"]
        assert x[0] == pytest.approx(x[1])

    def test_zero_demand(self):
        p = two_route_problem(demand=0.0, q_crits=(2000.0, 800.0))
        split = assign_bmp(p)
        assert split.flows["od"] == [0.0, 0.0]
        assert split.objective == pytest.approx(800.0)

    def test_infeasible_flagged(self):
        p = two_route_problem(demand=4000.0, q_crits=(2000.0, 1000.0))
        split = assign_bmp(p)
        assert split.infeasible
        assert split.objective < 0
        assert sum(split.flows["od"]) == pytest.approx(4000.0)

    def test_matches_grid_oracle_small_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            q_crits = tuple(float(rng.uniform(100, 600)) for _ in range(n))
            demand = float(rng.uniform(0, sum(q_crits) * 0.95))
            p = AssignmentProblem([ODProblem("od", demand,
                                             [RouteOption(f"r{i}", affine_latency(10.0, 0.1), qc)
                                              for i, qc in enumerate(q_crits)])])
            split = assign_bmp(p)
            assert sum(split.flows["od"]) == pytest.approx(demand, abs=1e-6)
            assert split.objective >= grid_search_margin(q_crits, demand) - 1.0


class TestCombined:
    def test_lambda_zero_equals_bmp(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            q_crits = [float(rng.uniform(300, 3000)) for _ in range(n)]
            demand = float(rng.uniform(0, sum(q_crits) * 0.9))
            routes = [RouteOption(f"r{i}", bpr_latency(float(rng.uniform(5, 50)), qc), qc)
                      for i, qc in enumerate(q_crits)]
            p = AssignmentProblem([ODProblem("od", demand, routes)])
            bmp = assign_bmp(p)
            comb = assign_combined(p, lam=0.0)
            assert comb.flows["od"] == pytest.approx(bmp.flows["od"], abs=1e-9)
            assert comb.objective == pytest.approx(bmp.objective, abs=1e-9)

    def test_large_lambda_approaches_user_equilibrium(self):
        # grid-search oracle at 1 veh/h over the scalar split confirmed the
        # optimum sits at the equilibrium point (20, 10) for large lambda
        p = two_route_problem()
        split = assign_combined(p, lam=1e6)
        assert split.flows["od"][0] == pytest.approx(20.0, abs=1.0)

        def objective(x1):
            flows = [x1, 30.0 - x1]
            beck = 10 * flows[0] + flows[0] ** 2 / 2 + 20 * flows[1] + flows[1] ** 2 / 2
            margin = min(1000.0 - flows[0], 1000.0 - flows[1])
            return margin - 1e6 * beck / 30.0

        grid = np.arange(0.0, 30.0 + 0.5, 1.0)
        best = float(grid[np.argmax([objective(x) for x in grid])])
        assert abs(split.flows["od"][0] - best) <= 1.0

    def test_symmetric_instance_stays_even(self):
        for lam in (0.0, 0.01, 1.0, 100.0):
            p = two_route_problem(demand=400.0, t0s=(15.0, 15.0),
                                  q_crits=(1200.0, 1200.0))
            x = assign_combined(p, lam=lam).flows["od"]
            assert x[0] == pytest.approx(x[1], abs=1.0)
            assert sum(x) == pytest.approx(400.0, abs=1e-6)

    def test_conservation_property(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            q_crits = [float(rng.uniform(300, 3000)) for _ in range(n)]
            demand = float(rng.uniform(1, sum(q_crits) * 0.9))
            routes = [RouteOption(f"r{i}", bpr_latency(float(rng.uniform(5, 50)), qc), qc)
                      for i, qc in enumerate(q_crits)]
            p = AssignmentProblem([ODProblem("od", demand, routes)])
            for split in (assign_wardrop(p), assign_bmp(p), assign_combined(p, lam=0.5)):
                assert sum(split.flows["od"]) == pytest.approx(demand, abs=1e-6)
                assert all(q >= -1e-9 for q in split.flows["od"])


def obs(det, t0, t1, count, occ):
    return FlowObservation(detector=det, t0=t0, t1=t1, count=count,
                           mean_speed_mps=10.0, per_class={}, occupancy=occ)


class TestBottlenecks:
    def test_free_flow_empty_report(self):
        series = [obs("d", t, t + 60, 20, 0.1) for t in range(0, 600, 60)]
        report = detect_bottlenecks(series, density_crit=0.35, sustain_s=60)
        assert report == []

    def test_sustained_saturation_flagged(self):
        series = [obs("d", t, t + 60, 30, 0.1) for t in range(0, 300, 60)]
        series += [obs("d", t, t + 60, 12, 0.8) for t in range(300, 420, 60)]  # 120 s
        series += [obs("d", t, t + 60, 25, 0.2) for t in range(420, 600, 60)]
        report = detect_bottlenecks(series, density_crit=0.35, sustain_s=60)
        assert len(report) == 1
        edge, onset, measured, q_crit = report[0]
        assert onset == 300
        assert q_crit == pytest.approx(30 / 60 * 3600)

    def test_short_blip_ignored(self):
        series = [obs("d", t, t + 60, 30, 0.1) for t in range(0, 300, 60)]
        series += [obs("d", 300, 360, 12, 0.8)]  # only 60 s < sustain 120
        series += [obs("d", t, t + 60, 25, 0.2) for t in range(360, 600, 60)]
        report = detect_bottlenecks(series, density_crit=0.35, sustain_s=120)
        assert report == []


def lane_drop_net():
    return build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 450, "y": 0},
                  {"id": "C", "x": 900, "y": 0}],
        "edges": [
            {"id": "wide", "from": "A", "to": "B", "length_m": 450, "lanes": 2,
             "v_max_kmh": 108},
            {"id": "narrow", "from": "B", "to": "C", "length_m": 450, "lanes": 1,
             "v_max_kmh": 108},
        ],
        "detectors": [],
    })


class TestCaCoupling:
    def test_lane_drop_bottleneck_flagged(self):
        from hybridflow import traffic_ca
        net = lane_drop_net()
        place_detector(net, "narrow", 20, detector_id="dn")
        place_detector(net, "wide", 150, detector_id="dw")
        demand = [{"origin": "A", "dest": "C", "rate_veh_h": 3200.0, "splits": [1.0]}]
        state = traffic_ca.init_scenario(net, demand, traffic_ca.default_classes(),
                                         seed=3, class_mix={"car": 1.0})
        metrics = traffic_ca.run(state, 900, window_s=60)
        flat = [o for series in metrics.observations.values() for o in series]
        det_edges = {d: det.edge for d, det in net.detectors.items()}
        report = detect_bottlenecks(flat, density_crit=0.3, sustain_s=120,
                                    detectors=det_edges)
        flagged = {e for e, *_ in report}
        # the density field confirms the jam sits at the lane-drop entrance:
        # the wide edge upstream saturates while the narrow edge flows
        assert "wide" in flagged

    def test_evaluate_zero_demand(self):
        net = lane_drop_net()
        demand = [{"origin": "A", "dest": "C", "rate_veh_h": 0.0, "splits": [1.0]}]
        result = evaluate(ScenarioRuns(net, default_classes(), 1, 120), demand, "fixed", 1)
        assert result.mean_dwell_s is None

    def test_evaluate_rejects_no_routes(self):
        net = lane_drop_net()
        demand = [{"origin": "A", "dest": "C", "rate_veh_h": 1200.0, "splits": [1.0]}]
        with pytest.raises(AssignmentError, match="k_routes must be at least 1, got 0"):
            evaluate(ScenarioRuns(net, default_classes(), 9, 60), demand, "bmp", 0)

    def test_evaluate_deterministic(self):
        net = lane_drop_net()
        demand = [{"origin": "A", "dest": "C", "rate_veh_h": 1200.0, "splits": [1.0]}]
        a, b = (evaluate(ScenarioRuns(net, default_classes(), 9, 300), demand, "fixed", 1)
                for _ in range(2))
        assert a.mean_dwell_s == b.mean_dwell_s


def symmetric_two_route_net():
    return build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "U", "x": 300, "y": 100},
                  {"id": "L", "x": 300, "y": -100}, {"id": "B", "x": 600, "y": 0}],
        "edges": [
            {"id": "au", "from": "A", "to": "U", "length_m": 300, "lanes": 1,
             "v_max_kmh": 54},
            {"id": "ub", "from": "U", "to": "B", "length_m": 300, "lanes": 1,
             "v_max_kmh": 54},
            {"id": "al", "from": "A", "to": "L", "length_m": 300, "lanes": 1,
             "v_max_kmh": 54},
            {"id": "lb", "from": "L", "to": "B", "length_m": 300, "lanes": 1,
             "v_max_kmh": 54},
        ],
        "detectors": [],
    })


def test_wardrop_beats_all_on_one_route_at_high_demand():
    net = symmetric_two_route_net()
    demand = [{"origin": "A", "dest": "B", "rate_veh_h": 1800.0, "splits": [0.5, 0.5]}]
    runs = ScenarioRuns(net, default_classes(), 21, 600)
    fixed = evaluate(runs, demand, "fixed", 2)
    wardrop = evaluate(runs, demand, "wardrop", 2)
    assert wardrop.mean_dwell_s is not None and fixed.mean_dwell_s is not None
    assert wardrop.mean_dwell_s < fixed.mean_dwell_s
