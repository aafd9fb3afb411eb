import dataclasses
import gc
import json
import re
from bisect import bisect_right
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import nasch_oracle
from hybridflow.rng import Uniforms, substream
from hybridflow.road_net import build_network, place_detector, route_candidates
from hybridflow import traffic_ca
from hybridflow.traffic_ca import (CollisionError, ScenarioError, ScenarioRuns, VehicleClass,
                                   apply_lane_policy, default_classes, init_ring,
                                   init_scenario, run, state_hash, step)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def long_edge_net(length_m=1500.0, lanes=1, v_max_kmh=27.0):
    return build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": length_m, "y": 0}],
        "edges": [{"id": "ab", "from": "A", "to": "B", "length_m": length_m,
                   "lanes": lanes, "v_max_kmh": v_max_kmh}],
        "detectors": [],
    })


def merge_state(seed=50):
    """Two flows merging into one single-lane edge, with a lane drop from ab."""
    net = build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 300, "y": 0},
                  {"id": "C", "x": 300, "y": 100}, {"id": "D", "x": 600, "y": 50}],
        "edges": [
            {"id": "ab", "from": "A", "to": "B", "length_m": 300, "lanes": 2,
             "v_max_kmh": 108},
            {"id": "cb", "from": "C", "to": "B", "length_m": 150, "lanes": 1,
             "v_max_kmh": 54},
            {"id": "bd", "from": "B", "to": "D", "length_m": 300, "lanes": 1,
             "v_max_kmh": 108},
        ],
        "detectors": [],
    })
    demand = [
        {"origin": "A", "dest": "D", "rate_veh_h": 1600.0, "splits": [1.0]},
        {"origin": "C", "dest": "D", "rate_veh_h": 800.0, "splits": [1.0]},
    ]
    return init_scenario(net, demand, default_classes(), seed=seed,
                         class_mix={"car": 0.6, "truck": 0.2, "automated_car": 0.2})


def single_vehicle_state(net, cls, seed=1):
    demand = [{"origin": "A", "dest": "B", "rate_veh_h": 0.0, "splits": [1.0],
               "schedule": [0]}]
    return init_scenario(net, demand, {cls.name: cls}, seed)


class TestUniformReader:
    """The block reader hands out exactly the scalar draws of the generator it reads."""

    @given(calls=st.lists(st.one_of(st.none(), st.integers(0, 3000)), max_size=12),
           seed=st.integers(0, 2 ** 32 - 1), name=st.sampled_from(["traffic", "injection"]))
    # takes that end exactly on, and run past, the first and second block boundaries
    @example(calls=[1000, 24, None, 1023, 1, 3000, None], seed=7, name="traffic")
    def test_mixed_take_and_random(self, calls, seed, name):
        reader, scalar = Uniforms(substream(seed, name)), substream(seed, name)
        for n in calls:  # None: one scalar draw
            if n is None:
                assert reader.random() == scalar.random()
            else:
                assert reader.take(n) == [scalar.random() for _ in range(n)]


CAR5 = VehicleClass("car5", v_max_cells=5, length_cells=1, dawdle_p_d=0.0,
                    brake_p_b=0.0, standstill_p_0=0.0)


class TestStepRules:
    def test_free_acceleration_sequence(self):
        # forced by the acceleration rule: 1,2,3,4,5,5
        net = long_edge_net()  # 27 km/h -> 5 cells/s limit
        state = single_vehicle_state(net, CAR5)
        vels = []
        for _ in range(6):
            step(state)
            vels.append(next(iter(state.vehicles.values())).v)
        assert vels == [1, 2, 3, 4, 5, 5]

    def test_bumper_to_bumper_ring_stays_frozen(self):
        car = default_classes()["car"]
        state = init_ring(30, 6, car, seed=3)  # 6 * 5 cells = full ring
        for _ in range(20):
            step(state)
            assert all(v.v == 0 for v in state.vehicles.values())
        assert len(state.vehicles) == 6

    def test_velocity_bounds(self):
        car = default_classes()["car"]
        state = init_ring(400, 30, car, seed=11)
        for _ in range(200):
            step(state)
            for veh in state.vehicles.values():
                assert 0 <= veh.v <= veh.cls.v_max_cells


class TestNaschDegenerate:
    def test_deterministic_ring_state_for_state(self):
        cls = VehicleClass("pt", v_max_cells=2, length_cells=1, dawdle_p_d=0.0)
        positions = [0, 6, 12, 18, 24]
        state = init_ring(30, 5, cls, seed=5, positions=positions,
                          nasch_degenerate=True)
        oracle = nasch_oracle.simulate(30, positions, 2, 0.0, 5, 120)
        for t in range(120):
            step(state)
            got = tuple(state.vehicles[i].cell for i in range(5))
            vel = tuple(state.vehicles[i].v for i in range(5))
            assert (got, vel) == oracle[t], f"diverged at step {t}"

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_stochastic_ring_state_for_state(self, seed):
        cls = VehicleClass("pt", v_max_cells=5, length_cells=1, dawdle_p_d=0.3)
        positions = [0, 4, 9, 17, 23, 31, 40, 55]
        state = init_ring(60, 8, cls, seed=seed, positions=positions,
                          nasch_degenerate=True)
        oracle = nasch_oracle.simulate(60, positions, 5, 0.3, seed, 150)
        for t in range(150):
            step(state)
            got = tuple(state.vehicles[i].cell for i in range(8))
            vel = tuple(state.vehicles[i].v for i in range(8))
            assert (got, vel) == oracle[t], f"seed {seed} diverged at step {t}"

    def test_steady_state_flow_one_third(self):
        # L=30, N=5 point vehicles, v_max=2, p=0: fundamental-diagram oracle
        cls = VehicleClass("pt", v_max_cells=2, length_cells=1, dawdle_p_d=0.0)
        positions = [0, 6, 12, 18, 24]
        oracle = nasch_oracle.simulate(30, positions, 2, 0.0, 9, 500)
        crossings = nasch_oracle.flow_at_cell(oracle, 30, 0, 200, 500)
        assert crossings == 100  # 1/3 veh/step over 300 steps exactly

        state = init_ring(30, 5, cls, seed=9, positions=positions,
                          nasch_degenerate=True)
        place_detector(state.net, "ring", 0)
        for _ in range(200):
            step(state)
        obs = run(state, 300, window_s=300).observations["det0"]
        assert [(o.t0, o.t1, o.count) for o in obs] == [(200, 500, 100)]


class TestInjection:
    def test_zero_inflow_stays_empty(self):
        net = long_edge_net()
        state = init_scenario(net, [{"origin": "A", "dest": "B", "rate_veh_h": 0.0,
                                     "splits": [1.0]}], {"car5": CAR5}, seed=2)
        for _ in range(300):
            step(state)
        assert state.injected == 0 and not state.vehicles

    def test_bernoulli_probability(self):
        net = long_edge_net()
        state = init_scenario(net, [{"origin": "A", "dest": "B", "rate_veh_h": 1800.0,
                                     "splits": [1.0]}], {"car5": CAR5}, seed=2)
        assert state.demand[0].p_step == pytest.approx(0.5)

    def test_same_seed_same_arrivals(self):
        net = long_edge_net()
        demand = [{"origin": "A", "dest": "B", "rate_veh_h": 600.0, "splits": [1.0]}]
        runs = []
        for _ in range(2):
            state = init_scenario(net, demand, {"car5": CAR5}, seed=77)
            for _ in range(10_000):
                step(state)
            runs.append((state_hash(state), state.injected))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0

    def test_unnormalized_splits_rejected(self):
        net = long_edge_net()
        with pytest.raises(ScenarioError):
            init_scenario(net, [{"origin": "A", "dest": "B", "rate_veh_h": 100.0,
                                 "splits": [0.6, 0.6]}], {"car5": CAR5}, seed=1)

    def test_nan_split_rejected(self):
        # NaN passes a plain "sum differs from 1" test; on two routes it would send
        # every vehicle down the first
        config = json.loads((CONFIG_DIR / "two_route_low.json").read_text())
        net = build_network(config["network"])
        with pytest.raises(ScenarioError, match="do not sum to 1"):
            init_scenario(net, [{"origin": "A", "dest": "B", "rate_veh_h": 100.0,
                                 "splits": [float("nan"), 1.0]}], default_classes(), seed=1)

    @pytest.mark.parametrize("mix", [{"car": float("nan"), "truck": 1.0},
                                     {"car": -1.0, "truck": 2.0},
                                     {"car": float("inf"), "truck": 1.0}])
    def test_non_finite_or_negative_class_share_rejected(self, mix):
        # a NaN share passes a plain "total <= 0" test and sends every vehicle to the
        # last class by name; a negative one passes it while the total stays positive
        config = json.loads((CONFIG_DIR / "demo.json").read_text())
        net = build_network(config["network"])
        with pytest.raises(ScenarioError, match="share must be finite and non-negative"):
            init_scenario(net, [{"origin": "A", "dest": "B", "rate_veh_h": 700.0,
                                 "splits": [1.0], "class_mix": mix}], default_classes(), seed=7)

    def test_unknown_class_rejected(self):
        net = long_edge_net()
        with pytest.raises(ScenarioError):
            init_scenario(net, [{"origin": "A", "dest": "B", "rate_veh_h": 100.0,
                                 "splits": [1.0], "class_mix": {"ghost": 1.0}}],
                          {"car5": CAR5}, seed=1)


class TestDwell:
    def test_single_vehicle_dwell(self):
        # hand simulation: inject front at cell 0 (length 1), v=0; velocities
        # 1,2,3,4 then 5; front positions 1,3,6,10,15,20,... exits the 100-cell
        # edge when front >= 100, at t=22 (free-flow 20 s + acceleration phase)
        net = long_edge_net(length_m=150.0)  # 100 cells
        metrics = run(single_vehicle_state(net, CAR5), 40)
        assert metrics.trips == 1, "vehicle should have completed its trip"
        assert metrics.mean_dwell_s == 22

    def test_zero_demand_run(self):
        net = long_edge_net()
        state = init_scenario(net, [], {"car5": CAR5}, seed=4)
        metrics = run(state, 100)
        assert metrics.trips == 0 and metrics.mean_dwell_s is None

    def test_metrics_bytewise_reproducible(self):
        net = long_edge_net(lanes=2)
        demand = [{"origin": "A", "dest": "B", "rate_veh_h": 900.0, "splits": [1.0]}]
        blobs = []
        for _ in range(2):
            state = init_scenario(net, demand, default_classes(), seed=13)
            blobs.append(json.dumps(run(state, 400).to_dict(), sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_consecutive_runs_count_their_own_trips(self):
        state = merge_state()
        a = run(state, 300)
        b = run(state, 300)
        assert a.trips > 0 and b.trips > 0
        assert a.trips + b.trips == state.exited
        assert a.injected + b.injected == state.injected
        assert b.exited == b.trips
        assert sum(b.per_class_trips.values()) == b.trips
        whole = run(merge_state(), 600)
        assert a.trips + b.trips == whole.trips
        assert {c: a.per_class_trips.get(c, 0) + b.per_class_trips.get(c, 0)
                for c in whole.per_class_trips} == whole.per_class_trips
        # dwells are whole seconds, so mean * trips recovers each call's dwell sum
        assert (round(a.mean_dwell_s * a.trips) + round(b.mean_dwell_s * b.trips)
                == round(whole.mean_dwell_s * whole.trips))


class TestLanePolicy:
    def two_lane_state(self, seed=21):
        net = long_edge_net(length_m=600.0, lanes=2, v_max_kmh=108.0)
        classes = default_classes()
        demand = [{"origin": "A", "dest": "B", "rate_veh_h": 2600.0, "splits": [1.0],
                   "class_mix": {"car": 0.7, "truck": 0.3}}]
        return net, init_scenario(net, demand, classes, seed=seed)

    def test_trucks_keep_to_lane_zero(self):
        net, state = self.two_lane_state()
        apply_lane_policy(state, "ab", [{"car", "truck", "automated_car"}, {"car", "automated_car"}])
        for _ in range(1000):
            step(state)
            for veh in state.vehicles.values():
                if veh.cls.name == "truck":
                    assert veh.lane == 0

    def test_all_permissive_mask_is_noop(self):
        net1, state1 = self.two_lane_state()
        net2, state2 = self.two_lane_state()
        apply_lane_policy(state2, "ab", [None, None])
        for _ in range(500):
            step(state1)
            step(state2)
        assert state_hash(state1) == state_hash(state2)

    def test_policy_flip_reaches_compliance(self):
        # transient bound found empirically and frozen: 300 steps suffice at
        # this demand for every truck to merge out of lane 1
        net, state = self.two_lane_state(seed=33)
        for _ in range(400):
            step(state)
        apply_lane_policy(state, "ab", [{"car", "truck", "automated_car"}, {"car", "automated_car"}])
        for _ in range(300):
            step(state)
        for _ in range(200):
            step(state)
            for veh in state.vehicles.values():
                if veh.cls.name == "truck" and veh.cell - veh.cls.length_cells + 1 >= 0:
                    assert veh.lane == 0

    def test_all_excluding_mask_rejected(self):
        net, state = self.two_lane_state()
        with pytest.raises(ScenarioError):
            apply_lane_policy(state, "ab", [set(), set()])

    @pytest.mark.parametrize("mask, message", [
        ([5, None], "lane_policies.ab[0]: expected a list, got int"),
        ([["car", None], None], "lane_policies.ab[0][1]: expected str, got None"),
        ([["ghost"], ["car"]], "lane_policies.ab[0]: unknown class 'ghost'"),
        ([None], "lane_policies.ab: expected a list of 2 lane entries, got [None]"),
        ("car", "lane_policies.ab: expected a list of 2 lane entries, got 'car'"),
    ])
    def test_bad_mask_named(self, mask, message):
        net, state = self.two_lane_state()
        with pytest.raises(ScenarioError, match=re.escape(message)):
            apply_lane_policy(state, "ab", mask)

    @pytest.mark.parametrize("policy, message", [
        ([["ghost"], ["ghost"]], "network.edges[0].lane_policy[0]: unknown class 'ghost'"),
        ([[], []], "network.edges[0].lane_policy: mask excludes every class from every lane"),
        ([["car"]], "network.edges[0].lane_policy: expected a list of 2 lane entries"),
    ])
    def test_network_policy_checked(self, policy, message):
        # init_scenario applies a network's lane policies through the same check
        config = json.loads((CONFIG_DIR / "demo.json").read_text())
        config["network"]["edges"][0]["lane_policy"] = policy
        net = build_network(config["network"])
        with pytest.raises(ScenarioError, match=re.escape(message)):
            init_scenario(net, config["demand"], default_classes(), seed=7)

    def test_network_policy_applied(self):
        config = json.loads((CONFIG_DIR / "demo.json").read_text())
        config["network"]["edges"][0]["lane_policy"] = [None, ["car", "automated_car"]]
        state = init_scenario(build_network(config["network"]), config["demand"],
                              default_classes(), seed=7)
        assert state.lane_policies == {"s1": (None, frozenset({"car", "automated_car"}))}


@pytest.mark.parametrize("duration_s, window_s", [(-5, 60), (60, 0), (60, -60)])
def test_run_rejects_ranges(duration_s, window_s):
    state = init_ring(100, 5, default_classes()["car"], seed=1)
    message = ("duration_s must be non-negative" if duration_s < 0
               else "window_s must be at least 1")
    with pytest.raises(ScenarioError, match=f"{message}, got {min(duration_s, window_s)}"):
        run(state, duration_s, window_s=window_s)


class TestScenarioRuns:
    DEMAND = {"origin": "A", "dest": "B", "rate_veh_h": 1800.0, "splits": [1.0, 0.0]}
    TRUCKS_RIGHT = {"au": [{"car", "truck", "automated_car"}, {"car", "automated_car"}]}

    @pytest.fixture
    def runs(self, monkeypatch):
        """A runner on a two-route network; ``runs.calls`` counts the CA runs it makes."""
        net = build_network({
            "version": 1, "cell_length_m": 1.5,
            "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "U", "x": 150, "y": 50},
                      {"id": "L", "x": 150, "y": -50}, {"id": "B", "x": 300, "y": 0}],
            "edges": [
                {"id": "au", "from": "A", "to": "U", "length_m": 150, "lanes": 2,
                 "v_max_kmh": 108},
                {"id": "ub", "from": "U", "to": "B", "length_m": 150, "lanes": 1,
                 "v_max_kmh": 108},
                {"id": "al", "from": "A", "to": "L", "length_m": 180, "lanes": 1,
                 "v_max_kmh": 108},
                {"id": "lb", "from": "L", "to": "B", "length_m": 180, "lanes": 1,
                 "v_max_kmh": 108}],
            "detectors": []})
        runs = ScenarioRuns(net, default_classes(), 5, 90)
        runs.calls = 0
        real = traffic_ca.run

        def counted(*args, **kwargs):
            runs.calls += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(traffic_ca, "run", counted)
        return runs

    def demand(self, **changes):
        return [{**self.DEMAND, **changes}]

    def test_equal_request_served_once(self, runs):
        first = runs.run(self.demand(), self.TRUCKS_RIGHT)
        again = runs.run(self.demand(splits=(1.0, 0.0)),
                         {"au": [["automated_car", "truck", "car"], ("car", "automated_car")]})
        assert again is first
        assert runs.calls == 1

    def test_memoised_run_is_the_plain_run(self, runs):
        metrics = runs.run(self.demand(), self.TRUCKS_RIGHT)
        fresh = init_scenario(runs.net, self.demand(), default_classes(), 5)
        apply_lane_policy(fresh, "au", self.TRUCKS_RIGHT["au"])
        assert run(fresh, 90).to_dict() == metrics.to_dict()
        assert metrics.connected_traces is None

    @pytest.mark.parametrize("other", [
        {"lane_policies": {"au": [None, None]}},
        {"lane_policies": {}},
        {"splits": [0.5, 0.5]},
        {"splits": [1.0]},
        {"rate_veh_h": 1200.0},
        {"class_mix": {"car": 1.0}},
        {"schedule": [0, 3]},
    ])
    def test_other_inputs_run_again(self, runs, other):
        other = dict(other)
        lane_policies = other.pop("lane_policies", self.TRUCKS_RIGHT)
        runs.run(self.demand(), self.TRUCKS_RIGHT)
        runs.run(self.demand(**other), lane_policies)
        assert runs.calls == 2

    def test_untraced_run_does_not_answer_a_traced_request(self, runs):
        untraced = runs.run(self.demand())
        traced = runs.run(self.demand(), trace_connected=True)
        assert runs.calls == 2
        assert untraced.connected_traces is None and traced.connected_traces
        assert traced.to_dict() == untraced.to_dict()
        # tracing draws no randoms, so the traced run answers both requests
        assert runs.run(self.demand()) is traced
        assert runs.run(self.demand(), trace_connected=True) is traced
        assert runs.calls == 2

    def test_dropped_state_freed_by_reference_count(self):
        # the run's vehicles and their spans form no cycle once the state is dropped
        config = json.loads((CONFIG_DIR / "demo.json").read_text())
        runs = ScenarioRuns(build_network(config["network"]), default_classes(), 7, 420)
        gc.collect()
        gc.disable()
        try:
            metrics = runs.run(config["demand"])
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert metrics.queued_end == 0 and metrics.injected > metrics.trips
        assert unreachable == 0


class TestDetectorReadout:
    def test_no_crossings(self):
        net = long_edge_net()
        place_detector(net, "ab", 50, detector_id="d")
        state = init_scenario(net, [], {"car5": CAR5}, seed=1)
        obs = run(state, 60, window_s=60).observations["d"]
        assert len(obs) == 1
        assert obs[0].count == 0 and obs[0].mean_speed_mps is None
        assert obs[0].occupancy == 0.0

    def test_single_crossing_speed(self):
        net = long_edge_net(length_m=150.0)
        place_detector(net, "ab", 60, detector_id="d")
        state = single_vehicle_state(net, CAR5)
        obs = run(state, 30, window_s=30).observations["d"]
        assert [(o.t0, o.t1, o.count) for o in obs] == [(0, 30, 1)]
        assert obs[0].mean_speed_mps == pytest.approx(7.5)  # 5 cells/s * 1.5 m
        assert obs[0].per_class == {"car5": 1}

    def test_unknown_detector(self):
        # only placed detectors report, and only windows the run completes
        net = long_edge_net()
        place_detector(net, "ab", 50, detector_id="d")
        state = init_scenario(net, [], {"car5": CAR5}, seed=1)
        observations = run(state, 59, window_s=60).observations
        assert observations == {"d": []}

    def test_detector_placed_after_init(self):
        net = long_edge_net(length_m=150.0)
        state = single_vehicle_state(net, CAR5)
        place_detector(net, "ab", 60, detector_id="late")
        obs = run(state, 30, window_s=30).observations["late"]
        assert [o.count for o in obs] == [1]

    def test_windows_match_recount_from_positions(self):
        # oracle: count crossings, speeds, classes and occupancy from vehicle
        # positions before and after each step, on a two-lane edge with lane
        # changes and two classes, and compare with run's windows
        net = long_edge_net(length_m=450.0, lanes=2, v_max_kmh=108.0)
        place_detector(net, "ab", 150, detector_id="both")
        place_detector(net, "ab", 220, lanes=[1], detector_id="lane1")
        demand = [{"origin": "A", "dest": "B", "rate_veh_h": 2400.0, "splits": [1.0],
                   "class_mix": {"car": 0.7, "truck": 0.3}}]
        window_s, n_windows = 20, 15
        states = [init_scenario(net, demand, default_classes(), seed=5) for _ in range(2)]
        got = run(states[0], window_s * n_windows, window_s=window_s).observations
        state = states[1]
        expected = {d: [] for d in net.detectors}
        for k in range(n_windows):
            acc = {d: ([], {}, []) for d in net.detectors}
            for _ in range(window_s):
                before = {vid: (veh.cell, veh.front_out) for vid, veh in state.vehicles.items()}
                step(state)
                for vid, (cell, out) in before.items():
                    veh = state.vehicles.get(vid)  # lane changes come before the move
                    if veh is None or out:
                        continue
                    for d, det in net.detectors.items():
                        if veh.lane in det.lanes and cell < det.cell <= cell + veh.v:
                            speeds, classes, _ = acc[d]
                            speeds.append(veh.v * net.cell_length_m)
                            classes[veh.cls.name] = classes.get(veh.cls.name, 0) + 1
                for d, det in net.detectors.items():
                    covered = sum(
                        1 for lane in det.lanes
                        if any(veh.lane == lane and veh.cell - veh.cls.length_cells
                               < det.cell <= veh.cell
                               for veh in state.vehicles.values()))
                    acc[d][2].append(covered / len(det.lanes))
            for d, (speeds, classes, occ) in acc.items():
                expected[d].append((k * window_s, (k + 1) * window_s, len(speeds),
                                    sum(speeds) / len(speeds) if speeds else None,
                                    classes, sum(occ) / window_s))
        assert {d: [(o.t0, o.t1, o.count, o.mean_speed_mps, o.per_class, o.occupancy)
                    for o in obs] for d, obs in got.items()} == expected
        assert sum(o.count for o in got["both"]) > 20
        assert 0 < sum(o.count for o in got["lane1"]) < sum(o.count for o in got["both"])
        assert any(o.occupancy > 0 for o in got["both"])


class TestInvariants:
    def test_ring_conservation(self):
        car = default_classes()["car"]
        state = init_ring(300, 24, car, seed=8)
        for _ in range(300):
            step(state)
            assert len(state.vehicles) == 24

    def test_collision_free_mixed_scenario(self):
        state = merge_state()
        for _ in range(600):
            step(state)  # the per-step segment sweep raises on any overlap
        assert state.injected > 50
        assert state.exited > 0

    def test_overlapping_ring_positions_rejected(self):
        car = default_classes()["car"]  # 5 cells long
        with pytest.raises(CollisionError):
            init_ring(100, 2, car, seed=1, positions=[10, 13])

    def test_step_sweep_catches_overlap(self):
        # stretch one vehicle's body by hand over its follower's cells; the
        # segment sweep at the end of the next step must raise
        auto = default_classes()["automated_car"]
        state = init_ring(200, 2, auto, seed=1, positions=[0, 100])
        state.vehicles[1].cls = dataclasses.replace(auto, length_cells=150)
        with pytest.raises(CollisionError):
            step(state)

    def test_determinism_state_hash(self):
        net = long_edge_net(lanes=2)
        demand = [{"origin": "A", "dest": "B", "rate_veh_h": 1200.0, "splits": [1.0]}]
        hashes = []
        for _ in range(2):
            state = init_scenario(net, demand, default_classes(), seed=99)
            hs = []
            for _ in range(200):
                step(state)
                hs.append(state_hash(state))
            hashes.append(hs)
        assert hashes[0] == hashes[1]

    def test_queue_wait_counts_toward_dwell(self):
        # single-lane edge, inflow far above capacity: vehicles queue outside
        net = long_edge_net(length_m=150.0, v_max_kmh=27.0)
        demand = [{"origin": "A", "dest": "B", "rate_veh_h": 3600.0, "splits": [1.0]}]
        state = init_scenario(net, demand, {"car5": CAR5}, seed=60)
        run(state, 200)
        late = run(state, 400)
        assert sum(len(q) for q in state.queues) > 0
        free_flow_dwell = 22
        assert late.trips, "expected trips once congestion built up"
        assert late.mean_dwell_s > free_flow_dwell


# ---------------------------------------------------------------------------
# the lane-change and entry-arbitration phases against their per-vehicle forms

_INF = float("inf")


def reference_chain_scan(state, veh, edge, lane, cell, route_pos, need_far, wall_gap):
    """The chain scan as it was before it started at the lane's end: it searches the
    caller's own lane first, so it serves a caller that has not looked there."""
    net = state.net
    base = 0
    e, ln, c, rp = edge, lane, cell, route_pos
    for _ in range(65):
        segs = state._segs.get((e, ln))
        if segs:
            i = bisect_right(segs, [c, _INF, _INF])
            if i < len(segs):
                gap = base + segs[i][0] - c - 1
                if wall_gap is not None and wall_gap < gap:
                    return wall_gap, None
                return min(gap, need_far), segs[i][3] if gap <= need_far else None
        end_gap = base + (net.edges[e].cell_count - 1 - c)
        if wall_gap is not None and wall_gap <= end_gap:
            return wall_gap, None
        if end_gap >= need_far:
            return need_far, None
        nrp = traffic_ca._next_route_index(veh, rp)
        if nrp is None:
            return need_far, None
        ne = veh.route[nrp]
        nlane = traffic_ca._mapped_lane(state, ne, ln, veh.cls)
        if nlane is None:
            return end_gap, None
        base = end_gap
        e, ln, c, rp = ne, nlane, -1, nrp
    raise RuntimeError("chain scan failed to terminate")


def reference_lane_change_phase(state):
    """The per-vehicle lane-change loop that the candidate pass replaced.

    A move sets the vehicle's lane and builds the occupancy index afresh, so the
    index the later vehicles read does not depend on how the CA keeps it.
    """
    edges = state.net.edges
    for vid, veh in state.vehicles.items():
        segs_map = state._segs
        e = veh.edge
        if edges[e].lanes < 2 or veh.front_out:
            continue
        cell, lane = veh.cell, veh.lane
        lo_me = cell - veh.cls.length_cells + 1
        if lo_me < 0:
            continue
        allowed = traffic_ca._allowed_lanes(state, e, veh.cls)
        mandatory = lane not in allowed
        need = veh.v + 2
        probe = [cell, _INF, _INF]
        own = segs_map[(e, lane)]
        i = bisect_right(own, probe)
        if i < len(own):
            gap_cur = min(own[i][0] - cell - 1, need)
        else:
            gap_cur, _ = reference_chain_scan(state, veh, e, lane, cell, veh.route_pos,
                                              need, None)
        if not mandatory and gap_cur > veh.v:
            continue
        if mandatory:
            candidates = sorted((l for l in allowed if l != lane),
                                key=lambda l: (abs(l - lane), l))
        else:
            candidates = [l for l in (lane - 1, lane + 1) if l in allowed]
        for target in candidates:
            segs = segs_map.get((e, target), [])
            i = bisect_right(segs, probe)
            if i >= 1:
                behind = segs[i - 1]
                if behind[1] >= lo_me:
                    continue
                if lo_me - behind[1] - 1 < state.vehicles[behind[2]].cls.v_max_cells:
                    continue
            if not mandatory:
                gap_t, _ = reference_chain_scan(state, veh, e, target, cell, veh.route_pos,
                                                need, None)
                if gap_t <= gap_cur:
                    continue
            veh.lane = target
            traffic_ca._build_segments(state)
            break


def reference_entry_arbitration(state):
    """The per-vehicle arbitration loop that the lane-end walk replaced."""
    net = state.net
    claims = {}
    for vid, veh in state.vehicles.items():
        veh._wall = None
        if veh.front_out:
            continue
        edge = net.edges[veh.edge]
        v_possible = min(veh.v + 1, veh.cls.v_max_cells, edge.v_max_cells)
        dist = edge.cell_count - veh.cell
        if v_possible < dist:
            continue
        ln, rp = veh.lane, veh.route_pos
        source = (veh.edge, veh.lane)
        while v_possible >= dist:
            nrp = traffic_ca._next_route_index(veh, rp)
            if nrp is None:
                break
            ne = veh.route[nrp]
            nlane = traffic_ca._mapped_lane(state, ne, ln, veh.cls)
            if nlane is None:
                break
            claims.setdefault((ne, nlane), []).append((dist, vid, source))
            ln, rp = nlane, nrp
            source = (ne, nlane)
            dist += net.edges[ne].cell_count
    for lst in claims.values():
        lst.sort()
        winner_source = lst[0][2]
        for dist, vid, source in lst[1:]:
            if source == winner_source:
                continue
            veh = state.vehicles[vid]
            wall = dist - 1
            if veh._wall is None or wall < veh._wall:
                veh._wall = wall


def reference_step(state):
    """step() with the per-vehicle lane-change and arbitration phases."""
    with mock.patch.object(traffic_ca, "_lane_change_phase", reference_lane_change_phase), \
            mock.patch.object(traffic_ca, "_entry_arbitration", reference_entry_arbitration):
        step(state)


def microscopic(state):
    """Hash, lanes and entry walls: what the two phases decide."""
    return (state_hash(state),
            [(vid, v.lane, v._wall) for vid, v in state.vehicles.items()])


ALL = {"car", "truck", "automated_car"}
SLOW = VehicleClass("slow", v_max_cells=9, length_cells=5, dawdle_p_d=0.2)
# per lane count: masks under which every class keeps a lane
RING_MASKS = {2: [[None, {"car"}], [{"car"}, None], [{"slow"}, {"car"}], [None, set()]],
              3: [[None, {"car"}, None], [{"slow"}, {"car", "slow"}, {"car"}],
                  [set(), None, {"slow"}], [{"car"}, {"car"}, None]]}
MERGE_MASKS = [[ALL, {"car", "automated_car"}, {"car", "automated_car"}],
               [{"car", "automated_car"}, ALL, {"truck"}], [{"truck"}, None, None]]


def mixed_ring(lanes, cells, n, slow_every, v_max, seed):
    """A ring of cars in which every ``slow_every``-th vehicle is of the slower class."""
    state = init_ring(cells, n, default_classes()["car"], seed=seed, lanes=lanes,
                      v_max_cells=v_max)
    state.classes["slow"] = SLOW
    for vid in range(0, n, slow_every):
        state.vehicles[vid].cls = SLOW
    return state


def merge_criterion_2(rate_a=1900.0, rate_c=950.0, kmh_am=108, kmh_cm=72, seed=10):
    """The merge of acceptance criterion 2, 3 lanes and 2 lanes into a single lane,
    at the given inflows and speed limits of the two feeders. The defaults give the CA
    golden merge; the graph is that of ``bench/workloads.MERGE_NETWORK``."""
    net = build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "C", "x": 0, "y": 300},
                  {"id": "M", "x": 450, "y": 60}, {"id": "B", "x": 900, "y": 0}],
        "edges": [
            {"id": "am", "from": "A", "to": "M", "length_m": 450, "lanes": 3,
             "v_max_kmh": kmh_am},
            {"id": "cm", "from": "C", "to": "M", "length_m": 300, "lanes": 2,
             "v_max_kmh": kmh_cm},
            {"id": "mb", "from": "M", "to": "B", "length_m": 450, "lanes": 1, "v_max_kmh": 36}],
        "detectors": []})
    demand = [{"origin": "A", "dest": "B", "rate_veh_h": rate_a, "splits": [1.0]},
              {"origin": "C", "dest": "B", "rate_veh_h": rate_c, "splits": [1.0]}]
    return init_scenario(net, demand, default_classes(), seed=seed,
                         class_mix={"car": 0.5, "truck": 0.25, "automated_car": 0.25})


def assert_steps_match_reference(make, edge, mask, arm_at, steps):
    """Step two copies, one with the reference phases; compare after every step."""
    state, ref = make(), make()
    for t in range(steps):
        if t == arm_at:
            apply_lane_policy(state, edge, mask)
            apply_lane_policy(ref, edge, mask)
        step(state)
        reference_step(ref)
        assert microscopic(state) == microscopic(ref), f"diverged at step {t + 1}"


RING_CASES = dict(lanes=st.sampled_from([2, 3]), cells=st.integers(150, 400),
                  fill=st.floats(0.15, 0.95), slow_every=st.integers(2, 6),
                  v_max=st.integers(3, 20), mask=st.integers(0, 3), arm_at=st.integers(0, 60),
                  seed=st.integers(0, 10_000))
MERGE_CASES = dict(rate_a=st.floats(1200.0, 3200.0), rate_c=st.floats(500.0, 1600.0),
                   kmh_am=st.sampled_from([27, 54, 108]), kmh_cm=st.sampled_from([18, 36, 72]),
                   mask=st.integers(0, 2), arm_at=st.integers(0, 200),
                   seed=st.integers(0, 10_000))


class TestPhasesMatchPerVehicleReference:
    """Example counts come from the hypothesis profile (tests/conftest.py)."""

    @given(**RING_CASES)
    # 3 lanes, the slow class and a mask armed mid-run: a window order that needs
    # two v_max values, which the single-class bench rings never show
    @example(lanes=3, cells=150, fill=0.6, slow_every=3, v_max=10, mask=2, arm_at=48,
             seed=4393)
    def test_rings(self, lanes, cells, fill, slow_every, v_max, mask, arm_at, seed):
        n = max(2, int(fill * cells / 5))
        assert_steps_match_reference(
            lambda: mixed_ring(lanes, cells, n, slow_every, v_max, seed),
            "ring", RING_MASKS[lanes][mask], arm_at, 120)

    @given(**MERGE_CASES)
    def test_criterion_2_merge(self, rate_a, rate_c, kmh_am, kmh_cm, mask, arm_at, seed):
        assert_steps_match_reference(
            lambda: merge_criterion_2(rate_a, rate_c, kmh_am, kmh_cm, seed),
            "am", MERGE_MASKS[mask], arm_at, 300)


# ---------------------------------------------------------------------------
# the chain scan from a lane's end, on the kept index

def assert_scans_agree(state, edge, mask, arm_at, steps):
    """After every step, from every body's front in each lane of its edge with no span
    ahead, the scan agrees with the one that searches that lane first."""
    scans = 0
    for t in range(steps):
        if t == arm_at:
            apply_lane_policy(state, edge, mask)
        step(state)
        for veh in state.vehicles.values():
            if veh.front_out:
                continue
            e, cell = veh.edge, veh.cell
            end_gap = state.net.edges[e].cell_count - 1 - cell
            for lane in range(state.net.edges[e].lanes):
                segs = state._segs.get((e, lane), [])
                if bisect_right(segs, [cell, _INF, _INF]) < len(segs):
                    continue  # a span ahead in the lane: the caller's own find
                # horizons and walls either side of the lane's end, and a horizon
                # that reaches a few edges on
                for need, wall in ((veh.v + 2, None), (end_gap, None), (end_gap + 1, None),
                                   (400, None), (400, end_gap), (400, end_gap + 1),
                                   (end_gap + 3, 0), (400, veh._wall)):
                    args = (state, veh, e, lane, cell, veh.route_pos, need, wall)
                    assert traffic_ca._chain_scan(*args) == reference_chain_scan(*args), \
                        f"scan differs at step {t + 1}: {args[1:]}"
                scans += 1
    assert scans


class TestChainScanOnKeptIndex:
    """Example counts come from the hypothesis profile (tests/conftest.py)."""

    @given(**RING_CASES)
    def test_mixed_rings(self, lanes, cells, fill, slow_every, v_max, mask, arm_at, seed):
        n = max(2, int(fill * cells / 5))
        assert_scans_agree(mixed_ring(lanes, cells, n, slow_every, v_max, seed), "ring",
                           RING_MASKS[lanes][mask], arm_at, 80)

    @given(**MERGE_CASES)
    def test_criterion_2_merge(self, rate_a, rate_c, kmh_am, kmh_cm, mask, arm_at, seed):
        assert_scans_agree(merge_criterion_2(rate_a, rate_c, kmh_am, kmh_cm, seed), "am",
                           MERGE_MASKS[mask], arm_at, 240)


# ---------------------------------------------------------------------------
# the occupancy index that the step phases keep, against one built from scratch

def kept_index(state):
    """The kept index as {(edge, lane): [(lo, hi, vid), ...]} in its stored order.

    Also checks that every span carries its vehicle, that each vehicle lists
    exactly its own spans under their lanes, and that no lane is kept empty.
    """
    listed = {}
    for vid, veh in state.vehicles.items():
        assert veh._spans, f"vehicle {vid} holds no span"
        for key, span in veh._spans:
            assert span[2] == vid and span[3] is veh
            listed[id(span)] = key
    kept = {}
    for key, lst in state._segs.items():
        assert lst, f"empty lane {key} kept"
        for span in lst:
            assert listed.pop(id(span)) == key
        kept[key] = [tuple(span[:3]) for span in lst]
    assert not listed, "a vehicle lists a span that the index lacks"
    return kept


def scratch_index(state):
    """Every vehicle's spans derived from its state, each lane sorted by position."""
    spans = {}
    for vid, veh in state.vehicles.items():
        for e, lane, lo, hi in traffic_ca._body_segments(veh, state.net):
            spans.setdefault((e, lane), []).append((lo, hi, vid))
    return {key: sorted(lst) for key, lst in spans.items()}


def assert_index_kept(state, edge, mask, arm_at, steps):
    for t in range(steps):
        if t == arm_at:
            apply_lane_policy(state, edge, mask)
        step(state)
        assert kept_index(state) == scratch_index(state), f"index differs at step {t + 1}"


class TestIndexMatchesScratchBuild:
    """After every step the kept index equals a from-scratch build, span for span."""

    @given(**RING_CASES)
    def test_mixed_rings(self, lanes, cells, fill, slow_every, v_max, mask, arm_at, seed):
        n = max(2, int(fill * cells / 5))
        assert_index_kept(mixed_ring(lanes, cells, n, slow_every, v_max, seed), "ring",
                          RING_MASKS[lanes][mask], arm_at, 120)

    @given(**MERGE_CASES)
    def test_criterion_2_merge(self, rate_a, rate_c, kmh_am, kmh_cm, mask, arm_at, seed):
        assert_index_kept(merge_criterion_2(rate_a, rate_c, kmh_am, kmh_cm, seed), "am",
                          MERGE_MASKS[mask], arm_at, 300)

    def test_trucks_straddling_the_seam(self):
        # 8-cell trucks on a 2-lane 160-cell ring, two of them across the seam at the start
        truck = default_classes()["truck"]
        positions = [156, 157, 20, 21, 45, 46, 70, 71, 95, 96, 120, 121]
        state = init_ring(160, len(positions), truck, seed=4, lanes=2, positions=positions)
        straddling = 0
        for t in range(300):
            straddling += any(len(veh._spans) == 2 for veh in state.vehicles.values())
            step(state)
            assert kept_index(state) == scratch_index(state), f"index differs at step {t + 1}"
        assert straddling > 30

    def test_demo_network_with_detectors(self):
        # run() arms the demo network's three detectors; vehicles run off their routes
        config = json.loads((CONFIG_DIR / "demo.json").read_text())
        net = build_network(config["network"])
        state = init_scenario(net, config["demand"], default_classes(), seed=7,
                              class_mix={"car": 0.55, "truck": 0.15, "automated_car": 0.3})
        real_step, front_out = traffic_ca.step, []

        def checked_step(st):
            real_step(st)
            front_out.append(sum(veh.front_out for veh in st.vehicles.values()))
            assert kept_index(st) == scratch_index(st), f"index differs at t={st.clock_s}"
            return st

        with mock.patch.object(traffic_ca, "step", checked_step):
            metrics = run(state, 900, window_s=60)
        assert len(front_out) == 900 and sum(front_out) > 0
        assert metrics.trips > 20
        assert all(sum(o.count for o in obs) > 0 for obs in metrics.observations.values())


class TestInteractingLaneChanges:
    """A lower id's move in a step changes what a higher id may do in the same step."""

    CAR = VehicleClass("car", v_max_cells=5, length_cells=1, dawdle_p_d=0.0, brake_p_b=0.0,
                       standstill_p_0=0.0)
    SLOW = dataclasses.replace(CAR, name="slow")

    def ring(self, positions):
        # vehicle i starts in lane i % 2; vehicle 0 is slow and may not use lane 0
        state = init_ring(100, len(positions), self.CAR, seed=1, lanes=2, positions=positions)
        state.classes["slow"] = self.SLOW
        state.vehicles[0].cls = self.SLOW
        apply_lane_policy(state, "ring", [{"car"}, None])
        return state

    def lanes_after_one_step(self, positions, stepper):
        state = self.ring(positions)
        stepper(state)
        return [state.vehicles[vid].lane for vid in range(len(positions))]

    def test_move_frees_a_later_target(self):
        # 0 (lane 0, cell 10) must leave lane 0. 1 (lane 1, cell 12) is boxed in
        # by 3 (lane 1, cell 13), and 0 sits too close behind it in lane 0; once
        # 0 has moved out, lane 0 is free behind 1 and 1 changes in the same step
        positions = [10, 12, 60, 13]
        lanes = self.lanes_after_one_step(positions, step)
        assert lanes[:2] == [1, 0]
        assert lanes == self.lanes_after_one_step(positions, reference_step)

    def test_move_blocks_a_later_target(self):
        # 2 (lane 0, cell 12) is boxed in by 4 (lane 0, cell 13) with lane 1 free
        # behind it, until 0 (lane 0, cell 10) changes into lane 1 first
        positions = [10, 50, 12, 70, 13]
        lanes = self.lanes_after_one_step(positions, step)
        assert lanes[0] == 1 and lanes[2] == 0
        assert lanes == self.lanes_after_one_step(positions, reference_step)


class TestLaneChangeWindows:
    """Where the candidate pass looks, on hand-built 100-cell rings of 2-cell cars at rest.

    A blocked vehicle is tried only when its body lies in a window of an adjacent
    lane: from the lane's start to its first span, or from a span's end plus its
    owner's v_max to the next span. Vehicle 0 is the subject and vehicle 1 boxes it
    in from just ahead, unless a case says otherwise. Every step is checked against
    the per-vehicle reference; the ids the rule was tried on show the candidates.
    """

    CAR = VehicleClass("car", v_max_cells=5, length_cells=2, dawdle_p_d=0.0, brake_p_b=0.0,
                       standstill_p_0=0.0)
    TRUCK = dataclasses.replace(CAR, name="truck")
    FAST = dataclasses.replace(CAR, name="fast", v_max_cells=9)

    def ring(self, lanes, cars, mask):
        state = init_ring(100, 0, self.CAR, seed=1, lanes=lanes)
        state.classes.update(truck=self.TRUCK, fast=self.FAST)
        for vid, (cls, lane, front) in enumerate(cars):
            state.vehicles[vid] = traffic_ca.Vehicle(vid, cls, "ring", lane, front, ("ring",),
                                                     0, True, 0)
        state._next_vid = state.injected = len(cars)
        traffic_ca._build_segments(state)
        if mask is not None:
            apply_lane_policy(state, "ring", mask)
        return state

    def step_both(self, lanes, cars, mask=None):
        """Lanes after one step and the ids the lane-change rule was tried on."""
        state, ref = self.ring(lanes, cars, mask), self.ring(lanes, cars, mask)
        change_lane, tried = traffic_ca._change_lane, []

        def spy(st, veh):
            tried.append(veh.vid)
            return change_lane(st, veh)

        with mock.patch.object(traffic_ca, "_change_lane", spy):
            step(state)
        reference_step(ref)
        assert microscopic(state) == microscopic(ref)
        return [veh.lane for veh in state.vehicles.values()], tried

    @pytest.mark.parametrize("lanes, target", [(2, 0), (3, 2)])
    @pytest.mark.parametrize("behind, moves", [(5, True), (4, False)])
    def test_follower_v_max_behind(self, lanes, target, behind, moves):
        # the subject's body is 19-20 in lane 1; the follower in the target lane ends
        # ``behind`` free cells back; on 3 lanes, a car beside it closes lane 0
        cars = [(self.CAR, 1, 20), (self.CAR, 1, 22), (self.CAR, target, 18 - behind)]
        if lanes == 3:
            cars.append((self.CAR, 0, 20))
        lanes_after, tried = self.step_both(lanes, cars)
        assert lanes_after[0] == (target if moves else 1)
        assert (0 in tried) == moves

    @pytest.mark.parametrize("span_front, tried_subject", [(22, True), (21, False)])
    @pytest.mark.parametrize("first_window", [True, False])
    def test_body_ends_before_the_next_target_span(self, span_front, tried_subject,
                                                   first_window):
        # the subject (body 19-20) is tried when the target span starts at 21, one cell
        # past its front, and not when it starts at 20, beside it; it never moves, as
        # the target lane is no freer ahead. Outside the first window, a follower at
        # 8-9 opens the window at 15 and a car at 12-13 lies behind that start
        cars = [(self.CAR, 1, 20), (self.CAR, 1, 22), (self.CAR, 0, span_front)]
        if not first_window:
            cars += [(self.CAR, 0, 9), (self.CAR, 1, 13)]
        lanes_after, tried = self.step_both(2, cars)
        assert lanes_after[0] == 1
        assert (0 in tried) == tried_subject

    @pytest.mark.parametrize("lanes, subject_lane, target", [(2, 0, 1), (2, 1, 0), (3, 1, 0)])
    @pytest.mark.parametrize("front", [1, 40, 99])
    def test_empty_target_lane(self, lanes, subject_lane, target, front):
        # front 1 puts the body on the lane's first cell, front 99 on its last, boxed in
        # across the seam; on 3 lanes, a car beside the subject closes lane 2
        cars = [(self.CAR, subject_lane, front), (self.CAR, subject_lane, (front + 2) % 100)]
        if lanes == 3:
            cars.append((self.CAR, 2, front))
        lanes_after, tried = self.step_both(lanes, cars)
        assert lanes_after[0] == target and tried[0] == 0

    def test_first_window_starts_at_cell_zero(self):
        # the target lane's first span lies ahead, so the window from cell 0 holds the
        # subject's body (0-1), and nothing behind it on this edge is seen
        lanes_after, tried = self.step_both(
            2, [(self.CAR, 1, 1), (self.CAR, 1, 3), (self.CAR, 0, 11)])
        assert lanes_after[0] == 0 and tried[0] == 0

    def test_window_starts_before_the_previous_one(self):
        # in lane 0 a fast car (v_max 9, body 8-9) opens a window at 19 that ends at 9,
        # and a car (v_max 5, body 10-11) right ahead of it one at 17; passing over the
        # car at 7-8 in lane 1 must not pass over the subject at 17-18
        cars = [(self.CAR, 1, 18), (self.CAR, 1, 20), (self.CAR, 1, 8),
                (self.FAST, 0, 9), (self.CAR, 0, 11)]
        lanes_after, tried = self.step_both(2, cars)
        assert lanes_after[0] == 0 and tried[0] == 0

    @pytest.mark.parametrize("front, moves", [(7, True), (6, False)])
    def test_target_holds_only_a_seam_straddler(self, front, moves):
        # vehicle 2 straddles the ring's seam in lane 0 (cells 99 and 0); its window
        # starts at cell 0 + 1 + v_max = 6, and the tail at cell 99 ends the lane
        lanes_after, tried = self.step_both(
            2, [(self.CAR, 1, front), (self.CAR, 1, front + 2), (self.CAR, 0, 0)])
        assert lanes_after[0] == (0 if moves else 1)
        assert (0 in tried) == moves

    @pytest.mark.parametrize("lanes, mask, moves", [
        (2, [{"car", "truck", "fast"}, None], False),
        (2, [{"car"}, None], True),
        (3, [None, {"car", "truck", "fast"}, None], False),
        (3, [None, {"car"}, None], True)])
    def test_policy_lane(self, lanes, mask, moves):
        # a truck with the road ahead free: it is tried only when its lane excludes trucks
        subject_lane = lanes - 2
        lanes_after, tried = self.step_both(lanes, [(self.TRUCK, subject_lane, 40)], mask)
        assert (lanes_after[0] != subject_lane) == moves
        assert tried == ([0] if moves else [])

    @pytest.mark.parametrize("follower, tried", [(CAR, [0, 9]), (FAST, [9])])
    def test_open_window_after_closed_gaps(self, follower, tried):
        # in lane 0, fast cars at 9-10, 17-18 and 25-26 leave closed gaps (start 20 >= 17,
        # 28 >= 25, 36 >= 32); the follower at 32-33 opens [39, 41) when it is a car,
        # and closes it when it is fast. The car at 41-42 opens [48, 51). The subject
        # (39-40) and vehicle 9 (49-50) are boxed in; so is vehicle 7 (20-21), which
        # lies in a closed gap. Nobody moves: the target lane is no freer ahead
        cars = [(self.CAR, 1, 40), (self.CAR, 1, 42), (self.FAST, 0, 10), (self.FAST, 0, 18),
                (self.FAST, 0, 26), (follower, 0, 33), (self.CAR, 0, 42), (self.CAR, 1, 21),
                (self.CAR, 1, 23), (self.CAR, 1, 50), (self.CAR, 1, 52), (self.CAR, 0, 52)]
        lanes_after, tried_ids = self.step_both(2, cars)
        assert lanes_after == [lane for _, lane, _ in cars]
        assert tried_ids == tried

    def test_blocked_vehicle_not_tried_for_a_lane_that_bars_it(self):
        lanes_after, tried = self.step_both(2, [(self.TRUCK, 0, 40), (self.CAR, 0, 42)],
                                            [None, {"car"}])
        assert lanes_after[0] == 0 and tried == []
