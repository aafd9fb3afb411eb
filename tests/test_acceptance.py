"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Frozen scenario configurations live in configs/.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import nasch_oracle
from hybridflow import harness
from hybridflow.cli import main as cli_main
from hybridflow.fingerprint import (evaluate, extract_features, generate_corpus,
                                    split_corpus, train)
from hybridflow.impute import (GprParams, NetPoint, VolumeObservation, fit_gpr,
                               predict_gpr)
from hybridflow.road_net import build_network
from hybridflow.routing_opt import (AssignmentProblem, ODProblem, RouteOption, assign_bmp,
                                    assign_combined, assign_wardrop, bpr_latency,
                                    evaluate_policy)
from hybridflow.traffic_ca import (ScenarioRuns, VehicleClass, apply_lane_policy,
                                   default_classes, init_ring, step)
from hybridflow.transfer import transmission_probability
from hybridflow import radio_env, transfer
from hybridflow.rng import substream_seed
from test_traffic_ca import MERGE_MASKS, merge_criterion_2

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_gate_exactness():
    t0 = time.time()
    assert transmission_probability(0.0, 0.0, 30.0, 4.0) == 0.0
    assert transmission_probability(30.0, 0.0, 30.0, 4.0) == 1.0
    assert transmission_probability(-5.0, -5.0, 30.0, 2.0) == 0.0
    assert transmission_probability(30.0, -5.0, 30.0, 2.0) == 1.0
    mid = transmission_probability(15.0, 0.0, 30.0, 2.0)
    assert abs(mid - 0.25) < 1e-12
    threequarter = transmission_probability(22.5, 0.0, 30.0, 4.0)
    assert abs(threequarter - 0.31640625) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"endpoints exact, 0.25/0.31640625 within 1e-12, {elapsed:.3f}s")


def test_criterion_2_safety_and_conservation():
    t0 = time.time()
    classes = default_classes()
    vehicle_steps = 0
    scenarios = 0
    # closed rings: conservation is exact, occupancy sweep runs every step
    for seed, (cells, n, cname, lanes) in enumerate([
            (600, 40, "car", 1), (600, 90, "car", 1), (450, 50, "car", 2),
            (500, 30, "truck", 1), (500, 55, "truck", 2), (400, 40, "automated_car", 1),
            (700, 120, "car", 2), (350, 40, "truck", 1), (640, 100, "automated_car", 2),
            (800, 60, "car", 2), (300, 55, "car", 1), (450, 26, "truck", 2),
            (900, 150, "car", 2), (800, 110, "car", 1)]):
        state = init_ring(cells, n, classes[cname], seed=seed, lanes=lanes)
        for _ in range(500):
            step(state)  # the per-step segment sweep raises on any overlap
            assert len(state.vehicles) == n  # exact conservation
        vehicle_steps += state.vehicle_steps
        scenarios += 1
    # open networks with merges, lane drops, policies, mixed classes
    for seed in range(10):
        state = merge_criterion_2(1900.0 + 90 * seed, 950.0 + 60 * seed, seed=100 + seed)
        if seed % 2:
            apply_lane_policy(state, "am", MERGE_MASKS[0])
        for _ in range(520):
            step(state)  # the per-step segment sweep raises on any overlap
        vehicle_steps += state.vehicle_steps
        scenarios += 1
    elapsed = time.time() - t0
    assert scenarios >= 20
    assert vehicle_steps >= 1_000_000
    assert elapsed < 60.0
    report(2, f"{vehicle_steps} vehicle-steps over {scenarios} scenarios, "
              f"0 collisions, exact ring conservation, {elapsed:.1f}s")


def test_criterion_3_classic_ca_equivalence():
    t0 = time.time()
    # deterministic reference instance
    cls = VehicleClass("pt", v_max_cells=2, length_cells=1, dawdle_p_d=0.0)
    positions = [0, 6, 12, 18, 24]
    state = init_ring(30, 5, cls, seed=11, positions=positions, nasch_degenerate=True)
    oracle = nasch_oracle.simulate(30, positions, 2, 0.0, 11, 500)
    for t in range(500):
        step(state)
        got = (tuple(state.vehicles[i].cell for i in range(5)),
               tuple(state.vehicles[i].v for i in range(5)))
        assert got == oracle[t], f"deterministic run diverged at step {t}"
    # stochastic runs
    cls_p = VehicleClass("pt", v_max_cells=5, length_cells=1, dawdle_p_d=0.3)
    positions = [0, 5, 11, 19, 26, 34, 41, 50, 58, 66]
    for seed in range(10):
        state = init_ring(75, 10, cls_p, seed=seed, positions=positions,
                          nasch_degenerate=True)
        oracle = nasch_oracle.simulate(75, positions, 5, 0.3, seed, 500)
        for t in range(500):
            step(state)
            got = (tuple(state.vehicles[i].cell for i in range(10)),
                   tuple(state.vehicles[i].v for i in range(10)))
            assert got == oracle[t], f"seed {seed} diverged at step {t}"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(3, f"state-for-state over 500 steps, deterministic + 10 seeds at p=0.3, "
              f"{elapsed:.1f}s")


def test_criterion_4_wardrop_analytic():
    t0 = time.time()
    problem = AssignmentProblem([ODProblem("od", 30.0, [
        RouteOption("r1", lambda q: 10.0 + q, 1000.0),
        RouteOption("r2", lambda q: 20.0 + q, 1000.0)])])
    split = assign_wardrop(problem)  # at most 500 iterations, gap tolerance 0.01
    x = split.flows["od"]
    assert abs(x[0] - 20.0) <= 0.1
    assert abs(x[1] - 10.0) <= 0.1
    assert split.objective < 0.01
    assert split.converged and split.iterations <= 500
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(4, f"x=({x[0]:.3f},{x[1]:.3f}), spread {split.objective:.2e}, "
              f"{split.iterations} iterations, {elapsed:.3f}s")


def test_criterion_5_bmp_optimality():
    t0 = time.time()
    problem = AssignmentProblem([ODProblem("od", 1500.0, [
        RouteOption("r1", bpr_latency(10.0, 2000.0), 2000.0),
        RouteOption("r2", bpr_latency(12.0, 1000.0), 1000.0)])])
    split = assign_bmp(problem)
    q = split.flows["od"]
    margins = [2000.0 - q[0], 1000.0 - q[1]]
    # grid-search oracle at 1 veh/h resolution
    q1 = np.arange(0.0, 1500.0 + 0.5, 1.0)
    oracle_margin = float(np.minimum(2000.0 - q1, 1000.0 - (1500.0 - q1)).max())
    assert abs(margins[0] - 750.0) <= 1.0 and abs(margins[1] - 750.0) <= 1.0
    assert split.objective >= oracle_margin - 1.0
    # combined(lambda=0) == bmp on 100 random instances
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        q_crits = [float(rng.uniform(200, 3000)) for _ in range(n)]
        demand = float(rng.uniform(0, 0.95 * sum(q_crits)))
        routes = [RouteOption(f"r{i}", bpr_latency(float(rng.uniform(5, 60)), qc), qc)
                  for i, qc in enumerate(q_crits)]
        p = AssignmentProblem([ODProblem("od", demand, routes)])
        bmp = assign_bmp(p)
        comb = assign_combined(p, lam=0.0)
        for a, b in zip(bmp.flows["od"], comb.flows["od"]):
            assert abs(a - b) <= 1e-9
        assert abs(bmp.objective - comb.objective) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, f"margins {margins[0]:.1f}/{margins[1]:.1f} vs oracle {oracle_margin:.1f}, "
              f"combined(0)==bmp on 100 instances, {elapsed:.1f}s")


def _net_from_config(config):
    return build_network(config["network"])


def _assign_dwells(name, methods):
    """Per method, the evaluated dwell over seeds 1..10; one network per config and
    one scenario runner per seed, shared by the methods (so they share a probe)."""
    config = harness.load_config(CONFIG_DIR / name)
    acfg = harness.parse_config(config)["stages"]["assign"]
    net = _net_from_config(config)
    dwells = {m: [] for m in methods}
    for seed in range(1, 11):
        runs = ScenarioRuns(net, default_classes(), seed, config["duration_s"],
                            config["window_s"], class_mix={"car": 1.0})
        for m in methods:
            dwells[m].append(evaluate_policy(
                runs, config["demand"], m, k_routes=acfg["k_routes"],
                probe_factor=acfg["probe_factor"], density_crit=acfg["density_crit"],
                sustain_s=acfg["sustain_s"], lam=acfg["lambda"], lane_policies=None).mean_dwell_s)
    return dwells


def test_criterion_6_routing_benefit():
    t0 = time.time()
    congested = _assign_dwells("two_route_congested.json", ("fixed", "bmp"))
    fixed_dwell, bmp_dwell = congested["fixed"], congested["bmp"]
    reduction = 1.0 - np.mean(bmp_dwell) / np.mean(fixed_dwell)
    assert reduction >= 0.10

    low = _assign_dwells("two_route_low.json", ("bmp", "combined"))
    bmp_low, comb_low = low["bmp"], low["combined"]
    assert np.mean(comb_low) <= np.mean(bmp_low)
    elapsed = time.time() - t0
    report(6, f"congested: fixed {np.mean(fixed_dwell):.1f}s vs bmp "
              f"{np.mean(bmp_dwell):.1f}s ({reduction:.0%} reduction, bar 10%); "
              f"low demand: combined {np.mean(comb_low):.1f}s <= bmp "
              f"{np.mean(bmp_low):.1f}s; {elapsed:.0f}s")


def test_criterion_7_transfer_benefit():
    t0 = time.time()
    config = harness.load_config(CONFIG_DIR / "transfer_two_phase.json")
    rows = {r["policy"]: r for r in harness.compare_policies(
        config, ["periodic", "ml_cat", "ml_pcat"], range(1, 11))}
    g_per = rows["periodic"]["goodput_mbps_mean"]
    g_cat = rows["ml_cat"]["goodput_mbps_mean"]
    g_pcat = rows["ml_pcat"]["goodput_mbps_mean"]
    e_per = rows["periodic"]["energy_j_mean"]
    e_cat = rows["ml_cat"]["energy_j_mean"]
    assert g_cat >= 1.5 * g_per
    assert e_cat <= e_per
    assert g_pcat >= g_cat
    elapsed = time.time() - t0
    report(7, f"goodput periodic {g_per:.2f} / ml_cat {g_cat:.2f} / ml_pcat "
              f"{g_pcat:.2f} Mbit/s (ratio {g_cat / g_per:.1f}x, bar 1.5x); energy "
              f"{e_cat:.0f}J <= {e_per:.0f}J; {elapsed:.0f}s")


def test_criterion_8_classifier_accuracy(tmp_path):
    t0 = time.time()
    corpus = generate_corpus(2500, 2.0, 0.5, seed=42)
    train_set, holdout = split_corpus(corpus, 0.2, seed=42)
    train_records = extract_features(train_set)
    hold_records = extract_features(holdout)
    accuracies = {}
    for reg in ("l1", "l2"):
        model = train(train_records, reg=reg, lam=1e-3, epochs=300)
        cm = evaluate(model, hold_records)
        accuracies[reg] = cm.accuracy
        payload = cm.to_dict()  # C/T layout: cc, ct, tc, tt
        (tmp_path / f"confusion_{reg}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2))
        assert set(payload) == {"cc", "ct", "tc", "tt", "accuracy"}
        assert cm.accuracy >= 0.95
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, f"holdout accuracy l1 {accuracies['l1']:.3f} / l2 "
              f"{accuracies['l2']:.3f} on 2500-trace corpus (bar 0.95), {elapsed:.1f}s")


def test_criterion_9_gpr_correctness():
    t0 = time.time()
    # 10-edge line network; spacing on the order of the length scale keeps the
    # noise-free kernel well conditioned (exact interpolation is meaningless
    # on near-duplicate points in float64)
    names = [f"N{i}" for i in range(11)]
    net = build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": nm, "x": 500.0 * i, "y": 0.0} for i, nm in enumerate(names)],
        "edges": [{"id": f"e{i}", "from": names[i], "to": names[i + 1],
                   "length_m": 500.0, "lanes": 1, "v_max_kmh": 54} for i in range(10)],
        "detectors": []})
    rng = np.random.default_rng(21)
    obs = [VolumeObservation(NetPoint(f"e{i}", 250.0), 0, float(rng.uniform(50, 250)))
           for i in range(10)]
    params = GprParams(sigma_f2=1e4, length_scale_m=400.0, sigma_n2=0.0)
    model = fit_gpr(net, obs, params)
    sigma_f = math.sqrt(params.sigma_f2)
    preds = predict_gpr(model, [o.location for o in obs])
    max_err = max(abs(m - o.flow_veh_day) for o, (m, _) in zip(obs, preds))
    assert max_err < 1e-6 * sigma_f

    # two-point closed form
    net2 = build_network({
        "version": 1, "cell_length_m": 1.5,
        "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "B", "x": 1000, "y": 0}],
        "edges": [{"id": "ab", "from": "A", "to": "B", "length_m": 1000.0,
                   "lanes": 1, "v_max_kmh": 54}],
        "detectors": []})
    obs2 = [VolumeObservation(NetPoint("ab", 0.0), 0, 100.0),
            VolumeObservation(NetPoint("ab", 1000.0), 0, 200.0)]
    p2 = GprParams(sigma_f2=1e4, length_scale_m=500.0, sigma_n2=0.0)
    m2 = fit_gpr(net2, obs2, p2)
    k01 = 1e4 * math.exp(-(1000.0 ** 2) / (2 * 500.0 ** 2))
    K = np.array([[1e4, k01], [k01, 1e4]]) + 1e-8 * np.eye(2)
    ks = np.full(2, 1e4 * math.exp(-(500.0 ** 2) / (2 * 500.0 ** 2)))
    closed_form = 150.0 + float(ks @ np.linalg.solve(K, np.array([-50.0, 50.0])))
    got_mean, _ = predict_gpr(m2, [NetPoint("ab", 500.0)])[0]
    assert abs(got_mean - closed_form) <= 1e-9

    # raw posterior variance across 10^4 random queries
    queries = [NetPoint(f"e{int(rng.integers(0, 10))}", float(rng.uniform(0, 500)))
               for _ in range(10_000)]
    raw = predict_gpr(model, queries, clamp=False)
    min_var = min(v for _, v in raw)
    assert min_var > -1e-9
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(9, f"interp err {max_err:.2e} < 1e-6*sigma_f, closed form matched to 1e-9, "
              f"min raw variance {min_var:.2e} over 10^4 queries, {elapsed:.1f}s")


def test_criterion_10_cli_reproducibility(tmp_path):
    t0 = time.time()
    runner = CliRunner()
    outs = []
    for name in ("a", "b"):
        res = runner.invoke(cli_main, ["run", "--config",
                                       str(CONFIG_DIR / "demo.json"),
                                       "--seed", "7", "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        outs.append((tmp_path / name / "report.json").read_bytes())
    assert outs[0] == outs[1]
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(10, f"two CLI runs byte-identical ({len(outs[0])} bytes), {elapsed:.1f}s")
