"""Golden fixtures for the CA kernel: state hashes and detector metrics.

The state digests were recorded on the straightforward per-vehicle kernel (a
`_chain_scan` for every vehicle, `sorted(state.vehicles)` in every phase)
before the lane-ordered rewrite, so any rewrite of the step phases must
reproduce them exactly: same RNG draws, same trajectories. They are pinned in
`artifact_manifest.json` as the `ca-*` cases of `test_artifact_bits.py`, which
calls `scenario_hashes` and `sparse_digests`, as are the bytes of the reports;
`test_report_bytes` checks that the library's `run_experiment` writes the same
`report.json` as the pinned `run` command.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hybridflow import harness
from hybridflow.road_net import build_network
from hybridflow.traffic_ca import (apply_lane_policy, default_classes, init_ring,
                                   init_scenario, run, state_hash, step)
from test_traffic_ca import MERGE_MASKS, merge_criterion_2

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MANIFEST = Path(__file__).resolve().with_name("artifact_manifest.json")
REPORTS = ("demo.json", "transfer_two_phase.json", "two_route_congested.json",
           "two_route_low.json")
CHECK_STEPS = (50, 200, 400)

# (cells, vehicles, class, lanes, seed)
RINGS = {
    "car_1lane": (400, 40, "car", 1, 1),
    "car_2lane": (300, 55, "car", 2, 2),
    "truck_1lane": (400, 30, "truck", 1, 3),
    "truck_2lane": (300, 35, "truck", 2, 4),
    "automated_1lane": (400, 45, "automated_car", 1, 5),
    "automated_2lane": (300, 60, "automated_car", 2, 6),
}

# The sparse regime the configs run: demo.json's network, demand and classes, with and
# without its s1 lane policy; multi-edge routes, lane-end scans and detectors. Per
# (seed, policy): state_hash after run() calls of 60, 150 and 210 s (clock 60, 210,
# 420) and the sha256 of the three calls' metrics, detector windows of 30 s included.
# Recorded on the kernel that drew its uniforms with one numpy call per step.
SPARSE_STEPS = (60, 150, 210)


def _ring(name):
    cells, n, cname, lanes, seed = RINGS[name]
    return init_ring(cells, n, default_classes()[cname], seed=seed, lanes=lanes)


def _nasch_ring():
    return init_ring(300, 40, default_classes()["car"], seed=8, lanes=2,
                     nasch_degenerate=True)


def _merge(seed=10, policy=False):
    state = merge_criterion_2(seed=seed)
    if policy:
        apply_lane_policy(state, "am", MERGE_MASKS[0])
    return state


def _sparse(seed, policy):
    config = harness.load_config(CONFIG_DIR / "demo.json")
    classes, mix = harness._classes_from_config(config["classes"])
    state = init_scenario(build_network(config["network"]), config["demand"], classes, seed,
                          class_mix=mix)
    if policy:
        apply_lane_policy(state, "s1", config["stages"]["fingerprint"]["feed_lane_policy"]["mask"])
    return state


SCENARIOS = {
    **{f"ring_{name}": (lambda name=name: _ring(name), None) for name in RINGS},
    "ring_nasch_degenerate": (_nasch_ring, None),
    "merge": (_merge, None),
    "merge_policy": (lambda: _merge(policy=True), None),
    "merge_policy_at_200": (_merge, 200),
}


def scenario_hashes(name):
    """{"step-<t>": state_hash after step t} for t in CHECK_STEPS; a merge gets the policy
    before step policy_at."""
    make, policy_at = SCENARIOS[name]
    state = make()
    hashes = {}
    for t in range(1, CHECK_STEPS[-1] + 1):
        if t - 1 == policy_at:
            apply_lane_policy(state, "am", MERGE_MASKS[0])
        step(state)
        if t in CHECK_STEPS:
            hashes[f"step-{t}"] = state_hash(state)
    return hashes


def sparse_digests(seed, policy):
    """{"clock-<s>": state_hash after each run() call, "metrics": sha256 of their metrics}."""
    state = _sparse(seed, policy)
    digests, metrics = {}, []
    for duration in SPARSE_STEPS:
        metrics.append(run(state, duration, window_s=30).to_dict())
        digests[f"clock-{state.clock_s}"] = state_hash(state)
    digests["metrics"] = hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()
    return digests


def pinned(case):
    return json.loads(MANIFEST.read_text())[case]


@pytest.mark.parametrize("seed, policy", [(7, True), (2, False)])
def test_sparse_run_split_across_calls(seed, policy):
    # the random draws carry over from one run() call to the next
    whole, split = _sparse(seed, policy), _sparse(seed, policy)
    run(whole, 420)
    run(split, 200)
    run(split, 220)
    want = pinned(f"ca-sparse-{seed}" + "-policy" * policy)["clock-420"]
    assert state_hash(split) == state_hash(whole) == want


def test_mid_run_policy_changes_trajectory():
    # the fixture is only a memo check if the policy actually moves the state
    merge, armed = pinned("ca-merge"), pinned("ca-merge_policy_at_200")
    assert armed["step-200"] == merge["step-200"]
    assert armed["step-400"] != merge["step-400"]


@pytest.mark.parametrize("name", REPORTS)
def test_report_bytes(name, tmp_path):
    # report.json at the config's own seed, through the library rather than the CLI
    config = harness.load_config(CONFIG_DIR / name)
    harness.run_experiment(config, seed=config["seed"], out_dir=tmp_path, base_dir=CONFIG_DIR)
    want = pinned(f"run-{name}")["out/report.json"]
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == want


def test_vehicle_dict_order_stays_ascending():
    # the step phases iterate state.vehicles in dict order and rely on it
    # being ascending by id through injections and exits
    state = _merge(seed=11, policy=True)
    for _ in range(520):
        step(state)
        ids = list(state.vehicles)
        assert all(a < b for a, b in zip(ids, ids[1:]))
    assert 0 < state.exited < state.injected
