"""Golden fixtures for the CA kernel: state hashes and detector metrics.

The state digests were recorded on the straightforward per-vehicle kernel (a
`_chain_scan` for every vehicle, `sorted(state.vehicles)` in every phase)
before the lane-ordered rewrite, so any rewrite of the step phases must
reproduce them exactly: same RNG draws, same trajectories. The bytes of the
reports and comparison rows are pinned in `artifact_manifest.json`
(`test_artifact_bits.py`); `test_report_bytes` checks that the library's
`run_experiment` writes the same `report.json` as the pinned `run` command.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hybridflow import harness
from hybridflow.road_net import build_network
from hybridflow.traffic_ca import (apply_lane_policy, default_classes, init_ring,
                                   init_scenario, run, state_hash, step)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MANIFEST = Path(__file__).resolve().with_name("artifact_manifest.json")
REPORTS = ("demo.json", "transfer_two_phase.json", "two_route_congested.json",
           "two_route_low.json")
CHECK_STEPS = (50, 200, 400)

MERGE_NETWORK = {
    "version": 1, "cell_length_m": 1.5,
    "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "C", "x": 0, "y": 300},
              {"id": "M", "x": 450, "y": 60}, {"id": "B", "x": 900, "y": 0}],
    "edges": [
        {"id": "am", "from": "A", "to": "M", "length_m": 450, "lanes": 3, "v_max_kmh": 108},
        {"id": "cm", "from": "C", "to": "M", "length_m": 300, "lanes": 2, "v_max_kmh": 72},
        {"id": "mb", "from": "M", "to": "B", "length_m": 450, "lanes": 1, "v_max_kmh": 36}],
    "detectors": []}
MERGE_DEMAND = [
    {"origin": "A", "dest": "B", "rate_veh_h": 1900.0, "splits": [1.0]},
    {"origin": "C", "dest": "B", "rate_veh_h": 950.0, "splits": [1.0]},
]
MERGE_MIX = {"car": 0.5, "truck": 0.25, "automated_car": 0.25}
MERGE_POLICY = [{"car", "truck", "automated_car"}, {"car", "automated_car"},
                {"car", "automated_car"}]

# (cells, vehicles, class, lanes, seed)
RINGS = {
    "car_1lane": (400, 40, "car", 1, 1),
    "car_2lane": (300, 55, "car", 2, 2),
    "truck_1lane": (400, 30, "truck", 1, 3),
    "truck_2lane": (300, 35, "truck", 2, 4),
    "automated_1lane": (400, 45, "automated_car", 1, 5),
    "automated_2lane": (300, 60, "automated_car", 2, 6),
}

GOLDEN = {
    "merge": [
        "a67d6cf542493070720445e5051e76a5e3f48a508f060316ce1c323a4baebffe",
        "da831c4761f1aae3fb81f6b7d77112c783f2def7dc2444853bb1c1842b6c7b5c",
        "24cdaba82db0c3079c8acba33af52c5a8166c752b5e15c860f79db899630f7f1",
    ],
    "merge_policy": [
        "e232af4ea8e7a39ca4554b83f77bac3ca664baf62ec8abb6f3932e382cfb9925",
        "dce7f21fb87affb980ffcb82b71d9b55862093fdeedd2f6aa7362de4d353bed3",
        "59ec5216820c6403d40e77ba805b2e65df2914b902ff0decd6f71f1681b6b04e",
    ],
    "merge_policy_at_200": [
        "a67d6cf542493070720445e5051e76a5e3f48a508f060316ce1c323a4baebffe",
        "da831c4761f1aae3fb81f6b7d77112c783f2def7dc2444853bb1c1842b6c7b5c",
        "6b4033530d95fe7d3e3dc25e7da5ba689ac32d7f38136b8a22d9b8e2ee3ab7c1",
    ],
    "ring_automated_1lane": [
        "ac517719dca115b072dd7a90ae3b9c352578efeaf60d4cfdbd29adf195f59ed0",
        "55664ee843e26cc93ea9f7c74f86bd14c4fd038bcc90c534e220ab18e00d055c",
        "9d054e5cb7a1665b3ff3d312255c3478c2cd44db38a1d5d2676d13b559f9ef68",
    ],
    "ring_automated_2lane": [
        "e2a2db04fa1d9d9cf1c1c687a9e88a59f69f69df69eba2280703785ba68e0d94",
        "2e2217784664ec5ace84100c432e67bf93b18ec806bf1671e4377b3533fd7945",
        "361be57d8e4931dd390e82261dc50e767e7a8c219ae61c363c870188b887445c",
    ],
    "ring_car_1lane": [
        "631a14997fe71c0487c6b0ee2a75a7eca75ed6e433e40c855130429a641a7bdd",
        "744428944424f71243f1a2f0e86def55c6ea2162ef94bb6729e08fc045c57f23",
        "377b863a9ce202475278b462486d3dddfe8be2aef8bb1c14c2defedabd3e65a0",
    ],
    "ring_car_2lane": [
        "6f3b08bffec06d57d9c72069c084590309459e2abf291d92802daee4d912881d",
        "107523f8488c36674011b0b7f866a4e0c59f4b1559d827c98ad340cbcf89dd41",
        "6b21e2efd54379bffaf83203771319b25a88902b3bd47932028a2d07641737e2",
    ],
    "ring_nasch_degenerate": [
        "17d942fd9cba50a6d3631cd09f590faf8c39edad05b55eab7b4eb63a0fc9f8ec",
        "13d5e93aa5e9687e2eb5d272208f5e32d4aaf201169b1483e47d59c0b35181f1",
        "4e16b390489c0eee74b67d021e7155d656e0422f0e06454c179c004aae10d3f2",
    ],
    "ring_truck_1lane": [
        "c3927b200b960ba85575f45747c3af4ee99ae930c99205eab00609c798e9f313",
        "129775e197396ec66e68657809f6b14586761d6a7f995c57bf11d0239cada485",
        "0468884d8194268ca6f45c977bc1e78b57fa42c709fad1a4c122cf4661f2c2af",
    ],
    "ring_truck_2lane": [
        "5936bceb1fe77c1ee03b128953a412a6346c51051b7ea64399536b355f339a36",
        "0b36b637d501a275abb6be9d8e862c4b9211c6e8343be0ee3d6a058fa28a21e5",
        "820c667c2c132ce58c582f6ddb3b483d5e25613a2004bb0c936153f8911003f5",
    ],
}
# The sparse regime the configs run: demo.json's network, demand and classes, with and
# without its s1 lane policy; multi-edge routes, lane-end scans and detectors. Per
# (seed, policy): state_hash after run() calls of 60, 150 and 210 s (clock 60, 210,
# 420) and the sha256 of the three calls' metrics, detector windows of 30 s included.
# Recorded on the kernel that drew its uniforms with one numpy call per step.
SPARSE_STEPS = (60, 150, 210)
SPARSE_GOLDEN = {
    (7, False): (["c462a0767dbfc693482e8c8fe3738610577ad557fd814b0d0d585823f9c61228",
                  "0ab562216f761f52399c00d7e17a6b95be5135152283283e8f1e0f2c118783af",
                  "373616196a8d668a27b6d54095217e98de77f6fb18849f4193bf66f05e8a3f98"],
                 "e4422d1db13311635aa667c7ecd8cd1bb0ef92c1c618dd52012a29c17459a3fa"),
    (7, True): (["61c6b2830484af15796e1d0ef31094923380a8e1d4d9fdfa97ed8331e2fffd3f",
                 "a3fb594844706133dc9a5f0c728d9418a707ab1e52a7c4dc84049fb8314f87b5",
                 "e4c7776728dbf50e77ed05b1e9d57510986794145ee25f3484b0e07c25b33411"],
                "0c9190b8441486910dde3a0546ae938c2f3d9ed671bf63ec52fbea70e065e603"),
    (2, False): (["5e363f0698cc264232cb0961bf555e099593f837ac5d33662855484fb566f82d",
                  "1d381154498d1e134d77d4ff119ffb066cf74d7a9a4bc13e82cf3fab1664cf4a",
                  "887bcc474b8a71703ff8f353b951b6de324e05f2e775ecfcfd32943344724bf3"],
                 "d55717067067e9d01a3efb1dcfa1113db7aa7a9e2b4340a7ac71a9516b992fb3"),
    (2, True): (["5e363f0698cc264232cb0961bf555e099593f837ac5d33662855484fb566f82d",
                 "700e79e0e83bf374651dea498a6ef812d6e387a7a2cf9aef7f24ed31a5e78481",
                 "d469c7c7b9442045fb2bdf7ce06f5c8b1aafc70088ddcf2f30e06da3d4c6477a"],
                "a6a4b26dc1a8de5b32e8ad896eab14b22526b5b3edd8a775bdb0f2aa00801755"),
}


def _ring(name):
    cells, n, cname, lanes, seed = RINGS[name]
    return init_ring(cells, n, default_classes()[cname], seed=seed, lanes=lanes)


def _nasch_ring():
    return init_ring(300, 40, default_classes()["car"], seed=8, lanes=2,
                     nasch_degenerate=True)


def _merge(seed=10, policy=False):
    state = init_scenario(build_network(MERGE_NETWORK), MERGE_DEMAND, default_classes(),
                          seed=seed, class_mix=MERGE_MIX)
    if policy:
        apply_lane_policy(state, "am", MERGE_POLICY)
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
    """state_hash after each of CHECK_STEPS; a merge gets the policy before step policy_at."""
    make, policy_at = SCENARIOS[name]
    state = make()
    hashes = []
    for t in range(1, CHECK_STEPS[-1] + 1):
        if t - 1 == policy_at:
            apply_lane_policy(state, "am", MERGE_POLICY)
        step(state)
        if t in CHECK_STEPS:
            hashes.append(state_hash(state))
    return hashes


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_state_hash_sequence(name):
    assert scenario_hashes(name) == GOLDEN[name]


@pytest.mark.parametrize("seed, policy", sorted(SPARSE_GOLDEN))
def test_sparse_state_hashes_and_detectors(seed, policy):
    state = _sparse(seed, policy)
    hashes, metrics = [], []
    for duration in SPARSE_STEPS:
        metrics.append(run(state, duration, window_s=30).to_dict())
        hashes.append(state_hash(state))
    digest = hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()
    assert (hashes, digest) == SPARSE_GOLDEN[seed, policy]


@pytest.mark.parametrize("seed, policy", [(7, True), (2, False)])
def test_sparse_run_split_across_calls(seed, policy):
    # the random draws carry over from one run() call to the next
    whole, split = _sparse(seed, policy), _sparse(seed, policy)
    run(whole, 420)
    run(split, 200)
    run(split, 220)
    assert state_hash(split) == state_hash(whole) == SPARSE_GOLDEN[seed, policy][0][-1]


def test_mid_run_policy_changes_trajectory():
    # the fixture is only a memo check if the policy actually moves the state
    assert GOLDEN["merge_policy_at_200"][1] == GOLDEN["merge"][1]
    assert GOLDEN["merge_policy_at_200"][2] != GOLDEN["merge"][2]


@pytest.mark.parametrize("name", REPORTS)
def test_report_bytes(name, tmp_path):
    # report.json at the config's own seed, through the library rather than the CLI
    config = harness.load_config(CONFIG_DIR / name)
    harness.run_experiment(config, seed=config["seed"], out_dir=tmp_path, base_dir=CONFIG_DIR)
    want = json.loads(MANIFEST.read_text())[f"run-{name}"]["out/report.json"]
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
