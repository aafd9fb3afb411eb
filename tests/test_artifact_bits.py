"""Every digest tier-1 pins, in one table: the artifacts the command line writes and
the in-memory values of the library.

A command-line case runs in-process in an empty directory; ``artifact_manifest.json``
maps it to the SHA-256 of every file it writes, by path, and of its stdout
(``impute --knn`` prints its estimates there). A library case calls a recipe that
returns {key: digest} of values no artifact shows to the bit: CA state hashes,
transfer drives, fingerprint models and built networks. After a change that moves
bytes on purpose, re-pin every case and review the diff of that one file:

    PYTHONPATH=src python tests/test_artifact_bits.py > tests/artifact_manifest.json
"""

import hashlib
import json
import re
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from hybridflow import harness, transfer
from hybridflow.cli import main
from hybridflow.fingerprint import extract_features, generate_corpus, train
from hybridflow.road_net import build_network
from test_ca_golden import SCENARIOS, scenario_hashes, sparse_digests
from test_transfer import (drive, half_filled_table, make_policy, outcome, two_station_scene,
                           uneven_trace)

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().with_name("artifact_manifest.json")
POLICIES = "periodic,cat,pcat,ml_cat,ml_pcat"
# written to each case's directory with the demo network: observations at three detectors
OBSERVATIONS = "edge,offset_m,day,flow\ns1,420,0,9100\ns2,150,0,5200\nl2,300,0,7400\n"
IMPUTE = ["impute", "--network", "net.json", "--observations", "obs.csv",
          "--targets", "l1:300,s2:30", "--out", "impute.csv"]


def config(name):
    return ["--config", str(ROOT / "configs" / name)]


CLI = {
    **{f"run-{name}": ["run", *config(name), "--out", "out"]
       for name in ("demo.json", "transfer_two_phase.json", "two_route_congested.json",
                    "two_route_low.json")},
    "run-demo.json-seed-2": ["run", *config("demo.json"), "--seed", "2", "--out", "out"],
    "compare-transfer_two_phase.json": ["compare", *config("transfer_two_phase.json"),
                                        "--policies", POLICIES, "--seeds", "1..2",
                                        "--out", "compare.json"],
    "compare-demo.json": ["compare", *config("demo.json"), "--policies", "periodic,ml_cat",
                          "--seeds", "1,2", "--out", "compare.json"],
    "assign-demo.json-bmp": ["assign", *config("demo.json"), "--method", "bmp",
                             "--out", "assign.json"],
    "assign-two_route_low.json-combined": ["assign", *config("two_route_low.json"),
                                           "--method", "combined", "--out", "assign.json"],
    "impute-knn-2": [*IMPUTE, "--knn", "2"],
    "impute-euclidean": [*IMPUTE, "--euclidean"],
}


def run_case(argv) -> dict:
    """{path of each file the command writes: its SHA-256, "stdout": that of stdout}."""
    runner = CliRunner()
    with runner.isolated_filesystem() as cwd:
        cwd = Path(cwd)
        demo = json.loads((ROOT / "configs" / "demo.json").read_text())
        (cwd / "net.json").write_text(json.dumps(demo["network"]))
        (cwd / "obs.csv").write_text(OBSERVATIONS)
        inputs = set(cwd.rglob("*"))
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, f"{argv}: {result.output}"
        digests = {p.relative_to(cwd).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in cwd.rglob("*") if p.is_file() and p not in inputs}
    digests["stdout"] = hashlib.sha256(result.stdout.encode()).hexdigest()
    return digests


def _repr_sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# Recorded before the drive loop read its policy draws in blocks and took its
# look-ahead peaks from a sliding window, so that every policy provably keeps its
# decisions, its log rows and the compare rows to the bit.
def transfer_compare():
    """The compare rows of all five policies on transfer_two_phase.json, seeds 1-3, and
    each policy's three drives."""
    config = harness.load_config(ROOT / "configs" / "transfer_two_phase.json")
    drives = {kind: [] for kind in transfer.POLICY_KINDS}
    original = transfer.simulate_drive

    def recording_drive(record, forecast, policy, *args, **kwargs):
        metrics, log = out = original(record, forecast, policy, *args, **kwargs)
        drives[policy.kind].append((metrics, [dict(zip(transfer.LOG_KEYS, row)) for row in log]))
        return out

    with mock.patch.object(transfer, "simulate_drive", recording_drive):
        rows = harness.compare_policies(config, list(transfer.POLICY_KINDS), [1, 2, 3],
                                        base_dir=str(ROOT / "configs"))
    assert [len(d) for d in drives.values()] == [3] * len(transfer.POLICY_KINDS)
    return {"rows": hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest(),
            **{f"log-{kind}": _repr_sha(d) for kind, d in drives.items()}}


def transfer_scene():
    """Every policy, look-ahead and t_min on the two-station scene's uneven trace, per
    predictor."""
    scene, trace = two_station_scene(), uneven_trace()
    got = {}
    for name, make in (("formula", transfer.RatePredictor), ("learned", half_filled_table)):
        runs = []
        for kind in transfer.POLICY_KINDS:
            for lookahead in (0.0, 1.0, 8.0, 30.0):
                for t_min in (1.0, 5.0):
                    pol = make_policy(kind, lookahead_s=lookahead, t_min_s=t_min)
                    runs.append(outcome(drive, trace, scene, pol, 10_000.0, 21,
                                        predictor=make()))
        got[name] = _repr_sha(runs)
    return got


def _array_sha(arrays, header=""):
    h = hashlib.sha256(header.encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# report.json shows only confusion counts, so a change in the last bits of the corpus,
# of a feature or of a trained weight passes the report digests unseen. Recorded on the
# per-trace synthesis and feature code, before synthesis, features and training became
# passes over blocks of traces. 150 traces: several blocks, and not a multiple of one.
def fingerprint(seed, noise_sigma_db):
    corpus = generate_corpus(150, noise_sigma_db, 0.5, seed)
    meta = repr([(t.label, t.speed_mps, t.dip_width_s, t.seed, t.sample_rate_hz)
                 for t in corpus])
    out = {"corpus": _array_sha((t.rssi_dbm for t in corpus), meta)}
    records = extract_features(corpus)
    out["features"] = _array_sha((r.values for r in records), repr([r.label for r in records]))
    for reg in ("l1", "l2"):
        model = train(records, reg=reg, lam=1e-3, epochs=200)
        out[reg] = _array_sha((model.weights, [model.bias], model.objective_curve,
                               model.feature_mean, model.feature_scale))
    return out


# Recorded before road networks were parsed by the schema walker, so that valid
# network documents provably build the same nodes, edges and detectors.
def networks():
    """The networks of the configs and of the benchmark's merge and city grids."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    specs = [json.loads(p.read_text()).get("network")
             for p in sorted((ROOT / "configs").glob("*.json"))]
    specs = [s for s in specs if s is not None] + [workloads.MERGE_NETWORK]
    specs += [workloads._city_grid(np.random.default_rng(seed)) for seed in (1, 2, 3)]
    assert len(specs) == 7
    digest = hashlib.sha256()
    for spec in specs:
        net = build_network(spec)
        digest.update(repr((
            net.cell_length_m, list(net.nodes.values()),
            [(e.id, e.from_node, e.to_node, e.length_m, e.lanes, e.v_max_cells, e.cell_count,
              None if e.lane_policy is None else
              [None if m is None else sorted(m) for m in e.lane_policy])
             for e in net.edges.values()],
            list(net.detectors.values()))).encode())
    return {"built": digest.hexdigest()}


CASES = {
    **{name: partial(run_case, argv) for name, argv in CLI.items()},
    **{f"ca-{name}": partial(scenario_hashes, name) for name in SCENARIOS},
    **{f"ca-sparse-{seed}" + "-policy" * policy: partial(sparse_digests, seed, policy)
       for seed in (2, 7) for policy in (False, True)},
    "transfer-compare": transfer_compare,
    "transfer-two_station_scene": transfer_scene,
    **{f"fingerprint-{seed}-{noise}": partial(fingerprint, seed, noise)
       for seed in (3, 8) for noise in (0.0, 2.0)},
    "networks": networks,
}


def test_manifest_lists_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


def test_no_digest_outside_the_manifest():
    # a digest written into a test file would need a hand edit at every re-pin
    pinned = [p.name for p in MANIFEST.parent.glob("*.py")
              if re.search("[0-9a-f]{64}", p.read_text())]
    assert not pinned


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bits(case):
    want = json.loads(MANIFEST.read_text())[case]
    got = CASES[case]()
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"{case}: the digest of {', '.join(moved)} moved from the manifest"


if __name__ == "__main__":
    print(json.dumps({case: recipe() for case, recipe in CASES.items()},
                     indent=2, sort_keys=True))
