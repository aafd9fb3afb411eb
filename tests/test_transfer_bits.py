"""Pinned digests of the transfer drives.

Recorded before the drive loop read its policy draws in blocks and took its
look-ahead peaks from a sliding window, so that every policy provably keeps
its decisions, its log rows and the compare rows to the bit. The bytes of
``demo.json``'s transfer artifacts (two traces of connected vehicles, a
crowdsensed map and the learned predictor's calibration drives) are pinned in
``artifact_manifest.json`` (``test_artifact_bits.py``).
"""

import hashlib
import json
from pathlib import Path

from hybridflow import harness, transfer
from test_transfer import half_filled_table, make_policy, outcome, two_station_scene, uneven_trace

ROOT = Path(__file__).resolve().parent.parent
COMPARE_ROWS_SHA256 = "d68de361acedffcafd74341a5dcf470b5f4fe09f91e0df88c9facb9006db544d"
LOG_SHA256 = {
    "periodic": "ea8d268782c72c71b17cc76f73b261bdf171d03b90ccc334bbc7f18edabf60ff",
    "cat": "4c5467d375d73caa78ae7e8de89e4dc0c9843b41fd96218a5ae0ff80d58e8359",
    "pcat": "797a3e60ee24d64d011acc207169c3586f24f98e73ad469042edb9df1baa74ba",
    "ml_cat": "0789bf539f61b2dbb8d8bd0417976ba63dd2aa5dc3a047378c0c8e5beedfef63",
    "ml_pcat": "c4221b0e593ab6df1a7a251c0a74c2a851f20f11dd75537d19de647ea3e6bb6b",
}
SCENE_DRIVES_SHA256 = {
    "formula": "c269bb2d0c0aedf4bcf58321195c3f4c47c1a2a715d4e78fb8ac1b78c661bfc4",
    "learned": "5d15c03cbdbd95e0b4da51df6fd1db73f3a47d21464277a659f4de356fa4bc14",
}

def sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_compare_rows_and_logs(monkeypatch):
    config = harness.load_config(ROOT / "configs" / "transfer_two_phase.json")
    drives = {kind: [] for kind in transfer.POLICY_KINDS}
    original = transfer.simulate_drive

    def recording_drive(trace, scene, policy, *args, **kwargs):
        out = original(trace, scene, policy, *args, **kwargs)
        drives[policy.kind].append(out)
        return out

    monkeypatch.setattr(transfer, "simulate_drive", recording_drive)
    rows = harness.compare_policies(config, list(transfer.POLICY_KINDS), [1, 2, 3],
                                    base_dir=str(ROOT / "configs"))
    assert [len(d) for d in drives.values()] == [3] * len(transfer.POLICY_KINDS)
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == \
        COMPARE_ROWS_SHA256
    assert {kind: sha256(d) for kind, d in drives.items()} == LOG_SHA256


def test_two_station_scene_uneven_trace():
    scene, trace = two_station_scene(), uneven_trace()
    got = {}
    for name, make in (("formula", transfer.RatePredictor), ("learned", half_filled_table)):
        runs = []
        for kind in transfer.POLICY_KINDS:
            for lookahead in (0.0, 1.0, 8.0, 30.0):
                for t_min in (1.0, 5.0):
                    pol = make_policy(kind, lookahead_s=lookahead, t_min_s=t_min)
                    runs.append(outcome(transfer.simulate_drive, trace, scene, pol,
                                        10_000.0, 21, predictor=make()))
        got[name] = sha256(runs)
    assert got == SCENE_DRIVES_SHA256


def test_demo_two_traces_six_drives(monkeypatch):
    config = harness.load_config(ROOT / "configs" / "demo.json")
    drives = []
    original = transfer.simulate_drive

    def counting_drive(trace, *args, **kwargs):
        drives.append(trace)
        return original(trace, *args, **kwargs)

    monkeypatch.setattr(transfer, "simulate_drive", counting_drive)
    harness.run_experiment(config, base_dir=str(ROOT / "configs"))
    # two traces, each driven by the calibration policy and the two compared ones
    assert len({id(trace) for trace in drives}) == 2 and len(drives) == 6
