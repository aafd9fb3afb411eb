"""Byte identity of every artifact the command line writes, in one table.

Each case runs in-process in an empty directory; ``artifact_manifest.json``
maps it to the SHA-256 of every file it writes, by path, and of its stdout
(``impute --knn`` prints its estimates there). After a change that moves
bytes on purpose, re-pin and review the diff of that one file:

    PYTHONPATH=src python tests/test_artifact_bits.py > tests/artifact_manifest.json
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from hybridflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().with_name("artifact_manifest.json")
POLICIES = "periodic,cat,pcat,ml_cat,ml_pcat"
# written to each case's directory with the demo network: observations at three detectors
OBSERVATIONS = "edge,offset_m,day,flow\ns1,420,0,9100\ns2,150,0,5200\nl2,300,0,7400\n"
IMPUTE = ["impute", "--network", "net.json", "--observations", "obs.csv",
          "--targets", "l1:300,s2:30", "--out", "impute.csv"]


def config(name):
    return ["--config", str(ROOT / "configs" / name)]


CASES = {
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


def test_manifest_lists_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bits(case):
    want = json.loads(MANIFEST.read_text())[case]
    got = run_case(CASES[case])
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"{case}: the digest of {', '.join(moved)} moved from the manifest"


if __name__ == "__main__":
    print(json.dumps({case: run_case(argv) for case, argv in CASES.items()},
                     indent=2, sort_keys=True))
