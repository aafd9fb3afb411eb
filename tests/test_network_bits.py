"""Pinned digest of the networks that the configs and the benchmark build.

Recorded before road networks were parsed by the schema walker, so that valid
network documents provably build the same nodes, edges and detectors.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from hybridflow.road_net import build_network

ROOT = Path(__file__).resolve().parent.parent
NETWORKS_SHA256 = "0a9fe4b5698da18f196c1dd23fce3bcc49dea6185a59f4ac91e26ce837295842"


def test_built_networks_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    specs = [json.loads(p.read_text()).get("network")
             for p in sorted((ROOT / "configs").glob("*.json"))]
    specs = [s for s in specs if s is not None] + [workloads.MERGE_NETWORK]
    specs += [workloads._city_grid(np.random.default_rng(seed)) for seed in (1, 2, 3)]
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
    assert len(specs) == 7
    assert digest.hexdigest() == NETWORKS_SHA256
