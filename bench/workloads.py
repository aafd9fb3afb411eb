"""The four benchmark workloads: inputs made from the workload seed, the timed calls,
and the check of each call's output against its pinned digest.

Each workload has templates (a config, a CA scenario, an input family) and a pool
of pinned seeds per template. The workload seed picks which pool entries make up a
round, so any workload seed runs ops whose outputs are pinned in ``golden.json``,
while the cost of a round stays nearly the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hybridflow import harness, impute, road_net, traffic_ca

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
POLICIES = ("periodic", "cat", "pcat", "ml_cat", "ml_pcat")


@dataclass
class Op:
    key: str        # names the op's pinned digest: workload/template/pool seed
    call: object    # the timed call; returns the output that ``check`` reads
    check: object   # output -> (digest, counters that only the output shows)


@dataclass
class Workload:
    name: str
    items: str            # counter that gives the work items of one round
    templates: dict       # template name -> make(context, pool seed) -> (call, check)
    pool: int             # pinned seeds per template
    per_round: int        # pool entries per template in one round
    prepare: object       # work dir -> context shared by the templates

    def ops(self, context, pool_seeds):
        """One op per (template, pool seed), interleaved across templates."""
        ops = []
        for seeds in zip(*pool_seeds.values()):
            for (template, make), seed in zip(self.templates.items(), seeds):
                call, check = make(context, seed)
                ops.append(Op(f"{self.name}/{template}/{seed}", call, check))
        return ops

    def round_seeds(self, seed):
        rng = random.Random(seed)
        return {t: rng.sample(range(self.pool), self.per_round) for t in self.templates}

    def setup(self, seed, work_dir):
        """Set-up before the first timed op: parse, generate and build a round's inputs."""
        return self.ops(self.prepare(work_dir), self.round_seeds(seed))

    def every_op(self, work_dir):
        """Every pinned op, for recording the digests."""
        return self.ops(self.prepare(work_dir),
                        {t: list(range(self.pool)) for t in self.templates})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# run_configs: the everyday `hybridflow run`, every stage, sparse short CA work

def _prepare_configs(work_dir):
    return {"work_dir": Path(work_dir),
            "demo": harness.load_config(CONFIGS / "demo.json"),
            "two_route_low": harness.load_config(CONFIGS / "two_route_low.json")}


def _config_template(name):
    def make(ctx, seed):
        config = ctx[name]
        out = ctx["work_dir"] / f"run-{name}-{seed}"

        def call():
            shutil.rmtree(out, ignore_errors=True)
            harness.run_experiment(config, seed=seed, out_dir=str(out), base_dir=str(CONFIGS))
            return out

        def check(out_dir):
            h = hashlib.sha256()
            size = 0
            for path in sorted(out_dir.iterdir()):
                blob = path.read_bytes()
                size += len(blob)
                h.update(path.name.encode() + b"\0" + str(len(blob)).encode() + b"\0" + blob)
            shutil.rmtree(out_dir)
            return h.hexdigest(), {"harness.runs": 1, "harness.artifact_bytes": size}

        return call, check
    return make


# ---------------------------------------------------------------------------
# ca_dense: criterion-2 CA scenarios, dense, long and step-bound

RING_STEPS = 400
MERGE_STEPS = 520
# name -> (cells, vehicles, class, lanes)
RINGS = {
    "ring-car-2l": (700, 120, "car", 2),
    "ring-truck-2l": (500, 55, "truck", 2),
    "ring-auto-2l": (640, 100, "automated_car", 2),
    "ring-car-1l": (300, 55, "car", 1),
}
MERGE_MIX = {"car": 0.5, "truck": 0.25, "automated_car": 0.25}
# inflows above what the single-lane exit carries, so arrivals queue
MERGE_DEMAND = [
    {"origin": "A", "dest": "B", "rate_veh_h": 2600.0, "splits": [1.0]},
    {"origin": "C", "dest": "B", "rate_veh_h": 1300.0, "splits": [1.0]},
]
MERGE_LANE_POLICY = [{"car", "truck", "automated_car"}, {"car", "automated_car"},
                     {"car", "automated_car"}]
MERGE_NETWORK = {
    "version": 1, "cell_length_m": 1.5,
    "nodes": [{"id": "A", "x": 0, "y": 0}, {"id": "C", "x": 0, "y": 300},
              {"id": "M", "x": 450, "y": 60}, {"id": "B", "x": 900, "y": 0}],
    "edges": [
        {"id": "am", "from": "A", "to": "M", "length_m": 450, "lanes": 3, "v_max_kmh": 108},
        {"id": "cm", "from": "C", "to": "M", "length_m": 300, "lanes": 2, "v_max_kmh": 72},
        {"id": "mb", "from": "M", "to": "B", "length_m": 450, "lanes": 1, "v_max_kmh": 36}],
    "detectors": []}


def _prepare_ca(work_dir):
    return {"classes": traffic_ca.default_classes(),
            "merge": road_net.build_network(MERGE_NETWORK)}


def _state_check(state):
    return traffic_ca.state_hash(state), {
        "traffic_ca.injected": state.injected,
        "traffic_ca.queued_end": sum(len(q) for q in state.queues)}


def _ring_template(cells, n, cname, lanes):
    def make(ctx, seed):
        cls = ctx["classes"][cname]

        def call():
            state = traffic_ca.init_ring(cells, n, cls, seed=seed, lanes=lanes)
            for _ in range(RING_STEPS):
                traffic_ca.step(state)
                if len(state.vehicles) != n:
                    raise AssertionError(f"ring holds {len(state.vehicles)} vehicles, not {n}")
            return state

        return call, _state_check
    return make


def _merge_template(lane_policy):
    def make(ctx, seed):
        def call():
            state = traffic_ca.init_scenario(ctx["merge"], MERGE_DEMAND, ctx["classes"],
                                             seed=seed, class_mix=MERGE_MIX)
            if lane_policy:
                traffic_ca.apply_lane_policy(state, "am", MERGE_LANE_POLICY)
            for _ in range(MERGE_STEPS):
                traffic_ca.step(state)
            return state

        return call, _state_check
    return make


# ---------------------------------------------------------------------------
# transfer_compare: radio and transfer only; map writes and forecast reads side by side

def _prepare_transfer(work_dir):
    return {"config": harness.load_config(CONFIGS / "transfer_two_phase.json")}


def _compare(ctx, seed):
    def call():
        return harness.compare_policies(ctx["config"], list(POLICIES), [seed],
                                        base_dir=str(CONFIGS))

    def check(rows):
        rows = sorted(rows, key=lambda r: r["policy"])
        return sha256(json.dumps(rows, sort_keys=True).encode()), {}

    return call, check


# ---------------------------------------------------------------------------
# impute_sensors: GP fit and batch prediction, kNN over network distance

GRID = 8                  # nodes per side of the city grid
BLOCK_M = 300.0
SENSORS = 200
TARGETS = 1000
KNN_TARGETS = 60
KNN_K = 5
LENGTH_SCALE_M = 600.0


def _city_grid(rng):
    """Grid of GRID x GRID junctions, jittered, with one-way streets in alternating directions."""
    nodes = [{"id": f"n{i}_{j}", "x": i * BLOCK_M + rng.uniform(-40, 40),
              "y": j * BLOCK_M + rng.uniform(-40, 40)}
             for i in range(GRID) for j in range(GRID)]
    pos = {n["id"]: (n["x"], n["y"]) for n in nodes}
    edges = []
    for i in range(GRID):
        for j in range(GRID):
            for di, dj in ((1, 0), (0, 1)):
                if i + di >= GRID or j + dj >= GRID:
                    continue
                a, b = f"n{i}_{j}", f"n{i + di}_{j + dj}"
                if (i + j) % 2:
                    a, b = b, a
                length = round(math.dist(pos[a], pos[b]), 1)
                edges.append({"id": f"{a}-{b}", "from": a, "to": b, "length_m": length,
                              "lanes": 1 + (i + j) % 2, "v_max_kmh": 50})
    return {"version": 1, "cell_length_m": 1.5, "nodes": nodes, "edges": edges,
            "detectors": []}


def _points(rng, edges, count):
    picks = rng.integers(0, len(edges), size=count)
    fracs = rng.uniform(0.0, 1.0, size=count)
    return [impute.NetPoint(edges[k]["id"], round(float(f) * edges[k]["length_m"], 3))
            for k, f in zip(picks, fracs)]


def _flow(net, point, rng):
    e = net.edges[point.edge]
    a, b = net.nodes[e.from_node], net.nodes[e.to_node]
    f = point.offset_m / e.length_m
    x, y = a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)
    return max(0.0, 20000.0 + 8000.0 * math.sin(x / 700.0) * math.cos(y / 900.0)
               + float(rng.normal(0.0, 500.0)))


def _sensor_inputs(ctx, seed):
    rng = np.random.default_rng(seed)
    spec = _city_grid(rng)
    net = road_net.build_network(spec)
    sensors = _points(rng, spec["edges"], SENSORS)
    observations = [impute.VolumeObservation(p, 0, _flow(net, p, rng)) for p in sensors]
    targets = _points(rng, spec["edges"], TARGETS)
    # the squared-exponential kernel over network distance fails Cholesky even on
    # trees (see bench/README.md), so the GP uses Euclidean distance, as
    # configs/demo.json does
    params = impute.default_params([o.flow_veh_day for o in observations], LENGTH_SCALE_M)
    params.euclidean = True

    def call():
        model = impute.fit_gpr(net, observations, params)
        predictions = impute.predict_gpr(model, targets)
        knn = [impute.knn_estimate(observations, t, KNN_K, net)
               for t in targets[:KNN_TARGETS]]
        return predictions, knn

    def check(output):
        return sha256(repr(output).encode()), {}

    return call, check


WORKLOADS = {w.name: w for w in [
    Workload("run_configs", "harness.runs",
             {"demo": _config_template("demo"),
              "two_route_low": _config_template("two_route_low")},
             pool=12, per_round=2, prepare=_prepare_configs),
    Workload("ca_dense", "traffic_ca.vehicle_steps",
             {**{name: _ring_template(*spec) for name, spec in RINGS.items()},
              "merge": _merge_template(False), "merge-policy": _merge_template(True)},
             pool=8, per_round=1, prepare=_prepare_ca),
    Workload("transfer_compare", "transfer.decisions", {"compare": _compare},
             pool=16, per_round=4, prepare=_prepare_transfer),
    Workload("impute_sensors", "impute.queries", {"gp": _sensor_inputs},
             pool=8, per_round=2, prepare=lambda work_dir: {}),
]}
