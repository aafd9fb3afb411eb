"""Route-flow optimization against critical flows and travel times.

Three assignment methods over per-OD candidate routes:
  * user equilibrium via the method of successive averages,
  * max-min capacity-margin assignment (waterfilling against each route's
    critical flow),
  * a combined objective, margin minus a weighted flow-integral of the route
    latencies, which interpolates between the two as the weight grows.

Plus sustained-occupancy bottleneck detection on detector series and a
closed evaluation loop that calibrates critical flows from a probe run of
the CA simulator and measures mean dwell time under the resulting splits;
both runs go through a ``traffic_ca.ScenarioRuns``, which simulates each
distinct scenario once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import traffic_ca
from .road_net import route_candidates
from .schema import Field, check_fields, ranged

BPR_A, BPR_B = 0.15, 4.0   # the standard BPR curve coefficients
MSA_ITERS, MSA_TOL = 500, 0.01  # user-equilibrium iteration cap and gap tolerance
BECKMANN_GRID = 64  # trapezoid intervals of each route's flow integral


class AssignmentError(ValueError):
    """Malformed assignment problem."""


METHOD = Field(str, choices=("fixed", "wardrop", "bmp", "combined"), name="method")
# the settings of evaluate_policy, as the experiment config states them
SETTINGS = {"k_routes": Field(2, ge=1), "probe_factor": Field(1.5, gt=0),
            "density_crit": Field(0.35, ge=0, le=1), "sustain_s": Field(120.0, ge=0),
            "lambda": Field(0.01, ge=0)}


def bpr_latency(t0: float, q_crit: float):
    """Standard polynomial congestion curve anchored at the critical flow."""
    def latency(q):
        return t0 * (1.0 + BPR_A * (q / q_crit) ** BPR_B)
    return latency


@dataclass
class RouteOption:
    route_id: str
    latency: object            # callable flow_veh_h -> seconds, non-decreasing
    q_crit_veh_h: float = ranged(float, gt=0)
    edges: tuple = ()

    def __post_init__(self):
        check_fields(self, lambda message: AssignmentError(f"route {self.route_id}: {message}"))


@dataclass
class ODProblem:
    od_id: str
    demand_veh_h: float = ranged(float, ge=0)
    routes: list

    def __post_init__(self):
        check_fields(self, lambda message: AssignmentError(f"{self.od_id}: {message}"))
        if not self.routes:
            raise AssignmentError(f"{self.od_id}: no candidate routes")


@dataclass
class AssignmentProblem:
    ods: list


@dataclass
class FlowSplit:
    flows: dict                 # od_id -> [flow per route]
    converged: bool = True
    iterations: int = 0
    objective: float = 0.0
    infeasible: bool = False

    def proportions(self, od_id: str):
        total = sum(self.flows[od_id])
        if total <= 0:
            n = len(self.flows[od_id])
            return [1.0 / n] * n
        return [q / total for q in self.flows[od_id]]

    def to_dict(self, problem: AssignmentProblem | None = None):
        out = {"converged": self.converged, "iterations": self.iterations,
               "objective": self.objective, "infeasible": self.infeasible, "ods": []}
        for od_id in sorted(self.flows):
            entry = {"od": od_id, "flows_veh_h": list(self.flows[od_id])}
            if problem is not None:
                od = next(o for o in problem.ods if o.od_id == od_id)
                entry["routes"] = [
                    {"route": r.route_id, "edges": list(r.edges),
                     "flow_veh_h": q, "latency_s": r.latency(q),
                     "margin_veh_h": r.q_crit_veh_h - q}
                    for r, q in zip(od.routes, self.flows[od_id])]
            out["ods"].append(entry)
        return out


def _aon(od: ODProblem, latencies):
    """All-or-nothing: everything on the lowest-latency route (ties: first)."""
    best = min(range(len(od.routes)), key=lambda i: (latencies[i], i))
    flows = [0.0] * len(od.routes)
    flows[best] = od.demand_veh_h
    return flows


def _equilibrium_gap(od: ODProblem, flows):
    lat = [r.latency(q) for r, q in zip(od.routes, flows)]
    used = [l for l, q in zip(lat, flows) if q > 1e-9]
    if not used:
        return 0.0
    return max(used) - min(lat)


def assign_wardrop(problem: AssignmentProblem) -> FlowSplit:
    """User equilibrium by the method of successive averages.

    Convergence certificate per OD: max latency over used routes minus min
    latency over all routes below MSA_TOL. Non-convergence after MSA_ITERS
    returns the last iterate with the flag cleared.
    """
    flows = {}
    for od in problem.ods:
        lat0 = [r.latency(0.0) for r in od.routes]
        flows[od.od_id] = _aon(od, lat0)
    converged = False
    n_done = 0
    for n in range(1, MSA_ITERS + 1):
        n_done = n
        worst = max(_equilibrium_gap(od, flows[od.od_id]) for od in problem.ods)
        if worst < MSA_TOL:
            converged = True
            break
        step = 1.0 / (n + 1)
        for od in problem.ods:
            cur = flows[od.od_id]
            lat = [r.latency(q) for r, q in zip(od.routes, cur)]
            target = _aon(od, lat)
            flows[od.od_id] = [(1 - step) * c + step * t for c, t in zip(cur, target)]
    gap = max(_equilibrium_gap(od, flows[od.od_id]) for od in problem.ods)
    return FlowSplit(flows=flows, converged=converged, iterations=n_done, objective=gap)


def _waterfill(q_crits, demand):
    """Flows maximizing the minimum margin: q_r = max(q_crit_r - m, 0), sum = demand."""
    if demand <= 0:
        return [0.0] * len(q_crits)
    # f(m) = sum(max(q_crit - m, 0)) is piecewise linear, decreasing; walk its knots
    order = sorted(range(len(q_crits)), key=lambda i: q_crits[i])
    total = sum(q_crits)
    active = len(q_crits)
    for idx in order:
        m_all_active = (total - demand) / active
        knot = q_crits[idx]
        if m_all_active <= knot:
            m = m_all_active
            break
        total -= knot
        active -= 1
    else:
        m = (total - demand) / max(active, 1)
    flows = [max(qc - m, 0.0) for qc in q_crits]
    # numerical cleanup: exact conservation
    scale = demand / sum(flows) if sum(flows) > 0 else 0.0
    return [q * scale for q in flows]


def assign_bmp(problem: AssignmentProblem) -> FlowSplit:
    """Max-min capacity margin per OD (each bottleneck kept below breakdown).

    Infeasible ODs (demand >= total critical flow) are flagged and loaded
    uniformly beyond capacity; the reported margin is then negative.
    """
    flows = {}
    infeasible = False
    margins = []
    for od in problem.ods:
        q_crits = [r.q_crit_veh_h for r in od.routes]
        if od.demand_veh_h >= sum(q_crits):
            infeasible = True
            over = (od.demand_veh_h - sum(q_crits)) / len(q_crits)
            flows[od.od_id] = [qc + over for qc in q_crits]
        else:
            flows[od.od_id] = _waterfill(q_crits, od.demand_veh_h)
        margins.append(min(r.q_crit_veh_h - q
                           for r, q in zip(od.routes, flows[od.od_id])))
    return FlowSplit(flows=flows, converged=True, iterations=0,
                     objective=min(margins), infeasible=infeasible)


def _beckmann(od: ODProblem, flows):
    """Flow integral of the route latencies (trapezoid; exact for affine)."""
    total = 0.0
    for r, q in zip(od.routes, flows):
        if q <= 0:
            continue
        xs = [q * k / BECKMANN_GRID for k in range(BECKMANN_GRID + 1)]
        ys = [r.latency(x) for x in xs]
        total += sum((ys[k] + ys[k + 1]) * 0.5
                     for k in range(BECKMANN_GRID)) * (q / BECKMANN_GRID)
    return total


def _combined_objective(od: ODProblem, flows, lam: float):
    margin = min(r.q_crit_veh_h - q for r, q in zip(od.routes, flows))
    demand = max(od.demand_veh_h, 1e-12)
    return margin - lam * _beckmann(od, flows) / demand


def assign_combined(problem: AssignmentProblem, lam: float) -> FlowSplit:
    """Margin objective tempered by travel times.

    Maximizes min-margin minus lam times the per-vehicle flow integral of the
    latencies, by projected pairwise coordinate search from the max-margin
    solution (strict-improvement moves, halving steps). lam = 0 returns the
    max-margin split unchanged; large lam approaches user equilibrium.
    """
    base = assign_bmp(problem)
    if lam == 0.0 or base.infeasible:
        return FlowSplit(flows=base.flows, converged=True, iterations=0,
                         objective=base.objective, infeasible=base.infeasible)
    flows = {}
    objectives = []
    total_sweeps = 0
    for od in problem.ods:
        q = list(base.flows[od.od_id])
        n = len(q)
        if n == 1 or od.demand_veh_h <= 0:
            flows[od.od_id] = q
            objectives.append(_combined_objective(od, q, lam))
            continue
        obj = _combined_objective(od, q, lam)
        step = max(od.demand_veh_h / 4.0, 1e-9)
        while step > 1e-4 * max(od.demand_veh_h, 1.0):
            improved = True
            while improved:
                improved = False
                total_sweeps += 1
                for i in range(n):
                    for j in range(n):
                        if i == j or q[j] < step:
                            continue
                        q[j] -= step
                        q[i] += step
                        cand = _combined_objective(od, q, lam)
                        if cand > obj + 1e-12:
                            obj = cand
                            improved = True
                        else:
                            q[i] -= step
                            q[j] += step
            step /= 2.0
        flows[od.od_id] = q
        objectives.append(obj)
    return FlowSplit(flows=flows, converged=True, iterations=total_sweeps,
                     objective=min(objectives), infeasible=False)


def detect_bottlenecks(observations, density_crit: float, sustain_s: float,
                       detectors=None) -> list:
    """(edge, onset_s, flow_veh_h, q_crit_veh_h) of each edge whose occupancy
    stays above density_crit for at least sustain_s.

    The critical flow of a flagged edge is estimated as the highest flow seen
    before the onset. ``observations`` is a flat iterable of FlowObservation;
    ``detectors`` maps detector id to edge id (defaults to the detector id).
    """
    by_det = {}
    for obs in observations:
        by_det.setdefault(obs.detector, []).append(obs)
    entries = []
    for det_id in sorted(by_det):
        series = sorted(by_det[det_id], key=lambda o: o.t0)
        run_start = None
        onset = None
        for obs in series:
            if obs.occupancy > density_crit:
                if run_start is None:
                    run_start = obs.t0
                if obs.t1 - run_start >= sustain_s:
                    onset = run_start
                    break
            else:
                run_start = None
        if onset is None:
            continue
        pre = [o for o in series if o.t1 <= onset]
        flows = [o.count / (o.t1 - o.t0) * 3600.0 for o in pre]
        at = next(o for o in series if o.t0 == onset)
        measured = at.count / (at.t1 - at.t0) * 3600.0
        q_crit = max(flows) if flows else measured
        edge = detectors.get(det_id, det_id) if detectors else det_id
        entries.append((edge, onset, measured, q_crit))
    return entries


# ---------------------------------------------------------------------------
# evaluation loop against the CA simulator

DEFAULT_LANE_CAPACITY_VEH_H = 1800.0


@dataclass
class EvaluationResult:
    mean_dwell_s: float | None
    split: FlowSplit | None
    problem: AssignmentProblem | None
    metrics: object

    def to_dict(self):
        return {"mean_dwell_s": self.mean_dwell_s,
                "split": self.split.to_dict(self.problem) if self.split else None,
                "traffic": self.metrics.to_dict() if self.metrics else None}


def _probe_and_calibrate(runs, demand, k_routes, probe_factor, density_crit, sustain_s):
    """High-demand probe run; per-route q_crit from detected bottlenecks."""
    probe_demand = []
    for entry in demand:
        boosted = dict(entry)
        boosted["rate_veh_h"] = entry["rate_veh_h"] * probe_factor
        boosted["splits"] = [1.0 / k_routes] * k_routes
        probe_demand.append(boosted)
    metrics = runs.run(probe_demand)
    flat = [o for series in metrics.observations.values() for o in series]
    det_edges = {d: det.edge for d, det in runs.net.detectors.items()}
    bottlenecks = detect_bottlenecks(flat, density_crit, sustain_s, detectors=det_edges)
    q_crit_by_edge = {e: qc for e, _, _, qc in bottlenecks}
    max_flow_by_edge = {}
    for series in metrics.observations.values():
        for o in series:
            edge = det_edges[o.detector]
            flow = o.count / (o.t1 - o.t0) * 3600.0
            max_flow_by_edge[edge] = max(max_flow_by_edge.get(edge, 0.0), flow)
    return q_crit_by_edge, max_flow_by_edge


def build_problem(net, demand, k_routes, q_crit_by_edge, max_flow_by_edge):
    """Per-route BPR latencies from free-flow times and calibrated q_crit."""
    ods = []
    for entry in demand:
        routes = route_candidates(net, entry["origin"], entry["dest"], k_routes)
        options = []
        for r in routes:
            q_crit = None
            for eid in r.edges:
                cand = q_crit_by_edge.get(eid)
                if cand is not None:
                    q_crit = cand if q_crit is None else min(q_crit, cand)
            if q_crit is None:
                observed = [max_flow_by_edge[eid] for eid in r.edges
                            if eid in max_flow_by_edge]
                lanes = min(net.edges[eid].lanes for eid in r.edges)
                q_crit = max(max(observed, default=0.0),
                             lanes * DEFAULT_LANE_CAPACITY_VEH_H)
            options.append(RouteOption(route_id="-".join(r.edges),
                                       latency=bpr_latency(r.free_flow_time_s, q_crit),
                                       q_crit_veh_h=q_crit, edges=r.edges))
        ods.append(ODProblem(od_id=f"{entry['origin']}->{entry['dest']}",
                             demand_veh_h=entry["rate_veh_h"], routes=options))
    return AssignmentProblem(ods=ods)


def evaluate_policy(runs: traffic_ca.ScenarioRuns, demand, split_source: str,
                    k_routes: int, probe_factor: float, density_crit: float,
                    sustain_s: float, lam: float, lane_policies) -> EvaluationResult:
    """Dwell time of the CA under splits from the chosen assignment method.

    split_source: fixed (every entry on its fastest route) | wardrop | bmp |
    combined. Latencies and critical flows are calibrated from a
    boosted-demand probe run of the same scenario family, mirroring a
    sensor-data calibration pipeline. Probe and evaluation go through
    ``runs``, so a run another caller already made is not repeated.
    """
    METHOD.check(split_source, "split_source", AssignmentError)
    for (name, field), value in zip(SETTINGS.items(),
                                    (k_routes, probe_factor, density_crit, sustain_s, lam)):
        field.check(value, name, AssignmentError)
    split = None
    problem = None
    if split_source == "fixed":
        splits_by_entry = [[1.0] + [0.0] * (k_routes - 1) for _ in demand]
    else:
        q_crit_by_edge, max_flow_by_edge = _probe_and_calibrate(
            runs, demand, k_routes, probe_factor, density_crit, sustain_s)
        problem = build_problem(runs.net, demand, k_routes, q_crit_by_edge, max_flow_by_edge)
        if split_source == "wardrop":
            split = assign_wardrop(problem)
        elif split_source == "bmp":
            split = assign_bmp(problem)
        else:
            split = assign_combined(problem, lam=lam)
        splits_by_entry = [split.proportions(od.od_id) for od in problem.ods]
    eval_demand = []
    for entry, props in zip(demand, splits_by_entry):
        e = dict(entry)
        e["splits"] = props
        eval_demand.append(e)
    metrics = runs.run(eval_demand, lane_policies)
    return EvaluationResult(mean_dwell_s=metrics.mean_dwell_s, split=split,
                            problem=problem, metrics=metrics)
