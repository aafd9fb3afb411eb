"""Microscopic traffic dynamics: brake-light cellular automaton.

Synchronous 1 s update on a cell-discretized road network with heterogeneous
vehicle classes, velocity anticipation, brake-light-sensitive randomization,
lane policies, loop detectors and dwell-time accounting.

Update stages per step, applied to every vehicle against the previous state:
  0. pick randomization p: p_b if the leader's brake light is on and the time
     headway is below min(v, h); p_0 at standstill; p_d otherwise
  1. accelerate v <- min(v+1, v_max) unless own or leader's brake light is on
     with short headway
  2. brake v <- min(v, d_eff), d_eff = gap + max(min(leader_gap, leader_v) -
     security_gap, 0); brake light set when this drops v below its start value
  3. with probability p, v <- max(v-1, 0); the p_b branch also sets the light
  4. move v cells along the route

Exactly one uniform is drawn per vehicle per step, in ascending vehicle id, so
a scenario flag can degrade the rule set to the classic single-p CA and be
checked draw-for-draw against a brute-force reference. The draws are read in
blocks (``rng.Uniforms``) and have the values of the scalar draws.

Before the update stages, vehicles change lane (``_lane_change_phase``) and
claim the next edge (``_entry_arbitration``).

The one occupancy index is ``SimState._segs``: per (edge, lane), the spans
``[lo, hi, vid, vehicle]`` sorted by position; each vehicle lists its own. Built
from scratch only by ``init_ring``, it is kept by the phases: injection and lane
changes place spans, and the move shifts a body's span in place while it stays
on its edge and lane (no vehicle overtakes in its lane), with no crossing to
follow. Only the spans of a vehicle that crosses or straddles an edge boundary
or runs off its route are re-placed; with none left, it exits. Every lane is
overlap-checked after each move. A vehicle's leader is the next span in its
lane; only a lane's last body scans on along the route, from its lane's end.
Ids are issued ascending and never re-inserted, so ``state.vehicles`` in dict
order is ascending id order and the phases iterate it without sorting.

Loop detectors are open-window accumulators that ``run`` owns and closes into a
``FlowObservation`` at each window boundary; the move phase and the occupancy
sample add to them. ``step`` outside ``run`` does no detector work.

``run`` returns all that a call measured in its ``TrafficMetrics``: the trips
that ended during the call, the closed detector windows and, on request, the
connected vehicles' traces. The state keeps only bounded lifetime exit totals
(dwell sum and per-class count), so its memory is flat in the horizon.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field

from .rng import Uniforms, substream
from .road_net import RoadNetwork, ring_network, route_candidates
from .schema import ConfigError, Field, _convert, check_fields, ranged

_INF = math.inf
_LANE_END = [[_INF, _INF, None, None]]  # a span past every lane's end


class ScenarioError(ValueError):
    """Bad demand, class, or policy configuration."""


# a class share, in a demand entry's class_mix or a config's class entry
SHARE = Field(float, ge=0, lt=_INF, name="share")
# a demand entry of init_scenario, as the experiment config states it
DEMAND = {"origin": str, "dest": str, "rate_veh_h": Field(float, ge=0), "splits": (1.0,),
          "class_mix": Field(None, kind=dict, item=SHARE),
          "schedule": Field(None, kind=tuple, item=Field(int, ge=0))}
RUN = {"duration_s": Field(600, ge=0), "window_s": Field(60, ge=1)}  # run's arguments


class CollisionError(RuntimeError):
    """Two vehicles claimed the same cell; indicates a rule-set bug."""


@dataclass(frozen=True)
class VehicleClass:
    name: str = ranged(str)
    v_max_cells: int = ranged(20, ge=1)
    length_cells: int = ranged(5, ge=1)
    dawdle_p_d: float = ranged(0.1, ge=0, le=1)
    brake_p_b: float = ranged(0.94, ge=0, le=1)
    standstill_p_0: float = ranged(0.5, ge=0, le=1)
    anticipation_horizon_h: int = ranged(6, ge=0)
    security_gap_cells: int = ranged(7, ge=0)
    connected: bool = False

    def __post_init__(self):
        check_fields(self, ScenarioError)


def default_classes() -> dict:
    """Car / truck / automated_car defaults; every value is scenario-configurable."""
    return {
        "car": VehicleClass("car"),
        "truck": VehicleClass("truck", v_max_cells=12, length_cells=8),
        # automation modeled as fully deterministic, shorter-gap driving
        "automated_car": VehicleClass("automated_car", dawdle_p_d=0.0, brake_p_b=0.0,
                                      standstill_p_0=0.0, security_gap_cells=5,
                                      connected=True),
    }


def _degenerate(cls: VehicleClass) -> VehicleClass:
    """Classic-CA parameters: single dawdle p, no headway interaction."""
    return VehicleClass(cls.name, cls.v_max_cells, cls.length_cells,
                        dawdle_p_d=cls.dawdle_p_d, brake_p_b=cls.dawdle_p_d,
                        standstill_p_0=cls.dawdle_p_d, anticipation_horizon_h=0,
                        security_gap_cells=cls.security_gap_cells, connected=cls.connected)


class Vehicle:
    __slots__ = ("vid", "cls", "edge", "lane", "cell", "v", "brake_light", "route",
                 "route_pos", "circular", "spawn_s", "exit_s", "front_out",
                 "prev_lanes", "_spans", "_gap", "_leader", "_vmax", "_anti", "_new_bl",
                 "_wall")

    def __init__(self, vid, cls, edge, lane, cell, route, route_pos, circular, spawn_s):
        self.vid = vid
        self.cls = cls
        self.edge = edge
        self.lane = lane
        self.cell = cell
        self.v = 0
        self.brake_light = False
        self.route = route
        self.route_pos = route_pos
        self.circular = circular
        self.spawn_s = spawn_s
        self.exit_s = None
        self.front_out = False
        self.prev_lanes = {}  # edge -> lane held when the front left it
        self._spans = []  # ((edge, lane), span) of each span in SimState._segs, front first
        # per-step scratch, written by the step phases before it is read
        self._gap = self._vmax = self._anti = 0
        self._leader = self._wall = None
        self._new_bl = False


@dataclass
class FlowObservation:
    detector: str
    t0: int
    t1: int
    count: int
    mean_speed_mps: float | None
    per_class: dict
    occupancy: float

    def to_dict(self):
        return {"detector": self.detector, "t0": self.t0, "t1": self.t1,
                "count": self.count, "mean_speed_mps": self.mean_speed_mps,
                "per_class": dict(sorted(self.per_class.items())),
                "occupancy": self.occupancy}


class _OpenWindow:
    """Running sums of one detector's open window."""

    __slots__ = ("det", "count", "speed_sum", "per_class", "occ_sum")

    def __init__(self, det):
        self.det = det
        self.reset()

    def reset(self):
        # int 0 starts, added to in event order: the floats sum() over the events gives
        self.count = self.speed_sum = self.occ_sum = 0
        self.per_class = {}

    def close(self, t0, t1) -> FlowObservation:
        """The observation of window (t0, t1]; the window starts again empty."""
        obs = FlowObservation(detector=self.det.id, t0=t0, t1=t1, count=self.count,
                              mean_speed_mps=self.speed_sum / self.count if self.count else None,
                              per_class=self.per_class, occupancy=self.occ_sum / (t1 - t0))
        self.reset()
        return obs


@dataclass
class TrafficMetrics:
    mean_dwell_s: float | None
    trips: int
    per_class_trips: dict
    observations: dict
    injected: int
    exited: int
    queued_end: int
    connected_traces: dict | None = None  # vid -> [(t, x, y)]; not serialized

    def to_dict(self):
        return {
            "mean_dwell_s": self.mean_dwell_s,
            "trips": self.trips,
            "per_class_trips": dict(sorted(self.per_class_trips.items())),
            "observations": {d: [o.to_dict() for o in obs]
                             for d, obs in sorted(self.observations.items())},
            "injected": self.injected,
            "exited": self.exited,
            "queued_end": self.queued_end,
        }


@dataclass
class _DemandEntry:
    rate_veh_h: float
    routes: list
    splits: list
    class_mix: list          # [(name, cumulative_share)]
    schedule: dict | None    # time -> arrival count, alternative to rate
    p_step: float


@dataclass
class SimState:
    net: RoadNetwork
    classes: dict
    clock_s: int = 0
    vehicles: dict = field(default_factory=dict)
    injected: int = 0
    exited: int = 0
    dwell_s_total: int = 0  # summed over every exit so far
    exited_by_class: dict = field(default_factory=dict)  # class name -> exits so far
    anticipation: bool = True
    lane_policies: dict = field(default_factory=dict)
    demand: list = field(default_factory=list)
    queues: list = field(default_factory=list)
    rng_traffic: Uniforms = None
    rng_injection: Uniforms = None
    vehicle_steps: int = 0
    _segs: dict = field(default_factory=dict, repr=False)  # (edge, lane) -> sorted spans
    # (edge, class) -> allowed lanes, (edge, lane, class) -> mapped lane
    _lane_memo: dict = field(default_factory=dict, repr=False)
    _dets_by_edge: dict = field(default_factory=dict, repr=False)  # edge -> its detectors in run()
    _walled: list = field(default_factory=list, repr=False)  # vehicles given a wall this step
    _next_vid: int = 0


# ---------------------------------------------------------------------------
# scenario construction

def _normalize_mix(mix: dict, classes: dict) -> list:
    for share in mix.values():
        SHARE.check(share, "share", ScenarioError)
    total = sum(mix.values())
    if total <= 0:
        raise ScenarioError("class mix has no positive share")
    cum, acc = [], 0.0
    for name in sorted(mix):
        if name not in classes:
            raise ScenarioError(f"unknown class {name!r} in class mix")
        acc += mix[name] / total
        cum.append((name, acc))
    cum[-1] = (cum[-1][0], 1.0)
    return cum


def split_routes(net: RoadNetwork, origin: str, dest: str, splits) -> list:
    """The len(splits) fastest routes from origin to dest, one per split;
    ScenarioError if there are fewer."""
    routes = route_candidates(net, origin, dest, len(splits))
    if len(routes) < len(splits):
        raise ScenarioError(f"only {len(routes)} route(s) between {origin} and {dest}"
                            f" but {len(splits)} splits given")
    return routes


def split_fault(splits):
    """Why route splits cannot be used (not summing to 1, or negative), or None."""
    if not abs(sum(splits) - 1.0) <= 1e-9:  # a NaN split fails here too
        return f"route splits {list(splits)} do not sum to 1"
    if any(s < -1e-12 for s in splits):
        return f"negative route split in {list(splits)}"


def init_scenario(net: RoadNetwork, demand: list, classes: dict, seed: int,
                  class_mix: dict | None = None, nasch_degenerate: bool = False) -> SimState:
    """Empty network plus queued stochastic arrival processes.

    Each demand entry is {origin, dest, rate_veh_h, splits} with optional
    per-entry class_mix and an optional deterministic schedule (list of
    injection times) replacing the Bernoulli process (see ``DEMAND``). Splits
    must pass ``split_fault`` and refer to the fastest routes of the OD pair in
    order.
    """
    if nasch_degenerate:
        classes = {k: _degenerate(c) for k, c in classes.items()}
    mix_default = class_mix or {name: 1.0 for name in classes}
    state = SimState(net=net, classes=classes, anticipation=not nasch_degenerate,
                     rng_traffic=Uniforms(substream(seed, "traffic")),
                     rng_injection=Uniforms(substream(seed, "injection")))
    for spec in demand:
        rate = DEMAND["rate_veh_h"].check(float(spec.get("rate_veh_h", 0.0)), "rate_veh_h",
                                          ScenarioError)
        splits = list(spec.get("splits", [1.0]))
        if fault := split_fault(splits):
            raise ScenarioError(fault)
        routes = split_routes(net, spec["origin"], spec["dest"], splits)
        mix = _normalize_mix(spec.get("class_mix") or mix_default, classes)
        schedule = None
        if spec.get("schedule") is not None:
            schedule = {}
            for t in spec["schedule"]:
                schedule[int(t)] = schedule.get(int(t), 0) + 1
        state.demand.append(_DemandEntry(rate, routes, splits, mix, schedule,
                                         rate / 3600.0))
        state.queues.append(deque())
    for i, e in enumerate(net.edges.values()):
        if e.lane_policy is not None:
            state.lane_policies[e.id] = lane_mask(e.lane_policy, e.lanes, classes,
                                                  f"network.edges[{i}].lane_policy")
    return state


def init_ring(n_cells: int, n_vehicles: int, cls: VehicleClass, seed: int,
              lanes: int = 1, positions=None, nasch_degenerate: bool = False,
              v_max_cells: int | None = None) -> SimState:
    """Closed ring with evenly spaced vehicles; the conservation/oracle substrate."""
    if n_vehicles * cls.length_cells > n_cells:
        raise ScenarioError("ring cannot hold the requested vehicles")
    net = ring_network(n_cells, lanes=lanes,
                       v_max_cells=v_max_cells if v_max_cells is not None else cls.v_max_cells)
    if nasch_degenerate:
        cls = _degenerate(cls)
    state = SimState(net=net, classes={cls.name: cls}, anticipation=not nasch_degenerate,
                     rng_traffic=Uniforms(substream(seed, "traffic")),
                     rng_injection=Uniforms(substream(seed, "injection")))
    if positions is None:
        positions = [int(i * n_cells / n_vehicles) for i in range(n_vehicles)]
    for i, pos in enumerate(positions):
        front = (pos + cls.length_cells - 1) % n_cells
        veh = Vehicle(i, cls, "ring", i % lanes, front, ("ring",), 0, True, 0)
        state.vehicles[i] = veh
        state.injected += 1
    state._next_vid = n_vehicles
    _build_segments(state)
    return state


# ---------------------------------------------------------------------------
# geometry on the route chain

def _next_route_index(veh, idx):
    if idx + 1 < len(veh.route):
        return idx + 1
    return 0 if veh.circular else None


def _allowed_lanes(state, edge_id, cls):
    key = (edge_id, cls.name)
    if key not in state._lane_memo:
        policy = state.lane_policies.get(edge_id)
        state._lane_memo[key] = tuple(
            l for l in range(state.net.edges[edge_id].lanes)
            if policy is None or policy[l] is None or cls.name in policy[l])
    return state._lane_memo[key]


def _mapped_lane(state, edge_id, lane, cls):
    """Lane taken when entering edge_id from index ``lane``; None = impassable."""
    key = (edge_id, lane, cls.name)
    if key not in state._lane_memo:
        base = min(lane, state.net.edges[edge_id].lanes - 1)
        nearest = sorted(_allowed_lanes(state, edge_id, cls), key=lambda l: (abs(l - base), l))
        state._lane_memo[key] = nearest[0] if nearest else None
    return state._lane_memo[key]


def _body_segments(veh, net):
    """Occupied (edge, lane, lo, hi) spans; the tail may reach previous edges."""
    segs = []
    idx = veh.route_pos
    e = veh.edge
    lane = veh.lane
    hi = veh.cell
    need = veh.cls.length_cells
    while True:
        cc = net.edges[e].cell_count
        lo = hi - need + 1
        draw_hi = min(hi, cc - 1)
        draw_lo = max(lo, 0)
        if draw_hi >= draw_lo:
            segs.append((e, lane, draw_lo, draw_hi))
        if lo >= 0:
            break
        need = -lo
        idx = idx - 1 if idx > 0 else (len(veh.route) - 1 if veh.circular else None)
        if idx is None:
            break
        e = veh.route[idx]
        lane = veh.prev_lanes.get(e, min(lane, net.edges[e].lanes - 1))
        hi = net.edges[e].cell_count - 1
    return segs


def _build_segments(state):
    """The occupancy index from scratch, for a state set up by hand (``init_ring``, tests)."""
    state._segs = {}
    for veh in state.vehicles.values():
        _place(state._segs, veh, state.net)
    _check_overlaps(state)


def _place(segs_map, veh, net):
    """Insert the spans of the vehicle's body into the index and list them on it."""
    veh._spans = []
    for e, lane, lo, hi in _body_segments(veh, net):
        span = [lo, hi, veh.vid, veh]
        insort(segs_map.setdefault((e, lane), []), span)
        veh._spans.append(((e, lane), span))


def _drop(segs_map, veh):
    """Remove the vehicle's spans from the index; a lane left empty goes too."""
    for key, span in veh._spans:
        lst = segs_map[key]
        lst.remove(span)
        if not lst:
            del segs_map[key]


def _check_overlaps(state):
    """Raise CollisionError unless every lane's spans are disjoint and in order."""
    for key, lst in state._segs.items():
        hi = -1
        for span in lst:
            if span[0] <= hi:
                before = lst[lst.index(span) - 1]
                raise CollisionError(f"overlap on {key}: {tuple(before[:3])} vs "
                                     f"{tuple(span[:3])} at t={state.clock_s}")
            hi = span[1]


def _chain_scan(state, veh, edge, lane, cell, route_pos, need_far, wall_gap):
    """Distance to the next occupied cell ahead along the route chain, from the lane's end.

    The caller has found no span ahead of ``cell`` in its lane, so the scan
    starts at the lane's end and reads only the first span of each later lane.
    Returns (gap, leader). gap is capped at need_far when the road is free that
    far, and at wall_gap where edge-entry arbitration or a lane policy blocks
    the chain.
    """
    edges = state.net.edges
    segs_map = state._segs
    gap = edges[edge].cell_count - 1 - cell  # free cells to the lane's end
    ln, rp = lane, route_pos
    for _ in range(64):  # every scan ends at a body, a wall, the horizon or the route end
        if wall_gap is not None and wall_gap <= gap:
            return wall_gap, None
        if gap >= need_far:
            return need_far, None
        rp = _next_route_index(veh, rp)
        if rp is None:
            return need_far, None
        e = veh.route[rp]
        ln = _mapped_lane(state, e, ln, veh.cls)
        if ln is None:
            return gap, None
        segs = segs_map.get((e, ln))
        if segs:
            lead_gap = gap + segs[0][0]
            if wall_gap is not None and wall_gap < lead_gap:
                return wall_gap, None
            return min(lead_gap, need_far), segs[0][3] if lead_gap <= need_far else None
        gap += edges[e].cell_count
    raise RuntimeError("chain scan failed to terminate")


# ---------------------------------------------------------------------------
# step phases

def _sample_arrivals(state):
    t = state.clock_s
    for entry, queue in zip(state.demand, state.queues):
        n_arrivals = 0
        if entry.schedule is not None:
            n_arrivals = entry.schedule.get(t, 0)
        elif entry.p_step > 0:
            if state.rng_injection.random() < entry.p_step:
                n_arrivals = 1
        for _ in range(n_arrivals):
            u = state.rng_injection.random()
            ridx, acc = 0, 0.0
            for i, s in enumerate(entry.splits):
                acc += s
                if u <= acc + 1e-12:
                    ridx = i
                    break
            u2 = state.rng_injection.random()
            cname = entry.class_mix[-1][0]
            for name, cum in entry.class_mix:
                if u2 <= cum:
                    cname = name
                    break
            queue.append((t, entry.routes[ridx], cname))


def _try_inject(state):
    net = state.net
    for queue in state.queues:
        while queue:
            spawn_s, route, cname = queue[0]
            cls = state.classes[cname]
            eid = route.edges[0]
            edge = net.edges[eid]
            length = cls.length_cells
            if edge.cell_count < length:
                raise ScenarioError(
                    f"entry edge {eid!r} shorter than vehicle class {cname!r}")
            for lane in _allowed_lanes(state, eid, cls):
                segs = state._segs.get((eid, lane))
                if segs and bisect_right(segs, [length - 1, _INF, _INF]) >= 1:
                    continue
                queue.popleft()
                vid = state._next_vid
                state._next_vid += 1
                veh = state.vehicles[vid] = Vehicle(vid, cls, eid, lane, length - 1,
                                                    route.edges, 0, False, spawn_s)
                state.injected += 1
                _place(state._segs, veh, net)
                break
            else:
                break  # every allowed entry lane is blocked: the queue waits


def _lane_change_phase(state):
    """Lane changes in ascending id order, each decided against the spans as they stand.

    The candidates are the vehicles in a lane that excludes their class, and the
    blocked ones (gap <= v) whose body lies in a window of an adjacent lane open
    to their class. A lane's windows are its free stretches that a follower
    permits: from the lane's start to its first span, and from each span's end
    plus its owner's v_max to the next span or the lane's end. The target lane's
    spans drive the walk of a lane with a blocked body, so its vehicles are
    looked at only where the lane beside them has room: a gap whose window would
    start at or past the next span costs no look at the own lane. Only candidates
    can pass the rule while no vehicle has moved; a move changes the spans later
    decisions read, so from the first move on every later vehicle is decided afresh.
    """
    edges = state.net.edges
    vehicles = state.vehicles
    segs_map = state._segs
    policies = state.lane_policies
    candidates = []  # a vehicle may come twice: the rule holds it again
    for (e, ln), own in segs_map.items():
        edge = edges[e]
        lanes = edge.lanes
        if lanes < 2:
            continue
        mask = policies.get(e)
        admits = None if mask is None else mask[ln]
        if admits is not None and not state.classes.keys() <= admits:
            for _, _, vid, veh in own:  # the lane excludes a class: its vehicles must leave
                if veh.cls.name not in admits:
                    candidates.append(vid)  # a tail or a straddler too: the rule holds it
        ahead = edge.cell_count
        for lo, hi, _, veh in reversed(own):
            if ahead - hi - 1 <= veh.v:
                break  # a body is blocked in its lane: walk the windows
            ahead = lo
        else:
            continue
        last = len(own) - 1
        for target in (ln - 1, ln + 1):
            if not 0 <= target < lanes:
                continue
            t_admits = None if mask is None else mask[target]
            p = 0
            own_hi = own[0][1]
            # ahead of the first span the window starts at cell 0: no follower
            # on an upstream edge or across a ring's seam is seen
            start = 0
            t_segs = segs_map.get((e, target))
            for span in t_segs + _LANE_END if t_segs else _LANE_END:
                end = span[0]
                # an open window, and the next own body ends before its span; a
                # closed gap is passed, and the next open window bisects from p
                if start < end and own_hi < end:
                    if own[p][0] < start:  # pass the bodies that start before the window
                        p = bisect_left(own, [start], p + 1)
                    while p <= last and own[p][1] < end:  # the body lies in the window
                        lo, hi, vid, veh = own[p]
                        p += 1
                        v = veh.v
                        # the gap reaches at least the next span, or else the lane's end
                        gap = (own[p][0] if p <= last else edge.cell_count) - hi - 1
                        if gap > v:
                            continue  # not blocked
                        cls = veh.cls
                        if (veh.edge != e or veh.lane != ln or hi != veh.cell or veh.front_out
                                or lo != hi - cls.length_cells + 1
                                or (t_admits is not None and cls.name not in t_admits)):
                            continue  # a tail, past the route's end, straddling, or barred
                        if p > last:
                            gap, _ = _chain_scan(state, veh, e, ln, hi, veh.route_pos, v + 2, None)
                        if gap <= v:
                            candidates.append(vid)
                    if p > last:
                        break  # at the latest in the window that runs to the lane's end
                    own_hi = own[p][1]
                start = span[1] + 1 + span[3].cls.v_max_cells  # the next window's start
    candidates.sort()
    for vid in candidates:
        if _change_lane(state, vehicles[vid]):
            for veh in vehicles.values():
                if veh.vid > vid:
                    _change_lane(state, veh)
            return


def _change_lane(state, veh):
    """The lane-change rule for one vehicle against the current spans; True if it moved."""
    e = veh.edge
    if state.net.edges[e].lanes < 2 or veh.front_out:
        return False
    cell, lane = veh.cell, veh.lane
    lo_me = cell - veh.cls.length_cells + 1
    if lo_me < 0:
        return False  # straddling an edge boundary: hold the lane
    segs_map = state._segs
    allowed = _allowed_lanes(state, e, veh.cls)
    mandatory = lane not in allowed
    need = veh.v + 2
    probe = [cell, _INF, _INF]
    own = segs_map[(e, lane)]
    i = bisect_right(own, probe)
    if i < len(own):  # the next span in the lane is the leader
        gap_cur = min(own[i][0] - cell - 1, need)
    else:
        gap_cur, _ = _chain_scan(state, veh, e, lane, cell, veh.route_pos, need, None)
    if not mandatory and gap_cur > veh.v:
        return False  # not blocked ahead
    if mandatory:
        targets = sorted((l for l in allowed if l != lane), key=lambda l: (abs(l - lane), l))
    else:
        targets = [l for l in (lane - 1, lane + 1) if l in allowed]
    for target in targets:
        segs = segs_map.get((e, target), [])
        i = bisect_right(segs, probe)
        if i >= 1:
            behind = segs[i - 1]
            if behind[1] >= lo_me:
                continue  # target cells occupied
            if lo_me - behind[1] - 1 < behind[3].cls.v_max_cells:
                continue  # would force the follower to brake hard
        if not mandatory:
            if i < len(segs):
                gap_t = min(segs[i][0] - cell - 1, need)
            else:
                gap_t, _ = _chain_scan(state, veh, e, target, cell, veh.route_pos, need, None)
            if gap_t <= gap_cur:
                continue
        _drop(segs_map, veh)
        veh.lane = target
        _place(segs_map, veh, state.net)
        return True
    return False


def _entry_arbitration(state):
    """Per step, each (edge, lane) accepts entrants from one upstream chain only.

    Same-chain entrants (leader plus followers on one source lane) are already
    collision-safe under the synchronous update; entrants arriving from
    distinct source lanes or edges are not, so all but the chain of the
    closest claimant see a wall one cell before the contested boundary. Walls
    carry no anticipation bonus, so a walled vehicle always stops in time.

    A front can reach the next edge only from within the edge's v_max of the
    lane end, so each lane is walked from its end down to that reach. Only the
    vehicles walled in the previous step have a wall to clear.
    """
    net = state.net
    vehicles = state.vehicles
    for veh in state._walled:
        veh._wall = None
    walled = state._walled = []
    claims = {}
    for (e, ln), segs in state._segs.items():
        edge = net.edges[e]
        reach = edge.cell_count - edge.v_max_cells
        for lo, hi, vid, veh in reversed(segs):
            if hi < reach:
                break
            if veh.edge != e or veh.lane != ln or hi != veh.cell or veh.front_out:
                continue  # a tail span, or a front past the route's end
            v_possible = min(veh.v + 1, veh.cls.v_max_cells, edge.v_max_cells)
            dist = edge.cell_count - hi  # advance needed to enter the next edge
            if v_possible < dist:
                continue
            lane, rp = ln, veh.route_pos
            source = (e, ln)
            while v_possible >= dist:
                nrp = _next_route_index(veh, rp)
                if nrp is None:
                    break
                ne = veh.route[nrp]
                nlane = _mapped_lane(state, ne, lane, veh.cls)
                if nlane is None:
                    break
                claims.setdefault((ne, nlane), []).append((dist, vid, source))
                lane, rp = nlane, nrp
                source = (ne, nlane)
                dist += net.edges[ne].cell_count
    for lst in claims.values():
        lst.sort()
        winner_source = lst[0][2]
        for dist, vid, source in lst[1:]:
            if source == winner_source:
                continue
            veh = vehicles[vid]
            wall = dist - 1
            if veh._wall is None:
                veh._wall = wall
                walled.append(veh)
            elif wall < veh._wall:
                veh._wall = wall


def _velocity_phase(state):
    edges = state.net.edges
    vehicles = state.vehicles
    anticipation = state.anticipation
    # pass 1: effective v_max, leader, gap and anticipated advance for everyone
    # (synchronous view), walking each lane from its front: the leader is the
    # span ahead in the lane
    seen = 0
    for (e, ln), segs in state._segs.items():
        edge_vmax, end = edges[e].v_max_cells, edges[e].cell_count - 1
        ahead = None  # the span ahead in the lane: the walk runs from the lane's front
        for span in reversed(segs):
            lo, hi, _, veh = span
            if veh.edge != e or veh.lane != ln or (hi != veh.cell and not veh.front_out):
                ahead = span
                continue  # a tail span: on an earlier edge or lane, or the ring's wrap
            seen += 1
            cls = veh.cls
            vmax = veh._vmax = cls.v_max_cells if cls.v_max_cells < edge_vmax else edge_vmax
            v0 = veh.v
            if veh.front_out:  # the span left on its final edge
                gap, leader = 10 ** 9, None
            else:
                h = cls.anticipation_horizon_h
                v_next = v0 + 1 if v0 < vmax else vmax
                ts_product = v0 * (v0 if v0 < h else h)
                need = (v_next if v_next > ts_product else ts_product) + 1
                wall = veh._wall
                if ahead is not None:
                    gap = ahead[0] - hi - 1
                    leader = ahead[3]
                    if wall is not None and wall < gap:
                        gap, leader = wall, None
                    elif gap > need:
                        gap, leader = need, None
                elif wall is None and end - hi >= need:  # free road to the lane's end
                    gap, leader = need, None
                else:
                    gap, leader = _chain_scan(state, veh, e, ln, hi, veh.route_pos, need, wall)
            veh._gap = gap
            veh._leader = leader
            ahead = span
            # how far a follower may count on this body's visible rear to advance:
            # min(gap, v, v_max) with the edge's cap, and nothing while it straddles an
            # edge boundary (hidden tail cells pour onto this edge)
            if anticipation and veh.cell >= cls.length_cells - 1:
                anti = gap if gap < v0 else v0
                veh._anti = anti if anti < vmax else vmax
            else:
                veh._anti = -_INF
    if seen != len(vehicles):
        raise RuntimeError(f"spans hold {seen} of {len(vehicles)} vehicles at t={state.clock_s}")
    # pass 2: the four update stages; one draw per vehicle, ascending id
    draws = state.rng_traffic.take(len(vehicles))
    for veh, u in zip(vehicles.values(), draws):
        cls = veh.cls
        v0 = veh.v
        gap = veh._gap
        leader = veh._leader
        vmax_eff = veh._vmax
        h = cls.anticipation_horizon_h
        headway_large = v0 == 0 or gap >= v0 * (v0 if v0 < h else h)
        leader_light = leader is not None and leader.brake_light
        # stage 0
        pb_branch = leader_light and not headway_large
        if pb_branch:
            p = cls.brake_p_b
        elif v0 == 0:
            p = cls.standstill_p_0
        else:
            p = cls.dawdle_p_d
        # stage 1
        v1 = v0 + 1 if headway_large or not (veh.brake_light or leader_light) else v0
        if v1 > vmax_eff:
            v1 = vmax_eff
        # stage 2
        d_eff = gap
        if leader is not None and leader._anti > cls.security_gap_cells:
            d_eff += leader._anti - cls.security_gap_cells
        if veh._wall is not None and d_eff > veh._wall:
            d_eff = veh._wall  # an entry wall is absolute, no anticipation past it
        v2 = v1 if v1 < d_eff else d_eff
        new_bl = v2 < v0
        # stage 3
        v3 = v2
        if u < p:
            v3 = v2 - 1 if v2 > 0 else 0
            if pb_branch and v3 < v2:
                new_bl = True
        veh.v = v3  # no follower reads its leader's speed in this pass
        veh._new_bl = new_bl


def _count_passes(dets, veh, c, target, speed_mps):
    """Count a front that passes from cell c to target at the detectors of its edge."""
    for w, cell, lanes, _, _ in dets:  # a detector's cell lies on its edge
        if c < cell <= target and veh.lane in lanes:
            w.count += 1
            w.speed_sum += speed_mps
            w.per_class[veh.cls.name] = w.per_class.get(veh.cls.name, 0) + 1


def _move_phase(state):
    """Advance every vehicle by its new velocity, keeping the index; count the exits.

    A body that stays wholly on its edge shifts its one span in place. The spans
    of the others are re-placed: all are dropped before any is placed, since a
    follower's shifted span may have passed a stale one.
    """
    net = state.net
    edges = net.edges
    dets_by_edge = state._dets_by_edge
    t_new = state.clock_s + 1
    state.vehicle_steps += len(state.vehicles)
    replaced = []
    for vid, veh in state.vehicles.items():
        adv = veh.v
        veh.brake_light = veh._new_bl
        if adv == 0:
            continue  # a stopped body keeps its spans
        c = veh.cell
        target = c + adv
        if c >= veh.cls.length_cells - 1 and target < edges[veh.edge].cell_count:
            # the body stays wholly on its edge: its one span shifts in place
            if veh.edge in dets_by_edge:
                _count_passes(dets_by_edge[veh.edge], veh, c, target, adv * net.cell_length_m)
            veh.cell = target
            span = veh._spans[0][1]
            span[0] += adv
            span[1] = target
            continue
        while True:  # the front crosses edges, the tail leaves one, or it runs off the route
            dets = dets_by_edge.get(veh.edge)
            if dets is not None and not veh.front_out:
                _count_passes(dets, veh, c, target, adv * net.cell_length_m)
            cc = edges[veh.edge].cell_count
            if target < cc or veh.front_out:
                veh.cell = target
                break
            nrp = _next_route_index(veh, veh.route_pos)
            if nrp is None:
                veh.cell = target
                veh.front_out = True
                veh.exit_s = t_new
                break
            nlane = _mapped_lane(state, veh.route[nrp], veh.lane, veh.cls)
            if nlane is None:
                raise CollisionError(
                    f"vehicle {vid} crossed into impassable edge at t={t_new}")
            veh.prev_lanes[veh.edge] = veh.lane
            veh.route_pos = nrp
            veh.edge = veh.route[nrp]
            veh.lane = nlane
            target -= cc
            c = -1
        replaced.append(veh)
    for veh in replaced:
        _drop(state._segs, veh)
    for veh in replaced:
        _place(state._segs, veh, net)
        if not veh._spans:
            del state.vehicles[veh.vid]
            state.exited += 1
            state.dwell_s_total += veh.exit_s - veh.spawn_s
            name = veh.cls.name
            state.exited_by_class[name] = state.exited_by_class.get(name, 0) + 1


def step(state: SimState) -> SimState:
    """Advance the simulation by one second (total function on valid states)."""
    _sample_arrivals(state)
    _try_inject(state)
    _lane_change_phase(state)
    _entry_arbitration(state)
    _velocity_phase(state)
    _move_phase(state)
    state.clock_s += 1
    _check_overlaps(state)
    segs_map = state._segs
    for dets in state._dets_by_edge.values():  # detector occupancy samples
        for w, cell, _, probe, keys in dets:
            occ = 0
            for key in keys:
                segs = segs_map.get(key, ())
                i = bisect_right(segs, probe)
                if i and segs[i - 1][1] >= cell:
                    occ += 1
            w.occ_sum += occ / len(keys)
    return state


# ---------------------------------------------------------------------------
# policies and runs

def lane_mask(mask, lanes: int, classes, where: str) -> tuple:
    """A lane policy as one entry per lane: None (open to every class) or the
    frozenset of class names the lane admits.

    ScenarioError naming ``where`` unless the mask has ``lanes`` entries, each
    None or a list (or set) of names of ``classes``, and some lane admits some
    class.
    """
    if not isinstance(mask, (list, tuple)) or len(mask) != lanes:
        raise ScenarioError(f"{where}: expected a list of {lanes} lane entries, got {mask!r}")
    norm = []
    for lane, names in enumerate(mask):
        if names is not None:
            path = f"{where}[{lane}]"
            try:
                names = _convert(list(names) if isinstance(names, (tuple, set, frozenset))
                                 else names, ("",), path)
            except ConfigError as exc:
                raise ScenarioError(str(exc)) from None
            if unknown := sorted(set(names) - set(classes)):
                raise ScenarioError(f"{path}: unknown class {unknown[0]!r}")
            names = frozenset(names)
        norm.append(names)
    if not any(names is None or names for names in norm):
        raise ScenarioError(f"{where}: mask excludes every class from every lane")
    return tuple(norm)


def apply_lane_policy(state: SimState, edge_id: str, mask) -> SimState:
    """Restrict lanes of an edge to class subsets (see ``lane_mask``); None
    entries stay open.

    Vehicles already in a newly forbidden lane change out as soon as the
    symmetric safety rule allows.
    """
    state.lane_policies[edge_id] = lane_mask(mask, state.net.edges[edge_id].lanes,
                                             state.classes, f"lane_policies.{edge_id}")
    state._lane_memo.clear()
    return state


def run(state: SimState, duration_s: int, window_s: int = RUN["window_s"].default,
        trace_connected: bool = False) -> TrafficMetrics:
    """Repeated step(); the trips that end during this call and windowed detector readings.

    ``injected`` and ``exited`` count this call's injections and exits too, not
    the state's lifetime totals. With ``trace_connected`` the planar positions
    of connected-class vehicles are recorded each second of this call in the
    result's ``connected_traces`` for the radio co-simulation.
    """
    RUN["duration_s"].check(duration_s, "duration_s", ScenarioError)
    RUN["window_s"].check(window_s, "window_s", ScenarioError)
    t_start = state.clock_s
    injected0, exited0, dwell0 = state.injected, state.exited, state.dwell_s_total
    by_class0 = dict(state.exited_by_class)
    traces = {} if trace_connected else None
    windows = {d: _OpenWindow(det) for d, det in state.net.detectors.items()}
    state._dets_by_edge = {}
    for w in windows.values():
        det = w.det  # with its bisect probe and lane keys, built once per call
        state._dets_by_edge.setdefault(det.edge, []).append(
            (w, det.cell, det.lanes, [det.cell, _INF, _INF], [(det.edge, l) for l in det.lanes]))
    observations = {d: [] for d in windows}
    next_window = t_start + window_s
    for _ in range(duration_s):
        step(state)
        if traces is not None:
            for vid, veh in state.vehicles.items():
                if veh.cls.connected and not veh.front_out:
                    cell = min(veh.cell, state.net.edges[veh.edge].cell_count - 1)
                    traces.setdefault(vid, []).append(
                        (state.clock_s,) + state.net.point_at(veh.edge, cell))
        if state.clock_s == next_window:
            for det_id, w in windows.items():
                observations[det_id].append(w.close(next_window - window_s, next_window))
            next_window += window_s
    state._dets_by_edge = {}
    trips = state.exited - exited0
    per_class = {c: n - by_class0.get(c, 0) for c, n in state.exited_by_class.items()
                 if n > by_class0.get(c, 0)}
    return TrafficMetrics(
        mean_dwell_s=(state.dwell_s_total - dwell0) / trips if trips else None,
        trips=trips, per_class_trips=per_class, observations=observations,
        injected=state.injected - injected0, exited=trips,
        queued_end=sum(len(q) for q in state.queues), connected_traces=traces)


@dataclass
class ScenarioRuns:
    """Runs of one experiment's scenarios, each distinct scenario simulated once.

    The fields are fixed for the experiment. ``run`` takes what differs between
    the traffic stage, the assignment probe and the evaluations (demand and
    lane policies) and memoises the metrics on their exact values. Tracing
    draws no randoms, so a run recorded with connected traces answers either
    request, but one recorded without them does not answer a request that
    needs them. Callers share the returned metrics: read only.
    """
    net: RoadNetwork
    classes: dict
    seed: int
    duration_s: int
    window_s: int = RUN["window_s"].default
    class_mix: dict | None = None
    nasch_degenerate: bool = False
    _memo: dict = field(default_factory=dict, repr=False)

    def run(self, demand: list, lane_policies: dict | None = None,
            trace_connected: bool = False) -> TrafficMetrics:
        """init_scenario -> apply_lane_policy per edge -> run, or the memoised metrics."""
        lane_policies = {eid: lane_mask(mask, self.net.edges[eid].lanes, self.classes,
                                        f"lane_policies.{eid}")
                         for eid, mask in (lane_policies or {}).items()}
        key = (tuple(_demand_key(spec) for spec in demand), tuple(sorted(lane_policies.items())))
        hit = self._memo.get(key)
        if hit is not None and (hit.connected_traces is not None or not trace_connected):
            return hit
        state = init_scenario(self.net, demand, self.classes, self.seed,
                              class_mix=self.class_mix,
                              nasch_degenerate=self.nasch_degenerate)
        for eid, mask in lane_policies.items():
            apply_lane_policy(state, eid, mask)
        metrics = self._memo[key] = run(state, self.duration_s, window_s=self.window_s,
                                        trace_connected=trace_connected)
        for veh in state.vehicles.values():
            veh._spans = []  # vehicle and span refer to each other: free the dropped state now
        return metrics


def _demand_key(spec) -> tuple:
    """The values of one demand entry that init_scenario reads, hashable."""
    mix, schedule = spec.get("class_mix"), spec.get("schedule")
    return (spec["origin"], spec["dest"], float(spec.get("rate_veh_h", 0.0)),
            tuple(spec.get("splits", [1.0])),
            None if mix is None else tuple(sorted(mix.items())),
            None if schedule is None else tuple(schedule))


def state_hash(state: SimState) -> str:
    """Digest of the microscopic state; equal hashes mean equal trajectories."""
    items = [(vid, v.edge, v.lane, v.cell, v.v, v.brake_light, v.route_pos, v.front_out)
             for vid, v in sorted(state.vehicles.items())]
    queues = [tuple((s, r.edges, c) for s, r, c in q) for q in state.queues]
    blob = repr((state.clock_s, items, queues, state.injected, state.exited)).encode()
    return hashlib.sha256(blob).hexdigest()
