"""Spans and counters recorded around the public calls of each hybridflow layer.

The wrappers live only in the benchmark. They are installed for traced rounds
and removed afterwards, so untraced rounds run the program's own functions.
A function that a caller bound at import (``from .radio_env import
forecast_along``) is wrapped in the caller's namespace too, because that is
where the caller looks it up. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import defaultdict

from hybridflow import (fingerprint, harness, impute, radio_env, road_net, routing_opt,
                        traffic_ca, transfer)

MODULES = (road_net, traffic_ca, radio_env, transfer, routing_opt, fingerprint, impute,
           harness)

# span name -> functions of the layer's public API that record it
FUNCTION_SPANS = {
    "road_net.build_network": [road_net.build_network],
    "road_net.load_network": [road_net.load_network],
    "road_net.route_candidates": [road_net.route_candidates],
    "road_net.node_distances": [road_net.node_distances],
    "traffic_ca.init_scenario": [traffic_ca.init_scenario],
    "traffic_ca.init_ring": [traffic_ca.init_ring],
    "traffic_ca.apply_lane_policy": [traffic_ca.apply_lane_policy],
    "traffic_ca.step": [traffic_ca.step],
    "traffic_ca.run": [traffic_ca.run],
    "radio_env.forecast_along": [radio_env.forecast_along],
    "transfer.simulate_drive": [transfer.simulate_drive],
    "transfer.train_predictor": [transfer.train_predictor],
    "routing_opt.evaluate_policy": [routing_opt.evaluate_policy],
    "routing_opt.build_problem": [routing_opt.build_problem],
    "routing_opt.assign": [routing_opt.assign_bmp, routing_opt.assign_combined,
                           routing_opt.assign_wardrop],
    "routing_opt.detect_bottlenecks": [routing_opt.detect_bottlenecks],
    "fingerprint.generate_corpus": [fingerprint.generate_corpus],
    "fingerprint.split_corpus": [fingerprint.split_corpus],
    "fingerprint.extract_features": [fingerprint.extract_features],
    "fingerprint.train": [fingerprint.train],
    "fingerprint.evaluate": [fingerprint.evaluate],
    "fingerprint.class_shares": [fingerprint.class_shares],
    "impute.default_params": [impute.default_params],
    "impute.fit_gpr": [impute.fit_gpr],
    "impute.predict_gpr": [impute.predict_gpr],
    "impute.knn_estimate": [impute.knn_estimate],
    "harness.run_experiment": [harness.run_experiment],
    "harness.compare_policies": [harness.compare_policies],
}

# span name -> (class, method)
METHOD_SPANS = {
    "radio_env.sinr": (radio_env.RadioScene, "sinr"),
    "radio_env.map_record": (radio_env.ConnectivityMap, "record"),
}


def _policy_kind(args, kwargs):
    policy = kwargs["policy"] if "policy" in kwargs else args[2]
    return policy.kind


def _count_step(counts, args, kwargs, result):
    counts["traffic_ca.vehicle_steps"] += len(result.vehicles)


def _count_drive(counts, args, kwargs, result):
    metrics, log = result
    counts["transfer.decisions"] += len(log)
    counts["transfer.transmissions"] += metrics.transmissions
    counts["transfer.retransmissions"] += metrics.retransmissions


def _count_queries(counts, args, kwargs, result):
    counts["impute.queries"] += len(result)


# span name -> (counter hook on the call's result, tag of the span)
HOOKS = {
    "traffic_ca.step": (_count_step, None),
    "transfer.simulate_drive": (_count_drive, _policy_kind),
    "impute.predict_gpr": (_count_queries, None),
}


def _sites():
    """Every (namespace, attribute, span name) through which a traced function is called."""
    sites = []
    for name, funcs in FUNCTION_SPANS.items():
        for func in funcs:
            for module in MODULES:
                if getattr(module, func.__name__, None) is func:
                    sites.append((module, func.__name__, name))
    for name, (cls, attr) in METHOD_SPANS.items():
        sites.append((cls, attr, name))
    return sites


class Tracer:
    """Records spans (group, op, id, parent, name, tag, start, end) and counters per group.

    A group is one set-up repetition or one timed round; an op is one timed call
    of the workload. Spans outside any op carry op ``None``.
    """

    def __init__(self):
        self.spans = defaultdict(list)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op_walls = defaultdict(dict)
        self.group = None
        self.op = None
        self._stack = []
        self._next_id = 0
        self._saved = []
        self._sites = _sites()

    def install(self, group, spans=True):
        """Wraps every site; with ``spans`` false only the counters are kept."""
        self.group = group
        self._sink = self.spans[group] if spans else None
        for owner, attr, name in self._sites:
            current = owner.__dict__[attr]
            self._saved.append((owner, attr, current))
            setattr(owner, attr, self._wrap(current, name))
        self._saved.append((radio_env.PropagationModel, "shadowing_db",
                            radio_env.PropagationModel.shadowing_db))
        radio_env.PropagationModel.shadowing_db = self._wrap_shadowing(
            radio_env.PropagationModel.shadowing_db)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.group = None

    def _wrap(self, func, name):
        hook, tagger = HOOKS.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tag = tagger(args, kwargs) if tagger else None
                if self._sink is not None:
                    self._sink.append((self.group, self.op, sid, parent, name, tag, start,
                                       end))
            if hook:
                hook(self.counts[self.group], args, kwargs, result)
            return result

        return traced

    def _wrap_shadowing(self, method):
        """Counts shadowing lookups and cache hits; a miss is a lookup that grew the cache."""
        def counted(model, pos):
            if not model.shadowing_enabled or model.shadowing_sigma_db <= 0:
                return method(model, pos)
            before = len(model._shadow_cache)
            value = method(model, pos)
            counts = self.counts[self.group]
            counts["radio_env.shadow_lookups"] += 1
            counts["radio_env.shadow_hits"] += len(model._shadow_cache) == before
            return value

        return counted

    def add_counts(self, group, values):
        for key, value in values.items():
            self.counts[group][key] += value

    def group_metrics(self, group):
        """Busy, self and call totals per span name plus counters, for one group."""
        spans = self.spans[group]
        child_time = defaultdict(float)
        for _, _, _, parent, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        top = defaultdict(float)
        evaluate_runs = 0
        name_of = {span[2]: span[4] for span in spans}
        for _, op, sid, parent, name, tag, start, end in spans:
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += dur
            out[f"{name}.self_s"] += dur - child_time[sid]
            if tag is not None:
                out[f"{name}.{tag}.busy_s"] += dur
            if parent is None and op is not None:
                top[op] += dur
            if name == "traffic_ca.run" and name_of.get(parent) == "routing_opt.evaluate_policy":
                evaluate_runs += 1
        # every evaluation makes one evaluation run; any other run below it is a probe run
        out["routing_opt.probe_runs"] = evaluate_runs - out["routing_opt.evaluate_policy.calls"]
        out.update(self.counts[group])
        walls = self.op_walls[group]
        out["trace.top_span_coverage"] = min(
            (top[op] / wall for op, wall in walls.items() if wall > 0), default=1.0)
        return out

    def drop(self, group):
        """Frees the spans of a group whose metrics are taken."""
        del self.spans[group]

    def span_count(self):
        return sum(map(len, self.spans.values()))

    def write(self, path):
        """One JSON array per line: group, op, id, parent, name, tag, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for spans in self.spans.values():
                for span in spans:
                    fh.write(json.dumps(span) + "\n")


def median_metrics(per_group):
    """Median of each metric over groups; a metric missing from a group counts as 0."""
    keys = set().union(*per_group) if per_group else set()
    return {k: statistics.median(g.get(k, 0.0) for g in per_group) for k in keys}
