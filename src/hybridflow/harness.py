"""Experiment orchestration: configuration, staged pipeline, reporting.

A single master seed fans out into named substreams (traffic, injection,
shadowing, transfer, corpus) so enabling one stage never perturbs another's
draws. `parse_config` checks an experiment document against the tables below,
so a bad input fails by path before any stage; `run_experiment`,
`compare_policies` and `evaluate_assignment` all start from it. `STAGES` is
the stage order: fingerprint (class shares can arm lane policies) ->
traffic -> impute -> assign -> transfer. `run_experiment` and, once per
seed, `compare_policies` run it through one loop, so a policy comparison
scores the same pipeline that `run` reports (compare leaves out impute and
assign, which no transfer result reads). One experiment simulates each
distinct CA scenario once: the traffic stage, the assign stage's probe and its
evaluations share one `traffic_ca.ScenarioRuns`, so a probe that two methods
need, or an evaluation under the configured splits, reuses the earlier run.
The transfer stage holds one record and one forecast per trace: the map build
and every drive read the trace's `radio_env.TraceRecord`, and every predictive
drive reads one map forecast made after the map is complete.
Every artifact lands in the output directory; report.json indexes them and is
byte-identical for identical (config, seed).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, fingerprint, impute, radio_env, routing_opt, traffic_ca, transfer
from .rng import substream_seed
from .road_net import NetworkError, build_network, load_network
from .schema import ConfigError, Field, _Optional, _Overrides, _section, table


class StageError(RuntimeError):
    """A pipeline stage failed; completed stages' outputs are preserved."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# the tables of an experiment document (see hybridflow.schema); each range and choice
# is the Field of the module that owns the setting
_MODEL = table(radio_env.PropagationModel)
COORD_M = Field(float, ge=-10 ** 6, le=10 ** 6)  # a radio position within 1000 km of the origin
STATION = {"id": str, "x": COORD_M, "y": COORD_M,
           "tx_power_dbm": table(radio_env.BaseStation)["tx_power_dbm"]}
NET_POINT = {"edge": str, "offset_m": float}
OBSERVATION = {**NET_POINT, "day": 0, "flow": table(impute.VolumeObservation)["flow_veh_day"]}
FINGERPRINT = {**fingerprint.SETTINGS, "regs": Field(("l1", "l2"), item=fingerprint.REG),
               "feed_lane_policy": _Optional(edge=str, truck_share_min=Field(0.2, ge=0, le=1),
                                             mask=list)}
IMPUTE = {"observations": [OBSERVATION], "targets": [NET_POINT],
          "length_scale_m": table(impute.GprParams)["length_scale_m"], "euclidean": False,
          "knn_k": Field(0, ge=0)}
ASSIGN = {"methods": Field(("fixed", "bmp"), item=routing_opt.METHOD), **routing_opt.SETTINGS}
TRANSFER = {"stations": [STATION], "noise_dbm": table(radio_env.RadioScene)["noise_dbm"],
            "shadowing": {"pl0_db": _MODEL["pl0_db"], "exponent": _MODEL["exponent"],
                          "sigma_db": _MODEL["shadowing_sigma_db"],
                          "enabled": _MODEL["shadowing_enabled"]},
            # a drive needs two trace points: a line trace has duration_s + 1
            # start and velocity_mps are two numbers each (parse_config checks the count)
            "trace": {"kind": Field("line", choices=("line", "from_traffic")),
                      "start": Field((0.0, 0.0), item=COORD_M),
                      "velocity_mps": Field((10.0, 0.0), item=Field(float, ge=-100, le=100)),
                      "duration_s": Field(600, ge=1),
                      "min_duration_s": Field(60, ge=2), "max_vehicles": Field(3, ge=1)},
            "sensor_rate_bytes_s": transfer.SENSOR_RATE,
            "policies": Field(("periodic", "ml_cat"),
                              item=Field(str, choices=transfer.POLICY_KINDS, name="policy")),
            # keyword overrides of each policy's TransferPolicy
            "policy": _Overrides({k: v for k, v in table(transfer.TransferPolicy).items()
                                  if k != "kind"}),
            "build_map": True, "predictor": Field("formula", choices=("formula", "learned"))}
# a class entry is a traffic_ca.VehicleClass with its defaults, plus an optional share
CLASS = table(traffic_ca.VehicleClass) | {"share": replace(traffic_ca.SHARE, default=None,
                                                           kind=float)}
# network: a file name or a road_net.NETWORK document; lane_policies: edge id -> mask
CONFIG = {"version": int, "seed": 0, "network": None, "classes": [CLASS],
          "demand": [traffic_ca.DEMAND], **traffic_ca.RUN, "nasch_degenerate": False,
          "lane_policies": Field(None, kind=dict, item=Field(None)),
          "stages": {"fingerprint": _Optional(FINGERPRINT), "traffic": _Optional(),
                     "impute": _Optional(IMPUTE), "assign": _Optional(ASSIGN),
                     "transfer": _Optional(TRANSFER)}}


def parse_config(config: dict, base_dir=".") -> dict:
    """The experiment document with every default filled in and its network
    built (a file name read relative to base_dir). ConfigError or NetworkError
    names the dotted path of what the tables reject and of what they cannot
    state: the version, an inline network value that build_network rejects, a
    class named twice, a class mix naming no class, route splits that
    traffic_ca.split_fault rejects or that outnumber the demand's routes, a
    demand whose origin is its destination, no regularization, a holdout of
    no trace, transfer policy overrides that make a listed policy's bounds
    degenerate, a from_traffic trace that no connected vehicle can drive, a
    transfer stage of no station, a trace start or velocity of other than two
    numbers, a traffic, impute or assign stage with no network, an impute stage
    with neither inline observations nor a traffic stage with detectors, or
    whose traffic run is shorter than a detector window, and a demand node,
    lane mask or impute location off the network."""
    parsed = _section(config, CONFIG, "config")
    if parsed["version"] != 1:
        raise ConfigError(f"config.version: unsupported version {parsed['version']!r}")
    if isinstance(net := parsed["network"], str):
        try:
            net = parsed["network"] = load_network(os.path.join(base_dir, net))
        except NetworkError as exc:
            raise NetworkError(f"config.network: {exc}") from None
    elif net is not None:
        try:
            net = parsed["network"] = build_network(net)
        except NetworkError as exc:
            raise ConfigError(f"config.{exc}") from None
    class_names = set()
    for i, entry in enumerate(parsed["classes"]):
        if entry["name"] in class_names:
            raise ConfigError(f"config.classes[{i}].name: class {entry['name']!r} is named twice")
        class_names.add(entry["name"])
    class_names = class_names or set(traffic_ca.default_classes())
    for i, spec in enumerate(parsed["demand"]):
        path = f"config.demand[{i}]"
        for name in spec["class_mix"] or ():
            if name not in class_names:
                raise ConfigError(f"{path}.class_mix.{name}: unknown class {name!r}")
        if spec["dest"] == spec["origin"]:
            raise ConfigError(f"{path}.dest: origin and destination are both {spec['dest']!r}")
        if fault := traffic_ca.split_fault(spec["splits"]):
            raise ConfigError(f"{path}.splits: {fault}")
        if net is None:
            continue
        for key in ("origin", "dest"):
            if spec[key] not in net.nodes:
                raise ConfigError(f"{path}.{key}: unknown node {spec[key]!r}")
        try:
            traffic_ca.split_routes(net, spec["origin"], spec["dest"], spec["splits"])
        except traffic_ca.ScenarioError as exc:
            raise ConfigError(f"{path}.splits: {exc}") from None
        except NetworkError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if fcfg := parsed["stages"]["fingerprint"]:
        where = "config.stages.fingerprint"
        if not fcfg["regs"]:
            raise ConfigError(f"{where}.regs: expected at least one regularization")
        if int(fcfg["count"] * fcfg["holdout_fraction"]) < 1:
            raise ConfigError(f"{where}.holdout_fraction: holds out none of "
                              f"{fcfg['count']} traces")
    stages = parsed["stages"]
    if tcfg := stages["transfer"]:
        if not tcfg["stations"]:
            raise ConfigError("config.stages.transfer.stations: expected at least one base "
                              "station")
        _check_policies(tcfg)
        for key in ("start", "velocity_mps"):
            if len(tcfg["trace"][key]) != 2:
                raise ConfigError(f"config.stages.transfer.trace.{key}: expected 2 numbers, "
                                  f"got {len(tcfg['trace'][key])}")
        if tcfg["trace"]["kind"] == "from_traffic":
            _check_connected(parsed)
    if net is None:
        for name in ("traffic", "impute", "assign"):
            if stages[name] is not None:
                raise ConfigError(f"config.network: the {name} stage needs a network")
        return parsed
    _check_lane_masks(parsed, class_names)
    if icfg := stages["impute"]:
        if not icfg["observations"] and (stages["traffic"] is None or not net.detectors):
            raise ConfigError("config.stages.impute.observations: impute needs inline "
                              "observations or a traffic stage with detectors")
        if not icfg["observations"] and parsed["duration_s"] < parsed["window_s"]:
            raise ConfigError(f"config.duration_s: a {parsed['duration_s']} s run closes no "
                              f"{parsed['window_s']} s detector window, and the impute stage "
                              f"has no inline observations")
        for key in ("observations", "targets"):
            for i, point in enumerate(icfg[key]):
                loc = impute.NetPoint(point["edge"], point["offset_m"])
                if fault := impute.location_fault(net, loc):
                    raise ConfigError(f"config.stages.impute.{key}[{i}].{fault[0]}: {fault[1]}")
    return parsed


def _check_policies(tcfg):
    """ConfigError naming the first listed policy that the overrides make invalid,
    or that is predictive while build_map leaves the map it reads unbuilt."""
    for kind in tcfg["policies"]:
        try:
            policy = _policy(kind, tcfg)
        except transfer.PolicyError as exc:
            raise ConfigError(f"config.stages.transfer.policy: {exc} for policy "
                              f"{kind!r}") from None
        if policy.predictive and not tcfg["build_map"]:
            raise ConfigError(f"config.stages.transfer.build_map: policy {kind!r} reads the "
                              f"connectivity map, which build_map false leaves unbuilt")


def _check_connected(parsed):
    """ConfigError unless a traffic stage runs a demand entry whose class mix gives a
    connected class a positive share, as a from_traffic trace needs."""
    where = "config.stages.transfer.trace.kind"
    if parsed["stages"]["traffic"] is None:
        raise ConfigError(f"{where}: from_traffic trace needs a traffic stage")
    classes, mix = _classes_from_config(parsed["classes"])
    mix = mix or dict.fromkeys(classes, 1.0)
    if not any(share > 0 and classes[name].connected
               for spec in parsed["demand"] for name, share in (spec["class_mix"] or mix).items()):
        raise ConfigError(f"{where}: from_traffic trace needs a demand entry that gives a "
                          f"connected class a positive share")


def _check_lane_masks(parsed, class_names):
    """ConfigError naming the first lane mask, of the network (inline or a file)
    or the config, whose edge is not in the network or that lane_mask rejects."""
    net = parsed["network"]
    masks = [(f"config.network.edges[{i}].lane_policy", e.id, e.lane_policy)
             for i, e in enumerate(net.edges.values()) if e.lane_policy is not None]
    masks += [(f"config.lane_policies.{eid}", eid, mask)
              for eid, mask in (parsed["lane_policies"] or {}).items()]
    if feed := (parsed["stages"]["fingerprint"] or {}).get("feed_lane_policy"):
        where = "config.stages.fingerprint.feed_lane_policy"
        if feed["edge"] not in net.edges:
            raise ConfigError(f"{where}.edge: unknown edge {feed['edge']!r}")
        masks.append((f"{where}.mask", feed["edge"], feed["mask"]))
    for where, eid, mask in masks:
        if eid not in net.edges:
            raise ConfigError(f"{where}: unknown edge {eid!r}")
        try:
            traffic_ca.lane_mask(mask, net.edges[eid].lanes, class_names, where)
        except traffic_ca.ScenarioError as exc:
            raise ConfigError(str(exc)) from None


def load_config(path) -> dict:
    """The raw experiment document at path, checked by parse_config; a ConfigError
    names the file of malformed JSON."""
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    parse_config(config, os.path.dirname(path))
    return config


def _classes_from_config(entries):
    if not entries:
        return traffic_ca.default_classes(), None
    classes = {e["name"]: traffic_ca.VehicleClass(**{k: v for k, v in e.items() if k != "share"})
               for e in entries}
    return classes, {e["name"]: e["share"] for e in entries if e["share"] is not None} or None


class _Run:
    """What the stages of one run share; the traffic stage adds its metrics."""

    def __init__(self, cfg, seed, out_dir=None):
        self.config = cfg
        self.seed = int(cfg["seed"] if seed is None else seed)
        self.net = cfg["network"]
        self.classes, self.class_mix = _classes_from_config(cfg["classes"])
        self.lane_policies = dict(cfg["lane_policies"] or {})
        self.runs = traffic_ca.ScenarioRuns(self.net, self.classes, self.seed,
                                            cfg["duration_s"], cfg["window_s"],
                                            self.class_mix, cfg["nasch_degenerate"])
        self.out_dir = out_dir
        self.artifacts = {}
        self.traffic_metrics = None

    def artifact(self, key, name):
        """Path of an output file, indexed in the report; None without out_dir."""
        if self.out_dir is None:
            return None
        self.artifacts[key] = name
        return os.path.join(self.out_dir, name)


def _evaluate_method(run, acfg, method) -> routing_opt.EvaluationResult:
    return routing_opt.evaluate_policy(
        run.runs, run.config["demand"], method, k_routes=acfg["k_routes"],
        probe_factor=acfg["probe_factor"], density_crit=acfg["density_crit"],
        sustain_s=acfg["sustain_s"], lam=acfg["lambda"], lane_policies=run.lane_policies)


def _build_traces(tcfg, metrics):
    trace_cfg = tcfg["trace"]
    if trace_cfg["kind"] == "line":
        return [transfer.line_trace(trace_cfg["start"], trace_cfg["velocity_mps"],
                                    trace_cfg["duration_s"])]
    # from_traffic
    if not metrics.connected_traces:
        raise ConfigError("from_traffic trace needs a traffic stage with connected vehicles")
    min_len = trace_cfg["min_duration_s"]
    usable = sorted(((vid, tr) for vid, tr in metrics.connected_traces.items()
                     if len(tr) >= min_len), key=lambda kv: (-len(kv[1]), kv[0]))
    if not usable:
        raise ConfigError(f"no connected trace of at least {min_len}s")
    return [tr for _, tr in usable[:trace_cfg["max_vehicles"]]]


def _write_detector_csv(path, observations):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t0", "t1", "count", "mean_speed_mps", "occupancy",
                         "per_class"])
        for obs in observations:
            writer.writerow([obs.t0, obs.t1, obs.count,
                             "" if obs.mean_speed_mps is None else repr(obs.mean_speed_mps),
                             repr(obs.occupancy),
                             json.dumps(obs.per_class, sort_keys=True)])


def _write_json(path, data):
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2))


def _fingerprint_stage(run, fcfg):
    corpus_seed = substream_seed(run.seed, "corpus")
    corpus = fingerprint.generate_corpus(fcfg["count"], fcfg["noise_sigma_db"], fcfg["mix"],
                                         corpus_seed)
    train_records, hold_records = fingerprint.split_corpus(
        fingerprint.extract_features(corpus), fcfg["holdout_fraction"], corpus_seed)
    stage_out = {"corpus_size": len(corpus), "holdout": len(hold_records), "confusion": {}}
    for reg in fcfg["regs"]:
        model = fingerprint.train(train_records, reg=reg, lam=fcfg["lam"], epochs=fcfg["epochs"])
        cm = fingerprint.evaluate(model, hold_records)
        stage_out["confusion"][reg] = cm.to_dict()
        if path := run.artifact(f"confusion_{reg}", f"confusion_{reg}.json"):
            _write_json(path, cm.to_dict())
    shares = fingerprint.class_shares(hold_records, model)
    stage_out["class_shares"] = {k: shares[k] for k in sorted(shares)}
    feed = fcfg["feed_lane_policy"]
    if feed and shares[fingerprint.TRUCK_LIKE] >= feed["truck_share_min"]:
        run.lane_policies[feed["edge"]] = feed["mask"]
        stage_out["lane_policy_armed"] = feed["edge"]
    return stage_out


def _traffic_stage(run, _):
    tcfg = run.config["stages"]["transfer"]
    run.traffic_metrics = run.runs.run(
        run.config["demand"], run.lane_policies,
        trace_connected=tcfg is not None and tcfg["trace"]["kind"] == "from_traffic")
    metrics = run.traffic_metrics.to_dict()
    if path := run.artifact("traffic_metrics", "traffic_metrics.json"):
        _write_json(path, metrics)
        for det_id, obs in sorted(run.traffic_metrics.observations.items()):
            _write_detector_csv(run.artifact(f"detector_{det_id}", f"detector_{det_id}.csv"),
                                obs)
    return metrics


def _impute_stage(run, icfg):
    if icfg["observations"]:
        observations = [impute.VolumeObservation(impute.NetPoint(o["edge"], o["offset_m"]),
                                                 o["day"], o["flow"])
                        for o in icfg["observations"]]
    else:
        observations = []
        for det_id, series in sorted(run.traffic_metrics.observations.items()):
            det = run.net.detectors[det_id]
            count = sum(o.count for o in series)
            flow_day = count / sum(o.t1 - o.t0 for o in series) * 86400.0
            observations.append(impute.VolumeObservation(
                impute.NetPoint(det.edge, det.cell * run.net.cell_length_m), 0, flow_day))
    model = impute.fit_gpr(run.net, observations, impute.default_params(
        [o.flow_veh_day for o in observations], icfg["length_scale_m"], icfg["euclidean"]))
    targets = [impute.NetPoint(t["edge"], t["offset_m"]) for t in icfg["targets"]]
    preds = impute.predict_gpr(model, targets)
    stage_out = {"observations": len(observations),
                 "predictions": [{"edge": loc.edge, "offset_m": loc.offset_m,
                                  "mean": m, "variance": v}
                                 for loc, (m, v) in zip(targets, preds)]}
    if k := icfg["knn_k"]:
        estimates = impute.knn_estimates(observations, targets, min(k, len(observations)),
                                         run.net) if targets else []
        stage_out["knn"] = [{"edge": loc.edge, "offset_m": loc.offset_m, "estimate": est}
                            for loc, est in zip(targets, estimates)]
    if targets and (path := run.artifact("imputation", "imputation.csv")):
        impute.write_predictions_csv(path, targets, preds)
    return stage_out


def _assign_stage(run, acfg):
    methods = acfg["methods"]
    stage_out = {"methods": {}}
    for method in methods:
        result = _evaluate_method(run, acfg, method)
        split = result.split.to_dict(result.problem) if result.split else None
        stage_out["methods"][method] = {"mean_dwell_s": result.mean_dwell_s, "split": split}
        if split is not None and (path := run.artifact(f"assignment_{method}",
                                                       f"assignment_{method}.json")):
            _write_json(path, split)
    if len(methods) >= 2:
        base, other = (stage_out["methods"][m]["mean_dwell_s"] for m in methods[:2])
        if base and other:
            stage_out["dwell_ratio"] = other / base
    return stage_out


def _policy(kind, tcfg) -> transfer.TransferPolicy:
    """The transfer stage's policy of this kind, with the config's overrides."""
    make = transfer.sinr_policy if kind in ("cat", "pcat") else transfer.TransferPolicy
    return make(kind=kind, **(tcfg["policy"] or {}))


def _transfer_stage(run, tcfg):
    stations = [radio_env.BaseStation(s["id"], (s["x"], s["y"]), s["tx_power_dbm"])
                for s in tcfg["stations"]]
    shadow = tcfg["shadowing"]
    model = radio_env.PropagationModel(
        pl0_db=shadow["pl0_db"], exponent=shadow["exponent"],
        shadowing_sigma_db=shadow["sigma_db"], shadowing_enabled=shadow["enabled"],
        seed=substream_seed(run.seed, "shadowing"))
    traces = _build_traces(tcfg, run.traffic_metrics)
    records = [radio_env.TraceRecord(trace, stations, tcfg["noise_dbm"], model)
               for trace in traces]
    cmap = None
    if tcfg["build_map"]:
        # crowdsensed along the traces before any policy drives them
        cmap = radio_env.ConnectivityMap()
        for trace, record in zip(traces, records):
            cmap.record_many([(x, y) for _, x, y in trace], record.sinr, 3)
    forecasts = [None] * len(traces)
    rate = tcfg["sensor_rate_bytes_s"]
    predictor = None
    if tcfg["predictor"] == "learned":
        cal_policy = transfer.TransferPolicy(kind="periodic", periodic_interval_s=10.0)
        logs = [transfer.simulate_drive(record, None, cal_policy, rate,
                                        substream_seed(run.seed, "transfer-calibration", i))[1]
                for i, record in enumerate(records)]
        predictor = transfer.train_predictor(logs)
    stage_out = {"policies": {}}
    for kind in tcfg["policies"]:
        policy = _policy(kind, tcfg)
        if policy.predictive and forecasts[0] is None:
            # parse_config lets a predictive policy run only with build_map
            forecasts = [radio_env.forecast_along(cmap, trace) for trace in traces]
        drives = [transfer.simulate_drive(record, forecast, policy, rate,
                                          substream_seed(run.seed, f"transfer-{kind}", i),
                                          predictor=predictor)
                  for i, (record, forecast) in enumerate(zip(records, forecasts))]
        stage_out["policies"][kind] = {
            **{key: float(np.mean([getattr(m, key) for m, _ in drives]))
               for key in ("mean_goodput_mbps", "total_energy_j", "transmissions",
                           "mean_buffer_age_s", "retransmissions")},
            "vehicles": len(drives)}
        if path := run.artifact(f"transfer_log_{kind}", f"transfer_log_{kind}.csv"):
            transfer.write_log_csv(path, [log for _, log in drives])
    if cmap is not None and (path := run.artifact("connectivity_map", "connectivity_map.csv")):
        cmap.to_csv(path)
    return stage_out


STAGES = (("fingerprint", _fingerprint_stage), ("traffic", _traffic_stage),
          ("impute", _impute_stage), ("assign", _assign_stage),
          ("transfer", _transfer_stage))


def _run_stages(run) -> dict:
    """Stage name -> stage dict for each configured stage, run in STAGES order;
    a failing stage raises StageError naming it."""
    done = {}
    for name, stage in STAGES:
        section = run.config["stages"][name]
        if section is None:
            continue
        try:
            done[name] = stage(run, section)
        except Exception as exc:
            raise StageError(name, exc) from exc
    return done


@dataclass
class ExperimentReport:
    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2)


def run_experiment(config: dict, seed: int | None = None,
                   out_dir=None, base_dir=".") -> ExperimentReport:
    """Execute the configured stages in STAGES order.

    A failing stage raises StageError naming the stage; artifacts of stages
    that completed earlier are left in place.
    """
    run = _Run(parse_config(config, base_dir), seed, out_dir)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    rep = ExperimentReport(data={"toolkit_version": __version__, "seed": run.seed,
                                 "config": config, "stages": _run_stages(run),
                                 "artifacts": run.artifacts})
    if out_dir is not None:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(rep.to_json())
    return rep


def evaluate_assignment(config: dict, method: str, seed: int | None = None,
                        base_dir=".") -> routing_opt.EvaluationResult:
    """One assignment method, evaluated with the settings the assign stage uses."""
    cfg = parse_config(config, base_dir)
    if cfg["network"] is None:
        raise ConfigError("config.network: assignment needs a network")
    acfg = cfg["stages"]["assign"] or _section({}, ASSIGN, "config.stages.assign")
    return _evaluate_method(_Run(cfg, seed), acfg, method)


def compare_policies(config: dict, policies, seeds, base_dir=".") -> list:
    """Per-policy mean and sample stddev of goodput/energy/dwell over seeds.

    Each seed runs the configured stages as run_experiment does, with the
    transfer stage's policies replaced by the given ones; impute and assign
    are left out, as no transfer result reads them. Dwell is None without a
    traffic stage. A name that is no policy kind fails as ConfigError naming
    ``--policies`` and its position, before any stage.
    """
    cfg = parse_config(config, base_dir)
    policies = TRANSFER["policies"].parse(list(policies), "--policies", "policies")
    seeds = list(seeds)
    if len(policies) < 2:
        raise ConfigError("compare needs at least two policies")
    if not seeds:
        raise ConfigError("compare needs at least one seed")
    stages = cfg["stages"]
    if stages["transfer"] is None:
        raise ConfigError("compare needs a transfer stage in the config")
    cfg["stages"] = {**stages, "impute": None, "assign": None,
                     "transfer": {**stages["transfer"], "policies": policies}}
    _check_policies(cfg["stages"]["transfer"])
    dwells, results = [], []
    for seed in seeds:
        done = _run_stages(_Run(cfg, seed))
        dwells.append(done["traffic"]["mean_dwell_s"] if "traffic" in done else None)
        results.append(done["transfer"]["policies"])

    def stats(values):
        clean = [v for v in values if v is not None]
        if not clean:
            return None, None
        return float(np.mean(clean)), float(np.std(clean, ddof=1)) if len(clean) > 1 else 0.0

    d_mean, d_std = stats(dwells)
    rows = []
    for kind in policies:
        g_mean, g_std = stats([r[kind]["mean_goodput_mbps"] for r in results])
        e_mean, e_std = stats([r[kind]["total_energy_j"] for r in results])
        rows.append({"policy": kind, "seeds": len(seeds),
                     "goodput_mbps_mean": g_mean, "goodput_mbps_std": g_std,
                     "energy_j_mean": e_mean, "energy_j_std": e_std,
                     "dwell_s_mean": d_mean, "dwell_s_std": d_std})
    return rows
