"""Experiment orchestration: configuration, staged pipeline, reporting.

A single master seed fans out into named substreams (traffic, injection,
shadowing, transfer, corpus) so enabling one stage never perturbs another's
draws. Stage order: fingerprint (class shares can arm lane policies) ->
traffic -> impute -> assign -> transfer. Every artifact lands in the output
directory; report.json indexes them and is byte-identical for identical
(config, seed).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__, fingerprint, impute, radio_env, routing_opt, traffic_ca, transfer
from .rng import substream_seed
from .road_net import build_network, load_network


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class StageError(RuntimeError):
    """A pipeline stage failed; completed stages' outputs are preserved."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def load_config(path) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if config.get("version") != 1:
        raise ConfigError(f"unsupported config version {config.get('version')!r}")
    return config


def _resolve_network(config, base_dir):
    net_spec = config.get("network")
    if net_spec is None:
        raise ConfigError("config has no network")
    if isinstance(net_spec, str):
        return load_network(os.path.join(base_dir, net_spec))
    return build_network(net_spec)


def _classes_from_config(config):
    entries = config.get("classes")
    if not entries:
        return traffic_ca.default_classes(), None
    classes = {}
    mix = {}
    for entry in entries:
        entry = dict(entry)
        share = entry.pop("share", None)
        name = entry["name"]
        classes[name] = traffic_ca.VehicleClass(**entry)
        if share is not None:
            mix[name] = float(share)
    return classes, (mix or None)


def _scene_from_config(tcfg, master_seed) -> radio_env.RadioScene:
    stations = [radio_env.BaseStation(s["id"], (float(s["x"]), float(s["y"])),
                                      tx_power_dbm=float(s.get("tx_power_dbm", 43.0)))
                for s in tcfg.get("stations", [])]
    if not stations:
        raise ConfigError("transfer stage needs at least one base station")
    shadow = tcfg.get("shadowing", {})
    model = radio_env.PropagationModel(
        pl0_db=float(shadow.get("pl0_db", 70.0)),
        exponent=float(shadow.get("exponent", 3.0)),
        shadowing_sigma_db=float(shadow.get("sigma_db", 6.0)),
        shadowing_enabled=bool(shadow.get("enabled", True)),
        seed=substream_seed(master_seed, "shadowing"))
    return radio_env.RadioScene(stations, noise_dbm=float(tcfg.get("noise_dbm", -100.0)),
                                model=model)


def _policy_from_config(kind, tcfg) -> transfer.TransferPolicy:
    overrides = dict(tcfg.get("policy", {}))
    if kind in ("cat", "pcat"):
        return transfer.sinr_policy(kind, **overrides)
    return transfer.TransferPolicy(kind=kind, **overrides)


def _build_traces(tcfg, scene, state, master_seed):
    trace_cfg = tcfg.get("trace", {"kind": "line", "start": [0.0, 0.0],
                                   "velocity_mps": [10.0, 0.0], "duration_s": 600})
    if trace_cfg["kind"] == "line":
        return [transfer.line_trace(tuple(trace_cfg["start"]),
                                    tuple(trace_cfg["velocity_mps"]),
                                    int(trace_cfg["duration_s"]))]
    if trace_cfg["kind"] == "from_traffic":
        if state is None or not state.connected_traces:
            raise ConfigError("from_traffic trace needs a traffic stage with "
                              "connected vehicles")
        min_len = int(trace_cfg.get("min_duration_s", 60))
        max_vehicles = int(trace_cfg.get("max_vehicles", 3))
        usable = sorted(((vid, tr) for vid, tr in state.connected_traces.items()
                         if len(tr) >= min_len), key=lambda kv: (-len(kv[1]), kv[0]))
        if not usable:
            raise ConfigError(f"no connected trace of at least {min_len}s")
        return [tr for _, tr in usable[:max_vehicles]]
    raise ConfigError(f"unknown trace kind {trace_cfg.get('kind')!r}")


def _crowdsense_map(scene, traces, passes: int = 3) -> radio_env.ConnectivityMap:
    cmap = radio_env.ConnectivityMap(metric="sinr_db")
    for trace in traces:
        for _, x, y in trace:
            for _ in range(passes):
                cmap.record((x, y), scene.sinr((x, y)))
    return cmap


def run_transfer_policy(kind, tcfg, scene, traces, master_seed, predictor=None):
    """One policy over all traces; returns (mean metrics dict, merged log)."""
    policy = _policy_from_config(kind, tcfg)
    rate = float(tcfg.get("sensor_rate_bytes_s", 10_000.0))
    all_metrics = []
    merged_log = []
    for i, trace in enumerate(traces):
        seed = substream_seed(master_seed, f"transfer-{kind}", i)
        metrics, log = transfer.simulate_drive(trace, scene, policy, rate, seed,
                                               predictor=predictor)
        all_metrics.append(metrics)
        merged_log.extend(log)
    mean = {
        "mean_goodput_mbps": float(np.mean([m.mean_goodput_mbps for m in all_metrics])),
        "total_energy_j": float(np.mean([m.total_energy_j for m in all_metrics])),
        "transmissions": float(np.mean([m.transmissions for m in all_metrics])),
        "mean_buffer_age_s": float(np.mean([m.mean_buffer_age_s for m in all_metrics])),
        "retransmissions": float(np.mean([m.retransmissions for m in all_metrics])),
        "vehicles": len(all_metrics),
    }
    return mean, merged_log


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


@dataclass
class ExperimentReport:
    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2)


def run_experiment(config: dict, seed: int | None = None,
                   out_dir=None, base_dir=".") -> ExperimentReport:
    """Execute the enabled pipeline stages; see the module docstring for order.

    A failing stage raises StageError naming the stage; artifacts of stages
    that completed earlier are left in place.
    """
    seed = int(config.get("seed", 0) if seed is None else seed)
    stages = config.get("stages", {})
    report = {"toolkit_version": __version__, "seed": seed, "config": config,
              "stages": {}, "artifacts": {}}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    def artifact(name):
        return None if out_dir is None else os.path.join(out_dir, name)

    lane_policies = {k: [None if m is None else list(m) for m in v]
                     for k, v in config.get("lane_policies", {}).items()}
    net = None
    if "network" in config:
        net = _resolve_network(config, base_dir)
    classes, class_mix = _classes_from_config(config)

    # ---- fingerprint ------------------------------------------------------
    if "fingerprint" in stages:
        fcfg = stages["fingerprint"]
        try:
            corpus_seed = substream_seed(seed, "corpus")
            corpus = fingerprint.generate_corpus(
                int(fcfg.get("count", 500)), float(fcfg.get("noise_sigma_db", 2.0)),
                float(fcfg.get("mix", 0.5)), corpus_seed)
            train_set, holdout = fingerprint.split_corpus(
                corpus, float(fcfg.get("holdout_fraction", 0.2)), corpus_seed)
            train_records = [fingerprint.extract_features(t) for t in train_set]
            hold_records = [fingerprint.extract_features(t) for t in holdout]
            stage_out = {"corpus_size": len(corpus), "holdout": len(holdout),
                         "confusion": {}}
            model = None
            for reg in fcfg.get("regs", ["l1", "l2"]):
                model = fingerprint.train(train_records, reg=reg,
                                          lam=float(fcfg.get("lam", 1e-3)),
                                          epochs=int(fcfg.get("epochs", 250)),
                                          seed=corpus_seed)
                cm = fingerprint.evaluate(model, hold_records)
                stage_out["confusion"][reg] = cm.to_dict()
                if artifact(f"confusion_{reg}.json"):
                    with open(artifact(f"confusion_{reg}.json"), "w") as fh:
                        json.dump(cm.to_dict(), fh, sort_keys=True, indent=2)
                    report["artifacts"][f"confusion_{reg}"] = f"confusion_{reg}.json"
            shares = fingerprint.class_shares(holdout, model)
            stage_out["class_shares"] = {k: shares[k] for k in sorted(shares)}
            feed = fcfg.get("feed_lane_policy")
            if feed and shares[fingerprint.TRUCK_LIKE] >= float(feed.get("truck_share_min", 0.2)):
                lane_policies[feed["edge"]] = feed["mask"]
                stage_out["lane_policy_armed"] = feed["edge"]
            report["stages"]["fingerprint"] = stage_out
        except Exception as exc:
            raise StageError("fingerprint", exc) from exc

    # ---- traffic ----------------------------------------------------------
    state = None
    traffic_metrics = None
    if "traffic" in stages:
        if net is None:
            raise StageError("traffic", ConfigError("no network configured"))
        tcfg = stages["traffic"]
        try:
            state = traffic_ca.init_scenario(
                net, config.get("demand", []), classes, seed, class_mix=class_mix,
                nasch_degenerate=bool(config.get("nasch_degenerate", False)))
            for eid, mask in lane_policies.items():
                traffic_ca.apply_lane_policy(state, eid, mask)
            want_traces = ("transfer" in stages and
                           stages["transfer"].get("trace", {}).get("kind") == "from_traffic")
            traffic_metrics = traffic_ca.run(
                state, int(config.get("duration_s", 600)),
                window_s=int(config.get("window_s", 60)),
                trace_connected=want_traces)
            report["stages"]["traffic"] = traffic_metrics.to_dict()
            if out_dir is not None:
                with open(artifact("traffic_metrics.json"), "w") as fh:
                    fh.write(json.dumps(traffic_metrics.to_dict(), sort_keys=True, indent=2))
                report["artifacts"]["traffic_metrics"] = "traffic_metrics.json"
                for det_id, obs in sorted(traffic_metrics.observations.items()):
                    name = f"detector_{det_id}.csv"
                    _write_detector_csv(artifact(name), obs)
                    report["artifacts"][f"detector_{det_id}"] = name
        except StageError:
            raise
        except Exception as exc:
            raise StageError("traffic", exc) from exc

    # ---- impute -----------------------------------------------------------
    if "impute" in stages:
        icfg = stages["impute"]
        try:
            if isinstance(icfg.get("observations"), list):
                observations = [impute.VolumeObservation(
                    impute.NetPoint(o["edge"], float(o["offset_m"])),
                    int(o.get("day", 0)), float(o["flow"]))
                    for o in icfg["observations"]]
            else:
                if traffic_metrics is None:
                    raise ConfigError("impute needs inline observations or a "
                                      "traffic stage with detectors")
                duration = int(config.get("duration_s", 600))
                observations = []
                for det_id, series in sorted(traffic_metrics.observations.items()):
                    det = net.detectors[det_id]
                    count = sum(o.count for o in series)
                    window = sum(o.t1 - o.t0 for o in series)
                    if window == 0:
                        continue
                    flow_day = count / window * 86400.0
                    observations.append(impute.VolumeObservation(
                        impute.NetPoint(det.edge, det.cell * net.cell_length_m),
                        0, flow_day))
            if not observations:
                raise ConfigError("no observations available for imputation")
            values = [o.flow_veh_day for o in observations]
            params = impute.default_params(values,
                                           float(icfg.get("length_scale_m", 1000.0)))
            if icfg.get("euclidean"):
                params.euclidean = True
            model = impute.fit_gpr(net, observations, params)
            targets = [impute.NetPoint(t["edge"], float(t["offset_m"]))
                       for t in icfg.get("targets", [])]
            preds = impute.predict_gpr(model, targets)
            stage_out = {"observations": len(observations),
                         "predictions": [{"edge": loc.edge, "offset_m": loc.offset_m,
                                          "mean": m, "variance": v}
                                         for loc, (m, v) in zip(targets, preds)]}
            k = icfg.get("knn_k")
            if k:
                stage_out["knn"] = [
                    {"edge": loc.edge, "offset_m": loc.offset_m,
                     "estimate": impute.knn_estimate(observations, loc,
                                                     min(int(k), len(observations)), net)}
                    for loc in targets]
            report["stages"]["impute"] = stage_out
            if out_dir is not None and targets:
                impute.write_predictions_csv(artifact("imputation.csv"), targets, preds)
                report["artifacts"]["imputation"] = "imputation.csv"
        except StageError:
            raise
        except Exception as exc:
            raise StageError("impute", exc) from exc

    # ---- assign -----------------------------------------------------------
    if "assign" in stages:
        acfg = stages["assign"]
        try:
            methods = acfg.get("methods", ["fixed", "bmp"])
            stage_out = {"methods": {}}
            for method in methods:
                result = routing_opt.evaluate_policy(
                    net, config.get("demand", []), method, seed, classes=classes,
                    class_mix=class_mix, k_routes=int(acfg.get("k_routes", 2)),
                    duration_s=int(config.get("duration_s", 600)),
                    probe_factor=float(acfg.get("probe_factor", 1.5)),
                    density_crit=float(acfg.get("density_crit", 0.35)),
                    sustain_s=float(acfg.get("sustain_s", 120.0)),
                    window_s=int(config.get("window_s", 60)),
                    lam=float(acfg.get("lambda", 0.01)),
                    lane_policies=lane_policies)
                stage_out["methods"][method] = {
                    "mean_dwell_s": result.mean_dwell_s,
                    "split": result.split.to_dict(result.problem) if result.split else None,
                }
                if out_dir is not None and result.split is not None:
                    name = f"assignment_{method}.json"
                    with open(artifact(name), "w") as fh:
                        fh.write(routing_opt.split_to_json(result.split, result.problem))
                    report["artifacts"][f"assignment_{method}"] = name
            dwells = {m: v["mean_dwell_s"] for m, v in stage_out["methods"].items()}
            if len(methods) >= 2:
                base, other = methods[0], methods[1]
                if dwells.get(base) and dwells.get(other):
                    stage_out["dwell_ratio"] = dwells[other] / dwells[base]
            report["stages"]["assign"] = stage_out
        except StageError:
            raise
        except Exception as exc:
            raise StageError("assign", exc) from exc

    # ---- transfer ---------------------------------------------------------
    if "transfer" in stages:
        tcfg = stages["transfer"]
        try:
            scene = _scene_from_config(tcfg, seed)
            traces = _build_traces(tcfg, scene, state, seed)
            if tcfg.get("build_map", True):
                scene.map = _crowdsense_map(scene, traces)
            predictor = None
            if tcfg.get("predictor", "formula") == "learned":
                cal_policy = transfer.TransferPolicy(kind="periodic",
                                                     periodic_interval_s=10.0)
                rate = float(tcfg.get("sensor_rate_bytes_s", 10_000.0))
                rows = []
                for i, trace in enumerate(traces):
                    _, log = transfer.simulate_drive(
                        trace, scene, cal_policy, rate,
                        substream_seed(seed, "transfer-calibration", i))
                    rows.extend(r for r in log if r["decision"] == "transmit")
                if rows:
                    predictor = transfer.train_predictor(rows)
            stage_out = {"policies": {}}
            for kind in tcfg.get("policies", ["periodic", "ml_cat"]):
                mean, log = run_transfer_policy(kind, tcfg, scene, traces, seed,
                                                predictor=predictor)
                stage_out["policies"][kind] = mean
                if out_dir is not None:
                    name = f"transfer_log_{kind}.csv"
                    transfer.write_log_csv(artifact(name), log)
                    report["artifacts"][f"transfer_log_{kind}"] = name
            report["stages"]["transfer"] = stage_out
            if out_dir is not None and scene.map is not None:
                scene.map.to_csv(artifact("connectivity_map.csv"))
                report["artifacts"]["connectivity_map"] = "connectivity_map.csv"
        except StageError:
            raise
        except Exception as exc:
            raise StageError("transfer", exc) from exc

    rep = ExperimentReport(data=report)
    if out_dir is not None:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(rep.to_json())
    return rep


def compare_policies(config: dict, policies, seeds, base_dir=".") -> list:
    """Per-policy mean and sample stddev of goodput/energy/dwell over seeds."""
    if len(policies) < 2:
        raise ConfigError("compare needs at least two policies")
    stages = config.get("stages", {})
    if "transfer" not in stages:
        raise ConfigError("compare needs a transfer stage in the config")
    tcfg = stages["transfer"]
    per_policy = {p: {"goodput": [], "energy": [], "dwell": []} for p in policies}
    for seed in seeds:
        scene = _scene_from_config(tcfg, seed)
        state = None
        dwell = None
        if tcfg.get("trace", {}).get("kind") == "from_traffic":
            net = _resolve_network(config, base_dir)
            classes, class_mix = _classes_from_config(config)
            state = traffic_ca.init_scenario(net, config.get("demand", []), classes,
                                             seed, class_mix=class_mix)
            metrics = traffic_ca.run(state, int(config.get("duration_s", 600)),
                                     trace_connected=True)
            dwell = metrics.mean_dwell_s
        traces = _build_traces(tcfg, scene, state, seed)
        if tcfg.get("build_map", True):
            scene.map = _crowdsense_map(scene, traces)
        for kind in policies:
            mean, _ = run_transfer_policy(kind, tcfg, scene, traces, seed)
            per_policy[kind]["goodput"].append(mean["mean_goodput_mbps"])
            per_policy[kind]["energy"].append(mean["total_energy_j"])
            per_policy[kind]["dwell"].append(dwell)

    def stats(values):
        clean = [v for v in values if v is not None]
        if not clean:
            return None, None
        mean = float(np.mean(clean))
        std = float(np.std(clean, ddof=1)) if len(clean) > 1 else 0.0
        return mean, std

    rows = []
    for kind in policies:
        g_mean, g_std = stats(per_policy[kind]["goodput"])
        e_mean, e_std = stats(per_policy[kind]["energy"])
        d_mean, d_std = stats(per_policy[kind]["dwell"])
        rows.append({"policy": kind, "seeds": len(list(seeds)),
                     "goodput_mbps_mean": g_mean, "goodput_mbps_std": g_std,
                     "energy_j_mean": e_mean, "energy_j_std": e_std,
                     "dwell_s_mean": d_mean, "dwell_s_std": d_std})
    return rows
