import json
import math
import os
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from hybridflow import harness, impute, radio_env, road_net, traffic_ca, transfer
from hybridflow.cli import main, parse_seeds
from hybridflow.road_net import NetworkError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def demo_config():
    return harness.load_config(CONFIG_DIR / "demo.json")


def transfer_config():
    return harness.load_config(CONFIG_DIR / "transfer_two_phase.json")


class TestRunExperiment:
    def test_all_stages_disabled_echoes_config(self):
        config = {"version": 1, "seed": 3, "stages": {}}
        report = harness.run_experiment(config)
        assert report.data["config"] == config
        assert report.data["stages"] == {}
        assert report.data["seed"] == 3

    def test_reproducible_byte_identical(self, tmp_path):
        config = demo_config()
        harness.run_experiment(config, out_dir=tmp_path / "a")
        harness.run_experiment(harness.load_config(CONFIG_DIR / "demo.json"),
                               out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_demo_two_traces_six_drives(self, monkeypatch):
        drives = []
        original = transfer.simulate_drive

        def counting_drive(record, *args, **kwargs):
            drives.append(record)
            return original(record, *args, **kwargs)

        monkeypatch.setattr(transfer, "simulate_drive", counting_drive)
        harness.run_experiment(demo_config(), base_dir=str(CONFIG_DIR))
        # two traces, each driven by the calibration policy and the two compared ones
        assert len({id(record) for record in drives}) == 2 and len(drives) == 6

    def test_one_record_and_forecast_per_trace(self, monkeypatch):
        # the transfer stage makes one TraceRecord per trace, and reads the complete map
        # along each trace once for all its predictive policies, and not at all without one
        made, reads = [], []
        make_record, read_map = radio_env.TraceRecord, radio_env.forecast_along
        monkeypatch.setattr(radio_env, "TraceRecord",
                            lambda trace, *args: made.append(trace) or make_record(trace, *args))
        monkeypatch.setattr(radio_env, "forecast_along",
                            lambda cmap, trace: reads.append(trace) or read_map(cmap, trace))
        every_policy = transfer_config()
        every_policy["stages"]["transfer"]["policies"] = list(transfer.POLICY_KINDS)
        harness.run_experiment(every_policy)
        assert len(made) == 1 and len(reads) == 1 and reads[0] is made[0]
        made.clear()
        reads.clear()
        config = demo_config()
        assert {"pcat", "ml_pcat"}.isdisjoint(config["stages"]["transfer"]["policies"])
        harness.run_experiment(config, base_dir=str(CONFIG_DIR))
        assert len(made) == 2 and made[0] is not made[1] and reads == []

    def test_fixed_vs_bmp_ratio_recomputable(self, tmp_path):
        config = harness.load_config(CONFIG_DIR / "two_route_congested.json")
        config["duration_s"] = 420  # keep the unit test quick
        report = harness.run_experiment(config, seed=3, out_dir=tmp_path)
        stage = report.data["stages"]["assign"]
        dwells = {m: v["mean_dwell_s"] for m, v in stage["methods"].items()}
        assert stage["dwell_ratio"] == pytest.approx(dwells["bmp"] / dwells["fixed"])

    def test_crash_isolation_preserves_completed_outputs(self, tmp_path, monkeypatch):
        config = demo_config()

        def fit_gpr(*args, **kwargs):
            raise impute.ImputeError("kernel matrix not positive definite")

        # poison the impute stage only; fingerprint + traffic precede it
        monkeypatch.setattr(harness.impute, "fit_gpr", fit_gpr)
        with pytest.raises(harness.StageError) as err:
            harness.run_experiment(config, out_dir=tmp_path)
        assert err.value.stage == "impute"
        assert isinstance(err.value.cause, impute.ImputeError)
        assert (tmp_path / "traffic_metrics.json").exists()
        assert (tmp_path / "confusion_l1.json").exists()
        assert not (tmp_path / "report.json").exists()

    def test_assign_honours_nasch_degenerate(self):
        # with the default demand split, the fixed method drives the traffic
        # stage's scenario, so both must run the same CA rules
        config = harness.load_config(CONFIG_DIR / "two_route_congested.json")
        config["duration_s"] = 300
        config["nasch_degenerate"] = True
        stages = harness.run_experiment(config).data["stages"]
        assert (stages["assign"]["methods"]["fixed"]["mean_dwell_s"]
                == stages["traffic"]["mean_dwell_s"])
        # the two share one run, so check that the flag reached it
        config["nasch_degenerate"] = False
        assert (harness.run_experiment(config).data["stages"]["traffic"]["mean_dwell_s"]
                != stages["traffic"]["mean_dwell_s"])

    @pytest.mark.parametrize("name, ca_runs", [("two_route_low.json", 3),
                                              ("two_route_congested.json", 3),
                                              ("demo.json", 4)])
    def test_each_scenario_simulated_once(self, name, ca_runs, monkeypatch):
        # two_route_low: traffic, one probe shared by bmp and combined, and the
        # combined evaluation (bmp evaluates the traffic stage's split);
        # congested: fixed evaluates the traffic stage's split; demo: all distinct
        calls = []
        real = traffic_ca.run
        monkeypatch.setattr(traffic_ca, "run",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        harness.run_experiment(harness.load_config(CONFIG_DIR / name),
                               base_dir=str(CONFIG_DIR))
        assert len(calls) == ca_runs

    def test_unknown_trace_kind(self):
        # fails by path before any stage runs, not as a transfer StageError
        config = transfer_config()
        config["stages"]["transfer"]["trace"] = {"kind": "teleport"}
        with pytest.raises(harness.ConfigError, match=re.escape(
                "config.stages.transfer.trace.kind: kind must be line or from_traffic, "
                "got 'teleport'")):
            harness.run_experiment(config)


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


def _set(obj, key, value):
    obj[key] = value


def _unknown(where, key):
    return f"{where}: unknown key(s) {key!r}"


# case -> (config file, edit, expected ConfigError message)
CONFIG_ERRORS = {
    "stage_name": ("demo.json", lambda c: _rename(c["stages"], "traffic", "trafic"),
                   _unknown("config.stages", "trafic")),
    "transfer_policies": ("transfer_two_phase.json",
                          lambda c: _rename(c["stages"]["transfer"], "policies", "polices"),
                          _unknown("config.stages.transfer", "polices")),
    "trace_max_vehicles": ("demo.json",
                           lambda c: _rename(c["stages"]["transfer"]["trace"],
                                             "max_vehicles", "max_vehicle"),
                           _unknown("config.stages.transfer.trace", "max_vehicle")),
    "shadowing_sigma": ("transfer_two_phase.json",
                        lambda c: _rename(c["stages"]["transfer"]["shadowing"],
                                          "sigma_db", "sigma"),
                        _unknown("config.stages.transfer.shadowing", "sigma")),
    "feed_truck_share": ("demo.json",
                         lambda c: _rename(c["stages"]["fingerprint"]["feed_lane_policy"],
                                           "truck_share_min", "truck_share"),
                         _unknown("config.stages.fingerprint.feed_lane_policy",
                                  "truck_share")),
    "demand_rate": ("demo.json", lambda c: _rename(c["demand"][0], "rate_veh_h", "rate"),
                    _unknown("config.demand[0]", "rate")),
    "station_tx_power": ("transfer_two_phase.json",
                         lambda c: _rename(c["stages"]["transfer"]["stations"][0],
                                           "tx_power_dbm", "tx_power"),
                         _unknown("config.stages.transfer.stations[0]", "tx_power")),
    "station_missing_x": ("transfer_two_phase.json",
                          lambda c: c["stages"]["transfer"]["stations"][0].pop("x"),
                          "config.stages.transfer.stations[0]: missing key 'x'"),
    "k_routes_type": ("two_route_low.json",
                      lambda c: _set(c["stages"]["assign"], "k_routes", "two"),
                      "config.stages.assign.k_routes: expected int, got 'two'"),
    "k_routes_fraction": ("two_route_low.json",
                          lambda c: _set(c["stages"]["assign"], "k_routes", 2.7),
                          "config.stages.assign.k_routes: 2.7 is not an integer"),
    "k_routes_bool": ("two_route_low.json",
                      lambda c: _set(c["stages"]["assign"], "k_routes", True),
                      "config.stages.assign.k_routes: expected int, got True"),
    "k_routes_infinite": ("two_route_low.json",
                          lambda c: _set(c["stages"]["assign"], "k_routes", math.inf),
                          "config.stages.assign.k_routes: inf is not an integer"),
    "probe_factor_nan": ("two_route_low.json",
                         lambda c: _set(c["stages"]["assign"], "probe_factor", math.nan),
                         "config.stages.assign.probe_factor: nan is not finite"),
    "demand_rate_nan": ("demo.json", lambda c: _set(c["demand"][0], "rate_veh_h", math.nan),
                        "config.demand[0].rate_veh_h: nan is not finite"),
    # a bool key takes only a JSON boolean
    "build_map_string": ("transfer_two_phase.json",
                         lambda c: _set(c["stages"]["transfer"], "build_map", "no"),
                         "config.stages.transfer.build_map: expected bool, got 'no'"),
    "shadowing_enabled_string": ("transfer_two_phase.json",
                                 lambda c: _set(c["stages"]["transfer"]["shadowing"],
                                                "enabled", "false"),
                                 "config.stages.transfer.shadowing.enabled: expected bool, "
                                 "got 'false'"),
    # impute locations on the network, checked before any stage runs
    "impute_target_edge": ("demo.json",
                           lambda c: _set(c["stages"]["impute"]["targets"][0], "edge", "ghost"),
                           "config.stages.impute.targets[0].edge: unknown edge 'ghost'"),
    "impute_target_offset": ("demo.json",
                             lambda c: _set(c["stages"]["impute"]["targets"][1], "offset_m",
                                            99999),
                             "config.stages.impute.targets[1].offset_m: offset 99999.0 outside "
                             "edge 's2'"),
    "impute_observation_edge": ("demo.json",
                                lambda c: _set(c["stages"]["impute"], "observations",
                                               [{"edge": "s1", "offset_m": 420, "flow": 9100},
                                                {"edge": "zz", "offset_m": 150, "flow": 5200}]),
                                "config.stages.impute.observations[1].edge: unknown edge 'zz'"),
    "impute_observation_offset": ("demo.json",
                                  lambda c: _set(c["stages"]["impute"], "observations",
                                                 [{"edge": "s1", "offset_m": -1, "flow": 9100}]),
                                  "config.stages.impute.observations[0].offset_m: offset -1.0 "
                                  "outside edge 's1'"),
    "euclidean_int": ("demo.json", lambda c: _set(c["stages"]["impute"], "euclidean", 1),
                      "config.stages.impute.euclidean: expected bool, got 1"),
    "nasch_degenerate_string": ("two_route_low.json",
                                lambda c: _set(c, "nasch_degenerate", "yes"),
                                "config.nasch_degenerate: expected bool, got 'yes'"),
    # a tuple key takes only a list, and each element as the default's elements
    "splits_nan": ("two_route_low.json",
                   lambda c: _set(c["demand"][0], "splits", [math.nan, 1.0]),
                   "config.demand[0].splits[0]: nan is not finite"),
    "trace_start_nan": ("transfer_two_phase.json",
                        lambda c: _set(c["stages"]["transfer"].setdefault("trace", {}),
                                       "start", [math.nan, 0.0]),
                        "config.stages.transfer.trace.start[0]: nan is not finite"),
    "trace_velocity_string": ("transfer_two_phase.json",
                              lambda c: _set(c["stages"]["transfer"].setdefault("trace", {}),
                                             "velocity_mps", "10,0"),
                              "config.stages.transfer.trace.velocity_mps: expected a list, "
                              "got str"),
    "regs_number": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "regs", ["l1", 2]),
                    "config.stages.fingerprint.regs[1]: expected str, got 2"),
    "methods_string": ("two_route_low.json",
                       lambda c: _set(c["stages"]["assign"], "methods", "bmp"),
                       "config.stages.assign.methods: expected a list, got str"),
    # a list of names names each once: a repeat would run twice and keep one entry
    "regs_repeated": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "regs",
                                                  ["l2", "l1", "l2"]),
                      "config.stages.fingerprint.regs[2]: 'l2' is listed twice"),
    "methods_repeated": ("demo.json", lambda c: _set(c["stages"]["assign"], "methods",
                                                     ["bmp", "bmp"]),
                         "config.stages.assign.methods[1]: 'bmp' is listed twice"),
    "policies_repeated": ("demo.json", lambda c: _set(c["stages"]["transfer"], "policies",
                                                      ["ml_cat", "ml_cat"]),
                          "config.stages.transfer.policies[1]: 'ml_cat' is listed twice"),
    # class shares and schedule entries, which the schema passes through unconverted
    "class_share_nan": ("demo.json", lambda c: _set(c["classes"][0], "share", math.nan),
                        "config.classes[0].share: nan is not finite"),
    "class_mix_nan": ("demo.json",
                      lambda c: _set(c["demand"][0], "class_mix", {"car": math.nan, "truck": 1.0}),
                      "config.demand[0].class_mix.car: nan is not finite"),
    "class_mix_negative": ("demo.json",
                           lambda c: _set(c["demand"][0], "class_mix",
                                          {"car": -0.5, "truck": 1.0}),
                           "config.demand[0].class_mix.car: share must be finite and "
                           "non-negative, got -0.5"),
    "schedule_nan": ("two_route_low.json",
                     lambda c: _set(c["demand"][0], "schedule", [0, math.nan]),
                     "config.demand[0].schedule[1]: nan is not an integer"),
    "schedule_fraction": ("two_route_low.json",
                          lambda c: _set(c["demand"][0], "schedule", [0, 2.5]),
                          "config.demand[0].schedule[1]: 2.5 is not an integer"),
    "schedule_negative": ("two_route_low.json",
                          lambda c: _set(c["demand"][0], "schedule", [0, -3]),
                          "config.demand[0].schedule[1]: schedule must be non-negative, "
                        "got -3"),
    "schedule_string": ("two_route_low.json",
                        lambda c: _set(c["demand"][0], "schedule", "0,3"),
                        "config.demand[0].schedule: expected a list, got str"),
    "policies_bool": ("transfer_two_phase.json",
                      lambda c: _set(c["stages"]["transfer"], "policies", ["periodic", True]),
                      "config.stages.transfer.policies[1]: expected str, got True"),
    # fingerprint settings out of the range that fingerprint accepts
    "holdout_negative": ("demo.json",
                         lambda c: _set(c["stages"]["fingerprint"], "holdout_fraction", -0.2),
                         "config.stages.fingerprint.holdout_fraction: holdout_fraction must "
                         "be in [0, 1), got -0.2"),
    "holdout_above_one": ("demo.json",
                          lambda c: _set(c["stages"]["fingerprint"], "holdout_fraction", 1.5),
                          "config.stages.fingerprint.holdout_fraction: holdout_fraction must "
                          "be in [0, 1), got 1.5"),
    "noise_negative": ("demo.json",
                       lambda c: _set(c["stages"]["fingerprint"], "noise_sigma_db", -2),
                       "config.stages.fingerprint.noise_sigma_db: noise_sigma_db must be "
                       "non-negative, got -2.0"),
    "lam_negative": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "lam", -1),
                     "config.stages.fingerprint.lam: lam must be non-negative, got -1.0"),
    "epochs_zero": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "epochs", 0),
                    "config.stages.fingerprint.epochs: epochs must be at least 1, got 0"),
    "mix_above_one": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "mix", 1.5),
                      "config.stages.fingerprint.mix: mix must be in [0, 1], got 1.5"),
    "count_negative": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "count", -5),
                       "config.stages.fingerprint.count: count must be at least 1, got -5"),
    "regs_unknown": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "regs", ["l3"]),
                     "config.stages.fingerprint.regs[0]: reg must be l1 or l2, got 'l3'"),
    "regs_empty": ("demo.json", lambda c: _set(c["stages"]["fingerprint"], "regs", []),
                   "config.stages.fingerprint.regs: expected at least one regularization"),
    # class entries take the VehicleClass fields and a share; a class mix names a class
    "class_number": ("demo.json", lambda c: _set(c, "classes", [5]),
                     "config.classes[0]: expected an object, got int"),
    "class_field_typo": ("demo.json", lambda c: _rename(c["classes"][1], "v_max_cells", "v_max"),
                         _unknown("config.classes[1]", "v_max")),
    "class_missing_name": ("two_route_low.json", lambda c: c["classes"][0].pop("name"),
                           "config.classes[0]: missing key 'name'"),
    "class_v_max_fraction": ("two_route_low.json",
                             lambda c: _set(c["classes"][0], "v_max_cells", 2.5),
                             "config.classes[0].v_max_cells: 2.5 is not an integer"),
    "class_probability": ("demo.json", lambda c: _set(c["classes"][0], "dawdle_p_d", 1.5),
                          "config.classes[0].dawdle_p_d: dawdle_p_d must be in [0, 1], "
                          "got 1.5"),
    "class_named_twice": ("demo.json", lambda c: _set(c["classes"][1], "name", "car"),
                          "config.classes[1].name: class 'car' is named twice"),
    "holdout_none": ("demo.json",
                     lambda c: _set(c["stages"]["fingerprint"], "holdout_fraction", 0.004),
                     "config.stages.fingerprint.holdout_fraction: holds out none of 240 traces"),
    "class_mix_unknown": ("demo.json",
                          lambda c: _set(c["demand"][0], "class_mix", {"ghost": 1.0}),
                          "config.demand[0].class_mix.ghost: unknown class 'ghost'"),
    "class_mix_not_configured": ("two_route_low.json",
                                 lambda c: _set(c["demand"][0], "class_mix", {"truck": 1.0}),
                                 "config.demand[0].class_mix.truck: unknown class 'truck'"),
    # a string is not a number, nor a bool a version
    "version_bool": ("demo.json", lambda c: _set(c, "version", True),
                     "config.version: expected int, got True"),
    "demand_rate_string": ("two_route_low.json",
                           lambda c: _set(c["demand"][0], "rate_veh_h", "700"),
                           "config.demand[0].rate_veh_h: expected float, got '700'"),
    "duration_string": ("demo.json", lambda c: _set(c, "duration_s", "420"),
                        "config.duration_s: expected int, got '420'"),
    # ranges that would fail unnamed or run silently
    "k_routes_zero": ("two_route_low.json", lambda c: _set(c["stages"]["assign"], "k_routes", 0),
                      "config.stages.assign.k_routes: k_routes must be at least 1, got 0"),
    "window_zero": ("two_route_low.json", lambda c: _set(c, "window_s", 0),
                    "config.window_s: window_s must be at least 1, got 0"),
    "window_negative": ("two_route_low.json", lambda c: _set(c, "window_s", -60),
                        "config.window_s: window_s must be at least 1, got -60"),
    "duration_negative": ("two_route_low.json", lambda c: _set(c, "duration_s", -5),
                          "config.duration_s: duration_s must be non-negative, got -5"),
    "demand_rate_negative": ("demo.json", lambda c: _set(c["demand"][0], "rate_veh_h", -5),
                             "config.demand[0].rate_veh_h: rate_veh_h must be non-negative, "
                             "got -5.0"),
    "trace_duration_zero": ("transfer_two_phase.json",
                            lambda c: _set(c["stages"]["transfer"]["trace"], "duration_s", 0),
                            "config.stages.transfer.trace.duration_s: duration_s must be at "
                            "least 1, got 0"),
    "trace_max_vehicles_zero": ("demo.json",
                                lambda c: _set(c["stages"]["transfer"]["trace"], "max_vehicles",
                                               0),
                                "config.stages.transfer.trace.max_vehicles: max_vehicles must "
                                "be at least 1, got 0"),
    "shadowing_sigma_negative": ("transfer_two_phase.json",
                                 lambda c: _set(c["stages"]["transfer"]["shadowing"], "sigma_db",
                                                -1),
                                 "config.stages.transfer.shadowing.sigma_db: sigma_db must be "
                                 "in [0, 30], got -1.0"),
    # radio settings whose powers leave a float's range
    "station_power_above": ("transfer_two_phase.json",
                            lambda c: _set(c["stages"]["transfer"]["stations"][0],
                                           "tx_power_dbm", 5000),
                            "config.stages.transfer.stations[0].tx_power_dbm: tx_power_dbm must "
                            "be in [-30, 80], got 5000.0"),
    "station_power_below": ("transfer_two_phase.json",
                            lambda c: _set(c["stages"]["transfer"]["stations"][0],
                                           "tx_power_dbm", -5000),
                            "config.stages.transfer.stations[0].tx_power_dbm: tx_power_dbm must "
                            "be in [-30, 80], got -5000.0"),
    "noise_above": ("transfer_two_phase.json",
                    lambda c: _set(c["stages"]["transfer"], "noise_dbm", 4000),
                    "config.stages.transfer.noise_dbm: noise_dbm must be in [-180, 0], "
                    "got 4000.0"),
    "shadowing_sigma_above": ("transfer_two_phase.json",
                              lambda c: _set(c["stages"]["transfer"]["shadowing"], "sigma_db",
                                             1e4),
                              "config.stages.transfer.shadowing.sigma_db: sigma_db must be in "
                              "[0, 30], got 10000.0"),
    "sensor_rate_negative": ("transfer_two_phase.json",
                             lambda c: _set(c["stages"]["transfer"], "sensor_rate_bytes_s", -1),
                             "config.stages.transfer.sensor_rate_bytes_s: sensor_rate_bytes_s "
                             "must be positive, got -1.0"),
    "policy_alpha_zero": ("demo.json",
                          lambda c: _set(c["stages"]["transfer"], "policy", {"alpha": 0}),
                          "config.stages.transfer.policy.alpha: alpha must be positive, got 0.0"),
    # policy overrides checked against each listed policy's defaults, before any stage
    "policy_phi_min_above_max": ("transfer_two_phase.json",
                                 lambda c: _set(c["stages"]["transfer"], "policy",
                                                {"phi_min": 40.0}),
                                 "config.stages.transfer.policy: degenerate metric bounds "
                                 "[40.0, 30.0] for policy 'periodic'"),
    "policy_t_min_above_max": ("transfer_two_phase.json",
                               lambda c: _set(c["stages"]["transfer"], "policy",
                                              {"t_min_s": 700.0}),
                               "config.stages.transfer.policy: need t_min <= t_max for policy "
                               "'periodic'"),
    # cat takes the SINR bounds [-5, 30]; ml_cat keeps [0, 30]
    "policy_phi_max_sinr_only": ("transfer_two_phase.json",
                                 lambda c: c["stages"]["transfer"].update(
                                     policies=["cat", "ml_cat"], policy={"phi_max": -1.0}),
                                 "config.stages.transfer.policy: degenerate metric bounds "
                                 "[0.0, -1.0] for policy 'ml_cat'"),
    "sustain_negative": ("demo.json", lambda c: _set(c["stages"]["assign"], "sustain_s", -1),
                         "config.stages.assign.sustain_s: sustain_s must be non-negative, "
                         "got -1.0"),
    "probe_factor_negative": ("demo.json",
                              lambda c: _set(c["stages"]["assign"], "probe_factor", -1),
                              "config.stages.assign.probe_factor: probe_factor must be positive, "
                              "got -1.0"),
    "knn_k_negative": ("demo.json", lambda c: _set(c["stages"]["impute"], "knn_k", -1),
                       "config.stages.impute.knn_k: knn_k must be non-negative, got -1"),
    "length_scale_negative": ("demo.json",
                              lambda c: _set(c["stages"]["impute"], "length_scale_m", -1),
                              "config.stages.impute.length_scale_m: length_scale_m must be "
                              "positive, got -1.0"),
    "observation_flow_negative": ("demo.json",
                                  lambda c: _set(c["stages"]["impute"], "observations",
                                                 [{"edge": "s1", "offset_m": 420, "flow": -1}]),
                                  "config.stages.impute.observations[0].flow: flow must be "
                                  "finite and non-negative, got -1.0"),
    # choices, stated where the setting is read
    "predictor_unknown": ("transfer_two_phase.json",
                          lambda c: _set(c["stages"]["transfer"], "predictor", "ghost"),
                          "config.stages.transfer.predictor: predictor must be formula or "
                          "learned, got 'ghost'"),
    "methods_unknown": ("demo.json",
                        lambda c: _set(c["stages"]["assign"], "methods", ["fixed", "ghost"]),
                        "config.stages.assign.methods[1]: method must be fixed, wardrop, bmp or "
                        "combined, got 'ghost'"),
    "policies_unknown": ("transfer_two_phase.json",
                         lambda c: _set(c["stages"]["transfer"], "policies",
                                        ["periodic", "ghost"]),
                         "config.stages.transfer.policies[1]: policy must be periodic, cat, pcat, "
                         "ml_cat or ml_pcat, got 'ghost'"),
    "trace_kind_unknown": ("transfer_two_phase.json",
                           lambda c: _set(c["stages"]["transfer"]["trace"], "kind", "teleport"),
                           "config.stages.transfer.trace.kind: kind must be line or from_traffic, "
                           "got 'teleport'"),
    "policy_unknown_key": ("demo.json",
                           lambda c: _set(c["stages"]["transfer"], "policy", {"ghost": 1}),
                           _unknown("config.stages.transfer.policy", "ghost")),
    # found by tests/test_config_fuzz.py: values a float cannot hold
    "count_beyond_float": ("demo.json",
                           lambda c: _set(c["stages"]["fingerprint"], "count", 10 ** 400),
                           "config.stages.fingerprint.count: int too large to convert to float"),
    "network_cells_overflow": ("demo.json", lambda c: _set(c["network"], "cell_length_m", 1e-306),
                               "config.network.edges[0]: edge 's1' overflows cells of 1e-306 m"),
    # demand entries against the network, before the traffic stage
    "demand_origin_unknown": ("demo.json", lambda c: _set(c["demand"][0], "origin", "ghost"),
                              "config.demand[0].origin: unknown node 'ghost'"),
    "demand_dest_unknown": ("demo.json", lambda c: _set(c["demand"][0], "dest", "ghost"),
                            "config.demand[0].dest: unknown node 'ghost'"),
    "demand_dest_is_origin": ("demo.json", lambda c: _set(c["demand"][0], "dest", "A"),
                              "config.demand[0].dest: origin and destination are both 'A'"),
    "splits_sum_above_one": ("demo.json", lambda c: _set(c["demand"][0], "splits", [0.5, 0.6]),
                             "config.demand[0].splits: route splits [0.5, 0.6] do not sum to 1"),
    "splits_negative": ("demo.json", lambda c: _set(c["demand"][0], "splits", [1.5, -0.5]),
                        "config.demand[0].splits: negative route split in [1.5, -0.5]"),
    "splits_above_routes": ("demo.json",
                            lambda c: _set(c["demand"][0], "splits", [0.5, 0.25, 0.25]),
                            "config.demand[0].splits: only 2 route(s) between A and B but 3 "
                            "splits given"),
    # a from_traffic trace needs connected vehicles: a traffic stage, and a demand entry
    # whose class mix gives a connected class a positive share
    "trace_no_connected_class": ("demo.json",
                                 lambda c: [_set(e, "connected", False) for e in c["classes"]],
                                 "config.stages.transfer.trace.kind: from_traffic trace needs a "
                                 "demand entry that gives a connected class a positive share"),
    "trace_connected_share_zero": ("demo.json",
                                   lambda c: _set(c["demand"][0], "class_mix",
                                                  {"car": 1.0, "automated_car": 0.0}),
                                   "config.stages.transfer.trace.kind: from_traffic trace needs "
                                   "a demand entry that gives a connected class a positive "
                                   "share"),
    "trace_no_traffic_stage": ("demo.json", lambda c: c["stages"].pop("traffic"),
                               "config.stages.transfer.trace.kind: from_traffic trace needs a "
                               "traffic stage"),
    # what a stage needs from the rest of the config, before any stage
    "transfer_predictive_without_map": ("transfer_two_phase.json",
                                        lambda c: c["stages"]["transfer"].update(
                                            build_map=False, policies=["periodic", "pcat"]),
                                        "config.stages.transfer.build_map: policy 'pcat' reads "
                                        "the connectivity map, which build_map false leaves "
                                        "unbuilt"),
    "transfer_no_station": ("transfer_two_phase.json",
                            lambda c: _set(c["stages"]["transfer"], "stations", []),
                            "config.stages.transfer.stations: expected at least one base "
                            "station"),
    "traffic_no_network": ("transfer_two_phase.json", lambda c: _set(c["stages"], "traffic", {}),
                           "config.network: the traffic stage needs a network"),
    "impute_no_network": ("transfer_two_phase.json",
                          lambda c: _set(c["stages"], "impute",
                                         {"observations": [{"edge": "s1", "offset_m": 420,
                                                            "flow": 9100}]}),
                          "config.network: the impute stage needs a network"),
    "assign_no_network": ("transfer_two_phase.json", lambda c: _set(c["stages"], "assign", {}),
                          "config.network: the assign stage needs a network"),
    "impute_no_observations": ("demo.json",
                               lambda c: [c["stages"].pop(k) for k in ("traffic", "transfer")],
                               "config.stages.impute.observations: impute needs inline "
                               "observations or a traffic stage with detectors"),
    "impute_run_shorter_than_window": ("demo.json",
                                       lambda c: [c.update(duration_s=30, window_s=60)]
                                       + [c["stages"].pop(k)
                                          for k in ("fingerprint", "assign", "transfer")],
                                       "config.duration_s: a 30 s run closes no 60 s detector "
                                       "window, and the impute stage has no inline observations"),
    # an inline network parses through the schema walker: road_net.NETWORK
    "network_lanes_fraction": ("demo.json", lambda c: _set(c["network"]["edges"][0], "lanes", 2.7),
                               "config.network.edges[0].lanes: 2.7 is not an integer"),
    "network_lanes_bool": ("demo.json", lambda c: _set(c["network"]["edges"][0], "lanes", True),
                           "config.network.edges[0].lanes: expected int, got True"),
    "network_lanes_string": ("demo.json", lambda c: _set(c["network"]["edges"][1], "lanes", "2"),
                             "config.network.edges[1].lanes: expected int, got '2'"),
    "network_node_missing_x": ("demo.json", lambda c: c["network"]["nodes"][0].pop("x"),
                               "config.network.nodes[0]: missing key 'x'"),
    "network_edge_missing_from": ("demo.json", lambda c: c["network"]["edges"][2].pop("from"),
                                  "config.network.edges[2]: missing key 'from'"),
    "network_node_x_nan": ("demo.json", lambda c: _set(c["network"]["nodes"][1], "x", math.nan),
                           "config.network.nodes[1].x: nan is not finite"),
    "network_nodes_object": ("demo.json",
                             lambda c: _set(c["network"], "nodes",
                                            {n["id"]: n for n in c["network"]["nodes"]}),
                             "config.network.nodes: expected a list, got dict"),
    "network_length_inf": ("demo.json",
                           lambda c: _set(c["network"]["edges"][0], "length_m", math.inf),
                           "config.network.edges[0].length_m: inf is not finite"),
    "network_v_max_nan": ("demo.json",
                          lambda c: _set(c["network"]["edges"][3], "v_max_kmh", math.nan),
                          "config.network.edges[3].v_max_kmh: nan is not finite"),
    "network_cell_length_nan": ("demo.json",
                                lambda c: _set(c["network"], "cell_length_m", math.nan),
                                "config.network.cell_length_m: nan is not finite"),
    "network_cell_length_string": ("demo.json",
                                   lambda c: _set(c["network"], "cell_length_m", "1.5"),
                                   "config.network.cell_length_m: expected float, got '1.5'"),
    "network_detector_cell_fraction": ("demo.json",
                                       lambda c: _set(c["network"]["detectors"][0], "cell", 2.5),
                                       "config.network.detectors[0].cell: 2.5 is not an integer"),
    "network_edge_id_int": ("demo.json", lambda c: _set(c["network"]["edges"][0], "id", 1),
                            "config.network.edges[0].id: expected str, got 1"),
    "network_detector_lanes_string": ("demo.json",
                                      lambda c: _set(c["network"]["detectors"][0], "lanes", "01"),
                                      "config.network.detectors[0].lanes: expected a list, "
                                      "got str"),
    "network_detector_lanes_fraction": ("demo.json",
                                        lambda c: _set(c["network"]["detectors"][1], "lanes",
                                                       [0.5]),
                                        "config.network.detectors[1].lanes[0]: 0.5 is not an "
                                        "integer"),
    "network_unknown_key": ("demo.json",
                            lambda c: _rename(c["network"]["edges"][0], "lanes", "lane"),
                            _unknown("config.network.edges[0]", "lane")),
    # every lane mask of a run, on the network or in the config, goes through traffic_ca.lane_mask
    "network_lane_policy_ghost": ("two_route_low.json",
                                  lambda c: _set(c["network"]["edges"][0], "lane_policy",
                                                 [["ghost"], ["ghost"]]),
                                  "config.network.edges[0].lane_policy[0]: unknown class 'ghost'"),
    "network_lane_policy_none_admitted": ("demo.json",
                                          lambda c: _set(c["network"]["edges"][0], "lane_policy",
                                                         [[], []]),
                                          "config.network.edges[0].lane_policy: mask excludes "
                                          "every class from every lane"),
    "network_lane_policy_length": ("demo.json",
                                   lambda c: _set(c["network"]["edges"][1], "lane_policy",
                                                  [None, None]),
                                   "config.network.edges[1].lane_policy: expected a list of 1 "
                                   "lane entries, got [None, None]"),
    "lane_policies_unknown_edge": ("demo.json",
                                   lambda c: _set(c, "lane_policies", {"nope": [None, None]}),
                                   "config.lane_policies.nope: unknown edge 'nope'"),
    "lane_policies_unknown_class": ("demo.json",
                                    lambda c: _set(c, "lane_policies",
                                                   {"s1": [["ghost"], ["car"]]}),
                                    "config.lane_policies.s1[0]: unknown class 'ghost'"),
    "lane_policies_number_entry": ("demo.json",
                                   lambda c: _set(c, "lane_policies", {"s1": [5, None]}),
                                   "config.lane_policies.s1[0]: expected a list, got int"),
    "lane_policies_list": ("demo.json", lambda c: _set(c, "lane_policies", [None, None]),
                           "config.lane_policies: expected an object, got list"),
    "feed_edge_unknown": ("demo.json",
                          lambda c: _set(c["stages"]["fingerprint"]["feed_lane_policy"], "edge",
                                         "nope"),
                          "config.stages.fingerprint.feed_lane_policy.edge: unknown edge 'nope'"),
    "feed_mask_unknown_class": ("demo.json",
                                lambda c: _set(c["stages"]["fingerprint"]["feed_lane_policy"],
                                               "mask", [["ghost"], ["car"]]),
                                "config.stages.fingerprint.feed_lane_policy.mask[0]: unknown "
                                "class 'ghost'"),
    "feed_mask_name_number": ("demo.json",
                              lambda c: _set(c["stages"]["fingerprint"]["feed_lane_policy"],
                                             "mask", [["car", 5], None]),
                              "config.stages.fingerprint.feed_lane_policy.mask[0][1]: expected "
                              "str, got 5"),
}


# case -> (malformed config document, JSON error that follows the file's name)
MALFORMED_CONFIGS = {
    "truncated": ('{"version": 1, "network": ', "Expecting value: line 1 column 27 (char 26)"),
    "trailing_comma": ('{"version": 1,}', "Expecting property name enclosed in double quotes: "
                                          "line 1 column 15 (char 14)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_file_named(case, tmp_path):
    text, error = MALFORMED_CONFIGS[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    message = f"{path}: {error}"
    with pytest.raises(harness.ConfigError, match=re.escape(message)):
        harness.load_config(path)
    res = CliRunner().invoke(main, ["run", "--config", str(path), "--out",
                                    str(tmp_path / "out")])
    assert res.exit_code != 0
    assert message in res.output


def test_class_mix_names_default_classes_when_none_configured():
    config = json.loads((CONFIG_DIR / "two_route_low.json").read_text())
    del config["classes"]
    config["demand"][0]["class_mix"] = {"truck": 1.0}
    assert harness.parse_config(config)["demand"][0]["class_mix"] == {"truck": 1.0}
    config["demand"][0]["class_mix"] = {"bus": 1.0}
    with pytest.raises(harness.ConfigError, match=r"class_mix\.bus: unknown class 'bus'"):
        harness.parse_config(config)


def test_too_many_paths_named(monkeypatch):
    # route enumeration gives up on a network of too many simple paths (grids of 6 x 6
    # junctions); the demand entry it gave up on is named
    monkeypatch.setattr(road_net, "MAX_ENUMERATED_PATHS", 1)
    config = json.loads((CONFIG_DIR / "demo.json").read_text())
    with pytest.raises(harness.ConfigError,
                       match=re.escape("config.demand[0]: more than 1 simple paths between "
                                       "'A' and 'B'")):
        harness.parse_config(config)


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_typo_rejected(case, tmp_path):
    name, edit, message = CONFIG_ERRORS[case]
    config = json.loads((CONFIG_DIR / name).read_text())
    edit(config)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    with pytest.raises(harness.ConfigError, match=re.escape(message)):
        harness.load_config(path)
    with pytest.raises(harness.ConfigError, match=re.escape(message)):
        harness.run_experiment(config)
    res = CliRunner().invoke(main, ["run", "--config", str(path), "--out",
                                    str(tmp_path / "out")])
    assert res.exit_code != 0
    assert message in res.output
    assert not (tmp_path / "out").exists()


class TestComparePolicies:
    def test_policy_rows_independent_of_partner(self):
        # a policy's drives draw from streams of its kind and the seed alone, so its row
        # does not depend on the policies it is compared with, nor on its position
        config = transfer_config()
        config["stages"]["transfer"]["trace"]["duration_s"] = 200
        first = harness.compare_policies(config, ["ml_cat", "periodic"], [1, 2])[0]
        second = harness.compare_policies(config, ["cat", "ml_cat"], [1, 2])[1]
        assert first["policy"] == "ml_cat" and first == second

    def test_single_seed_zero_stddev(self):
        config = transfer_config()
        config["stages"]["transfer"]["trace"]["duration_s"] = 200
        rows = harness.compare_policies(config, ["periodic", "ml_cat"], [5])
        for row in rows:
            assert row["goodput_mbps_std"] == 0.0

    def test_two_phase_ml_cat_beats_periodic(self):
        config = transfer_config()
        rows = harness.compare_policies(config, ["periodic", "ml_cat"], [1, 2, 3])
        by = {r["policy"]: r for r in rows}
        assert by["ml_cat"]["goodput_mbps_mean"] > by["periodic"]["goodput_mbps_mean"]

    def test_needs_two_policies(self):
        with pytest.raises(harness.ConfigError):
            harness.compare_policies(transfer_config(), ["periodic"], [1])

    def test_needs_a_seed(self):
        with pytest.raises(harness.ConfigError, match="at least one seed"):
            harness.compare_policies(transfer_config(), ["periodic", "ml_cat"], [])

    def test_seed_generator_counted(self):
        config = transfer_config()
        config["stages"]["transfer"]["trace"]["duration_s"] = 200
        rows = harness.compare_policies(config, ["periodic", "ml_cat"],
                                        (s for s in (1, 2)))
        assert [r["seeds"] for r in rows] == [2, 2]
        assert rows == harness.compare_policies(config, ["periodic", "ml_cat"], [1, 2])

    def test_unknown_policy_named_before_any_stage(self, monkeypatch):
        monkeypatch.setattr(harness, "STAGES", ())
        with pytest.raises(harness.ConfigError, match=re.escape(
                "--policies[1]: policy must be periodic, cat, pcat, ml_cat or ml_pcat, "
                "got 'ghost'")):
            harness.compare_policies(transfer_config(), ["periodic", "ghost"], [1])

    def test_overrides_checked_for_compared_policies(self):
        # the config lists cat alone, whose SINR bounds [-5, -1] hold; periodic's do not
        config = transfer_config()
        config["stages"]["transfer"].update(policies=["cat"], policy={"phi_max": -1.0})
        harness.parse_config(config)
        with pytest.raises(harness.ConfigError, match=re.escape(
                "config.stages.transfer.policy: degenerate metric bounds [0.0, -1.0] for "
                "policy 'periodic'")):
            harness.compare_policies(config, ["cat", "periodic"], [1])

    def test_predictive_policy_needs_the_map_before_any_stage(self, monkeypatch):
        config = transfer_config()
        config["stages"]["transfer"].update(build_map=False, policies=["periodic", "cat"])
        harness.parse_config(config)
        monkeypatch.setattr(harness, "STAGES", ())
        with pytest.raises(harness.ConfigError, match=re.escape(
                "config.stages.transfer.build_map: policy 'ml_pcat' reads the connectivity "
                "map, which build_map false leaves unbuilt")):
            harness.compare_policies(config, ["cat", "ml_pcat"], [1])

    def test_failing_stage_named(self):
        # a run can end with no connected trace long enough, which no parse can tell
        config = demo_config()
        config["stages"]["transfer"]["trace"]["min_duration_s"] = 10 ** 6
        with pytest.raises(harness.StageError) as err:
            harness.compare_policies(config, ["periodic", "ml_cat"], [1])
        assert err.value.stage == "transfer"
        assert str(err.value.cause) == "no connected trace of at least 1000000s"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_rows_equal_run(self, seed):
        # compare runs run's stages: fingerprint arms the lane policy and the
        # learned predictor is calibrated, so its rows are what run reports
        config = demo_config()
        stages = harness.run_experiment(config, seed=seed, base_dir=CONFIG_DIR).data["stages"]
        rows = harness.compare_policies(config, ["periodic", "ml_cat"], [seed],
                                        base_dir=CONFIG_DIR)
        for row in rows:
            policy = stages["transfer"]["policies"][row["policy"]]
            assert row["dwell_s_mean"] == stages["traffic"]["mean_dwell_s"]
            assert row["goodput_mbps_mean"] == policy["mean_goodput_mbps"]
            assert row["energy_j_mean"] == policy["total_energy_j"]


class TestCli:
    def test_parse_seeds(self):
        assert parse_seeds("1..4") == [1, 2, 3, 4]
        assert parse_seeds("2,9,5") == [2, 9, 5]
        assert parse_seeds("3..3") == [3]

    @pytest.mark.parametrize("text, message", [
        ("a,2", "--seeds: 'a' is not an integer"),
        ("1, x ,3", "--seeds: 'x' is not an integer"),
        ("1..b", "--seeds: 'b' is not an integer"),
        ("1..2..3", "--seeds: '2..3' is not an integer"),
        ("3..1", "--seeds: range '3..1' is empty"),
    ])
    def test_parse_seeds_names_bad_token(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_seeds(text)
        res = CliRunner().invoke(main, ["compare", "--config",
                                        str(CONFIG_DIR / "transfer_two_phase.json"),
                                        "--policies", "periodic,ml_cat", "--seeds", text])
        assert res.exit_code != 0
        assert f"Error: {message}" in res.output

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_impute_knn_below_one_fails_before_output(self, tmp_path, k):
        (tmp_path / "net.json").write_text(json.dumps(demo_config()["network"]))
        (tmp_path / "obs.csv").write_text("edge,offset_m,day,flow\ns1,420,0,9100\n")
        res = CliRunner().invoke(main, [
            "impute", "--network", str(tmp_path / "net.json"), "--observations",
            str(tmp_path / "obs.csv"), "--targets", "l1:300", "--knn", k,
            "--out", str(tmp_path / "pred.csv")])
        assert res.exit_code != 0
        assert "'--knn'" in res.output and f"{k} is not in the range x>=1" in res.output
        assert not (tmp_path / "pred.csv").exists()

    def test_run_and_exit_codes(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "run_out"
        res = runner.invoke(main, ["run", "--config", str(CONFIG_DIR / "demo.json"),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["toolkit_version"]
        for rel in report["artifacts"].values():
            assert (out / rel).exists()

    def test_run_failure_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "stages": {"traffic": {}}}))
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--config", str(bad),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code != 0

    def test_compare_command(self, tmp_path):
        runner = CliRunner()
        cfg = transfer_config()
        cfg["stages"]["transfer"]["trace"]["duration_s"] = 200
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["compare", "--config", str(path),
                                   "--policies", "periodic,ml_cat", "--seeds", "1..2",
                                   "--out", str(tmp_path / "cmp.json")])
        assert res.exit_code == 0, res.output
        rows = json.loads((tmp_path / "cmp.json").read_text())
        assert {r["policy"] for r in rows} == {"periodic", "ml_cat"}

    def test_compare_unknown_policy_named(self):
        res = CliRunner().invoke(main, ["compare", "--config",
                                        str(CONFIG_DIR / "transfer_two_phase.json"),
                                        "--policies", "periodic,ghost", "--seeds", "1"])
        assert res.exit_code != 0
        assert ("Error: --policies[1]: policy must be periodic, cat, pcat, ml_cat or ml_pcat, "
                "got 'ghost'") in res.output
        assert "stage" not in res.output

    def test_compare_repeated_policy_named(self):
        res = CliRunner().invoke(main, ["compare", "--config",
                                        str(CONFIG_DIR / "transfer_two_phase.json"),
                                        "--policies", "periodic,cat,periodic", "--seeds", "1"])
        assert res.exit_code != 0
        assert "Error: --policies[2]: 'periodic' is listed twice" in res.output
        assert "stage" not in res.output

    def test_compare_without_seeds_fails(self):
        res = CliRunner().invoke(main, ["compare", "--config",
                                        str(CONFIG_DIR / "transfer_two_phase.json"),
                                        "--policies", "periodic,ml_cat", "--seeds", ""])
        assert res.exit_code != 0
        assert "at least one seed" in res.output

    def test_gen_corpus_command(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["gen-corpus", "--out", str(tmp_path / "corpus"),
                                   "--count", "6", "--seed", "3"])
        assert res.exit_code == 0, res.output
        manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
        assert len(manifest) == 6
        assert all((tmp_path / "corpus" / m["file"]).exists() for m in manifest)

    @pytest.mark.parametrize("option, value, message", [
        ("--count", "-5", "count must be at least 1, got -5"),
        ("--noise-sigma-db", "-2", "noise_sigma_db must be non-negative, got -2.0"),
        ("--mix", "1.5", "mix must be in [0, 1], got 1.5")])
    def test_gen_corpus_rejects_out_of_range(self, tmp_path, option, value, message):
        res = CliRunner().invoke(main, ["gen-corpus", "--out", str(tmp_path / "corpus"),
                                        option, value])
        assert res.exit_code != 0
        assert message in res.output
        assert not (tmp_path / "corpus").exists()

    def test_impute_command(self, tmp_path):
        net_spec = demo_config()["network"]
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net_spec))
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("edge,offset_m,day,flow\n"
                            "s1,100,0,9000\ns2,50,0,8000\nl2,200,0,4000\n")
        out = tmp_path / "pred.csv"
        runner = CliRunner()
        res = runner.invoke(main, ["impute", "--network", str(net_path),
                                   "--observations", str(obs_path),
                                   "--targets", "l1:300,s1:400",
                                   "--out", str(out), "--knn", "2"])
        assert res.exit_code == 0, res.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 predictions

    @pytest.mark.parametrize("case, message", [
        ("targets", "--targets: 'l1' is not edge:offset"),
        ("nan_flow", "obs.csv, line 3, column flow: flow must be finite and non-negative, "
                     "got nan"),
        ("no_flow_column", "obs.csv, line 2, column flow: None is not float"),
        ("network_file", "net.json: network.edges[0].lanes: 2.7 is not an integer"),
        ("obs_edge", "obs.csv, line 3, column edge: unknown edge 'zz'"),
        ("obs_offset", "obs.csv, line 2, column offset_m: offset 99999.0 outside edge 's1'"),
        # a NaN length scale wrote NaN predictions and exited 0
        ("length_scale_nan", "--length-scale must be positive, got nan"),
        ("length_scale_negative", "--length-scale must be positive, got -1.0"),
    ])
    def test_impute_bad_input_named(self, tmp_path, case, message):
        net_spec = demo_config()["network"]
        if case == "network_file":
            net_spec["edges"][0]["lanes"] = 2.7
        (tmp_path / "net.json").write_text(json.dumps(net_spec))
        (tmp_path / "obs.csv").write_text({
            "nan_flow": "edge,offset_m,day,flow\ns1,420,0,9100\ns2,150,0,nan\n",
            "no_flow_column": "edge,offset_m,day\ns1,420,0\n",
            "obs_edge": "edge,offset_m,day,flow\ns1,420,0,9100\nzz,150,0,5200\n",
            "obs_offset": "edge,offset_m,day,flow\ns1,99999,0,9100\ns2,150,0,5200\n",
        }.get(case, "edge,offset_m,day,flow\ns1,420,0,9100\ns2,150,0,5200\n"))
        res = CliRunner().invoke(main, [
            "impute", "--network", str(tmp_path / "net.json"), "--observations",
            str(tmp_path / "obs.csv"), "--targets", "l1" if case == "targets" else "l1:300",
            "--out", str(tmp_path / "pred.csv"),
            *{"length_scale_nan": ["--length-scale", "nan"],
              "length_scale_negative": ["--length-scale", "-1"]}.get(case, [])])
        assert res.exit_code != 0
        assert message in res.output
        assert not (tmp_path / "pred.csv").exists()

    def test_network_file_named(self, tmp_path):
        config = demo_config()
        config["network"]["detectors"][2]["cell"] = 1e9
        (tmp_path / "net.json").write_text(json.dumps(config["network"]))
        config["network"] = "net.json"
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        message = (f"{tmp_path / 'net.json'}: network.detectors[2]: detector cell 1000000000 "
                   f"out of range [0, 400) on edge 'l2'")
        with pytest.raises(NetworkError, match=re.escape(message)):
            harness.load_config(tmp_path / "cfg.json")
        res = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "cfg.json"),
                                        "--out", str(tmp_path / "out")])
        assert res.exit_code != 0
        assert message in res.output
        assert not (tmp_path / "out").exists()

    def test_impute_euclidean_matches_config(self, tmp_path):
        # --euclidean is the config's impute.euclidean: the CLI's predictions
        # equal the impute stage's, and differ from the network-distance fit
        cfg = demo_config()
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(cfg["network"]))
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("edge,offset_m,day,flow\n"
                            "s1,420,0,9100\ns2,150,0,5200\nl2,300,0,7400\n")
        args = ["impute", "--network", str(net_path), "--observations", str(obs_path),
                "--targets", "l1:300,s2:30"]
        for name, extra in (("network", []), ("euclidean", ["--euclidean"])):
            res = CliRunner().invoke(main, args + ["--out", str(tmp_path / name)] + extra)
            assert res.exit_code == 0, res.output
        cfg["stages"] = {"impute": {
            "observations": [{"edge": "s1", "offset_m": 420, "flow": 9100},
                             {"edge": "s2", "offset_m": 150, "flow": 5200},
                             {"edge": "l2", "offset_m": 300, "flow": 7400}],
            "euclidean": True,
            "targets": [{"edge": "l1", "offset_m": 300}, {"edge": "s2", "offset_m": 30}]}}
        harness.run_experiment(cfg, out_dir=tmp_path / "run")
        stage_csv = (tmp_path / "run" / "imputation.csv").read_text()
        assert (tmp_path / "euclidean").read_text() == stage_csv
        assert (tmp_path / "network").read_text() != stage_csv

    def test_assign_command(self, tmp_path):
        runner = CliRunner()
        cfg = harness.load_config(CONFIG_DIR / "two_route_congested.json")
        cfg["duration_s"] = 300
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["assign", "--config", str(path), "--method", "bmp",
                                   "--out", str(tmp_path / "assign.json")])
        assert res.exit_code == 0, res.output
        data = json.loads((tmp_path / "assign.json").read_text())
        assert data["split"] is not None

    def test_assign_matches_run(self, tmp_path):
        # the assign command takes lambda and every other setting from the config
        path = CONFIG_DIR / "two_route_low.json"
        report = harness.run_experiment(harness.load_config(path), base_dir=CONFIG_DIR)
        res = CliRunner().invoke(main, ["assign", "--config", str(path), "--method",
                                        "combined", "--out", str(tmp_path / "a.json")])
        assert res.exit_code == 0, res.output
        data = json.loads((tmp_path / "a.json").read_text())
        run_dwell = report.data["stages"]["assign"]["methods"]["combined"]["mean_dwell_s"]
        assert data["mean_dwell_s"] == run_dwell
