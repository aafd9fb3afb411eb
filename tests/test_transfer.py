import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridflow import radio_env, transfer
from hybridflow.radio_env import (BaseStation, ConnectivityMap, PropagationModel, RadioScene,
                                  TraceRecord, forecast_along, sinr_rsrp_at)
from hybridflow.rng import Uniforms, substream
from hybridflow.transfer import (BufferState, PolicyError, PolicyRuntime,
                                 RatePredictor, TransferMetrics, TransferPolicy, decide,
                                 line_trace, simulate_drive, sinr_policy, train_predictor,
                                 transmission_probability)


class TestTransmissionProbability:
    def test_endpoints_exact(self):
        assert transmission_probability(0.0, 0.0, 30.0, 4.0) == 0.0
        assert transmission_probability(30.0, 0.0, 30.0, 4.0) == 1.0

    def test_midpoint_alpha_two(self):
        assert transmission_probability(15.0, 0.0, 30.0, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_three_quarter_alpha_four(self):
        assert transmission_probability(22.5, 0.0, 30.0, 4.0) == pytest.approx(
            0.31640625, abs=1e-15)

    def test_clamping(self):
        assert transmission_probability(-10.0, 0.0, 30.0, 2.0) == 0.0
        assert transmission_probability(99.0, 0.0, 30.0, 2.0) == 1.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(PolicyError):
            transmission_probability(1.0, 5.0, 5.0, 2.0)
        with pytest.raises(PolicyError):
            TransferPolicy(kind="cat", phi_min=10.0, phi_max=10.0)

    @given(st.floats(0, 30), st.floats(0, 30), st.floats(0.5, 8))
    @settings(max_examples=80, deadline=None)
    def test_monotone_and_bounded(self, a, b, alpha):
        lo, hi = sorted((a, b))
        p1 = transmission_probability(lo, 0.0, 30.0, alpha)
        p2 = transmission_probability(hi, 0.0, 30.0, alpha)
        assert 0.0 <= p1 <= p2 <= 1.0

    def test_alpha_one_affine(self):
        for phi in (0.0, 7.5, 12.0, 30.0):
            assert transmission_probability(phi, 0.0, 30.0, 1.0) == pytest.approx(phi / 30.0)


class TestPredictRate:
    def test_formula_at_zero_db(self):
        pred = RatePredictor()
        got = pred.predict(0.0, 1e6, 10.0)
        assert got == pytest.approx(6.0, abs=1e-12)

    def test_overflowing_sinr_rejected(self):
        # 10 ** (sinr / 10) leaves the float range above about 3083 dB
        assert RatePredictor().predict(3000.0, 1e5, 1.0) == 100.0
        with pytest.raises(PolicyError, match="SINR 4000.0 dB"):
            RatePredictor().predict(4000.0, 1e5, 1.0)

    def test_empty_table_falls_back(self):
        learned = RatePredictor(kind="learned_table")
        formula = RatePredictor()
        for sinr, payload, speed in [(0.0, 1e6, 10.0), (13.0, 2e4, 3.0), (-4.0, 5e5, 25.0)]:
            assert (learned.predict(sinr, payload, speed)
                    == formula.predict(sinr, payload, speed))

    def test_payload_ramp(self):
        pred = RatePredictor()
        assert transfer.PAYLOAD_RAMP_BYTES == 100_000.0
        full = pred.predict(10.0, 100_000.0, 5.0)
        half = pred.predict(10.0, 50_000.0, 5.0)
        assert half == pytest.approx(full / 2)

    def test_single_entry_table(self):
        table = train_predictor([{"sinr_db": 5.0, "payload_bytes": 3e5,
                                  "speed_mps": 12.0, "rate_mbps": 17.5}])
        assert table.predict(5.0, 3e5, 12.0) == 17.5

    def test_two_entries_one_bin(self):
        rows = [{"sinr_db": 5.0, "payload_bytes": 3e5, "speed_mps": 12.0, "rate_mbps": 4.0},
                {"sinr_db": 5.5, "payload_bytes": 3.2e5, "speed_mps": 13.0, "rate_mbps": 6.0}]
        table = train_predictor(rows)
        assert table.predict(5.2, 3.1e5, 12.5) == pytest.approx(5.0)

    def test_table_equals_groupby_oracle(self):
        rng = np.random.default_rng(3)
        rows = [{"sinr_db": float(rng.uniform(-5, 30)),
                 "payload_bytes": float(rng.uniform(1e3, 2e6)),
                 "speed_mps": float(rng.uniform(0, 40)),
                 "rate_mbps": float(rng.uniform(0.1, 60))} for _ in range(2000)]
        table = train_predictor(rows)
        groups = {}
        for r in rows:
            key = (math.floor(r["sinr_db"] / 2), math.floor(math.log2(r["payload_bytes"])),
                   math.floor(r["speed_mps"] / 5))
            groups.setdefault(key, []).append(r["rate_mbps"])
        assert set(table.table) == set(groups)
        for key, vals in groups.items():
            assert table.table[key][1] == pytest.approx(np.mean(vals), rel=1e-12)


class TestDecide:
    def test_freshness_override(self):
        pol = sinr_policy("cat", t_max_s=60.0)
        rt = PolicyRuntime.create(pol, seed=1)
        buf = BufferState(queued_bytes=100.0, oldest_ts=0.0)
        assert decide(rt, 60.0, buf, phi_now=-5.0) is True  # p(phi_min)=0 but age=t_max

    def test_pcat_defers_on_better_forecast(self):
        pol = TransferPolicy(kind="ml_pcat", gamma=1.2, t_max_s=600.0)
        rt = PolicyRuntime.create(pol, seed=1)
        buf = BufferState(queued_bytes=100.0, oldest_ts=0.0)
        assert decide(rt, 10.0, buf, phi_now=10.0, peak=20.0) is False

    def test_phi_max_transmits_surely(self):
        pol = sinr_policy("cat")
        rt = PolicyRuntime.create(pol, seed=1)
        buf = BufferState(queued_bytes=1.0, oldest_ts=9.0)
        assert decide(rt, 10.0, buf, phi_now=30.0) is True

    def test_pcat_without_forecast_rejected(self):
        pol = TransferPolicy(kind="pcat", phi_min=-5.0, phi_max=30.0)
        rt = PolicyRuntime.create(pol, seed=1)
        with pytest.raises(PolicyError):
            decide(rt, 10.0, BufferState(queued_bytes=1.0, oldest_ts=0.0), 5.0)

    def test_alpha_monotonicity_aligned_draws(self):
        # same seed, same metric series, huge t_max: raising alpha never adds
        # opportunistic transmissions
        rng = np.random.default_rng(8)
        phis = rng.uniform(-5, 30, size=400)
        counts = []
        for alpha in (1.0, 2.0, 4.0, 8.0):
            pol = sinr_policy("cat", alpha=alpha, t_max_s=1e9)
            rt = PolicyRuntime.create(pol, seed=42)
            buf = BufferState(queued_bytes=10.0, oldest_ts=0.0)
            counts.append(sum(decide(rt, float(t + 1), buf, float(phis[t]))
                              for t in range(400)))
        assert counts == sorted(counts, reverse=True)


@dataclass
class MappedScene(RadioScene):
    """A radio scene with the connectivity map its predictive drives read, if any."""

    map: ConnectivityMap | None = None


def drive(trace, scene, policy, *args, **kwargs):
    """``simulate_drive`` on the record of the trace in the scene and, with a map, the
    map's forecast along the trace."""
    record = TraceRecord(trace, scene.stations, scene.noise_dbm, scene.model)
    ahead = None if scene.map is None else forecast_along(scene.map, trace)
    return simulate_drive(record, ahead, policy, *args, **kwargs)


def good_bad_scene(with_map=False):
    """Station 6 km down the road: first half of the drive is a deep fade."""
    scene = MappedScene([BaseStation("bs", (6000.0, 0.0), tx_power_dbm=43.0)],
                        noise_dbm=-100.0,
                        model=PropagationModel(shadowing_enabled=False))
    if with_map:
        cmap = ConnectivityMap()
        for t, x, y in line_trace((0.0, 0.0), (10.0, 0.0), 600):
            for _ in range(3):
                cmap.record((x, y), scene.sinr((x, y)))
        scene.map = cmap
    return scene


class TestSimulateDrive:
    def test_periodic_constant_channel(self):
        # perfect channel held by parking next to the station
        scene = MappedScene([BaseStation("bs", (0.0, 0.0))], noise_dbm=-100.0,
                            model=PropagationModel(shadowing_enabled=False))
        trace = [(t, 10.0, 0.0) for t in range(601)]
        pol = TransferPolicy(kind="periodic", periodic_interval_s=30.0)
        metrics, log = drive(trace, scene, pol, 10_000.0, seed=5)
        assert metrics.transmissions == 20
        tx_rows = [r for r in log if r["decision"] == "transmit"]
        assert all(r["bytes"] == pytest.approx(300_000.0) for r in tx_rows)

    def test_ml_cat_moves_bytes_to_good_phase(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = TransferPolicy(kind="ml_cat", t_max_s=600.0)
        metrics, log = drive(trace, scene, pol, 10_000.0, seed=7)
        good = sum(r["bytes"] for r in log if r["decision"] == "transmit" and r["t"] > 300)
        total = sum(r["bytes"] for r in log if r["decision"] == "transmit")
        assert total > 0
        assert good / total >= 0.9

    def test_deterministic_metrics(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = sinr_policy("cat", t_max_s=120.0)
        a = drive(trace, scene, pol, 10_000.0, seed=11)
        b = drive(trace, scene, pol, 10_000.0, seed=11)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_energy_recomputable_from_log(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = TransferPolicy(kind="ml_cat", t_max_s=90.0)
        metrics, log = drive(trace, scene, pol, 10_000.0, seed=13)
        tx_time = sum(r["duration_s"] for r in log)
        recomputed = (sum(r["energy_j"] for r in log)
                      + max(600.0 - tx_time, 0.0) * transfer.P_IDLE_W)
        assert metrics.total_energy_j == pytest.approx(recomputed, abs=1e-9)

    def test_byte_conservation(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        for kind in ("periodic", "cat", "ml_cat"):
            pol = sinr_policy(kind) if kind in ("cat", "pcat") else TransferPolicy(kind=kind)
            metrics, _ = drive(trace, scene, pol, 10_000.0, seed=17)
            assert metrics.bytes_generated == pytest.approx(
                metrics.bytes_transferred + metrics.bytes_buffered_end)

    def test_freshness_bound(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = sinr_policy("cat", t_max_s=45.0)
        metrics, log = drive(trace, scene, pol, 10_000.0, seed=19)
        buf_start = None
        for r in log:
            if r["decision"] == "transmit":
                assert buf_start is None or r["t"] - buf_start <= 45.0 + 1.0
                buf_start = None
            elif buf_start is None:
                buf_start = r["t"]

    def test_ml_pcat_defers_toward_peak(self):
        scene = good_bad_scene(with_map=True)
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        cat_m, _ = drive(trace, scene, TransferPolicy(kind="ml_cat", t_max_s=600.0),
                         10_000.0, seed=23)
        pcat_m, _ = drive(trace, scene, TransferPolicy(kind="ml_pcat", t_max_s=600.0),
                          10_000.0, seed=23)
        assert pcat_m.mean_goodput_mbps >= cat_m.mean_goodput_mbps

    def test_short_trace_rejected(self):
        scene = good_bad_scene()
        with pytest.raises(PolicyError):
            drive([(0, 0.0, 0.0)], scene, TransferPolicy(kind="periodic"), 1000.0, seed=1)

    def test_backwards_trace_rejected(self):
        scene = good_bad_scene()
        trace = [(0, 0.0, 0.0), (1, 10.0, 0.0), (3, 30.0, 0.0), (2, 20.0, 0.0)]
        with pytest.raises(PolicyError, match="backwards"):
            drive(trace, scene, TransferPolicy(kind="periodic"), 1000.0, seed=1)

    def test_non_finite_time_rejected_by_predictive_policy(self):
        # a non-finite time has no look-ahead window; a last one is not seen going backwards
        for bad in (math.nan, math.inf):
            trace = [(0, 0.0, 0.0), (1, 10.0, 0.0), (2, 20.0, 0.0), (bad, 30.0, 0.0)]
            with pytest.raises(PolicyError, match="finite"):
                drive(trace, good_bad_scene(with_map=True), TransferPolicy(kind="pcat"),
                      1000.0, seed=1)

    def test_overflowing_map_value_rejected(self):
        # a rate policy turns the map value into a rate: 4000 dB overflows it
        scene = good_bad_scene()
        scene.map = ConnectivityMap()
        scene.map.record((2000.0, 0.0), 4000.0)
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        with pytest.raises(PolicyError, match="SINR 4000.0 dB"):
            drive(trace, scene, TransferPolicy(kind="ml_pcat"), 1000.0, seed=1)

    def test_lookahead_is_the_horizon_slice(self, monkeypatch):
        # uneven spacing and repeated times: each probe's peak covers exactly the
        # later points within lookahead_s, the ones the per-probe forecast kept. The
        # learned table predicts each window (the formula's sliding peak reads none;
        # TestWindowPeak and the reference drives check it)
        trace = [(t, 10.0 * t, 0.0) for t in (0, 1, 1, 2, 5, 9, 9, 10, 14, 30, 31, 33, 40, 41)]
        scene = good_bad_scene(with_map=True)
        record = TraceRecord(trace, scene.stations, scene.noise_dbm, scene.model)
        ahead = forecast_along(scene.map, trace)
        predictor = half_filled_table()
        windows = []
        original_peak = RatePredictor.peak_rate

        def recording_peak(self, sinrs, payload_bytes, speed_mps):
            windows.append(list(sinrs))
            return original_peak(self, sinrs, payload_bytes, speed_mps)

        monkeypatch.setattr(RatePredictor, "peak_rate", recording_peak)
        for lookahead in (0.0, 1.0, 8.0, 30.0):
            for t_min in (1.0, 5.0):
                windows.clear()
                want = []
                pol = TransferPolicy(kind="ml_pcat", t_min_s=t_min, lookahead_s=lookahead)
                _, log = simulate_drive(record, ahead, pol, 1000.0, seed=3, predictor=predictor)
                reference_drive(trace, scene, pol, 1000.0, 3, predictor=predictor, windows=want)
                assert len(windows) == len(want) == len(log) > 3
                for r, points, got in zip(log, want, windows):
                    assert points == [p for p in trace if 0 < p[0] - r["t"] <= lookahead]
                    assert got == [scene.map.lookup((x, y)) for _, x, y in points]

    def test_predictive_policy_needs_a_whole_forecast(self):
        scene = good_bad_scene(with_map=True)
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 60)
        record = TraceRecord(trace, scene.stations, scene.noise_dbm, scene.model)
        ahead = forecast_along(scene.map, trace)
        for kind in ("pcat", "ml_pcat"):
            with pytest.raises(PolicyError, match=f"{kind} needs a forecast"):
                simulate_drive(record, None, make_policy(kind), 1000.0, seed=1)
            with pytest.raises(PolicyError, match="forecast of 60 values for 61 trace points"):
                simulate_drive(record, ahead[1:], make_policy(kind), 1000.0, seed=1)
        # the others read none
        for kind in ("periodic", "cat", "ml_cat"):
            assert simulate_drive(record, None, make_policy(kind), 1000.0, seed=1) == \
                simulate_drive(record, ahead, make_policy(kind), 1000.0, seed=1)


def reference_runtime(policy, seed, start_s=0.0):
    """A runtime that draws scalar uniforms straight from the policy's stream."""
    return PolicyRuntime(policy, rng=substream(seed, f"transfer-{policy.kind}"),
                         last_tx_s=start_s)


def reference_speeds(trace):
    """The speed per trace point, one step at a time."""
    speeds = []
    for i in range(len(trace)):
        j = max(i, 1)
        (t0, x0, y0), (t1, x1, y1) = trace[j - 1], trace[j]
        speeds.append(math.hypot(x1 - x0, y1 - y0) / max(t1 - t0, 1e-9))
    return speeds


def reference_decide(runtime, now_s, buffer, phi_now, forecast=None):
    """``decide`` as it was with a per-probe forecast list of (t, value)."""
    pol = runtime.policy
    if pol.kind == "periodic":
        return now_s - runtime.last_tx_s >= pol.periodic_interval_s
    age = buffer.age(now_s)
    u = runtime.rng.random()
    if age >= pol.t_max_s:
        return True
    if pol.predictive:
        if forecast is None:
            raise PolicyError(f"{pol.kind} requires a forecast")
        future = [v for t, v in forecast if t > now_s]
        if future and max(future) > pol.gamma * phi_now:
            return False
    p = transmission_probability(phi_now, pol.phi_min, pol.phi_max, pol.alpha)
    return u < p


def reference_drive(trace, scene, policy, sensor_rate_bytes_s, seed, predictor=None,
                    windows=None):
    """``simulate_drive`` as it was: each probe looks the window up on the map
    and predicts every value in it; SINR and serving RSRP straight from
    ``sinr_rsrp_at``. Appends each probe's later points (the ones ``decide``
    kept) to ``windows``."""
    if len(trace) < 2:
        raise PolicyError("trace must span more than one second")
    predictor = predictor or RatePredictor()
    runtime = reference_runtime(policy, seed, start_s=trace[0][0])
    noise_rng = substream(seed, "transfer-noise")
    buf = BufferState()
    speeds = reference_speeds(trace)
    log = []
    generated = transferred = 0.0
    tx_time = tx_energy = 0.0
    ages = []
    n_tx = n_retx = 0
    probe_every = max(1.0, policy.t_min_s)
    j = 0
    last_probe_s = None
    for i in range(1, len(trace)):
        t, x, y = trace[i]
        if t < trace[i - 1][0]:
            raise PolicyError(f"trace time goes backwards at index {i}: {t}")
        pos = (x, y)
        speed = speeds[i]
        buf.queued_bytes += sensor_rate_bytes_s
        generated += sensor_rate_bytes_s
        if buf.oldest_ts is None:
            buf.oldest_ts = t
        if last_probe_s is not None and t - last_probe_s < probe_every:
            continue
        last_probe_s = t
        sinr, rsrp = sinr_rsrp_at(pos, scene.stations, scene.noise_dbm, scene.model)
        if policy.metric_is_rate:
            phi = predictor.predict(sinr, buf.queued_bytes, speed)
        else:
            phi = sinr
        forecast = None
        if policy.predictive:
            if scene.map is None:
                raise PolicyError(f"{policy.kind} needs a forecast of the connectivity map")
            j = max(j, i)
            while j < len(trace) and trace[j][0] - t <= policy.lookahead_s:
                j += 1
            forecast = list(zip([p[0] for p in trace[i:j]],
                                forecast_along(scene.map, trace[i:j])))
            if windows is not None:
                windows.append([p for p in trace[i:j] if p[0] > t])
            if policy.metric_is_rate:
                forecast = [(ft, predictor.predict(fv, buf.queued_bytes, speed))
                            for ft, fv in forecast]
        if reference_decide(runtime, t, buf, phi, forecast) and buf.queued_bytes > 0:
            payload = buf.queued_bytes
            noise = math.exp(noise_rng.normal(0.0, transfer.RATE_NOISE_SIGMA) -
                             transfer.RATE_NOISE_SIGMA ** 2 / 2.0)
            actual_rate = max(predictor.formula_rate(sinr, payload) * noise, 1e-6)
            attempts = 2 if noise_rng.random() < transfer._loss_probability(sinr) else 1
            duration = payload * 8.0 / (actual_rate * 1e6) * attempts
            pathloss = max(s.tx_power_dbm for s in scene.stations) - rsrp
            e_tx = duration * transfer._tx_power_w(pathloss)
            ages.append(buf.age(t))
            n_tx += 1
            n_retx += attempts - 1
            transferred += payload
            tx_time += duration
            tx_energy += e_tx
            buf.queued_bytes = 0.0
            buf.oldest_ts = None
            runtime.last_tx_s = t
            log.append({"t": t, "phi_metric": phi, "decision": "transmit",
                        "bytes": payload, "duration_s": duration, "energy_j": e_tx,
                        "sinr_db": sinr, "rate_mbps": actual_rate,
                        "payload_bytes": payload, "speed_mps": speed,
                        "attempts": attempts})
        else:
            log.append({"t": t, "phi_metric": phi, "decision": "defer", "bytes": 0.0,
                        "duration_s": 0.0, "energy_j": 0.0, "sinr_db": sinr,
                        "rate_mbps": 0.0, "payload_bytes": buf.queued_bytes,
                        "speed_mps": speed, "attempts": 0})
    wall = trace[-1][0] - trace[0][0]
    idle_time = max(wall - tx_time, 0.0)
    metrics = TransferMetrics(
        mean_goodput_mbps=(transferred * 8.0 / tx_time / 1e6) if tx_time > 0 else 0.0,
        total_energy_j=tx_energy + idle_time * transfer.P_IDLE_W,
        transmissions=n_tx,
        mean_buffer_age_s=sum(ages) / len(ages) if ages else 0.0,
        retransmissions=n_retx,
        bytes_generated=generated,
        bytes_transferred=transferred,
        bytes_buffered_end=buf.queued_bytes,
    )
    return metrics, log


def two_station_scene():
    """Shadowed scene with a crowdsensed map: noisy, uneven sample counts, so
    lookups take every rung of the fallback chain."""
    scene = MappedScene([BaseStation("a", (6000.0, 0.0)),
                         BaseStation("b", (1500.0, 400.0), tx_power_dbm=30.0)],
                        model=PropagationModel(seed=4))
    rng = np.random.default_rng(5)
    cmap = ConnectivityMap()
    for _, x, y in line_trace((0.0, 0.0), (10.0, 0.0), 600):
        sinr = sinr_rsrp_at((x, y), scene.stations, scene.noise_dbm, scene.model)[0]
        for _ in range(int(rng.integers(0, 4))):
            cmap.record((x, y), sinr + float(rng.normal(0.0, 3.0)))
    scene.map = cmap
    return scene


def uneven_trace():
    """Irregular gaps, repeated times (at one position) and a detour in y."""
    rng = np.random.default_rng(6)
    t = 0
    trace = [(0, 0.0, 0.0)]
    for _ in range(300):
        t += int(rng.choice([0, 0, 1, 1, 1, 2, 3, 6, 11]))
        trace.append((t, 10.0 * t, 40.0 * math.sin(t / 20.0)))
    return trace


def half_filled_table():
    """Learned table over the bins the drives probe, half of them filled with
    rates unrelated to SINR, so the table is far from monotone."""
    rng = np.random.default_rng(9)
    table = {(s, p, v): (1, float(rng.uniform(0.5, 40.0)))
             for s in range(-15, 35) for p in range(10, 24) for v in range(0, 6)
             if rng.random() < 0.5}
    return RatePredictor(kind="learned_table", table=table)


def make_policy(kind, **kwargs):
    make = sinr_policy if kind in ("cat", "pcat") else TransferPolicy
    return make(kind=kind, **kwargs)


TRACES = {"line": lambda: line_trace((0.0, 0.0), (10.0, 0.0), 300), "uneven": uneven_trace}
PREDICTORS = {"formula": RatePredictor, "learned": half_filled_table}


def outcome(run, *args, **kwargs):
    """(metrics, log), or the PolicyError message."""
    try:
        return run(*args, **kwargs)
    except PolicyError as exc:
        return f"PolicyError: {exc}"


class TestForecastAgainstReference:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("pred_name", sorted(PREDICTORS))
    @pytest.mark.parametrize("kind", transfer.POLICY_KINDS)
    def test_equal_to_per_probe_forecast(self, kind, pred_name, trace_name):
        scene, trace = two_station_scene(), TRACES[trace_name]()
        predictor = PREDICTORS[pred_name]()
        for lookahead in (0.0, 1.0, 8.0, 30.0):
            for t_min in (1.0, 5.0):
                pol = make_policy(kind, lookahead_s=lookahead, t_min_s=t_min)
                args = (trace, scene, pol, 10_000.0, 21)
                want = reference_drive(*args, predictor=predictor)
                assert drive(*args, predictor=predictor) == want
                if pred_name == "learned" and pol.metric_is_rate:
                    assert any(predictor.bin_of(r["sinr_db"], r["payload_bytes"],
                                                r["speed_mps"]) in predictor.table
                               for r in want[1])

    @pytest.mark.parametrize("kind", ["pcat", "ml_pcat"])
    def test_nan_prior_empty_map(self, kind):
        scene = two_station_scene()
        scene.map = ConnectivityMap(prior=math.nan)
        pol = make_policy(kind)
        for trace in (TRACES["line"](), uneven_trace()):
            want = outcome(reference_drive, trace, scene, pol, 10_000.0, 3)
            assert outcome(drive, trace, scene, pol, 10_000.0, 3) == want
            if kind == "ml_pcat":
                assert want == "PolicyError: non-finite feature nan"
            else:
                assert want[0].transmissions > 0

    def test_non_finite_cell_raises_where_it_did(self):
        # a non-finite cell under the trace's first point only is never in a probe's
        # window; one under a later point is, from the first probe that reaches it
        trace = [(0, -500.0, 0.0)] + line_trace((0.0, 0.0), (10.0, 0.0), 200, t0=1.0)
        for x, raises in ((-500.0, False), (1200.0, True)):
            scene = two_station_scene()
            scene.map.cells[scene.map.cell_of((x, 0.0))] = (5, math.inf, 0.0)
            for kind in ("pcat", "ml_pcat"):
                for lookahead in (0.0, 8.0):
                    pol = make_policy(kind, lookahead_s=lookahead, t_min_s=5.0)
                    want = outcome(reference_drive, trace, scene, pol, 10_000.0, 4)
                    assert outcome(drive, trace, scene, pol, 10_000.0, 4) == want
                    assert isinstance(want, str) == (raises and kind == "ml_pcat")


class TestDriveInvariants:
    @pytest.mark.parametrize("kind", transfer.POLICY_KINDS)
    def test_map_unchanged(self, kind):
        scene = two_station_scene()
        before = (dict(scene.map.cells), scene.map._global_count, scene.map._global_mean)
        for trace in (TRACES["line"](), uneven_trace()):
            drive(trace, scene, make_policy(kind), 10_000.0, seed=8,
                  predictor=half_filled_table())
        assert (scene.map.cells, scene.map._global_count, scene.map._global_mean) == before

    def test_each_point_worked_out_once(self, monkeypatch):
        # the radio values of every point are worked out once, in trace order, when the
        # record of the trace is made, and a point standing where the point before it
        # stood takes that point's values; every policy then drives the record twice
        # and works out none
        scene, trace = two_station_scene(), uneven_trace()
        positions = []
        original = radio_env._Link.sinr_rsrp

        def counting(link, x, y, shadow_db):
            positions.append((x, y))
            return original(link, x, y, shadow_db)

        monkeypatch.setattr(radio_env._Link, "sinr_rsrp", counting)
        record = TraceRecord(trace, scene.stations, scene.noise_dbm, scene.model)
        ahead = forecast_along(scene.map, trace)
        for _ in range(2):
            for kind in transfer.POLICY_KINDS:
                for t_min in (5.0, 1.0):
                    simulate_drive(record, ahead, make_policy(kind, t_min_s=t_min), 10_000.0,
                                   seed=8)
        distinct = [p[1:] for i, p in enumerate(trace) if not i or p[1:] != trace[i - 1][1:]]
        assert positions == distinct
        positions.clear()
        standing = [(t, 10.0, 0.0) for t in range(601)]
        drive(standing, scene, TransferPolicy(kind="periodic"), 10_000.0, seed=8)
        assert positions == [(10.0, 0.0)]

    def test_formula_rate_keeps_its_bits(self):
        def old_formula(sinr_db, payload_bytes):
            # efficiency 0.3, 20 MHz, 100 Mbit/s cap, 100 kB payload ramp
            lin = 10.0 ** (sinr_db / 10.0)
            rate = 0.3 * (20e6 / 1e6) * math.log2(1.0 + lin)
            rate = min(100.0, rate)
            s = min(1.0, payload_bytes / 100_000.0)
            return rate * s

        rng = np.random.default_rng(10)
        pred = RatePredictor()
        # up to 60 dB: the cap binds from about 50 dB
        for sinr, payload in rng.uniform([-30.0, 0.0], [60.0, 3e5], size=(4000, 2)):
            got = pred.formula_rate(float(sinr), float(payload))
            assert got.hex() == old_formula(float(sinr), float(payload)).hex()


class TestUniformDraws:
    """``decide`` draws through the block reader exactly the scalar draws of the
    policy's stream, one per call of a cat-family kind and none for periodic."""

    @given(seed=st.integers(0, 2 ** 32 - 1), before=st.integers(0, 6),
           calls=st.lists(st.tuples(st.sampled_from(transfer.POLICY_KINDS),
                                    st.floats(-2.0, 2.0), st.floats(-20.0, 45.0),
                                    st.one_of(st.just(-math.inf), st.floats(-20.0, 45.0))),
                          min_size=10, max_size=60))
    # ages on both sides of t_max, phis outside the bounds, a window with no points
    @example(seed=3, before=0, calls=[(kind, age, phi, peak) for kind in transfer.POLICY_KINDS
                                     for age, phi, peak in ((-1.0, -9.0, -math.inf),
                                                            (0.0, 12.0, 40.0),
                                                            (1.0, 41.0, 2.0))])
    def test_decisions_across_a_block_boundary(self, seed, before, calls):
        t_max, now = 50.0, 1000.0
        policies = {kind: make_policy(kind, t_max_s=t_max) for kind in transfer.POLICY_KINDS}
        fast = {kind: PolicyRuntime.create(pol, seed) for kind, pol in policies.items()}
        slow = {kind: reference_runtime(pol, seed) for kind, pol in policies.items()}
        # each stream stops `before` draws short of its first block's end
        for kind in transfer.POLICY_KINDS:
            for _ in range(Uniforms.BLOCK - before):
                assert fast[kind].rng.random() == slow[kind].rng.random()
        for kind, age_offset, phi, peak in calls:
            buf = BufferState(queued_bytes=1.0, oldest_ts=now - (t_max + age_offset))
            pred = policies[kind].predictive
            got = decide(fast[kind], now, buf, phi, peak if pred else None)
            want = reference_decide(slow[kind], now, buf, phi,
                                    [(now + 1.0, peak)] if pred else None)
            assert got == want
        # the next draw of every stream is the same: each decide took as many
        for kind in transfer.POLICY_KINDS:
            assert fast[kind].rng.random() == slow[kind].rng.random()


def python_max(values, k, j):
    return max(values[k:j], default=-math.inf)


class TestWindowPeak:
    """The sliding-window peak is ``max`` over the window, NaN and infinities as
    ``max`` has them."""

    def test_nan_and_infinities(self):
        nan, inf = math.nan, math.inf
        values = [1.0, nan, 3.0, 2.0, nan, -inf, inf, 0.5, nan, -1.0, -inf, 0.0, -0.0, 0.0]
        windows = [(0, 0), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (3, 6), (4, 6), (5, 6), (5, 7),
                   (6, 9), (7, 9), (8, 10), (9, 11), (10, 11), (11, 14), (12, 14), (14, 14)]
        peaks = transfer._WindowPeak(values)
        for k, j in windows:
            assert repr(peaks.peak(k, j)) == repr(python_max(values, k, j)), (k, j)
        # a NaN at the start is the result; one inside is skipped
        assert math.isnan(python_max(values, 1, 3)) and python_max(values, 0, 3) == 3.0

    @given(values=st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                            1.0, 2.0, -3.0]), max_size=40),
           steps=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8)), max_size=30))
    def test_against_max(self, values, steps):
        peaks, k, j = transfer._WindowPeak(values), 0, 0
        for dk, dj in steps:
            j = min(j + dj, len(values))
            k = min(k + dk, j)
            assert repr(peaks.peak(k, j)) == repr(python_max(values, k, j))


class TestDriveLog:
    """A drive's log reads as the list of dicts the drive loop built for each probe
    before it kept one flat tuple per probe (``reference_drive`` builds them so)."""

    @given(kind=st.sampled_from(transfer.POLICY_KINDS),
           gaps=st.lists(st.sampled_from([0, 1, 1, 1, 2, 3, 7]), min_size=1, max_size=80),
           lookahead=st.sampled_from([0.0, 1.0, 8.0, 30.0]), t_min=st.sampled_from([1.0, 5.0]),
           learned=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(deadline=None)
    def test_reads_as_the_list_of_dicts(self, kind, gaps, lookahead, t_min, learned, seed,
                                        data):
        t, trace = 0, [(0, 0.0, 0.0)]
        for gap in gaps:
            t += gap
            trace.append((t, 10.0 * t, 40.0 * math.sin(t / 20.0)))
        pol = make_policy(kind, lookahead_s=lookahead, t_min_s=t_min)
        predictor = half_filled_table() if learned else None
        args = (trace, two_station_scene(), pol, 10_000.0, seed)
        metrics, log = drive(*args, predictor=predictor)
        want_metrics, rows = reference_drive(*args, predictor=predictor)
        assert isinstance(log, transfer.DriveLog) and metrics == want_metrics
        n = len(rows)
        assert len(log) == n
        assert list(log) == rows and log == rows and rows == log and not log != rows
        assert repr(log) == repr(rows)
        assert log != rows + [rows[0] if rows else {}] and log != tuple(rows)
        for index in (data.draw(st.integers(-n - 2, n + 1)), -1, 0, n):
            if -n <= index < n:
                assert log[index] == rows[index]
                assert list(log[index]) == list(transfer.LOG_KEYS)
            else:
                with pytest.raises(IndexError):
                    log[index]
        bound = st.none() | st.integers(-n - 2, n + 2)
        window = slice(data.draw(bound), data.draw(bound),
                       data.draw(st.none() | st.sampled_from([1, 2, 3, -1, -2])))
        assert log[window] == rows[window] and repr(log[window]) == repr(rows[window])
        # a row a caller changes is the caller's own copy
        for row in list(log) + log[:] + [log[i] for i in range(n)]:
            row["bytes"] = -1.0
            row.clear()
        assert log == rows and repr(log) == repr(rows)

    def test_csv_rows_are_the_dict_columns(self, tmp_path):
        # the CSV of several drives' logs is what the writer made of their dict rows
        scene, trace = two_station_scene(), uneven_trace()
        logs = [drive(trace, scene, make_policy(kind), 10_000.0, seed=8)[1]
                for kind in transfer.POLICY_KINDS]
        transfer.write_log_csv(tmp_path / "log.csv", logs)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(transfer.LOG_FIELDS)
            for row in (row for log in logs for row in log):
                writer.writerow([row[k] for k in transfer.LOG_FIELDS])
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert sum(len(log) for log in logs) > 200
