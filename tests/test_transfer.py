import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridflow import transfer
from hybridflow.radio_env import BaseStation, ConnectivityMap, PropagationModel, RadioScene
from hybridflow.transfer import (BufferState, EnergyModel, PolicyError, PolicyRuntime,
                                 RatePredictor, TransferPolicy, decide, line_trace,
                                 simulate_drive, sinr_policy, train_predictor,
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

    def test_empty_table_falls_back(self):
        learned = RatePredictor(kind="learned_table")
        formula = RatePredictor()
        for sinr, payload, speed in [(0.0, 1e6, 10.0), (13.0, 2e4, 3.0), (-4.0, 5e5, 25.0)]:
            assert (learned.predict(sinr, payload, speed)
                    == formula.predict(sinr, payload, speed))

    def test_payload_ramp(self):
        pred = RatePredictor(payload_ramp_bytes=100_000.0)
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
        forecast = [(11.0, 20.0), (12.0, 20.0)]
        assert decide(rt, 10.0, buf, phi_now=10.0, forecast=forecast) is False

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


def good_bad_scene(with_map=False):
    """Station 6 km down the road: first half of the drive is a deep fade."""
    scene = RadioScene([BaseStation("bs", (6000.0, 0.0), tx_power_dbm=43.0)],
                       noise_dbm=-100.0,
                       model=PropagationModel(shadowing_enabled=False))
    if with_map:
        cmap = ConnectivityMap(metric="sinr_db")
        for t, x, y in line_trace((0.0, 0.0), (10.0, 0.0), 600):
            for _ in range(3):
                cmap.record((x, y), scene.sinr((x, y)))
        scene.map = cmap
    return scene


class TestSimulateDrive:
    def test_periodic_constant_channel(self):
        # perfect channel held by parking next to the station
        scene = RadioScene([BaseStation("bs", (0.0, 0.0))], noise_dbm=-100.0,
                           model=PropagationModel(shadowing_enabled=False))
        trace = [(t, 10.0, 0.0) for t in range(601)]
        pol = TransferPolicy(kind="periodic", periodic_interval_s=30.0)
        metrics, log = simulate_drive(trace, scene, pol, 10_000.0, seed=5)
        assert metrics.transmissions == 20
        tx_rows = [r for r in log if r["decision"] == "transmit"]
        assert all(r["bytes"] == pytest.approx(300_000.0) for r in tx_rows)

    def test_ml_cat_moves_bytes_to_good_phase(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = TransferPolicy(kind="ml_cat", t_max_s=600.0)
        metrics, log = simulate_drive(trace, scene, pol, 10_000.0, seed=7)
        good = sum(r["bytes"] for r in log if r["decision"] == "transmit" and r["t"] > 300)
        total = sum(r["bytes"] for r in log if r["decision"] == "transmit")
        assert total > 0
        assert good / total >= 0.9

    def test_deterministic_metrics(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = sinr_policy("cat", t_max_s=120.0)
        a = simulate_drive(trace, scene, pol, 10_000.0, seed=11)
        b = simulate_drive(trace, scene, pol, 10_000.0, seed=11)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_energy_recomputable_from_log(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = TransferPolicy(kind="ml_cat", t_max_s=90.0)
        em = EnergyModel()
        metrics, log = simulate_drive(trace, scene, pol, 10_000.0, seed=13, energy=em)
        tx_time = sum(r["duration_s"] for r in log)
        recomputed = sum(r["energy_j"] for r in log) + max(600.0 - tx_time, 0.0) * em.p_idle_w
        assert metrics.total_energy_j == pytest.approx(recomputed, abs=1e-9)

    def test_byte_conservation(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        for kind in ("periodic", "cat", "ml_cat"):
            pol = sinr_policy(kind) if kind in ("cat", "pcat") else TransferPolicy(kind=kind)
            metrics, _ = simulate_drive(trace, scene, pol, 10_000.0, seed=17)
            assert metrics.bytes_generated == pytest.approx(
                metrics.bytes_transferred + metrics.bytes_buffered_end)

    def test_freshness_bound(self):
        scene = good_bad_scene()
        trace = line_trace((0.0, 0.0), (10.0, 0.0), 600)
        pol = sinr_policy("cat", t_max_s=45.0)
        metrics, log = simulate_drive(trace, scene, pol, 10_000.0, seed=19)
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
        cat_m, _ = simulate_drive(trace, scene, TransferPolicy(kind="ml_cat", t_max_s=600.0),
                                  10_000.0, seed=23)
        pcat_m, _ = simulate_drive(trace, scene, TransferPolicy(kind="ml_pcat", t_max_s=600.0),
                                   10_000.0, seed=23)
        assert pcat_m.mean_goodput_mbps >= cat_m.mean_goodput_mbps

    def test_short_trace_rejected(self):
        scene = good_bad_scene()
        with pytest.raises(PolicyError):
            simulate_drive([(0, 0.0, 0.0)], scene, TransferPolicy(kind="periodic"),
                           1000.0, seed=1)

    def test_backwards_trace_rejected(self):
        scene = good_bad_scene()
        trace = [(0, 0.0, 0.0), (1, 10.0, 0.0), (3, 30.0, 0.0), (2, 20.0, 0.0)]
        with pytest.raises(PolicyError, match="backwards"):
            simulate_drive(trace, scene, TransferPolicy(kind="periodic"), 1000.0, seed=1)

    def test_lookahead_is_the_horizon_slice(self, monkeypatch):
        # uneven spacing and repeated times: each forecast sees exactly the
        # rest of the trace within lookahead_s of the probe
        trace = [(t, 10.0 * t, 0.0) for t in (0, 1, 1, 2, 5, 9, 9, 10, 14, 30, 31, 33, 40, 41)]
        seen = []
        original = transfer.forecast_along

        def recording(cmap, trajectory, horizon_s):
            seen.append(list(trajectory))
            return original(cmap, trajectory, horizon_s)

        monkeypatch.setattr(transfer, "forecast_along", recording)
        pol = TransferPolicy(kind="ml_pcat", t_min_s=1.0, lookahead_s=8.0)
        _, log = simulate_drive(trace, good_bad_scene(with_map=True), pol, 1000.0, seed=3)
        probes = [r["t"] for r in log]
        assert len(seen) == len(probes) > 5
        for t, got in zip(probes, seen):
            i = next(k for k in range(1, len(trace)) if trace[k][0] == t)
            assert got == [p for p in trace[i:] if p[0] - t <= 8.0]
