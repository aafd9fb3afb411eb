import itertools
import math

import numpy as np
import pytest

from hybridflow.fingerprint import (_BLOCK, _EDGE_SMOOTH_S, CAR_LIKE, CLASS_SHAPES, N_LINKS,
                                    SAMPLE_RATE_HZ, TRACE_SECONDS, TRUCK_LIKE, FeatureRecord,
                                    FingerprintTrace, _link_depths, class_shares, evaluate,
                                    extract_features, generate_corpus, link_heights,
                                    split_corpus, synthesize, train)
from hybridflow.rng import substream


def flat_trace(level=-50.0, n=80):
    return FingerprintTrace(rssi_dbm=np.full((9, n), level), sample_rate_hz=10.0,
                            label=CAR_LIKE, speed_mps=20.0, dip_width_s=0.0, seed=0)


def synthesize_trace(label, speed_mps, noise_sigma_db, seed):
    return synthesize([label], [speed_mps], noise_sigma_db, [seed])[0]


def synthesize_reference(label, speed_mps, noise_sigma_db, seed):
    """The per-trace synthesis the block pass replaced, kept as the bit-level reference."""
    rng = substream(seed, f"fingerprint-{label}")
    n = int(TRACE_SECONDS * SAMPLE_RATE_HZ)
    t = np.arange(n) / SAMPLE_RATE_HZ
    width = CLASS_SHAPES[label][1] / speed_mps
    mid = TRACE_SECONDS / 2.0
    lo, hi = mid - width / 2.0, mid + width / 2.0
    window = np.ones(n)
    window[t < lo] = 0.0
    window[t > hi] = 0.0
    ramp_in = (t >= lo - _EDGE_SMOOTH_S) & (t < lo)
    ramp_out = (t > hi) & (t <= hi + _EDGE_SMOOTH_S)
    window[ramp_in] = 0.5 * (1 + np.cos(math.pi * (lo - t[ramp_in]) / _EDGE_SMOOTH_S))
    window[ramp_out] = 0.5 * (1 + np.cos(math.pi * (t[ramp_out] - hi) / _EDGE_SMOOTH_S))
    baselines = -45.0 - 1.2 * np.arange(N_LINKS)
    rssi = baselines[:, None] - _link_depths(label)[:, None] * window[None, :]
    if noise_sigma_db > 0:
        rssi = rssi + rng.normal(0.0, noise_sigma_db, size=rssi.shape)
    return rssi, width


class TestSynthesize:
    def test_dip_width_is_length_over_speed(self):
        trace = synthesize_trace(CAR_LIKE, 20.0, 0.0, seed=1)
        assert trace.dip_width_s == pytest.approx(4.5 / 20.0)  # 0.225 s, every link

    def test_truck_attenuates_top_links_deeper(self):
        car = synthesize_trace(CAR_LIKE, 20.0, 0.0, seed=1)
        truck = synthesize_trace(TRUCK_LIKE, 20.0, 0.0, seed=1)
        heights = link_heights()
        for k in range(9):
            if heights[k] >= 1.25:  # links involving the top sensor row
                car_min = car.rssi_dbm[k].min() - car.rssi_dbm[k, 0]
                truck_min = truck.rssi_dbm[k].min() - truck.rssi_dbm[k, 0]
                assert truck_min < car_min

    def test_deterministic_under_seed(self):
        a = synthesize_trace(CAR_LIKE, 23.0, 2.0, seed=99)
        b = synthesize_trace(CAR_LIKE, 23.0, 2.0, seed=99)
        assert np.array_equal(a.rssi_dbm, b.rssi_dbm)
        c = synthesize_trace(CAR_LIKE, 23.0, 2.0, seed=100)
        assert not np.array_equal(a.rssi_dbm, c.rssi_dbm)

    def test_rejects_bad_inputs(self):
        from hybridflow.fingerprint import FingerprintError
        for args in (([CAR_LIKE], [20.0], 2.0, []), (["bus"], [20.0], 2.0, [1]),
                     ([CAR_LIKE], [0.0], 2.0, [1]), ([CAR_LIKE], [20.0], -1.0, [1])):
            with pytest.raises(FingerprintError):
                synthesize(*args)


@pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("noise_sigma_db", [0.0, 2.0])
def test_blocks_bit_identical_to_per_trace_references(count, noise_sigma_db):
    # a block boundary must not change a bit of a trace or of its features
    corpus = generate_corpus(count, noise_sigma_db, 0.5, seed=count)
    records = extract_features(corpus)
    assert len(corpus) == len(records) == count
    for trace, record in zip(corpus, records):
        rssi, width = synthesize_reference(trace.label, trace.speed_mps, noise_sigma_db,
                                           trace.seed)
        assert np.array_equal(trace.rssi_dbm, rssi) and trace.dip_width_s == width
        assert np.array_equal(record.values, TestExtractFeatures.per_link_reference(trace))
        assert record.label == trace.label


class TestExtractFeatures:
    def test_flat_trace_all_zero(self):
        feats = extract_features([flat_trace()])[0]
        assert np.allclose(feats.values, 0.0)

    def test_rectangular_dip_closed_form(self):
        # 6 dB for exactly 1 s at 10 Hz -> depth 6, width 1.0, area 6.0
        rssi = np.full((9, 80), -50.0)
        rssi[:, 40:50] = -56.0
        trace = FingerprintTrace(rssi_dbm=rssi, sample_rate_hz=10.0, label=CAR_LIKE,
                                 speed_mps=20.0, dip_width_s=1.0, seed=0)
        feats = extract_features([trace])[0]
        for k in range(9):
            depth, mean, width, area = feats.values[4 * k: 4 * k + 4]
            assert depth == pytest.approx(6.0)
            assert width == pytest.approx(1.0)
            assert area == pytest.approx(6.0)

    def test_matches_independent_reimplementation(self):
        # plain-python second pass over the same definition
        trace = synthesize_trace(CAR_LIKE, 24.0, 1.5, seed=7)
        feats = extract_features([trace])[0]
        n = trace.rssi_dbm.shape[1]
        head = n // 10
        dt = 0.1
        for k in range(9):
            series = [float(v) for v in trace.rssi_dbm[k]]
            baseline = sum(series[:head]) / head
            atten = [baseline - v for v in series]
            depth = max(max(atten), 0.0)
            mean = sum(atten) / n
            below = [a for a in atten if a >= 3.0]
            width = len(below) * dt
            area = sum(below) * dt
            got = feats.values[4 * k: 4 * k + 4]
            assert got[0] == pytest.approx(depth, abs=1e-9)
            assert got[1] == pytest.approx(mean, abs=1e-9)
            assert got[2] == pytest.approx(width, abs=1e-9)
            assert got[3] == pytest.approx(area, abs=1e-9)

    def test_translation_invariance(self):
        trace = synthesize_trace(TRUCK_LIKE, 18.0, 2.0, seed=3)
        shifted = FingerprintTrace(rssi_dbm=trace.rssi_dbm + 7.5,
                                   sample_rate_hz=10.0, label=TRUCK_LIKE,
                                   speed_mps=18.0, dip_width_s=trace.dip_width_s, seed=3)
        a, b = (r.values for r in extract_features([trace, shifted]))
        assert np.allclose(a, b, atol=1e-9)

    def test_too_short_trace_rejected(self):
        from hybridflow.fingerprint import FingerprintError
        with pytest.raises(FingerprintError):
            extract_features([flat_trace(n=8)])
        with pytest.raises(FingerprintError):
            extract_features([flat_trace(), flat_trace(n=8)])

    def test_mixed_lengths_keep_their_order(self):
        traces = [flat_trace(n=80), synthesize_trace(TRUCK_LIKE, 18.0, 2.0, seed=3),
                  flat_trace(n=40), flat_trace(n=80)]
        traces[2].rssi_dbm[:, 20:25] -= 6.0
        records = extract_features(traces)
        assert [r.values.tolist() for r in records] == [
            self.per_link_reference(t).tolist() for t in traces]

    @staticmethod
    def per_link_reference(trace, threshold_db=3.0):
        """The per-link loop the array pass replaced, kept as the bit-level reference."""
        head = trace.rssi_dbm.shape[1] // 10
        dt = 1.0 / trace.sample_rate_hz
        feats = np.empty(36)
        for k in range(9):
            series = trace.rssi_dbm[k]
            atten = float(np.mean(series[:head])) - series
            dip = atten >= threshold_db
            feats[4 * k] = max(float(np.max(atten)), 0.0)
            feats[4 * k + 1] = float(np.mean(atten))
            feats[4 * k + 2] = float(np.count_nonzero(dip)) * dt
            feats[4 * k + 3] = float(np.sum(atten[dip])) * dt
        return feats

    @pytest.mark.parametrize("noise_sigma_db", [0.0, 2.0, 6.0])
    def test_bit_identical_to_per_link_loop(self, noise_sigma_db):
        corpus = generate_corpus(60, noise_sigma_db, 0.5, seed=11)
        assert {t.label for t in corpus} == {CAR_LIKE, TRUCK_LIKE}
        for trace, record in zip(corpus, extract_features(corpus)):
            assert np.array_equal(record.values, self.per_link_reference(trace))
        flat = flat_trace()
        assert np.array_equal(extract_features([flat])[0].values, self.per_link_reference(flat))


def toy_separable_dataset():
    """2-feature toy set; separability is oracle-verified below."""
    pts_pos = [(2.0, 2.0), (3.0, 2.5), (2.5, 3.5), (4.0, 3.0)]
    pts_neg = [(-2.0, -1.0), (-3.0, -2.0), (-2.5, -2.5), (-1.5, -3.0)]
    records = []
    for x, y in pts_pos:
        records.append(FeatureRecord(values=np.array([x, y]), label=CAR_LIKE))
    for x, y in pts_neg:
        records.append(FeatureRecord(values=np.array([x, y]), label=TRUCK_LIKE))
    return records


def test_toy_set_is_linearly_separable_oracle():
    # exhaustive search over line angles/offsets confirms a separating line
    records = toy_separable_dataset()
    found = False
    for theta in np.linspace(0, np.pi, 360):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = {label: [] for label in (CAR_LIKE, TRUCK_LIKE)}
        for r in records:
            proj[r.label].append(float(w @ r.values))
        if min(proj[CAR_LIKE]) > max(proj[TRUCK_LIKE]) or \
           min(proj[TRUCK_LIKE]) > max(proj[CAR_LIKE]):
            found = True
            break
    assert found


class TestTrain:
    def test_separable_toy_set_perfect_training_accuracy(self):
        records = toy_separable_dataset()
        for reg in ("l1", "l2"):
            model = train(records, reg=reg, lam=1e-4, epochs=400)
            assert evaluate(model, records).accuracy == 1.0

    def test_huge_l1_penalty_zeroes_weights(self):
        records = toy_separable_dataset() + [
            FeatureRecord(values=np.array([1.0, 1.0]), label=CAR_LIKE),
            FeatureRecord(values=np.array([1.2, 0.8]), label=CAR_LIKE),
        ]
        model = train(records, reg="l1", lam=100.0, epochs=200)
        assert np.allclose(model.weights, 0.0)
        cm = evaluate(model, records)
        majority = max(6, 4) / 10
        assert cm.accuracy == pytest.approx(majority)

    def test_deterministic_weights(self):
        records = toy_separable_dataset()
        a = train(records, reg="l2", lam=1e-3, epochs=100)
        b = train(records, reg="l2", lam=1e-3, epochs=100)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_rejected(self):
        from hybridflow.fingerprint import FingerprintError
        records = [FeatureRecord(values=np.array([1.0, 2.0]), label=CAR_LIKE)] * 4
        with pytest.raises(FingerprintError):
            train(records, reg="l2", lam=1e-3, epochs=100)

    def test_objective_never_worse_than_first_epoch(self):
        corpus = generate_corpus(120, 2.0, 0.5, seed=31)
        records = extract_features(corpus)
        for reg in ("l1", "l2"):
            model = train(records, reg=reg, lam=1e-3, epochs=150)
            assert model.objective_curve[-1] <= model.objective_curve[0] + 1e-12

    def test_scaling_invariance_of_decisions(self):
        corpus = generate_corpus(80, 2.0, 0.5, seed=17)
        records = extract_features(corpus)
        model = train(records, reg="l2", lam=1e-3, epochs=200)
        scaled = [FeatureRecord(values=r.values * 3.0, label=r.label) for r in records]
        model_s = train(scaled, reg="l2", lam=1e-3, epochs=200)
        preds = [model.predict(r) for r in records]
        preds_s = [model_s.predict(r) for r in scaled]
        assert preds == preds_s


class TestEvaluate:
    def test_always_car_model(self):
        records = ([FeatureRecord(values=np.zeros(2), label=CAR_LIKE)] * 6 +
                   [FeatureRecord(values=np.zeros(2), label=TRUCK_LIKE)] * 4)
        model = train(toy_separable_dataset(), reg="l2", lam=1e-3, epochs=50)
        model.weights = np.zeros(2)
        model.bias = 1.0
        cm = evaluate(model, records)
        assert cm.accuracy == pytest.approx(0.6)
        assert (cm.cc, cm.ct, cm.tc, cm.tt) == (6, 0, 4, 0)

    def test_perfect_model_identity_confusion(self):
        records = toy_separable_dataset()
        model = train(records, reg="l2", lam=1e-4, epochs=400)
        cm = evaluate(model, records)
        assert cm.ct == 0 and cm.tc == 0
        assert cm.cc == 4 and cm.tt == 4


class TestClassShares:
    def model(self):
        corpus = generate_corpus(300, 2.0, 0.5, seed=41)
        return train(extract_features(corpus), reg="l2", lam=1e-3, epochs=200)

    def test_all_car_stream(self):
        model = self.model()
        stream = [synthesize_trace(CAR_LIKE, 20.0 + i, 0.0, seed=i) for i in range(10)]
        shares = class_shares(extract_features(stream), model)
        assert shares == {CAR_LIKE: 1.0, TRUCK_LIKE: 0.0}

    def test_alternating_stream(self):
        model = self.model()
        stream = list(itertools.chain.from_iterable(
            (synthesize_trace(CAR_LIKE, 20.0, 0.0, seed=i),
             synthesize_trace(TRUCK_LIKE, 20.0, 0.0, seed=i + 1000))
            for i in range(5)))
        shares = class_shares(extract_features(stream), model)
        assert shares == {CAR_LIKE: 0.5, TRUCK_LIKE: 0.5}

    def test_mixed_stream_matches_generation_ratio(self):
        model = self.model()
        stream = generate_corpus(400, 2.0, 0.7, seed=77)
        true_car = sum(1 for t in stream if t.label == CAR_LIKE) / len(stream)
        shares = class_shares(extract_features(stream), model)
        assert abs(shares[CAR_LIKE] - true_car) <= 0.05


class TestSettingsChecked:
    def test_generate_corpus(self):
        from hybridflow.fingerprint import FingerprintError
        for count, noise, mix in ((-5, 2.0, 0.5), (0, 2.0, 0.5), (10, -2.0, 0.5),
                                  (10, math.nan, 0.5), (10, 2.0, 1.5), (10, 2.0, -0.1)):
            with pytest.raises(FingerprintError):
                generate_corpus(count, noise, mix, seed=1)

    def test_split_corpus(self):
        from hybridflow.fingerprint import FingerprintError
        corpus = generate_corpus(10, 0.0, 0.5, seed=1)
        for fraction in (-0.2, 1.0, 1.5, math.nan):
            with pytest.raises(FingerprintError, match="holdout_fraction"):
                split_corpus(corpus, fraction, seed=1)
        assert [len(part) for part in split_corpus(corpus, 0.0, seed=1)] == [10, 0]

    def test_train(self):
        from hybridflow.fingerprint import FingerprintError
        records = toy_separable_dataset()
        for reg, lam, epochs in (("l3", 1e-3, 10), ("l2", -1.0, 10), ("l1", 1e-3, 0)):
            with pytest.raises(FingerprintError):
                train(records, reg=reg, lam=lam, epochs=epochs)


def test_mini_corpus_pipeline_accuracy():
    corpus = generate_corpus(400, 2.0, 0.5, seed=8)
    train_set, holdout = split_corpus(corpus, 0.2, seed=8)
    records = extract_features(train_set)
    held = extract_features(holdout)
    for reg in ("l1", "l2"):
        model = train(records, reg=reg, lam=1e-3, epochs=250)
        assert evaluate(model, held).accuracy >= 0.95


def test_full_pipeline_determinism():
    outs = []
    for _ in range(2):
        corpus = generate_corpus(100, 2.0, 0.5, seed=55)
        train_set, holdout = split_corpus(corpus, 0.2, seed=55)
        model = train(extract_features(train_set), reg="l2",
                      lam=1e-3, epochs=100)
        cm = evaluate(model, extract_features(holdout))
        outs.append((tuple(model.weights), model.bias, cm.to_dict()))
    assert outs[0] == outs[1]
