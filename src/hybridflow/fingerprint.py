"""Vehicle classification from roadside radio fingerprints.

Three transmitter/receiver rows face each other across the road; a passing
vehicle shadows the nine links, and the depth/duration pattern of the
attenuation identifies the vehicle class. A synthetic generator stands in
for a field deployment: each class has a height that sets how strongly each
link row is shadowed, and the attenuation window lasts length/speed seconds.

Classification uses four analytic features per link (36 total) and a linear
max-margin model trained by hinge-loss subgradient descent with an L1 or L2
penalty.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import substream

SENSOR_HEIGHTS_M = (0.5, 1.0, 1.5)
N_LINKS = 9
SAMPLE_RATE_HZ = 10.0
TRACE_SECONDS = 8.0
DIP_THRESHOLD_DB = 3.0

CAR_LIKE = "car_like"
TRUCK_LIKE = "truck_like"
LABELS = (CAR_LIKE, TRUCK_LIKE)
# label -> (vehicle height m, vehicle length m, peak shadowing depth dB)
CLASS_SHAPES = {
    CAR_LIKE: (1.5, 4.5, 12.0),
    TRUCK_LIKE: (3.8, 12.0, 17.0),
}
_EDGE_SMOOTH_S = 0.08


class FingerprintError(ValueError):
    """Bad trace or dataset."""


@dataclass
class FingerprintTrace:
    rssi_dbm: np.ndarray        # shape (9, n_samples)
    sample_rate_hz: float
    label: str
    speed_mps: float
    dip_width_s: float          # analytic attenuation-window duration
    seed: int

    def __post_init__(self):
        if self.rssi_dbm.shape[0] != N_LINKS or self.rssi_dbm.shape[1] < 2:
            raise FingerprintError("trace must hold nine link series of length >= 2")
        if not np.all(np.isfinite(self.rssi_dbm)):
            raise FingerprintError("trace contains non-finite RSSI values")


def link_heights():
    """Effective shadowing height of each TX(i)->RX(j) link, row-major."""
    return [
        (SENSOR_HEIGHTS_M[i] + SENSOR_HEIGHTS_M[j]) / 2.0
        for i in range(3) for j in range(3)
    ]


def _link_depths(label: str) -> np.ndarray:
    height, _, peak = CLASS_SHAPES[label]
    depths = []
    for h_link in link_heights():
        frac = max(0.0, 1.0 - h_link / height)
        depths.append(peak * frac ** 0.7)
    return np.array(depths)


def synthesize_trace(label: str, speed_mps: float, noise_sigma_db: float,
                     seed: int) -> FingerprintTrace:
    """One synthetic pass of a vehicle of the given class.

    The attenuation window is centered in the trace and lasts length/speed
    seconds with raised-cosine edges; depth per link follows the class height
    profile; Gaussian noise is added per sample. Deterministic under seed.
    """
    if label not in CLASS_SHAPES:
        raise FingerprintError(f"unknown label {label!r}")
    if speed_mps <= 0:
        raise FingerprintError("speed must be positive")
    rng = substream(seed, f"fingerprint-{label}")
    n = int(TRACE_SECONDS * SAMPLE_RATE_HZ)
    t = np.arange(n) / SAMPLE_RATE_HZ
    _, length_m, _ = CLASS_SHAPES[label]
    width = length_m / speed_mps
    mid = TRACE_SECONDS / 2.0
    lo, hi = mid - width / 2.0, mid + width / 2.0
    window = np.ones(n)
    window[t < lo] = 0.0
    window[t > hi] = 0.0
    ramp_in = (t >= lo - _EDGE_SMOOTH_S) & (t < lo)
    ramp_out = (t > hi) & (t <= hi + _EDGE_SMOOTH_S)
    window[ramp_in] = 0.5 * (1 + np.cos(math.pi * (lo - t[ramp_in]) / _EDGE_SMOOTH_S))
    window[ramp_out] = 0.5 * (1 + np.cos(math.pi * (t[ramp_out] - hi) / _EDGE_SMOOTH_S))
    depths = _link_depths(label)
    baselines = -45.0 - 1.2 * np.arange(N_LINKS)
    rssi = baselines[:, None] - depths[:, None] * window[None, :]
    if noise_sigma_db > 0:
        rssi = rssi + rng.normal(0.0, noise_sigma_db, size=rssi.shape)
    return FingerprintTrace(rssi_dbm=rssi, sample_rate_hz=SAMPLE_RATE_HZ, label=label,
                            speed_mps=speed_mps, dip_width_s=width, seed=seed)


@dataclass
class FeatureRecord:
    values: np.ndarray          # 36 features: (depth, mean, width, area) x 9 links
    label: str | None = None


def extract_features(trace: FingerprintTrace) -> FeatureRecord:
    """Per-link depth/mean/width/area against the leading baseline.

    Baseline = mean of the first 10 % of samples. Width counts samples whose
    attenuation meets DIP_THRESHOLD_DB; area integrates attenuation over those
    samples only.
    """
    n = trace.rssi_dbm.shape[1]
    head = n // 10
    if head < 1:
        raise FingerprintError("trace shorter than the baseline window")
    dt = 1.0 / trace.sample_rate_hz
    rssi = trace.rssi_dbm
    atten = rssi[:, :head].mean(axis=1)[:, None] - rssi
    dip = atten >= DIP_THRESHOLD_DB
    peak = atten.max(axis=1)
    # the area sums each row's dip samples alone: a masked sum over the whole
    # row adds the zeros in and rounds differently
    area = np.array([np.sum(a[d]) for a, d in zip(atten, dip)])
    feats = np.column_stack((np.where(peak < 0.0, 0.0, peak), atten.mean(axis=1),
                             np.count_nonzero(dip, axis=1) * dt, area * dt))
    return FeatureRecord(values=feats.ravel(), label=trace.label)


def _as_matrix(records):
    X = np.vstack([r.values for r in records])
    y = np.array([1.0 if r.label == CAR_LIKE else -1.0 for r in records])
    return X, y


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    reg: str
    lam: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    objective_curve: list = field(default_factory=list)

    def decision(self, values: np.ndarray) -> float:
        z = (values - self.feature_mean) / self.feature_scale
        return float(z @ self.weights + self.bias)

    def predict(self, record: FeatureRecord) -> str:
        return CAR_LIKE if self.decision(record.values) >= 0 else TRUCK_LIKE


def _objective(w, b, X, y, reg, lam):
    margins = y * (X @ w + b)
    hinge = np.mean(np.maximum(0.0, 1.0 - margins))
    if reg == "l1":
        return hinge + lam * np.sum(np.abs(w))
    return hinge + lam / 2.0 * float(w @ w)


def train(records, reg: str, lam: float, epochs: int) -> LinearModel:
    """Hinge-loss subgradient descent, step 1/sqrt(t), on normalized features.

    L1 soft-thresholds the weights after each epoch, L2 decays them inside
    the step. Returns the best iterate by penalized objective, so the final
    objective never exceeds the first epoch's. Deterministic (batch updates).
    """
    if reg not in ("l1", "l2"):
        raise FingerprintError(f"regularization must be l1 or l2, got {reg!r}")
    records = list(records)
    labels = {r.label for r in records}
    if len(labels) < 2:
        raise FingerprintError("training needs both labels present")
    X_raw, y = _as_matrix(records)
    mean = X_raw.mean(axis=0)
    scale = X_raw.std(axis=0)
    scale[scale < 1e-12] = 1.0
    X = (X_raw - mean) / scale
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    best = (math.inf, w.copy(), b)
    curve = []
    for t in range(1, epochs + 1):
        obj = _objective(w, b, X, y, reg, lam)
        curve.append(obj)
        if obj < best[0]:
            best = (obj, w.copy(), b)
        lr = 1.0 / math.sqrt(t)
        margins = y * (X @ w + b)
        viol = margins < 1.0
        if np.any(viol):
            g_w = -(y[viol] @ X[viol]) / n
            g_b = -float(np.sum(y[viol])) / n
        else:
            g_w = np.zeros(d)
            g_b = 0.0
        if reg == "l2":
            w = w - lr * (g_w + lam * w)
            b = b - lr * g_b
        else:
            w = w - lr * g_w
            b = b - lr * g_b
            w = np.sign(w) * np.maximum(np.abs(w) - lr * lam, 0.0)
    obj = _objective(w, b, X, y, reg, lam)
    curve.append(obj)
    if obj < best[0]:
        best = (obj, w.copy(), b)
    return LinearModel(weights=best[1], bias=best[2], reg=reg, lam=lam,
                       feature_mean=mean, feature_scale=scale, objective_curve=curve)


@dataclass
class ConfusionMatrix:
    cc: int
    ct: int
    tc: int
    tt: int

    @property
    def total(self):
        return self.cc + self.ct + self.tc + self.tt

    @property
    def accuracy(self):
        return (self.cc + self.tt) / self.total

    def to_dict(self):
        return {"cc": self.cc, "ct": self.ct, "tc": self.tc, "tt": self.tt,
                "accuracy": self.accuracy}


def evaluate(model: LinearModel, records) -> ConfusionMatrix:
    """Confusion counts in C/T layout: rows true class, columns prediction."""
    records = list(records)
    if not records:
        raise FingerprintError("cannot evaluate on an empty dataset")
    cc = ct = tc = tt = 0
    for r in records:
        pred = model.predict(r)
        if r.label == CAR_LIKE:
            if pred == CAR_LIKE:
                cc += 1
            else:
                ct += 1
        else:
            if pred == CAR_LIKE:
                tc += 1
            else:
                tt += 1
    return ConfusionMatrix(cc, ct, tc, tt)


def class_shares(records, model: LinearModel) -> dict:
    """Observed class mix of a stream of feature records; feeds lane-policy decisions."""
    counts = {CAR_LIKE: 0, TRUCK_LIKE: 0}
    total = 0
    for record in records:
        counts[model.predict(record)] += 1
        total += 1
    if total == 0:
        return {CAR_LIKE: 0.0, TRUCK_LIKE: 0.0}
    return {k: v / total for k, v in counts.items()}


# ---------------------------------------------------------------------------
# corpus generation and I/O

def generate_corpus(count: int, noise_sigma_db: float, mix: float, seed: int):
    """``count`` traces, ``mix`` fraction car-like, speeds uniform in 15-35 m/s."""
    rng = substream(seed, "fingerprint-corpus")
    traces = []
    for i in range(count):
        label = CAR_LIKE if rng.random() < mix else TRUCK_LIKE
        speed = float(rng.uniform(15.0, 35.0))
        traces.append(synthesize_trace(label, speed, noise_sigma_db,
                                       seed=int(rng.integers(0, 2 ** 31))))
    return traces


def split_corpus(traces, holdout_fraction: float, seed: int):
    rng = substream(seed, "fingerprint-split")
    idx = rng.permutation(len(traces))
    n_hold = int(len(traces) * holdout_fraction)
    hold = [traces[i] for i in idx[:n_hold]]
    train_set = [traces[i] for i in idx[n_hold:]]
    return train_set, hold


def write_corpus(traces, out_dir) -> None:
    """CSV per trace (t, rssi_1..rssi_9) plus a manifest with labels/speeds."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for i, trace in enumerate(traces):
        name = f"trace_{i:05d}.csv"
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"rssi_{k + 1}" for k in range(N_LINKS)])
            for s in range(trace.rssi_dbm.shape[1]):
                writer.writerow([s / trace.sample_rate_hz]
                                + [repr(float(v)) for v in trace.rssi_dbm[:, s]])
        manifest.append({"file": name, "label": trace.label,
                         "speed_mps": trace.speed_mps, "seed": trace.seed})
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
