"""Vehicle classification from roadside radio fingerprints.

Three transmitter/receiver rows face each other across the road; a passing
vehicle shadows the nine links, and the depth/duration pattern of the
attenuation identifies the vehicle class. A synthetic generator stands in
for a field deployment: each class has a height that sets how strongly each
link row is shadowed, and the attenuation window lasts length/speed seconds.

Classification uses four analytic features per link (36 total) and a linear
max-margin model trained by hinge-loss subgradient descent with an L1 or L2
penalty.

Synthesis and features run as array passes over blocks of ``_BLOCK`` traces,
and training computes ``X @ w`` once per epoch for both the objective and
the subgradient; each gives the same bits as one numpy call chain per trace.
Each trace still draws its noise from its own substream, and one call seeds
them all in one pass (``rng.substreams``). Two steps stay per row or per
record because a fused form rounds differently: the dip area is one pairwise
sum per link row, since a segmented sum (``np.add.reduceat``) adds left to
right; and ``evaluate`` and ``class_shares`` take each record's decision as
its own dot product, since a matrix-vector product can round a decision near
zero to the other class.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import substream, substreams
from .schema import Field

SENSOR_HEIGHTS_M = (0.5, 1.0, 1.5)
N_LINKS = 9
SAMPLE_RATE_HZ = 10.0
TRACE_SECONDS = 8.0
DIP_THRESHOLD_DB = 3.0

CAR_LIKE = "car_like"
TRUCK_LIKE = "truck_like"
# label -> (vehicle height m, vehicle length m, peak shadowing depth dB)
CLASS_SHAPES = {
    CAR_LIKE: (1.5, 4.5, 12.0),
    TRUCK_LIKE: (3.8, 12.0, 17.0),
}
_EDGE_SMOOTH_S = 0.08
# traces per array pass; a block's largest array (16 x 9 x 80 doubles, 90 KiB) stays
# small, as blocks of 64 raised the peak RSS of a demo run by about 1.5 MB
_BLOCK = 16

# the fingerprint stage's settings; the functions below check their arguments by them
SETTINGS = {"count": Field(500, ge=1), "noise_sigma_db": Field(2.0, ge=0),
            "mix": Field(0.5, ge=0, le=1), "holdout_fraction": Field(0.2, ge=0, lt=1),
            "lam": Field(1e-3, ge=0), "epochs": Field(250, ge=1)}
REG = Field(str, choices=("l1", "l2"), name="reg")
_SPEED = Field(float, gt=0)  # of a synthesized pass


class FingerprintError(ValueError):
    """Bad trace, dataset or setting."""


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


def synthesize(labels, speeds, noise_sigma_db: float, seeds) -> list:
    """One synthetic pass of a vehicle per (label, speed, seed), in blocks of traces.

    The attenuation window is centered in the trace and lasts length/speed
    seconds with raised-cosine edges; depth per link follows the class height
    profile; Gaussian noise is added per sample, drawn from the trace's own
    substream of its seed. Deterministic under the seeds.
    """
    labels, speeds, seeds = list(labels), list(speeds), list(seeds)
    if not len(labels) == len(speeds) == len(seeds):
        raise FingerprintError("labels, speeds and seeds differ in length")
    for label, speed in zip(labels, speeds):
        if label not in CLASS_SHAPES:
            raise FingerprintError(f"unknown label {label!r}")
        _SPEED.check(speed, "speed", FingerprintError)
    SETTINGS["noise_sigma_db"].check(noise_sigma_db, "noise_sigma_db", FingerprintError)
    n = int(TRACE_SECONDS * SAMPLE_RATE_HZ)
    t = np.arange(n) / SAMPLE_RATE_HZ
    mid = TRACE_SECONDS / 2.0
    depths = {label: _link_depths(label) for label in CLASS_SHAPES}
    baselines = -45.0 - 1.2 * np.arange(N_LINKS)
    noise = (substreams(seeds, (f"fingerprint-{label}" for label in labels))
             if noise_sigma_db > 0 else None)
    traces = []
    for start in range(0, len(labels), _BLOCK):
        block = range(start, min(start + _BLOCK, len(labels)))
        widths = [CLASS_SHAPES[labels[i]][1] / speeds[i] for i in block]
        width = np.array(widths)[:, None]
        lo, hi = mid - width / 2.0, mid + width / 2.0
        window = ((t >= lo) & (t <= hi)).astype(float)
        ramp_in = (t >= lo - _EDGE_SMOOTH_S) & (t < lo)
        ramp_out = (t > hi) & (t <= hi + _EDGE_SMOOTH_S)
        window[ramp_in] = 0.5 * (1 + np.cos(math.pi * (lo - t)[ramp_in] / _EDGE_SMOOTH_S))
        window[ramp_out] = 0.5 * (1 + np.cos(math.pi * (t - hi)[ramp_out] / _EDGE_SMOOTH_S))
        depth = np.array([depths[labels[i]] for i in block])
        rssi = baselines[:, None] - depth[:, :, None] * window[:, None, :]
        for row, i in zip(rssi, block):
            if noise is not None:
                row += next(noise).normal(0.0, noise_sigma_db, size=row.shape)
            traces.append(FingerprintTrace(rssi_dbm=row, sample_rate_hz=SAMPLE_RATE_HZ,
                                           label=labels[i], speed_mps=speeds[i],
                                           dip_width_s=widths[i - start], seed=seeds[i]))
    return traces


@dataclass
class FeatureRecord:
    values: np.ndarray          # 36 features: (depth, mean, width, area) x 9 links
    label: str | None = None


def extract_features(traces):
    """Per-link depth/mean/width/area against the leading baseline.

    Takes a sequence of FingerprintTraces and gives their FeatureRecords in
    order, computed in blocks of traces of one length and sample rate.
    Baseline = mean of the first 10 % of samples.
    Width counts samples whose attenuation meets DIP_THRESHOLD_DB; area
    integrates attenuation over those samples only.
    """
    records = []
    for (n, rate), group in itertools.groupby(
            traces, key=lambda tr: (tr.rssi_dbm.shape[1], tr.sample_rate_hz)):
        head = n // 10
        if head < 1:
            raise FingerprintError("trace shorter than the baseline window")
        dt = 1.0 / rate
        group = list(group)
        for start in range(0, len(group), _BLOCK):
            block = group[start:start + _BLOCK]
            atten = np.stack([tr.rssi_dbm for tr in block])
            np.subtract(atten[:, :, :head].mean(axis=2)[:, :, None], atten, out=atten)
            dip = atten >= DIP_THRESHOLD_DB
            peak = atten.max(axis=2)
            counts = np.count_nonzero(dip, axis=2)
            # the area sums each row's dip samples alone: a masked sum over the
            # whole row adds the zeros in and rounds differently
            dips = atten[dip]
            ends = np.cumsum(counts).tolist()
            area = np.array([dips[a:e].sum() for a, e in zip([0] + ends[:-1], ends)])
            feats = np.stack((np.where(peak < 0.0, 0.0, peak), atten.mean(axis=2),
                              counts * dt, area.reshape(counts.shape) * dt), axis=2)
            records.extend(FeatureRecord(values=row, label=tr.label)
                           for row, tr in zip(feats.reshape(len(block), -1), block))
    return records


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


def _objective(margins, w, reg, lam):
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
    REG.check(reg, "reg", FingerprintError)
    SETTINGS["lam"].check(lam, "lam", FingerprintError)
    SETTINGS["epochs"].check(epochs, "epochs", FingerprintError)
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
    best = (math.inf, w, b)
    curve = []
    # the objective is taken before each step and after the last; every step makes
    # a new w, so the best iterate is kept without a copy
    for t in range(1, epochs + 2):
        margins = y * (X @ w + b)
        obj = _objective(margins, w, reg, lam)
        curve.append(obj)
        if obj < best[0]:
            best = (obj, w, b)
        if t > epochs:
            break
        lr = 1.0 / math.sqrt(t)
        viol = margins < 1.0
        if viol.any():
            y_viol = y[viol]
            g_w = -(y_viol @ X[viol]) / n
            g_b = -float(np.sum(y_viol)) / n
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
    SETTINGS["count"].check(count, "count", FingerprintError)
    SETTINGS["noise_sigma_db"].check(noise_sigma_db, "noise_sigma_db", FingerprintError)
    SETTINGS["mix"].check(mix, "mix", FingerprintError)
    rng = substream(seed, "fingerprint-corpus")
    labels, speeds, seeds = [], [], []
    for _ in range(count):
        labels.append(CAR_LIKE if rng.random() < mix else TRUCK_LIKE)
        speeds.append(float(rng.uniform(15.0, 35.0)))
        seeds.append(int(rng.integers(0, 2 ** 31)))
    return synthesize(labels, speeds, noise_sigma_db, seeds)


def split_corpus(traces, holdout_fraction: float, seed: int):
    SETTINGS["holdout_fraction"].check(holdout_fraction, "holdout_fraction", FingerprintError)
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
