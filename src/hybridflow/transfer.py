"""Opportunistic car-to-cloud transfer of buffered sensor data.

Sensor bytes accrue in a local buffer; a policy decides each probe whether to
flush. The probabilistic gate maps the decision metric (measured SINR or a
predicted data rate) through

    p = ((phi - phi_min) / (phi_max - phi_min)) ** alpha

so transmissions concentrate where the metric is high; a maximum buffer age
forces a flush regardless. Predictive variants additionally defer while the
forecast along the vehicle's trajectory beats the current metric by a
hysteresis factor. A drive takes the times, speeds, SINR and serving RSRP of
its trace points from the trace's ``radio_env.TraceRecord``, and a predictive
one its map forecast as a list of values, one per trace point; the transfer
stage holds one record and one forecast per trace. Each probe reads only the
peak of its look-ahead window, so a drive costs a constant per trace point
under every policy; its log keeps a flat tuple per probe and makes a row's dict
only when the row is read (README's "Notes on scale").
"""

from __future__ import annotations

import bisect
import csv
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from .rng import Uniforms, substream
from .schema import Field, check_fields, ranged

POLICY_KINDS = ("periodic", "cat", "pcat", "ml_cat", "ml_pcat")
RATE_NOISE_SIGMA = 0.15  # log-sd of the lognormal noise on each flush's achieved rate
# rate formula: efficiency x bandwidth x log2(1 + SINR), capped, and scaled down
# for payloads below the ramp, which underutilize the link
EFFICIENCY, BANDWIDTH_MHZ, RATE_CAP_MBPS = 0.3, 20.0, 100.0
PAYLOAD_RAMP_BYTES = 100_000.0
# energy: an affine open-loop power map (higher path loss, higher transmit
# power) and a loss probability that ramps up below an SINR floor
P_TX_MIN_W, P_TX_MAX_W = 0.1, 2.0
PATHLOSS_LO_DB, PATHLOSS_HI_DB = 90.0, 150.0
P_IDLE_W = 0.05
LOSS_FLOOR_DB, LOSS_RAMP_DB, LOSS_P_MAX = 0.0, 10.0, 0.9


class PolicyError(ValueError):
    """Bad policy configuration or missing inputs."""


# the bytes a vehicle's sensors produce per second, an argument of simulate_drive
SENSOR_RATE = Field(10_000.0, gt=0)


@dataclass(frozen=True)
class TransferPolicy:
    kind: str = ranged("ml_cat", choices=POLICY_KINDS)
    alpha: float = ranged(4.0, gt=0)
    phi_min: float = 0.0
    phi_max: float = 30.0
    t_min_s: float = ranged(1.0, gt=0)
    t_max_s: float = 120.0
    periodic_interval_s: float = ranged(30.0, gt=0)
    lookahead_s: float = ranged(30.0, ge=0)
    gamma: float = ranged(1.2, ge=1)
    predictive: bool = field(init=False, repr=False, compare=False)
    metric_is_rate: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, PolicyError)
        if not self.phi_min < self.phi_max:
            raise PolicyError(f"degenerate metric bounds [{self.phi_min}, {self.phi_max}]")
        if not self.t_min_s <= self.t_max_s:
            raise PolicyError("need t_min <= t_max")
        object.__setattr__(self, "predictive", self.kind in ("pcat", "ml_pcat"))
        object.__setattr__(self, "metric_is_rate", self.kind in ("ml_cat", "ml_pcat"))


def sinr_policy(kind: str, **kwargs) -> TransferPolicy:
    """SINR-metric policy with the dB default bounds."""
    kwargs.setdefault("phi_min", -5.0)
    kwargs.setdefault("phi_max", 30.0)
    return TransferPolicy(kind=kind, **kwargs)


def transmission_probability(phi: float, phi_min: float, phi_max: float,
                             alpha: float) -> float:
    """Probability gate; phi is clamped into [phi_min, phi_max]."""
    if not phi_min < phi_max:
        raise PolicyError(f"degenerate metric bounds [{phi_min}, {phi_max}]")
    if phi < phi_min:  # a NaN stays NaN, as min(max(phi, phi_min), phi_max) keeps it
        phi = phi_min
    elif phi > phi_max:
        phi = phi_max
    return ((phi - phi_min) / (phi_max - phi_min)) ** alpha


@dataclass
class RatePredictor:
    """Achievable-rate model: spectral-efficiency formula or learned bin table.

    The learned table maps (2 dB SINR bins x power-of-two payload bins x
    5 m/s speed bins) to the mean observed rate and falls back to the formula
    for empty bins.
    """

    kind: str = "sinr_formula"
    table: dict = field(default_factory=dict)

    def link_rate(self, sinr_db: float) -> float:
        """Capped spectral-efficiency rate in Mbit/s, before the payload factor."""
        try:
            lin = 10.0 ** (sinr_db / 10.0)
        except OverflowError:
            raise PolicyError(f"SINR {sinr_db} dB overflows the rate formula") from None
        rate = EFFICIENCY * BANDWIDTH_MHZ * math.log2(1.0 + lin)
        return rate if rate < RATE_CAP_MBPS else RATE_CAP_MBPS  # NaN -> cap, as min() gave

    def payload_factor(self, payload_bytes: float) -> float:
        scale = payload_bytes / PAYLOAD_RAMP_BYTES
        return scale if scale < 1.0 else 1.0

    def formula_rate(self, sinr_db: float, payload_bytes: float) -> float:
        return self.link_rate(sinr_db) * self.payload_factor(payload_bytes)

    @staticmethod
    def bin_of(sinr_db: float, payload_bytes: float, speed_mps: float) -> tuple:
        return (math.floor(sinr_db / 2.0),
                math.floor(math.log2(max(payload_bytes, 1.0))),
                math.floor(speed_mps / 5.0))

    def predict(self, sinr_db: float, payload_bytes: float, speed_mps: float) -> float:
        if not (math.isfinite(sinr_db) and math.isfinite(payload_bytes)
                and math.isfinite(speed_mps)):
            bad = next(v for v in (sinr_db, payload_bytes, speed_mps) if not math.isfinite(v))
            raise PolicyError(f"non-finite feature {bad}")
        if self.kind == "learned_table":
            entry = self.table.get(self.bin_of(sinr_db, payload_bytes, speed_mps))
            if entry is not None:
                return entry[1]
        return self.formula_rate(sinr_db, payload_bytes)

    def peak_rate(self, sinrs, payload_bytes: float, speed_mps: float) -> float:
        """Highest predicted rate over a window of finite SINRs; -inf if it is empty."""
        return max((self.predict(v, payload_bytes, speed_mps) for v in sinrs),
                   default=-math.inf)


def train_predictor(log_rows) -> RatePredictor:
    """Binned-mean table from observed transmissions.

    Rows need sinr_db, payload_bytes (the flushed amount), speed_mps and the
    achieved rate_mbps; each bin predicts exactly the mean of its samples.
    """
    rows = list(log_rows)
    if not rows:
        raise PolicyError("cannot train a rate predictor from an empty log")
    table = {}
    for row in rows:
        key = RatePredictor.bin_of(row["sinr_db"], row["payload_bytes"], row["speed_mps"])
        count, mean = table.get(key, (0, 0.0))
        count += 1
        mean += (row["rate_mbps"] - mean) / count
        table[key] = (count, mean)
    return RatePredictor(kind="learned_table", table=table)


@dataclass
class BufferState:
    queued_bytes: float = 0.0
    oldest_ts: float | None = None

    def age(self, now_s: float) -> float:
        return 0.0 if self.oldest_ts is None else now_s - self.oldest_ts


@dataclass
class PolicyRuntime:
    """Per-vehicle mutable policy state: its uniforms and its flush clock."""

    policy: TransferPolicy
    rng: object
    last_tx_s: float = 0.0

    @classmethod
    def create(cls, policy, seed, start_s: float = 0.0):
        return cls(policy=policy, rng=Uniforms(substream(seed, f"transfer-{policy.kind}")),
                   last_tx_s=start_s)


def decide(runtime: PolicyRuntime, now_s: float, buffer: BufferState,
           phi_now: float, peak=None) -> bool:
    """True = transmit, False = defer.

    ``peak`` is the highest forecast metric at the trace points after
    ``now_s`` within the look-ahead (-inf when there is none); predictive
    policies defer while it beats ``phi_now`` by the hysteresis factor.
    cat-family calls consume exactly one uniform regardless of the outcome so
    that runs with different alphas stay draw-aligned.
    """
    pol = runtime.policy
    if pol.kind == "periodic":
        return now_s - runtime.last_tx_s >= pol.periodic_interval_s
    age = 0.0 if buffer.oldest_ts is None else now_s - buffer.oldest_ts
    u = runtime.rng.random()
    if age >= pol.t_max_s:
        return True
    if pol.predictive:
        if peak is None:
            raise PolicyError(f"{pol.kind} requires a forecast")
        if peak > pol.gamma * phi_now:
            return False
    p = transmission_probability(phi_now, pol.phi_min, pol.phi_max, pol.alpha)
    return u < p


def _tx_power_w(pathloss_db: float) -> float:
    frac = (pathloss_db - PATHLOSS_LO_DB) / (PATHLOSS_HI_DB - PATHLOSS_LO_DB)
    return P_TX_MIN_W + (P_TX_MAX_W - P_TX_MIN_W) * min(max(frac, 0.0), 1.0)


def _loss_probability(sinr_db: float) -> float:
    if sinr_db >= LOSS_FLOOR_DB:
        return 0.0
    return min((LOSS_FLOOR_DB - sinr_db) / LOSS_RAMP_DB, 1.0) * LOSS_P_MAX


@dataclass
class TransferMetrics:
    mean_goodput_mbps: float
    total_energy_j: float
    transmissions: int
    mean_buffer_age_s: float
    retransmissions: int
    bytes_generated: float
    bytes_transferred: float
    bytes_buffered_end: float


class _WindowPeak:
    """``max(values[k:j], default=-inf)`` for windows whose ends never move back.

    A deque holds the indices of the window's non-increasing run of non-NaN
    values, the earliest of equal ones first, so each value enters and leaves
    it once. As with ``max``, a NaN at the window's start is the result and
    later NaNs are skipped.
    """

    __slots__ = ("values", "_run", "_end")

    def __init__(self, values):
        self.values, self._run, self._end = values, deque(), 0

    def peak(self, k: int, j: int) -> float:
        values, run, end = self.values, self._run, self._end
        if end < j:
            for m in range(end if end > k else k, j):
                v = values[m]
                if v == v:
                    while run and values[run[-1]] < v:
                        run.pop()
                    run.append(m)
            self._end = j
        if k >= j:
            return -math.inf
        first = values[k]
        if first != first:
            return first
        while run[0] < k:
            run.popleft()
        return values[run[0]]


def simulate_drive(record, forecast, policy: TransferPolicy, sensor_rate_bytes_s: float,
                   seed: int, predictor: RatePredictor | None = None):
    """Walk a timed trace at 1 s resolution under one transfer policy.

    ``record`` is the trace's ``radio_env.TraceRecord``; ``forecast`` is the
    map's value at every trace point (``radio_env.forecast_along``), or None,
    which only a non-predictive policy takes. Returns (TransferMetrics, decision
    log). Flushes drain the whole buffer at the rate the formula yields on the
    true SINR, with multiplicative lognormal noise; deep-fade transmissions may
    need one retransmission, doubling that payload's airtime and energy. Each
    probe of a predictive policy reads the peak of its look-ahead window, the
    later points within ``lookahead_s``, from a ``_WindowPeak``; it rejects a
    trace with a non-finite time. The policy flags and link rates are worked out
    once per drive. The log is a DriveLog.
    """
    times, speeds, sinrs, rsrps = record.times, record.speeds, record.sinr, record.rsrp
    n = len(times)
    if n < 2:
        raise PolicyError("trace must span more than one second")
    SENSOR_RATE.check(sensor_rate_bytes_s, "sensor_rate_bytes_s", PolicyError)
    predictor = predictor or RatePredictor()
    runtime = PolicyRuntime.create(policy, seed, start_s=times[0])
    noise_rng = substream(seed, "transfer-noise")
    buf = BufferState()
    is_rate, predictive = policy.metric_is_rate, policy.predictive
    learned = predictor.kind == "learned_table"
    rows = []
    generated = transferred = 0.0
    tx_time = tx_energy = 0.0
    ages = []
    n_tx = n_retx = 0
    probe_every = max(1.0, policy.t_min_s)
    lookahead_s = policy.lookahead_s
    k = j = 0  # trace[k:j] is the look-ahead: the points after t within lookahead_s of it
    links = nonfinite = window = None  # per trace point, read once
    last_probe_s = None
    for i in range(1, n):
        t = times[i]
        if t < times[i - 1]:
            raise PolicyError(f"trace time goes backwards at index {i}: {t}")
        buf.queued_bytes += sensor_rate_bytes_s
        generated += sensor_rate_bytes_s
        if buf.oldest_ts is None:
            buf.oldest_ts = t
        if last_probe_s is not None and t - last_probe_s < probe_every:
            continue
        last_probe_s = t
        speed = speeds[i]
        sinr = sinrs[i]
        phi = predictor.predict(sinr, buf.queued_bytes, speed) if is_rate else sinr
        peak = None
        if predictive:
            if window is None:
                if forecast is None:
                    raise PolicyError(f"{policy.kind} needs a forecast of the connectivity map")
                if len(forecast) != n:
                    raise PolicyError(f"forecast of {len(forecast)} values for {n} trace points")
                if not all(map(math.isfinite, times)):
                    raise PolicyError("trace has a non-finite time")
                if is_rate:
                    links = [predictor.link_rate(v) for v in forecast]
                    nonfinite = [m for m, v in enumerate(forecast) if not math.isfinite(v)]
                # for a non-negative payload x -> fl(x * s) is monotone
                # non-decreasing, so the formula's peak is the peak link rate
                # times the payload factor
                window = _WindowPeak(links if is_rate else forecast)
            if j < i:
                j = i
            while j < n and times[j] - t <= lookahead_s:
                j += 1
            if k < i:
                k = i
            while k < j and times[k] <= t:
                k += 1
            if not is_rate:
                peak = window.peak(k, j)
            else:
                # predict used to see every point of trace[i:j], those at t too
                b = bisect.bisect_left(nonfinite, i)
                if b < len(nonfinite) and nonfinite[b] < j:
                    raise PolicyError(f"non-finite feature {forecast[nonfinite[b]]}")
                if learned:
                    peak = predictor.peak_rate(forecast[k:j], buf.queued_bytes, speed)
                elif k < j:
                    peak = window.peak(k, j) * predictor.payload_factor(buf.queued_bytes)
                else:
                    peak = -math.inf
        if decide(runtime, t, buf, phi, peak) and buf.queued_bytes > 0:
            payload = buf.queued_bytes
            noise = math.exp(noise_rng.normal(0.0, RATE_NOISE_SIGMA) -
                             RATE_NOISE_SIGMA ** 2 / 2.0)
            actual_rate = max(predictor.formula_rate(sinr, payload) * noise, 1e-6)
            attempts = 2 if noise_rng.random() < _loss_probability(sinr) else 1
            duration = payload * 8.0 / (actual_rate * 1e6) * attempts
            e_tx = duration * _tx_power_w(record.max_tx_dbm - rsrps[i])
            ages.append(buf.age(t))
            n_tx += 1
            n_retx += attempts - 1
            transferred += payload
            tx_time += duration
            tx_energy += e_tx
            buf.queued_bytes = 0.0
            buf.oldest_ts = None
            runtime.last_tx_s = t
            rows.append((t, phi, "transmit", payload, duration, e_tx, sinr, actual_rate,
                         payload, speed, attempts))
        else:
            rows.append((t, phi, "defer", 0.0, 0.0, 0.0, sinr, 0.0, buf.queued_bytes, speed, 0))
    wall = times[-1] - times[0]
    idle_time = max(wall - tx_time, 0.0)
    return TransferMetrics(
        mean_goodput_mbps=(transferred * 8.0 / tx_time / 1e6) if tx_time > 0 else 0.0,
        total_energy_j=tx_energy + idle_time * P_IDLE_W,
        transmissions=n_tx,
        mean_buffer_age_s=sum(ages) / len(ages) if ages else 0.0,
        retransmissions=n_retx,
        bytes_generated=generated,
        bytes_transferred=transferred,
        bytes_buffered_end=buf.queued_bytes,
    ), DriveLog(rows)


LOG_KEYS = ("t", "phi_metric", "decision", "bytes", "duration_s", "energy_j", "sinr_db",
            "rate_mbps", "payload_bytes", "speed_mps", "attempts")
LOG_FIELDS = LOG_KEYS[:7]  # the columns of the CSV log


class DriveLog(Sequence):
    """The decision log of one drive, read-only: one flat tuple of LOG_KEYS's values
    per probe, read (by index, slice or iteration) as a fresh dict of LOG_KEYS. It is
    equal to, and has the repr of, the list of those dicts."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, index):
        rows = self._rows[index]
        return list(DriveLog(rows)) if isinstance(index, slice) else dict(zip(LOG_KEYS, rows))

    def __iter__(self):
        return (dict(zip(LOG_KEYS, row)) for row in self._rows)

    def __eq__(self, other):  # another DriveLog answers through list's reflected ==
        return list(self) == other

    def __repr__(self):
        return repr(list(self))

    def transmissions(self) -> list:
        """The rows of the probes that transmitted, as dicts."""
        return [dict(zip(LOG_KEYS, row)) for row in self._rows if row[2] == "transmit"]


def write_log_csv(path, logs) -> None:
    """The LOG_FIELDS of every row of each DriveLog of logs, in order, as one CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_FIELDS)
        writer.writerows(row[:len(LOG_FIELDS)] for log in logs for row in log._rows)


def line_trace(start, velocity_mps, duration_s, t0: float = 0.0):
    """Straight constant-velocity trace sampled at 1 Hz."""
    sx, sy = start
    vx, vy = velocity_mps
    return [(t0 + k, sx + vx * k, sy + vy * k) for k in range(int(duration_s) + 1)]
