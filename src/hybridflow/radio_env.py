"""Radio environment: received power, SINR, crowdsensed connectivity map.

A log-distance path-loss model with lattice-hashed lognormal shadowing stands
in for a measured network. Each lattice cell draws from its own generator;
``PropagationModel.fill`` seeds the cells of many positions in one pass, with
the values a lookup would draw one cell at a time, and hands back each
position's shadowing. One per-point code (``_Link``, whose station, noise and
path-loss constants are set once) works out every RSRP and SINR. The
connectivity map keeps exact running statistics (Welford) per geographic grid
cell, takes a whole trace in one ``record_many`` call with the bits of one
``record`` call per point, and backs the trajectory forecasts used by the
predictive transfer policies. A ``TraceRecord`` holds the times, speeds, SINR
and serving RSRP of every point of one trace, all worked out in one pass when
it is made; the transfer stage holds one record and one forecast per trace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import generators
from .schema import ranged

D0_M = 10.0                  # path-loss reference distance
SHADOWING_LATTICE_M = 25.0   # side of the square on which shadowing is constant
CELL_SIZE_M = 25.0           # side of a connectivity-map cell
FALLBACK_RADIUS_CELLS = 2    # how far a thin cell's lookup searches for a populated one


@dataclass(frozen=True)
class BaseStation:
    id: str
    position: tuple
    tx_power_dbm: float = ranged(43.0, ge=-30, le=80)


@dataclass
class PropagationModel:
    """Log-distance path loss with optional lattice-hashed shadowing."""

    pl0_db: float = ranged(70.0, ge=0, le=200)  # at D0_M
    exponent: float = ranged(3.0, gt=0, le=10)
    shadowing_sigma_db: float = ranged(6.0, ge=0, le=30)
    shadowing_enabled: bool = True
    seed: int = 0
    _shadow_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def shadowing_db(self, pos) -> float:
        """The shadowing in dB at pos; a cell not drawn yet is drawn now."""
        return self.fill([pos])[0]

    def fill(self, positions) -> list:
        """The shadowing in dB at each of a list of positions. The lattice cells not
        drawn yet are all seeded in one pass, and each position's cell is worked out
        once."""
        if not self.shadowing_enabled or self.shadowing_sigma_db <= 0:
            return [0.0] * len(positions)
        floor, side = math.floor, SHADOWING_LATTICE_M
        keys = [(floor(x / side), floor(y / side)) for x, y in positions]
        cache = self._shadow_cache
        missing = dict.fromkeys(key for key in keys if key not in cache)
        if missing:
            self._draw(missing)
        return [cache[key] for key in keys]

    def _draw(self, keys) -> None:
        """One generator per cell, seeded by the model seed and the cell's offset indices."""
        rows = np.array([(self.seed & 0xFFFFFFFF, (kx + 2 ** 31) & 0xFFFFFFFF,
                          (ky + 2 ** 31) & 0xFFFFFFFF) for kx, ky in keys], dtype=np.uint32)
        for key, gen in zip(keys, generators(rows)):
            self._shadow_cache[key] = float(gen.normal(0.0, self.shadowing_sigma_db))


class _Link:
    """The per-point radio code of one set of stations, noise floor and path-loss
    model, with their constants worked out once: each station's coordinates and
    power, the noise power in mW, ``pl0_db`` and ``10 * exponent``. Every RSRP and
    SINR of the program is worked out here."""

    __slots__ = ("sites", "noise_mw", "pl0_db", "slope_db")

    def __init__(self, stations, noise_dbm: float, model: PropagationModel):
        if not stations:
            raise ValueError("need at least one station")
        self.sites = [(s.position[0], s.position[1], s.tx_power_dbm) for s in stations]
        self.noise_mw = 10.0 ** (noise_dbm / 10.0)
        self.pl0_db, self.slope_db = model.pl0_db, 10.0 * model.exponent

    def rsrp(self, x, y, shadow_db: float, site) -> float:
        """Received power in dBm from one of ``sites`` at (x, y) under the given
        shadowing; distance clamps at the reference D0_M."""
        sx, sy, tx = site
        d = math.hypot(x - sx, y - sy)
        return tx - (self.pl0_db + self.slope_db * math.log10((D0_M if d < D0_M else d) / D0_M)) \
            - shadow_db

    def sinr_rsrp(self, x, y, shadow_db: float) -> tuple:
        """(SINR in dB, serving RSRP in dBm): the strongest station serves, the rest
        interfere (linear domain). One pass over the stations, with the bits of
        max() over their lists; the powers are added by sum() itself, which from
        Python 3.12 on rounds otherwise than a loop adding left to right."""
        serving = best = None
        powers = []
        for site in self.sites:
            rsrp = self.rsrp(x, y, shadow_db, site)
            power = 10.0 ** (rsrp / 10.0)
            powers.append(power)
            if serving is None or power > serving:
                serving = power
            if best is None or rsrp > best:
                best = rsrp
        return 10.0 * math.log10(serving / (sum(powers) - serving + self.noise_mw)), best


def sinr_rsrp_at(pos, stations, noise_dbm: float, model: PropagationModel) -> tuple:
    """(SINR in dB, serving RSRP in dBm): the strongest station serves, the rest
    interfere (linear domain)."""
    link = _Link(stations, noise_dbm, model)
    return link.sinr_rsrp(pos[0], pos[1], model.shadowing_db(pos))


class TraceRecord:
    """The radio values of one (t, x, y) trace under one set of stations, noise
    floor and path-loss model, one entry per point, and the stations' maximum
    power (``max_tx_dbm``).

    ``times``, ``speeds``, ``sinr`` and ``rsrp`` (serving, dBm) are all set when
    the record is made, in one pass over the trace: the constants are worked out
    once, ``PropagationModel.fill`` seeds the trace's shadowing cells in one call
    and hands back each point's shadowing, and a point at the position of the
    point before it takes that point's values.
    """

    __slots__ = ("times", "speeds", "sinr", "rsrp", "max_tx_dbm")

    def __init__(self, trace, stations, noise_dbm, model):
        self.times = [p[0] for p in trace]
        # over the step that reaches each point, the first point taking the first step's;
        # max(dt, 1e-9), NaN included, without the call
        speeds = [math.hypot(x1 - x0, y1 - y0) / (1e-9 if t1 - t0 < 1e-9 else t1 - t0)
                  for (t0, x0, y0), (t1, x1, y1) in zip(trace, trace[1:])]
        self.speeds = speeds[:1] + speeds
        sinr_rsrp = _Link(stations, noise_dbm, model).sinr_rsrp
        self.max_tx_dbm = max(s.tx_power_dbm for s in stations)
        shadows = model.fill([(x, y) for _, x, y in trace])
        self.sinr, self.rsrp = sinrs, rsrps = [], []
        pos = None
        for (_, x, y), shadow in zip(trace, shadows):
            if (x, y) != pos:  # not standing still
                pos = (x, y)
                sinr, rsrp = sinr_rsrp(x, y, shadow)
            sinrs.append(sinr)
            rsrps.append(rsrp)


@dataclass
class RadioScene:
    """Stations + propagation + noise floor."""

    stations: list
    noise_dbm: float = ranged(-100.0, ge=-180, le=0)
    model: PropagationModel = field(default_factory=PropagationModel)

    def sinr(self, pos) -> float:
        return sinr_rsrp_at(pos, self.stations, self.noise_dbm, self.model)[0]


class ConnectivityMap:
    """Geographic grid of exact running statistics of the SINR in dB.

    ``cells`` maps a cell to (count, mean, M2) (Welford); the sample variance
    is M2 / (count - 1). The grid auto-extends: any position maps to a cell.
    Lookups on thin cells (fewer than ``k_min`` values) fall back to the
    nearest populated neighbor, then to the cell's own values, then to the
    global mean, then to the prior, so lookups are total.
    """

    def __init__(self, k_min: int = 3, prior: float = 0.0):
        self.k_min = k_min
        self.prior = prior
        self.cells = {}
        self._global_count = 0
        self._global_mean = 0.0

    def cell_of(self, pos):
        return (math.floor(pos[0] / CELL_SIZE_M), math.floor(pos[1] / CELL_SIZE_M))

    def record(self, pos, value: float, n: int = 1) -> None:
        """Adds n samples of value at pos, to the bit what n calls of one sample add."""
        self.record_many([pos], [value], n)

    def record_many(self, positions, values, n: int = 1) -> None:
        """Adds n samples of each value at its position, in order, to the bit what
        one ``record`` call per pair adds; a non-finite value raises with the pairs
        before it recorded. A cell's statistics stay in locals while consecutive
        positions fall in it."""
        if n < 1:
            raise ValueError(f"need at least one sample, got {n}")
        cells, cell_of, isfinite, samples = self.cells, self.cell_of, math.isfinite, range(n)
        g_count, g_mean = self._global_count, self._global_mean
        key = None
        try:
            for pos, value in zip(positions, values):
                if not isfinite(value):
                    raise ValueError(f"non-finite metric value {value}")
                if (cell := cell_of(pos)) != key:
                    if key is not None:
                        cells[key] = (count, mean, m2)
                    key = cell
                    count, mean, m2 = cells.get(key, (0, 0.0, 0.0))
                for _ in samples:
                    count += 1
                    delta = value - mean
                    mean += delta / count
                    m2 += delta * (value - mean)
                    g_count += 1
                    g_mean += (value - g_mean) / g_count
        finally:
            if key is not None:
                cells[key] = (count, mean, m2)
            self._global_count, self._global_mean = g_count, g_mean

    def global_mean(self):
        return self._global_mean if self._global_count else None

    def lookup(self, pos) -> float:
        """Total lookup with the fallback chain; never returns None."""
        key = self.cell_of(pos)
        entry = self.cells.get(key)
        if entry is not None and entry[0] >= self.k_min:
            return entry[1]
        best = None
        r = FALLBACK_RADIUS_CELLS
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                if dx == 0 and dy == 0:
                    continue
                neigh = self.cells.get((key[0] + dx, key[1] + dy))
                if neigh is not None and neigh[0] >= self.k_min:
                    d2 = dx * dx + dy * dy
                    cand = (d2, key[0] + dx, key[1] + dy, neigh[1])
                    if best is None or cand < best:
                        best = cand
        if best is not None:
            return best[3]
        if entry is not None and entry[0] > 0:
            return entry[1]
        g = self.global_mean()
        return g if g is not None else self.prior

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_x", "cell_y", "count", "mean", "m2"])
            for (cx, cy) in sorted(self.cells):
                count, mean, m2 = self.cells[(cx, cy)]
                writer.writerow([cx, cy, count, repr(mean), repr(m2)])


def forecast_along(cmap: ConnectivityMap, trajectory) -> list:
    """Map lookup at each (t, x, y) of a trajectory; the fallback chain keeps
    every value defined even on an empty map."""
    return [cmap.lookup((x, y)) for _, x, y in trajectory]
