import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridflow import radio_env
from hybridflow.radio_env import (BaseStation, ConnectivityMap, PropagationModel,
                                  RadioScene, TraceRecord, forecast_along, sinr_rsrp_at)
from test_transfer import reference_speeds


def no_shadow():
    return PropagationModel(shadowing_enabled=False)


def rsrp_at(pos, station, model):
    """Received power in dBm: the serving RSRP of a one-station scene."""
    return sinr_rsrp_at(pos, [station], -100.0, model)[1]


def cell_stats(cmap, pos):
    """(mean, sample variance, count) of the map cell at pos; (None, 0.0, 0) if empty."""
    count, mean, m2 = cmap.cells.get(cmap.cell_of(pos), (0, None, 0.0))
    return mean, m2 / (count - 1) if count > 1 else 0.0, count


class TestRsrp:
    def test_reference_distance(self):
        st_ = BaseStation("s", (0.0, 0.0), tx_power_dbm=43.0)
        assert rsrp_at((10.0, 0.0), st_, no_shadow()) == pytest.approx(-27.0)

    def test_distance_doubling(self):
        st_ = BaseStation("s", (0.0, 0.0), tx_power_dbm=43.0)
        expected = -27.0 - 10 * 3.0 * math.log10(2)
        assert rsrp_at((20.0, 0.0), st_, no_shadow()) == pytest.approx(expected)
        assert expected == pytest.approx(-36.03, abs=0.01)

    def test_clamped_below_d0(self):
        st_ = BaseStation("s", (0.0, 0.0))
        m = no_shadow()
        assert rsrp_at((1.0, 0.0), st_, m) == rsrp_at((10.0, 0.0), st_, m)

    def test_shadowing_deterministic(self):
        st_ = BaseStation("s", (0.0, 0.0))
        m1 = PropagationModel(seed=5)
        m2 = PropagationModel(seed=5)
        pos = (312.0, -77.0)
        assert rsrp_at(pos, st_, m1) == rsrp_at(pos, st_, m2)
        m3 = PropagationModel(seed=6)
        assert rsrp_at(pos, st_, m1) != rsrp_at(pos, st_, m3)

    def test_shadow_cache_not_part_of_equality(self):
        m = PropagationModel(seed=3)
        m.shadowing_db((0.0, 0.0))
        assert m == PropagationModel(seed=3)
        assert repr(m) == repr(PropagationModel(seed=3))


class TestSinr:
    def test_single_station_noise_limited(self):
        # signal -90 dBm, noise -100 dBm -> 10 dB
        st_ = BaseStation("s", (0.0, 0.0), tx_power_dbm=43.0)
        m = no_shadow()
        d = 10.0 * 10 ** ((43.0 + 90.0 - 70.0) / 30.0)  # distance giving -90 dBm
        got = sinr_rsrp_at((d, 0.0), [st_], -100.0, m)[0]
        assert got == pytest.approx(10.0, abs=1e-9)

    def test_two_equal_stations(self):
        a = BaseStation("a", (-100.0, 0.0))
        b = BaseStation("b", (100.0, 0.0))
        got = sinr_rsrp_at((0.0, 0.0), [a, b], -200.0, no_shadow())[0]
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_three_station_linear_recomputation(self):
        stations = [BaseStation("a", (0.0, 0.0)), BaseStation("b", (300.0, 40.0)),
                    BaseStation("c", (-150.0, 220.0))]
        m = no_shadow()
        pos = (50.0, 60.0)
        # independent recomputation from raw powers
        powers = [10 ** (rsrp_at(pos, s, m) / 10.0) for s in stations]
        serving = max(powers)
        expect = 10 * math.log10(serving / (sum(powers) - serving + 10 ** (-100 / 10)))
        assert sinr_rsrp_at(pos, stations, -100.0, m)[0] == pytest.approx(expect, abs=1e-12)

    def test_scale_consistency(self):
        stations = [BaseStation("a", (0.0, 0.0), tx_power_dbm=43.0),
                    BaseStation("b", (500.0, 0.0), tx_power_dbm=40.0)]
        shifted = [BaseStation("a", (0.0, 0.0), tx_power_dbm=46.0),
                   BaseStation("b", (500.0, 0.0), tx_power_dbm=43.0)]
        m = no_shadow()
        pos = (120.0, 30.0)
        assert sinr_rsrp_at(pos, stations, -100.0, m)[0] == pytest.approx(
            sinr_rsrp_at(pos, shifted, -97.0, m)[0], abs=1e-9)


class TestConnectivityMap:
    def test_two_value_mean(self):
        cmap = ConnectivityMap()
        cmap.record((1.0, 1.0), 10.0)
        cmap.record((2.0, 2.0), 20.0)  # same 25 m cell
        mean, var, count = cell_stats(cmap, (0.5, 0.5))
        assert (mean, count) == (15.0, 2)

    def test_empty_cell(self):
        cmap = ConnectivityMap()
        mean, var, count = cell_stats(cmap, (999.0, 999.0))
        assert mean is None and count == 0

    def test_welford_vs_batch(self):
        rng = np.random.default_rng(4)
        values = rng.normal(5.0, 3.0, size=10_000)
        cmap = ConnectivityMap()
        for v in values:
            cmap.record((3.0, 3.0), float(v))
        mean, var, count = cell_stats(cmap, (3.0, 3.0))
        assert count == 10_000
        assert mean == pytest.approx(float(np.mean(values)), rel=1e-9)
        assert var == pytest.approx(float(np.var(values, ddof=1)), rel=1e-9)

    @given(st.lists(st.floats(-80, 40), min_size=2, max_size=40), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_order_independence(self, values, rnd):
        a = ConnectivityMap()
        b = ConnectivityMap()
        shuffled = list(values)
        rnd.shuffle(shuffled)
        for v in values:
            a.record((0.0, 0.0), v)
        for v in shuffled:
            b.record((0.0, 0.0), v)
        ma, va, ca = cell_stats(a, (0.0, 0.0))
        mb, vb, cb = cell_stats(b, (0.0, 0.0))
        assert ca == cb
        assert ma == pytest.approx(mb, abs=1e-9)
        assert va == pytest.approx(vb, abs=1e-9, rel=1e-9)

    def test_csv_roundtrip(self, tmp_path):
        cmap = ConnectivityMap()
        rng = np.random.default_rng(1)
        for _ in range(200):
            cmap.record((float(rng.uniform(0, 200)), float(rng.uniform(0, 200))),
                        float(rng.normal(0, 10)))
        path = tmp_path / "map.csv"
        cmap.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["cell_x", "cell_y", "count", "mean", "m2"]
        back = {(int(r["cell_x"]), int(r["cell_y"])):
                (int(r["count"]), float(r["mean"]), float(r["m2"])) for r in rows}
        assert back == cmap.cells
        assert list(back) == sorted(cmap.cells)


def map_bits(cmap):
    """The cells and the global running mean, with every float by its bits."""
    return repr(sorted(cmap.cells.items())), cmap._global_count, repr(cmap.global_mean())


class TestRecordSamples:
    """One ``record`` call of n samples is n calls of one sample, to the bit."""

    @given(before=st.lists(st.tuples(st.sampled_from([(1.0, 1.0), (30.0, -4.0)]),
                                     st.floats(-80, 40)), max_size=6),
           pos=st.sampled_from([(1.0, 1.0), (2.0, 3.0), (30.0, -4.0), (-60.5, 900.0)]),
           value=st.floats(-80, 40), n=st.integers(1, 6))
    @example(before=[], pos=(0.0, 0.0), value=-0.0, n=3)
    def test_equal_to_single_calls(self, before, pos, value, n):
        batched, single = ConnectivityMap(), ConnectivityMap()
        for cmap in (batched, single):
            for p, v in before:
                cmap.record(p, v)
        batched.record(pos, value, n)
        for _ in range(n):
            single.record(pos, value)
        assert map_bits(batched) == map_bits(single)

    def test_bad_samples_rejected(self):
        cmap = ConnectivityMap()
        with pytest.raises(ValueError, match="at least one sample, got 0"):
            cmap.record((0.0, 0.0), 1.0, 0)
        with pytest.raises(ValueError, match="non-finite"):
            cmap.record((0.0, 0.0), math.nan, 3)
        assert map_bits(cmap) == map_bits(ConnectivityMap())


def old_rsrp_at(pos, station, model):
    """The received power as it was worked out before a scene's constants were set once."""
    d = math.hypot(pos[0] - station.position[0], pos[1] - station.position[1])
    d = max(d, radio_env.D0_M)
    pl = model.pl0_db + 10.0 * model.exponent * math.log10(d / radio_env.D0_M)
    return station.tx_power_dbm - pl - model.shadowing_db(pos)


def old_sinr_at(pos, stations, noise_dbm, model):
    """The SINR as it was worked out before it shared its work with the serving RSRP."""
    powers = [10.0 ** (old_rsrp_at(pos, s, model) / 10.0) for s in stations]
    serving = max(powers)
    interference = sum(powers) - serving
    noise = 10.0 ** (noise_dbm / 10.0)
    return 10.0 * math.log10(serving / (interference + noise))


STATIONS = [BaseStation("a", (0.0, 0.0)), BaseStation("b", (900.0, 300.0), tx_power_dbm=30.0),
            BaseStation("c", (-150.0, 220.0), tx_power_dbm=40.0)]


def two_station_scene(shadowing=True, stations=2):
    return RadioScene(STATIONS[:stations],
                      model=PropagationModel(seed=3, shadowing_enabled=shadowing))


# revisited by the traces drawn below; 0.0 and -0.0, and an int position, are one key;
# (10, -5) and (-400.0, 80.0) lie within D0_M of no station, (0.0, 0.0) at station a
POSITIONS = [(0.0, 0.0), (-0.0, 0.0), (10, -5), (26.0, 3.0), (737.5, -12.25), (1490.0, 300.0),
             (-400.0, 80.0), (-150.0, 224.0)]


@st.composite
def traces(draw):
    """A (t, x, y) trace of 2-40 points over POSITIONS: vehicles that stand still and
    cells that a trace leaves and comes back to."""
    steps = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(POSITIONS)),
                          min_size=2, max_size=40))
    trace, t = [], 0
    for dt, (x, y) in steps:
        t += dt
        trace.append((t, x, y))
    return trace


class TestTraceRecord:
    """The record of a trace in a scene holds, per point, what the per-point functions
    give on a fresh scene, all worked out in one pass when the record is made."""

    @given(trace=traces(), shadowing=st.booleans(), stations=st.integers(1, 3),
           drawn=st.lists(st.sampled_from(POSITIONS), max_size=4))
    # a vehicle standing still
    @example(trace=[(t, 26.0, 3.0) for t in range(6)], shadowing=True, stations=2, drawn=[])
    # every cell of the trace already drawn
    @example(trace=[(0, 0.0, 0.0), (1, 26.0, 3.0), (2, 0.0, 0.0)], shadowing=True, stations=3,
             drawn=[(0.0, 0.0), (26.0, 3.0)])
    def test_equal_to_per_point_values(self, trace, shadowing, stations, drawn):
        scene = two_station_scene(shadowing, stations)
        # a model with some cells already drawn, by lookups or by another trace's fill
        scene.model.fill(drawn)
        cells_before = dict(scene.model._shadow_cache)
        seeded, worked = [], []
        generators, sinr_rsrp = radio_env.generators, radio_env._Link.sinr_rsrp
        with mock.patch.object(radio_env, "generators",
                               lambda rows: seeded.append(len(rows)) or generators(rows)), \
                mock.patch.object(radio_env._Link, "sinr_rsrp",
                                  lambda link, x, y, shadow: worked.append((x, y))
                                  or sinr_rsrp(link, x, y, shadow)):
            rec = TraceRecord(trace, scene.stations, scene.noise_dbm, scene.model)
        # the trace's new shadowing cells seeded in one pass, the drawn ones kept
        new_cells = {cell for cell in map(_cell, trace) if cell not in cells_before}
        assert seeded == ([len(new_cells)] if shadowing and new_cells else [])
        assert scene.model._shadow_cache.items() >= cells_before.items()
        # every point worked out once, but one standing where the point before it stood
        assert worked == [p[1:] for i, p in enumerate(trace)
                          if not i or p[1:] != trace[i - 1][1:]]
        # a scene that no fill seeded and no record read
        oracle = two_station_scene(shadowing, stations)
        for i, (_, x, y) in enumerate(trace):
            want = old_sinr_at((x, y), oracle.stations, oracle.noise_dbm, oracle.model)
            assert rec.sinr[i].hex() == want.hex()
            rsrp = max(old_rsrp_at((x, y), s, oracle.model) for s in oracle.stations)
            assert rec.rsrp[i].hex() == rsrp.hex()
            assert sinr_rsrp_at((x, y), oracle.stations, oracle.noise_dbm,
                                oracle.model) == (rec.sinr[i], rec.rsrp[i])
            assert [rsrp_at((x, y), s, oracle.model) for s in oracle.stations] == \
                [old_rsrp_at((x, y), s, oracle.model) for s in oracle.stations]
        assert rec.times == [p[0] for p in trace]
        assert repr(rec.speeds) == repr(reference_speeds(trace))
        assert rec.max_tx_dbm == max(s.tx_power_dbm for s in oracle.stations)

    def test_no_station_rejected(self):
        scene = RadioScene([], model=no_shadow())
        for read in (lambda: TraceRecord([(0, 0.0, 0.0), (1, 10.0, 0.0)], [], -100.0,
                                         no_shadow()),
                     lambda: scene.sinr((0.0, 0.0))):
            with pytest.raises(ValueError, match="need at least one station"):
                read()


def _cell(point):
    return (math.floor(point[1] / radio_env.SHADOWING_LATTICE_M),
            math.floor(point[2] / radio_env.SHADOWING_LATTICE_M))


class TestRecordTrace:
    """One ``record_many`` call for a whole trace is one ``record`` call per point, to
    the bit, and stops where they stop."""

    @given(before=st.lists(st.tuples(st.sampled_from(POSITIONS), st.floats(-80, 40)),
                           max_size=6),
           points=st.lists(st.tuples(st.sampled_from(POSITIONS), st.floats(-80, 40)),
                           max_size=30),
           n=st.integers(1, 4),
           bad=st.one_of(st.none(), st.tuples(st.integers(0, 29),
                                              st.sampled_from([math.nan, math.inf, -math.inf]))))
    @example(before=[], points=[((0.0, 0.0), 1.0), ((-0.0, 0.0), 2.0), ((26.0, 3.0), 3.0),
                                ((0.0, 0.0), 4.0)], n=3, bad=None)
    @example(before=[((26.0, 3.0), 5.0)], points=[((26.0, 3.0), 1.0)] * 3, n=2, bad=(2, math.nan))
    def test_equal_to_per_point_calls(self, before, points, n, bad):
        if bad is not None and points:
            i, value = bad
            points[i % len(points)] = (points[i % len(points)][0], value)
        whole, single = ConnectivityMap(), ConnectivityMap()
        for cmap in (whole, single):
            for p, v in before:
                cmap.record(p, v)
        errors = []
        for cmap, record in ((whole, lambda: whole.record_many([p for p, _ in points],
                                                              [v for _, v in points], n)),
                             (single, lambda: [single.record(p, v, n) for p, v in points])):
            try:
                record()
            except ValueError as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        assert errors[0] == errors[1]
        assert (errors[0] is not None) == any(not math.isfinite(v) for _, v in points)
        assert map_bits(whole) == map_bits(single)

    def test_no_points_and_bad_count(self):
        cmap = ConnectivityMap()
        cmap.record_many([], [], 3)
        with pytest.raises(ValueError, match="at least one sample, got 0"):
            cmap.record_many([(0.0, 0.0)], [1.0], 0)
        assert map_bits(cmap) == map_bits(ConnectivityMap())


class TestForecast:
    def populated_map(self):
        cmap = ConnectivityMap(k_min=3)
        for _ in range(3):
            cmap.record((10.0, 10.0), 5.0)
            cmap.record((60.0, 10.0), 15.0)  # neighboring 25 m cell column
        return cmap

    def test_stationary_trajectory(self):
        cmap = self.populated_map()
        traj = [(t, 10.0, 10.0) for t in range(5)]
        assert forecast_along(cmap, traj) == [5.0] * 5

    def test_two_cell_stepwise(self):
        cmap = self.populated_map()
        traj = [(0, 10.0, 10.0), (1, 12.0, 10.0), (2, 60.0, 10.0), (3, 62.0, 10.0)]
        assert forecast_along(cmap, traj) == [5.0, 5.0, 15.0, 15.0]

    def test_fallback_to_populated_neighbor(self):
        cmap = self.populated_map()
        # (35, 10) lies in the empty cell between the two populated ones
        assert forecast_along(cmap, [(0, 35.0, 10.0)])[0] in (5.0, 15.0)

    def test_empty_map_prior(self):
        cmap = ConnectivityMap(prior=-3.0)
        assert forecast_along(cmap, [(0, 0.0, 0.0), (1, 10.0, 0.0)]) == [-3.0, -3.0]

    def test_forecast_total_on_random_maps(self):
        rng = np.random.default_rng(9)
        cmap = ConnectivityMap()
        for _ in range(50):
            cmap.record((float(rng.uniform(0, 500)), float(rng.uniform(0, 500))),
                        float(rng.normal(0, 5)))
        traj = [(t, float(rng.uniform(-200, 700)), float(rng.uniform(-200, 700)))
                for t in range(50)]
        for v in forecast_along(cmap, traj):
            assert v is not None and math.isfinite(v)


def test_scene_wraps_model():
    scene = RadioScene([BaseStation("s", (0.0, 0.0))], model=no_shadow())
    assert scene.sinr((10.0, 0.0)) > scene.sinr((500.0, 0.0))


class TestSceneSinrMemo:
    def scene(self):
        return RadioScene([BaseStation("a", (0.0, 0.0)),
                           BaseStation("b", (900.0, 300.0), tx_power_dbm=30.0)],
                          model=PropagationModel(seed=3))

    def test_bit_identical_to_sinr_at(self):
        scene = self.scene()
        rng = np.random.default_rng(12)
        fresh = [(float(x), float(y)) for x, y in rng.uniform(-500, 1500, size=(200, 2))]
        # repeated positions, and ones equal to others as keys: ints, -0.0
        positions = fresh + fresh[::3] + [(0, 0), (0.0, 0.0), (-0.0, 0.0), (10, -5)] * 2
        oracle = self.scene()
        for pos in positions:
            want = old_sinr_at(pos, oracle.stations, oracle.noise_dbm, oracle.model)
            assert scene.sinr(pos).hex() == want.hex()

    def test_memo_not_part_of_equality(self):
        # shadowed, so that the models' shadow caches differ as well
        a, b = (RadioScene([BaseStation("a", (0.0, 0.0))], model=PropagationModel(seed=3))
                for _ in "ab")
        a.sinr((10.0, 20.0))
        b.sinr((400.0, -30.0))
        b.sinr((10.0, 20.0))
        assert a == b
        assert repr(a) == repr(b)
