"""Experiment configs drawn from the schema tables parse, or fail by path.

Each case starts from ``configs/demo.json`` or ``configs/transfer_two_phase.json``
and changes one to three values. A value is drawn from its table entry (kind,
range and choices) or is a mutation: the key dropped, an unknown key, object,
class or edge added, or the value set to another JSON type, NaN, +-inf, 0, a
negative, a huge number, an empty list or an unknown name. The property:
``parse_config`` returns, or raises ConfigError or NetworkError whose message
starts with a path in the document (``config`` or under it); no other exception
escapes. One test puts each mutation at each site of both documents alone; the
other draws combinations, 10 times the hypothesis profile's example count.

The radio and trace settings that used to parse and then fail in the transfer
stage are bounded: a value past a bound fails by path, and every corner of the
bounds runs.
"""

import itertools
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridflow import harness
from hybridflow.road_net import NETWORK, NetworkError
from hybridflow.schema import ConfigError, Field

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TEXTS = {name: (CONFIG_DIR / name).read_text()
         for name in ("demo.json", "transfer_two_phase.json")}
# values no table allows everywhere: other JSON types, non-finite and extreme numbers,
# and names of nothing
MUTANTS = (math.nan, math.inf, -math.inf, 0, -1.5, 1e300, 10 ** 400, [], {}, "ghost", True,
           None, ["ghost"])


def _field(entry):
    """entry as a Field, or None for a nested table or a pass-through value."""
    if isinstance(entry, Field):
        return entry
    if entry is None or isinstance(entry, (dict, list)):
        return None
    return Field(entry, item=Field(type(entry[0])) if isinstance(entry, tuple) else None)


def _sites(doc, schema, path=()):
    """(path, table entry) of every key of the document's objects, of every table key
    the document leaves out, and of every element of a list or map value."""
    for key, entry in schema.items():
        here = path + (key,)
        yield here, entry
        if not isinstance(doc, dict) or key not in doc:
            continue
        value, field = doc[key], _field(entry)
        if key == "network" and isinstance(value, dict):
            yield from _sites(value, NETWORK, here)
        elif isinstance(entry, dict):
            yield from _sites(value, entry, here)
        elif isinstance(entry, list) and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _sites(item, entry[0], here + (i,))
        elif field is not None and field.item is not None:
            keys = value if isinstance(value, dict) else range(len(value))
            yield from ((here + (k,), field.item) for k in keys)


def _valid(entry):
    """A value of the entry's kind within its range and choices."""
    field = _field(entry)
    if field is None:
        return st.just({})
    kind = field.kind or (field.default if isinstance(field.default, type)
                          else type(field.default))
    if field.choices is not None:
        return st.sampled_from(field.choices)
    if kind in (tuple, dict):
        item = _valid(field.item)
        return (st.lists(item, max_size=3) if kind is tuple
                else st.dictionaries(st.sampled_from(["car", "truck", "ghost"]), item, max_size=3))
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.sampled_from(["A", "B", "s1", "l2", "car", "ghost"])
    low = field.ge if field.gt is None else field.gt
    high = field.le if field.lt in (None, math.inf) else field.lt
    if kind is int:
        return st.integers(-5 if low is None else math.floor(low) + (field.gt is not None),
                           10 ** 6 if high is None else math.ceil(high))
    return st.floats(low, high, exclude_min=field.gt is not None,
                     exclude_max=field.lt not in (None, math.inf),
                     allow_nan=False, allow_infinity=False)


def _apply(doc, path, change):
    """Drop ("drop") or set the value at path; a path that an earlier change took
    away stays away."""
    *parents, last = path
    try:
        for key in parents:
            doc = doc[key]
        if change == "drop":
            del doc[last]
        else:
            doc[last] = change
    except (KeyError, IndexError, TypeError):
        pass


@st.composite
def configs(draw):
    doc = json.loads(TEXTS[draw(st.sampled_from(sorted(TEXTS)))])
    sites = list(_sites(doc, harness.CONFIG))
    for _ in range(draw(st.integers(1, 3))):
        path, entry = draw(st.sampled_from(sites))
        if draw(st.booleans()):
            if isinstance(path[-1], str):
                path = path[:-1] + (draw(st.sampled_from([path[-1], "ghost"])),)
            change = draw(st.sampled_from(("drop",) + MUTANTS))
        else:
            change = draw(_valid(entry))
        _apply(doc, path, change)
    return doc


def _fault(doc):
    """What parse_config raised other than a ConfigError or NetworkError naming a path
    in the document, or None."""
    try:
        harness.parse_config(doc, str(CONFIG_DIR))
    except (ConfigError, NetworkError) as exc:
        return None if str(exc).startswith(("config.", "config:")) else repr(exc)
    except Exception as exc:  # noqa: BLE001 -- the property is that none escapes
        return repr(exc)
    return None


def test_every_mutant_at_every_site():
    faults = []
    for name, text in sorted(TEXTS.items()):
        for path, _ in _sites(json.loads(text), harness.CONFIG):
            for change in ("drop",) + MUTANTS:
                doc = json.loads(text)
                _apply(doc, path, change)
                if fault := _fault(doc):
                    faults.append((name, path, change, fault))
    assert not faults, faults[:5]


@settings(max_examples=10 * settings().max_examples)
@given(configs())
def test_drawn_configs_parse_or_fail_by_path(doc):
    assert _fault(doc) is None


SHADOWING, TRACE = ("stages", "transfer", "shadowing"), ("stages", "transfer", "trace")
STATION = ("stages", "transfer", "stations", 0)
# values that parsed and then failed in the transfer stage as "math domain error" or
# "Numerical result out of range", and values just past each bound
PAST_BOUNDS = {
    "pl0_db_huge": (SHADOWING + ("pl0_db",), 5000, "config.stages.transfer.shadowing.pl0_db: "
                    "pl0_db must be in [0, 200], got 5000.0"),
    "pl0_db_negative_huge": (SHADOWING + ("pl0_db",), -5000, "config.stages.transfer.shadowing."
                             "pl0_db: pl0_db must be in [0, 200], got -5000.0"),
    "pl0_db_below": (SHADOWING + ("pl0_db",), -0.5, "config.stages.transfer.shadowing.pl0_db: "
                     "pl0_db must be in [0, 200], got -0.5"),
    "pl0_db_above": (SHADOWING + ("pl0_db",), 200.5, "config.stages.transfer.shadowing.pl0_db: "
                     "pl0_db must be in [0, 200], got 200.5"),
    "exponent_huge": (SHADOWING + ("exponent",), 1000, "config.stages.transfer.shadowing."
                      "exponent: exponent must be in (0, 10], got 1000.0"),
    "exponent_above": (SHADOWING + ("exponent",), 10.5, "config.stages.transfer.shadowing."
                       "exponent: exponent must be in (0, 10], got 10.5"),
    "exponent_zero": (SHADOWING + ("exponent",), 0, "config.stages.transfer.shadowing."
                      "exponent: exponent must be in (0, 10], got 0.0"),
    "velocity_huge": (TRACE + ("velocity_mps",), [1e300, 0], "config.stages.transfer.trace."
                      "velocity_mps[0]: velocity_mps must be in [-100, 100], got 1e+300"),
    "velocity_below": (TRACE + ("velocity_mps",), [0, -100.5], "config.stages.transfer.trace."
                       "velocity_mps[1]: velocity_mps must be in [-100, 100], got -100.5"),
    "start_huge": (TRACE + ("start",), [1e300, 0], "config.stages.transfer.trace.start[0]: "
                   "start must be in [-1000000, 1000000], got 1e+300"),
    "start_below": (TRACE + ("start",), [0, -1000000.5], "config.stages.transfer.trace."
                    "start[1]: start must be in [-1000000, 1000000], got -1000000.5"),
    "station_x_huge": (STATION + ("x",), 1e300, "config.stages.transfer.stations[0].x: "
                       "x must be in [-1000000, 1000000], got 1e+300"),
    "station_y_above": (STATION + ("y",), 1000000.5, "config.stages.transfer.stations[0].y: "
                        "y must be in [-1000000, 1000000], got 1000000.5"),
    # lists of other than two numbers failed unpacking them in the transfer stage
    "velocity_three": (TRACE + ("velocity_mps",), [1, 2, 3], "config.stages.transfer.trace."
                       "velocity_mps: expected 2 numbers, got 3"),
    "velocity_one": (TRACE + ("velocity_mps",), [1], "config.stages.transfer.trace."
                     "velocity_mps: expected 2 numbers, got 1"),
    "start_none": (TRACE + ("start",), [], "config.stages.transfer.trace.start: "
                   "expected 2 numbers, got 0"),
}


@pytest.mark.parametrize("case", sorted(PAST_BOUNDS))
def test_past_a_bound_fails_by_path(case):
    path, value, message = PAST_BOUNDS[case]
    doc = json.loads(TEXTS["transfer_two_phase.json"])
    _apply(doc, path, value)
    with pytest.raises(ConfigError, match=re.escape(message)):
        harness.parse_config(doc, str(CONFIG_DIR))


def _ends(field):
    """The least and the greatest value a bounded float Field admits."""
    low = field.ge if field.gt is None else math.nextafter(field.gt, math.inf)
    return low, field.le


# weakest and strongest received signal: station power and noise floor at opposite
# ends, and the largest shadowing, whose draws reach far into either tail
_STATION = harness.STATION["tx_power_dbm"]
_NOISE = harness.TRANSFER["noise_dbm"]
_SIGNAL = {"weak": (_ends(_STATION)[0], _ends(_NOISE)[1]),
           "strong": (_ends(_STATION)[1], _ends(_NOISE)[0])}


@pytest.mark.parametrize("signal", sorted(_SIGNAL))
def test_corners_of_the_radio_bounds_run(signal):
    """Every corner of pl0_db, exponent and the two velocity components, at the weak and
    strong signal ends, runs all the configured policies with finite results."""
    shadowing, trace = harness.TRANSFER["shadowing"], harness.TRANSFER["trace"]
    tx_power, noise = _SIGNAL[signal]
    for pl0, exponent, vx, vy in itertools.product(
            _ends(shadowing["pl0_db"]), _ends(shadowing["exponent"]),
            *[_ends(trace["velocity_mps"].item)] * 2):
        doc = json.loads(TEXTS["transfer_two_phase.json"])
        transfer = doc["stages"]["transfer"]
        transfer["stations"][0]["tx_power_dbm"], transfer["noise_dbm"] = tx_power, noise
        transfer["shadowing"].update(pl0_db=pl0, exponent=exponent,
                                     sigma_db=_ends(shadowing["sigma_db"])[1])
        transfer["trace"]["velocity_mps"] = [vx, vy]
        report = harness.run_experiment(doc, base_dir=str(CONFIG_DIR))
        rows = report.data["stages"]["transfer"]
        assert rows and json.dumps(rows, allow_nan=False), (pl0, exponent, vx, vy)


@pytest.mark.parametrize("signal", sorted(_SIGNAL))
def test_corners_of_the_coordinate_bounds_run(signal):
    """A station at each corner of the coordinate bounds and the trace starting at it or
    at the opposite corner, moving away at full speed under the largest path loss, runs
    all the configured policies with finite results at the weak and strong signal ends."""
    shadowing, trace = harness.TRANSFER["shadowing"], harness.TRANSFER["trace"]
    tx_power, noise = _SIGNAL[signal]
    speed = _ends(trace["velocity_mps"].item)[1]
    for x, y, side in itertools.product(*[_ends(harness.COORD_M)] * 2, (1, -1)):
        doc = json.loads(TEXTS["transfer_two_phase.json"])
        transfer = doc["stages"]["transfer"]
        transfer["stations"][0].update(x=x, y=y, tx_power_dbm=tx_power)
        transfer["noise_dbm"] = noise
        transfer["shadowing"].update(pl0_db=_ends(shadowing["pl0_db"])[1],
                                     exponent=_ends(shadowing["exponent"])[1],
                                     sigma_db=_ends(shadowing["sigma_db"])[1])
        transfer["trace"].update(start=[side * x, side * y],
                                 velocity_mps=[math.copysign(speed, side * x),
                                               math.copysign(speed, side * y)])
        report = harness.run_experiment(doc, base_dir=str(CONFIG_DIR))
        rows = report.data["stages"]["transfer"]
        assert rows and json.dumps(rows, allow_nan=False), (x, y, side)
