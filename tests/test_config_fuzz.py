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
"""

import json
import math
from pathlib import Path

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
