"""The walker of every JSON input document: experiment configs and road networks.

A schema maps a key to a nested schema (of an object; an ``_Optional`` one may
be left out, parsing to None, and in an ``_Overrides`` one a left-out key stays
out), to a one-element list of one (a list of objects), or to a ``Field``: one
setting's default (a type when required, None with a ``kind`` when optional),
rule (bounds ``ge``, ``gt``, ``le``, ``lt``, or ``choices``; NaN fails every
rule) and, for a tuple or a string-keyed dict, element Field (``item``). A bare
default is a Field without a rule; None passes the value through. Values
convert as ``_convert`` says; one that breaks the rule fails as ``{path}:
{name} must be {rule}, got {value!r}``, e.g. ``at least 1``, ``in [0, 1)`` or
``l1 or l2``, and ``Field.check`` words a library argument's fault the same. A
tuple of choices names each once: a repeat fails as ``{path}[i]: 'x' is listed twice``.
``ranged`` puts a Field on a dataclass field, ``table`` derives the class's
schema and ``check_fields`` checks an instance."""

import dataclasses
import math


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class _Optional(dict):
    """Schema of a nested object that may be left out; it then parses to None."""


class _Overrides(_Optional):
    """Schema of optional keyword overrides: a key left out stays out."""


@dataclasses.dataclass(frozen=True)
class Field:
    default: object
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    choices: tuple | None = None
    item: "Field | None" = None  # each element of a tuple, each value of a dict
    kind: type | None = None     # of an optional value; without one, any value
    name: str | None = None      # in messages, in place of the key

    def rule(self) -> str:
        if self.choices is not None:
            *head, last = self.choices
            return f"{', '.join(head)} or {last}" if head else last
        low, is_open = (self.ge, False) if self.gt is None else (self.gt, True)
        if self.le is not None or self.lt not in (None, math.inf):
            high = self.le if self.lt is None else self.lt
            return f"in {'(' if is_open else '['}{low}, {high}{']' if self.lt is None else ')'}"
        text = (("positive" if is_open else "non-negative") if low == 0
                else f"{'greater than' if is_open else 'at least'} {low}")
        return text if self.lt is None else f"finite and {text}"

    def check(self, value, name: str, error=ValueError):
        """value, unless it breaks the rule: then error(f"{name} must be {rule}, got ...")."""
        if not (value in self.choices if self.choices is not None
                else (self.ge is None or value >= self.ge) and (self.gt is None or value > self.gt)
                and (self.le is None or value <= self.le)
                and (self.lt is None or value < self.lt)):
            raise error(f"{name} must be {self.rule()}, got {value!r}")
        return value

    def parse(self, value, path: str, name: str):
        """A document's value converted and checked; ConfigError names path."""
        name = self.name or name
        if self.default is None and (value is None or self.kind is None):
            return value
        if self.item is not None:  # a tuple, or a dict when kind says so
            if not isinstance(value, dict if self.kind is dict else list):
                raise ConfigError(f"{path}: expected "
                                  f"{'an object' if self.kind is dict else 'a list'}, "
                                  f"got {type(value).__name__}")
            if self.kind is dict:
                return {k: self.item.parse(v, f"{path}.{k}", name) for k, v in value.items()}
            out = tuple(self.item.parse(v, f"{path}[{i}]", name) for i, v in enumerate(value))
            for i, v in enumerate(out if self.item.choices is not None else ()):
                if v in out[:i]:
                    raise ConfigError(f"{path}[{i}]: {v!r} is listed twice")
            return out
        value = _convert(value, self.kind if self.default is None else self.default, path)
        return self.check(value, f"{path}: {name}", ConfigError)


def ranged(default, **rule):
    """A dataclass field with this default (required when it is a type) and
    Field(default, **rule) in its metadata."""
    return dataclasses.field(**({} if isinstance(default, type) else {"default": default}),
                             metadata={"field": Field(default, **rule)})


def table(cls) -> dict:
    """The schema of a dataclass's init fields: a ranged one's Field, else its default."""
    return {f.name: f.metadata.get("field", f.default) for f in dataclasses.fields(cls) if f.init}


def check_fields(obj, error) -> None:
    """error naming the first ranged field of obj whose value breaks its rule."""
    for f in dataclasses.fields(obj):
        if field := f.metadata.get("field"):
            field.check(getattr(obj, f.name), field.name or f.name, error)


def _section(obj, schema, where):
    """Check obj's keys against schema, fill in the defaults, convert the values."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    out = {}
    for key, entry in schema.items():
        path = f"{where}.{key}"
        if isinstance(entry, dict):
            out[key] = (_section(obj.get(key, {}), entry, path)
                        if key in obj or not isinstance(entry, _Optional) else None)
        elif isinstance(entry, list):
            items = obj.get(key, [])
            if not isinstance(items, list):
                raise ConfigError(f"{path}: expected a list, got {type(items).__name__}")
            out[key] = [_section(v, entry[0], f"{path}[{i}]") for i, v in enumerate(items)]
        elif key in obj:
            out[key] = (entry.parse(obj[key], path, key) if isinstance(entry, Field)
                        else obj[key] if entry is None else _convert(obj[key], entry, path))
        elif isinstance(default := getattr(entry, "default", entry), type):
            raise ConfigError(f"{where}: missing key {key!r}")
        elif not isinstance(schema, _Overrides):
            out[key] = default
    return out


def _convert(value, default, path):
    """value as the type of default, or as default when it is a type. A bool or
    a str passes only as itself, an int only when integral and within a float's
    range, a float only when finite, and a tuple only as a list whose elements
    convert as default[0]."""
    kind = default if isinstance(default, type) else type(default)
    if kind is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return tuple(_convert(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) != (kind is bool) or isinstance(value, str) != (kind is str):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path}: {value!r} is not an integer")
    try:
        out = kind(value)
        if kind is int:
            float(out)  # OverflowError beyond a float's range
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{path}: {value!r} is not finite")
    return out
