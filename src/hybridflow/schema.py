"""The walker of every JSON input document: experiment configs and road networks.

A schema maps a key to its default. A nested schema is a nested object, a
one-element list holding a schema is a list of such objects, a type marks a
required value converted by that type, None passes the value through
unchecked, and any other default (number, string, bool, tuple) also checks
and converts a given value as ``_convert`` does. Errors name the dotted path."""

import math


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class _Optional(dict):
    """Schema of a nested object that may be left out; it then parses to None."""


def _section(obj, schema, where):
    """Check obj's keys against schema, fill in the defaults, convert the values."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    out = {}
    for key, default in schema.items():
        path = f"{where}.{key}"
        if key not in obj and isinstance(default, (type, _Optional)):
            if isinstance(default, type):
                raise ConfigError(f"{where}: missing key {key!r}")
            out[key] = None
        elif isinstance(default, dict):
            out[key] = _section(obj[key] if key in obj else {}, default, path)
        elif isinstance(default, list):
            items = obj[key] if key in obj else []
            if not isinstance(items, list):
                raise ConfigError(f"{path}: expected a list, got {type(items).__name__}")
            out[key] = [_section(v, default[0], f"{path}[{i}]") for i, v in enumerate(items)]
        elif key not in obj or default is None:
            out[key] = obj[key] if key in obj else default
        else:
            out[key] = _convert(obj[key], default, path)
    return out


def _convert(value, default, path):
    """value as the type of default, or as default when it is a type. A bool or
    a str passes only as itself, an int only when integral, a float only when
    finite, and a tuple only as a list whose elements convert as default[0]."""
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{path}: {value!r} is not finite")
    return out
