"""Flat ``key = value`` experiment configs (a TOML-compatible subset).

One assignment per line; values are JSON-typed scalars or arrays
(strings double-quoted, booleans lowercase); ``#`` starts a full-line
comment.  Units are the package conventions: phases in radians, sigma_k
dimensionless.  :func:`check_values` holds a parsed config to the types
of a study's defaults.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["parse_config_text", "load_config", "check_values"]

#: keys that count units of work; each must be at least 1
COUNT_KEYS = ("targets", "samples", "runs", "combos_per_k")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{source}:{lineno}: cannot parse value {value!r} "
                "(use JSON-style scalars or lists)"
            ) from exc
    return out


def load_config(path) -> dict:
    return parse_config_text(Path(path).read_text(), source=str(path))


def _matches(value, default) -> bool:
    """Whether ``value`` has the type of ``default`` (ints pass for floats)."""
    if default is None:  # an optional list of int (m_list)
        return value is None or _matches(value, [0])
    if isinstance(default, list):
        return isinstance(value, list) and all(_matches(v, default[0]) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def check_values(values: dict, defaults: dict, source: str = "<config>") -> None:
    """Reject unknown keys, values whose type differs from their default's,
    and counts below 1."""
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ValueError(f"{source}: unknown option(s): " + ", ".join(unknown))
    for key, value in values.items():
        default = defaults[key]
        if not _matches(value, default):
            raise ValueError(
                f"{source}: {key} = {json.dumps(value)} does not have the type of "
                f"its default, {json.dumps(default)}"
            )
        if key in COUNT_KEYS and value < 1:
            raise ValueError(f"{source}: {key} must be >= 1, got {value}")
