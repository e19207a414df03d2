"""Flat key = value configuration files with dotted sections.

Example::

    model = driven4d
    path.ca_c = 0.15
    path.na_c = 5.85
    path.d = 1
    path.ca0 = 0
    path.eps = 0.004
    sim.t_span = 0:2000
    sim.rel_tol = 1e-8

Lines starting with '#' are comments. Unknown keys are rejected with a
message listing them; command-line flags override file values.
"""
from __future__ import annotations


class UsageError(ValueError):
    """Bad configuration or command usage; exits with status 2."""


def parse_config(text: str) -> dict:
    """Parse to a flat {dotted.key: string} dict; values stay unconverted."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"line {lineno}: empty key")
        if key in out:
            raise UsageError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config(fh.read())


def check_keys(cfg: dict, allowed) -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")


def get_float(cfg: dict, key: str, default=None) -> float:
    if key not in cfg or cfg[key] == "":
        if default is None:
            raise UsageError(f"missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise UsageError(f"key {key!r}: {cfg[key]!r} is not a number") from None


def get_int(cfg: dict, key: str, default=None) -> int:
    value = get_float(cfg, key, default)
    if not float(value).is_integer():
        raise UsageError(f"key {key!r}: {cfg[key]!r} is not an integer")
    return int(value)


def get_span(cfg: dict, key: str, default=None):
    """Parse 't0:t1' time spans."""
    if key not in cfg or cfg[key] == "":
        if default is None:
            raise UsageError(f"missing or empty required key {key!r}")
        return default
    raw = cfg[key]
    parts = raw.split(":")
    if len(parts) != 2:
        raise UsageError(f"key {key!r}: expected 't0:t1', got {raw!r}")
    try:
        t0, t1 = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"key {key!r}: {raw!r} is not a pair of numbers") from None
    if not t1 > t0:
        raise UsageError(f"key {key!r}: span must satisfy t1 > t0")
    return (t0, t1)
