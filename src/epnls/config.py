"""INI codec for SweepConfig: a small dialect with sections [grid],
[physics], [sweep], [solver], [output].

A parsed config is a SweepConfig.  Most keys carry their field's name;
three do not: [sweep] alphas -> alpha_set, [sweep] epsilons ->
epsilon_set and [output] dir -> outdir.  An absent key keeps the
field's default, and the keys that accept 'auto' (s, epsilons,
comparator, T, dt) take the model's default for it.
Unknown sections or keys are rejected, and SweepConfig's own validation
errors surface as ConfigError.
serialize_config writes every key explicitly, so parse -> serialize ->
parse is the identity.
"""

from __future__ import annotations

import configparser
import os

from .runio import fmt
from .sweep import SweepConfig

AUTO = "auto"


class ConfigError(ValueError):
    """Malformed or invalid run configuration; the message names the
    offending key and constraint."""


def _reals(text):
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError(text)
    return values


def _reals_text(values):
    return ",".join(fmt(v) for v in values)


# (section, INI key, SweepConfig field, parse, format, accepts 'auto'),
# in the order serialize_config writes them
_KEYS = (
    ("grid", "n", "n", int, str, False),
    ("grid", "N", "N", int, str, False),
    ("grid", "L", "L", float, fmt, False),
    ("grid", "max_points", "max_points", int, str, False),
    ("physics", "model", "model", str.lower, str, False),
    ("physics", "p", "p", float, fmt, False),
    ("physics", "g", "g", float, fmt, False),
    ("physics", "gamma", "gamma", float, fmt, False),
    ("physics", "omega0", "omega0", float, fmt, False),
    ("physics", "s", "s", float, fmt, True),
    ("sweep", "alphas", "alpha_set", _reals, _reals_text, False),
    ("sweep", "epsilons", "epsilon_set", _reals, _reals_text, True),
    ("sweep", "comparator", "comparator", str, str, True),
    ("sweep", "c1", "c1", float, fmt, False),
    ("sweep", "epsilon_floor", "epsilon_floor", float, fmt, False),
    ("solver", "T", "T", float, fmt, True),
    ("solver", "dt", "dt", float, fmt, True),
    ("solver", "workers", "workers", int, str, False),
    ("output", "dir", "outdir", str, str, False),
    ("output", "cache_dir", "cache_dir",
     lambda v: v or None, lambda v: v or "", False),
)


def parse_config(path=None):
    """Parse a config file into a SweepConfig; None means all defaults
    (equivalent to an empty document)."""
    if path is None:
        return parse_config_text("")
    if not os.path.exists(str(path)):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read())


def parse_config_text(text):
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    cp.optionxform = str  # keys are case-sensitive ('n' and 'N' differ)
    try:
        cp.read_string(text)
    except configparser.DuplicateOptionError as err:
        raise ConfigError(f"duplicate key: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from None

    known = {(section, key) for section, key, *_ in _KEYS}
    for section in cp.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    fields = {}
    for section, key, name, parse, _, auto in _KEYS:
        if not cp.has_option(section, key):
            continue
        raw = cp.get(section, key).strip()
        if auto and raw == AUTO:
            continue
        try:
            fields[name] = parse(raw)
        except ValueError:
            kind = parse.__name__
            if parse is _reals:
                kind = "comma-separated list of reals"
            raise ConfigError(
                f"{section}.{key} must be a {kind}, got {raw!r}"
            ) from None
    try:
        return SweepConfig(**fields)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def serialize_config(cfg):
    """Canonical explicit INI text; parse(serialize(cfg)) == cfg."""
    sections = {}
    for section, key, name, _, show, _ in _KEYS:
        lines = sections.setdefault(section, [f"[{section}]"])
        lines.append(f"{key} = {show(getattr(cfg, name))}")
    return "\n".join("\n".join(lines) + "\n" for lines in sections.values())
