"""Flat key=value config files, and the rule for every input value.

Format: one ``key = value`` per line, ``#`` starts a comment, numeric
values accept rational literals like ``7/15`` (kept exact until the final
float conversion), and ``gammas``/``probs`` are comma-separated lists.

RULES holds one rule per config key and command-line flag; config files,
a manifest's JSON and the CLI's flags all check their values through it.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

from .model import (
    AversionDistribution,
    Horizon,
    HestonParams,
    InsuranceParams,
    ValidatedModel,
    memory_violation,
    validate_config,
)

_PARTS = (InsuranceParams, HestonParams, Horizon)  # a config key per field, and the three below
KEYS = tuple(f.name for cls in _PARTS for f in fields(cls)) + ("gammas", "probs", "seed")

DEFAULTS = {"x0": 1.0, "seed": 12345}


class ConfigError(ValueError):
    """Malformed config file; carries the offending line number when known."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _parse_number(token):
    token = token.strip()
    # an integer token stays an exact int, so a seed keeps all its 64 bits
    for parse in (int, float, lambda tok: float(Fraction(tok))):
        try:
            return parse(token)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ConfigError(f"invalid numeric value {token!r}")


def _parse_numbers(text):
    """Comma-separated numbers: a list, or one number when text has no comma.
    An empty item is an invalid number."""
    nums = [_parse_number(tok) for tok in text.split(",")]
    return nums if len(nums) > 1 else nums[0]


def number(name, val):
    """Rule: a number (a non-bool int or float, inf and nan included; an int
    within the float range), as a float. Its range is validate_config's."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            return float(val)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be a number, got {val!r}")


def numbers(name, val):
    """Rule: a non-empty list of numbers, as floats; a bare number is a list of one."""
    try:
        if val != []:
            return [number(name, v) for v in (val if isinstance(val, list) else [val])]
    except ConfigError:
        pass
    raise ConfigError(f"{name} must be a number or a non-empty list of numbers, got {val!r}")


def integer(low=None, high=None):
    """Rule: an integer in [low, high), either end open when None, that a
    float can hold. An integral float such as 1e4 counts; inf and nan do not."""
    bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high})"

    def rule(name, val):
        try:
            integral = number(name, val).is_integer()  # False for inf and nan
        except ConfigError:
            integral = False
        if integral and (low is None or int(val) >= low) and (high is None or int(val) < high):
            return int(val)
        raise ConfigError(f"{name} must be an integer{bound}, got {val!r}")

    return rule


def string(name, val):
    """Rule: a string."""
    if not isinstance(val, str):
        raise ConfigError(f"{name} must be a string, got {val!r}")
    return val


def _paths(name, val):
    """Rule: a path count >= 1 whose terminal wealth and variance arrays fit in memory."""
    val = integer(1)(name, val)
    too_big = memory_violation(f"{name} = {val}: the terminal wealth and variance arrays", 2 * val)
    if too_big:
        raise ConfigError(too_big)
    return val


# name -> rule(name, value): the value a run uses, or a ConfigError. Ranges
# that validate_config checks are left to it.
RULES = {
    **dict.fromkeys(KEYS, number),
    "gammas": numbers,
    "probs": numbers,
    "M": integer(),
    "seed": integer(0, 2 ** 64),  # a Philox key word; no model invariant bounds it
    # command-line flags (seed is one too)
    "paths": _paths,
    "threads": integer(1),
    "horizon": number,
    # numbers, or their text as a command line gives it (a manifest keeps that text)
    "values": lambda name, val: numbers(name, _parse_numbers(val) if isinstance(val, str) else val),
    "strategy": string,
    "param": string,
    "observable": string,
}


def parse_config_text(text):
    """Parse config text into a {key: float | list[float] | int} dict."""
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ConfigError(f"expected 'key = value', got {raw.strip()!r}")
            if key not in KEYS:
                raise ConfigError(f"unknown key {key!r}")
            if key in values:
                raise ConfigError(f"duplicate key {key!r}")
            values[key] = RULES[key](key, _parse_numbers(val))
        except ConfigError as exc:
            raise ConfigError(str(exc), line_no) from None
    return values


def build_model(values):
    """Assemble and validate a model from a parsed config dict (or a
    manifest's, whose values are checked here by the same rules)."""
    merged = {**DEFAULTS, **values}
    missing = [k for k in KEYS if k not in merged]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    merged = {key: RULES[key](key, merged[key]) for key in KEYS}
    ins, heston, horizon = (cls(**{f.name: merged[f.name] for f in fields(cls)}) for cls in _PARTS)
    dist = AversionDistribution.from_lists(merged["gammas"], merged["probs"])
    return validate_config(ins, heston, dist, horizon), merged["seed"]


def load_config(path):
    """Read a config file and return (ValidatedModel, seed).

    Raises ConfigError on malformed input and ValidationError on invariant
    violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return build_model(parse_config_text(text))


def model_to_config_dict(model: ValidatedModel, seed):
    """Flat snapshot of a model, suitable for a manifest or re-parsing."""
    parts = (model.ins, model.heston, model.horizon)
    snapshot = {f.name: getattr(part, f.name) for part in parts for f in fields(part)}
    return {**snapshot, "gammas": list(model.dist.gammas), "probs": list(model.dist.probs), "seed": int(seed)}
