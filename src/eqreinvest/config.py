"""Flat key=value config files.

Format: one ``key = value`` per line, ``#`` starts a comment, numeric
values accept rational literals like ``7/15`` (kept exact until the final
float conversion), and ``gammas``/``probs`` are comma-separated lists.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    AversionDistribution,
    Horizon,
    HestonParams,
    InsuranceParams,
    ValidatedModel,
    ValidationError,
    validate_config,
)

SCALAR_KEYS = (
    "eta1", "eta2", "lambda1", "mu1", "mu2",
    "r", "xi", "kappa", "theta", "sigma", "rho", "v0",
    "T", "x0",
)
LIST_KEYS = ("gammas", "probs")
INT_KEYS = ("M", "seed")
ALL_KEYS = SCALAR_KEYS + LIST_KEYS + INT_KEYS

DEFAULTS = {"x0": "1", "seed": "12345"}


class ConfigError(ValueError):
    """Malformed config file; carries the offending line number when known."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _parse_number(token, line_no=None):
    token = token.strip()
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid numeric value {token!r}", line_no) from exc


def parse_config_text(text):
    """Parse config text into a {key: float | list[float] | int} dict."""
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line_no)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        if key in LIST_KEYS:
            items = [tok for tok in val.split(",") if tok.strip()]
            if not items:
                raise ConfigError(f"empty list for {key!r}", line_no)
            values[key] = [_parse_number(tok, line_no) for tok in items]
        elif key in INT_KEYS:
            num = _parse_number(val, line_no)
            if num != int(num):
                raise ConfigError(f"{key} must be an integer, got {val!r}", line_no)
            values[key] = int(num)
        else:
            values[key] = _parse_number(val, line_no)
    return values


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def build_model(values):
    """Assemble and validate a model from a parsed config dict (or a
    manifest's, whose value types are checked here)."""
    merged = {k: _parse_number(v) for k, v in DEFAULTS.items()}
    merged["seed"] = int(merged["seed"])
    merged.update(values)
    missing = [k for k in ALL_KEYS if k not in merged and k not in DEFAULTS]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    for key in ALL_KEYS:
        val = merged[key]
        if key in LIST_KEYS:
            ok = isinstance(val, list) and all(map(_is_number, val))
        else:
            ok = _is_number(val)
        if not ok:
            kind = "a list of numbers" if key in LIST_KEYS else "a number"
            raise ConfigError(f"{key} must be {kind}, got {val!r}")
    ins = InsuranceParams(
        eta1=merged["eta1"], eta2=merged["eta2"], lambda1=merged["lambda1"],
        mu1=merged["mu1"], mu2=merged["mu2"],
    )
    heston = HestonParams(
        r=merged["r"], xi=merged["xi"], kappa=merged["kappa"], theta=merged["theta"],
        sigma=merged["sigma"], rho=merged["rho"], v0=merged["v0"],
    )
    dist = AversionDistribution.from_lists(merged["gammas"], merged["probs"])
    horizon = Horizon(T=merged["T"], M=int(merged["M"]), x0=merged["x0"])
    model = validate_config(ins, heston, dist, horizon)
    return model, int(merged["seed"])


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
    ins, h, d, hz = model.ins, model.heston, model.dist, model.horizon
    return {
        "eta1": ins.eta1, "eta2": ins.eta2, "lambda1": ins.lambda1,
        "mu1": ins.mu1, "mu2": ins.mu2,
        "r": h.r, "xi": h.xi, "kappa": h.kappa, "theta": h.theta,
        "sigma": h.sigma, "rho": h.rho, "v0": h.v0,
        "T": hz.T, "M": hz.M, "x0": hz.x0,
        "gammas": list(d.gammas), "probs": list(d.probs),
        "seed": int(seed),
    }
