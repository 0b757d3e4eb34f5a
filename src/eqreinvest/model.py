"""Validated market inputs.

All types are frozen dataclasses: a validated model can be shared freely
across workers and re-validation of the same inputs is byte-identical.
InsuranceParams derives the diffusion approximation of the surplus from
its own fields, dX = drift(q) dt + b q dW0 with drift(q) = a eta + a eta2 q,
a = lambda1 mu1, b = sqrt(lambda1 mu2) and eta = eta1 - eta2 <= 0, so a
model made with dataclasses.replace never carries stale scales.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

PROB_SUM_TOL = 1e-12

def _split(x):
    """Veltkamp's split of x into x_hi + x_lo: 2^27 + 1 splits a double into
    two 26-bit halves, whose products with another split are exact."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def weighted_sum(values, weights):
    """sum_i values[i] * weights[i], rounded as fused multiply-adds in atom
    order from +0.0: acc = fma(v_i, w_i, acc).

    OpenBLAS's SkylakeX ddot rounded the same in 4000 of 4000 random draws
    for each of 2, 3, 4, 6 and 15 atoms, but its Haswell kernel differs in
    17-37% of them, so the sum is defined here and not by the BLAS. Python
    has no fma before 3.13, so each step after the first is emulated
    exactly: Dekker's two-product gives v_i w_i as prod + err without
    rounding, and math.fsum rounds prod + err + acc correctly. The emulation
    is exact while no |v_i| or |w_i| exceeds about 1e300 (the split would
    overflow) and no nonzero product falls below about 1e-290 (err would not
    be representable). Since acc starts at +0.0, an exact zero sum, the
    empty one included, is +0.0, as fsum returns it. Outside the domain the
    sum can differ from fma's but does not raise: a non-finite or
    overflowing step is a plain add.
    """
    if len(values) != len(weights):
        raise ValueError(f"values and weights differ in length: {len(values)} vs {len(weights)}")
    terms = zip(values, map(float, weights))
    v, w = next(terms, (0.0, 0.0))
    acc = v * w + 0.0  # fma(v_0, w_0, +0.0)
    for v, w in terms:
        prod = v * w
        v_hi, v_lo = _split(v)
        w_hi, w_lo = _split(w)
        err = ((v_hi * w_hi - prod) + v_hi * w_lo + v_lo * w_hi) + v_lo * w_lo
        try:
            acc = math.fsum((prod, err, acc))
        except (ValueError, OverflowError):  # inf - inf, or a sum past the float range
            acc = prod + acc
    return acc


class ValidationError(ValueError):
    """Raised when one or more model invariants are violated.

    Carries the full list of violations so a config can be fixed in one
    pass instead of one failure at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class InsuranceParams:
    """Insurance market: safety loadings and claim-size moments."""

    eta1: float   # insurer safety loading
    eta2: float   # reinsurer safety loading
    lambda1: float  # claim intensity (1/year)
    mu1: float    # first moment of claim size
    mu2: float    # second moment of claim size

    def violations(self):
        v = []
        if not self.lambda1 > 0:
            v.append(f"lambda1 must be > 0, got {self.lambda1}")
        if not self.mu1 > 0:
            v.append(f"mu1 must be > 0, got {self.mu1}")
        if not self.mu2 > 0:
            v.append(f"mu2 must be > 0, got {self.mu2}")
        if not self.eta1 >= 0:
            v.append(f"eta1 must be >= 0, got {self.eta1}")
        # a check across fields runs on finite fields only, so that a
        # non-finite input is reported once, as such
        if math.isfinite(self.eta1) and not self.eta2 >= self.eta1:
            v.append(f"eta2 must be >= eta1 (no arbitrage), got eta2={self.eta2} < eta1={self.eta1}")
        # x * x, not x ** 2, which raises OverflowError past the float range
        if self.mu2 > 0 and 0 < self.mu1 < math.inf and not self.mu2 >= self.mu1 * self.mu1:
            v.append(f"mu2 must be >= mu1^2, got mu2={self.mu2} < {self.mu1 * self.mu1}")
        return v

    @property
    def a(self):
        """Drift scale of the surplus approximation, lambda1 * mu1."""
        return self.lambda1 * self.mu1

    @property
    def b(self):
        """Noise scale of the surplus approximation, sqrt(lambda1 * mu2)."""
        return math.sqrt(self.lambda1 * self.mu2)

    @property
    def eta(self):
        """Loading gap eta1 - eta2, <= 0 on valid inputs."""
        return self.eta1 - self.eta2

    def drift(self, q):
        """Surplus drift a*eta + a*eta2*q at retained proportion q (a number or array)."""
        a, eta, eta2 = self.a, self.eta, self.eta2
        return a * eta + a * eta2 * q


@dataclass(frozen=True)
class HestonParams:
    """Risk-free rate plus stochastic-volatility dynamics of the risky asset."""

    r: float      # risk-free rate
    xi: float     # volatility premium
    kappa: float  # mean-reversion rate of variance
    theta: float  # long-run variance
    sigma: float  # vol of vol
    rho: float    # correlation between price and variance shocks
    v0: float     # initial variance

    def violations(self):
        v = []
        for name in ("r", "xi", "kappa", "theta", "sigma", "v0"):
            val = getattr(self, name)
            if not val > 0:
                v.append(f"{name} must be > 0, got {val}")
        if not -1.0 <= self.rho <= 1.0:
            v.append(f"rho must be in [-1, 1], got {self.rho}")
        # on finite fields only, and x * x, as InsuranceParams checks mu1^2
        finite = all(map(math.isfinite, (self.kappa, self.theta, self.sigma)))
        if finite and not 2.0 * self.kappa * self.theta > self.sigma * self.sigma:
            v.append(
                "Feller condition violated: 2*kappa*theta="
                f"{2.0 * self.kappa * self.theta} <= sigma^2={self.sigma * self.sigma}"
            )
        return v


@dataclass(frozen=True)
class AversionDistribution:
    """n-point distribution of the risk-aversion coefficient.

    Duplicate gamma atoms are kept distinct; probabilities must sum to one
    within PROB_SUM_TOL (no silent renormalization).
    """

    gammas: tuple
    probs: tuple

    @classmethod
    def from_lists(cls, gammas, probs):
        return cls(tuple(float(g) for g in gammas), tuple(float(p) for p in probs))

    @classmethod
    def single(cls, gamma):
        return cls((float(gamma),), (1.0,))

    @property
    def n(self):
        return len(self.gammas)

    @property
    def mean(self):
        return weighted_sum(self.gammas, self.probs)

    def violations(self):
        v = []
        if len(self.gammas) != len(self.probs):
            v.append(f"gammas and probs differ in length: {len(self.gammas)} vs {len(self.probs)}")
            return v
        if len(self.gammas) == 0:
            v.append("distribution must have at least one atom")
            return v
        for i, g in enumerate(self.gammas):
            if not g > 0:
                v.append(f"gamma[{i}] must be > 0, got {g}")
        for i, p in enumerate(self.probs):
            if not p > 0:
                v.append(f"prob[{i}] must be > 0, got {p}")
        if not all(map(math.isfinite, self.probs)):  # each is reported as such
            return v
        try:
            s = math.fsum(self.probs)
        except OverflowError:  # finite probabilities whose sum is past the float range
            s = math.inf
        if abs(s - 1.0) > PROB_SUM_TOL:
            v.append(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {s!r}")
        return v


@dataclass(frozen=True)
class Horizon:
    """Time grid [0, T] with M uniform steps and the initial wealth x0."""

    T: float
    M: int
    x0: float = 1.0

    @property
    def l(self):
        return self.T / self.M

    def grid(self):
        """Grid points t_m = m*l with the final point pinned to T exactly."""
        t = self.l * np.arange(self.M + 1)
        t[-1] = self.T
        return t

    def violations(self):
        v = []
        if not self.T > 0:
            v.append(f"T must be > 0, got {self.T}")
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
            v.append(f"M must be an integer >= 1, got {self.M!r}")
        elif self.T > 0 and not self.l > 0:  # T / M underflows
            v.append(f"the grid step T / M must be > 0, got {self.l} (T = {self.T}, M = {self.M})")
        return v


@dataclass(frozen=True)
class ValidatedModel:
    """Immutable bundle of validated inputs."""

    ins: InsuranceParams
    heston: HestonParams
    dist: AversionDistribution
    horizon: Horizon


def _past_float_range(val):
    """Whether val is an int that float() refuses as too large."""
    if isinstance(val, int):
        try:
            float(val)
        except OverflowError:
            return True
    return False


def _non_finite(ins, heston, dist, horizon):
    """(name, value) of every real-number input that is infinite or NaN, with
    an int past the float range shown as such; inputs of another type are
    left to the range checks."""
    named = [(f.name, getattr(part, f.name)) for part in (ins, heston, horizon) for f in fields(part)]
    named += [(f"gamma[{i}]", g) for i, g in enumerate(dist.gammas)]
    named += [(f"prob[{i}]", p) for i, p in enumerate(dist.probs)]
    found = []
    for name, val in named:
        if _past_float_range(val):
            found.append((name, "an int past the float range"))
        elif isinstance(val, (int, float, np.integer, np.floating)) and not math.isfinite(val):
            found.append((name, val))
    return found


def _nan_past_float_range(part):
    """part with each int past the float range, in a field or a tuple field,
    replaced by nan: the range checks compare and print nan without an
    OverflowError, and _non_finite reports the int."""
    def fix(val):
        if isinstance(val, tuple):
            return tuple(map(fix, val))
        return math.nan if _past_float_range(val) else val
    return replace(part, **{f.name: fix(getattr(part, f.name)) for f in fields(part)})


@functools.cache
def physical_memory():
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def memory_violation(what, n_values):
    """Why n_values float64 values of what cannot be held, or None when
    they fit in physical memory (or it is unknown)."""
    memory = physical_memory()
    if memory is None or 8 * n_values <= memory:
        return None
    return (f"{what} need {8 * n_values / 2 ** 30:.3g} GiB as float64, "
            f"more than the {memory / 2 ** 30:.3g} GiB of physical memory")


def validate_config(ins, heston, dist, horizon) -> ValidatedModel:
    """Check every type invariant and return the immutable model bundle.

    Every input must be finite (an int past the float range is not).
    Violations are aggregated: a single ValidationError lists all of them,
    one per input (a non-finite input is not also reported by its range
    check). Once the inputs are valid,
    the square of g1's largest magnitude max_i gamma_i e^{rT} must be
    finite (g3's quadrature squares g1), and what odes.solve_g holds at its
    peak must fit in physical memory: (6n+3)(M+1) float64 values, the grid,
    g1, g2, g3 and the quadrature's temporaries.
    """
    non_finite = _non_finite(ins, heston, dist, horizon)
    reported = tuple(f"{name} " for name, _ in non_finite)
    violations = [f"{name} must be finite, got {val}" for name, val in non_finite]
    for part in (ins, heston, dist, horizon):
        part = _nan_past_float_range(part) if non_finite else part
        violations += [v for v in part.violations() if not v.startswith(reported)]
    if not violations:
        with np.errstate(over="ignore"):  # g3's quadrature squares g1 = -gamma e^{r(T-t)}
            g1_square = (max(dist.gammas) * np.exp(heston.r * horizon.T)) ** 2
        if g1_square == np.inf:
            violations.append(f"(max gamma_i e^(rT))^2 must be finite (r = {heston.r}, T = {horizon.T})")
        too_big = memory_violation(f"M = {horizon.M}: the grid and the g arrays of {dist.n} atom(s)",
                                   (6 * dist.n + 3) * (horizon.M + 1))
        violations += [too_big] if too_big else []
    if violations:
        raise ValidationError(violations)
    return ValidatedModel(ins=ins, heston=heston, dist=dist, horizon=horizon)
