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
from dataclasses import dataclass

import numpy as np

PROB_SUM_TOL = 1e-12

@functools.cache
def _fma():
    """glibc's fma(x, y, z), x * y + z correctly rounded once, through ctypes."""
    import ctypes

    fma = ctypes.CDLL("libm.so.6").fma
    fma.restype, fma.argtypes = ctypes.c_double, [ctypes.c_double] * 3
    return fma


def weighted_sum(values, weights):
    """sum_i values[i] * weights[i], rounded as fused multiply-adds in atom
    order from +0.0: acc = fma(v_i, w_i, acc), by glibc's fma, which the C
    g2 loop calls too (Python has no fma before 3.13). The sum is defined
    here and not by the BLAS, whose ddot rounds by CPU kernel (OpenBLAS's
    Haswell kernel differs from SkylakeX in 17-37% of random draws). An
    exact zero sum, the empty one included, is +0.0.
    """
    if len(values) != len(weights):
        raise ValueError(f"values and weights differ in length: {len(values)} vs {len(weights)}")
    fma, acc = _fma(), 0.0
    for v, w in zip(values, weights):
        acc = fma(v, w, acc)
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


@dataclass(frozen=True)
class ValidatedModel:
    """Immutable bundle of validated inputs."""

    ins: InsuranceParams
    heston: HestonParams
    dist: AversionDistribution
    horizon: Horizon


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


# the number types of an input: a str is not one, even one that float() parses
_REAL = (float, int, np.floating, np.integer)
# stands for each input reported as not a finite number: every comparison
# with nan is false, so a rule written as the test for its violation does
# not report the input again; a rule of another form checks for it by identity
_REPORTED = math.nan


def _reals(names, values, violations):
    """The values, with _REPORTED for each one that is not a finite real
    number, which is reported once, in violations, as such. Each value is
    converted to float once, by isfinite; M's own rule reports an M that is
    not a number. An np.float64 comes back as the float it holds, which
    prints alike and compares with an int past the float range without an
    OverflowError."""
    reals = []
    for name, val in zip(names, values):
        if not isinstance(val, _REAL):
            problem = None if name == "M" else f"a number, got {val!r}"
        else:
            try:
                problem = None if math.isfinite(val) else f"finite, got {val}"
            except OverflowError:
                problem = "finite, got an int past the float range"
        if problem:
            violations.append(f"{name} must be {problem}")
            val = _REPORTED
        reals.append(float(val) if isinstance(val, np.float64) else val)
    return reals


def _python(x):
    """x as the Python float or int it holds, exactly: unlike numpy's, it compares with any int."""
    return x.item() if isinstance(x, np.generic) else x


def validate_config(ins, heston, dist, horizon) -> ValidatedModel:
    """Check every type invariant and return the immutable model bundle.

    Each input is read once. One that is not a number (an int, a float or a
    numpy scalar; a str is not one, even one that float() parses) is
    reported as `<name> must be a number`, and one that is not finite (an
    int past the float range included) as `<name> must be finite`; M's own
    rule reports an M that is not a number. Each range rule and each rule
    across inputs then runs once, on the finite inputs only, so no input is
    reported twice. Violations are aggregated: a single ValidationError
    lists all of them. Once the inputs are valid, the square of g1's largest
    magnitude max_i gamma_i e^{rT} must be finite (g3's quadrature squares
    g1), and what odes.solve_g holds at its peak must fit in physical
    memory: (6n+3)(M+1) float64 values, the grid, g1, g2, g3 and the
    quadrature's temporaries.
    """
    violations = []
    names = ("eta1", "eta2", "lambda1", "mu1", "mu2")
    eta1, eta2, lambda1, mu1, mu2 = _reals(names, [getattr(ins, n) for n in names], violations)
    names = ("r", "xi", "kappa", "theta", "sigma", "rho", "v0")
    r, xi, kappa, theta, sigma, rho, v0 = _reals(names, [getattr(heston, n) for n in names], violations)
    T, M, _ = _reals(("T", "M", "x0"), (horizon.T, horizon.M, horizon.x0), violations)
    gammas = _reals([f"gamma[{i}]" for i in range(len(dist.gammas))], dist.gammas, violations)
    probs = _reals([f"prob[{i}]" for i in range(len(dist.probs))], dist.probs, violations)

    for name, x in (("lambda1", lambda1), ("mu1", mu1), ("mu2", mu2)):
        if x <= 0:
            violations.append(f"{name} must be > 0, got {x}")
    if eta1 < 0:
        violations.append(f"eta1 must be >= 0, got {eta1}")
    if eta2 < eta1:
        violations.append(f"eta2 must be >= eta1 (no arbitrage), got eta2={eta2} < eta1={eta1}")
    # x * x, not x ** 2, which raises OverflowError past the float range
    if mu2 > 0 and mu1 > 0 and _python(mu2) < _python(mu1 * mu1):
        violations.append(f"mu2 must be >= mu1^2, got mu2={mu2} < {mu1 * mu1}")
    for name, x in (("r", r), ("xi", xi), ("kappa", kappa), ("theta", theta), ("sigma", sigma), ("v0", v0)):
        if x <= 0:
            violations.append(f"{name} must be > 0, got {x}")
    if rho < -1.0 or rho > 1.0:
        violations.append(f"rho must be in [-1, 1], got {rho}")
    # not >, as a nan 2*kappa*theta (kappa past 9e307, theta zero) violates the condition too
    if _REPORTED not in (kappa, theta, sigma) and not _python(2.0 * kappa * theta) > _python(sigma * sigma):
        violations.append(
            f"Feller condition violated: 2*kappa*theta={2.0 * kappa * theta} <= sigma^2={sigma * sigma}")
    if len(gammas) != len(probs):
        violations.append(f"gammas and probs differ in length: {len(gammas)} vs {len(probs)}")
    elif not gammas:
        violations.append("distribution must have at least one atom")
    else:
        for name, atoms in (("gamma", gammas), ("prob", probs)):
            violations += [f"{name}[{i}] must be > 0, got {x}" for i, x in enumerate(atoms) if x <= 0]
        if _REPORTED not in probs:
            try:
                s = math.fsum(probs)
            except OverflowError:  # finite probabilities whose sum is past the float range
                s = math.inf
            if abs(s - 1.0) > PROB_SUM_TOL:
                violations.append(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {s!r}")
    if T <= 0:
        violations.append(f"T must be > 0, got {T}")
    if M is not _REPORTED and not (isinstance(M, (int, np.integer)) and M >= 1):
        violations.append(f"M must be an integer >= 1, got {M!r}")
    elif T > 0 and T / M <= 0:  # T / M underflows; nan for a reported M
        violations.append(f"the grid step T / M must be > 0, got {T / M} (T = {T}, M = {M})")

    if not violations:
        with np.errstate(over="ignore"):  # g3's quadrature squares g1 = -gamma e^{r(T-t)}
            try:
                rate = float(heston.r * horizon.T)
            except OverflowError:  # an int product past the float range
                rate = math.inf
            g1_square = (max(dist.gammas) * np.exp(rate)) ** 2
        if g1_square == np.inf:
            violations.append(f"(max gamma_i e^(rT))^2 must be finite (r = {heston.r}, T = {horizon.T})")
        too_big = memory_violation(f"M = {horizon.M}: the grid and the g arrays of {dist.n} atom(s)",
                                   (6 * dist.n + 3) * (horizon.M + 1))
        violations += [too_big] if too_big else []
    if violations:
        raise ValidationError(violations)
    return ValidatedModel(ins=ins, heston=heston, dist=dist, horizon=horizon)
