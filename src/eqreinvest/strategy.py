"""Equilibrium strategies, admissibility check and value function.

The retained proportion q_hat is fully analytic; the investment amount
pi_hat flows through the g2 solution. Both are deterministic and
state-independent: they depend on time and model parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .model import ValidatedModel
# pi_bar_path and pi_hat_path live in odes beside pi_bar; re-exported here
from .odes import GSolution, pi_bar_path, pi_hat_path, q_hat, retention_ratio

REGIME_REINSURANCE = "Reinsurance"
REGIME_NEW_BUSINESS = "NewBusiness"
REGIME_BOUNDARY = "Boundary"

EXP_OVERFLOW_LIMIT = 700.0


class ValueRangeError(ArithmeticError):
    """Ansatz exponent out of floating-point range; the value is not
    representable rather than infinite or zero."""

    def __init__(self, exponent):
        self.exponent = exponent
        super().__init__(
            f"ansatz exponent {exponent:.6g} beyond +-{EXP_OVERFLOW_LIMIT:g}; value out of range"
        )


@dataclass
class StrategyPath:
    """Equilibrium (q_hat, pi_hat) on the grid plus per-point regime label."""

    grid: np.ndarray
    q_hat: np.ndarray
    pi_hat: np.ndarray
    regime: np.ndarray  # array of regime label strings


@dataclass
class AdmissibilityReport:
    """Pointwise evaluation of the moment-bound condition.

    lhs[i][m] = -8*gamma_i*xi*pi_bar(t_m) + 32*gamma_i^2*pi_bar(t_m)^2 must
    stay below rhs = kappa^2/(2 sigma^2), and every g2 must be nonpositive.
    Failure is data, not an error: the strategy stays evaluable, only the
    verification guarantee lapses.
    """

    grid: np.ndarray
    lhs: np.ndarray          # (n_atoms, M+1)
    rhs: float
    g2_nonpositive: np.ndarray
    passed: bool
    first_violation: Optional[Tuple[int, int]]  # (atom index, grid index)
    max_lhs: float

    @property
    def margin(self):
        """rhs - lhs; negative where the condition fails."""
        return self.rhs - self.lhs


def _classify(q):
    regime = np.where(q < 1.0, REGIME_REINSURANCE, REGIME_NEW_BUSINESS)
    return np.where(q == 1.0, REGIME_BOUNDARY, regime)


def equilibrium_strategy(model: ValidatedModel, g2) -> StrategyPath:
    """Assemble the equilibrium strategy path on the grid, from g2 alone."""
    grid = model.horizon.grid()
    q = q_hat(model, grid)
    return StrategyPath(grid=grid, q_hat=q, pi_hat=pi_hat_path(model, g2), regime=_classify(q))


def check_admissibility(model: ValidatedModel, g2) -> AdmissibilityReport:
    """Evaluate the admissibility condition at every grid point and atom.

    Needs g2 alone (shape (n_atoms, M+1)); uses the undiscounted kernel
    pi_bar, not the discounted pi_hat.
    """
    hs = model.heston
    gammas = np.asarray(model.dist.gammas)[:, None]
    pb = pi_bar_path(model, g2)[None, :]
    lhs = -8.0 * gammas * hs.xi * pb + 32.0 * gammas ** 2 * pb ** 2
    rhs = hs.kappa ** 2 / (2.0 * hs.sigma ** 2)
    g2_ok = np.all(g2 <= 0.0, axis=1)
    bad = (lhs > rhs) | (g2 > 0.0)
    passed = bool(np.all(lhs <= rhs) and np.all(g2_ok))
    violations = np.argwhere(bad.T)  # (grid point, atom) pairs: earliest point, then lowest atom
    first_violation = (int(violations[0, 1]), int(violations[0, 0])) if len(violations) else None
    return AdmissibilityReport(
        grid=model.horizon.grid(),
        lhs=lhs,
        rhs=rhs,
        g2_nonpositive=g2_ok,
        passed=passed,
        first_violation=first_violation,
        max_lhs=float(np.max(lhs)),
    )


class ValueSurface:
    """Evaluators for the equilibrium value function and per-atom ansatz.

    Off-grid times are handled by linear interpolation of the g values.
    """

    def __init__(self, model: ValidatedModel, gsol: GSolution):
        self._model = model
        self._gsol = gsol

    def _g_at(self, t):
        g = self._gsol
        g1 = np.array([np.interp(t, g.grid, row) for row in g.g1])
        g2 = np.array([np.interp(t, g.grid, row) for row in g.g2])
        g3 = np.array([np.interp(t, g.grid, row) for row in g.g3])
        return g1, g2, g3

    def value(self, t, x, v) -> float:
        """Equilibrium value U(t, x, v): probability-weighted combination of
        the ansatz exponents, affine in x and v."""
        g1, g2, g3 = self._g_at(t)
        gammas = np.asarray(self._model.dist.gammas)
        probs = np.asarray(self._model.dist.probs)
        return float(-np.sum((g1 * x + g2 * v + g3) / gammas * probs))

    def atom_value(self, t, x, v, i) -> float:
        """Per-atom expectation function Y_i(t, x, v) = -(1/gamma_i) e^{exponent}."""
        g1, g2, g3 = self._g_at(t)
        gamma = self._model.dist.gammas[i]
        exponent = g1[i] * x + g2[i] * v + g3[i]
        if abs(exponent) > EXP_OVERFLOW_LIMIT:  # e^exponent overflows, or underflows to -0.0
            raise ValueRangeError(exponent)
        return -math.exp(exponent) / gamma


def value_function(model: ValidatedModel, gsol: GSolution) -> ValueSurface:
    if not (np.all(np.isfinite(gsol.g2)) and np.all(np.isfinite(gsol.g3))):
        raise ValueError("G-solution contains non-finite values")
    return ValueSurface(model, gsol)


@dataclass
class RegimeReport:
    """Reinsurance vs new-business classification over the horizon."""

    ratio: float                     # a*eta2 / (b^2 E[gamma])
    crossover_tau: Optional[float]   # time-to-maturity where q_hat crosses 1
    reinsurance_throughout: bool


def regime_classification(model: ValidatedModel) -> RegimeReport:
    """Classify the horizon: if the retention ratio is below one the whole
    horizon is reinsurance; otherwise report the crossover time-to-maturity
    (1/r) ln(ratio). q_hat(t) = ratio e^{-r(T-t)} peaks at q_hat(T) = ratio
    (r > 0, and the grid ends at T exactly), so no grid point needs a look;
    StrategyPath.regime labels each one."""
    ratio = retention_ratio(model)
    crossover = math.log(ratio) / model.heston.r if ratio >= 1.0 else None
    return RegimeReport(ratio=ratio, crossover_tau=crossover, reinsurance_throughout=ratio < 1.0)


_EXPECTED_SIGNS = {"r": -1, "eta2": 1, "lambda1": 0, "mu1": 1, "mu2": -1}
_REL_STEP = 1e-6  # central-difference step, relative to the parameter


@dataclass
class SensitivityReport:
    """Central-difference sensitivities of q_hat with expected-sign checks."""

    t: float
    derivatives: dict       # param -> finite-difference value
    signs: dict             # param -> -1 | 0 | +1 (computed)
    expected_signs: dict
    agrees: bool


def sensitivity_signs(model: ValidatedModel, t) -> SensitivityReport:
    """Central finite differences of the analytic q_hat in each insurance and
    rate parameter, compared against the known closed-form signs."""
    derivs = {}
    signs = {}
    for name in _EXPECTED_SIGNS:
        # q_hat reads only the model's insurance moments, r and E[gamma], so
        # the perturbed models need no re-derived diffusion; the claim
        # intensity cancels in retention_ratio, so a lambda1 step gives 0 exactly
        part = "heston" if name == "r" else "ins"
        params = getattr(model, part)
        base = getattr(params, name)
        step = abs(base) * _REL_STEP
        up = q_hat(replace(model, **{part: replace(params, **{name: base + step})}), t)
        dn = q_hat(replace(model, **{part: replace(params, **{name: base - step})}), t)
        d = float(up - dn) / (2.0 * step)
        derivs[name] = d
        # treat tiny finite-difference noise as an exact zero
        scale = q_hat(model, t) / max(abs(base), 1.0)
        if abs(d) <= 1e-14 * max(1.0, abs(scale)):
            signs[name] = 0
        else:
            signs[name] = 1 if d > 0 else -1
    expected = dict(_EXPECTED_SIGNS)
    if t == model.horizon.T:
        expected["r"] = 0  # discount factor is 1 at maturity
    return SensitivityReport(
        t=t,
        derivatives=derivs,
        signs=signs,
        expected_signs=expected,
        agrees=signs == expected,
    )
