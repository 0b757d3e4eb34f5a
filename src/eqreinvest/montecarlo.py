"""Monte Carlo simulation of the variance and wealth dynamics.

The variance follows a square-root process discretized with full
truncation (negative excursions are clipped inside every coefficient);
the wealth SDE integrates its linear rate term exactly over each step, so
the noiseless strategy reproduces the deterministic ODE limit to machine
precision. Normals are drawn from counter-based Philox streams keyed by
(seed, chunk index) with a fixed chunk size, making every batch
reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .model import ValidatedModel
from .odes import GSolution
from .strategy import StrategyPath, equilibrium_strategy

CHUNK_SIZE = 16384


class SimulationError(RuntimeError):
    """Non-finite state encountered during path generation."""

    def __init__(self, step, n_bad):
        self.step = step
        self.n_bad = n_bad
        super().__init__(f"non-finite state at step {step} on {n_bad} path(s)")


@dataclass
class PathBatch:
    """Simulated wealth/variance paths.

    Full (n_paths, M+1) state histories are kept only when requested via
    record_full; terminal values and the running variance minimum are
    always available. Recorded variance is the truncated (nonnegative)
    process.
    """

    n_paths: int
    seed: int
    grid: np.ndarray
    x_terminal: np.ndarray
    v_terminal: np.ndarray
    min_v: float
    scheme: str = "full-truncation Euler, exact rate integration"
    x_paths: Optional[np.ndarray] = None
    v_paths: Optional[np.ndarray] = None


@dataclass
class SimulationResult:
    """Per-atom utility estimates with standard errors, certainty
    equivalents, and the probability-weighted reward.

    weights holds the reward's per-path delta-method terms,
    sum_i p_i u_i / (-gamma_i mean_i): the linearization of the reward
    around the utility means, whose sample spread gives its standard error.
    """

    gammas: np.ndarray
    utility_mean: np.ndarray
    utility_se: np.ndarray
    cert_equiv: np.ndarray
    reward: float
    n_paths: int
    seed: int
    weights: np.ndarray


StrategySpec = Union[StrategyPath, str, Tuple[float, float]]


def _strategy_arrays(model: ValidatedModel, strategy: StrategySpec):
    """Per-step (left endpoint) q and pi arrays of length M."""
    M = model.horizon.M
    if isinstance(strategy, StrategyPath):
        return strategy.q_hat[:-1].copy(), strategy.pi_hat[:-1].copy()
    if strategy == "zero":
        return np.zeros(M), np.zeros(M)
    q, pi = strategy
    return np.full(M, float(q)), np.full(M, float(pi))


def simulate_paths(
    model: ValidatedModel,
    strategy: StrategySpec,
    n_paths: int,
    seed: int,
    record_full: bool = False,
) -> PathBatch:
    """Simulate n_paths of (wealth, variance) under the given strategy.

    strategy is a StrategyPath on the model grid, the string "zero", or a
    constant (q, pi) pair. Identical (model, strategy, n_paths, seed)
    give a bit-identical batch.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    hs, hz = model.heston, model.horizon
    d = model.diffusion
    M, l = hz.M, hz.l
    grid = hz.grid()
    qs, ps = _strategy_arrays(model, strategy)
    sqrt_l = math.sqrt(l)
    er = math.exp(hs.r * l)
    # exact integral of e^{r(l-s)} ds over one step; -> l as r -> 0
    growth = (er - 1.0) / hs.r if hs.r != 0.0 else l
    rho_c = math.sqrt(1.0 - hs.rho ** 2)

    x_terminal = np.empty(n_paths)
    v_terminal = np.empty(n_paths)
    x_paths = np.empty((n_paths, M + 1)) if record_full else None
    v_paths = np.empty((n_paths, M + 1)) if record_full else None
    min_v = math.inf

    for chunk_index, start in enumerate(range(0, n_paths, CHUNK_SIZE)):
        stop = min(start + CHUNK_SIZE, n_paths)
        c = stop - start
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        x = np.full(c, hz.x0)
        v = np.full(c, hs.v0)
        if record_full:
            x_paths[start:stop, 0] = x
            v_paths[start:stop, 0] = v
        for m in range(M):
            z = rng.standard_normal((3, c))
            dw0 = sqrt_l * z[0]
            dw1 = sqrt_l * z[1]
            dw2 = sqrt_l * (hs.rho * z[1] + rho_c * z[2])
            v_plus = np.maximum(v, 0.0)
            sqrt_v = np.sqrt(v_plus)
            drift = d.a * d.eta + d.a * model.ins.eta2 * qs[m] + hs.xi * v_plus * ps[m]
            x = x * er + drift * growth + d.b * qs[m] * dw0 + ps[m] * sqrt_v * dw1
            v = v + hs.kappa * (hs.theta - v_plus) * l + hs.sigma * sqrt_v * dw2
            bad = ~(np.isfinite(x) & np.isfinite(v))
            if np.any(bad):
                raise SimulationError(m + 1, int(np.count_nonzero(bad)))
            if record_full:
                x_paths[start:stop, m + 1] = x
                v_paths[start:stop, m + 1] = np.maximum(v, 0.0)
            min_v = min(min_v, float(np.min(np.maximum(v, 0.0))))
        x_terminal[start:stop] = x
        v_terminal[start:stop] = np.maximum(v, 0.0)

    return PathBatch(
        n_paths=n_paths,
        seed=seed,
        grid=grid,
        x_terminal=x_terminal,
        v_terminal=v_terminal,
        min_v=min_v,
        x_paths=x_paths,
        v_paths=v_paths,
    )


def _utilities(x_terminal, gamma):
    return -np.exp(-gamma * x_terminal) / gamma


def _inverse_utility(y, gamma):
    return -math.log(-gamma * y) / gamma


def estimate_reward(model: ValidatedModel, batch: PathBatch) -> SimulationResult:
    """Per-atom sample means of terminal utility, their standard errors,
    certainty equivalents, and the probability-weighted reward."""
    if batch.n_paths < 1:
        raise ValueError("empty path batch")
    gammas = np.asarray(model.dist.gammas)
    probs = np.asarray(model.dist.probs)
    means = np.empty(len(gammas))
    ses = np.empty(len(gammas))
    ces = np.empty(len(gammas))
    weights = np.zeros(batch.n_paths)
    for i, (gamma, p) in enumerate(zip(gammas, probs)):
        u = _utilities(batch.x_terminal, gamma)
        mean = float(np.mean(u))
        if mean >= 0.0:
            # exponential utility is strictly negative; this is corruption
            raise RuntimeError(f"nonnegative utility mean {mean} for gamma={gamma}")
        means[i] = mean
        ses[i] = float(np.std(u, ddof=1) / math.sqrt(batch.n_paths)) if batch.n_paths > 1 else 0.0
        ces[i] = _inverse_utility(mean, gamma)
        weights += p * u / (-gamma * mean)
    reward = float(np.dot(probs, ces))
    return SimulationResult(
        gammas=gammas,
        utility_mean=means,
        utility_se=ses,
        cert_equiv=ces,
        reward=reward,
        n_paths=batch.n_paths,
        seed=batch.seed,
        weights=weights,
    )


@dataclass
class SpotCheckRow:
    """One perturbation of the equilibrium-property spot check."""

    q: float
    pi: float
    h: float
    reward_equilibrium: float
    reward_perturbed: float
    diff_rate: float       # (J_equilibrium - J_perturbed) / h
    diff_rate_se: float
    violation: bool        # diff_rate < -3 * se


def _perturbed_path(model, base: StrategyPath, q, pi, h) -> StrategyPath:
    mask = base.grid < h
    q_arr = np.where(mask, q, base.q_hat)
    pi_arr = np.where(mask, pi, base.pi_hat)
    return StrategyPath(grid=base.grid, q_hat=q_arr, pi_hat=pi_arr, regime=base.regime)


def equilibrium_spot_check(
    model: ValidatedModel,
    gsol: GSolution,
    perturbations: Sequence[Tuple[float, float]],
    h: float,
    n_paths: int,
    seed: int,
):
    """First-order deviation test of the equilibrium property.

    Each perturbation replaces the strategy by constant (q, pi) on [0, h)
    and keeps the equilibrium afterwards. Both rewards use common random
    numbers; the standard error of the difference rate comes from the
    paired per-path delta-method weights. A negative rate beyond three
    standard errors is flagged, never raised.
    """
    base = equilibrium_strategy(model, gsol)
    eq = estimate_reward(model, simulate_paths(model, base, n_paths, seed))
    rows = []
    for q, pi in perturbations:
        pert = _perturbed_path(model, base, q, pi, h)
        res = estimate_reward(model, simulate_paths(model, pert, n_paths, seed))
        diff = eq.weights - res.weights
        se_diff = float(np.std(diff, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        rate = (eq.reward - res.reward) / h
        rate_se = se_diff / h
        rows.append(
            SpotCheckRow(
                q=q,
                pi=pi,
                h=h,
                reward_equilibrium=eq.reward,
                reward_perturbed=res.reward,
                diff_rate=rate,
                diff_rate_se=rate_se,
                violation=rate < -3.0 * rate_se,
            )
        )
    return rows
