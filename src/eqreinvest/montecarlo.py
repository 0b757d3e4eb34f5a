"""Monte Carlo simulation of the variance and wealth dynamics.

The variance follows a square-root process discretized with full
truncation (negative excursions are clipped inside every coefficient);
the wealth SDE integrates its linear rate term exactly over each step, so
the noiseless strategy reproduces the deterministic ODE limit to machine
precision. Normals are drawn from counter-based Philox streams keyed by
(seed, chunk index) with a fixed chunk size, making every batch
reproducible and independent of scheduling.

simulate_strategies advances K strategies in one pass on common random
numbers: each step of a chunk draws its normals once and updates the
variance once (it does not depend on the strategy); only wealth is a
(K, chunk) array. Every strategy's wealth is bit-identical to a run of its
own, and simulate_paths is the K = 1 call. The paired spot check
simulates the equilibrium and its perturbations in that one pass.

The chunks of a run are independent work, so simulate_strategies spreads
them over worker threads (by default one per usable core, at most one per
chunk): numpy releases the interpreter lock while it draws normals and
while it runs a ufunc over a chunk. Each chunk writes its own slices of
the outputs, so every output bit is the same for any number of workers.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import ValidatedModel, weighted_sum
from .odes import GSolution
from .strategy import equilibrium_strategy

CHUNK_SIZE = 16384
_SMALLEST_NORMAL = np.finfo(float).tiny


class SimulationError(RuntimeError):
    """Non-finite state encountered during path generation."""

    def __init__(self, step, n_bad):
        self.step = step
        self.n_bad = n_bad
        super().__init__(f"non-finite state at step {step} on {n_bad} path(s)")


@dataclass
class PathBatch:
    """Terminal wealth and variance of simulated paths, and the lowest
    variance any path reached. Recorded variance is the truncated
    (nonnegative) process.
    """

    x_terminal: np.ndarray
    v_terminal: np.ndarray
    min_v: float


@dataclass
class SimulationResult:
    """Per-atom utility estimates with standard errors, certainty
    equivalents, and the probability-weighted reward.

    weights holds the reward's per-path delta-method terms,
    sum_i p_i u_i / (-gamma_i mean_i): the linearization of the reward
    around the utility means, whose sample spread gives its standard error.
    """

    utility_mean: np.ndarray
    utility_se: np.ndarray
    cert_equiv: np.ndarray
    reward: float
    weights: np.ndarray


def _left_ends(value, M):
    """A strategy component's M per-step values, read at the left end of
    each step: a number, or an array of its M + 1 values on the model grid."""
    a = np.asarray(value, dtype=float)
    if a.ndim and a.shape != (M + 1,):
        raise ValueError(f"strategy array of shape {a.shape} on a model grid of {M + 1} points")
    return np.broadcast_to(a, M + 1)[:-1]


def worker_count(n_chunks: int, workers: Optional[int] = None) -> int:
    """Threads a run of n_chunks chunks uses: workers, or one per usable
    core when None, capped at n_chunks and at the usable cores."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    if workers is None:
        workers = cores
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, n_chunks, cores)


def simulate_paths(
    model: ValidatedModel,
    strategy: tuple,
    n_paths: int,
    seed: int,
    workers: Optional[int] = None,
) -> PathBatch:
    """Simulate n_paths of (wealth, variance) under the given strategy.

    strategy is a pair (q, pi); each is a number or an array of its M + 1
    values on the model grid (as the pair equilibrium_strategy returns),
    read at the left end of each step. An array of another length raises
    ValueError. Identical (model, strategy, n_paths, seed) give a
    bit-identical batch, whatever the number of workers.
    """
    return simulate_strategies(model, [strategy], n_paths, seed, workers)[0]


def simulate_strategies(
    model: ValidatedModel,
    strategies: Sequence[tuple],
    n_paths: int,
    seed: int,
    workers: Optional[int] = None,
) -> List[PathBatch]:
    """Simulate n_paths under each strategy on common random numbers.

    One pass: every chunk draws its normals once per step and advances the
    variance once; only wealth is a (K, chunk) array. Batch k is
    bit-identical to simulate_paths(model, strategies[k], n_paths, seed),
    and all K batches share one v_terminal array. A
    non-finite state raises SimulationError at its step; a path counts as
    bad when any strategy's state on it is non-finite.

    The chunks run on worker_count(n_chunks, workers) threads, the calling
    thread among them. Each chunk has its own Philox stream and state and
    writes disjoint slices of the outputs, so the batches do not depend on
    workers. When chunks fail, the error of the lowest failing chunk is
    raised, as a serial run over the chunks would raise it.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_chunks = -(-n_paths // CHUNK_SIZE)
    w = worker_count(n_chunks, workers)
    hs, hz, ins = model.heston, model.horizon, model.ins
    M, l = hz.M, hz.l
    K = len(strategies)
    qs, ps = (np.array([_left_ends(c, M) for c in cs]) for cs in zip(*strategies))
    # per-step (K, 1) columns: the constant drift, the claim-noise scale b*q, and pi
    drift0 = np.ascontiguousarray(ins.drift(qs).T[:, :, None])
    noise_q = np.ascontiguousarray((ins.b * qs).T[:, :, None])
    pis = np.ascontiguousarray(ps.T[:, :, None])
    sqrt_l = math.sqrt(l)
    er = math.exp(hs.r * l)
    growth = (er - 1.0) / hs.r  # exact integral of e^{r(l-s)} ds over one step; validation refuses r <= 0
    rho_c = math.sqrt(1.0 - hs.rho ** 2)

    x_terminal = [np.empty(n_paths) for _ in range(K)]
    v_terminal = np.empty(n_paths)

    def run_chunk(chunk_index, buffers):
        """Advance one chunk on a worker's buffers, write its slices of the
        outputs and return its lowest variance."""
        start = chunk_index * CHUNK_SIZE
        stop = min(start + CHUNK_SIZE, n_paths)
        c = stop - start
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        # prefixes of flat buffers: C-contiguous (rows, c) views, also for
        # the short last chunk, as standard_normal(out=) requires
        bz, bx, bterm, *vectors = buffers
        z = bz[: 3 * c].reshape(3, c)
        x = bx[: K * c].reshape(K, c)
        term = bterm[: K * c].reshape(K, c)
        v, v_plus, sqrt_v, tmp, lowest = (b[:c] for b in vectors)
        dw0, dw1, dw2 = z  # scaled in place into the Brownian increments
        x.fill(hz.x0)
        v.fill(hs.v0)
        np.maximum(v, 0.0, out=v_plus)
        lowest.fill(math.inf)
        # Each update keeps the operation order of the scalar expressions
        #   x <- x e^{rl} + (a eta + a eta2 q + xi v+ pi) growth + b q dw0 + pi sqrt(v+) dw1
        #   v <- v + kappa (theta - v+) l + sigma sqrt(v+) dw2
        # so every strategy's wealth is bit-identical to a run of its own.
        for m in range(M):
            rng.standard_normal(out=z)
            np.multiply(dw2, rho_c, out=dw2)
            np.multiply(dw1, hs.rho, out=tmp)
            np.add(tmp, dw2, out=dw2)
            np.multiply(z, sqrt_l, out=z)
            np.sqrt(v_plus, out=sqrt_v)

            np.multiply(v_plus, hs.xi, out=tmp)
            np.multiply(tmp, pis[m], out=term)
            term += drift0[m]
            term *= growth
            x *= er
            x += term
            np.multiply(noise_q[m], dw0, out=term)
            x += term
            np.multiply(pis[m], sqrt_v, out=term)
            term *= dw1
            x += term

            np.subtract(hs.theta, v_plus, out=tmp)
            tmp *= hs.kappa
            tmp *= l
            v += tmp
            np.multiply(sqrt_v, hs.sigma, out=tmp)
            tmp *= dw2
            v += tmp

            if not (np.isfinite(x).all() and np.isfinite(v).all()):
                bad = ~(np.isfinite(x).all(axis=0) & np.isfinite(v))
                raise SimulationError(m + 1, int(np.count_nonzero(bad)))
            np.maximum(v, 0.0, out=v_plus)
            np.minimum(lowest, v_plus, out=lowest)
        for xt, xk in zip(x_terminal, x):
            xt[start:stop] = xk
        v_terminal[start:stop] = v_plus
        return float(np.min(lowest))

    minima = [math.inf] * n_chunks
    errors = {}  # chunk index -> the exception that ended it

    def run_share(k, buffers):
        # worker k takes chunks k, k + w, ...; after a failure every chunk
        # left in its share has a higher index, so it stops there
        for i in range(k, n_chunks, w):
            try:
                minima[i] = run_chunk(i, buffers)
            except Exception as exc:  # re-raised below if no lower chunk failed
                errors[i] = exc
                return

    # every worker's buffers are allocated once, here on the calling thread:
    # allocating per chunk in the threads that run the chunks raised the
    # monte-carlo benchmark's peak RSS from 45.9 to 47.8 MB (glibc gives
    # each thread a malloc arena of its own)
    width = min(n_paths, CHUNK_SIZE)
    buffers = [[np.empty(rows * width) for rows in (3, K, K, 1, 1, 1, 1, 1)] for _ in range(w)]
    # a plain thread does not inherit the caller's context, where numpy
    # keeps np.errstate
    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(run_share, k, buffers[k]))
        for k in range(1, w)
    ]
    for t in helpers:
        t.start()
    try:
        run_share(0, buffers[0])
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    min_v = min(minima)

    return [PathBatch(x_terminal=xt, v_terminal=v_terminal, min_v=min_v) for xt in x_terminal]


def estimate_reward(model: ValidatedModel, batch: PathBatch) -> SimulationResult:
    """Per-atom sample means of terminal utility, their standard errors,
    certainty equivalents, and the probability-weighted reward.

    Where an atom's utility mean is not a finite negative normal float
    (it underflows, e.g. gamma = 30 at wealth 30, or overflows at a large
    loss), its certainty equivalent and weights come from the log-sum-exp
    shifted by the lowest terminal wealth; its utility mean and SE are
    reported as they came out, without numpy's warnings.
    """
    n = len(batch.x_terminal)
    if n < 1:
        raise ValueError("empty path batch")
    gammas = np.asarray(model.dist.gammas)
    probs = np.asarray(model.dist.probs)
    means = np.empty(len(gammas))
    ses = np.empty(len(gammas))
    ces = np.empty(len(gammas))
    weights = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the shift below covers an overflow
        for i, (gamma, p) in enumerate(zip(gammas, probs)):
            u = -np.exp(-gamma * batch.x_terminal) / gamma  # the utility -e^{-gamma x} / gamma
            mean = float(np.mean(u))
            means[i] = mean
            ses[i] = float(np.std(u, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            if -math.inf < mean < -_SMALLEST_NORMAL:
                ces[i] = -math.log(-gamma * mean) / gamma  # the utility's inverse
                weights += p * u / (-gamma * mean)
            else:
                # exp(-gamma x) under- or overflows: shift by the lowest wealth x*,
                # so CE = x* - log(mean exp(-gamma (x - x*))) / gamma
                x_low = float(np.min(batch.x_terminal))
                e = np.exp(-gamma * (batch.x_terminal - x_low))
                e_mean = float(np.mean(e))
                ces[i] = x_low - math.log(e_mean) / gamma
                weights += p * e / (-gamma * e_mean)
    reward = float(weighted_sum(ces, probs))
    return SimulationResult(
        utility_mean=means,
        utility_se=ses,
        cert_equiv=ces,
        reward=reward,
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
    q_eq, pi_eq = equilibrium_strategy(model, gsol.g2)
    early = model.horizon.grid() < h
    strategies = [(q_eq, pi_eq)] + [(np.where(early, q, q_eq), np.where(early, pi, pi_eq))
                                    for q, pi in perturbations]
    batches = simulate_strategies(model, strategies, n_paths, seed)
    eq = estimate_reward(model, batches[0])
    rows = []
    for k, (q, pi) in enumerate(perturbations, start=1):
        res = estimate_reward(model, batches[k])
        batches[k] = None  # frees this strategy's wealth before the next estimate
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
        del res, diff  # and its weights
    return rows
