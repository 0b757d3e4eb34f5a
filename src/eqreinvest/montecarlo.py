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

A chunk runs as one C function (_MC_C), built with cc on the first
simulation, once per machine, as native.load builds the other libraries.
It draws the normals numpy's Generator(Philox).standard_normal draws, bit
for bit: an inline Philox4x64-10 and numpy's ziggurat on numpy's own
tables. It then updates the state with the numpy loop's float64
operations in their order, with no fused multiply-add. Where the library
cannot be built or loaded, the numpy loop runs; it also runs again any
chunk on which the C function met a non-finite state, so SimulationError,
np.errstate and numpy's warnings come from the numpy loop alone.

The chunks of a run are independent work, so simulate_strategies spreads
them over worker threads (by default one per usable core, at most one per
chunk): ctypes releases the interpreter lock during the C chunk, and numpy
does while it draws normals and runs a ufunc over a chunk. Each chunk
writes its own slices of the outputs, so every output bit is the same for
any number of workers.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import native
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


# One chunk of simulate_strategies in C: the normals that
# Generator(Philox(key=(seed, chunk))).standard_normal(out=z) draws, and the
# numpy loop's float64 operations in its order, built with native.CC's
# -ffp-contract=off so no product is fused into a sum; glibc's log1p and
# exp, which numpy's ziggurat calls too
_MC_C = r"""
#include <math.h>
#include <stdint.h>

#define ZIG_R 0x1.d3bb48209ad33p+1       /* numpy's ziggurat_nor_r, 3.654... */
#define ZIG_NEG_INV_R -0x1.183aa6c20e8c1p-2  /* -ziggurat_nor_inv_r */

/* Philox4x64-10 (J. K. Salmon et al., SC '11), as numpy's Philox runs it:
   the counter starts at 0 and is incremented before each block of 4 words */
typedef struct { uint64_t ctr[4], key[2], words[4]; int used; } philox;

static uint64_t next64(philox *g)
{
    if (g->used < 4)
        return g->words[g->used++];
    if (++g->ctr[0] == 0 && ++g->ctr[1] == 0 && ++g->ctr[2] == 0)
        ++g->ctr[3];
    uint64_t c0 = g->ctr[0], c1 = g->ctr[1], c2 = g->ctr[2], c3 = g->ctr[3];
    uint64_t k0 = g->key[0], k1 = g->key[1];
    for (int round = 0; round < 10; round++) {
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    g->words[0] = c0; g->words[1] = c1; g->words[2] = c2; g->words[3] = c3;
    g->used = 1;
    return c0;
}

/* numpy's next_double: the 53 top bits of a word */
static double uniform(philox *g)
{
    return (double)(next64(g) >> 11) * 0x1.0p-53;
}

/* numpy's random_standard_normal: the 256-level ziggurat (G. Marsaglia and
   W. W. Tsang, J. Stat. Softw. 5(8), 2000) on the tables KI, WI and FI,
   with the sign applied to the bits instead of by a branch */
static double normal(philox *g)
{
    for (;;) {
        uint64_t r = next64(g), rabs = (r >> 9) & 0xfffffffffffffu;
        int idx = r & 0xff;
        union { double value; uint64_t bits; } x = { (double)rabs * WI.value[idx] };
        x.bits ^= (r & 0x100) << 55;
        if (rabs < KI[idx])
            return x.value;
        if (idx == 0) {  /* the tail beyond ZIG_R */
            for (;;) {
                double xx = ZIG_NEG_INV_R * log1p(-uniform(g));
                double yy = -log1p(-uniform(g));
                if (yy + yy > xx * xx)
                    return (rabs >> 8) & 1 ? -(ZIG_R + xx) : ZIG_R + xx;
            }
        }
        if ((FI.value[idx - 1] - FI.value[idx]) * uniform(g) + FI.value[idx] < exp(-0.5 * x.value * x.value))
            return x.value;
    }
}

/* Run one chunk of c paths over M steps from the key (seed, index): x is
   the (K, c) wealth, drift0, noise_q and pis the (M, K) per-step strategy
   terms. Returns 0, or the first step after which a state is not finite.
   numpy's maximum(a, b) and minimum(a, b) return b on a tie, which a > b
   ? a : b and a < b ? a : b do, also for -0.0 and 0.0 */
long chunk(uint64_t seed, uint64_t index, long c, long K, long M,
           const double *drift0, const double *noise_q, const double *pis,
           double x0, double v0, double sqrt_l, double rho, double rho_c, double xi, double er,
           double growth, double theta, double kappa, double l, double sigma,
           double *z, double *x, double *v, double *v_plus, double *lowest)
{
    philox g = {{0, 0, 0, 0}, {seed, index}, {0, 0, 0, 0}, 4};
    for (long i = 0; i < K * c; i++)
        x[i] = x0;
    for (long i = 0; i < c; i++) {
        v[i] = v0;
        v_plus[i] = v0 > 0.0 ? v0 : 0.0;
        lowest[i] = INFINITY;
    }
    for (long m = 0; m < M; m++) {
        const double *dk = drift0 + m * K, *qk = noise_q + m * K, *pk = pis + m * K;
        int finite = 1;
        for (long i = 0; i < 3 * c; i++)
            z[i] = normal(&g);
        for (long i = 0; i < c; i++) {
            double dw0 = z[i] * sqrt_l, dw1 = z[c + i] * sqrt_l;
            double dw2 = (z[c + i] * rho + z[2 * c + i] * rho_c) * sqrt_l;
            double vp = v_plus[i], sqrt_v = sqrt(vp), t = vp * xi;
            for (long k = 0; k < K; k++) {
                double *xk = x + k * c + i;
                *xk = *xk * er + (t * pk[k] + dk[k]) * growth + qk[k] * dw0 + pk[k] * sqrt_v * dw1;
                finite &= isfinite(*xk);
            }
            v[i] = v[i] + (theta - vp) * kappa * l + sqrt_v * sigma * dw2;
            finite &= isfinite(v[i]);
            v_plus[i] = v[i] > 0.0 ? v[i] : 0.0;
            lowest[i] = lowest[i] < v_plus[i] ? lowest[i] : v_plus[i];
        }
        if (!finite)
            return m + 1;
    }
    return 0;
}
"""


@functools.cache
def _library():
    """The chunk function of _MC_C, or None where native.load cannot build
    or load it."""
    lib = native.load("mc", f"{_ZIGGURAT_C}\n{_MC_C}")
    if lib is None:
        return None
    import ctypes

    chunk = lib.chunk
    chunk.restype = ctypes.c_long
    chunk.argtypes = [*[ctypes.c_uint64] * 2, *[ctypes.c_long] * 3, *[ctypes.c_void_p] * 3,
                      *[ctypes.c_double] * 12, *[ctypes.c_void_p] * 5]
    return chunk


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
    and all K batches share one v_terminal array. A non-finite state
    raises SimulationError at its step; a path counts as bad when any
    strategy's state on it is non-finite.

    seed is a Philox key word, an integer (a bool, an int or a numpy int)
    in [0, 2**64); another raises ValueError before any path runs. The
    chunks run on worker_count(n_chunks, workers) threads, the calling
    thread among them. Each chunk has its own Philox stream and state and
    writes disjoint slices of the outputs, so the batches do not depend on
    workers. When chunks fail, the error of the lowest failing chunk is
    raised, as a serial run over the chunks would raise it.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not isinstance(seed, (int, np.integer)):  # a bool is an int
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
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

    chunk = _library()
    constants = (hz.x0, hs.v0, sqrt_l, hs.rho, rho_c, hs.xi, er, growth, hs.theta, hs.kappa, l, hs.sigma)

    def run_chunk(chunk_index, buffers):
        """Advance one chunk on a worker's buffers, write its slices of the
        outputs and return its lowest variance."""
        start = chunk_index * CHUNK_SIZE
        stop = min(start + CHUNK_SIZE, n_paths)
        c = stop - start
        # prefixes of flat buffers: C-contiguous (rows, c) views, also for
        # the short last chunk, as standard_normal(out=) requires
        bz, bx, bterm, *vectors = buffers
        z = bz[: 3 * c].reshape(3, c)
        x = bx[: K * c].reshape(K, c)
        term = bterm[: K * c].reshape(K, c)
        v, v_plus, sqrt_v, tmp, lowest = (b[:c] for b in vectors)
        # the C chunk returns 0, or the step of a non-finite state: the
        # numpy loop then runs the chunk again and raises what numpy raises
        if chunk is None or chunk(seed, chunk_index, c, K, M, drift0.ctypes.data, noise_q.ctypes.data,
                                  pis.ctypes.data, *constants, z.ctypes.data, x.ctypes.data, v.ctypes.data,
                                  v_plus.ctypes.data, lowest.ctypes.data):
            rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))
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
    return SimulationResult(
        utility_mean=means,
        utility_se=ses,
        cert_equiv=ces,
        reward=weighted_sum(ces, probs),
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


# numpy's ziggurat tables ki_double, wi_double and fi_double, as the words
# read from the .rodata of numpy/random/lib/libnpyrandom.a (numpy 2.4.6,
# src_distributions_distributions.c.o at 0x4000, 0x3800 and 0x3000); a test
# compares the C normals with standard_normal's
_ZIGGURAT_C = """
#include <stdint.h>

union table { uint64_t bits[256]; double value[256]; };

static const uint64_t KI[256] = {
    0xef33d8025ef6a, 0x0, 0xc08be98fbc6a8, 0xda354fabd8142, 0xe51f67ec1eeea, 0xeb255e9d3f77e,
    0xeef4b817ecab9, 0xf19470afa44aa, 0xf37ed61ffcb18, 0xf4f469561255c, 0xf61a5e41ba396, 0xf707a755396a4,
    0xf7cb2ec28449a, 0xf86f10c6357d3, 0xf8fa6578325de, 0xf9724c74dd0da, 0xf9da907dbf509, 0xfa360f581fa74,
    0xfa86fde5b4bf8, 0xfacf160d354dc, 0xfb0fb6718b90f, 0xfb49f8d5374c6, 0xfb7ec2366fe77, 0xfbaece9a1e50e,
    0xfbdab9d040bed, 0xfc03060ff6c57, 0xfc2821037a248, 0xfc4a67ae25bd1, 0xfc6a2977aee31, 0xfc87aa92896a4,
    0xfca325e4bde85, 0xfcbcce902231a, 0xfcd4d12f839c4, 0xfceb54d8fec99, 0xfd007bf1dc930, 0xfd1464dd6c4e6,
    0xfd272a8e2f450, 0xfd38e4ff0c91e, 0xfd49a9990b478, 0xfd598b8920f53, 0xfd689c08e99ec, 0xfd76ea9c8e832,
    0xfd848547b08e8, 0xfd9178bad2c8c, 0xfd9dd07a7add2, 0xfda9970105e8c, 0xfdb4d5dc02e20, 0xfdbf95c5bfcd0,
    0xfdc9debb99a7d, 0xfdd3b8118729d, 0xfddd288342f90, 0xfde6364369f64, 0xfdeee708d514e, 0xfdf7401a6b42e,
    0xfdff46599ed40, 0xfe06fe4bc24f2, 0xfe0e6c225a258, 0xfe1593c28b84c, 0xfe1c78cbc3f99, 0xfe231e9db1caa,
    0xfe29885da1b91, 0xfe2fb8fb54186, 0xfe35b33558d4a, 0xfe3b799d0002a, 0xfe410e99ead7f, 0xfe46746d47734,
    0xfe4bad34c095c, 0xfe50baed29524, 0xfe559f74ebc78, 0xfe5a5c8e41212, 0xfe5ef3e138689, 0xfe6366fd91078,
    0xfe67b75c6d578, 0xfe6be661e11aa, 0xfe6ff55e5f4f2, 0xfe73e5900a702, 0xfe77b823e9e39, 0xfe7b6e37070a2,
    0xfe7f08d774243, 0xfe8289053f08c, 0xfe85efb35173a, 0xfe893dc840864, 0xfe8c741f0cebc, 0xfe8f9387d4ef6,
    0xfe929cc879b1d, 0xfe95909d388ea, 0xfe986fb939aa2, 0xfe9b3ac714866, 0xfe9df2694b6d5, 0xfea0973abe67c,
    0xfea329cf166a4, 0xfea5aab32952c, 0xfea81a6d5741a, 0xfeaa797de1cf0, 0xfeacc85f3d920, 0xfeaf07865e63c,
    0xfeb13762fec13, 0xfeb3585fe2a4a, 0xfeb56ae3162b4, 0xfeb76f4e284fa, 0xfeb965fe62014, 0xfebb4f4cf9d7c,
    0xfebd2b8f449d0, 0xfebefb16e2e3e, 0xfec0be31ebde8, 0xfec2752b15a15, 0xfec42049dafd3, 0xfec5bfd29f196,
    0xfec75406ceef4, 0xfec8dd2500cb4, 0xfeca5b6911f12, 0xfecbcf0c427fe, 0xfecd38454fb15, 0xfece97488c8b3,
    0xfecfec47f91b7, 0xfed1377358528, 0xfed278f844903, 0xfed3b10242f4c, 0xfed4dfbad586e, 0xfed605498c3dd,
    0xfed721d414fe8, 0xfed8357e4a982, 0xfed9406a42cc8, 0xfeda42b85b704, 0xfedb3c8746ab4, 0xfedc2df416652,
    0xfedd171a46e52, 0xfeddf813c8ad3, 0xfeded0f909980, 0xfedfa1e0fd414, 0xfee06ae124bc4, 0xfee12c0d95a06,
    0xfee1e579006e0, 0xfee29734b6524, 0xfee34150ae4bc, 0xfee3e3db89b3c, 0xfee47ee2982f4, 0xfee51271db086,
    0xfee59e9407f41, 0xfee623528b42e, 0xfee6a0b5897f1, 0xfee716c3e077a, 0xfee7858327b82, 0xfee7ecf7b06ba,
    0xfee84d2484ab2, 0xfee8a60b66343, 0xfee8f7accc851, 0xfee94207e25da, 0xfee9851a829ea, 0xfee9c0e13485c,
    0xfee9f557273f4, 0xfeea22762ccae, 0xfeea4836b42ac, 0xfeea668fc2d71, 0xfeea7d76ed6fa, 0xfeea8ce04fa0a,
    0xfeea94be8333b, 0xfeea950296410, 0xfeea8d9c0075e, 0xfeea7e7897654, 0xfeea678481d24, 0xfeea48aa29e83,
    0xfeea21d22e4da, 0xfee9f2e352024, 0xfee9bbc26af2e, 0xfee97c524f2e4, 0xfee93473c0a3a, 0xfee8e40557516,
    0xfee88ae369c7a, 0xfee828e7f3dfd, 0xfee7bdea7b888, 0xfee749bff37ff, 0xfee6cc3a9bd5e, 0xfee64529e007e,
    0xfee5b45a32888, 0xfee51994e57b6, 0xfee474a0006cf, 0xfee3c53e12c50, 0xfee30b2e02ad8, 0xfee2462ad8205,
    0xfee175eb83c5a, 0xfee09a22a1447, 0xfedfb27e349cc, 0xfedebea76216c, 0xfeddbe422047e, 0xfedcb0ece39d3,
    0xfedb964042cf4, 0xfeda6dce938c9, 0xfed937237e98d, 0xfed7f1c38a836, 0xfed69d2b9c02b, 0xfed538d06ae00,
    0xfed3c41dea422, 0xfed23e76a2fd8, 0xfed0a732fe644, 0xfecefda07fe34, 0xfecd4100eb7b8, 0xfecb708956eb4,
    0xfec98b61230c1, 0xfec790a0da978, 0xfec57f50f31fe, 0xfec356686c962, 0xfec114cb4b335, 0xfebeb948e6fd0,
    0xfebc429a0b692, 0xfeb9af5ee0cdc, 0xfeb6fe1c98542, 0xfeb42d3ad1f9e, 0xfeb13b00b2d4b, 0xfeae2591a02e9,
    0xfeaaeae992257, 0xfea788d8ee326, 0xfea3fcffd73e5, 0xfea044c8dd9f6, 0xfe9c5d62f563b, 0xfe9843ba947a4,
    0xfe93f471d4728, 0xfe8f6bd76c5d6, 0xfe8aa5dc4e8e6, 0xfe859e07ab1ea, 0xfe804f690a940, 0xfe7ab488233c0,
    0xfe74c751f6aa5, 0xfe6e8102aa202, 0xfe67da0b6abd8, 0xfe60c9f38307e, 0xfe5947338f742, 0xfe51470977280,
    0xfe48bd436f458, 0xfe3f9bffd1e37, 0xfe35d35eeb19c, 0xfe2b5122fe4fe, 0xfe20003995557, 0xfe13c82788314,
    0xfe068c4ee67b0, 0xfdf82b02b71aa, 0xfde87c57efeaa, 0xfdd7509c63bfd, 0xfdc46e529bf13, 0xfdaf8f82e0282,
    0xfd985e1b2ba75, 0xfd7e6ef48cf04, 0xfd613adbd650b, 0xfd40149e2f012, 0xfd1a1a7b4c7ac, 0xfcee204761f9e,
    0xfcba8d85e11b2, 0xfc7d26ecd2d22, 0xfc32b2f1e22ed, 0xfbd6581c0b83a, 0xfb606c4005434, 0xfac40582a2874,
    0xf9e971e014598, 0xf89fa48a41dfc, 0xf66c5f7f0302c, 0xf1a5a4b331c4a
};
static const union table WI = {{
    0x3ccf493b7815d979, 0x3c8b8d0be3fdf6c6, 0x3c9250af3c2c5bb4, 0x3c957cb938443b61, 0x3c9801fce82fa70c,
    0x3c9a230c2e4cd0bc, 0x3c9c004d2f3861f7, 0x3c9dac2f5a747274, 0x3c9f32482d4cd5c3, 0x3ca04d32278ebbad,
    0x3ca0f5053b025d43, 0x3ca192a697413677, 0x3ca227a28f7a1af5, 0x3ca2b52e3863d880, 0x3ca33c3fc05791f5,
    0x3ca3bd9ec1a2b12f, 0x3ca439ef8dff9b55, 0x3ca4b1bb363dfea7, 0x3ca52575621ad374, 0x3ca59580a707ce96,
    0x3ca60231cfd97eea, 0x3ca66bd261a37c3d, 0x3ca6d2a292000570, 0x3ca736dad346f8a6, 0x3ca798ad10b32a77,
    0x3ca7f845ad46f543, 0x3ca855cc53430a77, 0x3ca8b1649e7b769a, 0x3ca90b2ea94ecf98, 0x3ca96347822c1eea,
    0x3ca9b9c98e38c546, 0x3caa0eccdca4a72c, 0x3caa62676d77cd59, 0x3caab4ad6e101630, 0x3cab05b16d136c9c,
    0x3cab558487427a29, 0x3caba4368e529f3a, 0x3cabf1d62abf8232, 0x3cac3e70f9594ef3, 0x3cac8a13a5323b61,
    0x3cacd4c9fe72268b, 0x3cad1e9f0e80b748, 0x3cad679d29e41f10, 0x3cadafce0023b8c3, 0x3cadf73aa9f17653,
    0x3cae3debb5d2edfe, 0x3cae83e9337a6f00, 0x3caec93abdf982ce, 0x3caf0de784f06226, 0x3caf51f654d8f688,
    0x3caf956d9e87d7ae, 0x3cafd8537dfa2eac, 0x3cb00d56e04234ec, 0x3cb02e40f5398f9a, 0x3cb04eea9e16a5fc,
    0x3cb06f565b72a010, 0x3cb08f869071f40b, 0x3cb0af7d84bc6113, 0x3cb0cf3d664bcc7f, 0x3cb0eec84b16086b,
    0x3cb10e20329515ee, 0x3cb12d4707310fbe, 0x3cb14c3e9f8e9141, 0x3cb16b08bfc4201e, 0x3cb189a71a78da34,
    0x3cb1a81b51ee6d88, 0x3cb1c666f8f82acb, 0x3cb1e48b93e0d42e, 0x3cb2028a9940a09f, 0x3cb2206572c4c6e9,
    0x3cb23e1d7de9c31f, 0x3cb25bb40ca96bfb, 0x3cb2792a661dd37f, 0x3cb29681c719d71b, 0x3cb2b3bb62b82eda,
    0x3cb2d0d862e1b853, 0x3cb2edd9e8cba98e, 0x3cb30ac10d6e48d7, 0x3cb3278ee1f4b930, 0x3cb3444470265ea1,
    0x3cb360e2baca52d5, 0x3cb37d6abe05586a, 0x3cb399dd6fb2b264, 0x3cb3b63bbfb83d03, 0x3cb3d28698561de0,
    0x3cb3eebede725a83, 0x3cb40ae571e09e74, 0x3cb426fb2da6745d, 0x3cb44300e83c30a4, 0x3cb45ef773cac75d,
    0x3cb47adf9e66c336, 0x3cb496ba32488f2f, 0x3cb4b287f602415d, 0x3cb4ce49acb311dc, 0x3cb4ea001638a605,
    0x3cb505abef5e5562, 0x3cb5214df20a8b5a, 0x3cb53ce6d56a664f, 0x3cb558774e1bb2c8, 0x3cb574000e555f78,
    0x3cb58f81c60e8514, 0x3cb5aafd23241b59, 0x3cb5c672d17d733d, 0x3cb5e1e37b2f8cd3, 0x3cb5fd4fc89f5e38,
    0x3cb618b860a31fc3, 0x3cb6341de8a2b0a2, 0x3cb64f8104b7260b, 0x3cb66ae257c99672, 0x3cb6864283b13137,
    0x3cb6a1a22950b2b1, 0x3cb6bd01e8b343bb, 0x3cb6d8626128d352, 0x3cb6f3c43161f854, 0x3cb70f27f78b68eb,
    0x3cb72a8e516914c6, 0x3cb745f7dc70eedc, 0x3cb7616535e5731f, 0x3cb77cd6faeff449, 0x3cb7984dc8babd93,
    0x3cb7b3ca3c8b1409, 0x3cb7cf4cf3db22fb, 0x3cb7ead68c73dee7, 0x3cb80667a486ea1f, 0x3cb82200dac88676,
    0x3cb83da2ce899f15, 0x3cb8594e1fd1f5bd, 0x3cb875036f7a7ec5, 0x3cb890c35f47f72d, 0x3cb8ac8e9205c043,
    0x3cb8c865aba10c9c, 0x3cb8e44951446a27, 0x3cb9003a2973b58f, 0x3cb91c38dc288347, 0x3cb9384612ef0afc,
    0x3cb954627903a28a, 0x3cb9708ebb70d5ee, 0x3cb98ccb892e2a31, 0x3cb9a919933f99bf, 0x3cb9c5798cd5d92c,
    0x3cb9e1ec2b6f7411, 0x3cb9fe7226fad24a, 0x3cba1b0c39f93692, 0x3cba37bb21a2c85b, 0x3cba547f9e0bbb88,
    0x3cba715a724aa9a4, 0x3cba8e4c64a0313d, 0x3cbaab563e9ff108, 0x3cbac878cd5af5ce, 0x3cbae5b4e18bb336,
    0x3cbb030b4fc3a11a, 0x3cbb207cf09a985b, 0x3cbb3e0aa0e00c00, 0x3cbb5bb541ce3d03, 0x3cbb797db93f8927,
    0x3cbb9764f1e5f73c, 0x3cbbb56bdb85256e, 0x3cbbd3936b2ec0a2, 0x3cbbf1dc9b81ae83, 0x3cbc10486cec16a0,
    0x3cbc2ed7e5f07a2d, 0x3cbc4d8c136e0d1c, 0x3cbc6c6608ec8705, 0x3cbc8b66e0eba617, 0x3cbcaa8fbd36a2ab,
    0x3cbcc9e1c73bd690, 0x3cbce95e3068e037, 0x3cbd0906328b8f6e, 0x3cbd28db1037ef20, 0x3cbd48de1533c647,
    0x3cbd691096e7f123, 0x3cbd8973f4d7fba5, 0x3cbdaa0999206e70, 0x3cbdcad2f8fc490e, 0x3cbdebd195522e37,
    0x3cbe0d06fb49d21c, 0x3cbe2e74c4ea46f6, 0x3cbe501c99c1d188, 0x3cbe72002f97fe25, 0x3cbe94214b2abf0a,
    0x3cbeb681c0f76f08, 0x3cbed9237610a73a, 0x3cbefc086101eca9, 0x3cbf1f328ac25321, 0x3cbf42a40fb74d6d,
    0x3cbf665f20c90168, 0x3cbf8a6604899782, 0x3cbfaebb187122bf, 0x3cbfd360d22fe785, 0x3cbff859c118f60b,
    0x3cc00ed447d3a075, 0x3cc021a8028fc947, 0x3cc034a983a902ab, 0x3cc047da4e3ef5c7, 0x3cc05b3bf6adb37e,
    0x3cc06ed023a72668, 0x3cc082988f632e17, 0x3cc0969708e8a254, 0x3cc0aacd7571c0c4, 0x3cc0bf3dd1eed448,
    0x3cc0d3ea34aa3d30, 0x3cc0e8d4cf116593, 0x3cc0fdffefa69fb6, 0x3cc1136e04207041, 0x3cc129219bbb5d35,
    0x3cc13f1d69c4096d, 0x3cc1556448602e3b, 0x3cc16bf93b9deef3, 0x3cc182df74d21261, 0x3cc19a1a564eebac,
    0x3cc1b1ad777f2f8e, 0x3cc1c99ca971a694, 0x3cc1e1ebfbe4ae39, 0x3cc1fa9fc2e2d901, 0x3cc213bc9d04cc81,
    0x3cc22d477a6fd3ee, 0x3cc24745a4ac9c24, 0x3cc261bcc77658e0, 0x3cc27cb2faa8592e, 0x3cc2982ecd770e78,
    0x3cc2b437532a0a52, 0x3cc2d0d43196db97, 0x3cc2ee0db1a978f5, 0x3cc30becd256aeee, 0x3cc32a7b5e68a4a3,
    0x3cc349c405ae12a3, 0x3cc369d27a33a840, 0x3cc38ab39256410a, 0x3cc3ac7570ae88fa, 0x3cc3cf27b31704a6,
    0x3cc3f2dbaa60f475, 0x3cc417a49cb9e5da, 0x3cc43d9815545e94, 0x3cc464ce44a73a15, 0x3cc48d62759c43bc,
    0x3cc4b7739d6b5a27, 0x3cc4e3250dcd8902, 0x3cc5109f53e9ac41, 0x3cc54011523a7e42, 0x3cc571b1a94ae41b,
    0x3cc5a5c08b718dd9, 0x3cc5dc8a243ad0fe, 0x3cc61669cf861e4c, 0x3cc653ce7b006aea, 0x3cc69540be9fe5c3,
    0x3cc6db6b8d09e232, 0x3cc72728f05f7a34, 0x3cc7799556090673, 0x3cc7d42df4d6ce8c, 0x3cc839030529f234,
    0x3cc8ab0fbfaa7c14, 0x3cc92ee0946f4496, 0x3cc9cbee014057ab, 0x3cca8fdc7894775a, 0x3ccb981f3878fdb1,
    0x3ccd3bb48209ad33
}};
static const union table FI = {{
    0x3ff0000000000000, 0x3fef446ac979f087, 0x3feeb7545b6ca915, 0x3fee3f11e027f077, 0x3fedd36fa704de95,
    0x3fed70920657bcf2, 0x3fed144978a119dc, 0x3fecbd33a8a72deb, 0x3fec6a5ecea9787f, 0x3fec1b1cd9eebaea,
    0x3febceeb4ee1dc82, 0x3feb85653a8ff552, 0x3feb3e3a8234dd10, 0x3feaf92a3f6ce8a2, 0x3feab5fef17a2504,
    0x3fea748bd550c9e1, 0x3fea34aafdf5af0f, 0x3fe9f63bee651fd8, 0x3fe9b9228d240681, 0x3fe97d4657617ac1,
    0x3fe94291c21b7a47, 0x3fe908f1bd31714f, 0x3fe8d0554fe60aa8, 0x3fe898ad48badf02, 0x3fe861ebfc37bcac,
    0x3fe82c050f56cf6e, 0x3fe7f6ed4b20e2cb, 0x3fe7c29a779c6858, 0x3fe78f033ca0b0d5, 0x3fe75c1f0770d856,
    0x3fe729e5f43f6d12, 0x3fe6f850baea7aee, 0x3fe6c7589e635a89, 0x3fe696f75e513b2a, 0x3fe667272a92e323,
    0x3fe637e298550c18, 0x3fe6092498802665, 0x3fe5dae86f4aff6a, 0x3fe5ad29acc85c89, 0x3fe57fe4264c8d8f,
    0x3fe55313f08d9e46, 0x3fe526b55a656cd5, 0x3fe4fac4e820b667, 0x3fe4cf3f4f494ec0, 0x3fe4a42172dc5278,
    0x3fe479685fdf5012, 0x3fe44f114a493679, 0x3fe425198a355fe3, 0x3fe3fb7e99585b82, 0x3fe3d23e10af31a3,
    0x3fe3a955a662cd0e, 0x3fe380c32bda00d5, 0x3fe358848bf550e9, 0x3fe33097c9703a35, 0x3fe308fafd6438ef,
    0x3fe2e1ac55ea3bee, 0x3fe2baaa14d7954a, 0x3fe293f28e93cd15, 0x3fe26d84290504ed, 0x3fe2475d5a90db84,
    0x3fe2217ca92ff7f2, 0x3fe1fbe0a9929620, 0x3fe1d687fe549969, 0x3fe1b171573fd111, 0x3fe18c9b709b3c50,
    0x3fe16805128639da, 0x3fe143ad105ea99c, 0x3fe11f9248311f38, 0x3fe0fbb3a2325913, 0x3fe0d810104142a0,
    0x3fe0b4a68d70d9ae, 0x3fe091761d995d81, 0x3fe06e7dccf03c36, 0x3fe04bbcafa63f2e, 0x3fe02931e18b822a,
    0x3fe006dc85b8cac4, 0x3fdfc9778c7bbda1, 0x3fdf859da7a900ca, 0x3fdf4229cb2f7af3, 0x3fdeff1a717e8f95,
    0x3fdebc6e20bd1f54, 0x3fde7a236a4ec3c5, 0x3fde3838ea5f9b85, 0x3fddf6ad47763a09, 0x3fddb57f320b56b1,
    0x3fdd74ad6426de33, 0x3fdd3436a1021080, 0x3fdcf419b4ae5b6d, 0x3fdcb45573c0a848, 0x3fdc74e8bb00d7c7,
    0x3fdc35d26f1d2cb8, 0x3fdbf7117c616a17, 0x3fdbb8a4d6716d91, 0x3fdb7a8b7807131b, 0x3fdb3cc462b331ca,
    0x3fdaff4e9ea18552, 0x3fdac2293a5f5a9e, 0x3fda85534aa4d880, 0x3fda48cbea20c04d, 0x3fda0c923946843e,
    0x3fd9d0a55e1e93df, 0x3fd995048418c0c6, 0x3fd959aedbe09f93, 0x3fd91ea39b33cb17, 0x3fd8e3e1fcb9f115,
    0x3fd8a9693fde9188, 0x3fd86f38a8ac5ab6, 0x3fd8354f7faa0dd9, 0x3fd7fbad11b8d911, 0x3fd7c250aff414b0,
    0x3fd78939af9252eb, 0x3fd7506769c7b1ed, 0x3fd717d93ba9614c, 0x3fd6df8e86124caa, 0x3fd6a786ad88de21,
    0x3fd66fc11a25cbe2, 0x3fd6383d377be515, 0x3fd600fa7480d2c8, 0x3fd5c9f84376c244, 0x3fd5933619d6eebe,
    0x3fd55cb3703d0100, 0x3fd5266fc2533bed, 0x3fd4f06a8ebf6d92, 0x3fd4baa357109ca2, 0x3fd485199fad6ad4,
    0x3fd44fccefc324fe, 0x3fd41abcd1357a19, 0x3fd3e5e8d08ed2db, 0x3fd3b1507cf143ae, 0x3fd37cf368081379,
    0x3fd348d125f9d19e, 0x3fd314e94d5af62f, 0x3fd2e13b77210766, 0x3fd2adc73e963fdd, 0x3fd27a8c414db11e,
    0x3fd2478a1f17de89, 0x3fd214c079f7cc9e, 0x3fd1e22ef6188116, 0x3fd1afd539c2f050, 0x3fd17db2ed5454e8,
    0x3fd14bc7bb34ee67, 0x3fd11a134fcf2423, 0x3fd0e895598709c4, 0x3fd0b74d88b242da, 0x3fd0863b8f904336,
    0x3fd0555f2242e9d9, 0x3fd024b7f6c7747e, 0x3fcfe88b89df93c5, 0x3fcf88108cb83235, 0x3fcf27fe6ce998d2,
    0x3fcec854a4c99c44, 0x3fce6912b2283cdd, 0x3fce0a3816457184, 0x3fcdabc455c7900a, 0x3fcd4db6f8b2514f,
    0x3fccf00f8a5e6fcc, 0x3fcc92cd9971df53, 0x3fcc35f0b7d89d47, 0x3fcbd9787abe18a1, 0x3fcb7d647a8731aa,
    0x3fcb21b452ccd13a, 0x3fcac667a2571807, 0x3fca6b7e0b19267e, 0x3fca10f7322d7e3d, 0x3fc9b6d2bfd2fe5a,
    0x3fc95d105f6a7c27, 0x3fc903afbf74fa69, 0x3fc8aab09192815b, 0x3fc852128a819a38, 0x3fc7f9d5621f7175,
    0x3fc7a1f8d368a323, 0x3fc74a7c9c7ab5a6, 0x3fc6f3607e964716, 0x3fc69ca43e21f25c, 0x3fc64647a2adf19c,
    0x3fc5f04a76f883f9, 0x3fc59aac88f31d6c, 0x3fc5456da9c86835, 0x3fc4f08dade31fc1, 0x3fc49c0c6cf5ce2d,
    0x3fc447e9c20375d5, 0x3fc3f4258b6931ae, 0x3fc3a0bfaae8d7ee, 0x3fc34db805b4ab88, 0x3fc2fb0e847c2a65,
    0x3fc2a8c3137a071a, 0x3fc256d5a2835eb7, 0x3fc2054625183c34, 0x3fc1b41492757d42, 0x3fc16340e5a82d63,
    0x3fc112cb1da26eb9, 0x3fc0c2b33d5209ba, 0x3fc072f94bb8bf85, 0x3fc0239d54067d2a, 0x3fbfa93ecb6b222c,
    0x3fbf0bff29520e1c, 0x3fbe6f7bf29aa54b, 0x3fbdd3b56176e88f, 0x3fbd38abb9bd91e5, 0x3fbc9e5f493b740a,
    0x3fbc04d0680b1015, 0x3fbb6bff78f2e233, 0x3fbad3ece9caf633, 0x3fba3c9933ea6286, 0x3fb9a604dc9d5b19,
    0x3fb9103075a4a0ab, 0x3fb87b1c9dbf2852, 0x3fb7e6ca013eefd6, 0x3fb753395aaa1176, 0x3fb6c06b73694a4c,
    0x3fb62e6124854d18, 0x3fb59d1b577466a4, 0x3fb50c9b06fa2bae, 0x3fb47ce1401b2213, 0x3fb3edef23269a86,
    0x3fb35fc5e4d93e70, 0x3fb2d266cf9b3111, 0x3fb245d344dd0d91, 0x3fb1ba0cbe97897d, 0x3fb12f14d0f2179d,
    0x3fb0a4ed2c159625, 0x3fb01b979e30e497, 0x3faf262c2b6c6e35, 0x3fae16d547b25181, 0x3fad092efeadf162,
    0x3fabfd3e0f282a2c, 0x3faaf30790385f70, 0x3fa9ea90f9295563, 0x3fa8e3e02a68b5ab, 0x3fa7defb77af271e,
    0x3fa6dbe9b398d064, 0x3fa5dab23cf2add4, 0x3fa4db5d0e11275d, 0x3fa3ddf2ce98eecb, 0x3fa2e27ce83df497,
    0x3fa1e9059f1f6abc, 0x3fa0f1982e968011, 0x3f9ff881d718a5c4, 0x3f9e121adb828c75, 0x3f9c301983cd091a,
    0x3f9a529f4e22ebf8, 0x3f9879d1b600c10a, 0x3f96a5daf40bbf82, 0x3f94d6eaf2fbb064, 0x3f930d388dab5e13,
    0x3f91490334603012, 0x3f8f152a4f72dd49, 0x3f8ba48d274f8fac, 0x3f8841040d8da478, 0x3f84eb96421acfe0,
    0x3f81a59229952f92, 0x3f7ce160f8ec6837, 0x3f769ea8d90cb85d, 0x3f708a1f03b0b1fd, 0x3f655f9f43c1b067,
    0x3f54a605b6b9f70f
}};
"""
