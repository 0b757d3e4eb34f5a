"""Exponent functions of the value-function ansatz.

Per risk-aversion atom gamma_i the ansatz exponent splits into three
deterministic functions of time: g1 (closed form, exponential in the
time to maturity), g2 (a coupled Riccati-type system, solved numerically
by a one-predictor one-corrector modified Euler scheme on the
time-reversed ODE), and g3 (a pure quadrature once g1, g2 and the
retention path are known). A single-atom closed form for g2 is kept as
an independent oracle. The formulas that the solver, the strategy and the
diagnostics share (q_hat, pi_bar and pi_hat, the g2 right side) live here,
once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the g2 solver's reduction lives in model, whose AversionDistribution.mean uses it too
from .model import HestonParams, ValidatedModel, weighted_sum, weighted_sum_by  # noqa: F401

BLOWUP_THRESHOLD = 1e8


class BlowUpError(RuntimeError):
    """The coupled g2 system left the trusted range (local existence only)."""

    def __init__(self, step, value):
        self.step = step
        self.value = value
        super().__init__(
            f"g2 solver blow-up at step {step}: |h2| = {value:.3e} exceeds {BLOWUP_THRESHOLD:.0e}"
        )


@dataclass(frozen=True)
class RiccatiConstants:
    """Constants of the scalar Riccati equation satisfied by g2 when all
    atoms share one aversion: k1 = -xi^2, k2 = kappa + rho*sigma*xi,
    k3 = sigma^2(1-rho^2), k4 = sqrt(k2^2 - k1*k3)."""

    k1: float
    k2: float
    k3: float
    k4: float

    @classmethod
    def from_heston(cls, h: HestonParams):
        k1 = -h.xi ** 2
        k2 = h.kappa + h.rho * h.sigma * h.xi
        k3 = h.sigma ** 2 * (1.0 - h.rho ** 2)
        k4 = math.sqrt(k2 ** 2 - k1 * k3)
        return cls(k1=k1, k2=k2, k3=k3, k4=k4)


@dataclass
class GSolution:
    """Time-gridded ansatz exponents, one row per aversion atom.

    g1, g2, g3 have shape (n_atoms, M+1).
    """

    grid: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    step: float


def g1_closed(t, gamma, r, T):
    """g1(t) = -gamma * e^{r(T-t)}; t and gamma broadcast as numpy arrays."""
    return -gamma * np.exp(r * (T - np.asarray(t, dtype=float)))


def g2_closed_single(t, heston: HestonParams, T):
    """Closed-form g2 for a single aversion atom; independent of gamma.

    The generic formula needs k3 > 0; at |rho| = 1 the quadratic term
    drops out and the linear-ODE limit is evaluated instead.
    """
    k = RiccatiConstants.from_heston(heston)
    tau = T - np.asarray(t, dtype=float)
    if k.k3 == 0.0:
        if k.k2 == 0.0:
            return 0.5 * k.k1 * tau
        return (k.k1 / (2.0 * k.k2)) * (1.0 - np.exp(-k.k2 * tau))
    e = np.expm1(k.k4 * tau)
    return k.k1 * e / (2.0 * k.k4 + (k.k2 + k.k4) * e)


def retention_ratio(model: ValidatedModel) -> float:
    """a*eta2 / (b^2 * E[gamma]) — the undiscounted retained proportion.

    a = lambda1*mu1 and b^2 = lambda1*mu2, so the claim intensity cancels;
    evaluating the reduced form keeps the ratio exactly intensity-free
    instead of merely up to rounding.
    """
    ins = model.ins
    return ins.mu1 * ins.eta2 / (ins.mu2 * model.mean_gamma)


def q_hat(model: ValidatedModel, t):
    """Analytic retained proportion q_hat(t); no ODE dependence."""
    t = np.asarray(t, dtype=float)
    return retention_ratio(model) * np.exp(-model.heston.r * (model.horizon.T - t))


def pi_bar(heston: HestonParams, mean_gamma, weighted_g2):
    """Undiscounted investment kernel (xi + rho*sigma*sum_j p_j g2_j) / E[gamma].

    weighted_g2 is sum_j p_j g2_j, a float or an array over the grid;
    pi_hat(t) = pi_bar(t) * e^{-r(T-t)}.
    """
    return (heston.xi + heston.rho * heston.sigma * weighted_g2) / mean_gamma


def pi_bar_path(model: ValidatedModel, g2) -> np.ndarray:
    """Undiscounted investment kernel on the grid, from g2 alone."""
    probs = np.asarray(model.dist.probs)
    return pi_bar(model.heston, model.mean_gamma, probs @ g2)


def pi_hat_path(model: ValidatedModel, g2) -> np.ndarray:
    """Equilibrium investment pi_hat = pi_bar * e^{-r(T-t)} on the grid, from g2 alone."""
    hz = model.horizon
    return pi_bar_path(model, g2) * np.exp(-model.heston.r * (hz.T - hz.grid()))


def g2_right_side(heston: HestonParams):
    """The right side F(pg, h) of one atom's g2 equation, -dg2/dt = F.

    pg is pi_hat * g1 of the atom and h its g2; both may be floats or
    arrays. The atoms couple only through pi_hat (see pi_bar).
    """
    xi, kappa = heston.xi, heston.kappa
    rs = heston.rho * heston.sigma
    half_s2 = 0.5 * heston.sigma ** 2

    def right_side(pg, h):
        return xi * pg + 0.5 * (pg * pg) - kappa * h + half_s2 * (h * h) + rs * pg * h

    return right_side


def solve_g2_coupled(model: ValidatedModel) -> np.ndarray:
    """Integrate the coupled g2 system with the modified Euler scheme.

    The backward ODE is integrated forward in time-since-maturity s with
    h2(0) = 0; one predictor and one corrector step per grid interval, all
    atoms advanced simultaneously against the same previous-step vector.
    The result is reversed onto the t grid. Raises BlowUpError when any
    |h2| exceeds BLOWUP_THRESHOLD (inf if any is not finite), found by one
    range test per atom and step.

    The state is a list of floats advanced atom by atom, since numpy's
    per-call overhead on n-element arrays dominated the step cost; the
    predictor and the corrector are one loop over the atoms each. Every
    operation keeps the order and rounding of the array form (x * x rather
    than x ** 2, which goes through libm pow), and the probability-weighted
    sum is the atom-order fma of weighted_sum_by, which is what numpy's dot
    rounds to for up to 15 atoms. The discount e^{-rs} and the g1 values
    -gamma_i e^{rs} are computed once per grid point and shared by the
    corrector that ends a step and the predictor that starts the next.
    """
    hs = model.heston
    l = model.horizon.l
    n = model.dist.n
    neg_gammas = [-float(g) for g in model.dist.gammas]
    weighted = weighted_sum_by(model.dist.probs)
    e_gamma = model.mean_gamma
    r = hs.r
    right_side = g2_right_side(hs)
    half_l = 0.5 * l
    s_grid = model.horizon.grid().tolist()  # same spacing forward in s as the t grid
    exp = math.exp
    low, high = -BLOWUP_THRESHOLD, BLOWUP_THRESHOLD
    blown = False  # once set, the checks after the step raise

    def at(s):
        # e^{-rs} discounts pi_bar to pi_hat; g1(T - s) = -gamma e^{rs} stays
        # inline: g1_closed(T - s) would round T - (T - s) differently and
        # add a numpy call per atom and step
        growth = exp(r * s)
        g1 = []  # plain loops: before Python 3.12 a comprehension is a call of its own
        for ng in neg_gammas:
            g1.append(ng * growth)
        return exp(-r * s), g1

    h = [0.0] * n
    flat = list(h)  # every step's state, one after another
    decay, g1 = at(s_grid[0])
    for s in s_grid[1:]:
        decay_next, g1_next = at(s)
        pi_hat = pi_bar(hs, e_gamma, weighted(h)) * decay
        f0, pred = [], []  # slopes at s_m and the predictor's Euler step
        for g, hi in zip(g1, h):
            f = right_side(pi_hat * g, hi)
            f0.append(f)
            pred.append(hi + l * f)
        pi_hat = pi_bar(hs, e_gamma, weighted(pred)) * decay_next
        h_next = []
        for g, hi, p, f in zip(g1_next, h, pred, f0):
            x = hi + half_l * (f + right_side(pi_hat * g, p))
            h_next.append(x)
            if not low <= x <= high:  # nan fails too
                blown = True
        h = h_next
        if blown:
            step = len(flat) // n
            if not all(map(math.isfinite, h)):
                raise BlowUpError(step, float("inf"))
            raise BlowUpError(step, max(map(abs, h)))
        flat += h
        decay, g1 = decay_next, g1_next
    return np.ascontiguousarray(np.array(flat).reshape(-1, n).T[:, ::-1])  # g2(t_m) = h2(T - t_m)


def solve_g3(model: ValidatedModel, g1, g2) -> np.ndarray:
    """g3 by composite trapezoid of its ODE right side from t to T.

    Requires g1 and g2 already on the grid; g3(T) = 0 exactly.
    """
    if not np.all(np.isfinite(g2)):
        raise BlowUpError(-1, float("inf"))
    d, hs = model.diffusion, model.heston
    grid = model.horizon.grid()
    q = q_hat(model, grid)
    integrand = (
        (d.a * d.eta + d.a * model.ins.eta2 * q) * g1
        + 0.5 * d.b ** 2 * q ** 2 * g1 ** 2
        + hs.kappa * hs.theta * g2
    )
    dt = np.diff(grid)
    seg = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * dt
    g3 = np.zeros_like(g1)
    g3[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    return g3


def solve_g(model: ValidatedModel) -> GSolution:
    """Full G-solution: closed-form g1, coupled g2, quadrature g3."""
    hz = model.horizon
    grid = hz.grid()
    g1 = g1_closed(grid, np.asarray(model.dist.gammas)[:, None], model.heston.r, hz.T)
    g2 = solve_g2_coupled(model)
    g2[:, -1] = 0.0  # terminal condition pinned exactly
    g3 = solve_g3(model, g1, g2)
    return GSolution(grid=grid, g1=g1, g2=g2, g3=g3, step=hz.l)


def residual_check(gsol: GSolution, model: ValidatedModel) -> np.ndarray:
    """Max absolute defect of the coupled g2 ODE at interior grid points.

    dg2/dt is approximated by centered differences; the returned array has
    one entry per atom.

    For the modified Euler solution the defect is (l^2/4) F''[F, F] + O(l^3),
    so it is O(l^2) only asymptotically. F'' is of order sigma^2 and small
    (about 2.6e-5 l^2 at baseline), while the l^3 remainder, driven by kappa,
    is about 0.66 l^3: on grids up to M ~ 2.5e5 at T = 10 the defect shrinks
    ~8x per doubling, not 4x. The solver's own second order shows in
    self-convergence differences against a doubled grid instead.
    """
    grid, g1, g2 = gsol.grid, gsol.g1, gsol.g2
    rhs = g2_right_side(model.heston)(pi_hat_path(model, g2) * g1, g2)
    dg2_dt = (g2[:, 2:] - g2[:, :-2]) / (grid[2:] - grid[:-2])
    defect = dg2_dt + rhs[:, 1:-1]  # the ODE reads -dg2/dt = rhs
    return np.max(np.abs(defect), axis=1)


def g3_closed_single(t, model: ValidatedModel):
    """Closed-form g3 for a single aversion atom (test oracle).

    Valid when k3 > 0; combines a linear term, the discounting term and a
    logarithmic integral of the closed-form g2.
    """
    if model.dist.n != 1:
        raise ValueError("closed-form g3 requires exactly one aversion atom")
    d, hs = model.diffusion, model.heston
    gamma = model.dist.gammas[0]
    k = RiccatiConstants.from_heston(hs)
    tau = model.horizon.T - np.asarray(t, dtype=float)
    e = np.expm1(k.k4 * tau)
    log_term = np.log(2.0 * k.k4 * np.exp(0.5 * (k.k2 + k.k4) * tau) / (2.0 * k.k4 + (k.k2 + k.k4) * e))
    return (
        -0.5 * (d.a ** 2 * model.ins.eta2 ** 2 / d.b ** 2) * tau
        + (d.a * d.eta * gamma / hs.r) * (1.0 - np.exp(hs.r * tau))
        + (2.0 * hs.kappa * hs.theta / k.k3) * log_term
    )
