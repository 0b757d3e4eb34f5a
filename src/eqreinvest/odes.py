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

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import native
# the Python g2 loop sums with model's weighted_sum, as AversionDistribution.mean does
from .model import HestonParams, ValidatedModel, weighted_sum

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

    g1, g2, g3 have shape (n_atoms, M+1), over the model's horizon.grid().
    """

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray


def g1_closed(t, gamma, r, T):
    """g1(t) = -gamma * e^{r(T-t)}; t and gamma broadcast as numpy arrays."""
    return -gamma * np.exp(r * (T - np.asarray(t, dtype=float)))


def g2_closed_single(t, heston: HestonParams, T):
    """Closed-form g2 for a single aversion atom; independent of gamma.

    The generic formula needs k3 > 0; at |rho| = 1 the quadratic term
    drops out and the linear-ODE limit is evaluated instead. The generic
    form k1 (e^{k4 tau} - 1) / (2 k4 + (k2 + k4)(e^{k4 tau} - 1)) is
    evaluated divided through by e^{k4 tau}, so nothing overflows at a
    large k4 tau and g2 tends to k1 / (k2 + k4) there.
    """
    k = RiccatiConstants.from_heston(heston)
    tau = T - np.asarray(t, dtype=float)
    if k.k3 == 0.0:
        if k.k2 == 0.0:
            return 0.5 * k.k1 * tau
        return (k.k1 / (2.0 * k.k2)) * (1.0 - np.exp(-k.k2 * tau))
    return k.k1 * -np.expm1(-k.k4 * tau) / ((k.k2 + k.k4) + (k.k4 - k.k2) * np.exp(-k.k4 * tau))


def retention_ratio(model: ValidatedModel) -> float:
    """a*eta2 / (b^2 * E[gamma]) — the undiscounted retained proportion.

    a = lambda1*mu1 and b^2 = lambda1*mu2, so the claim intensity cancels;
    evaluating the reduced form keeps the ratio exactly intensity-free
    instead of merely up to rounding.
    """
    ins = model.ins
    return ins.mu1 * ins.eta2 / (ins.mu2 * model.dist.mean)


def q_hat(model: ValidatedModel, t):
    """Analytic retained proportion q_hat(t); no ODE dependence."""
    t = np.asarray(t, dtype=float)
    return retention_ratio(model) * np.exp(-model.heston.r * (model.horizon.T - t))


# The g2 formulas as expression text, each written once: pi_bar_path,
# g2_right_side and the Python g2 loop evaluate them through _formula, and
# the C g2 loop includes them as macros
PI_BAR = "(xi + rs * w) / mean_gamma"
RIGHT_SIDE = "xi * pg + 0.5 * (pg * pg) - kappa * h + half_s2 * (h * h) + rs * pg * h"
_compiled = functools.cache(lambda source: compile(source, "<eqreinvest formula>", "eval"))


def _formula(params, text, names):
    """The formula text as a function of params, with names as its constants."""
    return eval(_compiled(f"lambda {params}: {text}"), names)


def _constants(heston: HestonParams):
    """The market names that the formula texts read."""
    return {"xi": heston.xi, "kappa": heston.kappa, "rs": heston.rho * heston.sigma,
            "half_s2": 0.5 * heston.sigma ** 2}


def pi_bar_path(model: ValidatedModel, g2) -> np.ndarray:
    """Undiscounted investment kernel pi_bar = (xi + rho*sigma*sum_j p_j g2_j) / E[gamma]
    on the grid, from g2 alone; pi_hat(t) = pi_bar(t) * e^{-r(T-t)}."""
    pi_bar = _formula("w", PI_BAR, {**_constants(model.heston), "mean_gamma": model.dist.mean})
    return pi_bar(np.asarray(model.dist.probs) @ g2)


def pi_hat_path(model: ValidatedModel, g2) -> np.ndarray:
    """Equilibrium investment pi_hat = pi_bar * e^{-r(T-t)} on the grid, from g2 alone."""
    hz = model.horizon
    return pi_bar_path(model, g2) * np.exp(-model.heston.r * (hz.T - hz.grid()))


def g2_right_side(heston: HestonParams):
    """The right side F(pg, h) of one atom's g2 equation, -dg2/dt = F.

    pg is pi_hat * g1 of the atom and h its g2; both may be floats or
    arrays. The atoms couple only through pi_hat (see PI_BAR).
    """
    return _formula("pg, h", RIGHT_SIDE, _constants(heston))


def _python_loop(*coeffs, s_grid, xi, kappa, rs, half_s2, mean_gamma, r, l, half_l):
    """solve_g2_coupled's loop in plain Python, for any number n of atoms:
    coeffs are ng_i = -gamma_i, then the weights p_i, and the state h is a
    list of n floats. It runs where the C loop cannot be built or loaded,
    and is the reference for the C loop's operation order (both sum with
    glibc's fma); it returns g2 in an array("d") as solve_g2_coupled lays
    it out."""
    n, points = len(coeffs) // 2, len(s_grid)
    ng, w = coeffs[:n], coeffs[n:]
    names = {"xi": xi, "kappa": kappa, "rs": rs, "half_s2": half_s2, "mean_gamma": mean_gamma}
    right_side, pi_bar = _formula("pg, h", RIGHT_SIDE, names), _formula("w", PI_BAR, names)
    def g1_and_decay(s):  # g1(T - s) = -gamma_i e^{rs} of each atom, and e^{-rs}
        growth = math.exp(r * s)
        return [x * growth for x in ng], math.exp(-r * s)
    buf = array("d", [0.0]) * (n * points)  # h(0) = 0 ends each row already
    h = [0.0] * n
    g, decay = g1_and_decay(s_grid[0])
    for m in range(1, points):
        g_next, decay_next = g1_and_decay(s_grid[m])
        pi_hat = pi_bar(weighted_sum(h, w)) * decay
        f = [right_side(pi_hat * gi, hi) for gi, hi in zip(g, h)]
        p = [hi + l * fi for hi, fi in zip(h, f)]
        pi_hat = pi_bar(weighted_sum(p, w)) * decay_next
        h = [hi + half_l * (fi + right_side(pi_hat * gi, pi)) for hi, fi, gi, pi in zip(h, f, g_next, p)]
        if not all(-BLOWUP_THRESHOLD <= x <= BLOWUP_THRESHOLD for x in h):  # nan fails too
            raise BlowUpError(m, max(map(abs, h)) if all(map(math.isfinite, h)) else math.inf)
        buf[points - 1 - m::points] = array("d", h)  # row i at points - 1 - m + i * points
        g, decay = g_next, decay_next
    return buf


# The loop of _python_loop in C, generic in the atom count: the same
# float64 operations in the same order, glibc's fma included, and RIGHT_SIDE
# and PI_BAR as macros from their texts (see _g2_library)
_G2_C = r"""
#include <math.h>

/* model.weighted_sum of v and w: glibc's fma in atom order from +0.0 */
static double weighted_sum(long n, const double *v, const double *w)
{
    double acc = 0.0;
    long i;

    for (i = 0; i < n; i++)
        acc = fma(v[i], w[i], acc);
    return acc;
}

/* n atoms with ng_i = -gamma_i and weights w_i; work holds 5n doubles, and
   g2 (n rows of points zeros) receives each row from the end. Returns 0,
   or the step after which some h_i is outside [-high, high] or nan, with
   max |h_i| (inf if one is not finite) in *value. */
long integrate(long n, const double *ng, const double *w, const double *s_grid, long points,
               double xi, double kappa, double rs, double half_s2, double mean_gamma, double r,
               double l, double half_l, double high, double *work, double *g2, double *value)
{
    double *h = work, *p = h + n, *f = p + n, *g = f + n, *g_next = g + n;
    double s, growth, decay, decay_next, acc, pi_hat, pg;
    long i, m, k;
    int inside;

    growth = exp(r * s_grid[0]);
    for (i = 0; i < n; i++) {
        h[i] = 0.0;
        g[i] = ng[i] * growth;
    }
    decay = exp(-r * s_grid[0]);
    for (m = 1; m < points; m++) {
        s = s_grid[m];
        growth = exp(r * s);
        for (i = 0; i < n; i++)
            g_next[i] = ng[i] * growth;
        decay_next = exp(-r * s);
        acc = weighted_sum(n, h, w);
        pi_hat = PI_BAR(acc) * decay;
        for (i = 0; i < n; i++) {
            pg = pi_hat * g[i];
            f[i] = RIGHT_SIDE(pg, h[i]);
            p[i] = h[i] + l * f[i];
        }
        acc = weighted_sum(n, p, w);
        pi_hat = PI_BAR(acc) * decay_next;
        inside = 1;
        for (i = 0; i < n; i++) {
            pg = pi_hat * g_next[i];
            h[i] = h[i] + half_l * (f[i] + (RIGHT_SIDE(pg, p[i])));
            inside &= -high <= h[i] && h[i] <= high;
        }
        if (!inside) {
            *value = 0.0;
            for (i = 0; i < n; i++) {
                if (!isfinite(h[i])) {
                    *value = INFINITY;
                    break;
                }
                if (fabs(h[i]) > *value)
                    *value = fabs(h[i]);
            }
            return m;
        }
        k = points - 1 - m;
        for (i = 0; i < n; i++) {
            g2[k + i * points] = h[i];
            g[i] = g_next[i];
        }
        decay = decay_next;
    }
    return 0;
}
"""


@functools.cache
def _g2_library():
    """The C loop of _G2_C as a function with _python_loop's signature,
    or None where native.load cannot build or load it."""
    lib = native.load("g2", f"#define RIGHT_SIDE(pg, h) ({RIGHT_SIDE})\n#define PI_BAR(w) ({PI_BAR})\n{_G2_C}")
    if lib is None:
        return None
    import ctypes

    double, pointer, loop = ctypes.c_double, ctypes.c_void_p, lib.integrate
    loop.restype = ctypes.c_long
    loop.argtypes = [ctypes.c_long, pointer, pointer, pointer, ctypes.c_long, *[double] * 9,
                     pointer, pointer, ctypes.POINTER(double)]

    def integrate(*coeffs, s_grid, xi, kappa, rs, half_s2, mean_gamma, r, l, half_l):
        n, grid = len(coeffs) // 2, np.frombuffer(s_grid)
        coeffs, work, value = np.array(coeffs), np.empty(5 * n), double()
        g2 = np.zeros(n * len(grid))
        step = loop(n, coeffs.ctypes.data, coeffs[n:].ctypes.data, grid.ctypes.data, len(grid),
                    xi, kappa, rs, half_s2, mean_gamma, r, l, half_l, BLOWUP_THRESHOLD,
                    work.ctypes.data, g2.ctypes.data, ctypes.byref(value))
        if step:
            raise BlowUpError(step, value.value)
        return g2
    return integrate


def solve_g2_coupled(model: ValidatedModel) -> np.ndarray:
    """Integrate the coupled g2 system with the modified Euler scheme.

    The backward ODE is integrated forward in time-since-maturity s with
    h2(0) = 0; one predictor and one corrector step per grid interval, all
    atoms advanced simultaneously against the same previous-step vector.
    Each state goes into one float64 buffer of n(M+1) values, 8 bytes per
    state, atom by atom and from the end, so that the buffer read as an
    (n, M+1) C-contiguous array is g2 on the t grid, with no reversing or
    transposing copy. Raises BlowUpError when any |h2| exceeds
    BLOWUP_THRESHOLD (inf if any is not finite), found by one range test
    per atom and step.

    Every operation keeps the order and rounding of the array form (x * x,
    not x ** 2, which goes through libm pow), and each weighted sum is
    model.weighted_sum's atom-order glibc fma, which does not depend on the
    BLAS. e^{-rs} and g1(T - s) = -gamma_i e^{rs} (not g1_closed, which
    rounds T - (T - s)) are computed once per grid point and shared by the
    corrector that ends a step and the predictor that starts the next.

    The loop runs as C (_G2_C), which writes the same bytes as the plain
    Python loop _python_loop: the same float64 operations in the same
    order, with RIGHT_SIDE and PI_BAR included from their texts as macros;
    no fused multiply-add but the sums' fma calls (-ffp-contract=off) and
    no fast-math; and glibc's exp and fma, the functions math.exp and
    model.weighted_sum call (validation keeps gamma_i e^{rT} squarable, so
    exp cannot overflow). _g2_library builds it through native.load on the
    first solve, once per machine; _python_loop runs only where native.load
    cannot build or load it (no cc, a failed compile, an unwritable cache).
    """
    hs, hz, dist = model.heston, model.horizon, model.dist
    integrate = _g2_library() or _python_loop
    buf = integrate(*[-float(g) for g in dist.gammas], *map(float, dist.probs), **_constants(hs),
                    mean_gamma=model.dist.mean, r=hs.r, l=hz.l, half_l=0.5 * hz.l,
                    s_grid=memoryview(hz.grid()))  # same spacing forward in s as the t grid
    return np.frombuffer(buf).reshape(dist.n, hz.M + 1)  # g2(t_m) = h2(T - t_m)


def solve_g3(model: ValidatedModel, g1, g2) -> np.ndarray:
    """g3 by composite trapezoid of its ODE right side from t to T.

    Requires g1 and g2 already on the grid; g3(T) = 0 exactly.
    """
    if not np.all(np.isfinite(g2)):
        raise BlowUpError(-1, float("inf"))
    ins, hs = model.ins, model.heston
    grid = model.horizon.grid()
    q = q_hat(model, grid)
    # b ** 2 is the square of the rounded sqrt(lambda1 mu2), not lambda1 mu2: last bits follow it
    integrand = ins.drift(q) * g1 + 0.5 * ins.b ** 2 * q ** 2 * g1 ** 2 + hs.kappa * hs.theta * g2
    dt = np.diff(grid)
    seg = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * dt
    g3 = np.zeros_like(g1)
    g3[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    return g3


def solve_g(model: ValidatedModel) -> GSolution:
    """Full G-solution: closed-form g1, coupled g2, quadrature g3."""
    hz = model.horizon
    g1 = g1_closed(hz.grid(), np.asarray(model.dist.gammas)[:, None], model.heston.r, hz.T)
    g2 = solve_g2_coupled(model)  # g2(T) = 0 exactly: the solver starts there
    return GSolution(g1=g1, g2=g2, g3=solve_g3(model, g1, g2))


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
    grid, g1, g2 = model.horizon.grid(), gsol.g1, gsol.g2
    rhs = g2_right_side(model.heston)(pi_hat_path(model, g2) * g1, g2)
    dg2_dt = (g2[:, 2:] - g2[:, :-2]) / (grid[2:] - grid[:-2])
    defect = dg2_dt + rhs[:, 1:-1]  # the ODE reads -dg2/dt = rhs
    return np.max(np.abs(defect), axis=1)


def g3_closed_single(t, model: ValidatedModel):
    """Closed-form g3 for a single aversion atom (test oracle).

    Valid when k3 > 0; combines a linear term, the discounting term and a
    logarithmic integral of the closed-form g2, whose log term is evaluated
    divided through by e^{k4 tau} so that nothing overflows.
    """
    if model.dist.n != 1:
        raise ValueError("closed-form g3 requires exactly one aversion atom")
    ins, hs = model.ins, model.heston
    gamma = model.dist.gammas[0]
    k = RiccatiConstants.from_heston(hs)
    tau = model.horizon.T - np.asarray(t, dtype=float)
    log_term = (np.log(2.0 * k.k4) + 0.5 * (k.k2 - k.k4) * tau
                - np.log((k.k2 + k.k4) + (k.k4 - k.k2) * np.exp(-k.k4 * tau)))
    return (
        -0.5 * (ins.a ** 2 * ins.eta2 ** 2 / ins.b ** 2) * tau
        + (ins.a * ins.eta * gamma / hs.r) * (1.0 - np.exp(hs.r * tau))
        + (2.0 * hs.kappa * hs.theta / k.k3) * log_term
    )
