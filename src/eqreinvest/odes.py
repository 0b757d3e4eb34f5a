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
import os
from array import array
from dataclasses import dataclass

import numpy as np

# the g2 solver's reduction lives in model, whose AversionDistribution.mean uses it too
from .model import HestonParams, ValidatedModel, define, split_source, weighted_sum_source

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


# The g2 formulas as expression text, each written once: pi_bar_path and
# g2_right_side evaluate them on arrays, and the solver's step writes them
# out inline for the model's atom count
PI_BAR = "(xi + rs * {w}) / mean_gamma"
RIGHT_SIDE = "xi * {pg} + 0.5 * ({pg} * {pg}) - kappa * {h} + half_s2 * ({h} * {h}) + rs * {pg} * {h}"
_compiled = functools.cache(lambda source: compile(source, "<eqreinvest formula>", "eval"))


def _constants(heston: HestonParams):
    """The market names that the formula texts read."""
    return {"xi": heston.xi, "kappa": heston.kappa, "rs": heston.rho * heston.sigma,
            "half_s2": 0.5 * heston.sigma ** 2}


def pi_bar_path(model: ValidatedModel, g2) -> np.ndarray:
    """Undiscounted investment kernel pi_bar = (xi + rho*sigma*sum_j p_j g2_j) / E[gamma]
    on the grid, from g2 alone; pi_hat(t) = pi_bar(t) * e^{-r(T-t)}."""
    weighted_g2 = np.asarray(model.dist.probs) @ g2
    names = {**_constants(model.heston), "mean_gamma": model.dist.mean, "w": weighted_g2}
    return eval(_compiled(PI_BAR.format(w="w")), names)


def pi_hat_path(model: ValidatedModel, g2) -> np.ndarray:
    """Equilibrium investment pi_hat = pi_bar * e^{-r(T-t)} on the grid, from g2 alone."""
    hz = model.horizon
    return pi_bar_path(model, g2) * np.exp(-model.heston.r * (hz.T - hz.grid()))


def g2_right_side(heston: HestonParams):
    """The right side F(pg, h) of one atom's g2 equation, -dg2/dt = F.

    pg is pi_hat * g1 of the atom and h its g2; both may be floats or
    arrays. The atoms couple only through pi_hat (see PI_BAR).
    """
    return eval(_compiled(f"lambda pg, h: {RIGHT_SIDE.format(pg='pg', h='h')}"), _constants(heston))


@functools.cache
def _g2_integrator(n):
    """The Python loop of solve_g2_coupled written out for n atoms, compiled
    on the first solve with n atoms where the C loop cannot be loaded, and
    the reference that the C loop is tested against: the state is
    h0..h{n-1}, and the weighted sums, PI_BAR and RIGHT_SIDE are inlined
    (per-atom lists, zips and calls cost more than the arithmetic). Each
    step writes h{i} into row i of one array("d") buffer of n * points
    values, from the end, so the buffer is g2 on the t grid, atom-major, at
    8 bytes per state."""
    def each(template, sep="; "):
        return sep.join(template.format(i=i) for i in range(n))

    h, p, ng, w = ([f"{x}{i}" for i in range(n)] for x in ("h", "p", "ng", "w"))
    state = "(" + each("h{i}, ", "") + ")"
    predictor = ("pg = pi_hat * g{i}; f{i} = " + RIGHT_SIDE.format(pg="pg", h="h{i}")
                 + "; p{i} = h{i} + l * f{i}")
    # the corrector's right side keeps its parentheses, or last bits move
    corrector = ("pg = pi_hat * n{i}; h{i} = h{i} + half_l * (f{i} + ("
                 + RIGHT_SIDE.format(pg="pg", h="p{i}") + "))")
    step = [
        "growth = exp(r * s); " + each("n{i} = ng{i} * growth"), "decay_next = exp(-r * s)",
        *weighted_sum_source(h, w, "acc"), f"pi_hat = ({PI_BAR.format(w='acc')}) * decay",
        each(predictor, "\n"),
        *weighted_sum_source(p, w, "acc"), f"pi_hat = ({PI_BAR.format(w='acc')}) * decay_next",
        each(corrector, "\n"),
        f"if not ({each('low <= h{i} <= high', ' and ')}):  # nan fails too",
        f"    h = {state}; value = max(map(abs, h)) if all(map(math.isfinite, h)) else math.inf",
        "    raise BlowUpError(points - k, value)",
        "k -= 1; buf[k] = h0" + "".join(f"; buf[k + o{i}] = h{i}" for i in range(1, n)),
        "decay = decay_next; " + each("g{i} = n{i}"),
    ]
    body = "\n".join(step).replace("\n", "\n" + " " * 8)
    return define(f"""
def integrate({", ".join(ng + w)}, *, s_grid, xi, kappa, rs, half_s2, mean_gamma, r, l, half_l,
              exp=math.exp, fsum=math.fsum, low=-BLOWUP_THRESHOLD, high=BLOWUP_THRESHOLD):
    {"; ".join(split_source(w))}
    {each("h{i} = 0.0")}
    points = len(s_grid); k = points - 1  # k: the last index written in row 0
    {"; ".join(f"o{i} = {i} * points" for i in range(1, n))}
    buf = array("d", [0.0]) * ({n} * points)  # h(0) = 0 ends each row already
    growth = exp(r * s_grid[0]); {each("g{i} = ng{i} * growth")}
    decay = exp(-r * s_grid[0])
    for s in s_grid[1:]:
        {body}
    return buf
""", "integrate", array=array, math=math, BLOWUP_THRESHOLD=BLOWUP_THRESHOLD, BlowUpError=BlowUpError)


# The loop of _g2_integrator in C, generic in the atom count: the same
# float64 operations in the same order, RIGHT_SIDE and PI_BAR included as
# macros from their texts (see _g2_library)
_G2_C = r"""
#include <math.h>

/* CPython 3.11's math.fsum of three floats: 0 with the sum in *out, or 1
   where math.fsum raises (-inf + inf, or an intermediate overflow) */
static int fsum3(const double *items, double *out)
{
    double p[3], x, y, t, hi, yr, lo = 0.0, xsave, special_sum = 0.0, inf_sum = 0.0;
    int i, j, k, n = 0;

    for (k = 0; k < 3; k++) {
        x = items[k];
        xsave = x;
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x; x = y; y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x)) {
                if (isfinite(xsave))
                    return 1;
                if (isinf(xsave))
                    inf_sum += xsave;
                special_sum += xsave;
                n = 0;
            }
            else
                p[n++] = x;
        }
    }
    if (special_sum != 0.0) {
        if (isnan(inf_sum))
            return 1;
        *out = special_sum;
        return 0;
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *out = hi;
    return 0;
}

/* model.weighted_sum of v and w: _FMA_STEP's Dekker two-product of v_i
   and w_i (split by _SPLIT into w_hi, w_lo), then fsum3, or a plain add
   where fsum3 fails */
static double weighted_sum(long n, const double *v, const double *w, const double *w_hi,
                           const double *w_lo)
{
    double acc = v[0] * w[0] + 0.0, c, v_hi, v_lo, items[3];
    long i;

    for (i = 1; i < n; i++) {
        items[0] = v[i] * w[i];
        c = 134217729.0 * v[i]; v_hi = c - (c - v[i]); v_lo = v[i] - v_hi;
        items[1] = ((v_hi * w_hi[i] - items[0]) + v_hi * w_lo[i] + v_lo * w_hi[i]) + v_lo * w_lo[i];
        items[2] = acc;
        if (fsum3(items, &acc))
            acc = items[0] + acc;
    }
    return acc;
}

/* n atoms with ng_i = -gamma_i and weights w_i; work holds 7n doubles, and
   g2 (n rows of points zeros) receives each row from the end. Returns 0,
   or the step after which some h_i is outside [-high, high] or nan, with
   max |h_i| (inf if one is not finite) in *value. */
long integrate(long n, const double *ng, const double *w, const double *s_grid, long points,
               double xi, double kappa, double rs, double half_s2, double mean_gamma, double r,
               double l, double half_l, double high, double *work, double *g2, double *value)
{
    double *h = work, *p = h + n, *f = p + n, *g = f + n, *g_next = g + n, *w_hi = g_next + n,
           *w_lo = w_hi + n;
    double s, c, growth, decay, decay_next, acc, pi_hat, pg;
    long i, m, k;
    int inside;

    for (i = 1; i < n; i++) {
        c = 134217729.0 * w[i]; w_hi[i] = c - (c - w[i]); w_lo[i] = w[i] - w_hi[i];
    }
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
        acc = weighted_sum(n, h, w, w_hi, w_lo);
        pi_hat = PI_BAR(acc) * decay;
        for (i = 0; i < n; i++) {
            pg = pi_hat * g[i];
            f[i] = RIGHT_SIDE(pg, h[i]);
            p[i] = h[i] + l * f[i];
        }
        acc = weighted_sum(n, p, w, w_hi, w_lo);
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
_CC = ["cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off"]


@functools.cache
def _g2_library():
    """The C loop of _G2_C as a function with _g2_integrator(n)'s
    signature for any n, or None where it cannot be built or loaded.

    The library is built once per machine and kept as
    $XDG_CACHE_HOME/eqreinvest/g2-<sha256 of source and command>.so (under
    ~/.cache without XDG_CACHE_HOME). It is compiled in a temporary
    directory beside it and moved into place, so concurrent first runs do
    not read a half-written file.
    """
    import ctypes
    import hashlib

    source = (f"#define RIGHT_SIDE(pg, h) ({RIGHT_SIDE.format(pg='pg', h='h')})\n"
              f"#define PI_BAR(w) ({PI_BAR.format(w='w')})\n{_G2_C}")
    digest = hashlib.sha256(" ".join([*_CC, source]).encode()).hexdigest()
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "eqreinvest")
    path = os.path.join(cache, f"g2-{digest}.so")
    try:
        if not os.path.exists(path):
            _compile(source, cache, path)
        loop = ctypes.CDLL(path).integrate
    except (OSError, AttributeError):  # no cc, a failed compile, or a cache not writable
        return None
    double, pointer = ctypes.c_double, ctypes.c_void_p
    loop.restype = ctypes.c_long
    loop.argtypes = [ctypes.c_long, pointer, pointer, pointer, ctypes.c_long, *[double] * 9,
                     pointer, pointer, ctypes.POINTER(double)]

    def integrate(*coeffs, s_grid, xi, kappa, rs, half_s2, mean_gamma, r, l, half_l):
        n, grid = len(coeffs) // 2, np.frombuffer(s_grid)
        coeffs, work, value = np.array(coeffs), np.empty(7 * n), double()
        g2 = np.zeros(n * len(grid))
        step = loop(n, coeffs.ctypes.data, coeffs[n:].ctypes.data, grid.ctypes.data, len(grid),
                    xi, kappa, rs, half_s2, mean_gamma, r, l, half_l, BLOWUP_THRESHOLD,
                    work.ctypes.data, g2.ctypes.data, ctypes.byref(value))
        if step:
            raise BlowUpError(step, value.value)
        return g2
    return integrate


def _compile(source, cache, path):
    """Build source into the shared library path, through a temporary
    directory in cache; raises OSError when that cannot be done."""
    import subprocess
    import tempfile

    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        c_file, so_file = os.path.join(tmp, "g2.c"), os.path.join(tmp, "g2.so")
        with open(c_file, "w", encoding="utf-8") as fh:
            fh.write(source)
        built = subprocess.run([*_CC, "-o", so_file, c_file, "-lm"], capture_output=True)
        if built.returncode:
            raise OSError(f"cc exited {built.returncode}: {built.stderr.decode(errors='replace')}")
        os.replace(so_file, path)


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
    not x ** 2, which goes through libm pow), and each weighted sum is the
    atom-order fma of model.weighted_sum, which does not depend on the
    BLAS. e^{-rs} and g1(T - s) = -gamma_i e^{rs} (not g1_closed, which
    rounds T - (T - s)) are computed once per grid point and shared by the
    corrector that ends a step and the predictor that starts the next.

    The loop runs as C (_G2_C), which writes the same bytes as the Python
    loop of _g2_integrator: the same float64 operations in the same order,
    with RIGHT_SIDE and PI_BAR included from their texts as macros; no
    fused multiply-add (-ffp-contract=off) and no fast-math; glibc's exp,
    the function math.exp calls (validation keeps gamma_i e^{rT} squarable,
    so it cannot overflow); and CPython 3.11's math.fsum ported for the
    three terms of each emulated fma, with the branches where it raises, so
    that the plain-add fallback fires on the same inputs. _g2_library
    builds it with cc on the first solve, once per machine, into
    $XDG_CACHE_HOME/eqreinvest (~/.cache/eqreinvest without that variable).
    The Python loop runs only where the C loop cannot be built or loaded:
    no cc, a failed compile, or a cache that cannot be written.
    """
    hs, hz, dist = model.heston, model.horizon, model.dist
    integrate = _g2_library() or _g2_integrator(dist.n)
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
