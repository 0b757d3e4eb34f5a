"""Reference values computed apart from the program under test.

A model is a plain dict of config tokens (the strings written to the
config file, rationals such as ``7/15`` included); ``value`` turns a token
into a float exactly as a reader of the config format would.

g2 is integrated here with scipy's DOP853 at rtol 1e-12, straight from the
model equations, in time to maturity s = T - t. With pi_hat and g1 written
out, their exponentials cancel and the system reads, per atom i,

    X      = xi + rho*sigma*sum_j p_j h_j
    pg_i   = -gamma_i * X / E[gamma]               (pi_hat * g1)
    dh_i/ds = xi*pg_i + pg_i^2/2 - kappa*h_i + sigma^2 h_i^2/2 + rho*sigma*pg_i*h_i

with h(0) = 0 and g2(t) = h(T - t). g3 is integrated alongside it:

    dG3_i/ds = -gamma_i*a*eta*e^{rs} - gamma_i*a*eta2*R + (b*R*gamma_i)^2/2 + kappa*theta*h_i

where a = lambda1*mu1, b^2 = lambda1*mu2, eta = eta1 - eta2 and
R = mu1*eta2/(mu2*E[gamma]), the undiscounted retention ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

# The paper's baseline market (v0 at the long-run variance) and its two
# risk-aversion cases, kept here apart from the program's presets.
BASELINE = {
    "eta1": "0.3", "eta2": "0.5", "lambda1": "1", "mu1": "0.1", "mu2": "0.2",
    "r": "0.05", "xi": "7/15", "kappa": "5", "theta": "0.0225", "sigma": "0.25",
    "rho": "-0.5", "v0": "0.0225", "x0": "1",
}
CASES = {
    "caseI": {"gammas": "0.5, 4", "probs": "0.5, 0.5"},
    "caseII": {"gammas": "0.5, 4", "probs": "0.8, 0.2"},
}


def value(token):
    token = str(token).strip()
    return float(Fraction(token)) if "/" in token else float(token)


def values(tokens):
    return [value(tok) for tok in str(tokens).split(",") if tok.strip()]


def model(case, T, M, **overrides):
    """Config tokens for one baseline case, horizon and grid."""
    return {**BASELINE, **CASES[case], "T": str(T), "M": str(M), **{k: str(v) for k, v in overrides.items()}}


def config_text(m):
    return "".join(f"{key} = {tok}\n" for key, tok in m.items())


def e_gamma(m):
    return math.fsum(g * p for g, p in zip(values(m["gammas"]), values(m["probs"])))


def retention(m):
    return value(m["mu1"]) * value(m["eta2"]) / (value(m["mu2"]) * e_gamma(m))


def q_hat(m, t):
    """Analytic retained proportion mu1*eta2/(mu2*E[gamma]) * e^{-r(T-t)}."""
    return retention(m) * math.exp(-value(m["r"]) * (value(m["T"]) - t))


def checkpoints(M, T):
    """Grid indices to compare: 17 spread over [0, T] and 17 over the last
    year before maturity, where g2 moves most."""
    last_year = max(1, min(M, round(M / T)))
    idx = {round(k * M / 16) for k in range(17)}
    idx |= {M - round(k * last_year / 16) for k in range(17)}
    return sorted(idx)


class GReference:
    """g1, g2, g3 and the strategy of one model at chosen grid indices."""

    def __init__(self, m, indices):
        T, M = value(m["T"]), int(m["M"])
        self.indices = list(indices)
        self.t = {i: (T if i == M else i * (T / M)) for i in self.indices}
        gam = np.array(values(m["gammas"]))
        prob = np.array(values(m["probs"]))
        eg = e_gamma(m)
        xi, kappa, theta = value(m["xi"]), value(m["kappa"]), value(m["theta"])
        sigma, rho, r = value(m["sigma"]), value(m["rho"]), value(m["r"])
        lam, mu1, mu2 = value(m["lambda1"]), value(m["mu1"]), value(m["mu2"])
        eta1, eta2 = value(m["eta1"]), value(m["eta2"])
        a, b2, eta, R = lam * mu1, lam * mu2, eta1 - eta2, retention(m)
        n = len(gam)

        def rhs(s, y):
            h = y[:n]
            pg = -gam * (xi + rho * sigma * math.fsum(prob * h)) / eg
            dh = xi * pg + 0.5 * pg * pg - kappa * h + 0.5 * sigma ** 2 * h * h + rho * sigma * pg * h
            dg3 = -gam * a * eta * math.exp(r * s) - gam * a * eta2 * R + 0.5 * b2 * (R * gam) ** 2 + kappa * theta * h
            return np.concatenate([dh, dg3])

        s_eval = sorted({T - self.t[i] for i in self.indices} | {0.0})
        s_eval = [min(max(s, 0.0), T) for s in s_eval]
        sol = solve_ivp(rhs, (0.0, T), np.zeros(2 * n), method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=s_eval)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        by_s = {s: sol.y[:, k] for k, s in enumerate(s_eval)}
        self.gammas = gam
        self.g1, self.g2, self.g3, self.pi_bar, self.pi_hat = {}, {}, {}, {}, {}
        for i in self.indices:
            s = min(max(T - self.t[i], 0.0), T)
            y = by_s[s]
            self.g1[i] = -gam * math.exp(r * s)
            self.g2[i] = y[:n]
            self.g3[i] = y[n:]
            self.pi_bar[i] = (xi + rho * sigma * math.fsum(prob * y[:n])) / eg
            self.pi_hat[i] = self.pi_bar[i] * math.exp(-r * s)

    def ansatz_exponent(self, x0, v0):
        """g1*x0 + g2*v0 + g3 per atom at t = 0."""
        return self.g1[0] * x0 + self.g2[0] * v0 + self.g3[0]


def zero_strategy_wealth(m):
    """Terminal wealth with no reinsurance and no investment:
    x0 e^{rT} + (a*eta/r)(e^{rT} - 1); deterministic."""
    r, T, x0 = value(m["r"]), value(m["T"]), value(m["x0"])
    a = value(m["lambda1"]) * value(m["mu1"])
    eta = value(m["eta1"]) - value(m["eta2"])
    return x0 * math.exp(r * T) + (a * eta / r) * math.expm1(r * T)
