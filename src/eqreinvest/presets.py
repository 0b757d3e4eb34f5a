"""Baseline market parameters and the two benchmark aversion cases.

Kept in one place so the reproduce pipeline and the test suite share the
exact same numbers. The volatility premium is the ratio 7/15, stored as
a fraction to avoid decimal truncation.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .model import (
    AversionDistribution,
    Horizon,
    HestonParams,
    InsuranceParams,
    validate_config,
)

XI = float(Fraction(7, 15))

BASE_INSURANCE = InsuranceParams(eta1=0.3, eta2=0.5, lambda1=1.0, mu1=0.1, mu2=0.2)

# v0 is not part of the published baseline; it defaults to the long-run
# variance so the variance process starts at its stationary mean.
BASE_HESTON = HestonParams(
    r=0.05, xi=XI, kappa=5.0, theta=0.15 ** 2, sigma=0.25, rho=-0.5, v0=0.15 ** 2
)

CASE_I = AversionDistribution.from_lists([0.5, 4.0], [0.5, 0.5])    # E[gamma] = 2.25
CASE_II = AversionDistribution.from_lists([0.5, 4.0], [0.8, 0.2])   # E[gamma] = 1.2

CASES = {"caseI": CASE_I, "caseII": CASE_II}

STEP_YEARS = 1e-3  # default grid step for both horizons


def baseline_model(case="caseI", T=10.0, M=None, **heston_overrides):
    """Validated baseline model for one aversion case and horizon; M
    defaults to the 1e-3 year step."""
    hz = Horizon(T=float(T), M=int(round(T / STEP_YEARS) if M is None else M))
    dist = CASES[case] if isinstance(case, str) else case
    return validate_config(BASE_INSURANCE, replace(BASE_HESTON, **heston_overrides), dist, hz)
