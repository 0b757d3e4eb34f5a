import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqreinvest import (
    AdmissibilityReport,
    ValueRangeError,
    check_admissibility,
    equilibrium_strategy,
    regime_classification,
    regime_labels,
    sensitivity_signs,
    value_function,
)
from eqreinvest.model import AversionDistribution, HestonParams, Horizon, validate_config
from eqreinvest.odes import solve_g, solve_g2_coupled
from eqreinvest.presets import BASE_HESTON, BASE_INSURANCE, CASE_I, CASE_II, baseline_model
from eqreinvest.strategy import pi_bar_path, pi_hat_path, q_hat, retention_ratio


def test_retention_ratio_case1(model_case1):
    # a*eta2/(b^2 E[gamma]) = 0.1*0.5/(0.2*2.25) = 1/9
    assert retention_ratio(model_case1) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_q_hat_terminal_and_initial(model_case1):
    assert q_hat(model_case1, 10.0) == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert q_hat(model_case1, 0.0) == pytest.approx((1.0 / 9.0) * math.exp(-0.5), rel=1e-14)


def test_q_hat_monotone_increasing(model_case1):
    grid = model_case1.horizon.grid()
    q = q_hat(model_case1, grid)
    assert np.all(np.diff(q) > 0)


def test_q_hat_case2_scales_with_mean_gamma(model_case1, model_case2):
    # same market, E[gamma] 2.25 vs 1.2: ratio of retentions is 2.25/1.2
    q1 = q_hat(model_case1, 5.0)
    q2 = q_hat(model_case2, 5.0)
    assert q2 / q1 == pytest.approx(2.25 / 1.2, rel=1e-13)


def test_pi_hat_terminal_value(model_case1, gsol_case1):
    # g2(T) = 0, so pi_hat(T) = xi / E[gamma]
    _, pi = equilibrium_strategy(model_case1, gsol_case1.g2)
    assert pi[-1] == pytest.approx((7.0 / 15.0) / 2.25, rel=1e-13)


def test_pi_hat_positive_baseline(model_case1, gsol_case1):
    _, pi = equilibrium_strategy(model_case1, gsol_case1.g2)
    assert np.all(pi > 0)


def test_pi_bar_is_undiscounted_pi_hat(model_case1, gsol_case1):
    _, pi = equilibrium_strategy(model_case1, gsol_case1.g2)
    grid = model_case1.horizon.grid()
    discount = np.exp(-0.05 * (10.0 - grid))
    assert np.allclose(pi_bar_path(model_case1, gsol_case1.g2) * discount, pi, rtol=1e-14)


def test_strategy_regime_all_reinsurance(model_case1, gsol_case1):
    q, _ = equilibrium_strategy(model_case1, gsol_case1.g2)
    assert set(regime_labels(q)) == {"Reinsurance"}


def test_regime_labels_split_at_one():
    labels = regime_labels(np.array([0.5, 1.0, np.nextafter(1.0, 2.0), 3.0]))
    assert labels.tolist() == ["Reinsurance", "Boundary", "NewBusiness", "NewBusiness"]


def test_admissibility_passes_baseline(model_case1, gsol_case1):
    rep = check_admissibility(model_case1, gsol_case1.g2)
    assert isinstance(rep, AdmissibilityReport)
    assert rep.passed
    assert rep.first_violation is None
    assert rep.rhs == pytest.approx(200.0)
    assert rep.max_lhs < rep.rhs
    assert np.all(rep.margin > 0)


def test_admissibility_failure_is_data():
    """A barely-Feller market with weak mean reversion makes the moment bound
    fail; the report must say so without raising."""
    heston = HestonParams(r=0.05, xi=7.0 / 15.0, kappa=0.25, theta=0.0225, sigma=0.1, rho=-0.5, v0=0.0225)
    m = validate_config(BASE_INSURANCE, heston, CASE_I, Horizon(T=10.0, M=2000))
    gsol = solve_g(m)
    rep = check_admissibility(m, gsol.g2)
    assert not rep.passed
    assert rep.first_violation is not None
    atom, point = rep.first_violation
    assert rep.lhs[atom, point] > rep.rhs or gsol.g2[atom, point] > 0


def test_value_function_terminal_identity(model_case1, gsol_case1):
    surf = value_function(model_case1, gsol_case1)
    for x in (-0.5, 0.0, 1.0, 3.0):
        assert surf.value(10.0, x, 0.0225) == pytest.approx(x, abs=1e-12)


@pytest.fixture(scope="module")
def case2_short():
    model = baseline_model("caseII", T=1.0, M=1000)
    return model, solve_g2_coupled(model)


@given(lambda1=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25, deadline=None)
def test_g2_pi_hat_q_hat_bit_identical_for_any_lambda1(case2_short, lambda1):
    """The claim intensity cancels: g2 never sees it and q_hat uses the
    reduced retention ratio, so every bit stays."""
    base, base_g2 = case2_short
    m = validate_config(replace(base.ins, lambda1=lambda1), base.heston, base.dist, base.horizon)
    g2 = solve_g2_coupled(m)
    grid = m.horizon.grid()
    assert g2.tobytes() == base_g2.tobytes()
    assert pi_hat_path(m, g2).tobytes() == pi_hat_path(base, base_g2).tobytes()
    assert q_hat(m, grid).tobytes() == q_hat(base, grid).tobytes()


def test_value_function_increasing_in_wealth(model_case1, gsol_case1):
    surf = value_function(model_case1, gsol_case1)
    vals = [surf.value(5.0, x, 0.0225) for x in (0.0, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_atom_value_overflow_guard(model_case1, gsol_case1):
    surf = value_function(model_case1, gsol_case1)
    with pytest.raises(ValueRangeError):
        surf.atom_value(10.0, -1000.0, 0.0225, i=1)  # exponent = 4000


def test_atom_value_underflow_guard(model_case1, gsol_case1):
    """Symmetric to overflow: e^{-4000} would give -0.0, not a value."""
    surf = value_function(model_case1, gsol_case1)
    with pytest.raises(ValueRangeError) as exc:
        surf.atom_value(10.0, 1000.0, 0.0225, i=1)  # exponent = -4000
    assert exc.value.exponent == -4000.0
    assert surf.atom_value(10.0, 100.0, 0.0225, i=1) < 0.0  # exponent = -400


def test_regime_reinsurance_throughout(model_case1):
    rep = regime_classification(model_case1)
    assert rep.ratio == pytest.approx(1.0 / 9.0)
    assert rep.crossover_tau is None
    assert rep.reinsurance_throughout


def test_regime_crossover():
    # eta2 large enough that the retention ratio exceeds one
    ins = BASE_INSURANCE.__class__(eta1=0.3, eta2=6.0, lambda1=1.0, mu1=0.1, mu2=0.2)
    m = validate_config(ins, BASE_HESTON, CASE_II, Horizon(T=100.0, M=1000))
    rep = regime_classification(m)
    ratio = 0.1 * 6.0 / (0.2 * 1.2)
    assert rep.ratio == pytest.approx(ratio, rel=1e-13)
    assert rep.crossover_tau == pytest.approx(math.log(ratio) / 0.05, rel=1e-13)
    assert not rep.reinsurance_throughout
    q, _ = equilibrium_strategy(m, solve_g2_coupled(m))
    assert "NewBusiness" in regime_labels(q)


def test_sensitivity_signs_interior(model_case1):
    rep = sensitivity_signs(model_case1, t=5.0)
    assert rep.agrees, rep.signs
    assert rep.signs == {"r": -1, "eta2": 1, "lambda1": 0, "mu1": 1, "mu2": -1}


def test_sensitivity_signs_at_maturity(model_case1):
    rep = sensitivity_signs(model_case1, t=10.0)
    assert rep.agrees, rep.signs
    assert rep.signs["r"] == 0


def test_case2_strategy_larger_than_case1(gsol_case1, gsol_case2, model_case1, model_case2):
    """Lower mean aversion (case II) retains more risk and invests more."""
    (q1, pi1), (q2, pi2) = (equilibrium_strategy(m, g.g2) for m, g in ((model_case1, gsol_case1),
                                                                        (model_case2, gsol_case2)))
    assert np.all(q2 > q1)
    assert np.all(pi2 > pi1)
