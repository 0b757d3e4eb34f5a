import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqreinvest import BlowUpError, RiccatiConstants, solve_g
from eqreinvest.model import AversionDistribution, HestonParams, Horizon, validate_config
from eqreinvest.odes import (
    g1_closed,
    g2_closed_single,
    g3_closed_single,
    residual_check,
    solve_g2_coupled,
)
from eqreinvest.presets import BASE_HESTON, BASE_INSURANCE, CASE_I, baseline_model
from eqreinvest.strategy import pi_hat_path, q_hat

# Frozen oracle: constants of the scalar Riccati equation for the baseline
# market (xi = 7/15, kappa = 5, sigma = 0.25, rho = -0.5), computed with
# 40-digit arithmetic and rounded to double precision.
K1_BASE = -0.21777777777777776
K2_BASE = 4.941666666666666
K3_BASE = 0.046875
K4_BASE = 4.942699442387507

# Frozen oracle: closed-form g2(0) for the baseline market at T = 10,
# same 40-digit computation.
G2_AT_0_T10 = -0.022032548711271555


def test_riccati_constants_baseline():
    k = RiccatiConstants.from_heston(BASE_HESTON)
    assert k.k1 == pytest.approx(K1_BASE, rel=1e-15)
    assert k.k2 == pytest.approx(K2_BASE, rel=1e-15)
    assert k.k3 == pytest.approx(K3_BASE, rel=1e-15)
    assert k.k4 == pytest.approx(K4_BASE, rel=1e-15)


@pytest.mark.parametrize("rho", [-0.9, -0.3, 0.4, 0.8])
def test_riccati_constants_rho_symmetry(rho):
    def at(r):
        return RiccatiConstants.from_heston(
            HestonParams(r=0.05, xi=0.4, kappa=5.0, theta=0.0225, sigma=0.25, rho=r, v0=0.0225)
        )

    kp, km = at(rho), at(-rho)
    assert kp.k1 == km.k1
    assert kp.k3 == km.k3
    assert kp.k2 + km.k2 == pytest.approx(2.0 * 5.0, rel=1e-15)


def test_g1_closed_terminal_and_discounting():
    assert g1_closed(10.0, gamma=4.0, r=0.05, T=10.0) == -4.0
    assert g1_closed(0.0, gamma=0.5, r=0.05, T=10.0) == pytest.approx(-0.5 * math.e ** 0.5, rel=1e-15)


def test_g2_closed_frozen_value():
    assert g2_closed_single(0.0, BASE_HESTON, T=10.0) == pytest.approx(G2_AT_0_T10, rel=1e-14)


def test_g2_closed_matches_fine_scalar_integration():
    """Cross-check the closed form against a brute-force fine-step integration
    of the scalar Riccati ODE (step 1e-5), an oracle independent of the
    production solver."""
    k = RiccatiConstants.from_heston(BASE_HESTON)
    l, n = 1e-5, 1_000_000  # integrate s in [0, 10]

    def f(h):
        return 0.5 * k.k1 - k.k2 * h + 0.5 * k.k3 * h ** 2

    h = 0.0
    for _ in range(n):
        f0 = f(h)
        h = h + 0.5 * l * (f0 + f(h + l * f0))
    # time reversal h(s) = g2(T - s), so h(10) = g2(0)
    assert h == pytest.approx(G2_AT_0_T10, abs=1e-10)
    assert g2_closed_single(0.0, BASE_HESTON, T=10.0) == pytest.approx(h, abs=1e-10)


def test_coupled_solver_matches_closed_form_single_atom(model_single, gsol_single):
    ref = g2_closed_single(gsol_single.grid, model_single.heston, model_single.horizon.T)
    assert np.max(np.abs(gsol_single.g2[0] - ref)) < 1e-6


@given(rho=st.floats(min_value=-1.0, max_value=1.0), gamma=st.floats(min_value=0.05, max_value=50.0))
@example(rho=-1.0, gamma=1.0)  # k3 = 0: the closed form's linear-ODE branch
@example(rho=1.0, gamma=1.0)
@settings(max_examples=25, deadline=None)
def test_single_atom_solver_matches_closed_form_for_any_rho(rho, gamma):
    """Second order at l = 2.5e-3 leaves about 2.2e-7 for any rho."""
    m = baseline_model(AversionDistribution.single(gamma), T=10.0, M=4000, rho=rho)
    ref = g2_closed_single(m.horizon.grid(), m.heston, 10.0)
    assert np.max(np.abs(solve_g2_coupled(m)[0] - ref)) < 1e-6


def test_g2_independent_of_single_gamma_value():
    sols = []
    for gamma in (0.5, 4.0):
        m = validate_config(
            BASE_INSURANCE, BASE_HESTON, AversionDistribution.single(gamma), Horizon(T=10.0, M=2000)
        )
        sols.append(solve_g2_coupled(m))
    assert np.max(np.abs(sols[0] - sols[1])) < 1e-13


def test_atom_collapse_equivalence():
    """Splitting one atom into identical duplicates must not change g2."""
    whole = validate_config(
        BASE_INSURANCE, BASE_HESTON, AversionDistribution.single(2.0), Horizon(T=10.0, M=2000)
    )
    split = validate_config(
        BASE_INSURANCE,
        BASE_HESTON,
        AversionDistribution.from_lists([2.0, 2.0, 2.0], [0.2, 0.3, 0.5]),
        Horizon(T=10.0, M=2000),
    )
    g2w = solve_g2_coupled(whole)
    g2s = solve_g2_coupled(split)
    assert np.max(np.abs(g2s - g2w[0])) < 1e-12


def test_g2_terminal_condition_exact(gsol_case1):
    assert np.all(gsol_case1.g2[:, -1] == 0.0)
    assert np.all(gsol_case1.g3[:, -1] == 0.0)


def test_g2_nonpositive_baseline(gsol_case1):
    assert np.all(gsol_case1.g2 <= 0.0)


def test_g3_matches_closed_form_single_atom(model_single, gsol_single):
    ref = g3_closed_single(gsol_single.grid, model_single)
    assert np.max(np.abs(gsol_single.g3[0] - ref)) < 1e-6


def test_residual_small_on_baseline(model_case1, gsol_case1):
    assert np.max(residual_check(gsol_case1, model_case1)) < 1e-5


def test_second_order_convergence():
    """Error against the single-atom closed form contracts ~4x per halving."""
    errs = []
    for M in (250, 500, 1000):
        m = validate_config(
            BASE_INSURANCE, BASE_HESTON, AversionDistribution.single(1.0), Horizon(T=10.0, M=M)
        )
        g2 = solve_g2_coupled(m)
        ref = g2_closed_single(m.horizon.grid(), BASE_HESTON, 10.0)
        errs.append(np.max(np.abs(g2[0] - ref)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o > 1.9 for o in orders)


def test_blow_up_detected():
    heston = HestonParams(r=0.05, xi=50.0, kappa=5.0, theta=1.0, sigma=1.0, rho=-0.9, v0=1.0)
    m = validate_config(BASE_INSURANCE, heston, CASE_I, Horizon(T=10.0, M=10000))
    with pytest.raises(BlowUpError) as exc:
        solve_g2_coupled(m)
    # recorded from the solver that tested the whole step with isfinite, then max |h2|
    assert exc.value.step == 1348
    assert exc.value.value == 69718679217.9561


def test_blow_up_to_non_finite_in_first_step():
    heston = HestonParams(r=0.05, xi=1e200, kappa=5.0, theta=1.0, sigma=1.0, rho=-0.9, v0=1.0)
    m = validate_config(BASE_INSURANCE, heston, CASE_I, Horizon(T=1.0, M=10))
    with pytest.raises(BlowUpError) as exc:
        solve_g2_coupled(m)
    assert exc.value.step == 1
    assert exc.value.value == math.inf


def test_minimal_grid_runs():
    m = baseline_model("caseI", T=1.0, M=1)
    gsol = solve_g(m)
    assert gsol.g2.shape == (2, 2)
    assert np.all(gsol.g2[:, -1] == 0.0)


def _law(draw, n):
    gammas = draw(st.lists(st.floats(min_value=0.1, max_value=8.0), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    return gammas, [w / math.fsum(weights) for w in weights]


@st.composite
def _law_and_permutation(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    return *_law(draw, n), draw(st.permutations(range(n)))


@given(_law_and_permutation())
@settings(max_examples=40, deadline=None)
def test_atom_permutation_permutes_g2_rows(law):
    """Relabelling the atoms relabels the rows of g2 and leaves pi_hat and
    q_hat alone, to 1e-12 relative: not bit for bit, since the fma
    reduction over the atoms (and E[gamma]) rounds differently in another
    order (measured: at most 2e-15 of max |g2| over 300 random laws)."""
    gammas, probs, perm = law
    horizon = Horizon(T=5.0, M=200)
    models = [
        validate_config(BASE_INSURANCE, BASE_HESTON, AversionDistribution.from_lists(g, p), horizon)
        for g, p in ((gammas, probs), ([gammas[i] for i in perm], [probs[i] for i in perm]))
    ]
    g2, g2_permuted = map(solve_g2_coupled, models)
    assert np.allclose(g2_permuted, g2[list(perm)], rtol=0.0, atol=1e-12 * np.max(np.abs(g2)))
    grid = horizon.grid()
    assert np.allclose(pi_hat_path(models[1], g2_permuted), pi_hat_path(models[0], g2), rtol=1e-12, atol=0.0)
    assert np.allclose(q_hat(models[1], grid), q_hat(models[0], grid), rtol=1e-12, atol=0.0)


@st.composite
def _law_and_split(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return *_law(draw, n), draw(st.integers(0, n - 1)), draw(st.floats(min_value=0.01, max_value=0.99))


@given(_law_and_split())
@settings(max_examples=40, deadline=None)
def test_split_atom_gives_two_equal_g2_rows(law):
    """Splitting atom k into two copies of weights p w and p (1 - w) gives
    two bit-equal g2 rows (the same gamma meets the same weighted sum at
    every step), each equal to the unsplit atom's row, and leaves pi_hat and
    q_hat alone, to 1e-12 relative: the fma reduction over the atoms (and
    E[gamma]) rounds differently over more terms."""
    gammas, probs, k, w = law
    split_gammas = gammas[:k + 1] + gammas[k:]
    split_probs = probs[:k] + [probs[k] * w, probs[k] * (1.0 - w)] + probs[k + 1:]
    horizon = Horizon(T=5.0, M=200)
    models = [
        validate_config(BASE_INSURANCE, BASE_HESTON, AversionDistribution.from_lists(g, p), horizon)
        for g, p in ((gammas, probs), (split_gammas, split_probs))
    ]
    g2, g2_split = map(solve_g2_coupled, models)
    assert np.array_equal(g2_split[k], g2_split[k + 1])
    unsplit = np.delete(g2_split, k + 1, axis=0)
    assert np.allclose(unsplit, g2, rtol=0.0, atol=1e-12 * np.max(np.abs(g2)))
    grid = horizon.grid()
    assert np.allclose(pi_hat_path(models[1], g2_split), pi_hat_path(models[0], g2), rtol=1e-12, atol=0.0)
    assert np.allclose(q_hat(models[1], grid), q_hat(models[0], grid), rtol=1e-12, atol=0.0)
