import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqreinvest import (
    PathBatch,
    SimulationError,
    equilibrium_spot_check,
    estimate_reward,
    simulate_paths,
    simulate_strategies,
)
from eqreinvest.montecarlo import CHUNK_SIZE, worker_count
from eqreinvest.model import AversionDistribution, Horizon, validate_config, weighted_sum
from eqreinvest.presets import BASE_HESTON, BASE_INSURANCE, baseline_model
from eqreinvest.strategy import equilibrium_strategy


@pytest.fixture
def four_cores(monkeypatch):
    """Report four usable cores, so that up to four workers start real
    threads on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)


@pytest.fixture(scope="module")
def small_model():
    return baseline_model("caseI", T=1.0, M=200)


def test_reproducible_batches(small_model):
    b1 = simulate_paths(small_model, (0.0, 0.0), n_paths=500, seed=7)
    b2 = simulate_paths(small_model, (0.0, 0.0), n_paths=500, seed=7)
    assert np.array_equal(b1.x_terminal, b2.x_terminal)
    assert np.array_equal(b1.v_terminal, b2.v_terminal)


def test_seed_changes_paths(small_model):
    # under the zero strategy wealth is noiseless, so compare the variance
    b1 = simulate_paths(small_model, (0.0, 0.0), n_paths=500, seed=7)
    b2 = simulate_paths(small_model, (0.0, 0.0), n_paths=500, seed=8)
    assert not np.array_equal(b1.v_terminal, b2.v_terminal)


def test_chunking_invariance(small_model):
    """The first CHUNK_SIZE paths are identical whatever the total count."""
    b1 = simulate_paths(small_model, (0.0, 0.0), n_paths=100, seed=3)
    b2 = simulate_paths(small_model, (0.0, 0.0), n_paths=700, seed=3)
    assert np.array_equal(b1.x_terminal, b2.x_terminal[:100])


def test_zero_strategy_wealth_deterministic(small_model):
    """With q = pi = 0 the wealth ODE is linear and the exact-rate scheme
    reproduces its solution to machine precision."""
    hz, hs, ins = small_model.horizon, small_model.heston, small_model.ins
    batch = simulate_paths(small_model, (0.0, 0.0), n_paths=64, seed=1)
    expected = hz.x0 * math.exp(hs.r * hz.T) + (ins.a * ins.eta / hs.r) * (math.exp(hs.r * hz.T) - 1.0)
    assert np.max(np.abs(batch.x_terminal - expected)) <= 1e-10 * abs(expected)


def test_variance_nonnegative_and_mean_reverting(small_model):
    batch = simulate_paths(small_model, (0.0, 0.0), n_paths=20000, seed=11)
    assert batch.min_v >= 0.0
    assert np.all(batch.v_terminal >= 0.0)
    # E[v_T] for the square-root process started at theta stays at theta
    mean_v = float(np.mean(batch.v_terminal))
    se = float(np.std(batch.v_terminal, ddof=1) / math.sqrt(len(batch.v_terminal)))
    assert abs(mean_v - small_model.heston.theta) < 4.0 * se + 1e-4


def test_constant_strategy_spec(small_model):
    grid_zeros = np.zeros(small_model.horizon.M + 1)
    b1 = simulate_paths(small_model, (0.0, 0.0), n_paths=50, seed=4)
    b2 = simulate_paths(small_model, (grid_zeros, grid_zeros), n_paths=50, seed=4)
    assert np.array_equal(b1.x_terminal, b2.x_terminal)


def test_strategy_array_on_another_grid_is_refused():
    """A grid array of a finer or a coarser model raises ValueError, naming
    both lengths, before any chunk runs."""
    from eqreinvest.odes import solve_g2_coupled

    m100, m200 = (baseline_model("caseI", T=1.0, M=M) for M in (100, 200))
    for m, other in ((m100, m200), (m200, m100)):
        q, pi = equilibrium_strategy(other, solve_g2_coupled(other))
        lengths = rf"\({other.horizon.M + 1},\).* {m.horizon.M + 1} points"
        for strategy in ((q, pi), (0.5, pi), (q, 0.5)):
            with pytest.raises(ValueError, match=lengths):
                simulate_paths(m, strategy, 1000, 1)


def test_invalid_path_count(small_model):
    with pytest.raises(ValueError):
        simulate_paths(small_model, (0.0, 0.0), n_paths=0, seed=1)


def test_simulation_error_on_divergence(small_model):
    with np.errstate(invalid="ignore"), pytest.raises(SimulationError) as exc:
        simulate_paths(small_model, (0.0, float("inf")), n_paths=8, seed=5)
    assert exc.value.step >= 1
    assert exc.value.n_bad >= 1


def test_estimate_reward_zero_strategy(small_model):
    """Deterministic terminal wealth: CE of every atom equals that wealth and
    all standard errors vanish."""
    batch = simulate_paths(small_model, (0.0, 0.0), n_paths=128, seed=6)
    res = estimate_reward(small_model, batch)
    x = batch.x_terminal[0]
    assert np.allclose(res.cert_equiv, x, rtol=1e-12)
    assert np.all(res.utility_se < 1e-12)
    assert res.reward == pytest.approx(x, rel=1e-12)


def test_estimate_reward_mixture_below_best_atom(small_model):
    # the reward mixes per-atom CEs, so it lies between their extremes
    batch = simulate_paths(small_model, (0.2, 0.5), n_paths=5000, seed=9)
    res = estimate_reward(small_model, batch)
    assert min(res.cert_equiv) <= res.reward <= max(res.cert_equiv)
    assert np.all(res.utility_mean < 0)


def test_estimate_reward_underflow_uses_shifted_log_sum_exp(small_model):
    batch = PathBatch(
        x_terminal=np.full(4, 1e6),  # utilities underflow to -0.0
        v_terminal=np.full(4, 0.0225),
        min_v=0.0,
    )
    res = estimate_reward(small_model, batch)
    assert np.all(res.cert_equiv == 1e6)
    assert res.reward == 1e6
    # each atom contributes p_i * (-1 / gamma_i) per path, as without underflow
    gammas, probs = np.array(small_model.dist.gammas), np.array(small_model.dist.probs)
    assert np.allclose(res.weights, -np.dot(probs, 1.0 / gammas), rtol=1e-15)


def test_estimate_reward_overflow_uses_shifted_log_sum_exp(small_model):
    """Wealth of -1000 overflows e^{-gamma x} for gamma = 4: the plain mean is
    -inf, the shifted estimate gives the finite certainty equivalent, and
    numpy warns of nothing (warnings are errors in this suite)."""
    x = np.array([-1000.0, -999.0, 1.0, 2.0])
    batch = PathBatch(x_terminal=x, v_terminal=np.full(4, 0.0225), min_v=0.0)
    res = estimate_reward(small_model, batch)
    assert small_model.dist.gammas == (0.5, 4.0)
    assert res.utility_mean[1] == -math.inf
    lse = -1000.0 - math.log(np.mean(np.exp(-4.0 * (x + 1000.0)))) / 4.0
    assert res.cert_equiv[1] == lse
    assert np.all(np.isfinite(res.cert_equiv)) and np.all(np.isfinite(res.weights))
    assert math.isfinite(res.reward)


def test_reward_is_the_atom_order_fma_of_the_cert_equivs(small_model):
    res = estimate_reward(small_model, simulate_paths(small_model, (0.2, 0.5), n_paths=500, seed=3))
    assert res.reward == weighted_sum(res.cert_equiv, small_model.dist.probs)


def test_underflowing_cert_equiv_matches_ansatz():
    """gamma = 30 at wealth 30: exp(-gamma x) underflows, yet each certainty
    equivalent lies within 5e-4 of -(g1 x0 + g2 v0 + g3) / gamma."""
    from eqreinvest.odes import solve_g

    m = validate_config(
        BASE_INSURANCE,
        BASE_HESTON,
        AversionDistribution.from_lists([0.5, 30.0], [0.5, 0.5]),
        Horizon(T=1.0, M=1000, x0=30.0),
    )
    gsol = solve_g(m)
    res = estimate_reward(m, simulate_paths(m, equilibrium_strategy(m, gsol.g2), 10000, seed=30))
    assert res.utility_mean[1] == 0.0  # the plain mean underflows
    for i, gamma in enumerate(m.dist.gammas):
        expo = gsol.g1[i, 0] * m.horizon.x0 + gsol.g2[i, 0] * m.heston.v0 + gsol.g3[i, 0]
        assert abs(res.cert_equiv[i] - (-expo / gamma)) < 5e-4
    assert np.all(np.isfinite(res.weights))


def test_feynman_kac_consistency():
    """Simulated expected utility under the equilibrium strategy must match
    the ansatz value exp(g1 x + g2 v + g3) at t = 0 within Monte Carlo error."""
    from eqreinvest.odes import solve_g

    m = baseline_model("caseI", T=1.0, M=1000)
    gsol = solve_g(m)
    batch = simulate_paths(m, equilibrium_strategy(m, gsol.g2), n_paths=40000, seed=21)
    res = estimate_reward(m, batch)
    for i, gamma in enumerate(m.dist.gammas):
        expo = gsol.g1[i, 0] * m.horizon.x0 + gsol.g2[i, 0] * m.heston.v0 + gsol.g3[i, 0]
        predicted = -math.exp(expo) / gamma
        assert abs(res.utility_mean[i] - predicted) < 4.0 * res.utility_se[i] + 1e-6


def test_spot_check_equilibrium_not_beaten():
    from eqreinvest.odes import solve_g

    m = baseline_model("caseI", T=1.0, M=500)
    gsol = solve_g(m)
    rows = equilibrium_spot_check(
        m,
        gsol,
        perturbations=[(0.5, 0.5), (0.0, 1.0)],
        h=0.2,
        n_paths=8000,
        seed=33,
    )
    assert len(rows) == 2
    for row in rows:
        assert not row.violation, (row.q, row.pi, row.diff_rate, row.diff_rate_se)
        assert row.diff_rate_se > 0


def _same_batch(a, b):
    for name in ("x_terminal", "v_terminal"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.min_v == b.min_v


def test_shared_pass_matches_single_runs_across_chunks():
    """Mixed strategy kinds over a chunk boundary: each batch of the shared
    pass is byte-equal to its own single-strategy run."""
    from eqreinvest.odes import solve_g

    m = baseline_model("caseII", T=1.0, M=20)
    strategies = [equilibrium_strategy(m, solve_g(m).g2), (0.0, 0.0), (0.3, 7 / 15)]
    n = CHUNK_SIZE + 5
    shared = simulate_strategies(m, strategies, n, seed=12)
    assert len(shared) == 3
    for strategy, batch in zip(strategies, shared):
        _same_batch(batch, simulate_paths(m, strategy, n, seed=12))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
       st.integers(1, 2 ** 31))
def test_shared_pass_matches_single_runs_property(small_model, pairs, seed):
    shared = simulate_strategies(small_model, pairs, 40, seed)
    for pair, batch in zip(pairs, shared):
        _same_batch(batch, simulate_paths(small_model, pair, 40, seed))


def test_spot_check_rows_match_per_strategy_runs():
    """The one-pass spot check gives, field for field, the rows of the
    formulation that simulates each strategy on its own."""
    from eqreinvest.odes import solve_g

    m = baseline_model("caseI", T=1.0, M=100)
    gsol = solve_g(m)
    perturbations, h, n, seed = [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0)], 0.1, 3000, 404
    rows = equilibrium_spot_check(m, gsol, perturbations, h, n, seed)

    q_eq, pi_eq = equilibrium_strategy(m, gsol.g2)
    eq = estimate_reward(m, simulate_paths(m, (q_eq, pi_eq), n, seed))
    for row, (q, pi) in zip(rows, perturbations):
        early = m.horizon.grid() < h
        pert = (np.where(early, q, q_eq), np.where(early, pi, pi_eq))
        res = estimate_reward(m, simulate_paths(m, pert, n, seed))
        rate = (eq.reward - res.reward) / h
        rate_se = float(np.std(eq.weights - res.weights, ddof=1) / math.sqrt(n)) / h
        assert dataclasses.astuple(row) == (q, pi, h, eq.reward, res.reward, rate, rate_se,
                                            rate < -3.0 * rate_se)


def test_workers_do_not_change_outputs(four_cores):
    """Mixed strategies over three chunks, the last one short: every output
    of two workers is byte-equal to the serial run's."""
    from eqreinvest.odes import solve_g

    m = baseline_model("caseII", T=1.0, M=20)
    strategies = [equilibrium_strategy(m, solve_g(m).g2), (0.0, 0.0), (0.3, 7 / 15)]
    n = 2 * CHUNK_SIZE + 5
    assert worker_count(3, 2) == 2
    serial = simulate_strategies(m, strategies, n, seed=12, workers=1)
    for a, b in zip(serial, simulate_strategies(m, strategies, n, seed=12, workers=2)):
        _same_batch(a, b)


def _diverging_run(workers, n_paths=2 * CHUNK_SIZE + 5):
    m = baseline_model("caseI", T=1.0, M=20)
    return simulate_paths(m, (0.0, float("inf")), n_paths, seed=5, workers=workers)


@pytest.mark.parametrize("n_paths", [CHUNK_SIZE + 5, 2 * CHUNK_SIZE + 5])
def test_simulation_error_is_the_lowest_failing_chunks(four_cores, n_paths):
    # every chunk fails at step 1 (the last on 5 paths); the error is
    # chunk 0's, as in a serial run
    assert worker_count(2, 2) == 2
    errors = []
    for workers in (1, 2):
        with np.errstate(invalid="ignore"), pytest.raises(SimulationError) as exc:
            _diverging_run(workers, n_paths)
        errors.append((exc.value.step, exc.value.n_bad))
    assert errors == [(1, CHUNK_SIZE)] * 2


def test_errstate_reaches_every_worker(four_cores):
    """Under np.errstate(invalid="raise") a divergence raises
    FloatingPointError with two workers as it does serially, and no worker
    falls back to numpy's default warning."""
    assert worker_count(3, 2) == 2
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                _diverging_run(workers)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], workers


def test_worker_count_caps(four_cores):
    assert worker_count(7) == 4
    assert worker_count(3) == 3
    assert worker_count(7, 2) == 2
    assert worker_count(1, 4) == 1
    assert worker_count(3, 10 ** 6) == 3
    assert worker_count(10 ** 6, 10 ** 6) == 4
    with pytest.raises(ValueError):
        worker_count(3, 0)


# the fixture only patches a lookup, so sharing it across examples is sound
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 3 * CHUNK_SIZE), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32))
def test_workers_do_not_change_outputs_property(four_cores, n_paths, workers, M, seed):
    m = baseline_model("caseI", T=0.1, M=M)
    strategies = [(0.4, 0.9), (0.0, 0.0)]
    serial = simulate_strategies(m, strategies, n_paths, seed, workers=1)
    for a, b in zip(serial, simulate_strategies(m, strategies, n_paths, seed, workers=workers)):
        _same_batch(a, b)
