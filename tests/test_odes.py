import hashlib
import math
import os
import random
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqreinvest
from eqreinvest import BlowUpError, RiccatiConstants, odes, solve_g
from eqreinvest import model as model_module
from eqreinvest.model import (
    AversionDistribution,
    HestonParams,
    Horizon,
    ValidationError,
    validate_config,
    weighted_sum,
)
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


def test_g2_closed_is_finite_and_warning_free_past_exp_overflow():
    """At k4 tau >= 710 e^{k4 tau} overflows; the closed form stays finite,
    raises no numpy warning and sits at its limit k1 / (k2 + k4)."""
    k = RiccatiConstants.from_heston(BASE_HESTON)
    T = 200.0
    t = np.linspace(0.0, T, 10001)
    assert k.k4 * (T - t[0]) >= 710.0
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")  # numpy's default errstate would warn
        g2 = g2_closed_single(t, BASE_HESTON, T)
    assert np.all(np.isfinite(g2))
    deep = k.k4 * (T - t) >= 710.0
    assert np.count_nonzero(deep) > 1000
    assert np.allclose(g2[deep], k.k1 / (k.k2 + k.k4), rtol=1e-14, atol=0.0)


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
    ref = g2_closed_single(model_single.horizon.grid(), model_single.heston, model_single.horizon.T)
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
    ref = g3_closed_single(model_single.horizon.grid(), model_single)
    assert np.max(np.abs(gsol_single.g3[0] - ref)) < 1e-6


def test_g3_closed_is_finite_and_warning_free_past_exp_overflow():
    """One atom on caseI's market at T = 200: e^{k4 tau} overflows at 285 of
    the 1001 grid points, and the closed form stays finite without a warning."""
    m = baseline_model(AversionDistribution.single(1.0), T=200.0, M=1000)
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        g3 = g3_closed_single(m.horizon.grid(), m)
    assert np.all(np.isfinite(g3))


def test_g3_closed_matches_its_undivided_form(model_single):
    """At T = 10, where nothing overflows, g3 agrees with the log term
    evaluated undivided, log(2 k4 e^{(k2 + k4) tau / 2} / (2 k4 + (k2 + k4)
    (e^{k4 tau} - 1))); against 50-digit values that form errs by up to
    2.8e-14 and the divided one by up to 2.7e-15."""
    ins, hs = model_single.ins, model_single.heston
    k = RiccatiConstants.from_heston(hs)
    t = model_single.horizon.grid()
    tau = model_single.horizon.T - t
    log_term = np.log(2.0 * k.k4 * np.exp(0.5 * (k.k2 + k.k4) * tau)
                      / (2.0 * k.k4 + (k.k2 + k.k4) * np.expm1(k.k4 * tau)))
    undivided = (-0.5 * (ins.a ** 2 * ins.eta2 ** 2 / ins.b ** 2) * tau
                 + (ins.a * ins.eta * model_single.dist.gammas[0] / hs.r) * (1.0 - np.exp(hs.r * tau))
                 + (2.0 * hs.kappa * hs.theta / k.k3) * log_term)
    assert np.max(np.abs(g3_closed_single(t, model_single) - undivided)) < 1e-13


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


def _fixed_law(n):
    """n atoms at gammas in [0.2, 8.2) and unequal weights, by a closed formula."""
    gammas = [0.2 + (i * 37 % 101) / 12.5 for i in range(n)]
    weights = [1.0 + (i * 13 % 7) for i in range(n)]
    total = math.fsum(weights)
    return AversionDistribution.from_lists(gammas, [w / total for w in weights])


# sha256 of solve_g2_coupled(model).tobytes() for _fixed_law(n) on the
# baseline market with overrides, recorded before the step was generated
# for the model's atom count: (n, T, M, overrides) -> digest
G2_DIGESTS = {
    (5, 10.0, 1000, ()): "57434d566e6b24a1adc5aec89a9349fde3d2c556236fd786941b3e4c505877a6",
    (7, 10.0, 1000, (("rho", 0.6), ("sigma", 0.3))):
        "de3a387f6c2e7b8591c988a1caa27efccfdad50a9717f92fca5ef89ef4e6ae81",
    (10, 5.0, 1000, (("kappa", 2.0),)): "2e20595f81afba094886f0202a4ec21eea711f5d0d78f8221e1964117ce1f26b",
    (15, 10.0, 500, (("rho", -0.9),)): "e287ee7681dbdd570e6e385799e79e0d65777f9b3eca866156d66df0cfddfb04",
    (200, 2.0, 200, ()): "15f74dd2828a6601a91b9bac5088b332ab8c958b80ce17a0fc2ce41c6685df1b",
}

# vol of vol 1e100 (with theta 1e200 for Feller) makes h^2 overflow within
# a few steps; xi = 30 at rho = -0.9 diverges after tens of steps
_HUGE = (("sigma", 1e100), ("theta", 1e200), ("kappa", 1.0))
_STEEP = (("xi", 30.0), ("sigma", 1.0), ("theta", 1.0), ("rho", -0.9))

# BlowUpError (step, value), recorded as G2_DIGESTS were
BLOW_UPS = {
    (1, 1.0, 100, _HUGE + (("xi", 1e-80), ("rho", 0.0))): (5, 1.4547175543135137e+89),
    (3, 1.0, 100, _HUGE + (("xi", 1e-85), ("rho", -0.5))): (3, math.inf),
    (5, 10.0, 10000, _STEEP): (93, 738156769437.1532),
    (7, 10.0, 10000, _STEEP): (72, 913797507985.9194),
    (15, 1.0, 100, _HUGE + (("xi", 1e-60), ("rho", -0.5))): (2, math.inf),
}


@pytest.mark.parametrize("n,T,M,overrides", list(G2_DIGESTS))
def test_g2_bytes_match_pinned_digests(n, T, M, overrides):
    m = baseline_model(_fixed_law(n), T=T, M=M, **dict(overrides))
    assert hashlib.sha256(solve_g2_coupled(m).tobytes()).hexdigest() == G2_DIGESTS[(n, T, M, overrides)]


@pytest.mark.parametrize("n,T,M,overrides", list(BLOW_UPS))
def test_blow_up_step_and_value_match_pins(n, T, M, overrides):
    m = baseline_model(_fixed_law(n), T=T, M=M, **dict(overrides))
    with pytest.raises(BlowUpError) as exc:
        solve_g2_coupled(m)
    assert (exc.value.step, exc.value.value) == BLOW_UPS[(n, T, M, overrides)]


# the C g2 loop is built with cc; without it only the Python loop runs
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def _g2_outcome(model, python_loop):
    """solve_g2_coupled's bytes, or its BlowUpError's (step, value), from the
    C loop or, as where it cannot be built, the Python loop."""
    with pytest.MonkeyPatch.context() as mp:
        if python_loop:
            mp.setattr(odes, "_g2_library", lambda: None)
        else:
            assert odes._g2_library() is not None
        try:
            return solve_g2_coupled(model).tobytes()
        except BlowUpError as exc:
            return exc.step, exc.value


@needs_cc
@pytest.mark.parametrize("pinned", [*G2_DIGESTS, *BLOW_UPS])
def test_c_and_python_loops_match_the_pins(pinned):
    n, T, M, overrides = pinned
    m = baseline_model(_fixed_law(n), T=T, M=M, **dict(overrides))
    c_loop, python_loop = _g2_outcome(m, python_loop=False), _g2_outcome(m, python_loop=True)
    assert c_loop == python_loop
    if pinned in BLOW_UPS:
        assert python_loop == BLOW_UPS[pinned]
    else:
        assert hashlib.sha256(python_loop).hexdigest() == G2_DIGESTS[pinned]


@st.composite
def _market(draw):
    """A valid config of 1-16 atoms on at most 2000 steps; the vol of vol
    and xi reach the extremes of the BLOW_UPS pins, whose weighted sums
    meet inf and nan."""
    n = draw(st.integers(min_value=1, max_value=16))
    gammas, probs = _law(draw, n)
    sigma = draw(st.one_of(st.floats(1e-3, 3.0), st.floats(3.0, 1e100)))
    kappa = draw(st.floats(1e-2, 50.0))
    heston = HestonParams(
        r=draw(st.floats(1e-4, 0.5)), xi=draw(st.one_of(st.floats(1e-3, 50.0), st.floats(1e-85, 1e-60))),
        kappa=kappa, theta=sigma * sigma / kappa, sigma=sigma, rho=draw(st.floats(-1.0, 1.0)), v0=0.02)
    horizon = Horizon(T=draw(st.floats(0.01, 50.0)), M=draw(st.integers(1, 2000)))
    return validate_config(BASE_INSURANCE, heston, AversionDistribution.from_lists(gammas, probs), horizon)


@needs_cc
@given(_market())
@settings(max_examples=200, deadline=None)
def test_c_loop_matches_python_loop_bit_for_bit(model):
    """Both loops write the same g2 bytes, or raise the same BlowUpError."""
    assert _g2_outcome(model, python_loop=False) == _g2_outcome(model, python_loop=True)


def _extreme_floats(rnd, k):
    """k floats from random bit patterns, ordinary magnitudes, values near
    the float range, infinities and nan."""
    def one():
        kind = rnd.randrange(5)
        if kind == 0:
            return struct.unpack("d", struct.pack("Q", rnd.getrandbits(64)))[0]
        if kind == 1:
            return rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-30, 30)
        if kind == 2:
            return rnd.choice([-1.0, 1.0]) * rnd.uniform(0.5, 1.0) * sys.float_info.max
        return rnd.choice([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e8])
    return [one() for _ in range(k)]


@needs_cc
def test_c_fsum_and_weighted_sum_match_python(tmp_path):
    """The C loop's fsum3 sums three floats as math.fsum does and fails
    where it raises (inf - inf, an intermediate overflow), and its
    weighted_sum rounds as model.weighted_sum, on inputs the g2 solves
    rarely reach; a harness built from the loop's own source."""
    import ctypes

    harness = tmp_path / "harness.c"
    harness.write_text("#define RIGHT_SIDE(pg, h) 0\n#define PI_BAR(w) 0\n" + odes._G2_C + """
        int fsum_of(const double *items, double *out) { return fsum3(items, out); }
        double weighted_sum_of(long n, const double *v, const double *w, double *w_hi, double *w_lo)
        {
            for (long i = 1; i < n; i++) {
                double c = 134217729.0 * w[i]; w_hi[i] = c - (c - w[i]); w_lo[i] = w[i] - w_hi[i];
            }
            return weighted_sum(n, v, w, w_hi, w_lo);
        }
    """, encoding="utf-8")
    subprocess.run([*odes._CC, "-o", str(tmp_path / "harness.so"), str(harness), "-lm"], check=True)
    lib = ctypes.CDLL(str(tmp_path / "harness.so"))
    lib.weighted_sum_of.restype = ctypes.c_double
    bits = lambda x: "nan" if math.isnan(x) else struct.pack("d", x)
    rnd = random.Random(21)
    for _ in range(20000):
        items = _extreme_floats(rnd, 3)
        if rnd.random() < 0.3:  # cancels, or nearly
            items[1] = -items[0] * rnd.choice([1.0, 1.0 + 2 ** -52, 1.0 - 2 ** -53])
        out = ctypes.c_double()
        failed = lib.fsum_of((ctypes.c_double * 3)(*items), ctypes.byref(out))
        try:
            expected = bits(math.fsum(items))
        except (ValueError, OverflowError):
            expected = "raises"
        assert ("raises" if failed else bits(out.value)) == expected, items
    for _ in range(5000):
        n = rnd.randint(1, 16)
        v = _extreme_floats(rnd, n)
        w = _extreme_floats(rnd, n) if rnd.random() < 0.5 else [rnd.random() for _ in range(n)]
        arrays = [(ctypes.c_double * n)(*x) for x in (v, w, [0.0] * n, [0.0] * n)]
        assert bits(lib.weighted_sum_of(n, *arrays)) == bits(weighted_sum(v, w)), (v, w)


def _run_python(code, **env):
    """Run code in a fresh interpreter that imports this package, with env
    added to the environment."""
    src = os.path.dirname(os.path.dirname(eqreinvest.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@needs_cc
def test_g2_loop_is_loaded_once_on_the_first_solve():
    """Importing the CLI loads no g2 loop, so start-up does not pay for it,
    and solves with 2 and 3 atoms load the C loop once, compiling no Python
    loop; a fresh interpreter, since other tests have solved in this one."""
    _run_python("""if True:
        import eqreinvest.cli
        from eqreinvest import odes
        from eqreinvest.model import AversionDistribution
        from eqreinvest.presets import baseline_model
        assert odes._g2_library.cache_info().currsize == 0
        for case in ("caseI", AversionDistribution.from_lists([0.5, 1.0, 4.0], [0.25, 0.5, 0.25])):
            odes.solve_g2_coupled(baseline_model(case, T=1.0, M=10))
        info = odes._g2_library.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1), info
        assert odes._g2_integrator.cache_info().currsize == 0
    """)


@needs_cc
def test_warm_cache_loads_the_c_loop_without_the_compiler(tmp_path):
    """The first process builds one library into an empty cache; a second,
    with no cc on its PATH, loads it from there."""
    cache, empty_path = tmp_path / "cache", tmp_path / "bin"
    empty_path.mkdir()
    solve = """if True:
        from eqreinvest import odes
        from eqreinvest.presets import baseline_model
        assert odes._g2_library() is not None
        odes.solve_g2_coupled(baseline_model("caseII", T=1.0, M=10))
    """
    _run_python(solve, XDG_CACHE_HOME=str(cache))
    built = os.listdir(cache / "eqreinvest")
    assert len(built) == 1 and built[0].startswith("g2-") and built[0].endswith(".so"), built
    _run_python(solve, XDG_CACHE_HOME=str(cache), PATH=str(empty_path))
    assert os.listdir(cache / "eqreinvest") == built


def test_g2_is_held_in_one_float64_buffer():
    """The solver's peak allocation is within 2.5x of the g2 it returns (8
    bytes per state; a list of Python floats peaks near 6.6x), and g2 is the
    C-contiguous float64 (n, M+1) array that probs @ g2 reads in row order."""
    m = baseline_model("caseI", T=20.0, M=20000)
    solve_g2_coupled(baseline_model("caseI", T=1.0, M=10))  # load the loop outside the trace
    tracemalloc.start()
    try:
        g2 = solve_g2_coupled(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * g2.nbytes, peak / g2.nbytes
    assert g2.dtype == np.float64 and g2.shape == (2, 20001) and g2.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2, 6])
def test_memory_guard_counts_what_solve_g_holds_at_its_peak(n, monkeypatch):
    """validate_config refuses a grid once solve_g's tracemalloc peak is
    more than 1% above physical memory, and accepts it at that peak: the
    guard counts the quadrature's temporaries, not only the g arrays."""
    law = _fixed_law(n)
    horizon = Horizon(T=10.0, M=10000)
    model = validate_config(BASE_INSURANCE, BASE_HESTON, law, horizon)
    solve_g(baseline_model(law, T=1.0, M=10))  # load the loop outside the trace
    tracemalloc.start()
    try:
        solve_g(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(model_module, "physical_memory", lambda: peak)
    validate_config(BASE_INSURANCE, BASE_HESTON, law, horizon)
    monkeypatch.setattr(model_module, "physical_memory", lambda: int(0.99 * peak))
    with pytest.raises(ValidationError, match="physical memory"):
        validate_config(BASE_INSURANCE, BASE_HESTON, law, horizon)


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
