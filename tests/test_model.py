import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eqreinvest import (
    AversionDistribution,
    Horizon,
    HestonParams,
    InsuranceParams,
    ValidationError,
    validate_config,
    weighted_sum,
)
from eqreinvest import model as model_module
from eqreinvest.presets import BASE_HESTON, BASE_INSURANCE, CASE_I, CASE_II


def test_surplus_scales_table1():
    ins = BASE_INSURANCE
    assert ins.a == pytest.approx(0.1, abs=0)
    assert ins.b == pytest.approx(math.sqrt(0.2), rel=1e-15)
    assert ins.eta == pytest.approx(-0.2, rel=1e-15)


def test_surplus_scales_identity():
    ins = InsuranceParams(eta1=0.0, eta2=0.0, lambda1=1.0, mu1=1.0, mu2=1.0)
    assert (ins.a, ins.b, ins.eta) == (1.0, 1.0, 0.0)


def test_surplus_scales_scaled_intensity():
    # direct arithmetic: a = lambda*mu1, b = sqrt(lambda*mu2)
    ins = InsuranceParams(eta1=0.3, eta2=0.5, lambda1=4.0, mu1=0.1, mu2=0.2)
    assert ins.a == pytest.approx(0.4, rel=1e-15)
    assert ins.b == pytest.approx(math.sqrt(0.8), rel=1e-15)
    assert ins.eta == pytest.approx(-0.2, rel=1e-15)


@pytest.mark.parametrize("c", [0.5, 2.0, 7.0])
def test_surplus_scale_consistency(c):
    base = BASE_INSURANCE
    scaled = dataclasses.replace(base, lambda1=base.lambda1 * c)
    assert scaled.a == pytest.approx(base.a * c, rel=1e-13)
    assert scaled.b == pytest.approx(base.b * math.sqrt(c), rel=1e-13)
    assert scaled.a / scaled.b ** 2 == pytest.approx(base.a / base.b ** 2, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-3, 1e3), st.floats(1e-3, 10.0),
       st.floats(1.0, 10.0), st.floats(0.0, 1.0))
def test_surplus_scales_are_the_expressions_of_the_fields(eta1, gap, lambda1, mu1, ratio, q):
    """a, b, eta and drift(q) are the same float expressions of the fields,
    also on a copy made with dataclasses.replace."""
    ins = dataclasses.replace(BASE_INSURANCE, eta1=eta1, eta2=eta1 + gap, lambda1=lambda1, mu1=mu1,
                              mu2=mu1 * mu1 * ratio)
    assert ins.a == lambda1 * mu1
    assert ins.b == math.sqrt(lambda1 * ins.mu2)
    assert ins.eta == eta1 - (eta1 + gap)
    assert ins.drift(q) == ins.a * ins.eta + ins.a * ins.eta2 * q
    qs = np.array([q, 0.5 * q])
    assert np.array_equal(ins.drift(qs), ins.a * ins.eta + ins.a * ins.eta2 * qs)


def test_validate_config_rejects_loading_arbitrage():
    bad = InsuranceParams(eta1=0.5, eta2=0.3, lambda1=1.0, mu1=0.1, mu2=0.2)
    with pytest.raises(ValidationError, match="eta2"):
        validate_config(bad, BASE_HESTON, CASE_I, Horizon(T=10.0, M=100))


def test_validate_config_accepts_table1_case1():
    m = validate_config(BASE_INSURANCE, BASE_HESTON, CASE_I, Horizon(T=10.0, M=10000))
    assert m.dist.mean == pytest.approx(2.25)
    assert m.ins.a == pytest.approx(0.1)


def test_validate_config_rejects_feller_violation():
    bad = HestonParams(r=0.05, xi=0.4, kappa=0.1, theta=0.01, sigma=1.0, rho=0.0, v0=0.01)
    with pytest.raises(ValidationError, match="Feller"):
        validate_config(BASE_INSURANCE, bad, CASE_I, Horizon(T=10.0, M=100))


def test_validate_config_rejects_unnormalized_probs():
    bad = AversionDistribution.from_lists([0.5, 4.0], [0.6, 0.5])
    with pytest.raises(ValidationError, match="sum to 1"):
        validate_config(BASE_INSURANCE, BASE_HESTON, bad, Horizon(T=10.0, M=100))


def test_validate_config_aggregates_violations():
    bad_ins = InsuranceParams(eta1=0.5, eta2=0.3, lambda1=-1.0, mu1=0.1, mu2=0.2)
    bad_dist = AversionDistribution.from_lists([0.5], [0.9])
    with pytest.raises(ValidationError) as exc:
        validate_config(bad_ins, BASE_HESTON, bad_dist, Horizon(T=10.0, M=100))
    assert exc.value.violations == [
        "lambda1 must be > 0, got -1.0",
        "eta2 must be >= eta1 (no arbitrage), got eta2=0.3 < eta1=0.5",
        "probabilities must sum to 1 within 1e-12, got 0.9",
    ]


def test_validate_config_reports_bad_types_not_type_errors():
    with pytest.raises(ValidationError) as exc:
        validate_config(BASE_INSURANCE, BASE_HESTON, CASE_I, Horizon(T=1.0, M=None))
    assert exc.value.violations == ["M must be an integer >= 1, got None"]


def test_validate_config_reports_a_non_finite_input_once():
    bad_dist = AversionDistribution.from_lists([0.5, math.inf], [0.5, 0.5])
    with pytest.raises(ValidationError) as exc:
        validate_config(BASE_INSURANCE, BASE_HESTON, bad_dist, Horizon(T=math.nan, M=0))
    assert exc.value.violations == [
        "T must be finite, got nan",
        "gamma[1] must be finite, got inf",
        "M must be an integer >= 1, got 0",
    ]


NUMERIC_INPUTS = [f.name for part in (BASE_INSURANCE, BASE_HESTON, Horizon(T=1.0, M=10))
                  for f in dataclasses.fields(part)] + ["gamma[0]", "gamma[1]", "prob[0]", "prob[1]"]


def _violations_with(name, value):
    """The violations of a valid caseI model with one numeric input set to value."""
    parts = [BASE_INSURANCE, BASE_HESTON, Horizon(T=1.0, M=10)]
    atoms = {"gamma": list(CASE_I.gammas), "prob": list(CASE_I.probs)}
    if "[" in name:
        atoms[name[:-3]][int(name[-2])] = value
    else:
        parts = [dataclasses.replace(p, **{name: value}) if hasattr(p, name) else p for p in parts]
    ins, heston, horizon = parts
    with pytest.raises(ValidationError) as exc:
        validate_config(ins, heston, AversionDistribution(tuple(atoms["gamma"]), tuple(atoms["prob"])), horizon)
    return exc.value.violations


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", NUMERIC_INPUTS)
def test_each_non_finite_input_is_its_only_violation(name, value):
    """No range check or check across fields reports a non-finite input a
    second time, for any numeric input of an otherwise valid model."""
    assert _violations_with(name, value) == [f"{name} must be finite, got {value}"]


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["10**400", "-10**400"])
@pytest.mark.parametrize("name", NUMERIC_INPUTS)
def test_each_int_past_the_float_range_is_its_only_violation(name, value):
    """An int that float() refuses is a ValidationError naming its input, not
    an OverflowError from a finiteness or range check."""
    assert _violations_with(name, value) == [f"{name} must be finite, got an int past the float range"]


@pytest.mark.parametrize("value", ["x", None])
@pytest.mark.parametrize("name", NUMERIC_INPUTS)
def test_each_non_number_input_is_its_only_violation(name, value):
    """A non-number from the library, a str even where float() parses it, is
    a ValidationError naming its input, not a TypeError from a range check
    nor a value that passes validation (x0 has no range rule)."""
    violations = _violations_with(name, value)
    assert len(violations) == 1 and violations[0].startswith(f"{name} must be ")
    pinned = "an integer >= 1" if name == "M" else "a number"  # M's own rule names what is not an integer
    assert violations == [f"{name} must be {pinned}, got {value!r}"]


def test_g1_square_of_an_int_rate_past_int64_is_its_violation():
    """r = 10**300 and T = 1 as ints: e^{rT} is past the float range, which the
    g1-square rule reports; np.exp of the int product raised TypeError."""
    heston = dataclasses.replace(BASE_HESTON, r=10 ** 300)
    with pytest.raises(ValidationError) as exc:
        validate_config(BASE_INSURANCE, heston, CASE_I, Horizon(T=1, M=10))
    assert exc.value.violations == [f"(max gamma_i e^(rT))^2 must be finite (r = {10 ** 300}, T = 1)"]


@pytest.mark.parametrize("inputs,violation", [
    ({"kappa": np.float64(0.3), "sigma": 10 ** 300},
     f"Feller condition violated: 2*kappa*theta={2.0 * 0.3 * BASE_HESTON.theta} <= sigma^2={10 ** 600}"),
    ({"kappa": np.float32(0.3), "sigma": 10 ** 300},
     f"Feller condition violated: 2*kappa*theta={2.0 * np.float32(0.3) * BASE_HESTON.theta} <= sigma^2={10 ** 600}"),
    ({"kappa": np.int64(1), "sigma": 10 ** 300},
     f"Feller condition violated: 2*kappa*theta={2.0 * np.int64(1) * BASE_HESTON.theta} <= sigma^2={10 ** 600}"),
    ({"theta": np.float32(0.3), "sigma": 10 ** 300},
     f"Feller condition violated: 2*kappa*theta={2.0 * BASE_HESTON.kappa * np.float32(0.3)} <= sigma^2={10 ** 600}"),
    ({"mu2": np.float64(0.2), "mu1": 10 ** 200}, f"mu2 must be >= mu1^2, got mu2=0.2 < {10 ** 400}"),
    ({"mu2": np.float32(0.2), "mu1": 10 ** 200},
     f"mu2 must be >= mu1^2, got mu2={np.float32(0.2)} < {10 ** 400}"),
], ids=["feller", "feller-float32-kappa", "feller-int64-kappa", "feller-float32-theta", "mu2", "mu2-float32"])
def test_numpy_float_against_an_int_square_past_the_float_range(inputs, violation):
    """A rule across inputs compares a numpy scalar (np.float64, np.float32
    or np.int64) with an exact int square past the float range as a Python
    number would, not by an OverflowError."""
    ins, heston = (dataclasses.replace(p, **{k: v for k, v in inputs.items() if hasattr(p, k)})
                   for p in (BASE_INSURANCE, BASE_HESTON))
    with pytest.raises(ValidationError) as exc:
        validate_config(ins, heston, CASE_I, Horizon(T=1.0, M=10))
    assert exc.value.violations == [violation]


# the inputs each rule across inputs names; a range rule names the input its message starts with
_CROSS_FIELD = {
    "eta2 must be >= eta1": {"eta1", "eta2"},
    "mu2 must be >= mu1^2": {"mu1", "mu2"},
    "Feller condition": {"kappa", "theta", "sigma"},
    "the grid step T / M": {"T", "M"},
}


def _named_by(violation, inputs):
    """The inputs a violation message names."""
    for start, names in _CROSS_FIELD.items():
        if violation.startswith(start):
            return names
    if violation.startswith("probabilities must sum"):
        return {name for name in inputs if name.startswith("prob[")}
    return {name for name in inputs if violation.startswith(f"{name} ")}


_NOT_FINITE_OR_NUMBER = [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, "0.5", None]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([CASE_I, CASE_II]), st.data())
def test_several_bad_inputs_are_each_named_once(dist, data):
    """On a valid model with 1-5 inputs set to a non-finite value, an int past
    the float range, a non-number or an out-of-range value, each non-finite
    or non-number input is named by exactly one violation, its own, and no
    range or cross-field message names it."""
    inputs = [name for name in NUMERIC_INPUTS if "[" not in name]
    inputs += [f"{atom}[{i}]" for atom in ("gamma", "prob") for i in range(dist.n)]
    chosen = data.draw(st.lists(st.sampled_from(inputs), min_size=1, max_size=5, unique=True))
    values = {name: data.draw(st.sampled_from(_NOT_FINITE_OR_NUMBER + [-2.0, 0.0])) for name in chosen}
    parts = [dataclasses.replace(part, **{n: v for n, v in values.items() if hasattr(part, n)})
             for part in (BASE_INSURANCE, BASE_HESTON, Horizon(T=1.0, M=10))]
    atoms = {atom: [values.get(f"{atom}[{i}]", x) for i, x in enumerate(getattr(dist, f"{atom}s"))]
             for atom in ("gamma", "prob")}
    ins, heston, horizon = parts
    try:
        validate_config(ins, heston, AversionDistribution(tuple(atoms["gamma"]), tuple(atoms["prob"])), horizon)
        violations = []  # -2.0 and 0.0 pass some rules, and x0 has none
    except ValidationError as exc:
        violations = exc.violations
    for name, value in values.items():
        if isinstance(value, float) and math.isfinite(value):
            continue  # out of range: its own rule and rules across inputs may name it
        naming = [v for v in violations if name in _named_by(v, inputs)]
        if isinstance(value, (int, float)):
            own = "finite"
        else:
            own = "an integer >= 1" if name == "M" else "a number"
        assert len(naming) == 1 and naming[0].startswith(f"{name} must be {own}, got "), (name, naming)


def test_validate_config_idempotent():
    args = (BASE_INSURANCE, BASE_HESTON, CASE_I, Horizon(T=10.0, M=10000))
    assert validate_config(*args) == validate_config(*args)


def test_duplicate_gamma_atoms_kept_distinct():
    d = AversionDistribution.from_lists([2.0, 2.0], [0.5, 0.5])
    assert d.n == 2
    assert d.mean == pytest.approx(2.0)


def test_grid_final_point_pinned():
    hz = Horizon(T=10.0, M=3, x0=1.0)
    grid = hz.grid()
    assert grid[0] == 0.0
    assert grid[-1] == 10.0
    assert np.all(np.diff(grid) > 0)


def test_grid_points_are_multiples_of_step():
    hz = Horizon(T=10.0, M=10000)
    grid = hz.grid()
    m = 1234
    assert grid[m] == m * hz.l


def _fma_in_atom_order(values, weights):
    """Exact oracle: acc = round(v_i * w_i + acc) from acc = +0.0, in atom order.

    int / int division inside float(Fraction) rounds correctly to nearest
    even, and an exact zero comes out as +0.0, as it does from fma when the
    accumulator starts at +0.0.
    """
    acc = 0.0
    for v, w in zip(values, weights):
        acc = float(Fraction(v) * Fraction(w) + Fraction(acc))
    return acc


# Factors over the whole finite range: subnormals, signed zeros and
# magnitudes up to the largest float
_FACTOR = st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(st.lists(_FACTOR, min_size=n, max_size=n),
                        st.lists(_FACTOR, min_size=n, max_size=n))))
@example(([1e-200, 3.0], [1e-120, 1e-300]))  # subnormal products
@example(([1e305, -1e305, 1e-10], [1.5, 1.4, 3.0]))  # past 1e300
@settings(max_examples=400, deadline=None)
def test_weighted_sum_is_fma_in_atom_order(pair):
    values, weights = pair
    try:
        want = _fma_in_atom_order(values, weights)
    except OverflowError:  # a partial sum past the float range: fma's is inf
        assume(False)
    got = weighted_sum(values, weights)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_weighted_sum_zero_sums_are_positive_zero():
    assert math.copysign(1.0, weighted_sum([-0.0], [1.0])) == 1.0
    assert math.copysign(1.0, weighted_sum([-0.0, -0.0], [1.0, 1.0])) == 1.0
    assert math.copysign(1.0, weighted_sum([-0.5, 0.5], [0.5, 0.5])) == 1.0
    assert math.copysign(1.0, weighted_sum([], [])) == 1.0


def test_weighted_sum_outside_the_domain_does_not_raise():
    # fma returns nan for inf - inf and inf for a sum past the float range
    inf = float("inf")
    assert math.isnan(weighted_sum([-inf, inf], [0.5, 0.5]))
    assert weighted_sum([1e300, 1e300], [1e8, 1e8]) == inf


def test_weighted_sum_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        weighted_sum([1.0, 2.0], [1.0])


def test_mean_is_the_weighted_sum(rng):
    for dist in (CASE_I, CASE_II):
        assert dist.mean == weighted_sum(dist.gammas, dist.probs)
    for n in (1, 3, 6, 16):
        dist = AversionDistribution.from_lists(rng.uniform(0.1, 5.0, n), rng.dirichlet(np.ones(n)))
        assert dist.mean == weighted_sum(dist.gammas, dist.probs)


def test_grid_beyond_physical_memory_is_a_validation_error(monkeypatch):
    """Checked from the inputs alone: nothing of that size is allocated."""
    huge = Horizon(T=10.0, M=10 ** 15)
    with pytest.raises(ValidationError, match="more than the .* GiB of physical memory"):
        validate_config(BASE_INSURANCE, BASE_HESTON, CASE_I, huge)
    monkeypatch.setattr(model_module, "physical_memory", lambda: None)  # unknown: not checked
    assert validate_config(BASE_INSURANCE, BASE_HESTON, CASE_I, huge).horizon.M == 10 ** 15
    monkeypatch.setattr(model_module, "physical_memory", lambda: 8 * 15 * 1001)
    validate_config(BASE_INSURANCE, BASE_HESTON, CASE_I, Horizon(T=10.0, M=1000))  # (6n+3)(M+1) values fit
    with pytest.raises(ValidationError):
        validate_config(BASE_INSURANCE, BASE_HESTON, CASE_I, Horizon(T=10.0, M=1001))
