import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    assert len(exc.value.violations) >= 3


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


# The domain where Dekker's two-product is exact: no magnitude near the
# overflow of the 2^27 + 1 split and no product whose error term would be
# subnormal. Signed zeros are in it.
_FACTOR = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=-1e100, max_value=-1e-100),
)


@given(st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(st.lists(_FACTOR, min_size=n, max_size=n),
                        st.lists(_FACTOR, min_size=n, max_size=n))))
@settings(max_examples=400, deadline=None)
def test_weighted_sum_is_fma_in_atom_order(pair):
    values, weights = pair
    got = weighted_sum(values, weights)
    want = _fma_in_atom_order(values, weights)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_weighted_sum_zero_sums_are_positive_zero():
    assert math.copysign(1.0, weighted_sum([-0.0], [1.0])) == 1.0
    assert math.copysign(1.0, weighted_sum([-0.0, -0.0], [1.0, 1.0])) == 1.0
    assert math.copysign(1.0, weighted_sum([-0.5, 0.5], [0.5, 0.5])) == 1.0


def test_weighted_sum_outside_the_domain_does_not_raise():
    # fsum raises on inf - inf and on a finite sum past the float range
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
