import pytest

from eqreinvest import ConfigError, load_config
from eqreinvest.config import build_model, model_to_config_dict, parse_config_text
from eqreinvest.model import ValidationError

BASE_TEXT = """\
# insurance market
eta1 = 0.3
eta2 = 0.5
lambda1 = 1
mu1 = 0.1
mu2 = 0.2

# financial market
r = 0.05
xi = 7/15
kappa = 5
theta = 0.0225
sigma = 0.25
rho = -0.5
v0 = 0.0225

# risk aversion and horizon
gammas = 0.5, 4
probs = 0.5, 0.5
T = 10
M = 10000
"""


def test_parse_rational_literal_exact():
    values = parse_config_text("xi = 7/15\n")
    assert values["xi"] == 7.0 / 15.0


def test_parse_full_config():
    values = parse_config_text(BASE_TEXT)
    assert values["gammas"] == [0.5, 4.0]
    assert values["probs"] == [0.5, 0.5]
    assert values["M"] == 10000
    assert isinstance(values["M"], int)


def test_inline_comment_stripped():
    values = parse_config_text("kappa = 5  # mean reversion\n")
    assert values["kappa"] == 5.0


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("eta1 = 0.3\nbogus = 1\n")
    assert exc.value.line_no == 2
    assert "bogus" in str(exc.value)


def test_missing_equals_reports_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("# header\n\neta1 0.3\n")
    assert exc.value.line_no == 3


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("r = 0.05\nr = 0.06\n")


def test_bad_number_reports_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("mu1 = zero\n")
    assert exc.value.line_no == 1


def test_non_integer_step_count_rejected():
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("M = 10.5\n")


def test_build_model_defaults():
    model, seed = build_model(parse_config_text(BASE_TEXT))
    assert model.horizon.x0 == 1.0
    assert seed == 12345
    assert model.dist.mean == pytest.approx(2.25)


def test_build_model_missing_keys_listed():
    with pytest.raises(ConfigError, match="missing keys"):
        build_model(parse_config_text("eta1 = 0.3\n"))


def test_build_model_propagates_validation():
    text = BASE_TEXT.replace("probs = 0.5, 0.5", "probs = 0.6, 0.5")
    with pytest.raises(ValidationError, match="sum to 1"):
        build_model(parse_config_text(text))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_TEXT, encoding="utf-8")
    model, seed = load_config(path)

    snap = model_to_config_dict(model, seed)
    lines = []
    for key, val in snap.items():
        if isinstance(val, list):
            lines.append(f"{key} = {', '.join(repr(x) for x in val)}")
        else:
            lines.append(f"{key} = {val!r}")
    model2, seed2 = build_model(parse_config_text("\n".join(lines)))
    assert model2 == model
    assert seed2 == seed


@pytest.mark.parametrize("line, message", [
    ("M = 1e400", "M must be an integer, got inf"),
    ("M = nan", "M must be an integer, got nan"),
    ("M = 100.5", "M must be an integer, got 100.5"),
    ("seed = -5", "seed must be an integer in [0, 18446744073709551616), got -5"),
    ("seed = 1180591620717411303424",  # 2^70
     "seed must be an integer in [0, 18446744073709551616), got 1180591620717411303424"),
    ("kappa = 5, 6", "kappa must be a number, got [5, 6]"),
    ("gammas = 0.5, 4,", "invalid numeric value ''"),
    ("gammas =", "invalid numeric value ''"),
])
def test_value_rule_refusal_reports_line_number(line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"r = 0.05\n{line}\n")
    assert exc.value.line_no == 2 and str(exc.value) == f"line 2: {message}"


def test_integral_float_counts_as_integer_and_digits_stay_exact():
    values = parse_config_text(f"M = 1e4\nseed = {2 ** 64 - 1}\n")
    assert values["M"] == 10000 and isinstance(values["M"], int)
    assert values["seed"] == 2 ** 64 - 1  # a float would round it to 2^64


def test_single_value_is_a_list_of_one():
    one = parse_config_text("gammas = 4\nprobs = 1\n")
    assert one == {"gammas": [4.0], "probs": [1.0]}


def _snapshot():
    return model_to_config_dict(*build_model(parse_config_text(BASE_TEXT)))


@pytest.mark.parametrize("key, value, message", [
    ("M", 100.5, "M must be an integer, got 100.5"),
    ("M", float("inf"), "M must be an integer, got inf"),
    pytest.param("M", 10 ** 400, "M must be an integer, got 1000", id="M-10^400"),  # no float holds it
    ("seed", -5, "seed must be an integer in [0, 18446744073709551616), got -5"),
    pytest.param("seed", 2 ** 70, "seed must be an integer in [0, 18446744073709551616)", id="seed-2^70"),
    ("kappa", "5", "kappa must be a number, got '5'"),
    ("kappa", True, "kappa must be a number, got True"),
    ("gammas", "0.5, 4", "gammas must be a number or a non-empty list of numbers, got '0.5, 4'"),
    ("probs", [], "probs must be a number or a non-empty list of numbers, got []"),
    ("probs", [0.5, None], "probs must be a number or a non-empty list of numbers"),
])
def test_manifest_values_follow_the_config_rules(key, value, message):
    snap = _snapshot()
    snap[key] = value
    with pytest.raises(ConfigError) as exc:
        build_model(snap)
    assert message in str(exc.value)


def test_manifest_numbers_of_either_json_type_are_the_same_model():
    model, seed = build_model(parse_config_text(BASE_TEXT))
    snap = _snapshot()
    snap.update({"kappa": 5, "M": 1e4, "seed": 12345.0, "T": 10})
    model2, seed2 = build_model(snap)
    assert model2 == model and seed2 == seed
    assert isinstance(model2.heston.kappa, float) and isinstance(model2.horizon.M, int)
