import json
import math
import os
import subprocess
import sys

import pytest

import eqreinvest
from eqreinvest.cli import (
    EXIT_ADMISSIBILITY,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)

BASE_CFG = """\
eta1 = 0.3
eta2 = 0.5
lambda1 = 1
mu1 = 0.1
mu2 = 0.2
r = 0.05
xi = 7/15
kappa = 5
theta = 0.0225
sigma = 0.25
rho = -0.5
v0 = 0.0225
gammas = 0.5, 4
probs = 0.5, 0.5
T = 10
M = 2000
seed = 42
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "base.cfg"
    p.write_text(BASE_CFG, encoding="utf-8")
    return str(p)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_solve_outputs(cfg_path, tmp_path):
    out = str(tmp_path / "solve")
    assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_OK
    for name in ("g_functions.csv", "strategy.csv", "regime.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    data = _read(os.path.join(out, "strategy.csv"))
    assert b"\r\n" not in data  # LF endings only
    header = data.split(b"\n", 1)[0]
    assert header == b"t,q_hat,pi_hat,regime"
    with open(os.path.join(out, "regime.json"), encoding="utf-8") as fh:
        regime = json.load(fh)
    assert regime["reinsurance_throughout"] is True


def test_manifest_round_trip_byte_identical(cfg_path, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["solve", "--config", cfg_path, "--out", out1]) == EXIT_OK
    manifest = os.path.join(out1, "manifest.json")
    assert main(["solve", "--from-manifest", manifest, "--out", out2]) == EXIT_OK
    for name in ("g_functions.csv", "strategy.csv", "regime.json"):
        assert _read(os.path.join(out1, name)) == _read(os.path.join(out2, name))


def test_manifest_without_config_is_exit_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"flags": {}}', encoding="utf-8")
    argv = ["solve", "--from-manifest", str(manifest), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'config'" in err and err.count("\n") == 1


def _run_manifest(tmp_path, text):
    manifest = tmp_path / "bad_manifest.json"
    manifest.write_text(text, encoding="utf-8")
    return main(["solve", "--from-manifest", str(manifest), "--out", str(tmp_path / "o")])


def test_manifest_not_json_is_exit_1(tmp_path, capsys):
    assert _run_manifest(tmp_path, "not json {") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not JSON" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"config": {"M": 1' + "0" * 5000 + "}}"],
                         ids=["deep nesting", "5000 digits"])
def test_manifest_json_beyond_the_parser_limits_is_exit_1(tmp_path, capsys, text):
    """Nesting past the recursion limit, or an int past the digit limit of
    int(str), is no manifest this program can read."""
    assert _run_manifest(tmp_path, text) == EXIT_CONFIG
    _assert_one_error_line(capsys, "is not JSON")


def test_manifest_config_not_a_table_is_exit_1(tmp_path, capsys):
    assert _run_manifest(tmp_path, '{"config": [1, 2]}') == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'config'" in err and err.count("\n") == 1


def test_manifest_non_numeric_value_is_exit_1(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "solve")
    assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"]["kappa"] = "abc"
    assert _run_manifest(tmp_path, json.dumps(manifest)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "kappa" in err and err.count("\n") == 1


def _simulate_manifest(cfg_path, tmp_path, flags):
    """A simulate manifest of a real run, with its flags replaced."""
    out = str(tmp_path / "sim")
    argv = ["simulate", "--config", cfg_path, "--out", out, "--paths", "10", "--strategy", "zero"]
    assert main(argv) == EXIT_OK
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["flags"] = flags
    path = tmp_path / "edited_manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return str(path)


def _assert_one_error_line(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_manifest_flag_of_wrong_type_is_exit_1(cfg_path, tmp_path, capsys):
    manifest = _simulate_manifest(cfg_path, tmp_path, {"paths": "abc", "strategy": "zero"})
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", manifest, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    _assert_one_error_line(capsys, "paths")


def test_manifest_flags_not_a_table_is_exit_1(cfg_path, tmp_path, capsys):
    manifest = _simulate_manifest(cfg_path, tmp_path, [1])
    capsys.readouterr()
    assert main(["simulate", "--from-manifest", manifest, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    _assert_one_error_line(capsys, "'flags'")


def test_simulate_zero_paths_is_exit_1(cfg_path, tmp_path, capsys):
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "s"),
            "--paths", "0", "--strategy", "zero"]
    assert main(argv) == EXIT_CONFIG
    _assert_one_error_line(capsys, "paths")


def test_threads_below_1_is_exit_1(cfg_path, tmp_path, capsys):
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "s"),
            "--paths", "10", "--strategy", "zero", "--threads", "0"]
    assert main(argv) == EXIT_CONFIG
    _assert_one_error_line(capsys, "threads")


def test_simulate_divergence_is_exit_2(cfg_path, tmp_path, capsys):
    """A finite strategy whose wealth leaves the float range is a blow-up
    (a non-finite one is refused as input)."""
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "s"),
            "--paths", "10", "--strategy", "const:1e308,0"]
    assert main(argv) == EXIT_BLOWUP
    _assert_one_error_line(capsys, "error: non-finite state at step 1018 on 1 path(s)")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line, edited, name", [
    ("gammas = 0.5, 4", "gammas = 0.5, inf", "gamma[1]"),
    ("T = 10", "T = inf", "T"),
])
def test_non_finite_config_value_is_exit_1(tmp_path, capsys, line, edited, name):
    p = tmp_path / "inf.cfg"
    p.write_text(BASE_CFG.replace(line, edited), encoding="utf-8")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    _assert_one_error_line(capsys, f"{name} must be finite, got inf")


def test_grid_beyond_physical_memory_is_exit_1(tmp_path, capsys):
    """M = 10**15 would need (6n+3)(M+1) float64 values, petabytes: refused by
    validation before anything is allocated."""
    p = tmp_path / "huge.cfg"
    p.write_text(BASE_CFG.replace("M = 2000", "M = 1000000000000000"), encoding="utf-8")
    for command in ("solve", "check"):
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        _assert_one_error_line(capsys, "M = 1000000000000000: the grid and the g arrays of 2 atom(s) need")
    assert not (tmp_path / "o").exists()


def test_paths_beyond_physical_memory_is_exit_1(cfg_path, tmp_path, capsys):
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "s"),
            "--paths", str(10 ** 15), "--strategy", "zero"]
    assert main(argv) == EXIT_CONFIG
    _assert_one_error_line(capsys, "flag paths = 1000000000000000: the terminal wealth and variance arrays need")
    assert not (tmp_path / "s").exists()


def test_sweep_manifest_round_trip_and_emit_timing(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["sweep", "--config", cfg_path, "--out", out1,
            "--param", "kappa", "--values", "5,9/2", "--observable", "pi_diff"]
    assert main(argv) == EXIT_OK
    manifest = os.path.join(out1, "manifest.json")
    assert main(["sweep", "--from-manifest", manifest, "--out", out2]) == EXIT_OK
    assert _read(os.path.join(out1, "sweep.csv")) == _read(os.path.join(out2, "sweep.csv"))
    for out in (out1, out2):
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            m = json.load(fh)
        assert m["flags"] == {"param": "kappa", "values": "5,9/2", "observable": "pi_diff"}
        assert set(m["timings"]) == {"sweep", "emit"}


def test_missing_config_is_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", out]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(BASE_CFG.replace("kappa = 5", "kappa five"), encoding="utf-8")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 8" in err


def test_invalid_model_is_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(BASE_CFG.replace("probs = 0.5, 0.5", "probs = 0.6, 0.5"), encoding="utf-8")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "sum to 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probs, message", [
    ("inf, -inf", "error: prob[0] must be finite, got inf; prob[1] must be finite, got -inf\n"),
    ("1e308, 1e308", "error: probabilities must sum to 1 within 1e-12, got inf\n"),
])
def test_probability_sum_past_the_float_range_is_exit_1(tmp_path, capsys, probs, message):
    """A sum of probabilities that is inf - inf, or that overflows, is a
    config error like any other, not a traceback or a blow-up."""
    p = tmp_path / "probs.cfg"
    p.write_text(BASE_CFG.replace("probs = 0.5, 0.5", f"probs = {probs}"), encoding="utf-8")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == message


def test_blow_up_is_exit_2(tmp_path, capsys):
    text = (
        BASE_CFG.replace("xi = 7/15", "xi = 100")
        .replace("theta = 0.0225", "theta = 1")
        .replace("sigma = 0.25", "sigma = 1")
        .replace("rho = -0.5", "rho = -0.9")
        .replace("v0 = 0.0225", "v0 = 1")
    )
    p = tmp_path / "blow.cfg"
    p.write_text(text, encoding="utf-8")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_BLOWUP
    assert "blow-up" in capsys.readouterr().err


def test_check_pass_is_exit_0(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "chk")
    assert main(["check", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "admissibility.csv"))
    assert "admissibility passed" in capsys.readouterr().out


def test_check_failure_is_exit_3(tmp_path, capsys):
    text = BASE_CFG.replace("kappa = 5", "kappa = 0.25").replace("sigma = 0.25", "sigma = 0.1")
    p = tmp_path / "inadm.cfg"
    p.write_text(text, encoding="utf-8")
    out = str(tmp_path / "chk")
    assert main(["check", "--config", str(p), "--out", out]) == EXIT_ADMISSIBILITY
    assert "admissibility FAILED" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "admissibility.csv"))


def test_simulate_outputs_and_reproducibility(cfg_path, tmp_path):
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    argv = ["simulate", "--config", cfg_path, "--out", out1,
            "--paths", "500", "--strategy", "zero", "--seed", "7"]
    assert main(argv) == EXIT_OK
    manifest = os.path.join(out1, "manifest.json")
    assert main(["simulate", "--from-manifest", manifest, "--out", out2]) == EXIT_OK
    assert _read(os.path.join(out1, "simulation.csv")) == _read(os.path.join(out2, "simulation.csv"))


def test_simulate_const_strategy(cfg_path, tmp_path):
    out = str(tmp_path / "s")
    argv = ["simulate", "--config", cfg_path, "--out", out,
            "--paths", "200", "--strategy", "const:0.2,0.5"]
    assert main(argv) == EXIT_OK
    data = _read(os.path.join(out, "simulation.csv")).decode()
    assert data.splitlines()[0] == "atom_index,gamma,utility_mean,utility_se,cert_equiv,reward_J"
    assert len(data.splitlines()) == 3  # header + one row per atom


def test_simulate_bad_strategy_is_exit_1(cfg_path, tmp_path, capsys):
    for strategy, message in (("const:1", "const"), ("const:1/0,0", "'1/0'"), ("const:inf,0", "'inf'"),
                              ("const:0,nan", "'nan'")):
        argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "s"),
                "--paths", "10", "--strategy", strategy]
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_sweep_q_hat(cfg_path, tmp_path):
    out = str(tmp_path / "sw")
    argv = ["sweep", "--config", cfg_path, "--out", out,
            "--param", "eta2", "--values", "0.4,0.5,0.6", "--observable", "q_hat"]
    assert main(argv) == EXIT_OK
    lines = _read(os.path.join(out, "sweep.csv")).decode().splitlines()
    assert lines[0] == "param,value,t,observable,result"
    assert len(lines) == 1 + 3 * 2001


def test_sweep_pi_diff_baseline_excluded(cfg_path, tmp_path):
    out = str(tmp_path / "sw")
    argv = ["sweep", "--config", cfg_path, "--out", out, "--threads", "3",
            "--param", "kappa", "--values", "5,4,6", "--observable", "pi_diff"]
    assert main(argv) == EXIT_OK
    lines = _read(os.path.join(out, "sweep.csv")).decode().splitlines()
    # first value is the baseline; only the other two produce difference rows
    assert len(lines) == 1 + 2 * 2001
    assert ",4," in lines[1] or lines[1].split(",")[1] == "4"


def test_sweep_unknown_param_is_exit_1(cfg_path, tmp_path, capsys):
    argv = ["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw"),
            "--param", "bogus", "--values", "1,2", "--observable", "q_hat"]
    assert main(argv) == EXIT_CONFIG


def test_sweep_bad_value_is_exit_1(cfg_path, tmp_path, capsys):
    # a value that is no number, and one that breaks the Feller condition
    for param, values, message in (("kappa", "4,1/0", "'1/0'"), ("sigma", "0.25,1", "Feller")):
        argv = ["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw"),
                "--param", param, "--values", values, "--observable", "pi_hat"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_reproduce_known_case(tmp_path):
    out = str(tmp_path / "rep")
    assert main(["reproduce", "--case", "fig7/T10/caseI", "--out", out]) == EXIT_OK
    name = os.path.join(out, "fig7_T10_caseI.csv")
    assert os.path.exists(name)
    lines = _read(name).decode().splitlines()
    assert lines[0] == "param,value,t,observable,result"
    assert all(line.startswith("r,") for line in lines[1:4])
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        assert set(json.load(fh)["timings"]) == {"reproduce", "emit"}


def test_reproduce_unknown_case_lists_ids(tmp_path, capsys):
    assert main(["reproduce", "--case", "fig99/T10/caseI", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "fig7/T10/caseI" in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv,words", [
    (["simulate", "--paths", "abc"], "--paths"),
    (["reproduce"], "--case"),
    (["solve", "--no-such-flag"], "--no-such-flag"),
    (["no-such-command"], "no-such-command"),
])
def test_argument_error_is_exit_1(cfg_path, tmp_path, capsys, argv, words):
    """argparse's errors are config errors: one error: line and exit 1, not
    a usage message and exit 2, the blow-up code."""
    assert main([*argv, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err and err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--config", "/nonexistent.cfg"), ("--from-manifest", "m.json")])
def test_reproduce_takes_no_model_flags(tmp_path, capsys, flag, value):
    """A figure fixes its model: reproduce refuses the flags that would
    name another one rather than ignore them."""
    argv = ["reproduce", "--case", "fig7/T10/caseI", flag, value, "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "fig7_T10_caseI.csv")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["reproduce", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_main_calls_in_one_process_match_separate_runs(cfg_path, tmp_path, capsys):
    """main reuses one parser per process: a failing argv, --version and
    then a good solve, called in turn in this process, give the exit codes,
    output streams and data files of three separate interpreters."""
    def argvs(out):
        return [["solve", "--config", cfg_path, "--paths", "10"], ["--version"],
                ["solve", "--config", cfg_path, "--out", str(tmp_path / out)]]

    src = os.path.dirname(os.path.dirname(eqreinvest.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    codes = []
    for here_argv, apart_argv in zip(argvs("here"), argvs("apart")):
        try:
            code = main(here_argv)
        except SystemExit as exc:
            code = exc.code
        here = capsys.readouterr()
        apart = subprocess.run([sys.executable, "-m", "eqreinvest.cli", *apart_argv], env=env,
                               capture_output=True, text=True)
        assert (code, here.out, here.err) == (apart.returncode, apart.stdout, apart.stderr)
        codes.append(code)
    assert codes == [EXIT_CONFIG, EXIT_OK, EXIT_OK]
    for name in ("g_functions.csv", "strategy.csv", "regime.json"):
        assert _read(tmp_path / "here" / name) == _read(tmp_path / "apart" / name)


def _manifest_with(cfg_path, tmp_path, key, value):
    """The text of a solve manifest of the base config, with one config value replaced."""
    out = str(tmp_path / "base_run")
    assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"][key] = value
    return json.dumps(manifest)


SIMULATE_FLAGS = ["--paths", "10", "--strategy", "zero"]


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("line, edited, message", [
    ("M = 2000", "M = 1e400", "line 16: M must be an integer, got inf"),
    ("M = 2000", "M = nan", "line 16: M must be an integer, got nan"),
    ("seed = 42", "seed = -5", "line 17: seed must be an integer in [0, 18446744073709551616), got -5"),
    ("seed = 42", f"seed = {2 ** 70}", "line 17: seed must be an integer in [0, 18446744073709551616)"),
])
def test_config_integer_key_out_of_rule_is_exit_1(tmp_path, capsys, command, line, edited, message):
    p = tmp_path / "edited.cfg"
    p.write_text(BASE_CFG.replace(line, edited), encoding="utf-8")
    argv = [command, "--config", str(p), "--out", str(tmp_path / "o")]
    assert main(argv + (SIMULATE_FLAGS if command == "simulate" else [])) == EXIT_CONFIG
    _assert_one_error_line(capsys, f"error: {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("key, value, message", [
    ("M", 100.5, "M must be an integer, got 100.5"),
    ("M", float("inf"), "M must be an integer, got inf"),  # json writes it as Infinity
    ("seed", -5, "seed must be an integer in [0, 18446744073709551616), got -5"),
    ("seed", 2 ** 70, f"seed must be an integer in [0, 18446744073709551616), got {2 ** 70}"),
])
def test_manifest_integer_value_out_of_rule_is_exit_1(cfg_path, tmp_path, capsys, command, key, value,
                                                      message):
    text = _manifest_with(cfg_path, tmp_path, key, value)
    capsys.readouterr()
    manifest = tmp_path / "edited_manifest.json"
    manifest.write_text(text, encoding="utf-8")
    argv = [command, "--from-manifest", str(manifest), "--out", str(tmp_path / "o")]
    assert main(argv + (SIMULATE_FLAGS if command == "simulate" else [])) == EXIT_CONFIG
    _assert_one_error_line(capsys, f"error: {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value, message", [
    ("inf", "T must be finite, got inf"),
    ("nan", "T must be finite, got nan"),
    ("-1", "T must be > 0, got -1.0"),
    ("1e308", "M must be finite, got inf"),  # T / step overflows
])
def test_horizon_flag_out_of_range_is_exit_1(cfg_path, tmp_path, capsys, value, message):
    argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "s"), *SIMULATE_FLAGS,
            "--horizon", value]
    assert main(argv) == EXIT_CONFIG
    _assert_one_error_line(capsys, message)


def _out_below_a_file(tmp_path):
    (tmp_path / "file").write_text("x", encoding="utf-8")
    return str(tmp_path / "file" / "out")


def _existing_file(tmp_path):
    (tmp_path / "file").write_text("x", encoding="utf-8")
    return str(tmp_path / "file")


@pytest.mark.parametrize("make_out, message", [
    (_existing_file, "File exists"),
    (_out_below_a_file, "Not a directory"),
])
def test_out_that_cannot_be_a_directory_is_exit_1(cfg_path, tmp_path, capsys, make_out, message):
    assert main(["solve", "--config", cfg_path, "--out", make_out(tmp_path)]) == EXIT_CONFIG
    _assert_one_error_line(capsys, message)


def test_config_that_is_a_directory_is_exit_1(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    _assert_one_error_line(capsys, "Is a directory")


def test_config_that_is_not_utf8_is_exit_1(tmp_path, capsys):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(BASE_CFG.encode() + b"# caf\xe9\n")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    _assert_one_error_line(capsys, "can't decode byte 0xe9")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["solve", "check", "simulate"])
def test_growth_beyond_float_range_is_exit_1(tmp_path, capsys, command):
    """r = 1000 at T = 1: e^{rT} overflows, so g1 = -gamma e^{r(T-t)}, and
    the g1^2 of g3's quadrature, cannot be represented; validation refuses
    the model."""
    p = tmp_path / "r1000.cfg"
    p.write_text(BASE_CFG.replace("r = 0.05", "r = 1000").replace("T = 10", "T = 1"), encoding="utf-8")
    argv = [command, "--config", str(p), "--out", str(tmp_path / "o")]
    assert main(argv + (SIMULATE_FLAGS if command == "simulate" else [])) == EXIT_CONFIG
    _assert_one_error_line(capsys, "(max gamma_i e^(rT))^2 must be finite (r = 1000.0, T = 1.0)")


@pytest.mark.filterwarnings("error")
def test_simulate_utility_overflow_gives_finite_cert_equiv(tmp_path, capsys):
    """const:1,1000 loses so much on some paths that e^{-gamma x} overflows
    for gamma = 4; the certainty equivalent comes from the shifted estimate."""
    p = tmp_path / "short.cfg"
    p.write_text(BASE_CFG.replace("T = 10", "T = 1").replace("M = 2000", "M = 100"), encoding="utf-8")
    out = tmp_path / "s"
    argv = ["simulate", "--config", str(p), "--out", str(out),
            "--paths", "10000", "--strategy", "const:1,1000"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in _read(out / "simulation.csv").decode().splitlines()[1:]]
    assert rows[1][2] == "-inf"  # the plain utility mean overflowed
    for row in rows:
        assert all(map(math.isfinite, (float(row[4]), float(row[5]))))  # cert_equiv, reward_J


def test_sweep_pi_diff_needs_two_values(cfg_path, tmp_path, capsys):
    argv = ["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw"),
            "--param", "kappa", "--values", "5", "--observable", "pi_diff"]
    assert main(argv) == EXIT_CONFIG
    _assert_one_error_line(capsys, "pi_diff needs a baseline and at least one more value, got 1")
    assert not (tmp_path / "sw").exists()


def test_zero_grid_step_is_exit_1(tmp_path, capsys):
    """T = 5e-324 over M = 100 steps: T / M underflows to 0.0, a grid with
    every point at t = 0 but the last. Validation refuses it before solve
    writes such a grid or simulate divides by the step."""
    p = tmp_path / "tiny.cfg"
    p.write_text(BASE_CFG.replace("T = 10", "T = 5e-324").replace("M = 2000", "M = 100"), encoding="utf-8")
    for argv in (["solve"], ["simulate", "--horizon", "1", *SIMULATE_FLAGS]):
        assert main([*argv, "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        _assert_one_error_line(capsys, "error: the grid step T / M must be > 0, got 0.0 (T = 5e-324, M = 100)")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("kappa_typo", 3), ("gamas", [1])])
def test_manifest_unknown_key_is_exit_1(cfg_path, tmp_path, capsys, key, value):
    """A manifest's config table follows the config file's key rule."""
    text = _manifest_with(cfg_path, tmp_path, key, value)
    capsys.readouterr()
    assert _run_manifest(tmp_path, text) == EXIT_CONFIG
    _assert_one_error_line(capsys, f"error: unknown key {key!r}")
    assert not (tmp_path / "o").exists()


def test_numeric_flags_read_numbers_as_config_files_do(cfg_path, tmp_path, capsys):
    """--paths 1e3 is 1000 paths, as paths = 1e3 in a manifest is; --horizon
    takes a rational literal; --seed keeps all 64 bits; --threads 1e0 is one
    thread."""
    outs = []
    for paths in ("1000", "1e3"):
        outs.append(tmp_path / paths)
        argv = ["simulate", "--config", cfg_path, "--out", str(outs[-1]), "--horizon", "7/2",
                "--strategy", "zero", "--paths", paths, "--seed", str(2 ** 64 - 1), "--threads", "1e0"]
        assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert _read(outs[0] / "simulation.csv") == _read(outs[1] / "simulation.csv")
    with open(outs[1] / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert (manifest["config"]["T"], manifest["config"]["M"]) == (3.5, 700)
    assert manifest["config"]["seed"] == 2 ** 64 - 1


def test_floating_point_error_names_its_stage(tmp_path, capsys):
    """eta2 = 4.5e154 squares past the float range in g3's quadrature."""
    p = tmp_path / "eta2.cfg"
    p.write_text(BASE_CFG.replace("eta2 = 0.5", "eta2 = 4.4971154940918574e+154"), encoding="utf-8")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "o")]) == EXIT_BLOWUP
    _assert_one_error_line(capsys, "error: overflow encountered in multiply (in odes.solve_g3)")
