"""The CLI's exit contract, as a property (Hypothesis: MacIver et al., JOSS
4(43), 2019): whatever the config text, manifest values, subcommand, flags
and --out, a run exits 0, 1, 2 or 3, and its stderr is empty or one line,
with no traceback and no warning. A traceback or a warning would escape
main here as an exception, since warnings are errors in this suite.

M stays <= 300 and --paths <= 100, and --horizon rescales M only where T
is the base config's, so that an example costs milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eqreinvest.cli import main

BASE = {
    "eta1": "0.3", "eta2": "0.5", "lambda1": "1", "mu1": "0.1", "mu2": "0.2",
    "r": "0.05", "xi": "7/15", "kappa": "5", "theta": "0.0225", "sigma": "0.25",
    "rho": "-0.5", "v0": "0.0225", "gammas": "0.5, 4", "probs": "0.5, 0.5",
    "T": "1", "M": "50", "seed": "42",
}
BASE_JSON = {
    "eta1": 0.3, "eta2": 0.5, "lambda1": 1.0, "mu1": 0.1, "mu2": 0.2,
    "r": 0.05, "xi": 7 / 15, "kappa": 5.0, "theta": 0.0225, "sigma": 0.25,
    "rho": -0.5, "v0": 0.0225, "gammas": [0.5, 4.0], "probs": [0.5, 0.5],
    "T": 1.0, "M": 50, "x0": 1.0, "seed": 42,
}

tokens = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "1e-400", "7/15", "1/0", "0", "-5", "",
                     "abc", "1e308", str(2 ** 70), "1000", "0.5, 4,", "1, 2, 3", "inf, -inf",
                     "1e308, 1e308"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(max_denominator=50).map(str),
    st.integers(-10, 300).map(str),
)
m_tokens = st.one_of(st.integers(-3, 300).map(str),
                     st.sampled_from(["1e400", "nan", "inf", "100.5", "1e2", "3/1", "", "abc", "2, 3"]))
json_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([10 ** 400, True, None, "5", "0.5, 4", [], [0.5, "x"], {}]),
    st.lists(st.floats(-10, 10), min_size=1, max_size=3),
)
m_json = st.one_of(st.integers(-3, 300),
                   st.sampled_from([100.5, 1e2, float("inf"), float("nan"), 10 ** 400, "50", True, None]))
flag_tokens = {
    "paths": st.integers(-1, 100).map(str),
    "seed": st.sampled_from(["0", "7", "-5", str(2 ** 64), str(2 ** 70)]),
    "horizon": st.sampled_from(["inf", "nan", "-1", "0", "1e-300", "1e308"]),
    "strategy": st.sampled_from(["zero", "equilibrium", "const:0.2,0.5", "const:1,1000", "const:0,inf",
                                 "const:1", "bogus"]),
    "param": st.sampled_from(["kappa", "r", "sigma", "eta2", "bogus"]),
    "values": st.lists(tokens, min_size=1, max_size=3).map(",".join),
    "observable": st.sampled_from(["q_hat", "pi_hat", "pi_diff", "bogus"]),
}
COMMAND_FLAGS = {"solve": [], "check": [], "simulate": ["paths", "seed", "horizon", "strategy"],
                 "sweep": ["param", "values", "observable"]}


@st.composite
def runs(draw):
    """(files to write, argv without --out, --out kind)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flag_values = dict(flag_tokens)
    if draw(st.booleans()):
        config = dict(BASE)
        for key in draw(st.lists(st.sampled_from(sorted(BASE) + ["bogus", "x0"]), max_size=3)):
            config[key] = draw(m_tokens if key == "M" else tokens)
        if config["T"] == BASE["T"]:  # a horizon of at most 2 T: M <= 600
            flag_values["horizon"] = st.sampled_from(["0.5", "2"]) | flag_tokens["horizon"]
        text = "".join(f"{k} = {v}\n" for k, v in config.items()).encode()
        if draw(st.booleans()):
            text += draw(st.sampled_from([b"# caf\xe9\n", b"\xff\xfe", b"kappa 5\n", b"r = 0.06\n"]))
        files, argv = {"run.cfg": text}, [command, "--config", "run.cfg"]
    else:
        config = dict(BASE_JSON)
        for key in draw(st.lists(st.sampled_from(sorted(BASE_JSON) + ["bogus"]), max_size=3)):
            config[key] = draw(m_json if key == "M" else json_values)
        if config["T"] == BASE_JSON["T"]:
            flag_values["horizon"] = st.sampled_from(["0.5", "2"]) | flag_tokens["horizon"]
        flags = {name: draw(flag_values[name]) for name in COMMAND_FLAGS[command] if draw(st.booleans())}
        files = {"m.json": json.dumps({"config": config, "flags": flags}).encode()}
        argv = [command, "--from-manifest", "m.json"]
    for name in COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv += [f"--{name}", draw(flag_values[name])]
    if command == "simulate" and "--paths" not in argv:
        argv += ["--paths", "50"]  # not the default 10000
    return files, argv, draw(st.sampled_from(["new", "existing dir", "existing file", "below a file"]))


def _solve_run(**edits):
    """A run of solve on the base config with edits, as runs draws it."""
    text = "".join(f"{k} = {v}\n" for k, v in {**BASE, **edits}.items()).encode()
    return {"run.cfg": text}, ["solve", "--config", "run.cfg"], "new"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
@example(_solve_run(probs="inf, -inf"))  # fsum raises on inf - inf
@example(_solve_run(probs="1e308, 1e308"))  # and on a sum past the float range
def test_every_run_exits_0_to_3_with_at_most_one_stderr_line(run):
    files, argv, out_kind = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        out = os.path.join(tmp, "out")
        if out_kind == "existing dir":
            os.mkdir(out)
        elif out_kind != "new":
            with open(os.path.join(tmp, "file"), "w", encoding="utf-8") as fh:
                fh.write("x")
            out = os.path.join(tmp, "file", *(["out"] if out_kind == "below a file" else []))
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", out, "--threads", "1"])
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1 and (err == "" or err.endswith("\n"))
    assert "Traceback" not in err and "Warning" not in err
