"""Golden digests: the bytes of the CLI's data files.

The sha256 of the solve, check and fig51 files was recorded from the
program before the g2 reduction became a plain-Python fma and CSV rows
became one %-format each; those of the sweep, simulate and fig7 files
before the writers formatted column by column and sweep cells solved g2
alone; those of solve at T = 100 before floats were printed by
csvio.fmt17 and lines were built a block at a time; those of ATOM_RUNS
before the writers became column specs of one table writer; the
one-atom g_functions.csv and the four- and six-atom solve files before
unread result fields and a no-op pin of g2 at t = T were deleted; the
zero-strategy and two-chunk simulate digests and the spot check's rows
before the simulator read every strategy as a (q, pi) pair; the
equilibrium batch before equilibrium_strategy returned that pair. Those
changes kept every byte. A later change that moves an output bit fails here. The
digests hold for IEEE float64 on x86-64 with glibc's libm, where two
kernels picked from the CPU at run time round as they did when the digests
were recorded: OpenBLAS's SkylakeX gemv (strategy.pi_bar_path and
pi_hat_path reduce over the atoms with probs @ g2) and numpy's AVX-512
(X86_V4) float64 exp (q_hat, g1, the discount factor, the utilities). A
CPU without AVX-512 changes both, and a digest failure names the platform
it ran on.
"""

import ctypes
import dataclasses
import glob
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import eqreinvest
from eqreinvest import equilibrium_spot_check, equilibrium_strategy, simulate_paths, solve_g, solve_g2_coupled
from eqreinvest.cli import EXIT_ADMISSIBILITY, EXIT_OK, main
from eqreinvest.presets import baseline_model

CONFIG = """\
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
probs = {probs}
T = {T}
M = {M}
seed = 42
"""

PROBS = {"caseI": "0.5, 0.5", "caseII": "0.8, 0.2"}

DIGESTS = {
    ("solve", "caseI", "g_functions.csv"):
        "71e8f5e899f1df97392404f4c9915eca932bd26ff7592ecafdf8da672d13fb61",
    ("solve", "caseI", "strategy.csv"):
        "d84af8b367c05a700e8478530faf8d3783c61a29fbe358a27ee70347ab1cacb0",
    ("solve", "caseII", "g_functions.csv"):
        "5b4060e85baa895701a4bf1e1203b6b5d142ef05cd68a62a90a86462d6677313",
    ("solve", "caseII", "strategy.csv"):
        "b2d9ae5096821d2614c39950564da1740ea9f36727be33b476517ee269535b88",
    ("check", "caseII", "admissibility.csv"):
        "00681bce676f23f01e6b6b2135941f1c6b54cb5c63bd06bd2939fa7268d3fb92",
}

# solve at T = 100, M = 2000: t and g1 reach three-digit integer parts
# (g1 of the gamma = 4 atom is about -4 e^5 = -594 at t = 0)
T100_DIGESTS = {
    ("caseI", "g_functions.csv"): "230a92cf93932fde66f7831566af9009518f435750b014b534bd31e9de2f9e6b",
    ("caseI", "strategy.csv"): "ed8c8b3c8783161e67c65c3b565b4bbc442f0a06e1e6bcc9927fcfddc46f666b",
    ("caseII", "g_functions.csv"): "d2a04a78fe74ba5d5a2d2939c901d9218b7b66be8378c94057a6b5551dc28abb",
    ("caseII", "strategy.csv"): "8be3116d90394557e5263aeeb3385916c88e7c85ee2f834efac8bd7c78bd30da",
}

REPRODUCE_DIGEST = "9ead5694262f4fc2ad6e9e1ef2c3b15c8d501994b6c2f4aaf030d02b22632992"
FIG7_DIGEST = "2f502aa37ffb7211157276a832d6b2b467f3f57d9cf9187ef50687af026d32c1"

# (argv after --config/--out, case, output file) -> sha256, on the config
# above at T = 1, M = 1000
SHORT_RUNS = {
    ("sweep --param kappa --values 4,9/2,5,16/3,6 --observable pi_hat", "caseI", "sweep.csv"):
        "1459b429fc994ebf6d9a3ab72063c56df53a937d40906b4b6844f447184c7d2e",
    ("sweep --param sigma --values 1/4,0.15,7/20 --observable pi_diff", "caseII", "sweep.csv"):
        "79e2863ba54304f2e4b9bcd52e587d54b046e6b16973ff9a0dd68599abc60b4d",
    ("sweep --param r --values 0.03,1/20,0.07 --observable q_hat", "caseI", "sweep.csv"):
        "e0b3382dd2af2bf7a5b0da2aee5ffd14e4b717372ca302f7451ca04055eda157",
    ("simulate --paths 3000 --strategy equilibrium --threads 1", "caseI", "simulation.csv"):
        "39143e51eeecdeeb02b3e93d57875e1a8b130c6dda2fe0f997280e1bf9f4153c",
    ("simulate --paths 3000 --strategy const:1/2,7/15 --threads 1", "caseI", "simulation.csv"):
        "3e14a5baff2b87421c61243050deaac6f4befc281df2dbd6107a87c28803678d",
    # the digest of const:0,0 too
    ("simulate --paths 3000 --strategy zero --threads 1", "caseII", "simulation.csv"):
        "965236d6ad0a04862bff2f879864460c23956ddc46b8629ff48d5e52a90ca2ae",
    # 20000 paths are two chunks, on one worker thread and on two
    ("simulate --paths 20000 --horizon 0.1 --strategy equilibrium --threads 1", "caseII", "simulation.csv"):
        "6350bb3e5bf82b6674e4633e319f1bac55f464f532afbd0b4e7ed1dabbf81419",
    ("simulate --paths 20000 --horizon 0.1 --strategy equilibrium --threads 2", "caseII", "simulation.csv"):
        "6350bb3e5bf82b6674e4633e319f1bac55f464f532afbd0b4e7ed1dabbf81419",
}

PI_DIFF_RUN = ("sweep --param sigma --values 1/4,0.15,7/20 --observable pi_diff", "caseII", "sweep.csv")
PI_HAT_RUN = ("sweep --param kappa --values 4,9/2,5,16/3,6 --observable pi_hat", "caseI", "sweep.csv")
# the dispatch targets numpy leaves out on an x86-64 CPU without AVX-512
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

# equilibrium_spot_check on caseI at T = 1, M = 100 with h = 0.1, 20000
# paths (two chunks) and seed 404, one row a perturbation: (q, pi, h,
# reward_equilibrium, reward_perturbed, diff_rate, diff_rate_se, violation)
SPOT_CHECK_ROWS = [
    (0.5, 0.5, 0.1, 1.0339957908739001, 1.029932638710203, 0.04063152163697126, 0.004349438349233954, False),
    (0.0, 1.0, 0.1, 1.0339957908739001, 1.031461317155384, 0.02534473718516228, 0.003127843986242719, False),
    (1.0, 0.0, 0.1, 1.0339957908739001, 1.0148241283994803, 0.19171662474419815, 0.009763260894336583, False),
]

# simulate_paths on caseII at T = 1, M = 100 under the equilibrium strategy,
# 16389 paths (two chunks) and seed 17: the sha256 of x_terminal and then
# v_terminal, and min_v
EQUILIBRIUM_BATCH = ("d5dd6e4080a63fd87a006e4b9d00294cb5ec18f78301353c113d7ba4981772a2", 0.0)

# (argv after --config/--out, gammas, probs, T, M) -> {output file: sha256}:
# one atom at gamma = 0.2 (retention ratio 1.25, q_hat crosses 1 about 4.46
# years before maturity, so strategy.csv holds NewBusiness rows), at
# gamma = 0.25 (ratio exactly 1: one Boundary row, at t = T), and three
# atoms, whose M + 1 = 2001 grid points fill blocks of 682 points (2048 rows)
# with a short last one; four and six atoms, whose pi_hat reduction over the
# atoms follows the BLAS's gemv, as caseII's does
ATOMS3 = ("0.5, 2, 4", "0.3, 0.3, 0.4")
ATOMS4 = ("0.5, 1, 2, 4", "0.25, 0.25, 0.25, 0.25")
ATOMS6 = ("0.5, 1, 1.5, 2, 3, 4", "0.1, 0.2, 0.2, 0.2, 0.2, 0.1")
ATOM_RUNS = {
    ("solve", "0.2", "1", 10, 2000): {
        "g_functions.csv": "bf13b72caeef9546c9a4105ea9fd757eafb1b08234fa9d56a1ab27653457e925",
        "strategy.csv": "4d6b93c821b1798f0c82680b3449ce63b0e7792d1ca0dcbb97a7c817e9cbb702",
        "regime.json": "90c8d032911adf14c00f7ecb2afaa9e9421e40d8ba957e8e456fde8faef0f873",
    },
    ("solve", "0.25", "1", 10, 2000): {
        "g_functions.csv": "749df121796542536d391a05f6f6ca955b8e97743643cbab4a57659491c0a84f",
        "strategy.csv": "2cdd70eda3280eaf55575edff4332e9dec275920014f507fa6e1c83ec043bde6",
        "regime.json": "7d1bab230098791aa0617d754b983f7332215d94059ebc319f3c641e232a1193",
    },
    ("solve", *ATOMS3, 10, 2000): {
        "g_functions.csv": "6d686b17c962e3fc5a185830d7264a58aea0a13a248a50b36130455c8c6cbda1",
        "strategy.csv": "c7aebcc9c8b1b1f6dc6cb12742fdd6f27185a569b4f5ba04c3d07866c3ef8129",
        "regime.json": "8334bb78bf330b0f583e9a1cd792182ae576177b9f881160038e67dc571daa24",
    },
    ("solve", *ATOMS4, 10, 2000): {
        "g_functions.csv": "0034adbe7562d3a44747206cf2fe0da1f3b5e1fc61aec3aea70b64b1641a5d90",
        "strategy.csv": "1ebf560db8eec7ecbb909c2c09f93d5975ce28051fd5272302acac681ecf2d73",
    },
    ("solve", *ATOMS6, 10, 2000): {
        "g_functions.csv": "a65b5f02eb07e7955d219f1425e1bf8273850eae442cce0f9d0bc043ab780f3d",
        "strategy.csv": "09e635dc8500fa018915a56d0763640a85aec9a1c34261793c5aa480fc3352a5",
    },
    ("check", *ATOMS3, 10, 2000): {
        "admissibility.csv": "361a593b9a4ccc055d12521ded4b7e94b454fa7684a645bb5deab8c2199d4d45",
    },
    ("simulate --paths 3000 --threads 1", *ATOMS3, 1, 1000): {
        "simulation.csv": "ec4116e3644a3e42b57b6cfcc7942eae39e038c9be3427bc82701f45f03534e7",
    },
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _openblas_core():
    """The kernel set numpy's OpenBLAS picked for this CPU, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)  # the handle numpy already loaded
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def _platform():
    """The two CPU dependences of the digests as they stand here: numpy's
    enabled dispatch targets (X86_V4 and AVX512_* are its AVX-512 kernels)
    and OpenBLAS's core."""
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    dispatch = " ".join(targets) or "baseline only"
    return f"platform: numpy dispatch {dispatch}; OpenBLAS core {_openblas_core()}"


def _assert_digest(path, digest):
    assert _sha256(path) == digest, f"{os.path.basename(path)} ({_platform()})"


def _run_in_fresh_interpreter(tmp_path, run, **env):
    """Run a SHORT_RUNS case through the CLI in a new interpreter with env
    added to the environment; OpenBLAS and numpy read their CPU settings
    once, at load. Returns the output file's sha256."""
    argv, case, name = run
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(CONFIG.format(probs=PROBS[case], T=1, M=1000), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(eqreinvest.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command, *flags = argv.split()
    subprocess.run([sys.executable, "-m", "eqreinvest.cli", command, "--config", str(cfg),
                    "--out", str(tmp_path), *flags], env=env, check=True)
    return _sha256(tmp_path / name)


@pytest.mark.parametrize("command,case", [("solve", "caseI"), ("solve", "caseII"), ("check", "caseII")])
def test_cli_outputs_match_golden_digests(tmp_path, command, case):
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(CONFIG.format(probs=PROBS[case], T=10, M=2000), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == (EXIT_ADMISSIBILITY if command == "check" else EXIT_OK)
    for (cmd, cs, name), digest in DIGESTS.items():
        if (cmd, cs) == (command, case):
            _assert_digest(os.path.join(out, name), digest)


def test_solve_without_a_c_compiler_matches_golden_digests(tmp_path):
    """With no cc on PATH and an empty cache the C g2 loop cannot be built,
    and the Python loop writes the same caseII files."""
    cfg, out, cache, empty_path = (tmp_path / name for name in ("caseII.cfg", "out", "cache", "bin"))
    cfg.write_text(CONFIG.format(probs=PROBS["caseII"], T=10, M=2000), encoding="utf-8")
    empty_path.mkdir()
    src = os.path.dirname(os.path.dirname(eqreinvest.__file__))
    env = {**os.environ, "PATH": str(empty_path), "XDG_CACHE_HOME": str(cache),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "eqreinvest.cli", "solve", "--config", str(cfg), "--out", str(out)],
                   env=env, check=True)
    assert not any(name.endswith(".so") for _, _, names in os.walk(cache) for name in names)
    for (command, case, name), digest in DIGESTS.items():
        if (command, case) == ("solve", "caseII"):
            _assert_digest(out / name, digest)


@pytest.mark.parametrize("case", ["caseI", "caseII"])
def test_solve_t100_matches_golden_digests(tmp_path, case):
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(CONFIG.format(probs=PROBS[case], T=100, M=2000), encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    for name in ("g_functions.csv", "strategy.csv"):
        _assert_digest(tmp_path / name, T100_DIGESTS[(case, name)])


def test_reproduce_fig51_matches_golden_digest(tmp_path):
    assert main(["reproduce", "--case", "fig51/T10/caseII", "--out", str(tmp_path)]) == EXIT_OK
    _assert_digest(tmp_path / "fig51_T10_caseII.csv", REPRODUCE_DIGEST)


@pytest.mark.parametrize("argv,case,name", list(SHORT_RUNS))
def test_sweep_and_simulate_match_golden_digests(tmp_path, argv, case, name):
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(CONFIG.format(probs=PROBS[case], T=1, M=1000), encoding="utf-8")
    command, *flags = argv.split()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path), *flags]) == EXIT_OK
    _assert_digest(tmp_path / name, SHORT_RUNS[(argv, case, name)])


def test_reproduce_fig7_matches_golden_digest(tmp_path):
    assert main(["reproduce", "--case", "fig7/T10/caseI", "--out", str(tmp_path)]) == EXIT_OK
    _assert_digest(tmp_path / "fig7_T10_caseI.csv", FIG7_DIGEST)


@pytest.mark.parametrize("argv,gammas,probs,T,M", list(ATOM_RUNS))
def test_atom_counts_and_regimes_match_golden_digests(tmp_path, argv, gammas, probs, T, M):
    cfg = tmp_path / "atoms.cfg"
    text = CONFIG.replace("gammas = 0.5, 4", f"gammas = {gammas}")
    cfg.write_text(text.format(probs=probs, T=T, M=M), encoding="utf-8")
    command, *flags = argv.split()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path), *flags]) == EXIT_OK
    for name, digest in ATOM_RUNS[(argv, gammas, probs, T, M)].items():
        _assert_digest(tmp_path / name, digest)


def test_spot_check_rows_match_golden_values():
    m = baseline_model("caseI", T=1.0, M=100)
    perturbations = [row[:2] for row in SPOT_CHECK_ROWS]
    rows = equilibrium_spot_check(m, solve_g(m), perturbations, h=0.1, n_paths=20000, seed=404)
    assert [dataclasses.astuple(row) for row in rows] == SPOT_CHECK_ROWS, _platform()


def test_equilibrium_pair_batch_matches_golden_digest():
    m = baseline_model("caseII", T=1.0, M=100)
    b = simulate_paths(m, equilibrium_strategy(m, solve_g2_coupled(m)), 16389, seed=17, workers=1)
    digest = hashlib.sha256(b.x_terminal.tobytes() + b.v_terminal.tobytes()).hexdigest()
    assert (digest, b.min_v) == EQUILIBRIUM_BATCH, _platform()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the CSV bytes depend on the CPU: OpenBLAS's Prescott kernel rounds probs @ g2 unlike the "
    "SkylakeX kernel the digests were recorded with, and this caseII pi_diff sweep writes "
    "32bab848... under it; it passes once that reduction no longer goes through the BLAS"))
def test_pi_diff_sweep_digest_holds_on_the_prescott_blas_kernel(tmp_path):
    """Prescott's kernel runs on any x86-64 CPU."""
    digest = _run_in_fresh_interpreter(tmp_path, PI_DIFF_RUN, OPENBLAS_CORETYPE="Prescott")
    assert digest == SHORT_RUNS[PI_DIFF_RUN]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the CSV bytes depend on the CPU: numpy's float64 exp below its AVX-512 (X86_V4) kernel "
    "rounds unlike the one the digests were recorded with, and this caseI pi_hat sweep writes "
    "2e3a6c12... without it; it passes once no output exp depends on numpy's dispatch"))
def test_pi_hat_sweep_digest_holds_without_numpy_avx512(tmp_path):
    """numpy dispatches as on a CPU without AVX-512, as it does on any such x86-64 CPU."""
    digest = _run_in_fresh_interpreter(tmp_path, PI_HAT_RUN, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    assert digest == SHORT_RUNS[PI_HAT_RUN]
