"""Golden digests: the bytes of the figure pipeline's data files.

The sha256 of each file was recorded from the program before the g2
reduction became a plain-Python fma and CSV rows became one %-format each;
those changes kept every byte. A later change that moves an output bit
fails here. The digests hold for IEEE float64 with a BLAS whose gemv rounds
as OpenBLAS does on x86-64 (strategy.pi_bar_path reduces over the atoms
with probs @ g2).
"""

import hashlib
import os

import pytest

from eqreinvest.cli import EXIT_ADMISSIBILITY, EXIT_OK, main

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
T = 10
M = 2000
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

REPRODUCE_DIGEST = "9ead5694262f4fc2ad6e9e1ef2c3b15c8d501994b6c2f4aaf030d02b22632992"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("command,case", [("solve", "caseI"), ("solve", "caseII"), ("check", "caseII")])
def test_cli_outputs_match_golden_digests(tmp_path, command, case):
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(CONFIG.format(probs=PROBS[case]), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == (EXIT_ADMISSIBILITY if command == "check" else EXIT_OK)
    for (cmd, cs, name), digest in DIGESTS.items():
        if (cmd, cs) == (command, case):
            assert _sha256(os.path.join(out, name)) == digest, name


def test_reproduce_fig51_matches_golden_digest(tmp_path):
    assert main(["reproduce", "--case", "fig51/T10/caseII", "--out", str(tmp_path)]) == EXIT_OK
    assert _sha256(tmp_path / "fig51_T10_caseII.csv") == REPRODUCE_DIGEST
