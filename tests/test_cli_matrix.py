"""Every configuration the command line accepts gives a verdict: `typical`
and `dual` over dim 1-3 x lp norms x bodies, `dual` under a steep power
gauge, and `porosity` per norm and per target set x gauge, all exit 0,
each within RUN_BUDGET_S."""
import time

import pytest

from nelab import cli

NORMS = ("1", "2", "3", "inf")
MATRIX = [(cmd, dim, p, body) for cmd in ("typical", "dual")
          for dim in (1, 2, 3) for p in NORMS
          for body in ("box", "ball", "simplex")]
POROSITY = [(target, gauge)
            for target in ("reciprocal", "zero", "cantor", "full", "empty")
            for gauge in ("sqrt", "identity", "power:2/3", "power:3/4",
                          "sqrt-ratio", "ratio", "offset:0.5")]
# wall seconds per run: the slowest run (`typical` at dim 3) takes about
# 0.65 s on a 2-core x86-64 machine, so this leaves room for a machine
# twice as slow and still catches a kernel that gets several times slower
RUN_BUDGET_S = 3.0


def _run(argv) -> int:
    t0 = time.perf_counter()
    code = cli.main(argv)
    took = time.perf_counter() - t0
    assert took < RUN_BUDGET_S, f"{argv[0]} took {took:.2f} s"
    return code


@pytest.mark.parametrize("cmd,dim,p,body", MATRIX)
def test_run_passes(cmd, dim, p, body, tmp_path):
    argv = [cmd, "--dim", str(dim), "--norm-p", p, "--body", body,
            "--out", str(tmp_path / "report.json")]
    if cmd == "typical":
        argv += ["--trials", "4", "--lam", "0.99"]
    assert _run(argv) == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dual_steep_power_passes(dim, tmp_path):
    assert _run(["dual", "--gauge", "power:3/4", "--dim", str(dim),
                 "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("p", NORMS)
def test_porosity_passes(p, tmp_path):
    assert _run(["porosity", "--norm-p", p,
                 "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("target,gauge", POROSITY)
def test_porosity_target_passes(target, gauge, tmp_path):
    assert _run(["porosity", "--target", target, "--gauge", gauge,
                 "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("window", ["1e-30", "1e-310"])
def test_porosity_tiny_window_passes(window, tmp_path):
    # the reciprocals inside the window are found in exact arithmetic, at
    # any magnitude down to the subnormals
    assert _run(["porosity", "--target", "reciprocal", "--point", "0",
                 "--window", window,
                 "--out", str(tmp_path / "report.json")]) == 0
