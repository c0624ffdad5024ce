"""Every configuration the command line accepts gives a verdict: `typical`
and `dual` over dim 1-3 x lp norms x bodies, `dual` under a steep power
gauge, and `porosity` per norm and per target set x gauge, all exit 0,
each within RUN_BUDGET_S."""
import json
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


@pytest.mark.parametrize("window", ["9e307", "1.7976931348623157e308"])
@pytest.mark.parametrize("point", ["-1", "0", "0.5"])
@pytest.mark.parametrize("target", ["reciprocal", "zero", "cantor", "full",
                                    "empty"])
def test_porosity_huge_window_passes(target, point, window, tmp_path):
    # the estimate draws its centres in window ∩ space, so no span
    # overflows (a RuntimeWarning fails the test); -1 lies outside the
    # Cantor set's ambient [-0.5, 1.5], a usage error
    code = _run(["porosity", "--target", target, "--point", point,
                 "--window", window, "--out", str(tmp_path / "report.json")])
    assert code == (2 if (target, point) == ("cantor", "-1") else 0)


def test_porosity_window_far_past_the_space_finds_the_gap(tmp_path):
    # only q = 0 of the window's lattice lies in the space [-1, 1]; the
    # centres inside it find the gap between 1/2 and 1
    out = tmp_path / "report.json"
    assert _run(["porosity", "--window", "1e300", "--out", str(out)]) == 0
    cases = {c["case_id"]: c for c in json.loads(out.read_text())["cases"]}
    assert cases["porosity/gamma"]["measured"] == {"exact": 0.25,
                                                   "estimate": 0.25}


def test_porosity_window_past_the_space_passes(tmp_path):
    # (0.499, 1.499) around q = 0.999 holds no centre of [-1, 1] off the
    # full set: the exact hole size and the estimate are both null
    out = tmp_path / "report.json"
    assert _run(["porosity", "--target", "full", "--point", "0.999",
                 "--window", "0.5", "--out", str(out)]) == 0
    cases = {c["case_id"]: c for c in json.loads(out.read_text())["cases"]}
    assert cases["porosity/gamma"]["measured"]["exact"] is None
