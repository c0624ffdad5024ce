"""Experiment harness, report serialization, and the command line."""
import hashlib
import json

import pytest

from nelab import cli
from nelab.errors import GaugeError
from nelab.harness import (ExperimentConfig, closing_bound, run_dual,
                           run_porosity, run_typical, run_verify)
from nelab.reports import Report, dumps_csv, dumps_json


def _cfg(**kw):
    return ExperimentConfig(**kw)


def test_config_validation():
    _cfg().validate()
    for bad in (dict(suite="frobnicate"), dict(dim=4), dict(norm_p=0.5),
                dict(trials=0), dict(tol=-1.0), dict(lam=1.0),
                dict(window=0.0), dict(eps0=-2.0), dict(fmt="xml")):
        with pytest.raises(ValueError):
            _cfg(**bad).validate()


def test_config_scaled_tolerance_and_dict():
    cfg = _cfg(tol=2e-9)
    assert cfg.scaled(1e-12) == 2e-12
    assert _cfg(tol=0.0).scaled(1e-9) == 0.0
    d = _cfg(out="/tmp/somewhere.json", fmt="csv").as_dict()
    assert "out" not in d and "fmt" not in d   # sink never enters the bytes
    assert d["trials"] == -1                   # None normalized for JSON
    assert _cfg(trials=7).as_dict()["trials"] == 7


def test_closing_bound_margin_closed_form():
    for lam in (0.1, 0.5, 0.9):
        for K in (1.5, 2.0, 4.0):
            for diam in (1.0, 2.0, 4.0):
                beta, bound, margin = closing_bound(lam, K, diam)
                assert beta * K < 1.0
                assert margin > 0.0
                assert margin == pytest.approx(
                    (1.0 - lam) ** 2 / (97.0 * (3.0 - lam)), rel=1e-12)
                assert bound == pytest.approx(lam + margin, rel=1e-12)


def test_flat_suite_reports_sorted_cases():
    rep = run_verify(_cfg(suite="flat", trials=6))
    assert rep.suite == "verify:flat"
    assert rep.total == 6 and rep.passed
    ids = [c.case_id for c in rep.cases]
    assert ids == sorted(ids)
    assert rep.wall is not None and rep.wall > 0.0


def test_report_bytes_are_reproducible():
    a = run_verify(_cfg(suite="flat", trials=6, seed=11))
    b = run_verify(_cfg(suite="flat", trials=6, seed=11))
    assert dumps_json(a) == dumps_json(b)
    assert dumps_csv(a) == dumps_csv(b)
    c = run_verify(_cfg(suite="flat", trials=6, seed=12))
    assert dumps_json(a) != dumps_json(c)


def test_bump_certificate_rounding_one_ulp_above_one_passes():
    # bump/011 at seed 14 has certificate 1 + 2^-52: the product of the
    # collapse, contraction and base certificates rounds above 1
    rep = run_verify(_cfg(suite="bump", seed=14, trials=12))
    assert rep.passed
    case = {c.case_id: c for c in rep.cases}["bump/011"]
    assert case.measured["certificate"] > 1.0
    assert case.measured["certificate"] <= case.bounds["quotient_bound"]


# sha256 of the JSON report bytes; a change to any digest is a change to
# what the runs compute and must be explained
GOLDEN = {
    "typical": "95af3b18933d05444427f84430ad119e8868205e3f75963a5549c3b61949aa6f",
    "dual": "44f22eb9c756f9b2f52e9b8682ce5ae164ceaffb4a747397dd4272fed3aa58e0",
}


def test_golden_report_digests():
    reports = {"typical": run_typical(_cfg(trials=4, lam=0.99)),
               # dim 2 reaches the multi-point ladder-witness batches
               "dual": run_dual(_cfg(gauge="sqrt", dim=2))}
    for name, rep in reports.items():
        digest = hashlib.sha256(dumps_json(rep).encode()).hexdigest()
        assert digest == GOLDEN[name], name


def test_zero_tolerance_turns_exact_checks_into_failures():
    rep = run_verify(_cfg(suite="flat", tol=0.0))
    assert not rep.passed
    assert 0 < len(rep.failures) < rep.total


def test_json_floats_roundtrip_exactly():
    rep = run_verify(_cfg(suite="pairs"))
    back = json.loads(dumps_json(rep))
    assert back["total"] == rep.total and back["passed"] is True
    for case, loaded in zip(rep.cases, back["cases"]):
        for key, val in case.measured.items():
            if isinstance(val, float):
                assert loaded["measured"][key] == val


def test_csv_has_header_plus_one_row_per_case():
    rep = run_verify(_cfg(suite="pairs"))
    lines = dumps_csv(rep).strip().split("\n")
    assert len(lines) == rep.total + 1
    assert lines[0].startswith("case_id,")


def test_empty_report_shape():
    rep = Report("verify:flat", {"seed": 0}, [])
    back = json.loads(dumps_json(rep))
    assert back == {"suite": "verify:flat", "config": {"seed": 0},
                    "cases": [], "total": 0, "failed": 0, "passed": True}


def test_typical_run_densities():
    rep = run_typical(_cfg(trials=4))
    assert rep.passed
    maps = [c for c in rep.cases if c.case_id.startswith("typical/map")]
    consts = [c for c in rep.cases if c.case_id.startswith("typical/const")]
    assert len(maps) == 4 and len(consts) == 3
    for c in maps:
        assert c.measured["net_density"] == 1.0
        assert all(d == 1.0 for d in c.measured["coarse_densities"])
    for c in consts:
        assert c.measured["net_density"] == 0.0
    # on the default body (diameter 2) the coarsest run descends to 2^-5
    assert any(0.03125 in c.params["coarse_scales"] for c in maps)


def test_dual_run_with_vanishing_gauge():
    rep = run_dual(_cfg(gauge="sqrt", lam=0.5))
    assert rep.passed
    ids = [c.case_id for c in rep.cases]
    assert "dual/witness-0" in ids and "dual/cover-consistency" in ids
    assert any(i.startswith("dual/hole-") for i in ids)


def test_dual_run_reduces_when_the_gauge_has_positive_floor():
    rep = run_dual(_cfg(gauge="offset:0.5"))
    assert rep.passed
    assert [c.case_id for c in rep.cases] == ["dual/reduced-to-plain-density"]
    with pytest.raises(GaugeError):
        run_dual(_cfg(gauge="identity"))    # bounded slope, no companion


def test_porosity_run_on_the_singleton():
    rep = run_porosity(_cfg(target="zero", point=0.0, window=0.3))
    assert rep.passed and rep.total == 3
    by_id = {c.case_id: c for c in rep.cases}
    assert by_id["porosity/upper"].measured["alpha"] == 0.5
    assert by_id["porosity/gamma"].measured["exact"] == 0.15


def test_cli_verify_writes_report_and_exits_zero(tmp_path):
    out = tmp_path / "pairs.json"
    assert cli.main(["verify", "--suite", "pairs", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert "wall" not in doc


def test_cli_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = cli.main(["verify", "--suite", "pairs", "--seed", "4",
                       "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_failure_exit_code(tmp_path):
    out = tmp_path / "flat.json"
    rc = cli.main(["verify", "--suite", "flat", "--tol", "0",
                   "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text())["failed"] > 0


def test_cli_usage_errors():
    assert cli.main(["verify", "--suite", "frobnicate"]) == 2
    assert cli.main(["typical", "--body", "box:0,0"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_io_error_exit_code(tmp_path):
    rc = cli.main(["verify", "--suite", "pairs",
                   "--out", str(tmp_path / "missing-dir" / "x.json")])
    assert rc == 3


def test_cli_csv_output(tmp_path):
    out = tmp_path / "pairs.csv"
    rc = cli.main(["verify", "--suite", "pairs", "--format", "csv",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("case_id,")
    assert len(lines) == len(json.loads(dumps_json(
        run_verify(_cfg(suite="pairs"))))["cases"]) + 1


def test_cli_gauge_table(tmp_path):
    out = tmp_path / "sqrt.csv"
    rc = cli.main(["gauge", "--gauge", "sqrt", "--rungs", "6",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kind,t,phi,xi,prod_over_t,j,s_j,inv_ratio"
    rungs = [l.split(",") for l in lines[1:] if l.startswith("rung")]
    assert len(rungs) == 6
    for row in rungs:
        assert row[6] == row[7]     # sqrt ladder: s_j equals inv_ratio(j)
