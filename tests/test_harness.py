"""Experiment harness, report serialization, and the command line."""
import concurrent.futures
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

import nelab
from nelab import cli, harness
from nelab.errors import EstimationError, GaugeError, ParameterError
from nelab.gauges import PowerGauge
from nelab.harness import (ExperimentConfig, closing_bound, run_dual,
                           run_porosity, run_typical, run_verify)
from nelab.reports import Report, dumps_csv, dumps_json


def _cfg(**kw):
    return ExperimentConfig(**kw)


def test_config_validation():
    _cfg()
    _cfg(norm_p=float("inf"))
    _cfg(target="zero", point=-1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (dict(suite="frobnicate"), dict(dim=4), dict(norm_p=0.5),
                dict(norm_p=nan), dict(trials=0), dict(tol=-1.0),
                dict(lam=1.0), dict(window=0.0), dict(eps0=-2.0),
                dict(tol=nan), dict(tol=inf), dict(window=inf),
                dict(window=nan), dict(eps0=inf), dict(eps0=nan),
                dict(body="bogus"), dict(gauge="power:7"), dict(target="nope"),
                dict(point=2.0), dict(point=nan)):
        with pytest.raises(ValueError):
            _cfg(**bad)


def test_config_scaled_tolerance_and_dict():
    cfg = _cfg(tol=2e-9)
    assert cfg.scaled(1e-12) == 2e-12
    assert _cfg(tol=0.0).scaled(1e-9) == 0.0
    d = cfg.as_dict()
    # the parsed descriptors never enter the bytes
    assert list(d) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert d["trials"] == -1                   # None normalized for JSON
    assert _cfg(trials=7).as_dict()["trials"] == 7


_PARSERS = ("body_from_desc", "gauge_from_desc", "oracle_from_desc")


@pytest.mark.parametrize("argv", [
    ["typical", "--trials", "1"], ["dual", "--dim", "2"],
    ["porosity", "--target", "zero"], ["gauge", "--gauge", "power:2/3"],
    ["verify", "--suite", "pairs"]], ids=lambda argv: argv[0])
def test_cli_parses_each_descriptor_once(argv, monkeypatch, capsys):
    calls = dict.fromkeys(_PARSERS, 0)

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    # the parsers wherever a nelab module holds them by name
    spies = {name: counted(name, getattr(nelab, name)) for name in _PARSERS}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("nelab"):
            for name in _PARSERS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spies[name])
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(_PARSERS, 1)


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
    "dual": "e5f49d9bfde092bf6dcf169892ecca7d2ee0fbba1a40955394224cc7fb42d903",
    "typical-inf-ball": "6c8dafbade2c9633d1f16a9ef9bbaa2ea2b43ea00d82c818b20734328116022a",
    "dual-l1-simplex": "9d632f37d6bc4235644b10ae4d85ab9e6b3c400e1a481fc5759bfef9df22b0c8",
    "porosity-reciprocal": "970cfabe56eebaaa78f91b56e7117431bb0c0730387ae248a5608d49322cb97a",
    "porosity-cantor": "d32224b90ad610c9c9f2a4a92185c0b5eb88900d18de430e477c204316e22fe5",
    "field-120": "05ab3770ea3fca4842cce6d184c44a5356f05e30ce79a45c5b84353b917e2483",
    "typical-3d-box": "db3538a668e8d6f2f7b2f8b789e4dd5a8a417ff79cfb0e70b9d76a38fdcf89d3",
    "porosity-zero-power-2/3": "80b5c8e24ff91658adc9b8136ec1e6564f8bad3abc15e85c6f62ec09ca38799c",
    "dual-power-3/4": "9387d1d64bb4660cab65a44dac8c7c9b79a5451eda2c9440227c336d0bf45e8e",
    "porosity-reciprocal-power-3/4": "b33c26d2644ab58f2995299e701dbd8b8701e3f852eeafd48d1c6a327438c027",
    # the `porosity` operations of perfbench's porosity-sweep at seed 0
    "sweep-reciprocal-0-0.01": "970cfabe56eebaaa78f91b56e7117431bb0c0730387ae248a5608d49322cb97a",
    "sweep-reciprocal-0-0.1": "896e23a618a7168237be4b5dc6aeb140705bc4a7c36293a317cf41f998b40381",
    "sweep-reciprocal-0.5-0.1": "6a3e3a2466f52eef9fc7e3f47bdef178565457b4dbed14165b90ba9c79c2ee09",
    "sweep-zero-0-0.01": "8b55e6bc0a0ae87e62089688e9d1e2c67b11b7447c80ed63a8dd0b7a3b89acfe",
    "sweep-zero-0-0.1": "8b5a0d733a640f1f6f085c08e25e18648341b1ae53590491aa388ec2fb498cd4",
    "sweep-zero-0.5-0.1": "73b48a021346fc11c1c8dfe9609e6b9023596b36681a6223bcbe968bdf94a1a6",
    "sweep-cantor-0-0.01": "862b44e08d39e9174890d3821a11dfe416a57fcc926c10c1f3ef86d1aeb89439",
    "sweep-cantor-0-0.1": "f0a61f3b5c50915c0a93228ea09baca07bd323236a1b21214e2e20470dddb187",
    "sweep-cantor-0.5-0.1": "72bbaa9ecb218d8910008727d4087d127fc6de9d6bf6117085dd4ca0301493e2",
    "sweep-empty-0-0.01": "0ded6e3642aa95110233340943e203c56591817b0386a0cb323a47d55c58deb1",
    "sweep-empty-0-0.1": "0930c3898eb099b53dc63e4c4e5f2a7079f4b9705c0a5c777e120ed8bc7bb77d",
    "sweep-empty-0.5-0.1": "3e1cf1090a0ba4af6344331bfe34abc4160e2f232919569087a283fb00ee33da",
}
# sha256 of `nelab gauge` CSV tables (the pair grid and the ladder rungs)
GOLDEN_GAUGE_CSV = {
    ("--gauge", "sqrt-ratio"):
        "737b00dbe9bff3f8bbe66260b70260b8338e625b5dab309cb6b42c5f09d88ef8",
    ("--gauge", "power:2/3", "--dim", "2", "--body", "ball", "--norm-p", "3",
     "--rungs", "20", "--points", "300"):
        "72b81edc7385da03e0158aac8d63be4ea8349467d00e4c052e6a9e52b052a7fc",
}


def test_golden_report_digests():
    reports = {"typical": run_typical(_cfg(trials=4, lam=0.99)),
               # dim 2 reaches the multi-point ladder-witness batches
               "dual": run_dual(_cfg(gauge="sqrt", dim=2)),
               # the off-net filter and the tents under the sup norm
               "typical-inf-ball": run_typical(_cfg(
                   dim=2, norm_p=float("inf"), body="ball", trials=4,
                   lam=0.99)),
               # the hull diameter, the far pair and the nearest net point
               # in 3-D under the l1 norm
               "dual-l1-simplex": run_dual(_cfg(dim=3, norm_p=1.0,
                                                body="simplex")),
               # the hole searches and witness re-checks at an accumulation
               # point and inside the Cantor dust
               "porosity-reciprocal": run_porosity(_cfg(
                   target="reciprocal", point=0.0, window=0.01)),
               "porosity-cantor": run_porosity(_cfg(
                   target="cantor", point=0.3, window=0.2)),
               # batched direction-field checks over 63 Ball, 47 Box and
               # 10 Hull cases
               "field-120": run_verify(_cfg(suite="field", seed=7,
                                            trials=120)),
               # probes at the corner net points of the 3-D box
               "typical-3d-box": run_typical(_cfg(
                   dim=3, norm_p=2.0, body="box", trials=4, lam=0.99)),
               # the verdict arrays under a non-default gauge, with hole
               # witnesses from both patterns
               "porosity-zero-power-2/3": run_porosity(_cfg(
                   target="zero", gauge="power:2/3")),
               # a steep power gauge, whose pair takes the derived K = 4
               "dual-power-3/4": run_dual(_cfg(gauge="power:3/4")),
               # a lower verdict with a small constant, 2^-11, found on
               # the draws of the verdict's one generator
               "porosity-reciprocal-power-3/4": run_porosity(_cfg(
                   target="reciprocal", gauge="power:3/4")),
               **{f"sweep-{target}-{point}-{window}": run_porosity(_cfg(
                   target=target, point=float(point), window=float(window)))
                  for target in ("reciprocal", "zero", "cantor", "empty")
                  for point, window in (("0", "0.01"), ("0", "0.1"),
                                        ("0.5", "0.1"))}}
    for name, rep in reports.items():
        digest = hashlib.sha256(dumps_json(rep).encode()).hexdigest()
        assert digest == GOLDEN[name], name


def test_cli_gauge_table_for_a_steep_power(tmp_path):
    out = tmp_path / "power.csv"
    assert cli.main(["gauge", "--gauge", "power:0.9", "--out", str(out)]) == 0
    curve = [l.split(",") for l in out.read_text().splitlines()
             if l.startswith("curve")]
    assert curve and all(0.25 <= float(row[4]) <= 4.0 for row in curve)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dual_estimator_failures_become_failed_cases(dim, tmp_path):
    # at p = 0.8 the deep rungs fall below float spacing: the hole and
    # cover-consistency cases fail with the estimator's message; at
    # p = 0.99 the ladder witness has no certificate radius, so its
    # witness cases fail and have no holes to probe.  The run still
    # writes its report
    for gauge in ("power:0.8", "power:0.99"):
        out = tmp_path / "dual.json"
        rc = cli.main(["dual", "--gauge", gauge, "--dim", str(dim),
                       "--out", str(out)])
        assert rc == 1, gauge
        cases = json.loads(out.read_text())["cases"]
        failed = [c for c in cases if not c["passed"]]
        assert failed and all("error" in c["measured"] for c in failed)
        assert all("error" not in c["measured"] for c in cases if c["passed"])
        ids = [c["case_id"] for c in cases]
        for c in failed:
            if c["case_id"].startswith("dual/witness-"):
                ei = c["case_id"].rpartition("-")[2]
                assert not any(i.startswith(f"dual/hole-{ei}-") for i in ids)


def test_golden_gauge_tables(tmp_path):
    for args, want in GOLDEN_GAUGE_CSV.items():
        out = tmp_path / "gauge.csv"
        assert cli.main(["gauge", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, args


def test_typical_sampler_failures_become_failed_cases(tmp_path, monkeypatch):
    # an estimator failure fails its map case, and the run goes on
    def fail(*args, **kwargs):
        raise EstimationError("estimator failed")

    monkeypatch.setattr(harness, "lip_local_profile", fail)
    cfg = dict(dim=2, norm_p=1.0, body="simplex", trials=4, lam=0.99)
    rep = run_typical(_cfg(**cfg))
    failed = {c.case_id: c for c in rep.cases if "error" in c.measured}
    assert sorted(failed) == [f"typical/map-{i:02d}" for i in range(4)]
    assert len(rep.cases) == 7 and len(rep.failures) == 4
    case = failed["typical/map-00"]
    assert case.measured["error"] == "estimator failed"
    assert "bump_scale" in case.params
    rc = cli.main(["typical", "--dim", "2", "--norm-p", "1", "--body",
                   "simplex", "--trials", "4", "--lam", "0.99",
                   "--out", str(tmp_path / "typical.json")])
    assert rc == 1


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


def test_pairs_case_passes_a_steep_power(monkeypatch):
    # t^0.99 gets K = 4 and grid ratios in [1/K, K]; build_pair itself
    # checks xi(0) = 0, although xi(1e-6) is about 0.87
    monkeypatch.setattr(harness, "_PAIR_GAUGES",
                        (("power-0.99", PowerGauge(p=0.99)),))
    cases = {c.case_id: c for c in harness.suite_pairs(_cfg(suite="pairs"))}
    case = cases["pairs/power-0.99"]
    assert case.params["K"] == 4.0
    assert case.passed


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


def _run_python(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(nelab.__file__)),
                    env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cli_import_loads_no_scipy():
    # scipy is imported by the few calls that use it, so that starting the
    # command line does not pay for it, nor for the process pool of
    # `verify --suite all`, and builds no parser
    _run_python("import nelab.cli, sys; "
                "assert not any(m.startswith(('scipy', 'multiprocessing', "
                "'concurrent')) for m in sys.modules); "
                "assert nelab.cli.build_parser.cache_info().misses == 0")


def test_no_command_loads_scipy(tmp_path):
    # a `Hull` finds its facets itself, so no command loads scipy: not the
    # pool parent of `verify --suite all`, nor a 2-D or 3-D simplex run of
    # `dual` or `typical`; and no nelab module names it
    argvs = [["verify", "--suite", "all"]] + [
        [cmd, "--dim", str(dim), "--body", "simplex", "--trials", "2"]
        for cmd in ("dual", "typical") for dim in (2, 3)]
    out = str(tmp_path / "report.json")
    _run_python(
        "import nelab.cli, sys\n"
        f"for argv in {argvs!r}:\n"
        f"    assert nelab.cli.main(argv + ['--out', {out!r}]) == 0, argv\n"
        "    assert not any(m.startswith('scipy') for m in sys.modules), argv")
    src = os.path.dirname(nelab.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                assert "scipy" not in fh.read(), name


def test_cli_builds_one_parser_per_process(tmp_path):
    # the first `main` call builds the parser and later calls reuse it
    cli.build_parser.cache_clear()
    out = tmp_path / "report.json"
    # typical's own lam default (0.99) does not carry over to verify (0.5)
    assert cli.main(["typical", "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["lam"] == 0.99
    assert cli.main(["verify", "--suite", "pairs", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["lam"] == 0.5
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cli_usage_errors():
    assert cli.main(["verify", "--suite", "frobnicate"]) == 2
    assert cli.main(["typical", "--body", "box:0,0"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gauge", "--gauge", "power:1/0"],
    ["dual", "--gauge", "power:1/0"],
    ["gauge", "--gauge", "power:2/0"],
    ["porosity", "--window", "inf"],
    ["porosity", "--eps0", "inf"],
    ["verify", "--suite", "pairs", "--tol", "nan"],
    ["gauge", "--format", "json"],
    ["gauge", "--trials", "3"],
    ["gauge", "--seed", "1"],
    ["gauge", "--tol", "1e-9"],
    ["gauge", "--lam", "0.5"],
    # descriptors that take no argument, and a box with one bound
    ["dual", "--body", "simplex:3"],
    ["typical", "--body", "box:1"],
    ["dual", "--gauge", "sqrt:5"],
    ["dual", "--gauge", "identity:2"],
    ["gauge", "--gauge", "ratio:1"],
    ["gauge", "--gauge", "sqrt-ratio:1"],
    # an empty argument after ':'
    ["dual", "--body", "box:"],
    ["typical", "--body", "ball:"],
    ["dual", "--gauge", "offset:"],
    ["gauge", "--gauge", "power:"],
    # descriptors that a command does not read are still checked
    ["verify", "--suite", "pairs", "--body", "bogus", "--gauge", "power:7"],
    ["typical", "--gauge", "nope"],
    ["porosity", "--body", "nope"],
    # the report format and the probed point
    ["verify", "--format", "xml"],
    ["porosity", "--point", "2"],
])
def test_cli_malformed_argv_exits_two(argv, tmp_path, capsys):
    # a usage error: exit 2 and one `error:` line, never a traceback or a
    # report
    out = tmp_path / "out.txt"
    try:
        rc = cli.main(argv + ["--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert len([l for l in err.splitlines() if "error:" in l]) == 1
    assert "Traceback" not in err and not out.exists()


def test_cli_box_with_one_bound_names_the_form(capsys):
    assert cli.main(["dual", "--body", "box:1"]) == 2
    assert "box:lo,hi" in capsys.readouterr().err


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


def _cpus(monkeypatch, n: int) -> None:
    """Let the process see n CPUs: 1 keeps `verify` in-process, 2 or
    more gives `verify --suite all` its pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _cli(argv, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr without the wall time) of one run."""
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert multiprocessing.active_children() == []
    return rc, out, re.sub(r" wall=\S+", "", err)


# at --trials 1 two workers get bump's cases in blocks range(0, 0) and
# range(0, 1), at --trials 3 in range(0, 1) and range(1, 3)
@pytest.mark.parametrize("args", [["--seed", "0"], ["--seed", "1000000"],
                                  ["--trials", "1"], ["--trials", "3"]],
                         ids=["0", "1000000", "trials-1", "trials-3"])
def test_verify_all_pool_and_in_process_runs_give_the_same_bytes(
        args, monkeypatch, capsys):
    for fmt in ("json", "csv"):
        argv = ["verify", "--suite", "all", *args, "--format", fmt]
        _cpus(monkeypatch, 2)
        pooled = _cli(argv, capsys)
        _cpus(monkeypatch, 1)
        assert _cli(argv, capsys) == pooled
        assert pooled[0] == 0 and pooled[1]


def test_a_bump_case_failing_in_the_second_block_reaches_the_caller(
        monkeypatch, capsys):
    # at --trials 6 two workers get bump cases 0-2 and 3-5; cases 3 to 5
    # fail, and the in-process run raises at case 3 first (blocks dealt
    # round-robin, 0, 2, 4 and 1, 3, 5, would raise at case 4)
    bump_case = harness._bump_case

    def boom(cfg, i):
        if i >= 3:
            raise ParameterError(f"boom {i}")
        return bump_case(cfg, i)

    monkeypatch.setattr(harness, "_bump_case", boom)
    argv = ["verify", "--suite", "all", "--trials", "6"]
    _cpus(monkeypatch, 2)
    pooled = _cli(argv, capsys)
    _cpus(monkeypatch, 1)
    assert _cli(argv, capsys) == pooled == (2, "", "error: boom 3\n")


def test_a_suite_failing_in_a_worker_reaches_the_caller(monkeypatch, capsys):
    def boom(cfg):
        raise ParameterError("boom")

    monkeypatch.setitem(harness.SUITES, "ladder", boom)
    _cpus(monkeypatch, 2)
    with pytest.raises(ParameterError, match="^boom$"):
        run_verify(_cfg(trials=1))
    assert multiprocessing.active_children() == []
    argv = ["verify", "--suite", "all", "--trials", "1"]
    pooled = _cli(argv, capsys)
    _cpus(monkeypatch, 1)
    assert _cli(argv, capsys) == pooled == (2, "", "error: boom\n")


def test_single_suites_and_other_commands_build_no_pool(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    _cpus(monkeypatch, 2)
    with pytest.raises(AssertionError, match="pool was built"):
        run_verify(_cfg(trials=1))
    for argv in (["verify", "--suite", "porosity"],
                 ["porosity", "--target", "zero"],
                 ["typical", "--trials", "2"],
                 ["dual", "--dim", "1"]):
        assert _cli(argv, capsys)[0] == 0, argv
