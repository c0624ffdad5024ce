"""Checks of the benchmark itself: traced counts repeat, the report
determinism check can fail, and BENCHMARK.json matches the definitions."""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import nelab.cli as cli  # noqa: E402
import nelab.maps as maps  # noqa: E402
from client import mismatches, run_op, run_pass  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from tracer import Tracer, layer_values, traced  # noqa: E402
from workloads import SECOND_SEED, WORKLOADS, argv_list  # noqa: E402

# small operations that between them reach every layer
SMALL_OPS = [
    ["verify", "--suite", "flat", "--trials", "2", "--seed", "3"],
    ["typical", "--trials", "2", "--seed", "3"],
    ["dual", "--gauge", "sqrt", "--dim", "1", "--seed", "3"],
    ["porosity", "--target", "zero", "--trials", "8", "--seed", "3"],
]
COUNT_KEYS = ("calls", "points", "errors")


def _traced_run():
    tracer = Tracer()
    with traced(tracer):
        ops = run_pass(cli.main, SMALL_OPS)
    return tracer, ops


def test_traced_counts_repeat_exactly():
    first, ops1 = _traced_run()
    second, ops2 = _traced_run()
    counts = first.counts()
    assert counts == second.counts()
    assert any(k.endswith(COUNT_KEYS) for k in counts)
    assert counts["maps.apply.Tent.points"] > 0
    assert counts["space.norm_of.calls"] > 0
    ratio = layer_values(first)["space.greedy_net.accept_ratio"]
    assert 0.0 < ratio <= 1.0
    assert ratio == layer_values(second)["space.greedy_net.accept_ratio"]
    assert not mismatches([ops1, ops2])


def test_tracer_undoes_its_patches():
    main, apply = cli.main, maps.Tent._apply
    suites = dict(cli.run_verify.__globals__["SUITES"])
    with traced(Tracer()):
        assert cli.main is not main and maps.Tent._apply is not apply
    assert cli.main is main and maps.Tent._apply is apply
    assert cli.run_verify.__globals__["SUITES"] == suites


def _printer(text: str):
    def main(argv):
        print(text, end="")
        return 0
    return main


def test_determinism_check_fails_on_differing_report_bytes():
    argv = ["verify"]
    a = run_op(_printer('{"total": 1, "x": 0.1}'), argv)
    b = run_op(_printer('{"total": 1, "x": 0.2}'), argv)
    assert mismatches([[a], [a]]) == []
    bad = mismatches([[a], [b]])
    assert len(bad) == 1 and bad[0]["argv"] == argv


def test_failed_operation_is_recorded_not_raised():
    def crash(argv):
        raise RuntimeError("boom")
    rec = run_op(crash, ["typical"])
    assert rec["rc"] == -1 and rec["stderr"] == "RuntimeError: boom"
    assert rec["cases"] == 0


def test_benchmark_json_matches_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]][1]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bd}
        for n, u, b, bd in END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in LAYER_METRICS]


def test_operations_get_the_benchmark_seed():
    for name in WORKLOADS:
        seeds = {argv[argv.index("--seed") + 1] for argv in argv_list(name, 17)}
        allowed = {"17", str(17 + SECOND_SEED)} if name == "verify-all" else {"17"}
        assert "17" in seeds and seeds <= allowed
