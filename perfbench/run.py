"""Benchmark the nelab CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --describe --seed 0              # workloads, metrics, layer map

Each workload runs in a fresh child process (client.py) with BLAS pinned
to one thread; a few more fresh processes only time the set-up.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Full results go to ``.perfbench_out/`` in the root
of the checkout.  Exit code 1 means a report changed between two runs of
the same operation, or traced counts did not repeat; 2 means the
benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import (END_TO_END, INFO_METRICS, LAYER_MAP,  # noqa: E402
                     LAYER_METRICS)
from workloads import WORKLOADS, argv_list  # noqa: E402

SETUP_PROCESSES = 5     # fresh processes timed for setup_s, the client included
DEADLINE_S = 170.0      # a whole run ends well within 180 s
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS")
UNITS = {name: unit for name, unit, *_ in END_TO_END + INFO_METRICS + LAYER_METRICS}


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, crashed child, timeout)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _client(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a client")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "client.py"), *args],
                              env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def _pass_stats(passes: list[dict]) -> tuple[list[int], list[float]]:
    """Per pass: cases completed, and wall seconds of its operations."""
    return ([sum(op["cases"] for op in p["ops"]) for p in passes],
            [sum(op["wall_s"] for op in p["ops"]) for p in passes])


def _failed_ops(passes: list[dict]) -> list[dict]:
    """Each failing operation once, with the passes it failed in."""
    seen = {}
    for p in passes:
        for op in p["ops"]:
            if op["rc"] != 0:
                key = json.dumps(op["argv"])
                rec = seen.setdefault(key, {"argv": op["argv"], "rc": op["rc"],
                                            "stderr": op["stderr"], "times": 0})
                rec["times"] += 1
    return list(seen.values())


def context(seed: int) -> dict:
    """Machine and program facts recorded with every run; not gated."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    lines = {f.name: len(f.read_text().splitlines())
             for f in sorted((ROOT / "src" / "nelab").glob("*.py"))}
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "source_lines": lines, "source_lines_total": sum(lines.values())}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    load_before = os.getloadavg()[0]
    base = ["--workload", name, "--seed", str(seed)]
    setups = [_client(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES - 1)]
    res = _client(base + ["--seconds", str(seconds), "--trace", str(int(trace))],
                  deadline)
    setups.append(res["setup_s"])
    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    cases, walls = _pass_stats(plain)
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(op["rc"] != 0 for op in ops)
    digest = hashlib.sha256("".join(op["sha256"] for op in passes[0]["ops"])
                            .encode()).hexdigest()
    out = {
        "workload": name, "seed": seed, "trace": trace,
        "load1_before": load_before, "load1_after": os.getloadavg()[0],
        "attempted": len(ops), "failed": failed,
        "mismatches": res["mismatches"], "report_sha256": digest,
        "report_bytes": sum(op["bytes"] for op in passes[0]["ops"]),
        "failed_ops": _failed_ops(passes),
        "stats": {"setup_s": _quartiles(setups),
                  "cases_per_s": _quartiles([c / w for c, w in zip(cases, walls)]),
                  "pass_wall_s": _quartiles(walls)},
        "metrics": {"setup_s": statistics.median(setups),
                    "cases_per_s": sum(cases) / sum(walls),
                    "peak_rss_mb": res["peak_rss_mb"],
                    "failed_frac": failed / len(ops)},
        "passes": passes,
    }
    if trace:
        traces = res["traces"]
        out["count_mismatches"] = sorted(
            k for k in traces[0]["counts"]
            if any(t["counts"].get(k) != traces[0]["counts"][k] for t in traces))
        # counts are equal across traced passes; times are their medians
        layer = {m: (statistics.median(t["values"][m] for t in traces)
                     if UNITS[m] == "s" else v)
                 for m, v in traces[0]["values"].items()}
        _, traced_walls = _pass_stats([p for p in passes if p["traced"]])
        layer["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                         / statistics.median(walls))
        out["layer_metrics"] = layer
        out["traces"] = traces
    out["correct"] = not out["mismatches"] and not out.get("count_mismatches")
    return out


def _fmt_stat(name: str, value: float, st: dict, what: str) -> str:
    return (f"{name:<12} {value:.6g} {UNITS[name]}  (median {st['median']:.6g}; "
            f"q1 {st['q1']:.6g}, q3 {st['q3']:.6g}; n={st['n']} {what})")


def summary_lines(r: dict) -> list[str]:
    m = r["metrics"]
    lines = [f"## {r['workload']} seed={r['seed']} trace={int(r['trace'])} "
             f"load1 {r['load1_before']:.2f} -> {r['load1_after']:.2f}",
             _fmt_stat("setup_s", m["setup_s"], r["stats"]["setup_s"],
                       "processes"),
             _fmt_stat("cases_per_s", m["cases_per_s"], r["stats"]["cases_per_s"],
                       "untraced passes"),
             f"{'failed_frac':<12} {m['failed_frac']:.6g} ratio  "
             f"({r['failed']} of {r['attempted']} operations)",
             f"{'peak_rss_mb':<12} {m['peak_rss_mb']:.6g} MB  (client process)",
             f"report sha256 {r['report_sha256']} ({r['report_bytes']} bytes, "
             "one pass)"]
    for f in r["failed_ops"]:
        lines.append(f"failed-op rc={f['rc']} x{f['times']}: "
                     f"{' '.join(f['argv'])} :: {f['stderr']}")
    for bad in r["mismatches"]:
        lines.append(f"REPORT CHANGED between runs: {' '.join(bad['argv'])}")
    for key in r.get("count_mismatches", []):
        lines.append(f"TRACED COUNT CHANGED between passes: {key}")
    if r["trace"]:
        lines.append("trace.overhead_ratio "
                     f"{r['layer_metrics']['trace.overhead_ratio']:.4g}")
    return lines


def result_line(r: dict) -> dict:
    names = ([m for m, *_ in LAYER_METRICS] if r["trace"]
             else [m for m, *_ in END_TO_END])
    values = r["layer_metrics"] if r["trace"] else r["metrics"]
    return {"correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {n: {"value": values[n], "unit": UNITS[n]} for n in names}}


def describe(seed: int) -> dict:
    return {
        "workloads": {n: {"why": why, "argv": argv_list(n, seed)}
                      for n, (_, why) in WORKLOADS.items()},
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "info": [{"name": n, "unit": u, "better": b} for n, u, b in INFO_METRICS],
        "per_layer": [{"name": n, "unit": u, "better": b, "layer": lay}
                      for n, u, b, lay in LAYER_METRICS],
        "layer_map": LAYER_MAP,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measured time per workload (at least two passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print workloads, metrics and the layer map as JSON")
    args = ap.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(args.seed), indent=2))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "nelab" / "cli.py").is_file():
        print(f"error: no nelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * len(names)
    ctx = context(args.seed)
    print("# context " + json.dumps(ctx))
    results = []
    try:
        for name in names:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace),
                             deadline)
            results.append(r)
            print("\n".join(summary_lines(r)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"context": ctx, "results": results}, indent=1))
    print(f"# details {detail.relative_to(ROOT)}")
    if len(results) == 1:
        line = result_line(results[0])
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{n}": v for r in results
                            for n, v in result_line(r)["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
