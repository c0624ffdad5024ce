"""Closed-loop client: one process runs one workload's operations in order.

Each operation is an in-process ``nelab.cli.main(argv)`` call; the next one
starts only when the previous one has returned.  A pass runs every
operation once.  The client prints one JSON object on stdout when it ends.

    python3 client.py --workload NAME --seed N --seconds S --trace 0|1
    python3 client.py --workload NAME --seed N --setup-only
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from workloads import argv_list


def run_op(main, argv: list[str]) -> dict:
    """Run one operation; a crash is recorded as a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:        # noqa: BLE001  the loop must go on
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    wall = time.perf_counter() - t0
    report = out.getvalue().encode("utf-8")
    cases = json.loads(report)["total"] if rc in (0, 1) else 0
    lines = err.getvalue().splitlines()
    return {"argv": argv, "rc": rc, "wall_s": wall, "cases": cases,
            "bytes": len(report), "sha256": hashlib.sha256(report).hexdigest(),
            "stderr": lines[0] if lines else ""}


def run_pass(main, ops: list[list[str]]) -> list[dict]:
    return [run_op(main, argv) for argv in ops]


def mismatches(passes: list[list[dict]]) -> list[dict]:
    """Operations whose report bytes differ between passes."""
    bad = []
    for i, first in enumerate(passes[0]):
        digests = sorted({p[i]["sha256"] for p in passes})
        if len(digests) > 1:
            bad.append({"argv": first["argv"], "sha256": digests})
    return bad


def _keep_going(walls: list[float], elapsed: float, seconds: float,
                least: int) -> bool:
    """Start another pass (or pair) if it should end nearer to `seconds`
    than stopping now would."""
    if len(walls) < least:
        return True
    return elapsed + 0.5 * sum(walls) / len(walls) <= seconds


def timed_passes(main, ops, seconds: float) -> list[list[dict]]:
    """Untraced passes for at least `seconds`, and at least two."""
    passes, walls, t0 = [], [], time.perf_counter()
    while _keep_going(walls, time.perf_counter() - t0, seconds, 2):
        start = time.perf_counter()
        passes.append(run_pass(main, ops))
        walls.append(time.perf_counter() - start)
    return passes


def traced_passes(cli, ops, seconds: float):
    """Pairs of one untraced and one traced pass, for at least `seconds`."""
    from tracer import Tracer, layer_values, traced

    passes, traces, walls, t0 = [], [], [], time.perf_counter()
    while _keep_going(walls, time.perf_counter() - t0, seconds, 1):
        start = time.perf_counter()
        passes.append(run_pass(cli.main, ops))
        tracer = Tracer()
        with traced(tracer):
            passes.append(run_pass(cli.main, ops))   # the patched main
        traces.append({"values": layer_values(tracer),
                       "counts": tracer.counts(), "spans": tracer.raw})
        walls.append(time.perf_counter() - start)
    return passes, traces


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import nelab.cli as cli
    ops = argv_list(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            passes, result["traces"] = traced_passes(cli, ops, args.seconds)
        else:
            passes = timed_passes(cli.main, ops, args.seconds)
        result["passes"] = [{"traced": bool(args.trace and i % 2), "ops": p}
                            for i, p in enumerate(passes)]
        result["mismatches"] = mismatches(passes)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
