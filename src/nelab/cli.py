"""Command-line front end.

Subcommands::

    verify    run named verification suites (or all of them)
    typical   density of the unit-slope set under net-of-bumps perturbation
    dual      gauge pipeline: pair, ladder, witnesses, holes, cover check
    porosity  hole sizes and pointwise verdicts on a built-in example set
    gauge     CSV plot data: companion-pair curve and ladder rungs

Reports go to stdout (or ``--out``); a one-line human summary goes to
stderr so that piped output stays machine-readable.  All flags are
long-form.  Exit codes: 0 every case passed, 1 some case failed,
2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NelabError
from .gauges import build_pair, gauge_from_desc, ladder
from .harness import (ExperimentConfig, run_dual, run_porosity, run_typical,
                      run_verify)
from .reports import csv_value, emit_report
from .space import Norm, body_from_desc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=1, help="ambient dimension (1..3)")
    p.add_argument("--norm-p", type=float, default=2.0, dest="norm_p",
                   help="p of the ambient p-norm (>= 1, inf allowed)")
    p.add_argument("--body", default="box",
                   help="convex body: box | box:lo,hi | ball | ball:r | simplex")
    p.add_argument("--trials", type=int, default=None,
                   help="case count override (suite defaults apply when omitted)")
    p.add_argument("--seed", type=int, default=0, help="root seed (explicit)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="scales every pinned check tolerance (default 1e-9)")
    p.add_argument("--gauge", default="sqrt",
                   help="gauge: sqrt | power:p | power:a/b | sqrt-ratio | "
                        "ratio | offset:p | identity")
    p.add_argument("--lam", type=float, default=None,
                   help="slope threshold in (0, 1); default 0.5 (typical: 0.99)")
    p.add_argument("--out", default=None,
                   help="output path ('-' or omitted: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   dest="fmt", help="report serialization")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nelab",
        description="Numerical laboratory for non-expansive mappings: "
                    "verification suites, density experiments, porosity probes.")
    sub = ap.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", default="all",
                    help="flat | field | bump | witness | pairs | invratio | "
                         "ladder | porosity | holes | all")
    _add_common(pv)
    pt = sub.add_parser("typical", help="unit-slope density experiment")
    _add_common(pt)
    pd = sub.add_parser("dual", help="gauge-scaled pipeline")
    _add_common(pd)
    pp = sub.add_parser("porosity", help="probe one built-in example set")
    pp.add_argument("--target", default="reciprocal",
                    help="reciprocal | zero | cantor | full | empty")
    pp.add_argument("--point", type=float, default=0.0, help="probed point q")
    pp.add_argument("--window", type=float, default=0.01,
                    help="hole-size window radius r")
    pp.add_argument("--eps0", type=float, default=0.25,
                    help="start scale of the lower-pattern search")
    _add_common(pp)
    pg = sub.add_parser("gauge", help="emit pair-curve and ladder CSV")
    pg.add_argument("--rungs", type=int, default=12, help="ladder length")
    pg.add_argument("--points", type=int, default=64, help="curve resolution")
    _add_common(pg)
    return ap


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    lam = args.lam
    if lam is None:
        lam = 0.99 if args.command == "typical" else 0.5
    cfg = ExperimentConfig(
        suite=getattr(args, "suite", "all"),
        dim=args.dim, norm_p=args.norm_p, body=args.body,
        trials=args.trials, seed=args.seed, tol=args.tol,
        gauge=args.gauge, lam=lam,
        target=getattr(args, "target", "reciprocal"),
        point=getattr(args, "point", 0.0),
        window=getattr(args, "window", 0.01),
        eps0=getattr(args, "eps0", 0.25),
        out=args.out, fmt=args.fmt)
    cfg.validate()
    return cfg


def _gauge_csv(cfg: ExperimentConfig, rungs: int, points: int) -> str:
    """Plot data: the pair inequality curve, then ladder rungs (when the
    gauge vanishes at zero; otherwise there is no ladder to tabulate)."""
    phi = gauge_from_desc(cfg.gauge)
    pair = build_pair(phi)
    lines = ["kind,t,phi,xi,prod_over_t,j,s_j,inv_ratio"]
    ts = np.geomspace(1e-8 / pair.K, (1.0 / pair.K) * (1.0 - 1e-12), points)
    for t in ts:
        pv = float(phi.value(float(t)))
        xv = float(pair.xi.value(float(t)))
        lines.append(f"curve,{csv_value(t)},{csv_value(pv)},{csv_value(xv)},"
                     f"{csv_value(pv * xv / t)},,,")
    if phi.inf == 0.0:
        norm = Norm(cfg.norm_p)
        body = body_from_desc(cfg.body, cfg.dim, norm)
        lad = ladder(phi, body, norm, rungs=rungs)
        for j in range(1, len(lad) + 1):
            lines.append(f"rung,,,,,{j},{csv_value(lad.rung(j))},"
                         f"{csv_value(lad.inv_ratio(j))}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "gauge":
            if args.rungs < 1 or args.points < 2:
                raise ValueError("gauge table needs rungs >= 1, points >= 2")
            text = _gauge_csv(cfg, args.rungs, args.points)
            if cfg.out is None or cfg.out == "-":
                print(text, end="")
            else:
                with open(cfg.out, "w") as fh:
                    fh.write(text)
            return 0
        runner = {"verify": run_verify, "typical": run_typical,
                  "dual": run_dual, "porosity": run_porosity}[args.command]
        report = runner(cfg)
    except (NelabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    try:
        emit_report(report, cfg.out, cfg.fmt)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    print(report.summary_line(), file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
