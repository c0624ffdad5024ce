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
from dataclasses import fields
from functools import cache

from .errors import NelabError
from .gauges import build_pair, ladder
from .harness import (ExperimentConfig, run_dual, run_porosity, run_typical,
                      run_verify)
from .porosity import TARGETS
from .reports import csv_value, dumps, write_text


def _add_space(p: argparse.ArgumentParser) -> None:
    """The flags every subcommand reads: the space, the gauge, the sink."""
    p.add_argument("--dim", type=int, default=ExperimentConfig.dim,
                   help="ambient dimension (1..3)")
    p.add_argument("--norm-p", type=float, default=ExperimentConfig.norm_p,
                   dest="norm_p", help="p of the ambient p-norm (>= 1, inf allowed)")
    p.add_argument("--body", default=ExperimentConfig.body,
                   help="convex body: box | box:lo,hi | ball | ball:r | simplex")
    p.add_argument("--gauge", default=ExperimentConfig.gauge,
                   help="gauge: sqrt | power:p | power:a/b | sqrt-ratio | "
                        "ratio | offset:p | identity")
    p.add_argument("--out", help="output path ('-' or omitted: stdout)")


def _add_common(p: argparse.ArgumentParser) -> None:
    """`_add_space` plus the flags of the commands that write a report."""
    _add_space(p)
    p.add_argument("--trials", type=int, default=ExperimentConfig.trials,
                   help="case count override (suite defaults apply when omitted)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                   help="root seed (explicit)")
    p.add_argument("--tol", type=float, default=ExperimentConfig.tol,
                   help="scales the flat, field, bump, witness, pairs and "
                        "ladder closed-form tolerances (default 1e-9)")
    p.add_argument("--lam", type=float, default=ExperimentConfig.lam,
                   help="slope threshold in (0, 1); default 0.5 (typical: 0.99)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   dest="fmt",
                   help="report serialization")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by the first `main` call: each
    `parse_args` fills a fresh namespace, so calls share no state."""
    ap = argparse.ArgumentParser(
        prog="nelab",
        description="Numerical laboratory for non-expansive mappings: "
                    "verification suites, density experiments, porosity probes.")
    sub = ap.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", default=ExperimentConfig.suite,
                    help="flat | field | bump | witness | pairs | invratio | "
                         "ladder | porosity | holes | all")
    _add_common(pv)
    pt = sub.add_parser("typical", help="unit-slope density experiment")
    _add_common(pt)
    pt.set_defaults(lam=0.99)
    pd = sub.add_parser("dual", help="gauge-scaled pipeline")
    _add_common(pd)
    pp = sub.add_parser("porosity", help="probe one built-in example set")
    pp.add_argument("--target", default=ExperimentConfig.target,
                    help=" | ".join(TARGETS))
    pp.add_argument("--point", type=float, default=ExperimentConfig.point,
                    help="probed point q")
    pp.add_argument("--window", type=float, default=ExperimentConfig.window,
                    help="hole-size window radius r")
    pp.add_argument("--eps0", type=float, default=ExperimentConfig.eps0,
                    help="start scale of the lower-pattern search")
    _add_common(pp)
    pg = sub.add_parser("gauge", help="emit pair-curve and ladder CSV")
    pg.add_argument("--rungs", type=int, default=12, help="ladder length")
    pg.add_argument("--points", type=int, default=64, help="curve resolution")
    _add_space(pg)
    return ap


_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the flags, checked and with its descriptors parsed;
    `--out` and `--format` say where the report goes and stay out."""
    return ExperimentConfig(**{k: v for k, v in vars(args).items()
                               if k in _CONFIG_FIELDS})


def _gauge_csv(cfg: ExperimentConfig, rungs: int, points: int) -> str:
    """Plot data: the pair inequality curve, then ladder rungs (when the
    gauge vanishes at zero; otherwise there is no ladder to tabulate)."""
    pair = build_pair(cfg.phi)
    lines = ["kind,t,phi,xi,prod_over_t,j,s_j,inv_ratio"]
    for t, pv, xv in zip(*pair.grid(points)):
        lines.append(f"curve,{csv_value(t)},{csv_value(pv)},{csv_value(xv)},"
                     f"{csv_value(pv * xv / t)},,,")
    if cfg.phi.inf == 0.0:
        lad = ladder(cfg.phi, cfg.convex_body, rungs=rungs)
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
            write_text(_gauge_csv(cfg, args.rungs, args.points), args.out)
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
        write_text(dumps(report, args.fmt), args.out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    print(report.summary_line(), file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
