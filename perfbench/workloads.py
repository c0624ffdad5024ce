"""The four benchmark workloads: each maps a seed to a list of CLI argv lists.

An operation is one ``nelab.cli.main(argv)`` call.  The benchmark seed is
passed unchanged to every operation as ``--seed``, except that verify-all
also runs the seed ``SECOND_SEED`` above it; nothing else in an argv
depends on the seed.
"""
from __future__ import annotations


# verify-all runs two program seeds per benchmark seed: its wall time
# depends on the sizes of the nets and maps the bump suite draws (about
# 0.13 IQR / median across single seeds), and one extra 10-second input
# halves that part of the spread between benchmark runs
SECOND_SEED = 1_000_000


def _verify_all(seed: int) -> list[list[str]]:
    return [["verify", "--suite", "all", "--seed", str(s)]
            for s in (seed, seed + SECOND_SEED)]


def _typical_sweep(seed: int) -> list[list[str]]:
    return [["typical", "--trials", "20", "--dim", str(dim), "--norm-p", p,
             "--body", body, "--seed", str(seed)]
            for dim in (1, 2, 3) for p in ("2", "inf") for body in ("box", "ball")]


def _dual_sweep(seed: int) -> list[list[str]]:
    configs = [("sqrt", 1), ("sqrt", 2), ("sqrt", 3), ("sqrt-ratio", 1),
               ("power:2/3", 2)]
    return [["dual", "--gauge", gauge, "--dim", str(dim), "--seed", str(seed)]
            for gauge, dim in configs]


def _porosity_sweep(seed: int) -> list[list[str]]:
    probes = [("0", "0.01"), ("0", "0.1"), ("0.5", "0.1")]
    ops = [["porosity", "--target", target, "--point", point,
            "--window", window, "--seed", str(seed)]
           for target in ("reciprocal", "zero", "cantor", "empty")
           for point, window in probes]
    return ops + [["verify", "--suite", "porosity", "--seed", str(seed)]]


# name -> (argv generator, why the workload was chosen)
WORKLOADS = {
    "verify-all": (
        _verify_all,
        "verify --suite all at --seed N and N+1000000: 2 ops, 608 cases; "
        "the acceptance command and the only one whose map kernels see "
        "large batches (dense distance tensors)"),
    "typical-sweep": (
        _typical_sweep,
        "typical --trials 20 --dim D --norm-p P --body B --seed N over D "
        "1-3 x P 2/inf x B box/ball: local slope estimators on ~40-point "
        "batches; keeps the configs that crash today"),
    "dual-sweep": (
        _dual_sweep,
        "dual --gauge G --dim D --seed N over sqrt/1,2,3, sqrt-ratio/1, "
        "power:2/3/2: gauges, ladder witnesses, low-slope membership on "
        "~2.5-point map calls"),
    "porosity-sweep": (
        _porosity_sweep,
        "porosity --target T --point Q --window R --seed N over 4 sets x 3 "
        "windows, plus verify --suite porosity --seed N: oracle calls "
        "dominate, maps idle"),
}


def argv_list(workload: str, seed: int) -> list[list[str]]:
    """The operations of one pass of `workload` under `seed`, in order."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[workload][0](seed)
