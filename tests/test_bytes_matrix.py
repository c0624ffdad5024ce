"""A byte matrix over the command line: a fixed list of argv, run through
`cli.main` in one process, pinned by one sha256 per command family.

A family's digest covers, row by row, the argv, the exit code, the sha256
of stdout and stderr without its wall time.  Rows that exit nonzero are
kept with their codes: a later change to any of them, a mend included,
shows as a moved family.  On a mismatch the rows of each moved family are
printed, so the moved rows can be compared against a run of the old code.
"""
import hashlib
import re

import pytest

from nelab import cli

DIMS = ("1", "2", "3")
SUITES = ("flat", "field", "bump", "witness", "pairs", "invratio", "ladder",
          "porosity", "holes")
# (point, window): the defaults, a point inside the Cantor set's gaps, and
# the two tiny windows at which `porosity --target reciprocal` exits 1
WINDOWS = (("0", "0.01"), ("0", "0.1"), ("0.25", "0.01"), ("-0.5", "0.2"),
           ("0.25", "1e-300"), ("0", "1e-16"))

FAMILIES = {
    "verify-all": [["verify", "--suite", "all", "--seed", seed]
                   for seed in ("0", "1", "1000000")],
    "verify-suite": [["verify", "--suite", suite, "--seed", seed]
                     for suite in SUITES for seed in ("0", "3")],
    "dual-gauge": [["dual", "--gauge", gauge, "--dim", dim, "--norm-p", p]
                   for gauge in ("sqrt", "sqrt-ratio", "power:2/3",
                                 "power:3/4", "power:0.8", "offset:0.5")
                   for dim in DIMS for p in ("1", "2", "inf")],
    "typical-dual-body": [
        [cmd, "--dim", dim, "--norm-p", p, "--body", body]
        + (["--trials", "4"] if cmd == "typical" else [])
        for cmd in ("typical", "dual") for dim in DIMS
        for p in ("1", "2", "3", "inf") for body in ("box", "ball", "simplex")],
    "porosity": [["porosity", "--target", target, "--point", point,
                  "--window", window, "--gauge", gauge, "--norm-p", p]
                 for target in ("reciprocal", "zero", "cantor", "full", "empty")
                 for point, window in WINDOWS
                 for gauge in ("sqrt", "identity", "power:2/3", "power:3/4")
                 for p in ("1", "2", "3", "inf")],
    "csv-gauge": [["verify", "--suite", "all", "--format", "csv"],
                  ["typical", "--trials", "4", "--dim", "2", "--format", "csv"],
                  ["dual", "--dim", "2", "--format", "csv"],
                  ["porosity", "--format", "csv"],
                  ["gauge", "--gauge", "sqrt"],
                  ["gauge", "--gauge", "power:3/4", "--dim", "2"],
                  ["gauge", "--gauge", "offset:0.5", "--rungs", "6"]],
}

DIGESTS = {
    "verify-all": "0e1a7731ea43bb96b76d155d1ee9de446e332dcc6a6276b70b564e09bd644c15",
    "verify-suite": "a37f7f01215671ffe87f4a0b40d66c32d257f3b04bd424276f41754691f845b9",
    "dual-gauge": "62b42f9090f898b4947c15346a0587b983271370fa0e97c8d5e26946ff685fee",
    "typical-dual-body": "2e482ae47cb6b020fee4e20e06859bffbbb5a09616b0026d73bfffaac737b28c",
    "porosity": "861c2b997bb659959c12a017d48bcccf660433d7b7e99ae229887dbc455fe62f",
    "csv-gauge": "50b3b78c1d5c1808b732622870f78e4ede6b79b6edacdf13b6eba59ba4d3dc96",
}


def _rows(argvs, capsys) -> list[str]:
    """One line per argv: argv, exit code, stdout sha256, stderr without
    the wall time."""
    rows = []
    for argv in argvs:
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        err = re.sub(r" wall=\S+", "", err)
        rows.append(f"{' '.join(argv)}\t{rc}\t"
                    f"{hashlib.sha256(out.encode()).hexdigest()}\t{err!r}")
    return rows


def test_byte_matrix_is_unmoved(capsys):
    moved = {}
    for name, argvs in FAMILIES.items():
        rows = _rows(argvs, capsys)
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        if digest != DIGESTS.get(name):
            moved[name] = (digest, rows)
    for name, (digest, rows) in moved.items():
        print(f"family {name} moved: {DIGESTS.get(name)} -> {digest}")
        print("\n".join(rows))
    if moved:
        pytest.fail(f"moved families: {', '.join(moved)}")
