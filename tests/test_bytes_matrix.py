"""A byte matrix over the command line: a fixed list of argv, run through
`cli.main` in one process, pinned by one sha256 per command family.

A family's digest covers, row by row, the argv, the exit code, the sha256
of stdout and stderr without its wall time.  Rows that exit nonzero are
kept with their codes: a later change to any of them, a mend included,
shows as a moved family.  On a mismatch the rows of each moved family are
printed, so the moved rows can be compared against a run of the old code.

Run as a script, it prints the rows, each family after a `# family NAME`
line, or with `--against REV` compares them with the rows of revision
REV and prints the moved ones, family by family:

    PYTHONPATH=src python tests/test_bytes_matrix.py [--against REV] [FAMILY ...]

REV's `src` is taken from `git archive` into a temporary directory and put
first on the path of a second run of this script; the exit code is 1 when
a row moved.  Each moved row is then run again on both sides, and the
first report field whose value differs is named under it: its JSON path,
or the line and column of a CSV report.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

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
    # `offset:0.5` runs the verdict search's branch for a demanded hole
    # t <= inf phi, which any positive radius meets
    "porosity": [["porosity", "--target", target, "--point", point,
                  "--window", window, "--gauge", gauge, "--norm-p", p]
                 for target in ("reciprocal", "zero", "cantor", "full", "empty")
                 for point, window in WINDOWS
                 for gauge in ("sqrt", "identity", "power:2/3", "power:3/4",
                               "offset:0.5")
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
    "porosity": "ad9aec36a64a314990b4c91370d060cad48a52aa7b131dbe115d999f3b164777",
    "csv-gauge": "50b3b78c1d5c1808b732622870f78e4ede6b79b6edacdf13b6eba59ba4d3dc96",
}


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _rows(argvs) -> list[str]:
    """One line per argv: argv, exit code, stdout sha256, stderr without
    the wall time."""
    rows = []
    for argv in argvs:
        rc, out, err = _run(argv)
        err = re.sub(r" wall=\S+", "", err)
        rows.append(f"{' '.join(argv)}\t{rc}\t"
                    f"{hashlib.sha256(out.encode()).hexdigest()}\t{err!r}")
    return rows


def _json_difference(a, b, path: str) -> str | None:
    # leaves compare by repr, so -0.0 differs from 0.0 and True from 1
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key not in a or key not in b:
                return f"{path}.{key}"
            if (found := _json_difference(a[key], b[key], f"{path}.{key}")):
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if (found := _json_difference(x, y, f"{path}[{i}]")):
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if repr(a) == repr(b) else path


def _csv_difference(old: str, new: str) -> str | None:
    a, b = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            cols = [j for j, (x, y) in enumerate(zip(ra, rb)) if x != y]
            j = cols[0] if cols else min(len(ra), len(rb))
            name = a[0][j] if i and j < len(a[0]) else str(j + 1)
            return f"line {i + 1}, column {name}"
    return None if len(a) == len(b) else f"line {min(len(a), len(b)) + 1}"


def first_difference(old: str, new: str) -> str:
    """Where two reports first differ: the JSON path of the first field,
    in document order, or the line of a CSV report and its column."""
    try:
        found = _json_difference(json.loads(old), json.loads(new), "$")
    except json.JSONDecodeError:
        found = _csv_difference(old, new)
    return found or "stdout unmoved (the exit code or stderr moved)"


def test_byte_matrix_is_unmoved():
    moved = {}
    for name, argvs in FAMILIES.items():
        rows = _rows(argvs)
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        if digest != DIGESTS.get(name):
            moved[name] = (digest, rows)
    for name, (digest, rows) in moved.items():
        print(f"family {name} moved: {DIGESTS.get(name)} -> {digest}")
        print("\n".join(rows))
    if moved:
        pytest.fail(f"moved families: {', '.join(moved)}")


def test_first_difference_names_the_first_moved_field():
    report = {"cases": [{"case_id": "a", "measured": {"x": 0.0, "ok": True}},
                        {"case_id": "b", "measured": {"x": 1.0}}]}
    moved = json.loads(json.dumps(report))
    moved["cases"][0]["measured"]["x"] = -0.0
    moved["cases"][1]["measured"]["x"] = 2.0
    assert first_difference(json.dumps(report), json.dumps(moved)) \
        == "$.cases[0].measured.x"
    moved["cases"][0]["measured"].update(x=0.0, ok=1)
    assert first_difference(json.dumps(report), json.dumps(moved)) \
        == "$.cases[0].measured.ok"
    moved["cases"][0]["measured"]["ok"] = True
    assert first_difference(json.dumps(report), json.dumps(moved)) \
        == "$.cases[1].measured.x"
    del moved["cases"][1]
    assert first_difference(json.dumps(report), json.dumps(moved)) \
        == "$.cases[1]"
    table = "id,m.x,m.y\na,1,2\nb,3,4\n"
    assert first_difference(table, table.replace("4", "5")) == "line 3, column m.y"
    assert first_difference(table, table + "c,5,6\n") == "line 4"
    assert first_difference(table, table) \
        == "stdout unmoved (the exit code or stderr moved)"


@contextlib.contextmanager
def _checkout(rev: str):
    """An environment whose PYTHONPATH is revision rev's src, taken with
    `git archive` into a temporary directory."""
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "-C", str(root), "archive", rev, "src"],
                             check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        yield dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))


def _script(env, args, stdin: str = "") -> str:
    """The stdout of this script, run with args in env."""
    return subprocess.run([sys.executable, __file__, *args], env=env,
                          input=stdin, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def _rows_of(env, names: list[str]) -> dict[str, list[str]]:
    """The rows of the families in names, by family, run in env."""
    rows: dict[str, list[str]] = {}
    for line in _script(env, names).splitlines():
        if line.startswith("# family "):
            rows[line.removeprefix("# family ")] = family = []
        else:
            family.append(line)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Print the byte matrix's rows, or compare them with "
                    "those of another revision.")
    ap.add_argument("--against", metavar="REV",
                    help="git revision to compare with; prints moved rows")
    # read a JSON list of argv from stdin, write the JSON list of their stdout
    ap.add_argument("--stdout-of", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("families", nargs="*", metavar="FAMILY",
                    help=f"families to run (default all: {', '.join(FAMILIES)})")
    args = ap.parse_args(argv)
    if args.stdout_of:
        json.dump([_run(argv)[1] for argv in json.load(sys.stdin)], sys.stdout)
        return 0
    unknown = set(args.families) - set(FAMILIES)
    if unknown:
        ap.error(f"unknown families: {', '.join(sorted(unknown))}")
    names = args.families or list(FAMILIES)
    if args.against is None:
        for name in names:
            print(f"# family {name}")
            print("\n".join(_rows(FAMILIES[name])))
        return 0
    with _checkout(args.against) as env:
        old = _rows_of(env, names)
        moved = {name: [(argv, a, b) for argv, a, b
                        in zip(FAMILIES[name], old[name], _rows(FAMILIES[name]))
                        if a != b]
                 for name in names}
        argvs = [argv for rows in moved.values() for argv, _, _ in rows]
        before = iter(json.loads(_script(env, ["--stdout-of"], json.dumps(argvs))))
    total = sum(len(FAMILIES[name]) for name in names)
    for name, rows in moved.items():
        print(f"# family {name}: {len(rows)} of {len(FAMILIES[name])} "
              f"rows moved")
        for argv, a, b in rows:
            print(f"- {a}\n+ {b}\n  first difference: "
                  f"{first_difference(next(before), _run(argv)[1])}")
    print(f"# {len(argvs)} of {total} rows moved against {args.against}")
    return 1 if argvs else 0


if __name__ == "__main__":
    sys.exit(main())
