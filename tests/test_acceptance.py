"""Acceptance gate: eight end-to-end criteria with pinned budgets.

Each test prints exactly one `criterion N (<name>): PASS|FAIL` line and
then asserts.  Tolerances are fixed here, not tuned: loosening any of
them is a change to what the package promises.
"""
import hashlib
import re
import time

from nelab.gauges import PowerGauge, ladder
from nelab.harness import (ExperimentConfig, closing_bound, run_typical,
                           run_verify)
from nelab.porosity import (FinitePointSet, ReciprocalSet, gamma_est,
                            lower_porous_at, upper_porous_at)
from nelab.reports import dumps_csv, dumps_json
from nelab.space import Box, Norm

import numpy as np


def _verdict(n: int, name: str, problems: list) -> None:
    print(f"criterion {n} ({name}): {'FAIL' if problems else 'PASS'}")
    assert not problems, "; ".join(problems)


def test_criterion_1_flat_collapse_family():
    rep = run_verify(ExperimentConfig(suite="flat"))
    problems = []
    if rep.total != 50:
        problems.append(f"expected 50 cases, got {rep.total}")
    problems += [f"case {c.case_id} failed" for c in rep.failures]
    if rep.wall >= 5.0:
        problems.append(f"wall {rep.wall:.2f}s over the 5s budget")
    _verdict(1, "flat-collapse family", problems)


def test_criterion_2_net_of_bumps():
    rep = run_verify(ExperimentConfig(suite="bump"))
    problems = []
    if rep.total != 20:
        problems.append(f"expected 20 cases, got {rep.total}")
    problems += [f"case {c.case_id} failed" for c in rep.failures]
    if rep.wall >= 10.0:
        problems.append(f"wall {rep.wall:.2f}s over the 10s budget")
    _verdict(2, "net-of-bumps perturbation", problems)


def test_criterion_3_steep_witnesses():
    rep = run_verify(ExperimentConfig(suite="witness"))
    problems = []
    h_cases = [c for c in rep.cases if re.match(r"witness/\d\d-", c.case_id)]
    if len(h_cases) != 100:
        problems.append(f"expected 100 perturbed-map cases, got {len(h_cases)}")
    two_pt = [c for c in rep.cases if c.case_id.startswith("witness/two")]
    if len(two_pt) != 20:
        problems.append(f"expected 20 two-point cases, got {len(two_pt)}")
    problems += [f"case {c.case_id} failed" for c in rep.failures]
    if rep.wall >= 10.0:
        problems.append(f"wall {rep.wall:.2f}s over the 10s budget")
    _verdict(3, "steep quotient witnesses", problems)


def test_criterion_4_gauge_pairs_and_ladders():
    t0 = time.perf_counter()
    problems = []
    for suite in ("pairs", "ladder"):
        rep = run_verify(ExperimentConfig(suite=suite))
        problems += [f"case {c.case_id} failed" for c in rep.failures]
    lad = ladder(PowerGauge(p=0.5), Box(np.array([-1.0]), np.array([1.0])),
                 Norm(2.0), rungs=20)
    for j in range(1, 21):
        want = 0.25 * 2.0 ** -(j - 1)
        if abs(lad.rung(j) - want) > 1e-10:
            problems.append(f"rung {j}: {lad.rung(j)} != {want}")
    wall = time.perf_counter() - t0
    if wall >= 3.0:
        problems.append(f"wall {wall:.2f}s over the 3s budget")
    _verdict(4, "gauge companions and ladders", problems)


def test_criterion_5_porosity_landmarks():
    t0 = time.perf_counter()
    problems = []
    ident = PowerGauge(p=1.0)
    rec = ReciprocalSet.default()
    exact = rec.exact_gamma([0.0], 0.01)
    if abs(exact / 0.01 - 0.005) > 5e-4:
        problems.append(f"analytic ratio {exact / 0.01} far from 0.005")
    est = gamma_est([0.0], 0.01, rec, trials=128, seed=0)
    if not est / 0.01 <= 0.01:
        problems.append(f"hole ratio {est / 0.01} above 0.01")
    up = upper_porous_at(rec, [0.0], ident)
    if up.porous:
        problems.append("accumulation point flagged upper-porous")
    lo = lower_porous_at(rec, [0.5], ident, eps0=1.0 / 6.0)
    if not (lo.porous and lo.constant >= 0.25):
        problems.append(f"expected lower-porous with constant >= 0.25, "
                        f"got {lo.status} {lo.constant}")
    zero = FinitePointSet(np.array([[0.0]]),
                          Box(np.array([-1.0]), np.array([1.0])), Norm(2.0))
    for r in (0.1, 0.3):
        ratio = gamma_est([0.0], r, zero, trials=128, seed=0) / r
        if not 0.475 <= ratio <= 0.525:
            problems.append(f"singleton hole ratio {ratio} outside 0.5 +- 5%")
    wall = time.perf_counter() - t0
    if wall >= 5.0:
        problems.append(f"wall {wall:.2f}s over the 5s budget")
    _verdict(5, "porosity landmarks", problems)


def test_criterion_6_closing_margin_sweep():
    t0 = time.perf_counter()
    problems = []
    for lam in (0.1, 0.5, 0.9):
        for K in (1.5, 2.0, 4.0):
            for diam in (1.0, 2.0, 4.0):
                beta, bound, margin = closing_bound(lam, K, diam)
                if not margin > 0.0:
                    problems.append(
                        f"margin {margin} at lam={lam} K={K} diam={diam}")
                want = (1.0 - lam) ** 2 / (97.0 * (3.0 - lam))
                if abs(margin - want) > 1e-12:
                    problems.append(f"margin formula off at lam={lam}")
    wall = time.perf_counter() - t0
    if wall >= 1.0:
        problems.append(f"wall {wall:.2f}s over the 1s budget")
    _verdict(6, "closing inequality margins", problems)


def test_criterion_7_typical_density():
    rep = run_typical(ExperimentConfig(lam=0.99))
    problems = []
    maps = [c for c in rep.cases if c.case_id.startswith("typical/map")]
    consts = [c for c in rep.cases if c.case_id.startswith("typical/const")]
    if len(maps) != 10:
        problems.append(f"expected 10 perturbed maps, got {len(maps)}")
    for c in maps:
        if c.measured["net_density"] != 1.0:
            problems.append(f"{c.case_id}: density {c.measured['net_density']}")
    for c in consts:
        if c.measured["net_density"] != 0.0:
            problems.append(f"{c.case_id}: density {c.measured['net_density']}")
    problems += [f"case {c.case_id} failed" for c in rep.failures]
    if rep.wall >= 10.0:
        problems.append(f"wall {rep.wall:.2f}s over the 10s budget")
    _verdict(7, "unit-slope density at net points", problems)


# sha256 of the seed-20260823 `verify --suite all` report bytes
GOLDEN_JSON = "d772c05c20cbecd599fa082b4c32055f846d71b5d53a20b81b44f525b14f8cd4"
GOLDEN_CSV = "f2c66b47224a64029ccd4269e6d2ccc62b9c5d7c61010a42f40a56d1b0d38605"


def test_criterion_8_byte_identical_reports():
    cfg = ExperimentConfig(suite="all", seed=20260823)
    first = run_verify(cfg)
    second = run_verify(ExperimentConfig(suite="all", seed=20260823))
    problems = []
    if dumps_json(first) != dumps_json(second):
        problems.append("json reports differ between identical runs")
    if dumps_csv(first) != dumps_csv(second):
        problems.append("csv reports differ between identical runs")
    if hashlib.sha256(dumps_json(first).encode()).hexdigest() != GOLDEN_JSON:
        problems.append("json report differs from its golden digest")
    if hashlib.sha256(dumps_csv(first).encode()).hexdigest() != GOLDEN_CSV:
        problems.append("csv report differs from its golden digest")
    problems += [f"case {c.case_id} failed" for c in first.failures]
    _verdict(8, "byte-identical reports", problems)
