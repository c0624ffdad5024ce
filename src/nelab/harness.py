"""Experiment harness: verification suites, typicality runs, dual pipeline.

Each suite turns one family of structural claims into per-case records
with measured values, bounds, and a pass flag.  Determinism contract:
every random draw comes from a generator keyed by (config seed, suite
tag, case index), cases are assembled in generation order, and nothing
in a report depends on timing.

Suites (and the `all` aggregate) — one per claim family:

* flat      - radial collapse maps: certificate vs sampled quotients,
              sup-distance to the identity, exact inner/outer branches;
* field     - two-anchor direction fields: unit length, branch rule,
              segments staying inside the body;
* bump      - net-of-bumps perturbations: isometry on the small balls,
              non-expansiveness, sup-distance budget;
* witness   - probe points certifying steep quotients for every map
              sup-close to a perturbed map (incl. the two-point net);
* pairs     - gauge companion construction with its grid inequality;
* invratio  - monotone vanishing of t -> phi^{-1}(t)/t;
* ladder    - scale ladders, rung selection, the closing-bound margin
              sweep, and an end-to-end gauge-scale witness run;
* porosity  - hole-size estimates and pointwise verdicts on the 1-D
              example sets, against their analytic gap structure;
* holes     - verified empty balls punched into low-slope sets around
              perturbed maps.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import (EstimationError, GaugeError, LadderExhausted, RangeError,
                     SamplerExhausted)
from .gauges import (Gauge, PiecewiseGauge, PowerGauge, RatioGauge,
                     SqrtRatioGauge, build_pair, gauge_from_desc, gauge_K,
                     ladder, select_j)
from .maps import (AffineContraction, Constant, ConvexCombo, Identity, MapExpr,
                   lip_global_est, lip_local_profile, pair_quotients,
                   random_nonexpansive, steep_density, sup_dist_est)
from .perturb import (Closing, bump_perturb, bump_witnesses, direction_field,
                      flat_collapse)
from .porosity import (IntervalUnionSet, gamma_est, ladder_witness,
                       low_slope_member, lower_porous_at, oracle_from_desc,
                       upper_porous_at)
from .reports import CaseRecord, Report
from .space import (Ball, Box, ConvexBody, Hull, Net, Norm, body_from_desc,
                    grid_candidates, lattice_net, nearest)

LAM_SWEEP = (0.1, 0.25, 0.5, 0.75, 0.9)
K_SWEEP = (1.5, 2.0, 4.0)
DIAM_SWEEP = (1.0, 2.0, 4.0)

_TAGS = {"flat": 1, "field": 2, "bump": 3, "witness": 4, "witness2": 5,
         "pairs": 6, "invratio": 7, "ladder": 8, "porosity": 9, "holes": 10,
         "typical": 11, "dual": 12}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; no ambient entropy enters anywhere.

    Construction checks every field and parses the descriptors, whichever
    command carries them, with the one parser of each: `convex_body` (from
    `body`) and `oracle` (from `target`), both in the norm of `norm_p`, and
    `phi` (from `gauge`) are plain attributes, not fields, so `as_dict`
    holds only the experiment's fields and the runners parse nothing.  The
    config is frozen, so the parsed objects always match the fields."""

    suite: str = "all"
    dim: int = 1
    norm_p: float = 2.0
    body: str = "box"
    trials: int | None = None
    seed: int = 0
    tol: float = 1e-9
    gauge: str = "sqrt"
    lam: float = 0.5
    target: str = "reciprocal"      # porosity runs: which example set
    point: float = 0.0              # porosity runs: the probed point
    window: float = 0.01            # porosity runs: hole-size window radius
    eps0: float = 0.25              # porosity runs: lower-pattern start scale

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r} "
                             f"(choose from {', '.join(SUITES)}, all)")
        if not (1 <= self.dim <= 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.tol < math.inf):
            raise ValueError("tol must be finite and >= 0")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lam must lie in (0, 1)")
        if not (0.0 < self.window < math.inf and 0.0 < self.eps0 < math.inf):
            raise ValueError("window and eps0 must be positive and finite")
        norm = Norm(self.norm_p)
        object.__setattr__(self, "convex_body",
                           body_from_desc(self.body, self.dim, norm))
        object.__setattr__(self, "phi", gauge_from_desc(self.gauge))
        object.__setattr__(self, "oracle", oracle_from_desc(self.target, norm))
        if not self.oracle.ambient.contains(np.array([self.point])):
            raise ValueError(f"point {self.point} outside the ambient space")

    def scaled(self, pinned: float) -> float:
        """A check tolerance pinned at default `tol`; scales with --tol."""
        return pinned * (self.tol / 1e-9)

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["trials"] = -1 if d["trials"] is None else d["trials"]
        return d


def _case_rng(cfg: ExperimentConfig, tag: str, i: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _TAGS[tag], i])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _random_space(cfg: ExperimentConfig, tag: str, i: int, dims: int,
                  allow_hull: bool) -> tuple[np.random.Generator, int,
                                             ConvexBody]:
    """Case i's generator and its random space: (rng, dim, body), with
    dim = 1 + i % dims and a random box, ball or (when allowed, in 1-D and
    2-D) hull in an l1, l2 or sup norm."""
    rng = _case_rng(cfg, tag, i)
    dim = 1 + i % dims
    norm = Norm(float(rng.choice([1.0, 2.0, math.inf])))
    roll = rng.random()
    if roll < 0.45:
        half = 1.0 + rng.uniform(0.0, 1.0, size=dim)
        mid = rng.uniform(-0.3, 0.3, size=dim)
        body: ConvexBody = Box(mid - half, mid + half, norm)
    elif roll < 0.85 or not allow_hull or dim > 2:
        c = rng.uniform(-0.3, 0.3, size=dim)
        body = Ball(c, float(rng.uniform(0.8, 1.6)), norm)
    else:
        body = Hull(rng.uniform(-1.5, 1.5, size=(dim + 3, dim)), norm)
    return rng, dim, body


def _raises(exc: type[Exception], fn, *args) -> bool:
    """Does fn(*args) raise exc?"""
    try:
        fn(*args)
    except exc:
        return True
    return False


def _attempt(measure, *args) -> tuple[dict, bool]:
    """(measured, passed) from measure(*args); an estimator, sampler or
    gauge failure fails its case with the message, not the run."""
    try:
        return measure(*args)
    except (EstimationError, GaugeError, RangeError, SamplerExhausted) as exc:
        return {"error": str(exc)}, False


# --------------------------------------------------------------------------
# flat: radial collapse maps


def _flat_inner_exact(m: MapExpr, center: np.ndarray, delta: float,
                      body: ConvexBody, rng: np.random.Generator) -> bool:
    radii = 0.999 * delta * np.arange(17) / 16      # the centre itself first
    pts = body.probes(center[None, :], radii, rng)[0]
    return bool(np.all(m._apply(pts) == center))


def _flat_outer_exact(m: MapExpr, center: np.ndarray, r: float,
                      body: ConvexBody,
                      rng: np.random.Generator) -> tuple[bool, int]:
    cand = np.vstack([body.sample_many(rng, 200), body.extreme_points()])
    far = cand.compress(body.norm.of(cand - center) >= r, axis=0)
    if far.shape[0] == 0:
        return True, 0
    return bool(np.all(m._apply(far) == far)), int(far.shape[0])


def suite_flat(cfg: ExperimentConfig) -> list[CaseRecord]:
    n = cfg.trials or 50
    cases = []
    for i in range(n):
        rng, dim, body = _random_space(cfg, "flat", i, 3, allow_hull=i % 9 == 7)
        diam = body.diameter
        center = body.sample(rng)
        r = float(rng.uniform(0.15, 0.45)) * diam
        delta = float(rng.uniform(0.05, 0.85)) * r
        m = flat_collapse(center, delta, r, body)
        cert = m.certificate
        mq = lip_global_est(m, body, pairs=1000, seed=rng)
        sd = sup_dist_est(m, Identity(), body, samples=400,
                          seed=_sub_seed(rng))
        inner = _flat_inner_exact(m, center, delta, body, rng)
        outer, far_n = _flat_outer_exact(m, center, r, body, rng)
        passed = (mq <= cert + cfg.scaled(1e-9)
                  and sd <= delta + cfg.scaled(1e-12) and inner and outer)
        cases.append(CaseRecord(
            f"flat/{i:03d}",
            {"dim": dim, "p": body.norm.p, "body": type(body).__name__,
             "delta": delta, "r": r, "diam": diam},
            {"max_quotient": mq, "sup_dist_id": sd, "inner_exact": inner,
             "outer_exact": outer, "outer_points": far_n},
            {"certificate": cert, "quotient_bound": cert + cfg.scaled(1e-9),
             "sup_dist_bound": delta + cfg.scaled(1e-12)},
            passed))
    return cases


# --------------------------------------------------------------------------
# field: two-anchor direction fields


def suite_field(cfg: ExperimentConfig) -> list[CaseRecord]:
    n = cfg.trials or 30
    cases = []
    for i in range(n):
        rng, dim, body = _random_space(cfg, "field", i, 3, allow_hull=True)
        norm = body.norm
        s = float(rng.uniform(0.15, 0.6)) * min(1.0, body.diameter)
        fld = direction_field(body, s)
        zs = body.sample_many(rng, 40)
        es = fld(zs)
        worst_unit = float(np.abs(norm.of(es) - 1.0).max())
        # the branch rule picks v from at least s/3 away, else w; a step of
        # s/3 along e_z must bring z exactly s/3 closer to that anchor
        far = norm.of(fld.v - zs) >= s / 3.0
        anchor = np.where(far[:, None], fld.v, fld.w)
        gain = norm.of(anchor - zs) \
            - norm.of(anchor - (zs + (s / 3.0) * es))
        branch_ok = bool(np.all(np.abs(gain - s / 3.0) <= cfg.scaled(1e-12)))
        seg_ok = fld.segment_inside(body, zs)
        unit_ok = worst_unit <= cfg.scaled(1e-12)
        anchors_ok = float(norm.of(fld.w - fld.v)) > 2.0 * s / 3.0
        passed = unit_ok and branch_ok and seg_ok and anchors_ok
        cases.append(CaseRecord(
            f"field/{i:03d}",
            {"dim": dim, "p": norm.p, "body": type(body).__name__, "s": s},
            {"max_unit_defect": worst_unit, "branch_exact": branch_ok,
             "segments_inside": seg_ok, "anchor_gap": float(norm.of(fld.w - fld.v))},
            {"unit_tol": cfg.scaled(1e-12), "anchor_gap_min": 2.0 * s / 3.0},
            passed))
    return cases


# --------------------------------------------------------------------------
# bump: net-of-bumps perturbations


def _isometry_residual(g: MapExpr, net: Net, rho: float, body: ConvexBody,
                       rng: np.random.Generator, probes: int) -> float:
    xs, norm = net.points, body.norm
    ys = body.probes(xs, rho * np.arange(1, probes + 1) / probes, rng)
    gys = g._apply(ys.reshape(-1, xs.shape[1])).reshape(ys.shape)
    res = np.abs(norm.of(gys - g._apply(xs)[:, None, :])
                 - norm.of(ys - xs[:, None, :]))
    return float(res.max())


def _bump_case(cfg: ExperimentConfig, i: int) -> CaseRecord:
    """Case i of `bump`, drawn only from its own generator."""
    rng, dim, body = _random_space(cfg, "bump", i, 3, allow_hull=False)
    lo_s = 0.22 if dim < 3 else 0.3
    s = float(rng.uniform(lo_s, 0.45)) * min(1.0, body.diameter)
    # a coarse candidate grid: about half the net points of lattice_net's
    # default one, which the bump report bytes are still pinned to
    net = lattice_net(body, s, per_axis=(41, 9, 5))
    f = random_nonexpansive(body, seed=_sub_seed(rng))
    eps = float(rng.uniform(0.1, 0.8))
    g = bump_perturb(f, net, eps, body)
    sd = sup_dist_est(g, f, body, samples=600, seed=_sub_seed(rng))
    lb = lip_global_est(g, body, pairs=10000, seed=_sub_seed(rng))
    iso = _isometry_residual(g, net, g.rho, body, rng, probes=100)
    # g's certificate is max(1, (1 - delta/r) cert(f) (1 + delta/(r - delta)));
    # the product is at most 1 exactly but can round one ulp above it
    q_bound = 1.0 + cfg.scaled(1e-9)
    passed = (sd <= eps + cfg.scaled(1e-12) and lb <= q_bound
              and iso <= cfg.scaled(1e-9) and g.certificate <= q_bound)
    return CaseRecord(
        f"bump/{i:03d}",
        {"dim": dim, "p": body.norm.p, "body": type(body).__name__,
         "s": net.s, "eps": eps, "net_size": len(net), "rho": g.rho},
        {"sup_dist": sd, "pair_quotient": lb, "isometry_residual": iso,
         "certificate": g.certificate},
        {"eps": eps, "quotient_bound": q_bound,
         "isometry_tol": cfg.scaled(1e-9)},
        passed)


def _bump_indices(cfg: ExperimentConfig) -> range:
    return range(cfg.trials or 20)


def suite_bump(cfg: ExperimentConfig) -> list[CaseRecord]:
    return [_bump_case(cfg, i) for i in _bump_indices(cfg)]


# --------------------------------------------------------------------------
# witness: steep quotients survive sup-metric perturbation


def _witness_case(cfg: ExperimentConfig, case_id: str, params: dict,
                  minq: float, beta: float, bound: float,
                  lam: float) -> CaseRecord:
    """A witness verdict: the least quotient beats lam and, up to
    bound_tol, the bound certified for maps beta*eps-close to g."""
    tol = cfg.scaled(1e-9)
    return CaseRecord(case_id, params, {"min_quotient": minq, "beta": beta},
                      {"lam": lam, "bound": bound, "bound_tol": tol},
                      minq > lam and minq >= bound - tol)


def suite_witness(cfg: ExperimentConfig) -> list[CaseRecord]:
    total = cfg.trials or 100
    groups = max(1, math.ceil(total / 10))
    cases = []
    for gi in range(groups):
        rng, dim, body = _random_space(cfg, "witness", gi, 2, allow_hull=False)
        norm, diam = body.norm, body.diameter
        s = float(rng.uniform(0.22, 0.45)) * min(1.0, diam)
        net = lattice_net(body, s)
        lam = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
        eps = float(rng.uniform(0.1, 0.8))
        f = random_nonexpansive(body, seed=_sub_seed(rng))
        g = bump_perturb(f, net, eps, body)
        beta, bound = Closing(diam).bump(lam, net.s)
        ys = bump_witnesses(g, body)
        h_per = min(10, total - 10 * gi)
        for hi in range(h_per):
            if hi == 0:
                u = 1.0
            elif hi == 1:
                u = 0.0
            else:
                u = float(rng.uniform(0.05, 1.0))
            tau = u * beta * eps / diam
            h: MapExpr = g if tau == 0.0 else \
                ConvexCombo(tau, g, Constant(body.sample(rng)))
            minq = float(pair_quotients(h, norm, g.centers, ys).min())
            cases.append(_witness_case(
                cfg, f"witness/{gi:02d}-{hi:02d}",
                {"dim": dim, "p": norm.p, "s": net.s, "eps": eps, "lam": lam,
                 "tau": tau, "net_size": len(net)}, minq, beta, bound, lam))
    for pi in range(20):
        rng, dim, body = _random_space(cfg, "witness2", pi, 2,
                                       allow_hull=False)
        norm, diam = body.norm, body.diameter
        x = body.sample(rng)
        y = body.sample(rng)
        while float(norm.of(y - x)) < 0.2 * diam:
            y = body.sample(rng)
        s = min(float(norm.of(y - x)), 0.5)
        net = Net(np.stack([x, y]), s, norm)
        lam = float(rng.uniform(0.2, 0.8))
        eps = float(rng.uniform(0.2, 0.7))
        f: MapExpr = Identity() if pi % 2 == 0 else \
            random_nonexpansive(body, seed=_sub_seed(rng))
        g = bump_perturb(f, net, eps, body)
        beta, bound = Closing(diam).bump(lam, s)
        ys = bump_witnesses(g, body)
        tau = beta * eps / diam
        minq = float(min(
            pair_quotients(g, norm, g.centers, ys).min(),
            pair_quotients(ConvexCombo(tau, g, Constant(body.sample(rng))),
                           norm, g.centers, ys).min()))
        cases.append(_witness_case(
            cfg, f"witness/two-{pi:02d}",
            {"dim": dim, "p": norm.p, "s": s, "eps": eps, "lam": lam},
            minq, beta, bound, lam))
    return cases


# --------------------------------------------------------------------------
# pairs: companion gauges


_PAIR_GAUGES: tuple[tuple[str, Gauge], ...] = (
    ("sqrt", PowerGauge(p=0.5)),
    ("power-2/3", PowerGauge(p=2.0 / 3.0)),
    ("sqrt-ratio", SqrtRatioGauge()),
    ("offset-sqrt", PowerGauge(p=0.5, offset=1.0)),
)


def _roundtrip_residual(phi: Gauge, count: int) -> float:
    lo, hi = phi.inf, phi.sup
    ys = lo + (hi - lo) * np.linspace(1e-6, 1.0 - 1e-6, count)
    worst = 0.0
    for y in ys:
        yy = float(phi.value(phi.inverse(float(y))))
        worst = max(worst, abs(yy - float(y)))
    return worst


def suite_pairs(cfg: ExperimentConfig) -> list[CaseRecord]:
    cases = []
    for name, phi in _PAIR_GAUGES:
        pair = build_pair(phi)
        ts, phi_t, xi_t = pair.grid(1000)
        ratio = phi_t * xi_t / ts
        lo_ratio, hi_ratio = float(ratio.min()), float(ratio.max())
        rt = _roundtrip_residual(phi, 1000)
        passed = (lo_ratio >= 1.0 / pair.K - cfg.scaled(1e-12)
                  and hi_ratio <= pair.K + cfg.scaled(1e-12)
                  and rt <= cfg.scaled(1e-10))
        cases.append(CaseRecord(
            f"pairs/{name}",
            {"gauge": name, "K": pair.K},
            {"grid_ratio_min": lo_ratio, "grid_ratio_max": hi_ratio,
             "roundtrip_residual": rt},
            {"ratio_lo": 1.0 / pair.K, "ratio_hi": pair.K,
             "roundtrip_tol": cfg.scaled(1e-10)},
            passed))
    for name, phi in (("identity", PowerGauge(p=1.0)), ("ratio", RatioGauge())):
        rejected = _raises(GaugeError, build_pair, phi)
        cases.append(CaseRecord(
            f"pairs/reject-{name}", {"gauge": name},
            {"rejected": rejected}, {"must_reject": True}, rejected))
    sqrt_pair = build_pair(PowerGauge(p=0.5))
    xi = sqrt_pair.xi
    minimal = True
    if isinstance(xi, PiecewiseGauge) and len(xi.knots_t) >= 3:
        mid = len(xi.knots_t) // 2
        reduced = PiecewiseGauge(np.delete(xi.knots_t, mid),
                                 np.delete(xi.knots_y, mid))
        # hull vertices sit strictly above the chord of their neighbours, so
        # removing one must break majorization of that graph point
        minimal = float(reduced.value(float(xi.knots_t[mid]))) < \
            float(xi.knots_y[mid])
    cases.append(CaseRecord(
        "pairs/majorant-minimal", {"gauge": "sqrt"},
        {"vertex_needed": minimal}, {"expected": True}, minimal))
    ks = (gauge_K(PowerGauge(p=0.5)), gauge_K(PowerGauge(p=1.0)),
          gauge_K(PowerGauge(p=1.0, coeff=2.0)))
    k_ok = (abs(ks[0] - 1.0) <= 1e-8 and ks[1] == 1.0 and ks[2] == 0.5)
    cases.append(CaseRecord(
        "pairs/gauge-k", {"gauges": "sqrt,identity,2t"},
        {"K_sqrt": ks[0], "K_id": ks[1], "K_2t": ks[2]},
        {"expected": "1,1,0.5"}, k_ok))
    return cases


# --------------------------------------------------------------------------
# invratio: phi^{-1}(t)/t decreases to zero with t


def suite_invratio(cfg: ExperimentConfig) -> list[CaseRecord]:
    cases = []
    for name, phi in (("sqrt", PowerGauge(p=0.5)),
                      ("power-2/3", PowerGauge(p=2.0 / 3.0)),
                      ("sqrt-ratio", SqrtRatioGauge())):
        ms = [m for m in range(1, 31) if 2.0 ** -m < phi.sup]
        ratios = [phi.inverse(2.0 ** -m) / 2.0 ** -m for m in ms]
        drops = [ratios[k + 1] <= ratios[k] * (1.0 + 1e-12)
                 for k in range(len(ratios) - 1)]
        mono = all(drops)
        vanish = min(ratios) < 1e-3
        cases.append(CaseRecord(
            f"invratio/{name}",
            {"gauge": name, "probes": len(ms)},
            {"ratio_first": ratios[0], "ratio_last": ratios[-1],
             "monotone": mono, "vanishes": vanish},
            {"vanish_bound": 1e-3}, mono and vanish))
    return cases


# --------------------------------------------------------------------------
# ladder: rungs, selection, margins, end-to-end witness


def suite_ladder(cfg: ExperimentConfig) -> list[CaseRecord]:
    cases = []
    for lam in LAM_SWEEP:
        for K in K_SWEEP:
            for diam in DIAM_SWEEP:
                beta, bound, margin = Closing(diam).gauge(lam, K)
                closed = (1.0 - lam) ** 2 / (97.0 * (3.0 - lam))
                ok = margin > 0.0 and abs(margin - closed) <= 1e-12
                cases.append(CaseRecord(
                    f"ladder/margin-{lam}-{K}-{diam}",
                    {"lam": lam, "K": K, "diam": diam},
                    {"beta": beta, "bound": bound, "margin": margin},
                    {"margin_closed_form": closed}, ok))
    body = Box(np.array([-1.0]), np.array([1.0]))
    lad = ladder(PowerGauge(p=0.5), body, rungs=20)
    rung_err = max(abs(lad.rung(j) - 0.25 * 2.0 ** (1 - j))
                   for j in range(1, 21))
    resid = max(abs(lad.inv_ratio(j + 1) - 0.5 * lad.inv_ratio(j))
                / lad.inv_ratio(j) for j in range(1, 20))
    cases.append(CaseRecord(
        "ladder/sqrt-closed-form", {"gauge": "sqrt", "rungs": 20},
        {"max_rung_error": rung_err, "max_residual": resid},
        {"tol": cfg.scaled(1e-10)},
        rung_err <= cfg.scaled(1e-10) and resid <= cfg.scaled(1e-10)))
    lad23 = ladder(PowerGauge(p=2.0 / 3.0), body, rungs=12)
    err23 = max(abs(lad23.rung(j + 1) - lad23.rung(j) / 4.0)
                for j in range(1, 12))
    cases.append(CaseRecord(
        "ladder/power-2/3-quartering", {"gauge": "power-2/3", "rungs": 12},
        {"max_step_error": err23}, {"tol": cfg.scaled(1e-10)},
        err23 <= cfg.scaled(1e-10)))
    ladsr = ladder(SqrtRatioGauge(), body, rungs=10)
    residsr = max(abs(ladsr.inv_ratio(j + 1) - 0.5 * ladsr.inv_ratio(j))
                  / ladsr.inv_ratio(j) for j in range(1, 10))
    cases.append(CaseRecord(
        "ladder/sqrt-ratio-bisected", {"gauge": "sqrt-ratio", "rungs": 10},
        {"max_residual": residsr}, {"tol": cfg.scaled(1e-10)},
        residsr <= cfg.scaled(1e-10)))
    sel_cases = ((0.2, 1), (0.1, 2), (0.25, 1), (0.05, 3))
    sel_ok = all(select_j(lad, eps) == want for eps, want in sel_cases)
    range_ok = _raises(RangeError, select_j, lad, 0.5)
    exhaust_ok = _raises(LadderExhausted, select_j, lad, 1e-9)
    cases.append(CaseRecord(
        "ladder/selection", {"gauge": "sqrt"},
        {"examples_ok": sel_ok, "range_error_ok": range_ok,
         "exhausted_ok": exhaust_ok},
        {"expected": True}, sel_ok and range_ok and exhaust_ok))
    for wi, (gname, phi, eps) in enumerate(
            (("sqrt", PowerGauge(p=0.5), 0.1),
             ("power-2/3", PowerGauge(p=2.0 / 3.0), 0.3))):
        rng = _case_rng(cfg, "ladder", wi)
        pair = build_pair(phi)
        ladg = ladder(phi, body, rungs=12)
        f = random_nonexpansive(body, seed=_sub_seed(rng))
        rep = ladder_witness(f, eps, cfg.lam, ladg, pair, body=body,
                             seed=_sub_seed(rng))
        minq = float(rep.min_quotients.min())
        cases.append(CaseRecord(
            f"ladder/witness-{gname}",
            {"gauge": gname, "eps": eps, "lam": cfg.lam, "j": rep.j,
             "net_size": len(rep.zs)},
            {"min_quotient": minq, "beta": rep.beta, "bound": rep.bound,
             "margin": rep.margin, "h_radius": rep.h_radius},
            {"lam": cfg.lam},
            rep.margin > 0.0 and minq > cfg.lam))
    return cases


# --------------------------------------------------------------------------
# porosity: example sets with analytic gap structure


def suite_porosity(cfg: ExperimentConfig) -> list[CaseRecord]:
    norm = Norm(2.0)
    rec = oracle_from_desc("reciprocal", norm)
    idg = PowerGauge(p=1.0)
    cases = []
    rng = _case_rng(cfg, "porosity", 0)

    ex = rec.exact_gamma(np.zeros(1), 0.01)
    est = gamma_est(np.zeros(1), 0.01, rec, trials=128, seed=_sub_seed(rng))
    ok = (ex is not None and ex / 0.01 <= 0.01 and est is not None
          and est <= ex + 1e-12 and est >= 0.85 * ex)
    cases.append(CaseRecord(
        "porosity/reciprocal-gamma", {"q": 0.0, "r": 0.01},
        {"exact": ex, "estimate": est},
        {"ratio_bound": 0.01, "recovery": 0.85}, ok))

    zero = oracle_from_desc("zero", norm)
    exz = zero.exact_gamma(np.zeros(1), 0.3)
    estz = gamma_est(np.zeros(1), 0.3, zero, trials=64, seed=_sub_seed(rng))
    okz = (exz == 0.15 and estz is not None
           and abs(estz / 0.3 - 0.5) <= 0.05 * 0.5)
    cases.append(CaseRecord(
        "porosity/zero-gamma", {"q": 0.0, "r": 0.3},
        {"exact": exz, "estimate": estz}, {"ratio": 0.5, "rel_tol": 0.05}, okz))

    empty = oracle_from_desc("empty", norm)
    este = gamma_est(np.zeros(1), 0.25, empty, trials=16, seed=_sub_seed(rng))
    cases.append(CaseRecord(
        "porosity/empty-gamma", {"q": 0.0, "r": 0.25},
        {"estimate": este}, {"expected": 0.25}, este == 0.25))

    full = oracle_from_desc("full", norm)
    estf = gamma_est(np.array([0.3]), 0.2, full, trials=16, seed=_sub_seed(rng))
    vf = upper_porous_at(full, np.array([0.3]), idg, trials=16,
                         seed=_sub_seed(rng))
    cases.append(CaseRecord(
        "porosity/full-interval", {"q": 0.3, "r": 0.2},
        {"estimate_none": estf is None, "verdict": vf.status},
        {"expected": "not-detected"},
        estf is None and vf.status == "not-detected"))

    v_rec_up = upper_porous_at(rec, np.zeros(1), idg, trials=48,
                               seed=_sub_seed(rng))
    cases.append(CaseRecord(
        "porosity/reciprocal-upper", {"q": 0.0, "gauge": "identity"},
        {"verdict": v_rec_up.status}, {"expected": "not-detected"},
        v_rec_up.status == "not-detected"))

    v_zero_up = upper_porous_at(zero, np.zeros(1), idg, trials=48,
                                seed=_sub_seed(rng))
    v_zero_lo = lower_porous_at(zero, np.zeros(1), idg, eps0=0.5, trials=48,
                                seed=_sub_seed(rng))
    implication = (not v_zero_lo.porous) or v_zero_up.porous
    okp = (v_zero_up.porous and v_zero_up.constant >= 0.25
           and v_zero_lo.porous and v_zero_lo.constant >= 0.25 and implication)
    cases.append(CaseRecord(
        "porosity/zero-pointwise", {"q": 0.0, "gauge": "identity"},
        {"upper": v_zero_up.status, "alpha": v_zero_up.constant,
         "lower": v_zero_lo.status, "beta": v_zero_lo.constant,
         "lower_implies_upper": implication},
        {"alpha_min": 0.25, "beta_min": 0.25}, okp))

    v_half = lower_porous_at(rec, np.array([0.5]), idg, eps0=1.0 / 6.0,
                             trials=48, seed=_sub_seed(rng))
    cases.append(CaseRecord(
        "porosity/reciprocal-lower-half", {"q": 0.5, "gauge": "identity"},
        {"verdict": v_half.status, "beta": v_half.constant},
        {"beta_min": 0.25}, v_half.porous and v_half.constant >= 0.25))

    checked = ((v_zero_up, zero), (v_zero_lo, zero), (v_half, rec))
    holes_ok = all(v.verify_holes(orc, idg) for v, orc in checked)
    cases.append(CaseRecord(
        "porosity/witness-holes-empty",
        {"witnesses": sum(len(v.radii) for v, _ in checked)},
        {"all_empty": holes_ok}, {"expected": True}, holes_ok))

    cantor = IntervalUnionSet.cantor(3)
    exc = cantor.exact_gamma(np.array([0.5]), 0.5)
    estc = gamma_est(np.array([0.5]), 0.5, cantor, trials=64,
                     seed=_sub_seed(rng))
    exc2 = cantor.exact_gamma(np.array([0.5]), 0.05)
    okc = (exc is not None and abs(exc - 1.0 / 6.0) <= 1e-12
           and estc is not None and estc >= 0.99 * exc
           and estc <= exc + 1e-9 and exc2 == 0.05)
    cases.append(CaseRecord(
        "porosity/cantor-gamma", {"level": 3, "q": 0.5},
        {"exact": exc, "estimate": estc, "inside_gap": exc2},
        {"expected": 1.0 / 6.0}, okc))

    a1 = Closing(2.0).alpha(0.5)
    a2 = Closing(0.0).alpha(0.0)
    oka = abs(a1 - 0.5 / 144.0) <= 1e-18 and a2 == 1.0 / 48.0
    cases.append(CaseRecord(
        "porosity/alpha-formula", {"cases": 2},
        {"alpha_half_2": a1, "alpha_0_0": a2},
        {"expected": "0.5/144, 1/48"}, oka))

    body01 = Box(np.array([0.0]), np.array([1.0]))
    lad01 = ladder(PowerGauge(p=0.5), body01, rungs=12)

    def member(f: MapExpr, x: float, lam: float) -> bool:
        return bool(low_slope_member(f, [[x]], lam, lad01, body=body01,
                                     seed=_sub_seed(rng))[0])

    m_const = member(Constant(np.array([0.4])), 0.5, 0.1)
    m_id = member(Identity(), 0.5, 0.9)
    ramp = ConvexCombo(
        0.5, Constant(np.array([0.0])),
        flat_collapse(np.array([0.0]), 0.5, 1.0, body01))
    m_ramp = member(ramp, 0.2, 0.5)
    okm = m_const and not m_id and m_ramp
    cases.append(CaseRecord(
        "porosity/low-slope-members", {"lam": "0.1/0.9/0.5"},
        {"const": m_const, "identity": m_id, "ramp": m_ramp},
        {"expected": "true/false/true"}, okm))
    return cases


# --------------------------------------------------------------------------
# holes: verified empty balls in low-slope sets (shared with run_dual)


def _dual_cases(cfg: ExperimentConfig, tag: str) -> list[CaseRecord]:
    body, phi = cfg.convex_body, cfg.phi
    diam = body.diameter
    pair = build_pair(phi)
    cases = []
    if phi.inf > 0.0:
        rng = _case_rng(cfg, tag, 0)
        net = lattice_net(body, 0.25 * min(1.0, diam))
        f = Constant(body.sample(rng))
        g = bump_perturb(f, net, 0.25, body)
        dens = steep_density(g, body, 0.99, 0.5 * g.rho, net.points, seed=rng)
        cases.append(CaseRecord(
            f"{tag}/reduced-to-plain-density",
            {"gauge": cfg.gauge, "K": pair.K, "inf_phi": phi.inf},
            {"net_density": dens}, {"expected": 1.0}, dens == 1.0))
        return cases
    lad = ladder(phi, body, rungs=12)
    lam = cfg.lam
    alpha = Closing(diam).alpha(lam)
    j_top = min(12, len(lad))
    for ei, frac in enumerate((0.9, 0.45)):
        rng = _case_rng(cfg, tag, ei)
        eps = frac * lad.inv_ratio(1)
        f = random_nonexpansive(body, seed=_sub_seed(rng))
        rep = None

        def witness() -> tuple[dict, bool]:
            nonlocal rep
            rep = ladder_witness(f, eps, lam, lad, pair, body=body,
                                 seed=_sub_seed(rng))
            minq = float(rep.min_quotients.min())
            return ({"min_quotient": minq, "beta": rep.beta,
                     "bound": rep.bound, "margin": rep.margin},
                    minq > lam and rep.margin > 0.0)

        measured, passed = _attempt(witness)
        cases.append(CaseRecord(
            f"{tag}/witness-{ei}",
            {"eps": eps, "lam": lam, "j": None if rep is None else rep.j,
             "gauge": cfg.gauge},
            measured, {"lam": lam}, passed))
        if rep is None:
            continue        # no witnesses to probe for holes
        s_j = lad.rung(rep.j)
        net_pts = rep.g.centers

        def hole(x, z, hole_r) -> tuple[dict, bool]:
            fit = hole_r <= rep.probe_r * (1.0 + 1e-12)
            ys = body.probes(x[None, :], hole_r * np.arange(1, 26) / 25,
                             rng)[0]
            quot_ok = bool(np.all(
                pair_quotients(rep.g, body.norm, z[None, :], ys[None]) > lam))
            mem_ok = not low_slope_member(rep.g, ys[:5], lam, lad, l=rep.j,
                                          j_max=j_top, body=body,
                                          seed=rng).any()
            return ({"fits_probe_ball": fit, "quotients_steep": quot_ok,
                     "hole_outside_set": mem_ok, "probed": len(ys)},
                    fit and quot_ok and mem_ok)

        for qi in range(4):
            q = body.sample(rng)
            [xi_idx], [dq] = nearest(net_pts, q[None, :], body.norm)
            d = min(float(dq), s_j)
            if d <= 0.0:
                continue
            hole_r = phi.inverse(alpha * d)
            measured, passed = _attempt(hole, net_pts[xi_idx],
                                        rep.zs[xi_idx], hole_r)
            cases.append(CaseRecord(
                f"{tag}/hole-{ei}-{qi}",
                {"j": rep.j, "d": d, "hole_radius": hole_r, "alpha": alpha},
                measured, {"probe_radius": rep.probe_r, "lam": lam}, passed))
    # maps of exactly known slope: each verdict must equal slope <= lam
    rng = _case_rng(cfg, tag, 99)
    grid = grid_candidates(body, 21)[:12]
    exact: list[tuple[MapExpr, float]] = [
        (Constant(body.center), 0.0), (Identity(), 1.0),
        (AffineContraction(lam / 2.0, body.center), lam / 2.0),
        (AffineContraction((1.0 + lam) / 2.0, body.center), (1.0 + lam) / 2.0)]

    def cover() -> tuple[dict, bool]:
        checked = consistent = 0
        for f, slope in exact:
            member = low_slope_member(f, grid, lam, lad, j_max=j_top,
                                      body=body, seed=rng)
            checked += len(grid)
            consistent += int(np.sum(member == (slope <= lam)))
        return {"checked": checked, "consistent": consistent}, \
            consistent == checked

    measured, passed = _attempt(cover)
    cases.append(CaseRecord(
        f"{tag}/cover-consistency",
        {"grid_points": len(grid), "maps": len(exact), "lam": lam},
        measured, {"expected": "checked == consistent"}, passed))
    return cases


def suite_holes(cfg: ExperimentConfig) -> list[CaseRecord]:
    return _dual_cases(cfg, "holes")


# costliest first: `verify --suite all` hands its workers the blocks of
# `bump`'s cases, then the other suites whole, in this order, so that the
# last ones to start are short and the workers finish close together
SUITES = {
    "bump": suite_bump,
    "flat": suite_flat,
    "witness": suite_witness,
    "holes": suite_holes,
    "pairs": suite_pairs,
    "field": suite_field,
    "ladder": suite_ladder,
    "porosity": suite_porosity,
    "invratio": suite_invratio,
}


def _run(suite: str, cfg: ExperimentConfig, cases_of) -> Report:
    """Build the cases `cases_of(cfg)` and time it all."""
    t0 = time.perf_counter()
    # cases are sorted by id, never by completion order
    cases = sorted(cases_of(cfg), key=lambda c: c.case_id)
    return Report(suite, cfg.as_dict(), cases, wall=time.perf_counter() - t0)


def run_verify(cfg: ExperimentConfig) -> Report:
    """Run one named suite (or all of them) and collect a report."""
    return _run(f"verify:{cfg.suite}", cfg, _verify_cases)


def _unit(unit: str | range, cfg: ExperimentConfig) -> list[CaseRecord]:
    """The cases of one unit of work, a suite name or a block of `bump`
    case indices; a worker receives only the unit and cfg."""
    if isinstance(unit, range):
        return [_bump_case(cfg, i) for i in unit]
    return SUITES[unit](cfg)


def _verify_cases(cfg: ExperimentConfig) -> list[CaseRecord]:
    """The cases of the named suites.  Several suites run in forked
    workers, one per CPU the process may use, when there are two or more:
    `bump`, the costliest, is cut into one contiguous block of case
    indices per worker, and the other suites follow whole.  Each case of
    `bump`, and each other suite, draws only from its own generators, so
    the cases do not depend on where they ran; and the first failure in
    unit order is the one the in-process run raises."""
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1
    if len(names) < 2 or cpus < 2:
        return [case for name in names for case in _unit(name, cfg)]
    workers = min(len(names), cpus)
    idx = _bump_indices(cfg)
    units: list[str | range] = [
        idx[k * len(idx) // workers:(k + 1) * len(idx) // workers]
        for k in range(workers)]
    units += [name for name in names if name != "bump"]
    # imported here, so that `import nelab.cli` stays as light as it is.
    # Forked workers inherit every loaded module (nelab starts no thread
    # they could deadlock on), so numpy.random, which numpy loads on first
    # use and every suite draws from, is imported before the fork rather
    # than again in the workers of every run
    import concurrent.futures
    import multiprocessing

    import numpy.random  # noqa: F401
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork")) as pool:
        return [case for cases in pool.map(_unit, units, [cfg] * len(units))
                for case in cases]


def run_typical(cfg: ExperimentConfig) -> Report:
    """Density of the unit-slope set at net points of perturbed maps.

    For each random base map, bumps are planted with budget 2^{-j} on the
    2^{-j} diam-separated `lattice_net`, maximal only among the body's
    lattice points (its covering radius may exceed the separation); the
    local slope then reaches 1 at every net point at the bump scale and at
    each coarser scale 2^{-j-k} min{1, diam}, while unperturbed constant
    maps show density 0.
    """
    return _run("typical", cfg, _typical_cases)


def _typical_cases(cfg: ExperimentConfig) -> list[CaseRecord]:
    body = cfg.convex_body
    diam = body.diameter
    lam = cfg.lam
    n_maps = cfg.trials or 10
    cases = []
    grid = grid_candidates(body, 21)
    # rung j -> its net and the grid points farther than s/2 from it
    net_cache: dict[int, tuple[Net, np.ndarray]] = {}

    def net_at(j: int) -> tuple[Net, np.ndarray]:
        if j not in net_cache:
            net = lattice_net(body, 2.0 ** -j * diam)
            far = net.nearest(grid)[1] > net.s / 2.0
            net_cache[j] = net, grid[far]
        return net_cache[j]

    j0 = 2
    while 2.0 ** -j0 * diam >= 1.0:     # net scale must stay below 1
        j0 += 1
    for i in range(n_maps):
        rng = _case_rng(cfg, "typical", i)
        j = j0 + i % 2
        eps = 2.0 ** -j
        net, off = net_at(j)
        params = {"j": j, "eps": eps, "sep": net.s, "net_size": len(net),
                  "lam": lam}

        def perturbed_map() -> tuple[dict, bool]:
            f = random_nonexpansive(body, seed=_sub_seed(rng))
            g = bump_perturb(f, net, eps, body)
            bump_scale = 0.5 * g.rho
            s_jk = [2.0 ** -(j + k) * min(1.0, diam) for k in (1, 2, 3)]
            params.update(bump_scale=bump_scale, coarse_scales=s_jk)
            # (net points, scales): the bump scale, then the coarse ones
            steep = lip_local_profile(g, net.points, [bump_scale] + s_jk,
                                      body, 64, rng) > lam
            dens_net, *coarse_dens = steep.mean(axis=0).tolist()
            dens_off = steep_density(g, body, lam, bump_scale, off[:6],
                                     seed=rng) if len(off) else 0.0
            return ({"net_density": dens_net, "coarse_densities": coarse_dens,
                     "offnet_density": dens_off},
                    dens_net == 1.0 and all(d == 1.0 for d in coarse_dens))

        measured, passed = _attempt(perturbed_map)
        cases.append(CaseRecord(f"typical/map-{i:02d}", params, measured,
                                {"expected_net_density": 1.0}, passed))
    for ci in range(3):
        rng = _case_rng(cfg, "typical", 1000 + ci)
        j = j0
        sep = 2.0 ** -j * diam
        net, _ = net_at(j)

        def constant_map() -> tuple[dict, bool]:
            g0 = Constant(body.sample(rng))
            scale = 0.25 * Closing(diam).depth(2.0 ** -j, sep)
            dens = steep_density(g0, body, lam, scale, net.points, seed=rng)
            return {"net_density": dens}, dens == 0.0

        measured, passed = _attempt(constant_map)
        cases.append(CaseRecord(
            f"typical/const-{ci}", {"j": j, "lam": lam, "net_size": len(net)},
            measured, {"expected": 0.0}, passed))
    return cases


def run_dual(cfg: ExperimentConfig) -> Report:
    """Gauge pipeline: pair, ladder, nets, witnesses, holes, cover check."""
    return _run("dual", cfg, lambda c: _dual_cases(c, "dual"))


def run_porosity(cfg: ExperimentConfig) -> Report:
    """Hole sizes and pointwise porosity verdicts for one example set.

    Findings (porous / not-detected, gamma values) are recorded as data;
    a case fails only on internal inconsistency: an estimate exceeding
    the closed-form hole size, or a claimed hole that the distance
    re-check rejects.
    """
    return _run("porosity", cfg, _porosity_cases)


def _porosity_cases(cfg: ExperimentConfig) -> list[CaseRecord]:
    oracle, phi = cfg.oracle, cfg.phi
    q = np.array([cfg.point])
    rng = _case_rng(cfg, "porosity", 1000)
    cases = []
    exact = oracle.exact_gamma(q, cfg.window)
    est = gamma_est(q, cfg.window, oracle, trials=cfg.trials or 128,
                    seed=_sub_seed(rng))
    if exact is None:
        gamma_ok = est is None
    else:
        gamma_ok = est is not None and est <= exact * (1.0 + 1e-12)
    cases.append(CaseRecord(
        "porosity/gamma",
        {"target": cfg.target, "q": cfg.point, "r": cfg.window},
        {"exact": exact, "estimate": est}, {"estimate_below_exact": True},
        gamma_ok))
    up = upper_porous_at(oracle, q, phi, trials=cfg.trials or 64,
                         seed=_sub_seed(rng))
    up_ok = up.verify_holes(oracle, phi)
    cases.append(CaseRecord(
        "porosity/upper",
        {"target": cfg.target, "q": cfg.point, "gauge": cfg.gauge},
        {"status": up.status, "alpha": up.constant,
         "witnesses": len(up.radii)},
        {"holes_reverified": True}, up_ok))
    lo = lower_porous_at(oracle, q, phi, eps0=cfg.eps0,
                         trials=cfg.trials or 64, seed=_sub_seed(rng))
    lo_ok = lo.verify_holes(oracle, phi)
    cases.append(CaseRecord(
        "porosity/lower",
        {"target": cfg.target, "q": cfg.point, "gauge": cfg.gauge,
         "eps0": cfg.eps0},
        {"status": lo.status, "beta": lo.constant,
         "witnesses": len(lo.radii)},
        {"holes_reverified": True}, lo_ok))
    return cases
