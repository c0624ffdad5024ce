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
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GaugeError, LadderExhausted, RangeError
from .gauges import (Gauge, GaugePair, PiecewiseGauge, PowerGauge, RatioGauge,
                     SqrtRatioGauge, build_pair, gauge_from_desc, gauge_K,
                     ladder, select_j)
from .maps import (Constant, ConvexCombo, GeneratorConfig, Identity, MapExpr,
                   lip_global_est, lip_local_profile, pair_quotients,
                   random_nonexpansive, steep_density, sup_dist_est)
from .perturb import BumpSpec, FlatSpec, bump_perturb, bump_witnesses, \
    direction_field, flat_collapse
from .porosity import (FinitePointSet, IntervalUnionSet, ReciprocalSet,
                       closing_bound, gamma_est, ladder_witness,
                       low_slope_alpha, low_slope_member, lower_porous_at,
                       upper_porous_at)
from .reports import CaseRecord, Report
from .space import (Ball, Box, ConvexBody, Hull, Net, Norm, body_from_desc,
                    greedy_net, grid_candidates)

LAM_SWEEP = (0.1, 0.25, 0.5, 0.75, 0.9)
K_SWEEP = (1.5, 2.0, 4.0)
DIAM_SWEEP = (1.0, 2.0, 4.0)

_TAGS = {"flat": 1, "field": 2, "bump": 3, "witness": 4, "witness2": 5,
         "pairs": 6, "invratio": 7, "ladder": 8, "porosity": 9, "holes": 10,
         "typical": 11, "dual": 12}


@dataclass
class ExperimentConfig:
    """Everything a run depends on; no ambient entropy enters anywhere."""

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
    out: str | None = None
    fmt: str = "json"

    def validate(self) -> None:
        if self.suite != "all" and self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r} "
                             f"(choose from {', '.join(SUITES)}, all)")
        if not (1 <= self.dim <= 3):
            raise ValueError("dim must be 1, 2 or 3")
        if not (self.norm_p >= 1.0):
            raise ValueError("norm-p must be >= 1")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.tol < 0.0:
            raise ValueError("tol must be >= 0")
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lam must lie in (0, 1)")
        if self.window <= 0.0 or self.eps0 <= 0.0:
            raise ValueError("window and eps0 must be positive")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")

    def scaled(self, pinned: float) -> float:
        """A check tolerance pinned at default `tol`; scales with --tol."""
        return pinned * (self.tol / 1e-9)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["trials"] = -1 if d["trials"] is None else d["trials"]
        # where the report is written is not part of the experiment, and
        # keeping it out lets reports from different sinks compare equal
        del d["out"], d["fmt"]
        return d


def _case_rng(cfg: ExperimentConfig, tag: str, i: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _TAGS[tag], i])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _pick_norm(rng: np.random.Generator) -> Norm:
    return Norm(float(rng.choice([1.0, 2.0, math.inf])))


def _random_body(rng: np.random.Generator, dim: int, norm: Norm,
                 allow_hull: bool = True) -> ConvexBody:
    roll = rng.random()
    if roll < 0.45:
        half = 1.0 + rng.uniform(0.0, 1.0, size=dim)
        mid = rng.uniform(-0.3, 0.3, size=dim)
        return Box(mid - half, mid + half)
    if roll < 0.85 or not allow_hull or dim > 2:
        c = rng.uniform(-0.3, 0.3, size=dim)
        return Ball(c, float(rng.uniform(0.8, 1.6)), norm)
    verts = rng.uniform(-1.5, 1.5, size=(dim + 3, dim))
    return Hull(verts)


def _grid_axis(dim: int) -> int:
    return {1: 41, 2: 13, 3: 7}[dim]


def _net_for(body: ConvexBody, norm: Norm, s: float, retries: int = 3,
             per_axis: int | None = None) -> Net:
    cands = grid_candidates(body, per_axis or _grid_axis(body.dim))
    for _ in range(retries):
        net = greedy_net(body, norm, s, cands)
        if len(net) >= 2:
            return net
        s *= 0.6
    raise ValueError("could not build a two-point net on the body")


def _ball_probes(x: np.ndarray, radius: float, body: ConvexBody, norm: Norm,
                 rng: np.random.Generator, count: int) -> np.ndarray:
    """Points of B(x, radius) ∩ body; falls back to the chord toward the
    body centre, which is admissible because the body is convex."""
    out = []
    for _ in range(8):
        cand = x + (2.0 * rng.random((4 * count, x.size)) - 1.0) * radius
        keep = (norm.of(cand - x, axis=1) <= radius) & \
            body.contains_all(cand, tol=1e-12)
        out.append(cand[keep])
        if sum(len(o) for o in out) >= count:
            break
    pts = np.vstack(out) if out else np.empty((0, x.size))
    if pts.shape[0] < count:
        bc = body.center
        gap = norm.of(bc - x)
        if gap > 0:
            ts = np.linspace(0.0, min(1.0, radius / gap), count + 1)[1:]
            pts = np.vstack([pts, x + ts[:, None] * (bc - x)])
    return pts[:count]


# --------------------------------------------------------------------------
# flat: radial collapse maps


def _flat_inner_exact(m: MapExpr, center: np.ndarray, delta: float,
                      body: ConvexBody, norm: Norm,
                      rng: np.random.Generator) -> bool:
    raw = rng.normal(size=(16, center.size))
    lens = norm.of(raw, axis=1)
    dirs = raw[lens > 0] / lens[lens > 0, None]
    pts = center + rng.uniform(0.0, 0.999, size=(dirs.shape[0], 1)) * delta * dirs
    pts = pts[body.contains_all(pts, tol=0.0)]
    pts = np.vstack([center[None, :], pts])
    return bool(np.all(m._apply(pts) == center))


def _flat_outer_exact(m: MapExpr, center: np.ndarray, r: float,
                      body: ConvexBody, norm: Norm,
                      rng: np.random.Generator) -> tuple[bool, int]:
    cand = np.vstack([body.sample_many(rng, 200), body.extreme_points()])
    far = cand[norm.of(cand - center, axis=1) >= r]
    if far.shape[0] == 0:
        return True, 0
    return bool(np.all(m._apply(far) == far)), int(far.shape[0])


def suite_flat(cfg: ExperimentConfig) -> list[CaseRecord]:
    n = cfg.trials or 50
    cases = []
    for i in range(n):
        rng = _case_rng(cfg, "flat", i)
        dim = 1 + i % 3
        norm = _pick_norm(rng)
        body = _random_body(rng, dim, norm, allow_hull=(i % 9 == 7))
        diam = body.diameter(norm)
        center = body.sample(rng)
        r = float(rng.uniform(0.15, 0.45)) * diam
        delta = float(rng.uniform(0.05, 0.85)) * r
        m = flat_collapse(FlatSpec(center, delta, r), body, norm)
        cert = m.certificate
        mq = lip_global_est(m, body, norm, pairs=1000, seed=rng).lower_bound
        sd = sup_dist_est(m, Identity(), body, norm, samples=400,
                          seed=_sub_seed(rng))
        inner = _flat_inner_exact(m, center, delta, body, norm, rng)
        outer, far_n = _flat_outer_exact(m, center, r, body, norm, rng)
        passed = (mq <= cert + cfg.scaled(1e-9)
                  and sd <= delta + cfg.scaled(1e-12) and inner and outer)
        cases.append(CaseRecord(
            f"flat/{i:03d}",
            {"dim": dim, "p": norm.p, "body": type(body).__name__,
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
        rng = _case_rng(cfg, "field", i)
        dim = 1 + i % 3
        norm = _pick_norm(rng)
        body = _random_body(rng, dim, norm)
        diam = body.diameter(norm)
        s = float(rng.uniform(0.15, 0.6)) * min(1.0, diam)
        fld = direction_field(body, norm, s)
        unit_ok = branch_ok = seg_ok = True
        worst_unit = 0.0
        for z in body.sample_many(rng, 40):
            e = fld(z)
            worst_unit = max(worst_unit, abs(float(norm.of(e)) - 1.0))
            dv = float(norm.of(fld.v - z))
            if dv >= s / 3.0:
                expect = (fld.v - z) / dv
            else:
                expect = (fld.w - z) / float(norm.of(fld.w - z))
            branch_ok = branch_ok and np.array_equal(e, expect)
            seg_ok = seg_ok and fld.segment_inside(body, z)
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
                       norm: Norm, rng: np.random.Generator,
                       probes: int) -> float:
    blocks = [_ball_probes(x, rho, body, norm, rng, probes)
              for x in net.points]
    centers = np.repeat(net.points, [b.shape[0] for b in blocks], axis=0)
    ys = np.vstack(blocks)
    g_ctr = np.repeat(g._apply(net.points),
                      [b.shape[0] for b in blocks], axis=0)
    worst = 0.0
    for k in range(0, ys.shape[0], 4096):    # chunked to bound temporaries
        sl = slice(k, k + 4096)
        res = np.abs(norm.of(g._apply(ys[sl]) - g_ctr[sl], axis=1)
                     - norm.of(ys[sl] - centers[sl], axis=1))
        worst = max(worst, float(res.max()))
    return worst


def suite_bump(cfg: ExperimentConfig) -> list[CaseRecord]:
    n = cfg.trials or 20
    cases = []
    for i in range(n):
        rng = _case_rng(cfg, "bump", i)
        dim = 1 + i % 3
        norm = _pick_norm(rng)
        body = _random_body(rng, dim, norm, allow_hull=False)
        diam = body.diameter(norm)
        lo_s = 0.22 if dim < 3 else 0.3
        s = float(rng.uniform(lo_s, 0.45)) * min(1.0, diam)
        # a coarse candidate grid keeps the nets small enough that the
        # 10^4-pair quotient scan stays within the suite's time budget
        net = _net_for(body, norm, s, per_axis={1: 41, 2: 9, 3: 5}[dim])
        f = random_nonexpansive(GeneratorConfig(), body, seed=_sub_seed(rng))
        eps = float(rng.uniform(0.1, 0.8))
        spec = BumpSpec.create(f, net, net.s, eps, body, norm)
        g = bump_perturb(spec, body, norm)
        sd = sup_dist_est(g, f, body, norm, samples=600, seed=_sub_seed(rng))
        lb = lip_global_est(g, body, norm, pairs=10000,
                            seed=_sub_seed(rng)).lower_bound
        iso = _isometry_residual(g, net, spec.rho, body, norm, rng, probes=100)
        # g's certificate is max(1, (1 - delta/r) cert(f) (1 + delta/(r - delta)));
        # the product is at most 1 exactly but can round one ulp above it
        q_bound = 1.0 + cfg.scaled(1e-9)
        passed = (sd <= eps + cfg.scaled(1e-12) and lb <= q_bound
                  and iso <= cfg.scaled(1e-9) and g.certificate <= q_bound)
        cases.append(CaseRecord(
            f"bump/{i:03d}",
            {"dim": dim, "p": norm.p, "body": type(body).__name__, "s": net.s,
             "eps": eps, "net_size": len(net), "rho": spec.rho},
            {"sup_dist": sd, "pair_quotient": lb, "isometry_residual": iso,
             "certificate": g.certificate},
            {"eps": eps, "quotient_bound": q_bound,
             "isometry_tol": cfg.scaled(1e-9)},
            passed))
    return cases


# --------------------------------------------------------------------------
# witness: steep quotients survive sup-metric perturbation


def suite_witness(cfg: ExperimentConfig) -> list[CaseRecord]:
    total = cfg.trials or 100
    groups = max(1, math.ceil(total / 10))
    cases = []
    for gi in range(groups):
        rng = _case_rng(cfg, "witness", gi)
        dim = 1 + gi % 2
        norm = _pick_norm(rng)
        body = _random_body(rng, dim, norm, allow_hull=False)
        diam = body.diameter(norm)
        s = float(rng.uniform(0.22, 0.45)) * min(1.0, diam)
        net = _net_for(body, norm, s)
        lam = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
        eps = float(rng.uniform(0.1, 0.8))
        f = random_nonexpansive(GeneratorConfig(), body, seed=_sub_seed(rng))
        g = bump_perturb(BumpSpec.create(f, net, net.s, eps, body, norm),
                         body, norm)
        w = bump_witnesses(g, net, net.s, eps, lam, body, norm)
        xs = np.array([r.x for r in w.records])
        ys = np.array([r.y for r in w.records])
        h_per = min(10, total - 10 * gi)
        for hi in range(h_per):
            if hi == 0:
                u = 1.0
            elif hi == 1:
                u = 0.0
            else:
                u = float(rng.uniform(0.05, 1.0))
            tau = u * w.beta * eps / diam
            h: MapExpr = g if tau == 0.0 else \
                ConvexCombo(tau, g, Constant(body.sample(rng)))
            minq = float(pair_quotients(h, norm, xs, ys).min())
            passed = minq > lam and minq >= w.bound - cfg.scaled(1e-9)
            cases.append(CaseRecord(
                f"witness/{gi:02d}-{hi:02d}",
                {"dim": dim, "p": norm.p, "s": net.s, "eps": eps, "lam": lam,
                 "tau": tau, "net_size": len(net)},
                {"min_quotient": minq, "beta": w.beta},
                {"lam": lam, "bound": w.bound,
                 "bound_tol": cfg.scaled(1e-9)},
                passed))
    for pi in range(20):
        rng = _case_rng(cfg, "witness2", pi)
        dim = 1 + pi % 2
        norm = _pick_norm(rng)
        body = _random_body(rng, dim, norm, allow_hull=False)
        diam = body.diameter(norm)
        x = body.sample(rng)
        y = body.sample(rng)
        while float(norm.of(y - x)) < 0.2 * diam:
            y = body.sample(rng)
        s = min(float(norm.of(y - x)), 0.5)
        net = Net(np.stack([x, y]), s)
        lam = float(rng.uniform(0.2, 0.8))
        eps = float(rng.uniform(0.2, 0.7))
        f: MapExpr = Identity() if pi % 2 == 0 else \
            random_nonexpansive(GeneratorConfig(), body, seed=_sub_seed(rng))
        g = bump_perturb(BumpSpec.create(f, net, s, eps, body, norm),
                         body, norm)
        w = bump_witnesses(g, net, s, eps, lam, body, norm)
        tau = w.beta * eps / diam
        xs = np.array([r.x for r in w.records])
        ys = np.array([r.y for r in w.records])
        minq = float(min(
            pair_quotients(g, norm, xs, ys).min(),
            pair_quotients(ConvexCombo(tau, g, Constant(body.sample(rng))),
                           norm, xs, ys).min()))
        passed = minq > lam and minq >= w.bound - cfg.scaled(1e-9)
        cases.append(CaseRecord(
            f"witness/two-{pi:02d}",
            {"dim": dim, "p": norm.p, "s": s, "eps": eps, "lam": lam},
            {"min_quotient": minq, "beta": w.beta},
            {"lam": lam, "bound": w.bound, "bound_tol": cfg.scaled(1e-9)},
            passed))
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


def _pair_grid_extremes(pair: GaugePair, count: int) -> tuple[float, float]:
    ts = np.geomspace(1e-8 / pair.K, (1.0 / pair.K) * (1.0 - 1e-12), count)
    prod = np.asarray(pair.phi.value(ts), dtype=float) * \
        np.asarray(pair.xi.value(ts), dtype=float)
    ratio = prod / ts
    return float(ratio.min()), float(ratio.max())


def suite_pairs(cfg: ExperimentConfig) -> list[CaseRecord]:
    cases = []
    for name, phi in _PAIR_GAUGES:
        pair = build_pair(phi)
        pair.check(grid=1000)
        lo_ratio, hi_ratio = _pair_grid_extremes(pair, 1000)
        rt = _roundtrip_residual(phi, 1000)
        small_t = min(1e-6, 0.5 / pair.K)
        xi_small = float(pair.xi.value(small_t))
        passed = (lo_ratio >= 1.0 / pair.K - cfg.scaled(1e-12)
                  and hi_ratio <= pair.K + cfg.scaled(1e-12)
                  and rt <= cfg.scaled(1e-10) and xi_small <= 1e-2)
        cases.append(CaseRecord(
            f"pairs/{name}",
            {"gauge": name, "K": pair.K},
            {"grid_ratio_min": lo_ratio, "grid_ratio_max": hi_ratio,
             "roundtrip_residual": rt, "xi_small": xi_small},
            {"ratio_lo": 1.0 / pair.K, "ratio_hi": pair.K,
             "roundtrip_tol": cfg.scaled(1e-10), "xi_small_bound": 1e-2},
            passed))
    for name, phi in (("identity", PowerGauge(p=1.0)), ("ratio", RatioGauge())):
        try:
            build_pair(phi)
            rejected = False
        except GaugeError:
            rejected = True
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
                beta, bound, margin = closing_bound(lam, K, diam)
                closed = (1.0 - lam) ** 2 / (97.0 * (3.0 - lam))
                ok = margin > 0.0 and abs(margin - closed) <= 1e-12
                cases.append(CaseRecord(
                    f"ladder/margin-{lam}-{K}-{diam}",
                    {"lam": lam, "K": K, "diam": diam},
                    {"beta": beta, "bound": bound, "margin": margin},
                    {"margin_closed_form": closed}, ok))
    body = Box(np.array([-1.0]), np.array([1.0]))
    norm = Norm(2.0)
    lad = ladder(PowerGauge(p=0.5), body, norm, rungs=20)
    rung_err = max(abs(lad.rung(j) - 0.25 * 2.0 ** (1 - j))
                   for j in range(1, 21))
    resid = max(abs(lad.inv_ratio(j + 1) - 0.5 * lad.inv_ratio(j))
                / lad.inv_ratio(j) for j in range(1, 20))
    cases.append(CaseRecord(
        "ladder/sqrt-closed-form", {"gauge": "sqrt", "rungs": 20},
        {"max_rung_error": rung_err, "max_residual": resid},
        {"tol": cfg.scaled(1e-10)},
        rung_err <= cfg.scaled(1e-10) and resid <= cfg.scaled(1e-10)))
    lad23 = ladder(PowerGauge(p=2.0 / 3.0), body, norm, rungs=12)
    err23 = max(abs(lad23.rung(j + 1) - lad23.rung(j) / 4.0)
                for j in range(1, 12))
    cases.append(CaseRecord(
        "ladder/power-2/3-quartering", {"gauge": "power-2/3", "rungs": 12},
        {"max_step_error": err23}, {"tol": cfg.scaled(1e-10)},
        err23 <= cfg.scaled(1e-10)))
    ladsr = ladder(SqrtRatioGauge(), body, norm, rungs=10)
    residsr = max(abs(ladsr.inv_ratio(j + 1) - 0.5 * ladsr.inv_ratio(j))
                  / ladsr.inv_ratio(j) for j in range(1, 10))
    cases.append(CaseRecord(
        "ladder/sqrt-ratio-bisected", {"gauge": "sqrt-ratio", "rungs": 10},
        {"max_residual": residsr}, {"tol": cfg.scaled(1e-10)},
        residsr <= cfg.scaled(1e-10)))
    sel_cases = ((0.2, 1), (0.1, 2), (0.25, 1), (0.05, 3))
    sel_ok = all(select_j(lad, eps, 1).j == want for eps, want in sel_cases)
    try:
        select_j(lad, 0.5, 1)
        range_ok = False
    except RangeError:
        range_ok = True
    try:
        select_j(lad, 1e-9, 1)
        exhaust_ok = False
    except LadderExhausted:
        exhaust_ok = True
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
        ladg = ladder(phi, body, norm, rungs=12)
        nets = [_net_for(body, norm, ladg.rung(j)) for j in range(1, 4)]
        f = random_nonexpansive(GeneratorConfig(), body, seed=_sub_seed(rng))
        rep = ladder_witness(f, eps, cfg.lam, ladg, nets, pair, k=1,
                             body=body, norm=norm, seed=_sub_seed(rng))
        minq = min(r.min_quotient for r in rep.records)
        cases.append(CaseRecord(
            f"ladder/witness-{gname}",
            {"gauge": gname, "eps": eps, "lam": cfg.lam, "j": rep.j,
             "net_size": len(rep.records)},
            {"min_quotient": minq, "beta": rep.beta, "bound": rep.bound,
             "margin": rep.margin, "h_radius": rep.h_radius},
            {"lam": cfg.lam},
            rep.passed and rep.margin > 0.0 and minq > cfg.lam))
    return cases


# --------------------------------------------------------------------------
# porosity: example sets with analytic gap structure


def suite_porosity(cfg: ExperimentConfig) -> list[CaseRecord]:
    amb = Box(np.array([-1.0]), np.array([1.0]))
    norm = Norm(2.0)
    rec = ReciprocalSet(amb, norm)
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

    zero = FinitePointSet(np.array([[0.0]]), amb, norm)
    exz = zero.exact_gamma(np.zeros(1), 0.3)
    estz = gamma_est(np.zeros(1), 0.3, zero, trials=64, seed=_sub_seed(rng))
    okz = (exz == 0.15 and estz is not None
           and abs(estz / 0.3 - 0.5) <= 0.05 * 0.5)
    cases.append(CaseRecord(
        "porosity/zero-gamma", {"q": 0.0, "r": 0.3},
        {"exact": exz, "estimate": estz}, {"ratio": 0.5, "rel_tol": 0.05}, okz))

    empty = FinitePointSet(np.empty((0, 1)), amb, norm)
    este = gamma_est(np.zeros(1), 0.25, empty, trials=16, seed=_sub_seed(rng))
    cases.append(CaseRecord(
        "porosity/empty-gamma", {"q": 0.0, "r": 0.25},
        {"estimate": este}, {"expected": 0.25}, este == 0.25))

    full = IntervalUnionSet(np.array([[-1.0, 1.0]]), amb, norm)
    estf = gamma_est(np.array([0.3]), 0.2, full, trials=16, seed=_sub_seed(rng))
    vf = upper_porous_at(full, np.array([0.3]), idg, trials=16,
                         seed=_sub_seed(rng), alpha_bits=6)
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

    holes_ok = all(v.verify_holes(orc, probes=1000, seed=_sub_seed(rng))
                   for v, orc in ((v_zero_up, zero), (v_zero_lo, zero),
                                  (v_half, rec)))
    cases.append(CaseRecord(
        "porosity/witness-holes-empty", {"probes": 1000},
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

    a1 = low_slope_alpha(0.5, 2.0)
    a2 = low_slope_alpha(0.0, 0.0)
    oka = abs(a1 - 0.5 / 144.0) <= 1e-18 and a2 == 1.0 / 48.0
    cases.append(CaseRecord(
        "porosity/alpha-formula", {"cases": 2},
        {"alpha_half_2": a1, "alpha_0_0": a2},
        {"expected": "0.5/144, 1/48"}, oka))

    body01 = Box(np.array([0.0]), np.array([1.0]))
    lad01 = ladder(PowerGauge(p=0.5), body01, norm, rungs=12)
    m_const = low_slope_member(Constant(np.array([0.4])), np.array([0.5]),
                               0.1, lad01, body=body01, norm=norm,
                               seed=_sub_seed(rng))
    m_id = low_slope_member(Identity(), np.array([0.5]), 0.9, lad01,
                            body=body01, norm=norm, seed=_sub_seed(rng))
    ramp = ConvexCombo(
        0.5, Constant(np.array([0.0])),
        flat_collapse(FlatSpec(np.array([0.0]), 0.5, 1.0), body01, norm))
    m_ramp = low_slope_member(ramp, np.array([0.2]), 0.5, lad01,
                              body=body01, norm=norm, seed=_sub_seed(rng))
    okm = m_const.member and not m_id.member and m_ramp.member
    cases.append(CaseRecord(
        "porosity/low-slope-members", {"lam": "0.1/0.9/0.5"},
        {"const": m_const.member, "identity": m_id.member,
         "ramp": m_ramp.member},
        {"expected": "true/false/true"}, okm))
    return cases


# --------------------------------------------------------------------------
# holes: verified empty balls in low-slope sets (shared with run_dual)


def _dual_cases(cfg: ExperimentConfig, tag: str) -> list[CaseRecord]:
    norm = Norm(cfg.norm_p)
    body = body_from_desc(cfg.body, cfg.dim, norm)
    phi = gauge_from_desc(cfg.gauge)
    diam = body.diameter(norm)
    cases = []
    if phi.inf > 0.0:
        pair = build_pair(phi)
        rng = _case_rng(cfg, tag, 0)
        net = _net_for(body, norm, 0.25 * min(1.0, diam))
        f = Constant(body.sample(rng))
        spec = BumpSpec.create(f, net, net.s, 0.25, body, norm)
        g = bump_perturb(spec, body, norm)
        dens = steep_density(g, body, norm, 0.99, 0.5 * spec.rho, net.points,
                             samples=32, seed=_sub_seed(rng))
        cases.append(CaseRecord(
            f"{tag}/reduced-to-plain-density",
            {"gauge": cfg.gauge, "K": pair.K, "inf_phi": phi.inf},
            {"net_density": dens}, {"expected": 1.0}, dens == 1.0))
        return cases
    pair = build_pair(phi)
    lad = ladder(phi, body, norm, rungs=12)
    lam = cfg.lam
    alpha = low_slope_alpha(lam, diam)
    nets = [_net_for(body, norm, lad.rung(j)) for j in range(1, 5)]
    j_top = min(12, len(lad))
    for ei, frac in enumerate((0.9, 0.45)):
        rng = _case_rng(cfg, tag, ei)
        eps = frac * lad.inv_ratio(1)
        f = random_nonexpansive(GeneratorConfig(), body, seed=_sub_seed(rng))
        rep = ladder_witness(f, eps, lam, lad, nets, pair, k=1, body=body,
                             norm=norm, seed=_sub_seed(rng))
        minq = min(r.min_quotient for r in rep.records)
        cases.append(CaseRecord(
            f"{tag}/witness-{ei}",
            {"eps": eps, "lam": lam, "j": rep.j, "gauge": cfg.gauge},
            {"min_quotient": minq, "beta": rep.beta, "bound": rep.bound,
             "margin": rep.margin},
            {"lam": lam}, rep.passed and rep.margin > 0.0))
        s_j = lad.rung(rep.j)
        phi_inv = phi.inverse(s_j)
        probe_r = (1.0 - lam) * phi_inv / (48.0 * (1.0 + diam))
        g = rep.g
        for qi in range(4):
            q = body.sample(rng)
            dists = norm.of(nets[rep.j - 1].points - q, axis=1)
            xi_idx = int(np.argmin(dists))
            x = nets[rep.j - 1].points[xi_idx]
            z = rep.records[xi_idx].z
            d = min(float(dists[xi_idx]), s_j)
            if d <= 0.0:
                continue
            hole_r = phi.inverse(alpha * d)
            fit = hole_r <= probe_r * (1.0 + 1e-12)
            ys = _ball_probes(x, hole_r, body, norm, rng, 25)
            quot_ok = bool(np.all(pair_quotients(
                g, norm, ys, np.broadcast_to(z, ys.shape)) > lam))
            mem_ok = all(
                not low_slope_member(g, y, lam, lad, l=rep.j, j_max=j_top,
                                     body=body, norm=norm,
                                     seed=_sub_seed(rng)).member
                for y in ys[:5])
            cases.append(CaseRecord(
                f"{tag}/hole-{ei}-{qi}",
                {"j": rep.j, "d": d, "hole_radius": hole_r, "alpha": alpha},
                {"fits_probe_ball": fit, "quotients_steep": quot_ok,
                 "hole_outside_set": mem_ok, "probed": len(ys)},
                {"probe_radius": probe_r, "lam": lam},
                fit and quot_ok and mem_ok))
    rng = _case_rng(cfg, tag, 99)
    grid = grid_candidates(body, 21)[:12]
    scales = [phi.inverse(lad.rung(j)) for j in range(1, j_top + 1)]
    probe_maps: list[MapExpr] = [
        Constant(body.sample(rng)), Identity(),
        random_nonexpansive(GeneratorConfig(), body, seed=_sub_seed(rng))]
    checked = consistent = 0
    for f in probe_maps:
        for x in grid:
            pt_seed = _sub_seed(rng)
            ests = lip_local_profile(f, x, scales, body, norm, samples=64,
                                     seed=pt_seed, shells=8)
            top = max(e.lower_bound for e in ests)
            if abs(top - lam) < 0.02:
                continue      # too close to the threshold for a fair replay
            mem = low_slope_member(f, x, lam, lad, l=1, j_max=j_top,
                                   body=body, norm=norm, seed=pt_seed,
                                   shells=8)
            checked += 1
            if mem.member == (top <= lam):
                consistent += 1
    cases.append(CaseRecord(
        f"{tag}/cover-consistency",
        {"grid_points": len(grid), "maps": len(probe_maps), "lam": lam},
        {"checked": checked, "consistent": consistent},
        {"expected": "checked == consistent"},
        checked == consistent and checked >= 2 * len(grid)))
    return cases


def suite_holes(cfg: ExperimentConfig) -> list[CaseRecord]:
    return _dual_cases(cfg, "holes")


SUITES = {
    "flat": suite_flat,
    "field": suite_field,
    "bump": suite_bump,
    "witness": suite_witness,
    "pairs": suite_pairs,
    "invratio": suite_invratio,
    "ladder": suite_ladder,
    "porosity": suite_porosity,
    "holes": suite_holes,
}


def _run(suite: str, cfg: ExperimentConfig, cases_of) -> Report:
    """Validate cfg, build the cases `cases_of(cfg)` and time it all."""
    cfg.validate()
    t0 = time.perf_counter()
    # cases are sorted by id, never by completion order
    cases = sorted(cases_of(cfg), key=lambda c: c.case_id)
    return Report(suite, cfg.as_dict(), cases, wall=time.perf_counter() - t0)


def run_verify(cfg: ExperimentConfig) -> Report:
    """Run one named suite (or all of them) and collect a report."""
    return _run(f"verify:{cfg.suite}", cfg, _verify_cases)


def _verify_cases(cfg: ExperimentConfig) -> list[CaseRecord]:
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    return [case for name in names for case in SUITES[name](cfg)]


def run_typical(cfg: ExperimentConfig) -> Report:
    """Density of the unit-slope set at net points of perturbed maps.

    For each random base map, bumps are planted on a maximal
    2^{-j} diam-separated net with budget 2^{-j}; the local slope then
    reaches 1 at every net point at the bump scale and at each coarser
    scale 2^{-j-k} min{1, diam}, while unperturbed constant maps show
    density 0.
    """
    return _run("typical", cfg, _typical_cases)


def _typical_cases(cfg: ExperimentConfig) -> list[CaseRecord]:
    norm = Norm(cfg.norm_p)
    body = body_from_desc(cfg.body, cfg.dim, norm)
    diam = body.diameter(norm)
    lam = cfg.lam
    n_maps = cfg.trials or 10
    cases = []
    net_cache: dict[int, Net] = {}
    j0 = 2
    while 2.0 ** -j0 * diam >= 1.0:     # net scale must stay below 1
        j0 += 1
    for i in range(n_maps):
        rng = _case_rng(cfg, "typical", i)
        j = j0 + i % 2
        eps = 2.0 ** -j
        sep = 2.0 ** -j * diam
        if j not in net_cache:
            net_cache[j] = _net_for(body, norm, sep)
        net = net_cache[j]
        f = random_nonexpansive(GeneratorConfig(), body, seed=_sub_seed(rng))
        spec = BumpSpec.create(f, net, net.s, eps, body, norm)
        g = bump_perturb(spec, body, norm)
        bump_scale = 0.5 * spec.rho
        dens_net = steep_density(g, body, norm, lam, bump_scale, net.points,
                                 samples=48, seed=_sub_seed(rng))
        s_jk = [2.0 ** -(j + k) * min(1.0, diam) for k in (1, 2, 3)]
        coarse_hits = np.zeros(len(s_jk))
        for x in net.points:
            ests = lip_local_profile(g, x, [bump_scale] + s_jk, body, norm,
                                     samples=64, seed=_sub_seed(rng))
            for k, e in enumerate(ests[1:]):
                coarse_hits[k] += e.lower_bound > lam
        coarse_dens = (coarse_hits / len(net)).tolist()
        off = [x for x in grid_candidates(body, 21)
               if float(norm.of(net.points - x, axis=1).min()) > net.s / 2.0]
        dens_off = steep_density(g, body, norm, lam, bump_scale,
                                 np.atleast_2d(np.array(off[:6])), samples=32,
                                 seed=_sub_seed(rng)) if off else 0.0
        passed = dens_net == 1.0 and all(d == 1.0 for d in coarse_dens)
        cases.append(CaseRecord(
            f"typical/map-{i:02d}",
            {"j": j, "eps": eps, "sep": net.s, "net_size": len(net),
             "lam": lam, "bump_scale": bump_scale, "coarse_scales": s_jk},
            {"net_density": dens_net, "coarse_densities": coarse_dens,
             "offnet_density": dens_off},
            {"expected_net_density": 1.0}, passed))
    for ci in range(3):
        rng = _case_rng(cfg, "typical", 1000 + ci)
        j = j0
        sep = 2.0 ** -j * diam
        if j not in net_cache:
            net_cache[j] = _net_for(body, norm, sep)
        net = net_cache[j]
        g0 = Constant(body.sample(rng))
        scale = 0.5 * (2.0 ** -j * sep / (12.0 * (1.0 + diam)))
        dens = steep_density(g0, body, norm, lam, scale, net.points,
                             samples=32, seed=_sub_seed(rng))
        cases.append(CaseRecord(
            f"typical/const-{ci}",
            {"j": j, "lam": lam, "net_size": len(net)},
            {"net_density": dens}, {"expected": 0.0}, dens == 0.0))
    return cases


def run_dual(cfg: ExperimentConfig) -> Report:
    """Gauge pipeline: pair, ladder, nets, witnesses, holes, cover check."""
    return _run("dual", cfg, lambda c: _dual_cases(c, "dual"))


def _oracle_from_desc(desc: str, norm: Norm):
    amb = Box(np.array([-1.0]), np.array([1.0]))
    if desc == "reciprocal":
        return ReciprocalSet(amb, norm)
    if desc == "zero":
        return FinitePointSet(np.array([[0.0]]), amb, norm)
    if desc == "cantor":
        return IntervalUnionSet.cantor(4)
    if desc == "full":
        return IntervalUnionSet(np.array([[-1.0, 1.0]]), amb, norm)
    if desc == "empty":
        return FinitePointSet(np.empty((0, 1)), amb, norm)
    raise ValueError(f"unknown set descriptor {desc!r} "
                     "(choose from reciprocal, zero, cantor, full, empty)")


def run_porosity(cfg: ExperimentConfig) -> Report:
    """Hole sizes and pointwise porosity verdicts for one example set.

    Findings (porous / not-detected, gamma values) are recorded as data;
    a case fails only on internal inconsistency: an estimate exceeding
    the closed-form hole size, or a claimed hole that re-probing shows
    to be non-empty.
    """
    return _run("porosity", cfg, _porosity_cases)


def _porosity_cases(cfg: ExperimentConfig) -> list[CaseRecord]:
    norm = Norm(cfg.norm_p)
    oracle = _oracle_from_desc(cfg.target, norm)
    phi = gauge_from_desc(cfg.gauge)
    q = np.array([cfg.point])
    if not oracle.in_space(q):
        raise ValueError(f"point {cfg.point} outside the ambient space")
    rng = _case_rng(cfg, "porosity", 1000)
    cases = []
    exact = oracle.exact_gamma(q, cfg.window)
    est = gamma_est(q, cfg.window, oracle, trials=cfg.trials or 128,
                    seed=_sub_seed(rng))
    if exact is None:
        gamma_ok = est is None
    else:
        gamma_ok = est is not None and est <= exact * (1.0 + 1e-12) + 1e-15
    cases.append(CaseRecord(
        "porosity/gamma",
        {"target": cfg.target, "q": cfg.point, "r": cfg.window},
        {"exact": exact, "estimate": est}, {"estimate_below_exact": True},
        gamma_ok))
    up = upper_porous_at(oracle, q, phi, trials=cfg.trials or 64,
                         seed=_sub_seed(rng))
    up_ok = (not up.porous) or up.verify_holes(oracle, probes=500,
                                               seed=_sub_seed(rng))
    cases.append(CaseRecord(
        "porosity/upper",
        {"target": cfg.target, "q": cfg.point, "gauge": cfg.gauge},
        {"status": up.status, "alpha": up.constant,
         "witnesses": len(up.witnesses)},
        {"holes_reverified": True}, up_ok))
    lo = lower_porous_at(oracle, q, phi, eps0=cfg.eps0,
                         trials=cfg.trials or 64, seed=_sub_seed(rng))
    lo_ok = (not lo.porous) or lo.verify_holes(oracle, probes=500,
                                               seed=_sub_seed(rng))
    cases.append(CaseRecord(
        "porosity/lower",
        {"target": cfg.target, "q": cfg.point, "gauge": cfg.gauge,
         "eps0": cfg.eps0},
        {"status": lo.status, "beta": lo.constant,
         "witnesses": len(lo.witnesses)},
        {"holes_reverified": True}, lo_ok))
    return cases
