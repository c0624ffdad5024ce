"""Porosity certificates: hole finding, pointwise verdicts, low-slope sets.

The hole size of a set P inside a ball B(q, r) is

    gamma(q, r, P) = sup { s > 0 : some B(x', s) fits inside B(q, r) \\ P },

with the convention that no admissible hole at all reports `None`.  The
one-dimensional example sets carry analytic gap structure so gamma can be
computed exactly; the generic estimator searches hole centres on a
shrinking lattice plus a random stream and certifies each hole against
the oracle's exact (or probe-based) ball-intersection test.

Pointwise verdicts follow two dual patterns for a gauge phi:

* upper: some alpha in (0,1) admits, at every probe scale eps, a point q'
  with 0 < d(q, q') <= eps and B(q', phi^{-1}(alpha d(q, q'))) disjoint
  from P;
* lower: some beta admits, for every eps below a threshold, a point q'
  with d(q, q') <= eps and B(q', phi^{-1}(beta eps)) disjoint from P.

Alpha and beta are searched over the dyadic grid 2^-1 .. 2^-16.

The low-slope set of a map f collects the points whose sampled local
Lipschitz constant stays <= lam at every ladder scale phi^{-1}(s_j),
j = l .. J_max; `ladder_witness` plants bumps at a net of the selected
rung and certifies steep quotients for every map xi^{-1}(beta eps)-close
to the perturbed map, which punches verifiable holes into that set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, LadderExhausted, ParameterError
from .gauges import Gauge, GaugePair, Ladder, select_j
from .maps import (Constant, ConvexCombo, MapExpr, lip_local_profile,
                   pair_quotients)
from .perturb import BumpSpec, bump_perturb, direction_field
from .space import Box, ConvexBody, Net, Norm, as_point

DYADIC_BITS = 16


class SetOracle:
    """Membership oracle for a subset P of a metric ambient space."""

    ambient: ConvexBody
    norm: Norm

    def contains(self, x) -> bool:
        raise NotImplementedError

    def in_space(self, x) -> bool:
        return self.ambient.contains(x, tol=1e-12)

    def sample_in_ball(self, center, radius: float, rng: np.random.Generator,
                       max_tries: int = 10000) -> np.ndarray:
        center = as_point(center)
        for _ in range(max_tries):
            cand = center + (2.0 * rng.random(center.size) - 1.0) * radius
            if self.norm.of(cand - center) < radius:
                return cand
        raise EstimationError("ball sampler exhausted")

    def intersects_ball(self, center, radius: float) -> bool:
        """Does P meet the open ball B(center, radius)?  Exact when possible."""
        raise NotImplementedError

    def exact_gamma(self, q, r: float) -> float | None:
        """Analytic hole size, when the set carries gap structure; else None."""
        return None


def _gamma_from_sorted_points(pts: np.ndarray, a: float, b: float) -> float:
    """Largest hole radius in (a, b) avoiding finitely many point obstructions."""
    inside = pts[(pts > a) & (pts < b)]
    cuts = np.concatenate([[a], np.sort(inside), [b]])
    return float(np.max(np.diff(cuts)) / 2.0)


@dataclass(frozen=True, eq=False)
class FinitePointSet(SetOracle):
    """Finite point cloud; empty arrays give the empty set."""

    points: np.ndarray
    ambient: ConvexBody
    norm: Norm

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.ambient.dim)
        pts = np.atleast_2d(pts)
        object.__setattr__(self, "points", pts)

    def contains(self, x) -> bool:
        if self.points.shape[0] == 0:
            return False
        x = as_point(x)
        return bool(self.norm.of(self.points - x, axis=1).min() <= 1e-12)

    def intersects_ball(self, center, radius: float) -> bool:
        if self.points.shape[0] == 0:
            return False
        center = as_point(center)
        return bool(self.norm.of(self.points - center, axis=1).min() < radius)

    def exact_gamma(self, q, r: float) -> float | None:
        if self.ambient.dim != 1:
            return None
        q0 = float(as_point(q)[0])
        return _gamma_from_sorted_points(self.points.ravel(), q0 - r, q0 + r)


def _reciprocal_points_in(a: float, b: float):
    """The reciprocals 1/n (n >= 1) inside the open interval (a, b), described
    as (n_min, n_max) with n_max = None when the points accumulate at a <= 0."""
    if b <= 0.0:
        return None
    n_min = max(1, int(math.floor(1.0 / b)) + 1) if b <= 1.0 else 1
    while 1.0 / n_min >= b:
        n_min += 1
    if a <= 0.0:
        return n_min, None
    if a >= 1.0:
        return None
    n_max = int(math.ceil(1.0 / a)) - 1
    while n_max >= 1 and 1.0 / n_max <= a:
        n_max -= 1
    while 1.0 / (n_max + 1) > a:
        n_max += 1
    if n_min > n_max:
        return None
    return n_min, n_max


def _reciprocal_side_gaps(a: float, b: float) -> list[float] | None:
    """Gap lengths contributed by positive reciprocals to the window (a, b);
    None when this side has no obstruction points at all."""
    rng = _reciprocal_points_in(a, b)
    if rng is None:
        return None
    n_min, n_max = rng
    gaps = [b - 1.0 / n_min]
    if n_max is None:
        gaps.append(1.0 / n_min - 1.0 / (n_min + 1))   # first (largest) internal gap
    else:
        if n_max > n_min:
            gaps.append(1.0 / n_min - 1.0 / (n_min + 1))
        gaps.append(1.0 / n_max - a)
    return gaps


@dataclass(frozen=True, eq=False)
class ReciprocalSet(SetOracle):
    """P = {1/n : n a nonzero integer} with exact gap structure on the line."""

    ambient: ConvexBody
    norm: Norm

    @classmethod
    def default(cls) -> "ReciprocalSet":
        return cls(Box(np.array([-1.0]), np.array([1.0])), Norm(2.0))

    def contains(self, x) -> bool:
        x0 = float(as_point(x)[0])
        if x0 == 0.0 or abs(x0) > 1.0:
            return False
        n = round(1.0 / x0)
        return n != 0 and abs(x0 - 1.0 / n) <= 1e-15

    def intersects_ball(self, center, radius: float) -> bool:
        c = float(as_point(center)[0])
        a, b = c - radius, c + radius
        if _reciprocal_points_in(a, b) is not None:
            return True
        return _reciprocal_points_in(-b, -a) is not None

    def exact_gamma(self, q, r: float) -> float | None:
        q0 = float(as_point(q)[0])
        a, b = q0 - r, q0 + r
        pos = _reciprocal_side_gaps(a, b)
        neg = _reciprocal_side_gaps(-b, -a)
        if pos is None and neg is None:
            return r
        # a window straddling 0 always obstructs on both sides (the points
        # accumulate there), so a one-sided window is handled entirely by
        # its own side's gap list, edges included.
        return max((pos or []) + (neg or [])) / 2.0


@dataclass(frozen=True, eq=False)
class IntervalUnionSet(SetOracle):
    """Finite union of closed intervals on the line (Cantor-style dust)."""

    intervals: np.ndarray            # (k, 2) rows lo <= hi, sorted, disjoint
    ambient: ConvexBody
    norm: Norm

    def __post_init__(self):
        iv = np.atleast_2d(np.asarray(self.intervals, dtype=float))
        if iv.shape[1] != 2 or np.any(iv[:, 0] > iv[:, 1]):
            raise ValueError("intervals need rows (lo, hi) with lo <= hi")
        iv = iv[np.argsort(iv[:, 0])]
        if np.any(iv[1:, 0] < iv[:-1, 1]):
            raise ValueError("intervals must be disjoint")
        object.__setattr__(self, "intervals", iv)

    @classmethod
    def cantor(cls, level: int, ambient: ConvexBody | None = None) -> "IntervalUnionSet":
        segs = [(0.0, 1.0)]
        for _ in range(level):
            segs = [piece
                    for lo, hi in segs
                    for piece in ((lo, lo + (hi - lo) / 3.0), (hi - (hi - lo) / 3.0, hi))]
        ambient = ambient or Box(np.array([-0.5]), np.array([1.5]))
        return cls(np.asarray(segs), ambient, Norm(2.0))

    def contains(self, x) -> bool:
        x0 = float(as_point(x)[0])
        i = int(np.searchsorted(self.intervals[:, 0], x0, side="right")) - 1
        return i >= 0 and x0 <= self.intervals[i, 1]

    def intersects_ball(self, center, radius: float) -> bool:
        c = float(as_point(center)[0])
        a, b = c - radius, c + radius
        return bool(np.any((self.intervals[:, 1] > a) & (self.intervals[:, 0] < b)))

    def exact_gamma(self, q, r: float) -> float | None:
        q0 = float(as_point(q)[0])
        a, b = q0 - r, q0 + r
        hit = (self.intervals[:, 1] > a) & (self.intervals[:, 0] < b)
        if not np.any(hit):
            return r
        iv = self.intervals[hit]
        gaps = [max(0.0, iv[0, 0] - a)]
        gaps.extend(iv[1:, 0] - iv[:-1, 1])
        gaps.append(max(0.0, b - iv[-1, 1]))
        best = max(gaps) / 2.0
        return best if best > 0.0 else None


def _hole_radius_at(oracle: SetOracle, q: np.ndarray, r: float, c: np.ndarray,
                    bisect_iters: int = 60) -> float:
    """Largest verified-empty ball radius at centre c inside B(q, r)."""
    cap = r - float(oracle.norm.of(c - q))
    if cap <= 0.0:
        return 0.0
    if not oracle.intersects_ball(c, cap):
        return cap
    lo = cap * 2.0 ** -50
    if oracle.intersects_ball(c, lo):
        return 0.0
    hi = cap
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if oracle.intersects_ball(c, mid):
            hi = mid
        else:
            lo = mid
    return lo


def _lattice_centers(q: np.ndarray, span: float, per_axis: int) -> np.ndarray:
    axes = [np.linspace(-span, span, per_axis)] * q.size
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return q + mesh


def _refine(oracle: SetOracle, q: np.ndarray, r: float, center: np.ndarray,
            span: float, rounds: int, per_axis: int,
            best_r: float = 0.0) -> float:
    """Lattice search around `center`, halving the span around the best hole."""
    best_c = center if best_r > 0.0 else None
    for _ in range(rounds):
        for c in _lattice_centers(center, span, per_axis):
            if not oracle.in_space(c):
                continue
            s = _hole_radius_at(oracle, q, r, c)
            if s > best_r:
                best_r, best_c = s, c
        if best_c is None:
            break
        center = best_c
        span *= 0.5
    return best_r


def gamma_est(q, r: float, oracle: SetOracle, trials: int = 128, seed: int = 0,
              rounds: int = 9, per_axis: int = 17) -> float | None:
    """Sampled lower estimate of the hole size gamma(q, r, P); None if no hole.

    Three candidate streams feed a running maximum:

    * a lattice over the whole window, refined by `_refine`;
    * probes marching geometrically toward the window boundary (for a set
      accumulating at q the largest hole tends to hug the edge, where the
      plain lattice stalls on an interior local maximum), the best probe
      refined the same way;
    * `trials` random centres, refining every draw that beats the previous
      raw record.

    With a fixed seed the estimate is monotone in `trials`: the first two
    streams do not depend on it, and extra draws only add candidates to
    the maximum.
    """
    q = as_point(q)
    if not (r > 0.0):
        raise ValueError("window radius must be positive")
    if q.size > 1:
        per_axis = min(per_axis, 9 if q.size == 2 else 5)
    best_r = _refine(oracle, q, r, q, r, rounds, per_axis)

    edge_r, edge_c = 0.0, None
    for axis in range(q.size):
        for sign in (-1.0, 1.0):
            step = np.zeros(q.size)
            step[axis] = sign
            for i in range(2, 15):
                c = q + step * (r * (1.0 - 2.0 ** -i))
                if not oracle.in_space(c):
                    continue
                s = _hole_radius_at(oracle, q, r, c)
                if s > edge_r:
                    edge_r, edge_c = s, c
    if edge_c is not None:
        cap = r - float(oracle.norm.of(edge_c - q))
        best_r = max(best_r, _refine(oracle, q, r, edge_c, 2.0 * cap,
                                     rounds, per_axis, best_r=edge_r))

    rng = np.random.default_rng(seed)
    record = 0.0
    for _ in range(trials):
        c = q + (2.0 * rng.random(q.size) - 1.0) * r
        if float(oracle.norm.of(c - q)) >= r or not oracle.in_space(c):
            continue
        s = _hole_radius_at(oracle, q, r, c)
        if s > record:
            record = s
            span = max(4.0 * s, r / 64.0)
            s = _refine(oracle, q, r, c, span, rounds, per_axis, best_r=s)
        best_r = max(best_r, s)
    return best_r if best_r > 0.0 else None


@dataclass(frozen=True)
class HoleWitness:
    """A verified-empty ball found at probe scale eps."""

    eps: float
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class PorosityVerdict:
    """Outcome of a pointwise porosity search."""

    status: str                       # "porous-at-point" | "not-detected"
    kind: str                         # "upper" | "lower"
    constant: float | None            # the alpha (upper) or beta (lower) found
    q: np.ndarray
    witnesses: tuple

    @property
    def porous(self) -> bool:
        return self.status == "porous-at-point"

    def verify_holes(self, oracle: SetOracle, probes: int = 1000,
                     seed: int = 0) -> bool:
        """Re-probe every witness hole by membership sampling."""
        rng = np.random.default_rng(seed)
        for w in self.witnesses:
            for _ in range(probes):
                pt = oracle.sample_in_ball(w.center, w.radius, rng)
                if oracle.contains(pt):
                    return False
        return True


def _dyadic(bits: int) -> list[float]:
    return [2.0 ** -i for i in range(1, bits + 1)]


def _witness_candidates(q: np.ndarray, eps: float, rng: np.random.Generator,
                        trials: int) -> np.ndarray:
    per_axis = 33 if q.size == 1 else (9 if q.size == 2 else 5)
    lattice = _lattice_centers(q, eps, per_axis)
    extra = q + (2.0 * rng.random((trials, q.size)) - 1.0) * eps
    return np.vstack([lattice, extra])


def upper_porous_at(oracle: SetOracle, q, phi: Gauge, eps_grid=None,
                    trials: int = 64, seed: int = 0,
                    alpha_bits: int = DYADIC_BITS) -> PorosityVerdict:
    """Dyadic search for an upper-porosity constant alpha at the point q.

    The hole radius demanded at distance d is phi^{-1}(alpha d); a probe
    scale eps succeeds when some q' with 0 < d(q, q') <= eps carries such
    a hole.  The verdict reports the largest dyadic alpha (down to
    2^-alpha_bits) that succeeds at every probe scale.
    """
    q = as_point(q)
    if eps_grid is None:
        eps_grid = [2.0 ** -k for k in range(2, 19)]
    for ai, alpha in enumerate(_dyadic(alpha_bits)):
        witnesses = []
        for ei, eps in enumerate(eps_grid):
            rng = np.random.default_rng([seed, ai, ei])
            found = None
            for c in _witness_candidates(q, eps, rng, trials):
                d = float(oracle.norm.of(c - q))
                if not (0.0 < d <= eps) or not oracle.in_space(c):
                    continue
                if not (phi.inf < alpha * d < phi.sup):
                    continue
                hole_r = phi.inverse(alpha * d)
                if not oracle.intersects_ball(c, hole_r):
                    found = HoleWitness(eps, c, hole_r)
                    break
            if found is None:
                witnesses = None
                break
            witnesses.append(found)
        if witnesses is not None:
            return PorosityVerdict("porous-at-point", "upper", alpha, q, tuple(witnesses))
    return PorosityVerdict("not-detected", "upper", None, q, ())


def lower_porous_at(oracle: SetOracle, q, phi: Gauge, eps0: float,
                    trials: int = 64, seed: int = 0, levels: int = 16,
                    beta_bits: int = DYADIC_BITS) -> PorosityVerdict:
    """Dyadic search for a lower-porosity constant beta at the point q.

    Every probe scale eps in a geometric grid of (0, eps0) must admit a
    point q' with d(q, q') <= eps carrying an empty ball of radius
    phi^{-1}(beta eps); q' = q itself is allowed.
    """
    q = as_point(q)
    if not (eps0 > 0.0):
        raise ValueError("eps0 must be positive")
    eps_grid = [eps0 * 2.0 ** -i for i in range(1, levels + 1)]
    for bi, beta in enumerate(_dyadic(beta_bits)):
        witnesses = []
        for ei, eps in enumerate(eps_grid):
            if not (phi.inf < beta * eps < phi.sup):
                witnesses = None
                break
            hole_r = phi.inverse(beta * eps)
            rng = np.random.default_rng([seed, bi, ei])
            found = None
            for c in np.vstack([q[None, :], _witness_candidates(q, eps, rng, trials)]):
                d = float(oracle.norm.of(c - q))
                if d > eps or not oracle.in_space(c):
                    continue
                if not oracle.intersects_ball(c, hole_r):
                    found = HoleWitness(eps, c, hole_r)
                    break
            if found is None:
                witnesses = None
                break
            witnesses.append(found)
        if witnesses is not None:
            return PorosityVerdict("porous-at-point", "lower", beta, q, tuple(witnesses))
    return PorosityVerdict("not-detected", "lower", None, q, ())


def low_slope_alpha(lam: float, diam: float) -> float:
    """Upper-porosity constant (1 - lam) / (48 (1 + diam)) for low-slope sets."""
    if not (0.0 <= lam < 1.0):
        raise ParameterError(f"lam must lie in [0, 1), got {lam}")
    if diam < 0.0:
        raise ParameterError("diameter cannot be negative")
    return (1.0 - lam) / (48.0 * (1.0 + diam))


@dataclass(frozen=True)
class LowSlopeResult:
    """Truncated low-slope membership test with its per-rung estimates."""

    member: bool
    lam: float
    l: int
    j_max: int
    estimates: tuple        # sampled local slope lower bound per rung l..j_max


def low_slope_member(f: MapExpr, x, lam: float, lad: Ladder, l: int = 1,
                     j_max: int = 12, body: ConvexBody = None, norm: Norm = None,
                     samples: int = 64, seed: int = 0,
                     shells: int = 8) -> LowSlopeResult:
    """Is the sampled local slope of f at x at most lam at every ladder scale
    phi^{-1}(s_j), j = l .. j_max?  The truncation level is reported.

    The probe pool subdivides each scale through `shells` dyadic levels so
    that steep behaviour concentrated two orders of magnitude below a scale
    (the bump witnesses live there) is still seen by the estimate.
    """
    if body is None or norm is None:
        raise ParameterError("body and norm are required")
    if not (1 <= l <= j_max):
        raise ParameterError(f"need 1 <= l <= j_max, got l={l}, j_max={j_max}")
    if j_max > len(lad):
        raise LadderExhausted(
            f"j_max={j_max} beyond the ladder ({len(lad)} rungs); extend it"
        )
    scales = [lad.gauge.inverse(lad.rung(j)) for j in range(l, j_max + 1)]
    ests = lip_local_profile(f, x, scales, body, norm, samples, seed, shells)
    vals = tuple(e.lower_bound for e in ests)
    return LowSlopeResult(all(v <= lam for v in vals), lam, l, j_max, vals)


def closing_bound(lam: float, K: float, diam: float) -> tuple[float, float, float]:
    """(beta, bound, margin) of the gauge-scale witness constants."""
    beta = (1.0 - lam) ** 2 * (1.0 + lam) / (97.0 * (3.0 - lam) * K * (1.0 + diam))
    bound = ((1.0 + lam) ** 2 - 96.0 * (3.0 - lam) * beta * K * (1.0 + diam)) / (
        (1.0 + lam) * (3.0 - lam))
    return beta, bound, bound - lam


@dataclass(frozen=True)
class LadderWitnessRecord:
    """One net point with its steep-quotient verification."""

    x: np.ndarray
    z: np.ndarray
    min_quotient: float
    probes: int


@dataclass(frozen=True)
class LadderWitnessReport:
    """Bump perturbation at a selected rung with certified steep quotients."""

    j: int
    g: MapExpr
    beta: float
    h_radius: float          # sup-distance ball xi^{-1}(beta eps) around g
    bound: float             # certified closing bound, > lam by construction
    margin: float            # bound - lam = (1-lam)^2 / (97 (3-lam))
    records: tuple
    passed: bool


def ladder_witness(f: MapExpr, eps: float, lam: float, lad: Ladder, nets,
                   pair: GaugePair, k: int = 1, body: ConvexBody = None,
                   norm: Norm = None, probes: int = 8, h_count: int = 4,
                   seed: int = 0) -> LadderWitnessReport:
    """Perturb f at the rung selected by eps and verify steep quotients.

    The rung j satisfies inv_ratio(j+1) < eps <= inv_ratio(j); the net of
    that rung receives bumps with budget eps.  For each net point x the
    witness z = x + (phi^{-1}(s_j)/(24(1+diam))) e_x and probe points y
    within (1-lam) phi^{-1}(s_j)/(48(1+diam)) of x must give

        ||h(z) - h(y)|| / ||z - y||  >  lam

    for every test map h within xi^{-1}(beta eps) of g in the sup metric,
    where beta = (1-lam)^2 (1+lam) / (97 (3-lam) K (1+diam)).
    """
    if body is None or norm is None:
        raise ParameterError("body and norm are required")
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"lam must lie in (0, 1), got {lam}")
    sel = select_j(lad, eps, k, pair)
    j = sel.j
    if j > len(nets):
        raise ParameterError(f"no net supplied for rung {j}")
    net: Net = nets[j - 1]
    s_j = lad.rung(j)
    if abs(net.s - s_j) > 1e-9 * max(1.0, s_j):
        raise ParameterError("net separation does not match the selected rung")
    diam = body.diameter(norm)
    d1 = 1.0 + diam
    beta, bound, margin = closing_bound(lam, pair.K, diam)
    if beta * pair.K >= 1.0:
        raise ParameterError("inconsistent constants: beta*K >= 1")
    h_radius = pair.xi.inverse(beta * eps)
    spec = BumpSpec.create(f, net, s_j, eps, body, norm)
    g = bump_perturb(spec, body, norm)
    field = direction_field(body, norm, s_j)
    z_off = sel.phi_inv_s_j / (24.0 * d1)
    probe_r = (1.0 - lam) * sel.phi_inv_s_j / (48.0 * d1)
    if not z_off <= spec.rho + 1e-15:
        raise ParameterError("witness offset escaped the bump ball")
    rng = np.random.default_rng(seed)
    h_family = [g]
    for _ in range(h_count):
        tau = h_radius * rng.uniform(0.25, 1.0) / diam
        h_family.append(ConvexCombo(tau, g, Constant(body.sample(rng))))
    pts = net.points
    n_pts, dim = pts.shape
    zs = np.array([x + z_off * field(x) for x in pts])
    # the probes of each x: x itself, then the draws in B(x, probe_r) ∩ body
    unit = 2.0 * rng.random((n_pts, probes - 1, dim)) - 1.0
    cands = pts[:, None, :] + unit * probe_r
    inside = (norm.of(cands - pts[:, None, :], axis=2) <= probe_r) & \
        body.contains_all(cands.reshape(-1, dim), tol=1e-12).reshape(
            n_pts, probes - 1)
    keep = np.hstack([np.ones((n_pts, 1), dtype=bool), inside])
    ys = np.concatenate([pts[:, None, :], cands], axis=1)[keep]
    counts = keep.sum(axis=1)
    zs_rep = np.repeat(zs, counts, axis=0)
    q = np.min([pair_quotients(h, norm, ys, zs_rep) for h in h_family], axis=0)
    best = np.minimum.reduceat(q, np.concatenate([[0], np.cumsum(counts)[:-1]]))
    records = tuple(LadderWitnessRecord(x.copy(), z, float(b), int(c))
                    for x, z, b, c in zip(pts, zs, best, counts))
    return LadderWitnessReport(j, g, beta, h_radius, bound, margin, records,
                               bool(np.all(best > lam)))
