"""Composable mapping expressions with structural Lipschitz certificates.

A mapping is a small immutable expression tree.  Every node knows how to
evaluate itself on a single point or on an (m, n) batch, and exposes a
`certificate`: an upper bound on the global Lipschitz constant obtained
purely from the structure of the tree.  Sampled difference quotients then
give matching lower bounds, so every estimate is bracketed:

    sampled lower bound  <=  Lip(f)  <=  certificate.

Certificate rules: identity -> 1, constant -> 0, contraction -> its scale,
composition -> product, convex combination -> weighted average, ball
collapse -> 1 + delta/(r - delta), tent field over a base that is constant
on the tent balls -> max(base, 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError
from .space import ConvexBody, Norm, as_point


class MapExpr:
    """Base class for mapping expression nodes."""

    def _apply(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._apply(x[None, :])[0]
        return self._apply(x)

    @property
    def certificate(self) -> float:
        raise NotImplementedError



@dataclass(frozen=True, eq=False)
class Identity(MapExpr):
    """x -> x."""

    def _apply(self, pts):
        return pts.copy()

    @property
    def certificate(self) -> float:
        return 1.0


@dataclass(frozen=True, eq=False)
class Constant(MapExpr):
    """x -> value."""

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", as_point(self.value))

    def _apply(self, pts):
        return np.broadcast_to(self.value, pts.shape).copy()

    @property
    def certificate(self) -> float:
        return 0.0


@dataclass(frozen=True, eq=False)
class AffineContraction(MapExpr):
    """x -> anchor + scale (x - anchor) with 0 <= scale <= 1; fixes the anchor."""

    scale: float
    anchor: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.scale <= 1.0):
            raise ValueError(f"contraction scale must lie in [0, 1], got {self.scale}")
        object.__setattr__(self, "anchor", as_point(self.anchor))

    def _apply(self, pts):
        return self.anchor + self.scale * (pts - self.anchor)

    @property
    def certificate(self) -> float:
        return self.scale


@dataclass(frozen=True, eq=False)
class FlatCollapse(MapExpr):
    """Collapse each ball B(c, delta) to its centre, identity outside B(c, r).

    With t = ||x - c|| the radial profile is

        x -> c                                     if t <= delta,
        x -> c + ((r - r delta/t)/(r - delta)) (x - c)   if delta < t < r,
        x -> x                                     if t >= r,

    applied around the nearest centre.  Centres must be pairwise >= 2r
    apart so the modified balls are disjoint; then the global Lipschitz
    constant is at most 1 + delta/(r - delta).  The two outer branches are
    evaluated exactly (no arithmetic on the identity branch).
    """

    centers: np.ndarray
    delta: float
    r: float
    norm: Norm = Norm(2.0)

    def __post_init__(self):
        ctrs = np.atleast_2d(np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "centers", ctrs)
        if not (0.0 < self.delta < self.r):
            raise ValueError(f"need 0 < delta < r, got delta={self.delta}, r={self.r}")
        k = ctrs.shape[0]
        for i in range(k - 1):
            d = self.norm.of(ctrs[i + 1:] - ctrs[i], axis=1)
            if float(d.min()) < 2.0 * self.r:
                raise ValueError("collapse centres closer than 2r: balls would overlap")

    def _apply(self, pts):
        dists = self.norm.of(pts[:, None, :] - self.centers[None, :, :], axis=2)
        idx = np.argmin(dists, axis=1)
        d = dists[np.arange(pts.shape[0]), idx]
        ctr = self.centers[idx]
        out = pts.copy()
        inner = d <= self.delta
        out[inner] = ctr[inner]
        mid = (d > self.delta) & (d < self.r)
        if np.any(mid):
            coef = (self.r - self.r * self.delta / d[mid]) / (self.r - self.delta)
            out[mid] = ctr[mid] + coef[:, None] * (pts[mid] - ctr[mid])
        return out

    @property
    def certificate(self) -> float:
        return 1.0 + self.delta / (self.r - self.delta)


@dataclass(frozen=True, eq=False)
class Tent(MapExpr):
    """Replace the base map on disjoint balls B(c, delta) by radial tents.

    With t = ||z - c|| for the nearest tent centre c and its apex a (the
    base value at c) and unit direction u:

        z -> a + t u              if t < delta/2,
        z -> a + (delta - t) u    if delta/2 <= t < delta,
        z -> base(z)              otherwise.

    Sound only when the base map is constant (= a) on each B(c, delta) and
    the balls are disjoint; then the inner branch is an isometry towards c
    and the whole map is no more expansive than max(base, 1).
    """

    centers: np.ndarray
    directions: np.ndarray
    apexes: np.ndarray
    delta: float
    base: MapExpr
    norm: Norm = Norm(2.0)

    def __post_init__(self):
        ctrs = np.atleast_2d(np.asarray(self.centers, dtype=float))
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        apex = np.atleast_2d(np.asarray(self.apexes, dtype=float))
        if not (ctrs.shape == dirs.shape == apex.shape):
            raise ValueError("tent centres, directions and apexes must align")
        if not (self.delta > 0.0):
            raise ValueError("tent height delta must be positive")
        lens = self.norm.of(dirs, axis=1)
        if np.any(np.abs(lens - 1.0) > 1e-9):
            raise ValueError("tent directions must be unit vectors in the ambient norm")
        object.__setattr__(self, "centers", ctrs)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "apexes", apex)

    def _apply(self, pts):
        out = self.base._apply(pts)
        dists = self.norm.of(pts[:, None, :] - self.centers[None, :, :], axis=2)
        idx = np.argmin(dists, axis=1)
        d = dists[np.arange(pts.shape[0]), idx]
        apex = self.apexes[idx]
        u = self.directions[idx]
        inner = d < 0.5 * self.delta
        ring = (d >= 0.5 * self.delta) & (d < self.delta)
        out[inner] = apex[inner] + d[inner, None] * u[inner]
        out[ring] = apex[ring] + (self.delta - d[ring])[:, None] * u[ring]
        return out

    @property
    def certificate(self) -> float:
        return max(self.base.certificate, 1.0)


@dataclass(frozen=True, eq=False)
class ConvexCombo(MapExpr):
    """x -> (1 - weight) left(x) + weight right(x)."""

    weight: float
    left: MapExpr
    right: MapExpr

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"combo weight must lie in [0, 1], got {self.weight}")

    def _apply(self, pts):
        return (1.0 - self.weight) * self.left._apply(pts) + self.weight * self.right._apply(pts)

    @property
    def certificate(self) -> float:
        # the weighted average bound; never worse than the weighted max
        return (1.0 - self.weight) * self.left.certificate + self.weight * self.right.certificate


@dataclass(frozen=True, eq=False)
class Compose(MapExpr):
    """x -> outer(inner(x))."""

    outer: MapExpr
    inner: MapExpr

    def _apply(self, pts):
        return self.outer._apply(self.inner._apply(pts))

    @property
    def certificate(self) -> float:
        return self.outer.certificate * self.inner.certificate


@dataclass(frozen=True)
class LipEstimate:
    """Sampled lower bound for a Lipschitz constant with its witness pair."""

    lower_bound: float
    witness: tuple
    samples: int


def pair_quotients(m: MapExpr, norm: Norm, xs: np.ndarray,
                   ys: np.ndarray) -> np.ndarray:
    """Difference quotients ||m(y) - m(x)|| / ||y - x|| of aligned (k, n)
    batches, with one map evaluation per side."""
    return norm.of(m._apply(ys) - m._apply(xs), axis=1) / norm.of(ys - xs, axis=1)


def _best_quotient(m: MapExpr, norm: Norm, xs: np.ndarray, ys: np.ndarray,
                   min_sep: float) -> tuple[float, tuple, int]:
    keep = norm.of(ys - xs, axis=1) >= min_sep
    if not np.any(keep):
        raise EstimationError("all sampled pairs effectively coincident")
    xs, ys = xs[keep], ys[keep]
    q = pair_quotients(m, norm, xs, ys)
    i = int(np.argmax(q))
    return float(q[i]), (xs[i].copy(), ys[i].copy()), int(keep.sum())


def lip_global_est(m: MapExpr, body: ConvexBody, norm: Norm, pairs: int = 1000,
                   seed: int | np.random.Generator = 0,
                   min_sep_rel: float = 1e-4) -> LipEstimate:
    """Max sampled difference quotient over uniform pairs plus extreme-point pairs.

    `seed` is anything `np.random.default_rng` accepts; a Generator is used
    as is, so its draws continue the caller's stream.

    Pairs closer than min_sep_rel * diam are dropped: at tiny separations the
    rounding error of the evaluated difference dominates the quotient, which
    would poison upper-bound comparisons at 1e-9 tolerances.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    rng = np.random.default_rng(seed)
    xs = body.sample_many(rng, pairs)
    ys = body.sample_many(rng, pairs)
    ext = body.extreme_points()
    if ext.shape[0] >= 2:
        ii, jj = np.triu_indices(ext.shape[0], k=1)
        xs = np.vstack([xs, ext[ii]])
        ys = np.vstack([ys, ext[jj]])
    min_sep = min_sep_rel * body.diameter(norm)
    lb, wit, n = _best_quotient(m, norm, xs, ys, min_sep)
    return LipEstimate(lb, wit, n)


def _local_candidates(x: np.ndarray, scales, body: ConvexBody, norm: Norm,
                      samples: int, rng: np.random.Generator,
                      shells: int = 4) -> np.ndarray:
    """Probe points around x: norm-sphere shells at each scale (and dyadic
    subdivisions) plus uniform draws from the box around x clipped to the body."""
    dim = x.size
    cands = []
    per_shell = max(4, samples // max(1, len(scales) * shells))
    for r in scales:
        for k in range(shells):
            rad = r * 0.5 ** k
            raw = rng.normal(size=(per_shell, dim))
            lens = norm.of(raw, axis=1)
            ok = lens > 0
            dirs = raw[ok] / lens[ok, None]
            pts = x + rad * dirs
            keep = body.contains_all(pts, tol=1e-12)
            if np.any(keep):
                cands.append(pts[keep])
    rmax = max(scales)
    box = x + (2.0 * rng.random(size=(samples, dim)) - 1.0) * rmax
    keep = body.contains_all(box, tol=1e-12) & (norm.of(box - x, axis=1) <= rmax)
    if np.any(keep):
        cands.append(box[keep])
    if not cands:
        return np.empty((0, dim))
    return np.vstack(cands)


def lip_local_profile(m: MapExpr, x, scales, body: ConvexBody, norm: Norm,
                      samples: int = 64, seed: int = 0,
                      shells: int = 4) -> list[LipEstimate]:
    """Local Lipschitz estimates at several scales from one nested sample pool.

    Returns one estimate per requested scale, in the given order.  Because a
    single candidate pool is filtered by ||y - x|| <= r, the estimates are
    monotone in r by construction.
    """
    x = as_point(x)
    if not body.contains(x, tol=1e-9):
        raise DomainError("profile centre lies outside the body")
    scales = [float(r) for r in scales]
    if not scales or any(r <= 0 for r in scales):
        raise ValueError("scales must be positive")
    rng = np.random.default_rng(seed)
    pool = _local_candidates(x, sorted(set(scales), reverse=True), body, norm,
                             samples, rng, shells)
    if pool.shape[0] == 0:
        raise EstimationError("no admissible local sample around the centre")
    d = norm.of(pool - x, axis=1)
    fx = m(x)
    fpool = m._apply(pool)
    q = np.where(d > 0, norm.of(fpool - fx, axis=1) / np.where(d > 0, d, 1.0), -np.inf)
    out = []
    for r in scales:
        sel = (d > 0) & (d <= r)
        if not np.any(sel):
            raise EstimationError(f"no admissible sample at scale {r}")
        i = int(np.argmax(np.where(sel, q, -np.inf)))
        out.append(LipEstimate(float(q[i]), (x.copy(), pool[i].copy()), int(sel.sum())))
    return out


def sup_dist_est(m1: MapExpr, m2: MapExpr, body: ConvexBody, norm: Norm,
                 samples: int = 1000, seed: int = 0) -> float:
    """Sampled sup-metric distance max_x ||m1(x) - m2(x)|| (a lower bound)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xs = np.vstack([body.sample_many(rng, samples), body.extreme_points()])
    return float(norm.of(m1._apply(xs) - m2._apply(xs), axis=1).max())


def steep_density(m: MapExpr, body: ConvexBody, norm: Norm, lam: float,
                  scale: float, grid, samples: int = 64, seed: int = 0) -> float:
    """Fraction of grid points whose local slope estimate at `scale` exceeds lam."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("empty density grid")
    hits = 0
    for i, x in enumerate(grid):
        est = lip_local_profile(m, x, [scale], body, norm, samples,
                                seed=[seed, i])[0]
        if est.lower_bound > lam:
            hits += 1
    return hits / grid.shape[0]


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the random non-expansive map generator."""

    max_depth: int = 3
    leaf_weights: tuple = (0.25, 0.35, 0.40)   # identity, constant, contraction
    branch_prob: float = 0.6                   # chance to branch while depth remains
    combo_weights: tuple = (0.5, 0.5)          # convex_combo, compose

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


def random_nonexpansive(config: GeneratorConfig, body: ConvexBody,
                        seed: int = 0) -> MapExpr:
    """Random expression with certificate <= 1 and range inside the body."""
    rng = np.random.default_rng(seed)

    def leaf() -> MapExpr:
        k = rng.choice(3, p=np.asarray(config.leaf_weights) / sum(config.leaf_weights))
        if k == 0:
            return Identity()
        if k == 1:
            return Constant(body.sample(rng))
        return AffineContraction(float(rng.uniform(0.0, 1.0)), body.sample(rng))

    def build(depth: int) -> MapExpr:
        if depth <= 0 or rng.random() > config.branch_prob:
            return leaf()
        w = np.asarray(config.combo_weights) / sum(config.combo_weights)
        if rng.choice(2, p=w) == 0:
            return ConvexCombo(float(rng.uniform(0.0, 1.0)), build(depth - 1), build(depth - 1))
        return Compose(build(depth - 1), build(depth - 1))

    return build(config.max_depth)
