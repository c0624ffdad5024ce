"""Composable mapping expressions with structural Lipschitz certificates.

A mapping is a small immutable expression tree.  Every node knows how to
evaluate itself on a single point or on an (m, n) batch, and exposes a
`certificate`: an upper bound on the global Lipschitz constant obtained
purely from the structure of the tree.  Sampled difference quotients then
give matching lower bounds, so every estimate is bracketed:

    sampled lower bound  <=  Lip(f)  <=  certificate.

Certificate rules: identity -> 1, constant -> 0, contraction -> its scale,
composition -> product, convex combination -> weighted average, ball
collapse -> 1 + delta/(r - delta), tent field -> max(base, 1); a Tent
accepts only a base whose first stage is a FlatCollapse at least as deep
as the tent, which makes the base constant on every tent ball.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, ParameterError
from .space import ConvexBody, Net, Norm, as_point


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

    The centres are the points of `net` and r = net.s / 2; both are kept
    as the attributes `centers` and `r`.  With t = ||x - c|| the radial
    profile is

        x -> c                                     if t <= delta,
        x -> c + ((r - r delta/t)/(r - delta)) (x - c)   if delta < t < r,
        x -> x                                     if t >= r,

    applied around the nearest centre.  A net closer than its separation
    2r, which would make the modified balls overlap, or radii outside
    0 < delta < r raise ParameterError; then the global Lipschitz constant
    is at most 1 + delta/(r - delta).  The two outer branches are evaluated
    exactly (no arithmetic on the identity branch).  A point farther than r
    from every centre takes the identity branch whichever centre is
    nearest, so the nearest-centre query is the net's, which is exact only
    within r, and the collapses on one net share its cached index.
    """

    net: Net
    delta: float
    norm: Norm = Norm(2.0)

    def __post_init__(self):
        r = 0.5 * self.net.s
        if not (0.0 < self.delta < r):
            raise ParameterError(
                f"need 0 < delta < r, got delta={self.delta}, r={r}")
        if not self.net.check_separated(self.norm):
            raise ParameterError("collapse centres closer than 2r: balls would overlap")
        object.__setattr__(self, "centers", self.net.points)
        object.__setattr__(self, "r", r)

    def _apply(self, pts):
        return self._profile(pts, *self.net.nearest(pts, self.norm))

    def _profile(self, pts, idx, d):
        """The radial profile at pts, given their nearest centres and
        distances; idx and d need to be exact only on the rows with d < r.
        Every branch is built on every row: the division's inf and nan, at
        d = 0, land only on rows that another branch takes."""
        ctr = self.centers[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = (self.r - self.r * self.delta / d) / (self.r - self.delta)
            moved = ctr + coef[:, None] * (pts - ctr)
        moved = np.where((d <= self.delta)[:, None], ctr, moved)
        return np.where((d < self.r)[:, None], moved, pts)

    @property
    def certificate(self) -> float:
        return 1.0 + self.delta / (self.r - self.delta)


@dataclass(frozen=True, eq=False)
class Tent(MapExpr):
    """Replace a collapsed base map on the balls B(c, delta) by radial tents.

    The base must be a FlatCollapse or a chain Compose(s_k, ...
    Compose(s_1, collapse)) that starts with one, and 0 < delta <= the
    collapse's inner radius; anything else raises ValueError.  The tents sit
    at the collapse's centres and use its norm.  With t = ||z - c|| for the
    nearest centre c, its apex a = base(c) and unit direction u:

        z -> a + t u              if t < rho = delta/2,
        z -> a + (delta - t) u    if rho <= t < delta,
        z -> base(z)              otherwise.

    The collapse makes the base constant (= a) on each B(c, delta) and its
    2r-separation makes the balls disjoint, so the inner branch is an
    isometry towards c and the whole map is no more expansive than
    max(base, 1).  `collapse`, `centers`, `apexes` and the outer `stages`
    (in the order they apply) are derived from the base.  One query of
    the collapse's `net`, exact within its outer radius r, drives both the
    collapse and the tents; the tent branches are written only for the
    rows within delta.
    """

    directions: np.ndarray
    delta: float
    base: MapExpr

    def __post_init__(self):
        stages, node = [], self.base
        while isinstance(node, Compose):
            stages.append(node.outer)
            node = node.inner
        if not isinstance(node, FlatCollapse):
            raise ValueError("tent base must start with a FlatCollapse")
        if not (0.0 < self.delta <= node.delta):
            raise ValueError(f"tent height must satisfy 0 < delta <= {node.delta} "
                             f"(the collapse's inner radius), got {self.delta}")
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if dirs.shape != node.centers.shape:
            raise ValueError("tent directions must align with the collapse centres")
        if np.any(np.abs(node.norm.of(dirs, axis=1) - 1.0) > 1e-9):
            raise ValueError("tent directions must be unit vectors in the ambient norm")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "collapse", node)
        object.__setattr__(self, "centers", node.centers)
        object.__setattr__(self, "stages", tuple(reversed(stages)))
        object.__setattr__(self, "apexes", self.base._apply(node.centers))

    def _apply(self, pts):
        idx, d = self.collapse.net.nearest(pts, self.collapse.norm)
        out = self.collapse._profile(pts, idx, d)
        for stage in self.stages:
            out = stage._apply(out)
        near = np.flatnonzero(d < self.delta)
        t, apex, u = d[near], self.apexes[idx[near]], self.directions[idx[near]]
        height = np.where(t < self.rho, t, self.delta - t)
        out[near] = apex + height[:, None] * u
        return out

    @property
    def rho(self) -> float:
        """Radius delta/2 of the balls B(c, rho) on which the tent is an
        isometry towards c."""
        return 0.5 * self.delta

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


def pair_quotients(m: MapExpr, norm: Norm, xs: np.ndarray,
                   ys: np.ndarray) -> np.ndarray:
    """Difference quotients ||m(y) - m(x)|| / ||y - x||, the one kernel.

    xs is a (k, n) batch; ys is either an aligned (k, n) batch, giving the
    (k,) quotients of the pairs (xs[i], ys[i]), or (k, p, n) blocks, giving
    the (k, p) quotients of each xs[i] against the rows of its block.  One
    map evaluation covers xs and ys, xs first; a coincident pair gives nan.
    """
    k = xs.shape[0]
    fs = m._apply(np.concatenate([xs, ys.reshape(-1, xs.shape[1])]))
    fx, fy = fs[:k], fs[k:].reshape(ys.shape)
    if ys.ndim == 3:
        xs, fx = xs[:, None, :], fx[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return norm.of(fy - fx, axis=-1) / norm.of(ys - xs, axis=-1)


# pairs closer than MIN_SEP_REL * diam are dropped: at tiny separations the
# rounding error of the evaluated difference dominates the quotient, which
# would poison upper-bound comparisons at 1e-9 tolerances
MIN_SEP_REL = 1e-4


def lip_global_est(m: MapExpr, body: ConvexBody, norm: Norm, pairs: int = 1000,
                   seed: int | np.random.Generator = 0) -> float:
    """Max sampled difference quotient over uniform pairs plus extreme-point
    pairs: a lower bound for the global Lipschitz constant.

    `seed` is anything `np.random.default_rng` accepts; a Generator is used
    as is, so its draws continue the caller's stream.  Pairs closer than
    MIN_SEP_REL * diam are dropped.
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
    keep = norm.of(ys - xs, axis=1) >= MIN_SEP_REL * body.diameter(norm)
    if not np.any(keep):
        raise EstimationError("all sampled pairs effectively coincident")
    return float(pair_quotients(m, norm, xs[keep], ys[keep]).max())


def lip_local_profile(m: MapExpr, xs, scales, body: ConvexBody, norm: Norm,
                      samples: int = 64, seed=0,
                      shells: int = 4) -> np.ndarray:
    """Local Lipschitz estimates at several scales around each row of xs.

    One `body.probes` call, drawn from `np.random.default_rng(seed)` (a
    Generator is used as is), gives every centre the same radii: for each
    distinct scale r, blocks at r and its dyadic subdivisions down to
    r 2^-(shells-1), then `samples` probes at max(scales) k / samples,
    k = 1 .. samples.  Probes lie in the body, so the one membership query
    is on the centres, and one `pair_quotients` call, with its one map
    evaluation, covers centres and probes.
    Returns the (k, S) bounds over centres x scales, in the given order:
    each is the best quotient over the probes within r of its centre, so
    the bounds are monotone in r.  The draws depend only on the radii, so
    consecutive calls on one Generator draw what one call over all their
    centres draws.  An error is that of the first failing centre.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[0] == 0:
        raise ValueError("no profile centres")
    if not np.all(np.isfinite(xs)):
        raise ValueError("point has a non-finite coordinate")
    scales = [float(r) for r in scales]
    if not scales or any(r <= 0 for r in scales):
        raise ValueError("scales must be positive")
    inside = body.contains_all(xs, tol=1e-9)
    levels = sorted(set(scales), reverse=True)
    per_shell = max(4, samples // max(1, len(levels) * shells))
    shell_radii = [r * 0.5 ** j for r in levels for j in range(shells)]
    radii = np.concatenate([np.repeat(shell_radii, per_shell),
                            levels[0] * np.arange(1, samples + 1) / samples])
    pool = body.probes(xs, radii, norm, np.random.default_rng(seed))
    q = pair_quotients(m, norm, xs, pool)
    d = norm.of(pool - xs[:, None, :], axis=2)
    # sel[i, s, p]: probe p of centre i is admissible at scale s
    sel = (d[:, None, :] > 0) & (d[:, None, :] <= np.asarray(scales)[:, None])
    counts = sel.sum(axis=2)
    failing = ~inside | ~counts.all(axis=1)
    if failing.any():
        i = int(np.argmax(failing))
        if not inside[i]:
            raise DomainError("profile centre lies outside the body")
        raise EstimationError(f"no admissible sample at scale "
                              f"{scales[int(np.argmin(counts[i]))]} around "
                              f"the centre {xs[i].tolist()}")
    return np.where(sel, q[:, None, :], -np.inf).max(axis=2)


def sup_dist_est(m1: MapExpr, m2: MapExpr, body: ConvexBody, norm: Norm,
                 samples: int = 1000, seed: int = 0) -> float:
    """Sampled sup-metric distance max_x ||m1(x) - m2(x)|| (a lower bound)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xs = np.vstack([body.sample_many(rng, samples), body.extreme_points()])
    return float(norm.of(m1._apply(xs) - m2._apply(xs), axis=1).max())


def steep_density(m: MapExpr, body: ConvexBody, norm: Norm, lam: float,
                  scale: float, grid, samples: int = 64, seed=0) -> float:
    """Fraction of grid points whose local slope estimate at `scale` exceeds
    lam; `seed` seeds one `lip_local_profile` call over the whole grid."""
    est = lip_local_profile(m, grid, [scale], body, norm, samples, seed)
    return float(np.mean(est[:, 0] > lam))


# the shape of random_nonexpansive's trees: depth, leaf odds (identity,
# constant, contraction), chance to branch while depth remains, and branch
# odds (convex combo, compose)
MAX_DEPTH = 3
LEAF_WEIGHTS = (0.25, 0.35, 0.40)
BRANCH_PROB = 0.6
COMBO_WEIGHTS = (0.5, 0.5)


def random_nonexpansive(body: ConvexBody, seed: int = 0) -> MapExpr:
    """Random expression with certificate <= 1 and range inside the body."""
    rng = np.random.default_rng(seed)

    def leaf() -> MapExpr:
        k = rng.choice(3, p=np.asarray(LEAF_WEIGHTS) / sum(LEAF_WEIGHTS))
        if k == 0:
            return Identity()
        if k == 1:
            return Constant(body.sample(rng))
        return AffineContraction(float(rng.uniform(0.0, 1.0)), body.sample(rng))

    def build(depth: int) -> MapExpr:
        if depth <= 0 or rng.random() > BRANCH_PROB:
            return leaf()
        w = np.asarray(COMBO_WEIGHTS) / sum(COMBO_WEIGHTS)
        if rng.choice(2, p=w) == 0:
            return ConvexCombo(float(rng.uniform(0.0, 1.0)), build(depth - 1), build(depth - 1))
        return Compose(build(depth - 1), build(depth - 1))

    return build(MAX_DEPTH)
