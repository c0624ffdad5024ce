"""Finite-dimensional normed spaces, convex bodies and separated nets.

Everything downstream works over an lp norm on R^n (n small, p in
[1, inf]) and a bounded convex body: axis-aligned boxes, lp balls and
convex hulls of finite vertex sets.  Each body answers one membership
query, `contains_all`, for a batch of points; `contains` is its view of a
single point.  Bodies also expose exact diameters, one seeded batched
rejection sampler of C, a handful of extreme points, and `probes`, the one
sampler of the sets B(x, r) ∩ C, which draws along chords and needs no
membership query.  Nets are finite s-separated families of points built
greedily from a candidate stream.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBodyError, SamplerExhausted

MEMBERSHIP_TOL = 1e-12
SAMPLE_TRIES = 20000        # ConvexBody.sample_many: rejection rounds before giving up


def as_point(coords) -> np.ndarray:
    """Validate and normalise a coordinate sequence to a float64 vector."""
    pt = np.asarray(coords, dtype=float)
    if pt.ndim == 0:
        pt = pt.reshape(1)
    if pt.ndim != 1 or pt.size == 0:
        raise ValueError("a point must be a non-empty 1-d coordinate vector")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point has a non-finite coordinate")
    return pt


@dataclass(frozen=True)
class Norm:
    """lp norm on R^n; `p` is any real >= 1, with math.inf for the sup norm."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"lp norm needs p >= 1, got p={self.p}")

    def of(self, v, axis: int = -1):
        v = np.asarray(v, dtype=float)
        a = np.abs(v)
        if math.isinf(self.p):
            return a.max(axis=axis)
        if self.p == 1.0:
            return a.sum(axis=axis)
        if self.p == 2.0:
            return np.sqrt((a * a).sum(axis=axis))
        # the ufunc, not `**`: on a single vector `**` would take numpy's
        # scalar power, which can round one ulp off the batched one
        return np.power((a ** self.p).sum(axis=axis), 1.0 / self.p)


def distances(a, b, norm: Norm) -> np.ndarray:
    """(m, k) matrix of the distances ||a_i - b_j|| between the rows of two
    point batches."""
    return norm.of(a[:, None, :] - b[None, :, :], axis=2)


NEAREST_BLOCK = 1 << 18     # coordinates per (rows, k, n) temporary of the dense scan
# rows x centres from which `nearest` asks a k-d tree.  Timed with scipy 1.17
# on greedy nets, the tree beat the dense scan on every 2-D and 3-D net from
# 4096 up and lost on every one at 512; in 1-D it lost at every size up to 32768
NEAREST_TREE_MIN = 1 << 12


def _nearest_dense(centers, pts, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    """`nearest` by a scan over every centre.  Rows go in blocks, which
    bounds the temporaries without changing any distance."""
    m = pts.shape[0]
    idx, d = np.empty(m, dtype=np.intp), np.empty(m)
    step = max(1, NEAREST_BLOCK // centers.size)
    for lo in range(0, m, step):
        block = distances(pts[lo:lo + step], centers, norm)
        i = np.argmin(block, axis=1)
        idx[lo:lo + step], d[lo:lo + step] = i, block[np.arange(i.size), i]
    return idx, d


def nearest(centers, pts, norm: Norm,
            reach: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest centre for each row of pts (the first one on
    ties) and the distance to it, for the rows that have a centre within
    `reach`.  Every other row reports some distance d > reach (inf when
    no centre was looked at) and some valid index.

    Queries of at least NEAREST_TREE_MIN rows x centres beyond 1-D ask a
    k-d tree for each row's two nearest centres no farther than just above
    reach (a relative 1e-9, so that the tree's rounding keeps every row
    that `Norm.of` puts within reach) and recompute the distance to the
    first with `Norm.of`.  A row whose runner-up lies within a relative
    1e-12 of it (an exact tie, or the tree's own rounding at p not in
    {1, 2, inf}) is decided by the dense scan, so idx and d equal the
    dense scan's bit for bit on every row within reach.
    """
    if centers.shape[1] == 1 or pts.shape[0] * centers.shape[0] < NEAREST_TREE_MIN:
        return _nearest_dense(centers, pts, norm)
    from scipy.spatial import cKDTree
    near, hit = cKDTree(centers).query(pts, k=2, p=norm.p,
                                       distance_upper_bound=reach * (1.0 + 1e-9))
    found = np.isfinite(near[:, 0])
    idx = np.where(found, hit[:, 0], 0)
    d = np.full(pts.shape[0], math.inf)
    d[found] = norm.of(pts[found] - centers[idx[found]], axis=1)
    tie = found & (near[:, 1] <= near[:, 0] * (1.0 + 1e-12))
    if tie.any():
        idx[tie], d[tie] = _nearest_dense(centers, pts[tie], norm)
    return idx, d


class ConvexBody:
    """Bounded convex body with exact membership and diameter."""

    dim: int

    def contains_all(self, pts, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Membership of each row of a (k, n) batch, up to tol."""
        raise NotImplementedError

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return bool(self.contains_all(x, tol)[0])

    def diameter(self, norm: Norm) -> float:
        raise NotImplementedError

    @property
    def center(self) -> np.ndarray:
        raise NotImplementedError

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box (lo, hi)."""
        raise NotImplementedError

    def extreme_points(self) -> np.ndarray:
        """Deterministic boundary probe points (corners / axis points / vertices)."""
        raise NotImplementedError

    def probes(self, xs, radii, norm: Norm,
               rng: np.random.Generator) -> np.ndarray:
        """Points of B(x_i, r_j) ∩ C for each row x_i of xs and each radius
        r_j: a (k, m, n) array for k centres and m radii.

        Probe (i, j) is x_i + min(1, r_j / ||t - x_i||) (t - x_i), where
        the target t is a convex combination of `extreme_points()` and
        `center` with weights U^15, U uniform on [0, 1) drawn from rng.  It
        lies on the chord from x_i to t, so it is in C by convexity when x_i
        is, at distance min(r_j, ||t - x_i||) from x_i up to rounding: spread
        in radius comes from the radii.  The power lets one or a few weights
        dominate, so t lands near single vertices, edges and faces rather
        than near the centroid, and probes at a centre near the boundary
        also point outward (in [-1, 1] about a quarter of the probes at 0.9
        do; with exponential weights, one in two hundred).  For a `Ball`
        the targets only span the polytope of its listed extreme points.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        radii = np.asarray(radii, dtype=float)
        verts = np.vstack([self.extreme_points(), self.center])
        w = rng.random((xs.shape[0], radii.size, verts.shape[0])) ** 15
        step = (w / w.sum(axis=2, keepdims=True)) @ verts - xs[:, None, :]
        gap = norm.of(step, axis=2)
        frac = np.minimum(1.0, radii / np.where(gap > 0, gap, np.inf))
        return xs[:, None, :] + frac[..., None] * step

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count uniform points of C by rejection from the bounding box.

        Each round draws one candidate per point still missing and makes
        one membership query, so the candidates drawn, and the state the
        generator is left in, are those of `count` successive one-point
        rejection loops.
        """
        lo, hi = self.bounds()
        out = np.empty((count, self.dim))
        have = 0
        for _ in range(SAMPLE_TRIES):
            if have == count:
                break
            cand = lo + rng.random((count - have, self.dim)) * (hi - lo)
            keep = cand[self.contains_all(cand)]
            out[have:have + keep.shape[0]] = keep
            have += keep.shape[0]
        if have < count:
            raise SamplerExhausted(
                f"no accepted sample in {SAMPLE_TRIES} rounds for {type(self).__name__}"
            )
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_many(rng, 1)[0]


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ValueError("box corners have mismatched dimensions")
        if np.any(self.hi < self.lo):
            raise ValueError("box needs hi >= lo on every axis")
        if not np.any(self.hi > self.lo):
            raise DegenerateBodyError("box is a single point")

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains_all(self, pts, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all((pts >= self.lo - tol) & (pts <= self.hi + tol), axis=1)

    def diameter(self, norm: Norm) -> float:
        return float(norm.of(self.hi - self.lo))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def bounds(self):
        return self.lo.copy(), self.hi.copy()

    def extreme_points(self) -> np.ndarray:
        corners = itertools.product(*[(float(a), float(b)) for a, b in zip(self.lo, self.hi)])
        return np.array(list(corners))


@dataclass(frozen=True, eq=False)
class Ball(ConvexBody):
    """lp ball {x : ||x - c||_p <= radius} in its own norm."""

    c: np.ndarray
    radius: float
    norm: Norm = Norm(2.0)

    def __post_init__(self):
        object.__setattr__(self, "c", as_point(self.c))
        if not (self.radius > 0.0):
            raise DegenerateBodyError(f"ball needs radius > 0, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.c.size

    def contains_all(self, pts, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.norm.of(pts - self.c, axis=1) <= self.radius + tol

    def diameter(self, norm: Norm) -> float:
        # sup {||u||_q : ||u||_p <= 1} is 1 for q >= p and n^(1/q - 1/p) below,
        # with 1/inf read as 0; the diameter doubles the radius times that factor.
        p_own = 0.0 if math.isinf(self.norm.p) else 1.0 / self.norm.p
        p_meas = 0.0 if math.isinf(norm.p) else 1.0 / norm.p
        factor = self.dim ** max(0.0, p_meas - p_own)
        return 2.0 * self.radius * factor

    @property
    def center(self) -> np.ndarray:
        return self.c.copy()

    def bounds(self):
        r = np.full(self.dim, self.radius)
        return self.c - r, self.c + r

    def extreme_points(self) -> np.ndarray:
        pts = []
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            pts.append(self.c + self.radius * e)
            pts.append(self.c - self.radius * e)
        diag = np.ones(self.dim) / self.norm.of(np.ones(self.dim))
        pts.append(self.c + self.radius * diag)
        pts.append(self.c - self.radius * diag)
        return np.array(pts)


@dataclass(frozen=True, eq=False)
class Hull(ConvexBody):
    """Convex hull of a finite vertex list, known by its facets.

    `facets` holds one row (a, b) per facet, a a unit outward normal, so
    that the hull is {x : a·x + b <= 0 for every row}: in 1-D the rows
    [1, -max] and [-1, min], beyond it the facet equations of Qhull.  A
    hull whose vertices coincide or span less than its dimension raises
    DegenerateBodyError.
    """

    vertices: np.ndarray
    facets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if verts.shape[0] < 2:
            raise DegenerateBodyError("hull needs at least two vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("hull vertex has a non-finite coordinate")
        if verts.shape[1] == 1:
            if verts.max() == verts.min():
                raise DegenerateBodyError("hull vertices coincide")
            facets = np.array([[1.0, -verts.max()], [-1.0, verts.min()]])
        else:
            # scipy is imported here, as in `nearest`: importing it at the
            # top took longer than the rest of `import nelab.cli` together
            from scipy.spatial import ConvexHull, QhullError
            try:
                facets = ConvexHull(verts).equations
            except QhullError as exc:
                raise DegenerateBodyError(
                    f"hull vertices span less than {verts.shape[1]}-D") from exc
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "facets", facets)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def contains_all(self, pts, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        # x is inside iff no facet's slack a·x + b is positive, up to tol
        # relative to the length of (x, 1)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xs = np.hstack([pts, np.ones((pts.shape[0], 1))])
        return (xs @ self.facets.T).max(axis=1) <= tol * (
            1.0 + np.linalg.norm(xs, axis=1))

    def diameter(self, norm: Norm) -> float:
        return float(distances(self.vertices, self.vertices, norm).max())

    @property
    def center(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def extreme_points(self) -> np.ndarray:
        return self.vertices.copy()


def body_from_desc(desc: str, dim: int, norm: Norm) -> ConvexBody:
    """Body from a descriptor: box | box:lo,hi | ball | ball:r | simplex.
    An argument the descriptor does not take, or an empty one after ':',
    raises ValueError."""
    name, sep, arg = desc.partition(":")
    if desc == "box" or name == "box" and arg:
        bounds = arg.split(",") if arg else ("-1", "1")
        if len(bounds) != 2:
            raise ValueError(f"box descriptor is box:lo,hi, got {desc!r}")
        lo, hi = (float(v) for v in bounds)
        return Box(np.full(dim, lo), np.full(dim, hi))
    if desc == "ball" or name == "ball" and arg:
        radius = float(arg) if arg else 1.0
        return Ball(np.zeros(dim), radius, norm)
    if name == "simplex" and not sep:
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        return Hull(verts)
    raise ValueError(f"unknown body descriptor {desc!r} "
                     f"(box | box:lo,hi | ball | ball:r | simplex)")


def grid_candidates(body: ConvexBody, per_axis: int) -> np.ndarray:
    """Deterministic membership-filtered lattice over the bounding box."""
    if per_axis < 2:
        raise ValueError("need at least 2 lattice points per axis")
    lo, hi = body.bounds()
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(body.dim)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    keep = body.contains_all(mesh, tol=1e-9)
    return mesh[keep]


@dataclass(eq=False)
class Net:
    """Finite s-separated point family inside a body."""

    points: np.ndarray
    s: float

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[0] == 0:
            raise ValueError("net needs at least one point")
        if not (self.s > 0.0):
            raise ValueError("net separation must be positive")

    def __len__(self) -> int:
        return self.points.shape[0]

    def check_separated(self, norm: Norm, tol: float = 0.0) -> bool:
        gaps = distances(self.points, self.points, norm)
        np.fill_diagonal(gaps, np.inf)
        return bool(gaps.min() >= self.s - tol)


def greedy_net(body: ConvexBody, norm: Norm, s: float, candidates) -> Net:
    """First-fit greedy s-separated subset of a candidate stream.

    Candidates are scanned in order; one is accepted when it is at least s
    away from everything accepted so far.  Every candidate therefore ends
    up within s of some net point.
    """
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cands.shape[0] == 0:
        raise ValueError("empty candidate stream")
    diam = body.diameter(norm)
    if not (0.0 < s <= diam):
        raise ValueError(f"need 0 < s <= diam C = {diam}, got s={s}")
    if not body.contains_all(cands, tol=1e-9).all():
        raise ValueError("net candidate lies outside the body")
    # each accepted candidate clears the later ones closer than s to it
    free = np.ones(cands.shape[0], dtype=bool)
    accepted = []
    for i in range(cands.shape[0]):
        if free[i]:
            accepted.append(i)
            free[i + 1:] &= norm.of(cands[i + 1:] - cands[i], axis=1) >= s
    return Net(cands[accepted], s)
