"""Finite-dimensional normed spaces, convex bodies and separated nets.

Everything downstream works over an lp norm on R^n (n small, p in
[1, inf]) and a bounded convex body: axis-aligned boxes, lp balls and
convex hulls of finite vertex sets.  Bodies expose exact membership,
exact diameters, seeded rejection samplers and a handful of extreme
points used as deterministic probe candidates.  Nets are finite
s-separated families of points built greedily from a candidate stream.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import DegenerateBodyError, SamplerExhausted

MEMBERSHIP_TOL = 1e-12


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
        return (a ** self.p).sum(axis=axis) ** (1.0 / self.p)

    def unit(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        n = float(self.of(v))
        if n == 0.0:
            raise ValueError("cannot normalise the zero vector")
        return v / n


def segment_point(x, y, t: float) -> np.ndarray:
    """Point (1-t)x + t y on the segment [x, y]; requires t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"segment parameter must lie in [0, 1], got {t}")
    x, y = as_point(x), as_point(y)
    if x.shape != y.shape:
        raise ValueError("segment endpoints have mismatched dimensions")
    return (1.0 - t) * x + t * y


class ConvexBody:
    """Bounded convex body with exact membership and diameter."""

    dim: int

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def contains_all(self, pts, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.array([self.contains(p, tol) for p in pts], dtype=bool)

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

    def sample(self, rng: np.random.Generator, max_tries: int = 20000) -> np.ndarray:
        lo, hi = self.bounds()
        for _ in range(max_tries):
            cand = lo + rng.random(self.dim) * (hi - lo)
            if self.contains(cand):
                return cand
        raise SamplerExhausted(
            f"no accepted sample in {max_tries} tries for {type(self).__name__}"
        )

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.array([self.sample(rng) for _ in range(count)])


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

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

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

    def sample(self, rng: np.random.Generator, max_tries: int = 20000) -> np.ndarray:
        return self.lo + rng.random(self.dim) * (self.hi - self.lo)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.lo + rng.random((count, self.dim)) * (self.hi - self.lo)


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

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return bool(self.norm.of(np.asarray(x, dtype=float) - self.c) <= self.radius + tol)

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
        diag = self.norm.unit(np.ones(self.dim))
        pts.append(self.c + self.radius * diag)
        pts.append(self.c - self.radius * diag)
        return np.array(pts)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo, hi = self.bounds()
        chunks, have = [], 0
        while have < count:
            draw = lo + rng.random((2 * count + 32, self.dim)) * (hi - lo)
            keep = draw[self.contains_all(draw)]
            chunks.append(keep)
            have += keep.shape[0]
        return np.vstack(chunks)[:count]


@dataclass(frozen=True, eq=False)
class Hull(ConvexBody):
    """Convex hull of a finite vertex list; membership via non-negative least squares."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if verts.shape[0] < 2:
            raise DegenerateBodyError("hull needs at least two vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("hull vertex has a non-finite coordinate")
        if np.max(np.linalg.norm(verts - verts[0], axis=1)) == 0.0:
            raise DegenerateBodyError("hull vertices coincide")
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        # x is in the hull iff some lam >= 0 with sum(lam)=1 reproduces it;
        # solved as NNLS on the stacked (coords; 1) system, membership iff the
        # residual vanishes up to tol.
        x = np.asarray(x, dtype=float)
        a = np.vstack([self.vertices.T, np.ones(self.vertices.shape[0])])
        b = np.append(x, 1.0)
        _, resid = nnls(a, b)
        return bool(resid <= tol * (1.0 + np.linalg.norm(b)))

    def diameter(self, norm: Norm) -> float:
        best = 0.0
        for i in range(self.vertices.shape[0]):
            d = norm.of(self.vertices - self.vertices[i], axis=1)
            best = max(best, float(d.max()))
        return best

    @property
    def center(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def extreme_points(self) -> np.ndarray:
        return self.vertices.copy()


def body_from_desc(desc: str, dim: int, norm: Norm) -> ConvexBody:
    """Body from a descriptor: box | box:lo,hi | ball | ball:r | simplex."""
    name, _, arg = desc.partition(":")
    if name == "box":
        lo, hi = (-1.0, 1.0)
        if arg:
            lo, hi = (float(v) for v in arg.split(","))
        return Box(np.full(dim, lo), np.full(dim, hi))
    if name == "ball":
        radius = float(arg) if arg else 1.0
        return Ball(np.zeros(dim), radius, norm)
    if name == "simplex":
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        return Hull(verts)
    raise ValueError(f"unknown body descriptor {desc!r}")


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

    def min_separation(self, norm: Norm) -> float:
        k = len(self)
        if k < 2:
            return math.inf
        best = math.inf
        for i in range(k - 1):
            d = norm.of(self.points[i + 1:] - self.points[i], axis=1)
            best = min(best, float(d.min()))
        return best

    def check_separated(self, norm: Norm, tol: float = 0.0) -> bool:
        return self.min_separation(norm) >= self.s - tol


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
    accepted = []
    for c in cands:
        if not body.contains(c, tol=1e-9):
            raise ValueError("net candidate lies outside the body")
        if not accepted or float(norm.of(np.asarray(accepted) - c, axis=1).min()) >= s:
            accepted.append(c)
    return Net(np.asarray(accepted), s)
