"""Finite-dimensional normed spaces, convex bodies and separated nets.

Everything downstream works over a bounded convex body in R^n (n small)
that carries its lp norm (p in [1, inf]): axis-aligned boxes, lp balls
and convex hulls of finite vertex sets.  Each body answers one membership
query, `contains_all`, for a batch of points; `contains` is its view of a
single point.  Bodies also expose their diameter, one seeded batched
rejection sampler of C, a handful of extreme points, and `probes`, the one
sampler of the sets B(x, r) ∩ C, which draws along chords and needs no
membership query.  Nets are finite s-separated point families, built
greedily in the body's norm; every pipeline's net is `lattice_net`'s.
Only the point-level primitives take a norm of their own.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

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

    def of(self, v):
        """The norm of v over its last axis; a single vector is a one-row
        batch.  One column at a time, left to right: numpy reduces fewer
        than 8 elements sequentially too, so up to 7 coordinates the bits
        are those of its reductions, at a tenth of their cost."""
        v = np.asarray(v, dtype=float)
        rows = v.reshape(1, -1) if v.ndim < 2 else v
        cols = range(1, rows.shape[-1])
        out = np.abs(rows[..., 0])
        # one coordinate: |x| for every p, no power to round or underflow
        if math.isinf(self.p) or not cols:
            for j in cols:
                np.maximum(out, np.abs(rows[..., j]), out=out)
        elif self.p == 1.0:
            for j in cols:
                out += np.abs(rows[..., j])
        elif self.p == 2.0:
            out *= out
            for j in cols:
                out += np.square(rows[..., j])
            np.sqrt(out, out=out)
        else:
            out **= self.p
            for j in cols:
                out += np.abs(rows[..., j]) ** self.p
            np.power(out, 1.0 / self.p, out=out)
        return out if v.ndim > 1 else out[0]


def distances(a, b, norm: Norm) -> np.ndarray:
    """(m, k) matrix of the distances ||a_i - b_j|| between the rows of two
    point batches."""
    return norm.of(a[:, None, :] - b[None, :, :])


def nearest(centers, pts, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest centre for each row of pts (the first one on
    ties) and the distance to it, by a scan over every centre."""
    dist = distances(pts, centers, norm)
    idx = np.argmin(dist, axis=1)
    return idx, dist[np.arange(idx.size), idx]


class ConvexBody:
    """Bounded convex body with exact membership, measured in its `norm`."""

    dim: int
    norm: Norm

    def contains_all(self, pts, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Membership of each row of a (k, n) batch, up to tol."""
        raise NotImplementedError

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return bool(self.contains_all(x, tol)[0])

    @cached_property
    def diameter(self) -> float:
        """sup ||x - y|| over x, y in C, in the body's norm; computed once."""
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

    def probes(self, xs, radii, rng: np.random.Generator) -> np.ndarray:
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
        gap = self.norm.of(step)
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
            keep = cand.compress(self.contains_all(cand), axis=0)
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
    norm: Norm = Norm(2.0)

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
        lo, hi = self.lo - tol, self.hi + tol
        inside = (pts[:, 0] >= lo[0]) & (pts[:, 0] <= hi[0])
        for a in range(1, pts.shape[1]):
            inside &= (pts[:, a] >= lo[a]) & (pts[:, a] <= hi[a])
        return inside

    @cached_property
    def diameter(self) -> float:
        return float(self.norm.of(self.hi - self.lo))

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
        return self.norm.of(pts - self.c) <= self.radius + tol

    @cached_property
    def diameter(self) -> float:
        return 2.0 * self.radius

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
    that the hull is {x : a·x + b <= 0 for every row}.  A row is the plane
    through n affinely independent vertices that leaves every vertex a
    member by `contains_all`'s own rule at MEMBERSHIP_TOL, oriented that
    way; equal rows are kept once, in the order found, so that in 1-D the
    rows are [1, -max] and [-1, min].  Coplanar vertices, such as those of
    a cube's face, give one plane several times over, which rounding may
    leave as near-equal rows: harmless, since membership takes the largest
    slack.  The planes come from all C(m, n) n-subsets of the m vertices;
    the hulls the lab builds are small (a random space's n + 3 vertices
    for n <= 2, the `simplex` body's n + 1 for n <= 3), so that is at most
    C(5, 2) = 10 planes.  A hull whose vertices span less than its
    dimension raises DegenerateBodyError.
    """

    vertices: np.ndarray
    norm: Norm = Norm(2.0)
    facets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        m, n = verts.shape
        if m < 2:
            raise DegenerateBodyError("hull needs at least two vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("hull vertex has a non-finite coordinate")
        if np.linalg.matrix_rank(verts[1:] - verts[0]) < n:
            raise DegenerateBodyError(f"hull vertices span less than {n}-D")
        # the plane through vertices p_0 .. p_{n-1}: its normal's i-th
        # coordinate is (-1)^i times the minor of the edges p_k - p_0
        # without column i (1 in 1-D, where there are no edges)
        base = verts[np.array(list(itertools.combinations(range(m), n)))]
        edges = base[:, 1:] - base[:, :1]
        normal = np.stack([(-1) ** i * np.linalg.det(np.delete(edges, i, 2))
                           for i in range(n)], axis=1)
        length = np.linalg.norm(normal, axis=1)
        keep = length > 0
        normal = normal[keep] / length[keep, None]
        rows = np.hstack([normal, -np.sum(normal * base[keep, 0], axis=1,
                                          keepdims=True)])
        xs = np.hstack([verts, np.ones((m, 1))])
        slack = xs @ rows.T
        lim = MEMBERSHIP_TOL * (1.0 + np.linalg.norm(xs, axis=1))[:, None]
        rows = np.vstack([rows[(slack <= lim).all(axis=0)],
                          -rows[(slack >= -lim).all(axis=0)]])
        _, first = np.unique(rows, axis=0, return_index=True)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "facets", rows[np.sort(first)])

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

    @cached_property
    def diameter(self) -> float:
        return float(distances(self.vertices, self.vertices, self.norm).max())

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
        return Box(np.full(dim, lo), np.full(dim, hi), norm)
    if desc == "ball" or name == "ball" and arg:
        radius = float(arg) if arg else 1.0
        return Ball(np.zeros(dim), radius, norm)
    if name == "simplex" and not sep:
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        return Hull(verts, norm)
    raise ValueError(f"unknown body descriptor {desc!r} "
                     f"(box | box:lo,hi | ball | ball:r | simplex)")


def grid_candidates(body: ConvexBody, per_axis: int) -> np.ndarray:
    """Deterministic membership-filtered lattice over the bounding box."""
    if per_axis < 2:
        raise ValueError("need at least 2 lattice points per axis")
    lo, hi = body.bounds()
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(body.dim)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return mesh.compress(body.contains_all(mesh, tol=1e-9), axis=0)


# the cell index of `Net.nearest`: at most GRID_CELLS cells inside its
# border, and cells and radius widened by a relative GRID_MARGIN
GRID_CELLS = 1 << 16
GRID_MARGIN = 1e-9
# rows x centres x dim from which `Net.nearest` asks its index.  Timed on
# greedy nets in dims 1-3, the dense scan won on every query below 2^11
# and the index on every one above 2^13
NEAREST_GRID_MIN = 1 << 12


class _CellIndex:
    """The query "nearest centre within radius" on a grid of cells.

    The cells have side radius/2, or more where that would put more than
    GRID_CELLS of them in the box the balls B(c, radius) span; one layer of
    border cells, unbounded outward, holds the rest of space.  Each cell
    lists the centres whose ball B(c, radius) meets it, both widened by a
    relative GRID_MARGIN (the cell by GRID_MARGIN times its side plus the
    largest coordinate of the grid box).  `owner` holds a cell's one
    centre, or centre 0 when its list is empty; a list of two or more
    centres is `cands[starts[j]:starts[j] + counts[j]]`, and its cell's
    owner -1 - j.

    The margin covers the rounding of the cell lookup, and `Norm.of` grows
    with every coordinate of its argument, so a row within radius of a
    centre lies in a cell whose list holds that centre, and every other
    centre within radius.  A row is therefore measured against its cell's
    list, in centre order: one `Norm.of` for most rows, and a row in a cell
    that no ball meets is farther than radius from centre 0 as from any.
    """

    def __init__(self, centers: np.ndarray, radius: float, norm: Norm):
        self.centers, self.norm = centers, norm
        k, n = centers.shape
        radius *= 1.0 + GRID_MARGIN
        self.lo = centers.min(axis=0) - radius
        span = centers.max(axis=0) + radius - self.lo
        self.side = 0.5 * radius
        while (cells := np.prod(np.ceil(span / self.side))) > GRID_CELLS:
            self.side *= max(1.25, (cells / GRID_CELLS) ** (1.0 / n))
        self.shape = np.ceil(span / self.side)
        dims = (self.shape + 2.0).astype(np.intp)
        self.strides = np.array([float(np.prod(dims[i + 1:])) for i in range(n)])
        pad = GRID_MARGIN * (self.side + np.abs(self.lo)
                             + np.abs(self.lo + self.shape * self.side))
        # along each axis, the cells whose widened extent meets that of
        # each centre's ball, and their gaps to the centre
        lo, top = self.lo[:, None], self.shape[:, None]
        first = np.maximum(-1.0, np.floor((centers - radius - pad - self.lo) / self.side))
        last = np.minimum(self.shape, np.floor((centers + radius + pad - self.lo) / self.side))
        width = int((last - first).max()) + 1
        cell = first[:, :, None] + np.arange(width)                # (k, n, w)
        below = np.where(cell >= 0.0, lo + cell * self.side - pad[:, None], -np.inf)
        above = np.where(cell < top, lo + (cell + 1.0) * self.side + pad[:, None], np.inf)
        c = centers[:, :, None]
        gap = np.maximum(np.maximum(below - c, c - above), 0.0)
        gap[cell > last[:, :, None]] = np.inf
        # the cells each ball meets: the norm of the gaps over the cell
        # product, for every centre at once, with the axes along the last
        gaps = np.empty((k,) + (width,) * n + (n,))
        for a in range(n):
            gaps[..., a] = gap[:, a].reshape((k,) + (1,) * a + (width,)
                                             + (1,) * (n - a - 1))
        hit = np.nonzero(norm.of(gaps) <= radius)
        flat = sum((cell[hit[0], a, hit[a + 1]] + 1.0) * self.strides[a]
                   for a in range(n)).astype(np.intp)
        order = np.argsort(flat, kind="stable")      # centre order within a cell
        flat, self.cands = flat[order], hit[0][order]
        self.starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
        self.counts = np.diff(np.r_[self.starts, flat.size])
        cells = flat[self.starts]
        self.owner = np.zeros(int(np.prod(dims)), dtype=np.intp)
        self.owner[cells] = self.cands[self.starts]
        several = self.counts > 1
        self.owner[cells[several]] = -1 - np.arange(several.sum())
        self.starts, self.counts = self.starts[several], self.counts[several]

    def query(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flat = np.zeros(pts.shape[0])
        for x, lo, size, stride in zip(pts.T, self.lo, self.shape, self.strides):
            q = np.floor((x - lo) / self.side)
            np.maximum(q, -1.0, out=q)
            np.minimum(q, size, out=q)
            q += 1.0
            q *= stride
            flat += q
        idx = self.owner[flat.astype(np.intp)]
        several = np.flatnonzero(idx < 0)
        slot = -1 - idx[several]
        idx[several] = 0
        d = self.norm.of(pts - self.centers.take(idx, axis=0))
        if several.size:
            # each list is padded with repeats of its last centre, which
            # argmin, taking the first minimum, never picks over the original
            count = self.counts[slot][:, None]
            pick = np.minimum(np.arange(count.max()), count - 1)
            cand = self.cands[self.starts[slot][:, None] + pick]
            dist = self.norm.of(pts.take(several, axis=0)[:, None, :]
                                - self.centers.take(cand, axis=0))
            j = np.argmin(dist, axis=1)
            rows = np.arange(several.size)
            idx[several], d[several] = cand[rows, j], dist[rows, j]
        return idx, d


@dataclass(eq=False)
class Net:
    """Finite s-separated point family inside a body, in the body's norm."""

    points: np.ndarray
    s: float
    norm: Norm
    _index: _CellIndex | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[0] == 0:
            raise ValueError("net needs at least one point")
        if not (self.s > 0.0):
            raise ValueError("net separation must be positive")

    def __len__(self) -> int:
        return self.points.shape[0]

    def check_separated(self) -> bool:
        gaps = distances(self.points, self.points, self.norm)
        np.fill_diagonal(gaps, np.inf)
        return bool(gaps.min() >= self.s)

    def nearest(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """`nearest` on the rows of pts with a net point within s/2, bit for
        bit, separated or not; every other row reports some distance
        d > s/2 and some valid index.  A query of at least NEAREST_GRID_MIN
        coordinates pairs is answered from a cell index, built on first
        use and kept; a smaller one is `nearest` itself."""
        if pts.shape[0] * self.points.size < NEAREST_GRID_MIN:
            return nearest(self.points, pts, self.norm)
        if self._index is None:
            self._index = _CellIndex(self.points, 0.5 * self.s, self.norm)
        return self._index.query(pts)


def greedy_net(body: ConvexBody, s: float, candidates) -> Net:
    """First-fit greedy s-separated subset of a candidate stream, in the
    body's norm.

    Candidates are scanned in order; one is accepted when it is at least s
    away from everything accepted so far.  Every candidate therefore ends
    up within s of some net point.
    """
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cands.shape[0] == 0:
        raise ValueError("empty candidate stream")
    diam = body.diameter
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
            free[i + 1:] &= body.norm.of(cands[i + 1:] - cands[i]) >= s
    return Net(cands[accepted], s, body.norm)


def lattice_net(body: ConvexBody, s: float,
                per_axis: tuple[int, int, int] = (41, 13, 7)) -> Net:
    """The greedy s-net over the body's lattice of per_axis[dim - 1] points
    per axis: the one net builder of the pipelines."""
    return greedy_net(body, s, candidates=grid_candidates(
        body, per_axis[body.dim - 1]))
