"""Constructive perturbations of non-expansive self-maps of a convex body.

Three building blocks, each built straight from its parameters and
measured in the norm the body carries:

* ``flat_collapse(center, delta, r, body)`` — pinch a ball
  B(x0, delta) to its centre while leaving everything outside B(x0, r)
  alone; costs at most delta in the sup metric and 1 + delta/(r - delta)
  in the Lipschitz constant; its net is the one point x0 at s = 2r.

* ``direction_field`` — a unit direction e_z for every z in the body such
  that the whole segment [z, z + (s/3) e_z] stays inside the body.  Built
  from a fixed far pair (v, w) with ||w - v|| > 2s/3: aim at v when z is
  at least s/3 away from it, otherwise aim at w.

* ``bump_perturb(f, net, eps, body)`` — given a non-expansive base map
  f, an s-separated net (s = net.s) and a budget eps, produce a
  non-expansive Tent g with sup-distance at most eps from f that is an
  exact isometry towards each net point x on the ball B(x, g.rho):
  ||g(y) - g(x)|| = ||y - x||  for ||y - x|| <= g.rho.

  The Tent is built from its parts: a collapse of B(x, r) to x for
  every net point (r = s/2); the stages f and a contraction towards the
  body centre by 1 - delta/r, which opens slack around every value; and
  the direction field, along which a radial tent of height delta rises
  at each net point, admissibly by the field's guarantee.  The collapse
  takes the net whole and reads r = net.s/2 from it; the Tent reads r and
  delta from the collapse (``g.collapse.r``, ``g.delta``), keeps the field
  (``g.field``) and has the bump radius ``g.rho`` = delta/2.

``bump_witnesses(g, body)`` turns the isometry of a Tent into a stable
certificate: one probe per net point, inside its bump ball.

`Closing` derives every constant of the argument (delta, the probe
offset, beta, the bound, the margin and the low-slope alpha) in one place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, ParameterError
from .maps import AffineContraction, FlatCollapse, MapExpr, Tent
from .space import ConvexBody, Net, Norm, as_point, distances

SEGMENT_CHECKS = 20     # segment_inside: points checked per segment, ends included


def flat_collapse(center, delta: float, r: float,
                  body: ConvexBody) -> FlatCollapse:
    """Single-centre collapse map as an expression node; FlatCollapse
    itself rejects radii outside 0 < delta < r."""
    center = as_point(center)
    if not body.contains(center, tol=1e-9):
        raise DomainError("collapse centre lies outside the body")
    return FlatCollapse(Net(center[None, :], 2.0 * r, body.norm), delta)


@dataclass(frozen=True, eq=False)
class DirectionField:
    """Two-anchor unit direction field with inward segments of length s/3."""

    v: np.ndarray
    w: np.ndarray
    s: float
    norm: Norm

    def __post_init__(self):
        object.__setattr__(self, "v", as_point(self.v))
        object.__setattr__(self, "w", as_point(self.w))
        gap = float(self.norm.of(self.w - self.v))
        if not gap > 2.0 * self.s / 3.0:
            raise GeometryError(
                f"anchors too close: ||w - v|| = {gap} <= 2s/3 = {2 * self.s / 3}"
            )

    def __call__(self, z) -> np.ndarray:
        """e_z for one point, or row-wise for a (k, n) batch."""
        z = np.asarray(z, dtype=float)
        if z.ndim < 2:
            return self(as_point(z)[None, :])[0]
        out = self.v - z
        dv = self.norm.of(out)
        far = dv >= self.s / 3.0
        out[far] /= dv[far, None]
        # rows within s/3 of v are over s/3 from w (||w - v|| > 2s/3): no 0/0
        to_w = self.w - z[~far]
        out[~far] = to_w / self.norm.of(to_w)[:, None]
        return out

    def segment_inside(self, body: ConvexBody, zs) -> bool:
        """Does [z, z + (s/3) e_z] stay inside the body for every row z of
        zs?  Checked at SEGMENT_CHECKS evenly spaced points of each segment,
        up to 1e-9, in one membership query."""
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        tips = zs + (self.s / 3.0) * self(zs)
        ts = np.linspace(0.0, 1.0, SEGMENT_CHECKS)[:, None, None]
        pts = (1.0 - ts) * zs + ts * tips
        return bool(body.contains_all(pts.reshape(-1, zs.shape[1]), tol=1e-9).all())


def direction_field(body: ConvexBody, s: float) -> DirectionField:
    """Direction field on the body anchored at a diameter-realising pair of
    extreme points (the first such pair in row order)."""
    if not (s > 0.0):
        raise ParameterError("field scale s must be positive")
    ext = body.extreme_points()
    d = distances(ext, ext, body.norm)
    i, j = np.unravel_index(np.argmax(d), d.shape)
    if not d[i, j] > 2.0 * s / 3.0:
        raise GeometryError("no admissible far pair among extreme points")
    return DirectionField(ext[i], ext[j], s, body.norm)


@dataclass(frozen=True)
class Closing:
    """The argument's closing constants on a body of diameter `diam`, in
    the order it derives them (d1 = 1 + diam; each method keeps its
    callers' operation order, so reports keep their bits).

    1. depth(eps, s) = delta = eps (s/2) / (3 d1): collapse radius and tent
       height of a budget-eps bump perturbation on an s-net, s < 1.  The
       collapse, the contraction by 1 - 2 delta/s and the tents move f by
       at most eps (s + diam) / (3 d1) < eps, and g is an isometry towards
       each net point x on B(x, delta/2).
    2. offset(delta) = delta/4: the probe y_x lies in B(x, delta/2), so
       ||g(y_x) - g(x)|| = ||y_x - x|| = delta/4.
    3. bump(lam, s) = (beta, bound), beta = (1 - lam) s / (96 d1): every h
       within beta eps of g keeps ||h(y_x) - h(x)|| >= delta/4 - 2 beta eps,
       a quotient of at least bound = 1 - 48 beta d1 / s = (1 + lam)/2 > lam.
    4. alpha(lam) = (1 - lam) / (48 d1), the low-slope set's porosity
       constant; probe_radius(lam, t) = (1 - lam) t / (48 d1) at the gauge
       scale t = phi^{-1}(s_j) bounds the holes phi^{-1}(alpha d).
    5. gauge(lam, K) = (beta, bound, margin) for a pair with constant K:
       beta = (1 - lam)^2 (1 + lam) / (97 (3 - lam) K d1), bound =
       ((1 + lam)^2 - 96 (3 - lam) beta K d1) / ((1 + lam)(3 - lam)) and
       margin = bound - lam = (1 - lam)^2 / (97 (3 - lam)) > 0; the ladder
       witness sits at offset(depth(1, t)) = t / (24 d1) from x.
    """

    diam: float

    def __post_init__(self):
        if not self.diam >= 0.0:
            raise ParameterError(f"diameter cannot be negative, got {self.diam}")

    def depth(self, eps: float, s: float) -> float:
        return eps * (0.5 * s) / (3.0 * (1.0 + self.diam))

    @staticmethod
    def offset(delta: float) -> float:
        return delta / 4.0

    def bump(self, lam: float, s: float) -> tuple[float, float]:
        if not (0.0 < lam < 1.0):
            raise ParameterError(f"lam must lie in (0, 1), got {lam}")
        beta = (1.0 - lam) * s / (96.0 * (1.0 + self.diam))
        bound = 1.0 - 48.0 * beta * (1.0 + self.diam) / s
        return beta, bound

    def alpha(self, lam: float) -> float:
        if not (0.0 <= lam < 1.0):
            raise ParameterError(f"lam must lie in [0, 1), got {lam}")
        return (1.0 - lam) / (48.0 * (1.0 + self.diam))

    def probe_radius(self, lam: float, t: float) -> float:
        return (1.0 - lam) * t / (48.0 * (1.0 + self.diam))

    def gauge(self, lam: float, K: float) -> tuple[float, float, float]:
        if not (0.0 < lam < 1.0):
            raise ParameterError(f"lam must lie in (0, 1), got {lam}")
        d1 = 1.0 + self.diam
        beta = (1.0 - lam) ** 2 * (1.0 + lam) / (97.0 * (3.0 - lam) * K * d1)
        bound = ((1.0 + lam) ** 2 - 96.0 * (3.0 - lam) * beta * K * d1) / (
            (1.0 + lam) * (3.0 - lam))
        return beta, bound, bound - lam


def bump_perturb(f: MapExpr, net: Net, eps: float, body: ConvexBody) -> Tent:
    """Non-expansive perturbation of f with isometric bumps on the net.

    Stage 1 collapses B(x, r) to x at every net point x (the collapse
    takes the net whole: r = net.s/2, a net closer than net.s is rejected,
    and queries go to the net's cached index) and feeds the result to f;
    stage 2 contracts by 1 - delta/r towards the body centre; stage 3
    plants a tent of height delta at each net point along the direction
    field evaluated at the stage-2 value of x.
    """
    s = net.s
    if net.norm != body.norm:
        raise ParameterError("the net and the body are in different norms")
    if not (0.0 < s < 1.0):
        raise ParameterError(f"net scale must satisfy 0 < s < 1, got {s}")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"budget must satisfy 0 < eps < 1, got {eps}")
    if len(net) < 2:
        raise ParameterError("bump net needs at least two points")
    if f.certificate > 1.0 + 1e-12:
        raise ParameterError(
            f"base map certificate {f.certificate} exceeds 1: not non-expansive"
        )
    anchor = body.center
    if not body.contains(anchor, tol=1e-9):
        raise DomainError("body centre escaped the body")
    r = 0.5 * s
    delta = Closing(body.diameter).depth(eps, s)
    g = Tent(FlatCollapse(net, delta),
             (f, AffineContraction(1.0 - delta / r, anchor)),
             direction_field(body, s))
    # the tent needs room of height delta above each apex; the field
    # guarantees a segment of length s/3 > delta
    if not np.all(body.contains_all(g.apexes + delta * g.directions, tol=1e-9)):
        raise GeometryError("tent tip escaped the body")
    return g


def bump_witnesses(g: Tent, body: ConvexBody) -> np.ndarray:
    """The probes certifying steep quotients around a bump perturbation.

    g is a bump perturbation as `bump_perturb` builds it: its centres are
    the net points and its field e the body's at s = g.collapse.net.s.
    Row i is the probe y = x + Closing.offset(g.delta) e_x of the net point
    x = g.centers[i], inside its bump ball; `Closing.bump` gives the beta
    and the bound that the quotient of every pair certifies.
    """
    if not isinstance(g, Tent):
        raise ParameterError("g is not a bump perturbation (tent stage missing)")
    xs = g.centers
    ys = xs + Closing.offset(g.delta) * g.field(xs)
    if not np.all(body.contains_all(ys, tol=1e-9)):
        raise GeometryError("witness probe escaped the body")
    return ys
