"""Porosity certificates: hole finding, pointwise verdicts, low-slope sets.

The hole size of a set P inside a ball B(q, r) is

    gamma(q, r, P) = sup { s > 0 : some B(x', s) fits inside B(q, r) \\ P },

with the convention that no admissible hole at all reports `None`.  Every
set oracle answers one query, the exact distance d(c, P) for a batch of
centres: the ball B(c, s) misses P exactly when d(c, P) >= s, so the
largest hole at a centre c of the window is min(r - ||c - q||, d(c, P)).
The one-dimensional example sets also list their obstructions, closed
intervals covering P inside a window, so gamma is half the longest gap
between them; the generic estimator refines chains of hole centres, one
from a lattice over the window, one from an edge march and one from each
record of a random stream, in lockstep rounds on shrinking lattices: one
distance query per round for all chains.

Pointwise verdicts follow two dual patterns for a gauge phi:

* upper: some alpha in (0,1) admits, at every probe scale eps, a point q'
  with 0 < d(q, q') <= eps and B(q', phi^{-1}(alpha d(q, q'))) disjoint
  from P;
* lower: some beta admits, for every eps below a threshold, a point q'
  with d(q, q') <= eps and B(q', phi^{-1}(beta eps)) disjoint from P.

Both are one search, differing only in the hole radius asked for and in
whether q' = q may carry the hole: it derives from each candidate's
distance to P the best constant the candidate admits, and reads off the
largest dyadic constant 2^-k (k <= 16) that every probe scale admits.

The low-slope set of a map f collects the points whose sampled local
Lipschitz constant stays <= lam at every ladder scale phi^{-1}(s_j),
j = l .. J_max; `ladder_witness` plants bumps at a net of the selected
rung and certifies steep quotients for every map xi^{-1}(beta eps)-close
to the perturbed map, which punches verifiable holes into that set.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaugeError, LadderExhausted, ParameterError
from .gauges import Gauge, GaugePair, Ladder, select_j
from .maps import (Constant, ConvexCombo, MapExpr, lip_local_profile,
                   pair_quotients)
from .perturb import bump_perturb, direction_field
from .space import Box, ConvexBody, Norm, as_point, lattice_net, nearest

DYADIC_BITS = 16
GAMMA_ROUNDS = 9            # gamma_est: lattice halvings
GAMMA_PER_AXIS = 17         # gamma_est: 1-D lattice points (9 in 2-D, else 5)
UPPER_EPS = tuple(2.0 ** -k for k in range(2, 19))   # upper_porous_at's scales
LOWER_LEVELS = 16           # lower_porous_at: halvings of eps0 probed
LADDER_PROBES = 8           # ladder_witness: probes per net point, itself included
LADDER_H_COUNT = 4          # ladder_witness: test maps besides g
LOW_SLOPE_SAMPLES = 64      # low_slope_member: the profile's `samples`
LOW_SLOPE_SHELLS = 8        # low_slope_member: dyadic levels per scale


class SetOracle:
    """A subset P of a metric ambient space, known through its distance
    function: the open ball B(c, s) misses P exactly when d(c, P) >= s."""

    ambient: ConvexBody
    norm: Norm

    def distance(self, centers) -> np.ndarray:
        """d(c, P) for each row c of the (k, n) batch `centers`; inf when P
        is empty."""
        raise NotImplementedError

    def obstructions(self, a: float, b: float) -> np.ndarray | None:
        """Sorted closed intervals, a (k, 2) array of rows (lo, hi), whose
        union covers P ∩ (a, b) on the line and whose gaps miss P, points
        as [p, p]; None when the set has no 1-D description."""
        return None

    def exact_gamma(self, q, r: float) -> float | None:
        """Analytic hole size from the obstructions: r when none meets the
        window, else half the longest gap between them and the window's
        ends; None when that gap is empty or the set has no 1-D
        description."""
        q0 = float(as_point(q)[0])
        a, b = q0 - r, q0 + r
        obs = self.obstructions(a, b)
        if obs is None:
            return None
        if not len(obs):
            return r
        cuts = np.concatenate([[a], obs.ravel(), [b]])
        best = float(np.max(np.diff(cuts)[::2])) / 2.0
        return best if best > 0.0 else None


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

    def distance(self, centers) -> np.ndarray:
        centers = np.asarray(centers, dtype=float)
        if self.points.shape[0] == 0:
            return np.full(centers.shape[0], np.inf)
        return nearest(self.points, centers, self.norm)[1]

    def obstructions(self, a: float, b: float) -> np.ndarray | None:
        if self.ambient.dim != 1:
            return None
        pts = np.sort(self.points[:, 0])
        pts = pts[(pts > a) & (pts < b)]
        return np.column_stack([pts, pts])


def _inverse_midpoint(x: float, toward: float) -> tuple[int, int]:
    """1/m as a ratio of integers (numerator, denominator), m the exact
    midpoint of x > 0 and the next float toward `toward`."""
    p, q = x.as_integer_ratio()
    r, s = math.nextafter(x, toward).as_integer_ratio()
    return 2 * q * s, p * s + r * q


def _reciprocal_side(a: float, b: float) -> np.ndarray:
    """Obstructions of the reciprocals 1/n (n >= 1) inside (a, b): the
    point 1/n_min nearest b, then one interval over the rest, down to 0
    when they accumulate at a <= 0.  Every gap inside that interval is
    shorter than 1/n_min - 1/(n_min + 1), the gap just below 1/n_min.

    A reciprocal is inside when its float is: the float of 1/n lies below
    b iff 1/n lies below the midpoint of b and the float under it (no 1/n
    is such a midpoint), and above a iff 1/n lies above the midpoint of a
    and the float over it.  Both ends are found in exact integer
    arithmetic, so any window down to the least subnormal takes the same
    few steps."""
    none = np.empty((0, 2))
    if b <= 0.0:
        return none
    num, den = _inverse_midpoint(b, 0.0)
    n_min = num // den + 1
    top = 1 / n_min
    if a <= 0.0:
        return np.array([[0.0, 1 / (n_min + 1)], [top, top]])
    if a >= 1.0:
        return none
    num, den = _inverse_midpoint(a, math.inf)
    n_max = -(-num // den) - 1
    if n_min > n_max:
        return none
    if n_min == n_max:
        return np.array([[top, top]])
    return np.array([[1 / n_max, 1 / (n_min + 1)], [top, top]])


@dataclass(frozen=True, eq=False)
class ReciprocalSet(SetOracle):
    """P = {1/n : n a nonzero integer} with exact gap structure on the line."""

    ambient: ConvexBody
    norm: Norm

    def distance(self, centers) -> np.ndarray:
        # the reciprocals next to |c| are 1/m and 1/(m+1), m = max(1,
        # floor(1/|c|)); 0 lies in the closure of P, so d(0, P) = 0, and a
        # |c| whose reciprocal overflows gets 0 too, which can only shrink
        # a hole
        c = np.abs(np.asarray(centers, dtype=float)[:, 0])
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / c
        finite = np.isfinite(inv)
        m = np.maximum(np.floor(np.where(finite, inv, 1.0)), 1.0)
        d = np.minimum(np.abs(c - 1.0 / m), np.abs(c - 1.0 / (m + 1.0)))
        return np.where(finite, d, 0.0)

    def obstructions(self, a: float, b: float) -> np.ndarray:
        # the negative side mirrors the positive one: row (lo, hi) of
        # (-b, -a) becomes (-hi, -lo), in reverse order
        return np.vstack([-_reciprocal_side(-b, -a)[::-1, ::-1],
                          _reciprocal_side(a, b)])


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
    def cantor(cls, level: int) -> "IntervalUnionSet":
        """The level-th Cantor iterate on [0, 1], in the ambient [-0.5, 1.5]."""
        segs = [(0.0, 1.0)]
        for _ in range(level):
            segs = [piece
                    for lo, hi in segs
                    for piece in ((lo, lo + (hi - lo) / 3.0), (hi - (hi - lo) / 3.0, hi))]
        return cls(np.asarray(segs), Box(np.array([-0.5]), np.array([1.5])),
                   Norm(2.0))

    def distance(self, centers) -> np.ndarray:
        c = np.asarray(centers, dtype=float)[:, :1]
        lo, hi = self.intervals[:, 0], self.intervals[:, 1]
        return np.maximum(np.maximum(lo - c, c - hi), 0.0).min(axis=1)

    def obstructions(self, a: float, b: float) -> np.ndarray:
        iv = self.intervals
        return iv[(iv[:, 1] > a) & (iv[:, 0] < b)]


TARGETS = ("reciprocal", "zero", "cantor", "full", "empty")


def oracle_from_desc(desc: str, norm: Norm) -> SetOracle:
    """Example set from a descriptor, one of TARGETS: the reciprocals 1/n,
    the point 0, the level-4 Cantor iterate, all of [-1, 1], or nothing."""
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
                     f"(choose from {', '.join(TARGETS)})")


def _hole_radii(oracle: SetOracle, q: np.ndarray, r: float,
                cs: np.ndarray) -> np.ndarray:
    """Radius of the largest ball at each centre of cs that lies inside
    B(q, r) and misses P; 0 for centres outside the window or the space."""
    cap = r - oracle.norm.of(cs - q, axis=1)
    usable = (cap > 0.0) & oracle.ambient.contains_all(cs)
    return np.where(usable, np.minimum(cap, oracle.distance(cs)), 0.0)


@functools.cache
def _lattice_index(per_axis: int, dim: int) -> np.ndarray:
    """The (per_axis^dim, dim) axis indices of the lattice, in "ij" order."""
    return np.indices((per_axis,) * dim).reshape(dim, -1).T


def _lattice(spans, per_axis: int, dim: int) -> np.ndarray:
    """Offsets of the per_axis^dim lattice over [-span, span]^dim, in "ij"
    order, for each entry of `spans`: shape spans.shape + (per_axis^dim,
    dim).  Each span's axis is linspace's own arithmetic, point i at
    i ((span + span) / (per_axis - 1)) - span and the last at span, so it
    has the bits of its own scalar linspace, as long as no span is so
    small that its step underflows to 0."""
    s = spans[..., None]
    axis = np.arange(per_axis) * ((s + s) / (per_axis - 1)) - s
    axis[..., -1] = s[..., 0]
    return axis[..., _lattice_index(per_axis, dim)]


def gamma_est(q, r: float, oracle: SetOracle, trials: int = 128,
              seed: int = 0) -> float | None:
    """Sampled lower estimate of the hole size gamma(q, r, P); None if no hole.

    Three candidate streams start refinement chains:

    * a lattice over the whole window, with no record yet;
    * probes marching geometrically toward the window boundary (for a set
      accumulating at q the largest hole tends to hug the edge, where the
      plain lattice stalls on an interior local maximum), whose best probe
      starts a chain;
    * `trials` random centres, each draw that beats the previous raw
      record starting a chain.

    The chains run in lockstep, one distance query per round for all of
    them: each round lays a lattice around every chain's centre, moves
    the centre to the first best hole when it strictly beats the chain's
    record, and halves the span.  The whole-window chain stops when its
    first round finds no hole.  The estimate is the largest record.

    With a fixed seed the estimate is monotone in `trials`: the first two
    streams do not depend on it, and extra draws only add chains.
    """
    q = as_point(q)
    if not (r > 0.0):
        raise ValueError("window radius must be positive")
    per_axis = GAMMA_PER_AXIS if q.size == 1 else (9 if q.size == 2 else 5)

    # the edge march (axis by axis, sign by sign, r (1 - 2^-i) out from q)
    # and the random stream, in one query
    steps = np.array([sign * e for e in np.eye(q.size) for sign in (-1.0, 1.0)])
    reach = r * (1.0 - 2.0 ** -np.arange(2, 15))
    edge = (q + steps[:, None, :] * reach[:, None]).reshape(-1, q.size)
    rng = np.random.default_rng(seed)
    draws = q + (2.0 * rng.random((trials, q.size)) - 1.0) * r
    s = _hole_radii(oracle, q, r, np.vstack([edge, draws]))
    s_edge, s_draw = s[:len(edge)], s[len(edge):]

    # the chains' starts (centre, span, record): the whole window, the best
    # edge probe if it has a hole, and every draw beating all earlier ones
    i = int(np.argmax(s_edge))
    hit = [i] if s_edge[i] > 0.0 else []
    cap = r - oracle.norm.of(edge[hit] - q, axis=1)
    before = np.maximum.accumulate(np.concatenate([[0.0], s_draw]))[:-1]
    rec = np.flatnonzero(s_draw > before)
    centers = np.vstack([q[None, :], edge[hit], draws[rec]])
    spans = np.concatenate([[r], 2.0 * cap, np.maximum(4.0 * s_draw[rec], r / 64.0)])
    best = np.concatenate([[0.0], s_edge[hit], s_draw[rec]])

    for _ in range(GAMMA_ROUNDS):
        cs = centers[:, None, :] + _lattice(spans, per_axis, q.size)
        s = _hole_radii(oracle, q, r, cs.reshape(-1, q.size)).reshape(len(best), -1)
        rows = np.arange(len(best))
        i = np.argmax(s, axis=1)        # the first best, as a running max keeps
        top = s[rows, i]
        up = top > best
        best = np.where(up, top, best)
        centers = np.where(up[:, None], cs[rows, i], centers)
        live = best > 0.0               # a chain without a hole stops
        centers, spans, best = centers[live], 0.5 * spans[live], best[live]
        if not len(best):
            return None
    return float(best.max())


@dataclass(frozen=True)
class PorosityVerdict:
    """Outcome of a pointwise porosity search, with one hole witness per
    probe scale (none when not detected): the empty ball B(centers[i],
    radii[i]) found at the probe scale eps[i]."""

    status: str                       # "porous-at-point" | "not-detected"
    kind: str                         # "upper" | "lower"
    constant: float | None            # the alpha (upper) or beta (lower) found
    q: np.ndarray
    centers: np.ndarray               # (k, n)
    eps: np.ndarray                   # (k,)
    radii: np.ndarray                 # (k,)

    @property
    def porous(self) -> bool:
        return self.status == "porous-at-point"

    def verify_holes(self, oracle: SetOracle, phi: Gauge) -> bool:
        """Re-check every witness: its centre lies in the ambient space,
        within its eps of q (and apart from q for the upper pattern), its
        radius reaches the one the constant claims, phi^{-1}(alpha d(q, q'))
        (upper) or phi^{-1}(beta eps) (lower), and its ball misses P.  A
        claim t = alpha d(q, q') or beta eps in (0, inf phi] asks only for
        a positive radius, as phi(s) > inf phi >= t for every s > 0."""
        cs = self.centers
        d = oracle.norm.of(cs - self.q, axis=1)
        near = (d <= self.eps) & ((d > 0.0) | (self.kind != "upper"))
        args = [self.constant * float(t)
                for t in (d if self.kind == "upper" else self.eps)]
        # an argument in (0, inf phi] needs a positive radius, at least the
        # least positive float; one not below sup phi, or not positive, has
        # none: reject the witness
        need = np.array([phi.inverse(t) if phi.inf < t < phi.sup
                         else math.ulp(0.0) if 0.0 < t <= phi.inf
                         else np.inf for t in args])
        return bool(np.all(near & oracle.ambient.contains_all(cs)
                           & (self.radii >= need)
                           & (oracle.distance(cs) >= self.radii)))


def _porous_at(kind: str, oracle: SetOracle, q: np.ndarray, phi: Gauge,
               eps_grid, trials: int, seed: int) -> PorosityVerdict:
    """The one verdict search behind both patterns.

    Scale eps offers q' = q, a lattice over [-eps, eps]^n around q and
    `trials` draws; a q' in the space with d = d(q, q') <= eps (and d > 0
    for upper) and D = d(q', P) > 0 admits each c with t = c x below
    sup phi up to c* = phi(min(D, eta)) / x, x = d (upper) or eps (lower).
    The constant is the largest c in 2^-1 .. 2^-DYADIC_BITS every scale
    admits; a scale's witness is its first candidate admitting c whose
    hole, of radius phi^{-1}(t), the scalar inverse confirms.  A t <= inf
    phi (an offset gauge) is met by any positive radius: its witness
    radius is min(D, eta).
    """
    upper = kind == "upper"
    eps = np.asarray(eps_grid, dtype=float)
    k, n = eps.size, q.size
    per_axis = 33 if n == 1 else (9 if n == 2 else 5)
    # one generator for the verdict: row ei of the draws serves scale ei
    u = np.random.default_rng(seed).random((k, trials, n))
    cs = np.concatenate([np.broadcast_to(q, (k, 1, n)),
                         q + _lattice(eps, per_axis, n),
                         q + (2.0 * u - 1.0) * eps[:, None, None]], axis=1)
    d = oracle.norm.of(cs - q, axis=-1)
    dist = oracle.distance(cs.reshape(-1, n)).reshape(d.shape)
    x = d if upper else np.broadcast_to(eps[:, None], d.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_star = phi.value(np.minimum(dist, phi.eta)) / x
    c = 2.0 ** -np.arange(1.0, DYADIC_BITS + 1.0)[:, None, None]
    t = c * x
    low = t <= phi.inf                  # met by any positive radius
    # 1e-9 of slack: rounding must not hide a hole the inverse confirms
    admits = ((d <= eps[:, None]) & ((d > 0.0) | (not upper))
              & oracle.ambient.contains_all(cs.reshape(-1, n)).reshape(d.shape)
              & (dist > 0.0) & (t < phi.sup)
              & (low | (c <= c_star * (1.0 + 1e-9))))
    for ci in np.flatnonzero(admits.any(axis=2).all(axis=1)):
        js = [next((j for j in np.flatnonzero(admits[ci, ei]) if low[ci, ei, j]
                    or dist[ei, j] >= phi.inverse(float(t[ci, ei, j]))), None)
              for ei in range(k)]
        if None not in js:              # else rounding left a scale bare
            radii = np.array([min(dist[ei, j], phi.eta) if low[ci, ei, j]
                              else phi.inverse(float(t[ci, ei, j]))
                              for ei, j in enumerate(js)])
            return PorosityVerdict("porous-at-point", kind, float(c[ci, 0, 0]),
                                   q, cs[np.arange(k), js], eps, radii)
    return PorosityVerdict("not-detected", kind, None, q,
                           np.empty((0, q.size)), np.empty(0), np.empty(0))


def upper_porous_at(oracle: SetOracle, q, phi: Gauge, trials: int = 64,
                    seed: int = 0) -> PorosityVerdict:
    """Dyadic upper-porosity constant alpha at the point q.

    The hole radius demanded at distance d is phi^{-1}(alpha d); a probe
    scale eps admits alpha when some q' with 0 < d(q, q') <= eps carries
    such a hole.  The verdict reports the largest dyadic alpha (down to
    2^-DYADIC_BITS) that every probe scale in UPPER_EPS admits.
    """
    return _porous_at("upper", oracle, as_point(q), phi, UPPER_EPS,
                      trials, seed)


def lower_porous_at(oracle: SetOracle, q, phi: Gauge, eps0: float,
                    trials: int = 64, seed: int = 0) -> PorosityVerdict:
    """Dyadic lower-porosity constant beta at the point q.

    Every probe scale eps in a geometric grid of (0, eps0) must admit a
    point q' with d(q, q') <= eps carrying an empty ball of radius
    phi^{-1}(beta eps); q' = q itself is allowed.
    """
    if not (eps0 > 0.0):
        raise ValueError("eps0 must be positive")
    eps_grid = [eps0 * 2.0 ** -i for i in range(1, LOWER_LEVELS + 1)]
    return _porous_at("lower", oracle, as_point(q), phi, eps_grid,
                      trials, seed)


def low_slope_alpha(lam: float, diam: float) -> float:
    """Upper-porosity constant (1 - lam) / (48 (1 + diam)) for low-slope sets."""
    if not (0.0 <= lam < 1.0):
        raise ParameterError(f"lam must lie in [0, 1), got {lam}")
    if diam < 0.0:
        raise ParameterError("diameter cannot be negative")
    return (1.0 - lam) / (48.0 * (1.0 + diam))


def low_slope_member(f: MapExpr, xs, lam: float, lad: Ladder, l: int = 1,
                     j_max: int = 12, *, body: ConvexBody, norm: Norm,
                     seed=0) -> np.ndarray:
    """For each row x of xs: is the sampled local slope of f at x at most
    lam at every ladder scale phi^{-1}(s_j), j = l .. j_max?  Returns a
    (k,) bool array from one `lip_local_profile` call.

    The probe pool subdivides each scale through LOW_SLOPE_SHELLS dyadic
    levels so that steep behaviour concentrated two orders of magnitude
    below a scale (the bump witnesses live there) is still seen by the
    estimate.  `seed` is anything `np.random.default_rng` accepts.
    """
    if not (1 <= l <= j_max):
        raise ParameterError(f"need 1 <= l <= j_max, got l={l}, j_max={j_max}")
    if j_max > len(lad):
        raise LadderExhausted(
            f"j_max={j_max} beyond the ladder ({len(lad)} rungs); extend it"
        )
    scales = [lad.gauge.inverse(lad.rung(j)) for j in range(l, j_max + 1)]
    est = lip_local_profile(f, xs, scales, body, norm, LOW_SLOPE_SAMPLES,
                            seed, LOW_SLOPE_SHELLS)
    return np.all(est <= lam, axis=1)


def closing_bound(lam: float, K: float, diam: float) -> tuple[float, float, float]:
    """(beta, bound, margin) of the gauge-scale witness constants."""
    beta = (1.0 - lam) ** 2 * (1.0 + lam) / (97.0 * (3.0 - lam) * K * (1.0 + diam))
    bound = ((1.0 + lam) ** 2 - 96.0 * (3.0 - lam) * beta * K * (1.0 + diam)) / (
        (1.0 + lam) * (3.0 - lam))
    return beta, bound, bound - lam


@dataclass(frozen=True)
class LadderWitnessReport:
    """Bump perturbation at a selected rung with certified steep quotients."""

    j: int
    g: MapExpr
    beta: float
    h_radius: float          # sup-distance ball xi^{-1}(beta eps) around g
    probe_r: float           # probe ball radius (1-lam) phi^{-1}(s_j)/(48(1+diam))
    bound: float             # certified closing bound, > lam by construction
    margin: float            # bound - lam = (1-lam)^2 / (97 (3-lam))
    zs: np.ndarray           # (k, n): the witness z of each net point x
    min_quotients: np.ndarray  # (k,): least quotient over h and x's probes


def ladder_witness(f: MapExpr, eps: float, lam: float, lad: Ladder,
                   pair: GaugePair, *, body: ConvexBody, norm: Norm,
                   seed: int = 0) -> LadderWitnessReport:
    """Perturb f at the rung selected by eps and verify steep quotients.

    The rung j satisfies inv_ratio(j+1) < eps <= inv_ratio(j); bumps with
    budget eps go on the `lattice_net` at s_j.  For each net point x the
    witness z = x + (phi^{-1}(s_j)/(24(1+diam))) e_x and probe points y
    within (1-lam) phi^{-1}(s_j)/(48(1+diam)) of x must give

        ||h(z) - h(y)|| / ||z - y||  >  lam

    for every test map h within xi^{-1}(beta eps) of g in the sup metric,
    where beta = (1-lam)^2 (1+lam) / (97 (3-lam) K (1+diam)).  The pair
    inequality must hold at that radius, else GaugeError.
    """
    if not (0.0 < lam < 1.0):
        raise ParameterError(f"lam must lie in (0, 1), got {lam}")
    j = select_j(lad, eps)
    s_j = lad.rung(j)
    phi_inv_s_j = lad.gauge.inverse(s_j)
    diam = body.diameter(norm)
    d1 = 1.0 + diam
    beta, bound, margin = closing_bound(lam, pair.K, diam)
    h_radius = pair.xi.inverse(beta * eps)
    if not pair.holds(h_radius):
        raise GaugeError(f"pair inequality fails at the certified radius "
                         f"{h_radius:.3g}")
    net = lattice_net(body, norm, s_j)
    g = bump_perturb(f, net, eps, body, norm)
    z_off = phi_inv_s_j / (24.0 * d1)
    probe_r = (1.0 - lam) * phi_inv_s_j / (48.0 * d1)
    if not z_off <= g.rho + 1e-15:
        raise ParameterError("witness offset escaped the bump ball")
    rng = np.random.default_rng(seed)
    h_family = [g]
    for _ in range(LADDER_H_COUNT):
        tau = h_radius * rng.uniform(0.25, 1.0) / diam
        h_family.append(ConvexCombo(tau, g, Constant(body.sample(rng))))
    pts = net.points
    zs = pts + z_off * direction_field(body, norm, s_j)(pts)
    # the probes of each x: x itself, then chords into B(x, probe_r) ∩ body
    radii = probe_r * np.arange(1, LADDER_PROBES) / (LADDER_PROBES - 1)
    ys = np.concatenate([pts[:, None, :], body.probes(pts, radii, norm, rng)],
                        axis=1)
    best = np.min([pair_quotients(h, norm, zs, ys).min(axis=1)
                   for h in h_family], axis=0)
    return LadderWitnessReport(j, g, beta, h_radius, probe_r, bound, margin,
                               zs, best)
