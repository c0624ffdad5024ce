"""Gauge functions, equivalence pairs and scale ladders.

A gauge phi is a strictly increasing concave function on an interval
(0, eta).  The pair construction finds, for a gauge with phi(t)/t -> inf
as t -> 0, a companion gauge xi and a constant K >= 1 with

    t/K  <=  phi(t) * xi(t)  <=  K t        on (0, 1/K),

and xi(t) -> 0 at 0.  When inf phi > 0 the companion is simply xi(t) = t.
Otherwise phi is extended affinely past a differentiability point t0 and
xi is the least concave majorant of t / phi_hat(t).

A ladder attached to phi is the decreasing scale sequence defined by
s_1 = min{1, sup phi, diam C}/4 and the halving rule

    phi^{-1}(s_{j+1}) / s_{j+1}  =  phi^{-1}(s_j) / (2 s_j),

solved in closed form for pure powers and by bisection otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaugeError, LadderExhausted, RangeError
from .space import ConvexBody, Norm

INVERSE_TOL = 1e-12
BISECT_CAP = 200


class Gauge:
    """Strictly increasing concave function on (0, eta)."""

    eta: float

    def value(self, t):
        raise NotImplementedError

    @property
    def sup(self) -> float:
        return float(self.value(self.eta))

    @property
    def inf(self) -> float:
        raise NotImplementedError

    @property
    def slope_at_zero_unbounded(self) -> bool:
        """Does phi(t)/t -> inf as t -> 0+ (with inf phi = 0)?"""
        raise NotImplementedError

    def inverse(self, y: float, tol: float = INVERSE_TOL) -> float:
        """Solve phi(t) = y by bisection; closed forms override this."""
        if not (self.inf < y < self.sup):
            raise RangeError(f"value {y} outside gauge range ({self.inf}, {self.sup})")
        lo, hi = 0.0, self.eta
        for _ in range(BISECT_CAP):
            mid = 0.5 * (lo + hi)
            fm = float(self.value(mid)) if mid > 0 else self.inf
            if abs(fm - y) <= tol:
                return mid
            if fm < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def check(self, grid: int = 1000, tol: float = 1e-10) -> None:
        """Raise GaugeError unless strictly increasing and midpoint-concave."""
        ts = np.linspace(self.eta / grid, self.eta, grid)
        ys = np.asarray(self.value(ts), dtype=float)
        if np.any(np.diff(ys) <= 0.0):
            raise GaugeError("gauge is not strictly increasing on the check grid")
        mid = self.value(0.5 * (ts[:-1] + ts[1:]))
        if np.any(mid < 0.5 * (ys[:-1] + ys[1:]) - tol):
            raise GaugeError("gauge fails the midpoint concavity check")


@dataclass(frozen=True)
class PowerGauge(Gauge):
    """t -> offset + coeff * t**p with p in (0, 1]."""

    p: float = 0.5
    coeff: float = 1.0
    offset: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise GaugeError(f"power gauge needs p in (0, 1], got {self.p}")
        if self.coeff <= 0.0 or self.offset < 0.0 or self.eta <= 0.0:
            raise GaugeError("power gauge needs coeff > 0, offset >= 0, eta > 0")

    def value(self, t):
        return self.offset + self.coeff * np.asarray(t, dtype=float) ** self.p

    @property
    def inf(self) -> float:
        return self.offset

    @property
    def slope_at_zero_unbounded(self) -> bool:
        return self.offset == 0.0 and self.p < 1.0

    def inverse(self, y: float, tol: float = INVERSE_TOL) -> float:
        if not (self.inf < y < self.sup):
            raise RangeError(f"value {y} outside gauge range ({self.inf}, {self.sup})")
        return float(((y - self.offset) / self.coeff) ** (1.0 / self.p))


@dataclass(frozen=True)
class RatioGauge(Gauge):
    """t -> t / (1 + t); concave, bounded slope at zero."""

    eta: float = 1.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return t / (1.0 + t)

    @property
    def inf(self) -> float:
        return 0.0

    @property
    def slope_at_zero_unbounded(self) -> bool:
        return False

    def inverse(self, y: float, tol: float = INVERSE_TOL) -> float:
        if not (0.0 < y < self.sup):
            raise RangeError(f"value {y} outside gauge range (0, {self.sup})")
        return float(y / (1.0 - y))


@dataclass(frozen=True)
class SqrtRatioGauge(Gauge):
    """t -> sqrt(t) / (1 + sqrt(t)); the growth-adjusted rational gauge."""

    eta: float = 1.0

    def value(self, t):
        u = np.sqrt(np.asarray(t, dtype=float))
        return u / (1.0 + u)

    @property
    def inf(self) -> float:
        return 0.0

    @property
    def slope_at_zero_unbounded(self) -> bool:
        return True

    def inverse(self, y: float, tol: float = INVERSE_TOL) -> float:
        if not (0.0 < y < self.sup):
            raise RangeError(f"value {y} outside gauge range (0, {self.sup})")
        u = y / (1.0 - y)
        return float(u * u)


@dataclass(frozen=True, eq=False)
class PiecewiseGauge(Gauge):
    """Piecewise-linear gauge through knots, extended affinely at both ends."""

    knots_t: np.ndarray
    knots_y: np.ndarray

    def __post_init__(self):
        kt = np.asarray(self.knots_t, dtype=float)
        ky = np.asarray(self.knots_y, dtype=float)
        if kt.ndim != 1 or kt.size < 2 or kt.shape != ky.shape:
            raise GaugeError("piecewise gauge needs two aligned knot vectors")
        if np.any(np.diff(kt) <= 0.0):
            raise GaugeError("piecewise knots must be strictly increasing in t")
        object.__setattr__(self, "knots_t", kt)
        object.__setattr__(self, "knots_y", ky)

    @property
    def eta(self) -> float:
        return float(self.knots_t[-1])

    def slopes(self) -> np.ndarray:
        return np.diff(self.knots_y) / np.diff(self.knots_t)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.knots_t, self.knots_y)
        sl = self.slopes()
        below = t < self.knots_t[0]
        above = t > self.knots_t[-1]
        if np.any(below):
            out = np.where(below, self.knots_y[0] + sl[0] * (t - self.knots_t[0]), out)
        if np.any(above):
            out = np.where(above, self.knots_y[-1] + sl[-1] * (t - self.knots_t[-1]), out)
        return out if out.ndim else float(out)

    @property
    def inf(self) -> float:
        return float(max(0.0, self.value(0.0)))

    @property
    def slope_at_zero_unbounded(self) -> bool:
        return False

    def inverse(self, y: float, tol: float = INVERSE_TOL) -> float:
        ky, kt = self.knots_y, self.knots_t
        if np.any(np.diff(ky) <= 0.0):
            raise GaugeError("piecewise gauge not invertible: values not increasing")
        lo = float(self.value(0.0)) if kt[0] > 0.0 else float(ky[0])
        if not (lo < y < ky[-1]) and not (kt[0] == 0.0 and lo <= y < ky[-1]):
            raise RangeError(f"value {y} outside gauge range ({lo}, {ky[-1]})")
        i = int(np.searchsorted(ky, y, side="right")) - 1
        i = max(0, min(i, kt.size - 2))
        t0, t1, y0, y1 = kt[i], kt[i + 1], ky[i], ky[i + 1]
        return float(t0 + (y - y0) * (t1 - t0) / (y1 - y0))


def gauge_from_desc(desc: str) -> Gauge:
    """Gauge from a descriptor: sqrt | power:p | power:a/b | sqrt-ratio |
    ratio | offset:p | identity."""
    name, _, arg = desc.partition(":")
    if name == "sqrt":
        return PowerGauge(p=0.5)
    if name == "power":
        num, _, den = arg.partition("/")
        p = float(num) / float(den) if den else float(num)
        return PowerGauge(p=p)
    if name == "sqrt-ratio":
        return SqrtRatioGauge()
    if name == "ratio":
        return RatioGauge()
    if name == "offset":
        return PowerGauge(p=float(arg) if arg else 0.5, offset=1.0)
    if name == "identity":
        return PowerGauge(p=1.0)
    raise ValueError(f"unknown gauge descriptor {desc!r}")


def gauge_K(phi: Gauge, edge: float = 1e-9) -> float:
    """sup of t/phi(t) over (0, eta); attained at the right edge for concave phi."""
    t = phi.eta * (1.0 - edge)
    v = float(phi.value(t))
    if v <= 0.0:
        raise GaugeError("gauge is non-positive near its right edge")
    return t / v


def least_concave_majorant(ts, ys) -> PiecewiseGauge:
    """Least piecewise-linear concave majorant of the points (ts, ys).

    The result passes through a subset of the input points (the upper hull)
    and majorises every input point; slopes are non-increasing.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or ts.shape != ys.shape:
        raise ValueError("need two aligned vectors with at least two points")
    order = np.argsort(ts, kind="stable")
    ts, ys = ts[order], ys[order]
    # collapse duplicate abscissae onto their max ordinate
    keep_t, keep_y = [ts[0]], [ys[0]]
    for t, y in zip(ts[1:], ys[1:]):
        if t == keep_t[-1]:
            keep_y[-1] = max(keep_y[-1], y)
        else:
            keep_t.append(t)
            keep_y.append(y)
    if len(keep_t) < 2:
        raise ValueError("all abscissae coincide")
    hull_t, hull_y = [], []
    for t, y in zip(keep_t, keep_y):
        while len(hull_t) >= 2:
            s_prev = (hull_y[-1] - hull_y[-2]) / (hull_t[-1] - hull_t[-2])
            s_new = (y - hull_y[-1]) / (t - hull_t[-1])
            if s_prev <= s_new:          # middle knot below the new chord
                hull_t.pop()
                hull_y.pop()
            else:
                break
        hull_t.append(t)
        hull_y.append(y)
    return PiecewiseGauge(np.asarray(hull_t), np.asarray(hull_y))


@dataclass(frozen=True, eq=False)
class GaugePair:
    """Companion pair (phi, xi, K) with t/K <= phi*xi <= K*t on (0, 1/K)."""

    phi: Gauge
    xi: Gauge
    K: float

    def check(self, grid: int = 1000, tol: float = 1e-13) -> None:
        """Raise GaugeError unless the pair inequality holds on a log grid."""
        ts = np.geomspace(1e-8 / self.K, (1.0 / self.K) * (1.0 - 1e-12), grid)
        prod = np.asarray(self.phi.value(ts), dtype=float) * np.asarray(
            self.xi.value(ts), dtype=float)
        if np.any(prod < ts / self.K - tol * ts) or np.any(prod > self.K * ts + tol * ts):
            raise GaugeError("pair inequality t/K <= phi*xi <= K*t fails on the grid")
        small = min(1e-6, 0.5 / self.K)
        if float(self.xi.value(small)) > 1e-2:
            raise GaugeError("companion gauge does not vanish at zero")


def _next_pow2_above(x: float) -> float:
    k = 1.0
    while k <= x:
        k *= 2.0
    return k


def build_pair(phi: Gauge, grid_size: int = 2000, verify_grid: int = 1000) -> GaugePair:
    """Construct the companion gauge and constant for an admissible gauge.

    Requires phi strictly increasing and concave with phi(t)/t -> inf as
    t -> 0 (an offset gauge with inf phi > 0 qualifies trivially and gets
    xi(t) = t).  Raises GaugeError when the growth condition fails, e.g.
    for phi(t) = t or phi(t) = t/(1+t).
    """
    phi.check()
    if phi.inf > 0.0:
        xi: Gauge = PowerGauge(p=1.0, coeff=1.0, offset=0.0, eta=phi.eta)
        k0 = max(1.0 / phi.eta, 1.0 / phi.inf, phi.sup, 1.0)
        K = _next_pow2_above(k0)
    else:
        if not phi.slope_at_zero_unbounded:
            raise GaugeError("gauge grows linearly near 0: no companion exists")
        t0, slope = _stable_slope_point(phi)
        eta = phi.eta
        ts = np.concatenate([[0.0], np.geomspace(eta * 1e-12, eta, grid_size)])
        phi_hat = np.where(ts <= t0, np.asarray(phi.value(np.maximum(ts, eta * 1e-300))),
                           float(phi.value(t0)) + slope * (ts - t0))
        psi = np.zeros_like(ts)
        psi[1:] = ts[1:] / phi_hat[1:]
        xi = least_concave_majorant(ts, psi)
        ratio = np.asarray(xi.value(ts[1:]), dtype=float) / psi[1:]
        L = float(ratio.max())
        K = _next_pow2_above(max(L, 1.0 / t0, 1.0))
    pair = None
    for _ in range(40):
        cand = GaugePair(phi, xi, K)
        try:
            _check_xi_increasing(xi, 1.0 / K)
            cand.check(grid=verify_grid)
            pair = cand
            break
        except GaugeError:
            K *= 2.0
    if pair is None:
        raise GaugeError("no admissible pair constant found (40 doublings)")
    return pair


def _stable_slope_point(phi: Gauge) -> tuple[float, float]:
    """A point where the two one-sided difference quotients of phi agree.

    Smooth curvature contributes ~|phi''| h ~ 1e-7 to the quotient gap, a
    kink contributes its full slope jump, so 1e-4 separates the two.
    """
    eta = phi.eta
    h = eta * 1e-7
    for frac in (0.5, 0.375, 0.625, 0.4375, 0.5625, 0.3125, 0.6875):
        t0 = eta * frac
        sm = (float(phi.value(t0)) - float(phi.value(t0 - h))) / h
        sp = (float(phi.value(t0 + h)) - float(phi.value(t0))) / h
        if abs(sp - sm) <= 1e-4 * max(1.0, abs(sp)):
            return t0, 0.5 * (sp + sm)
    raise GaugeError("no stable differentiability point found for the gauge")


def _check_xi_increasing(xi: Gauge, upto: float) -> None:
    if isinstance(xi, PiecewiseGauge):
        kt = xi.knots_t
        sl = xi.slopes()
        active = kt[:-1] < upto
        if np.any(sl[active] <= 0.0):
            raise GaugeError("companion gauge not strictly increasing on (0, 1/K)")
    else:
        ts = np.geomspace(upto * 1e-6, upto, 64)
        ys = np.asarray(xi.value(ts), dtype=float)
        if np.any(np.diff(ys) <= 0.0):
            raise GaugeError("companion gauge not strictly increasing on (0, 1/K)")


@dataclass(frozen=True, eq=False)
class Ladder:
    """Decreasing scale sequence attached to a gauge (rungs numbered from 1)."""

    gauge: Gauge
    s: tuple

    def __len__(self) -> int:
        return len(self.s)

    def rung(self, j: int) -> float:
        if not (1 <= j <= len(self.s)):
            raise RangeError(f"rung {j} outside 1..{len(self.s)}")
        return self.s[j - 1]

    def inv_ratio(self, j: int) -> float:
        """phi^{-1}(s_j) / s_j for rung j."""
        sj = self.rung(j)
        return self.gauge.inverse(sj) / sj


def _next_rung(phi: Gauge, sj: float, tol: float = 1e-10) -> float:
    target = 0.5 * phi.inverse(sj) / sj
    if isinstance(phi, PowerGauge) and phi.offset == 0.0:
        if phi.p >= 1.0:
            raise GaugeError("identity-like gauge has a constant inverse ratio")
        return sj * 2.0 ** (-phi.p / (1.0 - phi.p))
    lo = sj
    for _ in range(200):
        lo *= 0.5
        if phi.inverse(lo) / lo < target:
            break
    else:
        raise GaugeError("bracket failure while solving the halving rule")
    hi = sj
    for _ in range(BISECT_CAP):
        mid = 0.5 * (lo + hi)
        if phi.inverse(mid) / mid < target:
            lo = mid
        else:
            hi = mid
    out = 0.5 * (lo + hi)
    resid = abs(phi.inverse(out) / out - target)
    if resid > tol * (2.0 * target):
        raise GaugeError(f"halving-rule residual {resid} exceeds tolerance")
    return out


def ladder(phi: Gauge, body: ConvexBody, norm: Norm, rungs: int = 20,
           tol: float = 1e-10) -> Ladder:
    """Scale ladder for the gauge over the body; s_1 = min{1, sup phi, diam}/4."""
    if rungs < 1:
        raise ValueError("need at least one rung")
    diam = body.diameter(norm)
    s1 = 0.25 * min(1.0, phi.sup, diam)
    s = [s1]
    for _ in range(rungs - 1):
        s.append(_next_rung(phi, s[-1], tol))
    return Ladder(phi, tuple(s))


@dataclass(frozen=True)
class RungSelection:
    """Chosen rung j with phi^{-1}(s_j) and the companion-derived bound."""

    j: int
    s_j: float
    phi_inv_s_j: float
    xi_inv_bound: float | None


def select_j(lad: Ladder, eps: float, k: int = 1,
             pair: GaugePair | None = None) -> RungSelection:
    """Unique rung j >= k with inv_ratio(j+1) < eps <= inv_ratio(j).

    Raises RangeError when eps is not in (0, min(inv_ratio(k), 1)] and
    LadderExhausted when the ladder is too short to bracket eps.
    """
    if not (1 <= k <= len(lad)):
        raise RangeError(f"start rung {k} outside the ladder")
    if not (0.0 < eps < 1.0) or eps > lad.inv_ratio(k):
        raise RangeError(
            f"eps must lie in (0, min(inv_ratio(k), 1)] = "
            f"(0, {min(lad.inv_ratio(k), 1.0)}], got {eps}"
        )
    for j in range(k, len(lad)):
        if lad.inv_ratio(j + 1) < eps:

            bound = None
            if pair is not None:
                bound = pair.xi.inverse(eps / pair.K)
            return RungSelection(j, lad.rung(j), lad.gauge.inverse(lad.rung(j)), bound)
    raise LadderExhausted(
        f"ladder with {len(lad)} rungs cannot bracket eps={eps}; extend it"
    )
