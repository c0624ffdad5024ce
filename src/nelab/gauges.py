"""Gauge functions, equivalence pairs and scale ladders.

A gauge phi is a strictly increasing concave function on an interval
(0, eta): eta = 1 for the analytic gauges, the last knot for a piecewise
one.  The pair construction finds, for a gauge with phi(t)/t -> inf
as t -> 0, a companion gauge xi and a constant K >= 1 with

    t/K  <=  phi(t) * xi(t)  <=  K t        on (0, 1/K),

and xi(t) -> 0 at 0.  When inf phi > 0 the companion is simply xi(t) = t.
Otherwise phi is extended affinely past a differentiability point t0 and
xi is the least concave majorant of t / phi_hat(t) on knots from 1e-300
eta up.  Below its first knot xi is linear and phi*xi/t -> 0, so the
sandwich holds from about there; a ladder witness checks it at the radius
it certifies.

A ladder attached to phi is the decreasing scale sequence defined by
s_1 = min{1, sup phi, diam C}/4 and the halving rule

    phi^{-1}(s_{j+1}) / s_{j+1}  =  phi^{-1}(s_j) / (2 s_j),

solved in closed form for pure powers and by bisection otherwise.

Every gauge inverts itself in closed form (`Gauge.inverse` is abstract),
and the pair's check grid, `GaugePair.grid`, is the one log grid on
which the sandwich is checked, reported and tabulated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GaugeError, LadderExhausted, RangeError
from .space import ConvexBody

BISECT_CAP = 200


class Gauge:
    """Strictly increasing concave function on (0, eta); eta = 1 by default."""

    eta = 1.0

    def value(self, t):
        raise NotImplementedError

    @cached_property
    def sup(self) -> float:
        # every range check of `inverse` reads it; gauges are frozen
        return float(self.value(self.eta))

    @property
    def inf(self) -> float:
        raise NotImplementedError

    @property
    def slope_at_zero_unbounded(self) -> bool:
        """Does phi(t)/t -> inf as t -> 0+ (with inf phi = 0)?"""
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        """The t with phi(t) = y; RangeError outside (inf phi, sup phi)."""
        raise NotImplementedError

    def check(self) -> None:
        """Raise GaugeError unless strictly increasing and midpoint-concave
        on a grid of 1000 points."""
        ts = np.linspace(self.eta / 1000, self.eta, 1000)
        ys = np.asarray(self.value(ts), dtype=float)
        if np.any(np.diff(ys) <= 0.0):
            raise GaugeError("gauge is not strictly increasing on the check grid")
        mid = self.value(0.5 * (ts[:-1] + ts[1:]))
        if np.any(mid < 0.5 * (ys[:-1] + ys[1:]) - 1e-10):
            raise GaugeError("gauge fails the midpoint concavity check")


@dataclass(frozen=True)
class PowerGauge(Gauge):
    """t -> offset + coeff * t**p with p in (0, 1]."""

    p: float = 0.5
    coeff: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise GaugeError(f"power gauge needs p in (0, 1], got {self.p}")
        if self.coeff <= 0.0 or self.offset < 0.0:
            raise GaugeError("power gauge needs coeff > 0, offset >= 0")

    def value(self, t):
        return self.offset + self.coeff * np.asarray(t, dtype=float) ** self.p

    @property
    def inf(self) -> float:
        return self.offset

    @property
    def slope_at_zero_unbounded(self) -> bool:
        return self.offset == 0.0 and self.p < 1.0

    def inverse(self, y: float) -> float:
        if not (self.inf < y < self.sup):
            raise RangeError(f"value {y} outside gauge range ({self.inf}, {self.sup})")
        return float(((y - self.offset) / self.coeff) ** (1.0 / self.p))


@dataclass(frozen=True)
class RatioGauge(Gauge):
    """t -> t / (1 + t); concave, bounded slope at zero."""

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return t / (1.0 + t)

    @property
    def inf(self) -> float:
        return 0.0

    @property
    def slope_at_zero_unbounded(self) -> bool:
        return False

    def inverse(self, y: float) -> float:
        if not (0.0 < y < self.sup):
            raise RangeError(f"value {y} outside gauge range (0, {self.sup})")
        return float(y / (1.0 - y))


@dataclass(frozen=True)
class SqrtRatioGauge(Gauge):
    """t -> sqrt(t) / (1 + sqrt(t)); the growth-adjusted rational gauge."""

    def value(self, t):
        u = np.sqrt(np.asarray(t, dtype=float))
        return u / (1.0 + u)

    @property
    def inf(self) -> float:
        return 0.0

    @property
    def slope_at_zero_unbounded(self) -> bool:
        return True

    def inverse(self, y: float) -> float:
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

    def inverse(self, y: float) -> float:
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
    ratio | offset:p | identity.  A zero denominator or a non-finite
    exponent raises GaugeError; an argument the descriptor does not take,
    or an empty one after ':', raises ValueError."""
    name, sep, arg = desc.partition(":")
    if name == "power" and arg:
        num, _, den = arg.partition("/")
        a, b = float(num), float(den) if den else 1.0
        if b == 0.0 or not np.isfinite(a / b):
            raise GaugeError(f"power gauge needs a finite exponent, got {arg!r}")
        return PowerGauge(p=a / b)
    if desc == "offset" or name == "offset" and arg:
        return PowerGauge(p=float(arg) if arg else 0.5, offset=1.0)
    fixed = {"sqrt": lambda: PowerGauge(p=0.5), "sqrt-ratio": SqrtRatioGauge,
             "ratio": RatioGauge, "identity": lambda: PowerGauge(p=1.0)}
    if name in fixed and not sep:
        return fixed[name]()
    raise ValueError(f"unknown gauge descriptor {desc!r} (sqrt | power:p | "
                     f"power:a/b | sqrt-ratio | ratio | offset:p | identity)")


def gauge_K(phi: Gauge) -> float:
    """sup of t/phi(t) over (0, eta); attained at the right edge for concave phi."""
    t = phi.eta * (1.0 - 1e-9)
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
    # the loops run on Python floats, which round as numpy's float64 does
    ts, ys = ts[order].tolist(), ys[order].tolist()
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
    """Companion pair (phi, xi, K) with t/K <= phi*xi <= K*t on (0, 1/K),
    down to the first knot of a piecewise xi."""

    phi: Gauge
    xi: Gauge
    K: float

    def grid(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ts, phi(ts), xi(ts)) on `count` log-spaced points of
        [1e-8/K, 1/K)."""
        ts = np.geomspace(1e-8 / self.K, (1.0 / self.K) * (1.0 - 1e-12), count)
        return (ts, np.asarray(self.phi.value(ts), dtype=float),
                np.asarray(self.xi.value(ts), dtype=float))

    def holds(self, ts) -> bool:
        """Does t/K <= phi(t) xi(t) <= K t hold, up to 1e-13 t, at every
        t in ts, all of them positive?"""
        ts = np.asarray(ts, dtype=float)
        prod = np.asarray(self.phi.value(ts)) * np.asarray(self.xi.value(ts))
        slack = 1e-13 * ts
        return bool(np.all(ts > 0.0) and np.all(prod >= ts / self.K - slack)
                    and np.all(prod <= self.K * ts + slack))

    def check(self) -> None:
        """Raise GaugeError unless the pair inequality holds on the 1000-point
        check grid and xi(0) = 0."""
        if not self.holds(self.grid(1000)[0]):
            raise GaugeError("pair inequality t/K <= phi*xi <= K*t fails on the grid")
        if float(self.xi.value(0.0)) != 0.0:
            raise GaugeError("companion gauge does not vanish at zero")


def _next_pow2_above(x: float) -> float:
    k = 1.0
    while k <= x:
        k *= 2.0
    return k


def build_pair(phi: Gauge) -> GaugePair:
    """Construct the companion gauge and constant for an admissible gauge.

    Requires phi strictly increasing and concave with phi(t)/t -> inf as
    t -> 0 (an offset gauge with inf phi > 0 qualifies trivially and gets
    xi(t) = t).  Raises GaugeError when the growth condition fails, e.g.
    for phi(t) = t or phi(t) = t/(1+t).  K is the power of two above the
    construction's own constant, and the pair is checked once.
    """
    phi.check()
    if phi.inf > 0.0:
        xi: Gauge = PowerGauge(p=1.0)
        k0 = max(1.0 / phi.eta, 1.0 / phi.inf, phi.sup, 1.0)
        K = _next_pow2_above(k0)
    else:
        if not phi.slope_at_zero_unbounded:
            raise GaugeError("gauge grows linearly near 0: no companion exists")
        t0, slope = _stable_slope_point(phi)
        eta = phi.eta
        # 2000 knots over [1e-12 eta, eta] and one per half decade below,
        # down to 1e-300 eta, near the least normal double: the radii
        # xi^{-1}(beta eps) of steep powers lie far below 1e-12 eta
        ts = np.concatenate([[0.0], np.geomspace(eta * 1e-300, eta * 1e-12, 576,
                                                 endpoint=False),
                             np.geomspace(eta * 1e-12, eta, 2000)])
        phi_hat = np.where(ts <= t0, np.asarray(phi.value(np.maximum(ts, eta * 1e-300))),
                           float(phi.value(t0)) + slope * (ts - t0))
        psi = np.zeros_like(ts)
        psi[1:] = ts[1:] / phi_hat[1:]
        xi = least_concave_majorant(ts, psi)
        ratio = np.asarray(xi.value(ts[1:]), dtype=float) / psi[1:]
        L = float(ratio.max())
        K = _next_pow2_above(max(L, 1.0 / t0, 1.0))
        if np.any(xi.slopes()[xi.knots_t[:-1] < 1.0 / K] <= 0.0):
            raise GaugeError("companion gauge not strictly increasing on (0, 1/K)")
    pair = GaugePair(phi, xi, K)
    pair.check()
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


def _next_rung(phi: Gauge, sj: float) -> float:
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
    if resid > 1e-10 * (2.0 * target):
        raise GaugeError(f"halving-rule residual {resid} exceeds tolerance")
    return out


def ladder(phi: Gauge, body: ConvexBody, rungs: int = 20) -> Ladder:
    """Scale ladder for the gauge over the body; s_1 = min{1, sup phi, diam}/4.

    At most `rungs` rungs: a steep power's ladder ends at its last rung
    above 0.0, where the closed form underflows."""
    if rungs < 1:
        raise ValueError("need at least one rung")
    s1 = 0.25 * min(1.0, phi.sup, body.diameter)
    s = [s1]
    for _ in range(rungs - 1):
        nxt = _next_rung(phi, s[-1])
        if nxt <= 0.0:          # underflowed: 0.0 has no inverse
            break
        s.append(nxt)
    return Ladder(phi, tuple(s))


def select_j(lad: Ladder, eps: float) -> int:
    """The unique rung j with inv_ratio(j+1) < eps <= inv_ratio(j).

    Raises RangeError when eps is not in (0, min(inv_ratio(1), 1)] and
    LadderExhausted when the ladder is too short to bracket eps.
    """
    if not (0.0 < eps < 1.0) or eps > lad.inv_ratio(1):
        raise RangeError(
            f"eps must lie in (0, min(inv_ratio(1), 1)] = "
            f"(0, {min(lad.inv_ratio(1), 1.0)}], got {eps}"
        )
    for j in range(1, len(lad)):
        if lad.inv_ratio(j + 1) < eps:
            return j
    raise LadderExhausted(
        f"ladder with {len(lad)} rungs cannot bracket eps={eps}; extend it"
    )
