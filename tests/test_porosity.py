"""Hole sizes, porosity verdicts, low-slope sets and scale-ladder witnesses."""
import itertools
import math

import numpy as np
import pytest

from nelab import porosity, space
from nelab.errors import GaugeError, ParameterError
from nelab.gauges import (GaugePair, PiecewiseGauge, PowerGauge, build_pair,
                          gauge_from_desc, ladder)
from nelab.maps import (AffineContraction, Constant, ConvexCombo, Identity,
                        Tent, lip_local_profile, random_nonexpansive)
from nelab.perturb import (Closing, DirectionField, bump_perturb,
                           bump_witnesses, flat_collapse)
from nelab.porosity import (DYADIC_BITS, GAMMA_PER_AXIS, GAMMA_ROUNDS,
                            LADDER_H_COUNT, LADDER_PROBES, LOWER_LEVELS, TARGETS, UPPER_EPS,
                            FinitePointSet, IntervalUnionSet,
                            PorosityVerdict, ReciprocalSet, _hole_radii,
                            gamma_est, ladder_witness, low_slope_member, lower_porous_at, oracle_from_desc,
                            upper_porous_at)
from nelab.space import Box, Norm, greedy_net, grid_candidates

NORM2 = Norm(2.0)
BOX1 = Box(np.array([-1.0]), np.array([1.0]))
BOX01 = Box(np.array([0.0]), np.array([1.0]))
IDENT = PowerGauge(p=1.0)
SQRT = PowerGauge(p=0.5)

REC = oracle_from_desc("reciprocal", NORM2)
ZERO = FinitePointSet(np.array([[0.0]]), BOX1)
EMPTY = FinitePointSet(np.empty((0, 1)), BOX1)
CANTOR3 = IntervalUnionSet.cantor(3)

# largest hole of {1/n} in (-0.01, 0.01): half the gap from 1/101 to the
# window edge (the internal gap 1/101 - 1/102 is smaller)
REC_GAMMA = (0.01 - 1.0 / 101.0) / 2.0


def test_oracle_distances_match_brute_force():
    rng = np.random.default_rng(0)
    box2 = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    pts, cs = rng.uniform(-1.0, 1.0, (7, 2)), rng.uniform(-1.5, 1.5, (40, 2))
    for p in (1.0, 2.0, math.inf):
        cloud = FinitePointSet(pts, Box(box2.lo, box2.hi, Norm(p)))
        ref = [Norm(p).of(pts - c).min() for c in cs]
        assert np.array_equal(cloud.distance(cs), ref)
    # |c| >= 1e-3 puts the nearest reciprocal at n <= 1000
    cs = rng.uniform(1e-3, 1.2, (200, 1)) * rng.choice([-1.0, 1.0], (200, 1))
    recips = 1.0 / np.arange(1, 100_001)
    ref = [min(np.abs(c - recips).min(), np.abs(c + recips).min()) for c in cs]
    assert np.array_equal(REC.distance(cs), ref)
    # the in-place arithmetic gives the bits of the plain expression at
    # every magnitude, down to the subnormals whose reciprocal overflows
    c = np.concatenate([[0.0, 5e-324, 1e-310], 10.0 ** rng.uniform(-320.0, 0.5, 300)])
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / c
    m = np.maximum(np.floor(np.where(np.isfinite(inv), inv, 1.0)), 1.0)
    plain = np.where(np.isfinite(inv), np.minimum(np.abs(c - 1.0 / m),
                                                  np.abs(c - 1.0 / (m + 1.0))), 0.0)
    signs = rng.choice([-1.0, 1.0], c.size)
    assert np.array_equal(REC.distance((signs * c)[:, None]), plain)
    cs = rng.uniform(-0.5, 1.5, (200, 1))
    ref = [min(max(lo - c[0], c[0] - hi, 0.0) for lo, hi in CANTOR3.intervals)
           for c in cs]
    assert np.array_equal(CANTOR3.distance(cs), ref)
    # the binary search against the dense rows x intervals broadcast, at
    # every endpoint, every gap midpoint and beyond both ends
    for oracle in [IntervalUnionSet.cantor(level) for level in range(6)] + [
            oracle_from_desc("full", NORM2)]:
        lo, hi = oracle.intervals[:, 0], oracle.intervals[:, 1]
        cs = np.concatenate([lo, hi, (hi[:-1] + lo[1:]) / 2.0,
                             [lo[0] - 0.3, lo[0] - 1e-300, hi[-1] + 1e-300,
                              hi[-1] + 0.3]])[:, None]
        dense = np.maximum(np.maximum(lo - cs, cs - hi), 0.0).min(axis=1)
        assert np.array_equal(oracle.distance(cs), dense)
    hand = REC.distance([[0.0], [1.0 / 7.0], [1.5], [-1.0 / 3.0]])
    assert list(hand) == [0.0, 0.0, 0.5, 0.0]
    assert EMPTY.distance([[0.3]])[0] == math.inf


def test_reciprocal_ball_intersection_is_sharp():
    # an interval pinched between 1/101 and 1/100 is certified empty up to
    # radius 4.4e-5 and no further than 5.1e-5
    d = REC.distance([[0.00995049], [0.0095]])
    assert 4.4e-5 <= d[0] < 5.1e-5
    assert d[1] < 4.0e-4


def test_exact_gamma_hand_values():
    assert REC.exact_gamma([0.0], 0.01) == pytest.approx(REC_GAMMA, rel=1e-12)
    assert REC.exact_gamma([0.5], 0.01) == pytest.approx(0.005, rel=1e-12)
    assert REC.exact_gamma([0.3], 0.005) == 0.005        # window misses the set
    assert ZERO.exact_gamma([0.0], 0.3) == 0.15
    assert EMPTY.exact_gamma([0.0], 0.25) == 0.25
    assert CANTOR3.exact_gamma([0.5], 0.5) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert CANTOR3.exact_gamma([0.5], 0.05) == 0.05      # inside the middle gap
    full = IntervalUnionSet(np.array([[-1.0, 1.0]]), BOX1)
    assert full.exact_gamma([0.3], 0.2) is None
    # windows leaving the space: every hole is centred in it
    assert full.exact_gamma([0.999], 0.5) is None
    assert oracle_from_desc("cantor", NORM2).exact_gamma([1.0], 2.0) == 0.5
    assert REC.exact_gamma([0.95], 0.6) == 0.25


GRID_CENTRES = 200_001
GRID_CELL = 100             # fine steps per coarse cell of `_grid_max`


def _grid_max(oracle, q, r):
    """Maximum over GRID_CENTRES evenly spaced centres c of the window
    [q - r, q + r] ∩ the space, as `_hole_radii` takes them, of the
    largest hole at c, min(r - |c - q|, d(c, P)); 0 when the window
    misses the space.

    The hole is 1-Lipschitz in c, so no centre between two coarse centres
    GRID_CELL steps apart, with holes u and v, beats (u + v) / 2 plus half
    the cell; only the cells that could beat the coarse maximum are
    evaluated in full.
    """
    (lo,), (hi,) = oracle.ambient.bounds()
    a, b = max(q - r, lo), min(q + r, hi)
    if a > b:
        return 0.0
    cs = np.linspace(a, b, GRID_CENTRES)

    def hole(c):
        return np.minimum(r - np.abs(c - q), oracle.distance(c[:, None]))

    coarse = hole(cs[::GRID_CELL])
    reach = GRID_CELL * (cs[1] - cs[0]) + 1e-12 * (abs(q) + r)
    cells = np.flatnonzero((coarse[:-1] + coarse[1:] + reach) / 2.0
                           >= coarse.max())
    fine = (cells[:, None] * GRID_CELL + np.arange(1, GRID_CELL)).ravel()
    return float(max(coarse.max(), hole(cs[fine]).max(initial=-np.inf)))


def _gamma_windows(oracle, rng, count):
    """Windows (q, r) in three kinds, in turn: anywhere on the line, around
    0 (the reciprocals' accumulation point) and sized to q's distance to
    P, which gives windows that meet no obstruction and, at a q inside an
    interval of P, windows that hold no hole."""
    for i in range(count):
        if i % 3 == 0:
            q, r = rng.uniform(-1.2, 1.7), 10.0 ** rng.uniform(-4.0, 0.3)
        elif i % 3 == 1:
            r = 10.0 ** rng.uniform(-4.0, 0.0)
            q = r * rng.uniform(-0.9, 0.9)
        else:
            q = rng.uniform(-1.2, 1.7)
            d = float(oracle.distance(np.array([[q]]))[0])
            r = (min(d * rng.uniform(0.2, 3.0), 2.0) if d > 0.0
                 else 10.0 ** rng.uniform(-4.0, -1.0))
        yield q, r


def test_exact_gamma_matches_the_distance_grid():
    # the largest hole at a centre c is min(r - |c - q|, d(c, P)); its
    # maximum over a fine grid of the window may fall short of the exact
    # gamma by at most one grid step and may not exceed it
    sets = [oracle_from_desc(t, NORM2) for t in TARGETS]
    sets += [IntervalUnionSet.cantor(2),
             FinitePointSet(np.array([[-0.6], [0.1], [0.15], [0.8]]), BOX1)]
    rng = np.random.default_rng(9)
    for oracle in sets:
        for q, r in _gamma_windows(oracle, rng, 300):
            grid = _grid_max(oracle, q, r)
            step = 2.0 * r / (GRID_CENTRES - 1)
            exact = oracle.exact_gamma([q], r)
            if exact is None:
                assert grid <= step, (oracle, q, r, grid)
            else:
                assert grid <= exact * (1.0 + 1e-12) + 1e-15, (oracle, q, r)
                assert grid >= exact - step, (oracle, q, r, grid, exact)


def test_gamma_est_tracks_the_exact_values():
    est = gamma_est([0.0], 0.3, ZERO, seed=0)
    assert est == pytest.approx(0.15, rel=0.05)
    assert est <= 0.15 * (1.0 + 1e-12)
    assert gamma_est([0.0], 0.25, EMPTY, seed=0) == 0.25
    est = gamma_est([0.5], 0.5, CANTOR3, seed=0)
    assert 0.99 * (1.0 / 6.0) <= est <= (1.0 / 6.0) * (1.0 + 1e-12)
    full = IntervalUnionSet(np.array([[-1.0, 1.0]]), BOX1)
    assert gamma_est([0.3], 0.2, full, seed=0) is None
    with pytest.raises(ValueError):
        gamma_est([0.0], -0.1, ZERO)


def test_example_sets_take_their_norm_from_the_ambient():
    for p in (1.0, 3.0, math.inf):
        for target in TARGETS:
            oracle = oracle_from_desc(target, Norm(p))
            assert oracle.ambient.norm == Norm(p), target


def test_gamma_est_recovers_a_hole_far_below_the_l2_square_range():
    # a window under 1e-154 squares to below the least normal: a
    # one-coordinate length must still be its absolute value
    for p in (1.5, 2.0, 3.0):
        zero = oracle_from_desc("zero", Norm(p))
        for r in (1e-160, 1e-200, 1e-300):
            assert zero.exact_gamma([0.0], r) == r / 2.0
            assert gamma_est([0.0], r, zero, seed=0) == r / 2.0, (p, r)


def test_gamma_est_finds_the_boundary_hole_of_the_reciprocals():
    for seed in range(4):
        est = gamma_est([0.0], 0.01, REC, trials=128, seed=seed)
        assert 0.85 * REC_GAMMA <= est <= REC_GAMMA * (1.0 + 1e-12)
    assert est / 0.01 <= 0.01


def test_gamma_est_monotone_in_trials():
    prev = 0.0
    for trials in (0, 1, 2, 8, 32, 128):
        est = gamma_est([0.0], 0.01, REC, trials=trials, seed=0)
        assert est >= prev
        prev = est


def test_lattice_has_the_bits_of_linspace():
    # every coordinate, the sign of each zero included, is the one that
    # per-axis linspace and an "ij" meshgrid give, over a (2, 7) batch of
    # boxes: symmetric ones [-s, s] with s from 1e-300, whose step
    # 2e-300 / 32 still does not underflow, to 10; boxes with lo != -hi;
    # and ends drawn from signed zeros and a few values, lo = hi included.
    # The lattices use m = 2^k + 1; at m = 7 the last point i step + lo
    # can round off hi, so linspace sets it
    rng = np.random.default_rng(5)
    ends = np.array([[-0.0, 1.0], [0.0, 0.5], [-1.0, -0.0], [-2.0, 0.0],
                     [-0.0, -0.0], [0.0, 0.0], [-3.0, 2.5], [-2.0, -2.0]])
    for dim, m in itertools.product((1, 2, 3), (5, 7, 9, 17, 33)):
        spans = 10.0 ** rng.uniform(-300.0, 1.0, (5, dim))
        spans[:2] = [[1e-300], [10.0]]
        shifted = rng.uniform(-3.0, 1.0, (5, dim))
        drawn = ends[rng.integers(len(ends), size=(4, dim))]
        lo = np.concatenate([-spans, shifted, drawn[..., 0]]).reshape(2, 7, dim)
        hi = np.concatenate([spans, shifted + 10.0 ** rng.uniform(-3.0, 1.0, (5, dim)),
                             drawn[..., 1]]).reshape(2, 7, dim)
        got = space.lattice(lo, hi, m)
        assert got.shape == (2, 7, m ** dim, dim)
        for b in np.ndindex(2, 7):
            axes = [np.linspace(lo[b][a], hi[b][a], m) for a in range(dim)]
            want = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
            assert np.array_equal(got[b], want), (dim, m, b)
            assert np.array_equal(np.signbit(got[b]), np.signbit(want)), (dim, m, b)


def _refine_reference(oracle, q, r, center, span, per_axis, best_r=0.0):
    # one refinement chain on its own: a meshgrid lattice per round, the
    # first best hole taken on a strict improvement, the span halved, and a
    # stop when the first round of a chain without a record finds no hole
    best_c = center if best_r > 0.0 else None
    for _ in range(GAMMA_ROUNDS):
        axes = [np.linspace(-span, span, per_axis)] * q.size
        cs = center + np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                               axis=-1)
        s = _hole_radii(oracle, q, r, cs)
        i = int(np.argmax(s))
        if s[i] > best_r:
            best_r, best_c = float(s[i]), cs[i]
        if best_c is None:
            break
        center = best_c
        span *= 0.5
    return best_r


def _gamma_reference(q, r, oracle, trials, seed):
    # gamma_est's three streams, each chain refined in turn
    # within w of q in every coordinate: window ∩ space's bounding box
    q = np.asarray(q, dtype=float)
    lo, hi = oracle.ambient.bounds()
    w = min(r, max(max(a, b) for a, b in zip(q - lo, hi - q)))
    per_axis = GAMMA_PER_AXIS if q.size == 1 else (9 if q.size == 2 else 5)
    best_r = _refine_reference(oracle, q, r, q, w, per_axis)
    steps = np.array([sign * e for e in np.eye(q.size) for sign in (-1.0, 1.0)])
    reach = w * (1.0 - 2.0 ** -np.arange(2, 15))
    cs = (q + steps[:, None, :] * reach[:, None]).reshape(-1, q.size)
    s = _hole_radii(oracle, q, r, cs)
    i = int(np.argmax(s))
    if s[i] > 0.0:
        cap = w - float(oracle.ambient.norm.of(cs[i] - q))
        best_r = max(best_r, _refine_reference(oracle, q, r, cs[i], 2.0 * cap,
                                               per_axis, float(s[i])))
    rng = np.random.default_rng(seed)
    cs = q + (2.0 * rng.random((trials, q.size)) - 1.0) * w
    s = _hole_radii(oracle, q, r, cs)
    before = np.maximum.accumulate(np.concatenate([[0.0], s]))[:-1]
    for i in np.flatnonzero(s > before):
        span = max(4.0 * min(float(s[i]), w), w / 64.0)
        best_r = max(best_r, _refine_reference(oracle, q, r, cs[i], span,
                                               per_axis, float(s[i])))
    return best_r if best_r > 0.0 else None


def test_gamma_est_matches_the_chain_by_chain_reference():
    # the lockstep rounds give every chain's record bit for bit; `full`
    # has no hole, so its whole-window chain stops after one round
    rng = np.random.default_rng(21)
    cases = []
    for target in TARGETS:
        oracle = oracle_from_desc(target, NORM2)
        for q in (0.0, 0.5, float(rng.uniform(-1.0, 1.0))):
            for r in (1e-3, 1e-2, 0.1, 1.0, 5.0, 1e300):
                cases += [([q], r, oracle, trials) for trials in (16, 64, 128)]
    for p in (2.0, math.inf):
        box2 = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), Norm(p))
        cloud = FinitePointSet(rng.uniform(-1.0, 1.0, (12, 2)), box2)
        for r in (1e-2, 0.1, 1.0):
            q = rng.uniform(-1.0, 1.0, 2)
            cases += [(q, r, cloud, trials) for trials in (16, 64)]
    cases = [(*case, seed) for seed, case in enumerate(cases)]
    # a record whose lattice holds a hole of exactly its radius, on the
    # far side of the nearest reciprocal: a chain does not move on a tie
    cases.append(([0.0], 0.1, REC, 128, 3))
    found = []
    for q, r, oracle, trials, seed in cases:
        want = _gamma_reference(q, r, oracle, trials, seed)
        assert gamma_est(q, r, oracle, trials=trials, seed=seed) == want, \
            (q, r, oracle, trials, seed)
        found.append(want)
    assert None in found            # `full` reached the stop


def _gamma_round_by_round(q, r, oracle, trials, seed):
    # gamma_est as a loop over rounds: each round builds its own lattice,
    # halves the spans in place and drops the chains still without a hole
    q = space.as_point(q)
    lo, hi = oracle.ambient.bounds()
    w = min(r, float(np.max(np.maximum(q - lo, hi - q))))
    per_axis = GAMMA_PER_AXIS if q.size == 1 else (9 if q.size == 2 else 5)
    steps = np.array([sign * e for e in np.eye(q.size) for sign in (-1.0, 1.0)])
    reach = w * (1.0 - 2.0 ** -np.arange(2, 15))
    edge = (q + steps[:, None, :] * reach[:, None]).reshape(-1, q.size)
    rng = np.random.default_rng(seed)
    draws = q + (2.0 * rng.random((trials, q.size)) - 1.0) * w
    s = _hole_radii(oracle, q, r, np.vstack([edge, draws]))
    s_edge, s_draw = s[:len(edge)], s[len(edge):]
    i = int(np.argmax(s_edge))
    hit = [i] if s_edge[i] > 0.0 else []
    cap = w - oracle.ambient.norm.of(edge[hit] - q)
    before = np.maximum.accumulate(np.concatenate([[0.0], s_draw]))[:-1]
    rec = np.flatnonzero(s_draw > before)
    centers = np.vstack([q[None, :], edge[hit], draws[rec]])
    spans = np.concatenate([[w], 2.0 * cap,
                            np.maximum(4.0 * np.minimum(s_draw[rec], w), w / 64.0)])
    best = np.concatenate([[0.0], s_edge[hit], s_draw[rec]])
    for _ in range(GAMMA_ROUNDS):
        half = spans[:, None].repeat(q.size, 1)
        cs = centers[:, None, :] + space.lattice(-half, half, per_axis)
        s = _hole_radii(oracle, q, r, cs.reshape(-1, q.size)).reshape(len(best), -1)
        i = np.argmax(s, axis=1)
        top = s[np.arange(len(best)), i]
        up = np.flatnonzero(top > best)
        best[up] = top[up]
        centers[up] = cs[up, i[up]]
        spans *= 0.5
        live = best > 0.0
        if not live.all():
            centers, spans, best = centers[live], spans[live], best[live]
            if not len(best):
                return None
    return float(best.max())


def test_gamma_est_matches_the_round_by_round_loop():
    # one lattice stack for all rounds, with chains dropped after the
    # first round only, gives the bits of the loop, for windows down to
    # the subnormals, up to the largest float and at dims 1-3
    rng = np.random.default_rng(30)
    windows = (0.01, 0.1, 1e-30, 1e-300, 1e-310, 3.0, 1e300, 1.7976931348623157e308)
    cases = []
    for target in TARGETS:
        oracle = oracle_from_desc(target, NORM2)
        for q in (0.0, 0.5, float(rng.uniform(-1.0, 1.0))):
            cases += [([q], r, oracle, trials, seed) for r in windows
                      for trials in (0, 16, 128) for seed in (0, 1)]
    for dim, p in ((2, 2.0), (2, math.inf), (3, 1.0), (3, 2.0)):
        box = Box(-np.ones(dim), np.ones(dim), Norm(p))
        cloud = FinitePointSet(rng.uniform(-1.0, 1.0, (10, dim)), box)
        for q in (cloud.points[0], rng.uniform(-1.0, 1.0, dim)):
            cases += [(q, r, cloud, trials, seed) for r in windows
                      for trials in (0, 32) for seed in (2, 3)]
    # P on every inner point of the first lattice and every edge probe:
    # the one chain has no hole after its first round and stops, though
    # the second round's lattice would find one
    reach = 0.5 * (1.0 - 2.0 ** -np.arange(2, 15))
    pts = np.concatenate([np.linspace(-0.5, 0.5, GAMMA_PER_AXIS)[1:-1],
                          reach, -reach])
    cases.append(([0.0], 0.5, FinitePointSet(pts[:, None], BOX1), 0, 0))
    found = set()
    for q, r, oracle, trials, seed in cases:
        want = _gamma_round_by_round(q, r, oracle, trials, seed)
        assert gamma_est(q, r, oracle, trials=trials, seed=seed) == want, \
            (q, r, oracle, trials, seed)
        found.add(want is None)
    assert found == {True, False}


def test_upper_porosity_of_the_singleton():
    verdict = upper_porous_at(ZERO, [0.0], IDENT)
    assert verdict.porous and verdict.kind == "upper"
    assert verdict.constant == 0.5
    assert verdict.centers.shape == (17, 1)      # one hole per probe scale
    assert verdict.eps.tolist() == [2.0 ** -k for k in range(2, 19)]
    assert verdict.radii.shape == (17,)
    assert verdict.verify_holes(ZERO, IDENT)


def test_upper_porosity_not_detected_at_the_accumulation_point():
    verdict = upper_porous_at(REC, [0.0], IDENT)
    assert not verdict.porous
    assert verdict.status == "not-detected"
    assert verdict.constant is None
    assert verdict.centers.shape == (0, 1)
    assert verdict.eps.size == verdict.radii.size == 0
    assert verdict.verify_holes(REC, IDENT)      # nothing claimed


def test_lower_porosity_away_from_the_accumulation_point():
    verdict = lower_porous_at(REC, [0.5], IDENT, eps0=1.0 / 6.0)
    assert verdict.porous and verdict.kind == "lower"
    assert verdict.constant == 0.5
    assert verdict.verify_holes(REC, IDENT)


def test_lower_porosity_not_detected_at_the_accumulation_point():
    verdict = lower_porous_at(REC, [0.0], IDENT, eps0=0.25)
    assert not verdict.porous


def test_lower_porous_implies_upper_porous():
    for oracle, q, eps0 in ((ZERO, 0.0, 0.25), (REC, 0.5, 1.0 / 6.0)):
        low = lower_porous_at(oracle, [q], IDENT, eps0=eps0)
        up = upper_porous_at(oracle, [q], IDENT)
        assert low.porous
        assert up.porous
        with pytest.raises(ValueError):
            lower_porous_at(oracle, [q], IDENT, eps0=0.0)


def _porous_reference(kind, oracle, q, phi, eps_grid, trials, seed):
    # each constant 2^-1 .. 2^-DYADIC_BITS in turn: every scale's first
    # candidate (q, the lattice, row ei of the one generator's draws) in
    # range whose ball of radius phi^{-1}(t) misses P, by the scalar
    # inverse; a t <= inf phi takes the ball of radius min(d(q', P), eta)
    # when that is positive
    q = np.asarray(q, dtype=float)
    upper = kind == "upper"
    per_axis = 33 if q.size == 1 else (9 if q.size == 2 else 5)
    u = np.random.default_rng(seed).random((len(eps_grid), trials, q.size))
    scales = []
    for ei, eps in enumerate(eps_grid):
        axis = np.linspace(-eps, eps, per_axis)
        grid = np.stack(np.meshgrid(*[axis] * q.size, indexing="ij"), -1)
        cs = np.vstack([q, q + grid.reshape(-1, q.size),
                        q + (2.0 * u[ei] - 1.0) * eps])
        d = oracle.ambient.norm.of(cs - q)
        keep = ((d <= eps) & ((d > 0.0) | (not upper))
                & oracle.ambient.contains_all(cs))
        scales.append((eps, cs[keep], d[keep].tolist(),
                       oracle.distance(cs[keep]).tolist()))
    lo, hi = phi.inf, phi.sup
    for ci in range(1, DYADIC_BITS + 1):
        c = 2.0 ** -ci
        holes = []
        for eps, cs, d, dist in scales:
            for j, (dq, dp) in enumerate(zip(d, dist)):
                t = c * (dq if upper else eps)
                if t <= lo and dp > 0.0:
                    holes.append((cs[j], eps, min(dp, phi.eta)))
                    break
                if lo < t < hi and dp >= phi.inverse(t):
                    holes.append((cs[j], eps, phi.inverse(t)))
                    break
            else:
                break
        else:
            return "porous-at-point", c, [np.array(v) for v in zip(*holes)]
    return "not-detected", None, [np.empty((0, q.size)), np.empty(0),
                                  np.empty(0)]


def _assert_matches_reference(verdict, oracle, phi, eps_grid, seed, case=()):
    status, c, arrays = _porous_reference(verdict.kind, oracle, verdict.q,
                                          phi, eps_grid, 64, seed)
    assert (verdict.status, verdict.constant) == (status, c), case
    for got, want in zip((verdict.centers, verdict.eps, verdict.radii), arrays):
        assert np.array_equal(got, want), case


@pytest.mark.parametrize("target", TARGETS)
def test_derived_verdicts_match_the_search_over_constants(target):
    # the same status, constant and witness arrays, bit for bit, as trying
    # every dyadic constant in turn on the same candidates
    eps_lower = [0.25 * 2.0 ** -i for i in range(1, LOWER_LEVELS + 1)]
    for desc, p, q, seed in itertools.product(
            ("sqrt", "power:2/3", "power:3/4", "sqrt-ratio", "ratio",
             "offset:0.5", "identity"), (1.0, 2.0, math.inf),
            (0.0, 0.5, 0.3, -0.7, 1.0), range(3)):
        phi, oracle = gauge_from_desc(desc), oracle_from_desc(target, Norm(p))
        up = upper_porous_at(oracle, [q], phi, seed=seed)
        lo = lower_porous_at(oracle, [q], phi, eps0=0.25, seed=seed)
        for verdict, grid in ((up, UPPER_EPS), (lo, eps_lower)):
            _assert_matches_reference(verdict, oracle, phi, grid, seed,
                                      (verdict.kind, desc, p, q, seed))


def test_derived_lower_verdict_at_the_offset_range_edge():
    # eps0 = 4 asks for beta eps around inf phi = 1 of the offset gauge
    phi = gauge_from_desc("offset:0.5")
    eps_grid = [4.0 * 2.0 ** -i for i in range(1, LOWER_LEVELS + 1)]
    for q in (0.0, 0.5, 0.3):
        verdict = lower_porous_at(REC, [q], phi, eps0=4.0)
        _assert_matches_reference(verdict, REC, phi, eps_grid, 0)


def test_offset_gauge_verdicts_hold_any_positive_hole():
    # inf phi = 1 under offset:0.5, so every radius demanded at these
    # scales is met by any positive one: the empty set and {0} are porous
    # with holes that re-verify, the whole space stays undetected
    phi = gauge_from_desc("offset:0.5")
    for target, porous in (("empty", True), ("zero", True), ("full", False)):
        oracle = oracle_from_desc(target, NORM2)
        for q in (0.0, 0.5, -0.3):
            for v in (upper_porous_at(oracle, [q], phi),
                      lower_porous_at(oracle, [q], phi, eps0=0.25)):
                case = (target, q, v.kind)
                assert v.porous == porous and v.verify_holes(oracle, phi), case
                assert len(v.radii) == (len(v.eps) if porous else 0), case
                assert np.all(v.radii > 0.0), case
    # a claim below inf phi still needs a ball of positive radius that
    # misses P
    assert _claim("lower", 0.5, 0.1, 0.5, 0.1).verify_holes(ZERO, phi)
    assert not _claim("lower", 0.5, 0.1, 0.5, 0.0).verify_holes(ZERO, phi)
    assert _claim("upper", 0.05, 0.2, 0.1, 0.1).verify_holes(ZERO, phi)
    assert not _claim("upper", 0.05, 0.2, 0.1, 0.0).verify_holes(ZERO, phi)
    assert not _claim("upper", 0.05, 0.2, 0.1, 0.2).verify_holes(ZERO, phi)


def test_a_hole_of_exactly_the_demanded_radius_counts():
    # phi(phi^{-1}(t)) rounds below t for this t, so a bound c* computed
    # from the distance alone would miss the hole at q' = q whose radius is
    # exactly the one demanded at c = 1/2 and the first scale
    phi = gauge_from_desc("sqrt-ratio")
    eps0 = 0.254375
    r = phi.inverse(0.5 * eps0 / 2.0)
    assert phi.value(r) < 0.5 * eps0 / 2.0
    oracle = FinitePointSet(np.array([[r]]), BOX1)
    verdict = lower_porous_at(oracle, [0.0], phi, eps0=eps0)
    assert verdict.constant == 0.5 and verdict.centers[0, 0] == 0.0
    eps_grid = [eps0 * 2.0 ** -i for i in range(1, LOWER_LEVELS + 1)]
    _assert_matches_reference(verdict, oracle, phi, eps_grid, 0)


def test_a_first_candidate_inside_the_slack_falls_back_to_a_later_one():
    # the hole at q' = q is 5e-10 short of the radius demanded at c = 1/2
    # and the first scale: inside the 1e-9 slack, so q is admitted, but the
    # scalar inverse rejects it and a lattice point further from P carries
    # that scale's witness
    eps0 = 0.25
    eps1 = eps0 / 2.0
    r = IDENT.inverse(0.5 * eps1) * (1.0 - 5e-10)
    oracle = FinitePointSet(np.array([[r]]), BOX1)
    assert IDENT.value(r) / eps1 * (1.0 + 1e-9) >= 0.5
    assert r < IDENT.inverse(0.5 * eps1)
    verdict = lower_porous_at(oracle, [0.0], IDENT, eps0=eps0)
    assert verdict.constant == 0.5
    assert verdict.centers[0, 0] < 0.0 and np.all(verdict.centers[1:] == 0.0)
    assert verdict.verify_holes(oracle, IDENT)
    eps_grid = [eps0 * 2.0 ** -i for i in range(1, LOWER_LEVELS + 1)]
    _assert_matches_reference(verdict, oracle, IDENT, eps_grid, 0)


def test_a_scale_without_candidates_is_not_detected_at_once(monkeypatch):
    # inside the full set no candidate has a hole; inside [-1, 0.5] at 0.4
    # only the scales reaching past 0.5 have one.  Either way some scale
    # has no candidate, and the search ends before it evaluates the gauge
    calls = []
    for name in ("value", "inverse"):
        def counted(self, y, _f=getattr(PowerGauge, name), _name=name):
            calls.append(_name)
            return _f(self, y)

        monkeypatch.setattr(PowerGauge, name, counted)
    eps_lower = [0.25 * 2.0 ** -i for i in range(1, LOWER_LEVELS + 1)]
    half = IntervalUnionSet(np.array([[-1.0, 0.5]]), BOX1)
    cases = [(oracle, verdict, grid)
             for oracle, q in ((oracle_from_desc("full", NORM2), 0.0),
                               (half, 0.4))
             for verdict, grid in (
                 (upper_porous_at(oracle, [q], SQRT), UPPER_EPS),
                 (lower_porous_at(oracle, [q], SQRT, eps0=0.25), eps_lower))]
    assert calls == []
    monkeypatch.undo()
    for oracle, verdict, grid in cases:
        assert not verdict.porous and len(verdict.centers) == 0
        _assert_matches_reference(verdict, oracle, SQRT, grid, 0)


def test_a_verdict_makes_one_distance_query(monkeypatch):
    calls = []
    distance = ReciprocalSet.distance

    def counted(self, centers):
        calls.append(len(centers))
        return distance(self, centers)

    monkeypatch.setattr(ReciprocalSet, "distance", counted)
    assert upper_porous_at(REC, [0.5], SQRT).porous
    assert len(calls) == 1
    assert lower_porous_at(REC, [0.5], SQRT, eps0=0.25).porous
    assert len(calls) == 2


def _claim(kind, q, eps, center, radius):
    return PorosityVerdict("porous-at-point", kind, 0.5, np.array([q]),
                           np.array([[center]]), np.array([eps]),
                           np.array([radius]))


def test_verify_holes_flags_a_bogus_witness():
    # a forged hole for each landmark set, next to a genuine one at the
    # same q and eps: B(0, 0.1) meets {0}, B(0.5, 0.1) meets {1/n}; the
    # genuine radii reach the identity-gauge radius 0.5 d(q, q')
    for oracle, q, genuine, forged in ((ZERO, 0.05, (0.1, 0.1), (0.0, 0.1)),
                                       (REC, 0.45, (0.41, 0.05), (0.5, 0.1)),
                                       (CANTOR3, 0.5, (0.45, 0.1),
                                        (1.0 / 3.0, 0.01))):
        assert _claim("upper", q, 0.2, *genuine).verify_holes(oracle, IDENT)
        assert not _claim("upper", q, 0.2, *forged).verify_holes(oracle, IDENT)
    # empty balls that still break the certificate: too far from q, outside
    # the ambient space, (for the upper pattern) centred at q itself, or
    # smaller than the radius the constant claims
    assert not _claim("upper", 0.0, 0.1, 0.9, 0.1).verify_holes(ZERO, IDENT)
    assert not _claim("lower", 0.0, 2.0, 1.5, 0.1).verify_holes(ZERO, IDENT)
    assert not _claim("upper", 0.5, 0.1, 0.5, 0.1).verify_holes(CANTOR3, IDENT)
    assert _claim("lower", 0.5, 0.1, 0.5, 0.1).verify_holes(CANTOR3, IDENT)
    assert not _claim("upper", 0.05, 0.2, 0.1, 1e-300).verify_holes(ZERO, IDENT)
    assert not _claim("lower", 0.5, 0.1, 0.5, 0.04).verify_holes(CANTOR3, IDENT)
    # an argument outside the gauge's range, (0, 1) here, is rejected
    assert not _claim("lower", 0.5, 2.0, 0.5, 0.1).verify_holes(CANTOR3, IDENT)
    # every row is checked: one forged hole among genuine ones breaks it
    rows = (np.array([[0.1], [0.075], [0.0]]), np.array([0.2, 0.1, 0.2]),
            np.array([0.1, 0.05, 0.1]))
    assert PorosityVerdict("porous-at-point", "upper", 0.5, np.array([0.05]),
                           rows[0][:2], rows[1][:2],
                           rows[2][:2]).verify_holes(ZERO, IDENT)
    assert not PorosityVerdict("porous-at-point", "upper", 0.5,
                               np.array([0.05]),
                               *rows).verify_holes(ZERO, IDENT)


def test_low_slope_alpha_hand_values():
    assert Closing(2.0).alpha(0.5) == pytest.approx(0.5 / 144.0, abs=1e-18)
    assert Closing(0.0).alpha(0.0) == pytest.approx(1.0 / 48.0, abs=1e-18)
    with pytest.raises(ParameterError):
        Closing(2.0).alpha(1.0)
    with pytest.raises(ParameterError):
        Closing(-1.0).alpha(0.5)


def test_low_slope_membership_examples():
    lad = ladder(SQRT, BOX01, rungs=8)
    xs = [[0.2], [0.5], [0.9]]
    const = low_slope_member(Constant([0.4]), xs, 0.1, lad, body=BOX01)
    assert const.tolist() == [True, True, True]
    ident = low_slope_member(Identity(), xs, 0.9, lad, body=BOX01)
    assert ident.tolist() == [False, False, False]
    # max(x - 0.5, 0): flat at 0.2, slope 1 at 0.9
    ramp = ConvexCombo(0.5, Constant([0.0]),
                       flat_collapse([0.0], 0.5, 1.0, BOX01))
    assert low_slope_member(ramp, xs[::2], 0.5, lad, body=BOX01).tolist() == [True, False]
    with pytest.raises(ParameterError):
        low_slope_member(Identity(), [0.5], 0.5, lad, l=len(lad) + 1,
                         body=BOX01)
    with pytest.raises(TypeError):
        low_slope_member(Identity(), [0.5], 0.5, lad)   # body missing


def test_a_batch_draws_what_its_one_row_calls_draw():
    # one k-row call on a Generator gives the bounds, the verdicts and the
    # stream position of k consecutive one-row calls on it, which is why
    # batching `dual`'s cover and hole checks keeps their bytes
    lad = ladder(SQRT, BOX01, rungs=8)
    net = greedy_net(BOX01, 0.125, grid_candidates(BOX01, 161))
    tent = bump_perturb(Constant([0.3]), net, 0.5, BOX01)
    xs = net.points[1:6] + 0.5 * tent.rho
    scales = [lad.gauge.inverse(lad.rung(j)) for j in range(2, 9)]

    def profile(f, x, rng):
        return lip_local_profile(f, x, scales, BOX01, 64, rng, 8)

    def member(f, x, rng):
        return low_slope_member(f, x, 0.75, lad, l=2, body=BOX01, seed=rng)

    for f in (Identity(), Constant([0.4]), AffineContraction(0.5, [0.2]),
              tent):
        for run in (profile, member):
            one, many = np.random.default_rng(7), np.random.default_rng(7)
            batch = run(f, xs, many)
            rows = np.concatenate([run(f, x[None, :], one) for x in xs])
            assert batch.shape[0] == 5 and np.array_equal(batch, rows)
            assert many.bit_generator.state == one.bit_generator.state
    assert member(tent, xs, 0).tolist() == [False] * 5
    assert member(AffineContraction(0.5, [0.2]), xs, 0).tolist() == [True] * 5


def test_ladder_witness_constants_and_quotients():
    lam = 0.5
    pair = build_pair(SQRT)
    lad = ladder(SQRT, BOX1, rungs=12)
    f = random_nonexpansive(BOX1, seed=5)
    rep = ladder_witness(f, 0.1, lam, lad, pair, body=BOX1,
                         seed=3)
    assert rep.j == 2
    assert (rep.min_quotients > lam).all()
    # diam 2, K 4: beta = 0.25*1.5/(97*2.5*4*3) by the closing inequality
    assert rep.beta == pytest.approx(0.375 / 2910.0, rel=1e-15)
    assert rep.margin == pytest.approx((1 - lam) ** 2 / (97.0 * (3.0 - lam)),
                                       rel=1e-12)
    assert rep.bound == pytest.approx(lam + rep.margin, rel=1e-12)
    closing = Closing(BOX1.diameter)
    assert (rep.beta, rep.bound, rep.margin) == closing.gauge(lam, pair.K)
    z_off = 0.125 ** 2 / (24.0 * 3.0)
    assert rep.probe_r == pytest.approx(0.5 * 0.125 ** 2 / (48.0 * 3.0),
                                        rel=1e-12)
    assert rep.probe_r == closing.probe_radius(lam, 0.125 ** 2)
    xs = rep.g.centers
    assert rep.zs.shape == xs.shape and rep.min_quotients.shape == (len(xs),)
    assert np.all(rep.min_quotients > lam)
    assert NORM2.of(rep.zs - xs) == pytest.approx(z_off, rel=1e-12)


@pytest.mark.parametrize("a", [2.0 / 3.0, 0.75, 0.9])
def test_pair_holds_at_the_radius_dual_certifies(a):
    # dual's witnesses (dim 1, lam 0.5) certify the sup-ball of radius
    # xi^{-1}(beta eps), far below the check grid (about 1e-17 at p = 3/4,
    # 1e-40 at p = 0.9): the sandwich must hold there
    phi = PowerGauge(p=a)
    pair = build_pair(phi)
    lad = ladder(phi, BOX1, rungs=12)
    beta = Closing(BOX1.diameter).gauge(0.5, pair.K)[0]
    for frac in (0.9, 0.45):
        h = pair.xi.inverse(beta * frac * lad.inv_ratio(1))
        ratio = float(phi.value(h)) * float(pair.xi.value(h)) / h
        assert 1.0 / pair.K <= ratio <= pair.K and pair.holds(h)
        assert h < pair.grid(2)[0][0]


def test_ladder_witness_rejects_a_pair_that_fails_at_its_radius():
    # the companion cut back to knots from 1e-12 up is linear below them,
    # where phi*xi/t -> 0: at p = 3/4 it passes the check grid, but not at
    # the radius the witness would certify
    phi = PowerGauge(p=0.75)
    pair = build_pair(phi)
    kt, ky = pair.xi.knots_t, pair.xi.knots_y
    keep = (kt == 0.0) | (kt >= 1e-12)
    cut = GaugePair(phi, PiecewiseGauge(kt[keep], ky[keep]), pair.K)
    cut.check()
    lad = ladder(phi, BOX1, rungs=12)
    f = random_nonexpansive(BOX1, seed=5)
    eps = 0.9 * lad.inv_ratio(1)
    ladder_witness(f, eps, 0.5, lad, pair, body=BOX1)
    with pytest.raises(GaugeError, match="certified radius"):
        ladder_witness(f, eps, 0.5, lad, cut, body=BOX1)


def test_ladder_witness_validation():
    pair = build_pair(SQRT)
    lad = ladder(SQRT, BOX1, rungs=12)
    with pytest.raises(TypeError):
        ladder_witness(Identity(), 0.1, 0.5, lad, pair)   # body missing
    with pytest.raises(ParameterError):
        ladder_witness(Identity(), 0.1, 1.5, lad, pair,
                       body=BOX1)


def test_ladder_witness_builds_only_its_rungs_net(monkeypatch):
    built = []

    def spy(body, s):
        built.append(space.lattice_net(body, s))
        return built[-1]

    monkeypatch.setattr(porosity, "lattice_net", spy)
    pair = build_pair(SQRT)
    box2 = Box(-np.ones(2), np.ones(2))
    for body in (BOX1, box2):
        lad = ladder(SQRT, body, rungs=12)
        for eps in (0.2, 0.1, 0.05):
            built.clear()
            rep = ladder_witness(random_nonexpansive(body, seed=5), eps, 0.5,
                                 lad, pair, body=body, seed=3)
            [net] = built
            assert net.s == lad.rung(rep.j)
            assert np.array_equal(rep.g.centers, net.points)


def test_a_perturbation_builds_its_direction_field_once(monkeypatch):
    # the Tent keeps its field: bump_witnesses and ladder_witness read it
    # rather than build the body's field at the net's scale again
    built = []
    init = DirectionField.__post_init__

    def spy(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(DirectionField, "__post_init__", spy)
    box2 = Box(-np.ones(2), np.ones(2))
    net = greedy_net(box2, 0.5, grid_candidates(box2, 9))
    g = bump_perturb(Identity(), net, 0.5, box2)
    bump_witnesses(g, box2)
    assert built == [g.field]
    pair, lad = build_pair(SQRT), ladder(SQRT, box2, rungs=12)
    built.clear()
    rep = ladder_witness(random_nonexpansive(box2, seed=5), 0.1, 0.5, lad,
                         pair, body=box2, seed=3)
    assert built == [rep.g.field]


def test_ladder_witness_evaluates_each_map_once(monkeypatch):
    # each test map h meets the quotient kernel once, with the witnesses
    # zs and their (k, LADDER_PROBES, n) probe blocks, and is evaluated
    # once, on k (1 + LADDER_PROBES) rows
    seen, roots, depth = [], [], [0]
    kernel = porosity.pair_quotients

    def spy_kernel(m, norm, xs, ys):
        seen.append((m, xs.shape, ys.shape))
        return kernel(m, norm, xs, ys)

    monkeypatch.setattr(porosity, "pair_quotients", spy_kernel)
    for cls in (Tent, ConvexCombo):
        def spy_apply(self, pts, apply=cls._apply):
            if depth[0] == 0:
                roots.append((self, len(pts)))
            depth[0] += 1
            try:
                return apply(self, pts)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(cls, "_apply", spy_apply)
    pair = build_pair(SQRT)
    for body in (BOX1, Box(-np.ones(2), np.ones(2))):
        seen.clear()
        roots.clear()
        lad = ladder(SQRT, body, rungs=12)
        rep = ladder_witness(random_nonexpansive(body, seed=5), 0.1, 0.5, lad,
                             pair, body=body, seed=3)
        k, n = rep.zs.shape
        assert len(seen) == 1 + LADDER_H_COUNT and seen[0][0] is rep.g
        for m, xs_shape, ys_shape in seen:
            assert xs_shape == (k, n) and ys_shape == (k, LADDER_PROBES, n)
            assert [rows for h, rows in roots if h is m] \
                == [k * (1 + LADDER_PROBES)]
