"""Mapping expressions: certificates, evaluation and sampling estimators."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelab import space
from nelab.errors import DomainError, EstimationError, ParameterError
from nelab.maps import (AffineContraction, Compose, Constant, ConvexCombo,
                        FlatCollapse, Identity, Tent, lip_global_est,
                        lip_local_profile, pair_quotients,
                        random_nonexpansive, steep_density, sup_dist_est)
from nelab.perturb import bump_perturb, flat_collapse
from nelab.space import (Ball, Box, Net, Norm, body_from_desc, distances,
                         greedy_net, grid_candidates, nearest)

BOX1 = Box(np.array([-1.0]), np.array([1.0]))
BOX01 = Box(np.array([0.0]), np.array([1.0]))
NORM2 = Norm(2.0)

CERT_SLACK = 1e-9


def _ramp():
    # max(x - 0.5, 0) on [0, 1]: half of the collapse that pins [0, 0.5]
    # to 0 and ramps back to the identity at 1
    return ConvexCombo(0.5, Constant([0.0]),
                       flat_collapse([0.0], 0.5, 1.0, BOX01, NORM2))


def test_leaf_certificates_and_values():
    assert Identity().certificate == 1.0
    assert np.array_equal(Identity()((0.3, 0.3)), [0.3, 0.3])
    assert Constant([0.0, 0.0]).certificate == 0.0
    assert np.array_equal(Constant([0.0, 0.0])((0.7, -0.2)), [0.0, 0.0])
    m = AffineContraction(0.5, [1.0])
    assert m.certificate == 0.5
    assert np.array_equal(m([0.0]), [0.5])
    with pytest.raises(ValueError):
        AffineContraction(1.5, [0.0])
    with pytest.raises(ValueError):
        AffineContraction(-0.1, [0.0])


def test_compose_product_rule():
    m = Compose(AffineContraction(0.5, [0.0, 0.0]),
                AffineContraction(0.8, [0.0, 0.0]))
    assert m.certificate == pytest.approx(0.4, abs=1e-15)
    np.testing.assert_allclose(m([1.0, 0.0]), [0.4, 0.0], atol=1e-15)


def test_convex_combo_weight_sits_on_the_right():
    m = ConvexCombo(0.25, Constant([0.0]), Constant([1.0]))
    assert m([0.3]) == pytest.approx([0.25], abs=1e-15)
    assert m.certificate == 0.0
    with pytest.raises(ValueError):
        ConvexCombo(1.2, Identity(), Identity())


def test_flat_collapse_radial_profile():
    m = FlatCollapse(Net([[0.0]], 1.0), 0.25, NORM2)
    assert m.certificate == 2.0                       # 1 + 0.25/0.25
    assert np.array_equal(m([0.1]), [0.0])            # collapsed branch
    assert m([0.3])[0] == pytest.approx(0.1, abs=1e-15)
    out = np.array([[0.6], [-0.9], [0.5]])
    assert np.array_equal(m._apply(out), out)         # identity branch, bitwise
    with pytest.raises(ValueError):
        FlatCollapse(Net([[0.0]], 1.0), 0.5, NORM2)
    # the centres and r are the net's points and half its separation
    net = Net([[0.0], [1.0]], 1.0)
    m = FlatCollapse(net, 0.25, NORM2)
    assert m.centers is net.points and m.r == 0.5 and m.net is net
    # a net closer than its separation: the balls would overlap.  In 2-D
    # the points are 0.5 apart in the sup norm, a net at exactly 0.5
    with pytest.raises(ParameterError, match="closer than 2r"):
        FlatCollapse(Net([[0.0], [0.7]], 0.8), 0.1, NORM2)
    pts = [[0.0, 0.0], [0.5, 0.5]]
    FlatCollapse(Net(pts, 0.5), 0.1, Norm(math.inf))
    with pytest.raises(ParameterError, match="closer than 2r"):
        FlatCollapse(Net(pts, 0.6), 0.1, Norm(math.inf))


def test_flat_collapse_quotient_bracket():
    m = FlatCollapse(Net([[0.0]], 1.0), 0.25, NORM2)
    est = lip_global_est(m, BOX1, NORM2, pairs=10_000, seed=0)
    assert 1.8 <= est <= m.certificate + CERT_SLACK


def test_pair_quotients_match_the_pairwise_loop():
    box2 = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    rng = np.random.default_rng(2)
    xs, ys = box2.sample_many(rng, 300), box2.sample_many(rng, 300)
    for norm in (Norm(1.0), Norm(math.inf)):
        collapse = FlatCollapse(Net([[0.0, 0.0], [0.9, 0.9]], 0.8), 0.1,
                                norm)
        for m in (collapse, Compose(
                random_nonexpansive(box2, seed=4), collapse)):
            loop = [float(norm.of(m(y) - m(x))) / float(norm.of(y - x))
                    for x, y in zip(xs, ys)]
            assert pair_quotients(m, norm, xs, ys).tolist() == loop


def test_pair_quotient_blocks_match_the_aligned_rows(monkeypatch):
    # each centre against a block of 8 points, itself first (a coincident
    # pair, nan), as (k, 8, n) blocks and as aligned rows with the centres
    # repeated: the same bits, each from one evaluation of the root map on
    # 9k and 16k rows.  The k of 2, 6 and 12 put the two forms' nearest-
    # centre queries below, on either side of and above NEAREST_GRID_MIN
    box2 = Box(-np.ones(2), np.ones(2))
    f = random_nonexpansive(box2, seed=3)
    sides = set()
    for p in (1.0, 2.0, math.inf):
        norm = Norm(p)
        net = greedy_net(box2, norm, 0.5, grid_candidates(box2, 13))
        g = bump_perturb(f, net, 0.5, box2, norm)
        kinds = (Identity(), Constant([0.1, -0.2]),
                 AffineContraction(0.5, [0.0, 0.3]),
                 ConvexCombo(0.3, Identity(), f), Compose(f, g.collapse),
                 g.collapse, g)
        radii = np.linspace(0.1, 0.9, 7) * net.s
        rng = np.random.default_rng(int(min(p, 9)))
        for k in (2, 6, 12):
            xs = np.vstack([net.points[:k // 2],
                            box2.sample_many(rng, k - k // 2)])
            ys = np.concatenate([xs[:, None, :],
                                 box2.probes(xs, radii, norm, rng)], axis=1)
            sides.add(tuple(rows * net.points.size >= space.NEAREST_GRID_MIN
                            for rows in (9 * k, 16 * k)))
            for m in kinds:
                rows, apply = [], type(m)._apply

                def spy(self, pts, m=m, rows=rows, apply=apply):
                    if self is m:
                        rows.append(len(pts))
                    return apply(self, pts)

                with monkeypatch.context() as mp:
                    mp.setattr(type(m), "_apply", spy)
                    block = pair_quotients(m, norm, xs, ys)
                    aligned = pair_quotients(m, norm, np.repeat(xs, 8, axis=0),
                                             ys.reshape(-1, 2))
                assert rows == [9 * k, 16 * k]
                assert block.shape == (k, 8) and np.isnan(block[:, 0]).all()
                assert np.array_equal(block, aligned.reshape(k, 8),
                                      equal_nan=True)
    assert sides == {(False, False), (False, True), (True, True)}


def test_lip_global_linear_maps_are_exact():
    assert lip_global_est(AffineContraction(0.5, [0.0]), BOX1, NORM2, 200) \
        == pytest.approx(0.5, abs=1e-12)
    assert lip_global_est(Identity(), BOX1, NORM2, 200) \
        == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        lip_global_est(Identity(), BOX1, NORM2, 0)


def test_lip_local_ramp_is_steep_only_past_the_knee():
    m = _ramp()
    steep = lip_local_profile(m, [0.9], [0.1], BOX01, NORM2, samples=128,
                              seed=0)
    assert steep.tolist() == [[pytest.approx(1.0, rel=1e-12)]]
    flat = lip_local_profile(m, [0.2], [0.1], BOX01, NORM2, samples=128,
                             seed=0)
    assert flat.tolist() == [[0.0]]


def test_lip_local_sees_steepness_that_only_outward_probes_reach():
    # flat inward of 0.9 and slope 10 on [0.9, 1]: at x = 0.9 only probes
    # toward the nearer face of [-1, 1] see the slope
    m = FlatCollapse(Net([[0.0]], 2.0), 0.9)
    for seed in range(20):
        est = lip_local_profile(m, [0.9], [0.1], BOX1, NORM2, seed=seed)
        assert est[0, 0] > 1.0, seed


def test_lip_local_profile_monotone_in_scale():
    for seed in range(5):
        m = random_nonexpansive(BOX1, seed=seed)
        [lows] = lip_local_profile(m, [0.1], [0.01, 0.05, 0.2], BOX1, NORM2,
                                   samples=96, seed=seed).tolist()
        assert lows == sorted(lows)


def test_lip_local_domain_and_exhaustion_errors():
    with pytest.raises(DomainError):
        lip_local_profile(Identity(), [2.0], [0.1], BOX1, NORM2)
    with pytest.raises(ValueError):
        lip_local_profile(Identity(), [0.0], [], BOX1, NORM2)


def test_profiles_see_every_scale_at_vertex_centres(monkeypatch):
    # every centre, vertices included, gets a probe with d > 0 at every
    # scale; the estimates are the best quotients of those probes, taken
    # from the pool `probes` drew
    scales = [0.2, 0.05, 0.2, 0.01]
    for dim in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            for desc in ("box", "ball", "simplex"):
                body = body_from_desc(desc, dim, norm)
                rng = np.random.default_rng([dim, int(min(p, 9)), len(desc)])
                xs = np.vstack([body.sample_many(rng, 3), body.extreme_points()])
                m = random_nonexpansive(body, seed=dim)
                pools, probes = [], type(body).probes

                def spy(*args):
                    pools.append(probes(*args))
                    return pools[-1]

                with monkeypatch.context() as mp:
                    mp.setattr(type(body), "probes", spy)
                    est = lip_local_profile(m, xs, scales, body, norm, 32, rng)
                [pool] = pools
                assert est.shape == (len(xs), len(scales))
                for x, ys, row in zip(xs, pool, est):
                    d = norm.of(ys - x, axis=1)
                    [q] = pair_quotients(m, norm, x[None, :], ys[None])
                    for r, bound in zip(scales, row):
                        near = (0.0 < d) & (d <= r)
                        assert near.any() and bound == q[near].max()
                assert np.all(est <= 1.0 + 1e-9)


def test_profile_batch_raises_the_first_centres_error():
    # at 0.5 every probe 1e-300 away rounds back onto the centre, at 0 it
    # does not (under l1: the l2 square would underflow); 2.0 lies outside
    # the unit interval
    xs, norm1 = np.array([[0.0], [0.5], [2.0]]), Norm(1.0)
    with pytest.raises(EstimationError,
                       match=r"^no admissible sample at scale 1e-300 around "
                             r"the centre \[0\.5\]$"):
        lip_local_profile(Identity(), xs, [0.1, 1e-300, 1e-301], BOX01,
                          norm1, 16, 0)
    assert lip_local_profile(Identity(), xs[:1], [1e-300], BOX01, norm1,
                             16, 0).shape == (1, 1)
    with pytest.raises(DomainError):
        lip_local_profile(Identity(), xs[::-1], [1e-300], BOX01, norm1, 16, 0)
    with pytest.raises(DomainError):
        lip_local_profile(Identity(), np.array([[0.2], [2.0]]), [0.1], BOX01,
                          NORM2, 16, 0)
    # no radii at all: no probe, so no scale is seen
    with pytest.raises(EstimationError,
                       match=r"^no admissible sample at scale 0\.1 around the "
                             r"centre \[0\.2\]$"):
        lip_local_profile(Identity(), np.array([[0.2]]), [0.1], BOX01, NORM2,
                          0, 0, shells=0)
    with pytest.raises(ValueError):
        lip_local_profile(Identity(), np.empty((0, 1)), [0.1], BOX01, NORM2,
                          16, 0)


def test_profile_call_shape(monkeypatch):
    # one membership query, on the centres (the probes need none), one
    # probe draw, and one evaluation of the root map on centres and probes
    root = ConvexCombo(0.5, Identity(), _ramp())
    member, applied = [], []
    contains_all, apply = Box.contains_all, ConvexCombo._apply

    def spy_contains(self, pts, tol=1e-12):
        member.append(len(np.atleast_2d(pts)))
        return contains_all(self, pts, tol)

    def spy_apply(self, pts):
        if self is root:
            applied.append(len(pts))
        return apply(self, pts)

    monkeypatch.setattr(Box, "contains_all", spy_contains)
    monkeypatch.setattr(ConvexCombo, "_apply", spy_apply)
    grid = np.linspace(0.0, 1.0, 9)[:, None]
    steep_density(root, BOX01, NORM2, 0.5, 0.1, grid, samples=32, seed=4)
    assert member == [9]
    assert len(applied) == 1 and applied[0] > 9
    member.clear()
    applied.clear()
    lip_local_profile(root, [0.3], [0.2, 0.1, 0.05], BOX01, NORM2, seed=1,
                      shells=8)
    assert member == [1] and len(applied) == 1
    drawn = []
    probes = Box.probes
    monkeypatch.setattr(Box, "probes", lambda self, xs, *a: drawn.append(
        len(xs)) or probes(self, xs, *a))
    lip_local_profile(root, grid, [0.2, 0.1], BOX01, NORM2, 64, 5, 8)
    assert drawn == [9]


def test_sup_dist_hand_values():
    assert sup_dist_est(Identity(), Constant([0.0]), BOX1, NORM2) == 1.0
    assert sup_dist_est(Identity(), AffineContraction(0.5, [0.0]), BOX1,
                        NORM2) == 0.5
    m = _ramp()
    assert sup_dist_est(m, m, BOX01, NORM2) == 0.0
    a = sup_dist_est(Identity(), m, BOX01, NORM2, seed=5)
    b = sup_dist_est(m, Identity(), BOX01, NORM2, seed=5)
    assert a == b


def test_steep_density_extremes():
    net = greedy_net(BOX1, NORM2, 0.5, BOX1.sample_many(np.random.default_rng(0), 64))
    assert steep_density(Identity(), BOX1, NORM2, 0.5, 0.05, net.points) == 1.0
    assert steep_density(Constant([0.0]), BOX1, NORM2, 0.1, 0.05, net.points) == 0.0
    with pytest.raises(ValueError):
        steep_density(Identity(), BOX1, NORM2, 0.5, 0.05, np.empty((0, 1)))


def _collapsed_base():
    collapse = FlatCollapse(Net([[0.0], [0.8]], 0.6), 0.1, NORM2)
    return collapse, Compose(AffineContraction(0.5, [0.0]), collapse)


def test_tent_input_validation():
    _, base = _collapsed_base()
    up = np.array([[1.0], [1.0]])
    Tent(up, 0.1, base)                              # valid
    with pytest.raises(ValueError):
        Tent(np.array([[2.0], [1.0]]), 0.1, base)    # direction not unit
    with pytest.raises(ValueError):
        Tent(np.array([[1.0]]), 0.1, base)           # one direction per centre
    with pytest.raises(ValueError):
        Tent(up, 0.0, base)                          # flat tent


def test_forged_tent_is_rejected():
    # max(base, 1) certifies a tent only over a base that is constant on
    # every tent ball: one whose first stage collapses those balls
    collapse, base = _collapsed_base()
    up = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError):
        Tent(up, 0.1, Identity())
    with pytest.raises(ValueError):
        Tent(up, 0.1, Compose(collapse, AffineContraction(0.5, [0.0])))
    with pytest.raises(ValueError):
        Tent(up, 0.1 * (1.0 + 1e-9), base)          # taller than the collapse
    g = Tent(up, 0.1, base)
    assert np.array_equal(g.centers, collapse.centers)
    assert np.array_equal(g.apexes, base._apply(collapse.centers))
    assert g.stages == (base.outer,)


def test_tent_matches_the_stacked_evaluation():
    # one nearest-centre query drives both the collapse and the tents; the
    # result must equal the base map with the tent formula laid over it
    collapse, base = _collapsed_base()
    g = Tent(np.array([[1.0], [-1.0]]), 0.1, base)
    pts = BOX1.sample_many(np.random.default_rng(3), 2000)
    want = base._apply(pts)
    for x, row in zip(pts, want):
        i = int(np.argmin(np.abs(collapse.centers[:, 0] - x[0])))
        t = abs(x[0] - collapse.centers[i, 0])
        if t < 0.1:
            row[:] = g.apexes[i] + min(t, 0.1 - t) * g.directions[i]
    assert np.array_equal(g._apply(pts), want)


def _full_row_tent(g, pts):
    """Collapse and tent of a `Tent` with every branch built over every
    row, from the unbounded dense nearest-centre scan: the reference for
    kernels whose nearest-centre query is exact only within r."""
    c = g.collapse
    idx, d = nearest(c.centers, pts, c.norm)
    ctr = c.centers[idx]
    out = pts.copy()
    inner = d <= c.delta
    out[inner] = ctr[inner]
    mid = (d > c.delta) & (d < c.r)
    coef = (c.r - c.r * c.delta / d[mid]) / (c.r - c.delta)
    out[mid] = ctr[mid] + coef[:, None] * (pts[mid] - ctr[mid])
    collapsed = out.copy()
    for stage in g.stages:
        out = stage._apply(out)
    apex, u = g.apexes[idx], g.directions[idx]
    inner = d < g.rho
    ring = (d >= g.rho) & (d < g.delta)
    out[inner] = apex[inner] + d[inner, None] * u[inner]
    out[ring] = apex[ring] + (g.delta - d[ring])[:, None] * u[ring]
    return collapsed, out


@pytest.mark.parametrize("grid", [True, False])
def test_restricted_kernels_match_the_full_row_kernels(monkeypatch, grid):
    # bump nets on the lattice s Z^n: a centre with c_k = 0 puts c + t e_k
    # at distance exactly t for p in {1, 2, inf}, so rows sit exactly at
    # delta, rho and r (at r, also exactly between two centres).  Every
    # nearest-centre query goes to the net's cell index, or none does
    monkeypatch.setattr(space, "NEAREST_GRID_MIN", 0 if grid else math.inf)
    for dim in (2, 3):
        box = Box(-np.ones(dim), np.ones(dim))
        lattice = np.array(list(itertools.product((-0.5, 0.0, 0.5), repeat=dim)))
        f = random_nonexpansive(box, seed=dim)
        for p in (1.0, 2.0, math.inf):
            norm = Norm(p)
            nets = (Net(lattice, 0.5),
                    greedy_net(box, norm, 0.4, grid_candidates(box, 13)))
            for net in nets:
                g = bump_perturb(f, net, 0.5, box, norm)
                c = g.collapse
                rng = np.random.default_rng(dim)
                steps = np.concatenate([np.eye(dim), -np.eye(dim)])
                radii = (0.5 * g.rho, g.rho, 0.75 * c.delta, c.delta,
                         0.5 * (c.delta + c.r), c.r)
                axial = np.vstack([net.points + t * steps[:, None, :]
                                   for t in radii]).reshape(-1, dim)
                around = net.points + c.delta * rng.normal(size=(20,) + net.points.shape)
                pts = np.vstack([axial, around.reshape(-1, dim),
                                 box.sample_many(rng, 2000)])
                dist = distances(pts, net.points, norm).min(axis=1)
                if net is nets[0]:
                    assert all((dist == t).any() for t in (c.delta, g.rho, c.r))
                assert (dist < g.rho).any() and (dist > c.r).any()
                collapsed, want = _full_row_tent(g, pts)
                assert np.array_equal(c._apply(pts), collapsed)
                assert np.array_equal(g._apply(pts), want)


def test_range_closure_under_random_trees():
    ball = Ball(np.zeros(2), 1.0, Norm(1.0))
    for seed in (0, 1, 2):
        m = random_nonexpansive(ball, seed=seed)
        pts = ball.sample_many(np.random.default_rng(seed + 10), 10_000)
        assert ball.contains_all(m._apply(pts), tol=1e-9).all()


def test_random_nonexpansive_contract():
    a = random_nonexpansive(BOX1, seed=7)
    b = random_nonexpansive(BOX1, seed=7)
    xs = BOX1.sample_many(np.random.default_rng(1), 50)
    assert np.array_equal(a._apply(xs), b._apply(xs))
    for seed in range(8):
        m = random_nonexpansive(BOX1, seed=seed)
        assert m.certificate <= 1.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_certificate_soundness_property(seed):
    m = random_nonexpansive(BOX1, seed=seed)
    est = lip_global_est(m, BOX1, NORM2, pairs=1000, seed=seed)
    assert est <= m.certificate + CERT_SLACK


def test_estimator_rejects_coincident_samples():
    # below float resolution every probe rounds onto the centre itself
    with pytest.raises(EstimationError):
        lip_local_profile(Identity(), [0.5], [1e-300], BOX01, NORM2,
                          samples=16)
