"""Norms, convex bodies, candidate grids and greedy separated nets."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelab.errors import DegenerateBodyError
from nelab.space import (Ball, Box, Hull, Net, Norm, as_point, greedy_net,
                         grid_candidates, segment_point)

TRIANGLE_TOL = 1e-12


def test_norm_hand_values():
    assert Norm(2.0).of(as_point((3.0, 4.0))) == 5.0
    assert Norm(math.inf).of(as_point((3.0, -4.0))) == 4.0
    assert Norm(1.0).of(as_point((3.0, -4.0))) == 7.0


def test_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        Norm(0.5)
    with pytest.raises(ValueError):
        Norm(2.0).of(as_point((1.0, math.nan)))
    with pytest.raises(ValueError):
        as_point([])


@settings(max_examples=200, deadline=None)
@given(
    v=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    w=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    u=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
)
def test_norm_triangle_inequality(v, w, u, p):
    n = Norm(p)
    x, y, z = np.array(v), np.array(w), np.array(u)
    lhs = float(n.of(x - z))
    rhs = float(n.of(x - y)) + float(n.of(y - z))
    assert lhs <= rhs + TRIANGLE_TOL * max(1.0, rhs)


def test_segment_point_values():
    assert np.array_equal(segment_point((0.0, 0.0), (2.0, 2.0), 0.5), [1.0, 1.0])
    assert np.array_equal(segment_point((0.3, 0.7), (0.9, 0.1), 0.0), [0.3, 0.7])
    np.testing.assert_allclose(
        segment_point((1.0, 0.0), (0.0, 1.0), 0.25), [0.75, 0.25], atol=1e-15)
    with pytest.raises(ValueError):
        segment_point((0.0,), (1.0,), 1.5)
    with pytest.raises(ValueError):
        segment_point((0.0,), (1.0, 2.0), 0.5)


def test_box_diameter_matches_corner_norm():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert box.diameter(Norm(2.0)) == float(Norm(2.0).of(box.hi - box.lo))
    assert box.diameter(Norm(2.0)) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert box.diameter(Norm(1.0)) == 4.0
    assert box.diameter(Norm(math.inf)) == 2.0


def test_ball_diameter_across_norms():
    for p in (1.0, 2.0, math.inf):
        assert Ball(np.zeros(2), 1.0, Norm(p)).diameter(Norm(p)) == 2.0
    # sup-ball corners measured in l1: the factor is dim^(1/1 - 0) = 2
    assert Ball(np.zeros(2), 1.0, Norm(math.inf)).diameter(Norm(1.0)) == 4.0


def test_hull_triangle_diameter_and_membership():
    tri = Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert tri.diameter(Norm(1.0)) == 2.0
    assert tri.contains([0.2, 0.2])
    assert tri.contains([0.5, 0.5])          # edge midpoint
    assert tri.contains([1.0, 0.0])          # vertex
    assert not tri.contains([0.6, 0.6])
    assert not tri.contains([-0.1, 0.0])


def test_degenerate_bodies_rejected():
    with pytest.raises(DegenerateBodyError):
        Box(np.array([0.3]), np.array([0.3]))
    with pytest.raises(DegenerateBodyError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(DegenerateBodyError):
        Hull(np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_sampling_is_seeded_and_lands_inside():
    box = Box(np.array([0.0]), np.array([1.0]))
    a = box.sample(np.random.default_rng(0))
    b = box.sample(np.random.default_rng(0))
    assert np.array_equal(a, b)
    mean = box.sample_many(np.random.default_rng(1), 10_000).mean()
    assert abs(mean - 0.5) < 0.05

    ball = Ball(np.zeros(3), 1.0, Norm(1.0))
    pts = ball.sample_many(np.random.default_rng(2), 500)
    assert pts.shape == (500, 3)
    assert ball.contains_all(pts).all()


def test_extreme_points_are_members():
    bodies = [
        Box(np.array([-1.0, 0.0]), np.array([2.0, 1.0])),
        Ball(np.array([0.5, 0.5]), 0.4, Norm(2.0)),
        Ball(np.zeros(2), 1.0, Norm(math.inf)),
        Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    ]
    for body in bodies:
        assert body.contains_all(body.extreme_points(), tol=1e-9).all()


def test_grid_candidates_filtering():
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert grid_candidates(box, 5).shape == (25, 2)
    ball = Ball(np.zeros(2), 1.0, Norm(2.0))
    g = grid_candidates(ball, 5)
    assert g.shape[0] < 25 and ball.contains_all(g, tol=1e-9).all()
    with pytest.raises(ValueError):
        grid_candidates(box, 1)


def test_greedy_net_ordered_grid_trace():
    # first-fit over 0, 0.1, ..., 1.0 with s = 0.4 accepts exactly 0, 0.4, 0.8
    box = Box(np.array([0.0]), np.array([1.0]))
    cands = np.array([[i / 10] for i in range(11)])
    net = greedy_net(box, Norm(2.0), 0.4, cands)
    assert np.array_equal(net.points.ravel(), [0.0, 0.4, 0.8])
    assert net.s == 0.4


def test_greedy_net_collapses_tight_cluster():
    box = Box(np.array([0.0]), np.array([1.0]))
    net = greedy_net(box, Norm(2.0), 0.9, np.array([[0.3], [0.5], [0.6]]))
    assert np.array_equal(net.points, [[0.3]])


def test_greedy_net_contract_on_random_candidates():
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    norm = Norm(math.inf)
    cands = box.sample_many(np.random.default_rng(3), 200)
    net = greedy_net(box, norm, 0.25, cands)
    assert net.check_separated(norm)
    # first-fit leaves every candidate within s of an accepted point
    gaps = norm.of(cands[:, None, :] - net.points[None, :, :], axis=2)
    assert (gaps.min(axis=1) <= net.s).all()
    assert len(net) >= 2


def test_greedy_net_input_errors():
    box = Box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        greedy_net(box, Norm(2.0), 0.4, np.empty((0, 1)))
    with pytest.raises(ValueError):
        greedy_net(box, Norm(2.0), 2.0, np.array([[0.5]]))       # s > diam
    with pytest.raises(ValueError):
        greedy_net(box, Norm(2.0), 0.4, np.array([[1.5]]))       # outside


def test_net_separation_helpers():
    net = Net(np.array([[0.0], [0.5], [1.0]]), 0.5)
    assert net.min_separation(Norm(2.0)) == 0.5
    assert net.check_separated(Norm(2.0))
    assert not Net(np.array([[0.0], [0.3]]), 0.5).check_separated(Norm(2.0))
    assert len(Net(np.array([0.2]), 0.1)) == 1


def test_segment_stays_inside_hull():
    tri = Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    rng = np.random.default_rng(4)
    x, y = tri.sample(rng), tri.sample(rng)
    for t in rng.random(100):
        assert tri.contains(segment_point(x, y, float(t)), tol=1e-9)
