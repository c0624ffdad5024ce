"""Norms, convex bodies, candidate grids and greedy separated nets."""
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

import nelab
from nelab import porosity, space
from nelab.errors import DegenerateBodyError
from nelab.space import (Ball, Box, Hull, Net, Norm, as_point, body_from_desc,
                         distances, greedy_net, grid_candidates, nearest)

TRIANGLE_TOL = 1e-12


def test_norm_hand_values():
    assert Norm(2.0).of(as_point((3.0, 4.0))) == 5.0
    assert Norm(math.inf).of(as_point((3.0, -4.0))) == 4.0
    assert Norm(1.0).of(as_point((3.0, -4.0))) == 7.0


def test_norm_of_one_vector_matches_its_batch_row():
    # numpy's scalar power rounds differently from its array power, so a
    # single vector must take the same final step as a batch row
    rng = np.random.default_rng(11)
    for p in (1.5, 3.0, 4.5):
        norm = Norm(p)
        for dim in (1, 2, 3):
            v = rng.normal(size=(500, dim))
            batch = norm.of(v)
            assert [norm.of(row) for row in v] == batch.tolist()


def test_one_coordinate_norm_is_its_absolute_value():
    # no power to round it and no square to underflow, on a single vector
    # and on a one-column batch alike
    xs = [1e-160, -1e-200, 1e-300, 5e-324, 0.3, -7.0, 1e200]
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        norm = Norm(p)
        assert [float(norm.of([x])) for x in xs] == [abs(x) for x in xs]
        col = np.array(xs)[:, None]
        assert norm.of(col).tolist() == [abs(x) for x in xs]


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


def test_box_diameter_matches_corner_norm():
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    box = Box(lo, hi)
    assert box.norm == Norm(2.0)
    assert box.diameter == float(Norm(2.0).of(box.hi - box.lo))
    assert box.diameter == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert Box(lo, hi, Norm(1.0)).diameter == 4.0
    assert Box(lo, hi, Norm(math.inf)).diameter == 2.0


def test_ball_diameter_across_norms():
    for p in (1.0, 2.0, 3.0, math.inf):
        assert Ball(np.zeros(2), 1.0, Norm(p)).diameter == 2.0


def test_hull_triangle_diameter_and_membership():
    tri = Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), Norm(1.0))
    assert "diameter" not in vars(tri)          # computed on first use, once
    assert tri.diameter == 2.0 and vars(tri)["diameter"] == 2.0
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
    with pytest.raises(DegenerateBodyError):
        Hull(np.array([[0.3], [0.3], [0.3]]))
    # vertices that span less than their dimension: collinear in 2-D,
    # coplanar in 3-D, and two vertices in 2-D
    for verts in ([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                  [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                   [1.0, 1.0, 0.0]],
                  [[0.0, 0.0], [1.0, 1.0]]):
        with pytest.raises(DegenerateBodyError):
            Hull(np.array(verts))


def _kinds(fn) -> set:
    """Which of "body" and "norm" the parameters of fn name: a body is a
    parameter called body or ambient or annotated ConvexBody, a norm one
    called norm or annotated Norm."""
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return set()
    return {"body" if p.name in ("body", "ambient")
            or "ConvexBody" in str(p.annotation) else
            "norm" if p.name == "norm" or str(p.annotation) == "Norm" else ""
            for p in params}


def test_no_callable_takes_both_a_body_and_a_norm():
    # a body carries its norm: no public function or constructor, and no
    # method of a body, net or oracle, asks for the two separately
    owners = [space.ConvexBody, Box, Ball, Hull, Net, porosity.SetOracle,
              porosity.FinitePointSet, porosity.ReciprocalSet,
              porosity.IntervalUnionSet]
    fns = [getattr(nelab, name) for name in nelab.__all__]
    fns += [getattr(cls, name) for cls in owners for name in vars(cls)
            if not name.startswith("__") or name == "__init__"]
    both = [fn for fn in fns if callable(fn) and {"body", "norm"} <= _kinds(fn)]
    assert not both, both


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


def test_sample_many_is_successive_single_samples():
    # one batched rejection loop: n points at once are the n points that n
    # one-candidate-at-a-time rejection loops give, and the generator ends
    # in the same state.  A prior 31-bit draw leaves half of a 64-bit word
    # buffered in that state, which a rewind by `advance` would drop
    bodies = [Box(np.array([-1.0, 0.0]), np.array([2.0, 1.0])),
              Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))]
    bodies += [Ball(np.array([0.5, -0.5, 0.0]), 0.7, Norm(p))
               for p in (1.0, 2.0, math.inf)]
    for body in bodies:
        lo, hi = body.bounds()
        for n in (1, 7, 40):
            batch_rng, single_rng = np.random.default_rng(5), np.random.default_rng(5)
            batch_rng.integers(2 ** 31)
            single_rng.integers(2 ** 31)
            batch = body.sample_many(batch_rng, n)
            singles = []
            while len(singles) < n:
                x = lo + single_rng.random(body.dim) * (hi - lo)
                if body.contains(x):
                    singles.append(x)
            assert np.array_equal(batch, np.array(singles)), (body, n)
            assert batch_rng.bit_generator.state == single_rng.bit_generator.state, \
                (body, n)


def test_extreme_points_are_members():
    bodies = [
        Box(np.array([-1.0, 0.0]), np.array([2.0, 1.0])),
        Ball(np.array([0.5, 0.5]), 0.4, Norm(2.0)),
        Ball(np.zeros(2), 1.0, Norm(math.inf)),
        Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    ]
    for body in bodies:
        assert body.contains_all(body.extreme_points(), tol=1e-9).all()


def test_probes_lie_in_the_body_within_their_radius():
    # vertex centres are where a draw around x mostly leaves the body; the
    # radius 10 exceeds every diameter, so those probes are the targets.
    # A target can round to x itself when x is a vertex or the centre, so
    # one probe may sit at x, but each radius gets probes away from it
    radii = np.repeat([10.0, 0.2, 0.05, 0.01, 1e-3], 8)
    for dim in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            for desc in ("box", "ball", "simplex"):
                body = body_from_desc(desc, dim, norm)
                rng = np.random.default_rng([dim, int(min(p, 9)), len(desc)])
                xs = np.vstack([body.sample_many(rng, 5), body.extreme_points(),
                                body.center])
                ys = body.probes(xs, radii, rng)
                assert ys.shape == (len(xs), len(radii), dim)
                assert body.contains_all(ys.reshape(-1, dim), tol=1e-12).all()
                d = norm.of(ys - xs[:, None, :])
                assert np.all(d <= radii * (1.0 + 1e-12)), (dim, p, desc)
                assert (d.reshape(len(xs), -1, 8) > 0.0).any(axis=2).all(), \
                    (dim, p, desc)


def test_probes_point_every_way_from_an_interior_centre():
    # r is below the face distance, so B(x, r) lies in C and a fair sampler
    # sends probes to both sides of x along every axis; targets bunched
    # near the centroid would all point one way
    for dim in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            for desc in ("box", "ball", "simplex"):
                body = body_from_desc(desc, dim, norm)
                x = body.center + 0.3 * (body.extreme_points()[0] - body.center)
                steps = body.probes(x, np.full(512, 1e-3),
                                    np.random.default_rng(dim))[0] - x
                share = np.minimum((steps > 0).mean(axis=0),
                                   (steps < 0).mean(axis=0))
                assert share.min() >= 0.1, (dim, p, desc, share)


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
    net = greedy_net(box, 0.4, cands)
    assert np.array_equal(net.points.ravel(), [0.0, 0.4, 0.8])
    assert net.s == 0.4 and net.norm == box.norm


def test_greedy_net_collapses_tight_cluster():
    box = Box(np.array([0.0]), np.array([1.0]))
    net = greedy_net(box, 0.9, np.array([[0.3], [0.5], [0.6]]))
    assert np.array_equal(net.points, [[0.3]])


def test_greedy_net_contract_on_random_candidates():
    norm = Norm(math.inf)
    box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]), norm)
    cands = box.sample_many(np.random.default_rng(3), 200)
    net = greedy_net(box, 0.25, cands)
    assert net.norm == norm and net.check_separated()
    # first-fit leaves every candidate within s of an accepted point
    gaps = norm.of(cands[:, None, :] - net.points[None, :, :])
    assert (gaps.min(axis=1) <= net.s).all()
    assert len(net) >= 2


def greedy_rows(cands, norm, s):
    """The candidate-by-candidate first-fit loop greedy_net replaced."""
    accepted = []
    for c in cands:
        if not accepted or float(norm.of(np.asarray(accepted) - c).min()) >= s:
            accepted.append(c)
    return np.asarray(accepted)


def test_greedy_net_matches_the_candidate_loop():
    # a 0.25-lattice with s = 0.5 puts candidate pairs at exactly s along
    # the axes; duplicates and shuffles must not change what first-fit keeps
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        box = Box(-np.ones(dim), np.ones(dim))
        lattice = grid_candidates(box, 9)
        rand = box.sample_many(rng, 150)
        shuffled = np.vstack([lattice, lattice[::3]])
        shuffled = shuffled[rng.permutation(len(shuffled))]
        repeated = np.vstack([rand[:40], rand[:40], rand[5:15]])
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            for cands in (lattice, rand, shuffled, repeated):
                for s in (0.3, 0.5, 0.7):
                    net = greedy_net(Box(box.lo, box.hi, norm), s, cands)
                    ref = greedy_rows(cands, norm, s)
                    assert net.points.tobytes() == ref.tobytes(), (dim, p, s)
    # on the lattice the ties at exactly s are kept
    box = Box(np.array([-1.0]), np.array([1.0]))
    net = greedy_net(box, 0.5, grid_candidates(box, 9))
    assert net.points.ravel().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_greedy_net_input_errors():
    box = Box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        greedy_net(box, 0.4, np.empty((0, 1)))
    with pytest.raises(ValueError):
        greedy_net(box, 2.0, np.array([[0.5]]))       # s > diam
    with pytest.raises(ValueError):
        greedy_net(box, 0.4, np.array([[1.5]]))       # outside


def test_net_separation_helpers():
    l2 = Norm(2.0)
    net = Net(np.array([[0.0], [0.5], [1.0]]), 0.5, l2)
    assert net.check_separated()          # the closest pair is 0.5 apart
    assert not Net(net.points, 0.5 + 1e-12, l2).check_separated()
    assert not Net(np.array([[0.0], [0.3]]), 0.5, l2).check_separated()
    single = Net(np.array([0.2]), 0.1, l2)
    assert len(single) == 1 and single.check_separated()
    # the separation is measured in the net's own norm
    diag = np.array([[0.0, 0.0], [0.3, 0.3]])
    assert Net(diag, 0.5, Norm(1.0)).check_separated()
    assert not Net(diag, 0.5, Norm(math.inf)).check_separated()


def test_distances_and_nearest_match_the_row_loop():
    # the reference is one Norm.of call per pair, as in the loops these
    # kernels replaced
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        a = rng.normal(size=(40, dim))
        b = rng.normal(size=(7, dim))
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            loop = [[norm.of(x - y) for y in b] for x in a]
            assert distances(a, b, norm).tolist() == loop
            idx, d = nearest(b, a, norm)
            assert idx.tolist() == [row.index(min(row)) for row in loop]
            assert d.tolist() == [min(row) for row in loop]
    # more rows than one block of the scan holds: the same as one query
    c, x = rng.normal(size=(300, 3)), rng.normal(size=(1000, 3))
    dense = distances(x, c, Norm(3.0))
    idx, d = nearest(c, x, Norm(3.0))
    assert idx.tolist() == dense.argmin(axis=1).tolist()
    assert d.tolist() == dense.min(axis=1).tolist()
    # equidistant centres: the first one wins
    idx, d = nearest(np.array([[-1.0], [1.0], [1.0]]),
                     np.array([[0.0], [1.0], [2.0]]), Norm(2.0))
    assert idx.tolist() == [0, 1, 1] and d.tolist() == [1.0, 0.0, 1.0]


def net_nearest_violations(net, queries) -> int:
    """Rows on which `Net.nearest` breaks its contract: a row with a net
    point within s/2 gets the dense scan's (idx, d) bit for bit, any other
    row some d > s/2 and a valid index.  The rows are repeated until the
    query is large enough for the net's cell index to answer it."""
    short = space.NEAREST_GRID_MIN / (queries.shape[0] * net.points.size)
    queries = np.repeat(queries, max(1, math.ceil(short)), axis=0)
    idx, d = net.nearest(queries)
    assert net._index is not None
    ref_idx, ref_d = nearest(net.points, queries, net.norm)
    within = ref_d <= net.s / 2.0
    bad = np.where(within, (idx != ref_idx) | (d != ref_d), ~(d > net.s / 2.0))
    return int((bad | (idx < 0) | (idx >= len(net))).sum())


def cell_boundary_cases(dim, norm, reach=0.05):
    """(net, row) pairs about rows whose cell lookup rounds across a cell
    boundary b of axis 0: the row lies a few ulps on one side of b and is
    looked up in the cell on the other.  The net's middle centre is placed
    so that the row is within reach of it and the far side of b is not;
    the centres at the ends of the diagonal of [-1, 1]^dim pin the grid."""
    ends = np.array([-np.ones(dim), np.ones(dim)])
    index = space._CellIndex(ends, reach, norm)
    lo, side, origin = index.lo[0], index.side, np.zeros(dim)
    for q in range(1, int(index.shape[0])):
        b = lo + q * side
        for x in b + np.spacing(b) * np.arange(-3, 4):
            cell = math.floor((x - lo) / side)
            if (cell == q) == (x >= b):
                continue                            # looked up on its side
            way = 1.0 if x > b else -1.0            # the centre lies beyond x
            row, edge = origin.copy(), origin.copy()
            row[0], edge[0] = x, b
            for k in range(-4, 5):
                c = origin.copy()
                c[0] = x + way * reach + k * np.spacing(reach)
                if norm.of(row - c) <= reach < norm.of(edge - c):
                    yield Net(np.vstack([ends[0], c, ends[1]]), 2.0 * reach,
                              norm), row
                    break


def test_net_nearest_on_cell_boundaries():
    for dim in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            cases = list(cell_boundary_cases(dim, norm))
            assert len(cases) >= 10
            for net, row in cases:
                assert net_nearest_violations(net, row[None, :]) == 0


def test_nearest_within_reach_matches_the_dense_scan():
    # rows bisected onto the reach sphere, lattice rows with exact ties
    # inside reach (the net is Net(points, 1.2 s) over an s-separated
    # greedy net, so reach is 0.6 s and balls overlap), and rows beyond
    # the grid box around the reach balls.  The last net is the whole 7^3
    # lattice, whose cell index is built from 343 x 6^3 candidate cells
    rng = np.random.default_rng(17)
    for dim, per_net, per_query, s in ((1, 41, 321, 0.1), (2, 11, 21, 0.4),
                                       (3, 5, 9, 0.5), (3, 7, 13, 0.3)):
        box = Box(-np.ones(dim), np.ones(dim))
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            body = Box(box.lo, box.hi, norm)
            pts = greedy_net(body, s, grid_candidates(body, per_net)).points
            assert (dim, per_net) != (3, 7) or len(pts) == 7 ** 3
            net, reach = Net(pts, 1.2 * s, norm), 0.6 * s

            def gap(x):
                return distances(x, pts, norm).min(axis=1)

            # lo within reach, hi beyond it, along rays out of random centres
            lo = pts[rng.integers(len(pts), size=400)]
            hi = lo + 2.0 * reach * rng.normal(size=lo.shape)
            out = gap(hi) > reach
            lo, hi = lo[out], hi[out]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                inside = (gap(mid) <= reach)[:, None]
                lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
            assert (gap(lo) > reach * (1.0 - 1e-12)).all()
            queries = np.vstack([lo, hi, grid_candidates(box, per_query),
                                 rng.uniform(-3.0, 3.0, size=(300, dim))])
            ref = distances(queries, pts, norm)
            within = ref.min(axis=1) <= reach
            ties = (ref == ref.min(axis=1)[:, None]).sum(axis=1) > 1
            assert (within & ties).any() and not within.all()
            assert (np.abs(queries) > 1.0 + reach).any(axis=1).any()
            assert net_nearest_violations(net, queries) == 0


def test_net_nearest_breaks_ties_like_the_dense_scan():
    # a lattice queried on a lattice twice as fine, as a net of separation
    # twice its spacing: many rows are equidistant from two or more points
    # within reach, and their cells list several; the dense scan keeps
    # the first
    for dim, per_net, per_query in ((1, 41, 321), (2, 11, 21), (3, 5, 9)):
        box = Box(-np.ones(dim), np.ones(dim))
        pts, queries = grid_candidates(box, per_net), grid_candidates(box, per_query)
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            net = Net(pts, 4.0 / (per_net - 1), norm)
            ref = distances(queries, pts, norm)
            assert ((ref == ref.min(axis=1)[:, None]).sum(axis=1) > 1).any()
            assert net_nearest_violations(net, queries) == 0
    # rows bisected onto the l3 bisector of two centres, where rounding
    # decides which one is nearer
    rng, norm = np.random.default_rng(3), Norm(3.0)
    c = rng.normal(size=(2, 3))
    shift = rng.normal(size=(1500, 3))
    a, b = c[0] + shift, c[1] + shift
    for _ in range(60):
        mid = 0.5 * (a + b)
        left = (norm.of(mid - c[0]) <= norm.of(mid - c[1]))[:, None]
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    assert net_nearest_violations(Net(c, 20.0, norm), np.vstack([a, b])) == 0


def test_net_nearest_caps_its_cells():
    # a reach far below the spread of the points would ask for 10^27 cells
    # of side reach/2 in 3-D; the side grows until at most GRID_CELLS fit
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3):
        pts = rng.uniform(-1.0, 1.0, size=(60, dim))
        for p in (1.0, 2.0, 3.0, math.inf):
            norm, s = Norm(p), 1e-8
            net = Net(pts, s, norm)
            queries = np.vstack([pts + 0.5 * s * rng.uniform(-1.0, 1.0, size=pts.shape),
                                 rng.uniform(-1.0, 1.0, size=(200, dim))])
            assert net_nearest_violations(net, queries) == 0
            index = net._index
            assert np.prod(index.shape) <= space.GRID_CELLS
            assert index.side > s


@settings(max_examples=300, deadline=None)
@given(v=hnp.arrays(np.float64,
                    st.tuples(st.integers(1, 4), st.integers(1, 7)) |
                    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 7)),
                    elements=st.floats(-1e6, 1e6, allow_subnormal=True)),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_column_norms_equal_numpy_reductions(v, p):
    # Norm.of reduces the last axis column by column; below 8 entries numpy
    # sums sequentially too.  One column's norm is its absolute value,
    # which the power or the square root of the square may round off
    a = np.abs(v)
    if math.isinf(p) or v.shape[-1] == 1:
        want = a.max(axis=-1)
    elif p == 1.0:
        want = a.sum(axis=-1)
    elif p == 2.0:
        want = np.sqrt((a * a).sum(axis=-1))
    else:
        want = np.power((a ** p).sum(axis=-1), 1.0 / p)
    assert Norm(p).of(v).tobytes() == want.tobytes()


def test_wide_norms_agree_with_numpy_reductions():
    # from 8 entries numpy sums pairwise and Norm.of still sequentially, so
    # the bits may differ, but not by more than rounding
    rng = np.random.default_rng(23)
    for width in (8, 9, 16, 33, 64):
        v = rng.normal(size=(50, width)) * rng.uniform(1e-3, 1e3, size=(50, 1))
        a = np.abs(v)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            if math.isinf(p):
                want = a.max(axis=-1)
            else:
                want = (a ** p).sum(axis=-1) ** (1.0 / p)
            assert Norm(p).of(v) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_segment_stays_inside_hull():
    tri = Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    rng = np.random.default_rng(4)
    x, y = tri.sample(rng), tri.sample(rng)
    ts = rng.random((100, 1))
    assert tri.contains_all((1.0 - ts) * x + ts * y, tol=1e-9).all()


def simplex_rows(verts):
    """Rows about the simplex `verts`: its vertices and the edge points
    0.25 v_i + 0.75 v_j, all on the boundary, and the centre of each facet
    pushed 1e-9 outward along the facet's normal.  A vertex, and in 3-D an
    edge point, lies on several facets; a facet centre lies on one only."""
    k = verts.shape[0]
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    on = np.vstack([verts, 0.25 * verts[i] + 0.75 * verts[j]])
    # the barycentric coordinates of x are inv(M) (x, 1); facet m is where
    # the m-th one vanishes, so minus its gradient is the outward normal
    grad = np.linalg.inv(np.vstack([verts.T, np.ones(k)]))[:, :-1]
    normal = -grad / np.linalg.norm(grad, axis=1, keepdims=True)
    centres = (verts.sum(axis=0) - verts) / (k - 1)
    return on, centres + 1e-9 * normal


def nnls_contains(verts, pts, tol):
    """Hull membership by its definition, one NNLS solve per row: some
    lam >= 0 with sum(lam) = 1 reproduces x, up to tol relative to the
    length of (x, 1)."""
    a = np.vstack([verts.T, np.ones(verts.shape[0])])
    return [bool(nnls(a, b)[1] <= tol * (1.0 + np.linalg.norm(b)))
            for b in np.hstack([pts, np.ones((len(pts), 1))])]


def test_contains_all_matches_the_row_reference():
    # each body's one membership query against its definition, one row at
    # a time: coordinate bounds for a box, one Norm.of call per row for a
    # ball, one NNLS solve per row for a hull (here a simplex, so vertices
    # and points on the edges lie on the boundary).  At tol = 0 the NNLS
    # residual and the facet slack of a boundary row are both rounding, so
    # there the hull's boundary rows are left out; from tol = 1e-15 on
    # every row is compared and every boundary row is inside
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            lo = rng.uniform(-1.0, 0.0, dim)
            verts = rng.uniform(-1.0, 1.0, (dim + 1, dim))
            bodies = [Box(lo, lo + rng.uniform(0.5, 2.0, dim)),
                      Ball(rng.uniform(-0.3, 0.3, dim), 1.25, norm),
                      Hull(verts)]
            for body in bodies:
                on, pushed = body.extreme_points(), np.empty((0, dim))
                tols = (0.0, 1e-12, 1e-9)
                if isinstance(body, Hull):
                    on, pushed = simplex_rows(verts)
                    tols = (0.0, 1e-15, 1e-12, 1e-9)
                out = on - body.center
                out /= np.linalg.norm(out, axis=1, keepdims=True)
                pts = np.vstack([on, on + 1e-13 * out, on + 1e-9 * out,
                                 0.5 * (on + body.center), pushed])
                k, m = len(on), len(body.extreme_points())
                for tol in tols:
                    if isinstance(body, Box):
                        ref = [bool(np.all(x >= body.lo - tol)
                                    and np.all(x <= body.hi + tol))
                               for x in pts]
                    elif isinstance(body, Ball):
                        ref = [bool(norm.of(x - body.c) <= body.radius + tol)
                               for x in pts]
                    else:
                        ref = nnls_contains(verts, pts, tol)
                    got = body.contains_all(pts, tol).tolist()
                    single = [body.contains(x, tol) for x in pts]
                    if isinstance(body, Hull) and tol == 0.0:
                        ref, got, single = ref[k:], got[k:], single[k:]
                    elif isinstance(body, Hull) and tol == 1e-15:
                        assert all(ref[:k])
                    assert got == ref, (type(body).__name__, dim, p, tol)
                    assert single == ref
                    # 1e-9 beyond an extreme point is outside under tol
                    # 1e-12, and halfway to the centre is inside, as is no
                    # facet centre pushed 1e-9 outward
                    if tol == 1e-12:
                        assert not any(ref[2 * k:2 * k + m])
                        assert all(ref[3 * k:4 * k]) and not any(ref[4 * k:])


def _hull_cases():
    """Vertex sets: random 2-D and 3-D clouds, most of whose points are
    interior; two hulls with non-triangular faces, the unit cube and a
    square pyramid; and a unit square with a fifth vertex 1e-7 beyond the
    middle of its top side, which no row may take for a side."""
    rng = np.random.default_rng(21)
    cases = [rng.uniform(-1.5, 1.5, (k, dim))
             for dim in (2, 3) for k in (dim + 3, 12) for _ in range(4)]
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    pyramid = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0],
                        [-1.0, 1.0, 0.0], [0.0, 0.0, 1.5]])
    roof = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                     [0.5, 1.0 + 1e-7]])
    return cases + [cube, pyramid, roof]


@pytest.mark.parametrize("verts", _hull_cases())
def test_hull_facets_match_qhull_and_nnls(verts):
    # every facet row is a facet equation of Qhull and each of those is a
    # row, up to rounding; and at every tol >= 1e-15 the rows give the
    # membership verdicts of Qhull's equations and of NNLS on points
    # around the hull, on its vertices, and 1e-13, 1e-10 and 1e-6 inside
    # and outside the centre of each of its (triangulated) facets
    hull, qhull = Hull(verts), ConvexHull(verts)
    rows, eqs = hull.facets, qhull.equations
    gap = np.abs(rows[:, None, :] - eqs[None, :, :]).max(axis=2)
    assert gap.min(axis=1).max() < 1e-12 and gap.min(axis=0).max() < 1e-12
    centres = verts[qhull.simplices].mean(axis=1)
    normals = eqs[:, :-1]
    lo, hi = verts.min(axis=0) - 0.5, verts.max(axis=0) + 0.5
    pts = np.vstack(
        [lo + (hi - lo) * np.random.default_rng(5).random((200, verts.shape[1])),
         verts]
        + [centres + push * normals for push in (-1e-6, -1e-10, -1e-13,
                                                 1e-13, 1e-10, 1e-6)])
    xs = np.hstack([pts, np.ones((len(pts), 1))])
    for tol in (1e-15, 1e-12, 1e-9):
        by_qhull = ((xs @ eqs.T).max(axis=1)
                    <= tol * (1.0 + np.linalg.norm(xs, axis=1))).tolist()
        got = hull.contains_all(pts, tol).tolist()
        assert got == by_qhull == nnls_contains(verts, pts, tol), tol


def test_hull_facets_in_1d_are_its_two_ends():
    # the rows [1, -max] and [-1, min] bit for bit, whatever the order of
    # the vertices, with interior and repeated ones
    rng = np.random.default_rng(8)
    for k in (2, 3, 7):
        for _ in range(20):
            verts = rng.uniform(-3.0, 3.0, (k, 1))
            verts = np.vstack([verts, verts[rng.integers(k, size=2)]])
            want = np.array([[1.0, -verts.max()], [-1.0, verts.min()]])
            assert Hull(verts).facets.tobytes() == want.tobytes()
