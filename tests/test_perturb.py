"""Collapse maps, direction fields, isometric bumps and their witnesses."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelab.errors import DomainError, GeometryError, ParameterError
from nelab.maps import (Constant, ConvexCombo, Identity, Tent, lip_global_est,
                        sup_dist_est)
from nelab.perturb import (DirectionField, bump_perturb, bump_witnesses,
                           direction_field, flat_collapse)
from nelab.space import Box, Net, Norm

NORM2 = Norm(2.0)
BOX01 = Box(np.array([0.0]), np.array([1.0]))
BOX2 = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

# the running 1-D example: unit interval, three-point net at separation 1/2,
# budget eps = 1/2, so r = 1/4 and the collapse depth works out to
# delta = eps*r/(3*(1+diam)) = 0.125/6
NET3 = Net(np.array([[0.0], [0.5], [1.0]]), 0.5, NORM2)
DELTA3 = 0.020833333333333332
RHO3 = 0.010416666666666666


def test_flat_collapse_validation():
    with pytest.raises(ParameterError):
        flat_collapse([0.0], 0.5, 0.5, BOX01)
    with pytest.raises(ParameterError):
        flat_collapse([0.0], -0.1, 0.5, BOX01)
    with pytest.raises(DomainError):
        flat_collapse([2.0], 0.1, 0.2, BOX01)


def test_flat_collapse_sup_distance_is_delta():
    m = flat_collapse([0.5], 0.1, 0.3, BOX01)
    # the collapse of the one-point net {0.5} at separation 2r
    assert m.net.points.tolist() == [[0.5]]
    assert m.net.s == 2 * 0.3 and m.r == 0.3
    assert m.certificate == pytest.approx(1.5, abs=1e-15)
    assert sup_dist_est(m, Identity(), BOX01, samples=2000) \
        <= 0.1 + 1e-12


def test_direction_field_branches_and_units():
    field = direction_field(BOX2, 0.3)
    # anchors are a diameter-realising pair of corners
    assert float(NORM2.of(field.w - field.v)) == pytest.approx(math.sqrt(2.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = BOX2.sample(rng)
        e = field(z)
        assert float(NORM2.of(e)) == pytest.approx(1.0, abs=1e-12)
        dv = float(NORM2.of(field.v - z))
        if dv >= 0.1:
            assert np.array_equal(e, (field.v - z) / dv)
        else:
            assert np.array_equal(e, (field.w - z) / float(NORM2.of(field.w - z)))
        assert field.segment_inside(BOX2, z)


def test_segment_check_flags_an_anchor_outside_the_body():
    # a forged field aiming at v = (1.5, 0.5), outside the unit square:
    # from z near the right edge the segment [z, z + (s/3) e_z] leaves it
    zs = BOX2.sample_many(np.random.default_rng(1), 30)
    genuine = direction_field(BOX2, 0.3)
    assert genuine.segment_inside(BOX2, zs)
    forged = DirectionField(np.array([1.5, 0.5]), np.array([0.0, 0.0]), 0.3,
                            NORM2)
    assert forged.segment_inside(BOX2, [[0.2, 0.5]])
    assert not forged.segment_inside(BOX2, np.vstack([zs, [[0.95, 0.5]]]))


def test_direction_field_validation():
    with pytest.raises(ParameterError):
        direction_field(BOX2, 0.0)
    with pytest.raises(GeometryError):
        DirectionField(np.array([0.0]), np.array([0.05]), 0.3, NORM2)
    with pytest.raises(GeometryError):
        direction_field(BOX01, 3.0)    # 2s/3 = 2 == diam: no far pair


def test_bump_perturb_frozen_geometry():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    assert g.collapse.net is NET3            # the maps on one net share its index
    assert g.collapse.r == 0.25
    assert g.collapse.delta == DELTA3
    assert g.delta == DELTA3
    assert g.rho == RHO3
    assert g.rho == pytest.approx(0.5 * 0.5 / 12.0 / 2.0, abs=1e-18)


def test_bump_perturb_validation():
    wide = Net(NET3.points, 1.5, NORM2)
    with pytest.raises(ParameterError):
        bump_perturb(Identity(), wide, 0.5, BOX01)
    with pytest.raises(ParameterError):
        bump_perturb(Identity(), NET3, 0.0, BOX01)
    one = Net(np.array([[0.5]]), 0.5, NORM2)
    with pytest.raises(ParameterError):
        bump_perturb(Identity(), one, 0.5, BOX01)
    # the collapse's 2r = s separation check rejects a net that is too close
    too_close = Net(np.array([[0.0], [0.2]]), 0.5, NORM2)
    with pytest.raises(ParameterError):
        bump_perturb(Identity(), too_close, 0.5, BOX01)
    expansive = flat_collapse([0.5], 0.1, 0.2, BOX01)
    with pytest.raises(ParameterError):
        bump_perturb(expansive, NET3, 0.5, BOX01)
    # a net in another norm than the body's
    with pytest.raises(ParameterError, match="different norms"):
        bump_perturb(Identity(), Net(NET3.points, 0.5, Norm(1.0)), 0.5,
                     BOX01)


def test_bump_perturb_is_nonexpansive_and_close():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    assert isinstance(g, Tent)
    assert g.certificate == 1.0
    assert sup_dist_est(g, Identity(), BOX01, samples=4000) <= 0.5
    est = lip_global_est(g, BOX01, pairs=4000, seed=1)
    assert est <= 1.0 + 1e-9


def test_bump_perturb_isometry_on_inner_balls():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    for x in NET3.points:
        gx = g(x)
        for u in np.linspace(-0.95, 0.95, 13):
            y = x + u * g.rho
            if not BOX01.contains(y):
                continue
            want = abs(float(u * g.rho))
            got = float(NORM2.of(g(y) - gx))
            assert got == pytest.approx(want, abs=1e-12)


def test_bump_witness_constants_frozen():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    w = bump_witnesses(g, 0.5, BOX01)
    # beta = (1-lam) s / (96 (1+diam)) and bound = (1+lam)/2, by hand
    assert w.beta == pytest.approx(0.25 / 192.0, abs=1e-18)
    assert w.bound == pytest.approx(0.75, abs=1e-15)
    assert np.array_equal(w.xs, NET3.points)
    assert w.ys.shape == NET3.points.shape
    offset = 0.5 * 0.5 / (24.0 * 2.0)
    for x, y in zip(w.xs, w.ys):
        assert float(NORM2.of(y - x)) == pytest.approx(offset, abs=1e-15)
    # the probes sit inside the isometry ball, so g itself scores exactly 1
    for x, y in zip(w.xs, w.ys):
        q = float(NORM2.of(g(y) - g(x))) / float(NORM2.of(y - x))
        assert q == pytest.approx(1.0, rel=1e-12)


def test_bump_witnesses_validation():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    with pytest.raises(ParameterError):
        bump_witnesses(Identity(), 0.5, BOX01)
    with pytest.raises(ParameterError):
        bump_witnesses(g, 1.0, BOX01)


def test_witness_quotients_survive_nearby_maps():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    lam = 0.5
    w = bump_witnesses(g, lam, BOX01)
    # drag g towards a constant by exactly the allowed sup-distance beta*eps
    tau = w.beta * 0.5 / 1.0        # sup distance tau * diam = beta * eps
    h = ConvexCombo(tau, g, Constant([0.3]))
    for x, y in zip(w.xs, w.ys):
        q = float(NORM2.of(h(y) - h(x))) / float(NORM2.of(y - x))
        assert q > lam
        assert q >= w.bound - 1e-9


@settings(max_examples=20, deadline=None)
@given(
    lam=st.floats(0.1, 0.9),
    eps=st.floats(0.1, 0.9),
    u=st.floats(0.0, 1.0),
)
def test_witness_bound_property_two_point_net(lam, eps, u):
    net = Net(np.array([[0.1, 0.1], [0.8, 0.9]]), 0.5, NORM2)
    g = bump_perturb(Identity(), net, eps, BOX2)
    w = bump_witnesses(g, lam, BOX2)
    tau = u * w.beta * eps / BOX2.diameter
    h = ConvexCombo(tau, g, Constant([0.4, 0.6]))
    for x, y in zip(w.xs, w.ys):
        q = float(NORM2.of(h(y) - h(x))) / float(NORM2.of(y - x))
        assert q > lam and q >= w.bound - 1e-9
