"""Mapping expressions: certificates, evaluation and sampling estimators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelab.errors import DomainError, EstimationError
from nelab.maps import (AffineContraction, Compose, Constant, ConvexCombo,
                        FlatCollapse, GeneratorConfig, Identity, Tent,
                        lip_global_est, lip_local_profile, pair_quotients,
                        random_nonexpansive, steep_density, sup_dist_est)
from nelab.perturb import FlatSpec, flat_collapse
from nelab.space import Ball, Box, Norm, greedy_net

BOX1 = Box(np.array([-1.0]), np.array([1.0]))
BOX01 = Box(np.array([0.0]), np.array([1.0]))
NORM2 = Norm(2.0)

CERT_SLACK = 1e-9


def _ramp():
    # max(x - 0.5, 0) on [0, 1]: half of the collapse that pins [0, 0.5]
    # to 0 and ramps back to the identity at 1
    return ConvexCombo(0.5, Constant([0.0]),
                       flat_collapse(FlatSpec([0.0], 0.5, 1.0), BOX01, NORM2))


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
    m = FlatCollapse(np.array([[0.0]]), 0.25, 0.5, NORM2)
    assert m.certificate == 2.0                       # 1 + 0.25/0.25
    assert np.array_equal(m([0.1]), [0.0])            # collapsed branch
    assert m([0.3])[0] == pytest.approx(0.1, abs=1e-15)
    out = np.array([[0.6], [-0.9], [0.5]])
    assert np.array_equal(m._apply(out), out)         # identity branch, bitwise
    with pytest.raises(ValueError):
        FlatCollapse(np.array([[0.0]]), 0.5, 0.5, NORM2)
    with pytest.raises(ValueError):
        FlatCollapse(np.array([[0.0], [0.7]]), 0.1, 0.4, NORM2)  # balls overlap


def test_flat_collapse_quotient_bracket():
    m = FlatCollapse(np.array([[0.0]]), 0.25, 0.5, NORM2)
    est = lip_global_est(m, BOX1, NORM2, pairs=10_000, seed=0)
    assert 1.8 <= est.lower_bound <= m.certificate + CERT_SLACK


def test_pair_quotients_match_the_pairwise_loop():
    box2 = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    rng = np.random.default_rng(2)
    xs, ys = box2.sample_many(rng, 300), box2.sample_many(rng, 300)
    for norm in (Norm(1.0), Norm(math.inf)):
        collapse = FlatCollapse(np.array([[0.0, 0.0], [0.9, 0.9]]), 0.1, 0.4,
                                norm)
        for m in (collapse, Compose(
                random_nonexpansive(GeneratorConfig(), box2, seed=4), collapse)):
            loop = [float(norm.of(m(y) - m(x))) / float(norm.of(y - x))
                    for x, y in zip(xs, ys)]
            assert pair_quotients(m, norm, xs, ys).tolist() == loop


def test_lip_global_linear_maps_are_exact():
    assert lip_global_est(AffineContraction(0.5, [0.0]), BOX1, NORM2,
                          200).lower_bound \
        == pytest.approx(0.5, abs=1e-12)
    assert lip_global_est(Identity(), BOX1, NORM2, 200).lower_bound \
        == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        lip_global_est(Identity(), BOX1, NORM2, 0)


def test_lip_local_ramp_is_steep_only_past_the_knee():
    m = _ramp()
    steep = lip_local_profile(m, [0.9], [0.1], BOX01, NORM2, samples=128,
                              seed=0)[0]
    assert steep.lower_bound == pytest.approx(1.0, rel=1e-12)
    flat = lip_local_profile(m, [0.2], [0.1], BOX01, NORM2, samples=128,
                             seed=0)[0]
    assert flat.lower_bound == 0.0


def test_lip_local_profile_monotone_in_scale():
    for seed in range(5):
        m = random_nonexpansive(GeneratorConfig(), BOX1, seed=seed)
        ests = lip_local_profile(m, [0.1], [0.01, 0.05, 0.2], BOX1, NORM2,
                                 samples=96, seed=seed)
        lows = [e.lower_bound for e in ests]
        assert lows == sorted(lows)


def test_lip_local_domain_and_exhaustion_errors():
    with pytest.raises(DomainError):
        lip_local_profile(Identity(), [2.0], [0.1], BOX1, NORM2)
    with pytest.raises(ValueError):
        lip_local_profile(Identity(), [0.0], [], BOX1, NORM2)


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


def test_tent_input_validation():
    with pytest.raises(ValueError):
        Tent(np.array([[0.0]]), np.array([[2.0]]), np.array([[0.0]]),
             0.1, Identity(), NORM2)                 # direction not unit
    with pytest.raises(ValueError):
        Tent(np.array([[0.0]]), np.array([[1.0], [1.0]]), np.array([[0.0]]),
             0.1, Identity(), NORM2)                 # shapes disagree
    with pytest.raises(ValueError):
        Tent(np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0]]),
             0.0, Identity(), NORM2)                 # flat tent


def test_range_closure_under_random_trees():
    ball = Ball(np.zeros(2), 1.0, Norm(1.0))
    for seed in (0, 1, 2):
        m = random_nonexpansive(GeneratorConfig(), ball, seed=seed)
        pts = ball.sample_many(np.random.default_rng(seed + 10), 10_000)
        assert ball.contains_all(m._apply(pts), tol=1e-9).all()


def test_random_nonexpansive_contract():
    a = random_nonexpansive(GeneratorConfig(), BOX1, seed=7)
    b = random_nonexpansive(GeneratorConfig(), BOX1, seed=7)
    xs = BOX1.sample_many(np.random.default_rng(1), 50)
    assert np.array_equal(a._apply(xs), b._apply(xs))
    for seed in range(8):
        m = random_nonexpansive(GeneratorConfig(), BOX1, seed=seed)
        assert m.certificate <= 1.0
    leaf = random_nonexpansive(GeneratorConfig(max_depth=0), BOX1, seed=3)
    assert type(leaf) in (Identity, Constant, AffineContraction)
    with pytest.raises(ValueError):
        GeneratorConfig(max_depth=-1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_certificate_soundness_property(seed):
    m = random_nonexpansive(GeneratorConfig(), BOX1, seed=seed)
    est = lip_global_est(m, BOX1, NORM2, pairs=1000, seed=seed)
    assert est.lower_bound <= m.certificate + CERT_SLACK


def test_estimator_rejects_coincident_samples():
    # below float resolution every probe rounds onto the centre itself
    with pytest.raises(EstimationError):
        lip_local_profile(Identity(), [0.5], [1e-300], BOX01, NORM2,
                          samples=16)
