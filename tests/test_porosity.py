"""Hole sizes, porosity verdicts, low-slope sets and scale-ladder witnesses."""
import math

import numpy as np
import pytest

from nelab.errors import ParameterError
from nelab.gauges import PowerGauge, build_pair, ladder
from nelab.maps import Constant, ConvexCombo, Identity, random_nonexpansive, GeneratorConfig
from nelab.perturb import FlatSpec, flat_collapse
from nelab.porosity import (FinitePointSet, HoleWitness, IntervalUnionSet,
                            PorosityVerdict, ReciprocalSet,
                            gamma_est, ladder_witness, low_slope_alpha,
                            low_slope_member, lower_porous_at, upper_porous_at)
from nelab.space import Box, Norm, greedy_net, grid_candidates

NORM2 = Norm(2.0)
BOX1 = Box(np.array([-1.0]), np.array([1.0]))
BOX01 = Box(np.array([0.0]), np.array([1.0]))
IDENT = PowerGauge(p=1.0)
SQRT = PowerGauge(p=0.5)

REC = ReciprocalSet.default()
ZERO = FinitePointSet(np.array([[0.0]]), BOX1, NORM2)
EMPTY = FinitePointSet(np.empty((0, 1)), BOX1, NORM2)
CANTOR3 = IntervalUnionSet.cantor(3)

# largest hole of {1/n} in (-0.01, 0.01): half the gap from 1/101 to the
# window edge (the internal gap 1/101 - 1/102 is smaller)
REC_GAMMA = (0.01 - 1.0 / 101.0) / 2.0


def test_reciprocal_membership():
    assert REC.contains([1.0 / 7.0])
    assert REC.contains([-1.0 / 3.0])
    assert not REC.contains([0.0])
    assert not REC.contains([0.15])
    assert not REC.contains([1.5])


def test_reciprocal_ball_intersection_is_sharp():
    # an interval pinched between 1/101 and the window edge is certified empty
    assert not REC.intersects_ball([0.00995049], 4.4e-5)
    assert REC.intersects_ball([0.00995049], 5.1e-5)
    assert REC.intersects_ball([0.0095], 4.0e-4)


def test_exact_gamma_hand_values():
    assert REC.exact_gamma([0.0], 0.01) == pytest.approx(REC_GAMMA, rel=1e-12)
    assert REC.exact_gamma([0.5], 0.01) == pytest.approx(0.005, rel=1e-12)
    assert REC.exact_gamma([0.3], 0.005) == 0.005        # window misses the set
    assert ZERO.exact_gamma([0.0], 0.3) == 0.15
    assert EMPTY.exact_gamma([0.0], 0.25) == 0.25
    assert CANTOR3.exact_gamma([0.5], 0.5) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert CANTOR3.exact_gamma([0.5], 0.05) == 0.05      # inside the middle gap
    full = IntervalUnionSet(np.array([[-1.0, 1.0]]), BOX1, NORM2)
    assert full.exact_gamma([0.3], 0.2) is None


def test_gamma_est_tracks_the_exact_values():
    est = gamma_est([0.0], 0.3, ZERO, seed=0)
    assert est == pytest.approx(0.15, rel=0.05)
    assert est <= 0.15 * (1.0 + 1e-12)
    assert gamma_est([0.0], 0.25, EMPTY, seed=0) == 0.25
    est = gamma_est([0.5], 0.5, CANTOR3, seed=0)
    assert 0.99 * (1.0 / 6.0) <= est <= (1.0 / 6.0) * (1.0 + 1e-12)
    full = IntervalUnionSet(np.array([[-1.0, 1.0]]), BOX1, NORM2)
    assert gamma_est([0.3], 0.2, full, seed=0) is None
    with pytest.raises(ValueError):
        gamma_est([0.0], -0.1, ZERO)


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


def test_upper_porosity_of_the_singleton():
    verdict = upper_porous_at(ZERO, [0.0], IDENT)
    assert verdict.porous and verdict.kind == "upper"
    assert verdict.constant == 0.5
    assert len(verdict.witnesses) == 17          # one hole per probe scale
    assert verdict.verify_holes(ZERO, probes=10_000, seed=99)


def test_upper_porosity_not_detected_at_the_accumulation_point():
    verdict = upper_porous_at(REC, [0.0], IDENT)
    assert not verdict.porous
    assert verdict.status == "not-detected"
    assert verdict.constant is None and verdict.witnesses == ()


def test_lower_porosity_away_from_the_accumulation_point():
    verdict = lower_porous_at(REC, [0.5], IDENT, eps0=1.0 / 6.0)
    assert verdict.porous and verdict.kind == "lower"
    assert verdict.constant == 0.5
    assert verdict.verify_holes(REC, probes=10_000, seed=77)


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


def test_verify_holes_flags_a_bogus_witness():
    bogus = PorosityVerdict(
        "porous-at-point", "upper", 0.5, np.array([0.5]),
        (HoleWitness(0.1, np.array([1.0 / 3.0]), 0.01),))
    assert not bogus.verify_holes(CANTOR3, probes=2000, seed=0)


def test_low_slope_alpha_hand_values():
    assert low_slope_alpha(0.5, 2.0) == pytest.approx(0.5 / 144.0, abs=1e-18)
    assert low_slope_alpha(0.0, 0.0) == pytest.approx(1.0 / 48.0, abs=1e-18)
    with pytest.raises(ParameterError):
        low_slope_alpha(1.0, 2.0)
    with pytest.raises(ParameterError):
        low_slope_alpha(0.5, -1.0)


def test_low_slope_membership_examples():
    lad = ladder(SQRT, BOX01, NORM2, rungs=12)
    const = low_slope_member(Constant([0.4]), [0.5], 0.1, lad, j_max=8,
                             body=BOX01, norm=NORM2)
    assert const.member
    assert all(e == 0.0 for e in const.estimates)
    ident = low_slope_member(Identity(), [0.5], 0.9, lad, j_max=8,
                             body=BOX01, norm=NORM2)
    assert not ident.member
    ramp = ConvexCombo(0.5, Constant([0.0]),
                       flat_collapse(FlatSpec([0.0], 0.5, 1.0), BOX01, NORM2))
    flat_side = low_slope_member(ramp, [0.2], 0.5, lad, j_max=8,
                                 body=BOX01, norm=NORM2)
    assert flat_side.member
    with pytest.raises(ParameterError):
        low_slope_member(Identity(), [0.5], 0.5, lad, l=5, j_max=3,
                         body=BOX01, norm=NORM2)
    with pytest.raises(ParameterError):
        low_slope_member(Identity(), [0.5], 0.5, lad, j_max=8)


def _rung_nets(lad, body, norm, upto):
    cands = grid_candidates(body, 161)
    return [greedy_net(body, norm, lad.rung(j), cands) for j in range(1, upto + 1)]


def test_ladder_witness_constants_and_quotients():
    lam = 0.5
    pair = build_pair(SQRT)
    lad = ladder(SQRT, BOX1, NORM2, rungs=12)
    nets = _rung_nets(lad, BOX1, NORM2, 3)
    f = random_nonexpansive(GeneratorConfig(), BOX1, seed=5)
    rep = ladder_witness(f, 0.1, lam, lad, nets, pair, body=BOX1, norm=NORM2,
                         seed=3)
    assert rep.j == 2
    assert rep.passed
    # diam 2, K 4: beta = 0.25*1.5/(97*2.5*4*3) by the closing inequality
    assert rep.beta == pytest.approx(0.375 / 2910.0, rel=1e-15)
    assert rep.margin == pytest.approx((1 - lam) ** 2 / (97.0 * (3.0 - lam)),
                                       rel=1e-12)
    assert rep.bound == pytest.approx(lam + rep.margin, rel=1e-12)
    z_off = 0.125 ** 2 / (24.0 * 3.0)
    for rec in rep.records:
        assert rec.min_quotient > lam
        assert float(NORM2.of(rec.z - rec.x)) == pytest.approx(z_off, rel=1e-12)


def test_ladder_witness_validation():
    pair = build_pair(SQRT)
    lad = ladder(SQRT, BOX1, NORM2, rungs=12)
    nets = _rung_nets(lad, BOX1, NORM2, 2)
    with pytest.raises(ParameterError):
        ladder_witness(Identity(), 0.1, 0.5, lad, nets, pair)   # body missing
    with pytest.raises(ParameterError):
        ladder_witness(Identity(), 0.1, 1.5, lad, nets, pair,
                       body=BOX1, norm=NORM2)
    with pytest.raises(ParameterError):
        ladder_witness(Identity(), 0.05, 0.5, lad, nets, pair,
                       body=BOX1, norm=NORM2)                    # rung 3 net missing
    bad = [nets[1], nets[1]]
    with pytest.raises(ParameterError):
        ladder_witness(Identity(), 0.2, 0.5, lad, bad, pair,
                       body=BOX1, norm=NORM2)                    # separation off
