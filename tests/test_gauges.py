"""Gauges, companion pairs, concave majorants and scale ladders."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nelab.errors import GaugeError, LadderExhausted, RangeError
from nelab.gauges import (Gauge, GaugePair, Ladder, PiecewiseGauge, PowerGauge,
                          RatioGauge, SqrtRatioGauge, build_pair, gauge_K,
                          ladder, least_concave_majorant, select_j)
from nelab.space import Box, Norm

BOX1 = Box(np.array([-1.0]), np.array([1.0]))
NORM2 = Norm(2.0)

SQRT = PowerGauge(p=0.5)
POW23 = PowerGauge(p=2.0 / 3.0)
SQRT_RATIO = SqrtRatioGauge()
OFFSET = PowerGauge(p=0.7, coeff=1.0, offset=1.0)

ROUNDTRIP_TOL = 1e-10


def test_inverse_hand_values():
    assert SQRT.inverse(0.25) == 0.0625
    assert POW23.inverse(0.25) == pytest.approx(0.125, rel=1e-14)
    assert RatioGauge().inverse(0.2) == pytest.approx(0.25, abs=1e-16)
    assert SQRT_RATIO.inverse(1.0 / 3.0) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(RangeError):
        SQRT.inverse(1.5)
    with pytest.raises(RangeError):
        OFFSET.inverse(0.5)      # below inf = 1


def test_inverse_roundtrip_thousand_points():
    for phi in (SQRT, POW23, SQRT_RATIO, OFFSET, RatioGauge()):
        lo = phi.inf + (phi.sup - phi.inf) * 1e-6
        hi = phi.sup * (1.0 - 1e-9)
        for y in np.geomspace(max(lo, 1e-12), hi, 1000):
            if not (phi.inf < y < phi.sup):
                continue
            t = phi.inverse(float(y))
            assert abs(float(phi.value(t)) - y) <= ROUNDTRIP_TOL


def test_gauge_validation():
    with pytest.raises(GaugeError):
        PowerGauge(p=1.5)
    with pytest.raises(GaugeError):
        PowerGauge(p=0.5, coeff=-1.0)
    SQRT.check()
    SQRT_RATIO.check()
    # kink strictly between grid points so the midpoint test straddles it
    convex = PiecewiseGauge(np.array([0.0, 0.3775, 1.0]), np.array([0.0, 0.2, 1.0]))
    with pytest.raises(GaugeError):
        convex.check()
    falling = PiecewiseGauge(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.4, 0.3]))
    with pytest.raises(GaugeError):
        falling.check()


def test_piecewise_gauge_interp_and_extension():
    g = PiecewiseGauge(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.5]))
    assert g.value(0.25) == 0.5
    assert g.value(-0.5) == -1.0          # first slope continued left
    assert g.value(1.5) == 2.0            # last slope continued right
    assert g.inverse(0.5) == 0.25
    assert g.inverse(1.25) == 0.75
    assert g.eta == 1.0 and g.inf == 0.0
    with pytest.raises(GaugeError):
        PiecewiseGauge(np.array([0.0, 0.0]), np.array([0.0, 1.0]))


def test_gauge_K_hand_values():
    assert abs(gauge_K(SQRT) - 1.0) <= 1e-8
    assert gauge_K(PowerGauge(p=1.0)) == 1.0
    assert gauge_K(PowerGauge(p=1.0, coeff=2.0)) == 0.5


def test_majorant_keeps_concave_data():
    xi = least_concave_majorant([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
    assert np.array_equal(xi.knots_t, [0.0, 0.5, 1.0])
    assert np.array_equal(xi.knots_y, [0.0, 1.0, 0.5])
    assert xi.value(0.25) == 0.5


def test_majorant_drops_dominated_vertex():
    xi = least_concave_majorant([0.0, 0.25, 0.5], [0.0, 0.2, 1.0])
    assert np.array_equal(xi.knots_t, [0.0, 0.5])
    assert np.array_equal(xi.knots_y, [0.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.floats(0.0, 1.0)),
                min_size=3, max_size=24))
def test_majorant_property(points):
    ts = np.array([p[0] / 1000 for p in points])
    ys = np.array([p[1] for p in points])
    if np.unique(ts).size < 2:
        return
    xi = least_concave_majorant(ts, ys)
    assert np.all(np.asarray(xi.value(ts)) >= ys - 1e-12)     # majorises
    assert np.all(np.diff(xi.slopes()) <= 1e-12)              # concave


def test_build_pair_families_satisfy_the_sandwich():
    for phi in (SQRT, POW23, SQRT_RATIO):
        pair = build_pair(phi)
        assert math.log2(pair.K).is_integer() and pair.K >= 1.0
        pair.check()
        ts = np.geomspace(1e-8 / pair.K, (1.0 / pair.K) * (1.0 - 1e-12), 1000)
        prod = np.asarray(phi.value(ts)) * np.asarray(pair.xi.value(ts))
        assert np.all(prod >= ts / pair.K - 1e-13 * ts)
        assert np.all(prod <= pair.K * ts + 1e-13 * ts)
        assert float(pair.xi.value(1e-6)) <= 1e-2


def test_build_pair_sqrt_constant():
    assert build_pair(SQRT).K == 4.0


def test_build_pair_offset_gauge_reduces_to_linear_companion():
    pair = build_pair(OFFSET)
    assert pair.K == 4.0
    ts = np.linspace(1e-6, 0.2, 50)
    assert np.array_equal(np.asarray(pair.xi.value(ts)), ts)


def test_build_pair_rejects_linear_growth():
    with pytest.raises(GaugeError):
        build_pair(PowerGauge(p=1.0))
    with pytest.raises(GaugeError):
        build_pair(RatioGauge())


def test_ladder_sqrt_closed_form():
    lad = ladder(SQRT, BOX1, NORM2, rungs=20)
    assert len(lad) == 20
    for j in range(1, 21):
        assert lad.rung(j) == 0.25 * 2.0 ** (1 - j)
        assert lad.inv_ratio(j) == lad.rung(j)       # phi^{-1}(s)/s = s here
    for j in range(1, 20):
        assert abs(lad.inv_ratio(j + 1) - 0.5 * lad.inv_ratio(j)) \
            <= 1e-10 * lad.inv_ratio(j)


def test_ladder_power23_quarters():
    lad = ladder(POW23, BOX1, NORM2, rungs=10)
    for j in range(1, 10):
        assert lad.rung(j + 1) / lad.rung(j) == pytest.approx(0.25, rel=1e-12)
        assert lad.inv_ratio(j) == pytest.approx(math.sqrt(lad.rung(j)), rel=1e-10)


def test_ladder_sqrt_ratio_bisected():
    lad = ladder(SQRT_RATIO, BOX1, NORM2, rungs=12)
    assert lad.rung(1) == 0.125           # 0.25 * sup phi = 0.25 * 0.5
    for j in range(1, 12):
        assert abs(lad.inv_ratio(j + 1) - 0.5 * lad.inv_ratio(j)) \
            <= 1e-9 * lad.inv_ratio(j)


def test_ladder_rung_bounds_and_extension():
    lad = ladder(SQRT, BOX1, NORM2, rungs=5)
    with pytest.raises(RangeError):
        lad.rung(0)
    with pytest.raises(RangeError):
        lad.rung(6)
    longer = ladder(SQRT, BOX1, NORM2, rungs=8)
    assert longer.s[:5] == lad.s and longer.rung(8) == 0.25 * 2.0 ** -7
    with pytest.raises(ValueError):
        ladder(SQRT, BOX1, NORM2, rungs=0)


def test_select_j_hand_traces():
    lad = ladder(SQRT, BOX1, NORM2, rungs=20)
    assert select_j(lad, 0.2).j == 1
    assert select_j(lad, 0.25).j == 1
    assert select_j(lad, 0.1).j == 2
    assert select_j(lad, 0.05).j == 3
    assert select_j(lad, 0.1, k=2).j == 2
    sel = select_j(lad, 0.1)
    assert sel.s_j == 0.125
    assert sel.phi_inv_s_j == 0.125 ** 2
    assert sel.xi_inv_bound is None


def test_select_j_bracket_is_exclusive_below():
    lad = ladder(SQRT, BOX1, NORM2, rungs=20)
    # eps exactly at inv_ratio(j) belongs to rung j, just below to rung j
    assert select_j(lad, lad.inv_ratio(2)).j == 2
    assert select_j(lad, lad.inv_ratio(2) * (1 - 1e-12)).j == 2
    assert select_j(lad, lad.inv_ratio(2) * (1 + 1e-12)).j == 1


def test_select_j_errors():
    lad = ladder(SQRT, BOX1, NORM2, rungs=20)
    with pytest.raises(RangeError):
        select_j(lad, 0.5)
    with pytest.raises(RangeError):
        select_j(lad, 0.0)
    with pytest.raises(RangeError):
        select_j(lad, 0.2, k=2)
    with pytest.raises(RangeError):
        select_j(lad, 0.1, k=0)
    with pytest.raises(LadderExhausted):
        select_j(lad, 1e-9)


def test_select_j_carries_companion_bound():
    lad = ladder(SQRT, BOX1, NORM2, rungs=20)
    pair = build_pair(SQRT)
    sel = select_j(lad, 0.1, pair=pair)
    assert sel.xi_inv_bound == pair.xi.inverse(0.1 / pair.K)
    assert sel.xi_inv_bound > 0.0
