"""Checks that can fail: a deliberately broken construction, patched in
memory, must turn the check that guards it into failed cases."""
import math

import numpy as np

import nelab.harness as harness
import nelab.maps as maps
import nelab.porosity as porosity
import nelab.space as space
from nelab.harness import ExperimentConfig, run_porosity, run_verify
from nelab.maps import Tent
from nelab.perturb import DirectionField
from nelab.space import Norm, body_from_desc, nearest
from test_space import (cell_boundary_cases, net_nearest_violations,
                        nnls_contains, simplex_rows)


def test_zero_slope_estimates_break_the_cover_consistency(monkeypatch):
    # with every local slope read as 0, Identity and the steep contraction
    # look low-slope: half of the 4 maps x 12 grid points disagree with
    # their exact slope; and every hole probe looks like a member of the
    # low-slope set, so no hole lies outside it
    profile = maps.lip_local_profile

    def flat(*args, **kwargs):
        return 0.0 * profile(*args, **kwargs)

    for module in (maps, porosity, harness):
        monkeypatch.setattr(module, "lip_local_profile", flat)
    rep = run_verify(ExperimentConfig(suite="holes"))
    cases = {c.case_id: c for c in rep.cases}
    case = cases["holes/cover-consistency"]
    assert not case.passed
    assert case.measured == {"checked": 48, "consistent": 24}
    holes = [c for i, c in cases.items() if i.startswith("holes/hole-")]
    assert holes
    assert all(not c.passed and c.measured["hole_outside_set"] is False
               for c in holes)


def test_swapped_anchors_break_the_branch_rule(monkeypatch):
    # a field that aims at w from far away and at v near it no longer
    # brings z s/3 closer to the anchor the rule picks
    call = DirectionField.__call__

    def swapped(self, z):
        return call(DirectionField(self.w, self.v, self.s, self.norm), z)

    monkeypatch.setattr(DirectionField, "__call__", swapped)
    rep = run_verify(ExperimentConfig(suite="field", trials=30))
    assert all(not c.measured["branch_exact"] for c in rep.cases)


def _failed(rep) -> set:
    return {c.case_id for c in rep.failures}


def test_a_lost_obstruction_breaks_the_exact_hole_sizes(monkeypatch):
    # each set forgets the obstruction nearest the window's right end: the
    # zero set reports the whole window as a hole and the reciprocals a
    # hole that reaches past 1/101
    for cls in (porosity.FinitePointSet, porosity.ReciprocalSet,
                porosity.IntervalUnionSet):
        def dropped(self, a, b, obstructions=cls.obstructions):
            return obstructions(self, a, b)[:-1]
        monkeypatch.setattr(cls, "obstructions", dropped)
    rep = run_verify(ExperimentConfig(suite="porosity"))
    assert {"porosity/reciprocal-gamma", "porosity/zero-gamma"} <= _failed(rep)


def test_half_radius_witnesses_fail_the_hole_recheck(monkeypatch):
    # a witness whose ball is half the radius the constant asks for is
    # empty but does not certify the constant
    verdict = porosity.PorosityVerdict

    def halved(status, kind, constant, q, centers, eps, radii):
        return verdict(status, kind, constant, q, centers, eps, radii / 2.0)

    monkeypatch.setattr(porosity, "PorosityVerdict", halved)
    rep = run_porosity(ExperimentConfig(target="zero"))
    assert {"porosity/upper", "porosity/lower"} <= _failed(rep)
    rep = run_verify(ExperimentConfig(suite="porosity"))
    assert "porosity/witness-holes-empty" in _failed(rep)


def test_edge_probes_fail_the_bump_witnesses(monkeypatch):
    # each probe pushed from distance delta/4 to delta, the tent's edge,
    # leaves the isometry ball B(x, delta/2): there g(y) is g(x) up to
    # rounding, so every quotient falls far below the bound
    witnesses = harness.bump_witnesses

    def at_edge(g, body):
        xs = g.centers
        return xs + 4.0 * (witnesses(g, body) - xs)

    monkeypatch.setattr(harness, "bump_witnesses", at_edge)
    rep = run_verify(ExperimentConfig(suite="witness", trials=10))
    assert len(rep.cases) == 30 and not rep.passed
    assert len(rep.failures) == len(rep.cases)


def test_a_short_tent_breaks_the_bump_isometry(monkeypatch):
    # an inner branch of height 0.999 t instead of t no longer moves the
    # points of B(c, rho) isometrically towards c
    apply = Tent._apply

    def short(self, pts):
        out = apply(self, pts)
        idx, d = nearest(self.centers, pts, self.collapse.net.norm)
        inner = d < self.rho
        out[inner] -= 0.001 * d[inner, None] * self.directions[idx[inner]]
        return out

    monkeypatch.setattr(Tent, "_apply", short)
    rep = run_verify(ExperimentConfig(suite="bump"))
    assert len(rep.failures) == len(rep.cases) == 20


def test_a_wide_tent_apex_breaks_the_bump_isometry(monkeypatch):
    # a tent that climbs to 0.6 delta and then drops to height 0.4 delta
    # is not an isometry on B(c, rho) = B(c, 0.6 delta)
    monkeypatch.setattr(Tent, "rho", property(lambda self: 0.6 * self.delta))
    rep = run_verify(ExperimentConfig(suite="bump"))
    assert len(rep.failures) == 17
    assert all(c.measured["isometry_residual"] > c.bounds["isometry_tol"]
               for c in rep.failures)


def test_a_lost_facet_breaks_the_row_reference():
    # a simplex that forgets one facet takes that facet's centre, pushed
    # 1e-9 outward, for a member, while the NNLS reference does not
    for dim in (2, 3):
        hull = body_from_desc("simplex", dim, Norm(2.0))
        pts = np.vstack(simplex_rows(hull.vertices))
        assert len(hull.facets) == dim + 1
        for tol in (1e-15, 1e-12):
            ref = nnls_contains(hull.vertices, pts, tol)
            assert hull.contains_all(pts, tol).tolist() == ref
            for i in range(dim + 1):
                lost = body_from_desc("simplex", dim, Norm(2.0))
                object.__setattr__(lost, "facets",
                                   np.delete(hull.facets, i, axis=0))
                assert lost.contains_all(pts, tol).tolist() != ref, (dim, i)


def test_a_cell_index_without_its_margin_misses_rows(monkeypatch):
    # with cells and reach taken exactly, a row looked up across a cell
    # boundary lands in a cell that the ball around it does not meet
    monkeypatch.setattr(space, "GRID_MARGIN", 0.0)
    missed = 0
    for dim in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            norm = Norm(p)
            missed += sum(net_nearest_violations(net, row[None, :])
                          for net, row in cell_boundary_cases(dim, norm))
    assert missed > 0


def test_a_cell_index_for_half_the_reach_misses_rows(monkeypatch):
    # an index that records only the balls of radius s/4 reports rows
    # between s/4 and s/2 as beyond reach
    build = space._CellIndex.__init__

    def short(self, centers, radius, norm):
        build(self, centers, 0.5 * radius, norm)

    monkeypatch.setattr(space._CellIndex, "__init__", short)
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3):
        for p in (1.0, 2.0, 3.0, math.inf):
            box = space.Box(-np.ones(dim), np.ones(dim), Norm(p))
            net = space.greedy_net(box, 0.3, space.grid_candidates(box, 9))
            queries = box.sample_many(rng, 500)
            assert net_nearest_violations(net, queries) > 0
