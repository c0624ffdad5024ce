"""Collapse maps, direction fields, isometric bumps and their witnesses."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nelab
from nelab.errors import DomainError, GeometryError, ParameterError
from nelab.maps import (Constant, ConvexCombo, Identity, Tent, lip_global_est,
                        sup_dist_est)
from nelab.perturb import (Closing, DirectionField, bump_perturb,
                           bump_witnesses, direction_field, flat_collapse)
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
    ys = bump_witnesses(g, BOX01)
    # delta = eps (s/2) / (3 (1+diam)), beta = (1-lam) s / (96 (1+diam))
    # and bound = (1+lam)/2, by hand
    closing = Closing(BOX01.diameter)
    assert g.delta == closing.depth(0.5, 0.5) == pytest.approx(0.125 / 6.0,
                                                               abs=1e-18)
    beta, bound = closing.bump(0.5, 0.5)
    assert beta == pytest.approx(0.25 / 192.0, abs=1e-18)
    assert bound == pytest.approx(0.75, abs=1e-15)
    assert np.array_equal(g.centers, NET3.points)
    assert ys.shape == NET3.points.shape
    offset = 0.5 * 0.5 / (24.0 * 2.0)
    assert closing.offset(g.delta) == pytest.approx(offset, abs=1e-18)
    for x, y in zip(g.centers, ys):
        assert float(NORM2.of(y - x)) == pytest.approx(offset, abs=1e-15)
    # the probes sit inside the isometry ball, so g itself scores exactly 1
    for x, y in zip(g.centers, ys):
        q = float(NORM2.of(g(y) - g(x))) / float(NORM2.of(y - x))
        assert q == pytest.approx(1.0, rel=1e-12)


def test_bump_witnesses_validation():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    with pytest.raises(ParameterError):
        bump_witnesses(Identity(), BOX01)
    closing = Closing(BOX01.diameter)
    for lam in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ParameterError):
            closing.bump(lam, g.collapse.net.s)
    with pytest.raises(ParameterError):
        Closing(-1.0)
    assert bump_witnesses(g, BOX01).shape == g.centers.shape


def test_witness_quotients_survive_nearby_maps():
    g = bump_perturb(Identity(), NET3, 0.5, BOX01)
    lam = 0.5
    ys = bump_witnesses(g, BOX01)
    beta, bound = Closing(BOX01.diameter).bump(lam, NET3.s)
    # drag g towards a constant by exactly the allowed sup-distance beta*eps
    tau = beta * 0.5 / 1.0        # sup distance tau * diam = beta * eps
    h = ConvexCombo(tau, g, Constant([0.3]))
    for x, y in zip(g.centers, ys):
        q = float(NORM2.of(h(y) - h(x))) / float(NORM2.of(y - x))
        assert q > lam
        assert q >= bound - 1e-9


@settings(max_examples=20, deadline=None)
@given(
    lam=st.floats(0.1, 0.9),
    eps=st.floats(0.1, 0.9),
    u=st.floats(0.0, 1.0),
)
def test_witness_bound_property_two_point_net(lam, eps, u):
    net = Net(np.array([[0.1, 0.1], [0.8, 0.9]]), 0.5, NORM2)
    g = bump_perturb(Identity(), net, eps, BOX2)
    ys = bump_witnesses(g, BOX2)
    beta, bound = Closing(BOX2.diameter).bump(lam, net.s)
    tau = u * beta * eps / BOX2.diameter
    h = ConvexCombo(tau, g, Constant([0.4, 0.6]))
    for x, y in zip(g.centers, ys):
        q = float(NORM2.of(h(y) - h(x))) / float(NORM2.of(y - x))
        assert q > lam and q >= bound - 1e-9


# the closing literals of the argument, and the two closed-form reference
# checks that must stay independent of `Closing`: (module, function, value)
CLOSING_LITERALS = (12.0, 24.0, 48.0, 96.0, 97.0)
CLOSED_FORM_REFERENCES = {("harness", "suite_ladder", 97.0),
                          ("harness", "suite_porosity", 48.0)}


def _closing_literals(tree: ast.Module):
    """(function, value, line) of each closing literal in a module: a float
    in CLOSING_LITERALS, or the 3.0 of a product 3.0 * (1.0 + ...)."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "Closing":
                continue
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else func
            if (isinstance(child, ast.Constant)
                    and type(child.value) is float
                    and child.value in CLOSING_LITERALS):
                yield func, child.value, child.lineno
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult)
                    and isinstance(child.left, ast.Constant)
                    and child.left.value == 3.0
                    and isinstance(child.right, ast.BinOp)
                    and isinstance(child.right.op, ast.Add)
                    and isinstance(child.right.left, ast.Constant)
                    and child.right.left.value == 1.0):
                yield func, 3.0, child.lineno
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_closing_constants_live_only_in_closing():
    # beta, the bound, the margin, alpha, delta and the offsets are derived
    # in `Closing` alone; a restated constant elsewhere could drift from it
    src = Path(nelab.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func, value, line in _closing_literals(tree):
            if (path.stem, func, value) not in CLOSED_FORM_REFERENCES:
                stray.append(f"{path.name}:{line} {value} in {func}")
    assert not stray, stray
    # the guard sees the literals it exempts, and those inside Closing
    tree = ast.parse((src / "harness.py").read_text())
    assert {(f, v) for f, v, _ in _closing_literals(tree)} == {
        (f, v) for _, f, v in CLOSED_FORM_REFERENCES}
    closing = next(node for node in ast.walk(ast.parse(
        (src / "perturb.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "Closing")
    inside = {v for _, v, _ in _closing_literals(ast.Module(closing.body, []))}
    assert inside == {3.0, 48.0, 96.0, 97.0}
