"""Tests for the tool design space, kinematics, and mesh export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from toolsmith import geometry
from toolsmith.envs import default_config
from toolsmith.geometry import (
    DesignBounds,
    DesignVector,
    RatioDesignSpace,
    ToolGeometry,
    build_tool,
    clamp_design,
    export_stl,
)

from _stl import is_watertight, read_stl, signed_volume


def fk_reference(lengths, angles):
    """High-precision forward kinematics oracle (50 decimal digits)."""
    old = mp.dps
    mp.dps = 50
    try:
        pts = [(mpf(0), mpf(0))]
        heading = mpf(0)
        for i in range(3):
            if i > 0:
                heading += mpf(float(angles[i - 1]))
            x = pts[-1][0] + mpf(float(lengths[i])) * mp.cos(heading)
            y = pts[-1][1] + mpf(float(lengths[i])) * mp.sin(heading)
            pts.append((x, y))
        return [(float(x), float(y)) for x, y in pts]
    finally:
        mp.dps = old


def unit_bounds():
    return DesignBounds(
        length_min=(1.0, 1.0, 1.0),
        length_max=(3.0, 3.0, 3.0),
        angle_min=(-math.pi / 2, -math.pi / 2),
        angle_max=(math.pi / 2, math.pi / 2),
    )


def test_straight_chain_tip():
    """Zero angles lay the links along +x with tip at the total length."""
    d = DesignVector(lengths=(2.0, 1.5, 0.5), angles=(0.0, 0.0))
    tip = build_tool(d).segments[-1, 1]
    assert np.allclose(tip, [4.0, 0.0], atol=1e-12)


def test_right_angle_chain_tip():
    """Unit links with two right-angle joints end at (0, 1)."""
    d = DesignVector(lengths=(1.0, 1.0, 1.0), angles=(math.pi / 2, math.pi / 2))
    tip = build_tool(d).segments[-1, 1]
    assert np.allclose(tip, [0.0, 1.0], atol=1e-12)


def test_forward_kinematics_matches_reference():
    """Chain joints agree with the high-precision oracle on random designs."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        lengths = tuple(rng.uniform(0.2, 5.0, size=3))
        angles = tuple(rng.uniform(-math.pi, math.pi, size=2))
        d = DesignVector(lengths=lengths, angles=angles)
        segs = build_tool(d).segments
        want = np.array(fk_reference(lengths, angles))
        assert np.allclose(segs[:, 0], want[:-1], atol=1e-12)
        assert np.allclose(segs[:, 1], want[1:], atol=1e-12)


def test_rotation_equivariance():
    """Building with a base heading equals building at zero and rotating after."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = DesignVector(lengths=tuple(rng.uniform(0.5, 3.0, size=3)),
                         angles=tuple(rng.uniform(-1.5, 1.5, size=2)))
        phi = float(rng.uniform(-math.pi, math.pi))
        direct = build_tool(d, base_angle=phi)
        c, s = math.cos(phi), math.sin(phi)
        rotated = build_tool(d).segments @ np.array([[c, s], [-s, c]])
        assert np.allclose(direct.segments, rotated, atol=1e-12)


def test_clamp_is_idempotent():
    """Clamping twice equals clamping once for arbitrary raw vectors."""
    bounds = unit_bounds()
    rng = np.random.default_rng(3)
    for _ in range(50):
        raw = DesignVector.from_array(rng.uniform(-10, 10, size=5))
        once = clamp_design(raw, bounds)
        twice = clamp_design(once, bounds)
        assert once == twice
        arr = once.as_array()
        assert np.all(arr >= bounds.low() - 1e-15)
        assert np.all(arr <= bounds.high() + 1e-15)


def test_clamp_preserves_interior_points():
    """In-bounds designs pass through clamping unchanged."""
    bounds = unit_bounds()
    d = DesignVector(lengths=(2.0, 1.2, 2.9), angles=(0.3, -1.0))
    assert clamp_design(d, bounds) == d


def test_ratio_space_bounds_and_realize():
    """Ratio box endpoints land exactly on the physical bounds."""
    space = RatioDesignSpace(length_init=(2.0, 2.0, 2.0),
                             length_ratio=(-0.5, 0.5),
                             angle_ratio=(-1.0, 1.0),
                             angle_scale=math.pi / 2)
    b = space.bounds
    assert b.length_min == (1.0, 1.0, 1.0)
    assert b.length_max == (3.0, 3.0, 3.0)
    assert np.allclose(b.angle_min, [-math.pi / 2] * 2)
    assert np.allclose(b.angle_max, [math.pi / 2] * 2)
    assert b.d_max == pytest.approx(9.0)

    low = space.realize(np.array([-0.5, -0.5, -0.5, -1.0, -1.0]))
    assert np.allclose(low.as_array(), b.low())
    # out-of-box ratios clamp to the same physical corner
    lower = space.realize(np.array([-4.0, -4.0, -4.0, -9.0, -9.0]))
    assert np.allclose(lower.as_array(), b.low())
    mid = space.realize(np.zeros(5))
    assert mid.lengths == (2.0, 2.0, 2.0)
    assert mid.angles == (0.0, 0.0)


TASK_SPACES = st.sampled_from(("push", "catch", "scoop")).map(
    lambda task: default_config(task).design_space())


@st.composite
def in_box_actions(draw):
    """A task's design space and a ratio action inside its box."""
    space = draw(TASK_SPACES)
    (lo, hi), (alo, ahi) = space.length_ratio, space.angle_ratio
    u = [draw(st.floats(lo, hi)) for _ in range(3)] \
        + [draw(st.floats(alo, ahi)) for _ in range(2)]
    return space, np.array(u)


@settings(max_examples=300)
@given(in_box_actions())
def test_ratio_of_inverts_realize(case):
    """ratio_of recovers the ratio action for in-box actions of every task."""
    space, u = case
    assert np.allclose(space.ratio_of(space.realize(u)), u, rtol=0, atol=1e-12)


@settings(max_examples=300)
@given(TASK_SPACES, st.lists(st.floats(-1e100, 1e100), min_size=5,
                             max_size=5))
def test_realize_of_its_own_ratio_is_a_fixed_point(space, u):
    """Any finite action (kept clear of float overflow) realizes to a design
    that realizes back to itself through ratio_of, up to rounding: the
    length ratio l / init - 1 cancels digits, so the round trip may move the
    last bits, never further."""
    design = space.realize(u).as_array()
    again = space.realize(space.ratio_of(DesignVector.from_array(design)))
    assert np.allclose(again.as_array(), design, rtol=0, atol=1e-14)
    bounds = space.bounds
    assert np.all(again.as_array() >= bounds.low())
    assert np.all(again.as_array() <= bounds.high())


def test_material_length():
    """The material budget d_max sums the length upper bounds."""
    assert unit_bounds().d_max == pytest.approx(9.0)


def test_stl_size_single_link():
    """One link exports as 12 triangles: 84 + 12 * 50 = 684 bytes."""
    seg = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    geom = ToolGeometry(segments=seg, radius=0.1)
    data = export_stl(geom, thickness=0.5)
    assert len(data) == 684
    normals, tris, attrs = read_stl(data)
    assert len(tris) == 12
    assert all(a == 0 for a in attrs)


def test_stl_size_three_links():
    """A full tool exports as 36 triangles: 84 + 36 * 50 = 1884 bytes."""
    d = DesignVector(lengths=(2.0, 1.0, 1.0), angles=(0.5, -0.3))
    data = export_stl(build_tool(d), thickness=0.5)
    assert len(data) == 1884


def test_stl_watertight_and_oriented():
    """Every edge is shared by exactly two consistently wound triangles."""
    rng = np.random.default_rng(13)
    for _ in range(5):
        d = DesignVector(lengths=tuple(rng.uniform(0.5, 3.0, size=3)),
                         angles=tuple(rng.uniform(-1.5, 1.5, size=2)))
        _, tris, _ = read_stl(export_stl(build_tool(d), thickness=0.4))
        assert is_watertight(tris)
        assert signed_volume(tris) > 0.0


def test_stl_volume_matches_prisms():
    """Enclosed volume equals the sum of the per-link box volumes."""
    d = DesignVector(lengths=(2.0, 1.5, 1.0), angles=(0.7, -0.4))
    radius, thickness = 0.1, 0.5
    _, tris, _ = read_stl(export_stl(build_tool(d, radius=radius), thickness=thickness))
    want = sum(2.0 * radius * length * thickness for length in d.lengths)
    assert signed_volume(tris) == pytest.approx(want, rel=1e-5)


def test_stl_deterministic_bytes():
    """Exporting the same geometry twice yields identical bytes."""
    d = DesignVector(lengths=(1.1, 2.2, 0.7), angles=(0.25, 0.5))
    geom = build_tool(d)
    assert export_stl(geom, 0.5) == export_stl(geom, 0.5)


def test_stl_rejects_bad_inputs():
    """Degenerate links and non-positive thickness are rejected."""
    geom = ToolGeometry(segments=np.zeros((1, 2, 2)), radius=0.1)
    with pytest.raises(ValueError):
        export_stl(geom, 0.5)
    d = DesignVector(lengths=(1.0, 1.0, 1.0), angles=(0.0, 0.0))
    with pytest.raises(ValueError):
        export_stl(build_tool(d), 0.0)
