"""Tests for the 2D physics core against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _world_oracle import OracleWorld
from toolsmith.envs.base import supported_by_tool
from toolsmith.geometry import build_tool
from toolsmith.physics2d import BAUMGARTE, SLOP, World, command_tools

DT = 1.0 / 60.0


def flat_floor(world: World, y: float = 0.0, r: float = 0.1, span: float = 100.0):
    world.add_static_capsule((-span, y), (span, y), radius=r)


def test_semi_implicit_euler_one_step():
    """One step from rest: velocity updates first, position uses the new velocity."""
    w = World(gravity=(0.0, -9.8), dt=0.1)
    w.add_circle((0.0, 10.0), radius=0.5)
    w.step()
    assert w.vel[0, 1] == pytest.approx(-0.98, abs=1e-12)
    assert w.pos[0, 1] == pytest.approx(9.902, abs=1e-12)


def test_free_fall_matches_closed_form():
    """k steps of free fall follow the exact discrete recurrence."""
    w = World(gravity=(0.0, -9.8), dt=DT)
    w.add_circle((3.0, 50.0), velocity=(2.0, 0.0), radius=0.3)
    k = 40
    for _ in range(k):
        w.step()
    vy = -9.8 * k * DT
    y = 50.0 + (-9.8) * DT * DT * k * (k + 1) / 2.0
    assert w.vel[0, 1] == pytest.approx(vy, abs=1e-9)
    assert w.pos[0, 1] == pytest.approx(y, abs=1e-9)
    assert w.pos[0, 0] == pytest.approx(3.0 + 2.0 * k * DT, abs=1e-9)


def test_linear_damping():
    """Damping scales velocity by (1 - c dt) each step before moving."""
    w = World(gravity=(0.0, 0.0), dt=DT)
    w.add_circle((0.0, 5.0), velocity=(6.0, 0.0), radius=0.5, damping=1.2)
    w.step()
    assert w.vel[0, 0] == pytest.approx(6.0 * (1.0 - 1.2 * DT), abs=1e-12)


def test_ballistic_displacement_closed_form():
    """100 steps at dt=0.01 under g=-10: v=-10 and displacement -5.05."""
    w = World(gravity=(0.0, -10.0), dt=0.01)
    w.add_circle((0.0, 0.0), radius=0.5)
    for _ in range(100):
        w.step()
    assert w.vel[0, 1] == pytest.approx(-10.0, abs=1e-12)
    assert w.pos[0, 1] == pytest.approx(-5.05, abs=1e-12)


def test_zero_gravity_zero_velocity_fixed_point():
    """Nothing moves without gravity or velocity."""
    w = World(gravity=(0.0, 0.0), dt=DT)
    w.add_circle((1.0, 2.0), radius=0.5)
    for _ in range(50):
        w.step()
    assert np.array_equal(w.pos[0], [1.0, 2.0])
    assert np.array_equal(w.vel[0], [0.0, 0.0])


def contact_after_one_step(center, radius):
    """Contacts of a resting circle over a capsule from (-1, 0) to (1, 0)."""
    w = World(gravity=(0.0, 0.0), dt=DT)
    w.add_static_capsule((-1.0, 0.0), (1.0, 0.0), radius=0.1)
    w.add_circle(center, radius=radius)
    w.step()
    return w.contacts


def test_circle_capsule_contact_separated():
    """A gap of 1.4 produces no contact."""
    assert contact_after_one_step((0.0, 2.0), 0.5).a.size == 0


def test_circle_capsule_contact_overlap():
    """Overlap of 0.1 yields an upward normal and that depth."""
    c = contact_after_one_step((0.0, 0.5), 0.5)
    assert c.surfaces == 1 and c.a.tolist() == [0] and c.b.tolist() == [0]
    assert c.normal[0] == pytest.approx((0.0, 1.0))
    assert c.depth[0] == pytest.approx(0.1, abs=1e-12)


def test_ball_settles_in_v_tool():
    """A ball dropped into a V-shaped tool comes to rest within 500 steps."""
    w = World(gravity=(0.0, -9.8), dt=DT, friction=0.5)
    d = np.array([1.5, 0.1, 1.5, 1.0, 1.0])
    # chain bends up at both ends around the middle stub
    w.set_tool(build_tool(d, radius=0.1, base_angle=-0.9), position=(0.0, 0.0))
    w.add_circle((1.2, 2.5), radius=0.3)
    for _ in range(500):
        w.step()
    assert float(np.hypot(*w.vel[0])) < 1e-2


def test_no_tunneling_at_task_speed_cap():
    """A ball at the documented cap (12 u/s) cannot cross a capsule in one dt."""
    rng = np.random.default_rng(23)
    for _ in range(40):
        speed = float(rng.uniform(6.0, 12.0))
        angle = float(rng.uniform(-np.pi, np.pi))
        vel = speed * np.array([np.cos(angle), np.sin(angle)])
        start = -1.2 * vel  # two steps away from the wall at the origin
        w = World(gravity=(0.0, 0.0), dt=DT)
        perp = np.array([-vel[1], vel[0]]) / speed
        w.add_static_capsule(-3 * perp, 3 * perp, radius=0.1)
        w.add_circle(start * DT, velocity=vel, radius=0.25)
        crossed_without_contact = False
        saw_contact = False
        for _ in range(10):
            before = float(w.pos[0] @ vel)
            w.step()
            after = float(w.pos[0] @ vel)
            if w.contacts.surfaces:
                saw_contact = True
            if before < 0.0 < after and not saw_contact:
                crossed_without_contact = True
        assert not crossed_without_contact


def test_kinetic_energy_bounded_by_gravity_work():
    """With restitution 0, a contact step never adds kinetic energy beyond gravity."""
    w = World(gravity=(0.0, -9.8), dt=DT, restitution_surface=0.0, friction=0.2)
    flat_floor(w)
    w.add_circle((0.0, 2.0), radius=0.25)
    m = 1.0 / w.inv_mass[0]
    for _ in range(300):
        ke_before = 0.5 * m * float(w.vel[0] @ w.vel[0])
        y_before = w.pos[0, 1]
        w.step()
        ke_after = 0.5 * m * float(w.vel[0] @ w.vel[0])
        gravity_work = m * 9.8 * (y_before - w.pos[0, 1])
        assert ke_after <= ke_before + max(gravity_work, 0.0) + 1e-6


def contact_depth_oracle(center, radius, a, b, seg_r, samples=20001):
    """Penetration depth via dense sampling of the segment."""
    ts = np.linspace(0.0, 1.0, samples)
    pts = np.asarray(a) + ts[:, None] * (np.asarray(b) - np.asarray(a))
    dist = np.min(np.hypot(*(np.asarray(center) - pts).T))
    return radius + seg_r - dist


def test_contact_depth_matches_dense_sampling():
    """Detected circle-capsule depth agrees with a brute-force distance scan."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = rng.uniform(-3, 3, size=2)
        b = rng.uniform(-3, 3, size=2)
        if np.hypot(*(b - a)) < 0.1:
            continue
        center = rng.uniform(-3, 3, size=2)
        w = World(gravity=(0.0, 0.0), dt=DT)
        w.add_static_capsule(a, b, radius=0.2)
        w.add_circle(center, radius=0.6)
        w.step()
        want = contact_depth_oracle(center, 0.6, a, b, 0.2)
        if want > 1e-4:
            assert w.contacts.surfaces == w.contacts.depth.size == 1
            assert w.contacts.depth[0] == pytest.approx(want, abs=1e-3)
        elif want < -1e-4:
            assert w.contacts.depth.size == 0


def test_resting_penetration_bounded():
    """A settled ball sinks no deeper than the slop plus one step of sag."""
    w = World(gravity=(0.0, -9.8), dt=DT)
    flat_floor(w, y=0.0, r=0.1)
    w.add_circle((0.0, 2.0), radius=0.25)
    for _ in range(600):
        w.step()
    rest_y = 0.0 + 0.1 + 0.25
    depth = rest_y - w.pos[0, 1]
    bound = SLOP + 9.8 * DT * DT / BAUMGARTE
    assert depth <= bound + 1e-6
    assert abs(w.vel[0, 1]) < 1e-6


def test_restitution_bounce_fraction():
    """Rebound speed is the restitution fraction of impact speed."""
    for e in (0.0, 0.5):
        w = World(gravity=(0.0, -9.8), dt=DT, restitution_surface=e)
        flat_floor(w)
        w.add_circle((0.0, 4.0), radius=0.25)
        v_before = None
        for _ in range(600):
            prev = w.vel[0, 1]
            w.step()
            if prev < -1.0 and w.vel[0, 1] > 0.0:
                v_before = prev
                break
        if e == 0.0:
            assert v_before is None
        else:
            assert v_before is not None
            impact = v_before - 9.8 * DT
            assert w.vel[0, 1] == pytest.approx(-e * impact, rel=0.02)


def test_no_bounce_below_threshold():
    """Slow impacts are absorbed even with restitution enabled."""
    w = World(gravity=(0.0, -9.8), dt=DT, restitution_surface=0.8)
    flat_floor(w)
    drop = 0.35 + 0.04  # rest height plus a shallow gap, impact under 1 m/s
    w.add_circle((0.0, drop), radius=0.25)
    for _ in range(120):
        w.step()
    assert abs(w.vel[0, 1]) < 0.05


def test_friction_sliding_distance():
    """A sliding ball stops after roughly v^2 / (2 mu g)."""
    mu, v0 = 0.5, 4.0
    w = World(gravity=(0.0, -9.8), dt=DT, friction=mu)
    flat_floor(w)
    w.add_circle((0.0, 0.35), velocity=(v0, 0.0), radius=0.25)
    for _ in range(300):
        w.step()
    assert abs(w.vel[0, 0]) < 1e-3
    want = v0 * v0 / (2.0 * mu * 9.8)
    assert w.pos[0, 0] == pytest.approx(want, rel=0.05)


def test_friction_clamped_by_normal_impulse():
    """Tangential impulse magnitude never exceeds mu times the normal impulse."""
    w = World(gravity=(0.0, -9.8), dt=DT, friction=0.4)
    flat_floor(w)
    w.add_circle((0.0, 0.3), velocity=(5.0, 0.0), radius=0.25)
    for _ in range(60):
        w.step()
        c = w.contacts
        if c.surfaces:
            assert np.all(np.abs(c.impulse_t) <= 0.4 * c.impulse + 1e-12)
        assert np.all(c.impulse >= -1e-12)


def test_circle_circle_momentum_and_restitution():
    """Equal-mass head-on collision conserves momentum and scales closing speed."""
    w = World(gravity=(0.0, 0.0), dt=DT, restitution_circle=0.1, friction=0.0)
    w.add_circle((-1.0, 0.0), velocity=(3.0, 0.0), radius=0.5)
    w.add_circle((1.0, 0.0), velocity=(-3.0, 0.0), radius=0.5)
    mass = math.pi * 0.25
    p0 = mass * (w.vel[0] + w.vel[1])
    closing0 = w.vel[0, 0] - w.vel[1, 0]
    for _ in range(30):
        w.step()
    p1 = mass * (w.vel[0] + w.vel[1])
    assert np.allclose(p0, p1, atol=1e-9)
    closing1 = w.vel[0, 0] - w.vel[1, 0]
    assert closing1 == pytest.approx(-0.1 * closing0, rel=0.05)


@st.composite
def overlapping_circles(draw):
    """2-4 circles (radius, density, velocity), each placed so it overlaps
    the one before by at least 30% of their radius sum."""
    n = draw(st.integers(2, 4))
    circles, center, prev_r = [], np.zeros(2), None
    for _ in range(n):
        r = draw(st.floats(0.25, 2.0))
        if prev_r is not None:
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            reach = draw(st.floats(0.1, 0.7)) * (prev_r + r)
            center = center + reach * np.array([math.cos(angle), math.sin(angle)])
        velocity = [draw(st.floats(-3.0, 3.0)) for _ in range(2)]
        circles.append((center, velocity, r, draw(st.floats(0.1, 10.0))))
        prev_r = r
    return circles


@given(overlapping_circles())
def test_circle_contacts_conserve_linear_momentum(circles):
    """With no gravity, damping, tool or statics, contact impulses act in
    equal and opposite pairs, so one step keeps sum(m v).

    Velocity components stay within 3, so a step changes a pair's distance
    by at most 6 * sqrt(2) / 60 < 0.15, less than its overlap of at least
    0.3 * (0.25 + 0.25): every chained pair is still in contact when the
    solver runs. The sums match to rounding only, since
    a body's velocity change is impulse * (1/m) and the per-body scatter
    adds in a different order than the sum below. Each of those is a few
    roundings of at most one ulp of the largest term m|v| (4 sweeps, 3 rows
    per body at most), so the bound is 64 ulps of sum(m |v|) before plus
    after; the largest error seen on 20,000 random scenes was 1.1 ulps."""
    w = World(gravity=(0.0, 0.0), dt=DT)
    for center, velocity, radius, density in circles:
        w.add_circle(center, velocity=velocity, radius=radius, density=density)
    mass = 1.0 / w.inv_mass
    before = mass @ w.vel
    scale = mass @ np.abs(w.vel)
    w.step()
    assert w.contacts.a.size - w.contacts.surfaces >= len(circles) - 1
    scale += mass @ np.abs(w.vel)
    tol = 64 * np.finfo(np.float64).eps * scale
    assert np.all(np.abs(mass @ w.vel - before) <= tol)


def test_energy_bounded_on_settling_pile():
    """A settling pile dissipates energy; positional correction injects at most
    a small bounded amount per step and the pile comes to rest."""
    w = World(gravity=(0.0, -9.8), dt=DT, friction=0.3, restitution_circle=0.1)
    flat_floor(w)
    rng = np.random.default_rng(2)
    for i in range(6):
        w.add_circle((0.3 * rng.standard_normal(), 1.0 + 0.8 * i), radius=0.25)
    def energy():
        m = 1.0 / w.inv_mass
        ke = 0.5 * np.sum(m * np.sum(w.vel ** 2, axis=1))
        pe = 9.8 * np.sum(m * w.pos[:, 1])
        return float(ke + pe), float(ke)
    e0, _ = energy()
    prev = e0
    for _ in range(800):
        w.step()
        cur, ke = energy()
        assert cur <= prev + 0.1  # correction work per step stays small
        prev = cur
    final, ke = energy()
    assert final < e0
    assert ke < 0.02  # residual jitter only: mean speed on the order of 0.1


def make_tool_world():
    w = World(gravity=(0.0, -9.8), dt=DT)
    d = np.array([1.5, 1.0, 1.0, 0.6, 0.6])
    w.set_tool(build_tool(d, radius=0.1), position=(0.0, 1.0), angle=0.0)
    return w


def test_tool_follows_command_exactly():
    """The kinematic tool tracks commanded velocity bit-exactly, contacts or not."""
    w = make_tool_world()
    flat_floor(w)
    w.add_circle((1.8, 1.35), radius=0.25)  # in the tool's path
    w.command_tool((0.5, 0.0))
    expected_x = 0.0
    for _ in range(120):
        w.step()
        expected_x += 0.5 * DT
        assert w.tool_position[0] == expected_x
        assert w.tool_position[1] == 1.0


def test_tool_pushes_circle():
    """A commanded tool transfers motion to a circle in its way."""
    w = make_tool_world()
    flat_floor(w)
    ball = w.add_circle((1.2, 1.35), radius=0.25)
    w.command_tool((1.0, 0.0))
    for _ in range(90):
        w.step()
    assert w.vel[ball, 0] > 0.5
    assert w.pos[ball, 0] > 1.2 + 0.5


def test_rotating_tool_imparts_tangential_velocity():
    """Tool spin moves contact points and drags a touching circle along."""
    w = World(gravity=(0.0, 0.0), dt=DT, friction=1.0)
    d = np.array([2.0, 1.0, 1.0, 0.0, 0.0])
    w.set_tool(build_tool(d, radius=0.1), position=(0.0, 0.0), angle=0.0)
    ball = w.add_circle((1.5, 0.34), radius=0.25)
    w.command_tool((0.0, 0.0), angular_velocity=1.0)
    for _ in range(5):
        w.step()
    # surface point at x=1.5 moves up at about 1.5 units/s
    assert w.vel[ball, 1] > 0.5


def test_determinism_bitwise():
    """Identical scenes stepped identically produce identical state."""
    def run():
        w = World(gravity=(0.0, -9.8), dt=DT, friction=0.4, restitution_circle=0.1)
        flat_floor(w)
        d = np.array([1.0, 1.0, 1.0, 0.4, -0.2])
        w.set_tool(build_tool(d, radius=0.1), position=(-1.0, 1.0), angle=0.2)
        w.command_tool((0.3, 0.1), angular_velocity=-0.1)
        rng = np.random.default_rng(9)
        for i in range(8):
            w.add_circle(rng.uniform(-2, 2, size=2) + (0.0, 2.0), radius=0.2)
        for _ in range(300):
            w.step()
        return w.pos.copy(), w.vel.copy()
    p1, v1 = run()
    p2, v2 = run()
    assert np.array_equal(p1, p2)
    assert np.array_equal(v1, v2)


def test_ball_rests_on_collinear_joint():
    """A ball over the seam of two collinear links settles instead of jittering.

    The seam produces two near-parallel contacts on one circle; the solver
    must split the impulse between them rather than apply it twice.
    """
    w = World()
    tool = build_tool(np.array([2.0, 2.0, 2.0, 0.0, 0.0]),
                      radius=0.1)
    w.set_tool(tool, (0.0, 0.0), angle=0.0)
    w.add_circle((2.0, 2.0), radius=0.5)
    lowest = np.inf
    for _ in range(300):
        w.step()
        lowest = min(lowest, w.pos[0, 1])
    rest_y = 0.6
    assert lowest > rest_y - 0.1
    assert float(np.linalg.norm(w.vel[0])) < 1e-2
    assert w.pos[0, 1] == pytest.approx(rest_y, abs=0.02)


def test_ball_settles_in_capsule_corner():
    """Orthogonal floor and wall contacts stay stable in a corner."""
    w = World()
    w.add_static_capsule((-4.0, 0.0), (4.0, 0.0))
    w.add_static_capsule((0.0, 0.0), (0.0, 4.0))
    w.add_circle((-0.8, 1.5), velocity=(1.0, 0.0), radius=0.4)
    for _ in range(400):
        w.step()
    assert float(np.linalg.norm(w.vel[0])) < 1e-2
    assert w.pos[0, 1] == pytest.approx(0.5, abs=0.02)
    # inelastic stop against the wall face at x = -(0.4 + 0.1)
    assert w.pos[0, 0] == pytest.approx(-0.5, abs=0.02)


# -- batched scenes against the frozen single-scene step ----------------------
#
# A scene set shares one layout (circles, statics, tool presence, world
# constants); each scene has its own circle states, tool and tool pose. A
# "pile" scene packs its circles into the bottom-left corner of a tank, so a
# corner circle touches the floor and the wall (two surface rows) and
# neighbours overlap (circle-circle rows); a "free" scene holds them high
# above everything, contact-free. Damping of 100 per second stops a circle
# dead within one step, and a circle that was moving backwards keeps a
# velocity of -0.0, which a stray "+= 0.0" would turn into 0.0.

TANK = (((0.0, 0.0), (6.0, 0.0)), ((0.0, 0.0), (0.0, 4.0)), ((6.0, 0.0), (6.0, 4.0)))
CONTACT_FIELDS = ("a", "b", "is_tool", "normal", "depth", "scale", "impulse",
                  "impulse_t")


def build_scene(cls, layout, scene):
    w = cls(gravity=layout["gravity"], dt=DT, friction=layout["friction"],
            restitution_circle=0.1, restitution_surface=0.2)
    if layout["tank"]:
        for a, b in TANK:
            w.add_static_capsule(a, b, radius=0.1)
    if layout["tool"]:
        w.set_tool(build_tool(scene["lengths"] + scene["angles"], radius=0.1),
                   scene["tool_pos"], angle=scene["angle"])
        w.command_tool(scene["command"][:2], scene["command"][2])
    for (x, y), v, r, rho, c in zip(scene["pos"], scene["vel"], layout["radii"],
                                    layout["density"], layout["damping"]):
        w.add_circle((x, y), velocity=v, radius=r, density=rho, damping=c)
    return w


def pile_positions(radii, shifts):
    """Circles from the tank's bottom-left corner rightwards, each sunk into
    the floor and overlapping the one before; the first also sinks into the
    wall."""
    pos, x = [], 0.1 + radii[0] - 0.02
    for i, (r, (gap, lift)) in enumerate(zip(radii, shifts)):
        if i:
            x += gap * (radii[i - 1] + r)
        pos.append((x, 0.1 + r - 0.02 + lift))
    return pos


ZERO_OR_SPEED = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)


@st.composite
def scene_sets(draw, tool=st.booleans()):
    n = draw(st.integers(1, 5))
    layout = dict(
        radii=[draw(st.sampled_from([0.25, 0.4, 0.6])) for _ in range(n)],
        density=[draw(st.floats(0.5, 3.0)) for _ in range(n)],
        damping=[draw(st.sampled_from([0.0, 1.2, 100.0])) for _ in range(n)],
        gravity=draw(st.sampled_from([(0.0, 0.0), (0.0, -9.8)])),
        friction=draw(st.sampled_from([0.0, 0.5])),
        tank=draw(st.booleans()),
        tool=draw(tool))
    scenes = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # pile
            shifts = [(draw(st.floats(0.4, 0.95)), draw(st.floats(-0.05, 0.1)))
                      for _ in range(n)]
            pos = pile_positions(layout["radii"], shifts)
            tool_pos = (draw(st.floats(0.3, 3.0)), draw(st.floats(0.2, 1.5)))
        else:  # free
            pos = [(1.0 + 2.0 * i, 30.0) for i in range(n)]
            tool_pos = (3.0, 10.0)
        scenes.append(dict(
            pos=pos, vel=[(draw(ZERO_OR_SPEED), draw(ZERO_OR_SPEED)) for _ in range(n)],
            lengths=tuple(draw(st.floats(0.5, 2.0)) for _ in range(3)),
            angles=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(2)),
            tool_pos=tool_pos, angle=draw(st.floats(-math.pi, math.pi)),
            command=(draw(ZERO_OR_SPEED), draw(ZERO_OR_SPEED), draw(ZERO_OR_SPEED))))
    # each step, a subset of the scenes in some order steps together, as
    # collection regroups the envs it steps
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(range(len(scenes))))
        groups.append(order[:draw(st.integers(1, len(scenes)))])
    return layout, scenes, groups


def scene_rows(contacts, e, n):
    """Scene e's rows of a pass's contacts, whose circle i of scene e is
    e * n + i: a dict of ContactBatch's fields numbered by the scene's own
    circles, surfaces giving how many of its rows pair a circle with a
    surface."""
    m = contacts.surfaces
    cs = np.flatnonzero(contacts.a[:m] // n == e)
    rows = np.concatenate([cs, m + np.flatnonzero(contacts.a[m:] // n == e)])
    scene = {name: getattr(contacts, name)[rows] for name in CONTACT_FIELDS
             if name != "scale"}
    scene.update(surfaces=cs.size, scale=contacts.scale[cs])
    scene["a"] -= e * n
    scene["b"][cs.size:] -= e * n
    return scene


def oracle_rows(contacts):
    """The oracle's per-kind contacts as one row set of ContactBatch's
    fields: circle-surface rows, then circle-circle rows."""
    c = contacts
    kinds = dict(a=(c.cs_circle, c.cc_a), b=(c.cs_surface, c.cc_b),
                 is_tool=(c.cs_is_tool, np.zeros(c.cc_a.size, dtype=bool)),
                 normal=(c.cs_normal, c.cc_normal), depth=(c.cs_depth, c.cc_depth),
                 impulse=(c.cs_impulse, c.cc_impulse),
                 impulse_t=(c.cs_impulse_t, c.cc_impulse_t))
    rows = {name: np.concatenate(pair) for name, pair in kinds.items()}
    rows.update(surfaces=c.cs_circle.size, scale=c.cs_scale)
    return rows


def assert_same_scene(w, ref, e):
    """w, scene e of its last pass, is bitwise the oracle ref."""
    assert np.array_equal(w.pos, ref.pos) and np.array_equal(w.vel, ref.vel)
    assert np.array_equal(np.signbit(w.pos), np.signbit(ref.pos))
    assert np.array_equal(np.signbit(w.vel), np.signbit(ref.vel))
    assert np.array_equal(w.tool_position, ref.tool_position)
    assert w.tool_angle == ref.tool_angle
    rows = scene_rows(w.contacts, e, w.num_circles)
    want = oracle_rows(ref.contacts)
    assert rows["surfaces"] == want["surfaces"]
    for name in CONTACT_FIELDS:
        got = rows[name]
        assert got.shape == want[name].shape and np.array_equal(got, want[name]), name
        assert got.dtype == want[name].dtype, name


# one tank of four layouts: a corner circle with two surface rows, overlapping
# circles, tool contacts, and a contact-free scene beside them
COVERING_SET = (
    dict(radii=[0.4, 0.4, 0.25], density=[1.0, 2.0, 1.0], damping=[0.0, 0.0, 100.0],
         gravity=(0.0, -9.8), friction=0.5, tank=True, tool=True),
    [dict(pos=pile_positions([0.4, 0.4, 0.25], [(0.0, 0.0), (0.8, 0.0), (0.9, 0.05)]),
          vel=[(-0.0, 0.0), (1.0, -0.5), (0.0, 0.0)], lengths=(1.0, 1.0, 1.0),
          angles=(0.3, -0.2), tool_pos=(1.8, 0.6), angle=0.1, command=(0.5, 0.0, 0.2)),
     dict(pos=[(1.0, 30.0), (3.0, 30.0), (5.0, 30.0)],
          vel=[(-0.0, 0.0), (0.0, -0.0), (-1.0, 0.0)], lengths=(1.0, 1.0, 1.0),
          angles=(0.0, 0.0), tool_pos=(3.0, 10.0), angle=0.0, command=(0.0, 0.0, 0.0)),
     dict(pos=pile_positions([0.4, 0.4, 0.25], [(0.0, 0.0), (0.6, 0.0), (0.7, 0.0)]),
          vel=[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)], lengths=(2.0, 0.5, 1.5),
          angles=(-0.5, 0.8), tool_pos=(1.5, 1.2), angle=-2.0, command=(-0.3, 0.1, -0.4))],
    [(0, 1, 2), (0, 1, 2)])


@example(COVERING_SET)
@example((COVERING_SET[0], COVERING_SET[1][:1], [(0,)] * 3))
@example((*COVERING_SET[:2], [(0, 1, 2), (2, 0), (1,), (1, 2, 0)]))
@settings(max_examples=150)
@given(scene_sets())
def test_batched_step_equals_the_single_scene_oracle(case):
    """Scenes stepped together through World.step come out bitwise equal to
    each scene stepped alone by the frozen single-scene step: positions,
    velocities (signed zeros too), tool pose and every contact row. Each
    step, a drawn group of the scenes, in a drawn order, steps together."""
    layout, scenes, groups = case
    worlds = [build_scene(World, layout, s) for s in scenes]
    oracles = [build_scene(OracleWorld, layout, s) for s in scenes]
    slot = [0] * len(scenes)  # each world's scene in its last pass
    for group in groups:
        worlds[group[0]].step(*[worlds[i] for i in group[1:]])
        for e, i in enumerate(group):
            oracles[i].step()
            slot[i] = e
        for w, ref, e in zip(worlds, oracles, slot):
            assert_same_scene(w, ref, e)


def oracle_supported(ref):
    """Whether each circle of the oracle's last step touches its tool,
    directly or through a chain of its circle-circle rows."""
    held = set(np.flatnonzero(ref.circles_touching_tool()).tolist())
    pairs = list(zip(ref.contacts.cc_a.tolist(), ref.contacts.cc_b.tolist()))
    grown = True
    while grown:
        grown = False
        for a, b in pairs:
            if (a in held) != (b in held):
                held |= {a, b}
                grown = True
    return [i in held for i in range(ref.num_circles)]


@example(COVERING_SET)
@settings(max_examples=100)
@given(scene_sets(tool=st.just(True)))
def test_supported_by_tool_reads_every_scene_of_a_pass(case):
    """Row e of supported_by_tool over a pass is, for scene e of the group
    that stepped together, the closure of tool contact that the frozen
    oracle gives that scene stepped alone; every world of the pass reads
    the pass's contacts."""
    layout, scenes, groups = case
    worlds = [build_scene(World, layout, s) for s in scenes]
    oracles = [build_scene(OracleWorld, layout, s) for s in scenes]
    for group in groups:
        state = worlds[group[0]].step(*[worlds[i] for i in group[1:]])
        assert all(worlds[i].contacts is state.contacts for i in group)
        held = supported_by_tool(state)
        assert held.shape == (len(group), len(layout["radii"]))
        for e, i in enumerate(group):
            oracles[i].step()
            assert held[e].tolist() == oracle_supported(oracles[i])


def test_covering_set_has_every_row_kind():
    """The example scene set above holds what the batched step must keep
    apart: a contact-free scene, holding a -0.0 velocity, beside scenes with
    contacts, a circle with two surface rows and circle-circle rows."""
    layout, scenes, _ = COVERING_SET
    worlds = [build_scene(World, layout, s) for s in scenes]
    worlds[0].step(*worlds[1:])
    pile, free = (scene_rows(worlds[0].contacts, e, 3) for e in (0, 1))
    assert free["a"].size == 0
    m = pile["surfaces"]
    assert np.any(np.bincount(pile["a"][:m]) >= 2)
    assert pile["a"].size > m and pile["is_tool"].any()
    assert np.any((worlds[1].vel == 0.0) & np.signbit(worlds[1].vel))


def test_per_kind_views_count_the_rows_of_a_pass():
    """cs_circle and cc_a, the per-kind views of a that bench/spans.py
    counts rows by: a contact-free pass reads no rows through them, and on
    the covering set they split a at surfaces, each as long as the oracle's
    rows of its kind over all scenes."""
    free = World(gravity=(0.0, 0.0), dt=DT)
    free.add_circle((0.0, 5.0))
    free.step()
    assert free.contacts.cs_circle.size + free.contacts.cc_a.size == 0
    layout, scenes, _ = COVERING_SET
    worlds = [build_scene(World, layout, s) for s in scenes]
    oracles = [build_scene(OracleWorld, layout, s) for s in scenes]
    c = worlds[0].step(*worlds[1:]).contacts
    for ref in oracles:
        ref.step()
    assert c.cs_circle.size + c.cc_a.size == c.a.size
    assert np.array_equal(np.concatenate([c.cs_circle, c.cc_a]), c.a)
    assert c.cs_circle.size == sum(ref.contacts.cs_circle.size for ref in oracles) > 0
    assert c.cc_a.size == sum(ref.contacts.cc_a.size for ref in oracles) > 0


def test_command_tools_refuses_a_count_other_than_the_worlds():
    """A velocity or angular velocity list that does not give one entry per
    world raises before any world's command is written."""
    worlds = [World(), World()]
    for w in worlds:
        w.command_tool((3.0, 0.0), angular_velocity=0.5)
    for velocity, spin in ((np.array([[1.0, 0.0]]), [0.0, 0.0]),
                           (np.array([[1.0, 0.0], [2.0, 0.0]]), [0.0]),
                           (np.zeros((3, 2)), [0.0, 0.0, 0.0])):
        with pytest.raises(ValueError):
            command_tools(worlds, velocity, spin)
        for w in worlds:
            assert w.tool_velocity.tolist() == [3.0, 0.0]
            assert w.tool_angular_velocity == 0.5


@pytest.mark.parametrize("change", [
    lambda w: w.add_circle((9.0, 9.0)),
    lambda w: setattr(w, "radius", w.radius * 1.5),
    lambda w: setattr(w, "inv_mass", w.inv_mass * 2.0),
    lambda w: setattr(w, "damping", w.damping + 1.0),
    lambda w: w.add_static_capsule((0.0, -5.0), (1.0, -5.0)),
    lambda w: w.set_tool(build_tool(np.array([1.0, 1.0, 1.0, 0.0, 0.0])), (0.0, 5.0)),
    lambda w: setattr(w, "friction", 0.9),
    lambda w: setattr(w, "gravity", np.array([0.0, -1.0])),
], ids=["circle count", "radii", "masses", "damping", "statics", "tool",
        "friction", "gravity"])
def test_scenes_that_cannot_share_a_pass_are_refused(change):
    def scene():
        w = World(dt=DT)
        flat_floor(w)
        w.add_circle((0.0, 2.0), radius=0.5)
        return w
    a, b = scene(), scene()
    a.step(b)
    change(b)
    b._scenes = None  # a changed attribute no method resets
    with pytest.raises(ValueError):
        a.step(b)
    with pytest.raises(ValueError):
        a.step(a)
