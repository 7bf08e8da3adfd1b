"""Deterministic 2D rigid-body stepping for tool manipulation scenes.

The world holds dynamic circles, static capsule segments, and one kinematic
tool (a chain of capsule segments that follows commanded velocities exactly,
as if infinitely massive). Integration is semi-implicit Euler. Contacts are
resolved with accumulated normal impulses and a Coulomb friction clamp over a
fixed number of sweeps, then a Baumgarte positional correction. Every
operation is plain numpy on float64 arrays, so stepping is bit-reproducible
for identical inputs.

Batched scenes. w.step(*others) advances w and every other world given in
one numpy pass. The scenes are stacked along a leading env axis: positions
and velocities (E, N, 2), tool positions (E, 2) with one angle per scene,
circle-surface detection over (E, N, S) and circle-circle detection over
(E, P), the P = N (N - 1) / 2 circle pairs. Scenes that share a pass must
have the same circles (count, radii, masses, damping), the same statics,
the same tool presence and link count, and the same world constants; step
raises ValueError otherwise. Circle states, tool links, poses and commands
may differ. A plain w.step() is the E = 1 case and works on views of the
world's own arrays. After a batched step each world's pos and vel are views
of the stacked arrays, until the world is stepped with other worlds or
gains a circle, a static or a tool.

Contacts are one row set per pass, a ContactBatch in the order the solver
reads it: the circle-surface rows of all scenes, env-major, then the
circle-circle rows, env-major, circle i of scene e numbered e * N + i. The
SceneState a pass returns carries it, and World.contacts of every world in
the pass is that same ContactBatch. Rows never link two scenes, so a world
stepped alone reads rows of its own circles only.

Each scene comes out bitwise equal to stepping it alone. Three rules keep it
so:
- Each circle's impulse and correction bincounts add its rows in the
  single-scene order, which the row order above keeps; the position
  correction takes one bincount per kind of row, as a single scene does.
- The redundancy scale (ContactBatch.scale) comes from each scene's own
  nrm @ nrm.T block, since BLAS may fuse multiply-adds differently for
  another shape, and the tool's cos and sin come from math per scene, not
  from np.cos over all of them.
- Impulses and position corrections are added only to the scenes that own
  a row, scene a // N for a row of circle a: adding a zero to a scene
  without rows would turn a -0.0 into 0.0. A scene with rows of one kind
  also takes the other kind's correction, all +0.0; a bincount is never
  -0.0, so that changes no bit.

Batched callers read and command the scenes as arrays too: stacked_state
gives the stack of the worlds' last pass (circle positions and velocities,
tool positions, contacts) without copying, and command_tools sets every
tool's velocity from one (E, 2) array. A pass turns the tool links only
when some tool angle has changed since the last pass of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import ToolGeometry

VELOCITY_ITERATIONS = 4       # accumulated-impulse sweeps per step
BAUMGARTE = 0.2               # share of penetration removed per step
SLOP = 0.005                  # penetration left uncorrected
RESTITUTION_THRESHOLD = 1.0   # slower approaches do not bounce


# shared by every batch without rows of a kind, so read-only
_NO_INDEX = np.empty(0, dtype=np.int64)
_NO_FLAG = np.empty(0, dtype=bool)
_NO_VALUE = np.empty(0)
_NO_VECTOR = np.empty((0, 2))
for _empty in (_NO_INDEX, _NO_FLAG, _NO_VALUE, _NO_VECTOR):
    _empty.flags.writeable = False


@dataclass
class ContactBatch:
    """The contact rows of one pass, in the order the solver reads them.

    Rows [0:surfaces] pair circle a with surface b (tool segments first,
    then static capsules); the rows after them pair circle a with circle b.
    Circle ids run across the pass's scenes: circle i of scene e is
    e * N + i, so a row's scene is a // N, each part is sorted by it, and a
    world stepped alone has its own circle ids. normal points from b to a.
    """

    surfaces: int = 0
    a: np.ndarray = field(default_factory=lambda: _NO_INDEX)
    b: np.ndarray = field(default_factory=lambda: _NO_INDEX)
    is_tool: np.ndarray = field(default_factory=lambda: _NO_FLAG)  # b is a tool link
    normal: np.ndarray = field(default_factory=lambda: _NO_VECTOR)
    depth: np.ndarray = field(default_factory=lambda: _NO_VALUE)
    # redundancy split of the surface rows: rows on one circle with near-
    # parallel normals (e.g. a ball spanning the joint of two collinear links)
    # share the impulse, so simultaneous per-row solves do not double-apply it
    scale: np.ndarray = field(default_factory=lambda: _NO_VALUE)
    impulse: np.ndarray = field(default_factory=lambda: _NO_VALUE)
    impulse_t: np.ndarray = field(default_factory=lambda: _NO_VALUE)

    @property
    def cs_circle(self) -> np.ndarray:
        """a[:surfaces], a read-only view; bench/spans.py reads it."""
        return self.a[:self.surfaces]

    @property
    def cc_a(self) -> np.ndarray:
        """a[surfaces:], a read-only view; bench/spans.py reads it."""
        return self.a[self.surfaces:]


_NO_CONTACTS = ContactBatch()


class World:
    """A 2D scene stepped at a fixed timestep."""

    def __init__(self, gravity=(0.0, -9.8), dt: float = 1.0 / 60.0,
                 friction: float = 0.5, restitution_circle: float = 0.1,
                 restitution_surface: float = 0.0):
        self.gravity = np.asarray(gravity, dtype=np.float64)
        self.dt = float(dt)
        self.friction = float(friction)
        self.restitution_circle = float(restitution_circle)
        self.restitution_surface = float(restitution_surface)

        self.pos = np.empty((0, 2), dtype=np.float64)
        self.vel = np.empty((0, 2), dtype=np.float64)
        self.radius = np.empty(0, dtype=np.float64)
        self.inv_mass = np.empty(0, dtype=np.float64)
        self.damping = np.empty(0, dtype=np.float64)

        self.static_a = np.empty((0, 2), dtype=np.float64)
        self.static_b = np.empty((0, 2), dtype=np.float64)
        self.static_r = np.empty(0, dtype=np.float64)

        self.tool_geometry: ToolGeometry | None = None
        self.tool_position = np.zeros(2, dtype=np.float64)
        self.tool_angle = 0.0
        self.tool_velocity = np.zeros(2, dtype=np.float64)
        self.tool_angular_velocity = 0.0

        self.contacts = _NO_CONTACTS  # the rows of the world's last pass
        self._scenes: _Scenes | None = None

    # -- construction -------------------------------------------------------

    def add_circle(self, position, velocity=(0.0, 0.0), radius: float = 0.5,
                   density: float = 1.0, damping: float = 0.0) -> int:
        """Add a dynamic circle; returns its body id."""
        if radius <= 0.0 or density <= 0.0:
            raise ValueError("circle radius and density must be positive")
        mass = density * math.pi * radius * radius
        self.pos = np.vstack([self.pos, np.asarray(position, dtype=np.float64)])
        self.vel = np.vstack([self.vel, np.asarray(velocity, dtype=np.float64)])
        self.radius = np.append(self.radius, float(radius))
        self.inv_mass = np.append(self.inv_mass, 1.0 / mass)
        self.damping = np.append(self.damping, float(damping))
        self._scenes = None
        return self.pos.shape[0] - 1

    def add_static_capsule(self, a, b, radius: float = 0.1) -> int:
        """Add an immovable capsule segment; returns its static index."""
        self.static_a = np.vstack([self.static_a, np.asarray(a, dtype=np.float64)])
        self.static_b = np.vstack([self.static_b, np.asarray(b, dtype=np.float64)])
        self.static_r = np.append(self.static_r, float(radius))
        self._scenes = None
        return self.static_a.shape[0] - 1

    def set_tool(self, geometry: ToolGeometry, position, angle: float = 0.0) -> None:
        """Install the kinematic tool at a pose; geometry is in tool-local frame."""
        self.tool_geometry = geometry
        self.tool_position = np.asarray(position, dtype=np.float64).copy()
        self.tool_angle = float(angle)
        self.tool_velocity = np.zeros(2, dtype=np.float64)
        self.tool_angular_velocity = 0.0
        self._scenes = None

    def command_tool(self, velocity, angular_velocity: float = 0.0) -> None:
        """Set the tool's velocity for subsequent steps; it is followed exactly."""
        command_tools([self], np.array([velocity], dtype=np.float64),
                      [float(angular_velocity)])

    # -- queries ------------------------------------------------------------

    @property
    def num_circles(self) -> int:
        return self.pos.shape[0]

    # -- stepping -----------------------------------------------------------

    def step(self, *others: World) -> SceneState:
        """Advance this world, and every other world given, by one dt.

        All of them go through one numpy pass; see the module docstring for
        what they must share. Returns their stacked_state after the pass.
        """
        worlds = (self,) + others
        scenes = self._scenes
        if scenes is None or not scenes.holds(worlds):
            scenes = _Scenes(worlds)
        scenes.step(worlds)
        return scenes.state

    def _layout(self) -> tuple:
        """What worlds stepped together must share, as exact bytes."""
        links = -1 if self.tool_geometry is None else self.tool_geometry.segments.shape[0]
        constants = np.array([*self.gravity, self.dt, self.friction,
                              self.restitution_circle, self.restitution_surface])
        return (links, constants.tobytes(), self.radius.tobytes(),
                self.inv_mass.tobytes(), self.damping.tobytes(),
                self.static_a.tobytes(), self.static_b.tobytes(),
                self.static_r.tobytes())


def command_tools(worlds, velocity: np.ndarray, angular_velocity: list) -> None:
    """worlds[e].command_tool(velocity[e], angular_velocity[e]) for every
    scene e. velocity is an (E, 2) float64 array whose rows the worlds keep,
    so the caller does not write it afterwards; angular_velocity holds
    floats. Raises ValueError, before any world is written, unless both
    give one entry per world."""
    if len(velocity) != len(worlds) or len(angular_velocity) != len(worlds):
        raise ValueError("command_tools needs one velocity and one angular "
                         "velocity per world")
    for w, v, a in zip(worlds, velocity, angular_velocity):
        w.tool_velocity, w.tool_angular_velocity = v, a


class SceneState(NamedTuple):
    """Circle positions and velocities (E, N, 2) and tool positions (E, 2)
    of E scenes, scene e in row e, and the contact rows of the pass that
    left them (None for a stack no pass has left)."""

    pos: np.ndarray
    vel: np.ndarray
    tool_pos: np.ndarray
    contacts: ContactBatch | None


def stacked_state(worlds) -> SceneState:
    """The state of the worlds, scene e for worlds[e], to be read and not
    written: the stack of their last pass when they were stepped together
    in this order, else a new stack."""
    scenes = worlds[0]._scenes
    if scenes is not None and scenes.holds(worlds):
        return scenes.state
    return SceneState(_stacked([w.pos for w in worlds]),
                      _stacked([w.vel for w in worlds]),
                      _stacked([w.tool_position for w in worlds]), None)


def _stacked(arrays: list) -> np.ndarray:
    """The arrays along a new leading axis; a view when there is one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _scenes_of(circles: np.ndarray, n: int, count: int) -> np.ndarray | None:
    """Which of count scenes of n circles own one of the circle ids, as a
    mask; None when there is one scene or every scene does."""
    if count == 1:
        return None
    has = np.zeros(count, dtype=bool)
    has[circles // n] = True
    return None if has.all() else has


def _add(target: np.ndarray, delta: np.ndarray, scenes: np.ndarray | None) -> None:
    """target += delta over the bodies of every scene, in the scenes the
    mask picks only (None: all of them)."""
    if scenes is None:
        target += delta
    else:
        shape = (scenes.size, -1) + target.shape[1:]
        target.reshape(shape)[scenes] += delta.reshape(shape)[scenes]


class _Scenes:
    """Worlds stepped together: their stacked state and layout constants.

    Built when a tuple of worlds is first stepped together and kept on each
    of them. A world drops it when it gains a circle, a static or a tool, and
    the next step builds a new one.
    """

    def __init__(self, worlds: tuple):
        w = worlds[0]
        if len(worlds) > 1:
            if len({id(o) for o in worlds}) < len(worlds):
                raise ValueError("a world can be stepped only once per pass")
            layout = w._layout()
            for o in worlds[1:]:
                if o._layout() != layout:
                    raise ValueError(
                        "worlds stepped together must share circle count, radii, "
                        "masses and damping, statics, tool presence and link "
                        "count, and world constants")
        if len(worlds) == 1:
            w.pos, w.vel = np.ascontiguousarray(w.pos), np.ascontiguousarray(w.vel)
        self.pos = _stacked([o.pos for o in worlds])
        self.vel = _stacked([o.vel for o in worlds])
        if len(worlds) > 1:
            for o, p, v in zip(worlds, self.pos, self.vel):
                o.pos, o.vel = p, v
        # the same memory with circle i of scene e at row e * N + i
        self.flat_pos = self.pos.reshape(-1, 2)
        self.flat_vel = self.vel.reshape(-1, 2)
        self.x, self.y = self.pos[:, :, 0], self.pos[:, :, 1]
        # tool positions change only by a pass or set_tool, which drops
        # the stack; each pass keeps its own
        self.state = SceneState(self.pos, self.vel,
                                _stacked([o.tool_position for o in worlds]), None)
        self.views = [(o.pos, o.vel) for o in worlds]
        for o in worlds:
            o._scenes = self

        e, n = self.pos.shape[:2]
        self.n = n
        self.dt = w.dt
        self.gravity_dt = w.gravity * w.dt
        keep = np.maximum(0.0, 1.0 - w.damping * w.dt)
        # times 1.0 changes no velocity, so undamped scenes skip it
        self.keep = None if np.all(keep == 1.0) else np.tile(keep, e)[:, None]
        self.inv_mass = np.tile(w.inv_mass, e)  # by body e * N + i
        self.friction = w.friction
        self.restitution_circle = w.restitution_circle
        self.restitution_surface = w.restitution_surface

        # surface end points (scene, surface, end, axis): tool segments
        # first, then statics
        k = 0 if w.tool_geometry is None else w.tool_geometry.segments.shape[0]
        s = k + w.static_a.shape[0]
        self.links = k
        self.ends = np.empty((e, s, 2, 2))
        self.a, self.b = self.ends[:, :, 0], self.ends[:, :, 1]
        # broadcast views for detection, kept since the arrays they view are
        # written in place
        self.x_by_surface = self.x[:, :, None]
        self.y_by_surface = self.y[:, :, None]
        self.ax_by_circle = self.a[:, None, :, 0]
        self.ay_by_circle = self.a[:, None, :, 1]
        self.ends[:, k:, 0] = w.static_a
        self.ends[:, k:, 1] = w.static_b
        r = np.empty((e, s))
        r[:, k:] = w.static_r
        if k:
            self.angles = None  # the tool angles self.turned is for
            segments = np.stack([o.tool_geometry.segments for o in worlds])
            self.link_x, self.link_y = segments[..., 0], segments[..., 1]
            r[:, :k] = np.array([[o.tool_geometry.radius] for o in worlds])
        # circle pairs i < j, in the row-major order of the upper triangle
        self.pair_i, self.pair_j = np.triu_indices(n, k=1)
        # contact reach of every circle-surface and circle-circle pair
        self.reach = w.radius[:, None] + r[:, None, :]
        pair_reach = w.radius[self.pair_i] + w.radius[self.pair_j]
        self.pair_reach2 = pair_reach * pair_reach
        self.pair_reach = np.tile(pair_reach, e)
        # both circle bodies of every flat index into (scene, pair), so found
        # pairs are read off with take
        env, pair = (i.ravel() for i in np.indices((e, self.pair_i.size)))
        self.cc_pairs = (env * n + self.pair_i[pair], env * n + self.pair_j[pair])

    def holds(self, worlds: tuple) -> bool:
        """Whether these are this stack's worlds, in order, still stacked."""
        if len(worlds) != len(self.views):
            return False
        for w, (p, v) in zip(worlds, self.views):
            if w._scenes is not self or w.pos is not p or w.vel is not v:
                return False
        return True

    def step(self, worlds: tuple) -> None:
        dt = self.dt
        if self.n:
            self.flat_vel += self.gravity_dt
            if self.keep is not None:
                self.flat_vel *= self.keep
            self.flat_pos += self.flat_vel * dt
        tool_pos, tool_vel = self.state.tool_pos, None
        if self.links:
            tool_vel = _stacked([w.tool_velocity for w in worlds])
            tool_pos = tool_pos + tool_vel * dt
            for w, p in zip(worlds, tool_pos):
                w.tool_position = p
                w.tool_angle += w.tool_angular_velocity * dt
            self._place_tools(worlds, tool_pos)

        contacts = self._detect()
        if contacts is None:
            contacts = _NO_CONTACTS
        else:
            moved = _scenes_of(contacts.a, self.n, self.pos.shape[0])
            self._solve_velocity(worlds, contacts, tool_pos, tool_vel, moved)
            self._correct_positions(contacts, moved)
        for w in worlds:
            w.contacts = contacts
        self.state = SceneState(self.pos, self.vel, tool_pos, contacts)

    # -- internals ----------------------------------------------------------

    def _place_tools(self, worlds: tuple, tool_pos: np.ndarray) -> None:
        """Tool segments at each scene's current pose, in surface slots [0:k].

        The links turned by each scene's angle are kept until an angle
        changes; a tool that only slides, as push's and catch's do, is
        turned once.
        """
        angles = [w.tool_angle for w in worlds]
        if angles != self.angles:
            c = np.array([math.cos(a) for a in angles])[:, None, None]
            sn = np.array([math.sin(a) for a in angles])[:, None, None]
            x, y = self.link_x, self.link_y
            self.turned = (x * c - y * sn, x * sn + y * c)
            self.angles = angles
        k = self.links
        self.ends[:, :k, :, 0] = self.turned[0] + tool_pos[:, 0, None, None]
        self.ends[:, :k, :, 1] = self.turned[1] + tool_pos[:, 1, None, None]

    def _detect(self) -> ContactBatch | None:
        """Every scene's contact rows, or None when no scene has one."""
        n = self.n
        if n == 0:
            return None
        # each kind's rows: circle a, surface or circle b, the offset of a
        # from b's nearest point, its length and the depth
        surface = circle = None
        x, y = self.x, self.y

        s = self.ends.shape[1]
        if s:
            a, b = self.a, self.b
            ab = b - a
            abx, aby = ab[:, None, :, 0], ab[:, None, :, 1]
            length2 = np.maximum(abx ** 2 + aby ** 2, 1e-18)
            dx = self.x_by_surface - self.ax_by_circle
            dy = self.y_by_surface - self.ay_by_circle
            t = (dx * abx + dy * aby) / length2
            np.maximum(t, 0.0, out=t)
            np.minimum(t, 1.0, out=t)
            ex = dx - t * abx
            ey = dy - t * aby
            dist = np.sqrt(ex * ex + ey * ey)
            overlap = self.reach - dist
            hit = (overlap > 0.0).ravel().nonzero()[0]
            if hit.size:
                body, si = np.divmod(hit, s)  # hit is (e * n + i) * s + si
                surface = (body, si, ex.take(hit), ey.take(hit), dist.take(hit),
                           overlap.take(hit))

        if n > 1:
            i, j = self.pair_i, self.pair_j
            diffx = x[:, i] - x[:, j]
            diffy = y[:, i] - y[:, j]
            dist2 = diffx * diffx + diffy * diffy
            hit = (dist2 < self.pair_reach2).ravel().nonzero()[0]
            if hit.size:
                body_a, body_b = (table.take(hit) for table in self.cc_pairs)
                d = np.sqrt(dist2.take(hit))
                circle = (body_a, body_b, diffx.take(hit), diffy.take(hit), d,
                          self.pair_reach.take(hit) - d)
        kinds = [k for k in (surface, circle) if k is not None]
        if not kinds:
            return None
        # one kind's arrays are used as they are
        a, b, ox, oy, d, depth = (kinds[0] if len(kinds) == 1 else
                                  (np.concatenate(k) for k in zip(*kinds)))
        m = 0 if surface is None else surface[0].size
        is_tool = np.zeros(a.size, dtype=bool)
        is_tool[:m] = b[:m] < self.links
        safe = np.maximum(d, 1e-9)
        normal = np.stack([ox / safe, oy / safe], axis=1)
        bad = d <= 1e-9
        if bad.any():
            normal[bad] = (0.0, 1.0)
        scale = _redundancy_scale(a[:m], normal[:m], n) if m else _NO_VALUE
        return ContactBatch(m, a, b, is_tool, normal, depth, scale)

    def _surface_point_velocity(self, worlds, contacts, tool_pos, tool_vel) -> np.ndarray:
        """Velocity of the surface material at each circle-surface contact."""
        m = contacts.surfaces
        v = np.zeros((m, 2), dtype=np.float64)
        if not self.links:
            return v
        tool = contacts.is_tool[:m]
        if np.any(tool):
            # contact point approximated by the circle center projection;
            # for spin we need the offset from the tool origin
            circles = contacts.a[:m][tool]
            w = np.array([o.tool_angular_velocity for o in worlds])
            if len(worlds) > 1:  # one scene broadcasts as it is
                env = circles // self.n
                tool_pos, tool_vel, w = tool_pos[env], tool_vel[env], w[env]
            rel = self.flat_pos[circles] - tool_pos
            spin = np.stack([-w * rel[:, 1], w * rel[:, 0]], axis=1)
            v[tool] = tool_vel + spin
        return v

    def _solve_velocity(self, worlds, contacts, tool_pos, tool_vel, moved) -> None:
        """Accumulated-impulse sweeps over all contacts as one constraint batch.

        A surface is a virtual body with fixed velocity and zero inverse
        mass, so both kinds of row share the same normal/friction arithmetic
        and a single scatter per sweep. Impulses go to the scenes moved
        picks (see _add).
        """
        m_cs = contacts.surfaces
        m = contacts.a.size
        vel = self.flat_vel
        bodies = vel.shape[0]

        ja = contacts.a
        # surface row r pushes virtual body bodies + r
        jb = np.concatenate([np.arange(bodies, bodies + m_cs), contacts.b[m_cs:]])
        normal = contacts.normal
        nx, ny = normal[:, 0], normal[:, 1]
        tangent = normal[:, ::-1] * (-1.0, 1.0)
        wa = self.inv_mass[ja]
        wb = np.zeros(m)
        wb[m_cs:] = self.inv_mass[jb[m_cs:]]
        coeff = 1.0 / (wa + wb)
        coeff[:m_cs] *= contacts.scale
        restitution = np.empty(m)
        restitution[:m_cs] = self.restitution_surface
        restitution[m_cs:] = self.restitution_circle

        # body velocities: slots [0:bodies] mirror the circles after each
        # sweep, slots past them hold constant surface velocities
        v = np.concatenate([vel, self._surface_point_velocity(
            worlds, contacts, tool_pos, tool_vel)])
        # every row pushes body a and, oppositely, body b; bins are
        # 2 * body + axis, and what lands on surface slots is dropped
        bins = (2 * np.concatenate([ja, jb])[:, None] + (0, 1)).ravel()
        push = np.concatenate([wa, -wb]).reshape(2, m, 1)

        mu = self.friction
        acc_n = np.zeros(m)
        acc_t = np.zeros(m)
        bounce = None
        for _ in range(VELOCITY_ITERATIONS):
            rv = v.take(ja, 0) - v.take(jb, 0)
            vn = rv[:, 0] * nx + rv[:, 1] * ny
            if bounce is None:  # restitution targets the speed before any impulse
                bounce = np.where(vn < -RESTITUTION_THRESHOLD, -restitution * vn, 0.0)
            dj = (bounce - vn) * coeff
            new = np.maximum(acc_n + dj, 0.0)
            dj = new - acc_n
            acc_n = new
            vt = rv[:, 1] * nx - rv[:, 0] * ny
            djt = -vt * coeff
            cap = mu * acc_n
            newt = np.minimum(np.maximum(acc_t + djt, -cap), cap)
            djt = newt - acc_t
            acc_t = newt
            impulse = dj[:, None] * normal + djt[:, None] * tangent
            _add(vel, np.bincount(bins, weights=(push * impulse).ravel(),
                                  minlength=2 * bodies)[:2 * bodies].reshape(bodies, 2),
                 moved)
            v[:bodies] = vel

        contacts.impulse = acc_n
        contacts.impulse_t = acc_t

    def _correct_positions(self, contacts, moved) -> None:
        beta, slop = BAUMGARTE, SLOP
        pos, m = self.flat_pos, contacts.surfaces
        bodies = pos.shape[0]
        x, y = pos[:, 0], pos[:, 1]
        # one bincount per kind, as a scene stepped alone adds them
        if m:
            ci, normal = contacts.a[:m], contacts.normal[:m]
            corr = beta * np.maximum(contacts.depth[:m] - slop, 0.0) * contacts.scale
            _add(x, np.bincount(ci, weights=corr * normal[:, 0],
                                minlength=bodies), moved)
            _add(y, np.bincount(ci, weights=corr * normal[:, 1],
                                minlength=bodies), moved)
        if contacts.a.size > m:
            ia, ib, normal = contacts.a[m:], contacts.b[m:], contacts.normal[m:]
            wa, wb = self.inv_mass[ia], self.inv_mass[ib]
            corr = beta * np.maximum(contacts.depth[m:] - slop, 0.0) / (wa + wb)
            px = corr * normal[:, 0]
            py = corr * normal[:, 1]
            idx = np.concatenate([ia, ib])
            _add(x, np.bincount(idx, weights=np.concatenate([px * wa, -px * wb]),
                                minlength=bodies), moved)
            _add(y, np.bincount(idx, weights=np.concatenate([py * wa, -py * wb]),
                                minlength=bodies), moved)


def _redundancy_scale(body: np.ndarray, nrm: np.ndarray, n: int) -> np.ndarray:
    """ContactBatch.scale of circle-surface rows of circles body, sorted by
    scene body // n.

    A scene where some circle has more than one row takes the scale from its
    own nrm @ nrm.T block; in any other scene every row's scale is 1.
    """
    total = np.ones(body.size)
    repeat = body[1:] == body[:-1]
    if not repeat.any():
        return total
    if body[0] // n == body[-1] // n:  # the rows of one scene
        spans = [(0, body.size)]
    else:
        env = body // n
        scenes = np.unique(env[1:][repeat])
        spans = np.searchsorted(env, [scenes, scenes + 1]).T.tolist()
    for lo, hi in spans:
        c, block = body[lo:hi], nrm[lo:hi]
        agree = block @ block.T
        np.maximum(agree, 0.0, out=agree)
        total[lo:hi] = np.where(c[:, None] == c, agree, 0.0).sum(axis=1)
    return 1.0 / total
