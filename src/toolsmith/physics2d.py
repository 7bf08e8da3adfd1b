"""Deterministic 2D rigid-body stepping for tool manipulation scenes.

The world holds dynamic circles, static capsule segments, and one kinematic
tool (a chain of capsule segments that follows commanded velocities exactly,
as if infinitely massive). Integration is semi-implicit Euler. Contacts are
resolved with accumulated normal impulses and a Coulomb friction clamp over a
fixed number of sweeps, then a Baumgarte positional correction. Every
operation is plain numpy on float64 arrays, so stepping is bit-reproducible
for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ToolGeometry

VELOCITY_ITERATIONS = 4       # accumulated-impulse sweeps per step
BAUMGARTE = 0.2               # share of penetration removed per step
SLOP = 0.005                  # penetration left uncorrected
RESTITUTION_THRESHOLD = 1.0   # slower approaches do not bounce


@dataclass
class ContactBatch:
    """Contacts found in the last step, split by pairing."""

    # circle vs surface (tool segments first, then static capsules)
    cs_circle: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cs_surface: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cs_is_tool: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    cs_normal: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    cs_depth: np.ndarray = field(default_factory=lambda: np.empty(0))
    cs_impulse: np.ndarray = field(default_factory=lambda: np.empty(0))
    cs_impulse_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    # redundancy split: rows on one circle with near-parallel normals (e.g. a
    # ball spanning the joint of two collinear links) share the impulse, so
    # simultaneous per-row solves do not double-apply it
    cs_scale: np.ndarray = field(default_factory=lambda: np.empty(0))
    # circle vs circle
    cc_a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cc_b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    cc_normal: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    cc_depth: np.ndarray = field(default_factory=lambda: np.empty(0))
    cc_impulse: np.ndarray = field(default_factory=lambda: np.empty(0))
    cc_impulse_t: np.ndarray = field(default_factory=lambda: np.empty(0))


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

        self.contacts = ContactBatch()
        self._upper_mask: np.ndarray | None = None
        self._surf_cache: tuple | None = None

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
        return self.pos.shape[0] - 1

    def add_static_capsule(self, a, b, radius: float = 0.1) -> int:
        """Add an immovable capsule segment; returns its static index."""
        self.static_a = np.vstack([self.static_a, np.asarray(a, dtype=np.float64)])
        self.static_b = np.vstack([self.static_b, np.asarray(b, dtype=np.float64)])
        self.static_r = np.append(self.static_r, float(radius))
        self._surf_cache = None
        return self.static_a.shape[0] - 1

    def set_tool(self, geometry: ToolGeometry, position, angle: float = 0.0) -> None:
        """Install the kinematic tool at a pose; geometry is in tool-local frame."""
        self.tool_geometry = geometry
        self.tool_position = np.asarray(position, dtype=np.float64).copy()
        self.tool_angle = float(angle)
        self.tool_velocity = np.zeros(2, dtype=np.float64)
        self.tool_angular_velocity = 0.0
        self._surf_cache = None

    def command_tool(self, velocity, angular_velocity: float = 0.0) -> None:
        """Set the tool's velocity for subsequent steps; it is followed exactly."""
        self.tool_velocity = np.asarray(velocity, dtype=np.float64).copy()
        self.tool_angular_velocity = float(angular_velocity)

    # -- queries ------------------------------------------------------------

    @property
    def num_circles(self) -> int:
        return self.pos.shape[0]

    def circles_touching_tool(self) -> np.ndarray:
        """Boolean mask over circles in contact with the tool in the last step."""
        mask = np.zeros(self.num_circles, dtype=bool)
        c = self.contacts
        if c.cs_circle.size:
            mask[c.cs_circle[c.cs_is_tool]] = True
        return mask

    # -- stepping -----------------------------------------------------------

    def step(self) -> None:
        """Advance the world by one dt."""
        dt = self.dt
        if self.num_circles:
            self.vel += self.gravity * dt
            keep = np.maximum(0.0, 1.0 - self.damping * dt)
            self.vel *= keep[:, None]
            self.pos += self.vel * dt
        if self.tool_geometry is not None:
            self.tool_position = self.tool_position + self.tool_velocity * dt
            self.tool_angle += self.tool_angular_velocity * dt

        self.contacts = self._detect_contacts()
        self._solve_velocity(self.contacts)
        self._correct_positions(self.contacts)

    # -- internals ----------------------------------------------------------

    def _surfaces(self):
        """All capsule surfaces: tool segments first, then statics."""
        k = 0 if self.tool_geometry is None else self.tool_geometry.segments.shape[0]
        s = self.static_a.shape[0]
        if self._surf_cache is None or self._surf_cache[0].shape[0] != k + s:
            a = np.empty((k + s, 2))
            b = np.empty((k + s, 2))
            r = np.empty(k + s)
            is_tool = np.zeros(k + s, dtype=bool)
            is_tool[:k] = True
            a[k:] = self.static_a
            b[k:] = self.static_b
            r[k:] = self.static_r
            if k:
                r[:k] = self.tool_geometry.radius
            self._surf_cache = (a, b, r, is_tool)
        a, b, r, is_tool = self._surf_cache
        if k:
            c, sn = math.cos(self.tool_angle), math.sin(self.tool_angle)
            segs = self.tool_geometry.segments
            px, py = self.tool_position
            a[:k, 0] = segs[:, 0, 0] * c - segs[:, 0, 1] * sn + px
            a[:k, 1] = segs[:, 0, 0] * sn + segs[:, 0, 1] * c + py
            b[:k, 0] = segs[:, 1, 0] * c - segs[:, 1, 1] * sn + px
            b[:k, 1] = segs[:, 1, 0] * sn + segs[:, 1, 1] * c + py
        return a, b, r, is_tool

    def _detect_contacts(self) -> ContactBatch:
        batch = ContactBatch()
        n = self.num_circles
        if n == 0:
            return batch
        pos, rad = self.pos, self.radius

        a, b, r, is_tool = self._surfaces()
        ns = a.shape[0]
        if ns:
            ab = b - a
            length2 = np.maximum(ab[:, 0] ** 2 + ab[:, 1] ** 2, 1e-18)
            dx = pos[:, 0][:, None] - a[:, 0][None, :]
            dy = pos[:, 1][:, None] - a[:, 1][None, :]
            t = (dx * ab[:, 0] + dy * ab[:, 1]) / length2
            np.maximum(t, 0.0, out=t)
            np.minimum(t, 1.0, out=t)
            ex = dx - t * ab[:, 0]
            ey = dy - t * ab[:, 1]
            dist = np.sqrt(ex * ex + ey * ey)
            overlap = (rad[:, None] + r[None, :]) - dist
            ci, si = np.nonzero(overlap > 0.0)
            if ci.size:
                d = dist[ci, si]
                safe = np.maximum(d, 1e-9)
                nrm = np.stack([ex[ci, si] / safe, ey[ci, si] / safe], axis=1)
                bad = d <= 1e-9
                if bad.any():
                    nrm[bad] = (0.0, 1.0)
                batch.cs_circle = ci
                batch.cs_surface = si
                batch.cs_is_tool = is_tool[si]
                batch.cs_normal = nrm
                batch.cs_depth = overlap[ci, si]
                if ci.size > 1 and np.any(ci[1:] == ci[:-1]):
                    same = ci[:, None] == ci[None, :]
                    agree = np.maximum(nrm @ nrm.T, 0.0)
                    batch.cs_scale = 1.0 / np.where(same, agree, 0.0).sum(axis=1)
                else:
                    batch.cs_scale = np.ones(ci.size)

        if n > 1:
            if self._upper_mask is None or self._upper_mask.shape[0] != n:
                self._upper_mask = np.triu(np.ones((n, n), dtype=bool), k=1)
            diffx = pos[:, 0][:, None] - pos[:, 0][None, :]
            diffy = pos[:, 1][:, None] - pos[:, 1][None, :]
            rsum = rad[:, None] + rad[None, :]
            dist2 = diffx * diffx + diffy * diffy
            hit = (dist2 < rsum * rsum) & self._upper_mask
            ia, ib = np.nonzero(hit)
            if ia.size:
                d = np.sqrt(dist2[ia, ib])
                safe = np.maximum(d, 1e-9)
                nrm = np.stack([diffx[ia, ib] / safe, diffy[ia, ib] / safe], axis=1)
                bad = d <= 1e-9
                if bad.any():
                    nrm[bad] = (0.0, 1.0)
                batch.cc_a = ia
                batch.cc_b = ib
                batch.cc_normal = nrm
                batch.cc_depth = rsum[ia, ib] - d
        return batch

    def _surface_point_velocity(self, batch: ContactBatch) -> np.ndarray:
        """Velocity of the surface material at each circle-surface contact."""
        m = batch.cs_circle.size
        v = np.zeros((m, 2), dtype=np.float64)
        if m == 0 or self.tool_geometry is None:
            return v
        tool = batch.cs_is_tool
        if np.any(tool):
            # contact point approximated by the circle center projection;
            # for spin we need the offset from the tool origin
            rel = self.pos[batch.cs_circle[tool]] - self.tool_position
            w = self.tool_angular_velocity
            spin = np.stack([-w * rel[:, 1], w * rel[:, 0]], axis=1)
            v[tool] = self.tool_velocity + spin
        return v

    def _solve_velocity(self, batch: ContactBatch) -> None:
        """Accumulated-impulse sweeps over all contacts as one constraint batch.

        Rows are the circle-surface contacts, then the circle-circle ones.
        A surface is a virtual body with fixed velocity and zero inverse
        mass, so both kinds share the same normal/friction arithmetic and a
        single scatter per sweep.
        """
        m_cs = batch.cs_circle.size
        m = m_cs + batch.cc_a.size
        if m == 0:
            return
        n = self.num_circles
        vel = self.vel

        ja = np.concatenate([batch.cs_circle, batch.cc_a])
        jb = np.concatenate([n + np.arange(m_cs), batch.cc_b])
        normal = np.concatenate([batch.cs_normal, batch.cc_normal])
        nx, ny = normal[:, 0], normal[:, 1]
        tangent = normal[:, ::-1] * (-1.0, 1.0)
        wa = self.inv_mass[ja]
        wb = np.zeros(m)
        wb[m_cs:] = self.inv_mass[batch.cc_b]
        coeff = 1.0 / (wa + wb)
        coeff[:m_cs] *= batch.cs_scale
        restitution = np.empty(m)
        restitution[:m_cs] = self.restitution_surface
        restitution[m_cs:] = self.restitution_circle

        # body velocities: slots [0:n] mirror the circles after each sweep,
        # slots [n:n+m_cs] hold constant surface velocities
        v = np.concatenate([vel, self._surface_point_velocity(batch)])
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
            vt = -rv[:, 0] * ny + rv[:, 1] * nx
            djt = -vt * coeff
            cap = mu * acc_n
            newt = np.minimum(np.maximum(acc_t + djt, -cap), cap)
            djt = newt - acc_t
            acc_t = newt
            impulse = dj[:, None] * normal + djt[:, None] * tangent
            vel += np.bincount(bins, weights=(push * impulse).ravel(),
                               minlength=2 * n)[:2 * n].reshape(n, 2)
            v[:n] = vel

        batch.cs_impulse = acc_n[:m_cs]
        batch.cs_impulse_t = acc_t[:m_cs]
        batch.cc_impulse = acc_n[m_cs:]
        batch.cc_impulse_t = acc_t[m_cs:]

    def _correct_positions(self, batch: ContactBatch) -> None:
        beta, slop = BAUMGARTE, SLOP
        n = self.num_circles
        if batch.cs_circle.size:
            ci = batch.cs_circle
            corr = beta * np.maximum(batch.cs_depth - slop, 0.0) * batch.cs_scale
            self.pos[:, 0] += np.bincount(ci, weights=corr * batch.cs_normal[:, 0], minlength=n)
            self.pos[:, 1] += np.bincount(ci, weights=corr * batch.cs_normal[:, 1], minlength=n)
        if batch.cc_a.size:
            ia, ib = batch.cc_a, batch.cc_b
            wa, wb = self.inv_mass[ia], self.inv_mass[ib]
            corr = beta * np.maximum(batch.cc_depth - slop, 0.0) / (wa + wb)
            px = corr * batch.cc_normal[:, 0]
            py = corr * batch.cc_normal[:, 1]
            idx = np.concatenate([ia, ib])
            self.pos[:, 0] += np.bincount(idx, weights=np.concatenate([px * wa, -px * wb]),
                                          minlength=n)
            self.pos[:, 1] += np.bincount(idx, weights=np.concatenate([py * wa, -py * wb]),
                                          minlength=n)
