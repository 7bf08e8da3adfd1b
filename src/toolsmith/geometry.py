"""Parametric chain tools.

A tool is a serial chain of three capsule links. Its design is one
(DESIGN_DIM,) float64 array: three link lengths, then two relative joint
angles in radians. This module owns the design space (the ratio
parameterization and its box), the forward kinematics that turn a design
into capsule segments, and mesh export for fabrication.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

NUM_LINKS = 3
NUM_ANGLES = NUM_LINKS - 1
DESIGN_DIM = NUM_LINKS + NUM_ANGLES


@dataclass(frozen=True)
class RatioDesignSpace:
    """Maps policy-side ratio actions to physical designs (lengths, angles).

    Lengths scale an initial length per link: l_i = init_i * (1 + u_i) with
    u_i in [length_ratio_low, length_ratio_high]. Angles are a_j = u_j *
    angle_scale with u_j in [angle_ratio_low, angle_ratio_high] and
    angle_scale in radians. The ratio box induces the physical box [low, high].
    """

    length_init: tuple[float, float, float]
    length_ratio: tuple[float, float]
    angle_ratio: tuple[float, float]
    angle_scale: float

    @property
    def low(self) -> np.ndarray:
        return np.array([li * (1.0 + self.length_ratio[0]) for li in self.length_init]
                        + [self.angle_ratio[0] * self.angle_scale] * NUM_ANGLES)

    @property
    def high(self) -> np.ndarray:
        return np.array([li * (1.0 + self.length_ratio[1]) for li in self.length_init]
                        + [self.angle_ratio[1] * self.angle_scale] * NUM_ANGLES)

    @property
    def d_max(self) -> float:
        """Largest total material length any in-box design can use."""
        return float(sum(self.high[:NUM_LINKS]))

    def realize(self, ratio_action) -> np.ndarray:
        """Map a raw ratio action to its physical design, clipped to the box."""
        u = np.asarray(ratio_action, dtype=np.float64)
        if u.shape != (DESIGN_DIM,):
            raise ValueError(f"ratio action must have shape ({DESIGN_DIM},), got {u.shape}")
        init = np.array(self.length_init, dtype=np.float64)
        raw = np.concatenate([init * (1.0 + u[:NUM_LINKS]),
                              u[NUM_LINKS:] * self.angle_scale])
        return np.clip(raw, self.low, self.high)

    def ratio_of(self, design: np.ndarray) -> np.ndarray:
        """Inverse of realize for in-box designs (used for observation echo)."""
        init = np.array(self.length_init, dtype=np.float64)
        return np.concatenate([design[:NUM_LINKS] / init - 1.0,
                               design[NUM_LINKS:] / self.angle_scale])


@dataclass(frozen=True)
class ToolGeometry:
    """World-space capsule segments of a built tool.

    segments has shape (NUM_LINKS, 2, 2): per link, start and end point. The
    chain starts at the origin with the given base heading; each joint angle
    is relative to the previous link's direction.
    """

    segments: np.ndarray
    radius: float


def build_tool(design, radius: float = 0.1, base_angle: float = 0.0) -> ToolGeometry:
    """Forward kinematics: chain links from the origin, accumulating angles."""
    design = np.asarray(design, dtype=np.float64)
    if design.shape != (DESIGN_DIM,):
        raise ValueError(f"design must have shape ({DESIGN_DIM},), got {design.shape}")
    if radius <= 0.0:
        raise ValueError("capsule radius must be positive")
    segs = np.empty((NUM_LINKS, 2, 2), dtype=np.float64)
    pos = np.zeros(2)
    heading = float(base_angle)
    for i in range(NUM_LINKS):
        if i > 0:
            heading += design[NUM_LINKS + i - 1]
        segs[i, 0] = pos
        pos = pos + design[i] * np.array([math.cos(heading), math.sin(heading)])
        segs[i, 1] = pos
    return ToolGeometry(segments=segs, radius=float(radius))


# ---------------------------------------------------------------------------
# Mesh export
# ---------------------------------------------------------------------------

STL_HEADER_BYTES = 80


def _link_prism(start, end, half_width: float, thickness: float) -> list:
    """Triangulate one link as a rectangular box extruded along +z.

    The box covers the link segment widened by half_width in the plane, from
    z=0 (print bed) to z=thickness. Returns 12 triangles, outward-wound.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    d = end - start
    norm = float(np.hypot(d[0], d[1]))
    if norm < 1e-12:
        raise ValueError("degenerate link: zero length segment")
    # left-hand perpendicular, so the bottom ring below is counter-clockwise
    p = np.array([-d[1], d[0]]) / norm * half_width
    ring = [start - p, end - p, end + p, start + p]
    bottom = [np.array([q[0], q[1], 0.0]) for q in ring]
    top = [np.array([q[0], q[1], thickness]) for q in ring]
    tris = []
    # bottom faces -z, so wind clockwise when seen from +z
    tris.append((bottom[0], bottom[2], bottom[1]))
    tris.append((bottom[0], bottom[3], bottom[2]))
    tris.append((top[0], top[1], top[2]))
    tris.append((top[0], top[2], top[3]))
    for i in range(4):
        j = (i + 1) % 4
        tris.append((bottom[i], bottom[j], top[j]))
        tris.append((bottom[i], top[j], top[i]))
    return tris


def export_stl(geom: ToolGeometry, thickness: float = 0.5) -> bytes:
    """Serialize the tool as a binary STL solid, one box prism per link.

    Layout: 80-byte header, uint32 triangle count, then per triangle a unit
    normal and three vertices as little-endian float32 plus a zero uint16
    attribute. Output bytes depend only on the geometry and thickness.
    """
    if thickness <= 0.0:
        raise ValueError("extrusion thickness must be positive")
    tris = []
    for i in range(geom.segments.shape[0]):
        tris.extend(_link_prism(geom.segments[i, 0], geom.segments[i, 1],
                                geom.radius, thickness))
    out = bytearray()
    header = b"toolsmith chain tool"
    out += header + b"\x00" * (STL_HEADER_BYTES - len(header))
    out += struct.pack("<I", len(tris))
    for a, b, c in tris:
        n = np.cross(b - a, c - a)
        length = float(np.linalg.norm(n))
        if length > 1e-20:
            n = n / length
        out += struct.pack("<12fH",
                           float(n[0]), float(n[1]), float(n[2]),
                           float(a[0]), float(a[1]), float(a[2]),
                           float(b[0]), float(b[1]), float(b[2]),
                           float(c[0]), float(c[1]), float(c[2]),
                           0)
    return bytes(out)
