"""Parametric chain tools.

A tool is a serial chain of three capsule links. Its shape is described by a
design vector of three link lengths and two relative joint angles. This module
owns the design space (ratio parameterization, bounds, clamping), the forward
kinematics that turn a design vector into world-frame segments, and mesh
export for fabrication.
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
class DesignVector:
    """Physical tool parameters: link lengths and relative joint angles (rad)."""

    lengths: tuple[float, float, float]
    angles: tuple[float, float]

    def as_array(self) -> np.ndarray:
        return np.array(list(self.lengths) + list(self.angles), dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> "DesignVector":
        a = np.asarray(arr, dtype=np.float64)
        if a.shape != (DESIGN_DIM,):
            raise ValueError(f"design vector must have shape ({DESIGN_DIM},), got {a.shape}")
        return cls(lengths=(float(a[0]), float(a[1]), float(a[2])),
                   angles=(float(a[3]), float(a[4])))


@dataclass(frozen=True)
class DesignBounds:
    """Per-component box bounds on a physical design vector."""

    length_min: tuple[float, float, float]
    length_max: tuple[float, float, float]
    angle_min: tuple[float, float]
    angle_max: tuple[float, float]

    def low(self) -> np.ndarray:
        return np.array(list(self.length_min) + list(self.angle_min), dtype=np.float64)

    def high(self) -> np.ndarray:
        return np.array(list(self.length_max) + list(self.angle_max), dtype=np.float64)

    @property
    def d_max(self) -> float:
        """Largest total material length any in-bounds design can use."""
        return float(sum(self.length_max))


@dataclass(frozen=True)
class RatioDesignSpace:
    """Maps policy-side ratio actions to physical designs.

    Lengths scale an initial length per link: l_i = init_i * (1 + u_i) with
    u_i in [length_ratio_low, length_ratio_high]. Angles are a_j = u_j *
    angle_scale with u_j in [angle_ratio_low, angle_ratio_high] and
    angle_scale given in radians. The ratio box induces the physical bounds.
    """

    length_init: tuple[float, float, float]
    length_ratio: tuple[float, float]
    angle_ratio: tuple[float, float]
    angle_scale: float

    @property
    def bounds(self) -> DesignBounds:
        lo, hi = self.length_ratio
        alo, ahi = self.angle_ratio
        return DesignBounds(
            length_min=tuple(li * (1.0 + lo) for li in self.length_init),
            length_max=tuple(li * (1.0 + hi) for li in self.length_init),
            angle_min=(alo * self.angle_scale,) * NUM_ANGLES,
            angle_max=(ahi * self.angle_scale,) * NUM_ANGLES,
        )

    def realize(self, ratio_action) -> DesignVector:
        """Map a raw 5-dim ratio action to an in-bounds physical design."""
        u = np.asarray(ratio_action, dtype=np.float64)
        if u.shape != (DESIGN_DIM,):
            raise ValueError(f"ratio action must have shape ({DESIGN_DIM},), got {u.shape}")
        init = np.array(self.length_init, dtype=np.float64)
        raw = DesignVector(
            lengths=tuple(init * (1.0 + u[:NUM_LINKS])),
            angles=tuple(u[NUM_LINKS:] * self.angle_scale),
        )
        return clamp_design(raw, self.bounds)

    def ratio_of(self, design: DesignVector) -> np.ndarray:
        """Inverse of realize for in-bounds designs (used for observation echo)."""
        init = np.array(self.length_init, dtype=np.float64)
        u_len = np.array(design.lengths, dtype=np.float64) / init - 1.0
        u_ang = np.array(design.angles, dtype=np.float64) / self.angle_scale
        return np.concatenate([u_len, u_ang])


def clamp_design(raw: DesignVector, bounds: DesignBounds) -> DesignVector:
    """Project a design vector onto the bounds box, component-wise."""
    arr = np.clip(raw.as_array(), bounds.low(), bounds.high())
    return DesignVector.from_array(arr)


@dataclass(frozen=True)
class ToolGeometry:
    """World-space capsule segments of a built tool.

    segments has shape (NUM_LINKS, 2, 2): per link, start and end point. The
    chain starts at the anchor with the given base heading; each joint angle
    is relative to the previous link's direction.
    """

    segments: np.ndarray
    radius: float


def build_tool(design: DesignVector, radius: float = 0.1,
               anchor=(0.0, 0.0), base_angle: float = 0.0) -> ToolGeometry:
    """Forward kinematics: chain links from the anchor, accumulating angles."""
    if radius <= 0.0:
        raise ValueError("capsule radius must be positive")
    segs = np.empty((NUM_LINKS, 2, 2), dtype=np.float64)
    pos = np.array(anchor, dtype=np.float64)
    heading = float(base_angle)
    for i in range(NUM_LINKS):
        if i > 0:
            heading += design.angles[i - 1]
        direction = np.array([math.cos(heading), math.sin(heading)])
        end = pos + design.lengths[i] * direction
        segs[i, 0] = pos
        segs[i, 1] = end
        pos = end
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
