"""SVG dumps: streamlines over the phase field, and colored block layouts."""

from __future__ import annotations

import math

import numpy as np

from .field import CRITICAL_EPS
from .vtkio import _sample_elements

_CANVAS = 900.0


class _Frame:
    def __init__(self, lo, hi, margin=20.0):
        span = max(hi[0] - lo[0], hi[1] - lo[1])
        self.scale = (_CANVAS - 2 * margin) / span
        self.lo = lo
        self.margin = margin
        self.height = (hi[1] - lo[1]) * self.scale + 2 * margin

    def xy(self, points):
        """(n, 2) canvas coordinates of (n, 2) points, y pointing down."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.stack([self.margin + (points[:, 0] - self.lo[0]) * self.scale,
                         self.height - (self.margin + (points[:, 1] - self.lo[1]) * self.scale)],
                        axis=1)

    def text(self, points):
        """"x,y x,y ..." of points on the canvas, two decimals each."""
        return " ".join(["%.2f,%.2f"] * len(points)) % tuple(self.xy(points).ravel().tolist())


def _psi_color(psi):
    """Periodic hue over the principal phase quarter-turn."""
    t = (psi + math.pi / 4) / (math.pi / 2)
    r = int(85 + 140 * math.sin(math.pi * t) ** 2)
    g = int(85 + 140 * math.sin(math.pi * (t + 1.0 / 3.0)) ** 2)
    b = int(85 + 140 * math.sin(math.pi * (t + 2.0 / 3.0)) ** 2)
    return f"rgb({r},{g},{b})"


def write_svg_streamlines(path, solution, separatrices, critical_points=()):
    """Traced separatrices over a phase-colored background."""
    mesh = solution.mesh
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    fr = _Frame(lo, hi)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
           f'height="{fr.height:.0f}">']
    (xy, uv), cells = _sample_elements(mesh, max(2, mesh.order), solution.coeffs)
    uc = (uv[cells[:, 0]] + uv[cells[:, 1]] + uv[cells[:, 2]]) / 3.0
    table = []
    for corners, (u, v) in zip(fr.xy(xy)[cells].reshape(-1, 6).tolist(),
                               uc[:, [0, -1]].tolist()):
        table += corners
        table.append("#cccccc" if math.hypot(u, v) < CRITICAL_EPS else
                     _psi_color(0.25 * math.atan2(v, u)))
    out.append("\n".join(['<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="%s" '
                           'stroke="none"/>'] * len(cells)) % tuple(table))
    for s in separatrices:
        out.append(f'<polyline points="{fr.text(s.points)}" fill="none" stroke="black" '
                   'stroke-width="2.5"/>')
    for cp in critical_points:
        x, y = fr.text([cp.position]).split(",")
        out.append(f'<circle cx="{x}" cy="{y}" r="6" fill="white" '
                   'stroke="red" stroke-width="2.5"/>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


_BLOCK_FILLS = ("#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
                "#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd")


def write_svg_blocks(path, sub, faces, irregular_keys=()):
    """Block faces with distinct fills; irregular nodes circled."""
    all_pts = np.vstack([f.polygon for f in faces])
    fr = _Frame(all_pts.min(axis=0), all_pts.max(axis=0))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
           f'height="{fr.height:.0f}">']
    for i, f in enumerate(faces):
        fill = _BLOCK_FILLS[i % len(_BLOCK_FILLS)]
        out.append(f'<polygon points="{fr.text(f.polygon)}" fill="{fill}" stroke="black" '
                   'stroke-width="1.5"/>')
    for key in irregular_keys:
        x, y = fr.text([sub.vertices[key].position]).split(",")
        out.append(f'<circle cx="{x}" cy="{y}" r="7" fill="none" stroke="red" '
                   'stroke-width="3"/>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")
