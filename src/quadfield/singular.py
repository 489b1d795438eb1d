"""Critical points of the guiding field and valences of interior/corner nodes.

Interior zeros come from one lockstep Newton solve of u = v = 0 in the
reference coordinates of every element at once (RefTriangle.invert_maps, the
solver point location uses too); an element yields None when its iteration
fails or its root lies outside it.  The roots are deduplicated and classified
by counting phase jumps around a small circle.  Corner valences combine the
one-sided boundary phases with the same jump counting along an interior arc.
Both contours are fitted by _fit_contour, which reads each candidate once
with one batch call (eval_v_many) and hands the fitted contour's values on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError
from .field import HALF_PI, OUTSIDE, psi_of
from .geometry import as_points, boundary_field, typed

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
NEWTON_SLACK = 1e-6
CIRCLE_SAMPLES = 64
ARC_SAMPLES = 32
ARC_ENDPOINT_GAP = 1e-3
RADIUS_FACTOR = 0.25
VALENCE_RESIDUAL_TOL = 0.2


@dataclass
class CriticalPoint:
    position: np.ndarray
    elem: int
    xi: np.ndarray
    vmag: float
    index: int = 0            # I_c
    valence: int = 4
    radius: float = 0.0


@dataclass
class CornerNode:
    corner: object            # CornerSpec
    corner_id: int
    index: float = 0.0        # I(theta_0, theta_f)
    valence: int = 0
    dpsi: float = 0.0
    residual: float = 0.0
    radius: float = 0.0


def interior_roots(solution):
    """A CriticalPoint for each element whose Newton root lies inside it, in id order."""
    mesh = solution.mesh
    xis, _ = mesh.ref.invert_maps(solution.coeffs, np.zeros(2), NEWTON_TOL,
                                  NEWTON_MAX_ITER, NEWTON_SLACK)
    roots = []
    for e, xi in enumerate(xis):
        if xi is not None:
            val = solution.eval(e, xi)[0]
            roots.append(CriticalPoint(position=mesh.map_to_physical(e, xi)[0], elem=e,
                                       xi=xi, vmag=math.hypot(val[0], val[1])))
    return roots


def _contour(center, c, angles):
    """Points center + c * (cos, sin) of each angle."""
    return center[None, :] + c * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _fit_contour(probe, center, c0, angle_sets):
    """(c, values) of the first contour that lies wholly in the domain, or None.

    values is the (n, 2) array of (u, v) at the contour's points.  Radii c0,
    c0 / 2, ..., c0 / 16 are tried in turn, and at each radius the angle sets
    in their order.
    """
    c = c0
    for _ in range(5):
        for angles in angle_sets:
            vals = probe.eval_v_many(_contour(center, c, angles))
            if all(v is not OUTSIDE for v in vals):
                return c, np.asarray(vals)
        c *= 0.5
    return None


def _circle_angles(samples):
    return 2.0 * math.pi * np.arange(samples) / samples


def count_jumps(us, vs):
    """Signed jump count around a closed contour (positive minus negative)."""
    n = len(us)
    pos = neg = 0
    for i in range(n):
        j = (i + 1) % n
        if us[i] < 0.0 and us[j] < 0.0 and vs[i] * vs[j] < 0.0:
            if vs[j] > vs[i]:
                pos += 1
            else:
                neg += 1
    return pos, neg


def interior_valence(point, probe, c):
    """(I_c, valence) from jump counting on a radius-c circle of CIRCLE_SAMPLES around point."""
    vals = probe.eval_v_many(_contour(point, c, _circle_angles(CIRCLE_SAMPLES)))
    if any(v is OUTSIDE for v in vals):
        raise TopologyError("valence circle leaves the domain")
    return _circle_valence(np.asarray(vals))


def _circle_valence(vals):
    """(I_c, valence) from jump counting on the (u, v) rows of a valence circle."""
    pos, neg = count_jumps(vals[:, 0], vals[:, 1])
    index = neg - pos
    if abs(index) > 1:
        raise TopologyError(
            f"coalesced or spurious critical point (index {index}): refine resolution")
    return index, 4 - index


def classify_critical_points(points, probe):
    """Fill in I_c and valence for deduplicated critical points."""
    for cp in points:
        c0 = RADIUS_FACTOR * probe.mesh.circumradius(cp.elem)
        for other in points:
            if other is not cp:
                d = float(np.hypot(*(cp.position - other.position)))
                c0 = min(c0, 0.45 * d)
        fit = _fit_contour(probe, cp.position, c0, [_circle_angles(CIRCLE_SAMPLES)])
        if fit is None:
            raise TopologyError(f"no valence circle around ({cp.position[0]:.4g}, "
                                f"{cp.position[1]:.4g}) fits in the domain")
        c, vals = fit
        cp.index, cp.valence = _circle_valence(vals)
        cp.radius = c
    return points


def dedup_roots(roots, probe):
    """Cluster roots (in element order) within the local circle radius, keep smallest |v|."""
    kept = []
    for r in roots:
        c = RADIUS_FACTOR * probe.mesh.circumradius(r.elem)
        merged = False
        for k in kept:
            if np.hypot(*(r.position - k.position)) < max(c, k.radius, 1e-14):
                if r.vmag < k.vmag:
                    k.position, k.elem, k.xi, k.vmag = r.position, r.elem, r.xi, r.vmag
                merged = True
                break
        if not merged:
            r.radius = c
            kept.append(r)
    return kept


def find_critical_points(solution, probe):
    """Locate, deduplicate and classify all interior critical points.

    Every element is searched, in one lockstep Newton solve: a sign test on
    quadrature values can miss a root parked next to an element corner, and
    the search is cheap on the coarse background meshes this pipeline uses.
    """
    points = dedup_roots(interior_roots(solution), probe)
    return classify_critical_points(points, probe)


def corner_valence(corner, probe, corner_id=0):
    """Valence of a boundary corner from geometry plus the field phase sweep."""
    th_start, th_end = corner.wedge_angles()
    delta = corner.delta_theta
    bisector = th_start + 0.5 * delta
    pos = corner.position

    # starting radius from the host element at the corner
    eps_probe = 1e-6 * (1.0 + probe.mesh.bbox_diag)
    inward = pos + eps_probe * np.array([math.cos(bisector), math.sin(bisector)])
    loc = probe.locate(inward)
    if loc is OUTSIDE:
        raise TopologyError(f"corner {corner_id}: no element found inside its wedge")
    c0 = RADIUS_FACTOR * probe.mesh.circumradius(loc[0])

    # the gap must absorb boundary curvature: at radius c a curved wall sits
    # O(c * kappa) away from its corner tangent direction; gaps 1e-3 * 2^k up
    # to delta / 8 are tried (1e-3 * 2^31 exceeds any wedge)
    gaps = [ARC_ENDPOINT_GAP * 2.0 ** k for k in range(32)]
    fit = _fit_contour(probe, pos, c0, [np.linspace(th_start + g, th_end - g, ARC_SAMPLES)
                                        for g in gaps if g <= delta / 8.0])
    if fit is None:
        raise TopologyError(f"corner {corner_id}: no interior arc fits in the domain")
    c, vals = fit
    seq = [psi_of(boundary_field(th_start))] + [psi_of(v) for v in vals] + [
        psi_of(boundary_field(corner.theta_in + math.pi))]
    dpsi = sum(math.remainder(seq[i + 1] - seq[i], HALF_PI) for i in range(len(seq) - 1))
    index = dpsi / HALF_PI
    raw = delta / HALF_PI - index
    valence = int(round(raw))
    residual = abs(raw - valence)
    if residual > VALENCE_RESIDUAL_TOL:
        raise TopologyError(
            f"ambiguous corner valence at corner {corner_id}: residual {residual:.3f}")
    return CornerNode(corner=corner, corner_id=corner_id, index=index,
                      valence=valence, dpsi=dpsi, residual=residual, radius=c)


def corner_valences(domain, probe):
    return [corner_valence(c, probe, corner_id=i)
            for i, c in enumerate(domain.corner_inventory())]


def topology_report(critical_points, corner_nodes):
    """JSON-ready diagnostic summary of the detected topology."""
    return {
        "critical_points": [
            {"position": cp.position.tolist(), "element": int(cp.elem),
             "index": int(cp.index), "valence": int(cp.valence),
             "vmag": float(cp.vmag), "radius": float(cp.radius)}
            for cp in critical_points],
        "corners": [
            {"position": cn.corner.position.tolist(),
             "delta_theta": float(cn.corner.delta_theta),
             "index": float(cn.index), "valence": int(cn.valence),
             "dpsi": float(cn.dpsi), "residual": float(cn.residual),
             "radius": float(cn.radius)}
            for cn in corner_nodes],
    }


def topology_from_json(doc, domain, n_elements):
    """(critical points, corner nodes) of a topology.json document of domain,
    whose critical points lie in elements 0 .. n_elements - 1."""
    def integer(c, key):
        return typed(c[key], (int,), key)

    def number(c, key):
        return float(typed(c[key], (int, float), key))

    cps = [CriticalPoint(position=as_points(c["position"], "position"),
                         elem=integer(c, "element"), xi=np.zeros(2), vmag=number(c, "vmag"),
                         index=integer(c, "index"), valence=integer(c, "valence"),
                         radius=number(c, "radius"))
           for c in doc["critical_points"]]
    if not all(0 <= cp.elem < n_elements for cp in cps):
        raise ValueError(f"a critical point element is not in 0 .. {n_elements - 1}")
    corners = domain.corner_inventory()
    if len(doc["corners"]) != len(corners):
        raise ValueError(f"{len(doc['corners'])} corners, the domain has {len(corners)}")
    for c in doc["corners"]:             # kept for the reader: the domain gives them
        as_points(c["position"], "corner position")
        number(c, "delta_theta")
    cns = [CornerNode(corner=corners[i], corner_id=i, index=number(c, "index"),
                      valence=integer(c, "valence"), dpsi=number(c, "dpsi"),
                      residual=number(c, "residual"), radius=number(c, "radius"))
           for i, c in enumerate(doc["corners"])]
    return cps, cns
