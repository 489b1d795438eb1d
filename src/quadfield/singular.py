"""Critical points of the guiding field and valences of interior/corner nodes.

Interior zeros come from one lockstep Newton solve of u = v = 0 in the
reference coordinates of every element at once (RefTriangle.invert_maps, the
solver point location uses too); an element yields None when its iteration
fails or its root lies outside it.  The roots are deduplicated and classified
by counting phase jumps around a small circle.  Corner valences combine the
one-sided boundary phases with the same jump counting along an interior arc.
All circles, and then all corner arcs, are fitted in lockstep by
_fit_contours: each round reads every contour still open, every candidate of
it at the current radius, with one batch call (eval_v_many), and hands the
fitted contour's values on.  All corners' inward probes are one locate_many.
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
    xis, rows = mesh.ref.invert_maps(solution.coeffs, np.zeros(2), NEWTON_TOL,
                                     NEWTON_MAX_ITER, NEWTON_SLACK)
    roots = []
    for e, (xi, row) in enumerate(zip(xis, rows)):
        if xi is not None:
            # the root's basis row from Newton's last step: bitwise basis_at(xi)[0]
            val = (row[None] @ solution.coeffs[e])[0]
            roots.append(CriticalPoint(position=(row[None] @ mesh.geom[e])[0], elem=e,
                                       xi=xi, vmag=math.hypot(val[0], val[1])))
    return roots


def _contour(center, c, angles):
    """Points center + c * (cos, sin) of each angle."""
    return center[None, :] + c * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _fit_contours(probe, contours):
    """(c, values) of each contour that fits wholly in the domain, None for the others.

    contours holds (center, c0, angle sets) triples; a contour with no angle
    set never fits.  A contour's fit is its first candidate, with radii c0,
    c0 / 2, ..., c0 / 16 in turn and at each radius the angle sets in their
    order, whose points all lie in the domain; values is the (n, 2) array of
    (u, v) at those points.  Each round reads every angle set of every
    contour still open, at its current radius, with one eval_v_many: a
    point's location does not depend on its batch, so the candidates a
    one-contour loop would not have reached change no fit.
    """
    fits = [None] * len(contours)
    radii = [c0 for _, c0, _ in contours]
    open_ = [i for i, (_, _, angle_sets) in enumerate(contours) if angle_sets]
    for _ in range(5):
        if not open_:
            break
        vals = probe.eval_v_many(np.concatenate(
            [_contour(contours[i][0], radii[i], angles)
             for i in open_ for angles in contours[i][2]]))
        start = 0
        for i in open_:
            for angles in contours[i][2]:
                part = vals[start:start + len(angles)]
                start += len(angles)
                if fits[i] is None and all(v is not OUTSIDE for v in part):
                    fits[i] = radii[i], np.asarray(part)
            radii[i] *= 0.5
        open_ = [i for i in open_ if fits[i] is None]
    return fits


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
    """Fill in I_c, valence and radius of deduplicated critical points, their
    circles fitted in lockstep; errors are raised in point order."""
    contours = []
    for cp in points:
        c0 = RADIUS_FACTOR * probe.mesh.circumradius(cp.elem)
        for other in points:
            if other is not cp:
                d = float(np.hypot(*(cp.position - other.position)))
                c0 = min(c0, 0.45 * d)
        contours.append((cp.position, c0, [_circle_angles(CIRCLE_SAMPLES)]))
    for cp, fit in zip(points, _fit_contours(probe, contours)):
        if fit is None:
            raise TopologyError(f"no valence circle around ({cp.position[0]:.4g}, "
                                f"{cp.position[1]:.4g}) fits in the domain")
        c, vals = fit
        cp.index, cp.valence = _circle_valence(vals)
        cp.radius = float(c)              # as topology_from_json reads it
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
    return _corner_nodes([corner], probe, corner_id)[0]


def corner_valences(domain, probe):
    return _corner_nodes(domain.corner_inventory(), probe)


def _corner_nodes(corners, probe, first_id=0):
    """CornerNode of each corner, numbered from first_id, in lockstep.

    Every inward probe goes into one locate_many, and every corner's gap
    arcs into _fit_contours.  Errors are raised as a one-corner loop raises
    them: lowest corner first, and within a corner the inward probe, the arc
    fit, psi_of, then an ambiguous valence.
    """
    # starting radius from the host element at the corner
    eps_probe = 1e-6 * (1.0 + probe.mesh.bbox_diag)
    wedges = [c.wedge_angles() for c in corners]
    bisectors = [th_start + 0.5 * c.delta_theta for c, (th_start, _) in zip(corners, wedges)]
    locs = probe.locate_many([c.position + eps_probe * np.array([math.cos(b), math.sin(b)])
                              for c, b in zip(corners, bisectors)])
    # the gap must absorb boundary curvature: at radius c a curved wall sits
    # O(c * kappa) away from its corner tangent direction; gaps 1e-3 * 2^k up
    # to delta / 8 are tried (1e-3 * 2^31 exceeds any wedge)
    gaps = [ARC_ENDPOINT_GAP * 2.0 ** k for k in range(32)]
    contours = []
    for corner, (th_start, th_end), loc in zip(corners, wedges, locs):
        contours.append((corner.position, 0.0, []) if loc is OUTSIDE else (
            corner.position, RADIUS_FACTOR * probe.mesh.circumradius(loc[0]),
            [np.linspace(th_start + g, th_end - g, ARC_SAMPLES)
             for g in gaps if g <= corner.delta_theta / 8.0]))
    nodes = []
    for corner_id, (corner, loc, fit) in enumerate(
            zip(corners, locs, _fit_contours(probe, contours)), first_id):
        if loc is OUTSIDE:
            raise TopologyError(f"corner {corner_id}: no element found inside its wedge")
        if fit is None:
            raise TopologyError(f"corner {corner_id}: no interior arc fits in the domain")
        nodes.append(_corner_node(corner, corner_id, *fit))
    return nodes


def _corner_node(corner, corner_id, c, vals):
    """CornerNode from the (u, v) values of the corner's radius-c interior arc."""
    th_start = corner.wedge_angles()[0]
    delta = corner.delta_theta
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
                      valence=valence, dpsi=dpsi, residual=residual, radius=float(c))


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
