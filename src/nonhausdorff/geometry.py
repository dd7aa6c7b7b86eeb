"""Piecewise-flat metrics on triangulated adjunction systems.

Curvature is concentrated at vertices as angle defects (cone metric), so the
half-total-curvature of any region is the sum of the defects of the vertices
interior to it, and the geodesic-curvature counterterm along a frontier cycle
is pi minus the interior angle sum at each boundary vertex.  These choices
make the glued Gauss-Bonnet ledger an exact identity up to float roundoff;
this is the only module that uses floating point, with a 1e-9 budget.  The
ledger has one row per piece and one per tuple of :func:`adjunction.nerve`:
a tuple outside the nerve has an empty intersection and adds nothing.

:class:`MetricComplex` is defined in :mod:`cells`, so that loading a document
does not load this module, and is re-exported here.  The Euler characteristic
comes from :mod:`cohomology`, which only the Gauss-Bonnet report loads.
"""

from __future__ import annotations

import math
from typing import Sequence

from .adjunction import AdjunctionSystem, NerveTuple, nerve
from .cells import CellComplex, CellSet, CoreAssignment, MetricComplex, first_unclosed_cell, star
from .errors import InvariantError, PreconditionError, ValidationReport

ANGLE_TOLERANCE = 1e-9


def _triangle_corners(mc: MetricComplex, triangle: str) -> dict[str, tuple[str, str, str]]:
    """vertex -> (adjacent edge, adjacent edge, opposite edge) for a triangle."""
    base = mc.base
    edges = sorted(base.faces_of(triangle))
    if len(edges) != 3:
        raise PreconditionError(f"cell {triangle!r} is not a triangle (has {len(edges)} edges)")
    vertex_edges: dict[str, list[str]] = {}
    for edge in edges:
        endpoints = sorted(base.faces_of(edge))
        if len(endpoints) != 2:
            raise PreconditionError(f"edge {edge!r} does not have two endpoints")
        for v in endpoints:
            vertex_edges.setdefault(v, []).append(edge)
    if len(vertex_edges) != 3 or any(len(es) != 2 for es in vertex_edges.values()):
        raise PreconditionError(f"cell {triangle!r} is not a triangle")
    out: dict[str, tuple[str, str, str]] = {}
    for v, (e1, e2) in vertex_edges.items():
        (opposite,) = [e for e in edges if e not in (e1, e2)]
        out[v] = (e1, e2, opposite)
    return out


def corner_angles(mc: MetricComplex, triangle: str) -> dict[str, float]:
    """Law-of-cosines corner angles of one flat triangle, keyed by vertex."""
    corners = _triangle_corners(mc, triangle)
    out: dict[str, float] = {}
    for v, (e1, e2, opposite) in corners.items():
        b, c, a = mc.length(e1), mc.length(e2), mc.length(opposite)
        cos_angle = (b * b + c * c - a * a) / (2.0 * b * c)
        out[v] = math.acos(max(-1.0, min(1.0, cos_angle)))
    total = sum(out.values())
    if not abs(total - math.pi) <= ANGLE_TOLERANCE:
        raise InvariantError(f"corner angles of triangle {triangle!r} sum to {total!r}, not pi")
    return out


def validate_metric(
    system: AdjunctionSystem, metrics: Sequence[MetricComplex] | None
) -> ValidationReport:
    """Triangle inequalities per triangle and exact length equality on glued
    edges, closures included (the isometry condition).  No metrics at all
    (None) is reported like a wrong metric count."""
    report = ValidationReport()
    if metrics is None or len(metrics) != system.n():
        report.add("metric-count", "system", "need one metric per piece")
        return report
    for idx, mc in enumerate(metrics):
        name = system.names[idx]
        if mc.base is not system.pieces[idx]:
            report.add("metric-base", name, "metric is not attached to the piece complex")
        for edge in mc.base.cells_of_dim(1):
            length = mc.edge_lengths.get(edge)
            if length is None:
                report.add("edge-length-missing", f"{name}/{edge}", "no length")
            elif not length > 0:
                report.add("edge-length-positive", f"{name}/{edge}", f"length {length} <= 0")
        for tri in mc.base.cells_of_dim(2):
            try:
                _triangle_corners(mc, tri)
            except PreconditionError as exc:
                report.add("triangulation", f"{name}/{tri}", str(exc))
                continue
            sides = sorted(mc.edge_lengths.get(e, 0.0) for e in mc.base.faces_of(tri))
            if not sides[0] + sides[1] > sides[2]:
                report.add(
                    "triangle-inequality",
                    f"{name}/{tri}",
                    f"side lengths {sides} are degenerate",
                )
    for (i, j) in system.ordered_pairs():
        if i >= j:
            continue
        gm = system.gluing(i, j)
        if gm is None:
            continue
        for cell, image in sorted(gm.closure_forward.items()):
            if system.pieces[i].dims.get(cell) != 1:
                continue
            left = metrics[i].edge_lengths.get(cell)
            right = metrics[j].edge_lengths.get(image)
            if left is not None and right is not None and left != right:
                report.add(
                    "isometry",
                    f"map({system.names[i]},{system.names[j]}):{cell}",
                    f"glued edge lengths differ: {left} vs {right}",
                )
    return report


def _require_closed_surfaces(system: AdjunctionSystem) -> None:
    for idx, piece in enumerate(system.pieces):
        if piece.top_dimension != 2:
            raise PreconditionError(f"piece {system.names[idx]} is not 2-dimensional")
        edge = first_unclosed_cell(piece, 2)
        if edge is not None:
            raise PreconditionError(f"piece {system.names[idx]} is not a closed surface at edge {edge!r}")


def _piece_angles(metrics: Sequence[MetricComplex]) -> list[dict[str, dict[str, float]]]:
    """triangle -> corner angles, per piece; each triangle is measured once."""
    return [{tri: corner_angles(mc, tri) for tri in mc.base.cells_of_dim(2)} for mc in metrics]


def _piece_angle_sums(
    metrics: Sequence[MetricComplex], angles: Sequence[dict[str, dict[str, float]]]
) -> list[dict[str, float]]:
    sums: list[dict[str, float]] = []
    for mc, piece_angles in zip(metrics, angles):
        acc = {v: 0.0 for v in mc.base.cells_of_dim(0)}
        for corners in piece_angles.values():
            for v, angle in corners.items():
                acc[v] += angle
        sums.append(acc)
    return sums


def _interior_vertices(piece: CellComplex, domain: CellSet) -> set[str]:
    out = set()
    for v in domain.members_of_dim(0):
        if star(CellSet.of(piece, [v])).members <= domain.members:
            out.add(v)
    return out


def _domain_angle_sums(piece_angles: dict[str, dict[str, float]], domain: CellSet) -> dict[str, float]:
    acc = {v: 0.0 for v in domain.members_of_dim(0)}
    for tri in domain.members_of_dim(2):
        for v, angle in piece_angles[tri].items():
            if v in acc:
                acc[v] += angle
    return acc


class CurvatureLedger:
    """Angle defects per vertex of each piece, and turning angles along the
    frontier cycles of the intersection closure of each nerve tuple."""

    __slots__ = ("piece_defects", "piece_totals", "tuple_interior_totals", "turning_angles", "tuple_turning_totals")

    def __init__(
        self,
        piece_defects: list[dict[str, float]],
        piece_totals: list[float],
        tuple_interior_totals: dict[tuple[int, ...], float],
        turning_angles: dict[tuple[int, ...], dict[str, float]],
        tuple_turning_totals: dict[tuple[int, ...], float],
    ):
        self.piece_defects = piece_defects
        self.piece_totals = piece_totals
        self.tuple_interior_totals = tuple_interior_totals
        self.turning_angles = turning_angles
        self.tuple_turning_totals = tuple_turning_totals


def curvature_ledger(
    system: AdjunctionSystem,
    metrics: Sequence[MetricComplex],
    *,
    entries: list[NerveTuple] | None = None,
) -> CurvatureLedger:
    """Defect 2*pi - (angle sum) at every vertex of every piece (doubled
    frontier vertices count once per copy, inside their own piece) and
    turning angle pi - (angle sum inside) at every boundary vertex of every
    closed intersection domain.  The tuple keys are those of :func:`nerve`,
    in its order; a visited tuple with an empty intersection has zero totals,
    and every tuple left out has an empty domain.  ``entries``, for a caller
    that has walked the nerve already, must be ``nerve(system)``."""
    validate_metric(system, metrics).require("curvature_ledger")
    _require_closed_surfaces(system)
    angles = _piece_angles(metrics)
    angle_sums = _piece_angle_sums(metrics, angles)

    piece_defects: list[dict[str, float]] = []
    for idx in range(system.n()):
        piece_defects.append({v: 2.0 * math.pi - s for v, s in sorted(angle_sums[idx].items())})
    piece_totals = [sum(d.values()) for d in piece_defects]

    tuple_interior_totals: dict[tuple[int, ...], float] = {}
    turning_angles: dict[tuple[int, ...], dict[str, float]] = {}
    tuple_turning_totals: dict[tuple[int, ...], float] = {}
    for entry in nerve(system) if entries is None else entries:
        tup, ref, domain = entry.tup, entry.tup[0], entry.closed
        inside = _interior_vertices(system.pieces[ref], domain)
        tuple_interior_totals[tup] = sum((piece_defects[ref][v] for v in sorted(inside)), 0.0)
        inside_sums = _domain_angle_sums(angles[ref], domain)
        turnings = {
            v: math.pi - inside_sums[v]
            for v in sorted(domain.members_of_dim(0))
            if v not in inside
        }
        turning_angles[tup] = turnings
        tuple_turning_totals[tup] = sum(turnings.values(), 0.0)

    return CurvatureLedger(
        piece_defects=piece_defects,
        piece_totals=piece_totals,
        tuple_interior_totals=tuple_interior_totals,
        turning_angles=turning_angles,
        tuple_turning_totals=tuple_turning_totals,
    )


class GaussBonnetRow:
    """One ledger row: a piece or nerve tuple, its inclusion-exclusion sign,
    its interior angle defect and its frontier turning."""

    __slots__ = ("tup", "sign", "interior_defect", "turning")

    def __init__(self, tup: tuple[int, ...], sign: int, interior_defect: float, turning: float):
        self.tup = tup
        self.sign = sign
        self.interior_defect = interior_defect
        self.turning = turning


class GaussBonnetReport:
    __slots__ = ("chi", "lhs", "curvature_half_integral", "counterterms", "rhs", "residual", "rows", "ledger")

    def __init__(
        self,
        chi: int,
        lhs: float,
        curvature_half_integral: float,
        counterterms: float,
        rhs: float,
        residual: float,
        rows: list[GaussBonnetRow],
        ledger: CurvatureLedger,
    ):
        self.chi = chi
        self.lhs = lhs
        self.curvature_half_integral = curvature_half_integral
        self.counterterms = counterterms
        self.rhs = rhs
        self.residual = residual
        self.rows = rows
        self.ledger = ledger


def gauss_bonnet_report(
    system: AdjunctionSystem,
    metrics: Sequence[MetricComplex],
    cores: CoreAssignment | None = None,
) -> GaussBonnetReport:
    """lhs = 2*pi*chi (chi by inclusion-exclusion over cores); rhs assembles
    the inclusion-exclusion of angle defects plus the alternating
    turning-angle counterterms.  The contract is |lhs - rhs| <= 1e-9."""
    from .cohomology import euler_inclusion_exclusion

    entries = nerve(system)
    ledger = curvature_ledger(system, metrics, entries=entries)
    chi = euler_inclusion_exclusion(system, cores, entries=entries)
    lhs = 2.0 * math.pi * chi

    curvature = sum(ledger.piece_totals)
    counterterms = 0.0
    rows: list[GaussBonnetRow] = []
    for i, total in enumerate(ledger.piece_totals):
        rows.append(GaussBonnetRow((i,), 1, total, 0.0))
    for tup in ledger.tuple_interior_totals:
        sign = (-1) ** (len(tup) + 1)
        curvature += sign * ledger.tuple_interior_totals[tup]
        counterterms += sign * ledger.tuple_turning_totals[tup]
        rows.append(
            GaussBonnetRow(
                tup, sign, ledger.tuple_interior_totals[tup], ledger.tuple_turning_totals[tup]
            )
        )
    rhs = curvature + counterterms
    return GaussBonnetReport(
        chi=chi,
        lhs=lhs,
        curvature_half_integral=curvature,
        counterterms=counterterms,
        rhs=rhs,
        residual=lhs - rhs,
        rows=rows,
        ledger=ledger,
    )
