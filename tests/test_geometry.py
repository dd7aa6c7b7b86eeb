import math
import re

import pytest

import oracle
from nonhausdorff.adjunction import AdjunctionSystem, closed_intersection, nerve
from nonhausdorff.cells import euler_characteristic
from nonhausdorff.cohomology import euler_inclusion_exclusion
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import (
    glued_icosahedra,
    glued_tori,
    icosahedron_complex,
    torus_complex,
)
from nonhausdorff.geometry import (
    MetricComplex,
    corner_angles,
    curvature_ledger,
    gauss_bonnet_report,
    validate_metric,
)

TOL = 1e-9


def triangle_metric(a: float, b: float, c: float) -> tuple[MetricComplex, str]:
    from nonhausdorff.cells import CellComplex

    complex_ = CellComplex.build(
        [("x", 0), ("y", 0), ("z", 0), ("xy", 1), ("yz", 1), ("zx", 1), ("t", 2)],
        {
            "xy": {"x": -1, "y": 1},
            "yz": {"y": -1, "z": 1},
            "zx": {"z": -1, "x": 1},
            "t": {"xy": 1, "yz": 1, "zx": 1},
        },
    )
    return MetricComplex(complex_, {"xy": a, "yz": b, "zx": c}), "t"


def test_corner_angles_equilateral():
    mc, t = triangle_metric(1, 1, 1)
    angles = sorted(corner_angles(mc, t).values())
    for angle in angles:
        assert abs(angle - math.pi / 3) < TOL
    assert abs(sum(angles) - math.pi) < TOL


def test_corner_angles_right_triangle():
    mc, t = triangle_metric(3, 4, 5)
    angles = sorted(corner_angles(mc, t).values())
    assert abs(angles[-1] - math.pi / 2) < TOL
    assert abs(sum(angles) - math.pi) < TOL


def test_corner_angles_isoceles():
    mc, t = triangle_metric(1, 1, math.sqrt(2))
    angles = sorted(corner_angles(mc, t).values())
    assert abs(angles[0] - math.pi / 4) < TOL
    assert abs(angles[1] - math.pi / 4) < TOL
    assert abs(angles[2] - math.pi / 2) < TOL


def test_validate_metric_accepts_fixtures():
    for fx in (glued_icosahedra(), glued_tori()):
        assert validate_metric(fx.system, fx.metrics).ok


def test_validate_metric_flags_isometry_violation():
    fx = glued_icosahedra()
    broken = dict(fx.metrics[1].edge_lengths)
    edge = sorted(fx.system.region(0, 1).members_of_dim(1))[0]
    broken[edge] = 2.0
    metrics = [fx.metrics[0], MetricComplex(fx.system.pieces[1], broken)]
    report = validate_metric(fx.system, metrics)
    assert any(issue.rule == "isometry" for issue in report.issues)


def test_validate_metric_flags_degenerate_triangle():
    mc, _ = triangle_metric(1, 1, 2)
    system = AdjunctionSystem.assemble([mc.base])
    report = validate_metric(system, [mc])
    assert any(issue.rule == "triangle-inequality" for issue in report.issues)


def single_piece_system(complex_):
    from nonhausdorff.cells import Orientation

    orientation = Orientation({c: 1 for c in complex_.cells_of_dim(2)})
    return AdjunctionSystem.assemble([complex_], orientations=[orientation])


def test_icosahedron_defects():
    ico = icosahedron_complex()
    system = single_piece_system(ico)
    metric = MetricComplex(ico, {e: 1.0 for e in ico.cells_of_dim(1)})
    ledger = curvature_ledger(system, [metric])
    defects = list(ledger.piece_defects[0].values())
    assert len(defects) == 12
    for defect in defects:
        assert abs(defect - math.pi / 3) < TOL
    assert abs(ledger.piece_totals[0] - 4 * math.pi) < TOL


def test_flat_torus_has_zero_ledger():
    torus = torus_complex()
    system = single_piece_system(torus)
    lengths = {}
    for e in torus.cells_of_dim(1):
        lengths[e] = math.sqrt(2.0) if e.startswith("d") else 1.0
    ledger = curvature_ledger(system, [MetricComplex(torus, lengths)])
    assert abs(ledger.piece_totals[0]) < TOL
    for defect in ledger.piece_defects[0].values():
        assert abs(defect) < TOL


def test_curvature_ledger_requires_closed_surface():
    from nonhausdorff.fixtures import two_squares

    fx = two_squares()
    metrics = [
        MetricComplex(p, {e: 1.0 for e in p.cells_of_dim(1)}) for p in fx.system.pieces
    ]
    with pytest.raises(PreconditionError):
        curvature_ledger(fx.system, metrics)


def test_glued_icosahedra_turning_angles():
    fx = glued_icosahedra()
    ledger = curvature_ledger(fx.system, fx.metrics)
    turnings = ledger.turning_angles[(0, 1)]
    assert len(turnings) == 5  # the link of the shared vertex is a 5-cycle
    for value in turnings.values():
        assert abs(value - math.pi / 3) < TOL


def test_subcomplex_gauss_bonnet_with_boundary():
    # interior defects + boundary turnings = 2 pi chi(subcomplex)
    for fx in (glued_icosahedra(), glued_tori()):
        ledger = curvature_ledger(fx.system, fx.metrics)
        for tup in oracle.normalized_tuples(fx.system.n()):
            domain = closed_intersection(fx.system, tup)
            if not domain.members:
                continue
            total = ledger.tuple_interior_totals[tup] + ledger.tuple_turning_totals[tup]
            chi = euler_characteristic(domain)
            assert abs(total - 2 * math.pi * chi) < TOL


def test_gauss_bonnet_single_surface():
    ico = icosahedron_complex()
    system = single_piece_system(ico)
    metric = MetricComplex(ico, {e: 1.0 for e in ico.cells_of_dim(1)})
    report = gauss_bonnet_report(system, [metric])
    assert report.chi == 2
    assert abs(report.counterterms) == 0
    assert abs(report.residual) < TOL
    assert abs(report.curvature_half_integral - 4 * math.pi) < TOL


def test_gauss_bonnet_glued_icosahedra():
    fx = glued_icosahedra()
    report = gauss_bonnet_report(fx.system, fx.metrics, fx.cores)
    assert report.chi == 3
    assert abs(report.lhs - 6 * math.pi) < TOL
    assert abs(report.residual) < TOL


def test_gauss_bonnet_glued_tori():
    fx = glued_tori()
    report = gauss_bonnet_report(fx.system, fx.metrics, fx.cores)
    assert report.chi == 0
    assert report.lhs == 0
    assert abs(report.residual) < TOL
    # every turning angle vanishes on the straight grid boundary
    for value in report.ledger.turning_angles[(0, 1)].values():
        assert abs(value) < TOL


def test_scale_invariance():
    fx = glued_icosahedra()
    before = gauss_bonnet_report(fx.system, fx.metrics, fx.cores)
    scaled = [
        MetricComplex(mc.base, {e: 2.5 * v for e, v in mc.edge_lengths.items()})
        for mc in fx.metrics
    ]
    after = gauss_bonnet_report(fx.system, scaled, fx.cores)
    assert after.chi == before.chi
    assert abs(after.rhs - before.rhs) < TOL
    assert abs(after.residual) < TOL
    ledger_before = curvature_ledger(fx.system, fx.metrics)
    ledger_after = curvature_ledger(fx.system, scaled)
    for before_defects, after_defects in zip(ledger_before.piece_defects, ledger_after.piece_defects):
        assert before_defects.keys() == after_defects.keys()
        for vertex, value in before_defects.items():
            assert abs(after_defects[vertex] - value) < TOL


def test_euler_inclusion_exclusion_matches_gauss_bonnet_chi():
    fx = glued_icosahedra()
    assert euler_inclusion_exclusion(fx.system, fx.cores) == 3


def test_gauss_bonnet_measures_each_triangle_once(monkeypatch):
    # torus_pair(12): two 12x13 grid tori, 312 triangles each; the glued
    # annulus's triangles are not measured again, and the corner table that
    # the metric check builds for each triangle is the one the angles read
    import nonhausdorff.geometry as geometry
    from conftest import torus_pair

    fx = torus_pair(12)
    lengths = {}
    for edge in fx.system.pieces[0].cells_of_dim(1):
        lengths[edge] = math.sqrt(2.0) if edge.startswith("d") else 1.0
    metrics = [MetricComplex(piece, dict(lengths)) for piece in fx.system.pieces]
    calls: dict[str, list[str]] = {"_triangle_corners": [], "_angles": []}
    for name, seen in calls.items():
        real = getattr(geometry, name)

        def counting(mc, triangle, *rest, real=real, seen=seen):
            seen.append(triangle)
            return real(mc, triangle, *rest)

        monkeypatch.setattr(geometry, name, counting)
    report = gauss_bonnet_report(fx.system, metrics, fx.cores)
    triangles = sum(len(p.cells_of_dim(2)) for p in fx.system.pieces)
    assert len(calls["_triangle_corners"]) == len(calls["_angles"]) == 624 == triangles
    assert report.chi == 0
    assert abs(report.residual) < TOL


def test_ledger_and_report_follow_the_nerve():
    # the chain's ends I1 and I3 do not meet: (I1,I3) and (I1,I2,I3) have no row
    from conftest import icosahedron_chain

    for fx in (glued_tori(), glued_icosahedra(), icosahedron_chain()):
        tuples = [entry.tup for entry in nerve(fx.system)]
        ledger = curvature_ledger(fx.system, fx.metrics)
        assert list(ledger.tuple_interior_totals) == tuples
        assert list(ledger.turning_angles) == tuples
        assert list(ledger.tuple_turning_totals) == tuples
        report = gauss_bonnet_report(fx.system, fx.metrics, fx.cores)
        assert [row.tup for row in report.rows] == [(i,) for i in range(fx.system.n())] + tuples
        assert abs(report.residual) < TOL
    assert tuples == [(0, 1), (1, 2)]
    assert report.chi == 4


def test_missing_metrics_are_a_wrong_metric_count():
    fx = glued_icosahedra()
    report = validate_metric(fx.system, None)
    assert [(issue.rule, issue.location) for issue in report.issues] == [("metric-count", "system")]
    message = "validation failed (1 issue(s)); first: [metric-count] system: need one metric per piece"
    with pytest.raises(PreconditionError, match=r"^curvature_ledger: " + re.escape(message)):
        curvature_ledger(fx.system, None)
    with pytest.raises(PreconditionError, match=r"^curvature_ledger: " + re.escape(message)):
        gauss_bonnet_report(fx.system, None, fx.cores)
