"""The data classes keep the semantics they had as dataclasses.

``ValidationIssue`` and ``HausdorffPair`` compare and hash by value, and
``ValidationReport`` compares by its issues; every other class compares by
identity and, except ``NerveTuple``, has ``__slots__``.  ``CellSet`` still
rejects cells its owner does not have, and ``CellComplex`` derives its
cofaces as the reference in oracle.py does.
"""

from __future__ import annotations

import json

import pytest

import oracle
from nonhausdorff.adjunction import (
    AdjunctionSystem,
    CellClasses,
    GluingMap,
    HausdorffPair,
    NerveTuple,
    glued_cell_classes,
    nerve,
)
from nonhausdorff.cells import CellComplex, CellSet, CoreAssignment, MetricComplex, Orientation
from nonhausdorff.errors import ValidationIssue, ValidationReport
from nonhausdorff.fixtures import FIXTURE_BUILDERS
from nonhausdorff.geometry import CurvatureLedger, GaussBonnetReport, GaussBonnetRow, gauss_bonnet_report
from nonhausdorff.schema import LoadedSystem, parse_document

from conftest import FIXTURES_DIR


def test_validation_issues_compare_and_hash_by_value():
    a, b = ValidationIssue("A3", "x", "m"), ValidationIssue("A3", "x", "m")
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    for other in (ValidationIssue("A2", "x", "m"), ValidationIssue("A3", "y", "m"), ValidationIssue("A3", "x", "n")):
        assert a != other
    assert a != ("A3", "x", "m")


def test_hausdorff_pairs_compare_and_hash_by_value():
    a, b = HausdorffPair((0, "v"), (1, "w")), HausdorffPair((0, "v"), (1, "w"))
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != HausdorffPair((1, "w"), (0, "v"))
    assert a != ((0, "v"), (1, "w"))


def test_validation_reports_compare_by_their_issues():
    left, right = ValidationReport(), ValidationReport()
    assert left == right and left.issues is not right.issues
    left.add("A3", "x", "m")
    assert left != right
    right.add("A3", "x", "m")
    assert left == right
    assert ValidationReport([ValidationIssue("A3", "x", "m")]) == left
    with pytest.raises(TypeError):
        hash(left)


def identity_instances(fx) -> list[tuple[object, object]]:
    """Two instances built from equal arguments, per identity-compared class."""
    system, piece = fx.system, fx.system.pieces[0]
    gm = system.maps[(0, 1)]
    classes = glued_cell_classes(system)
    entry = nerve(system)[0]
    report = gauss_bonnet_report(system, fx.metrics, fx.cores)
    ledger = report.ledger
    row = report.rows[0]

    def twice(cls, *args):
        return cls(*args), cls(*args)

    return [
        twice(CellComplex, piece.dims, piece.faces, piece.top_dimension),
        twice(CellSet, piece, frozenset(piece.dims)),
        twice(Orientation, system.orientations[0].signs),
        twice(CoreAssignment, fx.cores.cores),
        twice(MetricComplex, fx.metrics[0].base, fx.metrics[0].edge_lengths),
        twice(GluingMap, gm.source_piece, gm.target_piece, gm.source, gm.target, gm.forward, gm.closure_forward),
        twice(CellClasses, classes.classes, classes.index),
        twice(AdjunctionSystem, system.pieces, system.names, system.regions, system.maps, system.orientations),
        twice(NerveTuple, entry.tup, entry.domain, entry.closure_meet),
        twice(LoadedSystem, fx.name, system, fx.cores, fx.metrics),
        twice(
            CurvatureLedger, ledger.piece_defects, ledger.piece_totals, ledger.tuple_interior_totals,
            ledger.turning_angles, ledger.tuple_turning_totals,
        ),
        twice(GaussBonnetRow, row.tup, row.sign, row.interior_defect, row.turning),
        twice(
            GaussBonnetReport, report.chi, report.lhs, report.curvature_half_integral, report.counterterms,
            report.rhs, report.residual, report.rows, ledger,
        ),
    ]


def test_other_classes_compare_by_identity_and_have_slots():
    pairs = identity_instances(FIXTURE_BUILDERS["glued_tori"]())
    assert len({type(a) for a, _ in pairs}) == 13
    for a, b in pairs:
        assert a == a and a != b and hash(a) != hash(b), type(a).__name__
        assert len({a, b}) == 2
        if isinstance(a, NerveTuple):
            assert a.closed.members == b.closed.members  # the cached closure lives in the instance dict
        else:
            assert not hasattr(a, "__dict__"), type(a).__name__


def test_cell_set_rejects_cells_outside_its_owner():
    piece = CellComplex.build([("v", 0), ("e", 1)], {"e": {"v": 1}})
    assert CellSet.of(piece, ["v"]).members == {"v"}
    with pytest.raises(ValueError, match=r"cells not in owner complex: \['w', 'x'\]"):
        CellSet.of(piece, ["x", "v", "w"])


def all_pieces() -> list[CellComplex]:
    pieces = [p for builder in FIXTURE_BUILDERS.values() for p in builder().system.pieces]
    for path in sorted(FIXTURES_DIR.glob("*.json")):
        pieces += parse_document(json.loads(path.read_text(encoding="utf-8"))).system.pieces
    return pieces


def test_cofaces_match_the_reference_on_every_fixture():
    pieces = all_pieces()
    assert len(pieces) >= 28
    for piece in pieces:
        got = piece.cofaces
        want = oracle.cofaces(piece)
        assert [(c, list(row.items())) for c, row in got.items()] == [(c, list(row.items())) for c, row in want.items()]
    # rows of missing cells and faces of missing cells are tolerated, not transposed
    ghost = CellComplex.build([("v", 0), ("e", 1)], {"e": {"v": 1, "w": -1}, "ghost": {"v": 1}})
    assert ghost.cofaces == oracle.cofaces(ghost) == {"v": {"e": 1, "ghost": 1}, "e": {}}


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_gluing_map_inverse_round_trips(name):
    for gm in FIXTURE_BUILDERS[name]().system.maps.values():
        back = gm.inverse().inverse()
        assert (back.source_piece, back.target_piece) == (gm.source_piece, gm.target_piece)
        assert back.source is gm.source and back.target is gm.target
        assert back.forward == gm.forward and back.closure_forward == gm.closure_forward
