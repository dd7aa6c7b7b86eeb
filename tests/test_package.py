"""The package surface: the public names, their lazy lookup, and no ``assert``.

``import nonhausdorff`` loads no submodule; each public name is looked up in
its submodule on access.  The names below are the package's public API and
change only on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import nonhausdorff
from nonhausdorff import cells, cochains, cohomology, geometry

SRC = Path(__file__).resolve().parent.parent / "src" / "nonhausdorff"

PUBLIC_NAMES = [
    "AdjunctionSystem", "Bicomplex", "CellClasses", "CellComplex", "CellSet", "Chain",
    "Cochain", "CompareReport", "CoreAssignment", "CurvatureLedger", "Flavor",
    "FreeComplex", "GaussBonnetReport", "GlobalCochain", "GluingMap", "HausdorffPair",
    "IncompatibleCochainError", "InvariantError", "MetricComplex", "NonHausdorffError",
    "Orientation", "PreconditionError", "SchemaError", "ValidationReport", "adjunction",
    "assemble_global", "betti", "boundary_chain", "build_bicomplex", "cells",
    "closed_intersection", "closure", "closure_intersection_check", "coboundary",
    "coboundary_global", "cochains", "cohomology", "complex_betti", "connected_components",
    "corner_angles", "curvature_ledger", "de_rham_compare", "errors", "euler_characteristic",
    "euler_inclusion_exclusion", "extend_by_zero", "frontier", "gauss_bonnet_report",
    "geometry", "global_complex_betti", "glued_cell_classes", "hausdorff_pairs", "integrate",
    "integrate_over_chain", "interior", "linalg", "make_chain", "mv_report", "nerve",
    "open_intersection", "quotient_complex", "regular_open_check", "row_exactness_check",
    "star", "stokes_defect", "total_betti", "validate_complex", "validate_metric",
    "validate_system",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 69
    assert sorted(nonhausdorff.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in nonhausdorff.__all__:
        assert getattr(nonhausdorff, name) is not None, name
    namespace: dict = {}
    exec("from nonhausdorff import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nonhausdorff.__all__)


def test_dir_lists_public_names_and_unknown_names_raise():
    assert set(nonhausdorff.__all__) <= set(dir(nonhausdorff))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nonhausdorff.no_such_name


def test_lookup_reads_the_current_binding(monkeypatch):
    def wrapped(*args):
        return None

    monkeypatch.setattr(cochains, "integrate", wrapped)
    assert nonhausdorff.integrate is wrapped
    monkeypatch.undo()
    assert nonhausdorff.integrate is cochains.integrate


def test_moved_data_classes_keep_their_old_paths():
    assert cohomology.CoreAssignment is cells.CoreAssignment
    assert geometry.MetricComplex is cells.MetricComplex
    assert nonhausdorff.CoreAssignment is cells.CoreAssignment
    assert nonhausdorff.MetricComplex is cells.MetricComplex


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_assert(path):
    # python -O strips assert statements, so no check may rely on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"
