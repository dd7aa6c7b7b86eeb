"""Non-Hausdorff gluings of finite cell complexes, computed exactly.

The package models a non-Hausdorff space as an adjunction system: finitely
many cell complexes (the Hausdorff pieces) glued along open, star-closed
regions by sign-preserving cell bijections.  On top of that it computes, over
exact rational arithmetic, the two Mayer-Vietoris bicomplex cohomologies
(closed-intersection "de Rham" and open-core "singular" flavors), integrals
by inclusion-exclusion, the exact failure of Stokes' theorem, and discrete
Gauss-Bonnet ledgers with frontier counterterms.

Importing the package loads no submodule: each public name is looked up in
its submodule when it is accessed, so a command loads only the modules it runs.
"""

import sys

# exported submodule -> the public names it defines
_EXPORTS = {
    "adjunction": (
        "AdjunctionSystem",
        "CellClasses",
        "GluingMap",
        "HausdorffPair",
        "closure_intersection_check",
        "glued_cell_classes",
        "hausdorff_pairs",
        "nerve",
        "open_intersection",
        "closed_intersection",
        "regular_open_check",
        "validate_system",
    ),
    "cells": (
        "CellComplex",
        "CellSet",
        "CoreAssignment",
        "MetricComplex",
        "Orientation",
        "closure",
        "connected_components",
        "euler_characteristic",
        "frontier",
        "interior",
        "star",
        "validate_complex",
    ),
    "cochains": (
        "Chain",
        "Cochain",
        "GlobalCochain",
        "assemble_global",
        "boundary_chain",
        "coboundary",
        "coboundary_global",
        "extend_by_zero",
        "integrate",
        "integrate_over_chain",
        "make_chain",
        "stokes_defect",
    ),
    "cohomology": (
        "Bicomplex",
        "CompareReport",
        "Flavor",
        "FreeComplex",
        "betti",
        "build_bicomplex",
        "complex_betti",
        "de_rham_compare",
        "euler_inclusion_exclusion",
        "global_complex_betti",
        "mv_report",
        "quotient_complex",
        "row_exactness_check",
        "total_betti",
    ),
    "errors": (
        "IncompatibleCochainError",
        "InvariantError",
        "NonHausdorffError",
        "PreconditionError",
        "SchemaError",
        "ValidationReport",
    ),
    "geometry": (
        "CurvatureLedger",
        "GaussBonnetReport",
        "corner_angles",
        "curvature_ledger",
        "gauss_bonnet_report",
        "validate_metric",
    ),
    "linalg": (),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    # Not cached in the package namespace: each access reads the submodule's
    # current binding, so a function rebound there is seen here too.
    # ``__import__`` (unlike importlib.import_module) is logged by
    # ``python -X importtime``.
    module = name if name in _EXPORTS else _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    found = sys.modules[f"{__name__}.{module}"]
    return found if module == name else getattr(found, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
