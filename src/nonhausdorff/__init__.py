"""Non-Hausdorff gluings of finite cell complexes, computed exactly.

The package models a non-Hausdorff space as an adjunction system: finitely
many cell complexes (the Hausdorff pieces) glued along open, star-closed
regions by sign-preserving cell bijections.  On top of that it computes, over
exact rational arithmetic, the two Mayer-Vietoris bicomplex cohomologies
(closed-intersection "de Rham" and open-core "singular" flavors), integrals
by inclusion-exclusion, the exact failure of Stokes' theorem, and discrete
Gauss-Bonnet ledgers with frontier counterterms.
"""

from .adjunction import (
    AdjunctionSystem,
    CellClasses,
    GluingMap,
    HausdorffPair,
    closure_intersection_check,
    glued_cell_classes,
    hausdorff_pairs,
    nerve,
    normalized_tuples,
    open_intersection,
    closed_intersection,
    quotient_complex,
    regular_open_check,
    validate_system,
)
from .cells import (
    CellComplex,
    CellSet,
    Orientation,
    closure,
    connected_components,
    euler_characteristic,
    frontier,
    interior,
    star,
    validate_complex,
)
from .cochains import (
    Chain,
    Cochain,
    GlobalCochain,
    assemble_global,
    boundary_chain,
    coboundary,
    coboundary_global,
    extend_by_zero,
    integrate,
    integrate_over_chain,
    make_chain,
    stokes_defect,
)
from .cohomology import (
    Bicomplex,
    CompareReport,
    CoreAssignment,
    Flavor,
    FreeComplex,
    betti,
    build_bicomplex,
    complex_betti,
    de_rham_compare,
    euler_inclusion_exclusion,
    global_complex_betti,
    mv_report,
    row_exactness_check,
    total_betti,
)
from .errors import (
    IncompatibleCochainError,
    InvariantError,
    NonHausdorffError,
    PreconditionError,
    SchemaError,
    ValidationReport,
)
from .geometry import (
    CurvatureLedger,
    GaussBonnetReport,
    MetricComplex,
    corner_angles,
    curvature_ledger,
    gauss_bonnet_report,
    validate_metric,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
