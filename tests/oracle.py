"""Reference implementations kept as oracles for the differential tests.

The tuple walks visit all 2^n - n - 1 normalized piece tuples, empty
intersections included, as the library did before it enumerated the nerve of
the cover (test_nerve.py).  The reference bicomplex shares only the matrix
assembly with the library.

The fibre-product and Mayer-Vietoris references compute with explicit bases,
as the library did before it reduced both to ranks (test_rank_cohomology.py):
kernel bases from ``Mat.nullspace``, cohomology representatives picked by
``independent_columns`` and coordinates from ``solve_columns``.

The rank reference is Gauss-Jordan elimination over ``Fraction`` entries, as
``Mat.rank`` computed it before it moved to sparse forward elimination with
unit pivots on ``int`` entries (test_linalg.py).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nonhausdorff import linalg
from nonhausdorff.adjunction import AdjunctionSystem, normalized_tuples
from nonhausdorff.cells import CellSet, closure, euler_characteristic, is_face_closed
from nonhausdorff.cochains import GlobalCochain, domain_integral, piece_integral
from nonhausdorff.cohomology import (
    Bicomplex,
    CoreAssignment,
    Flavor,
    FreeComplex,
    MVReport,
    MVRow,
    _assemble,
    betti,
    build_bicomplex as library_bicomplex,
    total_betti,
)
from nonhausdorff.errors import PreconditionError
from nonhausdorff.linalg import Mat, Vec, independent_columns, solve_columns


def open_intersection(system: AdjunctionSystem, tup: Sequence[int]) -> CellSet:
    """The p-fold intersection domain, transported into the smallest-index piece."""
    ref = tup[0]
    members = set(system.pieces[ref].dims)
    for k in tup[1:]:
        members &= system.region(ref, k).members
    return CellSet.of(system.pieces[ref], members)


def closed_intersection(system: AdjunctionSystem, tup: Sequence[int]) -> CellSet:
    return closure(open_intersection(system, tup))


def closure_intersection_check(system: AdjunctionSystem) -> dict[tuple[int, ...], bool]:
    """Per tuple i1<...<im: closure of the intersection equals the
    intersection of the closures, computed in the smallest-index piece."""
    out: dict[tuple[int, ...], bool] = {}
    for tup in normalized_tuples(system.n(), 2):
        ref = tup[0]
        open_members = open_intersection(system, tup).members
        closed_of_open = closure(CellSet.of(system.pieces[ref], open_members)).members
        meet: set[str] | None = None
        for k in tup[1:]:
            cl = closure(system.region(ref, k)).members
            meet = set(cl) if meet is None else (meet & cl)
        out[tup] = closed_of_open == (meet or set())
    return out


def resolve_cores(
    system: AdjunctionSystem, assignment: CoreAssignment | None
) -> dict[tuple[int, ...], CellSet]:
    """Cores for every tuple: the declared one, or the open domain itself when
    it is empty or already closed; containment and nesting are verified."""
    given = assignment.cores if assignment is not None else {}
    resolved: dict[tuple[int, ...], CellSet] = {}
    for tup in normalized_tuples(system.n(), 2):
        domain = open_intersection(system, tup)
        core = given.get(tup)
        if core is None:
            if not domain.members or is_face_closed(domain):
                core = domain
            else:
                raise PreconditionError(
                    f"open-core flavor needs a core for tuple {tup}: the open "
                    "intersection is not face-closed"
                )
        if not core.members <= domain.members:
            raise PreconditionError(f"core for tuple {tup} is not contained in the open intersection")
        if not is_face_closed(core):
            raise PreconditionError(f"core for tuple {tup} is not face-closed")
        resolved[tup] = core
    for tup, core in resolved.items():
        for drop in range(len(tup)):
            sub = tup[:drop] + tup[drop + 1 :]
            if len(sub) < 2:
                continue
            sub_core = resolved[sub]
            for cell in core.sorted_members():
                moved = cell if sub[0] == tup[0] else system.cell_map(tup[0], sub[0], cell)
                if moved not in sub_core.members:
                    raise PreconditionError(
                        f"core for tuple {tup} is not contained in the core for {sub}"
                    )
    return resolved


def integrate(w: GlobalCochain) -> Fraction:
    """Inclusion-exclusion over every tuple, empty closures included."""
    system = w.system
    total = Fraction(0)
    for i in range(system.n()):
        total += piece_integral(system, i, w.component(i))
    for tup in normalized_tuples(system.n(), 2):
        domain = closed_intersection(system, tup)
        ref = tup[0]
        total -= (-1) ** len(tup) * domain_integral(system, ref, domain, w.component(ref))
    return total


def build_bicomplex(
    system: AdjunctionSystem, flavor: Flavor, cores: CoreAssignment | None = None
) -> Bicomplex:
    """The bicomplex with one column entry per tuple, empty domains included,
    assembled by the library's own matrix code."""
    n = system.n()
    domains: dict[tuple[int, ...], CellSet] = {(i,): system.pieces[i].whole_set() for i in range(n)}
    if flavor is Flavor.CLOSED_INTERSECTION:
        bad = sorted(t for t, ok in closure_intersection_check(system).items() if not ok)
        if bad:
            raise PreconditionError(f"closure-intersection property violated at tuple {bad[0]}")
        for tup in normalized_tuples(n, 2):
            domains[tup] = closed_intersection(system, tup)
    else:
        domains.update(resolve_cores(system, cores))
    columns = [[(i,) for i in range(n)]]
    columns.extend([t for t in normalized_tuples(n, 2) if len(t) == size] for size in range(2, n + 1))
    return _assemble(system, flavor, columns, domains)


def euler_inclusion_exclusion(system: AdjunctionSystem, cores: CoreAssignment | None) -> int:
    total = sum(euler_characteristic(piece.whole_set()) for piece in system.pieces)
    for tup, core in resolve_cores(system, cores).items():
        total += (-1) ** (len(tup) + 1) * euler_characteristic(core)
    return total


# -- exact rank ---------------------------------------------------------------


def gauss_jordan_rank(mat: Mat) -> int:
    """Rank of ``mat`` by Gauss-Jordan elimination on ``Fraction`` copies of its rows."""
    return len(linalg._eliminate([{c: Fraction(v) for c, v in row.items()} for row in mat.rows])[0])


# -- explicit-basis cohomology --------------------------------------------------


def apply(mat: Mat, v: Vec) -> Vec:
    """mat @ v for a sparse vector, zero entries left out."""
    out: Vec = {}
    for r, row in enumerate(mat.rows):
        total = sum((a * v[c] for c, a in row.items() if c in v), Fraction(0))
        if total:
            out[r] = total
    return out


def global_complex_betti(system: AdjunctionSystem) -> list[int]:
    """Betti numbers of the kernel of delta at column 0 of the pairs-only
    CLOSED bicomplex: a basis of each kernel, and d written in those bases by
    solving for the coordinates of each image."""
    bicx = library_bicomplex(system, Flavor.CLOSED_INTERSECTION, max_tuple=2, check_preconditions=False)
    max_q = bicx.max_q
    kernels: list[list[Vec]] = []
    for q in range(max_q + 1):
        delta = bicx.horizontal.get((0, q))
        if delta is None:
            delta = Mat.zeros(0, bicx.dim(0, q))
        kernels.append(delta.nullspace())
    maps: list[Mat] = []
    for q in range(max_q):
        d = bicx.vertical[(0, q)]
        mat = Mat.zeros(len(kernels[q + 1]), len(kernels[q]))
        for col, vec in enumerate(kernels[q]):
            coeffs = solve_columns(kernels[q + 1], bicx.dim(0, q + 1), apply(d, vec))
            if coeffs is None:
                raise AssertionError("d does not preserve the global cochain subspace")
            for row, value in enumerate(coeffs):
                if value:
                    mat.add_to(row, col, value)
        maps.append(mat)
    return betti(FreeComplex([list(range(len(k))) for k in kernels], maps))


def _cohomology_reps(dims: list[int], maps: list[Mat]) -> tuple[list[list[Vec]], list[list[Vec]]]:
    """Per degree: (image basis of d_{q-1}, representatives of H^q)."""
    images: list[list[Vec]] = []
    reps: list[list[Vec]] = []
    for q in range(len(dims)):
        img_cols: list[Vec] = []
        if q > 0:
            cols: list[Vec] = [dict() for _ in range(maps[q - 1].ncols)]
            for r, row in enumerate(maps[q - 1].rows):
                for c, v in row.items():
                    cols[c][r] = v
            img_cols = [cols[j] for j in independent_columns(cols, dims[q])]
        if q < len(maps):
            kernel = maps[q].nullspace()
        else:
            kernel = [{k: Fraction(1)} for k in range(dims[q])]
        candidates = img_cols + kernel
        chosen = independent_columns(candidates, dims[q])
        images.append(img_cols)
        reps.append([candidates[j] for j in chosen if j >= len(img_cols)])
    return images, reps


def mv_report(
    system: AdjunctionSystem, flavor: Flavor, cores: CoreAssignment | None = None
) -> MVReport:
    """The binary Mayer-Vietoris rows, with the rank of delta on cohomology
    taken from the coordinates of delta(representative) in a basis of
    image + representatives of the domain column."""
    if system.n() != 2:
        raise PreconditionError("mv_report: system is not binary")
    bicx = library_bicomplex(system, flavor, cores)
    max_q = bicx.max_q
    h_total_all = total_betti(bicx)

    dims_pieces = [bicx.dim(0, q) for q in range(max_q + 1)]
    maps_pieces = [bicx.vertical[(0, q)] for q in range(max_q)]
    dims_domain = [bicx.dim(1, q) for q in range(max_q + 1)]
    maps_domain = [bicx.vertical[(1, q)] for q in range(max_q)]
    betti_pieces = betti(FreeComplex([list(range(d)) for d in dims_pieces], maps_pieces))
    betti_domain = betti(FreeComplex([list(range(d)) for d in dims_domain], maps_domain))
    _, reps_p = _cohomology_reps(dims_pieces, maps_pieces)
    img_d, reps_d = _cohomology_reps(dims_domain, maps_domain)

    ranks: list[int] = []
    for q in range(max_q + 1):
        cols: list[Vec] = []
        for rep in reps_p[q]:
            image = apply(bicx.horizontal[(0, q)], rep)
            coeffs = solve_columns(img_d[q] + reps_d[q], dims_domain[q], image)
            if coeffs is None:
                raise AssertionError("delta is not a chain map on cohomology")
            cols.append({k: v for k, v in enumerate(coeffs[len(img_d[q]) :]) if v})
        ranks.append(len(independent_columns(cols, len(reps_d[q]))))

    rows: list[MVRow] = []
    alternating = 0
    for q in range(max_q + 1):
        h_total = h_total_all[q] if q < len(h_total_all) else 0
        kernel_dim = betti_pieces[q] - ranks[q]
        coker_prev = (betti_domain[q - 1] - ranks[q - 1]) if q >= 1 else 0
        rows.append(
            MVRow(q, h_total, betti_pieces[q], betti_domain[q], ranks[q], kernel_dim, coker_prev, kernel_dim + coker_prev)
        )
        alternating += (-1) ** q * (h_total - betti_pieces[q] + betti_domain[q])
    tail = len(h_total_all) - 1
    if tail > max_q:
        alternating += (-1) ** tail * h_total_all[tail]
        last = betti_domain[max_q] - ranks[max_q]
        rows.append(MVRow(tail, h_total_all[tail], 0, 0, 0, 0, last, last))
    return MVReport(flavor, rows, alternating)
