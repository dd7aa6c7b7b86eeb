"""Reference implementations kept as oracles for the differential tests.

The tuple walks visit all 2^n - n - 1 normalized piece tuples, empty
intersections included, as the library did before it enumerated the nerve of
the cover (test_nerve.py); ``normalized_tuples`` is that reference
enumeration.  ``closure_intersection_check`` keys every such tuple, where the
library keys only the nerve tuples.  The reference bicomplex is assembled by the
reference assembly below, which moves every cell of every restriction by its
own ``transport``, reading the flavor per cell, as the library did before it
took the map t0 -> t1 once per column tuple (test_rank_cohomology.py,
test_core_mutations.py).

The sparse-assembly references are ``Mat.matmul``, ``Bicomplex.total_complex``
and the bicomplex assembly as they were before they built each row in a local
dict: one ``Mat.add_to`` call per entry, which drops a sum as soon as it is
zero (test_rank_cohomology.py).

The fibre-product and Mayer-Vietoris references compute with explicit bases,
as the library did before it reduced both to ranks (test_rank_cohomology.py):
kernel bases from ``Mat.nullspace``, cohomology representatives picked by
``independent_columns`` and coordinates from ``solve_columns``.

The rank reference is Gauss-Jordan elimination over ``Fraction`` entries, as
``Mat.rank`` computed it before it moved to sparse forward elimination with
unit pivots on ``int`` entries (test_linalg.py).

The loading references are ``parse_document`` and the validation of
complexes, orientations, gluing maps and systems as they were before the
parser and the validators dropped their per-cell overhead, and the cocycle
check over all n(n-1)(n-2) ordered piece triples, as it was before it walked
only each piece's gluing partners (test_loading.py).

The Fraction cochain references are ``coboundary``, ``assemble_global``,
``integrate`` and ``stokes_defect`` as they were before the library moved
them onto integer numerators over one common denominator: one ``Fraction``
operation per cell, and the class sum over ``glued_cell_classes``
(test_cochain_kernel.py).

The binary Stokes reference is the oriented frontier sum that
``stokes_defect`` computed for two pieces before it summed over the nerve
(test_cochains.py).  The re-gluing reference rebuilds the glued cell classes
by splitting off the last piece and gluing it back along the union of its
regions (test_adjunction.py).

The coface reference is the transpose of the incidence that ``CellComplex``
computed after construction, when it was a frozen dataclass
(test_plain_classes.py).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Mapping, Sequence

from nonhausdorff import linalg
from nonhausdorff.adjunction import (
    AdjunctionSystem,
    ClassKey,
    GluingMap,
    glued_cell_classes,
    nerve,
    union_of_regions,
)
from nonhausdorff.cells import (
    CellComplex,
    CellSet,
    Orientation,
    closure,
    equivalence_classes,
    euler_characteristic,
    frontier,
    is_face_closed,
    is_star_closed,
)
from nonhausdorff.cochains import (
    Cochain,
    GlobalCochain,
    _require_oriented_top,
    boundary_signs,
    domain_integral,
    piece_integral,
)
from nonhausdorff.cohomology import (
    Bicomplex,
    CoreAssignment,
    Flavor,
    FreeComplex,
    MVReport,
    MVRow,
    betti,
    build_bicomplex as library_bicomplex,
    total_betti,
)
from nonhausdorff.errors import (
    IncompatibleCochainError,
    InvariantError,
    PreconditionError,
    SchemaError,
    ValidationReport,
)
from nonhausdorff.geometry import MetricComplex
from nonhausdorff.linalg import Mat, Vec, independent_columns, solve_columns
from nonhausdorff.schema import SCHEMA_VERSION, LoadedSystem


def normalized_tuples(n: int) -> list[tuple[int, ...]]:
    """Ascending index tuples i1 < ... < ip with p >= 2, smallest sizes first."""
    out: list[tuple[int, ...]] = []
    for size in range(2, n + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


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
    for tup in normalized_tuples(system.n()):
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
    for tup in normalized_tuples(system.n()):
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
                try:
                    moved = transport(system, Flavor.OPEN_CORE, tup, cell, sub[0])
                except KeyError as exc:
                    raise PreconditionError(
                        f"restriction from tuple {sub} to {tup} undefined at cell "
                        f"{cell!r}: missing containment"
                    ) from exc
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
    for tup in normalized_tuples(system.n()):
        domain = closed_intersection(system, tup)
        ref = tup[0]
        total -= (-1) ** len(tup) * domain_integral(system, ref, domain, w.component(ref))
    return total


def build_bicomplex(
    system: AdjunctionSystem, flavor: Flavor, cores: CoreAssignment | None = None
) -> Bicomplex:
    """The bicomplex with one column entry per tuple, empty domains included,
    assembled by the reference assembly below."""
    if flavor is Flavor.CLOSED_INTERSECTION:
        bad = sorted(t for t, ok in closure_intersection_check(system).items() if not ok)
        if bad:
            raise PreconditionError(f"closure-intersection property violated at tuple {bad[0]}")
    return unchecked_bicomplex(system, flavor, cores)


def unchecked_bicomplex(
    system: AdjunctionSystem, flavor: Flavor, cores: CoreAssignment | None = None
) -> Bicomplex:
    """``build_bicomplex`` without the closure-intersection check."""
    n = system.n()
    domains: dict[tuple[int, ...], CellSet] = {(i,): system.pieces[i].whole_set() for i in range(n)}
    if flavor is Flavor.CLOSED_INTERSECTION:
        for tup in normalized_tuples(n):
            domains[tup] = closed_intersection(system, tup)
    else:
        domains.update(resolve_cores(system, cores))
    columns = [[(i,) for i in range(n)]]
    columns.extend([t for t in normalized_tuples(n) if len(t) == size] for size in range(2, n + 1))
    return assemble(system, flavor, columns, domains)


def euler_inclusion_exclusion(system: AdjunctionSystem, cores: CoreAssignment | None) -> int:
    total = sum(euler_characteristic(piece.whole_set()) for piece in system.pieces)
    for tup, core in resolve_cores(system, cores).items():
        total += (-1) ** (len(tup) + 1) * euler_characteristic(core)
    return total


# -- binary Stokes and re-gluing ------------------------------------------------


def binary_stokes_rhs(w: GlobalCochain) -> Fraction:
    """Minus the oriented sum of w over the codim-1 frontier cells of the one
    gluing region of a binary system."""
    system = w.system
    if system.n() != 2:
        raise PreconditionError("binary_stokes_rhs: system is not binary")
    region = system.region(0, 1)
    signs = boundary_signs(system, 0, closure(region))
    rhs = Fraction(0)
    for cell in frontier(region).sorted_members():
        if system.pieces[0].dims[cell] == w.degree:
            rhs -= signs.get(cell, 0) * w.value(0, cell)
    return rhs


# -- Fraction cochain arithmetic -------------------------------------------------


def fraction_coboundary(w: Cochain) -> Cochain:
    """(dw)(c) = sum over faces f of c of incidence(c,f) * w(f), one Fraction
    operation per face."""
    if not (is_face_closed(w.owner) or is_star_closed(w.owner)):
        raise PreconditionError("coboundary: owner is neither face-closed nor star-closed")
    complex_ = w.owner.owner
    out: dict[str, Fraction] = {}
    for cell in w.owner.members_of_dim(w.degree + 1):
        total = Fraction(0)
        for face, sign in complex_.faces_of(cell).items():
            if face in w.owner.members:
                total += sign * w.value(face)
        if total:
            out[cell] = total
    return Cochain(w.owner, w.degree + 1, out)


def fraction_assemble_global(
    system: AdjunctionSystem, components: Sequence[Cochain], degree: int | None = None
) -> GlobalCochain:
    """Fibre-product compatibility compared value by value as Fractions."""
    if len(components) != system.n():
        raise PreconditionError("assemble_global: need one cochain per piece")
    degrees = {w.degree for w in components}
    if degree is not None:
        degrees.add(degree)
    if len(degrees) != 1:
        raise PreconditionError(f"assemble_global: mixed degrees {sorted(degrees)}")
    q = degrees.pop()
    for idx, w in enumerate(components):
        if w.owner.owner is not system.pieces[idx]:
            raise PreconditionError(f"assemble_global: component {idx} lives on the wrong piece")
        if w.owner.members != frozenset(system.pieces[idx].dims):
            raise PreconditionError(f"assemble_global: component {idx} must cover its whole piece")
    for (i, j) in system.ordered_pairs():
        if i >= j:
            continue
        gm = system.gluing(i, j)
        if gm is None:
            continue
        domain = closure(system.region(i, j))
        for cell in domain.members_of_dim(q):
            image = gm.closure_forward[cell]
            left = components[i].value(cell)
            right = components[j].value(image)
            if left != right:
                raise IncompatibleCochainError(
                    (i, cell),
                    (j, image),
                    f"components disagree: piece {system.names[i]} cell {cell!r} = {left} "
                    f"but piece {system.names[j]} cell {image!r} = {right}",
                )
    return GlobalCochain(system, q, tuple(components))


def fraction_integrate(w: GlobalCochain) -> Fraction:
    """Inclusion-exclusion over the nerve with Fraction sums, cross-checked
    against the class sum over ``glued_cell_classes``."""
    system = w.system
    _require_oriented_top(system, w.degree)
    total = Fraction(0)
    for i in range(system.n()):
        total += piece_integral(system, i, w.component(i))
    for entry in nerve(system):
        ref = entry.tup[0]
        value = domain_integral(system, ref, entry.closed, w.component(ref))
        total -= (-1) ** len(entry.tup) * value
    check = fraction_class_sum(w)
    if total != check:
        raise InvariantError(f"integrate: inclusion-exclusion {total} != class sum {check}")
    return total


def fraction_class_sum(w: GlobalCochain) -> Fraction:
    system = w.system
    classes = glued_cell_classes(system)
    top = system.pieces[0].top_dimension
    total = Fraction(0)
    for key in classes.classes:
        i, cell = key[0]
        if system.pieces[i].dims[cell] != top:
            continue
        total += system.orientations[i].sign(cell) * w.value(i, cell)
    return total


def fraction_stokes_defect(w: GlobalCochain) -> tuple[Fraction, Fraction]:
    """Both sides of the Stokes defect: the Fraction integral of the assembled
    Fraction coboundary, and the nerve sum of boundary signs times w."""
    system = w.system
    top = _require_oriented_top(system, w.degree + 1)
    for idx, piece in enumerate(system.pieces):
        for cell in piece.cells_of_dim(top - 1):
            carriers = [t for t in piece.cofaces_of(cell) if piece.dims[t] == top]
            if len(carriers) != 2:
                raise PreconditionError(
                    f"stokes_defect: piece {system.names[idx]} is not closed at cell {cell!r}"
                )
    dw = fraction_assemble_global(system, [fraction_coboundary(comp) for comp in w.components])
    lhs = fraction_integrate(dw)
    rhs = Fraction(0)
    for entry in nerve(system):
        ref = entry.tup[0]
        signs = boundary_signs(system, ref, entry.closed)
        term = sum(sign * w.value(ref, cell) for cell, sign in signs.items())
        rhs -= (-1) ** len(entry.tup) * term
    return lhs, rhs


def cofaces(c: CellComplex) -> dict[str, dict[str, int]]:
    cofaces: dict[str, dict[str, int]] = {cell: {} for cell in c.dims}
    for cell, fs in c.faces.items():
        for face, sign in fs.items():
            if face in cofaces:
                cofaces[face][cell] = sign
    return cofaces


def reglue_classes(system: AdjunctionSystem) -> list[ClassKey]:
    """The glued cell classes, rebuilt from the classes of the first n-1
    pieces and the map that the union of the last piece's regions induces
    into them; the map must be single-valued (A3)."""
    last = system.n() - 1
    if last < 1:
        raise PreconditionError("reglue_classes: need at least two pieces")
    front = AdjunctionSystem(
        pieces=system.pieces[:last],
        names=system.names[:last],
        regions={k: v for k, v in system.regions.items() if k[0] < last and k[1] < last},
        maps={k: v for k, v in system.maps.items() if k[0] < last and k[1] < last},
        orientations=system.orientations[:last] if system.orientations else None,
    )
    front_classes = glued_cell_classes(front)
    links = [(cls[0], node) for cls in front_classes.classes for node in cls[1:]]
    for cell in union_of_regions(system, last, range(last)).sorted_members():
        seen = [
            (i, system.maps[(last, i)].forward[cell])
            for i in range(last)
            if cell in system.region(last, i).members
        ]
        if len({front_classes.class_of(i, c) for i, c in seen}) != 1:
            raise PreconditionError(f"reglue_classes: induced map multivalued at cell {cell!r}")
        links.append(((last, cell), min(seen)))
    nodes = [(i, c) for i, piece in enumerate(system.pieces) for c in piece.cell_ids()]
    return sorted(tuple(sorted(group)) for group in equivalence_classes(nodes, links))


# -- sparse assembly -------------------------------------------------------------


def matmul(left: Mat, right: Mat) -> Mat:
    """left @ right, one ``add_to`` per product term."""
    out = Mat.zeros(left.nrows, right.ncols)
    for r in range(left.nrows):
        for k, a in left.rows[r].items():
            for c, b in right.rows[k].items():
                out.add_to(r, c, a * b)
    return out


def total_complex(bicx: Bicomplex) -> FreeComplex:
    """Single complex with degree p+q and differential delta + (-1)^p d."""
    top = bicx.columns() - 1 + bicx.max_q
    bases: list[list] = []
    offsets: list[dict[tuple[int, int], int]] = []
    for n in range(top + 1):
        labels: list = []
        off: dict[tuple[int, int], int] = {}
        for p in range(bicx.columns()):
            q = n - p
            if q < 0 or q > bicx.max_q:
                continue
            off[(p, q)] = len(labels)
            labels.extend((p, q, lab) for lab in bicx.bases.get((p, q), []))
        bases.append(labels)
        offsets.append(off)
    maps: list[Mat] = []
    for n in range(top):
        mat = Mat.zeros(len(bases[n + 1]), len(bases[n]))
        for (p, q), src_off in offsets[n].items():
            if bicx.dim(p, q) == 0:
                continue
            horiz = bicx.horizontal.get((p, q))
            if horiz is not None and (p + 1, q) in offsets[n + 1]:
                row_off = offsets[n + 1][(p + 1, q)]
                for r, row in enumerate(horiz.rows):
                    for c, v in row.items():
                        mat.add_to(row_off + r, src_off + c, v)
            vert = bicx.vertical.get((p, q))
            if vert is not None and (p, q + 1) in offsets[n + 1]:
                row_off = offsets[n + 1][(p, q + 1)]
                sign = (-1) ** p
                for r, row in enumerate(vert.rows):
                    for c, v in row.items():
                        mat.add_to(row_off + r, src_off + c, sign * v)
        maps.append(mat)
    return FreeComplex(bases, maps)


def transport(
    system: AdjunctionSystem, flavor: Flavor, tup: tuple[int, ...], cell: str, to_piece: int
) -> str:
    """A cell of the domain of ``tup``, seen in piece ``to_piece``: the cell
    itself in piece tup[0], else its image under the gluing map, or under its
    closure extension in the closed flavor."""
    if to_piece == tup[0]:
        return cell
    gm = system.maps[(tup[0], to_piece)]
    return (gm.closure_forward if flavor is Flavor.CLOSED_INTERSECTION else gm.forward)[cell]


def assemble(
    system: AdjunctionSystem,
    flavor: Flavor,
    tuples_by_p: list[list[tuple[int, ...]]],
    domains: dict[tuple[int, ...], CellSet],
) -> Bicomplex:
    """The grid of cochain spaces on ``domains`` and its two differentials."""
    max_q = max(piece.top_dimension for piece in system.pieces)
    bases: dict[tuple[int, int], list] = {}
    index: dict[tuple[int, int], dict] = {}
    for p, tuples in enumerate(tuples_by_p):
        for q in range(max_q + 1):
            labels: list = []
            for tup in tuples:
                labels.extend((tup, cell) for cell in domains[tup].members_of_dim(q))
            bases[(p, q)] = labels
            index[(p, q)] = {lab: k for k, lab in enumerate(labels)}

    vertical: dict[tuple[int, int], Mat] = {}
    for p in range(len(tuples_by_p)):
        for q in range(max_q):
            mat = Mat.zeros(len(bases[(p, q + 1)]), len(bases[(p, q)]))
            col_index = index[(p, q)]
            for row, (tup, cell) in enumerate(bases[(p, q + 1)]):
                domain = domains[tup]
                for face, sign in system.pieces[tup[0]].faces_of(cell).items():
                    if face in domain.members:
                        mat.add_to(row, col_index[(tup, face)], sign)
            vertical[(p, q)] = mat

    horizontal: dict[tuple[int, int], Mat] = {}
    for p in range(len(tuples_by_p) - 1):
        for q in range(max_q + 1):
            mat = Mat.zeros(len(bases[(p + 1, q)]), len(bases[(p, q)]))
            col_index = index[(p, q)]
            for row, (tup, cell) in enumerate(bases[(p + 1, q)]):
                for alpha in range(len(tup)):
                    sub = tup[:alpha] + tup[alpha + 1 :]
                    try:
                        moved = transport(system, flavor, tup, cell, sub[0])
                        col = col_index[(sub, moved)]
                    except KeyError as exc:
                        raise PreconditionError(
                            f"restriction from tuple {sub} to {tup} undefined at cell "
                            f"{cell!r}: missing containment"
                        ) from exc
                    mat.add_to(row, col, (-1) ** (alpha + 1))
            horizontal[(p, q)] = mat

    return Bicomplex(tuples_by_p, max_q, bases, index, vertical, horizontal)


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
    CLOSED bicomplex, assembled by the reference assembly: a basis of each
    kernel, and d written in those bases by solving for the coordinates of
    each image."""
    n = system.n()
    pairs = list(itertools.combinations(range(n), 2))
    domains = {(i,): system.pieces[i].whole_set() for i in range(n)}
    domains.update((pair, closed_intersection(system, pair)) for pair in pairs)
    bicx = assemble(system, Flavor.CLOSED_INTERSECTION, [[(i,) for i in range(n)], pairs], domains)
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


# -- loading ---------------------------------------------------------------------


def _expect(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{field}: {message}")


def _as_map(doc: Any, field: str) -> Mapping[str, Any]:
    _expect(isinstance(doc, Mapping), field, "expected an object")
    return doc


def _as_list(doc: Any, field: str) -> list:
    _expect(isinstance(doc, list), field, "expected a list")
    return doc


def parse_document(doc: Any) -> LoadedSystem:
    root = _as_map(doc, "$")
    version = root.get("schema_version")
    _expect(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    name = root.get("name", "unnamed")
    _expect(isinstance(name, str), "name", "expected a string")

    pieces_doc = _as_list(root.get("pieces"), "pieces")
    _expect(len(pieces_doc) >= 1, "pieces", "need at least one piece")
    names: list[str] = []
    pieces: list[CellComplex] = []
    for k, piece_doc in enumerate(pieces_doc):
        pd = _as_map(piece_doc, f"pieces[{k}]")
        pname = pd.get("name")
        _expect(isinstance(pname, str) and pname, f"pieces[{k}].name", "expected a nonempty string")
        _expect(pname not in names, f"pieces[{k}].name", f"duplicate piece name {pname!r}")
        names.append(pname)
        cells_doc = _as_list(pd.get("cells"), f"pieces[{k}].cells")
        cells: list[tuple[str, int]] = []
        incidence: dict[str, dict[str, int]] = {}
        seen: set[str] = set()
        for c_idx, cell_doc in enumerate(cells_doc):
            cd = _as_map(cell_doc, f"pieces[{k}].cells[{c_idx}]")
            cid = cd.get("id")
            _expect(isinstance(cid, str) and cid, f"pieces[{k}].cells[{c_idx}].id", "expected a nonempty string")
            _expect(cid not in seen, f"pieces[{k}].cells[{c_idx}].id", f"duplicate cell id {cid!r}")
            seen.add(cid)
            dim = cd.get("dim")
            _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
                    f"pieces[{k}].cells[{c_idx}].dim", "expected a non-negative integer")
            cells.append((cid, dim))
            faces = cd.get("faces", {})
            fmap = _as_map(faces, f"pieces[{k}].cells[{c_idx}].faces")
            row: dict[str, int] = {}
            for fid, sign in fmap.items():
                _expect(isinstance(fid, str), f"pieces[{k}].cells[{c_idx}].faces", "face ids must be strings")
                _expect(sign in (1, -1), f"pieces[{k}].cells[{c_idx}].faces[{fid}]", "sign must be +1 or -1")
                row[fid] = sign
            if row:
                incidence[cid] = row
        pieces.append(CellComplex.build(cells, incidence))

    def piece_index(label: Any, field: str) -> int:
        _expect(isinstance(label, str), field, "expected a piece name")
        _expect(label in names, field, f"unknown piece {label!r}")
        return names.index(label)

    def known_cell(i: int, cid: Any, field: str) -> str:
        _expect(isinstance(cid, str), field, "expected a cell id")
        _expect(cid in pieces[i].dims, field, f"unknown cell {cid!r} in piece {names[i]!r}")
        return cid

    regions: dict[tuple[int, int], list[str]] = {}
    for r_idx, region_doc in enumerate(_as_list(root.get("regions", []), "regions")):
        rd = _as_map(region_doc, f"regions[{r_idx}]")
        i = piece_index(rd.get("i"), f"regions[{r_idx}].i")
        j = piece_index(rd.get("j"), f"regions[{r_idx}].j")
        _expect(i != j, f"regions[{r_idx}]", "self-gluing regions are implicit (A1)")
        _expect((i, j) not in regions, f"regions[{r_idx}]", "duplicate region entry")
        cells_list = _as_list(rd.get("cells"), f"regions[{r_idx}].cells")
        regions[(i, j)] = [known_cell(i, c, f"regions[{r_idx}].cells") for c in cells_list]

    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str] | None]] = {}
    for m_idx, map_doc in enumerate(_as_list(root.get("maps", []), "maps")):
        md = _as_map(map_doc, f"maps[{m_idx}]")
        i = piece_index(md.get("i"), f"maps[{m_idx}].i")
        j = piece_index(md.get("j"), f"maps[{m_idx}].j")
        _expect(i != j, f"maps[{m_idx}]", "self-gluing maps are implicit (A1)")
        _expect((i, j) not in maps, f"maps[{m_idx}]", "duplicate map entry")
        pairs: dict[str, str] = {}
        for p_idx, pair in enumerate(_as_list(md.get("pairs"), f"maps[{m_idx}].pairs")):
            _expect(isinstance(pair, list) and len(pair) == 2, f"maps[{m_idx}].pairs[{p_idx}]", "expected [src, dst]")
            src = known_cell(i, pair[0], f"maps[{m_idx}].pairs[{p_idx}][0]")
            dst = known_cell(j, pair[1], f"maps[{m_idx}].pairs[{p_idx}][1]")
            _expect(src not in pairs, f"maps[{m_idx}].pairs[{p_idx}]", f"duplicate source cell {src!r}")
            pairs[src] = dst
        closure_pairs: dict[str, str] | None = None
        if "closure_pairs" in md:
            closure_pairs = {}
            for p_idx, pair in enumerate(_as_list(md["closure_pairs"], f"maps[{m_idx}].closure_pairs")):
                _expect(isinstance(pair, list) and len(pair) == 2,
                        f"maps[{m_idx}].closure_pairs[{p_idx}]", "expected [src, dst]")
                src = known_cell(i, pair[0], f"maps[{m_idx}].closure_pairs[{p_idx}][0]")
                dst = known_cell(j, pair[1], f"maps[{m_idx}].closure_pairs[{p_idx}][1]")
                closure_pairs[src] = dst
        maps[(i, j)] = (pairs, closure_pairs)

    orientations = None
    if "orientations" in root and root["orientations"] is not None:
        odoc = _as_map(root["orientations"], "orientations")
        orientations = []
        for k, pname in enumerate(names):
            _expect(pname in odoc, "orientations", f"missing orientation for piece {pname!r}")
            signs_doc = _as_map(odoc[pname], f"orientations[{pname}]")
            signs: dict[str, int] = {}
            for cid, sign in signs_doc.items():
                known_cell(k, cid, f"orientations[{pname}]")
                _expect(sign in (1, -1), f"orientations[{pname}][{cid}]", "sign must be +1 or -1")
                signs[cid] = sign
            orientations.append(Orientation(signs))

    system = AdjunctionSystem.assemble(pieces, names, regions, maps, orientations)

    cores = None
    if "cores" in root and root["cores"] is not None:
        assignments: dict[tuple[int, ...], CellSet] = {}
        for c_idx, core_doc in enumerate(_as_list(root["cores"], "cores")):
            cd = _as_map(core_doc, f"cores[{c_idx}]")
            tup_names = _as_list(cd.get("pieces"), f"cores[{c_idx}].pieces")
            _expect(len(tup_names) >= 2, f"cores[{c_idx}].pieces", "need at least two pieces")
            tup = tuple(piece_index(t, f"cores[{c_idx}].pieces") for t in tup_names)
            _expect(tuple(sorted(tup)) == tup and len(set(tup)) == len(tup),
                    f"cores[{c_idx}].pieces", "pieces must be distinct and in document order")
            ref = tup[0]
            cell_list = _as_list(cd.get("cells"), f"cores[{c_idx}].cells")
            members = [known_cell(ref, c, f"cores[{c_idx}].cells") for c in cell_list]
            assignments[tup] = CellSet.of(pieces[ref], members)
        cores = CoreAssignment(assignments)

    metrics = None
    if "edge_lengths" in root and root["edge_lengths"] is not None:
        ldoc = _as_map(root["edge_lengths"], "edge_lengths")
        metrics = []
        for k, pname in enumerate(names):
            _expect(pname in ldoc, "edge_lengths", f"missing lengths for piece {pname!r}")
            entries = _as_map(ldoc[pname], f"edge_lengths[{pname}]")
            lengths: dict[str, float] = {}
            for cid, text in entries.items():
                known_cell(k, cid, f"edge_lengths[{pname}]")
                _expect(isinstance(text, str), f"edge_lengths[{pname}][{cid}]",
                        "lengths are decimal strings")
                try:
                    value = float(text)
                except ValueError as exc:
                    raise SchemaError(f"edge_lengths[{pname}][{cid}]: not a decimal: {text!r}") from exc
                lengths[cid] = value
            metrics.append(MetricComplex(pieces[k], lengths))

    return LoadedSystem(name=name, system=system, cores=cores, metrics=metrics)


def validate_complex(c: CellComplex) -> ValidationReport:
    """Check the complex invariants; every violation becomes a report entry."""
    report = ValidationReport()
    for cell, dim in c.dims.items():
        if dim < 0:
            report.add("cell-dimension", cell, f"negative dimension {dim}")
    for cell, fs in c.faces.items():
        if cell not in c.dims:
            report.add("dangling-cell", cell, "incidence row for unknown cell")
            continue
        for face, sign in fs.items():
            if face not in c.dims:
                report.add("dangling-face", f"{cell}->{face}", "face id does not exist")
                continue
            if c.dims[face] != c.dims[cell] - 1:
                report.add(
                    "codimension",
                    f"{cell}->{face}",
                    f"face has dimension {c.dims[face]}, expected {c.dims[cell] - 1}",
                )
            if sign not in (1, -1):
                report.add("incidence-sign", f"{cell}->{face}", f"sign {sign} not in {{+1,-1}}")
    # boundary-of-boundary vanishes
    for cell in c.dims:
        acc: dict[str, int] = {}
        for face, s1 in c.faces_of(cell).items():
            if face not in c.dims:
                continue
            for sub, s2 in c.faces_of(face).items():
                if sub not in c.dims:
                    continue
                acc[sub] = acc.get(sub, 0) + s1 * s2
        for sub, total in sorted(acc.items()):
            if total != 0:
                report.add(
                    "boundary-squared",
                    f"{cell}->{sub}",
                    f"composite boundary coefficient {total} != 0",
                )
    return report


def validate_orientation(c: CellComplex, orientation: Orientation) -> ValidationReport:
    """Adjacent top cells must induce opposite signs on each shared face."""
    report = ValidationReport()
    top = c.top_dimension
    for cell in c.cells_of_dim(top):
        if cell not in orientation.signs:
            report.add("orientation-missing", cell, "top cell has no sign")
        elif orientation.signs[cell] not in (1, -1):
            report.add("orientation-sign", cell, "sign must be +1 or -1")
    for face in c.cells_of_dim(top - 1) if top >= 1 else []:
        carriers = [
            (t, sign) for t, sign in sorted(c.cofaces_of(face).items()) if c.dims.get(t) == top
        ]
        if len(carriers) != 2:
            continue
        (t1, s1), (t2, s2) = carriers
        if t1 not in orientation.signs or t2 not in orientation.signs:
            continue
        induced1 = orientation.signs[t1] * s1
        induced2 = orientation.signs[t2] * s2
        if induced1 + induced2 != 0:
            report.add(
                "orientation-incoherent",
                face,
                f"top cells {t1} and {t2} induce equal signs on shared face",
            )
    return report


def validate_system(system: AdjunctionSystem) -> ValidationReport:
    """Check A1-A3, openness, bijection/sign preservation, closure extensions
    and orientation compatibility; every violation is a report entry."""
    report = ValidationReport()
    for idx, piece in enumerate(system.pieces):
        report.merge(validate_complex(piece), prefix=f"piece {system.names[idx]}/")

    for (i, j) in system.ordered_pairs():
        loc = f"region({system.names[i]},{system.names[j]})"
        region = system.region(i, j)
        if not is_star_closed(region):
            report.add("region-open", loc, "gluing region is not star-closed (not open)")
        gm = system.gluing(i, j)
        if gm is None:
            if region.members:
                report.add("map-missing", loc, "nonempty region has no gluing map")
            continue
        _validate_gluing_map(system, i, j, gm, report)

    # A2: opposite directions are mutually inverse
    for (i, j) in system.ordered_pairs():
        if i > j:
            continue
        gm = system.gluing(i, j)
        rev = system.gluing(j, i)
        if gm is None or rev is None:
            continue
        loc = f"map({system.names[i]},{system.names[j]})"
        inv = {v: k for k, v in gm.forward.items()}
        if rev.forward != inv:
            report.add("A2", loc, "reverse map is not the inverse of the forward map")
        if rev.source.members != frozenset(gm.forward.values()):
            report.add("A2", loc, "reverse region differs from the image of the forward region")
        inv_closure = {v: k for k, v in gm.closure_forward.items()}
        if rev.closure_forward != inv_closure:
            report.add("A2", loc, "reverse closure extension is not the inverse extension")

    _validate_cocycles(system, report)

    if system.orientations is not None:
        if len(system.orientations) != system.n():
            report.add("orientation", "system", "need one orientation per piece")
        else:
            for idx, orient in enumerate(system.orientations):
                report.merge(
                    validate_orientation(system.pieces[idx], orient),
                    prefix=f"piece {system.names[idx]}/",
                )
            for (i, j) in system.ordered_pairs():
                gm = system.gluing(i, j)
                if gm is None:
                    continue
                top = system.pieces[i].top_dimension
                for cell in sorted(gm.forward):
                    if system.pieces[i].dims.get(cell) != top:
                        continue
                    image = gm.forward[cell]
                    left = system.orientations[i].signs.get(cell)
                    right = system.orientations[j].signs.get(image)
                    if left is not None and right is not None and left != right:
                        report.add(
                            "orientation-preserving",
                            f"map({system.names[i]},{system.names[j]}):{cell}",
                            "gluing map reverses orientation",
                        )
    return report


def _validate_cocycles(system: AdjunctionSystem, report: ValidationReport) -> None:
    n = system.n()
    for i, j, k in itertools.permutations(range(n), 3):
        gm_ij = system.gluing(i, j)
        gm_ik = system.gluing(i, k)
        gm_jk = system.gluing(j, k)
        if gm_ij is None or gm_ik is None:
            continue
        overlap = system.region(i, j).members & system.region(i, k).members
        loc = f"A3({system.names[i]},{system.names[j]},{system.names[k]})"
        for cell in sorted(overlap):
            via_j = gm_ij.forward.get(cell)
            direct = gm_ik.forward.get(cell)
            if via_j is None or direct is None:
                continue  # bijection coverage problems are reported elsewhere
            if gm_jk is None or via_j not in gm_jk.forward:
                report.add("A3-domain", f"{loc}:{cell}", "composite map undefined on overlap")
                continue
            if gm_jk.forward[via_j] != direct:
                report.add("A3", f"{loc}:{cell}", "cocycle condition violated")
        # extension cocycle on the closure of the overlap, needed so that
        # restrictions between intersection closures compose coherently
        closed_overlap = closure(CellSet.of(system.pieces[i], overlap)).members
        for cell in sorted(closed_overlap - overlap):
            if cell not in gm_ij.closure_forward or cell not in gm_ik.closure_forward:
                continue
            via_j = gm_ij.closure_forward[cell]
            if gm_jk is None or via_j not in gm_jk.closure_forward:
                report.add(
                    "A3-closure-domain", f"{loc}:{cell}", "extension composite undefined on overlap closure"
                )
                continue
            if gm_jk.closure_forward[via_j] != gm_ik.closure_forward[cell]:
                report.add("A3-closure", f"{loc}:{cell}", "closure extensions violate the cocycle")


def _validate_gluing_map(
    system: AdjunctionSystem, i: int, j: int, gm: GluingMap, report: ValidationReport
) -> None:
    pi, pj = system.pieces[i], system.pieces[j]
    loc = f"map({system.names[i]},{system.names[j]})"
    region = system.region(i, j)
    if gm.source.members != region.members:
        report.add("map-domain", loc, "map source differs from the declared region")
    if set(gm.forward) != set(region.members):
        report.add("bijection", loc, "map is not defined on exactly the region")
    values = list(gm.forward.values())
    if len(set(values)) != len(values):
        report.add("bijection", loc, "map is not injective")
    if set(values) != set(gm.target.members):
        report.add("bijection", loc, "map image differs from the target region")

    src_closure = closure(region)
    tgt_closure = closure(system.region(j, i))
    if set(gm.closure_forward) != set(src_closure.members):
        missing = sorted(set(src_closure.members) - set(gm.closure_forward))
        if missing:
            report.add(
                "closure-extension",
                loc,
                f"extension missing on closure cells {missing[:5]}",
            )
        extra = sorted(set(gm.closure_forward) - set(src_closure.members))
        if extra:
            report.add("closure-extension", loc, f"extension defined off the closure: {extra[:5]}")
    cl_values = list(gm.closure_forward.values())
    if len(set(cl_values)) != len(cl_values):
        report.add("closure-extension", loc, "closure extension is not injective")
    elif set(gm.closure_forward) == set(src_closure.members) and set(cl_values) != set(
        tgt_closure.members
    ):
        report.add("closure-extension", loc, "closure extension is not onto the target closure")
    for cell in sorted(gm.forward):
        if gm.closure_forward.get(cell) != gm.forward[cell]:
            report.add("closure-extension", f"{loc}:{cell}", "extension disagrees with the map")
            break
    # frontier goes to frontier
    if is_star_closed(region) and is_star_closed(system.region(j, i)):
        front_src = frontier(region).members
        front_tgt = frontier(system.region(j, i)).members
        mapped = {gm.closure_forward[c] for c in front_src if c in gm.closure_forward}
        if mapped != front_tgt and set(gm.closure_forward) == set(src_closure.members):
            report.add("frontier-bijection", loc, "frontier does not map onto the opposite frontier")

    # dimension and incidence-sign preservation on the whole closure
    for cell in sorted(gm.closure_forward):
        image = gm.closure_forward[cell]
        if cell not in pi.dims or image not in pj.dims:
            report.add("bijection", f"{loc}:{cell}", "map references unknown cells")
            continue
        if pi.dims[cell] != pj.dims[image]:
            report.add("dimension-preserving", f"{loc}:{cell}", "image has different dimension")
            continue
        for face, sign in pi.faces_of(cell).items():
            if face not in gm.closure_forward:
                continue
            want = pj.faces_of(image).get(gm.closure_forward[face])
            if want != sign:
                report.add(
                    "incidence-preserving",
                    f"{loc}:{cell}->{face}",
                    f"incidence sign {sign} maps to {want}",
                )
