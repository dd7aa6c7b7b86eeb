"""Exact rational cohomology of adjunction systems.

Two bicomplex flavors are computed over the cover by the pieces:

* CLOSED_INTERSECTION - column p holds cochains on the face-closures of the
  (p+1)-fold intersection domains; its total complex is the de Rham-style
  cohomology of the glued space.
* OPEN_CORE - column p holds cochains on user-declared face-closed cores that
  carry the homotopy type of the open intersections; its total complex is the
  singular-style cohomology.

Where the closure-intersection property holds, the Cech rows of the
CLOSED_INTERSECTION bicomplex are exact, so its total cohomology is that of
the global cochains (the generalized Mayer-Vietoris principle, Bott-Tu
Prop. 8.8).  Those are the cochains of one small complex, whose cells are
the classes of (piece, cell) pairs under the closure extensions of the
gluing maps; ``betti --flavor dr``, the comparison and the fibre-product
Betti numbers rank that complex instead of the bicomplex, and build the
bicomplex only where the property or a guard of the class complex fails.
The Mayer-Vietoris report and the row-exactness check keep the bicomplex,
whose columns and rows they read.

All of it shares one exact-rank engine, :meth:`linalg.Mat.rank` (reached
through the clearing of :func:`linalg.complex_ranks` for a complex whose
d∘d = 0 has been checked), and one Cech differential with the
alternating-sign restriction convention whose binary block is
(restriction) - (pullback along the closure extension).  Every matrix
assembled here has entries +-1 (or their sums), stored as ``int``, so
assembly, the d-d checks and the unit-pivot elimination behind the rank run
on integers; a ``Fraction`` appears only if elimination meets a row without
a +-1 entry.

:class:`CoreAssignment` is defined in :mod:`cells`, so that loading a document
does not load this module, and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .adjunction import (
    AdjunctionSystem,
    CellClasses,
    ClassKey,
    NerveTuple,
    nerve,
    regular_open_check,
    union_of_regions,
)
from .cells import (
    CellSet,
    CoreAssignment,
    closure,
    equivalence_classes,
    euler_characteristic,
    interior,
    is_face_closed,
)
from .errors import PreconditionError
from .linalg import Mat, complex_ranks


class Flavor(Enum):
    CLOSED_INTERSECTION = "closed-intersection"
    OPEN_CORE = "open-core"


@dataclass(eq=False)
class FreeComplex:
    """Finite cochain complex of rational vector spaces.

    ``maps[q]`` sends degree q to degree q+1 and has shape
    (len(bases[q+1]), len(bases[q])).
    """

    bases: list[list]
    maps: list[Mat]

    def dim(self, q: int) -> int:
        return len(self.bases[q]) if 0 <= q < len(self.bases) else 0

    def validate(self) -> None:
        for q in range(len(self.maps) - 1):
            if not self.maps[q + 1].matmul(self.maps[q]).is_zero():
                raise PreconditionError(f"FreeComplex: d∘d != 0 between degrees {q} and {q + 2}")


def betti(fc: FreeComplex) -> list[int]:
    """b_q = dim ker(d_q) - rank(d_{q-1}), by exact elimination."""
    return _betti_from_ranks([fc.dim(q) for q in range(len(fc.bases))], _checked_ranks(fc))


def _checked_ranks(fc: FreeComplex) -> dict[int, int]:
    """The rank of each differential, after checking d∘d = 0, which the
    clearing in :func:`linalg.complex_ranks` needs."""
    fc.validate()
    return dict(enumerate(complex_ranks(fc.maps)))


def _betti_from_ranks(dims: list[int], ranks: dict[int, int]) -> list[int]:
    """b_q = dims[q] - ranks[q] - ranks[q-1], where ranks[q] is the rank of
    the differential out of degree q (0 where ``ranks`` has no entry)."""
    return [dims[q] - ranks.get(q, 0) - ranks.get(q - 1, 0) for q in range(len(dims))]


def complex_free_complex(c) -> FreeComplex:
    """The cellular cochain complex of one cell complex."""
    max_q = c.top_dimension
    bases = [c.cells_of_dim(q) for q in range(max_q + 1)]
    indexes = [{cell: k for k, cell in enumerate(b)} for b in bases]
    maps: list[Mat] = []
    for q in range(max_q):
        col = indexes[q]
        rows = [
            {col[face]: sign for face, sign in c.faces_of(cell).items() if sign}
            for cell in bases[q + 1]
        ]
        maps.append(Mat(len(bases[q + 1]), len(bases[q]), rows))
    return FreeComplex(bases, maps)


def complex_betti(c) -> list[int]:
    """Betti numbers of a single cell complex (the brute-force oracle path)."""
    return betti(complex_free_complex(c))


# -- cores -------------------------------------------------------------------


def resolve_cores(
    system: AdjunctionSystem, assignment: CoreAssignment | None
) -> dict[tuple[int, ...], CellSet]:
    """Fill in defaults (the open domain itself when it is already closed,
    e.g. for clopen gluings) and verify containment and nesting.

    Only tuples with a nonempty open intersection get an entry; every other
    core is empty, and a nonempty one declared there is rejected.
    """
    return _resolve_cores(system, assignment, nerve(system))


def _resolve_cores(
    system: AdjunctionSystem, assignment: CoreAssignment | None, entries: list[NerveTuple]
) -> dict[tuple[int, ...], CellSet]:
    given = assignment.cores if assignment is not None else {}
    domains = {entry.tup: entry.domain for entry in entries if entry.domain.members}
    # every other tuple has an empty open intersection, so only a nonempty
    # core declared on one of them can fail
    stray = {tup for tup, core in given.items() if core.members and tup not in domains}
    resolved: dict[tuple[int, ...], CellSet] = {}
    for tup in sorted(domains.keys() | stray, key=lambda t: (len(t), t)):
        domain = domains[tup] if tup in domains else CellSet.of(system.pieces[tup[0]], ())
        core = given.get(tup)
        if core is None:
            if is_face_closed(domain):
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
    # nesting: the core of a larger tuple must land inside every smaller core
    for tup, core in resolved.items():
        for drop in range(len(tup)):
            sub = tup[:drop] + tup[drop + 1 :]
            if len(sub) < 2:
                continue
            sub_core = resolved[sub].members if sub in resolved else frozenset()
            for cell in core.sorted_members():
                moved = cell if sub[0] == tup[0] else system.cell_map(tup[0], sub[0], cell)
                if moved not in sub_core:
                    raise PreconditionError(
                        f"core for tuple {tup} is not contained in the core for {sub}"
                    )
    return resolved


# -- bicomplex ---------------------------------------------------------------


BasisLabel = tuple[tuple[int, ...], str]


@dataclass(eq=False)
class Bicomplex:
    """Grid of rational cochain spaces with vertical coboundary d and
    horizontal Cech differential delta (anticommuting after the standard
    twist of d by (-1)^p on column p)."""

    flavor: Flavor
    system: AdjunctionSystem
    tuples_by_p: list[list[tuple[int, ...]]]
    domains: dict[tuple[int, ...], CellSet]
    max_q: int
    bases: dict[tuple[int, int], list[BasisLabel]]
    index: dict[tuple[int, int], dict[BasisLabel, int]]
    vertical: dict[tuple[int, int], Mat]
    horizontal: dict[tuple[int, int], Mat]

    def columns(self) -> int:
        return len(self.tuples_by_p)

    def dim(self, p: int, q: int) -> int:
        return len(self.bases.get((p, q), []))

    def delta(self, p: int, q: int) -> Mat:
        """delta out of (p, q); in the last column, the zero map to nothing."""
        mat = self.horizontal.get((p, q))
        return mat if mat is not None else Mat.zeros(self.dim(p + 1, q), self.dim(p, q))

    def verify(self) -> None:
        """delta^2 = 0, d^2 = 0 and d delta = delta d on every grid cell.

        No library path calls this: the guards of the class complex check
        that d preserves the global cochains, and the d∘d check of the total
        complex covers the rest.  It stays for the tests, and because the
        benchmark tracer binds it by name, as it does ``FreeComplex.validate``.
        """
        for p in range(self.columns()):
            for q in range(self.max_q + 1):
                d_here = self.vertical.get((p, q))
                d_up = self.vertical.get((p, q + 1))
                if d_here is not None and d_up is not None:
                    if not d_up.matmul(d_here).is_zero():
                        raise PreconditionError(f"bicomplex: d^2 != 0 at (p={p}, q={q})")
                h_here = self.horizontal.get((p, q))
                h_right = self.horizontal.get((p + 1, q))
                if h_here is not None and h_right is not None:
                    if not h_right.matmul(h_here).is_zero():
                        raise PreconditionError(f"bicomplex: delta^2 != 0 at (p={p}, q={q})")
                h_up = self.horizontal.get((p, q + 1))
                d_right = self.vertical.get((p + 1, q))
                if (
                    d_here is not None
                    and h_here is not None
                    and h_up is not None
                    and d_right is not None
                ):
                    left = h_up.matmul(d_here)
                    right = d_right.matmul(h_here)
                    for r in range(left.nrows):
                        if left.rows[r] != right.rows[r]:
                            raise PreconditionError(
                                f"bicomplex: d and delta do not commute at (p={p}, q={q})"
                            )

    def total_complex(self) -> FreeComplex:
        """Single complex with degree p+q and differential delta + (-1)^p d."""
        top = self.columns() - 1 + self.max_q
        bases: list[list] = []
        offsets: list[dict[tuple[int, int], int]] = []
        for n in range(top + 1):
            labels: list = []
            off: dict[tuple[int, int], int] = {}
            for p in range(self.columns()):
                q = n - p
                if q < 0 or q > self.max_q:
                    continue
                off[(p, q)] = len(labels)
                labels.extend((p, q, lab) for lab in self.bases.get((p, q), []))
            bases.append(labels)
            offsets.append(off)
        # Each source block owns a column range, so no two blocks write the
        # same entry: every entry is a nonzero block entry, shifted and signed.
        maps: list[Mat] = []
        for n in range(top):
            rows: list[dict] = [{} for _ in bases[n + 1]]
            for (p, q), src_off in offsets[n].items():
                if self.dim(p, q) == 0:
                    continue
                horiz = self.horizontal.get((p, q))
                if horiz is not None and (p + 1, q) in offsets[n + 1]:
                    row_off = offsets[n + 1][(p + 1, q)]
                    for r, row in enumerate(horiz.rows, row_off):
                        target = rows[r]
                        for c, v in row.items():
                            target[src_off + c] = v
                vert = self.vertical.get((p, q))
                if vert is not None and (p, q + 1) in offsets[n + 1]:
                    row_off = offsets[n + 1][(p, q + 1)]
                    sign = (-1) ** p
                    for r, row in enumerate(vert.rows, row_off):
                        target = rows[r]
                        for c, v in row.items():
                            target[src_off + c] = sign * v
            maps.append(Mat(len(bases[n + 1]), len(bases[n]), rows))
        return FreeComplex(bases, maps)


def _column_tuples(
    system: AdjunctionSystem, domains: dict[tuple[int, ...], CellSet]
) -> list[list[tuple[int, ...]]]:
    """Column p lists the (p+1)-tuples that carry a domain; a column is kept,
    possibly empty, for every arity, so the shape of the total complex does
    not depend on which intersections are empty."""
    n = system.n()
    columns: list[list[tuple[int, ...]]] = [[(i,) for i in range(n)]]
    for size in range(2, n + 1):
        columns.append(sorted(tup for tup in domains if len(tup) == size))
    return columns


def _require_closure_intersection(entries: list[NerveTuple]) -> None:
    bad = sorted(entry.tup for entry in entries if not entry.closure_ok)
    if bad:
        raise PreconditionError(f"closure-intersection property violated at tuple {bad[0]}")


def _flavor_domains(
    system: AdjunctionSystem,
    flavor: Flavor,
    cores: CoreAssignment | None,
    check_preconditions: bool,
    entries: list[NerveTuple],
) -> dict[tuple[int, ...], CellSet]:
    domains: dict[tuple[int, ...], CellSet] = {
        (i,): system.pieces[i].whole_set() for i in range(system.n())
    }
    if flavor is Flavor.CLOSED_INTERSECTION:
        if check_preconditions:
            _require_closure_intersection(entries)
        domains.update((entry.tup, entry.closed) for entry in entries if entry.closed.members)
    else:
        domains.update(_resolve_cores(system, cores, entries))
    return domains


def _domain_transport(
    system: AdjunctionSystem, flavor: Flavor, src_tuple: tuple[int, ...], cell: str, to_piece: int
) -> str:
    if to_piece == src_tuple[0]:
        return cell
    if flavor is Flavor.CLOSED_INTERSECTION:
        return system.closure_cell_map(src_tuple[0], to_piece, cell)
    return system.cell_map(src_tuple[0], to_piece, cell)


def build_bicomplex(
    system: AdjunctionSystem,
    flavor: Flavor,
    cores: CoreAssignment | None = None,
    check_preconditions: bool = True,
    *,
    entries: list[NerveTuple] | None = None,
) -> Bicomplex:
    """The bicomplex of the given flavor over the nerve of the cover.

    ``entries``, for a caller that has walked the nerve already, must be
    ``nerve(system)``.
    """
    if entries is None:
        entries = nerve(system)
    domains = _flavor_domains(system, flavor, cores, check_preconditions, entries)
    return _assemble(system, flavor, _column_tuples(system, domains), domains)


def _assemble(
    system: AdjunctionSystem,
    flavor: Flavor,
    tuples_by_p: list[list[tuple[int, ...]]],
    domains: dict[tuple[int, ...], CellSet],
) -> Bicomplex:
    """The grid of cochain spaces on ``domains`` and its two differentials."""
    max_q = max(piece.top_dimension for piece in system.pieces)

    bases: dict[tuple[int, int], list[BasisLabel]] = {}
    index: dict[tuple[int, int], dict[BasisLabel, int]] = {}
    for p, tuples in enumerate(tuples_by_p):
        for q in range(max_q + 1):
            labels: list[BasisLabel] = []
            for tup in tuples:
                labels.extend((tup, cell) for cell in domains[tup].members_of_dim(q))
            bases[(p, q)] = labels
            index[(p, q)] = {lab: k for k, lab in enumerate(labels)}

    # A row's entries sit in distinct columns: distinct faces of one cell in
    # d, distinct sub-tuples in delta.  So each row is written directly,
    # leaving out only zero incidence signs.
    vertical: dict[tuple[int, int], Mat] = {}
    for p in range(len(tuples_by_p)):
        for q in range(max_q):
            col_index = index[(p, q)]
            rows: list[dict] = []
            for tup, cell in bases[(p, q + 1)]:
                members = domains[tup].members
                row: dict = {}
                for face, sign in system.pieces[tup[0]].faces_of(cell).items():
                    if sign and face in members:
                        row[col_index[(tup, face)]] = sign
                rows.append(row)
            vertical[(p, q)] = Mat(len(rows), len(bases[(p, q)]), rows)

    horizontal: dict[tuple[int, int], Mat] = {}
    for p in range(len(tuples_by_p) - 1):
        for q in range(max_q + 1):
            col_index = index[(p, q)]
            rows = []
            for tup, cell in bases[(p + 1, q)]:
                row = {}
                for alpha in range(len(tup)):
                    sub = tup[:alpha] + tup[alpha + 1 :]
                    try:
                        moved = _domain_transport(system, flavor, tup, cell, sub[0])
                        row[col_index[(sub, moved)]] = (-1) ** (alpha + 1)
                    except KeyError as exc:
                        raise PreconditionError(
                            f"restriction from tuple {sub} to {tup} undefined at cell "
                            f"{cell!r}: missing containment"
                        ) from exc
                rows.append(row)
            horizontal[(p, q)] = Mat(len(rows), len(bases[(p, q)]), rows)

    return Bicomplex(
        flavor=flavor,
        system=system,
        tuples_by_p=tuples_by_p,
        domains=domains,
        max_q=max_q,
        bases=bases,
        index=index,
        vertical=vertical,
        horizontal=horizontal,
    )


def total_betti(bicx: Bicomplex) -> list[int]:
    return betti(bicx.total_complex())


def trim_trailing_zeros(values: Sequence[int]) -> list[int]:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return out


# -- the global (fibre product) complex --------------------------------------


def closure_cell_classes(system: AdjunctionSystem) -> CellClasses:
    """Equivalence classes of (piece, cell) pairs under the closure
    extension of each map i -> j with i < j, on the closure of its region:
    the identifications that a global cochain makes, matched frontier cells
    included.

    The classes come in the order of their first members, pieces in order
    and each piece's cells in its own order, and the members of a class in
    piece order.  Raises PreconditionError where an extension misses a
    closure cell or sends one to a cell its target does not have.
    """
    pieces, names = system.pieces, system.names
    links: list[tuple[tuple[int, str], tuple[int, str]]] = []
    for (i, j), region in sorted(system.regions.items()):
        if i < j and region.members:
            gm = system.maps.get((i, j))
            extension = gm.closure_forward if gm is not None else {}
            for cell in closure(region).members:
                image = extension.get(cell)
                if image not in pieces[j].dims:
                    raise PreconditionError(
                        f"closure extension {names[i]}->{names[j]} undefined at cell {cell!r}"
                    )
                links.append(((i, cell), (j, image)))
    # only linked cells can share a class: every other cell is a singleton
    linked = sorted({node for link in links for node in link})
    group_of = {node: group for group in equivalence_classes(linked, links) for node in group}
    classes: list[ClassKey] = []
    for i, piece in enumerate(pieces):
        for cell in piece.dims:
            group = group_of.get((i, cell))
            if group is None:
                classes.append(((i, cell),))
            elif group[0] == (i, cell):
                classes.append(tuple(group))
    return CellClasses(classes, {node: k for k, cls in enumerate(classes) for node in cls})


def class_boundaries(
    system: AdjunctionSystem, classes: CellClasses
) -> tuple[list[int], list[dict[int, int]], int | None]:
    """The dimension and boundary row of each class, and the index of the
    first class whose members do not all give the same dimension and row
    (None when every class agrees); rows are given up to that class.  Both
    class complexes are built from it: the global cochains here and
    :func:`adjunction.quotient_complex`.

    A member's row maps the class of each face to its incidence sign, summed
    over faces in one class, with zero sums and faces that are not cells
    left out.
    """
    pieces = system.pieces
    class_in: list[dict[str, int]] = [{} for _ in pieces]
    for (i, cell), k in classes.index.items():
        class_in[i][cell] = k

    empty: dict[str, int] = {}

    def row_of(i: int, cell: str) -> dict[int, int]:
        where = class_in[i]
        row: dict[int, int] = {}
        for face, sign in pieces[i].faces.get(cell, empty).items():
            k = where.get(face)
            if k is not None:
                row[k] = row[k] + sign if k in row else sign
        if 0 in row.values():
            row = {k: v for k, v in row.items() if v}
        return row

    dims: list[int] = []
    rows: list[dict[int, int]] = []
    for k, key in enumerate(classes.classes):
        i, cell = key[0]
        dim = pieces[i].dims[cell]
        row = row_of(i, cell)
        dims.append(dim)
        if len(key) > 1:
            for j, other in key[1:]:
                if pieces[j].dims[other] != dim or row_of(j, other) != row:
                    return dims, rows, k
        rows.append(row)
    return dims, rows, None


def _class_complex(system: AdjunctionSystem, classes: CellClasses) -> FreeComplex:
    """The complex of global cochains, the kernel K of delta at column 0 of
    the CLOSED flavor, with componentwise d; ``classes`` are
    ``closure_cell_classes(system)``.

    A global cochain takes one value on each class of (piece, cell) pairs
    under the closure extensions, so K^q is spanned by the classes of
    dimension q.  d maps K into itself exactly when every member of a class
    gives the same class-level boundary row, and that row is then d on K.
    Raises PreconditionError naming the first class where they differ.
    """
    names = system.names
    dims, rows, mismatch = class_boundaries(system, classes)
    if mismatch is not None:
        i, c = classes.classes[mismatch][0]
        raise PreconditionError(f"global cochains: incidence mismatch on the class of {names[i]}:{c}")
    top = max(piece.top_dimension for piece in system.pieces)
    bases: list[list[int]] = [[] for _ in range(top + 1)]
    position: list[int] = []
    for k, q in enumerate(dims):
        position.append(len(bases[q]))
        bases[q].append(k)
    maps: list[Mat] = []
    for q in range(top):
        below = set(bases[q])
        for k in bases[q + 1]:
            if not below.issuperset(rows[k]):
                i, c = classes.classes[k][0]
                raise PreconditionError(f"global cochains: a face of {names[i]}:{c} is not of dimension {q}")
        mat_rows = [{position[face]: sign for face, sign in rows[k].items()} for k in bases[q + 1]]
        maps.append(Mat(len(bases[q + 1]), len(bases[q]), mat_rows))
    return FreeComplex(bases, maps)


def global_complex_betti(system: AdjunctionSystem) -> list[int]:
    """Betti numbers of the complex of global cochains (the fibre product),
    one per degree up to the largest piece dimension, from the class complex
    of :func:`_class_complex`."""
    return betti(_class_complex(system, closure_cell_classes(system)))


def _restrictions_defined(system: AdjunctionSystem, entries: list[NerveTuple]) -> bool:
    """Whether the closure extension i1 -> i2 of each nerve tuple of three
    or more pieces sends its closed domain into that of the tuple without
    i1, as the Cech restriction of the bicomplex needs; the restrictions
    that keep i1 stay in one piece and are defined whenever the closures
    nest, which they do."""
    closed = {entry.tup: entry.closed.members for entry in entries}
    for entry in entries:
        tup = entry.tup
        if len(tup) > 2 and closed[tup]:
            gm = system.maps.get(tup[:2])
            target = closed.get(tup[1:], frozenset())
            if gm is None or not target.issuperset(map(gm.closure_forward.get, closed[tup])):
                return False
    return True


def _de_rham_betti(system: AdjunctionSystem, entries: list[NerveTuple]) -> list[int]:
    """Total Betti numbers of the CLOSED flavor; ``entries`` is the nerve.

    Where the closure-intersection property holds over ``entries``, the
    Cech rows are exact, so the total cohomology is that of the global
    cochains (the generalized Mayer-Vietoris principle, Bott-Tu Prop. 8.8),
    and the small class complex is ranked.  That needs the restrictions of
    the bicomplex to be defined, each class to hold at most one cell of each
    piece, and d to map the global cochains into themselves; a valid system
    meets all three.  Where the property or a guard fails, the bicomplex is
    built and ranked, and raises where it did before.  The two lists agree
    up to trailing zeros.
    """
    fc = None
    if all(entry.closure_ok for entry in entries) and _restrictions_defined(system, entries):
        try:
            classes = closure_cell_classes(system)
            # members come in piece order, so a repeated piece is a repeat of its predecessor
            if all(key[m][0] != key[m - 1][0] for key in classes.classes for m in range(1, len(key))):
                fc = _class_complex(system, classes)
        except PreconditionError:
            pass  # the bicomplex decides
    if fc is not None:
        return betti(fc)
    bicx = build_bicomplex(system, Flavor.CLOSED_INTERSECTION, check_preconditions=False, entries=entries)
    return total_betti(bicx)


def de_rham_betti(system: AdjunctionSystem) -> list[int]:
    """Total Betti numbers of the CLOSED flavor, which is defined only where
    the closure-intersection property holds: raises PreconditionError naming
    the first nerve tuple where it fails, as ``build_bicomplex`` does."""
    entries = nerve(system)
    _require_closure_intersection(entries)
    return _de_rham_betti(system, entries)


# -- row exactness ------------------------------------------------------------


@dataclass(eq=False)
class RowNode:
    p: int
    dim: int
    rank_in: int
    rank_out: int
    exact: bool


@dataclass(eq=False)
class RowExactnessReport:
    closure_checks: dict[tuple[int, ...], bool]
    precondition_ok: bool
    global_dims: dict[int, int]
    nodes: dict[int, list[RowNode]]

    @property
    def all_exact(self) -> bool:
        return all(node.exact for row in self.nodes.values() for node in row)


def row_exactness_check(system: AdjunctionSystem) -> RowExactnessReport:
    """Rank bookkeeping for each row 0 -> global -> column 0 -> ... -> 0 of
    the CLOSED flavor.  When the closure-intersection precondition fails the
    result is still reported, just not asserted as a theorem."""
    entries = nerve(system)
    checks = {entry.tup: entry.closure_ok for entry in entries}
    precondition_ok = all(checks.values())
    bicx = build_bicomplex(system, Flavor.CLOSED_INTERSECTION, check_preconditions=False, entries=entries)
    columns = bicx.columns()
    global_dims: dict[int, int] = {}
    nodes: dict[int, list[RowNode]] = {}
    for q in range(bicx.max_q + 1):
        ranks = [bicx.horizontal[(p, q)].rank() for p in range(columns - 1)]
        dims = [bicx.dim(p, q) for p in range(columns)]
        global_dims[q] = dims[0] - ranks[0] if columns > 1 else dims[0]
        row_nodes: list[RowNode] = []
        for p in range(columns):
            rank_in = ranks[p - 1] if p >= 1 else global_dims[q]
            rank_out = ranks[p] if p < columns - 1 else 0
            kernel = dims[p] - rank_out
            row_nodes.append(RowNode(p, dims[p], rank_in, rank_out, exact=(kernel == rank_in)))
        nodes[q] = row_nodes
    return RowExactnessReport(checks, precondition_ok, global_dims, nodes)


# -- Mayer-Vietoris report for binary systems ---------------------------------


@dataclass(eq=False)
class MVRow:
    q: int
    h_total: int
    h_pieces: int
    h_domain: int
    rank_on_cohomology: int
    kernel_dim: int
    coker_prev: int
    derived_h_total: int


@dataclass(eq=False)
class MVReport:
    flavor: Flavor
    rows: list[MVRow]
    alternating_sum: int

    @property
    def exact(self) -> bool:
        return self.alternating_sum == 0 and all(
            row.h_total == row.derived_h_total for row in self.rows
        )


def mv_report(
    system: AdjunctionSystem,
    flavor: Flavor = Flavor.CLOSED_INTERSECTION,
    cores: CoreAssignment | None = None,
) -> MVReport:
    """Long-exact-sequence bookkeeping for a binary system: per degree the
    three term dimensions, the rank of (restriction - pullback) on cohomology
    and the derived dimension; the alternating sum of all dims must vanish.

    With A the column of pieces, B the column of the domain, d_A and d_B
    their vertical maps and f = delta_q the chain map A^q -> B^q, the total
    differential out of degree q, on A^q + B^{q-1}, is the mapping cone of f:
    D_q = [[d_A^q, 0], [delta_q, -d_B^{q-1}]].  Up to the order of its block
    rows and the sign of its B column block, which leave the rank alone, it
    is the matrix [[delta_q, d_B^{q-1}], [d_A^q, 0]] whose rank gives f_*, so
    rank f_* = rank D_q - rank d_A^q - rank d_B^{q-1}.
    The ranks of D_q also give the total Betti numbers, and the ranks of d_A
    and d_B the column Betti numbers, so each matrix is ranked once.
    """
    if system.n() != 2:
        raise PreconditionError("mv_report: system is not binary")
    bicx = build_bicomplex(system, flavor, cores)
    total = bicx.total_complex()
    # raises unless D^2 = 0, i.e. d^2 = 0, delta^2 = 0 and d delta = delta d
    rank_total = _checked_ranks(total)
    h_total = _betti_from_ranks([total.dim(q) for q in range(len(total.bases))], rank_total)
    # one degree past the columns: the connecting map out of B^{max_q} lands there
    degrees = range(len(h_total))
    # the diagonal blocks of D^2 = 0 are d_A^2 = 0 and d_B^2 = 0, as clearing needs
    rank_a = dict(enumerate(complex_ranks([bicx.vertical[(0, q)] for q in range(bicx.max_q)])))
    rank_b = dict(enumerate(complex_ranks([bicx.vertical[(1, q)] for q in range(bicx.max_q)])))
    h_a = _betti_from_ranks([bicx.dim(0, q) for q in degrees], rank_a)
    h_b = _betti_from_ranks([bicx.dim(1, q) for q in degrees], rank_b)
    rank_f = [
        rank_total.get(q, 0) - rank_a.get(q, 0) - rank_b.get(q - 1, 0) for q in degrees
    ]
    rows: list[MVRow] = []
    for q in degrees:
        kernel_dim = h_a[q] - rank_f[q]
        coker_prev = h_b[q - 1] - rank_f[q - 1] if q >= 1 else 0
        rows.append(
            MVRow(
                q=q,
                h_total=h_total[q],
                h_pieces=h_a[q],
                h_domain=h_b[q],
                rank_on_cohomology=rank_f[q],
                kernel_dim=kernel_dim,
                coker_prev=coker_prev,
                derived_h_total=kernel_dim + coker_prev,
            )
        )
    alternating = sum((-1) ** q * (h_total[q] - h_a[q] + h_b[q]) for q in degrees)
    return MVReport(flavor, rows, alternating)


# -- Euler characteristic and the comparison ----------------------------------


def euler_inclusion_exclusion(
    system: AdjunctionSystem,
    cores: CoreAssignment | None = None,
    *,
    entries: list[NerveTuple] | None = None,
) -> int:
    """sum_p (-1)^{p+1} sum_{i1<...<ip} chi(intersection domain), with the
    homotopy type of each open intersection supplied by its core.
    ``entries``, for a caller that has walked the nerve already, must be
    ``nerve(system)``."""
    total = 0
    for i in range(system.n()):
        total += euler_characteristic(system.pieces[i].whole_set())
    resolved = _resolve_cores(system, cores, nerve(system) if entries is None else entries)
    for tup, core in resolved.items():
        total += (-1) ** (len(tup) + 1) * euler_characteristic(core)
    return total


@dataclass(eq=False)
class CompareReport:
    de_rham: list[int]
    singular: list[int]
    equal: bool
    regular_open_regions: dict[tuple[int, int], bool]
    regular_open_unions: dict[int, bool]
    closure_intersection_ok: bool
    hypotheses_hold: bool


def de_rham_compare(system: AdjunctionSystem, cores: CoreAssignment | None = None) -> CompareReport:
    """Compute both flavors, flag EQUAL/UNEQUAL, and record whether the
    hypotheses of the comparison theorem (regular-open regions and unions,
    closure-intersection property) hold.  The comparison itself has no
    preconditions: the flavors are computed either way.  The nerve is walked
    once and serves both flavors and the closure-intersection verdict."""
    entries = nerve(system)
    dr = _de_rham_betti(system, entries)
    sing = total_betti(build_bicomplex(system, Flavor.OPEN_CORE, cores, entries=entries))
    width = max(len(dr), len(sing))
    dr += [0] * (width - len(dr))
    sing += [0] * (width - len(sing))
    regions = regular_open_check(system)
    unions: dict[int, bool] = {}
    for k in range(1, system.n()):
        union = union_of_regions(system, k, range(k))
        unions[k] = interior(closure(union)).members == union.members
    closure_ok = all(entry.closure_ok for entry in entries)
    hypotheses = all(regions.values()) and all(unions.values()) and closure_ok
    return CompareReport(
        de_rham=dr,
        singular=sing,
        equal=dr == sing,
        regular_open_regions=regions,
        regular_open_unions=unions,
        closure_intersection_ok=closure_ok,
        hypotheses_hold=hypotheses,
    )
