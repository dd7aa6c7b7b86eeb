"""Reference implementations that walk all 2^n - n - 1 piece tuples.

These are the tuple walks the library used before it enumerated the nerve of
the cover.  They visit every normalized tuple, empty intersections included,
and serve as the oracle for the differential tests in test_nerve.py.  The
reference bicomplex shares only the matrix assembly with the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nonhausdorff.adjunction import AdjunctionSystem, normalized_tuples
from nonhausdorff.cells import CellSet, closure, euler_characteristic, is_face_closed
from nonhausdorff.cochains import GlobalCochain, domain_integral, piece_integral
from nonhausdorff.cohomology import Bicomplex, CoreAssignment, Flavor, _assemble
from nonhausdorff.errors import PreconditionError


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
