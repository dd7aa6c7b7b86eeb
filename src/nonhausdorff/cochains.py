"""Cellular cochains with rational coefficients over adjunction systems.

A cochain value on a top cell is read as the integrated density over that
cell, so integration over a piece is the orientation-signed sum of values and
the integral over the whole glued space is the alternating inclusion-exclusion
sum with closures.  The failure of the global Stokes identity is computed
exactly: the boundary term lives on the matched frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .adjunction import (
    AdjunctionSystem,
    CellClasses,
    ClassKey,
    glued_cell_classes,
    nerve,
)
from .cells import CellSet, Orientation, closure, frontier, is_face_closed, is_star_closed
from .errors import IncompatibleCochainError, InvariantError, PreconditionError


@dataclass(frozen=True, eq=False)
class Cochain:
    """Rational values on the degree-q cells of a support domain.

    Missing entries are zero; keys must be degree-q cells of the owner set.
    """

    owner: CellSet
    degree: int
    values: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        dims = self.owner.owner.dims
        for cell in self.values:
            if cell not in self.owner.members:
                raise ValueError(f"cochain value on cell outside its domain: {cell!r}")
            if dims[cell] != self.degree:
                raise ValueError(
                    f"cochain value on {cell!r} of dimension {dims[cell]}, degree is {self.degree}"
                )

    @classmethod
    def of(cls, owner: CellSet, degree: int, values: Mapping[str, int | Fraction]) -> "Cochain":
        cleaned = {c: Fraction(v) for c, v in values.items() if Fraction(v) != 0}
        return cls(owner, degree, cleaned)

    def value(self, cell: str) -> Fraction:
        return self.values.get(cell, Fraction(0))


def coboundary(w: Cochain) -> Cochain:
    """(dw)(c) = sum over faces f of c of incidence(c,f) * w(f).

    The owner must be face-closed or star-closed so the sum sees every face
    it needs (for open owners this is the extension-by-zero convention).
    """
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


def restrict(w: Cochain, domain: CellSet) -> Cochain:
    values = {c: v for c, v in w.values.items() if c in domain.members}
    return Cochain(domain, w.degree, values)


def extend_by_zero(w: Cochain) -> Cochain:
    """Extend a cochain on a face-closed domain by zero into its whole piece."""
    if not is_face_closed(w.owner):
        raise PreconditionError("extend_by_zero: owner is not face-closed")
    return Cochain(w.owner.owner.whole_set(), w.degree, dict(w.values))


@dataclass(frozen=True, eq=False)
class GlobalCochain:
    """Tuple of per-piece cochains compatible on gluing-region closures.

    Compatibility includes the frontier cells under the closure extensions;
    at cell level this is checked, never inferred.
    """

    system: AdjunctionSystem
    degree: int
    components: tuple[Cochain, ...]

    def component(self, i: int) -> Cochain:
        return self.components[i]

    def value(self, piece: int, cell: str) -> Fraction:
        return self.components[piece].value(cell)


def assemble_global(
    system: AdjunctionSystem, components: Sequence[Cochain], degree: int | None = None
) -> GlobalCochain:
    """Validate fibre-product compatibility and build the global cochain."""
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


def coboundary_global(w: GlobalCochain) -> GlobalCochain:
    return assemble_global(w.system, [coboundary(comp) for comp in w.components])


def zero_global(system: AdjunctionSystem, degree: int) -> GlobalCochain:
    comps = [Cochain(piece.whole_set(), degree, {}) for piece in system.pieces]
    return GlobalCochain(system, degree, tuple(comps))


# -- integration -------------------------------------------------------------


def _require_oriented_top(system: AdjunctionSystem, degree: int) -> int:
    if system.orientations is None:
        raise PreconditionError("integrate: system carries no orientation")
    tops = {piece.top_dimension for piece in system.pieces}
    if len(tops) != 1:
        raise PreconditionError(f"integrate: pieces have mixed top dimensions {sorted(tops)}")
    top = tops.pop()
    if degree != top:
        raise PreconditionError(f"integrate: cochain degree {degree} is not the top dimension {top}")
    return top


def _orientation(system: AdjunctionSystem, piece: int, context: str) -> Orientation:
    if system.orientations is None:
        raise PreconditionError(f"{context}: system carries no orientation")
    return system.orientations[piece]


def piece_integral(system: AdjunctionSystem, piece: int, w: Cochain) -> Fraction:
    """Orientation-signed sum of the values on the top cells of one piece."""
    orient = _orientation(system, piece, "piece_integral")
    total = Fraction(0)
    for cell in system.pieces[piece].cells_of_dim(system.pieces[piece].top_dimension):
        total += orient.sign(cell) * w.value(cell)
    return total


def domain_integral(system: AdjunctionSystem, piece: int, domain: CellSet, w: Cochain) -> Fraction:
    orient = _orientation(system, piece, "domain_integral")
    top = system.pieces[piece].top_dimension
    total = Fraction(0)
    for cell in domain.members_of_dim(top):
        total += orient.sign(cell) * w.value(cell)
    return total


def integrate(w: GlobalCochain) -> Fraction:
    """Alternating inclusion-exclusion integral of a top-degree global cochain.

    sum_i (integral over piece i)
      - sum_{p>=2} (-1)^p sum_{i1<...<ip} (integral over the closure of the
        p-fold intersection, taken in the smallest-index piece).

    Only the tuples of the nerve can have a nonempty closure.  Cross-checked
    against the direct sum over glued cell classes; a mismatch raises
    InvariantError.
    """
    system = w.system
    _require_oriented_top(system, w.degree)
    total = Fraction(0)
    for i in range(system.n()):
        total += piece_integral(system, i, w.component(i))
    for entry in nerve(system):
        ref = entry.tup[0]
        value = domain_integral(system, ref, entry.closed, w.component(ref))
        total -= (-1) ** len(entry.tup) * value
    check = _class_sum_integral(w)
    if total != check:
        raise InvariantError(f"integrate: inclusion-exclusion {total} != class sum {check}")
    return total


def _class_sum_integral(w: GlobalCochain) -> Fraction:
    system = w.system
    classes = glued_cell_classes(system)
    top = system.pieces[0].top_dimension
    total = Fraction(0)
    for key in classes.classes:
        i, cell = key[0]
        if system.pieces[i].dims[cell] != top:
            continue
        total += _orientation(system, i, "integrate").sign(cell) * w.value(i, cell)
    return total


def boundary_signs(system: AdjunctionSystem, piece: int, domain: CellSet) -> dict[str, int]:
    """Induced boundary sign on each codim-1 cell of a top-closed domain.

    For a codim-1 cell f the sign is the sum of orientation(t)*incidence(t,f)
    over the top cells t of the domain; interior cells cancel to zero.
    """
    complex_ = system.pieces[piece]
    orient = _orientation(system, piece, "boundary_signs")
    top = complex_.top_dimension
    out: dict[str, int] = {}
    for cell in domain.members_of_dim(top - 1):
        sign = 0
        for coface, inc in complex_.cofaces_of(cell).items():
            if complex_.dims[coface] == top and coface in domain.members:
                sign += orient.sign(coface) * inc
        out[cell] = sign
    return out


def stokes_defect(w: GlobalCochain) -> tuple[Fraction, Fraction]:
    """For a binary adjunction of closed pieces, both sides of the exact
    failure of Stokes: (integral of dw over the glued space, minus the
    oriented frontier sum of w).  The two must agree exactly."""
    system = w.system
    if system.n() != 2:
        raise PreconditionError(
            "stokes_defect: system is not binary (apply binary_decomposition first)"
        )
    top = _require_oriented_top(system, w.degree + 1)
    for idx, piece in enumerate(system.pieces):
        for cell in piece.cells_of_dim(top - 1):
            carriers = [t for t in piece.cofaces_of(cell) if piece.dims[t] == top]
            if len(carriers) != 2:
                raise PreconditionError(
                    f"stokes_defect: piece {system.names[idx]} is not closed at cell {cell!r}"
                )
    lhs = integrate(coboundary_global(w))
    region = system.region(0, 1)
    domain = closure(region)
    signs = boundary_signs(system, 0, domain)
    rhs = Fraction(0)
    for cell in frontier(region).sorted_members():
        if system.pieces[0].dims[cell] == top - 1:
            rhs -= signs.get(cell, 0) * w.value(0, cell)
    return lhs, rhs


# -- chains ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Chain:
    """Formal rational combination of glued cell classes in one degree."""

    degree: int
    coefficients: Mapping[ClassKey, Fraction]

    @classmethod
    def of(cls, degree: int, coefficients: Mapping[ClassKey, int | Fraction]) -> "Chain":
        cleaned = {k: Fraction(v) for k, v in coefficients.items() if Fraction(v) != 0}
        return cls(degree, cleaned)


def make_chain(
    system: AdjunctionSystem,
    classes: CellClasses,
    degree: int,
    items: Iterable[tuple[int, str, int | Fraction]],
) -> Chain:
    """Build a chain from (piece, cell, coefficient) triples."""
    coeffs: dict[ClassKey, Fraction] = {}
    for piece, cell, coeff in items:
        if (piece, cell) not in classes.index:
            raise PreconditionError(f"make_chain: unknown cell ({piece}, {cell!r})")
        if system.pieces[piece].dims[cell] != degree:
            raise PreconditionError(f"make_chain: cell ({piece}, {cell!r}) has the wrong degree")
        key = classes.class_of(piece, cell)
        coeffs[key] = coeffs.get(key, Fraction(0)) + Fraction(coeff)
    return Chain.of(degree, coeffs)


def boundary_chain(system: AdjunctionSystem, classes: CellClasses, c: Chain) -> Chain:
    """Boundary computed from the smallest member of each class; its pairing
    with any global cochain is independent of that choice."""
    coeffs: dict[ClassKey, Fraction] = {}
    for key, coeff in c.coefficients.items():
        piece, cell = key[0]
        for face, sign in system.pieces[piece].faces_of(cell).items():
            fkey = classes.class_of(piece, face)
            coeffs[fkey] = coeffs.get(fkey, Fraction(0)) + coeff * sign
    return Chain.of(c.degree - 1, coeffs)


def integrate_over_chain(w: GlobalCochain, c: Chain) -> Fraction:
    """Pairing <w, c>; class values are well defined by compatibility."""
    if w.degree != c.degree:
        raise PreconditionError(
            f"integrate_over_chain: cochain degree {w.degree} != chain degree {c.degree}"
        )
    total = Fraction(0)
    for key, coeff in c.coefficients.items():
        piece, cell = key[0]
        total += coeff * w.value(piece, cell)
    return total
