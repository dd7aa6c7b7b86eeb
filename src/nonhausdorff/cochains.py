"""Cellular cochains with rational coefficients over adjunction systems.

A cochain value on a top cell is read as the integrated density over that
cell, so integration over a piece is the orientation-signed sum of values and
the integral over the whole glued space is the alternating inclusion-exclusion
sum with closures.  The failure of the global Stokes identity is computed
exactly: the boundary term lives on the matched frontiers.

Values are ``Fraction`` only at the edges.  A global cochain is scaled once to
the common denominator D of its values (the lcm of their denominators), and
the coboundary, the fibre-product compatibility check, the inclusion-exclusion
integral with its class-sum cross-check and the Stokes right-hand side all run
on the integer numerators; a result is divided by D once, at the end, and an
error message formats a numerator over D only when a check fails.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .adjunction import (
    AdjunctionSystem,
    CellClasses,
    ClassKey,
    NerveTuple,
    nerve,
)
from .cells import (
    CellSet,
    Orientation,
    closure,
    equivalence_classes,
    first_unclosed_cell,
    is_face_closed,
    is_star_closed,
)
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
        cleaned = {c: f for c, v in values.items() if (f := Fraction(v))}
        return cls(owner, degree, cleaned)

    def value(self, cell: str) -> Fraction:
        return self.values.get(cell, Fraction(0))


def coboundary(w: Cochain) -> Cochain:
    """(dw)(c) = sum over faces f of c of incidence(c,f) * w(f).

    The owner must be face-closed or star-closed so the sum sees every face
    it needs (for open owners this is the extension-by-zero convention).
    """
    scale, (numerators,) = _scale([w.values])
    d_numerators = _coboundary_numerators(w.owner, w.degree, numerators)
    return Cochain(w.owner, w.degree + 1, _unscale(d_numerators, scale))


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

    @cached_property
    def scaled(self) -> tuple[int, list[dict[str, int]]]:
        """(D, numerators): the common denominator of every component value
        and each component's values times D, computed once per cochain."""
        return _scale([comp.values for comp in self.components])


def assemble_global(
    system: AdjunctionSystem, components: Sequence[Cochain], degree: int | None = None
) -> GlobalCochain:
    """Validate fibre-product compatibility and build the global cochain."""
    q = _component_degree(system, [(w.owner, w.degree) for w in components], degree)
    w = GlobalCochain(system, q, tuple(components))
    _require_compatible(system, q, *w.scaled)
    return w


def coboundary_global(w: GlobalCochain) -> GlobalCochain:
    return assemble_global(w.system, [coboundary(comp) for comp in w.components])


def exact_texts(*values: Fraction) -> list[str]:
    """The decimal text of each exact result, as ``str`` gives it.  Raises
    PreconditionError where a numerator or denominator has more digits than
    the interpreter converts to text (``sys.get_int_max_str_digits()``,
    4300 by default)."""
    try:
        return [str(value) for value in values]
    except ValueError as exc:
        raise PreconditionError(
            f"exact result too long to print: it has more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _message_text(numerator: int, scale: int) -> str:
    """numerator/scale for an error message, which must not raise: a value
    too long to convert to text is described by the digit limit instead."""
    try:
        return str(Fraction(numerator, scale))
    except ValueError:
        return f"(a value of more than {sys.get_int_max_str_digits()} digits)"


# -- the integer kernel --------------------------------------------------------


def _scale(value_maps: Sequence[Mapping[str, Fraction]]) -> tuple[int, list[dict[str, int]]]:
    """The common denominator D of all values (1 if there are none) and each
    map's values times D, as integers; D // q is taken once per denominator q."""
    factors = {v.denominator: 0 for values in value_maps for v in values.values()}
    scale = math.lcm(*factors)
    for q in factors:
        factors[q] = scale // q
    numerators = [
        {c: v.numerator * factors[v.denominator] for c, v in values.items()} for values in value_maps
    ]
    return scale, numerators


def _unscale(numerators: Mapping[str, int], scale: int) -> dict[str, Fraction]:
    """Numerators over D as ``Fraction`` values, one per distinct numerator."""
    fractions: dict[int, Fraction] = {}
    out: dict[str, Fraction] = {}
    for cell, n in numerators.items():
        value = fractions.get(n)
        if value is None:
            value = fractions[n] = Fraction(n, scale)
        out[cell] = value
    return out


def _coboundary_numerators(owner: CellSet, degree: int, numerators: Mapping[str, int]) -> dict[str, int]:
    """(dw)(c) = sum over faces f of c of incidence(c,f) * w(f), on numerators.

    The owner must be face-closed or star-closed so the sum sees every face
    it needs (for open owners this is the extension-by-zero convention); a
    value is never stored outside the owner, so a face outside it adds zero.
    """
    complex_ = owner.owner
    whole = len(owner.members) == len(complex_.dims)
    if not (whole or is_face_closed(owner) or is_star_closed(owner)):
        raise PreconditionError("coboundary: owner is neither face-closed nor star-closed")
    out: dict[str, int] = {}
    for cell in owner.members_of_dim(degree + 1):
        total = 0
        for face, sign in complex_.faces_of(cell).items():
            total += sign * numerators.get(face, 0)
        if total:
            out[cell] = total
    return out


def _component_degree(
    system: AdjunctionSystem, components: Sequence[tuple[CellSet, int]], degree: int | None
) -> int:
    """The common degree of per-piece (owner, degree) pairs that cover their pieces."""
    if len(components) != system.n():
        raise PreconditionError("assemble_global: need one cochain per piece")
    degrees = {q for _, q in components}
    if degree is not None:
        degrees.add(degree)
    if len(degrees) != 1:
        raise PreconditionError(f"assemble_global: mixed degrees {sorted(degrees)}")
    for idx, (owner, _) in enumerate(components):
        if owner.owner is not system.pieces[idx]:
            raise PreconditionError(f"assemble_global: component {idx} lives on the wrong piece")
        if len(owner.members) != len(system.pieces[idx].dims):
            raise PreconditionError(f"assemble_global: component {idx} must cover its whole piece")
    return degrees.pop()


def _require_compatible(
    system: AdjunctionSystem, degree: int, scale: int, numerators: Sequence[Mapping[str, int]]
) -> None:
    """Components agree on every gluing-region closure, frontier included;
    the first disagreeing cell of a pair is its smallest."""
    for (i, j) in system.ordered_pairs():
        if i >= j:
            continue
        gm = system.gluing(i, j)
        if gm is None:
            continue
        left, right, image_of = numerators[i], numerators[j], gm.closure_forward
        dims = system.pieces[i].dims
        bad = [
            cell
            for cell in closure(system.region(i, j)).members
            if dims[cell] == degree and left.get(cell, 0) != right.get(image_of[cell], 0)
        ]
        if bad:
            cell = min(bad)
            image = image_of[cell]
            raise IncompatibleCochainError(
                (i, cell),
                (j, image),
                f"components disagree: piece {system.names[i]} cell {cell!r} = "
                f"{_message_text(left.get(cell, 0), scale)} but piece {system.names[j]} cell "
                f"{image!r} = {_message_text(right.get(image, 0), scale)}",
            )


def _integral_numerator(
    system: AdjunctionSystem,
    top: int,
    scale: int,
    numerators: Sequence[Mapping[str, int]],
    entries: Sequence[NerveTuple],
) -> int:
    """Inclusion-exclusion integral of top-degree numerators, cross-checked
    against the class sum."""
    signs = [orientation.signs for orientation in system.orientations]
    total = 0
    for sign_of, num in zip(signs, numerators):
        for cell, n in num.items():
            total += sign_of[cell] * n
    for entry in entries:
        ref = entry.tup[0]
        num, sign_of = numerators[ref], signs[ref]
        value = 0
        for cell in num.keys() & entry.closed.members:
            value += sign_of[cell] * num[cell]
        total -= (-1) ** len(entry.tup) * value
    check = _class_sum_numerator(system, top, numerators, signs)
    if total != check:
        raise InvariantError(
            f"integrate: inclusion-exclusion {_message_text(total, scale)} "
            f"!= class sum {_message_text(check, scale)}"
        )
    return total


def _class_sum_numerator(
    system: AdjunctionSystem,
    top: int,
    numerators: Sequence[Mapping[str, int]],
    signs: Sequence[Mapping[str, int]],
) -> int:
    """One signed value per glued class of top cells, read at its smallest
    (piece, cell).  Gluing maps preserve dimension, so these are the classes
    of :func:`adjunction.glued_cell_classes` that hold top cells."""
    pieces = system.pieces
    nodes = [(i, cell) for i, piece in enumerate(pieces) for cell in piece.cells_of_dim(top)]
    links = (
        ((i, cell), (j, image))
        for (i, j), gm in system.maps.items()
        for cell, image in gm.forward.items()
        if pieces[i].dims[cell] == top and pieces[j].dims.get(image) == top
    )
    total = 0
    for group in equivalence_classes(nodes, links):
        i, cell = group[0]
        total += signs[i][cell] * numerators[i].get(cell, 0)
    return total


def _frontier_numerator(
    system: AdjunctionSystem, numerators: Sequence[Mapping[str, int]], entries: Sequence[NerveTuple]
) -> int:
    """- sum over the nerve of (-1)^|T| sum_f sign_T(f) * w(f), on numerators."""
    rhs = 0
    for entry in entries:
        ref = entry.tup[0]
        num = numerators[ref]
        term = 0
        for cell, sign in boundary_signs(system, ref, entry.closed).items():
            term += sign * num.get(cell, 0)
        rhs -= (-1) ** len(entry.tup) * term
    return rhs


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
    InvariantError.  Computed on the numerators of :attr:`GlobalCochain.scaled`.
    """
    system = w.system
    top = _require_oriented_top(system, w.degree)
    scale, numerators = w.scaled
    return Fraction(_integral_numerator(system, top, scale, numerators, nerve(system)), scale)


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


def _require_closed(system: AdjunctionSystem, top: int) -> None:
    """Every codim-1 cell of every piece carries exactly two top cells."""
    for idx, piece in enumerate(system.pieces):
        bad = first_unclosed_cell(piece, top)
        if bad is not None:
            raise PreconditionError(
                f"stokes_defect: piece {system.names[idx]} is not closed at cell {bad!r}"
            )


def stokes_defect(w: GlobalCochain) -> tuple[Fraction, Fraction]:
    """Both sides of the exact failure of Stokes on a gluing of closed pieces:
    (integral of dw over the glued space, minus the oriented frontier sum of w).

    Each closed piece has integral of dw zero, so the inclusion-exclusion of
    :func:`integrate` leaves only the nerve terms

        rhs = - sum_{T in nerve} (-1)^|T| sum_f sign_T(f) * w(f)

    with f over the codim-1 cells of the closure of the intersection T and
    sign_T from :func:`boundary_signs` in piece T[0]; interior cells have sign
    zero.  For two pieces this is minus the oriented frontier sum of the
    region.  The two sides must agree exactly.

    Both sides come from the numerators of :attr:`GlobalCochain.scaled`: dw
    is taken on them, checked for compatibility like :func:`assemble_global`
    and integrated like :func:`integrate`, with one common denominator."""
    system = w.system
    top = _require_oriented_top(system, w.degree + 1)
    _require_closed(system, top)
    scale, numerators = w.scaled
    d_numerators = [
        _coboundary_numerators(comp.owner, comp.degree, num) for comp, num in zip(w.components, numerators)
    ]
    q = _component_degree(system, [(comp.owner, comp.degree + 1) for comp in w.components], None)
    _require_compatible(system, q, scale, d_numerators)
    _require_oriented_top(system, q)
    entries = nerve(system)
    lhs = _integral_numerator(system, top, scale, d_numerators, entries)
    rhs = _frontier_numerator(system, numerators, entries)
    return Fraction(lhs, scale), Fraction(rhs, scale)


# -- chains ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Chain:
    """Formal rational combination of glued cell classes in one degree."""

    degree: int
    coefficients: Mapping[ClassKey, Fraction]

    @classmethod
    def of(cls, degree: int, coefficients: Mapping[ClassKey, int | Fraction]) -> "Chain":
        cleaned = {k: f for k, v in coefficients.items() if (f := Fraction(v))}
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
