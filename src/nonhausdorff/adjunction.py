"""Adjunction systems: pieces, open gluing regions and gluing maps.

The axioms validated here are the self-gluing identity (A1, kept implicit),
inverse symmetry of the two directions of each gluing (A2) and the cocycle
condition on triple overlaps (A3), together with openness of the regions,
sign-preserving bijectivity of the maps, and the extension of each map to the
closure of its region.  Hausdorff-violating pairs live exactly on the matched
frontiers of the gluing regions.

The classes here are plain classes with written-out constructors and
``__slots__`` (except :class:`NerveTuple`, whose cached closure needs an
instance dict), compared by identity except :class:`HausdorffPair`, so that
a cold ``hausdorff`` or ``validate`` generates no code at import.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .cells import (
    CellComplex,
    CellSet,
    Orientation,
    closure,
    equivalence_classes,
    frontier,
    interior,
    is_star_closed,
    validate_complex,
    validate_orientation,
)
from .errors import PreconditionError, ValidationReport

ClassKey = tuple[tuple[int, str], ...]


class GluingMap:
    """A dimension- and sign-preserving bijection between two open regions.

    ``closure_forward`` extends ``forward`` to the face-closure of the source
    region; it is required data whenever the frontier is nonempty.
    """

    __slots__ = ("source_piece", "target_piece", "source", "target", "forward", "closure_forward")

    def __init__(
        self,
        source_piece: int,
        target_piece: int,
        source: CellSet,
        target: CellSet,
        forward: Mapping[str, str],
        closure_forward: Mapping[str, str],
    ):
        self.source_piece = source_piece
        self.target_piece = target_piece
        self.source = source
        self.target = target
        self.forward = forward
        self.closure_forward = closure_forward

    def inverse(self) -> "GluingMap":
        return GluingMap(
            source_piece=self.target_piece,
            target_piece=self.source_piece,
            source=self.target,
            target=self.source,
            forward={v: k for k, v in self.forward.items()},
            closure_forward={v: k for k, v in self.closure_forward.items()},
        )


class HausdorffPair:
    """Two (piece, cell) pairs that cannot be separated; compared and hashed
    by value."""

    __slots__ = ("left", "right")

    def __init__(self, left: tuple[int, str], right: tuple[int, str]):
        self.left = left
        self.right = right

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class CellClasses:
    """Partition of all (piece, cell) pairs under the gluing identifications."""

    __slots__ = ("classes", "index")

    def __init__(self, classes: list[ClassKey], index: dict[tuple[int, str], int]):
        self.classes = classes
        self.index = index

    def class_of(self, piece: int, cell: str) -> ClassKey:
        return self.classes[self.index[(piece, cell)]]

    def __len__(self) -> int:
        return len(self.classes)


class AdjunctionSystem:
    """Finite family of cell complexes glued along open regions.

    ``regions`` and ``maps`` are keyed by ordered pairs ``(i, j)`` with
    ``i != j``; the diagonal is the implicit identity self-gluing.  Pairs for
    which no gluing was declared are treated as empty regions.
    """

    __slots__ = ("pieces", "names", "regions", "maps", "orientations")

    def __init__(
        self,
        pieces: list[CellComplex],
        names: list[str],
        regions: dict[tuple[int, int], CellSet],
        maps: dict[tuple[int, int], GluingMap],
        orientations: list[Orientation] | None = None,
    ):
        self.pieces = pieces
        self.names = names
        self.regions = regions
        self.maps = maps
        self.orientations = orientations

    @classmethod
    def assemble(
        cls,
        pieces: Sequence[CellComplex],
        names: Sequence[str] | None = None,
        regions: Mapping[tuple[int, int], Iterable[str]] | None = None,
        maps: Mapping[tuple[int, int], tuple[Mapping[str, str], Mapping[str, str] | None]] | None = None,
        orientations: Sequence[Orientation] | None = None,
    ) -> "AdjunctionSystem":
        """Build a system, deriving each missing direction from its opposite."""
        pieces = list(pieces)
        names = list(names) if names is not None else [f"P{k + 1}" for k in range(len(pieces))]
        region_sets: dict[tuple[int, int], CellSet] = {
            key: CellSet.of(pieces[key[0]], cells) for key, cells in (regions or {}).items()
        }
        gluing: dict[tuple[int, int], GluingMap] = {}
        for (i, j), (pairs, closure_pairs) in (maps or {}).items():
            source = region_sets.get((i, j))
            if source is None:
                source = CellSet.of(pieces[i], pairs.keys())
                region_sets[(i, j)] = source
            target = region_sets.get((j, i))
            if target is None:
                target = CellSet.of(pieces[j], pairs.values())
                region_sets[(j, i)] = target
            forward = dict(pairs)
            closure_forward = dict(closure_pairs) if closure_pairs is not None else dict(pairs)
            gluing[(i, j)] = GluingMap(i, j, source, target, forward, closure_forward)
        for (i, j) in sorted(gluing):
            if (j, i) not in gluing:
                gluing[(j, i)] = gluing[(i, j)].inverse()
                region_sets.setdefault((j, i), gluing[(j, i)].source)
        return cls(pieces, names, region_sets, gluing, list(orientations) if orientations else None)

    # -- accessors ---------------------------------------------------------

    def n(self) -> int:
        return len(self.pieces)

    def region(self, i: int, j: int) -> CellSet:
        if i == j:
            return self.pieces[i].whole_set()
        got = self.regions.get((i, j))
        if got is None:
            return CellSet.of(self.pieces[i], ())
        return got

    def gluing(self, i: int, j: int) -> GluingMap | None:
        return self.maps.get((i, j))

    def ordered_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.regions)


def open_intersection(system: AdjunctionSystem, tup: Sequence[int]) -> CellSet:
    """The p-fold intersection domain, transported into the smallest-index piece."""
    ref, *others = tup
    if not others:
        return system.pieces[ref].whole_set()
    members = system.region(ref, others[0]).members
    for k in others[1:]:
        members &= system.region(ref, k).members
    return CellSet(system.pieces[ref], members)


def closed_intersection(system: AdjunctionSystem, tup: Sequence[int]) -> CellSet:
    return closure(open_intersection(system, tup))


class NerveTuple:
    """One tuple i1 < ... < ip visited by :func:`nerve`, seen in piece i1."""

    def __init__(self, tup: tuple[int, ...], domain: CellSet, closure_meet: frozenset[str]):
        self.tup = tup
        self.domain = domain
        self.closure_meet = closure_meet

    @cached_property
    def closed(self) -> CellSet:
        """Closure of the open intersection."""
        return closure(self.domain)

    @property
    def closure_ok(self) -> bool:
        """Closure of the intersection equals the intersection of the closures."""
        return self.closed.members == self.closure_meet


def nerve(system: AdjunctionSystem) -> list[NerveTuple]:
    """The tuples of two or more pieces whose intersection can be nonempty,
    in (size, tuple) order.

    For each first index i, ascending tuples are extended one index k at a
    time, intersecting the closures of the regions U_ik (``closure_meet``);
    ``domain`` is the open intersection of the tuple.  A branch stops as soon
    as the closure meet is empty: every longer tuple meets more sets, and U
    is inside cl U, so every tuple left out has an empty intersection and an
    empty closure meet.  The cost is O(n^2 + tuples visited), not 2^n.
    """
    n = system.n()
    out: list[NerveTuple] = []
    for i in range(n):
        links = []
        for k in range(i + 1, n):
            region = system.regions.get((i, k))
            if region is not None and region.members:
                links.append((k, closure(region).members))
        stack: list[tuple[tuple[int, ...], frozenset[str] | None, int]] = [((i,), None, 0)]
        while stack:
            tup, meet, start = stack.pop()
            for pos in range(start, len(links)):
                k, region_closure = links[pos]
                joined = region_closure if meet is None else meet & region_closure
                if not joined:
                    continue
                child = tup + (k,)
                out.append(NerveTuple(child, open_intersection(system, child), joined))
                stack.append((child, joined, pos + 1))
    out.sort(key=lambda entry: (len(entry.tup), entry.tup))
    return out


def union_of_regions(system: AdjunctionSystem, piece: int, others: Iterable[int]) -> CellSet:
    members: set[str] = set()
    for i in others:
        if i != piece:
            members |= system.region(piece, i).members
    return CellSet.of(system.pieces[piece], members)


# -- validation -------------------------------------------------------------


def validate_system(system: AdjunctionSystem) -> ValidationReport:
    """Check A1-A3, openness, bijection/sign preservation, closure extensions
    and orientation compatibility; every violation is a report entry."""
    report = ValidationReport()
    for idx, piece in enumerate(system.pieces):
        report.merge(validate_complex(piece), prefix=f"piece {system.names[idx]}/")

    pairs = system.ordered_pairs()
    star_closed = {pair: is_star_closed(system.region(*pair)) for pair in pairs}
    closures = {pair: closure(system.region(*pair)).members for pair in pairs}
    for (i, j) in pairs:
        loc = f"region({system.names[i]},{system.names[j]})"
        if not star_closed[(i, j)]:
            report.add("region-open", loc, "gluing region is not star-closed (not open)")
        gm = system.gluing(i, j)
        if gm is None:
            if system.region(i, j).members:
                report.add("map-missing", loc, "nonempty region has no gluing map")
            continue
        _validate_gluing_map(system, i, j, gm, report, star_closed, closures)

    # A2: opposite directions are mutually inverse
    for (i, j) in pairs:
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
            for (i, j) in pairs:
                gm = system.gluing(i, j)
                if gm is None:
                    continue
                dims, top = system.pieces[i].dims, system.pieces[i].top_dimension
                left, right = system.orientations[i].signs, system.orientations[j].signs
                flipped = []
                for cell, image in gm.forward.items():
                    if dims.get(cell) == top:
                        a, b = left.get(cell), right.get(image)
                        if a is not None and b is not None and a != b:
                            flipped.append(cell)
                for cell in sorted(flipped):
                    report.add(
                        "orientation-preserving",
                        f"map({system.names[i]},{system.names[j]}):{cell}",
                        "gluing map reverses orientation",
                    )
    return report


def _validate_gluing_map(
    system: AdjunctionSystem, i: int, j: int, gm: GluingMap, report: ValidationReport,
    star_closed: Mapping[tuple[int, int], bool], closures: Mapping[tuple[int, int], frozenset[str]],
) -> None:
    """Check one map; ``star_closed`` and ``closures`` hold the openness and
    the closure of every declared region (an undeclared region is empty)."""
    pi, pj = system.pieces[i], system.pieces[j]
    loc = f"map({system.names[i]},{system.names[j]})"
    members = system.region(i, j).members
    forward, extension = gm.forward, gm.closure_forward
    if gm.source.members != members:
        report.add("map-domain", loc, "map source differs from the declared region")
    if forward.keys() != members:
        report.add("bijection", loc, "map is not defined on exactly the region")
    image = set(forward.values())
    if len(image) != len(forward):
        report.add("bijection", loc, "map is not injective")
    if image != gm.target.members:
        report.add("bijection", loc, "map image differs from the target region")

    src_closure = closures.get((i, j), frozenset())
    tgt_closure = closures.get((j, i), frozenset())
    extends = extension.keys() == src_closure
    if not extends:
        missing = sorted(src_closure - extension.keys())
        if missing:
            report.add("closure-extension", loc, f"extension missing on closure cells {missing[:5]}")
        extra = sorted(extension.keys() - src_closure)
        if extra:
            report.add("closure-extension", loc, f"extension defined off the closure: {extra[:5]}")
    cl_image = set(extension.values())
    if len(cl_image) != len(extension):
        report.add("closure-extension", loc, "closure extension is not injective")
    elif extends and cl_image != tgt_closure:
        report.add("closure-extension", loc, "closure extension is not onto the target closure")
    disagree = [cell for cell, value in forward.items() if extension.get(cell) != value]
    if disagree:
        report.add("closure-extension", f"{loc}:{min(disagree)}", "extension disagrees with the map")
    # frontier goes to frontier
    if extends and star_closed.get((i, j), True) and star_closed.get((j, i), True):
        mapped = {extension[c] for c in src_closure - members if c in extension}
        if mapped != tgt_closure - system.region(j, i).members:
            report.add("frontier-bijection", loc, "frontier does not map onto the opposite frontier")

    # dimension and incidence-sign preservation on the whole closure, in cell
    # order; the sort is stable, so one cell's issues keep their face order
    empty: dict[str, int] = {}
    found: list[tuple[str, str, str, str]] = []
    for cell, target in extension.items():
        if cell not in pi.dims or target not in pj.dims:
            found.append((cell, "bijection", f"{loc}:{cell}", "map references unknown cells"))
        elif pi.dims[cell] != pj.dims[target]:
            found.append((cell, "dimension-preserving", f"{loc}:{cell}", "image has different dimension"))
        else:
            target_row = pj.faces.get(target, empty)
            for face, sign in pi.faces.get(cell, empty).items():
                if face in extension:
                    want = target_row.get(extension[face])
                    if want != sign:
                        message = f"incidence sign {sign} maps to {want}"
                        found.append((cell, "incidence-preserving", f"{loc}:{cell}->{face}", message))
    found.sort(key=lambda issue: issue[0])
    for _, rule, location, message in found:
        report.add(rule, location, message)


def _validate_cocycles(system: AdjunctionSystem, report: ValidationReport) -> None:
    """A3 on each triple (i, j, k) of distinct pieces with gluings i->j and
    i->k, in (i, j, k) order: the maps compose on the overlap U_ij & U_ik,
    and the closure extensions on the rest of its closure.  A triple with an
    empty overlap has nothing to check.  Each cell gives at most one issue;
    a triple's issues come in cell order, the overlap's before its closure's.
    """
    names = system.names
    partners: dict[int, list[int]] = {i: [] for i in range(system.n())}
    for i, j in sorted(system.maps):
        if i != j and i in partners and j in partners:
            partners[i].append(j)
    for i, links in partners.items():
        piece = system.pieces[i]
        closed: dict[frozenset[str], frozenset[str]] = {}
        for j in links:
            gm_ij = system.maps[(i, j)]
            region_ij = system.region(i, j).members
            for k in links:
                if k == j:
                    continue
                overlap = region_ij & system.region(i, k).members
                if not overlap:
                    continue
                gm_ik = system.maps[(i, k)]
                gm_jk = system.maps.get((j, k))
                found: list[tuple[int, str, str, str]] = []
                forward_ij, forward_ik = gm_ij.forward, gm_ik.forward
                forward_jk = gm_jk.forward if gm_jk is not None else None
                for cell in overlap:
                    via_j = forward_ij.get(cell)
                    direct = forward_ik.get(cell)
                    if via_j is None or direct is None:
                        continue  # bijection coverage problems are reported elsewhere
                    if forward_jk is None or via_j not in forward_jk:
                        found.append((0, cell, "A3-domain", "composite map undefined on overlap"))
                    elif forward_jk[via_j] != direct:
                        found.append((0, cell, "A3", "cocycle condition violated"))
                # extension cocycle on the closure of the overlap, needed so that
                # restrictions between intersection closures compose coherently
                closed_overlap = closed.get(overlap)
                if closed_overlap is None:
                    closed_overlap = closed[overlap] = closure(CellSet(piece, overlap)).members
                extension_ij, extension_ik = gm_ij.closure_forward, gm_ik.closure_forward
                extension_jk = gm_jk.closure_forward if gm_jk is not None else None
                for cell in closed_overlap - overlap:
                    if cell not in extension_ij or cell not in extension_ik:
                        continue
                    via_j = extension_ij[cell]
                    if extension_jk is None or via_j not in extension_jk:
                        found.append(
                            (1, cell, "A3-closure-domain", "extension composite undefined on overlap closure")
                        )
                    elif extension_jk[via_j] != extension_ik[cell]:
                        found.append((1, cell, "A3-closure", "closure extensions violate the cocycle"))
                if found:
                    loc = f"A3({names[i]},{names[j]},{names[k]})"
                    found.sort()
                    for _, cell, rule, message in found:
                        report.add(rule, f"{loc}:{cell}", message)


# -- structure --------------------------------------------------------------


def hausdorff_pairs(system: AdjunctionSystem) -> list[HausdorffPair]:
    """Matched frontier cells of the gluing regions, one entry per unordered pair."""
    pairs: list[HausdorffPair] = []
    for (i, j) in system.ordered_pairs():
        if i >= j:
            continue
        gm = system.gluing(i, j)
        if gm is None:
            continue
        for cell in frontier(system.region(i, j)).sorted_members():
            image = gm.closure_forward.get(cell)
            if image is not None:
                pairs.append(HausdorffPair((i, cell), (j, image)))
    return pairs


def glued_cell_classes(system: AdjunctionSystem) -> CellClasses:
    """Equivalence classes of (piece, cell) pairs under the open-region maps.

    Frontier cells are never identified; they stay in singleton classes unless
    some other region covers them.
    """
    links = (
        ((i, cell), (j, image))
        for (i, j), gm in sorted(system.maps.items())
        for cell, image in gm.forward.items()
    )
    nodes = [(i, c) for i, piece in enumerate(system.pieces) for c in piece.cell_ids()]
    classes = sorted(tuple(sorted(group)) for group in equivalence_classes(nodes, links))
    index = {node: k for k, cls in enumerate(classes) for node in cls}
    return CellClasses(classes, index)


def closure_intersection_check(system: AdjunctionSystem) -> dict[tuple[int, ...], bool]:
    """Per nerve tuple i1<...<im: closure of the intersection equals the
    intersection of the closures, computed in the smallest-index piece.

    The keys are the tuples of :func:`nerve`; a tuple it leaves out has an
    empty intersection and an empty closure meet, so the property holds there.
    """
    return {entry.tup: entry.closure_ok for entry in nerve(system)}


def regular_open_check(system: AdjunctionSystem) -> dict[tuple[int, int], bool]:
    """True iff region == interior(closure(region))."""
    out: dict[tuple[int, int], bool] = {}
    for (i, j) in system.ordered_pairs():
        region = system.region(i, j)
        out[(i, j)] = interior(closure(region)).members == region.members
    return out


def quotient_complex(system: AdjunctionSystem) -> tuple[CellComplex, CellClasses]:
    """Directly build the glued complex; only defined when no Hausdorff
    violations remain (all regions clopen), otherwise incidence at the
    doubled frontier would be ambiguous."""
    if hausdorff_pairs(system):
        raise PreconditionError("quotient_complex: system has Hausdorff-violating pairs")
    # the class builder is shared with the global cochains and lives with
    # them, off the path of a cold validate or hausdorff, which load this module
    from .cohomology import class_boundaries

    classes = glued_cell_classes(system)
    labels = [f"{i}:{c}" for (i, c), *_ in classes.classes]
    dims, rows, mismatch = class_boundaries(system, classes)
    # incidence must agree from every member, else the quotient is bogus
    if mismatch is not None:
        raise PreconditionError(f"quotient_complex: incidence mismatch on class {labels[mismatch]}")
    faces = {labels[k]: {labels[face]: sign for face, sign in row.items()} for k, row in enumerate(rows)}
    return CellComplex.build(zip(labels, dims), faces), classes
