"""Adjunction systems: pieces, open gluing regions and gluing maps.

The axioms validated here are the self-gluing identity (A1, kept implicit),
inverse symmetry of the two directions of each gluing (A2) and the cocycle
condition on triple overlaps (A3), together with openness of the regions,
sign-preserving bijectivity of the maps, and the extension of each map to the
closure of its region.  Hausdorff-violating pairs live exactly on the matched
frontiers of the gluing regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class GluingMap:
    """A dimension- and sign-preserving bijection between two open regions.

    ``closure_forward`` extends ``forward`` to the face-closure of the source
    region; it is required data whenever the frontier is nonempty.
    """

    source_piece: int
    target_piece: int
    source: CellSet
    target: CellSet
    forward: Mapping[str, str]
    closure_forward: Mapping[str, str]

    def inverse(self) -> "GluingMap":
        return GluingMap(
            source_piece=self.target_piece,
            target_piece=self.source_piece,
            source=self.target,
            target=self.source,
            forward={v: k for k, v in self.forward.items()},
            closure_forward={v: k for k, v in self.closure_forward.items()},
        )


@dataclass(frozen=True)
class HausdorffPair:
    left: tuple[int, str]
    right: tuple[int, str]


@dataclass(eq=False)
class CellClasses:
    """Partition of all (piece, cell) pairs under the gluing identifications."""

    classes: list[ClassKey]
    index: dict[tuple[int, str], int]

    def class_of(self, piece: int, cell: str) -> ClassKey:
        return self.classes[self.index[(piece, cell)]]

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(eq=False)
class AdjunctionSystem:
    """Finite family of cell complexes glued along open regions.

    ``regions`` and ``maps`` are keyed by ordered pairs ``(i, j)`` with
    ``i != j``; the diagonal is the implicit identity self-gluing.  Pairs for
    which no gluing was declared are treated as empty regions.
    """

    pieces: list[CellComplex]
    names: list[str]
    regions: dict[tuple[int, int], CellSet]
    maps: dict[tuple[int, int], GluingMap]
    orientations: list[Orientation] | None = None

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
            if closure_pairs is None:
                for k, v in pairs.items():
                    closure_forward.setdefault(k, v)
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

    def cell_map(self, i: int, j: int, cell: str) -> str:
        if i == j:
            return cell
        return self.maps[(i, j)].forward[cell]

    def closure_cell_map(self, i: int, j: int, cell: str) -> str:
        if i == j:
            return cell
        return self.maps[(i, j)].closure_forward[cell]

    def ordered_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.regions)

    def oriented(self) -> bool:
        return self.orientations is not None


def normalized_tuples(n: int, min_size: int = 2, max_size: int | None = None) -> list[tuple[int, ...]]:
    """Ascending index tuples i1 < ... < ip, smallest sizes first."""
    cap = n if max_size is None else min(n, max_size)
    out: list[tuple[int, ...]] = []
    for size in range(min_size, cap + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


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


@dataclass(frozen=True, eq=False)
class NerveTuple:
    """One tuple i1 < ... < ip visited by :func:`nerve`, seen in piece i1."""

    tup: tuple[int, ...]
    domain: CellSet
    closure_meet: frozenset[str]

    @cached_property
    def closed(self) -> CellSet:
        """Closure of the open intersection."""
        return closure(self.domain)

    @property
    def closure_ok(self) -> bool:
        """Closure of the intersection equals the intersection of the closures."""
        return self.closed.members == self.closure_meet


def nerve(system: AdjunctionSystem, max_tuple: int | None = None) -> list[NerveTuple]:
    """The tuples of at most ``max_tuple`` pieces whose intersection can be
    nonempty, in :func:`normalized_tuples` order.

    For each first index i, ascending tuples are extended one index k at a
    time, intersecting the closures of the regions U_ik (``closure_meet``);
    ``domain`` is the open intersection of the tuple.  A branch stops as soon
    as the closure meet is empty: every longer tuple meets more sets, and U
    is inside cl U, so every tuple left out has an empty intersection and an
    empty closure meet.  The cost is O(n^2 + tuples visited), not 2^n.
    """
    n = system.n()
    cap = n if max_tuple is None else min(n, max_tuple)
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
            if len(tup) >= cap:
                continue
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
    return _cell_classes(equivalence_classes(_all_cells(system), links))


def _all_cells(system: AdjunctionSystem) -> list[tuple[int, str]]:
    return [(i, c) for i, piece in enumerate(system.pieces) for c in piece.cell_ids()]


def _cell_classes(groups: list[list[tuple[int, str]]]) -> CellClasses:
    classes = sorted(tuple(sorted(group)) for group in groups)
    index = {node: k for k, cls in enumerate(classes) for node in cls}
    return CellClasses(classes, index)


@dataclass(eq=False)
class BinarySplit:
    """An n-piece system viewed as (first n-1 pieces) glued to the last piece."""

    front: AdjunctionSystem
    last_piece: CellComplex
    last_name: str
    induced_region: CellSet
    induced_targets: dict[str, tuple[int, str]]


def binary_decomposition(system: AdjunctionSystem) -> BinarySplit:
    """Split off the last piece; the induced region is the union of its
    gluing regions and the induced map lands in classes of the remainder."""
    n = system.n()
    if n < 2:
        raise PreconditionError("binary_decomposition: need at least two pieces")
    last = n - 1
    front = AdjunctionSystem(
        pieces=system.pieces[:last],
        names=system.names[:last],
        regions={k: v for k, v in system.regions.items() if k[0] < last and k[1] < last},
        maps={k: v for k, v in system.maps.items() if k[0] < last and k[1] < last},
        orientations=system.orientations[:last] if system.orientations else None,
    )
    induced_region = union_of_regions(system, last, range(last))
    front_classes = glued_cell_classes(front)
    targets: dict[str, tuple[int, str]] = {}
    for cell in induced_region.sorted_members():
        seen: list[tuple[int, str]] = []
        for i in range(last):
            if cell in system.region(last, i).members:
                seen.append((i, system.cell_map(last, i, cell)))
        assert seen
        keys = {front_classes.class_of(i, c) for i, c in seen}
        if len(keys) != 1:
            raise PreconditionError(
                f"binary_decomposition: induced map multivalued at cell {cell!r} (A3 failure)"
            )
        targets[cell] = min(seen)
    return BinarySplit(front, system.pieces[last], system.names[last], induced_region, targets)


def reglue_classes(system: AdjunctionSystem) -> CellClasses:
    """Classes obtained by re-gluing the binary decomposition; for a valid
    system this must reproduce glued_cell_classes exactly."""
    split = binary_decomposition(system)
    last = system.n() - 1
    front_classes = glued_cell_classes(split.front)
    links = [(cls[0], node) for cls in front_classes.classes for node in cls[1:]]
    links.extend(((last, cell), target) for cell, target in split.induced_targets.items())
    return _cell_classes(equivalence_classes(_all_cells(system), links))


def closure_intersection_check(system: AdjunctionSystem) -> dict[tuple[int, ...], bool]:
    """Per tuple i1<...<im: closure of the intersection equals the
    intersection of the closures, computed in the smallest-index piece.

    Every normalized tuple is a key; the tuples :func:`nerve` leaves out have
    both sides empty and map to True.
    """
    out = dict.fromkeys(normalized_tuples(system.n()), True)
    for entry in nerve(system):
        out[entry.tup] = entry.closure_ok
    return out


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
    classes = glued_cell_classes(system)

    def label(key: ClassKey) -> str:
        i, c = key[0]
        return f"{i}:{c}"

    dims: dict[str, int] = {}
    faces: dict[str, dict[str, int]] = {}
    for key in classes.classes:
        i, c = key[0]
        dims[label(key)] = system.pieces[i].dims[c]
        row: dict[str, int] = {}
        for face, sign in system.pieces[i].faces_of(c).items():
            row[label(classes.class_of(i, face))] = sign
        faces[label(key)] = row
        # incidence must agree from every member, else the quotient is bogus
        for (pj, cj) in key[1:]:
            other = {
                label(classes.class_of(pj, f)): s for f, s in system.pieces[pj].faces_of(cj).items()
            }
            if other != row:
                raise PreconditionError(
                    f"quotient_complex: incidence mismatch on class {label(key)}"
                )
    return CellComplex.build(dims.items(), faces), classes
