"""Finite cell complexes with signed incidence and subcomplex calculus.

A complex is a graded set of cells together with incidence signs between a
cell and its codimension-1 faces.  Openness and closedness of cell sets are
taken in the Alexandrov topology of the face poset: a set is open when it is
star-closed (contains every coface of each member) and closed when it is
face-closed.  All values are immutable after construction and every operation
is a pure function.

The two data classes a system document carries besides its pieces and
gluings, :class:`CoreAssignment` and :class:`MetricComplex`, are defined here
too, so that loading a document loads no computation module.  The classes
are plain slotted classes with written-out constructors, compared by
identity, so that importing this module generates no code.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, TypeVar

from .errors import PreconditionError, ValidationReport

Node = TypeVar("Node", bound=Hashable)


class CellComplex:
    """Cells with explicit dimensions and signed codimension-1 incidence.

    ``faces[c][f]`` is the incidence sign of face ``f`` in the boundary of
    ``c``, and ``cofaces`` is its transpose on the existing cells.
    References to missing cells are tolerated here and reported by
    :func:`validate_complex`.
    """

    __slots__ = ("dims", "faces", "top_dimension", "cofaces")

    def __init__(self, dims: Mapping[str, int], faces: Mapping[str, Mapping[str, int]], top_dimension: int):
        self.dims = dims
        self.faces = faces
        self.top_dimension = top_dimension
        cofaces: dict[str, dict[str, int]] = {c: {} for c in dims}
        for cell, fs in faces.items():
            for face, sign in fs.items():
                if face in cofaces:
                    cofaces[face][cell] = sign
        self.cofaces = cofaces

    @classmethod
    def build(
        cls,
        cells: Iterable[tuple[str, int]],
        incidence: Mapping[str, Mapping[str, int]] | None = None,
    ) -> "CellComplex":
        dims = dict(cells)
        faces = {c: dict((incidence or {}).get(c, {})) for c in dims}
        # keep incidence rows of cells that do not exist so validation can name them
        for c, row in (incidence or {}).items():
            if c not in faces:
                faces[c] = dict(row)
        top = max(dims.values()) if dims else 0
        return cls(dims=dims, faces=faces, top_dimension=top)

    def cell_ids(self) -> list[str]:
        return sorted(self.dims, key=lambda c: (self.dims[c], c))

    def cells_of_dim(self, q: int) -> list[str]:
        return sorted(c for c, d in self.dims.items() if d == q)

    def faces_of(self, cell: str) -> Mapping[str, int]:
        return self.faces.get(cell, {})

    def cofaces_of(self, cell: str) -> Mapping[str, int]:
        return self.cofaces.get(cell, {})

    def whole_set(self) -> "CellSet":
        return CellSet(self, frozenset(self.dims))


class CellSet:
    """A subset of the cells of one complex."""

    __slots__ = ("owner", "members")

    def __init__(self, owner: CellComplex, members: frozenset[str]):
        missing = [c for c in members if c not in owner.dims]
        if missing:
            raise ValueError(f"cells not in owner complex: {sorted(missing)[:5]}")
        self.owner = owner
        self.members = members

    @classmethod
    def of(cls, owner: CellComplex, members: Iterable[str]) -> "CellSet":
        return cls(owner, frozenset(members))

    def sorted_members(self) -> list[str]:
        dims = self.owner.dims
        return sorted(self.members, key=lambda c: (dims[c], c))

    def members_of_dim(self, q: int) -> list[str]:
        dims = self.owner.dims
        return sorted(c for c in self.members if dims[c] == q)

    def __contains__(self, cell: str) -> bool:
        return cell in self.members

    def __len__(self) -> int:
        return len(self.members)


class Orientation:
    """Sign assignment on the top-dimensional cells of one complex."""

    __slots__ = ("signs",)

    def __init__(self, signs: Mapping[str, int]):
        self.signs = signs

    def sign(self, cell: str) -> int:
        return self.signs[cell]


class CoreAssignment:
    """Per normalized index tuple, a face-closed subcomplex of the open
    intersection that is declared homotopy-equivalent to it."""

    __slots__ = ("cores",)

    def __init__(self, cores: dict[tuple[int, ...], CellSet] | None = None):
        self.cores = {} if cores is None else cores


class MetricComplex:
    """A pure 2-dimensional piece together with positive edge lengths."""

    __slots__ = ("base", "edge_lengths")

    def __init__(self, base: CellComplex, edge_lengths: Mapping[str, float]):
        self.base = base
        self.edge_lengths = edge_lengths

    def length(self, edge: str) -> float:
        return self.edge_lengths[edge]


def validate_complex(c: CellComplex) -> ValidationReport:
    """Check the complex invariants; every violation becomes a report entry."""
    report = ValidationReport()
    dims, faces = c.dims, c.faces
    for cell, dim in dims.items():
        if dim < 0:
            report.add("cell-dimension", cell, f"negative dimension {dim}")
    for cell, fs in faces.items():
        if cell not in dims:
            report.add("dangling-cell", cell, "incidence row for unknown cell")
            continue
        want = dims[cell] - 1
        for face, sign in fs.items():
            if face not in dims:
                report.add("dangling-face", f"{cell}->{face}", "face id does not exist")
                continue
            if dims[face] != want:
                report.add("codimension", f"{cell}->{face}", f"face has dimension {dims[face]}, expected {want}")
            if sign not in (1, -1):
                report.add("incidence-sign", f"{cell}->{face}", f"sign {sign} not in {{+1,-1}}")
    # boundary-of-boundary vanishes
    for cell in dims:
        row = faces.get(cell)
        if not row:
            continue
        acc: dict[str, int] = {}
        for face, s1 in row.items():
            sub_row = faces.get(face)
            if sub_row and face in dims:
                for sub, s2 in sub_row.items():
                    if sub in dims:
                        acc[sub] = acc.get(sub, 0) + s1 * s2
        if acc:
            bad = [(sub, total) for sub, total in acc.items() if total != 0]
            for sub, total in sorted(bad):
                report.add("boundary-squared", f"{cell}->{sub}", f"composite boundary coefficient {total} != 0")
    return report


def is_face_closed(s: CellSet) -> bool:
    c = s.owner
    return all(f in s.members for m in s.members for f in c.faces_of(m) if f in c.dims)


def is_star_closed(s: CellSet) -> bool:
    c = s.owner
    return all(cf in s.members for m in s.members for cf in c.cofaces_of(m))


def closure(s: CellSet) -> CellSet:
    """Smallest face-closed superset of ``s``."""
    c = s.owner
    out = set(s.members)
    queue = list(s.members)
    while queue:
        cell = queue.pop()
        for face in c.faces_of(cell):
            if face in c.dims and face not in out:
                out.add(face)
                queue.append(face)
    return CellSet(c, frozenset(out))


def star(s: CellSet) -> CellSet:
    """Smallest star-closed superset of ``s``."""
    c = s.owner
    out = set(s.members)
    queue = list(s.members)
    while queue:
        cell = queue.pop()
        for coface in c.cofaces_of(cell):
            if coface not in out:
                out.add(coface)
                queue.append(coface)
    return CellSet(c, frozenset(out))


def interior(s: CellSet) -> CellSet:
    """Largest star-closed subset of ``s``."""
    out = set(s.members)
    changed = True
    while changed:
        changed = False
        for cell in list(out):
            if any(cf not in out for cf in s.owner.cofaces_of(cell)):
                out.discard(cell)
                changed = True
    return CellSet(s.owner, frozenset(out))


def frontier(s: CellSet) -> CellSet:
    """closure(s) minus s; defined for open (star-closed) sets only."""
    if not is_star_closed(s):
        raise PreconditionError("frontier: cell set is not open (star-closed)")
    return CellSet(s.owner, closure(s).members - s.members)


def euler_characteristic(s: CellSet) -> int:
    dims = s.owner.dims
    return sum((-1) ** dims[c] for c in s.members)


def equivalence_classes(nodes: Iterable[Node], links: Iterable[tuple[Node, Node]]) -> list[list[Node]]:
    """Classes of the equivalence on ``nodes`` generated by ``links``, by
    union-find with path halving; each class keeps the order of ``nodes``.

    ``links`` is read only after every node is registered, so it may be a
    generator; a link naming an unregistered node raises KeyError.
    """
    parent: dict[Node, Node] = {node: node for node in nodes}

    def find(x: Node) -> Node:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[Node, list[Node]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


def first_unclosed_cell(c: CellComplex, top: int) -> str | None:
    """The smallest cell of dimension ``top - 1`` that is not a face of
    exactly two cells of dimension ``top``, or None when there is none."""
    dims = c.dims
    bad = None
    for cell, dim in dims.items():
        if dim != top - 1 or (bad is not None and cell > bad):
            continue
        carriers = 0
        for coface in c.cofaces_of(cell):
            if dims.get(coface) == top:
                carriers += 1
        if carriers != 2:
            bad = cell
    return bad


def _component_partition(s: CellSet) -> list[frozenset[str]]:
    c = s.owner
    links = ((m, face) for m in s.members for face in c.faces_of(m) if face in s.members)
    groups = equivalence_classes(s.members, links)
    return sorted((frozenset(g) for g in groups), key=min)


def connected_components(s: CellSet) -> int:
    """Number of connected pieces under face/coface adjacency inside ``s``."""
    return len(_component_partition(s))


def validate_orientation(c: CellComplex, orientation: Orientation) -> ValidationReport:
    """Adjacent top cells must induce opposite signs on each shared face."""
    report = ValidationReport()
    dims, signs, top = c.dims, orientation.signs, c.top_dimension
    unsigned = [cell for cell, dim in dims.items() if dim == top and signs.get(cell) not in (1, -1)]
    for cell in sorted(unsigned):
        if cell not in signs:
            report.add("orientation-missing", cell, "top cell has no sign")
        else:
            report.add("orientation-sign", cell, "sign must be +1 or -1")
    incoherent = []
    for face, dim in dims.items() if top >= 1 else ():
        if dim != top - 1:
            continue
        carriers = [(t, sign) for t, sign in c.cofaces[face].items() if dims.get(t) == top]
        if len(carriers) != 2:
            continue
        (t1, s1), (t2, s2) = carriers
        if t1 in signs and t2 in signs and signs[t1] * s1 + signs[t2] * s2 != 0:
            incoherent.append((face, *sorted((t1, t2))))
    for face, t1, t2 in sorted(incoherent):
        report.add("orientation-incoherent", face, f"top cells {t1} and {t2} induce equal signs on shared face")
    return report
