"""Builders for the example systems shipped with the repository.

Each builder returns a Fixture bundling the adjunction system with the core
assignment for the open-core flavor and, for the surface examples, the edge
lengths.  The JSON files under fixtures/ are generated from these builders
(``python -m nonhausdorff.fixtures <outdir>``).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .adjunction import AdjunctionSystem
from .cells import CellComplex, CellSet, Orientation, closure
from .cohomology import CoreAssignment
from .geometry import MetricComplex
from .schema import serialize_system


@dataclass(eq=False)
class Fixture:
    name: str
    system: AdjunctionSystem
    cores: CoreAssignment | None = None
    metrics: list[MetricComplex] | None = None
    description: str = ""


# -- elementary complexes -----------------------------------------------------


def path_complex(lo: int = -2, hi: int = 2) -> CellComplex:
    """Vertices v{lo}..v{hi} joined by edges e{k} = [v{k}, v{k+1}]."""
    cells: list[tuple[str, int]] = [(f"v{k}", 0) for k in range(lo, hi + 1)]
    incidence: dict[str, dict[str, int]] = {}
    for k in range(lo, hi):
        cells.append((f"e{k}", 1))
        incidence[f"e{k}"] = {f"v{k}": -1, f"v{k + 1}": 1}
    return CellComplex.build(cells, incidence)


def cycle_complex(n: int) -> CellComplex:
    """An n-gon: vertices w0..w{n-1}, edges c{k} = [w{k}, w{k+1 mod n}]."""
    cells: list[tuple[str, int]] = [(f"w{k}", 0) for k in range(n)]
    incidence: dict[str, dict[str, int]] = {}
    for k in range(n):
        cells.append((f"c{k}", 1))
        incidence[f"c{k}"] = {f"w{k}": -1, f"w{(k + 1) % n}": 1}
    return CellComplex.build(cells, incidence)


def two_square_strip() -> CellComplex:
    """Two unit squares A|B sharing a vertical edge, counterclockwise."""
    cells: list[tuple[str, int]] = []
    incidence: dict[str, dict[str, int]] = {}
    for x in range(3):
        for y in range(2):
            cells.append((f"v{x}{y}", 0))
    horizontals = {
        "b0": ("v00", "v10"),
        "b1": ("v10", "v20"),
        "t0": ("v01", "v11"),
        "t1": ("v11", "v21"),
    }
    verticals = {"s0": ("v00", "v01"), "s1": ("v10", "v11"), "s2": ("v20", "v21")}
    for name, (a, b) in {**horizontals, **verticals}.items():
        cells.append((name, 1))
        incidence[name] = {a: -1, b: 1}
    cells.append(("A", 2))
    incidence["A"] = {"b0": 1, "s1": 1, "t0": -1, "s0": -1}
    cells.append(("B", 2))
    incidence["B"] = {"b1": 1, "s2": 1, "t1": -1, "s1": -1}
    return CellComplex.build(cells, incidence)


def orient_faces(faces: Sequence[tuple[str, str, str]]) -> list[tuple[str, str, str]]:
    """Flip cyclic orders so adjacent triangles traverse shared edges
    oppositely; raises if the face set is not orientable."""

    def directed(tri: tuple[str, str, str]) -> set[tuple[str, str]]:
        a, b, c = tri
        return {(a, b), (b, c), (c, a)}

    by_edge: dict[frozenset[str], list[int]] = {}
    for idx, tri in enumerate(faces):
        for u, v in directed(tri):
            by_edge.setdefault(frozenset((u, v)), []).append(idx)
    oriented: dict[int, tuple[str, str, str]] = {}
    for start in range(len(faces)):
        if start in oriented:
            continue
        oriented[start] = faces[start]
        queue = deque([start])
        while queue:
            idx = queue.popleft()
            tri = oriented[idx]
            for u, v in directed(tri):
                for other in by_edge[frozenset((u, v))]:
                    if other == idx:
                        continue
                    flipped = faces[other][::-1]
                    want = flipped if (u, v) in directed(faces[other]) else faces[other]
                    if other in oriented:
                        if oriented[other] != want and oriented[other] not in _rotations(want):
                            raise ValueError("face set is not orientable")
                    else:
                        oriented[other] = want
                        queue.append(other)
    return [oriented[idx] for idx in range(len(faces))]


def _rotations(tri: tuple[str, str, str]) -> list[tuple[str, str, str]]:
    a, b, c = tri
    return [(a, b, c), (b, c, a), (c, a, b)]


def complex_from_oriented_faces(faces: Sequence[tuple[str, str, str]]) -> CellComplex:
    """Simplicial surface from coherently oriented triangles; edges are
    sorted pairs with -1 at the smaller vertex."""
    cells: list[tuple[str, int]] = []
    incidence: dict[str, dict[str, int]] = {}
    vertices = sorted({v for tri in faces for v in tri})
    cells.extend((v, 0) for v in vertices)

    def edge_name(u: str, v: str) -> str:
        a, b = sorted((u, v))
        return f"E|{a}|{b}"

    edges: set[str] = set()
    for tri in faces:
        a, b, c = tri
        for u, v in ((a, b), (b, c), (c, a)):
            name = edge_name(u, v)
            if name not in edges:
                edges.add(name)
                lo, hi = sorted((u, v))
                cells.append((name, 1))
                incidence[name] = {lo: -1, hi: 1}
    for tri in faces:
        a, b, c = tri
        name = "T|" + "|".join(sorted(tri))
        row: dict[str, int] = {}
        for u, v in ((a, b), (b, c), (c, a)):
            row[edge_name(u, v)] = 1 if u < v else -1
        cells.append((name, 2))
        incidence[name] = row
    return CellComplex.build(cells, incidence)


def icosahedron_faces() -> list[tuple[str, str, str]]:
    """The twenty faces, as the 3-cliques of the nearest-neighbour graph on
    the twelve golden-rectangle vertices, coherently oriented."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    coords: list[tuple[float, float, float]] = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            coords.append((0.0, a, b))
            coords.append((a, b, 0.0))
            coords.append((b, 0.0, a))
    names = [f"i{k}" for k in range(12)]

    def dist2(p: tuple[float, float, float], q: tuple[float, float, float]) -> float:
        return sum((x - y) ** 2 for x, y in zip(p, q))

    near = 4.0  # squared edge length for this coordinate scale
    adj: dict[int, set[int]] = {k: set() for k in range(12)}
    for a, b in itertools.combinations(range(12), 2):
        if abs(dist2(coords[a], coords[b]) - near) < 1e-6:
            adj[a].add(b)
            adj[b].add(a)
    faces = [
        (names[a], names[b], names[c])
        for a, b, c in itertools.combinations(range(12), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    ]
    assert len(faces) == 20
    return orient_faces(faces)


def icosahedron_complex() -> CellComplex:
    return complex_from_oriented_faces(icosahedron_faces())


def torus_complex(ncols: int = 3, nrows: int = 4) -> CellComplex:
    """Grid torus with every square split along its up-right diagonal."""
    cells: list[tuple[str, int]] = []
    incidence: dict[str, dict[str, int]] = {}

    def v(x: int, y: int) -> str:
        return f"v{x % ncols},{y % nrows}"

    for x in range(ncols):
        for y in range(nrows):
            cells.append((v(x, y), 0))
    for x in range(ncols):
        for y in range(nrows):
            cells.append((f"h{x},{y}", 1))
            incidence[f"h{x},{y}"] = {v(x, y): -1, v(x + 1, y): 1}
            cells.append((f"u{x},{y}", 1))
            incidence[f"u{x},{y}"] = {v(x, y): -1, v(x, y + 1): 1}
            cells.append((f"d{x},{y}", 1))
            incidence[f"d{x},{y}"] = {v(x, y): -1, v(x + 1, y + 1): 1}
    for x in range(ncols):
        for y in range(nrows):
            cells.append((f"tl{x},{y}", 2))
            incidence[f"tl{x},{y}"] = {
                f"h{x},{y}": 1,
                f"u{(x + 1) % ncols},{y}": 1,
                f"d{x},{y}": -1,
            }
            cells.append((f"tu{x},{y}", 2))
            incidence[f"tu{x},{y}"] = {
                f"d{x},{y}": 1,
                f"h{x},{(y + 1) % nrows}": -1,
                f"u{x},{y}": -1,
            }
    return CellComplex.build(cells, incidence)


def _plus_orientation(piece: CellComplex) -> Orientation:
    return Orientation({c: 1 for c in piece.cells_of_dim(piece.top_dimension)})


def _identity_gluing(
    pieces: Sequence[CellComplex], region_cells: Iterable[str], pairs_of: Sequence[tuple[int, int]]
) -> tuple[dict, dict]:
    regions = {}
    maps = {}
    for (i, j) in pairs_of:
        region = CellSet.of(pieces[i], region_cells)
        cl = closure(region)
        regions[(i, j)] = set(region.members)
        maps[(i, j)] = (
            {c: c for c in region.members},
            {c: c for c in cl.members},
        )
    return regions, maps


# -- the shipped fixtures ------------------------------------------------------


def line_two_origins() -> Fixture:
    """Two copies of the 5-vertex path glued along everything except v0."""
    pieces = [path_complex(), path_complex()]
    region_cells = sorted(set(pieces[0].dims) - {"v0"})
    regions, maps = _identity_gluing(pieces, region_cells, [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["P1", "P2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    core = CellSet.of(pieces[0], ["v-2", "v-1", "e-2", "v1", "v2", "e1"])
    return Fixture(
        name="line_two_origins",
        system=system,
        cores=CoreAssignment({(0, 1): core}),
        description="the doubled-origin line; the gluing region is not regular open",
    )


def variant_n() -> Fixture:
    """Two 5-vertex paths glued along the two outer open rays (regular open)."""
    pieces = [path_complex(), path_complex()]
    region_cells = ["v-2", "e-2", "v2", "e1"]
    regions, maps = _identity_gluing(pieces, region_cells, [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["P1", "P2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    core = CellSet.of(pieces[0], ["v-2", "v2"])
    return Fixture(
        name="variant_n",
        system=system,
        cores=CoreAssignment({(0, 1): core}),
        description="doubled +-1 points; glued along regular open rays",
    )


def branched_line() -> Fixture:
    """Two paths glued along the open left ray only: one branch point."""
    pieces = [path_complex(), path_complex()]
    region_cells = ["v-2", "v-1", "e-2", "e-1"]
    regions, maps = _identity_gluing(pieces, region_cells, [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["P1", "P2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    core = CellSet.of(pieces[0], ["v-1"])
    return Fixture(
        name="branched_line",
        system=system,
        cores=CoreAssignment({(0, 1): core}),
        description="the 2-branched line",
    )


def glued_circles() -> Fixture:
    """Two hexagon circles glued along an open 3-edge arc."""
    pieces = [cycle_complex(6), cycle_complex(6)]
    region_cells = ["c0", "c1", "c2", "w1", "w2"]
    regions, maps = _identity_gluing(pieces, region_cells, [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["C1", "C2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    core = CellSet.of(pieces[0], ["w1", "c1", "w2"])
    return Fixture(
        name="glued_circles",
        system=system,
        cores=CoreAssignment({(0, 1): core}),
        description="closed 1-pieces sharing an open arc; the Stokes-failure fixture",
    )


def glued_circles_clopen() -> Fixture:
    """Control: two hexagons fully identified (clopen region, no frontier)."""
    pieces = [cycle_complex(6), cycle_complex(6)]
    region_cells = sorted(pieces[0].dims)
    regions, maps = _identity_gluing(pieces, region_cells, [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["C1", "C2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    return Fixture(
        name="glued_circles_clopen",
        system=system,
        cores=CoreAssignment({}),
        description="Hausdorff control: gluing along the whole pieces",
    )


def two_squares() -> Fixture:
    """Two 2-square strips glued along the open cell of the right square."""
    pieces = [two_square_strip(), two_square_strip()]
    regions, maps = _identity_gluing(pieces, ["B"], [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["S1", "S2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    # the open region {B} contains no face-closed subcomplex, so this fixture
    # ships without cores and is used for integration only
    return Fixture(
        name="two_squares",
        system=system,
        description="binary inclusion-exclusion integration fixture",
    )


def line_three_origins() -> Fixture:
    """Three 5-vertex paths all glued along everything except v0."""
    pieces = [path_complex(), path_complex(), path_complex()]
    region_cells = sorted(set(pieces[0].dims) - {"v0"})
    regions, maps = _identity_gluing(pieces, region_cells, [(0, 1), (0, 2), (1, 2)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["P1", "P2", "P3"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    core_cells = ["v-2", "v-1", "e-2", "v1", "v2", "e1"]
    cores = CoreAssignment(
        {
            (0, 1): CellSet.of(pieces[0], core_cells),
            (0, 2): CellSet.of(pieces[0], core_cells),
            (1, 2): CellSet.of(pieces[1], core_cells),
            (0, 1, 2): CellSet.of(pieces[0], core_cells),
        }
    )
    return Fixture(
        name="line_three_origins",
        system=system,
        cores=cores,
        description="3-piece system satisfying the closure-intersection property",
    )


def reversed_path_complex(lo: int = -2, hi: int = 2) -> CellComplex:
    """Path with vertices r{lo}..r{hi} and edges s{k} oriented downward:
    s{k} runs from r{k+1} to r{k}."""
    cells: list[tuple[str, int]] = [(f"r{k}", 0) for k in range(lo, hi + 1)]
    incidence: dict[str, dict[str, int]] = {}
    for k in range(lo, hi):
        cells.append((f"s{k}", 1))
        incidence[f"s{k}"] = {f"r{k + 1}": -1, f"r{k}": 1}
    return CellComplex.build(cells, incidence)


def line_three_origins_mixed() -> Fixture:
    """Same glued space as line_three_origins but with relabeled and mirrored
    pieces, so every gluing map genuinely renames cells."""
    p1 = path_complex()
    p2 = CellComplex.build(
        [(f"a{k}", 0) for k in range(-2, 3)] + [(f"b{k}", 1) for k in range(-2, 2)],
        {f"b{k}": {f"a{k}": -1, f"a{k + 1}": 1} for k in range(-2, 2)},
    )
    p3 = reversed_path_complex()
    pieces = [p1, p2, p3]

    def to_p2(cell: str) -> str:
        return {"v": "a", "e": "b"}[cell[0]] + cell[1:]

    def to_p3(cell: str) -> str:
        k = int(cell[1:])
        return f"r{-k}" if cell[0] == "v" else f"s{-k - 1}"

    region1 = sorted(set(p1.dims) - {"v0"})
    closure1 = sorted(p1.dims)
    maps = {
        (0, 1): ({c: to_p2(c) for c in region1}, {c: to_p2(c) for c in closure1}),
        (0, 2): ({c: to_p3(c) for c in region1}, {c: to_p3(c) for c in closure1}),
        (1, 2): (
            {to_p2(c): to_p3(c) for c in region1},
            {to_p2(c): to_p3(c) for c in closure1},
        ),
    }
    regions = {
        (0, 1): region1,
        (0, 2): region1,
        (1, 2): sorted(to_p2(c) for c in region1),
    }
    system = AdjunctionSystem.assemble(
        pieces,
        names=["P1", "P2", "P3"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    core1 = ["v-2", "v-1", "e-2", "v1", "v2", "e1"]
    cores = CoreAssignment(
        {
            (0, 1): CellSet.of(p1, core1),
            (0, 2): CellSet.of(p1, core1),
            (1, 2): CellSet.of(p2, [to_p2(c) for c in core1]),
            (0, 1, 2): CellSet.of(p1, core1),
        }
    )
    return Fixture(
        name="line_three_origins_mixed",
        system=system,
        cores=cores,
        description="tripled origin with relabeled and orientation-mirrored pieces",
    )


def closure_violation() -> Fixture:
    """Three pieces whose two gluing regions inside P1 meet only at the
    frontier vertex v0: the closure-intersection property fails."""
    p1 = path_complex()
    small = CellComplex.build(
        [("u0", 0), ("u1", 0), ("u2", 0), ("f0", 1), ("f1", 1)],
        {"f0": {"u0": -1, "u1": 1}, "f1": {"u1": -1, "u2": 1}},
    )
    small2 = CellComplex.build(
        [("u0", 0), ("u1", 0), ("u2", 0), ("f0", 1), ("f1", 1)],
        {"f0": {"u0": -1, "u1": 1}, "f1": {"u1": -1, "u2": 1}},
    )
    pieces = [p1, small, small2]
    regions = {
        (0, 1): {"v-2", "v-1", "e-2", "e-1"},
        (0, 2): {"v1", "v2", "e0", "e1"},
    }
    maps = {
        (0, 1): (
            {"v-2": "u0", "v-1": "u1", "e-2": "f0", "e-1": "f1"},
            {"v-2": "u0", "v-1": "u1", "e-2": "f0", "e-1": "f1", "v0": "u2"},
        ),
        (0, 2): (
            {"v1": "u1", "v2": "u2", "e0": "f0", "e1": "f1"},
            {"v1": "u1", "v2": "u2", "e0": "f0", "e1": "f1", "v0": "u0"},
        ),
    }
    system = AdjunctionSystem.assemble(
        pieces,
        names=["P1", "P2", "P3"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    cores = CoreAssignment(
        {
            (0, 1): CellSet.of(p1, ["v-2", "v-1", "e-2"]),
            (0, 2): CellSet.of(p1, ["v1", "v2", "e1"]),
        }
    )
    return Fixture(
        name="closure_violation",
        system=system,
        cores=cores,
        description="regions meeting only on their shared frontier vertex",
    )


def glued_icosahedra() -> Fixture:
    """Two icosahedral spheres glued along the open star of one vertex."""
    ico = icosahedron_complex()
    ico2 = icosahedron_complex()
    pieces = [ico, ico2]
    apex = "i0"
    star_cells = {apex}
    star_cells.update(c for c, s in ico.cofaces_of(apex).items())
    for edge in list(star_cells):
        if ico.dims[edge] == 1:
            star_cells.update(ico.cofaces_of(edge))
    regions, maps = _identity_gluing(pieces, sorted(star_cells), [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["I1", "I2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    lengths = {e: 1.0 for e in ico.cells_of_dim(1)}
    metrics = [MetricComplex(ico, dict(lengths)), MetricComplex(ico2, dict(lengths))]
    cores = CoreAssignment({(0, 1): CellSet.of(ico, [apex])})
    return Fixture(
        name="glued_icosahedra",
        system=system,
        cores=cores,
        metrics=metrics,
        description="unit icosahedra sharing an open vertex star",
    )


def _torus_band_cells(ncols: int) -> list[str]:
    cells: list[str] = []
    for x in range(ncols):
        cells.extend(
            [
                f"tl{x},0",
                f"tu{x},0",
                f"tl{x},1",
                f"tu{x},1",
                f"h{x},1",
                f"u{x},0",
                f"u{x},1",
                f"d{x},0",
                f"d{x},1",
                f"v{x},1",
            ]
        )
    return cells


def glued_tori() -> Fixture:
    """Two flat 3x4 grid tori glued along an open two-row annulus."""
    ncols, nrows = 3, 4
    t1 = torus_complex(ncols, nrows)
    t2 = torus_complex(ncols, nrows)
    pieces = [t1, t2]
    band = _torus_band_cells(ncols)
    regions, maps = _identity_gluing(pieces, band, [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces,
        names=["T1", "T2"],
        regions=regions,
        maps=maps,
        orientations=[_plus_orientation(p) for p in pieces],
    )
    lengths: dict[str, float] = {}
    diag = math.sqrt(2.0)
    for x in range(ncols):
        for y in range(nrows):
            lengths[f"h{x},{y}"] = 1.0
            lengths[f"u{x},{y}"] = 1.0
            lengths[f"d{x},{y}"] = diag
    metrics = [MetricComplex(t1, dict(lengths)), MetricComplex(t2, dict(lengths))]
    core_cells = [f"v{x},1" for x in range(ncols)] + [f"h{x},1" for x in range(ncols)]
    cores = CoreAssignment({(0, 1): CellSet.of(t1, core_cells)})
    return Fixture(
        name="glued_tori",
        system=system,
        cores=cores,
        metrics=metrics,
        description="flat tori sharing an open annulus; all defects vanish",
    )


def broken_cocycle() -> Fixture:
    """Three two-point pieces where map(1,3) != map(2,3) o map(1,2)."""
    def two_points() -> CellComplex:
        return CellComplex.build([("x", 0), ("y", 0)], {})

    pieces = [two_points(), two_points(), two_points()]
    whole = ["x", "y"]
    ident = ({"x": "x", "y": "y"}, None)
    swap = ({"x": "y", "y": "x"}, None)
    system = AdjunctionSystem.assemble(
        pieces,
        names=["Q1", "Q2", "Q3"],
        regions={(0, 1): whole, (0, 2): whole, (1, 2): whole},
        maps={(0, 1): ident, (0, 2): swap, (1, 2): ident},
    )
    return Fixture("broken_cocycle", system, description="A3 violation fixture")


def broken_inverse() -> Fixture:
    """Binary system where map(2,1) is not the inverse of map(1,2)."""
    def two_points() -> CellComplex:
        return CellComplex.build([("x", 0), ("y", 0)], {})

    pieces = [two_points(), two_points()]
    system = AdjunctionSystem.assemble(
        pieces,
        names=["Q1", "Q2"],
        regions={(0, 1): ["x", "y"], (1, 0): ["x", "y"]},
        maps={
            (0, 1): ({"x": "x", "y": "y"}, None),
            (1, 0): ({"x": "y", "y": "x"}, None),
        },
    )
    return Fixture("broken_inverse", system, description="A2 violation fixture")


def dangling_face() -> Fixture:
    """One piece whose single edge references a missing vertex."""
    piece = CellComplex.build([("v", 0), ("e", 1)], {"e": {"v": -1, "ghost": 1}})
    system = AdjunctionSystem.assemble([piece], names=["P1"])
    return Fixture("dangling_face", system, description="invalid complex fixture")


FIXTURE_BUILDERS: dict[str, Callable[[], Fixture]] = {
    fn.__name__: fn
    for fn in (
        line_two_origins,
        variant_n,
        branched_line,
        glued_circles,
        glued_circles_clopen,
        two_squares,
        line_three_origins,
        line_three_origins_mixed,
        closure_violation,
        glued_icosahedra,
        glued_tori,
        broken_cocycle,
        broken_inverse,
        dangling_face,
    )
}


def serialize_fixture(fx: Fixture) -> dict:
    return serialize_system(fx.name, fx.system, fx.cores, fx.metrics)


def build(name: str) -> Fixture:
    return FIXTURE_BUILDERS[name]()


def main(argv: Sequence[str] | None = None) -> int:
    """Regenerate the JSON fixture files: python -m nonhausdorff.fixtures <dir>."""
    import json
    import pathlib
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    outdir = pathlib.Path(args[0]) if args else pathlib.Path("fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, builder in sorted(FIXTURE_BUILDERS.items()):
        doc = serialize_fixture(builder())
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
