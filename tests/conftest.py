"""Shared builders: fixture access, random compatible cochains, random
clopen (Hausdorff) systems for the oracle-equivalence sweeps, and generated
non-Hausdorff covers (hub-and-spoke paths, k-origin lines, torus pairs)."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nonhausdorff import fixtures as fixture_mod
from nonhausdorff.adjunction import AdjunctionSystem, glued_cell_classes
from nonhausdorff.cells import CellComplex, CellSet, Orientation, closure, star
from nonhausdorff.cochains import Cochain, GlobalCochain, assemble_global
from nonhausdorff.cohomology import CoreAssignment
from nonhausdorff.errors import NonHausdorffError

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

GOOD_FIXTURES = [
    "line_two_origins",
    "variant_n",
    "branched_line",
    "glued_circles",
    "glued_circles_clopen",
    "two_squares",
    "line_three_origins",
    "line_three_origins_mixed",
    "glued_icosahedra",
    "glued_tori",
]

CORE_FIXTURES = [
    "line_two_origins",
    "variant_n",
    "branched_line",
    "glued_circles",
    "glued_circles_clopen",
    "line_three_origins",
    "line_three_origins_mixed",
    "closure_violation",
    "glued_icosahedra",
    "glued_tori",
]


@pytest.fixture(scope="session")
def built():
    """All fixture bundles, built once."""
    return {name: builder() for name, builder in fixture_mod.FIXTURE_BUILDERS.items()}


def outcome(fn, *args):
    """The value, or the library error's type and message."""
    try:
        return ("ok", fn(*args))
    except NonHausdorffError as exc:
        return ("error", type(exc).__name__, str(exc))


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def random_global_cochain(system: AdjunctionSystem, degree: int, rng: random.Random) -> GlobalCochain:
    """A random cochain satisfying the fibre-product compatibility, frontier
    agreement included: one random value per identification class."""
    classes = glued_cell_classes(system)
    parent = list(range(len(classes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (i, j), gm in sorted(system.maps.items()):
        if i >= j:
            continue
        for cell, image in sorted(gm.closure_forward.items()):
            if system.pieces[i].dims[cell] == degree:
                union(classes.index[(i, cell)], classes.index[(j, image)])

    values: dict[int, Fraction] = {}
    components = []
    for k, piece in enumerate(system.pieces):
        comp: dict[str, Fraction] = {}
        for cell in piece.cells_of_dim(degree):
            root = find(classes.index[(k, cell)])
            if root not in values:
                values[root] = random_fraction(rng)
            comp[cell] = values[root]
        components.append(Cochain.of(piece.whole_set(), degree, comp))
    return assemble_global(system, components, degree)


# -- random clopen systems -----------------------------------------------------


def _component(rng: random.Random, tag: str) -> tuple[list[tuple[str, int]], dict[str, dict[str, int]]]:
    kind = rng.choice(["vertex", "path", "cycle", "disc", "sphere"])
    cells: list[tuple[str, int]] = []
    inc: dict[str, dict[str, int]] = {}

    def v(k: int) -> str:
        return f"{tag}v{k}"

    def e(k: int) -> str:
        return f"{tag}e{k}"

    if kind == "vertex":
        cells.append((v(0), 0))
    elif kind == "path":
        n = rng.randint(2, 4)
        cells.extend((v(k), 0) for k in range(n))
        for k in range(n - 1):
            cells.append((e(k), 1))
            inc[e(k)] = {v(k): -1, v(k + 1): 1}
    elif kind == "cycle":
        n = rng.randint(3, 6)
        cells.extend((v(k), 0) for k in range(n))
        for k in range(n):
            cells.append((e(k), 1))
            inc[e(k)] = {v(k): -1, v((k + 1) % n): 1}
    elif kind == "disc":
        # one filled triangle
        cells.extend((v(k), 0) for k in range(3))
        for k in range(3):
            cells.append((e(k), 1))
            inc[e(k)] = {v(k): -1, v((k + 1) % 3): 1}
        cells.append((f"{tag}t", 2))
        inc[f"{tag}t"] = {e(0): 1, e(1): 1, e(2): 1}
    else:
        # boundary of a tetrahedron
        verts = [v(k) for k in range(4)]
        cells.extend((x, 0) for x in verts)
        edge_of = {}
        k = 0
        for a in range(4):
            for b in range(a + 1, 4):
                edge_of[(a, b)] = e(k)
                cells.append((e(k), 1))
                inc[e(k)] = {verts[a]: -1, verts[b]: 1}
                k += 1
        t = 0
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(b + 1, 4):
                    name = f"{tag}t{t}"
                    cells.append((name, 2))
                    inc[name] = {
                        edge_of[(b, c)]: 1,
                        edge_of[(a, c)]: -1,
                        edge_of[(a, b)]: 1,
                    }
                    t += 1
    return cells, inc


def random_clopen_system(rng: random.Random, max_cells: int = 40) -> AdjunctionSystem:
    """Pieces are unions of shared components, glued by identity on every
    shared component: all regions clopen, no Hausdorff violations."""
    while True:
        n_pieces = rng.randint(2, 3)
        n_components = rng.randint(1, 4)
        comps = [_component(rng, f"c{k}_") for k in range(n_components)]
        total = sum(len(cells) for cells, _ in comps)
        if total > max_cells:
            continue
        membership: list[set[int]] = [set() for _ in range(n_pieces)]
        for k in range(n_components):
            homes = rng.sample(range(n_pieces), rng.randint(1, n_pieces))
            for h in homes:
                membership[h].add(k)
        if any(not m for m in membership):
            continue
        pieces = []
        for m in membership:
            cells: list[tuple[str, int]] = []
            inc: dict[str, dict[str, int]] = {}
            for k in sorted(m):
                cells.extend(comps[k][0])
                inc.update(comps[k][1])
            pieces.append(CellComplex.build(cells, inc))
        regions = {}
        maps = {}
        for i in range(n_pieces):
            for j in range(i + 1, n_pieces):
                shared = membership[i] & membership[j]
                cells = [c for k in sorted(shared) for c, _ in comps[k][0]]
                if not cells:
                    continue
                regions[(i, j)] = cells
                maps[(i, j)] = ({c: c for c in cells}, None)
        return AdjunctionSystem.assemble(pieces, None, regions, maps)


def oriented_copy(system: AdjunctionSystem) -> AdjunctionSystem:
    orientations = [
        Orientation({c: 1 for c in piece.cells_of_dim(piece.top_dimension)})
        for piece in system.pieces
    ]
    return AdjunctionSystem(system.pieces, system.names, system.regions, system.maps, orientations)


def closed_region_cochain_values(system, i, j, degree):
    """Cells of the closure of region(i, j) in the given degree."""
    return closure(system.region(i, j)).members_of_dim(degree)


# -- generated non-Hausdorff covers ---------------------------------------------


def _plus_orientations(pieces: list[CellComplex]) -> list[Orientation]:
    return [Orientation({c: 1 for c in p.cells_of_dim(p.top_dimension)}) for p in pieces]


def hub_with_spokes(k: int, spacing: int) -> fixture_mod.Fixture:
    """A hub path v-1..v{spacing*k} with ``k`` spoke paths v0..v3; spoke s is
    glued along the open star of hub vertex v{spacing*s+1}.

    Only the pairs (hub, spoke) have nonempty intersections.  From a spacing
    of 3 on, the closures of neighbouring regions are disjoint and the
    closure-intersection property holds; at a spacing of 2 they meet at one
    vertex and it fails for every pair of neighbouring spokes.
    """
    hub = fixture_mod.path_complex(-1, spacing * k)
    pieces = [hub, *(fixture_mod.path_complex(0, 3) for _ in range(k))]
    regions: dict[tuple[int, int], list[str]] = {}
    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str]]] = {}
    cores: dict[tuple[int, ...], CellSet] = {}
    for s in range(k):
        base = spacing * s
        forward = {f"v{base + 1}": "v1", f"e{base}": "e0", f"e{base + 1}": "e1"}
        extension = dict(forward, **{f"v{base}": "v0", f"v{base + 2}": "v2"})
        regions[(0, s + 1)] = sorted(forward)
        maps[(0, s + 1)] = (forward, extension)
        cores[(0, s + 1)] = CellSet.of(hub, [f"v{base + 1}"])
    names = ["H"] + [f"S{s}" for s in range(k)]
    system = AdjunctionSystem.assemble(pieces, names, regions, maps, _plus_orientations(pieces))
    return fixture_mod.Fixture(f"hub_{k}_spacing_{spacing}", system, CoreAssignment(cores))


def k_origin_line(k: int) -> fixture_mod.Fixture:
    """``k`` copies of the 5-vertex path glued along everything except v0;
    every one of the 2^k - k - 1 intersections is nonempty."""
    pieces = [fixture_mod.path_complex() for _ in range(k)]
    region = CellSet.of(pieces[0], set(pieces[0].dims) - {"v0"})
    closed = closure(region).members
    regions: dict[tuple[int, int], set[str]] = {}
    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str]]] = {}
    for i, j in itertools.combinations(range(k), 2):
        regions[(i, j)] = set(region.members)
        maps[(i, j)] = ({c: c for c in region.members}, {c: c for c in closed})
    core_cells = ["v-2", "v-1", "e-2", "v1", "v2", "e1"]
    cores = {
        tup: CellSet.of(pieces[tup[0]], core_cells)
        for size in range(2, k + 1)
        for tup in itertools.combinations(range(k), size)
    }
    system = AdjunctionSystem.assemble(
        pieces, [f"L{i}" for i in range(k)], regions, maps, _plus_orientations(pieces)
    )
    return fixture_mod.Fixture(f"origins_{k}", system, CoreAssignment(cores))


def torus_pair(n: int) -> fixture_mod.Fixture:
    """Two ``torus_complex(n, n+1)`` pieces glued along the open annulus
    around row 1 (the open star of its vertices); the core is that row's
    circle."""
    pieces = [fixture_mod.torus_complex(n, n + 1) for _ in range(2)]
    row = [f"v{x},1" for x in range(n)]
    region = star(CellSet.of(pieces[0], row))
    closed = closure(region).members
    regions = {(0, 1): set(region.members)}
    maps = {(0, 1): ({c: c for c in region.members}, {c: c for c in closed})}
    system = AdjunctionSystem.assemble(pieces, ["T1", "T2"], regions, maps, _plus_orientations(pieces))
    core = CellSet.of(pieces[0], row + [f"h{x},1" for x in range(n)])
    return fixture_mod.Fixture(f"tori_{n}", system, CoreAssignment({(0, 1): core}))


def cochain_document(system: AdjunctionSystem, degree: int, rng: random.Random) -> dict:
    """A cochain document of the given degree whose components agree across
    every closure extension: one random rational per class of cells joined by
    the extensions.  Built without assemble_global, so it exists for invalid
    systems too."""
    parent: dict[tuple[int, str], tuple[int, str]] = {}

    def find(x: tuple[int, str]) -> tuple[int, str]:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for (i, j), gm in sorted(system.maps.items()):
        for cell, image in sorted(gm.closure_forward.items()):
            if system.pieces[i].dims.get(cell) == degree:
                a, b = find((i, cell)), find((j, image))
                if a != b:
                    parent[max(a, b)] = min(a, b)
    values: dict[tuple[int, str], Fraction] = {}
    components: dict[str, dict[str, str]] = {}
    for i, piece in enumerate(system.pieces):
        comp: dict[str, str] = {}
        for cell in piece.cells_of_dim(degree):
            root = find((i, cell))
            if root not in values:
                values[root] = random_fraction(rng)
            comp[cell] = str(values[root])
        components[system.names[i]] = comp
    return {"schema_version": "1", "degree": degree, "components": components}
