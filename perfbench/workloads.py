"""Generated inputs for the benchmark.

Every system here is built from public library names only
(``fixtures.torus_complex``, ``fixtures.path_complex``,
``fixtures.glued_icosahedra``, ``AdjunctionSystem.assemble``,
``refine.subdivide_system``).  The annulus band and the identity gluings are
derived here rather than imported from private helpers, so that a refactor of
the library cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from nonhausdorff import AdjunctionSystem, CellSet, Orientation, closure, refine, star
from nonhausdorff.adjunction import glued_cell_classes
from nonhausdorff.cells import CellComplex
from nonhausdorff.cohomology import CoreAssignment
from nonhausdorff.fixtures import glued_icosahedra, path_complex, torus_complex
from nonhausdorff.geometry import MetricComplex
from nonhausdorff.schema import serialize_system


@dataclass(eq=False)
class Generated:
    """One generated system with the data its document carries."""

    name: str
    system: AdjunctionSystem
    cores: CoreAssignment | None = None
    metrics: list[MetricComplex] | None = None

    def document(self) -> dict:
        return serialize_system(self.name, self.system, self.cores, self.metrics)


def _plus_orientation(piece: CellComplex) -> Orientation:
    return Orientation({c: 1 for c in piece.cells_of_dim(piece.top_dimension)})


def identity_gluing(
    pieces: list[CellComplex], region: CellSet, pairs: list[tuple[int, int]]
) -> tuple[dict, dict]:
    """Regions and maps gluing pieces with identical cell names along ``region``."""
    closed = closure(region).members
    regions = {pair: set(region.members) for pair in pairs}
    maps = {pair: ({c: c for c in region.members}, {c: c for c in closed}) for pair in pairs}
    return regions, maps


def torus_band(piece: CellComplex, ncols: int) -> CellSet:
    """The open annulus around row 1 of a grid torus: the open star of its vertices."""
    return star(CellSet.of(piece, [f"v{x},1" for x in range(ncols)]))


def torus_pair(n: int) -> Generated:
    """Two flat ``torus_complex(n, n+1)`` pieces glued along an open two-row annulus."""
    pieces = [torus_complex(n, n + 1), torus_complex(n, n + 1)]
    regions, maps = identity_gluing(pieces, torus_band(pieces[0], n), [(0, 1)])
    system = AdjunctionSystem.assemble(
        pieces, ["T1", "T2"], regions, maps, [_plus_orientation(p) for p in pieces]
    )
    lengths: dict[str, float] = {}
    for x in range(n):
        for y in range(n + 1):
            lengths[f"h{x},{y}"] = 1.0
            lengths[f"u{x},{y}"] = 1.0
            lengths[f"d{x},{y}"] = math.sqrt(2.0)
    metrics = [MetricComplex(p, dict(lengths)) for p in pieces]
    core = [f"v{x},1" for x in range(n)] + [f"h{x},1" for x in range(n)]
    cores = CoreAssignment({(0, 1): CellSet.of(pieces[0], core)})
    return Generated(f"tori_{n}", system, cores, metrics)


def subdivided_icosahedra(rounds: int) -> Generated:
    """``glued_icosahedra`` after ``rounds`` edge subdivisions; no edge lengths.

    Subdivision keeps vertex names, so the core (the apex vertex) carries over.
    """
    system = glued_icosahedra().system
    for _ in range(rounds):
        system = refine.subdivide_system(system)
    cores = CoreAssignment({(0, 1): CellSet.of(system.pieces[0], ["i0"])})
    return Generated(f"icosahedra_r{rounds}", system, cores)


SPOKE_SPACING = 4


def hub_with_spokes(k: int) -> Generated:
    """A hub path ``v-1..v{4k}`` with ``k`` spoke paths; spoke s is glued along
    the open star of hub vertex ``v{4s+1}``.

    With a spacing of 4 the closures of neighbouring gluing regions stay
    disjoint, so the closure-intersection property holds; with a spacing of 2
    adjacent closures would meet at a vertex and it would fail.
    """
    hub = path_complex(-1, SPOKE_SPACING * k)
    spokes = [path_complex(0, 3) for _ in range(k)]
    pieces = [hub, *spokes]
    regions: dict[tuple[int, int], list[str]] = {}
    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str]]] = {}
    core: dict[tuple[int, ...], CellSet] = {}
    for s in range(k):
        base = SPOKE_SPACING * s
        forward = {f"v{base + 1}": "v1", f"e{base}": "e0", f"e{base + 1}": "e1"}
        extension = dict(forward, **{f"v{base}": "v0", f"v{base + 2}": "v2"})
        regions[(0, s + 1)] = sorted(forward)
        maps[(0, s + 1)] = (forward, extension)
        core[(0, s + 1)] = CellSet.of(hub, [f"v{base + 1}"])
    names = ["H"] + [f"S{s}" for s in range(k)]
    system = AdjunctionSystem.assemble(
        pieces, names, regions, maps, [_plus_orientation(p) for p in pieces]
    )
    return Generated(f"hub_{k}", system, CoreAssignment(core))


def k_origin_lines(k: int) -> Generated:
    """``k`` copies of a path glued along everything except the origin ``v0``."""
    pieces = [path_complex() for _ in range(k)]
    region = CellSet.of(pieces[0], set(pieces[0].dims) - {"v0"})
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    regions, maps = identity_gluing(pieces, region, pairs)
    system = AdjunctionSystem.assemble(
        pieces, [f"L{i}" for i in range(k)], regions, maps, [_plus_orientation(p) for p in pieces]
    )
    core_cells = ["v-2", "v-1", "e-2", "v1", "v2", "e1"]
    cores: dict[tuple[int, ...], CellSet] = {}
    for size in range(2, k + 1):
        for tup in itertools.combinations(range(k), size):
            cores[tup] = CellSet.of(pieces[tup[0]], core_cells)
    return Generated(f"origins_{k}", system, CoreAssignment(cores))


# -- cochains -------------------------------------------------------------------


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def compatible_cochain(system: AdjunctionSystem, degree: int, rng: random.Random) -> dict:
    """A cochain document whose components agree across every gluing map on
    the region closures: one random rational per class of degree-``degree``
    cells joined by the closure extensions."""
    parent: dict[tuple[int, str], tuple[int, str]] = {}

    def find(x: tuple[int, str]) -> tuple[int, str]:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for (i, j), gm in sorted(system.maps.items()):
        for cell, image in gm.closure_forward.items():
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
                values[root] = _random_fraction(rng)
            comp[cell] = str(values[root])
        components[system.names[i]] = comp
    return {"schema_version": "1", "degree": degree, "components": components}


def class_sum_integral(system: AdjunctionSystem, cochain_doc: dict) -> Fraction:
    """Integral of a top-degree cochain document as one signed value per glued
    cell class; independent of the inclusion-exclusion formula."""
    top = system.pieces[0].top_dimension
    total = Fraction(0)
    for cls in glued_cell_classes(system).classes:
        i, cell = cls[0]
        if system.pieces[i].dims[cell] != top:
            continue
        value = Fraction(cochain_doc["components"][system.names[i]].get(cell, "0"))
        total += system.orientations[i].sign(cell) * value
    return total
