"""Shared builders: fixture access, random compatible cochains, random
clopen (Hausdorff) systems for the oracle-equivalence sweeps, and generated
non-Hausdorff covers (hub-and-spoke paths, k-origin lines, torus pairs,
hexagons glued on open arcs, a chain of icosahedra), and one-node mutations of JSON documents and
byte-level unreadable ones for the loading and CLI fuzz tests."""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pytest

from nonhausdorff import cohomology
from nonhausdorff import fixtures as fixture_mod
from nonhausdorff.adjunction import AdjunctionSystem, glued_cell_classes
from nonhausdorff.cells import CellComplex, CellSet, MetricComplex, Orientation, closure, star
from nonhausdorff.cochains import Cochain, GlobalCochain, assemble_global
from nonhausdorff.cohomology import CoreAssignment, Flavor
from nonhausdorff.errors import NonHausdorffError

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """The environment of a child interpreter: the source tree on its path,
    and ``PYTHONDONTWRITEBYTECODE`` when the tests run with it, so that a
    child does not write the bytecode its parent was told not to."""
    env = {"PYTHONPATH": str(SRC)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env

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


def random_global_cochain(
    system: AdjunctionSystem,
    degree: int,
    rng: random.Random,
    value: Callable[[random.Random], Fraction] = random_fraction,
) -> GlobalCochain:
    """A random cochain satisfying the fibre-product compatibility, frontier
    agreement included: one value drawn by ``value`` per identification class."""
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
                values[root] = value(rng)
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


def icosahedron_chain() -> fixture_mod.Fixture:
    """Three unit icosahedra in a chain: I1 and I2 share the open star of
    vertex i0, I2 and I3 that of the antipodal vertex i9.  I1 and I3 do not
    meet, so the nerve holds two of the four piece tuples."""
    pieces = [fixture_mod.icosahedron_complex() for _ in range(3)]
    regions: dict[tuple[int, int], set[str]] = {}
    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str]]] = {}
    cores: dict[tuple[int, ...], CellSet] = {}
    for s, apex in ((0, "i0"), (1, "i9")):
        region = star(CellSet.of(pieces[s], [apex]))
        closed = closure(region).members
        regions[(s, s + 1)] = set(region.members)
        maps[(s, s + 1)] = ({c: c for c in region.members}, {c: c for c in closed})
        cores[(s, s + 1)] = CellSet.of(pieces[s], [apex])
    system = AdjunctionSystem.assemble(
        pieces, ["I1", "I2", "I3"], regions, maps, _plus_orientations(pieces)
    )
    metrics = [MetricComplex(p, {e: 1.0 for e in p.cells_of_dim(1)}) for p in pieces]
    return fixture_mod.Fixture("icosahedron_chain", system, CoreAssignment(cores), metrics)


HEXAGON_ARC = ["c0", "c1", "c2", "w1", "w2"]  # the open 3-edge arc w0..w3
HEXAGON_CHAIN = {(0, 1): ["c0", "c1", "w1"], (1, 2): ["c3", "c4", "w4"]}


def glued_hexagons(
    k: int, arcs: dict[tuple[int, int], list[str]] | None = None
) -> fixture_mod.Fixture:
    """``k`` hexagons ``cycle_complex(6)`` glued by identity maps, every pair
    along ``HEXAGON_ARC`` (with the core w1-c1-w2 for every tuple) unless
    ``arcs`` gives the open arc of each glued pair.  Every piece is closed, so
    ``stokes-check`` applies for any k."""
    pieces = [fixture_mod.cycle_complex(6) for _ in range(k)]
    cores = None
    if arcs is None:
        arcs = {pair: HEXAGON_ARC for pair in itertools.combinations(range(k), 2)}
        cores = CoreAssignment({
            tup: CellSet.of(pieces[tup[0]], ["w1", "c1", "w2"])
            for size in range(2, k + 1)
            for tup in itertools.combinations(range(k), size)
        })
    regions: dict[tuple[int, int], list[str]] = {}
    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str]]] = {}
    for pair, arc in arcs.items():
        regions[pair] = arc
        closed = closure(CellSet.of(pieces[pair[0]], arc)).members
        maps[pair] = ({c: c for c in arc}, {c: c for c in closed})
    system = AdjunctionSystem.assemble(
        pieces, [f"C{i}" for i in range(k)], regions, maps, _plus_orientations(pieces)
    )
    return fixture_mod.Fixture(f"hexagons_{k}", system, cores)


def hexagon_chain() -> fixture_mod.Fixture:
    """Three hexagons glued in a chain along open arcs, with the middle
    vertex of each arc as its core."""
    fx = glued_hexagons(3, HEXAGON_CHAIN)
    pieces = fx.system.pieces
    cores = {(0, 1): CellSet.of(pieces[0], ["w1"]), (1, 2): CellSet.of(pieces[1], ["w4"])}
    return fixture_mod.Fixture("hexagon_chain", fx.system, CoreAssignment(cores))


def arc_hexagons(rng: random.Random) -> fixture_mod.Fixture:
    """Three hexagons, each pair glued by identity on a random open arc of
    one to three edges, or not at all.  Only a triple can fail the
    closure-intersection property, where two arcs of one piece touch
    without overlapping; so in about half the draws C0's arc to C2 starts
    where its arc to C1 ends."""
    arcs: dict[tuple[int, int], list[str]] = {}
    end = rng.randrange(6)
    for pair in itertools.combinations(range(3), 2):
        if rng.random() < 0.8:
            start = end if pair == (0, 2) and rng.random() < 0.5 else rng.randrange(6)
            length = rng.randint(1, 3)
            edges = [f"c{(start + t) % 6}" for t in range(length)]
            arcs[pair] = edges + [f"w{(start + t) % 6}" for t in range(1, length)]
            end = (start + length) % 6
    return glued_hexagons(3, arcs)


def counted_builds(monkeypatch) -> list[Flavor]:
    """The flavor of each ``cohomology.build_bicomplex`` call from here on."""
    builds: list[Flavor] = []
    build = cohomology.build_bicomplex

    def counted(system, flavor, *args, **kwargs):
        builds.append(flavor)
        return build(system, flavor, *args, **kwargs)

    monkeypatch.setattr(cohomology, "build_bicomplex", counted)
    return builds


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


# -- documents that are not JSON at all ----------------------------------------------

# Byte-level failures of the reader, for either document slot: each must exit 3
# with a parse error naming the file.  The integer exceeds the interpreter's
# default limit of 4300 digits for int(str); the nesting exceeds the recursion
# limit of the JSON decoder.
BAD_BYTES = {
    "not-utf8": b'{"schema_version": "1\xff"}',
    "long-integer": b'{"schema_version": ' + b"7" * 5000 + b"}",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
}


# -- one-node document mutations --------------------------------------------------

MUTANT_VALUES = (None, True, False, 0, 1, -1, 2, 1.5, "", "x", "1/0", "0.5", [], {})


class DocumentMutator:
    """Copies of one JSON document with one node replaced, renamed or deleted.

    A top-level field is drawn first and then a node inside it, so the small
    sections (regions, maps, orientations, cores, lengths) are hit as often as
    the cell lists.  A replacement is a value from ``MUTANT_VALUES``, a string
    of the document (a cell id or piece name) or a copy of another node; a
    renamed object key takes such a string.
    """

    def __init__(self, doc: dict):
        self.text = json.dumps(doc)
        self.sections: dict[str, list[tuple]] = {}
        self.strings: set[str] = set()
        for key, value in doc.items():
            paths = [(key,)]
            self._walk(value, (key,), paths)
            self.sections[key] = paths
        self.all_paths = [path for key in sorted(self.sections) for path in self.sections[key]]
        self.pool = sorted(self.strings)

    def _walk(self, node, path: tuple, out: list[tuple]) -> None:
        if isinstance(node, str):
            self.strings.add(node)
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            if isinstance(key, str):
                self.strings.add(key)
            out.append(path + (key,))
            self._walk(value, path + (key,), out)

    def mutant(self, rng: random.Random) -> dict:
        doc = json.loads(self.text)
        path = rng.choice(self.sections[rng.choice(sorted(self.sections))])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        last = path[-1]
        action = rng.random()
        if action < 0.25:
            del parent[last]
        elif action < 0.4 and isinstance(parent, dict):
            parent[rng.choice(self.pool)] = parent.pop(last)
        else:
            parent[last] = self._value(rng, doc)
        return doc

    def _value(self, rng: random.Random, doc: dict):
        kind = rng.random()
        if kind < 0.4:
            return json.loads(json.dumps(rng.choice(MUTANT_VALUES)))
        if kind < 0.8:
            return rng.choice(self.pool)
        node = doc
        for key in rng.choice(self.all_paths):
            node = node[key]
        return json.loads(json.dumps(node))
