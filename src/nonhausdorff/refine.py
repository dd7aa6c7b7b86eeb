"""One round of edge subdivision for adjunction systems and their cochains.

Every edge e with endpoint signs {-1, +1} is replaced by a midpoint vertex
"e#m" and halves "e#a" (at the -1 end) and "e#b"; 2-cells keep their identity
and list both halves with the old sign.  Gluing data, orientations and cores
transfer along the naming convention, and a top-degree cochain transfers by
splitting edge values evenly (degree 1) or unchanged (degree 2), which is
exactly what leaves integrals invariant.
"""

from __future__ import annotations

from fractions import Fraction

from .adjunction import AdjunctionSystem, GluingMap
from .cells import CellComplex, CellSet, Orientation
from .cochains import Cochain, GlobalCochain, assemble_global
from .cohomology import CoreAssignment
from .errors import PreconditionError


def subdivide_complex(piece: CellComplex) -> CellComplex:
    cells: list[tuple[str, int]] = []
    incidence: dict[str, dict[str, int]] = {}
    for cid in piece.cell_ids():
        dim = piece.dims[cid]
        if dim == 0:
            cells.append((cid, 0))
        elif dim == 1:
            ends = piece.faces_of(cid)
            signs = sorted(ends.values())
            if signs != [-1, 1]:
                raise ValueError(
                    f"subdivision needs the oriented-edge convention on {cid!r}"
                )
            start = next(v for v, s in ends.items() if s == -1)
            stop = next(v for v, s in ends.items() if s == 1)
            cells.append((f"{cid}#m", 0))
            cells.append((f"{cid}#a", 1))
            cells.append((f"{cid}#b", 1))
            incidence[f"{cid}#a"] = {start: -1, f"{cid}#m": 1}
            incidence[f"{cid}#b"] = {f"{cid}#m": -1, stop: 1}
        else:
            cells.append((cid, dim))
            row: dict[str, int] = {}
            for face, sign in piece.faces_of(cid).items():
                if piece.dims.get(face) == 1:
                    row[f"{face}#a"] = sign
                    row[f"{face}#b"] = sign
                else:
                    row[face] = sign
            incidence[cid] = row
    return CellComplex.build(cells, incidence)


def _expand_cells(piece: CellComplex, members: list[str]) -> list[str]:
    out: list[str] = []
    for cid in members:
        if piece.dims[cid] == 1:
            out.extend([f"{cid}#a", f"{cid}#b", f"{cid}#m"])
        else:
            out.append(cid)
    return out


def _expand_pairs(piece: CellComplex, pairs: dict[str, str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for src, dst in pairs.items():
        if piece.dims[src] == 1:
            out[f"{src}#a"] = f"{dst}#a"
            out[f"{src}#b"] = f"{dst}#b"
            out[f"{src}#m"] = f"{dst}#m"
        else:
            out[src] = dst
    return out


def subdivide_system(system: AdjunctionSystem) -> AdjunctionSystem:
    new_pieces = [subdivide_complex(p) for p in system.pieces]
    regions = {
        key: _expand_cells(system.pieces[key[0]], cs.sorted_members())
        for key, cs in system.regions.items()
    }
    maps: dict[tuple[int, int], GluingMap] = {}
    for key, gm in system.maps.items():
        i, j = key
        forward = _expand_pairs(system.pieces[i], dict(gm.forward))
        closure_forward = _expand_pairs(system.pieces[i], dict(gm.closure_forward))
        maps[key] = GluingMap(
            source_piece=i,
            target_piece=j,
            source=CellSet.of(new_pieces[i], regions[key]),
            target=CellSet.of(new_pieces[j], forward.values()),
            forward=forward,
            closure_forward=closure_forward,
        )
    orientations = None
    if system.orientations is not None:
        orientations = []
        for k, orient in enumerate(system.orientations):
            old = system.pieces[k]
            signs: dict[str, int] = {}
            for cell, sign in orient.signs.items():
                if old.dims[cell] == 1 and old.top_dimension == 1:
                    signs[f"{cell}#a"] = sign
                    signs[f"{cell}#b"] = sign
                else:
                    signs[cell] = sign
            orientations.append(Orientation(signs))
    return AdjunctionSystem(
        pieces=new_pieces,
        names=list(system.names),
        regions={k: CellSet.of(new_pieces[k[0]], cells) for k, cells in regions.items()},
        maps=maps,
        orientations=orientations,
    )


def subdivide_cores(system: AdjunctionSystem, cores: CoreAssignment, refined: AdjunctionSystem) -> CoreAssignment:
    out: dict[tuple[int, ...], CellSet] = {}
    for tup, cs in cores.cores.items():
        ref = tup[0]
        out[tup] = CellSet.of(
            refined.pieces[ref], _expand_cells(system.pieces[ref], cs.sorted_members())
        )
    return CoreAssignment(out)


def subdivide_top_cochain(w: GlobalCochain, refined: AdjunctionSystem) -> GlobalCochain:
    """Transfer a top-degree cochain so that every integral is unchanged."""
    system = w.system
    top = system.pieces[0].top_dimension
    if w.degree != top:
        raise PreconditionError(
            f"subdivide_top_cochain: cochain degree {w.degree} is not the top dimension {top}"
        )
    components = []
    for k, comp in enumerate(w.components):
        values: dict[str, Fraction] = {}
        for cell, value in comp.values.items():
            if top == 1:
                values[f"{cell}#a"] = value / 2
                values[f"{cell}#b"] = value / 2
            else:
                values[cell] = value
        components.append(Cochain.of(refined.pieces[k].whole_set(), top, values))
    return assemble_global(refined, components, top)
