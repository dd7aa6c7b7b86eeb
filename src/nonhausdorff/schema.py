"""The repository JSON schema: system documents and cochain documents.

Rationals travel as strings like "3/7", decimals (edge lengths) as strings
like "1.5", so no value is ever round-tripped through binary floating point
parsing ambiguity on the rational side.  Parse errors name the offending
field; structural validity of the parsed system is a separate concern
(validate_system / validate_complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .adjunction import AdjunctionSystem
from .cells import CellComplex, CellSet, Orientation
from .cochains import Cochain, GlobalCochain, assemble_global
from .cohomology import CoreAssignment
from .errors import SchemaError
from .geometry import MetricComplex

SCHEMA_VERSION = "1"


@dataclass(eq=False)
class LoadedSystem:
    name: str
    system: AdjunctionSystem
    cores: CoreAssignment | None
    metrics: list[MetricComplex] | None


def _expect(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{field}: {message}")


def _as_map(doc: Any, field: str) -> Mapping[str, Any]:
    _expect(isinstance(doc, Mapping), field, "expected an object")
    return doc


def _as_list(doc: Any, field: str) -> list:
    _expect(isinstance(doc, list), field, "expected a list")
    return doc


def parse_document(doc: Any) -> LoadedSystem:
    root = _as_map(doc, "$")
    version = root.get("schema_version")
    _expect(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    name = root.get("name", "unnamed")
    _expect(isinstance(name, str), "name", "expected a string")

    pieces_doc = _as_list(root.get("pieces"), "pieces")
    _expect(len(pieces_doc) >= 1, "pieces", "need at least one piece")
    names: list[str] = []
    pieces: list[CellComplex] = []
    for k, piece_doc in enumerate(pieces_doc):
        pd = _as_map(piece_doc, f"pieces[{k}]")
        pname = pd.get("name")
        _expect(isinstance(pname, str) and pname, f"pieces[{k}].name", "expected a nonempty string")
        _expect(pname not in names, f"pieces[{k}].name", f"duplicate piece name {pname!r}")
        names.append(pname)
        cells_doc = _as_list(pd.get("cells"), f"pieces[{k}].cells")
        cells: list[tuple[str, int]] = []
        incidence: dict[str, dict[str, int]] = {}
        seen: set[str] = set()
        for c_idx, cell_doc in enumerate(cells_doc):
            cd = _as_map(cell_doc, f"pieces[{k}].cells[{c_idx}]")
            cid = cd.get("id")
            _expect(isinstance(cid, str) and cid, f"pieces[{k}].cells[{c_idx}].id", "expected a nonempty string")
            _expect(cid not in seen, f"pieces[{k}].cells[{c_idx}].id", f"duplicate cell id {cid!r}")
            seen.add(cid)
            dim = cd.get("dim")
            _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
                    f"pieces[{k}].cells[{c_idx}].dim", "expected a non-negative integer")
            cells.append((cid, dim))
            faces = cd.get("faces", {})
            fmap = _as_map(faces, f"pieces[{k}].cells[{c_idx}].faces")
            row: dict[str, int] = {}
            for fid, sign in fmap.items():
                _expect(isinstance(fid, str), f"pieces[{k}].cells[{c_idx}].faces", "face ids must be strings")
                _expect(sign in (1, -1), f"pieces[{k}].cells[{c_idx}].faces[{fid}]", "sign must be +1 or -1")
                row[fid] = sign
            if row:
                incidence[cid] = row
        pieces.append(CellComplex.build(cells, incidence))

    def piece_index(label: Any, field: str) -> int:
        _expect(isinstance(label, str), field, "expected a piece name")
        _expect(label in names, field, f"unknown piece {label!r}")
        return names.index(label)

    def known_cell(i: int, cid: Any, field: str) -> str:
        _expect(isinstance(cid, str), field, "expected a cell id")
        _expect(cid in pieces[i].dims, field, f"unknown cell {cid!r} in piece {names[i]!r}")
        return cid

    regions: dict[tuple[int, int], list[str]] = {}
    for r_idx, region_doc in enumerate(_as_list(root.get("regions", []), "regions")):
        rd = _as_map(region_doc, f"regions[{r_idx}]")
        i = piece_index(rd.get("i"), f"regions[{r_idx}].i")
        j = piece_index(rd.get("j"), f"regions[{r_idx}].j")
        _expect(i != j, f"regions[{r_idx}]", "self-gluing regions are implicit (A1)")
        _expect((i, j) not in regions, f"regions[{r_idx}]", "duplicate region entry")
        cells_list = _as_list(rd.get("cells"), f"regions[{r_idx}].cells")
        regions[(i, j)] = [known_cell(i, c, f"regions[{r_idx}].cells") for c in cells_list]

    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str] | None]] = {}
    for m_idx, map_doc in enumerate(_as_list(root.get("maps", []), "maps")):
        md = _as_map(map_doc, f"maps[{m_idx}]")
        i = piece_index(md.get("i"), f"maps[{m_idx}].i")
        j = piece_index(md.get("j"), f"maps[{m_idx}].j")
        _expect(i != j, f"maps[{m_idx}]", "self-gluing maps are implicit (A1)")
        _expect((i, j) not in maps, f"maps[{m_idx}]", "duplicate map entry")
        pairs: dict[str, str] = {}
        for p_idx, pair in enumerate(_as_list(md.get("pairs"), f"maps[{m_idx}].pairs")):
            _expect(isinstance(pair, list) and len(pair) == 2, f"maps[{m_idx}].pairs[{p_idx}]", "expected [src, dst]")
            src = known_cell(i, pair[0], f"maps[{m_idx}].pairs[{p_idx}][0]")
            dst = known_cell(j, pair[1], f"maps[{m_idx}].pairs[{p_idx}][1]")
            _expect(src not in pairs, f"maps[{m_idx}].pairs[{p_idx}]", f"duplicate source cell {src!r}")
            pairs[src] = dst
        closure_pairs: dict[str, str] | None = None
        if "closure_pairs" in md:
            closure_pairs = {}
            for p_idx, pair in enumerate(_as_list(md["closure_pairs"], f"maps[{m_idx}].closure_pairs")):
                _expect(isinstance(pair, list) and len(pair) == 2,
                        f"maps[{m_idx}].closure_pairs[{p_idx}]", "expected [src, dst]")
                src = known_cell(i, pair[0], f"maps[{m_idx}].closure_pairs[{p_idx}][0]")
                dst = known_cell(j, pair[1], f"maps[{m_idx}].closure_pairs[{p_idx}][1]")
                closure_pairs[src] = dst
        maps[(i, j)] = (pairs, closure_pairs)

    orientations = None
    if "orientations" in root and root["orientations"] is not None:
        odoc = _as_map(root["orientations"], "orientations")
        orientations = []
        for k, pname in enumerate(names):
            _expect(pname in odoc, "orientations", f"missing orientation for piece {pname!r}")
            signs_doc = _as_map(odoc[pname], f"orientations[{pname}]")
            signs: dict[str, int] = {}
            for cid, sign in signs_doc.items():
                known_cell(k, cid, f"orientations[{pname}]")
                _expect(sign in (1, -1), f"orientations[{pname}][{cid}]", "sign must be +1 or -1")
                signs[cid] = sign
            orientations.append(Orientation(signs))

    system = AdjunctionSystem.assemble(pieces, names, regions, maps, orientations)

    cores = None
    if "cores" in root and root["cores"] is not None:
        assignments: dict[tuple[int, ...], CellSet] = {}
        for c_idx, core_doc in enumerate(_as_list(root["cores"], "cores")):
            cd = _as_map(core_doc, f"cores[{c_idx}]")
            tup_names = _as_list(cd.get("pieces"), f"cores[{c_idx}].pieces")
            _expect(len(tup_names) >= 2, f"cores[{c_idx}].pieces", "need at least two pieces")
            tup = tuple(piece_index(t, f"cores[{c_idx}].pieces") for t in tup_names)
            _expect(tuple(sorted(tup)) == tup and len(set(tup)) == len(tup),
                    f"cores[{c_idx}].pieces", "pieces must be distinct and in document order")
            ref = tup[0]
            cell_list = _as_list(cd.get("cells"), f"cores[{c_idx}].cells")
            members = [known_cell(ref, c, f"cores[{c_idx}].cells") for c in cell_list]
            assignments[tup] = CellSet.of(pieces[ref], members)
        cores = CoreAssignment(assignments)

    metrics = None
    if "edge_lengths" in root and root["edge_lengths"] is not None:
        ldoc = _as_map(root["edge_lengths"], "edge_lengths")
        metrics = []
        for k, pname in enumerate(names):
            _expect(pname in ldoc, "edge_lengths", f"missing lengths for piece {pname!r}")
            entries = _as_map(ldoc[pname], f"edge_lengths[{pname}]")
            lengths: dict[str, float] = {}
            for cid, text in entries.items():
                known_cell(k, cid, f"edge_lengths[{pname}]")
                _expect(isinstance(text, str), f"edge_lengths[{pname}][{cid}]",
                        "lengths are decimal strings")
                try:
                    value = float(text)
                except ValueError as exc:
                    raise SchemaError(f"edge_lengths[{pname}][{cid}]: not a decimal: {text!r}") from exc
                lengths[cid] = value
            metrics.append(MetricComplex(pieces[k], lengths))

    return LoadedSystem(name=name, system=system, cores=cores, metrics=metrics)


def serialize_system(
    name: str,
    system: AdjunctionSystem,
    cores: CoreAssignment | None = None,
    metrics: list[MetricComplex] | None = None,
) -> dict:
    pieces_doc = []
    for k, piece in enumerate(system.pieces):
        cells_doc = []
        for cid in piece.cell_ids():
            entry: dict[str, Any] = {"id": cid, "dim": piece.dims[cid]}
            faces = piece.faces_of(cid)
            if faces:
                entry["faces"] = {f: s for f, s in sorted(faces.items())}
            cells_doc.append(entry)
        pieces_doc.append({"name": system.names[k], "cells": cells_doc})

    regions_doc = []
    maps_doc = []
    emitted: set[tuple[int, int]] = set()
    for (i, j) in system.ordered_pairs():
        gm = system.gluing(i, j)
        if i > j and (j, i) in emitted:
            # the reverse direction is implied by A2; only write it when the
            # stored data actually disagrees with the derived inverse
            forward_gm = system.gluing(j, i)
            if forward_gm is not None and gm is not None:
                derived = forward_gm.inverse()
                same_region = system.region(i, j).members == derived.source.members
                if (
                    same_region
                    and gm.forward == derived.forward
                    and gm.closure_forward == derived.closure_forward
                ):
                    continue
        region = system.region(i, j)
        regions_doc.append(
            {"i": system.names[i], "j": system.names[j], "cells": region.sorted_members()}
        )
        if gm is not None:
            maps_doc.append(
                {
                    "i": system.names[i],
                    "j": system.names[j],
                    "pairs": [[a, b] for a, b in sorted(gm.forward.items())],
                    "closure_pairs": [[a, b] for a, b in sorted(gm.closure_forward.items())],
                }
            )
        emitted.add((i, j))

    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "pieces": pieces_doc,
        "regions": regions_doc,
        "maps": maps_doc,
    }
    if system.orientations is not None:
        doc["orientations"] = {
            system.names[k]: {c: s for c, s in sorted(orient.signs.items())}
            for k, orient in enumerate(system.orientations)
        }
    if cores is not None:
        doc["cores"] = [
            {
                "pieces": [system.names[i] for i in tup],
                "cells": cs.sorted_members(),
            }
            for tup, cs in sorted(cores.cores.items())
        ]
    if metrics is not None:
        doc["edge_lengths"] = {
            system.names[k]: {e: _decimal(v) for e, v in sorted(mc.edge_lengths.items())}
            for k, mc in enumerate(metrics)
        }
    return doc


def _decimal(value: float) -> str:
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def parse_cochain_document(doc: Any, system: AdjunctionSystem, names: list[str]) -> GlobalCochain:
    root = _as_map(doc, "$")
    version = root.get("schema_version")
    _expect(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    degree = root.get("degree")
    _expect(isinstance(degree, int) and degree >= 0, "degree", "expected a non-negative integer")
    comp_doc = _as_map(root.get("components"), "components")
    components = []
    for k, pname in enumerate(names):
        _expect(pname in comp_doc, "components", f"missing component for piece {pname!r}")
        values_doc = _as_map(comp_doc[pname], f"components[{pname}]")
        values: dict[str, Fraction] = {}
        for cid, text in values_doc.items():
            _expect(cid in system.pieces[k].dims, f"components[{pname}][{cid}]", "unknown cell")
            _expect(system.pieces[k].dims[cid] == degree, f"components[{pname}][{cid}]",
                    f"cell has dimension {system.pieces[k].dims[cid]}, document degree is {degree}")
            try:
                values[cid] = Fraction(str(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"components[{pname}][{cid}]: not a rational: {text!r}") from exc
        components.append(Cochain.of(system.pieces[k].whole_set(), degree, values))
    return assemble_global(system, components, degree)


def serialize_cochain(w: GlobalCochain, names: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "degree": w.degree,
        "components": {
            names[k]: {c: str(v) for c, v in sorted(comp.values.items())}
            for k, comp in enumerate(w.components)
        },
    }
