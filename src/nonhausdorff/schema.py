"""The repository JSON schema: system documents and cochain documents.

Rationals travel as strings like "3/7", decimals (edge lengths) as strings
like "1.5", so no value is ever round-tripped through binary floating point
parsing ambiguity on the rational side.  Parse errors name the offending
field; structural validity of the parsed system is a separate concern
(validate_system / validate_complex).

Parsing is one pass over the document.  Inside the loops over entries
(cells, faces, pairs, signs, lengths, cochain values) each check is an
inline test, and the field name and message are formatted only when it
fails.  Each piece's complex is built from the dicts the pass makes.
Only cochain documents need :mod:`cochains` and ``Fraction``, so
:func:`parse_cochain_document` imports them itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, NoReturn

from .adjunction import AdjunctionSystem
from .cells import CellComplex, CellSet, CoreAssignment, MetricComplex, Orientation
from .errors import SchemaError

if TYPE_CHECKING:
    from .cochains import GlobalCochain

SCHEMA_VERSION = "1"
MAX_EXPONENT = 4300  # sys.int_info.default_max_str_digits, the JSON reader's cap on integer digits


class LoadedSystem:
    """A parsed system document: the system and its optional cores and metrics."""

    __slots__ = ("name", "system", "cores", "metrics")

    def __init__(
        self,
        name: str,
        system: AdjunctionSystem,
        cores: CoreAssignment | None,
        metrics: list[MetricComplex] | None,
    ):
        self.name = name
        self.system = system
        self.cores = cores
        self.metrics = metrics


def _fail(field: str, message: str) -> NoReturn:
    raise SchemaError(f"{field}: {message}")


def _expect(condition: bool, field: str, message: str) -> None:
    if not condition:
        _fail(field, message)


def _as_map(doc: Any, field: str) -> Mapping[str, Any]:
    # ``type(doc) is dict`` first: ``isinstance`` against an ABC is slow
    _expect(type(doc) is dict or isinstance(doc, Mapping), field, "expected an object")
    return doc


def _as_list(doc: Any, field: str) -> list:
    _expect(isinstance(doc, list), field, "expected a list")
    return doc


def _parse_cells(cells_doc: list, k: int) -> CellComplex:
    """The complex of ``pieces[k]``, built from the dicts made here."""
    dims: dict[str, int] = {}
    faces: dict[str, dict[str, int]] = {}
    for c_idx, cd in enumerate(cells_doc):
        if type(cd) is not dict and not isinstance(cd, Mapping):
            _fail(f"pieces[{k}].cells[{c_idx}]", "expected an object")
        cid = cd.get("id")
        if not isinstance(cid, str) or not cid:
            _fail(f"pieces[{k}].cells[{c_idx}].id", "expected a nonempty string")
        if cid in dims:
            _fail(f"pieces[{k}].cells[{c_idx}].id", f"duplicate cell id {cid!r}")
        dim = cd.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            _fail(f"pieces[{k}].cells[{c_idx}].dim", "expected a non-negative integer")
        dims[cid] = dim
        fmap = cd.get("faces", {})
        if type(fmap) is not dict and not isinstance(fmap, Mapping):
            _fail(f"pieces[{k}].cells[{c_idx}].faces", "expected an object")
        for fid, sign in fmap.items():
            if not isinstance(fid, str):
                _fail(f"pieces[{k}].cells[{c_idx}].faces", "face ids must be strings")
            if sign not in (1, -1):
                _fail(f"pieces[{k}].cells[{c_idx}].faces[{fid}]", "sign must be +1 or -1")
        faces[cid] = dict(fmap)
    return CellComplex(dims=dims, faces=faces, top_dimension=max(dims.values(), default=0))


def parse_document(doc: Any) -> LoadedSystem:
    root = _as_map(doc, "$")
    version = root.get("schema_version")
    _expect(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    name = root.get("name", "unnamed")
    _expect(isinstance(name, str), "name", "expected a string")

    pieces_doc = _as_list(root.get("pieces"), "pieces")
    _expect(len(pieces_doc) >= 1, "pieces", "need at least one piece")
    names: list[str] = []
    index: dict[str, int] = {}
    pieces: list[CellComplex] = []
    for k, piece_doc in enumerate(pieces_doc):
        pd = _as_map(piece_doc, f"pieces[{k}]")
        pname = pd.get("name")
        _expect(isinstance(pname, str) and pname, f"pieces[{k}].name", "expected a nonempty string")
        _expect(pname not in index, f"pieces[{k}].name", f"duplicate piece name {pname!r}")
        index[pname] = k
        names.append(pname)
        pieces.append(_parse_cells(_as_list(pd.get("cells"), f"pieces[{k}].cells"), k))

    def piece_index(label: Any, field: str) -> int:
        _expect(isinstance(label, str), field, "expected a piece name")
        _expect(label in index, field, f"unknown piece {label!r}")
        return index[label]

    def unknown_cell(i: int, cid: Any) -> str:
        """The complaint about ``cid``, which is not a cell id of piece i."""
        return f"unknown cell {cid!r} in piece {names[i]!r}" if isinstance(cid, str) else "expected a cell id"

    def known_cells(i: int, cells: list, field: str) -> list:
        dims = pieces[i].dims
        for cid in cells:
            if not isinstance(cid, str) or cid not in dims:
                _fail(field, unknown_cell(i, cid))
        return cells

    def cell_pairs(field: str, pairs_doc: Any, i: int, j: int, unique: bool) -> dict[str, str]:
        src_dims, dst_dims = pieces[i].dims, pieces[j].dims
        out: dict[str, str] = {}
        for p_idx, pair in enumerate(_as_list(pairs_doc, field)):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{field}[{p_idx}]", "expected [src, dst]")
            src, dst = pair
            if not isinstance(src, str) or src not in src_dims:
                _fail(f"{field}[{p_idx}][0]", unknown_cell(i, src))
            if not isinstance(dst, str) or dst not in dst_dims:
                _fail(f"{field}[{p_idx}][1]", unknown_cell(j, dst))
            if unique and src in out:
                _fail(f"{field}[{p_idx}]", f"duplicate source cell {src!r}")
            out[src] = dst
        return out

    regions: dict[tuple[int, int], list[str]] = {}
    for r_idx, region_doc in enumerate(_as_list(root.get("regions", []), "regions")):
        rd = _as_map(region_doc, f"regions[{r_idx}]")
        i = piece_index(rd.get("i"), f"regions[{r_idx}].i")
        j = piece_index(rd.get("j"), f"regions[{r_idx}].j")
        _expect(i != j, f"regions[{r_idx}]", "self-gluing regions are implicit (A1)")
        _expect((i, j) not in regions, f"regions[{r_idx}]", "duplicate region entry")
        cells_list = _as_list(rd.get("cells"), f"regions[{r_idx}].cells")
        regions[(i, j)] = known_cells(i, cells_list, f"regions[{r_idx}].cells")

    maps: dict[tuple[int, int], tuple[dict[str, str], dict[str, str] | None]] = {}
    for m_idx, map_doc in enumerate(_as_list(root.get("maps", []), "maps")):
        md = _as_map(map_doc, f"maps[{m_idx}]")
        i = piece_index(md.get("i"), f"maps[{m_idx}].i")
        j = piece_index(md.get("j"), f"maps[{m_idx}].j")
        _expect(i != j, f"maps[{m_idx}]", "self-gluing maps are implicit (A1)")
        _expect((i, j) not in maps, f"maps[{m_idx}]", "duplicate map entry")
        pairs = cell_pairs(f"maps[{m_idx}].pairs", md.get("pairs"), i, j, unique=True)
        closure_pairs = None
        if "closure_pairs" in md:
            closure_pairs = cell_pairs(f"maps[{m_idx}].closure_pairs", md["closure_pairs"], i, j, unique=False)
        maps[(i, j)] = (pairs, closure_pairs)

    orientations = None
    if "orientations" in root and root["orientations"] is not None:
        odoc = _as_map(root["orientations"], "orientations")
        orientations = []
        for k, pname in enumerate(names):
            _expect(pname in odoc, "orientations", f"missing orientation for piece {pname!r}")
            signs_doc = _as_map(odoc[pname], f"orientations[{pname}]")
            dims = pieces[k].dims
            for cid, sign in signs_doc.items():
                if not isinstance(cid, str) or cid not in dims:
                    _fail(f"orientations[{pname}]", unknown_cell(k, cid))
                if sign not in (1, -1):
                    _fail(f"orientations[{pname}][{cid}]", "sign must be +1 or -1")
            orientations.append(Orientation(dict(signs_doc)))

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
            assignments[tup] = CellSet.of(pieces[ref], known_cells(ref, cell_list, f"cores[{c_idx}].cells"))
        cores = CoreAssignment(assignments)

    metrics = None
    if "edge_lengths" in root and root["edge_lengths"] is not None:
        ldoc = _as_map(root["edge_lengths"], "edge_lengths")
        metrics = []
        for k, pname in enumerate(names):
            _expect(pname in ldoc, "edge_lengths", f"missing lengths for piece {pname!r}")
            entries = _as_map(ldoc[pname], f"edge_lengths[{pname}]")
            dims = pieces[k].dims
            lengths: dict[str, float] = {}
            for cid, text in entries.items():
                if not isinstance(cid, str) or cid not in dims:
                    _fail(f"edge_lengths[{pname}]", unknown_cell(k, cid))
                if not isinstance(text, str):
                    _fail(f"edge_lengths[{pname}][{cid}]", "lengths are decimal strings")
                try:
                    lengths[cid] = float(text)
                except ValueError as exc:
                    raise SchemaError(f"edge_lengths[{pname}][{cid}]: not a decimal: {text!r}") from exc
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
                same_region = system.region(i, j).members == derived.forward.keys()
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
    from fractions import Fraction

    from .cochains import Cochain, assemble_global

    root = _as_map(doc, "$")
    version = root.get("schema_version")
    _expect(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    degree = root.get("degree")
    # a bool is an int to isinstance, not to the document
    _expect(type(degree) is int and degree >= 0, "degree", "expected a non-negative integer")
    comp_doc = _as_map(root.get("components"), "components")
    components = []
    for k, pname in enumerate(names):
        _expect(pname in comp_doc, "components", f"missing component for piece {pname!r}")
        values_doc = _as_map(comp_doc[pname], f"components[{pname}]")
        dims = system.pieces[k].dims
        values: dict[str, Fraction] = {}
        for cid, text in values_doc.items():
            if cid not in dims:
                _fail(f"components[{pname}][{cid}]", "unknown cell")
            if dims[cid] != degree:
                _fail(f"components[{pname}][{cid}]", f"cell has dimension {dims[cid]}, document degree is {degree}")
            try:
                digits = str(text)
                # Fraction computes 10**exponent with no limit
                if ("e" in digits or "E" in digits) and abs(int(digits.lower().rpartition("e")[2])) > MAX_EXPONENT:
                    raise ValueError(digits)
                value = Fraction(digits)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"components[{pname}][{cid}]: not a rational: {text!r}") from exc
            if value:
                values[cid] = value
        components.append(Cochain(system.pieces[k].whole_set(), degree, values))
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
