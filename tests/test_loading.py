"""Loading a document against the reference parser and validators in oracle.py.

Each case is a shipped fixture or a generated non-Hausdorff cover (hub paths,
k-origin lines, torus pairs) with one JSON node replaced, renamed or
deleted.  The outcome of loading it -- the ``SchemaError`` text, or the
loaded system and its validation issues (rule, location, message) in order --
must be the same for the library and the reference.

Systems built in-process can break rules that no document reaches (a
negative dimension, an incidence row of an unknown cell, a bad sign); a
second test alters such systems directly and compares the validation issues
alone.  A third alters only gluing maps of covers with triple overlaps, so
that the cocycle conditions A3 and A3-closure fail, and compares the cocycle
issues.
"""

from __future__ import annotations

import json
import random

import oracle
from nonhausdorff.adjunction import AdjunctionSystem, GluingMap, _validate_cocycles, validate_system
from nonhausdorff.cells import CellComplex, Orientation
from nonhausdorff.errors import SchemaError, ValidationReport
from nonhausdorff.fixtures import FIXTURE_BUILDERS, serialize_fixture
from nonhausdorff.schema import parse_document

from conftest import FIXTURES_DIR, DocumentMutator, hub_with_spokes, k_origin_line, torus_pair

MUTANTS_PER_DOCUMENT = 100


def base_documents() -> list[dict]:
    docs = [json.loads(path.read_text()) for path in sorted(FIXTURES_DIR.glob("*.json"))]
    generated = [hub_with_spokes(2, 2), hub_with_spokes(3, 3), k_origin_line(2), k_origin_line(3)]
    generated += [torus_pair(2), torus_pair(3)]
    docs.extend(serialize_fixture(fx) for fx in generated)
    return docs


def fingerprint(loaded) -> tuple:
    """Everything a loaded system holds, as plain data in iteration order."""
    s = loaded.system
    return (
        loaded.name,
        s.names,
        [
            (list(p.dims.items()), [(c, list(r.items())) for c, r in p.faces.items()],
             [(c, list(r.items())) for c, r in p.cofaces.items()], p.top_dimension)
            for p in s.pieces
        ],
        [(k, region.owner is s.pieces[k[0]], region.members) for k, region in s.regions.items()],
        [
            (k, list(g.forward.items()), list(g.closure_forward.items()))
            for k, g in s.maps.items()
        ],
        None if s.orientations is None else [list(o.signs.items()) for o in s.orientations],
        None if loaded.cores is None else [(t, c.members) for t, c in loaded.cores.cores.items()],
        None if loaded.metrics is None else [list(m.edge_lengths.items()) for m in loaded.metrics],
    )


def load_outcome(parse, validate, doc) -> tuple:
    try:
        loaded = parse(doc)
    except SchemaError as exc:
        return ("schema", str(exc))
    issues = [(i.rule, i.location, i.message) for i in validate(loaded.system).issues]
    return ("loaded", issues, fingerprint(loaded))


def test_loading_matches_the_reference_on_mutated_documents():
    rng = random.Random(20231)
    kinds: dict[str, int] = {}
    cases = 0
    for base in base_documents():
        assert load_outcome(parse_document, validate_system, base) == load_outcome(
            oracle.parse_document, oracle.validate_system, base
        )
        mutator = DocumentMutator(base)
        for _ in range(MUTANTS_PER_DOCUMENT):
            doc = mutator.mutant(rng)
            want = load_outcome(oracle.parse_document, oracle.validate_system, doc)
            got = load_outcome(parse_document, validate_system, doc)
            assert got == want, json.dumps(doc)[:2000]
            kind = want[0] if want[0] == "schema" or not want[1] else "issues"
            kinds[kind] = kinds.get(kind, 0) + 1
            cases += 1
    assert cases >= 2000
    # the mutants reach all three outcomes, each many times
    assert min(kinds.get(kind, 0) for kind in ("schema", "issues", "loaded")) >= 100, kinds


def shuffled(table: dict, rng: random.Random) -> dict:
    items = list(table.items())
    rng.shuffle(items)
    return dict(items)


def replaced(gm: GluingMap, **changes) -> GluingMap:
    """A copy of ``gm`` with the named fields replaced."""
    fields = {name: getattr(gm, name) for name in GluingMap.__slots__}
    fields.update(changes)
    return GluingMap(**fields)


def alter(system: AdjunctionSystem, rng: random.Random) -> AdjunctionSystem:
    """A copy of ``system`` with one complex, region, map or orientation
    altered, and every table in a random order."""
    regions, maps = dict(system.regions), dict(system.maps)
    dims = [dict(piece.dims) for piece in system.pieces]
    faces = [{c: dict(row) for c, row in piece.faces.items()} for piece in system.pieces]
    signs = [dict(o.signs) for o in system.orientations] if system.orientations else None
    k = rng.randrange(len(dims))
    cells = sorted(dims[k])
    what = rng.choice(["dim", "sign", "ghost row", "drop cell", "region", "map", "orientation"])
    if what == "region" and regions:
        key = rng.choice(sorted(regions))
        if rng.random() < 0.5:
            del regions[key]
        else:
            regions[key] = system.pieces[key[0]].whole_set()
    elif what == "map" and maps:
        key = rng.choice(sorted(maps))
        gm = maps[key]
        field = rng.choice(["forward", "closure_forward"])
        if getattr(gm, field):
            table = dict(getattr(gm, field))
            for cell in rng.sample(sorted(table), min(len(table), rng.randint(1, 3))):
                if rng.random() < 0.5:
                    del table[cell]
                else:
                    table[cell] = rng.choice(sorted(dims[key[1]]))
            maps[key] = replaced(gm, **{field: table})
    elif what == "orientation" and signs:
        if rng.random() < 0.3:
            signs.pop()
        elif rng.random() < 0.5:
            signs[k] = {c: -sign for c, sign in signs[k].items()}
        else:
            for cell in rng.sample(sorted(signs[k]), min(len(signs[k]), 3)):
                signs[k][cell] = rng.choice([0, -signs[k][cell], None, "missing"])
            signs[k] = {c: sign for c, sign in signs[k].items() if sign != "missing"}
    elif what == "dim":
        dims[k][rng.choice(cells)] = rng.choice([-1, 3])
    elif what == "sign":
        for cell in rng.sample(cells, min(len(cells), 3)):
            if faces[k][cell]:
                faces[k][cell][rng.choice(sorted(faces[k][cell]))] = rng.choice([0, 2, -1, 1])
    elif what == "ghost row":
        faces[k]["ghost"] = {rng.choice(cells): 1}
    else:
        for cell in rng.sample(cells, min(len(cells), 3)):
            del dims[k][cell]
    pieces = [
        CellComplex(
            dims=shuffled(d, rng),
            faces={c: shuffled(row, rng) for c, row in shuffled(f, rng).items()},
            top_dimension=max(d.values(), default=0),
        )
        for d, f in zip(dims, faces)
    ]
    maps = {
        key: replaced(gm, forward=shuffled(gm.forward, rng), closure_forward=shuffled(gm.closure_forward, rng))
        for key, gm in shuffled(maps, rng).items()
    }
    orientations = None if signs is None else [Orientation(shuffled(table, rng)) for table in signs]
    return AdjunctionSystem(pieces, system.names, regions, maps, orientations)


def issues_outcome(validate, system: AdjunctionSystem) -> tuple:
    try:
        return ("issues", [(i.rule, i.location, i.message) for i in validate(system).issues])
    except Exception as exc:  # the same failure, if any, from both
        return ("raised", type(exc).__name__, str(exc))


def test_validation_matches_the_reference_on_altered_systems():
    rng = random.Random(4242)
    systems = [FIXTURE_BUILDERS[name]().system for name in sorted(FIXTURE_BUILDERS)]
    systems += [fx.system for fx in (hub_with_spokes(3, 2), k_origin_line(3), torus_pair(2))]
    rules: set[str] = set()
    for system in systems:
        for _ in range(40):
            altered = alter(system, rng)
            want = issues_outcome(oracle.validate_system, altered)
            assert issues_outcome(validate_system, altered) == want
            rules.update(issue[0] for issue in want[1] if want[0] == "issues")
    # the alterations reach the rules that documents cannot
    assert {"cell-dimension", "dangling-cell", "incidence-sign", "orientation-sign"} <= rules, rules


def break_cocycle(system: AdjunctionSystem, rng: random.Random) -> AdjunctionSystem:
    """A copy of ``system`` with one gluing map dropped, or a few of its
    images moved or deleted: on the region for ``forward``, on the frontier
    for ``closure_forward``."""
    maps = dict(system.maps)
    key = rng.choice(sorted(maps))
    gm = maps[key]
    if rng.random() < 0.1:
        del maps[key]
    else:
        field = rng.choice(["forward", "closure_forward"])
        table = dict(getattr(gm, field))
        cells = sorted(table.keys() - gm.forward.keys()) if field == "closure_forward" else []
        cells = cells or sorted(table)
        targets = sorted(system.pieces[key[1]].dims)
        for cell in rng.sample(cells, min(len(cells), rng.randint(1, 3))):
            if rng.random() < 0.3:
                del table[cell]
            else:
                table[cell] = rng.choice(targets)
        maps[key] = replaced(gm, **{field: table})
    return AdjunctionSystem(system.pieces, system.names, system.regions, maps, system.orientations)


def cocycle_issues(validate, system: AdjunctionSystem) -> list[tuple[str, str, str]]:
    report = ValidationReport()
    validate(system, report)
    return [(i.rule, i.location, i.message) for i in report.issues]


def test_cocycle_check_matches_the_reference_on_broken_cocycles():
    rng = random.Random(1613)
    systems = [FIXTURE_BUILDERS[name]().system for name in sorted(FIXTURE_BUILDERS)]
    systems += [fx.system for fx in (k_origin_line(3), k_origin_line(4), hub_with_spokes(3, 2))]
    rules: dict[str, int] = {}
    for system in systems:
        if system.n() < 3:
            continue
        assert cocycle_issues(_validate_cocycles, system) == cocycle_issues(oracle._validate_cocycles, system)
        for _ in range(40):
            broken = break_cocycle(system, rng)
            want = cocycle_issues(oracle._validate_cocycles, broken)
            assert cocycle_issues(_validate_cocycles, broken) == want
            for rule, _, _ in want:
                rules[rule] = rules.get(rule, 0) + 1
    assert min(rules.get(rule, 0) for rule in ("A3", "A3-domain", "A3-closure", "A3-closure-domain")) >= 10, rules
