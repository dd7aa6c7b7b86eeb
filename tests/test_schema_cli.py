import json
import os
import subprocess
import sys
from fractions import Fraction
from types import MappingProxyType

import pytest

from nonhausdorff import cli
from nonhausdorff.adjunction import glued_cell_classes, hausdorff_pairs
from nonhausdorff.cochains import Cochain, assemble_global
from nonhausdorff.errors import SchemaError
from nonhausdorff.fixtures import (
    FIXTURE_BUILDERS,
    glued_circles,
    line_two_origins,
    serialize_fixture,
)
from nonhausdorff.schema import (
    parse_cochain_document,
    parse_document,
    serialize_cochain,
    serialize_system,
)

from conftest import BAD_BYTES, FIXTURES_DIR, child_env


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_round_trip_every_fixture():
    for name, builder in FIXTURE_BUILDERS.items():
        fx = builder()
        doc = serialize_fixture(fx)
        loaded = parse_document(doc)
        again = serialize_system(loaded.name, loaded.system, loaded.cores, loaded.metrics)
        assert canonical(doc) == canonical(again), name


def test_round_trip_preserves_semantics():
    fx = line_two_origins()
    loaded = parse_document(serialize_fixture(fx))
    assert glued_cell_classes(loaded.system).classes == glued_cell_classes(fx.system).classes
    assert hausdorff_pairs(loaded.system) == hausdorff_pairs(fx.system)


def test_fixture_files_match_builders():
    for name, builder in FIXTURE_BUILDERS.items():
        path = FIXTURES_DIR / f"{name}.json"
        on_disk = json.loads(path.read_text())
        assert canonical(on_disk) == canonical(serialize_fixture(builder())), name


def _set(path, value):
    """Mutation that sets the node at ``path`` (keys and indices) to ``value``."""

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _delete(path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return mutate


# Every check of parse_document, with the exact message it raises; the
# document is line_two_origins, whose piece P1 lists v-1 v-2 v0 v1 v2 and
# then the edges e-1 e-2 e0 e1 (cells[5..8]).  The five cases with an id
# keep the test ids they had when only the field was checked.
PARSE_ERRORS = [
    (lambda d: d.clear() or None, "schema_version: expected '1', got None"),
    pytest.param(_set(["schema_version"], "0"), "schema_version: expected '1', got '0'", id="<lambda>-schema_version"),
    (_set(["name"], 3), "name: expected a string"),
    (_delete(["pieces"]), "pieces: expected a list"),
    (_set(["pieces"], []), "pieces: need at least one piece"),
    (_set(["pieces", 0], "P1"), "pieces[0]: expected an object"),
    (_set(["pieces", 1, "name"], ""), "pieces[1].name: expected a nonempty string"),
    (_set(["pieces", 1, "name"], "P1"), "pieces[1].name: duplicate piece name 'P1'"),
    (_set(["pieces", 0, "cells"], {}), "pieces[0].cells: expected a list"),
    (_set(["pieces", 0, "cells", 0], 7), "pieces[0].cells[0]: expected an object"),
    (_set(["pieces", 0, "cells", 0], ["v-1", 0]), "pieces[0].cells[0]: expected an object"),
    (_set(["pieces", 0, "cells", 0, "id"], 5), "pieces[0].cells[0].id: expected a nonempty string"),
    pytest.param(
        lambda d: d["pieces"][0]["cells"].append({"id": "v0", "dim": 0}),
        "pieces[0].cells[9].id: duplicate cell id 'v0'",
        id="<lambda>-duplicate",
    ),
    pytest.param(
        _set(["pieces", 0, "cells", 0, "dim"], -1),
        "pieces[0].cells[0].dim: expected a non-negative integer",
        id="<lambda>-non-negative",
    ),
    (_set(["pieces", 0, "cells", 0, "dim"], True), "pieces[0].cells[0].dim: expected a non-negative integer"),
    (_set(["pieces", 0, "cells", 0, "dim"], 1.0), "pieces[0].cells[0].dim: expected a non-negative integer"),
    (_delete(["pieces", 0, "cells", 0, "dim"]), "pieces[0].cells[0].dim: expected a non-negative integer"),
    (_set(["pieces", 0, "cells", 5, "faces"], None), "pieces[0].cells[5].faces: expected an object"),
    (_set(["pieces", 0, "cells", 5, "faces"], [["v0", 1]]), "pieces[0].cells[5].faces: expected an object"),
    (_set(["pieces", 0, "cells", 5, "faces", 3], 1), "pieces[0].cells[5].faces: face ids must be strings"),
    (_set(["pieces", 0, "cells", 5, "faces", "v0"], 0), "pieces[0].cells[5].faces[v0]: sign must be +1 or -1"),
    (_set(["pieces", 0, "cells", 5, "faces", "v0"], "1"), "pieces[0].cells[5].faces[v0]: sign must be +1 or -1"),
    (_set(["regions"], {}), "regions: expected a list"),
    (_set(["regions", 0], None), "regions[0]: expected an object"),
    (_set(["regions", 0, "i"], "Q"), "regions[0].i: unknown piece 'Q'"),
    (_set(["regions", 0, "j"], 2), "regions[0].j: expected a piece name"),
    (_set(["regions", 0, "j"], "P1"), "regions[0]: self-gluing regions are implicit (A1)"),
    (lambda d: d["regions"].append(dict(d["regions"][0])), "regions[1]: duplicate region entry"),
    (_delete(["regions", 0, "cells"]), "regions[0].cells: expected a list"),
    pytest.param(
        lambda d: d["regions"][0]["cells"].append("nope"),
        "regions[0].cells: unknown cell 'nope' in piece 'P1'",
        id="<lambda>-unknown cell",
    ),
    (_set(["regions", 0, "cells", 0], None), "regions[0].cells: expected a cell id"),
    (_set(["maps"], None), "maps: expected a list"),
    (_set(["maps", 0], []), "maps[0]: expected an object"),
    (_delete(["maps", 0, "i"]), "maps[0].i: expected a piece name"),
    (_set(["maps", 0, "j"], "P3"), "maps[0].j: unknown piece 'P3'"),
    (_set(["maps", 0, "i"], "P2"), "maps[0]: self-gluing maps are implicit (A1)"),
    (lambda d: d["maps"].append(dict(d["maps"][0])), "maps[1]: duplicate map entry"),
    (_set(["maps", 0, "pairs"], None), "maps[0].pairs: expected a list"),
    pytest.param(
        _set(["maps", 0, "pairs"], [["v1"]]), "maps[0].pairs[0]: expected [src, dst]", id="<lambda>-expected [src, dst]"
    ),
    (_set(["maps", 0, "pairs", 1], ("e-2", "e-2")), "maps[0].pairs[1]: expected [src, dst]"),
    (_set(["maps", 0, "pairs", 0, 0], "v9"), "maps[0].pairs[0][0]: unknown cell 'v9' in piece 'P1'"),
    (_set(["maps", 0, "pairs", 0, 1], 0), "maps[0].pairs[0][1]: expected a cell id"),
    (_set(["maps", 0, "pairs", 1, 0], "e-1"), "maps[0].pairs[1]: duplicate source cell 'e-1'"),
    (_set(["maps", 0, "closure_pairs"], 5), "maps[0].closure_pairs: expected a list"),
    (_set(["maps", 0, "closure_pairs", 0], ["e-1", "e-1", "e-1"]), "maps[0].closure_pairs[0]: expected [src, dst]"),
    (_set(["maps", 0, "closure_pairs", 2], {"e0": "e0"}), "maps[0].closure_pairs[2]: expected [src, dst]"),
    (_set(["maps", 0, "closure_pairs", 0, 0], "x"), "maps[0].closure_pairs[0][0]: unknown cell 'x' in piece 'P1'"),
    (_set(["maps", 0, "closure_pairs", 0, 1], "x"), "maps[0].closure_pairs[0][1]: unknown cell 'x' in piece 'P2'"),
    (_set(["orientations"], []), "orientations: expected an object"),
    (_delete(["orientations", "P2"]), "orientations: missing orientation for piece 'P2'"),
    (_set(["orientations", "P1"], 1), "orientations[P1]: expected an object"),
    (_set(["orientations", "P1", "e9"], 1), "orientations[P1]: unknown cell 'e9' in piece 'P1'"),
    (_set(["orientations", "P1", "e0"], 2), "orientations[P1][e0]: sign must be +1 or -1"),
    (_set(["orientations", "P2", "e1"], None), "orientations[P2][e1]: sign must be +1 or -1"),
    (_set(["cores"], {}), "cores: expected a list"),
    (_set(["cores", 0], "P1"), "cores[0]: expected an object"),
    (_set(["cores", 0, "pieces"], "P1"), "cores[0].pieces: expected a list"),
    (_set(["cores", 0, "pieces"], ["P1"]), "cores[0].pieces: need at least two pieces"),
    (_set(["cores", 0, "pieces"], ["P1", "Q"]), "cores[0].pieces: unknown piece 'Q'"),
    (_set(["cores", 0, "pieces"], ["P2", "P1"]), "cores[0].pieces: pieces must be distinct and in document order"),
    (_set(["cores", 0, "pieces"], ["P1", "P1"]), "cores[0].pieces: pieces must be distinct and in document order"),
    (_set(["cores", 0, "cells"], None), "cores[0].cells: expected a list"),
    (_set(["cores", 0, "cells", 0], "w"), "cores[0].cells: unknown cell 'w' in piece 'P1'"),
    (_set(["edge_lengths"], "1"), "edge_lengths: expected an object"),
    (_set(["edge_lengths"], {"P1": {}}), "edge_lengths: missing lengths for piece 'P2'"),
    (_set(["edge_lengths"], {"P1": []}), "edge_lengths[P1]: expected an object"),
    (_set(["edge_lengths"], {"P1": {"e7": "1"}}), "edge_lengths[P1]: unknown cell 'e7' in piece 'P1'"),
    (_set(["edge_lengths"], {"P1": {"e0": 1.5}}), "edge_lengths[P1][e0]: lengths are decimal strings"),
    (_set(["edge_lengths"], {"P1": {"e0": "1,5"}}), "edge_lengths[P1][e0]: not a decimal: '1,5'"),
]


@pytest.mark.parametrize("mutate, message", PARSE_ERRORS)
def test_parse_errors_name_the_field(mutate, message):
    doc = serialize_fixture(line_two_origins())
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        parse_document(doc)
    assert str(info.value) == message


def test_root_must_be_an_object():
    with pytest.raises(SchemaError) as info:
        parse_document([])
    assert str(info.value) == "$: expected an object"


def test_parse_accepts_any_mapping():
    # objects need not be dicts: a read-only mapping parses to the same system
    doc = serialize_fixture(line_two_origins())
    frozen = json.loads(json.dumps(doc), object_hook=MappingProxyType)
    again = parse_document(frozen)
    assert canonical(serialize_system(again.name, again.system, again.cores, again.metrics)) == canonical(doc)


COCHAIN_ERRORS = [
    (_set(["schema_version"], 1), "schema_version: expected '1', got 1"),
    (_set(["degree"], -1), "degree: expected a non-negative integer"),
    (_set(["components"], []), "components: expected an object"),
    (_delete(["components", "C2"]), "components: missing component for piece 'C2'"),
    (_set(["components", "C1"], "1"), "components[C1]: expected an object"),
    (_set(["components", "C1", "z"], "1"), "components[C1][z]: unknown cell"),
    (_set(["components", "C1", "w0"], "1"), "components[C1][w0]: cell has dimension 0, document degree is 1"),
    (_set(["components", "C2", "c3"], "x"), "components[C2][c3]: not a rational: 'x'"),
    (_set(["components", "C1", "c0"], "1/0"), "components[C1][c0]: not a rational: '1/0'"),
    (_set(["components", "C1", "c0"], "0.5.1"), "components[C1][c0]: not a rational: '0.5.1'"),
    pytest.param(_set(["degree"], True), "degree: expected a non-negative integer", id="mutate-degree: true"),
    pytest.param(_set(["degree"], False), "degree: expected a non-negative integer", id="mutate-degree: false"),
]


@pytest.mark.parametrize("mutate, message", COCHAIN_ERRORS)
def test_cochain_errors_name_the_field(mutate, message):
    s = glued_circles().system
    doc = {"schema_version": "1", "degree": 1, "components": {"C1": {"c3": "1/2"}, "C2": {"c3": "2"}}}
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        parse_cochain_document(doc, s, s.names)
    assert str(info.value) == message


def test_cochain_values_parse_exactly():
    s = glued_circles().system
    doc = {"schema_version": "1", "degree": 1,
           "components": {"C1": {"c3": "-3/6", "c4": "0", "c5": "0.25"}, "C2": {"c3": 2, "c4": "1e-2"}}}
    w = parse_cochain_document(doc, s, s.names)
    assert dict(w.components[0].values) == {"c3": Fraction(-1, 2), "c5": Fraction(1, 4)}
    assert dict(w.components[1].values) == {"c3": Fraction(2), "c4": Fraction(1, 100)}
    assert all(type(v) is Fraction for comp in w.components for v in comp.values.values())


def test_cochain_document_round_trip():
    fx = glued_circles()
    s = fx.system
    w = assemble_global(
        s,
        [
            Cochain.of(p.whole_set(), 1, {"c0": Fraction(3, 7), "c4": -2})
            for p in s.pieces
        ],
    )
    doc = serialize_cochain(w, s.names)
    back = parse_cochain_document(doc, s, s.names)
    assert back.value(0, "c0") == Fraction(3, 7)
    assert back.value(1, "c4") == -2


def test_cochain_document_rejects_wrong_degree():
    fx = glued_circles()
    s = fx.system
    doc = {"schema_version": "1", "degree": 0, "components": {"C1": {"c0": "1"}, "C2": {}}}
    with pytest.raises(SchemaError):
        parse_cochain_document(doc, s, s.names)


# -- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_betti_line_two_origins(capsys):
    path = str(FIXTURES_DIR / "line_two_origins.json")
    code, out = run_cli(capsys, "--json", "betti", "--flavor", "dr", path)
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [1, 0]
    code, out = run_cli(capsys, "--json", "betti", "--flavor", "sing", path)
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [1, 1]


def test_cli_is_deterministic(capsys):
    path = str(FIXTURES_DIR / "glued_icosahedra.json")
    outputs = set()
    for _ in range(2):
        code, out = run_cli(capsys, "--json", "gauss-bonnet", path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_cli_validate_broken_cocycle_exits_1(capsys):
    code, out = run_cli(capsys, "--json", "validate", str(FIXTURES_DIR / "broken_cocycle.json"))
    assert code == 1
    payload = json.loads(out)["payload"]
    assert not payload["valid"]
    assert any(issue["rule"] == "A3" for issue in payload["issues"])


def test_cli_validate_dangling_face_exits_1(capsys):
    code, out = run_cli(capsys, "--json", "validate", str(FIXTURES_DIR / "dangling_face.json"))
    assert code == 1
    payload = json.loads(out)["payload"]
    assert any(issue["rule"] == "dangling-face" for issue in payload["issues"])


def test_cli_precondition_failure_exits_2(capsys):
    code, _ = run_cli(
        capsys, "betti", "--flavor", "dr", str(FIXTURES_DIR / "closure_violation.json")
    )
    assert code == 2
    captured_err = capsys.readouterr()
    del captured_err


def test_cli_missing_file_exits_3(capsys):
    code, _ = run_cli(capsys, "validate", str(FIXTURES_DIR / "no_such_file.json"))
    assert code == 3


def test_cli_malformed_json_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "validate", str(bad))
    assert code == 3


def cli_slot(slot: str, path: str) -> list[str]:
    """A command that reads ``path`` as its system or as its cochain document."""
    if slot == "system":
        return ["validate", path]
    return ["integrate", str(FIXTURES_DIR / "glued_circles.json"), path]


@pytest.mark.parametrize("slot", ["system", "cochain"])
@pytest.mark.parametrize("payload", sorted(BAD_BYTES))
def test_cli_unreadable_bytes_exit_3_naming_the_file(capsys, tmp_path, payload, slot):
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_BYTES[payload])
    code, out = run_cli(capsys, "--json", *cli_slot(slot, str(bad)))
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "parse_error"
    assert report["diagnostics"][0].startswith(f"{bad}: ")


@pytest.mark.parametrize("argv", [["--json", "validate"], ["validate"]], ids=["json", "human"])
def test_cli_closed_stdout_exits_3_quietly(argv):
    # the read end is closed before the child starts, so its first write
    # always meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "nonhausdorff.cli", *argv, str(FIXTURES_DIR / "glued_tori.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (3, "")


@pytest.mark.parametrize("slot", ["system", "cochain"])
@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "malformed"])
def test_cli_reports_both_documents_alike(capsys, tmp_path, text, slot):
    bad = tmp_path / "bad.json"
    if text is not None:
        bad.write_text(text)
    argv = cli_slot(slot, str(bad))
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    if text is None:
        assert err.startswith(f"{argv[0]}: parse_error: cannot read {bad}: [Errno 2]")
    else:
        message = "line 1 column 2: Expecting property name enclosed in double quotes"
        assert err == f"{argv[0]}: parse_error: {bad}: {message}\n"


def test_cli_euler_and_hausdorff(capsys):
    path = str(FIXTURES_DIR / "line_two_origins.json")
    code, out = run_cli(capsys, "--json", "euler", path)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["inclusion_exclusion"] == 0
    assert payload["match"] is True
    code, out = run_cli(capsys, "--json", "hausdorff", path)
    payload = json.loads(out)["payload"]
    assert payload["pairs"] == [{"left": ["P1", "v0"], "right": ["P2", "v0"]}]
    assert payload["class_count"] == 10


def test_cli_integrate_and_stokes(capsys, tmp_path):
    fx = glued_circles()
    s = fx.system
    w = assemble_global(s, [Cochain.of(p.whole_set(), 0, {"w0": 1}) for p in s.pieces])
    cochain_path = tmp_path / "w.json"
    cochain_path.write_text(json.dumps(serialize_cochain(w, s.names)))
    system_path = str(FIXTURES_DIR / "glued_circles.json")
    code, out = run_cli(capsys, "--json", "stokes-check", system_path, str(cochain_path))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["equal"] is True
    assert payload["integral_of_dw"] == payload["minus_frontier_integral"]

    top = assemble_global(
        s, [Cochain.of(p.whole_set(), 1, {"c0": Fraction(1, 3)}) for p in s.pieces]
    )
    top_path = tmp_path / "top.json"
    top_path.write_text(json.dumps(serialize_cochain(top, s.names)))
    code, out = run_cli(capsys, "--json", "integrate", system_path, str(top_path))
    assert code == 0
    assert json.loads(out)["payload"]["integral"] == "1/3"


def test_cli_incompatible_cochain_exits_1(capsys, tmp_path):
    doc = {
        "schema_version": "1",
        "degree": 0,
        "components": {"C1": {"w0": "1"}, "C2": {"w0": "2"}},
    }
    cochain_path = tmp_path / "bad.json"
    cochain_path.write_text(json.dumps(doc))
    code, _ = run_cli(
        capsys, "stokes-check", str(FIXTURES_DIR / "glued_circles.json"), str(cochain_path)
    )
    assert code == 1


def test_cli_mv_report_and_compare(capsys):
    path = str(FIXTURES_DIR / "line_two_origins.json")
    code, out = run_cli(capsys, "--json", "mv-report", "--flavor", "dr", path)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["alternating_sum"] == 0
    row0 = payload["rows"][0]
    assert (row0["h_glued"], row0["h_pieces"], row0["h_domain"]) == (1, 2, 1)
    code, out = run_cli(capsys, "--json", "compare", path)
    assert json.loads(out)["payload"]["verdict"] == "UNEQUAL"
    code, out = run_cli(capsys, "--json", "compare", str(FIXTURES_DIR / "variant_n.json"))
    assert json.loads(out)["payload"]["verdict"] == "EQUAL"


def test_cli_answers_ignore_nh_max_tuple(capsys, monkeypatch):
    # the variable once capped the intersection arity and silently changed
    # the answers; no setting of the environment may do that
    monkeypatch.setenv("NH_MAX_TUPLE", "2")
    path = str(FIXTURES_DIR / "line_three_origins.json")
    code, out = run_cli(capsys, "--json", "betti", "--flavor", "dr", path)
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [1, 0]
    code, out = run_cli(capsys, "--json", "euler", path)
    assert code == 0
    assert json.loads(out)["payload"]["inclusion_exclusion"] == -1
    code, out = run_cli(capsys, "--json", "validate", path)
    assert code == 0
    assert json.loads(out)["payload"]["closure_intersection"]["(P1,P2,P3)"] is True


def test_cli_quiet_suppresses_human_output(capsys):
    path = str(FIXTURES_DIR / "line_two_origins.json")
    code = cli.main(["--quiet", "betti", "--flavor", "dr", path])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""


def test_cli_validate_broken_inverse_exits_1(capsys):
    code, out = run_cli(capsys, "--json", "validate", str(FIXTURES_DIR / "broken_inverse.json"))
    assert code == 1
    assert any(issue["rule"] == "A2" for issue in json.loads(out)["payload"]["issues"])


EXIT_MATRIX = {
    # fixture: (validate, betti-dr, betti-sing, euler, compare, gauss-bonnet)
    "line_two_origins": (0, 0, 0, 0, 0, 2),
    "variant_n": (0, 0, 0, 0, 0, 2),
    "glued_icosahedra": (0, 0, 0, 0, 0, 0),
    "glued_tori": (0, 0, 0, 0, 0, 0),
    "closure_violation": (0, 2, 0, 0, 0, 2),
    "two_squares": (0, 0, 2, 2, 2, 2),
    "broken_cocycle": (1, 1, 1, 1, 1, 1),
    "dangling_face": (1, 1, 1, 1, 1, 1),
}


@pytest.mark.parametrize("fixture", sorted(EXIT_MATRIX))
def test_cli_exit_code_matrix(capsys, fixture):
    path = str(FIXTURES_DIR / f"{fixture}.json")
    want = EXIT_MATRIX[fixture]
    got = []
    for argv in (
        ["validate", path],
        ["betti", "--flavor", "dr", path],
        ["betti", "--flavor", "sing", path],
        ["euler", path],
        ["compare", path],
        ["gauss-bonnet", path],
    ):
        got.append(cli.main(["--quiet", *argv]))
        capsys.readouterr()
    assert tuple(got) == want
