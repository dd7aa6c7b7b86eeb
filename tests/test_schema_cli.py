import json
from fractions import Fraction

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

from conftest import FIXTURES_DIR


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


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(schema_version="0"), "schema_version"),
        (lambda d: d["pieces"][0]["cells"].append({"id": "v0", "dim": 0}), "duplicate"),
        (lambda d: d["regions"][0]["cells"].append("nope"), "unknown cell"),
        (lambda d: d["pieces"][0]["cells"][0].update(dim=-1), "non-negative"),
        (lambda d: d["maps"][0].update(pairs=[["v1"]]), "expected [src, dst]"),
    ],
)
def test_parse_errors_name_the_field(mutate, field):
    doc = serialize_fixture(line_two_origins())
    mutate(doc)
    with pytest.raises(SchemaError):
        parse_document(doc)


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
