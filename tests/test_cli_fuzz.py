"""Seeded mutation fuzz of the command line: bad input never crashes.

Shipped fixtures and their cochain documents get one JSON node replaced,
renamed or deleted; every command runs on each mutant in-process with
``--json``.  Each run must return an exit code 0-3 with the matching report
status, never an uncaught exception.  Files that are not JSON at all (bad
bytes, over-long numbers, over-deep nesting) take the place of the system
document and of the cochain document in every command that reads them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from nonhausdorff import cli
from nonhausdorff.schema import parse_document

from conftest import BAD_BYTES, FIXTURES_DIR, DocumentMutator, cochain_document

MUTANTS = 250
STATUS = {
    0: {"ok"},
    1: {"validation_failed"},
    2: {"precondition_failed"},
    3: {"parse_error"},
}


def run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", *argv])
    assert code in STATUS, (argv, code)
    assert json.loads(out.getvalue())["status"] in STATUS[code], (argv, out.getvalue())
    return code


def test_mutated_documents_exit_with_a_named_cause(tmp_path):
    rng = random.Random(90210)
    bases = []
    for path in sorted(FIXTURES_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        system = parse_document(doc).system
        top = max(piece.top_dimension for piece in system.pieces)
        cochains = {
            "integrate": cochain_document(system, top, rng),
            "stokes-check": cochain_document(system, max(top - 1, 0), rng),
        }
        bases.append((path, DocumentMutator(doc), {k: DocumentMutator(v) for k, v in cochains.items()}))

    codes: dict[int, int] = {}
    for k in range(MUTANTS):
        path, system_mutator, cochain_mutators = rng.choice(bases)
        flavor = rng.choice(["dr", "sing"])
        mutant = tmp_path / f"system{k}.json"
        if rng.random() < 0.2:
            # a mutated cochain document against the shipped system
            command = rng.choice(sorted(cochain_mutators))
            mutant.write_text(json.dumps(cochain_mutators[command].mutant(rng)))
            forms = [[command, str(path), str(mutant)]]
        else:
            mutant.write_text(json.dumps(system_mutator.mutant(rng)))
            cochains = {}
            for command, mutator in cochain_mutators.items():
                cochains[command] = tmp_path / f"{command}{k}.json"
                cochains[command].write_text(mutator.text)
            forms = [
                ["validate", str(mutant)],
                ["hausdorff", str(mutant)],
                ["betti", "--flavor", flavor, str(mutant)],
                ["euler", str(mutant)],
                ["integrate", str(mutant), str(cochains["integrate"])],
                ["stokes-check", str(mutant), str(cochains["stokes-check"])],
                ["mv-report", "--flavor", flavor, str(mutant)],
                ["compare", str(mutant)],
                ["gauss-bonnet", str(mutant)],
            ]
        for argv in forms:
            code = run(argv)
            codes[code] = codes.get(code, 0) + 1
    # every exit code is reached
    assert set(codes) == set(STATUS), codes

    shipped = str(FIXTURES_DIR / "glued_circles.json")
    for name, payload in sorted(BAD_BYTES.items()):
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(payload)
        for argv in (
            ["validate", str(bad)],
            ["hausdorff", str(bad)],
            ["betti", "--flavor", "dr", str(bad)],
            ["euler", str(bad)],
            ["integrate", str(bad), str(bad)],
            ["integrate", shipped, str(bad)],
            ["stokes-check", str(bad), str(bad)],
            ["stokes-check", shipped, str(bad)],
            ["mv-report", "--flavor", "sing", str(bad)],
            ["compare", str(bad)],
            ["gauss-bonnet", str(bad)],
        ):
            assert run(argv) == 3, argv
