"""Byte-for-byte replay of every CLI command, human and --json output.

The expected outputs under tests/golden/ were recorded from the command line
front end on the shipped fixtures and on generated non-Hausdorff covers (a
4-spoke hub at spacing 4, the same hub at spacing 2 where the
closure-intersection property fails, and the 4-origin line).  Each case has a
top-degree cochain document (for integrate) and one of the degree below (for
stokes-check).  Re-record only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from nonhausdorff import cli
from nonhausdorff.fixtures import FIXTURE_BUILDERS
from nonhausdorff.schema import parse_document, serialize_system

from conftest import FIXTURES_DIR, cochain_document, hub_with_spokes, k_origin_line

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GENERATED = {
    "hub_4_spacing_4": lambda: hub_with_spokes(4, 4),
    "hub_4_spacing_2": lambda: hub_with_spokes(4, 2),
    "origins_4": lambda: k_origin_line(4),
}

CASES = sorted(FIXTURE_BUILDERS) + sorted(GENERATED)

COMMANDS = {
    "validate": ["validate", "{doc}"],
    "hausdorff": ["hausdorff", "{doc}"],
    "betti-dr": ["betti", "--flavor", "dr", "{doc}"],
    "betti-sing": ["betti", "--flavor", "sing", "{doc}"],
    "euler": ["euler", "{doc}"],
    "integrate": ["integrate", "{doc}", "{top}"],
    "stokes-check": ["stokes-check", "{doc}", "{sub}"],
    "mv-report-dr": ["mv-report", "--flavor", "dr", "{doc}"],
    "mv-report-sing": ["mv-report", "--flavor", "sing", "{doc}"],
    "compare": ["compare", "{doc}"],
    "gauss-bonnet": ["gauss-bonnet", "{doc}"],
}

MODES = {"json": ["--json"], "human": []}


def case_paths(case: str) -> dict[str, Path]:
    doc = GOLDEN_DIR / f"{case}.json" if case in GENERATED else FIXTURES_DIR / f"{case}.json"
    return {
        "doc": doc,
        "top": GOLDEN_DIR / f"{case}.top.cochain.json",
        "sub": GOLDEN_DIR / f"{case}.sub.cochain.json",
        "expected": GOLDEN_DIR / f"{case}.expected.json",
    }


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def replay(case: str) -> dict[str, dict]:
    paths = {k: str(v) for k, v in case_paths(case).items()}
    results: dict[str, dict] = {}
    for mode, flags in MODES.items():
        for command, template in COMMANDS.items():
            argv = flags + [arg.format(**paths) for arg in template]
            results[f"{mode} {command}"] = run_cli(argv)
    return results


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        paths = case_paths(case)
        if case in GENERATED:
            fx = GENERATED[case]()
            _write_json(paths["doc"], serialize_system(fx.name, fx.system, fx.cores, fx.metrics))
        system = parse_document(json.loads(paths["doc"].read_text())).system
        top = max(piece.top_dimension for piece in system.pieces)
        rng = random.Random(case)
        _write_json(paths["top"], cochain_document(system, top, rng))
        _write_json(paths["sub"], cochain_document(system, max(top - 1, 0), rng))
        _write_json(paths["expected"], replay(case))
        print(f"recorded {case}")


@pytest.mark.parametrize("case", CASES)
def test_golden_replay(case, monkeypatch):
    monkeypatch.delenv("NH_MAX_TUPLE", raising=False)
    expected = json.loads(case_paths(case)["expected"].read_text(encoding="utf-8"))
    got = replay(case)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], f"{case}: {key}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
