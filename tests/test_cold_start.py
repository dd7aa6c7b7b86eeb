"""What a cold start of the command line front end loads, and what it prints.

Each case runs in a fresh interpreter, so the modules it finds loaded are the
ones the command itself imported.  A command loads only the modules it runs:
``hausdorff`` needs no cohomology, and ``validate`` on a document with edge
lengths needs ``geometry`` but not the cohomology or linear algebra behind
Gauss-Bonnet.  Neither loads ``dataclasses`` or what it pulls in, such as
``inspect``.  The ``python -m nonhausdorff.cli`` path is replayed against
the golden outputs recorded through ``cli.main``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, child_env
from test_golden import COMMANDS, case_paths

ROOT = Path(__file__).resolve().parent.parent
TORI = str(FIXTURES_DIR / "glued_tori.json")
LINE = str(FIXTURES_DIR / "line_two_origins.json")
COMPUTATION = {"nonhausdorff.cohomology", "nonhausdorff.linalg", "nonhausdorff.cochains", "nonhausdorff.geometry"}
CODE_GENERATION = {"dataclasses", "inspect"}


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=120,
    )


def loaded_after(argv: list[str] | None) -> set[str]:
    """The modules loaded after interpreter start by importing the CLI and,
    if ``argv`` is given, running ``cli.main(argv)`` with its output
    discarded.  What ``site`` loaded before the command does not count."""
    code = textwrap.dedent(
        f"""
        import sys
        started = set(sys.modules)
        import contextlib, io, json
        from nonhausdorff import cli
        argv = {argv!r}
        if argv is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"exit {{code}}")
        print(json.dumps(sorted(set(sys.modules) - started)))
        """
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_importing_the_cli_loads_no_computation_module():
    loaded = loaded_after(None)
    assert "nonhausdorff.cli" in loaded
    assert not loaded & COMPUTATION


def test_cold_hausdorff_loads_no_computation_module():
    loaded = loaded_after(["--json", "hausdorff", TORI])
    assert not loaded & COMPUTATION


def test_cold_validate_with_metrics_loads_geometry_only():
    loaded = loaded_after(["--json", "validate", TORI])
    assert "nonhausdorff.geometry" in loaded
    assert not loaded & {"nonhausdorff.cohomology", "nonhausdorff.linalg"}


@pytest.mark.parametrize(
    "argv",
    [["--json", "hausdorff", TORI], ["--json", "validate", LINE], ["--json", "validate", TORI]],
    ids=["hausdorff-tori", "validate-line", "validate-tori"],
)
def test_cold_commands_generate_no_code(argv):
    assert not loaded_after(argv) & CODE_GENERATION


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_module_entry_point_matches_golden(command):
    paths = {k: str(v) for k, v in case_paths("glued_tori").items()}
    expected = json.loads(Path(paths["expected"]).read_text(encoding="utf-8"))[f"json {command}"]
    argv = ["--json"] + [arg.format(**paths) for arg in COMMANDS[command]]
    result = run_python(["-m", "nonhausdorff.cli", *argv])
    got = {"exit": result.returncode, "stdout": result.stdout, "stderr": result.stderr}
    assert got == expected
