"""The repository benchmark: generated workloads, per-command timings, answer checks.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tori --seed 1 --seconds 20 --trace 0

The load is a closed loop in one single-threaded process: a pass runs every
operation of the workload in order, each starting only when the previous one
returned, and passes repeat until ``--seconds`` have elapsed.  Commands run
in-process through ``cli.main(["--json", ...])`` on documents written during
set-up, so reading, parsing and printing the JSON are timed as users pay
them.  Cold starts run ``python -m nonhausdorff.cli`` in a subprocess with
``PYTHONPATH=src``, one at a time.  Every answer is checked against values
fixed here or computed independently; a wrong answer, an unexpected exit
code or an exception counts as a failed operation.

Each timing is rescaled to a fixed machine speed by the sampler in
``speed.py``, because the speed of a shared machine drifts far more than a
library change moves a command; the report also gives the raw wall seconds.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, each the
median over passes of its per-pass sum.  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics (``tracing.py``), with the
spans written to ``.perfbench/``.  The last line of standard output is the
JSON result; the lines before it are a report with sample counts,
percentiles, the Python version, ``nproc``, the seed and the workload's
rationale.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from speed import REFERENCE_S, SAMPLE_EVERY_S, SpeedSampler
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
COLD_STARTS_PER_PASS = 8
GB_TOLERANCE = 1e-9

Check = Callable[[Any], "str | None"]


# -- operations -------------------------------------------------------------------


@dataclass(eq=False)
class Op:
    """One timed operation: an in-process CLI call, a cold CLI start or a library call.

    An operation runs ``repeat`` times in a row per pass and counts its mean.

    ``check`` receives ``(exit code, JSON report)`` for CLI operations and
    the return value for library calls, and returns a failure message or None.
    """

    metric: str
    label: str
    check: Check
    argv: list[str] | None = None
    cold: bool = False
    call: Callable[[], Any] | None = None
    doc_bytes: int = 0
    repeat: int = 1


def _trim(values: list[int]) -> list[int]:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return out


def expect_exit(code: int, status: str) -> Check:
    def check(result: tuple[int, dict]) -> str | None:
        got, report = result
        if got != code or report.get("status") != status:
            return f"want exit {code} ({status}), got {got} ({report.get('status')})"
        return None

    return check


def expect_ok(payload_check: Callable[[dict], str | None]) -> Check:
    def check(result: tuple[int, dict]) -> str | None:
        got, report = result
        if got != 0:
            return f"want exit 0, got {got}: {report.get('diagnostics')}"
        return payload_check(report["payload"])

    return check


def _differs(what: str, got: Any, want: Any) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def check_validate(with_metric: bool) -> Check:
    def payload_check(p: dict) -> str | None:
        if p.get("valid") is not True:
            return f"invalid: {p.get('issues')}"
        if not all(p["closure_intersection"].values()):
            return "closure-intersection property reported as failing"
        if with_metric and p.get("metric_valid") is not True:
            return "metric reported invalid"
        return None

    return expect_ok(payload_check)


def check_hausdorff(pairs: int, classes: int) -> Check:
    return expect_ok(
        lambda p: _differs("pairs", len(p["pairs"]), pairs) or _differs("classes", p["class_count"], classes)
    )


def check_betti(betti: list[int]) -> Check:
    return expect_ok(lambda p: _differs("betti", _trim(p["betti"]), betti))


def check_euler(chi: int) -> Check:
    return expect_ok(
        lambda p: _differs("chi", p["inclusion_exclusion"], chi) or _differs("match", p["match"], True)
    )


def check_compare(dr: list[int], sing: list[int]) -> Check:
    verdict = "EQUAL" if dr == sing else "UNEQUAL"
    return expect_ok(
        lambda p: _differs("dr", _trim(p["de_rham"]), dr)
        or _differs("sing", _trim(p["singular"]), sing)
        or _differs("verdict", p["verdict"], verdict)
    )


def check_mv(betti: list[int]) -> Check:
    def payload_check(p: dict) -> str | None:
        glued = _trim([row["h_glued"] for row in p["rows"]])
        return (
            _differs("alternating sum", p["alternating_sum"], 0)
            or _differs("exact", p["exact"], True)
            or _differs("h_glued", glued, betti)
        )

    return expect_ok(payload_check)


def check_integral(value: Fraction) -> Check:
    return expect_ok(lambda p: _differs("integral", Fraction(p["integral"]), value))


def check_stokes() -> Check:
    return expect_ok(
        lambda p: _differs("equal", p["equal"], True)
        or _differs("sides", Fraction(p["integral_of_dw"]), Fraction(p["minus_frontier_integral"]))
    )


def check_gauss_bonnet(chi: int) -> Check:
    def payload_check(p: dict) -> str | None:
        if abs(p["residual"]) > GB_TOLERANCE:
            return f"residual {p['residual']} exceeds {GB_TOLERANCE}"
        return _differs("chi", p["chi"], chi)

    return expect_ok(payload_check)


def check_fibre(betti: list[int]) -> Check:
    def check(result: tuple[list[int], Any]) -> str | None:
        fibre, rows = result
        if not (rows.precondition_ok and rows.all_exact):
            return "rows not exact under the closure-intersection property"
        return _differs("fibre betti", _trim(fibre), betti)

    return check


PRECONDITION = expect_exit(2, "precondition_failed")
INVALID = expect_exit(1, "validation_failed")


# -- workloads ----------------------------------------------------------------------


@dataclass(eq=False)
class Doc:
    """A system document written during set-up, with its cochain documents."""

    gen: Any
    path: str
    top_path: str
    low_path: str
    top_cochain: dict
    size: int


@dataclass(eq=False)
class Workload:
    """What a set-up produced: documents on disk, the plan of operations."""

    docs: list[Doc] = field(default_factory=list)
    fibre: Any = None
    ops: list[Op] = field(default_factory=list)


def _dump(doc: dict) -> str:
    """JSON in the layout of the shipped fixtures."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_doc(gen: Any, path: Path, text: str, workdir: Path, rng: random.Random) -> Doc:
    """A system document at ``path`` with two compatible cochains written next to it."""
    from workloads import compatible_cochain

    top = gen.system.pieces[0].top_dimension
    top_cochain = compatible_cochain(gen.system, top, rng)
    low_cochain = compatible_cochain(gen.system, top - 1, rng)
    top_path = workdir / f"{gen.name}.top.json"
    low_path = workdir / f"{gen.name}.low.json"
    top_path.write_text(_dump(top_cochain), encoding="utf-8")
    low_path.write_text(_dump(low_cochain), encoding="utf-8")
    return Doc(gen, str(path), str(top_path), str(low_path), top_cochain, len(text))


def generate_doc(gen: Any, workdir: Path, rng: random.Random) -> Doc:
    """Serialize a generated system and write it with its cochains."""
    path = workdir / f"{gen.name}.json"
    text = _dump(gen.document())
    path.write_text(text, encoding="utf-8")
    return write_doc(gen, path, text, workdir, rng)


def command_ops(doc: Doc, expect: dict[str, Check]) -> list[Op]:
    """In-process CLI operations on one document, one per command in ``expect``."""
    argv = {
        "validate": (["validate", doc.path], "validate_s"),
        "hausdorff": (["hausdorff", doc.path], "hausdorff_s"),
        "betti dr": (["betti", "--flavor", "dr", doc.path], "betti_dr_s"),
        "betti sing": (["betti", "--flavor", "sing", doc.path], "betti_sing_s"),
        "euler": (["euler", doc.path], "euler_s"),
        "compare": (["compare", doc.path], "compare_s"),
        "mv-report dr": (["mv-report", "--flavor", "dr", doc.path], "mv_report_s"),
        "mv-report sing": (["mv-report", "--flavor", "sing", doc.path], "mv_report_s"),
        "integrate": (["integrate", doc.path, doc.top_path], "integrate_s"),
        "stokes-check": (["stokes-check", doc.path, doc.low_path], "stokes_s"),
        "gauss-bonnet": (["gauss-bonnet", doc.path], "gauss_bonnet_s"),
    }
    ops = []
    for command, check in expect.items():
        args, metric = argv[command]
        size = doc.size
        if command in ("integrate", "stokes-check"):
            size += os.path.getsize(args[-1])
        ops.append(Op(metric, f"{command} {doc.gen.name}", check, argv=args, doc_bytes=size))
    return ops


def cold_ops(argvs: list[tuple[list[str], Check]]) -> list[Op]:
    return [Op("cold_cli_s", "cold " + " ".join(Path(a).stem for a in argv), check, argv=argv, cold=True)
            for argv, check in argvs]


def fibre_op(gen: Any, betti: list[int]) -> Op:
    from nonhausdorff.cohomology import global_complex_betti, row_exactness_check

    def call() -> tuple[list[int], Any]:
        return global_complex_betti(gen.system), row_exactness_check(gen.system)

    return Op("fibre_betti_s", f"fibre {gen.name}", check_fibre(betti), call=call)


def surface_expect(doc: Doc, betti: list[int], chi: int, pairs: int, classes: int) -> dict[str, Check]:
    """Every command on a closed surface gluing; Gauss-Bonnet needs edge lengths."""
    from workloads import class_sum_integral

    has_metric = doc.gen.metrics is not None
    return {
        "validate": check_validate(has_metric),
        "hausdorff": check_hausdorff(pairs, classes),
        "betti dr": check_betti(betti),
        "betti sing": check_betti(betti),
        "euler": check_euler(chi),
        "compare": check_compare(betti, betti),
        "mv-report dr": check_mv(betti),
        "mv-report sing": check_mv(betti),
        "integrate": check_integral(class_sum_integral(doc.gen.system, doc.top_cochain)),
        "stokes-check": check_stokes(),
        "gauss-bonnet": check_gauss_bonnet(chi) if has_metric else PRECONDITION,
    }


def cover_expect(doc: Doc, dr: list[int], sing: list[int], chi: int, pairs: int, classes: int) -> dict[str, Check]:
    """Every command on a many-piece cover of paths.  The binary-only commands
    (mv-report, stokes-check) and gauss-bonnet (no edge lengths) must stop at
    their documented precondition exit."""
    from workloads import class_sum_integral

    return {
        "validate": check_validate(False),
        "hausdorff": check_hausdorff(pairs, classes),
        "betti dr": check_betti(dr),
        "betti sing": check_betti(sing),
        "euler": check_euler(chi),
        "compare": check_compare(dr, sing),
        "mv-report dr": PRECONDITION,
        "mv-report sing": PRECONDITION,
        "integrate": check_integral(class_sum_integral(doc.gen.system, doc.top_cochain)),
        "stokes-check": PRECONDITION,
        "gauss-bonnet": PRECONDITION,
    }


TORI_N = 12
TORI_FIBRE_N = 6
ICOSAHEDRA_ROUNDS = 3
SPOKES = (12, 13)
ORIGINS = 8


def setup_tori(workdir: Path, rng: random.Random) -> Workload:
    from workloads import subdivided_icosahedra, torus_pair

    return Workload(
        docs=[
            generate_doc(torus_pair(TORI_N), workdir, rng),
            generate_doc(subdivided_icosahedra(ICOSAHEDRA_ROUNDS), workdir, rng),
        ],
        fibre=torus_pair(TORI_FIBRE_N),
    )


def tori_ops(doc: Doc, n: int) -> list[Op]:
    # the annulus frontier is two circles of n vertices and n edges; the band
    # has 10 cells per column and each piece 6n(n+1) cells
    return command_ops(doc, surface_expect(doc, [1, 3, 2], 0, 4 * n, 2 * 6 * n * (n + 1) - 10 * n))


def icosahedra_ops(doc: Doc, rounds: int) -> list[Op]:
    # r rounds split each of the 30 edges into 2^r edges and 2^r - 1
    # midpoints; the open apex star has 1 vertex, 5 triangles and 5 split
    # edges, its frontier 5 vertices and 5 split edges
    split = 2 ** (rounds + 1) - 1
    cells = 12 + 30 * split + 20
    star = 1 + 5 + 5 * split
    return command_ops(doc, surface_expect(doc, [1, 0, 2], 3, 5 + 5 * split, 2 * cells - star))


def hub_ops(doc: Doc, k: int) -> list[Op]:
    # the hub v-1..v4k has 8k+3 cells, each spoke 7 of which 3 are
    # identified; each region frontier is two vertices
    return command_ops(doc, cover_expect(doc, [1], [1], 1, 2 * k, 8 * k + 3 + 4 * k))


def origins_ops(doc: Doc, k: int) -> list[Op]:
    # every pair shares the frontier vertex v0; the other 8 cells of a piece
    # form one class each and every origin stays its own class
    return command_ops(doc, cover_expect(doc, [1], [1, k - 1], 2 - k, k * (k - 1) // 2, 8 + k))


def cold_hausdorff(docs: list[Doc]) -> list[Op]:
    """Cold starts of ``hausdorff`` cycling over ``docs``."""
    chosen = [docs[i % len(docs)] for i in range(COLD_STARTS_PER_PASS)]
    return cold_ops([(["hausdorff", doc.path], expect_ok(lambda p: None)) for doc in chosen])


# Commands that take only tens of milliseconds on a workload run this many
# times in a row per pass and count their mean, so that a single scheduler
# hiccup does not dominate their per-pass time.
CHEAP_REPEAT = 8


def repeat_cheap(ops: list[Op], metrics: set[str]) -> None:
    for op in ops:
        if op.metric in metrics and not op.cold:
            op.repeat = CHEAP_REPEAT


def plan_tori(w: Workload) -> None:
    tori, ico = w.docs
    w.ops += tori_ops(tori, TORI_N) + icosahedra_ops(ico, ICOSAHEDRA_ROUNDS)
    w.ops.append(fibre_op(w.fibre, [1, 3, 2]))
    w.ops += cold_hausdorff(w.docs)
    repeat_cheap(w.ops, {"validate_s", "hausdorff_s", "integrate_s", "stokes_s", "gauss_bonnet_s"})


def setup_sparse(workdir: Path, rng: random.Random) -> Workload:
    from workloads import hub_with_spokes

    return Workload(docs=[generate_doc(hub_with_spokes(k), workdir, rng) for k in SPOKES])


def plan_sparse(w: Workload) -> None:
    for doc, k in zip(w.docs, SPOKES):
        w.ops += hub_ops(doc, k)
    w.ops.append(fibre_op(w.docs[0].gen, [1]))
    w.ops += cold_hausdorff(w.docs)
    repeat_cheap(w.ops, {"hausdorff_s", "mv_report_s", "stokes_s", "gauss_bonnet_s"})


def setup_dense(workdir: Path, rng: random.Random) -> Workload:
    from workloads import k_origin_lines

    return Workload(docs=[generate_doc(k_origin_lines(ORIGINS), workdir, rng)])


def plan_dense(w: Workload) -> None:
    w.ops += origins_ops(w.docs[0], ORIGINS)
    w.ops.append(fibre_op(w.docs[0].gen, [1]))
    w.ops += cold_hausdorff(w.docs)
    repeat_cheap(
        w.ops, {"validate_s", "hausdorff_s", "mv_report_s", "integrate_s", "stokes_s", "gauss_bonnet_s"}
    )


# Shipped fixtures: exit codes of (validate, hausdorff, betti dr, betti sing,
# euler, compare, mv-report dr, mv-report sing, integrate, stokes-check,
# gauss-bonnet), then the dr and sing Betti numbers that compare reports, and
# chi.  Exit codes and values follow the README and the acceptance suite: 1 on
# the broken fixtures, 2 where a precondition fails (closure-intersection, a
# missing core, a non-binary system, pieces that are not closed, no edge
# lengths).
FIXTURE_COMMANDS = (
    "validate", "hausdorff", "betti dr", "betti sing", "euler", "compare",
    "mv-report dr", "mv-report sing", "integrate", "stokes-check", "gauss-bonnet",
)
FIXTURES: dict[str, tuple[tuple[int, ...], list[int], list[int], int]] = {
    "branched_line": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2), [1], [1], 1),
    "broken_cocycle": ((1,) * 11, [], [], 0),
    "broken_inverse": ((1,) * 11, [], [], 0),
    "closure_violation": ((0, 0, 2, 0, 0, 0, 2, 2, 0, 2, 2), [1], [1], 1),
    "dangling_face": ((1,) * 11, [], [], 0),
    "glued_circles": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2), [1, 2], [1, 2], -1),
    "glued_circles_clopen": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2), [1, 1], [1, 1], 0),
    "glued_icosahedra": ((0,) * 11, [1, 0, 2], [1, 0, 2], 3),
    "glued_tori": ((0,) * 11, [1, 3, 2], [1, 3, 2], 0),
    "line_three_origins": ((0, 0, 0, 0, 0, 0, 2, 2, 0, 2, 2), [1], [1, 2], -1),
    "line_three_origins_mixed": ((0, 0, 0, 0, 0, 0, 2, 2, 0, 2, 2), [1], [1, 2], -1),
    "line_two_origins": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2), [1], [1, 1], 0),
    "two_squares": ((0, 0, 0, 2, 2, 2, 0, 2, 0, 2, 2), [1], [], 0),
    "variant_n": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2), [1, 1], [1, 1], 0),
}


def setup_fixtures(workdir: Path, rng: random.Random) -> Workload:
    from nonhausdorff.schema import parse_document
    from workloads import Generated

    docs = []
    for name in sorted(FIXTURES):
        path = ROOT / "fixtures" / f"{name}.json"
        text = path.read_text(encoding="utf-8")
        gen = Generated(name, parse_document(json.loads(text)).system)
        docs.append(write_doc(gen, path, text, workdir, rng))
    return Workload(docs=docs)


def plan_fixtures(w: Workload) -> None:
    from workloads import class_sum_integral

    cold = []
    for doc in w.docs:
        codes, dr, sing, chi = FIXTURES[doc.gen.name]
        success = {
            "validate": expect_ok(lambda p: _differs("valid", p["valid"], True)),
            "hausdorff": expect_ok(lambda p: None),
            "betti dr": check_betti(dr),
            "betti sing": check_betti(sing),
            "euler": check_euler(chi),
            "compare": check_compare(dr, sing),
            "mv-report dr": check_mv(dr),
            "mv-report sing": check_mv(sing),
            "stokes-check": check_stokes(),
            "gauss-bonnet": check_gauss_bonnet(chi),
        }
        expect: dict[str, Check] = {}
        for command, code in zip(FIXTURE_COMMANDS, codes):
            if code == 1:
                expect[command] = INVALID
            elif code == 2:
                expect[command] = PRECONDITION
            elif command == "integrate":
                expect[command] = check_integral(class_sum_integral(doc.gen.system, doc.top_cochain))
            else:
                expect[command] = success[command]
        w.ops += command_ops(doc, expect)
        if codes[0] == 0 and codes[2] == 0:
            # the fibre product equals dr wherever the closure-intersection property holds
            w.ops.append(fibre_op(doc.gen, dr))
        cold.append((["validate", doc.path], INVALID if codes[0] == 1 else expect_ok(lambda p: None)))
    w.ops += cold_ops(cold)


WORKLOADS = {
    "tori": (setup_tori, plan_tori),
    "sparse_cover": (setup_sparse, plan_sparse),
    "dense_cover": (setup_dense, plan_dense),
    "fixtures": (setup_fixtures, plan_fixtures),
}


# -- running ------------------------------------------------------------------------


def cold_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "NH_MAX_TUPLE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def execute(op: Op, cli: Any) -> tuple[float, float, str | None]:
    """Run one operation; return its start and end times and a failure message or None."""
    start = end = time.perf_counter()
    try:
        if op.call is not None:
            start = time.perf_counter()
            value = op.call()
            end = time.perf_counter()
            return start, end, op.check(value)
        if op.cold:
            # the child inherits this process's CPU, so the sampler, which
            # keeps ticking in this process, times the CPU the child runs on
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "nonhausdorff.cli", "--json", *op.argv],
                cwd=ROOT, env=cold_env(), capture_output=True, text=True, timeout=120,
            )
            end = time.perf_counter()
            code, out = proc.returncode, proc.stdout
        else:
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["--json", *op.argv])
            end = time.perf_counter()
            out = buffer.getvalue()
        return start, end, op.check((code, json.loads(out)))
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a crashed benchmark
        return start, max(end, start), f"raised {type(exc).__name__}: {exc}"


def highest_percentile(samples: list[float]) -> dict[str, float] | None:
    """The highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"percentile": round(100.0 * (k + 1) / n, 2), "value": sorted(samples)[k]}


def summarize(samples: list[float]) -> dict[str, Any]:
    return {
        "median": statistics.median(samples) if samples else None,
        "high": highest_percentile(samples),
        "samples": len(samples),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nonhausdorff" / "cli.py").is_file():
        print(f"no library sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    removed = os.environ.pop("NH_MAX_TUPLE", None)
    # one CPU for the run and its cold starts, so that the reference loop
    # times the same CPU as the work it rescales
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import nonhausdorff.cli as cli
    import workloads  # noqa: F401  (so that set-up times no first import)

    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "nonhausdorff":
        print(f"imported the library from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    sampler = SpeedSampler()
    sampler.start()
    try:
        return run(args, spec, cli, import_s, workdir, removed, sampler)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def cold_imports() -> list[tuple[float, float, float]]:
    """Import nonhausdorff.cli in fresh interpreters, one at a time; per import
    the parent's start and end times and the import time the child measured."""
    code = "import time; t = time.perf_counter(); import nonhausdorff.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cold_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        out.append((start, time.perf_counter(), float(proc.stdout)))
    return out


def run(
    args: argparse.Namespace, spec: dict, cli: Any, in_process_import_s: float, workdir: Path,
    removed: str | None, sampler: SpeedSampler,
) -> int:
    setup, plan = WORKLOADS[args.workload]
    imports = cold_imports()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = setup(workdir, random.Random(args.seed))
        setup_spans.append((start, time.perf_counter()))
    setup_trace = None
    if args.trace:
        setup_trace = Tracer()
        setup_trace.install()
        try:
            workload = setup(workdir, random.Random(args.seed))
        finally:
            setup_trace.uninstall()
    plan(workload)
    # the benchmark's own long-lived objects (generated systems, documents)
    # would otherwise be rescanned by every full collection inside the
    # measured calls, a cost a CLI user does not pay
    gc.freeze()

    tracer = Tracer()
    passes: list[tuple[bool, list[tuple[str, float, float, int]]]] = []
    failures: list[str] = []
    attempted = 0
    doc_bytes = 0
    run_start = time.perf_counter()
    while len(passes) < 1 + args.trace or time.perf_counter() - run_start < args.seconds:
        traced = args.trace == 1 and len(passes) % 2 == 1
        if traced:
            tracer.install()
        spans = []
        for op in workload.ops:
            for _ in range(op.repeat):
                tracer.op_id += 1
                start, end, failure = execute(op, cli)
                spans.append((op.metric, start, end, op.repeat))
                attempted += 1
                if failure is not None:
                    failures.append(f"{op.label}: {failure}")
                if traced and op.argv is not None and not op.cold:
                    doc_bytes += op.doc_bytes
        if traced:
            tracer.uninstall()
        passes.append((traced, spans))
    time.sleep(3 * SAMPLE_EVERY_S)  # one more speed sample after the last span
    sampler.stop()

    per_pass: dict[str, list[float]] = {}
    per_pass_raw: dict[str, list[float]] = {}
    per_call: dict[str, list[float]] = {}
    traced_scaled: list[float] = []
    traced_raw: list[float] = []
    for traced, spans in passes:
        scaled: dict[str, float] = {}
        raw: dict[str, float] = {}
        for metric, start, end, repeat in spans:
            seconds = sampler.scaled(start, end)
            scaled[metric] = scaled.get(metric, 0.0) + seconds / repeat
            raw[metric] = raw.get(metric, 0.0) + sampler.raw(start, end) / repeat
            per_call.setdefault(metric, []).append(seconds)
        scaled["workload_s"] = sum(scaled.values())
        raw["workload_s"] = sum(raw.values())
        if traced:
            traced_scaled.append(scaled["workload_s"])
            traced_raw.append(raw["workload_s"])
            continue
        for metric in scaled:
            per_pass.setdefault(metric, []).append(scaled[metric])
            per_pass_raw.setdefault(metric, []).append(raw[metric])

    first = sampler.starts[0]
    # set-up = importing the CLI in a fresh interpreter (median of
    # IMPORT_REPEATS) + generating and writing the documents (median of
    # SETUP_REPEATS); the child's own import time is rescaled by the speed
    # measured while it ran
    import_raw = statistics.median(seconds for _, _, seconds in imports)
    import_scaled = statistics.median(
        seconds * sampler.scaled(start, end) / sampler.raw(start, end) for start, end, seconds in imports
    )
    setup_runs = [sampler.scaled(start, end) for start, end in setup_spans]
    setup_s = import_scaled + statistics.median(setup_runs)
    if args.trace:
        values = layer_metrics(
            tracer, setup_trace, traced_raw, traced_scaled, per_pass["workload_s"], doc_bytes, import_raw
        )
        tracer.write_spans(str(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"))
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(samples) for name, samples in per_pass.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    wall = time.perf_counter() - first
    report = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "NH_MAX_TUPLE": f"removed (was {removed!r})" if removed is not None else "unset",
        "load": "closed loop, one single-threaded process; cold CLI starts one at a time",
        "time_scale": f"seconds at {REFERENCE_S} s per reference slice; *_raw are wall seconds",
        "reference_slice_s": summarize(sampler.durations),
        "sampler_share": sum(sampler.durations) / wall,
        "passes": len(passes),
        "traced_passes": len(traced_scaled),
        "setup_s": {
            "cold_import": import_scaled, "cold_import_raw": import_raw,
            "in_process_import_raw": in_process_import_s, "runs": setup_runs,
        },
        "failed_share": len(failures) / attempted,
        "per_pass": {name: dict(summarize(v), values=v) for name, v in sorted(per_pass.items())},
        "per_pass_raw": {name: summarize(v) for name, v in sorted(per_pass_raw.items())},
        "per_call": {name: summarize(v) for name, v in sorted(per_call.items())},
    }
    print(json.dumps(report, indent=1))
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


def layer_metrics(
    tracer: Tracer, setup_trace: Tracer, traced_raw: list[float], traced_scaled: list[float],
    untraced_scaled: list[float], doc_bytes: int, import_s: float,
) -> dict[str, float]:
    """Per-layer metrics, each per traced pass, in wall seconds; shares are of
    the traced passes' wall time, and the tracing overhead compares the scaled
    work time of traced and untraced passes."""
    n = len(traced_raw)
    wall = sum(traced_raw)

    def total(name: str) -> float:
        return tracer.total_s.get(name, 0.0) / n

    def calls(name: str) -> float:
        return tracer.calls.get(name, 0) / n

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0) / n

    visited = counter("adjunction.tuples_visited")
    out = {
        "linalg.rank_s": total("linalg.rank"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.rank_nnz_in": counter("linalg.rank_nnz_in"),
        "linalg.rank_share": tracer.total_s.get("linalg.rank", 0.0) / wall,
        "linalg.nullspace_s": total("linalg.nullspace"),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.independent_s": total("linalg.independent"),
        "linalg.matmul_s": total("linalg.matmul"),
        "linalg.matmul_calls": calls("linalg.matmul"),
        "adjunction.closure_check_s": total("adjunction.closure_check"),
        "adjunction.closure_check_calls": calls("adjunction.closure_check"),
        "adjunction.tuples_visited": visited,
        "adjunction.nonempty_intersections": counter("adjunction.nonempty_intersections"),
        "adjunction.nonempty_share": counter("adjunction.nonempty_intersections") / visited if visited else 0.0,
        "adjunction.validate_s": total("adjunction.validate"),
        "adjunction.validate_calls": calls("adjunction.validate"),
        "adjunction.hausdorff_pairs_s": total("adjunction.hausdorff_pairs"),
        "adjunction.classes_s": total("adjunction.classes"),
        "adjunction.regular_open_s": total("adjunction.regular_open"),
        "cells.closure_s": total("cells.closure"),
        "cells.closure_calls": calls("cells.closure"),
        "cohomology.build_bicomplex_s": total("cohomology.build_bicomplex"),
        "cohomology.bicomplex_builds": max(tracer.builds_by_op.values(), default=0),
        "cohomology.bicomplex_dim": counter("cohomology.bicomplex_dim"),
        "cohomology.resolve_cores_s": total("cohomology.resolve_cores"),
        "cohomology.total_complex_s": total("cohomology.total_complex"),
        "cohomology.total_nnz": counter("cohomology.total_nnz"),
        "cohomology.dd_check_s": total("cohomology.dd_check"),
        "schema.parse_s": total("schema.parse") + total("schema.parse_cochain"),
        "schema.doc_bytes": doc_bytes / n,
        "cli.import_s": import_s,
        "cochains.integrate_s": total("cochains.integrate"),
        "cochains.stokes_s": total("cochains.stokes"),
        "geometry.gauss_bonnet_s": total("geometry.gauss_bonnet"),
        "geometry.validate_metric_s": total("geometry.validate_metric"),
        "refine.subdivide_s": setup_trace.total_s.get("refine.subdivide", 0.0),
        "trace.overhead_share": statistics.median(traced_scaled) / statistics.median(untraced_scaled) - 1.0,
    }
    for module, seconds in tracer.module_self_s().items():
        out[f"{module}.self_s"] = seconds / n
        out[f"{module}.self_share"] = seconds / wall
    return out


if __name__ == "__main__":
    sys.exit(main())
