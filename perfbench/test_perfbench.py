"""Tests of the benchmark itself: generators, answer table, tracer, entry checks.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedSampler  # noqa: E402
from nonhausdorff import cli, validate_system  # noqa: E402
from nonhausdorff.linalg import Mat  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

SMALL = {
    "tori": lambda: workloads.torus_pair(3),
    "icosahedra": lambda: workloads.subdivided_icosahedra(1),
    "hub": lambda: workloads.hub_with_spokes(2),
    "origins": lambda: workloads.k_origin_lines(3),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generated_systems_validate(name):
    gen = SMALL[name]()
    report = validate_system(gen.system)
    assert report.ok, [issue.render() for issue in report.issues]


def small_ops(tmp_path: Path) -> list[run.Op]:
    rng = random.Random(5)
    tori = run.generate_doc(workloads.torus_pair(3), tmp_path, rng)
    ico = run.generate_doc(workloads.subdivided_icosahedra(1), tmp_path, rng)
    hub = run.generate_doc(workloads.hub_with_spokes(2), tmp_path, rng)
    origins = run.generate_doc(workloads.k_origin_lines(3), tmp_path, rng)
    return (
        run.tori_ops(tori, 3)
        + run.icosahedra_ops(ico, 1)
        + run.hub_ops(hub, 2)
        + run.origins_ops(origins, 3)
        + [
            run.fibre_op(tori.gen, [1, 3, 2]),
            run.fibre_op(hub.gen, [1]),
            run.fibre_op(origins.gen, [1]),
        ]
    )


def test_answer_table_holds_at_small_sizes(tmp_path):
    ops = small_ops(tmp_path)
    assert len(ops) == 4 * 11 + 3
    failures = [f"{op.label}: {msg}" for op in ops if (msg := run.execute(op, cli)[2]) is not None]
    assert failures == []


def test_wrong_answers_are_counted(tmp_path):
    doc = run.generate_doc(workloads.k_origin_lines(3), tmp_path, random.Random(1))
    wrong = run.command_ops(doc, {"betti sing": run.check_betti([1, 1]), "mv-report dr": run.check_mv([1])})
    messages = [run.execute(op, cli)[2] for op in wrong]
    assert messages[0] is not None and "betti" in messages[0]
    assert messages[1] is not None and "want exit 0, got 2" in messages[1]


def test_integral_check_is_independent_of_the_library_formula(tmp_path):
    gen = workloads.torus_pair(3)
    doc = run.generate_doc(gen, tmp_path, random.Random(3))
    expected = workloads.class_sum_integral(gen.system, doc.top_cochain)
    (op,) = run.command_ops(doc, {"integrate": run.check_integral(expected + 1)})
    assert run.execute(op, cli)[2] is not None


def test_trace_self_times_are_consistent(tmp_path):
    ops = small_ops(tmp_path)
    original_rank = Mat.__dict__["rank"]
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for op in ops:
            tracer.op_id += 1
            assert run.execute(op, cli)[2] is None
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert Mat.__dict__["rank"] is original_rank
    assert cli.validate_system is validate_system
    assert all(seconds >= -1e-9 for seconds in tracer.self_s.values())
    assert sum(tracer.module_self_s().values()) <= wall
    assert set(tracer.module_self_s()) == set(MODULES)
    assert tracer.calls["linalg.rank"] > 0 and tracer.calls["cli.main"] == len(ops) - 3
    ids = {span[1] for span in tracer.spans}
    assert all(parent == 0 or parent in ids for _, _, parent, *_ in tracer.spans)
    visited = tracer.counters["adjunction.tuples_visited"]
    assert 0 < tracer.counters["adjunction.nonempty_intersections"] <= visited


def test_rescaling_removes_sampler_time_and_slowdown():
    sampler = SpeedSampler()
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.durations = [2 * REFERENCE_S] * 3
    assert sampler.raw(0.5, 1.5) == pytest.approx(1.0 - 2 * REFERENCE_S)
    assert sampler.scaled(0.5, 1.5) == pytest.approx((1.0 - 2 * REFERENCE_S) / 2)


def test_sampler_ticks_while_started_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.durations) >= 3
    assert signal.getsignal(signal.SIGALRM) == before
    assert sampler.starts == sorted(sampler.starts)


def test_cold_starts_drop_nh_max_tuple(monkeypatch):
    monkeypatch.setenv("NH_MAX_TUPLE", "2")
    env = run.cold_env()
    assert "NH_MAX_TUPLE" not in env
    assert env["PYTHONPATH"] == str(run.SRC)


def test_highest_percentile_keeps_ten_samples_above():
    assert run.highest_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(100)]
    high = run.highest_percentile(samples)
    assert high == {"percentile": 90.0, "value": 89.0}
    assert sum(1 for s in samples if s > high["value"]) == 10


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fixtures", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
