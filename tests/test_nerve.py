"""The nerve walk against the 2^n tuple walks kept in oracle.py.

Results indexed by intersections carry one key per nerve tuple; the oracle
keys every tuple, and each one the library leaves out must hold there.

The differential test draws shipped fixtures and generated non-Hausdorff
covers (hub paths with 2-6 spokes at spacing 2-4, k-origin lines with
k = 2-5) and compares every consumer of the nerve with its reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff import cli
from nonhausdorff.adjunction import closure_intersection_check, nerve, validate_system
from nonhausdorff.cells import CellSet
from nonhausdorff.cochains import integrate
from nonhausdorff.cohomology import (
    CoreAssignment,
    Flavor,
    build_bicomplex,
    euler_inclusion_exclusion,
    resolve_cores,
    row_exactness_check,
    total_betti,
)
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import FIXTURE_BUILDERS, closure_violation
from nonhausdorff.schema import serialize_system

from conftest import child_env, hub_with_spokes, k_origin_line, outcome, random_global_cochain


covers = st.one_of(
    st.sampled_from(sorted(FIXTURE_BUILDERS)).map(lambda name: FIXTURE_BUILDERS[name]()),
    st.builds(hub_with_spokes, st.integers(2, 6), st.integers(2, 4)),
    st.builds(k_origin_line, st.integers(2, 5)),
)


def members(cores: dict) -> dict:
    """Resolved cores as member sets, empty cores left out."""
    return {tup: core.members for tup, core in cores.items() if core.members}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fx=covers, seed=st.integers(0, 2**16))
def test_nerve_consumers_match_the_tuple_walk(fx, seed):
    system = fx.system
    checks = closure_intersection_check(system)
    every_tuple = oracle.closure_intersection_check(system)
    assert list(checks) == [entry.tup for entry in nerve(system)]
    assert checks == {tup: every_tuple[tup] for tup in checks}
    assert all(ok for tup, ok in every_tuple.items() if tup not in checks)

    got = outcome(resolve_cores, system, fx.cores)
    want = outcome(oracle.resolve_cores, system, fx.cores)
    if got[0] == "ok" and want[0] == "ok":
        assert members(got[1]) == members(want[1])
    else:
        assert got == want
    assert outcome(euler_inclusion_exclusion, system, fx.cores) == outcome(
        oracle.euler_inclusion_exclusion, system, fx.cores
    )
    for flavor in Flavor:
        got = outcome(lambda: total_betti(build_bicomplex(system, flavor, fx.cores)))
        want = outcome(lambda: total_betti(oracle.build_bicomplex(system, flavor, fx.cores)))
        assert got == want, flavor

    tops = {piece.top_dimension for piece in system.pieces}
    if system.orientations is not None and len(tops) == 1 and validate_system(system).ok:
        w = random_global_cochain(system, tops.pop(), random.Random(seed))
        assert integrate(w) == oracle.integrate(w)


def test_sparse_hub_nerve_has_one_tuple_per_spoke():
    entries = nerve(hub_with_spokes(13, 4).system)
    assert [entry.tup for entry in entries] == [(0, s) for s in range(1, 14)]
    assert all(entry.closure_ok for entry in entries)


@pytest.mark.parametrize("spacing", [2, 4])
def test_fourteen_piece_hub_lists_only_nerve_tuples(spacing, tmp_path):
    # 16 369 piece tuples; the nerve has 13 pairs, plus 12 triples at spacing 2
    fx = hub_with_spokes(13, spacing)
    system = fx.system
    tuples = [entry.tup for entry in nerve(system)]
    assert len(tuples) == (25 if spacing == 2 else 13)
    checks = closure_intersection_check(system)
    assert list(checks) == tuples
    assert row_exactness_check(system).closure_checks == checks

    doc = tmp_path / "hub.json"
    doc.write_text(json.dumps(serialize_system(fx.name, system, fx.cores, fx.metrics)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--json", "validate", str(doc)]) == 0
    listed = json.loads(out.getvalue())["payload"]["closure_intersection"]
    labels = {"(" + ",".join(system.names[i] for i in tup) + ")": ok for tup, ok in checks.items()}
    assert listed == labels


def test_close_spokes_visit_their_empty_neighbour_pairs():
    # at spacing 2 neighbouring closures share a vertex: those triples are
    # visited, have an empty intersection and fail the closure check
    entries = nerve(hub_with_spokes(13, 2).system)
    bad = [entry.tup for entry in entries if not entry.closure_ok]
    assert len(entries) == 13 + 12
    assert bad == [(0, s, s + 1) for s in range(1, 13)]
    assert all(not entry.domain.members for entry in entries if entry.tup in bad)


def test_dense_line_nerve_has_every_tuple():
    entries = nerve(k_origin_line(8).system)
    assert len(entries) == 2**8 - 8 - 1 == 247
    assert all(entry.domain.members for entry in entries)


def test_closure_violation_triple_is_visited_with_an_empty_intersection():
    (triple,) = [entry for entry in nerve(closure_violation().system) if entry.tup == (0, 1, 2)]
    assert not triple.domain.members and triple.closure_meet == {"v0"}
    assert not triple.closure_ok


def test_nonempty_core_on_an_empty_intersection_is_rejected():
    fx = closure_violation()
    cores = dict(fx.cores.cores)
    cores[(1, 2)] = CellSet.of(fx.system.pieces[1], ["u0"])
    message = "core for tuple (1, 2) is not contained in the open intersection"
    with pytest.raises(PreconditionError, match=message.replace("(", r"\(").replace(")", r"\)")):
        resolve_cores(fx.system, CoreAssignment(cores))
    assert outcome(oracle.resolve_cores, fx.system, CoreAssignment(cores))[2] == message


def test_cross_checks_raise_under_optimisation():
    # asserts vanish under -O; the class-sum and angle-sum checks, the
    # compatibility of dw in stokes_defect and the checks on input (matrix
    # shapes, cochain degree, orientation) must not
    code = textwrap.dedent(
        """
        from fractions import Fraction
        from nonhausdorff.adjunction import AdjunctionSystem
        from nonhausdorff.cells import CellComplex
        from nonhausdorff.cochains import (
            Cochain, GlobalCochain, boundary_signs, domain_integral, integrate,
            piece_integral, stokes_defect,
        )
        from nonhausdorff.errors import IncompatibleCochainError, PreconditionError
        from nonhausdorff.fixtures import glued_circles, line_two_origins, path_complex
        from nonhausdorff.geometry import MetricComplex, corner_angles
        from nonhausdorff.linalg import Mat
        from nonhausdorff.refine import subdivide_system, subdivide_top_cochain

        system = line_two_origins().system
        parts = [
            Cochain.of(piece.whole_set(), 1, {"e1": Fraction(k + 1)})
            for k, piece in enumerate(system.pieces)
        ]
        tri = CellComplex.build(
            [("a", 0), ("b", 0), ("c", 0), ("x", 1), ("y", 1), ("z", 1), ("t", 2)],
            {"x": {"a": -1, "b": 1}, "y": {"b": -1, "c": 1}, "z": {"a": -1, "c": 1},
             "t": {"x": 1, "y": 1, "z": -1}},
        )
        circles = glued_circles().system
        disagreeing = [
            Cochain.of(piece.whole_set(), 0, {"w1": Fraction(k + 1, 3)})
            for k, piece in enumerate(circles.pieces)
        ]
        zero = GlobalCochain(system, 0, tuple(Cochain(p.whole_set(), 0, {}) for p in system.pieces))
        unoriented = AdjunctionSystem.assemble([path_complex()])
        whole = unoriented.pieces[0].whole_set()
        for call in (
            lambda: integrate(GlobalCochain(system, 1, tuple(parts))),
            lambda: corner_angles(MetricComplex(tri, {"x": -1.0, "y": 1.0, "z": 1.0}), "t"),
            lambda: Mat(1, 1).matmul(Mat(3, 1)),
            lambda: subdivide_top_cochain(zero, subdivide_system(system)),
            lambda: piece_integral(unoriented, 0, Cochain.of(whole, 1, {})),
            lambda: domain_integral(unoriented, 0, whole, Cochain.of(whole, 1, {})),
            lambda: boundary_signs(unoriented, 0, whole),
            lambda: stokes_defect(GlobalCochain(circles, 0, tuple(disagreeing))),
        ):
            try:
                call()
            except (PreconditionError, IncompatibleCochainError) as exc:
                print(type(exc).__name__, exc)
            else:
                print("no error")
        """
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "InvariantError integrate: inclusion-exclusion 2 != class sum 1"
    assert lines[1].startswith("InvariantError corner angles of triangle 't' sum to ")
    assert lines[2:] == [
        "PreconditionError matmul: a 1x1 matrix cannot multiply a 3x1 one",
        "PreconditionError subdivide_top_cochain: cochain degree 0 is not the top dimension 1",
        "PreconditionError piece_integral: system carries no orientation",
        "PreconditionError domain_integral: system carries no orientation",
        "PreconditionError boundary_signs: system carries no orientation",
        "IncompatibleCochainError components disagree: piece C1 cell 'c0' = 1/3 but piece C2 cell 'c0' = 2/3",
    ]
