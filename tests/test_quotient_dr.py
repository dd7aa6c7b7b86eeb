"""The de Rham flavor from the class complex, against the bicomplex oracle.

Where the closure-intersection property holds, ``betti --flavor dr``, the de
Rham side of ``compare`` and ``global_complex_betti`` rank one small complex
whose cells are the classes of (piece, cell) pairs under the closure
extensions.  The de Rham route takes it only when each class holds at most
one cell of each piece and every member of a class gives the same
class-level boundary row; otherwise it builds the bicomplex.

The differential tests compare values, or library errors with their
messages, with the bicomplex of ``oracle.build_bicomplex`` and the
explicit-basis fibre product ``oracle.global_complex_betti``.  The cases are
the shipped fixtures, hub paths, k-origin lines, torus pairs, hexagons glued
on the default arcs, on the chain arcs and on random open arcs (where the
closure-intersection property often fails), and random clopen systems.  The
mutation tests flip an incidence sign or move a closure-extension image so
that the class rows disagree: the guard must fail and the answer must stay
the bicomplex's.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff import cli, cohomology
from nonhausdorff.adjunction import AdjunctionSystem, nerve
from nonhausdorff.cohomology import (
    Flavor,
    _class_complex,
    closure_cell_classes,
    de_rham_betti,
    de_rham_compare,
    global_complex_betti,
    total_betti,
    trim_trailing_zeros,
)
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import FIXTURE_BUILDERS, Fixture

from conftest import (
    FIXTURES_DIR,
    GOOD_FIXTURES,
    HEXAGON_CHAIN,
    glued_hexagons,
    hub_with_spokes,
    k_origin_line,
    outcome,
    random_clopen_system,
    torus_pair,
)


def arc_hexagons(rng: random.Random) -> Fixture:
    """Three hexagons, each pair glued by identity on a random open arc of
    one to three edges, or not at all.  Only a triple can fail the
    closure-intersection property, where two arcs of one piece touch
    without overlapping; so in about half the draws C0's arc to C2 starts
    where its arc to C1 ends."""
    arcs: dict[tuple[int, int], list[str]] = {}
    end = rng.randrange(6)
    for pair in itertools.combinations(range(3), 2):
        if rng.random() < 0.8:
            start = end if pair == (0, 2) and rng.random() < 0.5 else rng.randrange(6)
            length = rng.randint(1, 3)
            edges = [f"c{(start + t) % 6}" for t in range(length)]
            arcs[pair] = edges + [f"w{(start + t) % 6}" for t in range(1, length)]
            end = (start + length) % 6
    return glued_hexagons(3, arcs)


cases = st.one_of(
    st.sampled_from(sorted(FIXTURE_BUILDERS)).map(lambda name: FIXTURE_BUILDERS[name]()),
    st.builds(hub_with_spokes, st.integers(2, 6), st.integers(2, 4)),
    st.builds(k_origin_line, st.integers(2, 5)),
    st.builds(torus_pair, st.integers(2, 4)),
    st.builds(glued_hexagons, st.integers(2, 4)),
    st.just(HEXAGON_CHAIN).map(lambda arcs: glued_hexagons(3, arcs)),
    st.integers(0, 2**16).map(lambda seed: arc_hexagons(random.Random(seed))),
    st.integers(0, 2**16).map(lambda seed: Fixture("clopen", random_clopen_system(random.Random(seed)))),
)


def bicomplex_dr(system: AdjunctionSystem) -> list[int]:
    return trim_trailing_zeros(total_betti(oracle.build_bicomplex(system, Flavor.CLOSED_INTERSECTION)))


def quotient_dr(system: AdjunctionSystem) -> list[int]:
    return trim_trailing_zeros(de_rham_betti(system))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fx=cases)
def test_quotient_dr_matches_the_oracle_bicomplex(fx):
    system = fx.system
    want = outcome(bicomplex_dr, system)
    assert outcome(quotient_dr, system) == want
    assert outcome(global_complex_betti, system) == outcome(oracle.global_complex_betti, system)
    compared = outcome(de_rham_compare, system, fx.cores)
    if want[0] == "ok" and compared[0] == "ok":
        assert trim_trailing_zeros(compared[1].de_rham) == want[1]


def test_random_arcs_fail_the_closure_property_often():
    # the arcs are only worth their cost if both routes are taken
    draws = [arc_hexagons(random.Random(seed)).system for seed in range(60)]
    held = [all(entry.closure_ok for entry in nerve(system)) for system in draws]
    assert 15 <= sum(held) <= 45


def counted_builds(monkeypatch) -> list[Flavor]:
    builds: list[Flavor] = []
    build = cohomology.build_bicomplex

    def counted(system, flavor, *args, **kwargs):
        builds.append(flavor)
        return build(system, flavor, *args, **kwargs)

    monkeypatch.setattr(cohomology, "build_bicomplex", counted)
    return builds


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_betti_dr_builds_no_bicomplex_where_the_property_holds(monkeypatch, capsys, name):
    builds = counted_builds(monkeypatch)
    assert cli.main(["betti", "--flavor", "dr", str(FIXTURES_DIR / f"{name}.json")]) == 0
    assert builds == []
    assert cli.main(["compare", str(FIXTURES_DIR / f"{name}.json")]) in (0, 2)
    assert Flavor.CLOSED_INTERSECTION not in builds


def test_betti_dr_keeps_its_precondition_exit(monkeypatch, capsys):
    builds = counted_builds(monkeypatch)
    path = str(FIXTURES_DIR / "closure_violation.json")
    assert cli.main(["betti", "--flavor", "dr", path]) == 2
    message = "betti: precondition_failed: closure-intersection property violated at tuple (0, 1, 2)"
    assert capsys.readouterr().err.strip() == message
    assert builds == []
    # compare computes dr anyway, from the bicomplex
    assert cli.main(["compare", path]) == 0
    assert builds == [Flavor.CLOSED_INTERSECTION, Flavor.OPEN_CORE]


# -- mutations ------------------------------------------------------------------


def flip_sign(system: AdjunctionSystem, piece: int, cell: str, face: str) -> None:
    """Negate one incidence sign of ``piece`` in place, cofaces included."""
    complex_ = system.pieces[piece]
    sign = -complex_.faces[cell][face]
    complex_.faces[cell] = {**complex_.faces[cell], face: sign}
    complex_.cofaces[face] = {**complex_.cofaces[face], cell: sign}


def move_image(system: AdjunctionSystem, pair: tuple[int, int], cell: str, image: str) -> None:
    """Send ``cell`` to ``image`` under the closure extension of ``pair``."""
    gm = system.maps[pair]
    gm.closure_forward = {**gm.closure_forward, cell: image}


def mismatched(system: AdjunctionSystem) -> None:
    with pytest.raises(PreconditionError, match="global cochains: incidence mismatch"):
        _class_complex(system, closure_cell_classes(system))


def assert_bicomplex_answer(system: AdjunctionSystem, cores=None) -> None:
    want = outcome(bicomplex_dr, system)
    assert outcome(quotient_dr, system) == want
    compared = outcome(de_rham_compare, system, cores)
    if want[0] == "ok" and compared[0] == "ok":
        assert trim_trailing_zeros(compared[1].de_rham) == want[1]


@pytest.mark.parametrize(
    "build, piece, cell, face",
    [
        (lambda: FIXTURE_BUILDERS["line_two_origins"](), 1, "e1", "v2"),
        (lambda: k_origin_line(3), 2, "e-2", "v-2"),
        (lambda: FIXTURE_BUILDERS["glued_circles"](), 1, "c1", "w2"),
        (lambda: torus_pair(3), 1, "h0,1", "v0,1"),
    ],
    ids=["line_two_origins", "origins_3", "glued_circles", "tori_3"],
)
def test_flipped_incidence_sign_fails_the_guard(build, piece, cell, face):
    fx = build()
    before = bicomplex_dr(fx.system)
    assert quotient_dr(fx.system) == before
    flip_sign(fx.system, piece, cell, face)
    mismatched(fx.system)
    with pytest.raises(PreconditionError, match="global cochains: incidence mismatch"):
        global_complex_betti(fx.system)
    assert_bicomplex_answer(fx.system, fx.cores)


@pytest.mark.parametrize("spacing", [3, 4])
def test_moved_closure_image_fails_the_guard(spacing):
    # spoke 1 receives the hub edge e{spacing} on its own far edge e2, not e0
    fx = hub_with_spokes(3, spacing)
    move_image(fx.system, (0, 2), f"e{spacing}", "e2")
    mismatched(fx.system)
    assert_bicomplex_answer(fx.system, fx.cores)


def test_closure_image_moved_onto_a_glued_cell_fails_the_guard():
    # v0 of P1 goes to v1 of P2, which v1 of P1 goes to as well
    fx = FIXTURE_BUILDERS["line_two_origins"]()
    move_image(fx.system, (0, 1), "v0", "v1")
    classes = closure_cell_classes(fx.system)
    (key,) = [key for key in classes.classes if (1, "v1") in key]
    assert key == ((0, "v0"), (0, "v1"), (1, "v1"))
    assert_bicomplex_answer(fx.system, fx.cores)


def test_undefined_restriction_fails_the_guard():
    # C0 and C2 overlap on c0 without C1 and C2 doing so: the restriction
    # from (1, 2) to (0, 1, 2) is undefined, and the bicomplex says so
    arcs = {(0, 1): ["c0", "c1", "w1"], (0, 2): ["c0"], (1, 2): ["c3"]}
    system = glued_hexagons(3, arcs).system
    assert not cohomology._restrictions_defined(system, nerve(system))
    message = "restriction from tuple (1, 2) to (0, 1, 2) undefined at cell 'w0': missing containment"
    assert outcome(quotient_dr, system) == ("error", "PreconditionError", message)
    assert_bicomplex_answer(system)
