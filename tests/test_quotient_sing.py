"""The singular flavor from the core classes, against the bicomplex oracle.

Where the guards hold, ``betti --flavor sing``, ``euler`` and the singular
side of ``compare`` rank one small complex whose cells are the classes of
(piece, cell) pairs under the gluing maps on the pair cores.  The guards:
no map misses a pair-core cell, the tuples whose cores hold a class are
every subset of two or more of its pieces (the full simplex), each class
holds at most one cell of each piece, and every member of a class gives the
same class-level boundary row.  Otherwise the OPEN_CORE bicomplex is built.

The differential tests compare values, or library errors with their
messages, with the bicomplex of ``oracle.build_bicomplex``.  The cases are
the shipped fixtures, k-origin lines, hub paths, torus pairs and hexagons
with cores: on every tuple, on the chain arcs, and on random open arcs with
the largest subcomplex of each open intersection as its core (a core that
nests but need not carry the homotopy type, so the full-simplex guard fails
in some draws).
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff import cli, cohomology, refine
from nonhausdorff.adjunction import AdjunctionSystem, glued_classes, nerve
from nonhausdorff.cells import CellSet, CoreAssignment, closure
from nonhausdorff.cohomology import (
    Flavor,
    _core_cell_classes,
    de_rham_compare,
    open_core_euler,
    resolve_cores,
    singular_betti,
    total_betti,
    trim_trailing_zeros,
)
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import FIXTURE_BUILDERS, Fixture

from conftest import (
    FIXTURES_DIR,
    GOOD_FIXTURES,
    arc_hexagons,
    counted_builds,
    glued_hexagons,
    hexagon_chain,
    hub_with_spokes,
    k_origin_line,
    outcome,
    torus_pair,
)


def with_largest_cores(fx: Fixture) -> Fixture:
    """``fx`` with the largest subcomplex of each nonempty open intersection
    as its core."""
    cores = {}
    for entry in nerve(fx.system):
        piece, domain = fx.system.pieces[entry.tup[0]], entry.domain.members
        inner = [cell for cell in domain if closure(CellSet.of(piece, [cell])).members <= domain]
        cores[entry.tup] = CellSet.of(piece, inner)
    return Fixture(fx.name, fx.system, CoreAssignment(cores))


cases = st.one_of(
    st.sampled_from(sorted(FIXTURE_BUILDERS)).map(lambda name: FIXTURE_BUILDERS[name]()),
    st.builds(k_origin_line, st.integers(2, 5)),
    st.builds(hub_with_spokes, st.integers(2, 6), st.integers(2, 4)),
    st.builds(torus_pair, st.integers(2, 4)),
    st.builds(glued_hexagons, st.integers(2, 4)),
    st.builds(hexagon_chain),
    st.integers(0, 2**16).map(lambda seed: with_largest_cores(arc_hexagons(random.Random(seed)))),
)


def bicomplex_sing(system: AdjunctionSystem, cores: CoreAssignment | None) -> list[int]:
    return trim_trailing_zeros(total_betti(oracle.build_bicomplex(system, Flavor.OPEN_CORE, cores)))


def quotient_sing(system: AdjunctionSystem, cores: CoreAssignment | None) -> list[int]:
    return trim_trailing_zeros(singular_betti(system, cores))


def euler_pair(system: AdjunctionSystem, cores: CoreAssignment | None) -> tuple[int, list[int]]:
    chi, values = open_core_euler(system, cores)
    return chi, trim_trailing_zeros(values)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fx=cases)
def test_quotient_sing_matches_the_oracle_bicomplex(fx):
    system, cores = fx.system, fx.cores
    want = outcome(bicomplex_sing, system, cores)
    assert outcome(quotient_sing, system, cores) == want
    euler = outcome(euler_pair, system, cores)
    if want[0] == "ok":
        assert euler == ("ok", (oracle.euler_inclusion_exclusion(system, cores), want[1]))
    else:
        assert euler == want
    compared = outcome(de_rham_compare, system, cores)
    if want[0] == "ok" and compared[0] == "ok":
        assert trim_trailing_zeros(compared[1].singular) == want[1]


def test_largest_cores_take_both_routes():
    # the random-arc cores are only worth their cost if some fail the guards
    routes = []
    for seed in range(60):
        fx = with_largest_cores(arc_hexagons(random.Random(seed)))
        resolved = outcome(resolve_cores, fx.system, fx.cores)
        if resolved[0] == "ok":
            routes.append(outcome(_core_cell_classes, fx.system, resolved[1])[0])
    assert 5 <= routes.count("error") <= len(routes) - 5


# -- routes ---------------------------------------------------------------------


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_sing_builds_no_bicomplex_where_the_guards_pass(monkeypatch, capsys, name):
    path = str(FIXTURES_DIR / f"{name}.json")
    builds = counted_builds(monkeypatch)
    codes = [cli.main(argv + [path]) for argv in (["betti", "--flavor", "sing"], ["euler"], ["compare"])]
    # two_squares declares no core where it needs one, and exits before any build
    assert codes == ([2, 2, 2] if name == "two_squares" else [0, 0, 0])
    assert Flavor.OPEN_CORE not in builds


@pytest.mark.parametrize("name", ["glued_tori", "line_three_origins", "glued_icosahedra"])
def test_euler_resolves_the_cores_once(monkeypatch, capsys, name):
    calls = []

    def counted(attr):
        original = getattr(cohomology, attr)

        def call(*args):
            calls.append(attr)
            return original(*args)

        monkeypatch.setattr(cohomology, attr, call)

    counted("nerve")
    counted("_resolve_cores")
    assert cli.main(["--json", "euler", str(FIXTURES_DIR / f"{name}.json")]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["match"]
    assert calls == ["nerve", "_resolve_cores"]


def shrunk_cores(fx: Fixture) -> CoreAssignment:
    """The cores of ``line_three_origins`` with those of (P1, P3) and
    (P1, P2, P3) shrunk to {v-1, v1}: they still nest and contain the two
    vertices, but the edge e-2 is then in the cores of (P1, P2) and (P2, P3)
    and not in that of (P1, P3)."""
    cores = dict(fx.cores.cores)
    for tup in [(0, 2), (0, 1, 2)]:
        cores[tup] = CellSet.of(fx.system.pieces[0], ["v-1", "v1"])
    return CoreAssignment(cores)


def test_shrunk_cores_fail_the_full_simplex_guard(monkeypatch):
    fx = FIXTURE_BUILDERS["line_three_origins"]()
    cores = shrunk_cores(fx)
    resolved = resolve_cores(fx.system, cores)
    with pytest.raises(PreconditionError, match="not a full simplex"):
        _core_cell_classes(fx.system, resolved)
    builds = counted_builds(monkeypatch)
    assert quotient_sing(fx.system, cores) == bicomplex_sing(fx.system, cores) == [1, 2]
    assert builds == [Flavor.OPEN_CORE]


def test_class_with_two_cells_of_one_piece_falls_back(monkeypatch):
    # the map P1 -> P2 sends v1 and v2 of P1 onto v2 of P2 on their pair core
    fx = FIXTURE_BUILDERS["line_two_origins"]()
    gm = fx.system.maps[(0, 1)]
    gm.forward = {**gm.forward, "v1": "v2"}
    links = [((0, cell), (1, gm.forward[cell])) for cell in fx.cores.cores[(0, 1)].members]
    (key,) = [key for key in glued_classes(fx.system, links).classes if (1, "v2") in key]
    assert key == ((0, "v1"), (0, "v2"), (1, "v2"))
    builds = counted_builds(monkeypatch)
    assert outcome(quotient_sing, fx.system, fx.cores) == outcome(bicomplex_sing, fx.system, fx.cores)
    assert builds == [Flavor.OPEN_CORE]


def test_missed_pair_core_cell_falls_back(monkeypatch):
    # the bicomplex names the undefined restriction; the class route defers to it
    fx = FIXTURE_BUILDERS["line_two_origins"]()
    gm = fx.system.maps[(0, 1)]
    gm.forward = {cell: image for cell, image in gm.forward.items() if cell != "v1"}
    builds = counted_builds(monkeypatch)
    message = "restriction from tuple (1,) to (0, 1) undefined at cell 'v1': missing containment"
    assert outcome(quotient_sing, fx.system, fx.cores) == ("error", "PreconditionError", message)
    assert outcome(bicomplex_sing, fx.system, fx.cores) == ("error", "PreconditionError", message)
    assert builds == [Flavor.OPEN_CORE]


@pytest.mark.parametrize("name", ["line_two_origins", "line_three_origins", "glued_tori"])
def test_subdivision_keeps_sing_on_the_class_route(monkeypatch, name):
    fx = FIXTURE_BUILDERS[name]()
    refined = refine.subdivide_system(fx.system)
    cores = refine.subdivide_cores(fx.system, fx.cores, refined)
    builds = counted_builds(monkeypatch)
    assert quotient_sing(refined, cores) == quotient_sing(fx.system, fx.cores)
    assert builds == []
