"""Core resolution and open-core assembly against oracle.py on broken cores.

Generated covers with declared cores (k-origin lines, hub paths with
spokes, glued hexagons with a core on every tuple, and the hexagon chain)
each get one mutation:

* drop - a cell is taken out of a core;
* add - a cell from outside the open intersection is put into a core;
* move - a core cell is moved to a cell of the open intersection outside
  the core, on a tuple of three or more pieces where there is one, so that
  the core no longer nests; on these covers every such cell has a face off
  the open intersection, so face-closedness fails first (a dropped cell
  and a missed one reach the nesting check);
* remove - a declared core is removed, so the default applies;
* miss - the map t0 -> t1 of a tuple loses one of its core cells.

``resolve_cores``, the total Betti numbers of the OPEN_CORE bicomplex and
those of ``singular_betti`` (the core classes where their guards pass, the
bicomplex elsewhere) must agree with the oracle's, which transports every
cell itself, as a value or as the error's type and message.  A map that
misses a core cell of a tuple of three or more pieces raises
PreconditionError from both ``resolve_cores``, naming the restriction and
the cell, before any error of a later cell; any other exception, KeyError
included, fails the test.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff.adjunction import open_intersection
from nonhausdorff.cells import CellSet, CoreAssignment
from nonhausdorff.cohomology import (
    Flavor,
    build_bicomplex,
    resolve_cores,
    singular_betti,
    total_betti,
    trim_trailing_zeros,
)
from nonhausdorff.fixtures import Fixture

from conftest import glued_hexagons, hexagon_chain, hub_with_spokes, k_origin_line, outcome


covers = st.one_of(
    st.builds(k_origin_line, st.integers(2, 5)),
    st.builds(hub_with_spokes, st.integers(2, 5), st.integers(2, 4)),
    st.builds(glued_hexagons, st.integers(2, 4)),
    st.builds(hexagon_chain),
)


def mutated(data: st.DataObject, fx: Fixture, kind: str) -> dict[tuple[int, ...], CellSet]:
    """The declared cores after one mutation of ``kind``; a ``miss`` edits
    the system's map in place."""
    system, cores = fx.system, dict(fx.cores.cores)
    declared = sorted(tup for tup, core in cores.items() if core.members)
    if kind == "move":
        declared = [tup for tup in declared if len(tup) >= 3] or declared
    tup = data.draw(st.sampled_from(declared))
    if kind == "remove":
        del cores[tup]
        return cores
    piece, core = system.pieces[tup[0]], cores[tup].members
    domain = open_intersection(system, tup).members
    if kind == "add":
        cores[tup] = CellSet.of(piece, core | {data.draw(st.sampled_from(sorted(set(piece.dims) - domain)))})
        return cores
    cell = data.draw(st.sampled_from(sorted(core)))
    if kind == "drop":
        cores[tup] = CellSet.of(piece, core - {cell})
    elif kind == "move":
        cores[tup] = CellSet.of(piece, core - {cell} | {data.draw(st.sampled_from(sorted(domain - core)))})
    else:
        del system.maps[tup[:2]].forward[cell]
    return cores


def members(cores: dict) -> dict:
    """Resolved cores as member sets, empty cores left out."""
    return {tup: core.members for tup, core in cores.items() if core.members}


def sing_betti(build, system, cores):
    return total_betti(build(system, Flavor.OPEN_CORE, cores))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fx=covers, kind=st.sampled_from(["drop", "add", "move", "remove", "miss"]), data=st.data())
def test_mutated_cores_match_the_oracle(fx, kind, data):
    system = fx.system
    cores = CoreAssignment(mutated(data, fx, kind))
    got = outcome(resolve_cores, system, cores)
    want = outcome(oracle.resolve_cores, system, cores)
    if got[0] == "ok" and want[0] == "ok":
        assert members(got[1]) == members(want[1])
    else:
        assert got == want
    want = outcome(sing_betti, oracle.build_bicomplex, system, cores)
    assert outcome(sing_betti, build_bicomplex, system, cores) == want, kind
    if want[0] == "ok":
        want = ("ok", trim_trailing_zeros(want[1]))
    assert outcome(lambda: trim_trailing_zeros(singular_betti(system, cores))) == want, kind


def test_unmutated_covers_resolve():
    for fx in (k_origin_line(4), hub_with_spokes(3, 2), glued_hexagons(3), hexagon_chain()):
        assert outcome(sing_betti, build_bicomplex, fx.system, fx.cores)[0] == "ok", fx.name
