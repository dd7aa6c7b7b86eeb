"""Row exactness counted on the closure classes.

``row_exactness_check`` reads the dimensions and the ranks of delta in each
row of the CLOSED bicomplex from the closure classes: delta is
block-diagonal by class, a class held by every subset of its m pieces adds
C(m-1, p+1) to the rank out of column p, and any other pattern of tuples is
ranked once.  The report must equal ``oracle.row_exactness_check``, which
builds the bicomplex and ranks every delta, or raise the same
``PreconditionError``; only where a guard fails does the library build the
bicomplex itself.
"""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff import cohomology
from nonhausdorff.adjunction import AdjunctionSystem, validate_system
from nonhausdorff.cohomology import row_exactness_check
from nonhausdorff.fixtures import FIXTURE_BUILDERS
from nonhausdorff.linalg import Mat

from conftest import (
    arc_hexagons,
    counted_builds,
    glued_hexagons,
    hexagon_chain,
    hub_with_spokes,
    icosahedron_chain,
    k_origin_line,
    random_clopen_system,
    row_fields,
    row_outcome,
    torus_pair,
)


systems = st.one_of(
    st.sampled_from(sorted(FIXTURE_BUILDERS)).map(lambda name: FIXTURE_BUILDERS[name]().system),
    st.builds(hub_with_spokes, st.integers(2, 6), st.integers(2, 4)).map(lambda fx: fx.system),
    st.builds(k_origin_line, st.integers(2, 6)).map(lambda fx: fx.system),
    st.builds(torus_pair, st.integers(2, 4)).map(lambda fx: fx.system),
    st.builds(glued_hexagons, st.integers(2, 4)).map(lambda fx: fx.system),
    st.integers(0, 2**16).map(lambda seed: arc_hexagons(random.Random(seed)).system),
    st.integers(0, 2**16).map(lambda seed: random_clopen_system(random.Random(seed))),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems)
def test_row_exactness_equals_the_bicomplex_oracle(system: AdjunctionSystem):
    assert row_outcome(row_exactness_check, system) == row_outcome(oracle.row_exactness_check, system)


def test_arc_hexagons_reach_patterns_that_are_not_full_simplices(monkeypatch):
    """Hexagons on random arcs fail the closure-intersection property, so
    some classes are held by a path, a cone or a hollow triangle of tuples
    instead of all of them; each such pattern is ranked, and the report
    still equals the oracle's, non-exact rows included."""
    ranked: list[frozenset] = []
    pattern_ranks = cohomology._pattern_ranks

    def counted(m, pattern):
        ranked.append(pattern)
        return pattern_ranks(m, pattern)

    monkeypatch.setattr(cohomology, "_pattern_ranks", counted)
    inexact = 0
    for seed in range(40):
        system = arc_hexagons(random.Random(seed)).system
        got = row_outcome(row_exactness_check, system)
        assert got == row_outcome(oracle.row_exactness_check, system), seed
        inexact += got[0] == "ok" and not all(node[4] for row in got[1][3].values() for node in row)
    assert {(0, 1), (0, 2), (1, 2)} in [set(pattern) for pattern in ranked]  # the hollow triangle
    assert inexact > 0


@pytest.mark.parametrize("m", range(1, 9))
def test_full_simplex_ranks_are_binomials(m: int):
    """The Cech coboundary of the full simplex on m vertices, out of the
    (p+1)-subsets, has rank C(m-1, p+1)."""
    simplices = [list(itertools.combinations(range(m), size)) for size in range(1, m + 1)]
    for p, (below, above) in enumerate(zip(simplices, simplices[1:])):
        position = {s: r for r, s in enumerate(below)}
        rows = [{position[s[:a] + s[a + 1 :]]: (-1) ** a for a in range(len(s))} for s in above]
        assert Mat(len(above), len(below), rows).rank() == comb(m - 1, p + 1), (m, p)
    full = frozenset(s for level in simplices[1:] for s in level)
    if full:
        assert cohomology._pattern_ranks(m, full) == [comb(m - 1, p + 1) for p in range(m - 1)]


def test_a_pattern_not_closed_under_faces_has_no_ranks():
    assert cohomology._pattern_ranks(3, frozenset({(0, 1), (0, 1, 2)})) is None


def _valid_systems() -> list[tuple[str, AdjunctionSystem]]:
    out = [(name, builder().system) for name, builder in sorted(FIXTURE_BUILDERS.items())]
    out += [(f"hub_{k}_{s}", hub_with_spokes(k, s).system) for k in (2, 5) for s in (2, 4)]
    out += [(f"origins_{k}", k_origin_line(k).system) for k in (2, 5, 8)]
    out += [(f"tori_{n}", torus_pair(n).system) for n in (2, 6)]
    out += [("hexagons_3", glued_hexagons(3).system), ("hexagon_chain", hexagon_chain().system)]
    out += [("icosahedron_chain", icosahedron_chain().system)]
    out += [(f"clopen_{seed}", random_clopen_system(random.Random(seed))) for seed in range(10)]
    return [(name, system) for name, system in out if validate_system(system).ok]


def test_no_bicomplex_on_valid_systems(monkeypatch):
    builds = counted_builds(monkeypatch)
    checked = []
    for name, system in _valid_systems():
        report = row_exactness_check(system)
        assert builds == [], name
        checked.append(name)
        if report.precondition_ok:
            assert report.all_exact, name
    assert "closure_violation" in checked and "origins_8" in checked


def test_broken_cocycle_builds_the_bicomplex_once(monkeypatch):
    """A closure class of broken_cocycle holds two cells of one piece, so
    its block is not a Cech pattern and the bicomplex answers."""
    builds = counted_builds(monkeypatch)
    system = FIXTURE_BUILDERS["broken_cocycle"]().system
    report = row_exactness_check(system)
    assert builds == [cohomology.Flavor.CLOSED_INTERSECTION]
    assert row_fields(report) == row_fields(oracle.row_exactness_check(system))
