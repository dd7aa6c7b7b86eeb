"""The one class builder, ``adjunction.glued_classes``.

Every partition of (piece, cell) pairs is built there: ``glued_cell_classes``
(the open-region maps, every direction, behind ``hausdorff``), the closure
and core classes of the two cohomology flavors, and ``quotient_complex``.
The classes come in first-member order; on a valid system they are those
that ``oracle.reglue_classes`` rebuilds one piece at a time.  A link to a
cell its piece does not have raises ``PreconditionError`` naming the map and
the cell.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff import adjunction, cohomology
from nonhausdorff.adjunction import AdjunctionSystem, glued_cell_classes, glued_classes, validate_system
from nonhausdorff.cohomology import _core_cell_classes, closure_cell_classes, quotient_complex, resolve_cores
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import FIXTURE_BUILDERS

from conftest import glued_hexagons, hexagon_chain, hub_with_spokes, k_origin_line, random_clopen_system, torus_pair

systems = st.one_of(
    st.sampled_from(sorted(FIXTURE_BUILDERS)).map(lambda name: FIXTURE_BUILDERS[name]().system),
    st.builds(k_origin_line, st.integers(2, 5)).map(lambda fx: fx.system),
    st.builds(hub_with_spokes, st.integers(2, 6), st.integers(2, 4)).map(lambda fx: fx.system),
    st.builds(torus_pair, st.integers(2, 4)).map(lambda fx: fx.system),
    st.builds(glued_hexagons, st.integers(2, 4)).map(lambda fx: fx.system),
    st.builds(hexagon_chain).map(lambda fx: fx.system),
    st.integers(0, 2**16).map(lambda seed: random_clopen_system(random.Random(seed))),
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems)
def test_glued_cell_classes_match_the_reglued_classes(system: AdjunctionSystem):
    classes = glued_cell_classes(system)
    # a partition of every (piece, cell) pair, indexed, in first-member order
    order = [(i, cell) for i, piece in enumerate(system.pieces) for cell in piece.dims]
    assert sorted(node for key in classes.classes for node in key) == sorted(order)
    assert all(classes.class_of(*node) == key for key in classes.classes for node in key)
    assert [key[0] for key in classes.classes] == [node for node in order if classes.class_of(*node)[0] == node]
    assert all(list(key) == sorted(key) for key in classes.classes)
    # the reference glues one piece at a time, which needs A2 and A3
    if system.n() >= 2 and validate_system(system).ok:
        assert set(classes.classes) == set(oracle.reglue_classes(system))


def test_class_order_is_first_member_order():
    classes = glued_cell_classes(FIXTURE_BUILDERS["variant_n"]().system)
    assert classes.classes == [
        ((0, "v-2"), (1, "v-2")), ((0, "v-1"),), ((0, "v0"),), ((0, "v1"),), ((0, "v2"), (1, "v2")),
        ((0, "e-2"), (1, "e-2")), ((0, "e-1"),), ((0, "e0"),), ((0, "e1"), (1, "e1")),
        ((1, "v-1"),), ((1, "v0"),), ((1, "v1"),), ((1, "e-1"),), ((1, "e0"),),
    ]
    assert [classes.index[(1, "v2")], classes.index[(1, "e0")]] == [4, 13]


def test_every_class_layer_builds_through_the_builder(monkeypatch):
    calls: list[int] = []
    build = adjunction.glued_classes

    def counted(system, links):
        calls.append(len(links))
        return build(system, links)

    for module in (adjunction, cohomology):
        monkeypatch.setattr(module, "glued_classes", counted)
    fx = FIXTURE_BUILDERS["line_two_origins"]()
    glued_cell_classes(fx.system)
    closure_cell_classes(fx.system)
    _core_cell_classes(fx.system, resolve_cores(fx.system, fx.cores))
    assert calls == [16, 9, 6]
    quotient_complex(FIXTURE_BUILDERS["glued_circles_clopen"]().system)
    assert len(calls) == 4


@pytest.mark.parametrize(
    "table, message",
    [
        ({"ghost": "v0"}, "map P1->P2: P1 has no cell 'ghost'"),
        ({"v0": "ghost"}, "map P1->P2: P2 has no cell 'ghost'"),
    ],
    ids=["unknown source cell", "unknown image"],
)
def test_a_link_to_a_missing_cell_names_the_map_and_the_cell(table, message):
    system = FIXTURE_BUILDERS["line_two_origins"]().system
    gm = system.maps[(0, 1)]
    gm.forward = {**gm.forward, **table}
    with pytest.raises(PreconditionError) as info:
        glued_cell_classes(system)
    assert str(info.value) == message
    (cell, image), = table.items()
    with pytest.raises(PreconditionError) as info:
        glued_classes(system, [((0, "v1"), (1, "v1")), ((0, cell), (1, image))])
    assert str(info.value) == message
