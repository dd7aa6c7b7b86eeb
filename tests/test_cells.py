import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonhausdorff.cells import (
    CellComplex,
    CellSet,
    closure,
    connected_components,
    euler_characteristic,
    first_unclosed_cell,
    frontier,
    interior,
    is_face_closed,
    is_star_closed,
    star,
    validate_complex,
)
from nonhausdorff.cohomology import complex_betti
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import cycle_complex, icosahedron_complex, path_complex


def triangle_boundary() -> CellComplex:
    return cycle_complex(3)


def test_single_vertex_is_valid():
    c = CellComplex.build([("v", 0)])
    assert validate_complex(c).ok


def test_triangle_boundary_is_valid():
    assert validate_complex(triangle_boundary()).ok


def test_dangling_face_is_reported():
    c = CellComplex.build([("v", 0), ("e", 1)], {"e": {"v": -1, "ghost": 1}})
    report = validate_complex(c)
    assert not report.ok
    assert any(issue.rule == "dangling-face" for issue in report.issues)


def test_boundary_squared_violation_is_reported():
    # a square with one side's orientation flipped breaks d(d(square)) = 0
    c = CellComplex.build(
        [("a", 0), ("b", 0), ("c", 0), ("ab", 1), ("bc", 1), ("ca", 1), ("t", 2)],
        {
            "ab": {"a": -1, "b": 1},
            "bc": {"b": -1, "c": 1},
            "ca": {"c": -1, "a": -1},  # bad sign at a
            "t": {"ab": 1, "bc": 1, "ca": 1},
        },
    )
    report = validate_complex(c)
    assert any(issue.rule == "boundary-squared" for issue in report.issues)


def test_closure_of_edge_adds_endpoints():
    path = path_complex()
    s = CellSet.of(path, ["e-1"])
    assert closure(s).members == {"e-1", "v-1", "v0"}


def test_closure_is_identity_on_closed_sets():
    path = path_complex()
    s = closure(CellSet.of(path, ["e0"]))
    assert closure(s).members == s.members


def test_closure_of_punctured_path_is_everything():
    path = path_complex()
    s = CellSet.of(path, set(path.dims) - {"v0"})
    assert closure(s).members == set(path.dims)


def test_frontier_of_punctured_path_is_origin():
    path = path_complex()
    s = CellSet.of(path, set(path.dims) - {"v0"})
    assert frontier(s).members == {"v0"}


def test_frontier_of_whole_complex_is_empty():
    path = path_complex()
    assert frontier(path.whole_set()).members == set()


def test_frontier_requires_open_set():
    path = path_complex()
    with pytest.raises(PreconditionError):
        frontier(CellSet.of(path, ["v0"]))  # a lone vertex misses its cofaces


def test_star_of_vertex_in_disk():
    ico = icosahedron_complex()
    s = star(CellSet.of(ico, ["i0"]))
    # a vertex of the icosahedron has five incident edges and five triangles
    dims = sorted(ico.dims[c] for c in s.members)
    assert dims == [0] + [1] * 5 + [2] * 5


def test_first_unclosed_cell_names_the_smallest_failing_cell():
    assert first_unclosed_cell(icosahedron_complex(), 2) is None
    assert first_unclosed_cell(cycle_complex(4), 1) is None
    # both ends of the path lie in one edge; "v-2" sorts before "v2"
    assert first_unclosed_cell(path_complex(), 1) == "v-2"
    # an edge in three triangles fails as well as one in a single triangle
    c = CellComplex.build(
        [("a", 0), ("b", 0), ("e", 1), ("t1", 2), ("t2", 2), ("t3", 2)],
        {"e": {"a": -1, "b": 1}, "t1": {"e": 1}, "t2": {"e": -1}, "t3": {"e": 1}},
    )
    assert first_unclosed_cell(c, 2) == "e"


def test_euler_characteristic_examples():
    assert euler_characteristic(CellComplex.build([("v", 0)]).whole_set()) == 1
    assert euler_characteristic(triangle_boundary().whole_set()) == 0
    assert euler_characteristic(icosahedron_complex().whole_set()) == 2


def test_connected_components_examples():
    path = path_complex()
    assert connected_components(CellSet.of(path, [])) == 0
    punctured = CellSet.of(path, set(path.dims) - {"v0"})
    assert connected_components(punctured) == 2
    assert connected_components(closure(punctured)) == 1


def test_euler_equals_alternating_betti_sum():
    for piece in (path_complex(), cycle_complex(6), icosahedron_complex()):
        b = complex_betti(piece)
        assert euler_characteristic(piece.whole_set()) == sum(
            (-1) ** q * v for q, v in enumerate(b)
        )


POOL = [path_complex(), cycle_complex(5), icosahedron_complex()]


@st.composite
def complex_and_subset(draw):
    c = draw(st.sampled_from(POOL))
    members = draw(st.sets(st.sampled_from(sorted(c.dims))))
    return c, members


@given(complex_and_subset())
@settings(max_examples=120, deadline=None)
def test_closure_star_are_idempotent_monotone_extensive(data):
    c, members = data
    s = CellSet.of(c, members)
    cl = closure(s)
    stt = star(s)
    assert s.members <= cl.members and s.members <= stt.members
    assert closure(cl).members == cl.members
    assert star(stt).members == stt.members
    bigger = CellSet.of(c, set(c.dims))
    assert cl.members <= closure(bigger).members
    assert stt.members <= star(bigger).members
    assert is_face_closed(cl)
    assert is_star_closed(stt)


@given(complex_and_subset())
@settings(max_examples=120, deadline=None)
def test_frontier_of_open_set_is_closed_and_disjoint(data):
    c, members = data
    s = star(CellSet.of(c, members))
    front = frontier(s)
    assert not (front.members & s.members)
    assert is_face_closed(front)


@given(complex_and_subset())
@settings(max_examples=80, deadline=None)
def test_interior_is_largest_open_subset(data):
    c, members = data
    s = CellSet.of(c, members)
    inner = interior(s)
    assert inner.members <= s.members
    assert is_star_closed(inner)
    # adding back any removed cell breaks openness
    for cell in sorted(s.members - inner.members)[:3]:
        assert not is_star_closed(CellSet.of(c, inner.members | {cell}))
