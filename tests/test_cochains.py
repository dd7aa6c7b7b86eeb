import random
from fractions import Fraction

import pytest

import oracle
from nonhausdorff.adjunction import AdjunctionSystem, glued_cell_classes, validate_system
from nonhausdorff.cells import CellSet, closure
from nonhausdorff.cochains import (
    Cochain,
    assemble_global,
    boundary_chain,
    coboundary,
    coboundary_global,
    extend_by_zero,
    integrate,
    integrate_over_chain,
    make_chain,
    stokes_defect,
)
from nonhausdorff.errors import IncompatibleCochainError, PreconditionError
from nonhausdorff.fixtures import (
    cycle_complex,
    glued_circles,
    glued_circles_clopen,
    icosahedron_complex,
    line_three_origins,
    line_two_origins,
    two_squares,
)
from nonhausdorff.refine import subdivide_system, subdivide_top_cochain

from conftest import (
    HEXAGON_CHAIN,
    glued_hexagons,
    oriented_copy,
    random_fraction,
    random_global_cochain,
    torus_pair,
)


def test_coboundary_of_constant_is_zero():
    c = cycle_complex(6)
    w = Cochain.of(c.whole_set(), 0, {f"w{k}": 1 for k in range(6)})
    assert coboundary(w).values == {}


def test_coboundary_squared_is_zero_on_icosahedron():
    ico = icosahedron_complex()
    rng = random.Random(1)
    w = Cochain.of(ico.whole_set(), 0, {v: random_fraction(rng) for v in ico.cells_of_dim(0)})
    assert coboundary(coboundary(w)).values == {}


def test_coboundary_of_endpoint_indicator():
    c = cycle_complex(3)
    w = Cochain.of(c.whole_set(), 0, {"w1": 1})
    dw = coboundary(w)
    # w1 is the head of c0 and the tail of c1
    assert dw.values == {"c0": Fraction(1), "c1": Fraction(-1)}


def test_coboundary_requires_consistent_owner():
    c = cycle_complex(6)
    with pytest.raises(PreconditionError):
        coboundary(Cochain.of(CellSet.of(c, ["c0", "w1"]), 0, {"w1": 1}))


def test_assemble_global_compatible():
    fx = line_two_origins()
    s = fx.system
    values = {c: Fraction(3) for c in s.pieces[0].cells_of_dim(0)}
    w = assemble_global(
        s, [Cochain.of(p.whole_set(), 0, dict(values)) for p in s.pieces]
    )
    assert w.degree == 0


def test_assemble_global_frontier_rigidity():
    # equality on the open region does not excuse disagreement at the origin
    s = line_two_origins().system
    with pytest.raises(IncompatibleCochainError) as err:
        assemble_global(
            s,
            [
                Cochain.of(s.pieces[0].whole_set(), 0, {"v0": 1}),
                Cochain.of(s.pieces[1].whole_set(), 0, {"v0": 2}),
            ],
        )
    assert err.value.left == (0, "v0")
    assert err.value.right == (1, "v0")


def test_assemble_global_single_piece_unconstrained():
    piece = cycle_complex(4)
    system = AdjunctionSystem.assemble([piece])
    w = assemble_global(system, [Cochain.of(piece.whole_set(), 0, {"w0": 5})])
    assert w.value(0, "w0") == 5


def test_extend_by_zero():
    c = cycle_complex(6)
    closed = closure(CellSet.of(c, ["c0"]))
    w = Cochain.of(closed, 0, {"w0": 7})
    extended = extend_by_zero(w)
    assert extended.owner.members == set(c.dims)
    assert extended.value("w0") == 7
    assert extended.value("w3") == 0
    zero = extend_by_zero(Cochain.of(closed, 0, {}))
    assert zero.values == {}


def test_extend_by_zero_requires_closed_owner():
    c = cycle_complex(6)
    with pytest.raises(PreconditionError):
        extend_by_zero(Cochain.of(CellSet.of(c, ["c0", "c1", "w1"]), 1, {"c0": 1}))


def restrict(w: Cochain, domain: CellSet) -> Cochain:
    """The values of ``w`` on the cells of ``domain``."""
    return Cochain(domain, w.degree, {c: v for c, v in w.values.items() if c in domain.members})


def test_restrict_then_extend_differs_only_outside_owner():
    c = cycle_complex(6)
    w = Cochain.of(c.whole_set(), 0, {f"w{k}": k + 1 for k in range(6)})
    closed = closure(CellSet.of(c, ["c0"]))
    back = extend_by_zero(restrict(w, closed))
    for v in c.cells_of_dim(0):
        if v in closed.members:
            assert back.value(v) == w.value(v)
        else:
            assert back.value(v) == 0 != w.value(v)


def test_integrate_disjoint_pieces_is_sum():
    pieces = [cycle_complex(3), cycle_complex(4)]
    system = oriented_copy(AdjunctionSystem.assemble(pieces))
    w = assemble_global(
        system,
        [
            Cochain.of(pieces[0].whole_set(), 1, {"c0": Fraction(1, 2)}),
            Cochain.of(pieces[1].whole_set(), 1, {"c2": 4}),
        ],
    )
    assert integrate(w) == Fraction(9, 2)


def test_integrate_two_squares_binary_formula():
    s = two_squares().system
    w = assemble_global(
        s,
        [
            Cochain.of(s.pieces[0].whole_set(), 2, {"A": Fraction(2, 3), "B": 5}),
            Cochain.of(s.pieces[1].whole_set(), 2, {"A": Fraction(-1, 2), "B": 5}),
        ],
    )
    assert integrate(w) == Fraction(31, 6)


def test_integrate_three_piece_system():
    s = line_three_origins().system
    rng = random.Random(5)
    w = random_global_cochain(s, 1, rng)
    value = integrate(w)
    # every edge is identified across all three pieces, so the direct class
    # sum is just the piece-1 integral
    direct = sum(w.value(0, f"e{k}") for k in range(-2, 2))
    assert value == direct


def test_integrate_requires_orientation():
    s = line_two_origins().system
    bare = AdjunctionSystem(s.pieces, s.names, s.regions, s.maps, None)
    w = assemble_global(bare, [Cochain.of(p.whole_set(), 1, {}) for p in bare.pieces])
    with pytest.raises(PreconditionError):
        integrate(w)


def test_integrate_is_linear():
    s = glued_circles().system
    rng = random.Random(11)
    w1 = random_global_cochain(s, 1, rng)
    w2 = random_global_cochain(s, 1, rng)
    lam = Fraction(3, 7)
    combo = assemble_global(
        s,
        [
            Cochain.of(
                s.pieces[k].whole_set(),
                1,
                {
                    c: w1.value(k, c) + lam * w2.value(k, c)
                    for c in s.pieces[k].cells_of_dim(1)
                },
            )
            for k in range(2)
        ],
    )
    assert integrate(combo) == integrate(w1) + lam * integrate(w2)


def test_subdivision_leaves_integral_unchanged():
    for fx in (glued_circles(), two_squares()):
        s = fx.system
        rng = random.Random(13)
        top = s.pieces[0].top_dimension
        w = random_global_cochain(s, top, rng)
        refined = subdivide_system(s)
        w2 = subdivide_top_cochain(w, refined)
        assert integrate(w) == integrate(w2)


def test_stokes_defect_vanishing_boundary_values():
    s = glued_circles().system
    w = assemble_global(
        s, [Cochain.of(p.whole_set(), 0, {"w1": 3, "w2": Fraction(-1, 3)}) for p in s.pieces]
    )
    assert stokes_defect(w) == (0, 0)


def test_stokes_defect_frontier_indicator():
    s = glued_circles().system
    w = assemble_global(s, [Cochain.of(p.whole_set(), 0, {"w0": 1}) for p in s.pieces])
    lhs, rhs = stokes_defect(w)
    assert lhs == rhs
    assert abs(lhs) == 1


def test_stokes_defect_clopen_control():
    s = glued_circles_clopen().system
    rng = random.Random(3)
    w = random_global_cochain(s, 0, rng)
    assert stokes_defect(w) == (0, 0)


def test_stokes_defect_rejects_the_path_pieces_of_line_three_origins():
    s = line_three_origins().system
    w = assemble_global(s, [Cochain.of(p.whole_set(), 0, {}) for p in s.pieces])
    with pytest.raises(PreconditionError, match="is not closed at cell"):
        stokes_defect(w)


@pytest.mark.parametrize(
    "build",
    [lambda: glued_hexagons(3), lambda: glued_hexagons(5), lambda: glued_hexagons(3, HEXAGON_CHAIN)],
    ids=["hexagons_3", "hexagons_5", "chain_3"],
)
def test_stokes_defect_over_the_nerve(build):
    # three and five hexagons on one arc, and a chain whose pair (0, 2) is
    # empty: both sides agree, and the defect is not zero
    s = build().system
    assert validate_system(s).ok
    ramp = {f"w{k}": k for k in range(6)}
    w = assemble_global(s, [Cochain.of(p.whole_set(), 0, ramp) for p in s.pieces])
    lhs, rhs = stokes_defect(w)
    assert lhs == rhs
    assert lhs != 0
    rng = random.Random(43)
    for _ in range(5):
        lhs, rhs = stokes_defect(random_global_cochain(s, 0, rng))
        assert lhs == rhs


@pytest.mark.parametrize(
    "name",
    ["glued_circles", "glued_circles_clopen", "glued_tori", "glued_icosahedra", "tori_2", "tori_3", "tori_4"],
)
def test_stokes_defect_matches_binary_frontier_sum(built, name):
    if name.startswith("tori_"):
        system = torus_pair(int(name[-1])).system
    else:
        system = built[name].system
    rng = random.Random(name)
    top = system.pieces[0].top_dimension
    for _ in range(5):
        w = random_global_cochain(system, top - 1, rng)
        lhs, rhs = stokes_defect(w)
        assert lhs == rhs == oracle.binary_stokes_rhs(w)


def test_stokes_defect_rejects_pieces_with_boundary():
    s = two_squares().system
    w = assemble_global(s, [Cochain.of(p.whole_set(), 1, {}) for p in s.pieces])
    with pytest.raises(PreconditionError):
        stokes_defect(w)


def test_chain_pairing_basics():
    s = glued_circles().system
    classes = glued_cell_classes(s)
    rng = random.Random(17)
    w = random_global_cochain(s, 1, rng)
    zero = make_chain(s, classes, 1, [])
    assert integrate_over_chain(w, zero) == 0
    single = make_chain(s, classes, 1, [(0, "c1", 1)])
    assert integrate_over_chain(w, single) == w.value(0, "c1")
    with pytest.raises(PreconditionError):
        integrate_over_chain(w, make_chain(s, classes, 0, [(0, "w0", 1)]))


def test_chain_level_stokes_randomized():
    s = glued_circles().system
    classes = glued_cell_classes(s)
    rng = random.Random(23)
    for _ in range(40):
        w = random_global_cochain(s, 0, rng)
        items = [
            (rng.randrange(2), f"c{rng.randrange(6)}", random_fraction(rng)) for _ in range(4)
        ]
        c = make_chain(s, classes, 1, items)
        lhs = integrate_over_chain(coboundary_global(w), c)
        rhs = integrate_over_chain(w, boundary_chain(s, classes, c))
        assert lhs == rhs


def test_coboundary_support_containment():
    # locality: dw can only be nonzero on cofaces of the support of w
    from nonhausdorff.cells import star as star_of

    ico = icosahedron_complex()
    rng = random.Random(31)
    support = rng.sample(ico.cells_of_dim(1), 4)
    w = Cochain.of(ico.whole_set(), 1, {c: random_fraction(rng) for c in support})
    dw = coboundary(w)
    allowed = star_of(CellSet.of(ico, support)).members
    assert set(dw.values) <= allowed


def test_global_coboundary_restricts_componentwise():
    s = glued_circles().system
    rng = random.Random(37)
    w = random_global_cochain(s, 0, rng)
    dw = coboundary_global(w)
    for k in range(s.n()):
        assert dw.components[k].values == coboundary(w.components[k]).values


def _mirrored_circles():
    """A hexagon glued to a reversed-incidence hexagon along an open 3-arc,
    so the gluing genuinely relabels cells and crosses reversed edges."""
    from nonhausdorff.cells import CellComplex, Orientation

    c1 = cycle_complex(6)
    cells = [(f"r{k}", 0) for k in range(6)]
    inc = {}
    for k in range(6):
        cells.append((f"s{k}", 1))
        inc[f"s{k}"] = {f"r{(k + 1) % 6}": -1, f"r{k}": 1}
    c2 = CellComplex.build(cells, inc)
    # arc w0 -e-> w1 -e-> w2 -e-> w3 maps onto r0 <-s- r5 <-s- r4 <-s- r3
    pairs = {"c0": "s5", "c1": "s4", "c2": "s3", "w1": "r5", "w2": "r4"}
    closure_pairs = dict(pairs, w0="r0", w3="r3")
    system = AdjunctionSystem.assemble(
        [c1, c2],
        names=["C", "R"],
        regions={(0, 1): ["c0", "c1", "c2", "w1", "w2"]},
        maps={(0, 1): (pairs, closure_pairs)},
        orientations=[
            Orientation({f"c{k}": 1 for k in range(6)}),
            Orientation({f"s{k}": 1 for k in range(6)}),
        ],
    )
    return system


def test_stokes_defect_through_mirrored_gluing():
    system = _mirrored_circles()
    assert validate_system(system).ok
    rng = random.Random(41)
    for _ in range(60):
        w = random_global_cochain(system, 0, rng)
        lhs, rhs = stokes_defect(w)
        assert lhs == rhs
    # and integration agrees with the class sum through the mirror
    for _ in range(20):
        w = random_global_cochain(system, 1, rng)
        integrate(w)  # internal cross-check asserts the equality
