import json
import random

import pytest

from nonhausdorff import adjunction, cli, cohomology, geometry, refine
from nonhausdorff.adjunction import AdjunctionSystem
from nonhausdorff.cohomology import (
    Flavor,
    FreeComplex,
    _checked_ranks,
    betti,
    build_bicomplex,
    complex_betti,
    de_rham_compare,
    euler_inclusion_exclusion,
    global_complex_betti,
    mv_report,
    quotient_complex,
    row_exactness_check,
    total_betti,
    trim_trailing_zeros,
)
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import (
    FIXTURE_BUILDERS,
    Fixture,
    cycle_complex,
    glued_icosahedra,
    icosahedron_complex,
)
from nonhausdorff.cells import CellComplex
from nonhausdorff.linalg import Mat

from conftest import CORE_FIXTURES, FIXTURES_DIR, GOOD_FIXTURES, random_clopen_system, torus_pair
from oracle import apply


def test_betti_circle():
    assert complex_betti(cycle_complex(3)) == [1, 1]


def test_betti_icosahedron():
    assert complex_betti(icosahedron_complex()) == [1, 0, 1]


def test_betti_two_points():
    c = CellComplex.build([("a", 0), ("b", 0)])
    assert complex_betti(c) == [2]


def test_bicomplex_columns_line_two_origins(built):
    fx = built["line_two_origins"]
    closed = build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores)
    # the closure of the two rays is the whole path: 5 vertices, 4 edges
    assert closed.dim(1, 0) == 5
    assert closed.dim(1, 1) == 4
    opened = build_bicomplex(fx.system, Flavor.OPEN_CORE, fx.cores)
    # the two-component core: 4 vertices, 2 edges
    assert opened.dim(1, 0) == 4
    assert opened.dim(1, 1) == 2


def test_bicomplex_identities_hold(built):
    for name in CORE_FIXTURES:
        fx = built[name]
        for flavor in Flavor:
            bicx = build_bicomplex(fx.system, flavor, fx.cores, check_preconditions=False)
            bicx.verify()


def test_single_piece_bicomplex_degenerates():
    piece = icosahedron_complex()
    system = AdjunctionSystem.assemble([piece])
    for flavor in Flavor:
        assert trim_trailing_zeros(total_betti(build_bicomplex(system, flavor))) == [1, 0, 1]


def test_total_betti_line_two_origins(built):
    fx = built["line_two_origins"]
    assert total_betti(build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores)) == [1, 0, 0]
    assert total_betti(build_bicomplex(fx.system, Flavor.OPEN_CORE, fx.cores)) == [1, 1, 0]


def test_total_betti_variant_n(built):
    fx = built["variant_n"]
    assert total_betti(build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores)) == [1, 1, 0]
    assert total_betti(build_bicomplex(fx.system, Flavor.OPEN_CORE, fx.cores)) == [1, 1, 0]


def test_closed_flavor_requires_closure_property(built):
    fx = built["closure_violation"]
    with pytest.raises(PreconditionError, match="closure-intersection"):
        build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION)


def test_open_flavor_requires_cores(built):
    fx = built["two_squares"]
    with pytest.raises(PreconditionError, match="core"):
        build_bicomplex(fx.system, Flavor.OPEN_CORE)


def test_global_complex_equals_total_closed(built):
    for name in GOOD_FIXTURES:
        fx = built[name]
        total = trim_trailing_zeros(
            total_betti(build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores))
        )
        alternative = trim_trailing_zeros(global_complex_betti(fx.system))
        assert total == alternative, name


def test_row_exactness_on_good_fixtures(built):
    for name in GOOD_FIXTURES:
        fx = built[name]
        report = row_exactness_check(fx.system)
        assert report.precondition_ok, name
        assert report.all_exact, name


def test_row_exactness_reported_not_asserted_on_violation(built):
    report = row_exactness_check(built["closure_violation"].system)
    assert not report.precondition_ok
    # exactness may or may not hold; the report must still carry every node
    assert set(report.nodes) == {0, 1}
    assert all(len(nodes) == 3 for nodes in report.nodes.values())


def test_mv_report_line_two_origins(built):
    fx = built["line_two_origins"]
    closed = mv_report(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores)
    by_q = {row.q: row for row in closed.rows}
    assert (by_q[0].h_pieces, by_q[0].h_domain) == (2, 1)
    assert by_q[1].h_total == 0
    assert closed.alternating_sum == 0 and closed.exact
    opened = mv_report(fx.system, Flavor.OPEN_CORE, fx.cores)
    by_q = {row.q: row for row in opened.rows}
    assert by_q[0].h_domain == 2
    assert by_q[1].h_total == 1
    assert opened.alternating_sum == 0 and opened.exact


def test_mv_report_disjoint_pieces_is_direct_sum():
    pieces = [cycle_complex(3), icosahedron_complex()]
    system = AdjunctionSystem.assemble(pieces)
    report = mv_report(system, Flavor.CLOSED_INTERSECTION)
    by_q = {row.q: row for row in report.rows}
    assert by_q[0].h_total == 2  # two components
    assert by_q[1].h_total == 1  # the circle
    assert by_q[2].h_total == 1  # the sphere
    assert report.exact


def test_mv_report_rejects_non_binary(built):
    with pytest.raises(PreconditionError):
        mv_report(built["line_three_origins"].system)


def test_euler_values(built):
    assert euler_inclusion_exclusion(
        built["line_two_origins"].system, built["line_two_origins"].cores
    ) == 0
    assert euler_inclusion_exclusion(
        built["glued_icosahedra"].system, built["glued_icosahedra"].cores
    ) == 3
    assert euler_inclusion_exclusion(
        built["line_three_origins"].system, built["line_three_origins"].cores
    ) == -1


def test_euler_disjoint_pieces_is_sum():
    system = AdjunctionSystem.assemble([cycle_complex(3), icosahedron_complex()])
    assert euler_inclusion_exclusion(system) == 0 + 2


def test_euler_matches_alternating_open_betti(built):
    for name in CORE_FIXTURES:
        fx = built[name]
        chi = euler_inclusion_exclusion(fx.system, fx.cores)
        b = total_betti(build_bicomplex(fx.system, Flavor.OPEN_CORE, fx.cores))
        assert chi == sum((-1) ** q * v for q, v in enumerate(b)), name


def test_compare_verdicts(built):
    line = de_rham_compare(built["line_two_origins"].system, built["line_two_origins"].cores)
    assert not line.equal and not line.hypotheses_hold
    n = de_rham_compare(built["variant_n"].system, built["variant_n"].cores)
    assert n.equal and n.hypotheses_hold
    clopen = de_rham_compare(
        built["glued_circles_clopen"].system, built["glued_circles_clopen"].cores
    )
    assert clopen.equal


def test_regular_open_hypotheses_imply_equal_flavors(built):
    for name in CORE_FIXTURES:
        fx = built[name]
        report = de_rham_compare(fx.system, fx.cores)
        if report.hypotheses_hold:
            assert report.equal, name


def test_compare_has_no_preconditions(built):
    fx = built["closure_violation"]
    report = de_rham_compare(fx.system, fx.cores)
    assert not report.closure_intersection_ok
    assert not report.hypotheses_hold
    assert len(report.de_rham) == len(report.singular)


def test_oracle_equivalence_random_clopen_systems():
    rng = random.Random(90125)
    for _ in range(8):
        system = random_clopen_system(rng)
        quotient, _ = quotient_complex(system)
        want = trim_trailing_zeros(complex_betti(quotient))
        closed = trim_trailing_zeros(total_betti(build_bicomplex(system, Flavor.CLOSED_INTERSECTION)))
        opened = trim_trailing_zeros(total_betti(build_bicomplex(system, Flavor.OPEN_CORE)))
        assert closed == want
        assert opened == want


def test_cech_differential_binary_block_is_restriction_minus_pullback(built):
    # on the closed flavor the p=0 -> p=1 block sends (w_1, w_2) to
    # w_1|closure - (closure extension pullback of w_2)
    fx = built["line_two_origins"]
    bicx = build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores)
    mat = bicx.delta(0, 0)
    col = {bicx.index[(0, 0)][((0,), "v1")]: 1}
    image = apply(mat, col)
    row = bicx.index[(1, 0)][((0, 1), "v1")]
    assert image == {row: 1}
    col = {bicx.index[(0, 0)][((1,), "v1")]: 1}
    image = apply(mat, col)
    assert image == {row: -1}


def test_global_complex_betti_single_piece():
    system = AdjunctionSystem.assemble([icosahedron_complex()])
    assert global_complex_betti(system) == [1, 0, 1]


def test_free_complex_rejects_nonzero_composition():
    from fractions import Fraction

    from nonhausdorff.cohomology import FreeComplex, betti
    from nonhausdorff.linalg import Mat

    d0 = Mat.zeros(1, 1)
    d0.add_to(0, 0, Fraction(1))
    d1 = Mat.zeros(1, 1)
    d1.add_to(0, 0, Fraction(1))
    with pytest.raises(PreconditionError):
        betti(FreeComplex([["a"], ["b"], ["c"]], [d0, d1]))


def test_core_nesting_violation_is_rejected(built):
    from nonhausdorff.cells import CellSet
    from nonhausdorff.cohomology import CoreAssignment, resolve_cores
    from nonhausdorff.fixtures import line_three_origins

    fx = line_three_origins()
    bad = dict(fx.cores.cores)
    bad[(0, 1)] = CellSet.of(fx.system.pieces[0], ["v-2"])  # triple core sticks out
    with pytest.raises(PreconditionError, match="not contained in the core"):
        resolve_cores(fx.system, CoreAssignment(bad))


def test_rank_nullity_dimension_identity(built):
    # sum (-1)^q dim C^q = sum (-1)^q b_q for the total complexes
    fx = built["glued_circles"]
    bicx = build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores)
    fc = bicx.total_complex()
    from nonhausdorff.cohomology import betti as betti_fn

    b = betti_fn(fc)
    dims = [fc.dim(q) for q in range(len(fc.bases))]
    assert sum((-1) ** q * d for q, d in enumerate(dims)) == sum(
        (-1) ** q * v for q, v in enumerate(b)
    )


def test_subdivision_preserves_both_flavors(built):
    from nonhausdorff.refine import subdivide_cores, subdivide_system

    fx = built["line_two_origins"]
    refined = subdivide_system(fx.system)
    cores = subdivide_cores(fx.system, fx.cores, refined)
    dr = total_betti(build_bicomplex(refined, Flavor.CLOSED_INTERSECTION, cores))
    sing = total_betti(build_bicomplex(refined, Flavor.OPEN_CORE, cores))
    assert trim_trailing_zeros(dr) == [1]
    assert trim_trailing_zeros(sing) == [1, 1]


def _theta_graph():
    # two vertices joined by three parallel edges: homotopy type of the
    # tripled-origin line (b = 1, 2)
    return CellComplex.build(
        [("p", 0), ("q", 0), ("a", 1), ("b", 1), ("c", 1)],
        {e: {"p": -1, "q": 1} for e in ("a", "b", "c")},
    )


def _wedge_of_two_spheres():
    # two tetrahedron boundaries sharing one vertex
    cells = []
    inc = {}
    for tag in ("L", "R"):
        verts = ["hub" if k == 0 else f"{tag}{k}" for k in range(4)]
        for v in verts:
            if (v, 0) not in cells:
                cells.append((v, 0))
        edge_of = {}
        for a in range(4):
            for b in range(a + 1, 4):
                name = f"{tag}e{a}{b}"
                edge_of[(a, b)] = name
                cells.append((name, 1))
                inc[name] = {verts[a]: -1, verts[b]: 1}
        t = 0
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(b + 1, 4):
                    name = f"{tag}t{t}"
                    cells.append((name, 2))
                    inc[name] = {
                        edge_of[(b, c)]: 1,
                        edge_of[(a, c)]: -1,
                        edge_of[(a, b)]: 1,
                    }
                    t += 1
    return CellComplex.build(cells, inc)


def _tori_pushout():
    # two 3x4 grid tori sharing the middle circle: the homotopy pushout that
    # models the open-annulus gluing of the glued_tori fixture
    from nonhausdorff.fixtures import torus_complex

    ncols = 3
    shared = {f"v{x},1" for x in range(ncols)} | {f"h{x},1" for x in range(ncols)}
    cells = []
    inc = {}
    for tag in ("A", "B"):
        torus = torus_complex()

        def rename(c, tag=tag):
            return c if c in shared else f"{tag}{c}"

        for c, d in torus.dims.items():
            if c in shared and tag == "B":
                continue
            cells.append((rename(c), d))
        for c, row in torus.faces.items():
            if c in shared and tag == "B":
                continue
            inc[rename(c)] = {rename(f): s for f, s in row.items()}
    return CellComplex.build(cells, inc)


def test_open_flavor_matches_independent_homotopy_models(built):
    cases = [
        ("line_two_origins", complex_betti(cycle_complex(4))),
        ("line_three_origins", complex_betti(_theta_graph())),
        ("line_three_origins_mixed", complex_betti(_theta_graph())),
        ("glued_icosahedra", complex_betti(_wedge_of_two_spheres())),
        ("glued_tori", complex_betti(_tori_pushout())),
    ]
    for name, want in cases:
        fx = built[name]
        got = trim_trailing_zeros(
            total_betti(build_bicomplex(fx.system, Flavor.OPEN_CORE, fx.cores))
        )
        assert got == trim_trailing_zeros(want), name


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_assembled_matrices_hold_int_entries(built, name):
    """Every matrix the library assembles is integer; a Fraction wrap in
    assembly would make every rank pay for rational arithmetic."""
    fx = built[name]
    for flavor in Flavor:
        try:
            bicx = build_bicomplex(fx.system, flavor, fx.cores, check_preconditions=False)
        except PreconditionError:
            # two_squares declares no core for its open, not face-closed intersection
            assert (name, flavor) == ("two_squares", Flavor.OPEN_CORE)
            continue
        mats = [*bicx.vertical.values(), *bicx.horizontal.values(), *bicx.total_complex().maps]
        types = {type(v) for m in mats for row in m.rows for v in row.values()}
        assert types <= {int}, (flavor, types)


def _subdivided_icosahedra(rounds: int) -> Fixture:
    fx = glued_icosahedra()
    system, cores = fx.system, fx.cores
    for _ in range(rounds):
        refined = refine.subdivide_system(system)
        system, cores = refined, refine.subdivide_cores(system, cores, refined)
    return Fixture(f"icosahedra_r{rounds}", system, cores)


@pytest.mark.parametrize(
    "build, expected",
    [(lambda: torus_pair(16), [1, 3, 2]), (lambda: _subdivided_icosahedra(3), [1, 0, 2])],
    ids=["torus_pair_16", "icosahedra_subdivided_3"],
)
def test_betti_numbers_at_scale(build, expected):
    fx = build()
    for flavor in Flavor:
        assert trim_trailing_zeros(total_betti(build_bicomplex(fx.system, flavor, fx.cores))) == expected
    report = mv_report(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores)
    assert report.exact
    assert trim_trailing_zeros([row.h_total for row in report.rows]) == expected


@pytest.mark.parametrize("ranks_of", [betti, _checked_ranks])
def test_d_squared_is_checked_before_any_rank(monkeypatch, ranks_of):
    # clearing may drop rows of D_0 only when D_1 D_0 = 0; here D_1 D_0 = [1]
    calls = []
    rank = Mat.rank

    def counted(mat, pivots=None):
        calls.append(mat)
        return rank(mat, pivots)

    monkeypatch.setattr(Mat, "rank", counted)
    one = lambda: Mat(1, 1, [{0: 1}])
    fc = FreeComplex([["a"], ["b"], ["c"]], [one(), one()])
    with pytest.raises(PreconditionError, match="d∘d != 0 between degrees 0 and 2"):
        ranks_of(fc)
    assert calls == []


@pytest.fixture
def nerve_walks(monkeypatch):
    """The systems passed to ``nerve``, rebound in every module that binds it."""
    walks = []
    walk = adjunction.nerve

    def counted(system):
        walks.append(system)
        return walk(system)

    for module in (adjunction, cohomology, geometry, cli):
        if getattr(module, "nerve", None) is walk:
            monkeypatch.setattr(module, "nerve", counted)
    return walks


def test_compare_walks_the_nerve_once(nerve_walks, built):
    for name in ["glued_tori", "line_three_origins", "closure_violation"]:
        nerve_walks.clear()
        de_rham_compare(built[name].system, built[name].cores)
        assert nerve_walks == [built[name].system], name


@pytest.mark.parametrize("name", ["glued_tori", "line_three_origins", "glued_icosahedra"])
def test_euler_walks_the_nerve_once(nerve_walks, capsys, name):
    assert cli.main(["--json", "euler", str(FIXTURES_DIR / f"{name}.json")]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["match"]
    assert len(nerve_walks) == 1


@pytest.mark.parametrize("name", ["glued_tori", "glued_icosahedra"])
def test_gauss_bonnet_walks_the_nerve_once(nerve_walks, built, name):
    fx = built[name]
    report = geometry.gauss_bonnet_report(fx.system, fx.metrics, fx.cores)
    assert abs(report.residual) <= 1e-9
    assert nerve_walks == [fx.system]


@pytest.mark.parametrize("name", ["glued_tori", "line_three_origins", "closure_violation"])
def test_row_exactness_walks_the_nerve_once(nerve_walks, built, name):
    system = built[name].system
    report = row_exactness_check(system)
    assert report.closure_checks == {entry.tup: entry.closure_ok for entry in adjunction.nerve(system)}
    assert nerve_walks == [system, system]  # the check's walk, then the one just above
