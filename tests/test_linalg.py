import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonhausdorff.cohomology import Flavor, build_bicomplex
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import FIXTURE_BUILDERS, Fixture
from nonhausdorff.linalg import Mat, complex_ranks, independent_columns, solve_columns
from oracle import apply, gauss_jordan_rank

from conftest import (
    HEXAGON_CHAIN,
    glued_hexagons,
    hub_with_spokes,
    k_origin_line,
    random_clopen_system,
    torus_pair,
)


def mat_from_rows(rows):
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    m = Mat.zeros(nrows, ncols)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                m.add_to(r, c, Fraction(v))
    return m


def test_rank_and_nullspace_of_known_matrix():
    m = mat_from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    ns = m.nullspace()
    assert len(ns) == 1
    vec = ns[0]
    for r in range(m.nrows):
        total = sum(m.entry(r, c) * vec.get(c, Fraction(0)) for c in range(m.ncols))
        assert total == 0


def test_solve_columns_consistent_and_inconsistent():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    target = {0: Fraction(2), 1: Fraction(5)}
    coeffs = solve_columns(cols, 2, target)
    assert coeffs == [Fraction(2), Fraction(3)]
    assert solve_columns([{0: Fraction(1)}], 2, {1: Fraction(1)}) is None


def test_independent_columns_picks_leftmost_basis():
    cols = [
        {0: Fraction(1)},
        {0: Fraction(2)},
        {1: Fraction(1)},
        {0: Fraction(1), 1: Fraction(1)},
    ]
    assert independent_columns(cols, 2) == [0, 2]


@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(nrows, ncols, data):
    entries = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, nrows - 1),
                st.integers(0, ncols - 1),
                st.integers(-4, 4),
            ),
            max_size=12,
        )
    )
    m = Mat.zeros(nrows, ncols)
    for r, c, v in entries:
        if v:
            m.add_to(r, c, Fraction(v))
    assert m.rank() + len(m.nullspace()) == ncols
    for vec in m.nullspace():
        assert apply(m, vec) == {}


def test_matmul_agrees_with_apply():
    a = mat_from_rows([[1, 2], [0, 1], [3, 0]])
    b = mat_from_rows([[1, 0, 2], [0, 1, 1]])
    prod = a.matmul(b)
    for col, vec in enumerate(({0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)})):
        direct = apply(a, apply(b, vec))
        via = {r: prod.entry(r, col) for r in range(prod.nrows) if prod.entry(r, col)}
        assert direct == via


UNITS = st.sampled_from([1, -1])
NON_UNITS = st.sampled_from([2, -2, 3, -3, 5, 7])
FRACTIONS = st.fractions(-5, 5, max_denominator=4).filter(bool)
ENTRY_KINDS = {
    "units": UNITS,
    "ints": st.one_of(UNITS, NON_UNITS),
    "non-units": NON_UNITS,
    "fractions": FRACTIONS,
    "mixed": st.one_of(UNITS, NON_UNITS, FRACTIONS),
}


@st.composite
def sparse_matrices(draw):
    """Sparse matrices with 0-7 rows and columns and the entries of one kind;
    rows may be empty, repeat an earlier row or add up two earlier ones."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    values = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    rows: list[dict] = []
    for _ in range(nrows):
        how = draw(st.sampled_from(["fresh", "fresh", "repeat", "sum"])) if rows else "fresh"
        if how == "repeat":
            row = dict(draw(st.sampled_from(rows)))
        elif how == "sum":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = {c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()}
            row = {c: v for c, v in row.items() if v}
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else set()
            row = {c: draw(values) for c in sorted(cols)}
        rows.append(row)
    return Mat(nrows, ncols, rows)


# rows without a unit entry: the elimination needs its exact Fraction factor
@example(Mat(3, 2, [{0: 5, 1: 2}, {0: 3, 1: -2}, {0: -2, 1: 3}]))
@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_gauss_jordan(m):
    before = m.copy_rows()
    assert m.rank() == gauss_jordan_rank(m)
    assert m.rows == before


def test_add_to_keeps_int_entries_and_drops_zeros():
    m = Mat.zeros(1, 2)
    m.add_to(0, 0, 2)
    m.add_to(0, 0, -3)
    m.add_to(0, 1, 1)
    m.add_to(0, 1, -1)
    assert m.rows == [{0: -1}]
    assert type(m.entry(0, 0)) is int and type(m.entry(0, 1)) is int


# -- ranking a cochain complex with clearing ------------------------------------


def clopen(seed):
    return Fixture("clopen", random_clopen_system(random.Random(seed)))


SYSTEMS = {
    **FIXTURE_BUILDERS,
    **{f"hub_{k}_{gap}": partial(hub_with_spokes, k, gap) for k, gap in [(2, 2), (4, 3), (6, 4)]},
    **{f"origins_{k}": partial(k_origin_line, k) for k in range(2, 6)},
    **{f"torus_pair_{n}": partial(torus_pair, n) for n in (2, 3)},
    "hexagons_3": partial(glued_hexagons, 3),
    "hexagons_chain": partial(glued_hexagons, 3, HEXAGON_CHAIN),
    **{f"clopen_{seed}": partial(clopen, seed) for seed in range(4)},
}


def cochain_complexes(fx):
    """The maps of the total complex and of every column complex, for each
    flavor whose bicomplex builds and satisfies d∘d = 0."""
    out = []
    for flavor in Flavor:
        try:
            bicx = build_bicomplex(fx.system, flavor, fx.cores, check_preconditions=False)
        except PreconditionError:
            continue
        out.append(bicx.total_complex().maps)
        out += [[bicx.vertical[(p, q)] for q in range(bicx.max_q)] for p in range(bicx.columns())]
    return [maps for maps in out if is_complex(maps)]


def is_complex(maps):
    return all(up.matmul(here).is_zero() for here, up in zip(maps, maps[1:]))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_complex_ranks_match_ranking_each_map(name):
    complexes = cochain_complexes(SYSTEMS[name]())
    assert complexes
    for maps in complexes:
        before = [m.copy_rows() for m in maps]
        assert complex_ranks(maps) == [m.rank() for m in maps]
        assert [m.rows for m in maps] == before


def _dense_mul(a, b, ncols):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(ncols)] for row in a]


@st.composite
def unimodular(draw, dim):
    """A random integer matrix of determinant +-1 and its integer inverse,
    as products of elementary additions and sign flips."""
    u = [[int(r == c) for c in range(dim)] for r in range(dim)]
    u_inv = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 3 * dim))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i == j:  # u S and S u_inv, S flipping the sign of coordinate i
            for row in u:
                row[i] = -row[i]
            u_inv[i] = [-v for v in u_inv[i]]
            continue
        m = draw(st.sampled_from([-2, -1, 1, 2]))
        for row in u:  # u E with E = I + m e_ij
            row[j] += m * row[i]
        u_inv[i] = [a - m * b for a, b in zip(u_inv[i], u_inv[j])]  # E^-1 u_inv
    return u, u_inv


@st.composite
def conjugated_complexes(draw):
    """A cochain complex of known ranks with non-unit entries: a direct sum of
    pieces Q in one degree and Q -[c]-> Q, c in {1, 2, 3, -2}, in two, with
    each degree's basis changed by a random unimodular integer matrix."""
    top = draw(st.integers(1, 4))
    dims = [0] * (top + 1)
    ranks = [0] * top
    entries = []  # (degree n, row, column, c) of the block-diagonal D_n
    for _ in range(draw(st.integers(0, 9))):
        n = draw(st.integers(0, top))
        if n < top and draw(st.booleans()):
            entries.append((n, dims[n + 1], dims[n], draw(st.sampled_from([1, 2, 3, -2]))))
            dims[n + 1] += 1
            ranks[n] += 1
        dims[n] += 1
    changes = [draw(unimodular(dim)) if dim else ([], []) for dim in dims]
    maps = []
    for n in range(top):
        block = [[0] * dims[n] for _ in range(dims[n + 1])]
        for degree, r, c, value in entries:
            if degree == n:
                block[r][c] = value
        conj = _dense_mul(_dense_mul(changes[n + 1][0], block, dims[n]), changes[n][1], dims[n])
        rows = [{c: v for c, v in enumerate(row) if v} for row in conj]
        maps.append(Mat(dims[n + 1], dims[n], rows))
    return maps, ranks


# every entry non-unit: ranking D_0 on its own takes a Fraction factor
@example(([Mat(2, 2, [{0: 2, 1: 4}, {0: 3, 1: 6}]), Mat(1, 2, [{0: 3, 1: -2}])], [1, 1]))
@given(conjugated_complexes())
@settings(max_examples=200, deadline=None)
def test_complex_ranks_of_conjugated_complexes(case):
    maps, ranks = case
    assert is_complex(maps)
    assert complex_ranks(maps) == [m.rank() for m in maps] == ranks
