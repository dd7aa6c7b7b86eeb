from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonhausdorff.linalg import Mat, independent_columns, solve_columns
from oracle import apply, gauss_jordan_rank


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
