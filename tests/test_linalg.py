from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nonhausdorff.linalg import Mat, independent_columns, solve_columns
from oracle import apply


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
