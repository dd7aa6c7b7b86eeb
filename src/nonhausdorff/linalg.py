"""Sparse exact linear algebra over the integers and the rationals.

All cohomology in this package reduces to :meth:`Mat.rank`: Betti numbers,
kernels of the Cech differential and ranks of induced maps on cohomology are
all ranks of (stacked) matrices.  Every matrix the library builds has ``int``
entries, and the rank is taken by sparse forward elimination, sparsest row
first on a +-1 pivot (Markowitz order, :func:`_rank`), which stays in ``int``
arithmetic; a ``Fraction`` appears only for a row without a +-1 entry.
``Mat.nullspace``, ``solve_columns`` and ``independent_columns`` have no
caller in the library; they remain, with the Gauss-Jordan ``_eliminate``
behind them, because the test oracle builds its explicit-basis reference
from them and the benchmark's tracer binds them by name.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError

Vec = dict[int, int | Fraction]


@dataclass(eq=False)
class Mat:
    """Sparse exact matrix; ``rows[r][c]`` holds the nonzero entries."""

    nrows: int
    ncols: int
    rows: list[Vec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.rows:
            self.rows = [dict() for _ in range(self.nrows)]

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        return cls(nrows, ncols)

    def add_to(self, r: int, c: int, v: int | Fraction) -> None:
        value = self.rows[r].get(c, 0) + v
        if value:
            self.rows[r][c] = value
        else:
            self.rows[r].pop(c, None)

    def entry(self, r: int, c: int) -> int | Fraction:
        return self.rows[r].get(c, 0)

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def copy_rows(self) -> list[Vec]:
        return [dict(row) for row in self.rows]

    def matmul(self, other: "Mat") -> "Mat":
        """self @ other (self maps other's target onward)."""
        if self.ncols != other.nrows:
            raise PreconditionError(
                f"matmul: a {self.nrows}x{self.ncols} matrix cannot multiply a "
                f"{other.nrows}x{other.ncols} one"
            )
        out = Mat.zeros(self.nrows, other.ncols)
        for r in range(self.nrows):
            for k, a in self.rows[r].items():
                for c, b in other.rows[k].items():
                    out.add_to(r, c, a * b)
        return out

    def rank(self) -> int:
        return _rank(self.rows)

    def nullspace(self) -> list[Vec]:
        """Basis of ``{x : self @ x = 0}``, one vector per free column."""
        pivots, rows = _eliminate(self.copy_rows())
        pivot_cols = {c: r for r, c in pivots}
        basis: list[Vec] = []
        for free in range(self.ncols):
            if free in pivot_cols:
                continue
            vec: Vec = {free: Fraction(1)}
            for pc, r in pivot_cols.items():
                coeff = rows[r].get(free)
                if coeff:
                    vec[pc] = -coeff
            basis.append(vec)
        return basis


def _rank(rows: list[Vec]) -> int:
    """Rank by sparse forward elimination on copies of ``rows``.

    No back substitution and no row normalisation.  The sparsest live row is
    taken from a lazy heap keyed by current length; its pivot is, among its
    +-1 entries (all its entries when it has none), the one whose column has
    the fewest other live rows.  Every live row holding that column, found
    through a column -> rows index, is cleared there, and the pivot row is
    retired.  The factor is ``a * pivot`` for a unit pivot and
    ``Fraction(a, pivot)`` otherwise: ``a / pivot`` would be a float for
    ``int`` entries and lose exactness.
    """
    live: dict[int, Vec] = {r: dict(row) for r, row in enumerate(rows) if row}
    by_col: dict[int, set[int]] = {}
    for r, row in live.items():
        for c in row:
            by_col.setdefault(c, set()).add(r)
    heap = [(len(row), r) for r, row in live.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, r = heapq.heappop(heap)
        row = live.get(r)
        if row is None or len(row) != length:
            continue  # a stale key: the row was retired or has changed since
        del live[r]
        for c in row:
            by_col[c].discard(r)
        units = [c for c, v in row.items() if v == 1 or v == -1]
        col = min(units or row, key=lambda c: len(by_col[c]))
        pivot = row[col]
        rank += 1
        for o in by_col.pop(col):
            other = live[o]
            factor = other[col] * pivot if units else Fraction(other[col], pivot)
            for c, v in row.items():
                value = other.get(c, 0) - factor * v
                if value:
                    if c not in other:
                        by_col[c].add(o)
                    other[c] = value
                else:
                    del other[c]
                    if c != col:
                        by_col[c].discard(o)
            if other:
                heapq.heappush(heap, (len(other), o))
            else:
                del live[o]
    return rank


def _eliminate(rows: list[Vec]) -> tuple[list[tuple[int, int]], list[Vec]]:
    """Gauss-Jordan: returns (pivots as (row, col) pairs, reduced rows).

    Serves only ``Mat.nullspace``, ``solve_columns`` and ``independent_columns``.
    """
    pivots: list[tuple[int, int]] = []
    used: set[int] = set()
    # visit columns in the order they appear; deterministic ascending scan
    active_cols = sorted({c for row in rows for c in row})
    for col in active_cols:
        pivot_row = -1
        best = None
        for r, row in enumerate(rows):
            if r in used or col not in row:
                continue
            if best is None or len(row) < best:
                best = len(row)
                pivot_row = r
        if pivot_row < 0:
            continue
        used.add(pivot_row)
        pivots.append((pivot_row, col))
        prow = rows[pivot_row]
        inv = Fraction(1) / prow[col]
        if inv != 1:
            for c in list(prow):
                prow[c] *= inv
        for r, row in enumerate(rows):
            if r == pivot_row or col not in row:
                continue
            factor = row[col]
            for c, v in prow.items():
                value = row.get(c, Fraction(0)) - factor * v
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
    pivots.sort(key=lambda rc: rc[1])
    return pivots, rows


def solve_columns(columns: list[Vec], nrows: int, target: Vec) -> list[Fraction] | None:
    """Coefficients x with ``sum x_j * columns[j] == target``, or None."""
    k = len(columns)
    rows: list[Vec] = [dict() for _ in range(nrows)]
    for j, colvec in enumerate(columns):
        for r, v in colvec.items():
            rows[r][j] = v
    for r, v in target.items():
        if v:
            rows[r][k] = v
    pivots, reduced = _eliminate(rows)
    coeffs = [Fraction(0)] * k
    for r, c in pivots:
        if c == k:
            return None  # inconsistent
        coeffs[c] = reduced[r].get(k, Fraction(0))
    return coeffs


def independent_columns(columns: list[Vec], nrows: int) -> list[int]:
    """Indices of a maximal independent subset, scanned left to right."""
    chosen: list[int] = []
    rows: list[Vec] = [dict() for _ in range(nrows)]
    pivot_of_col: dict[int, int] = {}
    for j, colvec in enumerate(columns):
        vec = dict(colvec)
        # reduce against previously chosen pivots
        for pc, pr in sorted(pivot_of_col.items()):
            if pc in vec:
                factor = vec[pc]
                for c, v in rows[pr].items():
                    value = vec.get(c, Fraction(0)) - factor * v
                    if value:
                        vec[c] = value
                    else:
                        vec.pop(c, None)
        if not vec:
            continue
        # normalize on its first nonzero coordinate
        lead = min(vec)
        inv = Fraction(1) / vec[lead]
        if inv != 1:
            vec = {c: v * inv for c, v in vec.items()}
        rows[len(chosen)] = vec
        pivot_of_col[lead] = len(chosen)
        chosen.append(j)
    return chosen
