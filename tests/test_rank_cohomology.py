"""Rank-only fibre-product and Mayer-Vietoris cohomology against the
explicit-basis references kept in oracle.py.

The cases are the shipped fixtures, generated non-Hausdorff covers (hub
paths with 2-6 spokes at spacing 2-4, k-origin lines with k = 2-5, two tori
glued along an open annulus) and random clopen systems.  Outcomes are
compared as values or library error messages; ``mv_report`` is compared for
both flavors, and on systems that are not binary both sides must reject.
``mv_report`` ranks each matrix once: the total differentials, d_A and d_B,
each complex with clearing, so fewer rows reach the rank than they hold.

On the same cases and on random ``int``/``Fraction`` products that cancel,
the row-at-a-time bicomplex assembly, total complex and ``Mat.matmul`` are
compared row by row with the ``add_to`` references, and no stored entry may
be 0: ``Mat.is_zero`` and the row comparison in ``Bicomplex.verify`` rely on
that.
"""

from __future__ import annotations

import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff.adjunction import nerve
from nonhausdorff.cohomology import (
    Bicomplex,
    Flavor,
    _assemble,
    _column_tuples,
    _flavor_domains,
    build_bicomplex,
    global_complex_betti,
    mv_report,
)
from nonhausdorff.fixtures import FIXTURE_BUILDERS, Fixture
from nonhausdorff.linalg import Mat

from conftest import hub_with_spokes, k_origin_line, outcome, random_clopen_system, torus_pair

cases = st.one_of(
    st.sampled_from(sorted(FIXTURE_BUILDERS)).map(lambda name: FIXTURE_BUILDERS[name]()),
    st.builds(hub_with_spokes, st.integers(2, 6), st.integers(2, 4)),
    st.builds(k_origin_line, st.integers(2, 5)),
    st.builds(torus_pair, st.integers(2, 4)),
    st.integers(0, 2**16).map(lambda seed: Fixture("clopen", random_clopen_system(random.Random(seed)))),
)


def rows(report):
    return report.flavor, [astuple(row) for row in report.rows], report.alternating_sum


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fx=cases)
def test_rank_formulas_match_the_explicit_bases(fx):
    system = fx.system
    assert outcome(global_complex_betti, system) == outcome(oracle.global_complex_betti, system)
    for flavor in Flavor:
        got = outcome(lambda: rows(mv_report(system, flavor, fx.cores)))
        want = outcome(lambda: rows(oracle.mv_report(system, flavor, fx.cores)))
        assert got == want, flavor


@pytest.mark.parametrize(
    "name, budget", [("glued_tori", 7), ("glued_icosahedra", 7), ("line_two_origins", 4)]
)
def test_mv_report_ranks_each_matrix_once(monkeypatch, name, budget):
    fx = FIXTURE_BUILDERS[name]()
    calls = []
    rank = Mat.rank

    def counted(mat, pivots=None):
        calls.append(mat)
        return rank(mat, pivots)

    monkeypatch.setattr(Mat, "rank", counted)
    for flavor in Flavor:
        calls.clear()
        mv_report(fx.system, flavor, fx.cores)
        assert len(calls) == budget, flavor
        if name == "glued_tori":
            # clearing leaves out the rows that the next differential's pivots cover
            bicx = build_bicomplex(fx.system, flavor, fx.cores)
            held = [*bicx.total_complex().maps, *bicx.vertical.values()]
            assert sum(mat.nrows for mat in calls) < sum(mat.nrows for mat in held), flavor


def stored(mat):
    """Shape and rows of ``mat``, which must hold no 0 entry."""
    assert all(v for row in mat.rows for v in row.values())
    return mat.nrows, mat.ncols, mat.rows


def assembled(assemble, total_complex, matmul, system, flavor, cores):
    """Every block, total differential and d-delta product, as stored rows."""
    domains = _flavor_domains(system, flavor, cores, False, nerve(system))
    bicx = assemble(system, flavor, _column_tuples(system, domains), domains)
    mats = [*bicx.vertical.values(), *bicx.horizontal.values()]
    total = total_complex(bicx)
    mats += total.maps
    mats += [matmul(up, here) for here, up in zip(total.maps, total.maps[1:])]
    for (p, q), h in bicx.horizontal.items():
        if (p, q + 1) in bicx.horizontal and (p, q) in bicx.vertical:
            mats.append(matmul(bicx.horizontal[(p, q + 1)], bicx.vertical[(p, q)]))
            mats.append(matmul(bicx.vertical[(p + 1, q)], h))
    return [total.bases] + [stored(m) for m in mats]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fx=cases)
def test_sparse_assembly_matches_the_add_to_references(fx):
    for flavor in Flavor:
        args = (fx.system, flavor, fx.cores)
        got = outcome(assembled, _assemble, Bicomplex.total_complex, Mat.matmul, *args)
        want = outcome(assembled, oracle.assemble, oracle.total_complex, oracle.matmul, *args)
        assert got == want, flavor


entries = st.one_of(
    st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)


@st.composite
def cancelling_product(draw):
    """A = [P | P | R] and B = [Q; -Q; S], so A @ B = R @ S and every P Q
    term is cancelled inside the sums."""
    m, k, j, n = (draw(st.integers(0, 5)) for _ in range(4))

    def matrix(nrows, ncols):
        rows = [{c: draw(entries) for c in range(ncols)} for _ in range(nrows)]
        return [{c: v for c, v in row.items() if v} for row in rows]

    def shifted(row, offset):
        return {offset + c: v for c, v in row.items()}

    p, q, r, s = matrix(m, k), matrix(k, n), matrix(m, j), matrix(j, n)
    a = [{**pr, **shifted(pr, k), **shifted(rr, 2 * k)} for pr, rr in zip(p, r)]
    b = q + [{c: -v for c, v in row.items()} for row in q] + s
    return Mat(m, 2 * k + j, a), Mat(2 * k + j, n, b), Mat(m, j, r), Mat(j, n, s)


@settings(max_examples=150, deadline=None)
@given(mats=cancelling_product())
def test_matmul_matches_the_add_to_reference_and_stores_no_zero(mats):
    a, b, r, s = mats
    got = stored(a.matmul(b))
    assert got == stored(oracle.matmul(a, b))
    assert got == stored(oracle.matmul(r, s))
