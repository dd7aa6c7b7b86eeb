"""Rank-only fibre-product and Mayer-Vietoris cohomology against the
explicit-basis references kept in oracle.py.

The cases are the shipped fixtures, generated non-Hausdorff covers (hub
paths with 2-6 spokes at spacing 2-4, k-origin lines with k = 2-5, two tori
glued along an open annulus) and random clopen systems.  Outcomes are
compared as values or library error messages; ``mv_report`` is compared for
both flavors, and on systems that are not binary both sides must reject.
"""

from __future__ import annotations

import random
from dataclasses import astuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff.cohomology import Flavor, global_complex_betti, mv_report
from nonhausdorff.fixtures import FIXTURE_BUILDERS, Fixture

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
