"""The integer cochain kernel against the Fraction references in oracle.py.

``coboundary``, ``assemble_global``, ``integrate`` and ``stokes_defect`` work
on integer numerators over one common denominator per cochain.  Here every
one of them is compared, value by value and error by error, with the
``Fraction`` version it replaced, on shipped and generated systems: torus
pairs, hexagons glued on open arcs, hub paths, k-origin lines,
``line_three_origins`` and random clopen systems.  The cochains are random
compatible ones with small mixed denominators, ones whose values have
pairwise-coprime denominators above 2**33 (so the common denominator passes
2**64), the zero cochain, and copies with one value changed on a gluing
closure.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff.adjunction import AdjunctionSystem
from nonhausdorff.cells import closure
from nonhausdorff.cochains import (
    Cochain,
    GlobalCochain,
    assemble_global,
    coboundary,
    coboundary_global,
    integrate,
    stokes_defect,
)
from nonhausdorff.fixtures import line_three_origins

from conftest import (
    HEXAGON_CHAIN,
    glued_hexagons,
    hub_with_spokes,
    k_origin_line,
    oriented_copy,
    outcome,
    random_clopen_system,
    random_global_cochain,
    random_fraction,
    torus_pair,
)


def _primes_above(start: int, count: int) -> list[int]:
    out = []
    n = start | 1
    while len(out) < count:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            out.append(n)
        n += 2
    return out


LARGE_PRIMES = _primes_above(2**33, 6)


def large_coprime_fraction(rng: random.Random) -> Fraction:
    """A value whose denominator is one of six primes above 2**33."""
    return Fraction(rng.randint(-(2**40), 2**40), rng.choice(LARGE_PRIMES))


systems = st.one_of(
    st.builds(lambda n: torus_pair(n).system, st.integers(2, 3)),
    st.builds(lambda k: glued_hexagons(k).system, st.integers(2, 4)),
    st.just(glued_hexagons(3, HEXAGON_CHAIN).system),
    st.builds(lambda k, spacing: hub_with_spokes(k, spacing).system, st.integers(2, 5), st.integers(2, 4)),
    st.builds(lambda k: k_origin_line(k).system, st.integers(2, 5)),
    st.just(line_three_origins().system),
    st.builds(lambda seed: oriented_copy(random_clopen_system(random.Random(seed))), st.integers(0, 2**16)),
)
values = st.sampled_from([random_fraction, large_coprime_fraction, None])


def values_of(w: GlobalCochain) -> list[dict[str, Fraction]]:
    return [dict(comp.values) for comp in w.components]


def kernel_matches_oracle(w: GlobalCochain) -> None:
    system = w.system
    for comp in w.components:
        got = outcome(coboundary, comp)
        want = outcome(oracle.fraction_coboundary, comp)
        if got[0] == "ok" and want[0] == "ok":
            assert got[1].degree == want[1].degree == comp.degree + 1
            assert got[1].values == want[1].values
        else:
            assert got == want
    got = outcome(lambda: values_of(coboundary_global(w)))
    want = outcome(
        lambda: values_of(
            oracle.fraction_assemble_global(system, [oracle.fraction_coboundary(c) for c in w.components])
        )
    )
    assert got == want
    assert outcome(integrate, w) == outcome(oracle.fraction_integrate, w)
    assert outcome(stokes_defect, w) == outcome(oracle.fraction_stokes_defect, w)


def a_gluing_closure_cell(
    system: AdjunctionSystem, degree: int, rng: random.Random
) -> tuple[int, str] | None:
    cells = [
        (i, cell)
        for (i, j) in system.ordered_pairs()
        if i < j and system.gluing(i, j) is not None
        for cell in closure(system.region(i, j)).members_of_dim(degree)
    ]
    return rng.choice(cells) if cells else None


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(system=systems, value=values, seed=st.integers(0, 2**16))
def test_kernel_matches_the_fraction_reference(system, value, seed):
    rng = random.Random(seed)
    top = max(piece.top_dimension for piece in system.pieces)
    for degree in range(top + 1):
        if value is None:
            comps = [Cochain(piece.whole_set(), degree, {}) for piece in system.pieces]
            w = assemble_global(system, comps, degree)
            assert w.scaled == (1, [{} for _ in system.pieces])
        else:
            w = random_global_cochain(system, degree, rng, value)
            denominators = {v.denominator for comp in w.components for v in comp.values.values()}
            assert w.scaled[0] == math.lcm(*denominators)
        kernel_matches_oracle(w)

        # one value changed on a gluing closure: assembly must fail with the
        # reference's text, and a cochain built without assembly must behave
        # like the reference in every operation
        spot = a_gluing_closure_cell(system, degree, rng)
        if spot is None:
            continue
        piece, cell = spot
        changed = dict(w.components[piece].values)
        changed[cell] = changed.get(cell, Fraction(0)) + (value or random_fraction)(rng) + 1
        comps = list(w.components)
        comps[piece] = Cochain.of(comps[piece].owner, degree, changed)
        assert outcome(lambda: values_of(assemble_global(system, comps, degree))) == outcome(
            lambda: values_of(oracle.fraction_assemble_global(system, comps, degree))
        )
        kernel_matches_oracle(GlobalCochain(system, degree, tuple(comps)))


def test_large_coprime_denominators_pass_two_to_the_64():
    system = torus_pair(3).system
    rng = random.Random(64)
    for degree in (1, 2):
        w = random_global_cochain(system, degree, rng, large_coprime_fraction)
        assert w.scaled[0] > 2**64
        kernel_matches_oracle(w)
    assert stokes_defect(random_global_cochain(system, 1, rng, large_coprime_fraction))[0] != 0


def test_integrate_and_stokes_make_no_fraction_per_cell(monkeypatch):
    # values are Fractions only at the edges: the kernel reads numerators and
    # denominators and builds one Fraction per result
    system = torus_pair(4).system
    rng = random.Random(7)
    top_w = random_global_cochain(system, 2, rng)
    low_w = random_global_cochain(system, 1, rng)
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    integrate(top_w)
    stokes_defect(low_w)
    monkeypatch.undo()
    assert len(made) == 3
