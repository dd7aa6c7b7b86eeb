"""Products X × B with a fixed complex B: answers known in every dimension.

The closure classes and the core classes of X × B are those of X times the
cells of B, with the product boundary, so each class complex of X × B is
the tensor product of X's with the cochain complex of B.  Over ℚ both
flavors therefore satisfy the Künneth formula
b_k(X × B) = Σ_{i+j=k} b_i(X)·b_j(B), and χ(X × B) = χ(X)·χ(B).  These
checks need no oracle, and with B a torus they reach dimension 3, where
the row-exactness report is compared with the bicomplex oracle.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from nonhausdorff.adjunction import validate_system
from nonhausdorff.cells import CellComplex, euler_characteristic
from nonhausdorff.cohomology import (
    Flavor,
    build_bicomplex,
    complex_betti,
    de_rham_betti,
    euler_inclusion_exclusion,
    row_exactness_check,
    singular_betti,
    total_betti,
    trim_trailing_zeros,
)
from nonhausdorff.fixtures import FIXTURE_BUILDERS, Fixture, cycle_complex, path_complex, torus_complex

from conftest import (
    GOOD_FIXTURES,
    glued_hexagons,
    hexagon_chain,
    hub_with_spokes,
    k_origin_line,
    outcome,
    product_fixture,
    random_clopen_system,
    row_outcome,
)


def kunneth(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim_trailing_zeros(out)


def trimmed(result: tuple) -> tuple:
    """An outcome with trailing zero Betti numbers dropped, or its error type."""
    return ("ok", trim_trailing_zeros(result[1])) if result[0] == "ok" else result[:2]


def assert_product_laws(fx: Fixture, b: CellComplex, b_name: str) -> None:
    product = product_fixture(fx, b, b_name)
    x, xb = fx.system, product.system
    assert validate_system(xb).ok == validate_system(x).ok, product.name
    b_betti = trim_trailing_zeros(complex_betti(b))
    for flavor in (lambda s, c: de_rham_betti(s), singular_betti):
        here = trimmed(outcome(flavor, x, fx.cores))
        there = trimmed(outcome(flavor, xb, product.cores))
        if here[0] == "ok":
            assert there == ("ok", kunneth(here[1], b_betti)), product.name
        else:
            assert there == here, product.name
    chi = outcome(euler_inclusion_exclusion, x, fx.cores)
    if chi[0] == "ok":
        chi_b = euler_characteristic(b.whole_set())
        assert euler_inclusion_exclusion(xb, product.cores) == chi[1] * chi_b, product.name
    assert row_outcome(row_exactness_check, xb) == row_outcome(oracle.row_exactness_check, xb), product.name


factors = st.sampled_from(
    [("triangle", cycle_complex(3)), ("square", cycle_complex(4)), ("path_1", path_complex(0, 1)),
     ("path_3", path_complex(0, 3))]
)

small_systems = st.one_of(
    st.sampled_from([*GOOD_FIXTURES[:8], "closure_violation"]).map(lambda name: FIXTURE_BUILDERS[name]()),
    st.builds(k_origin_line, st.integers(2, 4)),
    st.builds(hub_with_spokes, st.integers(2, 3), st.integers(2, 4)),
    st.builds(glued_hexagons, st.integers(2, 3)),
    st.builds(hexagon_chain),
    st.integers(0, 2**16).map(lambda seed: Fixture("clopen", random_clopen_system(random.Random(seed), 20))),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_systems, factors)
def test_products_obey_kunneth(fx: Fixture, factor: tuple[str, CellComplex]):
    assert_product_laws(fx, factor[1], factor[0])


def test_products_with_a_torus_obey_kunneth():
    torus = torus_complex(3, 3)
    for fx in (
        FIXTURE_BUILDERS["line_two_origins"](),
        FIXTURE_BUILDERS["line_three_origins"](),
        FIXTURE_BUILDERS["closure_violation"](),
        hub_with_spokes(2, 3),
        glued_hexagons(3),
    ):
        assert_product_laws(fx, torus, "torus")


def test_products_of_surface_gluings_obey_kunneth():
    assert_product_laws(FIXTURE_BUILDERS["glued_circles"](), cycle_complex(4), "square")
    assert_product_laws(FIXTURE_BUILDERS["glued_icosahedra"](), path_complex(0, 1), "path_1")


def test_four_origins_times_a_torus():
    """origins_4 has dr [1] and sing [1, 3]; the torus has [1, 2, 1].  Both
    class routes agree with the total complex of their bicomplex."""
    product = product_fixture(k_origin_line(4), torus_complex(3, 3), "torus")
    system = product.system
    assert validate_system(system).ok
    assert trim_trailing_zeros(de_rham_betti(system)) == [1, 2, 1]
    assert trim_trailing_zeros(singular_betti(system, product.cores)) == [1, 5, 7, 3]
    for flavor, want in ((Flavor.CLOSED_INTERSECTION, [1, 2, 1]), (Flavor.OPEN_CORE, [1, 5, 7, 3])):
        assert trim_trailing_zeros(total_betti(build_bicomplex(system, flavor, product.cores))) == want
    assert euler_inclusion_exclusion(system, product.cores) == 0
    report = row_exactness_check(system)
    assert sorted(report.nodes) == [0, 1, 2, 3]
    assert report.precondition_ok and report.all_exact
    assert row_outcome(row_exactness_check, system) == row_outcome(oracle.row_exactness_check, system)
