"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest -v -s tests/test_acceptance.py  to see the per-criterion
lines; every expected value here is either pinned from the literature the
fixtures model or was frozen from an independent oracle in this repository
(direct class summation, the quotient-complex brute force, hand-checked
angle sums).
"""

from __future__ import annotations

import json
import math
import random
import time

from nonhausdorff import cli
from nonhausdorff.adjunction import glued_cell_classes
from nonhausdorff.cells import Orientation
from nonhausdorff.cochains import (
    boundary_chain,
    coboundary_global,
    domain_integral,
    integrate,
    integrate_over_chain,
    make_chain,
    piece_integral,
    stokes_defect,
)
from nonhausdorff.adjunction import closed_intersection
from nonhausdorff.cohomology import (
    Flavor,
    build_bicomplex,
    complex_betti,
    euler_inclusion_exclusion,
    global_complex_betti,
    mv_report,
    quotient_complex,
    row_exactness_check,
    total_betti,
    trim_trailing_zeros,
)
from nonhausdorff.fixtures import icosahedron_complex
from nonhausdorff.geometry import MetricComplex, curvature_ledger, gauss_bonnet_report
from nonhausdorff.refine import subdivide_system, subdivide_top_cochain
from nonhausdorff.adjunction import AdjunctionSystem

import oracle
from conftest import (
    CORE_FIXTURES,
    FIXTURES_DIR,
    GOOD_FIXTURES,
    random_clopen_system,
    random_fraction,
    random_global_cochain,
)

GB_TOLERANCE = 1e-9


def _cli_json(capsys, *argv):
    code = cli.main(["--json", *argv])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)["payload"]


def _passed(n: int, message: str) -> None:
    print(f"ACCEPTANCE CRITERION {n:2d} PASS: {message}")


def test_criterion_01_line_two_origins_betti(capsys):
    path = str(FIXTURES_DIR / "line_two_origins.json")
    start = time.monotonic()
    dr = _cli_json(capsys, "betti", "--flavor", "dr", path)["betti"]
    sing = _cli_json(capsys, "betti", "--flavor", "sing", path)["betti"]
    elapsed = time.monotonic() - start
    assert dr == [1, 0]
    assert sing == [1, 1]
    assert elapsed < 1.0
    _passed(1, f"line with two origins: dr={dr}, sing={sing} in {elapsed:.3f}s")


def test_criterion_02_variant_n_and_homotopy_invariance_failure(capsys):
    start = time.monotonic()
    n_path = str(FIXTURES_DIR / "variant_n.json")
    dr = _cli_json(capsys, "betti", "--flavor", "dr", n_path)["betti"]
    sing = _cli_json(capsys, "betti", "--flavor", "sing", n_path)["betti"]
    verdict_n = _cli_json(capsys, "compare", n_path)["verdict"]
    verdict_m = _cli_json(capsys, "compare", str(FIXTURES_DIR / "line_two_origins.json"))["verdict"]
    elapsed = time.monotonic() - start
    assert dr == [1, 1] and sing == [1, 1]
    assert verdict_n == "EQUAL"
    assert verdict_m == "UNEQUAL"
    assert elapsed < 1.0
    _passed(2, f"variant N {dr}/{sing} EQUAL; line with two origins UNEQUAL ({elapsed:.3f}s)")


def test_criterion_03_row_exactness(built):
    start = time.monotonic()
    checked = []
    for name in GOOD_FIXTURES:
        report = row_exactness_check(built[name].system)
        assert report.precondition_ok, name
        assert report.all_exact, name
        checked.append(name)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(3, f"rows exact at every node, every degree, on {len(checked)} fixtures ({elapsed:.2f}s)")


def test_criterion_04_fibre_product_equivalence(built):
    for name in GOOD_FIXTURES:
        fx = built[name]
        total = trim_trailing_zeros(
            total_betti(build_bicomplex(fx.system, Flavor.CLOSED_INTERSECTION, fx.cores))
        )
        fibre = trim_trailing_zeros(global_complex_betti(fx.system))
        assert total == fibre, name
    _passed(4, f"total Betti (closed flavor) = fibre-product Betti on {len(GOOD_FIXTURES)} fixtures")


def test_criterion_05_stokes_failure_sweep(built):
    rng = random.Random(20240809)
    system = built["glued_circles"].system
    for _ in range(120):
        w = random_global_cochain(system, 0, rng)
        lhs, rhs = stokes_defect(w)
        assert lhs == rhs
    control = built["glued_circles_clopen"].system
    for _ in range(10):
        w = random_global_cochain(control, 0, rng)
        assert stokes_defect(w) == (0, 0)
    _passed(5, "Stokes defect identity exact on 120 random cochains; clopen control gives (0,0)")


def test_criterion_06_inclusion_exclusion_integration(built):
    rng = random.Random(66)
    checked = 0
    for name in GOOD_FIXTURES:
        fx = built[name]
        system = fx.system
        if system.orientations is None:
            continue
        top = system.pieces[0].top_dimension
        w = random_global_cochain(system, top, rng)
        value = integrate(w)  # carries the internal class-sum cross-check
        # explicit alternating formula, recomputed here
        alt = sum(piece_integral(system, i, w.component(i)) for i in range(system.n()))
        for tup in oracle.normalized_tuples(system.n()):
            domain = closed_intersection(system, tup)
            alt -= (-1) ** len(tup) * domain_integral(system, tup[0], domain, w.component(tup[0]))
        assert value == alt, name
        checked += 1
    assert checked >= 8  # includes the 3-piece line_three_origins
    # subdivision invariance
    for name in ("glued_circles", "two_squares"):
        fx = built[name]
        top = fx.system.pieces[0].top_dimension
        w = random_global_cochain(fx.system, top, rng)
        refined = subdivide_system(fx.system)
        assert integrate(w) == integrate(subdivide_top_cochain(w, refined))
    _passed(6, f"inclusion-exclusion = direct class sum on {checked} fixtures; subdivision-invariant")


def test_criterion_07_euler_inclusion_exclusion(built):
    for name in CORE_FIXTURES:
        fx = built[name]
        chi = euler_inclusion_exclusion(fx.system, fx.cores)
        betti_open = total_betti(build_bicomplex(fx.system, Flavor.OPEN_CORE, fx.cores))
        alternating = sum((-1) ** q * b for q, b in enumerate(betti_open))
        assert chi == alternating, name
    assert euler_inclusion_exclusion(
        built["line_two_origins"].system, built["line_two_origins"].cores
    ) == 0
    assert euler_inclusion_exclusion(
        built["glued_icosahedra"].system, built["glued_icosahedra"].cores
    ) == 3
    _passed(7, f"Euler formula = alternating open-flavor Betti sum on {len(CORE_FIXTURES)} fixtures; chi=0 and chi=3 pinned")


def test_criterion_08_gauss_bonnet(built):
    start = time.monotonic()
    fx = built["glued_icosahedra"]
    report = gauss_bonnet_report(fx.system, fx.metrics, fx.cores)
    assert abs(report.lhs - 6 * math.pi) < GB_TOLERANCE
    assert abs(report.residual) <= GB_TOLERANCE
    ico_time = time.monotonic() - start
    assert ico_time < 1.0

    start = time.monotonic()
    fx = built["glued_tori"]
    report = gauss_bonnet_report(fx.system, fx.metrics, fx.cores)
    assert report.lhs == 0.0
    assert abs(report.residual) <= GB_TOLERANCE
    tori_time = time.monotonic() - start
    assert tori_time < 1.0

    ico = icosahedron_complex()
    single = AdjunctionSystem.assemble(
        [ico], orientations=[Orientation({c: 1 for c in ico.cells_of_dim(2)})]
    )
    ledger = curvature_ledger(single, [MetricComplex(ico, {e: 1.0 for e in ico.cells_of_dim(1)})])
    assert abs(ledger.piece_totals[0] - 4 * math.pi) < GB_TOLERANCE
    _passed(8, f"Gauss-Bonnet ledgers balance: 6*pi ({ico_time:.3f}s), 0 ({tori_time:.3f}s), classical 4*pi")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(424242)
    for k in range(20):
        system = random_clopen_system(rng, max_cells=40)
        assert system.n() <= 3
        assert all(len(p.dims) <= 40 for p in system.pieces)
        quotient, _ = quotient_complex(system)
        want = trim_trailing_zeros(complex_betti(quotient))
        closed = trim_trailing_zeros(
            total_betti(build_bicomplex(system, Flavor.CLOSED_INTERSECTION))
        )
        opened = trim_trailing_zeros(total_betti(build_bicomplex(system, Flavor.OPEN_CORE)))
        assert closed == want, f"system {k}"
        assert opened == want, f"system {k}"
    _passed(9, "both flavors match brute-force quotient Betti numbers on 20 random Hausdorff systems")


def test_criterion_10_structural_property_suite(built):
    rng = random.Random(77)
    randomized = 0
    for name in CORE_FIXTURES:
        fx = built[name]
        system = fx.system
        # boundary-of-boundary and the bicomplex identities
        for flavor in Flavor:
            bicx = build_bicomplex(system, flavor, fx.cores, check_preconditions=False)
            bicx.verify()  # d^2 = 0, delta^2 = 0, d delta = delta d
        classes = glued_cell_classes(system)
        top = system.pieces[0].top_dimension
        for _ in range(12):
            q = rng.randrange(top)
            w = random_global_cochain(system, q, rng)
            dd = coboundary_global(coboundary_global(w))
            assert all(not comp.values for comp in dd.components)
            randomized += 1
        for _ in range(12):
            q = rng.randrange(1, top + 1)
            w = random_global_cochain(system, q - 1, rng)
            cells = [
                (i, c)
                for i in range(system.n())
                for c in system.pieces[i].cells_of_dim(q)
            ]
            items = [
                (*cells[rng.randrange(len(cells))], random_fraction(rng)) for _ in range(3)
            ]
            chain = make_chain(system, classes, q, items)
            lhs = integrate_over_chain(coboundary_global(w), chain)
            rhs = integrate_over_chain(w, boundary_chain(system, classes, chain))
            assert lhs == rhs
            randomized += 1
        if system.n() == 2:
            for flavor in Flavor:
                report = mv_report(system, flavor, fx.cores)
                assert report.alternating_sum == 0
    assert randomized >= 200
    _passed(10, f"d^2, delta^2, boundary^2, chain Stokes and MV sums exact over {randomized} randomized checks")
