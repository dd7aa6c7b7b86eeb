import random

import pytest

import oracle
from nonhausdorff.adjunction import (
    AdjunctionSystem,
    closure_intersection_check,
    glued_cell_classes,
    hausdorff_pairs,
    quotient_complex,
    regular_open_check,
    validate_system,
)
from nonhausdorff.cohomology import complex_betti
from nonhausdorff.errors import PreconditionError
from nonhausdorff.fixtures import (
    broken_cocycle,
    broken_inverse,
    glued_circles_clopen,
    line_three_origins,
    line_two_origins,
    closure_violation,
    variant_n,
)

from conftest import GOOD_FIXTURES, random_clopen_system


def test_line_with_two_origins_is_valid(built):
    assert validate_system(built["line_two_origins"].system).ok


def test_broken_inverse_reports_a2():
    report = validate_system(broken_inverse().system)
    assert any(issue.rule == "A2" for issue in report.issues)


def test_broken_cocycle_reports_a3():
    report = validate_system(broken_cocycle().system)
    assert any(issue.rule == "A3" for issue in report.issues)


def test_hausdorff_pairs_line_two_origins():
    system = line_two_origins().system
    pairs = hausdorff_pairs(system)
    assert [(p.left, p.right) for p in pairs] == [((0, "v0"), (1, "v0"))]


def test_hausdorff_pairs_empty_for_clopen_gluing():
    assert hausdorff_pairs(glued_circles_clopen().system) == []


def test_hausdorff_pairs_variant_n():
    pairs = hausdorff_pairs(variant_n().system)
    assert [(p.left, p.right) for p in pairs] == [
        ((0, "v-1"), (1, "v-1")),
        ((0, "v1"), (1, "v1")),
    ]


def test_glued_cell_classes_line_two_origins():
    classes = glued_cell_classes(line_two_origins().system)
    sizes = sorted(len(c) for c in classes.classes)
    assert len(classes) == 10
    assert sizes == [1, 1] + [2] * 8


def test_single_piece_classes_are_singletons():
    system = AdjunctionSystem.assemble([line_two_origins().system.pieces[0]])
    classes = glued_cell_classes(system)
    assert all(len(c) == 1 for c in classes.classes)


def test_full_identification_classes_have_size_two():
    classes = glued_cell_classes(glued_circles_clopen().system)
    assert all(len(c) == 2 for c in classes.classes)


def test_classes_never_merge_cells_of_one_piece(built):
    for name in GOOD_FIXTURES:
        classes = glued_cell_classes(built[name].system)
        for cls in classes.classes:
            pieces = [i for i, _ in cls]
            assert len(pieces) == len(set(pieces))


def test_reglue_reproduces_classes(built):
    for name in GOOD_FIXTURES + ["line_three_origins", "closure_violation"]:
        system = built[name].system
        if system.n() < 2:
            continue
        assert oracle.reglue_classes(system) == glued_cell_classes(system).classes


def test_closure_intersection_check_binary_is_true():
    checks = closure_intersection_check(line_two_origins().system)
    assert checks == {(0, 1): True}


def test_closure_intersection_check_three_origins():
    checks = closure_intersection_check(line_three_origins().system)
    assert checks == {(0, 1): True, (0, 2): True, (1, 2): True, (0, 1, 2): True}


def test_closure_intersection_check_violation():
    checks = closure_intersection_check(closure_violation().system)
    assert checks[(0, 1, 2)] is False
    assert checks[(0, 1)] is True


def test_regular_open_check_examples():
    assert regular_open_check(line_two_origins().system) == {(0, 1): False, (1, 0): False}
    assert regular_open_check(variant_n().system) == {(0, 1): True, (1, 0): True}
    assert regular_open_check(glued_circles_clopen().system) == {(0, 1): True, (1, 0): True}


def test_quotient_complex_requires_hausdorff():
    with pytest.raises(PreconditionError):
        quotient_complex(line_two_origins().system)


def test_quotient_complex_of_clopen_gluing():
    quotient, classes = quotient_complex(glued_circles_clopen().system)
    assert len(quotient.dims) == 12
    assert complex_betti(quotient) == [1, 1]
    assert len(classes) == 12


def test_random_clopen_systems_are_valid_and_quotientable():
    rng = random.Random(2024)
    for _ in range(6):
        system = random_clopen_system(rng)
        assert validate_system(system).ok
        assert hausdorff_pairs(system) == []
        quotient, _ = quotient_complex(system)
        # inclusion-exclusion over pieces equals the class-partition count
        from nonhausdorff.cells import euler_characteristic
        from nonhausdorff.cohomology import euler_inclusion_exclusion

        assert euler_characteristic(quotient.whole_set()) == euler_inclusion_exclusion(system)


def test_hausdorff_pairs_are_symmetric(built):
    # the reverse closure extension carries each right cell back to its left cell
    for name in GOOD_FIXTURES:
        system = built[name].system
        for pair in hausdorff_pairs(system):
            (i, left), (j, right) = pair.left, pair.right
            back = system.maps[(j, i)].closure_forward[right]
            assert back == left


def test_closure_extension_is_required_when_frontier_nonempty():
    from nonhausdorff.fixtures import path_complex

    pieces = [path_complex(), path_complex()]
    region = sorted(set(pieces[0].dims) - {"v0"})
    system = AdjunctionSystem.assemble(
        pieces,
        regions={(0, 1): region},
        maps={(0, 1): ({c: c for c in region}, {c: c for c in region})},
    )
    report = validate_system(system)
    assert any(issue.rule == "closure-extension" for issue in report.issues)
