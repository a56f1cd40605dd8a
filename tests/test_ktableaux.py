from fractions import Fraction

import pytest

from promotab.dynamics import cycle
from promotab.dynamics import evacuate as tableau_evacuate
from promotab.dynamics import promote as tableau_promote
from promotab.errors import PreconditionError
from promotab.ktableaux import (
    BULLET,
    _slide_plan,
    IncreasingTableau,
    enumerate_increasing,
    from_linear_extension,
    increasing_from_grid,
    increasing_to_grid,
    k_evacuate,
    k_orbit_order_check,
    k_promote,
    k_promote_inverse,
    switch,
    three_by_four_counterexample,
    to_linear_extension,
)
from promotab.posets import FinitePoset, build_cominuscule, ferrers_poset, linear_extensions
from promotab.shapes import Tableau, enumerate_syt
from util import brute_increasing_count

P23 = build_cominuscule("rectangle", 2, 3)
P32 = build_cominuscule("rectangle", 3, 2)

T61 = increasing_from_grid(Tableau([[1, 3], [2, 4], [4, 5]], 5))


def grid(t: IncreasingTableau):
    return increasing_to_grid(t).rows


class TestSwitch:
    def test_identity_when_not_adjacent(self):
        p = ferrers_poset((2, 2))
        state = (1, 2, 2, 3)
        assert switch(state, 1, 3, p) == state

    def test_bullet_propagation_step(self):
        # second displayed step of the K-promotion of T61: switch 2 <-> bullet
        state = (BULLET, 3, 2, 4, 4, 5)  # row-major labels for the 3x2 grid
        p = T61.poset
        assert switch(state, 2, BULLET, p) == (2, 3, BULLET, 4, 4, 5)

    def test_double_application_restores(self):
        p = ferrers_poset((3, 2))
        state = (1, 2, 2, 3, 4)
        once = switch(state, 2, 3, p)
        assert switch(once, 2, 3, p) == state

    def test_rejects_equal_labels(self):
        with pytest.raises(PreconditionError):
            switch((1, 2), 1, 1, ferrers_poset((2,)))


class TestKPromotion:
    def test_worked_example(self):
        assert grid(k_promote(T61)) == ((1, 2), (3, 4), (4, 5))

    def test_contrast_with_semistandard_promotion(self):
        t = Tableau([[1, 3], [2, 4], [4, 5]], 5)
        assert tableau_promote(t).rows == ((1, 2), (3, 3), (4, 5))
        assert grid(k_promote(increasing_from_grid(t))) != tableau_promote(t).rows

    def test_agrees_with_promotion_on_standard_tableaux(self):
        for tab in enumerate_syt((3, 3)):
            inc = increasing_from_grid(tab)
            assert grid(k_promote(inc)) == tableau_promote(tab).rows

    def test_preserves_increasing_and_deficiency(self):
        p = build_cominuscule("rectangle", 2, 4)
        for q in range(0, 8):
            for t in enumerate_increasing(p, q):
                image = k_promote(t)
                assert image.deficiency == q  # constructor validates the rest

    def test_inverse_round_trip(self):
        p = build_cominuscule("rectangle", 2, 3)
        for q in range(0, 6):
            for t in enumerate_increasing(p, q):
                assert k_promote_inverse(k_promote(t)) == t
                assert k_promote(k_promote_inverse(t)) == t

    def test_inverse_matches_order_power_on_two_rows(self):
        n = 3
        p = build_cominuscule("rectangle", 2, n)
        for q in (0, 1, 2):
            for t in enumerate_increasing(p, q):
                power = t
                for _ in range(2 * n - q - 1):
                    power = k_promote(power)
                assert k_promote_inverse(t) == power


class TestKEvacuation:
    def test_worked_example_chain_and_result(self):
        assert grid(k_evacuate(T61)) == ((1, 2), (2, 4), (3, 5))

    def test_involution_on_two_row_rectangles(self):
        for n in (2, 3, 4):
            p = build_cominuscule("rectangle", 2, n)
            for q in range(0, 2 * n):
                for t in enumerate_increasing(p, q):
                    assert k_evacuate(k_evacuate(t)) == t

    def test_conjugates_k_promotion(self):
        # evacuation conjugates K-promotion to its inverse
        for n in (2, 3, 4):
            p = build_cominuscule("rectangle", 2, n)
            for q in range(0, 2 * n):
                for t in enumerate_increasing(p, q):
                    left = k_evacuate(k_promote(t))
                    assert k_promote(left) == k_evacuate(t)

    def test_three_by_four_images_stay_increasing(self):
        p = build_cominuscule("rectangle", 3, 4)
        for q in range(0, 4):
            for t in enumerate_increasing(p, q):
                assert k_promote(t).deficiency == q  # constructor revalidates

    def test_equals_evacuation_on_standard_tableaux(self):
        for tab in enumerate_syt((3, 3)):
            inc = increasing_from_grid(tab)
            assert grid(k_evacuate(inc)) == tableau_evacuate(tab).rows

    def test_two_row_rotation_reversal_description(self):
        # on 2 x n rectangles K-evacuation is 180 degree rotation plus reversal
        p = build_cominuscule("rectangle", 2, 4)
        for q in range(0, 8):
            for t in enumerate_increasing(p, q):
                rows = grid(t)
                d = t.d
                rotated = tuple(tuple(d + 1 - v for v in reversed(row)) for row in reversed(rows))
                assert grid(k_evacuate(t)) == rotated


class TestEnumerateIncreasing:
    def test_deficiency_zero_matches_standard_count(self):
        assert len(list(enumerate_increasing(P23, 0))) == 5

    def test_deficiency_zero_equals_linear_extensions(self):
        exts = {t.labels for t in linear_extensions(P23)}
        incs = {t.labels for t in enumerate_increasing(P23, 0)}
        assert exts == incs

    def test_a_long_chain_has_one_of_deficiency_zero(self):
        p = FinitePoset(1500, [(x, x + 1) for x in range(1, 1500)])
        found = list(enumerate_increasing(p, 0))
        assert [t.labels for t in found] == [tuple(range(1, 1501))]

    def test_onto_single_label_needs_antichain(self):
        p = ferrers_poset((2, 2))
        assert list(enumerate_increasing(p, p.size - 1)) == []
        anti = FinitePoset(3, [])
        found = list(enumerate_increasing(anti, 2))
        assert len(found) == 1 and found[0].labels == (1, 1, 1)

    def test_small_counts_match_brute_force(self):
        for p in (ferrers_poset((2, 2)), ferrers_poset((3, 2)), build_cominuscule("rectangle", 2, 3)):
            for q in range(0, p.size + 1):
                found = list(enumerate_increasing(p, q))
                assert len(set(found)) == len(found)
                assert len(found) == brute_increasing_count(p, q)

    def test_two_by_two_single_deficiency(self):
        found = list(enumerate_increasing(ferrers_poset((2, 2)), 1))
        assert len(found) == 1
        assert increasing_to_grid(found[0]).rows == ((1, 2), (2, 3))


class TestOrbitOrder:
    def test_three_columns_deficiency_one(self):
        report = k_orbit_order_check(3, 1)
        assert report.ok and report.order_bound == 5
        assert report.tableaux_checked == 5 and report.orbit_sizes == (5,)

    def test_deficiency_zero_matches_ceiling_order(self):
        report = k_orbit_order_check(3, 0)
        assert report.ok and report.order_bound == 6
        assert report.tableaux_checked == 5 and report.orbit_sizes == (2, 3)

    def test_four_columns_deficiency_two(self):
        report = k_orbit_order_check(4, 2)
        assert report.ok and report.order_bound == 6
        assert report.tableaux_checked == 9 and report.orbit_sizes == (3, 6)

    def test_orbits_detected_by_revisit(self):
        orb = list(cycle(T61, k_promote))
        assert orb[0] == T61 and len(set(orb)) == len(orb)
        assert k_promote(orb[-1]) == T61


class TestCounterexample:
    def test_exact_numbers(self):
        report = three_by_four_counterexample()
        assert report.first_orbit_size == 9
        assert report.second_orbit_size == 9
        assert report.first_average == Fraction(91, 9)
        assert report.second_average == Fraction(10)

    def test_support_is_rotate_fixed(self):
        report = three_by_four_counterexample()
        assert report.support_boxes == ((2, 2), (2, 3))
        # 180 degree rotation on 3x4 sends (2,2) to (2,3)
        assert (3 + 1 - 2, 4 + 1 - 2) == (2, 3)


class TestBridges:
    def test_linear_extension_round_trip(self):
        for ext in linear_extensions(P32):
            assert to_linear_extension(from_linear_extension(ext)) == ext

    def test_to_linear_extension_needs_deficiency_zero(self):
        with pytest.raises(PreconditionError):
            to_linear_extension(T61)

    def test_grid_round_trip(self):
        t = Tableau([[1, 2, 4], [2, 3, 5]], 5)
        assert increasing_to_grid(increasing_from_grid(t)).rows == t.rows

    def test_grid_rejects_non_increasing(self):
        with pytest.raises(PreconditionError):
            increasing_from_grid(Tableau([[1, 1], [2, 3]], 3))


def test_the_column_slide_reads_each_element_of_a_chain_at_its_one_label():
    # element i of a chain has label i in its one linear extension, so the column
    # K-promotion's plan holds |P| - 1 switches, where reading every non-minimal
    # element at every label would hold (|P| - 1)^2 and slide a long chain in
    # quadratic time
    n = 40
    p = FinitePoset(n, [(x, x + 1) for x in range(1, n)])
    plan = _slide_plan(p.above, p.below, n)
    assert [(m, [y for y, _ in givers]) for m, givers, _ in plan] == [(m, [m]) for m in range(1, n)]
