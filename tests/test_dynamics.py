import random

import pytest

import promotab.dynamics as dynamics
from promotab.dynamics import (
    Orbit,
    cycle,
    dual_evacuate,
    dual_evacuate_via_complement,
    evacuate,
    evacuate_via_toggles,
    inner_corners,
    jdt_slide,
    orbit,
    orbit_memo,
    partial_promote,
    promote,
    promote_inverse,
    promote_via_toggles,
    promotion_period_words,
    rectify,
    slide_toggle,
    toggle,
)
from promotab.errors import PreconditionError
from promotab.shapes import Tableau, enumerate_ssyt, rotate_complement, validate
from util import partitions_up_to, random_ssyt, recorded_compiles

T_MAIN = Tableau([[1, 1, 2, 3], [3, 3, 4, 4], [5, 5]], 6)


def T(rows, k, inner=()):
    return Tableau(rows, k, inner)


class TestJdtSlide:
    def test_straight_shape_has_no_inner_corners(self):
        t = T([[1, 2], [3, 4]], 4)
        assert inner_corners(t) == []
        with pytest.raises(PreconditionError):
            jdt_slide(t, (1, 1))

    def test_one_step_slide(self):
        t = T([[1], [2]], 3, inner=(1,))
        rec = jdt_slide(t, (1, 1))
        assert rec.path == ((1, 1), (1, 2))
        assert rec.result == T([[1], [2]], 3)

    def test_path_steps_are_unit_down_or_right(self):
        t = T([[2, 3], [3, 4, 4]], 5, inner=(2,))
        rec = jdt_slide(t, (1, 2))
        for (r1, c1), (r2, c2) in zip(rec.path, rec.path[1:]):
            assert (r2 - r1, c2 - c1) in ((1, 0), (0, 1))
        assert validate(rec.result, "semistandard")

    def test_tie_steps_below(self):
        # hole at (1,1) sees 2 below and 2 to the right; it must take the 2 below
        t = T([[2], [2, 9]], 9, inner=(1,))
        rec = jdt_slide(t, (1, 1))
        assert rec.path[1] == (2, 1)


class TestRectify:
    def test_straight_input_is_fixed(self):
        t = T([[1, 2], [2, 3]], 4)
        assert rectify(t) == t

    def test_example_deleted_ones_rectification(self):
        # ceiling-4 tableau with its seven 1s removed
        skew = T([[3, 4, 4], [2, 2, 4, 4, 4], [3], [4]], 4, inner=(7,))
        expected = T([[2, 2, 3, 4, 4, 4, 4], [3, 4], [4]], 4)
        assert rectify(skew) == expected

    def test_single_box_skew(self):
        t = T([[5]], 5, inner=(3,))
        assert rectify(t) == T([[5]], 5)

    def test_slide_order_independence(self):
        rng = random.Random(7)
        skew = T([[3, 4, 4], [2, 2, 4, 4, 4], [3], [4]], 4, inner=(7,))
        baseline = rectify(skew)
        for _ in range(100):
            assert rectify(skew, pick=rng.choice) == baseline

    def test_order_independence_on_enumerated_skew_tableaux(self):
        rng = random.Random(21)
        for t in enumerate_ssyt((3, 2, 1), 3, inner=(1, 1)):
            baseline = rectify(t)
            for _ in range(20):
                assert rectify(t, pick=rng.choice) == baseline


class TestPromote:
    def test_worked_six_ceiling_example(self):
        assert promote(T_MAIN) == T([[1, 2, 2, 3], [2, 3, 6, 6], [4, 4]], 6)

    def test_two_row_example_from_chain(self):
        t = T([[1, 2, 3], [3, 4, 4]], 5)
        assert promote(t) == T([[1, 2, 3], [2, 3, 5]], 5)

    def test_no_ones_decrements(self):
        assert promote(T([[2]], 3)) == T([[1]], 3)

    def test_preserves_shape_and_kind(self):
        for shape in partitions_up_to(5):
            for t in enumerate_ssyt(shape, 3):
                p = promote(t)
                assert p.outer == t.outer and p.ceiling == t.ceiling
                assert validate(p, "semistandard")

    def test_rejects_skew(self):
        with pytest.raises(PreconditionError):
            promote(T([[1]], 3, inner=(1,)))


class TestToggle:
    def test_first_toggle_of_worked_example(self):
        assert toggle(T_MAIN, 1) == T([[1, 2, 2, 3], [3, 3, 4, 4], [5, 5]], 6)

    def test_full_toggle_chain(self):
        steps = [
            T([[1, 2, 2, 3], [3, 3, 4, 4], [5, 5]], 6),
            T([[1, 2, 2, 3], [2, 3, 4, 4], [5, 5]], 6),
            T([[1, 2, 2, 3], [2, 3, 4, 4], [5, 5]], 6),  # toggle 3 fixes it
            T([[1, 2, 2, 3], [2, 3, 5, 5], [4, 4]], 6),
            T([[1, 2, 2, 3], [2, 3, 6, 6], [4, 4]], 6),
        ]
        cur = T_MAIN
        for i, expected in enumerate(steps, start=1):
            cur = toggle(cur, i)
            assert cur == expected
        assert cur == promote(T_MAIN)

    def test_involution_on_two_by_two(self):
        for t in enumerate_ssyt((2, 2), 4):
            for i in (1, 2, 3):
                assert toggle(toggle(t, i), i) == t

    def test_distant_toggles_commute(self):
        for t in enumerate_ssyt((3, 2), 5):
            for i in (1, 2):
                for j in range(i + 2, 5):
                    assert toggle(toggle(t, i), j) == toggle(toggle(t, j), i)

    def test_works_on_skew(self):
        t = T([[1], [1, 2]], 3, inner=(1,))
        u = toggle(t, 1)
        assert validate(u, "semistandard")
        assert toggle(u, 1) == t


class TestPromoteViaToggles:
    def test_agrees_on_worked_example(self):
        assert promote_via_toggles(T_MAIN) == promote(T_MAIN)

    def test_no_ones_tableau(self):
        assert promote_via_toggles(T([[2, 3]], 3)) == T([[1, 2]], 3)

    def test_exhaustive_agreement(self):
        for t in enumerate_ssyt((3, 2), 5):
            assert promote_via_toggles(t) == promote(t)


class TestSlideToggle:
    def test_three_step_example(self):
        r = T([[1, 1, 2, 3, 3, 3, 3, 3, 4, 4], [2, 3, 4, 4, 4], [3], [4]], 4)
        expected = T([[1, 1, 2, 3, 3, 3, 3, 4, 4, 4], [2, 3, 4, 4, 4], [3], [4]], 4)
        assert slide_toggle(r, 3) == expected
        assert toggle(r, 3) == expected

    def test_identity_without_top_letters(self):
        t = T([[1, 1, 2]], 4)
        assert slide_toggle(t, 3) == t

    def test_exhaustive_equality_with_toggle(self):
        for t in enumerate_ssyt((3, 1), 4):
            assert slide_toggle(t, 3) == toggle(t, 3)


class TestPartialPromote:
    def test_full_ceiling_equals_promote(self):
        for t in enumerate_ssyt((2, 2), 4):
            assert partial_promote(t, 4) == promote(t)

    def test_ceiling_one_is_identity(self):
        for t in enumerate_ssyt((3, 1), 3):
            assert partial_promote(t, 1) == t

    def test_inductive_identity(self):
        # promotion factors through the frozen-top partial promotion
        for t in enumerate_ssyt((2, 2), 4):
            assert promote(t) == toggle(partial_promote(t, 3), 3)


class TestEvacuate:
    def test_worked_example(self):
        assert evacuate(T_MAIN) == T([[2, 2, 4, 4], [3, 3, 6, 6], [4, 5]], 6)

    def test_involution(self):
        for t in enumerate_ssyt((2, 2), 4):
            assert evacuate(evacuate(t)) == t

    def test_equals_toggle_product(self):
        for shape in partitions_up_to(5):
            for t in enumerate_ssyt(shape, 4):
                assert evacuate(t) == evacuate_via_toggles(t)

    def test_rectangular_equals_rotate_complement(self):
        for t in enumerate_ssyt((2, 2), 4):
            assert evacuate(t) == rotate_complement(t)


class TestDualEvacuate:
    def test_composes_with_evacuation_to_identity(self):
        for t in enumerate_ssyt((2, 2), 4):
            assert dual_evacuate(evacuate(t)) == t

    def test_two_implementations_agree(self):
        for t in enumerate_ssyt((3, 3), 3):
            assert dual_evacuate(t) == dual_evacuate_via_complement(t)

    def test_one_by_one_dual_equals_evacuation(self):
        for k in (1, 2, 3):
            for t in enumerate_ssyt((1,), k):
                assert dual_evacuate(t) == evacuate(t)

    def test_rejects_non_rectangular(self):
        with pytest.raises(PreconditionError):
            dual_evacuate(T([[1, 1], [2]], 3))


class TestPromoteInverse:
    def test_inverts_worked_example(self):
        assert promote_inverse(T([[1, 2, 2, 3], [2, 3, 6, 6], [4, 4]], 6)) == T_MAIN

    def test_single_box_cycle(self):
        assert promote_inverse(T([[1]], 3)) == T([[2]], 3)

    def test_two_sided_inverse(self):
        for shape in partitions_up_to(5):
            for t in enumerate_ssyt(shape, 3):
                assert promote_inverse(promote(t)) == t
                assert promote(promote_inverse(t)) == t


class TestOrbit:
    def test_single_box_period(self):
        orb = orbit(T([[1]], 3))
        assert orb.period == 3

    def test_two_by_three_ceiling_five_period(self):
        orb = orbit(T([[1, 2, 3], [3, 4, 4]], 5))
        assert orb.period == 5
        assert len(set(orb.elements)) == 5

    def test_rectangular_periods_divide_ceiling(self):
        for t in enumerate_ssyt((2, 2), 4):
            assert 4 % orbit(t).period == 0

    def test_representative_is_reading_word_minimum(self):
        orb = orbit(T([[1, 2, 3], [3, 4, 4]], 5))
        keys = [x.row_reading() for x in orb.elements]
        assert keys[0] == min(keys)

    def test_cycle_structure(self):
        orb = orbit(T([[1, 2], [2, 3]], 4))
        for i, x in enumerate(orb.elements):
            assert promote(x) == orb.elements[(i + 1) % orb.period]

    def test_inverse_operator_orbit(self):
        orb = orbit(T([[1]], 4), "promote_inverse")
        assert orb.period == 4

    @pytest.mark.parametrize("operator, step", [("promote", promote), ("promote_inverse", promote_inverse)])
    def test_the_word_walk_is_the_object_walk_rotated_to_its_least_word(self, operator, step):
        for shape in partitions_up_to(5):
            for k in range(1, 5):
                for t in enumerate_ssyt(shape, k):
                    elements = list(cycle(t, step))
                    words = [x.row_reading() for x in elements]
                    lead = words.index(min(words))
                    rotated = tuple(elements[lead:] + elements[:lead])
                    assert orbit(t, operator) == Orbit(rotated[0], rotated, len(rotated))

    def test_rejects_skew_shape(self):
        with pytest.raises(PreconditionError, match="^promotion requires a straight shape$"):
            orbit(T([[2], [1]], 3, (1,)))


def test_a_second_ceiling_on_a_shape_compiles_no_key_test(monkeypatch):
    # the key tests depend on the shape alone: the ceiling enters through the bounds appended to the word
    compiled = recorded_compiles(monkeypatch)
    dynamics.straight_layout.cache_clear()
    t = next(enumerate_ssyt((4, 2, 1), 5))
    promote(t)
    assert len(compiled) == 2  # the row test and the column test
    for k in range(5, 9):
        t = next(enumerate_ssyt((4, 2, 1), k))
        promote(evacuate(partial_promote(t, 2)))
        orbit(t, "promote_inverse")
        promotion_period_words(t)
    assert len(compiled) == 2


class TestCycle:
    def test_promotion_cycle_closes(self):
        t = T([[1, 2, 3], [3, 4, 4]], 5)
        elements = list(cycle(t, promote))
        assert len(elements) == len(set(elements)) == 5
        assert elements[0] == t and promote(elements[-1]) == t

    def test_constant_step_fails_loudly(self):
        with pytest.raises(PreconditionError, match="not injective"):
            list(cycle(T([[1]], 3), lambda t: T([[2]], 3)))

    def test_the_walk_without_a_set_still_finds_a_revisit(self):
        with pytest.raises(PreconditionError, match="^the step map is not injective: the walk revisited an element$"):
            list(cycle(0, lambda x: min(x + 1, 2)))
        assert list(cycle(0, lambda x: (x + 1) % 3)) == [0, 1, 2]


class TestPromotionPeriod:
    def test_rectangle_repeats_a_short_orbit_to_the_ceiling(self):
        t = T([[1, 2], [3, 4]], 4)
        _, p = promotion_period_words(t)
        assert len(set(p)) == 2
        assert len(p) == 4 and p[0] == t.row_reading() and p[2] == p[0]

    def test_the_empty_tableau_with_ceiling_zero_has_an_empty_period(self):
        assert promotion_period_words(T([], 0))[1] == []
        assert promotion_period_words(T([], 2))[1] == [()] * 2

    def test_non_rectangle_period_is_the_orbit(self):
        _, p = promotion_period_words(T_MAIN)
        assert p == [t.row_reading() for t in cycle(T_MAIN, promote)]
        assert len(p) == 12

    def test_rejects_skew_shape(self):
        skew = T([[2], [1]], 3, (1,))
        with pytest.raises(PreconditionError, match="promotion orbits require a straight shape"):
            promotion_period_words(skew)

    @pytest.mark.parametrize("walk", [orbit, promotion_period_words], ids=lambda f: f.__name__)
    def test_refuses_a_tableau_that_is_not_semistandard(self, walk):
        with pytest.raises(PreconditionError, match="^not semistandard$"):
            walk(T([[1, 2], [1, 3]], 3))

    def test_every_period_word_is_checked_semistandard(self, monkeypatch):
        # a kernel that steps (1, 2) to a decreasing row
        def kernel(layout, k, pack):
            return lambda word: (2, 1) if word == (1, 2) else (1, 2)

        monkeypatch.setitem(dynamics.OPERATORS, "promote", kernel)
        with pytest.raises(PreconditionError, match="^not semistandard$"):
            promotion_period_words(T([[1, 2]], 2))

    def test_orbit_not_dividing_the_ceiling_is_a_bug(self, monkeypatch):
        # the period walks reading words with the registered promote kernel
        a, b = (1, 2), (1, 3)

        def swap(layout, k, pack):
            return lambda word: b if word == a else a

        monkeypatch.setitem(dynamics.OPERATORS, "promote", swap)
        with pytest.raises(RuntimeError, match="bug in promote"):
            promotion_period_words(T([[1, 2]], 3))


class TestOrbitMemo:
    @staticmethod
    def sorted_period(walks):
        def period(t):
            walks.append(t)
            _, words = promotion_period_words(t)
            return words, sorted(words)

        return period

    def test_each_orbit_is_walked_once(self):
        walks = []
        of = orbit_memo(self.sorted_period(walks))
        tableaux = list(enumerate_ssyt((3, 3), 4))  # orbits that share a content
        for t in tableaux:
            assert of(t) == sorted(promotion_period_words(t)[1])
        assert len(walks) == len({orbit(t).representative for t in tableaux})

    def test_a_word_is_kept_under_its_shape_and_ceiling(self):
        walks = []
        of = orbit_memo(self.sorted_period(walks))
        of(T([[1, 2], [3]], 3))  # reading word (3, 1, 2)
        assert of(T([[1, 2], [3]], 4)) == sorted(promotion_period_words(T([[1, 2], [3]], 4))[1])
        with pytest.raises(PreconditionError, match="^not semistandard$"):
            of(T([[3, 1, 2]], 3))
        assert len(walks) == 3


class TestConjugationIdentities:
    def test_evacuation_conjugates_promotion(self):
        for t in enumerate_ssyt((2, 1), 3):
            assert evacuate(promote(t)) == promote_inverse(evacuate(t))

    def test_rectangular_period_divides_ceiling_via_power(self):
        for t in enumerate_ssyt((2, 2), 3):
            cur = t
            for _ in range(3):
                cur = promote(cur)
            assert cur == t


class TestNonSemistandardInput:
    """The tableau steps slide on the reading word, which needs a
    semistandard tableau; any other is refused with one error."""

    CASES = [
        # a row that decreases
        T([[2, 1]], 3),
        # a column that does not increase strictly
        T([[1, 2], [2, 2]], 2),
        # a 1 below the first row
        T([[2], [1]], 2),
        T([[1, 2], [1, 3]], 3),
        # the entries <= 1 do not form a straight shape
        T([[3], [1]], 3),
        T([[2, 3], [1]], 3),
    ]

    @pytest.mark.parametrize("t", CASES, ids=repr)
    @pytest.mark.parametrize("step", [promote, promote_inverse, evacuate], ids=lambda f: f.__name__)
    def test_steps_refuse_it(self, t, step):
        assert not validate(t, "semistandard")
        with pytest.raises(PreconditionError, match="^not semistandard$"):
            step(t)

    @pytest.mark.parametrize("t", CASES, ids=repr)
    def test_partial_promotion_refuses_it_at_every_ceiling(self, t):
        for i in range(1, t.ceiling + 1):
            with pytest.raises(PreconditionError, match="^not semistandard$"):
                partial_promote(t, i)

    def test_the_shape_and_the_ceiling_are_checked_too(self):
        skew = T([[1], [2]], 2, (1,))
        for step in (promote, promote_inverse, evacuate, lambda t: partial_promote(t, 1)):
            with pytest.raises(PreconditionError, match="requires a straight shape"):
                step(skew)
        with pytest.raises(PreconditionError, match="ceiling 3 out of range"):
            partial_promote(T([[1, 2]], 2), 3)


class TestLargerRandomizedCases:
    def test_identities_hold_beyond_the_exhaustive_range(self):
        rng = random.Random(40)
        for shape, k in (((6, 5, 3, 2), 7), ((5, 5, 5), 8), ((9, 4, 1), 6)):
            for _ in range(25):
                t = random_ssyt(shape, k, rng)
                assert promote(t) == promote_via_toggles(t)
                assert promote_inverse(promote(t)) == t
                e = evacuate(t)
                assert e == evacuate_via_toggles(t)
                assert evacuate(e) == t
                assert evacuate(promote(t)) == promote_inverse(e)

    def test_rectangular_identities_on_larger_rectangles(self):
        rng = random.Random(41)
        for _ in range(15):
            t = random_ssyt((4, 4, 4), 7, rng)
            assert evacuate(t) == rotate_complement(t)
            cur = t
            for _ in range(7):
                cur = promote(cur)
            assert cur == t


class TestNoncrossingSlides:
    def test_second_slide_stays_strictly_left_on_shared_rows(self):
        rng = random.Random(5)
        cases = 0
        for outer, inner in (((4, 4, 3), (3, 1)), ((5, 4, 2), (4, 2)), ((4, 3, 3), (2, 1))):
            tableaux = list(enumerate_ssyt(outer, 3, inner=inner))
            rng.shuffle(tableaux)
            for t in tableaux[:40]:
                corners = inner_corners(t)
                for first_corner in corners:
                    rec1 = jdt_slide(t, first_corner)
                    second = (first_corner[0], first_corner[1] - 1)
                    if second not in inner_corners(rec1.result):
                        continue
                    rec2 = jdt_slide(rec1.result, second)
                    rows1 = {r for r, _ in rec1.path}
                    rows2 = {r for r, _ in rec2.path}
                    for row in rows1 & rows2:
                        right1 = max(c for r, c in rec1.path if r == row)
                        right2 = max(c for r, c in rec2.path if r == row)
                        assert right2 < right1
                        cases += 1
        assert cases > 0
