from fractions import Fraction

import pytest

from promotab.dynamics import orbit
from promotab.errors import BudgetExceededError, PreconditionError
from promotab.growth import orbit_values
from promotab.homomesy import (
    CellStatistic,
    System,
    cell_sum,
    fraction_str,
    inc_system,
    orbit_average,
    partition_orbits,
    report_to_json,
    ssyt_system,
    symmetric_subsets,
    syt_poset_system,
    verdict,
)
from promotab.ktableaux import increasing_from_grid
from promotab.posets import build_cominuscule, linear_extensions
from promotab.shapes import Tableau, count_ssyt, enumerate_ssyt


def stat(*boxes):
    return CellStatistic(support=frozenset(boxes), name=f"cells:{sorted(boxes)}")


class TestCellSum:
    def test_empty_support(self):
        assert cell_sum(Tableau([[1, 2], [3, 4]], 4), frozenset()) == 0

    def test_counterexample_tableau_black_boxes(self):
        t = increasing_from_grid(Tableau([[1, 2, 3, 5], [2, 4, 5, 7], [3, 6, 8, 9]], 9))
        assert cell_sum(t, frozenset({(2, 2), (2, 3)})) == 9

    def test_full_support_of_standard_tableau_is_constant(self):
        full = frozenset((r, c) for r in (1, 2) for c in (1, 2))
        for t in enumerate_ssyt((2, 2), 4):
            if sorted(v for _, v in t.items()) == [1, 2, 3, 4]:
                assert cell_sum(t, full) == 10

    def test_poset_object_by_element_and_by_box(self):
        p = build_cominuscule("rectangle", 2, 2)
        ext = next(linear_extensions(p))
        by_elem = cell_sum(ext, frozenset({1, 4}))
        by_box = cell_sum(ext, frozenset({(1, 1), (2, 2)}))
        assert by_elem == by_box

    def test_out_of_range_support(self):
        with pytest.raises(PreconditionError):
            cell_sum(Tableau([[1]], 2), frozenset({(2, 2)}))

    def test_mixed_poset_support_counts_each_item(self):
        p = build_cominuscule("rectangle", 2, 2)
        ext = next(linear_extensions(p))
        assert cell_sum(ext, frozenset({1, (1, 1)})) == 2 * ext.label(1)

    def test_skew_tableau_boxes(self):
        t = Tableau([[2, 3], [1, 4]], 4, inner=(1,))
        assert cell_sum(t, frozenset({(1, 2), (1, 3), (2, 1), (2, 2)})) == 10
        with pytest.raises(PreconditionError, match=r"box \(1, 1\) is not present"):
            cell_sum(t, frozenset({(1, 1)}))


class TestOrbitAverage:
    def test_single_box_full_cycle(self):
        orb = orbit(Tableau([[1]], 3))
        assert orbit_average(orb.elements, stat((1, 1))) == 2

    def test_exactness(self):
        orb = orbit(Tableau([[1, 2, 3], [3, 4, 4]], 5))
        avg = orbit_average(orb.elements, stat((1, 1)))
        assert avg == Fraction(6, 5)


@pytest.mark.parametrize(
    "build",
    [lambda op: orbit(Tableau([[1]], 3), op), lambda op: ssyt_system((2, 2), 3, op)],
    ids=["orbit", "ssyt_system"],
)
def test_unknown_operator_is_rejected(build):
    with pytest.raises(PreconditionError, match="unknown operator 'bogus'"):
        build("bogus")


class TestVerify:
    def test_rectangular_symmetric_supports_are_homomesic(self):
        partition = partition_orbits(ssyt_system((2, 2), 4), budget=100)
        for statistic in symmetric_subsets((2, 2)):
            report = verdict(partition, statistic)
            assert report.homomesic
            assert report.common_average == Fraction(5 * len(statistic.support), 2)

    def test_total_size_partitioned(self):
        report = verdict(partition_orbits(ssyt_system((2, 2), 4), budget=100), stat())
        assert sum(o.size for o in report.orbits) == 20

    def test_violation_witness(self):
        p = build_cominuscule("rectangle", 3, 4)
        statistic = CellStatistic(
            support=frozenset({p.element_at((2, 2)), p.element_at((2, 3))}),
            name="cells:[(2,2),(2,3)]",
        )
        report = verdict(partition_orbits(inc_system(p, 3), budget=100_000), statistic)
        assert report.verdict == "violated"
        assert {fraction_str(o.average) for o in report.witness} == {"91/9", "10/1"}

    def test_informational_non_symmetric_support(self):
        report = verdict(partition_orbits(ssyt_system((2, 2), 3), budget=100), stat((1, 1)))
        assert report.verdict in ("homomesic", "violated")

    def test_budget_is_loud(self):
        with pytest.raises(BudgetExceededError):
            partition_orbits(ssyt_system((2, 2), 4), budget=10)

    def test_a_known_count_is_refused_before_enumeration(self):
        def refuse():
            raise AssertionError("enumerated a system known to exceed the budget")

        base = ssyt_system((2, 2), 4)
        assert base.count == 20
        system = System(base.description, refuse, base.step, base.sort_key, count=base.count)
        with pytest.raises(PreconditionError, match="budget must be positive"):
            partition_orbits(system, budget=0)
        with pytest.raises(BudgetExceededError, match="exceeds the element budget 19"):
            partition_orbits(system, budget=19)
        assert sum(o.size for o in partition_orbits(base, budget=20).orbits) == 20

    def test_poset_system(self):
        p = build_cominuscule("shifted_staircase", 3)
        statistic = CellStatistic(support=frozenset({p.element_at((1, 3)), p.element_at((2, 2))}), name="diag")
        report = verdict(partition_orbits(syt_poset_system(p), budget=100), statistic)
        assert report.homomesic and report.common_average == 7


def _orbit_from(system, lead, size):
    elements = [lead]
    for _ in range(size - 1):
        elements.append(system.step(elements[-1]))
    assert system.step(elements[-1]) == lead
    return elements


def _ssyt_3x3():
    return ssyt_system((3, 3, 3), 6), list(symmetric_subsets((3, 3))), count_ssyt((3, 3, 3), 6)


def _inc_3x4():
    p = build_cominuscule("rectangle", 3, 4)
    return inc_system(p, 3), list(symmetric_subsets(p)), 882


def _cayley():
    p = build_cominuscule("cayley")
    return syt_poset_system(p), list(symmetric_subsets(p)), 78


def _partition_331():
    support = frozenset({(1, 1), (3, 1), (2, 3)})
    return ssyt_system((3, 3, 1), 4), [CellStatistic(support, "cells")], count_ssyt((3, 3, 1), 4)


def _cayley_mixed():
    # element 1 and its box (1, 1) name one position, which counts twice
    p = build_cominuscule("cayley")
    support = frozenset({1, (1, 1), (2, 3)})
    return syt_poset_system(p), [CellStatistic(support, "mixed")], 78


def _shifted_staircase_boxes():
    p = build_cominuscule("shifted_staircase", 4)
    support = frozenset({(1, 1), (2, 3), (4, 4)})
    return syt_poset_system(p), [CellStatistic(support, "boxes")], sum(1 for _ in linear_extensions(p))


class TestPartition:
    @pytest.mark.parametrize(
        "build",
        [_ssyt_3x3, _inc_3x4, _cayley, _cayley_mixed, _partition_331, _shifted_staircase_boxes],
    )
    def test_totals_match_definition(self, build):
        system, statistics, size = build()
        partition = partition_orbits(system, budget=100_000)
        assert sum(o.size for o in partition.orbits) == size
        orbits = [_orbit_from(system, o.lead, o.size) for o in partition.orbits]
        for statistic in statistics:
            report = verdict(partition, statistic)
            assert [o.average for o in report.orbits] == [
                orbit_average(elements, statistic) for elements in orbits
            ]

    @pytest.mark.parametrize(
        "enumerate, step",
        [
            # every element steps to one fixed element
            (lambda: enumerate_ssyt((2, 2), 3), lambda t: Tableau([[1, 1], [2, 2]], 3)),
            # promotion leaves an enumeration that stops short
            (lambda: (t for t in enumerate_ssyt((2, 2), 3) if t.entry(1, 1) == 1), None),
            # an enumeration that repeats an element
            (lambda: [*enumerate_ssyt((2, 2), 3), Tableau([[1, 1], [2, 2]], 3)], None),
        ],
        ids=["constant-step", "step-leaves-set", "repeated-element"],
    )
    def test_non_bijective_system_fails_loudly(self, enumerate, step):
        base = ssyt_system((2, 2), 3)
        system = System("broken", enumerate, step or base.step, base.sort_key)
        with pytest.raises(PreconditionError, match="broken"):
            partition_orbits(system, budget=100)

    def test_support_is_validated_only_when_an_orbit_exists(self):
        bad = stat((5, 5))
        assert verdict(partition_orbits(ssyt_system((2, 2), 0), budget=10), bad).homomesic
        with pytest.raises(PreconditionError, match=r"box \(5, 5\) is not present"):
            verdict(partition_orbits(ssyt_system((2, 2), 2), budget=10), bad)
        p = build_cominuscule("shifted_staircase", 3)
        partition = partition_orbits(syt_poset_system(p), budget=100)
        with pytest.raises(PreconditionError, match="no element embedded at box"):
            verdict(partition, CellStatistic(frozenset({(3, 1)}), "off-grid"))
        with pytest.raises(PreconditionError, match="element 7 outside the poset"):
            verdict(partition, CellStatistic(frozenset({7}), "off-range"))


class TestSymmetricSubsets:
    def test_two_by_two_has_four(self):
        assert len(list(symmetric_subsets((2, 2)))) == 4

    def test_three_by_three_has_thirty_two(self):
        assert len(list(symmetric_subsets((3, 3)))) == 32

    def test_one_by_one_has_two(self):
        subsets = list(symmetric_subsets((1, 1)))
        assert len(subsets) == 2
        assert frozenset() in {s.support for s in subsets}

    def test_poset_variant(self):
        p = build_cominuscule("propeller", 3)
        assert len(list(symmetric_subsets(p))) == 4

    def test_supports_are_fixed_by_rotation(self):
        for s in symmetric_subsets((2, 3)):
            rotated = {(3 - r, 4 - c) for r, c in s.support}
            assert rotated == set(s.support)


class TestComplementIdentity:
    def test_box_multisets_complement_under_rotation(self):
        m, n, k = 2, 2, 4
        for t in enumerate_ssyt((n,) * m, k):
            for r, c in t.boxes():
                star = (m + 1 - r, n + 1 - c)
                vals = orbit_values(t, (r, c))
                comp = tuple(sorted(k + 1 - v for v in orbit_values(t, star)))
                assert vals == comp


class TestJson:
    def test_fraction_strings_include_denominator(self):
        assert fraction_str(Fraction(10)) == "10/1"
        assert fraction_str(Fraction(91, 9)) == "91/9"

    def test_json_is_deterministic(self):
        report = verdict(partition_orbits(ssyt_system((2, 2), 3), budget=100), stat((1, 1), (2, 2)))
        assert report_to_json(report) == report_to_json(report)
        assert '"verdict"' in report_to_json(report)
