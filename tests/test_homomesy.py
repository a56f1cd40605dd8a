import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest

from promotab import dynamics
from promotab.dynamics import orbit
from promotab.errors import BudgetExceededError, PreconditionError
from promotab.growth import orbit_values
from promotab.homomesy import (
    CellStatistic,
    cell_sum,
    count_symmetric_subsets,
    fraction_str,
    inc_system,
    orbit_average,
    partition_orbits,
    reports_to_json,
    ssyt_system,
    symmetric_subsets,
    syt_poset_system,
    verdict,
)
from promotab.ktableaux import IncreasingTableau, increasing_from_grid
from promotab.posets import (
    FinitePoset,
    LinearExtension,
    build_cominuscule,
    ferrers_poset,
    linear_extensions,
    rotate,
)
from promotab.shapes import KEYS_PER_CHUNK, Tableau, count_ssyt, enumerate_ssyt, key_packer
from util import as_tuples, element_of, orbit_walks, recorded_compiles, tuple_keyed, walked_partition


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
        system = ssyt_system((2, 2), 4)
        partition = partition_orbits(system, budget=100)
        for statistic in symmetric_subsets(system):
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
        assert base.count(19) == base.count(20) == 20
        system = replace(base, enumerate=refuse)
        with pytest.raises(PreconditionError, match="budget must be positive"):
            partition_orbits(system, budget=0)
        with pytest.raises(BudgetExceededError, match="exceeds the element budget 19"):
            partition_orbits(system, budget=19)
        assert sum(partition_orbits(base, budget=20).sizes) == 20

    @pytest.mark.parametrize("kind", ["ssyt", "inc"])
    @pytest.mark.parametrize("off", [-1, 1])
    def test_an_enumeration_that_misses_its_count_is_refused(self, kind, off):
        base = ssyt_system((2, 2), 4) if kind == "ssyt" else inc_system(build_cominuscule("rectangle", 3, 4), 3)
        size = len(list(base.enumerate()))
        system = replace(base, count=lambda cap: size + off)
        with pytest.raises(PreconditionError, match=re.escape(f"{base.description}: the enumeration does not yield")):
            partition_orbits(system, budget=size + 1)

    def test_poset_system(self):
        p = build_cominuscule("shifted_staircase", 3)
        statistic = CellStatistic(support=frozenset({p.element_at((1, 3)), p.element_at((2, 2))}), name="diag")
        report = verdict(partition_orbits(syt_poset_system(p), budget=100), statistic)
        assert report.homomesic and report.common_average == 7


# Each build returns a system, statistics on it, its size, and the
# constructor and ceiling or poset that rebuild its elements from keys.


def _ssyt_3x3():
    system = ssyt_system((3, 3, 3), 6)
    return system, list(symmetric_subsets(system)), count_ssyt((3, 3, 3), 6), (Tableau, 6)


def _inc_3x4():
    p = build_cominuscule("rectangle", 3, 4)
    system = inc_system(p, 3)
    return system, list(symmetric_subsets(system)), 882, (IncreasingTableau, p)


def _cayley():
    p = build_cominuscule("cayley")
    system = syt_poset_system(p)
    return system, list(symmetric_subsets(system)), 78, (LinearExtension, p)


def _partition_331():
    support = frozenset({(1, 1), (3, 1), (2, 3)})
    return ssyt_system((3, 3, 1), 4), [CellStatistic(support, "cells")], count_ssyt((3, 3, 1), 4), (Tableau, 4)


def _cayley_mixed():
    # element 1 and its box (1, 1) name one position, which counts twice
    p = build_cominuscule("cayley")
    support = frozenset({1, (1, 1), (2, 3)})
    return syt_poset_system(p), [CellStatistic(support, "mixed")], 78, (LinearExtension, p)


def _shifted_staircase_boxes():
    p = build_cominuscule("shifted_staircase", 4)
    support = frozenset({(1, 1), (2, 3), (4, 4)})
    size = sum(1 for _ in linear_extensions(p))
    return syt_poset_system(p), [CellStatistic(support, "boxes")], size, (LinearExtension, p)


PARTITION_SYSTEMS = [_ssyt_3x3, _inc_3x4, _cayley, _cayley_mixed, _partition_331, _shifted_staircase_boxes]


def _orbits_by_definition(system, size, spec):
    """The system's orbits by :func:`util.orbit_walks`: each as its least key and
    the objects of its keys, rebuilt with their validating constructor."""
    return [(min(walk), [element_of(system, key, *spec) for key in walk]) for walk in orbit_walks(system, size)]


def _items(element):
    """Every support item an element accepts: its boxes, or its poset's
    elements and their boxes."""
    if isinstance(element, Tableau):
        return list(element.boxes())
    p = element.poset
    return [*p.elements(), *(p.embedding or {}).values()]


class TestPartition:
    @pytest.mark.parametrize("build", PARTITION_SYSTEMS)
    def test_totals_match_definition(self, build):
        system, statistics, size, spec = build()
        partition = partition_orbits(system, budget=100_000)
        assert sum(partition.sizes) == size
        orbits = _orbits_by_definition(system, size, spec)
        assert list(zip(partition.sizes, partition.leads)) == [(len(elements), lead) for lead, elements in orbits]
        for statistic in statistics:
            report = verdict(partition, statistic)
            assert [o.average for o in report.orbits] == [
                orbit_average(elements, statistic) for _, elements in orbits
            ]

    @pytest.mark.parametrize("build", PARTITION_SYSTEMS)
    def test_verdicts_match_definition(self, build):
        system, statistics, size, spec = build()
        partition = partition_orbits(system, budget=100_000)
        orbits = _orbits_by_definition(system, size, spec)
        outcomes = set()
        for statistic in statistics:
            report = verdict(partition, statistic)
            averages = [orbit_average(elements, statistic) for _, elements in orbits]
            first_other = next((j for j, a in enumerate(averages) if a != averages[0]), None)
            assert report.verdict == ("homomesic" if first_other is None else "violated")
            assert report.witness == (None if first_other is None else (report.orbits[0], report.orbits[first_other]))
            outcomes.add(report.verdict)
        # symmetric supports are homomesic but for the paper's counterexample on
        # inc(3x4), and the two asymmetric supports are not
        mixed = {_inc_3x4: {"homomesic", "violated"}, _cayley_mixed: {"violated"}, _partition_331: {"violated"}}
        assert outcomes == mixed.get(build, {"homomesic"})

    @pytest.mark.parametrize("build", PARTITION_SYSTEMS)
    def test_positions_match_definition(self, build):
        system, _, _, spec = build()
        keys = list(system.enumerate())
        # the first keys and a spread of later ones, whose entries differ more
        for key in keys[:3] + keys[:: max(1, len(keys) // 20)]:
            element = element_of(system, key, *spec)
            for item in _items(element):
                assert key[system.position(item)] == cell_sum(element, {item}), (key, item)

    @pytest.mark.parametrize(
        "enumerate, step",
        [
            # (the system's keys are bytes) every element steps to one fixed element, [[1, 1], [2, 2]]
            (lambda: ssyt_system((2, 2), 3).enumerate(), lambda words: [bytes((2, 2, 1, 1))] * len(words)),
            # promotion leaves an enumeration that stops short: entry (1, 1) is the third letter
            (lambda: (w for w in ssyt_system((2, 2), 3).enumerate() if w[2] == 1), None),
            # an enumeration that repeats an element
            (lambda: [*ssyt_system((2, 2), 3).enumerate(), bytes((2, 2, 1, 1))], None),
            # an enumeration that yields a word that is not semistandard, [[2, 2], [1, 1]],
            # under a step that is a bijection on any set
            (lambda: [*ssyt_system((2, 2), 3).enumerate(), bytes((1, 1, 2, 2))], lambda words: list(words)),
            # a step that gives one image fewer than its keys, each a key: the last key would look fixed
            (lambda: ssyt_system((2, 2), 3).enumerate(), lambda words: list(words)[:-1]),
        ],
        ids=["constant-step", "step-leaves-set", "repeated-element", "invalid-key", "short-step"],
    )
    def test_non_bijective_system_fails_loudly(self, enumerate, step):
        base = ssyt_system((2, 2), 3)
        system = replace(base, description="broken", enumerate=enumerate, step=step or base.step)
        with pytest.raises(PreconditionError, match="broken"):
            partition_orbits(system, budget=100)

    def test_a_step_that_moves_an_image_into_another_chunk_fails_loudly(self):
        # every chunk after the first gives the images of the keys one place on, the
        # first one image too many, so the images, concatenated, are the keys in order
        base = ssyt_system((3, 3), 9)
        keys = list(base.enumerate())
        assert KEYS_PER_CHUNK < len(keys) <= 2 * KEYS_PER_CHUNK
        index = {key: i for i, key in enumerate(keys)}

        def step(words):
            start = index[words[0]]
            return keys[start + (start > 0) : start + len(words) + 1]

        system = replace(base, description="broken", step=step)
        with pytest.raises(PreconditionError, match=f"broken: the step gives {KEYS_PER_CHUNK + 1} images of {KEYS_PER_CHUNK} keys"):
            partition_orbits(system, budget=len(keys))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ssyt_system((3, 3, 3), 5),
            lambda: ssyt_system((3, 2), 4, "promote_inverse"),
            lambda: syt_poset_system(build_cominuscule("cayley")),
            lambda: inc_system(build_cominuscule("rectangle", 3, 4), 3),
        ],
        ids=["ssyt", "ssyt-inverse", "linear-extensions", "increasing"],
    )
    def test_the_walk_builds_no_validated_object(self, monkeypatch, build):
        system = build()
        built = []
        for cls in (Tableau, LinearExtension, IncreasingTableau):

            def counted(obj, *args, _init=cls.__init__, **kwargs):
                built.append(type(obj))
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        partition = partition_orbits(system, budget=100_000)
        assert len(partition.leads) > 1
        assert built == []

    def test_an_empty_partition_is_vacuously_homomesic_and_never_reads_its_support(self):
        def refuse(item):
            raise AssertionError(f"support item {item} was resolved")

        system = replace(ssyt_system((2, 2), 0), position=refuse)
        partition = partition_orbits(system, budget=10)
        assert (partition.leads, partition.sizes, partition.columns) == ((), (), ())
        for statistic in [stat(), stat((1, 1)), stat((1, 1), (5, 5))]:
            report = verdict(partition, statistic)
            assert (report.verdict, report.orbits, report.witness, report.common_average) == ("homomesic", (), None, None)

    @pytest.mark.parametrize(
        "build",
        [lambda: ssyt_system((3, 3), 4), lambda: tuple_keyed(inc_system(build_cominuscule("rectangle", 3, 4), 3))],
        ids=["bytes", "tuple"],
    )
    def test_a_column_read_first_is_its_column_among_all(self, build):
        system = build()
        partition = partition_orbits(system, budget=100_000)
        length = partition.length
        assert length == len(partition.leads[0]) > 1
        first = partition.column(length // 2)
        assert first is partition.column(length // 2)  # summed once
        columns = partition_orbits(system, budget=100_000).columns  # no column read yet
        assert len(columns) == length and columns[length // 2] == first
        assert partition.columns == columns == walked_partition(system)[2]
        # a position one past either end would read a neighbour's entries
        for p in (length, -1):
            with pytest.raises(PreconditionError, match=rf"key position {p} outside 0\.\.{length - 1}"):
                partition.column(p)

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
        assert len(list(symmetric_subsets(ssyt_system((2, 2), 3)))) == 4

    def test_three_by_three_has_thirty_two(self):
        assert len(list(symmetric_subsets(ssyt_system((3, 3, 3), 3)))) == 32

    def test_one_by_one_has_two(self):
        subsets = list(symmetric_subsets(ssyt_system((1,), 3)))
        assert len(subsets) == 2
        assert frozenset() in {s.support for s in subsets}

    def test_poset_variant(self):
        p = build_cominuscule("propeller", 3)
        assert len(list(symmetric_subsets(syt_poset_system(p)))) == 4

    @pytest.mark.parametrize(
        "system",
        [
            ssyt_system((1,), 3),
            ssyt_system((3, 3, 3), 0),
            ssyt_system((4, 4), 2),
            syt_poset_system(build_cominuscule("propeller", 4)),
            syt_poset_system(build_cominuscule("shifted_staircase", 3)),
            inc_system(build_cominuscule("cayley"), 2),
        ],
        ids=["1x1", "3x3-empty", "2x4", "propeller", "staircase", "cayley"],
    )
    def test_the_count_is_the_number_yielded(self, system):
        assert count_symmetric_subsets(system) == len(list(symmetric_subsets(system)))

    def test_a_system_without_rotate_is_not_counted(self):
        with pytest.raises(PreconditionError, match="has no rotate involution"):
            count_symmetric_subsets(ssyt_system((2, 1), 3))

    def test_supports_are_fixed_by_rotation(self):
        for s in symmetric_subsets(ssyt_system((3, 3), 4)):
            rotated = {(3 - r, 4 - c) for r, c in s.support}
            assert rotated == set(s.support)

    @pytest.mark.parametrize(
        "system, names",
        [
            (
                ssyt_system((3, 3), 4),
                [
                    "cells:[]",
                    "cells:[(1, 1), (2, 3)]",
                    "cells:[(1, 2), (2, 2)]",
                    "cells:[(1, 1), (1, 2), (2, 2), (2, 3)]",
                    "cells:[(1, 3), (2, 1)]",
                    "cells:[(1, 1), (1, 3), (2, 1), (2, 3)]",
                    "cells:[(1, 2), (1, 3), (2, 1), (2, 2)]",
                    "cells:[(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]",
                ],
            ),
            (
                ssyt_system((2, 2, 2), 4),
                [
                    "cells:[]",
                    "cells:[(1, 1), (3, 2)]",
                    "cells:[(1, 2), (3, 1)]",
                    "cells:[(1, 1), (1, 2), (3, 1), (3, 2)]",
                    "cells:[(2, 1), (2, 2)]",
                    "cells:[(1, 1), (2, 1), (2, 2), (3, 2)]",
                    "cells:[(1, 2), (2, 1), (2, 2), (3, 1)]",
                    "cells:[(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]",
                ],
            ),
            (
                # the two center elements, 3 and 4, are fixed classes
                syt_poset_system(build_cominuscule("propeller", 4)),
                [
                    "elements:[]",
                    "elements:[1, 6]",
                    "elements:[2, 5]",
                    "elements:[1, 2, 5, 6]",
                    "elements:[3]",
                    "elements:[1, 3, 6]",
                    "elements:[2, 3, 5]",
                    "elements:[1, 2, 3, 5, 6]",
                    "elements:[4]",
                    "elements:[1, 4, 6]",
                    "elements:[2, 4, 5]",
                    "elements:[1, 2, 4, 5, 6]",
                    "elements:[3, 4]",
                    "elements:[1, 3, 4, 6]",
                    "elements:[2, 3, 4, 5]",
                    "elements:[1, 2, 3, 4, 5, 6]",
                ],
            ),
        ],
        ids=["2x3", "3x2", "propeller4"],
    )
    def test_statistics_come_in_order_of_their_least_items(self, system, names):
        assert [s.name for s in symmetric_subsets(system)] == names

    @pytest.mark.parametrize(
        "system",
        [ssyt_system((3, 2), 4), syt_poset_system(ferrers_poset((2, 2)))],
        ids=["ssyt-non-rectangle", "ferrers-poset"],
    )
    def test_a_system_without_rotate_is_refused(self, system):
        assert system.rotate is None
        with pytest.raises(PreconditionError, match=rf"^{re.escape(system.description)} has no rotate involution$"):
            list(symmetric_subsets(system))


class TestComplementIdentity:
    def test_box_multisets_complement_under_rotation(self):
        m, n, k = 2, 2, 4
        for t in enumerate_ssyt((n,) * m, k):
            for r, c in t.boxes():
                star = (m + 1 - r, n + 1 - c)
                vals = orbit_values(t, (r, c))
                comp = tuple(sorted(k + 1 - v for v in orbit_values(t, star)))
                assert vals == comp


# Each build returns a system and the rotate on its items by the
# definition: the dict of (r, c) -> (m+1-r, n+1-c) on the boxes of an
# m x n rectangle, or posets.rotate on a poset's elements.


def _ssyt_rotated(shape, k, operator="promote"):
    m, n = len(shape), shape[0]
    return ssyt_system(shape, k, operator), {(r, c): (m + 1 - r, n + 1 - c) for r in range(1, m + 1) for c in range(1, n + 1)}


def _poset_rotated(p):
    return syt_poset_system(p), rotate(p)


def _inc_rotated(p, q):
    return inc_system(p, q), rotate(p)


# the systems that the acceptance sweeps c03, c09 and c10 partition, and the
# four of the benchmark's one-stat-large workload
WALKED_SYSTEMS = {
    "c03": lambda: [
        _ssyt_rotated((n,) * m, k) for m, n, top in ((2, 2, 5), (2, 3, 5), (3, 3, 4)) for k in range(1, top + 1)
    ],
    "c09": lambda: [
        _poset_rotated(p)
        for p in [
            *(build_cominuscule("shifted_staircase", n) for n in (1, 2, 3)),
            *(build_cominuscule("propeller", n) for n in (3, 4)),
            *(build_cominuscule("rectangle", m, n) for m in range(1, 11) for n in range(1, 11) if m * n <= 10),
        ]
    ],
    "c10": lambda: [_inc_rotated(build_cominuscule("rectangle", 2, n), q) for n in range(1, 6) for q in range(2 * n)],
    "one-stat-large": lambda: [
        _ssyt_rotated((3, 3, 3), 8),
        _ssyt_rotated((3, 3, 3), 8, "promote_inverse"),
        _poset_rotated(build_cominuscule("freudenthal")),
        _inc_rotated(build_cominuscule("rectangle", 3, 5), 3),
    ],
}
# the walked systems and increasing tableaux on posets that are not rectangles
ROTATED_SYSTEMS = {
    **WALKED_SYSTEMS,
    "non-rectangular": lambda: [
        _inc_rotated(build_cominuscule("shifted_staircase", 3), 2),
        _inc_rotated(build_cominuscule("propeller", 4), 1),
    ],
}


class TestRotatedSystems:
    @pytest.mark.parametrize("group", WALKED_SYSTEMS)
    def test_the_partition_is_the_walked_one(self, group):
        for system, _ in WALKED_SYSTEMS[group]():
            calls = []

            def step(keys, step=system.step):
                calls.append(list(keys))
                return step(keys)

            partition = partition_orbits(replace(system, step=step), budget=100_000)
            assert system.rotate is not None
            assert as_tuples(partition) == walked_partition(system), system.description
            # the step sees every enumerated key exactly once, in order, in
            # chunks of at most KEYS_PER_CHUNK keys, and the walks read the images it gave
            assert list(chain.from_iterable(calls)) == list(system.enumerate()), system.description
            assert all(0 < len(keys) <= KEYS_PER_CHUNK for keys in calls), system.description

    @pytest.mark.parametrize("group", ROTATED_SYSTEMS)
    def test_the_rotate_on_positions_is_the_rotate_of_the_items(self, group):
        # rho is an involution of the key positions; item(i) is at position
        # i, and its rotate, by the definition on items, at position rho(i)
        for system, turn in ROTATED_SYSTEMS[group]():
            images, item = system.rotate
            positions = list(range(len(turn)))
            assert sorted(images) == positions, system.description
            assert [images[j] for j in images] == positions, system.description
            assert [system.position(item(i)) for i in positions] == positions, system.description
            assert [system.position(turn[item(i)]) for i in positions] == list(images), system.description

    def test_a_refused_system_resolves_no_position(self):
        def refuse(item):
            raise AssertionError(f"support item {item} was resolved")

        system = replace(ssyt_system((2, 2), 4), position=refuse)
        with pytest.raises(BudgetExceededError):
            partition_orbits(system, budget=19)

    @pytest.mark.parametrize(
        "build",
        [lambda: ssyt_system((3, 3), 4), lambda: syt_poset_system(build_cominuscule("shifted_staircase", 4))],
        ids=["ssyt", "poset"],
    )
    def test_an_admitted_system_resolves_no_position(self, build):
        # the walk reads no support item, nor the rotate
        def refuse(item):
            raise AssertionError(f"support item {item} was resolved")

        system = build()
        assert system.rotate is not None
        partition = partition_orbits(replace(system, position=refuse), budget=1000)
        assert sum(partition.sizes) == system.count(1000)
        assert as_tuples(partition) == as_tuples(partition_orbits(system, budget=1000))


def _chain(size):
    """The chain 1 < 2 < ... < size, with its rotate x -> size + 1 - x: one
    linear extension, and one increasing tableau of each deficiency."""
    return FinitePoset(size, [(x, x + 1) for x in range(1, size)], rotation={x: size + 1 - x for x in range(1, size + 1)})


class TestKeyPackers:
    """A system walks `bytes` keys when its entries and its key test's
    bounds fit in a byte, and int tuples otherwise, and either way finds
    the partition that its walk on tuple keys finds."""

    @pytest.mark.parametrize("group", WALKED_SYSTEMS)
    def test_bytes_keys_partition_like_tuple_keys(self, group):
        for system, _ in WALKED_SYSTEMS[group]():
            partition = partition_orbits(system, budget=100_000)
            oracle = partition_orbits(tuple_keyed(system), budget=100_000)
            # a system with no element (a column longer than its ceiling) has no lead
            assert {type(lead) for lead in partition.leads} <= {bytes}, system.description
            assert {type(lead) for lead in oracle.leads} <= {tuple}, system.description
            assert as_tuples(partition) == as_tuples(oracle), system.description

    @pytest.mark.parametrize("shape", [(2,), (1, 1)], ids=["row", "column"])
    @pytest.mark.parametrize("ceiling, pack", [(254, bytes), (255, tuple)])
    def test_the_ssyt_packer_is_bytes_up_to_ceiling_254(self, shape, ceiling, pack):
        # the key test appends ceiling + 1 to a word, which must fit in a byte too
        system = ssyt_system(shape, ceiling)
        partition = partition_orbits(system, budget=100_000)
        assert sum(partition.sizes) == count_ssyt(shape, ceiling)
        assert {type(lead) for lead in partition.leads} == {pack}
        assert as_tuples(partition) == as_tuples(partition_orbits(tuple_keyed(system), budget=100_000))
        assert as_tuples(partition) == walked_partition(system)
        # a bytes tuple equals no int tuple, so the representative holds int tuples
        lead = tuple(partition.leads[-1])  # a word reads the bottom row first
        assert system.representative(partition.leads[-1]) == ((lead,) if shape == (2,) else ((lead[1],), (lead[0],)))

    @pytest.mark.parametrize("size, pack", [(255, bytes), (256, tuple)])
    def test_the_poset_packer_is_bytes_up_to_255_elements(self, size, pack):
        p = _chain(size)
        for system in (syt_poset_system(p), inc_system(p, 0)):
            partition = partition_orbits(system, budget=10)
            assert [type(lead) for lead in partition.leads] == [pack], system.description
            assert as_tuples(partition) == walked_partition(system)
            assert system.representative(partition.leads[0]) == tuple(range(1, size + 1))

    def test_the_packer_is_chosen_by_the_largest_entry(self):
        assert [key_packer(largest) for largest in (0, 1, 255, 256, 10**6, -1)] == [bytes] * 3 + [tuple] * 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ssyt_system((2, 2), 3),
            lambda: ssyt_system((1, 1), 255),
            lambda: syt_poset_system(build_cominuscule("cayley")),
            lambda: inc_system(build_cominuscule("rectangle", 3, 4), 3),
        ],
        ids=["ssyt", "ssyt-tuple", "linear-extensions", "increasing"],
    )
    def test_a_key_of_the_other_type_is_refused_as_no_element(self, build):
        base = build()
        keys = list(base.enumerate())
        other = tuple if type(keys[0]) is bytes else bytes
        wrong = other(keys[-1])  # the last element's entries, in the other type
        assert base.admits(keys) is None and base.admits([*keys[:-1], wrong]) == len(keys) - 1
        assert base.admits([keys[-1]]) is None and base.admits([wrong]) == 0
        system = replace(base, description="broken", enumerate=lambda: [*keys[:-1], wrong])
        message = f"^broken: the enumeration yields {re.escape(str(wrong))}, which is not an element$"
        with pytest.raises(PreconditionError, match=message):
            partition_orbits(system, budget=100_000)


class TestJson:
    def test_fraction_strings_include_denominator(self):
        assert fraction_str(Fraction(10)) == "10/1"
        assert fraction_str(Fraction(91, 9)) == "91/9"

    def test_json_is_deterministic(self):
        report = verdict(partition_orbits(ssyt_system((2, 2), 3), budget=100), stat((1, 1), (2, 2)))
        assert reports_to_json([report]) == reports_to_json([report])
        assert '"verdict"' in reports_to_json([report])


def test_two_systems_on_one_shape_compile_no_further_key_test(monkeypatch):
    # a partition's key test packs the layout's pairs and generates no code
    compiled = recorded_compiles(monkeypatch)
    dynamics.straight_layout.cache_clear()
    partition_orbits(ssyt_system((3, 2), 4), budget=1000)
    assert len(compiled) == 0
    partition_orbits(ssyt_system((3, 2), 4), budget=1000)
    partition_orbits(ssyt_system([3, 2], 5, "promote_inverse"), budget=1000)
    assert len(compiled) == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: ssyt_system((4, 4, 4, 4), 8),
        lambda: syt_poset_system(build_cominuscule("freudenthal")),
        lambda: inc_system(build_cominuscule("rectangle", 3, 5), 3),
    ],
    ids=["ssyt-4x4-k8", "freudenthal", "inc-3x5-q3"],
)
def test_an_enumeration_keeps_little_beside_its_keys(build):
    # the completions kept below the middle level, the state graph and the
    # walk's stack take at most a tenth of what the keys themselves take
    system = build()
    tracemalloc.start()
    try:
        keys = list(system.enumerate())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (sys.getsizeof(keys) + sum(map(sys.getsizeof, keys)))
