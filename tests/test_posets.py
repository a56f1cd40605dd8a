import random
from fractions import Fraction

import pytest

from promotab.dynamics import evacuate as tableau_evacuate
from promotab.dynamics import promote as tableau_promote
from promotab.dynamics import toggle as tableau_toggle
from promotab.errors import ParseError, PreconditionError
from promotab.homomesy import CellStatistic, partition_orbits, syt_poset_system, verdict
from promotab.posets import (
    FinitePoset,
    LinearExtension,
    build_cominuscule,
    ferrers_poset,
    format_poset,
    linear_extensions,
    poset_evacuate,
    poset_promote,
    poset_promote_inverse,
    poset_toggle,
    rotate,
    rotate_reverse,
)
from promotab.shapes import Tableau, enumerate_syt
from util import brute_linear_extension_count, parse_poset, random_linear_extension


def chain(d):
    return FinitePoset(d, [(i, i + 1) for i in range(1, d)])


def antichain(d):
    return FinitePoset(d, [])


def tableau_to_extension(t: Tableau, p: FinitePoset) -> LinearExtension:
    labels = [t.entry(*p.embedding[x]) for x in p.elements()]
    return LinearExtension(p, labels)


def extension_to_tableau(ext: LinearExtension) -> Tableau:
    emb = ext.poset.embedding
    rows = {}
    for x in ext.poset.elements():
        r, c = emb[x]
        rows.setdefault(r, {})[c] = ext.label(x)
    out = []
    for r in sorted(rows):
        out.append(tuple(rows[r][c] for c in sorted(rows[r])))
    return Tableau(out, ext.poset.size)


class TestBuildCominuscule:
    def test_family_sizes(self):
        assert build_cominuscule("rectangle", 3, 5).size == 15
        assert build_cominuscule("shifted_staircase", 6).size == 21
        assert build_cominuscule("propeller", 7).size == 12
        assert build_cominuscule("cayley").size == 16
        assert build_cominuscule("freudenthal").size == 27

    def test_one_wide_staircase_is_a_single_cell(self):
        p = build_cominuscule("shifted_staircase", 1)
        assert p.size == 1 and not p.covers

    def test_propeller_three_is_the_diamond(self):
        p = build_cominuscule("propeller", 3)
        assert p.size == 4
        assert len(list(linear_extensions(p))) == brute_linear_extension_count(p) == 2

    def test_invalid_parameters(self):
        with pytest.raises(PreconditionError):
            build_cominuscule("propeller", 1)
        with pytest.raises(PreconditionError):
            build_cominuscule("rectangle", 0, 3)
        with pytest.raises(PreconditionError):
            build_cominuscule("nonsense")

    def test_transitive_reduction_enforced(self):
        with pytest.raises(PreconditionError):
            FinitePoset(3, [(1, 2), (2, 3), (1, 3)])

    def test_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            FinitePoset(2, [(1, 2), (2, 1)])

    @pytest.mark.parametrize(
        "size, covers, message",
        [
            (3, [(1, 2), (2, 3), (3, 1)], "cover relation contains a cycle"),
            (3, [(1, 2), (2, 3), (1, 3)], r"cover \(1, 3\) is implied by others \(not reduced\)"),
            (4, [(1, 2), (2, 3), (3, 4), (1, 3)], r"cover \(1, 3\) is implied by others \(not reduced\)"),
            (3, [(1, 2), (2, 4)], r"cover \(2, 4\) out of range for size 3"),
        ],
        ids=["3-cycle", "non-reduced", "non-reduced-in-a-longer-chain", "out-of-range"],
    )
    def test_invalid_covers_are_named(self, size, covers, message):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            FinitePoset(size, covers)

    def test_a_long_chain_builds(self):
        p = chain(3000)
        assert len(p.covers) == 2999
        assert p.lower_covers(3000) == (2999,)


class TestRotate:
    def test_rectangle_formula(self):
        p = build_cominuscule("rectangle", 2, 3)
        rot = rotate(p)
        assert p.embedding[rot[p.element_at((1, 1))]] == (2, 3)

    def test_staircase_fixes_antidiagonal_cells(self):
        p = build_cominuscule("shifted_staircase", 3)
        rot = rotate(p)
        fixed = {p.embedding[x] for x in p.elements() if rot[x] == x}
        assert fixed == {(1, 3), (2, 2)}

    def test_all_families_order_reversing_involutions(self):
        posets = [
            build_cominuscule("rectangle", 3, 4),
            build_cominuscule("shifted_staircase", 4),
            build_cominuscule("propeller", 5),
            build_cominuscule("cayley"),
            build_cominuscule("freudenthal"),
        ]
        for p in posets:
            rot = rotate(p)  # raises unless involution + order-reversing
            assert all(rot[rot[x]] == x for x in p.elements())

    def test_rotate_requires_a_built_family(self):
        with pytest.raises(PreconditionError):
            rotate(chain(3))

    def test_rotate_rejects_a_map_that_is_not_an_involution(self):
        p = FinitePoset(3, [], rotation={1: 2, 2: 3, 3: 1})
        with pytest.raises(PreconditionError, match="^rotation is not an involution$"):
            rotate(p)

    def test_rotate_rejects_a_map_that_keeps_the_order(self):
        p = FinitePoset(2, [(1, 2)], rotation={1: 1, 2: 2})
        with pytest.raises(PreconditionError, match="^rotation is not order-reversing$"):
            rotate(p)


class TestLinearExtensions:
    def test_chain_has_one(self):
        assert len(list(linear_extensions(chain(4)))) == 1

    def test_a_long_chain_has_one(self):
        found = list(linear_extensions(chain(3000)))
        assert [e.labels for e in found] == [tuple(range(1, 3001))]

    def test_antichain_has_factorial_many(self):
        assert len(list(linear_extensions(antichain(3)))) == 6

    def test_counts_match_brute_force(self):
        for p in (ferrers_poset((2, 1)), ferrers_poset((2, 2)), build_cominuscule("propeller", 4)):
            found = list(linear_extensions(p))
            assert len(found) == brute_linear_extension_count(p)
            assert len(set(found)) == len(found)

    def test_random_extension_is_valid(self):
        rng = random.Random(3)
        p = build_cominuscule("cayley")
        for _ in range(20):
            LinearExtension(p, random_linear_extension(p, rng).labels)


class TestPosetToggles:
    def test_comparable_pair_is_fixed(self):
        t = next(linear_extensions(chain(3)))
        for i in (1, 2):
            assert poset_toggle(t, i) == t

    def test_antichain_swap(self):
        p = antichain(2)
        t = LinearExtension(p, (1, 2))
        assert poset_toggle(t, 1) == LinearExtension(p, (2, 1))

    def test_involution(self):
        p = ferrers_poset((2, 2))
        for t in linear_extensions(p):
            for i in range(1, 4):
                assert poset_toggle(poset_toggle(t, i), i) == t

    def test_agrees_with_tableau_toggle_on_rectangles(self):
        p = build_cominuscule("rectangle", 2, 3)
        for tab in enumerate_syt((3, 3)):
            ext = tableau_to_extension(tab, p)
            for i in range(1, 6):
                assert extension_to_tableau(poset_toggle(ext, i)) == tableau_toggle(tab, i)


class TestPosetPromotionEvacuation:
    def test_chain_promotion_is_identity(self):
        t = next(linear_extensions(chain(4)))
        assert poset_promote(t) == t
        assert poset_evacuate(t) == t

    def test_bridges_to_tableau_dynamics(self):
        for m, n in ((2, 3), (2, 4)):
            p = build_cominuscule("rectangle", m, n)
            for tab in enumerate_syt((n,) * m):
                ext = tableau_to_extension(tab, p)
                assert extension_to_tableau(poset_promote(ext)) == tableau_promote(tab)
                assert extension_to_tableau(poset_evacuate(ext)) == tableau_evacuate(tab)

    def test_promote_inverse(self):
        p = build_cominuscule("propeller", 4)
        for t in linear_extensions(p):
            assert poset_promote_inverse(poset_promote(t)) == t

    def test_evacuation_involution_and_conjugation(self):
        p = build_cominuscule("shifted_staircase", 3)
        for t in linear_extensions(p):
            assert poset_evacuate(poset_evacuate(t)) == t
            assert poset_evacuate(poset_promote(t)) == poset_promote_inverse(poset_evacuate(t))

    def test_evacuation_is_rotate_reverse_small_families(self):
        for p in (
            build_cominuscule("shifted_staircase", 3),
            build_cominuscule("propeller", 4),
            build_cominuscule("rectangle", 2, 4),
        ):
            for t in linear_extensions(p):
                assert poset_evacuate(t) == rotate_reverse(t)

    def test_evacuation_is_rotate_reverse_sampled_exceptional(self):
        rng = random.Random(17)
        for name in ("cayley", "freudenthal"):
            p = build_cominuscule(name)
            for _ in range(60):
                t = random_linear_extension(p, rng)
                assert poset_evacuate(t) == rotate_reverse(t)


def poset_verdict(p, support):
    stat = CellStatistic(support=frozenset(support), name=f"elements{sorted(support)}")
    return verdict(partition_orbits(syt_poset_system(p), budget=100_000), stat)


class TestCominusculeHomomesy:
    def test_staircase_antidiagonal_support(self):
        p = build_cominuscule("shifted_staircase", 3)
        rot = rotate(p)
        fixed = frozenset(x for x in p.elements() if rot[x] == x)
        report = poset_verdict(p, fixed)
        assert report.homomesic
        assert report.common_average == Fraction((p.size + 1) * len(fixed), 2)

    def test_empty_support(self):
        p = build_cominuscule("propeller", 3)
        report = poset_verdict(p, frozenset())
        assert report.homomesic and report.common_average == 0

    def test_propeller_center_boxes(self):
        p = build_cominuscule("propeller", 4)
        center = frozenset((p.element_at((1, 3)), p.element_at((2, 2))))
        report = poset_verdict(p, center)
        assert report.homomesic


class TestPosetTextFormat:
    def test_round_trip(self):
        p = build_cominuscule("propeller", 3)
        text = format_poset(p)
        q = parse_poset(text)
        assert q.size == p.size and q.covers == p.covers
        assert format_poset(q) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_poset("covers only\n")
        with pytest.raises(ParseError):
            parse_poset("elements=2\n1<5\n")
