"""Every fast step map equals its one-step definition.

`promote`, `promote_inverse`, `partial_promote` and `evacuate` slide on
reading words, the toggle sweeps toggle plain rows, poset promotion
toggles a label list and K-promotion switches a label list; each builds
one validated object at the end.  Standard tableaux,
linear extensions and increasing tableaux are enumerated by one kernel
that keeps its minimal elements up to date instead of rescanning, and
must yield the same lists in order as the rescanning enumerations.  These
tests compare them with the chains of public one-step definitions and the
rescanning enumerations kept in `util`, over the acceptance ranges and on
degenerate inputs.

The growth and paths sweeps read promotion periods as reading words;
their reports, box multisets, flows and trajectories must be those of the
object sweeps kept in `util`, which walk each period tableau by tableau.

The homomesy systems enumerate and step key tuples instead of objects.
Their keys must be the public enumerations' entries tuples, in order,
their steps the public steps, and their tuple-level key tests the checks
that the objects' constructors (and `validate`) make.
"""

from itertools import islice, product

import pytest

import promotab.growth as growth
import promotab.paths as paths
from promotab.dynamics import (
    dual_evacuate,
    evacuate,
    evacuate_via_toggles,
    partial_promote,
    promote,
    promote_inverse,
    promote_inverse_via_toggles,
    promote_via_toggles,
    toggle,
)
from promotab.errors import BudgetExceededError, PreconditionError
from promotab.growth import check_dis_invariance, orbit_values
from promotab.homomesy import inc_system, partition_orbits, ssyt_system, syt_poset_system
from promotab.ktableaux import IncreasingTableau, enumerate_increasing, k_promote, k_promote_inverse
from promotab.paths import flow_tables, trajectory
from promotab.posets import (
    FinitePoset,
    LinearExtension,
    build_cominuscule,
    ferrers_poset,
    linear_extensions,
    poset_evacuate,
    poset_promote,
    poset_promote_inverse,
    poset_toggle,
)
from promotab.shapes import ReadingLayout, Tableau, enumerate_ssyt, enumerate_syt, order_ideal_chains, validate
from util import (
    chain,
    check_dis_invariance_by_objects,
    descending,
    dual_triangular,
    element_of,
    enumerate_increasing_by_rescan,
    k_promote_by_switches,
    k_promote_inverse_by_switches,
    key_of,
    linear_extensions_by_rescan,
    partial_promote_by_definition,
    partitions_up_to,
    period_values_by_objects,
    progression_by_objects,
    promote_by_rectify,
    strict_order,
    sweep,
    trajectory_by_objects,
    triangular_chain,
)

C09_FAMILIES = (
    ("rectangle", 3, 4),
    ("shifted_staircase", 4),
    ("propeller", 5),
    ("cayley",),
    ("freudenthal",),
)
K_SYSTEMS = [("rectangle", 2, n, q) for n in range(1, 6) for q in range(2 * n)] + [("rectangle", 3, 4, 3)]

CHAIN_POSET = FinitePoset(4, [(1, 2), (2, 3), (3, 4)])
DEGENERATE_POSETS = (FinitePoset(0, []), FinitePoset(1, []), CHAIN_POSET, FinitePoset(3, []))


def check_tableau_steps(t: Tableau, memo: dict) -> None:
    k = t.ceiling
    assert promote(t) == promote_by_rectify(t)
    assert promote_via_toggles(t) == sweep(toggle, t, k - 1, memo)
    assert promote_inverse(t) == promote_inverse_via_toggles(t) == chain(toggle, t, descending(k), memo)
    for i in range(1, k):
        # the toggles below i move only the entries <= i
        assert partial_promote(t, i) == sweep(toggle, t, i - 1, memo)
    evacuation = triangular_chain(toggle, t, k, memo)
    assert evacuate_via_toggles(t) == evacuation
    # the slide route to evacuation is independent of the toggle product
    assert evacuate(t) == evacuation
    if t.is_rectangular:
        assert dual_evacuate(t) == chain(toggle, t, dual_triangular(k), memo)


def check_poset_steps(t: LinearExtension, memo: dict) -> None:
    d = t.poset.size
    assert poset_promote(t) == sweep(poset_toggle, t, d - 1, memo)
    assert poset_promote_inverse(t) == chain(poset_toggle, t, descending(d), memo)
    assert poset_evacuate(t) == triangular_chain(poset_toggle, t, d, memo)


def check_k_steps(t: IncreasingTableau) -> None:
    assert k_promote(t) == k_promote_by_switches(t)
    assert k_promote_inverse(t) == k_promote_inverse_by_switches(t)


def test_tableau_steps_equal_slides_and_toggle_chains():
    checked = 0
    for shape in partitions_up_to(8):
        for k in range(6):
            memo: dict = {}
            for t in enumerate_ssyt(shape, k):
                check_tableau_steps(t, memo)
                checked += 1
    assert checked == 23_204


@pytest.mark.parametrize("family", C09_FAMILIES, ids=lambda f: f[0])
def test_poset_steps_equal_toggle_chains_and_enumeration_is_unchanged(family):
    p = build_cominuscule(*family)
    extensions = list(linear_extensions(p))
    assert extensions == list(linear_extensions_by_rescan(p))
    memo: dict = {}
    for t in extensions:
        check_poset_steps(t, memo)


@pytest.mark.parametrize("family", C09_FAMILIES, ids=lambda f: f[0])
def test_poset_toggle_fixes_exactly_the_comparable_pairs(family):
    p = build_cominuscule(*family)
    less = strict_order(p)
    for t in islice(linear_extensions(p), 1000 if family[0] == "freudenthal" else None):
        for i in range(1, p.size):
            x, y = t.element_of(i), t.element_of(i + 1)
            assert (poset_toggle(t, i) == t) == ((x, y) in less or (y, x) in less)


@pytest.mark.parametrize("system", K_SYSTEMS, ids=lambda s: f"{s[1]}x{s[2]}-q{s[3]}")
def test_k_steps_equal_switch_chains_and_enumeration_is_unchanged(system):
    kind, m, n, q = system
    p = build_cominuscule(kind, m, n)
    tableaux = list(enumerate_increasing(p, q))
    assert tableaux == list(enumerate_increasing_by_rescan(p, q))
    for t in tableaux:
        check_k_steps(t)


@pytest.mark.parametrize(
    "t",
    [
        Tableau((), 0),
        Tableau((), 3),
        Tableau([[1, 1, 1]], 1),
        Tableau([[1], [2], [3]], 3),
        Tableau([[1, 2, 2, 4, 5]], 5),
        Tableau([[2], [4], [5]], 5),
        Tableau([[1, 1], [2, 2]], 2),
    ],
    ids=repr,
)
def test_degenerate_tableaux(t):
    check_tableau_steps(t, {})
    for i in range(1, t.ceiling + 1):
        assert partial_promote(t, i) == partial_promote_by_definition(t, i)
    stages = chain(partial_promote_by_definition, promote_by_rectify(t), descending(t.ceiling), {})
    assert evacuate(t) == stages


@pytest.mark.parametrize("p", DEGENERATE_POSETS, ids=repr)
def test_degenerate_posets(p):
    extensions = list(linear_extensions(p))
    assert extensions == list(linear_extensions_by_rescan(p))
    for t in extensions:
        check_poset_steps(t, {})


@pytest.mark.parametrize(
    "p, labels",
    [
        (FinitePoset(0, []), ()),
        (FinitePoset(1, []), (1,)),
        (FinitePoset(3, []), (1, 1, 1)),
        (CHAIN_POSET, (1, 2, 3, 4)),
        (FinitePoset(3, [(1, 2), (1, 3)]), (1, 2, 2)),
    ],
    ids=lambda v: repr(v),
)
def test_degenerate_increasing_tableaux(p, labels):
    t = IncreasingTableau(p, labels)
    check_k_steps(t)
    for q in range(p.size + 1):
        assert list(enumerate_increasing(p, q)) == list(enumerate_increasing_by_rescan(p, q))


def test_syt_enumeration_is_the_ferrers_linear_extensions_in_order():
    shapes = [(), *partitions_up_to(8)]
    assert {(1,), (5,), (1, 1, 1, 1)} <= set(shapes)
    for shape in shapes:
        p = ferrers_poset(shape)
        expected = []
        for e in linear_extensions_by_rescan(p):
            label_at = {p.embedding[x]: v for x, v in enumerate(e.labels, start=1)}
            rows = [[label_at[r, c] for c in range(1, n + 1)] for r, n in enumerate(shape, start=1)]
            expected.append(Tableau(rows, p.size))
        assert list(enumerate_syt(shape)) == expected, shape


def c03_ssyt_systems():
    for m, n, kmax in ((2, 2, 5), (2, 3, 5), (3, 3, 4)):
        for k in range(1, kmax + 1):
            yield (n,) * m, k
    yield (), 3  # the empty shape
    yield (2, 2), 0


def c09_posets():
    yield from (build_cominuscule("shifted_staircase", n) for n in (1, 2, 3))
    yield from (build_cominuscule("propeller", n) for n in (3, 4))
    yield from (build_cominuscule("rectangle", m, n) for m in range(1, 11) for n in range(1, 10 // m + 1))
    yield FinitePoset(0, [])


def c10_systems():
    for n in range(1, 6):
        p = build_cominuscule("rectangle", 2, n)
        yield from ((p, q) for q in range(2 * n))
    yield FinitePoset(0, []), 0


def check_keyed_system(system, elements, step) -> None:
    """The system's keys are its public enumeration's entries, in order,
    as `bytes`, since every entry fits in a byte; each builds its element,
    and the system's step of the list of them gives, in order, each
    element's step, as `bytes` too.  The same entries as a tuple are not a
    key of the system, alone or after its keys."""
    keys = list(system.enumerate())
    assert list(map(tuple, keys)) == [key_of(x) for x in elements]
    assert system.admits(keys) is None
    assert system.admits([*keys, tuple(keys[-1])]) == len(keys) if keys else system.admits([()]) == 0
    images = system.step(keys)
    assert len(images) == len(keys)
    for key, x, image in zip(keys, elements, images):
        assert type(key) is bytes
        assert system.admits([key]) is None and system.admits([tuple(key)]) == 0
        assert element_of(system, key, type(x), x.ceiling if isinstance(x, Tableau) else x.poset) == x
        assert type(image) is bytes and tuple(image) == key_of(step(x))


@pytest.mark.parametrize("operator", ["promote", "promote_inverse"])
@pytest.mark.parametrize("shape, k", list(c03_ssyt_systems()), ids=repr)
def test_ssyt_keys_and_steps_equal_the_tableaux(shape, k, operator):
    step = {"promote": promote, "promote_inverse": promote_inverse}[operator]
    check_keyed_system(ssyt_system(shape, k, operator), list(enumerate_ssyt(shape, k)), step)


@pytest.mark.parametrize("p", list(c09_posets()), ids=repr)
def test_linear_extension_keys_and_steps_equal_the_objects(p):
    check_keyed_system(syt_poset_system(p), list(linear_extensions(p)), poset_promote)


@pytest.mark.parametrize("p, q", list(c10_systems()), ids=repr)
def test_increasing_keys_and_steps_equal_the_objects(p, q):
    check_keyed_system(inc_system(p, q), list(enumerate_increasing(p, q)), k_promote)


@pytest.mark.parametrize(
    "shape, inner",
    [((), ()), ((3,), ()), ((1, 1, 1), ()), ((2, 2), ()), ((3, 2), ()), ((2, 2, 1), (1,)), ((3, 2, 1), (1, 1)), ((2, 1), (1, 1))],
    ids=repr,
)
def test_the_semistandard_word_test_is_the_tableau_checks(shape, inner):
    layout = ReadingLayout(shape, inner)
    for k in range(4):
        semistandard = layout.semistandard_test(k)
        for word in product(range(k + 2), repeat=layout.size):
            in_range = all(1 <= v <= k for v in word)
            expected = in_range and validate(Tableau(layout.rows(word), k, inner), "semistandard")
            assert semistandard(word) == expected, (word, k)
        assert not semistandard((1,) * (layout.size + 1))


@pytest.mark.parametrize("p", [*DEGENERATE_POSETS, FinitePoset(3, [(1, 2), (1, 3)]), ferrers_poset((2, 2))], ids=repr)
def test_the_labelling_test_is_the_constructor_checks(p):
    def builds(cls, labels):
        try:
            return cls(p, labels)
        except PreconditionError:
            return None

    tests = [p.labelling_test(d) for d in range(p.size + 1)]
    for labels in product(range(p.size + 2), repeat=p.size):
        t = builds(IncreasingTableau, labels)
        assert [test(labels) for test in tests] == [t is not None and t.d == d for d in range(p.size + 1)], labels
        assert tests[-1](labels) == (builds(LinearExtension, labels) is not None)
    assert not tests[-1]((1,) * (p.size + 1))


def test_poset_enumeration_is_pulled_only_up_to_the_budget(monkeypatch):
    pulled = []

    def counted(*args):
        for labels in order_ideal_chains(*args):
            pulled.append(labels)
            yield labels

    monkeypatch.setattr("promotab.posets.order_ideal_chains", counted)
    with pytest.raises(BudgetExceededError):
        partition_orbits(syt_poset_system(build_cominuscule("freudenthal")), budget=10)
    assert pulled == []  # the count refuses it before the enumeration starts
    partition_orbits(syt_poset_system(build_cominuscule("cayley")), budget=78)
    assert len(pulled) == 78


@pytest.mark.parametrize("k", range(1, 6))
def test_word_periods_give_the_object_dis_reports_and_box_multisets(k):
    # the c07 range; orbit_values reads one box per tableau, in turn
    for shape in partitions_up_to(7):
        memo: dict = {}
        assert check_dis_invariance(shape, k) == check_dis_invariance_by_objects(shape, k, memo)
        for index, t in enumerate(enumerate_ssyt(shape, k)):
            boxes = list(t.boxes())
            box = boxes[index % len(boxes)]
            assert orbit_values(t, box) == tuple(sorted(period_values_by_objects(t, memo)[box].elements()))


def test_word_periods_see_the_violations_of_a_broken_evacuation(monkeypatch):
    def broken(t):
        return toggle(t, 1) if t.ceiling > 1 else t

    monkeypatch.setattr(growth, "evacuate", broken)
    seen = 0
    for shape in partitions_up_to(5):
        for k in range(1, 5):
            report = check_dis_invariance(shape, k)
            assert report == check_dis_invariance_by_objects(shape, k, {}, broken)
            seen += len(report.violations)
    assert seen


def test_word_periods_give_the_object_paths_flows_and_trajectories(monkeypatch):
    # the c08 range
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            memo: dict = {}
            words = {t: (paths._progression(t), flow_tables(t), trajectory(t)) for t in enumerate_syt((n,) * m)}
            with monkeypatch.context() as patched:  # flow_tables of the object progression
                patched.setattr(paths, "_progression", lambda t: progression_by_objects(t, memo))
                for t, (progression, flows, tau) in words.items():
                    assert progression == progression_by_objects(t, memo)
                    assert flows == flow_tables(t)
                    assert tau == trajectory_by_objects(t, memo)
