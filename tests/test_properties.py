"""Property tests on random instances beyond the fixed acceptance ranges.

The SSYT step kernels slide on reading words (evacuation is also checked
against the chain of partial promotions that defines it), promotion
periods are walked on reading words, and the order-ideal enumerator
walks a memoized state graph.  Here random straight shapes, ceilings and
tableaux check the kernels against the toggle sweeps and the word
periods against the tableau orbits, and random transitively reduced
posets check that the enumerator yields the same labellings, in the
same order and in either key type, as the stack search kept in `util`
(and random straight and skew shapes that the SSYT enumerator's walk of
rows yields the words of the cell-by-cell search kept there), that the count of the
graph's paths is their number up to any cap (and the hook-length formula
on Ferrers posets), and that the K-promotion
bullet slide and its inverse are the `switch` chains kept there (on
posets of width at most 3).  The generated pairwise tests behind both key
tests are checked against the item-getter definition kept in `util`, and
the poset labelling test against the validating constructors.  The packed
tests of key lists, which the systems' `admits` are, must name the first
key the per-key test refuses, with one key corrupted at a chunk's edge.
The column kernels that the systems step with, every key at once, must
give each key what its per-key kernel gives it, on random posets at
every deficiency and random straight shapes and ceilings, in both key
types, where the entries fill their fields, on no key, on keys of no
entry and on more keys than a chunk; and every orbit of promotion on an
SSYT rectangle has a size dividing the ceiling.  On random self-dual
posets, each orbit partition is the one that `util.walked_partition` finds
key by key, in both key types.  The `homomesy` command
exits 0 to 4, never raising, on odd argv.  On
random straight and skew shapes, the tableau built from a reading word
is the one the rows constructor builds, and the SSYT and SYT enumerations
are the brute-force filters of every filling, as many as the hook
formulas count.  The runs are derandomized and small, so the suite stays
reproducible.
"""

import contextlib
import io
from functools import reduce
from itertools import accumulate, chain, combinations, islice, permutations, product, repeat
from operator import eq, ge, gt, le, lt, ne

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from promotab.cli import main
from promotab.dynamics import (
    cycle,
    evacuate,
    evacuate_via_toggles,
    partial_promote,
    promote,
    promote_inverse,
    promote_inverse_via_toggles,
    promote_via_toggles,
    promotion_columns,
    promotion_period_words,
    reading_word_step,
    straight_layout,
    toggle,
)
from promotab.homomesy import inc_system, partition_orbits, ssyt_system, syt_poset_system
from promotab.ktableaux import (
    IncreasingTableau,
    increasing_labels,
    k_promote_inverse_step,
    k_promote_step,
    k_promotion_columns,
)
from promotab.posets import FinitePoset, LinearExtension, build_cominuscule, ferrers_poset
from promotab.errors import PreconditionError
from promotab.shapes import (
    KEYS_PER_CHUNK,
    ReadingLayout,
    Tableau,
    conjugate,
    count_order_ideal_chains,
    count_ssyt,
    count_syt,
    enumerate_ssyt,
    enumerate_syt,
    order_ideal_chains,
    pairwise_test,
    ssyt_words,
    validate,
)
from util import (
    k_promote_by_switches,
    k_promote_inverse_by_switches,
    order_ideal_chains_by_stack,
    ssyt_words_by_cells,
    pairwise_test_by_getters,
    partial_promote_by_definition,
    partitions_up_to,
    as_tuples,
    sweep,
    tuple_keyed,
    walked_partition,
)

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# for the tests of the key tests, whose edge cases are also checked exhaustively
# (pairwise) or by the step oracles (labellings), so the file stays under 5 s
FEWER = settings(SETTINGS, max_examples=80)


@st.composite
def straight_tableaux(draw) -> Tableau:
    """A semistandard tableau of a random straight shape with at most 10
    cells and a random ceiling, filled row by row with entries the column
    below can still complete."""
    rows = draw(st.lists(st.integers(1, 5), max_size=4).map(lambda parts: sorted(parts, reverse=True)))
    shape = tuple(rows)
    while sum(shape) > 10:
        shape = shape[:-1]
    heights = conjugate(shape)
    k = draw(st.integers(max(heights, default=0), 7))
    filled: list[list[int]] = []
    for r, length in enumerate(shape):
        row: list[int] = []
        for c in range(length):
            lo = max(row[c - 1] if c else 1, filled[r - 1][c] + 1 if r else 1)
            row.append(draw(st.integers(lo, k - (heights[c] - r - 1))))
        filled.append(row)
    return Tableau(filled, k)


@SETTINGS
@given(straight_tableaux())
def test_the_word_kernels_are_the_toggle_sweeps(t):
    layout, word, k = ReadingLayout(t.outer), t.row_reading(), t.ceiling
    forward, backward = promote_via_toggles(t), promote_inverse_via_toggles(t)
    assert reading_word_step(layout, k, "promote")(word) == forward.row_reading()
    assert reading_word_step(layout, k, "promote_inverse")(word) == backward.row_reading()
    # the same kernels on bytes keys, as an SSYT system walks them
    assert reading_word_step(layout, k, "promote", bytes)(bytes(word)) == bytes(forward.row_reading())
    assert reading_word_step(layout, k, "promote_inverse", bytes)(bytes(word)) == bytes(backward.row_reading())
    assert promote(t) == forward
    assert promote_inverse(t) == backward
    assert evacuate(t) == evacuate_via_toggles(t)
    # the paper's staged definition: promote below k, then below k - 1, ..., then below 1
    assert evacuate(t) == reduce(partial_promote_by_definition, range(k, 0, -1), t)
    memo: dict = {}
    for i in range(1, k + 1):
        # the toggles below i move only the entries <= i
        assert partial_promote(t, i) == sweep(toggle, t, i - 1, memo)


@SETTINGS
@given(straight_tableaux())
def test_the_word_period_is_the_tableau_orbit_repeated_to_the_ceiling(t):
    orbit = [u.row_reading() for u in cycle(t, promote)]
    layout, words = promotion_period_words(t)
    assert layout.outer == t.outer
    assert words == (orbit * (t.ceiling // len(orbit)) if t.is_rectangular else orbit)


@st.composite
def skew_layouts(draw, cells: int = 10) -> ReadingLayout:
    """The layout of a straight or skew shape with at most `cells` cells."""
    outer = sorted(draw(st.lists(st.integers(1, 5), max_size=4)), reverse=True)
    while sum(outer) > cells:
        outer.pop()
    inner = []
    for length in outer:
        inner.append(draw(st.integers(0, min(length, inner[-1] if inner else length))))
    return ReadingLayout(outer, [r for r in inner if r])


@st.composite
def shapes_and_words(draw) -> tuple[ReadingLayout, int, tuple[int, ...]]:
    """A straight or skew shape with at most 10 cells, a ceiling, and a
    word: a semistandard one, often with one letter changed to anything
    from 0 to ceiling + 1, or with a letter added or dropped."""
    layout = draw(skew_layouts())
    k = draw(st.integers(0, 6))
    words = list(islice(ssyt_words(layout, k), 300)) or [(1,) * layout.size]
    word = list(draw(st.sampled_from(words)))
    change = draw(st.sampled_from(["none", "letter", "letter", "add", "drop"]))
    if change == "letter" and word:
        word[draw(st.integers(0, len(word) - 1))] = draw(st.integers(0, k + 1))
    elif change == "add":
        word.insert(draw(st.integers(0, len(word))), draw(st.integers(0, k + 1)))
    elif change == "drop" and word:
        word.pop(draw(st.integers(0, len(word) - 1)))
    return layout, k, tuple(word)


@SETTINGS
@given(shapes_and_words())
def test_the_semistandard_word_test_agrees_with_the_tableau_constructor(case):
    # the SSYT systems admit a key by this test, and the steps on tableaux check their input by it
    layout, k, word = case
    try:
        t = Tableau(layout.rows(word), k, layout.inner)
    except PreconditionError:
        t = None
    expected = t is not None and t.row_reading() == word and t.outer == layout.outer and validate(t, "semistandard")
    assert layout.semistandard_test(k)(word) == layout.is_semistandard(word, k) == expected
    # on bytes keys, as an SSYT system tests them; a key of the other type is refused
    assert layout.semistandard_test(k, bytes)(bytes(word)) == expected
    assert not layout.semistandard_test(k, bytes)(word) and not layout.semistandard_test(k)(bytes(word))


@SETTINGS
@given(shapes_and_words())
def test_the_word_constructor_is_the_rows_constructor(case):
    # the steps on tableaux and enumerate_ssyt build their results by it
    layout, k, word = case
    if len(word) != layout.size or not all(1 <= v <= k for v in word):
        with pytest.raises(PreconditionError):
            Tableau._of_word(layout, word, k)
        return
    t, expected = Tableau._of_word(layout, word, k), Tableau(layout.rows(word), k, layout.inner)
    assert (t.rows, t.outer, t.inner, t.ceiling) == (expected.rows, expected.outer, expected.inner, expected.ceiling)
    assert hash(t) == hash(expected) and t == expected
    assert t.row_reading() is word and expected.row_reading() == word  # the word is kept, not read again


@st.composite
def small_layouts_and_ceilings(draw) -> tuple[ReadingLayout, int]:
    """A straight or skew shape with at most 6 cells and a ceiling, with
    at most 729 fillings of its cells."""
    layout = draw(skew_layouts(cells=6))
    return layout, draw(st.integers(0, 4 if layout.size <= 4 else 3))


@FEWER
@given(small_layouts_and_ceilings())
def test_the_ssyt_enumeration_is_the_filter_of_every_filling(case):
    layout, k = case
    starts = list(accumulate([b - a for a, b in layout.bounds], initial=0))  # by row, top row first
    fillings = (
        Tableau([values[a:b] for a, b in zip(starts, starts[1:])], k, layout.inner)
        for values in product(range(1, k + 1), repeat=layout.size)
    )
    expected = [t for t in fillings if validate(t, "semistandard")]  # in row-major lexicographic order
    assert list(enumerate_ssyt(layout.outer, k, layout.inner)) == expected
    assert list(ssyt_words(layout, k)) == [t.row_reading() for t in expected]
    if not layout.inner:
        assert len(expected) == count_ssyt(layout.outer, k)


# the small ceilings, enumerated whole, and two large ones, read in part
CEILINGS = st.one_of(st.integers(0, 6), st.sampled_from([200, 10**20]))


@settings(SETTINGS, max_examples=60)
@given(skew_layouts(cells=8), CEILINGS, st.sampled_from([tuple, bytes]))
@example(ReadingLayout((3, 2, 2, 1)), 6, bytes)  # four rows, whose third keep the fourth
@example(ReadingLayout((4, 3, 1), (2, 1)), 10**20, tuple)
def test_the_row_walk_is_the_cell_search_in_order(layout, k, pack):
    # the words of the graph of rows, whose middle rows keep the rows below
    # them, are the cell-by-cell search's, in its order, in either key type;
    # the large ceilings are compared on their first words
    pack = pack if k < 255 else tuple
    words, expected = ssyt_words(layout, k, pack), ssyt_words_by_cells(layout, k, pack)
    if k > 6:
        words, expected = islice(words, 300), islice(expected, 300)
    assert list(words) == list(expected)


@FEWER
@given(skew_layouts(cells=6).map(lambda layout: layout.outer))
def test_the_syt_enumeration_is_the_filter_of_every_permutation(shape):
    starts = list(accumulate(shape, initial=0))
    n = starts[-1]
    fillings = (Tableau([labels[a:b] for a, b in zip(starts, starts[1:])], n) for labels in permutations(range(1, n + 1)))
    expected = {t for t in fillings if validate(t, "standard")}
    found = list(enumerate_syt(shape))
    assert len(found) == len(expected) == count_syt(shape)
    assert set(found) == expected


@st.composite
def pairs_and_sequences(draw) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """Index pairs into sequences of one length n from 1 to 8, and one to
    three such sequences with entries from 0 to 3, so that equal entries
    occur: no pairs, one or several, often with a pair repeated and often
    reading the last index."""
    n = draw(st.integers(1, 8))
    pairs = [divmod(v, n) for v in draw(st.lists(st.integers(0, n * n - 1), max_size=6))]
    if pairs and draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))), pairs[-1])
    if draw(st.booleans()):
        pairs.append((draw(st.integers(0, n - 1)), n - 1))
    entries = draw(st.lists(st.integers(0, 3), min_size=n, max_size=3 * n))
    return pairs, [tuple(entries[a : a + n]) for a in range(0, len(entries) - n + 1, n)]


@FEWER
@given(pairs_and_sequences(), st.sampled_from([lt, le]))
def test_the_generated_pairwise_test_is_the_definition(case, op):
    pairs, sequences = case
    test, definition = pairwise_test(op, pairs), pairwise_test_by_getters(op, pairs)
    for s in sequences:  # the first call generates the test, the later ones reuse it
        assert test(s) == definition(s) == all(op(s[i], s[j]) for i, j in pairs)


@pytest.mark.parametrize("op", [lt, le])
@pytest.mark.parametrize("pairs", [[], [(3, 0)], [(0, 1), (0, 1)], [(1, 3), (2, 3), (1, 3)], [(3, 3)]], ids=repr)
def test_the_generated_pairwise_test_on_every_short_sequence(op, pairs):
    test, definition = pairwise_test(op, pairs), pairwise_test_by_getters(op, pairs)
    for s in product(range(3), repeat=4):
        assert test(s) == definition(s) == all(op(s[i], s[j]) for i, j in pairs), s


@pytest.mark.parametrize("op", [gt, ge, eq, ne, lambda a, b: a < b], ids=["gt", "ge", "eq", "ne", "lambda"])
def test_pairwise_test_refuses_a_comparison_it_cannot_generate(op):
    for pairs in ([], [(0, 1)]):
        with pytest.raises(PreconditionError):
            pairwise_test(op, pairs)


@st.composite
def reduced_posets(draw, most: int = 7) -> tuple[int, list[tuple[int, int]]]:
    """A random poset on 1..size, size <= most, as its covers: random
    relations along a random order of the elements, transitively
    reduced."""
    size = draw(st.integers(0, most))
    order = draw(st.permutations(range(1, size + 1)))
    pairs = [(i, j) for j in range(size) for i in range(j)]
    related = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    less = {pair for pair, r in zip(pairs, related) if r}
    for j in range(size):  # close under transitivity, on positions in the order
        for i in range(j - 1, -1, -1):
            if any((i, m) in less and (m, j) in less for m in range(i + 1, j)):
                less.add((i, j))
    covers = [
        (order[i], order[j])
        for i, j in sorted(less)
        if not any((i, m) in less and (m, j) in less for m in range(i + 1, j))
    ]
    return size, covers


def check_walk(size: int, covers, d: int) -> None:
    """The walk onto 1..d is the stack search, in its order, in either key
    type that holds its labels, and its count is its length up to any cap."""
    walk = list(order_ideal_chains(size, covers, d))
    assert walk == list(order_ideal_chains_by_stack(size, covers, d)), d
    if d < 256:  # the same labellings in bytes keys, which hold labels up to 255
        assert list(order_ideal_chains(size, covers, d, bytes)) == list(map(bytes, walk)), d
    n = len(walk)
    for cap in (0, 1, n - 1, n, 10**9):
        count = count_order_ideal_chains(size, covers, d, cap)
        assert count == n if n <= cap else count > cap, (d, cap, count, n)


@SETTINGS
@given(reduced_posets())
def test_the_state_graph_walk_is_the_stack_search_in_order(poset):
    # the count of the graph's paths, which every poset system's budget is
    # checked against, is the walk's length up to any cap; it is checked on
    # the walk enumerated here, so the file stays under 5 s
    size, covers = poset
    FinitePoset(size, covers)  # acyclic and transitively reduced
    for d in range(size + 2):
        check_walk(size, covers, d)


def test_the_state_graph_walk_of_a_chain_past_a_byte():
    # 300 labels, in two-byte fields: the one labelling onto 1..300, and none onto one label fewer or more
    for d in (299, 300, 301):
        check_walk(300, [(x, x + 1) for x in range(1, 300)], d)


def test_the_count_of_a_ferrers_poset_is_the_hook_length_formula():
    for shape in partitions_up_to(8):
        p, n = ferrers_poset(shape), count_syt(shape)
        assert count_order_ideal_chains(p.size, p.covers, p.size, n) == n, shape
        assert count_order_ideal_chains(p.size, p.covers, p.size, n - 1) > n - 1, shape


@st.composite
def posets_and_labellings(draw) -> tuple[FinitePoset, tuple[int, ...]]:
    """A random poset and labels: the labels of an increasing tableau
    with d labels, for a random d up to the size plus one, often with one
    label changed to anything from 0 to d + 1, or with a label added or
    dropped."""
    size, covers = draw(reduced_posets())
    d = draw(st.integers(0, size + 1))
    labellings = list(islice(order_ideal_chains(size, covers, d), 300)) or [(1,) * size]
    labels = list(draw(st.sampled_from(labellings)))
    change = draw(st.sampled_from(["none", "label", "label", "add", "drop"]))
    if change == "label" and labels:
        labels[draw(st.integers(0, len(labels) - 1))] = draw(st.integers(0, d + 1))
    elif change == "add":
        labels.insert(draw(st.integers(0, len(labels))), draw(st.integers(0, d + 1)))
    elif change == "drop" and labels:
        labels.pop(draw(st.integers(0, len(labels) - 1)))
    return FinitePoset(size, covers), tuple(labels)


def builds(cls, p: FinitePoset, labels) -> object | None:
    """The object of the validating constructor `cls`, or None if it refuses the labels."""
    try:
        return cls(p, labels)
    except PreconditionError:
        return None


@FEWER
@given(posets_and_labellings())
def test_the_labelling_test_agrees_with_the_constructors(case):
    # the --family, --partition and -q systems admit a key by this test
    p, labels = case
    t = builds(IncreasingTableau, p, labels)
    ds = range(p.size + 2)
    assert [p.labelling_test(d)(labels) for d in ds] == [t is not None and t.d == d for d in ds]
    assert p.labelling_test(p.size)(labels) == (builds(LinearExtension, p, labels) is not None)
    # on bytes keys, as the poset systems test them; a key of the other type is refused
    assert [p.labelling_test(d, bytes)(bytes(labels)) for d in ds] == [t is not None and t.d == d for d in ds]
    assert not any(p.labelling_test(d, bytes)(labels) or p.labelling_test(d)(bytes(labels)) for d in ds)


def width(size: int, covers) -> int:
    """The size of a largest antichain of the poset on 1..size with these
    covers, by brute force over the subsets."""
    less = set(covers)
    for m in range(1, size + 1):  # Warshall's transitive closure
        less |= {(x, y) for x, a in less if a == m for b, y in less if b == m}
    return max(
        r
        for r in range(size + 1)
        for s in combinations(range(1, size + 1), r)
        if not any((x, y) in less or (y, x) in less for x, y in combinations(s, 2))
    )


@SETTINGS
@given(reduced_posets())
def test_the_bullet_slides_are_the_switch_chains(poset):
    size, covers = poset
    # The seven-element antichain alone has 47,293 increasing tableaux,
    # one per ordered set partition, which the switch chains take seconds
    # to check.  Width 3 still slides three bullets at once, bullets that
    # share an m, a bullet with two ms ahead and bullets that stay.
    assume(width(size, covers) <= 3)
    p = FinitePoset(size, covers)
    for q in range(size + 1):
        forward, backward = k_promote_step(p, size - q), k_promote_inverse_step(p, size - q)
        for labels in increasing_labels(p, q):
            t = IncreasingTableau(p, labels)
            image = forward(labels)
            assert image == k_promote_by_switches(t).labels
            assert backward(labels) == k_promote_inverse_by_switches(t).labels
            assert backward(image) == labels
            assert k_promote_step(p, size - q, bytes)(bytes(labels)) == bytes(image)
            assert k_promote_inverse_step(p, size - q, bytes)(bytes(image)) == bytes(labels)


# a chain of size - 2 elements beside two more: its labels fill their fields
# at d = 126 and 127 (one byte below the guard bit) and 254 (two bytes)
def _chain_beside_two(size: int) -> FinitePoset:
    return FinitePoset(size, [(x, x + 1) for x in range(1, size - 2)])


@settings(SETTINGS, max_examples=60)
@given(reduced_posets(), st.sampled_from([bytes, tuple]))
@example((0, []), bytes)  # the empty poset, whose keys have no entry
def test_the_column_k_promotion_is_the_bullet_slide_of_each_key(poset, pack):
    # the poset systems step every key at once by the column kernel; with
    # q = 0 it is promotion on linear extensions
    size, covers = poset
    p = FinitePoset(size, covers)
    for q in range(size + 1):
        keys = list(islice(increasing_labels(p, q, pack), 400))
        step = k_promotion_columns(p, size - q, pack)
        assert step(keys) == list(map(k_promote_step(p, size - q, pack), keys)), q
        assert step([]) == []


@pytest.mark.parametrize("size, pack", [(126, bytes), (127, bytes), (128, bytes), (254, bytes), (255, bytes), (300, tuple)])
def test_the_column_k_promotion_where_the_labels_fill_their_fields(size, pack):
    p = _chain_beside_two(size)
    for q in (0, 1):
        keys = list(islice(increasing_labels(p, q, pack), 100))
        assert k_promotion_columns(p, size - q, pack)(keys) == list(map(k_promote_step(p, size - q, pack), keys))


@settings(SETTINGS, max_examples=60)
@given(
    skew_layouts(cells=8).map(lambda layout: straight_layout(layout.outer)),
    st.integers(0, 7),
    st.sampled_from([bytes, tuple]),
    st.sampled_from(["promote", "promote_inverse"]),
)
@example(straight_layout(()), 3, bytes, "promote")  # the empty shape, whose words have no entry
def test_the_column_slides_are_the_slides_of_each_word(layout, k, pack, operator):
    # the SSYT systems step every word at once by the column slides
    words = list(islice(ssyt_words(layout, k, pack), 400))
    step = promotion_columns(layout, k, operator, pack)
    assert step(words) == list(map(reading_word_step(layout, k, operator, pack), words))
    assert step([]) == []


@pytest.mark.parametrize("operator", ["promote", "promote_inverse"])
@pytest.mark.parametrize("k, pack", [(126, bytes), (127, bytes), (254, bytes), (300, tuple)])
@pytest.mark.parametrize("shape", [(1, 1), (2,), (2, 1), (3, 2, 2)], ids=repr)
def test_the_column_slides_where_the_entries_fill_their_fields(shape, k, pack, operator):
    # k + 1 = 127 fills a one-byte field below its guard bit, 128 and 255
    # need two bytes; the words of ceiling 6 with their entries over 3
    # raised to end at k hold entries from both ends
    layout = straight_layout(shape)
    words = [pack(v if v <= 3 else v + k - 6 for v in word) for word in ssyt_words(layout, 6)]
    step = promotion_columns(layout, k, operator, pack)
    assert step(words) == list(map(reading_word_step(layout, k, operator, pack), words))


def test_the_column_steps_of_more_keys_than_a_chunk():
    # the kernels take any number of keys at once; the orbit walk gives them at most a chunk
    for pack in (bytes, tuple):
        layout = straight_layout((2, 2))
        words = list(ssyt_words(layout, 4, pack))
        words *= KEYS_PER_CHUNK // len(words) + 2
        assert len(words) > KEYS_PER_CHUNK
        assert promotion_columns(layout, 4, "promote", pack)(words) == list(map(reading_word_step(layout, 4, "promote", pack), words))
        p = build_cominuscule("rectangle", 2, 3)
        keys = list(increasing_labels(p, 1, pack))
        keys *= KEYS_PER_CHUNK // len(keys) + 2
        assert k_promotion_columns(p, 5, pack)(keys) == list(map(k_promote_step(p, 5, pack), keys))


@settings(SETTINGS, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 7), st.sampled_from(["promote", "promote_inverse"]))
def test_every_orbit_size_on_a_rectangle_divides_the_ceiling(m, n, k, operator):
    # promotion on SSYT(m x n, k) has order k (Rhoades), and each orbit the partition walks divides it
    partition = partition_orbits(ssyt_system((n,) * m, k, operator), 100_000)
    assert sum(partition.sizes) == count_ssyt((n,) * m, k)
    assert all(k % size == 0 for size in partition.sizes), partition.sizes


@st.composite
def self_dual_posets(draw) -> tuple[FinitePoset, int]:
    """Q + Q* (Q below its dual) or the disjoint union of Q and Q*, for a
    random poset Q on 1..n with n <= 3, its dual's elements numbered
    n+1..2n, and a deficiency q from 0 to 2n - 1: the rotation swaps each
    x of Q with its copy n + x, an order-reversing involution."""
    n, covers = draw(reduced_posets(3))
    dual = [(n + y, n + x) for x, y in covers]
    glue = []
    if draw(st.booleans()):  # the ordinal sum: each maximal element of Q is covered by each minimal one of Q*
        tops = [x for x in range(1, n + 1) if all(a != x for a, _ in covers)]
        glue = [(x, n + y) for x in tops for y in tops]
    rotation = {x: n + x for x in range(1, n + 1)} | {n + x: x for x in range(1, n + 1)}
    return FinitePoset(2 * n, covers + dual + glue, rotation=rotation), draw(st.integers(0, max(0, 2 * n - 1)))


# 30 examples draw 27 distinct cases and every q from 0 to 5, so the file stays under 5 s
@settings(SETTINGS, max_examples=30)
@given(self_dual_posets())
def test_the_partition_of_a_self_dual_poset_is_the_walked_one(case):
    # the partition's leads, sizes and columns are those of the orbits that
    # util.orbit_walks follows, key by key, on both packers: the systems'
    # own bytes keys, and the same systems on tuple keys
    p, q = case
    for system in (syt_poset_system(p), inc_system(p, q)):
        assert (system.rotate is None) == (p.size == 0)
        partitions = []
        for keyed, pack in ((system, bytes), (tuple_keyed(system), tuple)):
            partition = partition_orbits(keyed, 10_000)
            assert as_tuples(partition) == walked_partition(keyed, 10_000)
            assert {type(lead) for lead in partition.leads} <= {pack}
            partitions.append(as_tuples(partition))
        assert partitions[0] == partitions[1]


def corrupted(draw, keys: list, top: int, onto: bool) -> list:
    """The keys repeated to a drawn length, with one key, at index 0, at
    the last index of a chunk or at the first of the next, often changed:
    two entries swapped, often neighbours, an entry set to 1 or top, or
    to 0, top + 1 or beyond (in a tuple, below 0 or far above top), an
    entry added or dropped, the key given the other type, or, with
    `onto`, one label replaced by another, so that it is missing."""
    where = draw(st.sampled_from([0, KEYS_PER_CHUNK - 1, KEYS_PER_CHUNK]))
    length = draw(st.sampled_from([1, 2, 5, KEYS_PER_CHUNK + 1]) if where == 0 else st.just(KEYS_PER_CHUNK + 1))
    keys = list(islice(chain.from_iterable(repeat(keys)), length))
    pack, entries = type(keys[where]), list(keys[where])
    changes = ["none", "swap", "end", "low", "high", "longer", "shorter", "type"] + ["missing"] * onto
    change = draw(st.sampled_from(changes))
    at = draw(st.integers(0, max(0, len(entries) - 1)))
    if change == "swap" and len(entries) > 1:
        # often the next entry, in the same row of a tableau but for its last cell
        other = draw(st.one_of(st.just(min(at + 1, len(entries) - 1)), st.integers(0, len(entries) - 1)))
        entries[at], entries[other] = entries[other], entries[at]
    elif change == "end" and entries and top:
        entries[at] = draw(st.sampled_from([1, top]))
    elif change in ("low", "high") and entries:
        outside = [0, top + 1, 255] if pack is bytes else [0, top + 1, -1, 2**70]
        entries[at] = draw(st.sampled_from(outside))
    elif change == "longer":
        entries.insert(at, draw(st.integers(0, top + 1)))
    elif change == "shorter" and entries:
        entries.pop(at)
    elif change == "missing" and top > 1:
        label = draw(st.integers(1, top))
        stand_in = draw(st.integers(1, top - 1))
        entries = [stand_in + (stand_in >= label) if v == label else v for v in entries]
    if change == "type":
        keys[where] = tuple(entries) if pack is bytes else bytes(v % 256 for v in entries)
    elif pack is bytes and not all(0 <= v <= 255 for v in entries):
        keys[where] = tuple(entries)  # an entry no byte holds, in the other type
    else:
        keys[where] = pack(entries)
    return keys


def first_refused(each, keys: list) -> int | None:
    """The definition of a packed test's answer: the index of the first key
    `each` refuses, or None."""
    return next((i for i, key in enumerate(keys) if not each(key)), None)


@st.composite
def ssyt_key_lists(draw) -> tuple[ReadingLayout, int, type, list]:
    """A straight or skew shape with at most 10 cells, the empty one
    included, a ceiling from 0 to 6 or a larger one, whose bound k + 1
    fills the last of its bytes (200, 40000) or starts a new one (300,
    65536, 2**32, 10**20), one of the key packers that holds it, and a
    corrupted list of its words."""
    layout = draw(st.one_of(st.just(ReadingLayout(())), skew_layouts()))
    k = draw(st.one_of(st.integers(0, 6), st.sampled_from([200, 300, 40000, 65536, 2**32, 10**20])))
    pack = draw(st.sampled_from([bytes, tuple] if k < 255 else [tuple]))
    words = list(islice(ssyt_words(layout, k, pack), 40)) or [pack((1,) * layout.size)]
    if draw(st.booleans()):  # the same words raised to end at k, so that their entries fill the fields
        shift = k - max(chain.from_iterable(words), default=k)
        words = [pack(v + shift for v in word) for word in words]
    return layout, k, pack, corrupted(draw, words, k, onto=False)


@FEWER
@given(ssyt_key_lists())
def test_the_packed_semistandard_test_is_the_per_key_definition(case):
    layout, k, pack, keys = case
    each = layout.semistandard_test(k, pack)
    assert layout.semistandard_keys_test(k, pack)(keys) == first_refused(each, keys)


@st.composite
def labelling_key_lists(draw) -> tuple[FinitePoset, type, list[list]]:
    """A random poset, the empty one included, a key packer, and for every
    number of labels d from 0 to its size plus one a corrupted list of its
    labellings onto 1..d."""
    size, covers = draw(st.one_of(st.just((0, [])), reduced_posets()))
    pack = draw(st.sampled_from([bytes, tuple]))
    lists = []
    for d in range(size + 2):
        labellings = list(islice(order_ideal_chains(size, covers, d, pack), 40)) or [pack((1,) * size)]
        lists.append(corrupted(draw, labellings, d, onto=True))
    return FinitePoset(size, covers), pack, lists


# each example checks a list at every d, so fewer examples keep the file's time
@settings(SETTINGS, max_examples=30)
@given(labelling_key_lists())
def test_the_packed_labelling_test_is_the_per_key_definition(case):
    p, pack, lists = case
    for d, keys in enumerate(lists):
        each = p.labelling_test(d, pack)
        assert p.labelling_keys_test(d, pack)(keys) == first_refused(each, keys), d


def test_the_packed_labelling_test_refuses_a_label_out_of_range_alone():
    # two incomparable elements with one label: (1, 1) is its labelling, and a 0 or a 2 breaks only the range
    p = FinitePoset(2, [])
    for pack in (bytes, tuple):
        for wrong in ((0, 1), (1, 2)):
            keys = [pack((1, 1)), pack(wrong)]
            assert p.labelling_keys_test(1, pack)(keys) == first_refused(p.labelling_test(1, pack), keys) == 1


def test_the_packed_labelling_test_of_labels_above_a_byte():
    # a chain of 299 elements beside one more: 300 labellings, each of 300 labels in two-byte fields
    p = FinitePoset(300, [(x, x + 1) for x in range(1, 299)])
    keys = list(order_ideal_chains(p.size, p.covers, p.size))
    assert len(keys) == 300 and p.labelling_keys_test(300)(keys) is None
    twice = [(*key[:-1], key[0]) for key in keys]  # the last label repeats the first, so 300 or another is missing
    for wrong in (twice, [(1,) * 300], [key[::-1] for key in keys]):
        mixed = keys[:7] + wrong
        assert p.labelling_keys_test(300)(mixed) == first_refused(p.labelling_test(300), mixed) == 7


def test_the_packed_labelling_test_where_the_labels_fill_their_bytes():
    # d = 200 fills its last byte, so a field needs one more for its guard
    # bit; without it, label d over label 1 on a cover would pass
    for d, pack in ((200, bytes), (200, tuple)):
        p = FinitePoset(d, [(1, 2)])
        right, wrong = [pack((1, d, *range(2, d)))], [pack((d, 1, *range(2, d)))]
        assert p.labelling_keys_test(d, pack)(right) is None
        assert p.labelling_keys_test(d, pack)(wrong) == first_refused(p.labelling_test(d, pack), wrong) == 0


@st.composite
def homomesy_argvs(draw) -> list[str]:
    """A `homomesy` command line of small, odd or out-of-range values:
    shapes and partitions with zero or negative parts, families with bad
    parameters, ceilings and deficiencies out of range or beyond any
    budget, supports off the shape or empty, budgets of 0 and up."""
    argv = ["homomesy"]
    system = draw(st.sampled_from(["shape", "partition", "family", "none"]))
    if system == "shape":
        argv += ["--shape", f"{draw(st.integers(-1, 3))}x{draw(st.integers(0, 3))}"]
    elif system == "partition":
        argv += ["--partition", ",".join(map(str, draw(st.lists(st.integers(0, 3), max_size=3))))]
    elif system == "family":
        families = ["cayley", "freudenthal", "propeller:2", "propeller:4", "rectangle:2x2", "shifted_staircase:3", "pyramid"]
        argv += ["--family", draw(st.sampled_from(families))]
    labels = draw(st.sampled_from(["k", "q", "none"]))
    if labels == "k":
        argv += ["-k", str(draw(st.one_of(st.integers(-1, 6), st.just(300), st.just(10**20))))]
    elif labels == "q":
        argv += ["-q", str(draw(st.integers(-1, 8)))]
    if draw(st.booleans()):
        argv += ["--cells", draw(st.sampled_from(["1,1", "", "9,9", "1,1;2,2", "1,1;1,1", "x", "-1,1"]))]
    if draw(st.booleans()):
        argv.append("--symmetric-all")
    if draw(st.booleans()):
        argv += ["--operator", "promote-inverse"]
    argv += ["--format", draw(st.sampled_from(["ascii", "json"]))]
    if draw(st.integers(0, 9)):
        argv += ["--budget", str(draw(st.sampled_from([0, 1, 10, 1000])))]
    return argv


@settings(SETTINGS, max_examples=60)
@given(homomesy_argvs())
@example("homomesy --shape 0x3 -k 2 --cells 1,1 --budget 10".split())
@example(["homomesy", "--shape", "2x2", "-k", "2", "--cells", "", "--budget", "10"])
@example("homomesy --shape 2x2 -k 2 --cells 1,1 --budget 0".split())
@example("homomesy --family propeller:2 --cells 1,1 --budget 10".split())
@example("homomesy --shape 2x2 -k 99999999999999999999 --cells 1,1 --budget 10".split())
@example("homomesy --shape 2x2 -k 3 --cells 9,9 --budget 100".split())
@example("homomesy --shape 1x1 -k 300 --cells 1,1 --budget 1000".split())  # tuple keys
def test_the_homomesy_command_exits_0_to_4_and_never_raises(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(5), argv
