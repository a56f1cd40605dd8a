import inspect
import sys
import time
import tracemalloc
from itertools import accumulate, islice, product
from operator import lt

import pytest

from promotab.errors import ParseError, PreconditionError
from promotab.posets import ferrers_poset
from promotab.shapes import (
    CHUNK,
    ReadingLayout,
    Tableau,
    Word,
    _chain_graph,
    _semistandard_rows,
    complement_reverse,
    count_order_ideal_chains,
    count_ssyt,
    count_syt,
    enumerate_ssyt,
    enumerate_syt,
    format_tableau,
    hook_lengths,
    order_ideal_chains,
    pairwise_test,
    parse_tableau,
    reading_word,
    rotate_complement,
    rsk_insert,
    ssyt_words,
    validate,
)
from util import count_ssyt_by_fractions, pairwise_test_by_getters, partitions_up_to, recorded_compiles, unpruned_ssyt_words


def skew_shapes_up_to(cells: int):
    """Every (outer, inner) pair with at most `cells` outer cells, the
    straight shapes (inner empty) among them."""
    for outer in ((), *partitions_up_to(cells)):
        inners = [()]
        for length in outer:
            inners = [mu + (x,) for mu in inners for x in range(min(length, mu[-1] if mu else length) + 1)]
        yield from ((outer, tuple(x for x in mu if x)) for mu in inners)


def yielded_rows(layout: ReadingLayout, ceiling: int) -> tuple[list, list]:
    """Each (row above, row) pair that the row generator behind
    :func:`ssyt_words` yields, read by a line tracer, and the words
    :func:`ssyt_words` yields; the row above the top row is empty."""
    lines, start = inspect.getsourcelines(_semistandard_rows)
    line = start + next(i for i, text in enumerate(lines) if text.strip() == "yield row, row")
    pairs = []

    def local(frame, event, _):
        if event == "line" and frame.f_lineno == line:
            pairs.append((frame.f_locals["above"], frame.f_locals["row"]))
        return local

    def trace(frame, event, _):
        return local if frame.f_code is _semistandard_rows.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        words = list(ssyt_words(layout, ceiling))
    finally:
        sys.settrace(previous)
    return pairs, words


def walk_work(size: int, covers, d: int, cap: int, run=None) -> tuple[int, int, object]:
    """The states of the order-ideal state graph (the root and each state
    its shared :func:`_chain_graph` creates), the lines run in its module,
    counted by a line tracer that fails once they pass `cap`, and what
    `run` returns: by default the labellings :func:`order_ideal_chains`
    yields."""
    lines, start = inspect.getsourcelines(_chain_graph)
    create = start + next(i for i, line in enumerate(lines) if line.strip().startswith("child = states["))
    created = ran = 0

    def local(frame, event, _):
        nonlocal created, ran
        if event == "line":
            ran += 1
            created += frame.f_lineno == create
            if ran > cap:
                raise AssertionError(f"the walk ran more than {cap} lines")
        return local

    def trace(frame, event, _):
        return local if frame.f_code.co_filename == order_ideal_chains.__code__.co_filename else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        found = run(size, covers, d) if run else list(order_ideal_chains(size, covers, d))
    finally:
        sys.settrace(previous)
    return 1 + created, ran, found


def T(rows, k, inner=()):
    return Tableau(rows, k, inner)


class TestValidate:
    def test_semistandard_worked_tableau(self):
        assert validate(T([[1, 1, 2, 3], [3, 3, 4, 4], [5, 5]], 6), "semistandard")

    def test_increasing_rejects_repeated_row_entry(self):
        # strict columns but the repeated 3 in a row breaks the increasing test
        assert not validate(T([[1, 2], [3, 3], [4, 5]], 5), "increasing")

    def test_empty_tableau_all_kinds(self):
        empty = T([], 3)
        for kind in ("semistandard", "standard", "increasing"):
            assert validate(empty, kind)

    def test_standard_needs_bijection(self):
        assert validate(T([[1, 2], [3, 4]], 4), "standard")
        assert not validate(T([[1, 1], [2, 3]], 4), "standard")

    def test_column_violation(self):
        assert not validate(T([[1, 2], [1, 3]], 4), "semistandard")

    def test_skew_semistandard(self):
        assert validate(T([[1], [2, 2]], 3, inner=(1,)), "semistandard")


class TestEnumeration:
    def test_single_box_two_fillings(self):
        assert len(list(enumerate_ssyt((1,), 2))) == 2

    def test_two_by_two_count_matches_hook_content(self):
        found = list(enumerate_ssyt((2, 2), 4))
        assert len(found) == count_ssyt((2, 2), 4) == 20

    def test_tall_column_exceeding_ceiling_is_empty(self):
        assert list(enumerate_ssyt((3, 3, 3), 2)) == []
        assert count_ssyt((3, 3, 3), 2) == 0

    def test_all_yields_are_semistandard_and_distinct(self):
        for shape in partitions_up_to(5):
            for k in (2, 3):
                found = list(enumerate_ssyt(shape, k))
                assert all(validate(t, "semistandard") for t in found)
                assert len(set(found)) == len(found)
                assert len(found) == count_ssyt(shape, k)

    def test_row_major_lexicographic_order(self):
        cases = [(shape, k, ()) for shape in ((), *partitions_up_to(6)) for k in range(5)]
        cases += [((3, 2, 1), k, (1, 1)) for k in range(4)]
        for shape, k, inner in cases:
            lengths = [a - b for a, b in zip(shape, inner + (0,) * len(shape))]
            starts = list(accumulate(lengths, initial=0))
            fillings = (
                Tableau([values[a:b] for a, b in zip(starts, starts[1:])], k, inner)
                for values in product(range(1, k + 1), repeat=starts[-1])
            )
            expected = [t for t in fillings if validate(t, "semistandard")]
            assert list(enumerate_ssyt(shape, k, inner)) == expected, (shape, k, inner)

    def test_words_equal_the_unpruned_loop_on_every_small_shape(self):
        for outer, inner in skew_shapes_up_to(7):
            layout = ReadingLayout(outer, inner)
            for k in range(5):
                assert list(ssyt_words(layout, k)) == list(unpruned_ssyt_words(layout, k)), (outer, inner, k)

    @pytest.mark.parametrize(
        "outer, inner, ceilings",
        [
            ((3, 3, 3), (), range(6)),
            ((4, 2, 1, 1), (), range(6)),
            ((2, 1, 1), (1,), range(4)),  # the long column is not the first cell's
            ((3, 3, 2, 2), (2, 1), range(6)),
            ((5, 5, 5, 5, 5), (), (5, 6)),
        ],
    )
    def test_every_row_yielded_lies_on_a_word(self, outer, inner, ceilings):
        layout = ReadingLayout(outer, inner)
        for k in ceilings:
            pairs, words = yielded_rows(layout, k)
            # each row with cells of a word, top row first, after the row with cells above it
            on_words = set()
            for word in words:
                rows = [row for row in layout.rows(word) if row]
                on_words.update(zip([()] + rows, rows))
            # no row is a dead end, and every row of a word is yielded under the row above it
            assert set(pairs) == on_words, (outer, inner, k)
            assert len(words) == count_ssyt(outer, k) or inner

    def test_the_first_keys_come_at_once_in_little_memory(self):
        # each enumerator walks lazily: neither lists the rows or edges of a
        # level, nor keeps more completions than it has yielded
        p = ferrers_poset((12,) * 12)
        firsts = [
            lambda: [next(ssyt_words(ReadingLayout((2, 2)), 10**20))],
            lambda: list(islice(order_ideal_chains(p.size, p.covers, p.size), 10)),
        ]
        for first in firsts:
            tracemalloc.start()
            start = time.perf_counter()
            try:
                keys = first()
            finally:
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert keys and elapsed < 0.5 and peak < 1 << 20, (keys[0], elapsed, peak)

    def test_a_long_row_enumerates(self):
        assert len(list(enumerate_ssyt((1200,), 2))) == count_ssyt((1200,), 2) == 1201

    def test_the_order_ideal_walk_does_linear_work_on_a_long_chain(self):
        # one state per label, and each state's minimal elements come from its
        # parent's: rescanning all 3,000 elements per state would run millions
        # of lines, so the tracer fails long before that
        size = 3000
        states, ran, found = walk_work(size, [(x, x + 1) for x in range(1, size)], size, cap=100 * size)
        assert found == [tuple(range(1, size + 1))]
        assert states <= size + 1

    def test_the_count_stops_at_the_first_label_whose_paths_pass_the_cap(self):
        # the ordinal sum of 1,000 two-element antichains: two states per
        # label, and 2^j paths after j antichains; a count that ran every
        # label, or capped the states, would run far past the tracer's cap
        pairs = 1000
        size = 2 * pairs
        covers = [(2 * i + a, 2 * i + 2 + b) for i in range(pairs - 1) for a in (1, 2) for b in (1, 2)]
        states, ran, count = walk_work(size, covers, size, cap=100_000, run=lambda *a: count_order_ideal_chains(*a, 10))
        assert count > 10
        assert states <= 20
        assert count_order_ideal_chains(size, covers, size, 2**pairs) == 2**pairs  # each antichain in either order

    def test_syt_counts(self):
        assert len(list(enumerate_syt((2, 1)))) == 2
        assert len(list(enumerate_syt((1,)))) == 1
        assert len(list(enumerate_syt((3, 3, 3)))) == count_syt((3, 3, 3)) == 42

    def test_syt_are_standard(self):
        for shape in partitions_up_to(6):
            found = list(enumerate_syt(shape))
            assert all(validate(t, "standard") for t in found)
            assert len(set(found)) == len(found) == count_syt(shape)


class TestCounts:
    def test_the_hook_content_count_is_the_fraction_product(self):
        for shape in ((), *partitions_up_to(8), (9, 7, 7, 3, 1), (12, 12, 12), (40,) * 40):
            for k in (*range(10), 60):
                assert count_ssyt(shape, k) == count_ssyt_by_fractions(shape, k), (shape, k)

    def test_no_element_and_a_negative_ceiling(self):
        assert count_ssyt((3, 3, 3), 2) == count_ssyt((1,), 0) == 0
        assert count_ssyt((), 0) == 1
        with pytest.raises(PreconditionError, match="ceiling must be nonnegative: -1"):
            count_ssyt((2,), -1)

    def test_a_remainder_is_a_bug(self, monkeypatch):
        # a hook that divides no content product
        monkeypatch.setattr("promotab.shapes.hook_lengths", lambda shape: {**hook_lengths(shape), (1, 1): 7919})
        with pytest.raises(RuntimeError, match="not an integer; this indicates a bug in count_ssyt"):
            count_ssyt((2, 2), 4)


class TestRotateComplement:
    def test_rejects_non_rectangular(self):
        with pytest.raises(PreconditionError):
            rotate_complement(T([[1, 1, 2, 3], [3, 3, 4, 4], [5, 5]], 6))

    def test_self_complementary_square(self):
        t = T([[1, 2], [3, 4]], 4)
        assert rotate_complement(t) == t

    def test_hand_rotated_example(self):
        t = T([[1, 2, 3], [3, 4, 4]], 5)
        assert rotate_complement(t) == T([[2, 2, 3], [3, 4, 5]], 5)

    def test_involution(self):
        for t in enumerate_ssyt((3, 3), 4):
            assert rotate_complement(rotate_complement(t)) == t


class TestWords:
    def test_reading_word_square(self):
        assert reading_word(T([[1, 2], [3, 4]], 4)).letters == (3, 4, 1, 2)

    def test_reading_word_single_row(self):
        assert reading_word(T([[1, 1, 2]], 3)).letters == (1, 1, 2)

    def test_reading_word_two_rows(self):
        assert reading_word(T([[1, 2, 3], [3, 4, 4]], 5)).letters == (3, 4, 4, 1, 2, 3)

    def test_rsk_empty_word(self):
        assert rsk_insert(Word((), 3)) == T([], 3)

    def test_rsk_weakly_increasing_word_single_row(self):
        assert rsk_insert(Word((1, 1, 2), 3)) == T([[1, 1, 2]], 3)

    def test_rsk_two_row_example(self):
        assert rsk_insert(Word((3, 4, 4, 1, 2, 3), 5)) == T([[1, 2, 3], [3, 4, 4]], 5)

    def test_insert_reading_word_recovers_tableau(self):
        for shape in partitions_up_to(6):
            for t in enumerate_ssyt(shape, 4):
                assert rsk_insert(reading_word(t)) == t

    def test_complement_reverse_formula(self):
        assert complement_reverse(Word((1,), 1)).letters == (1,)
        assert complement_reverse(Word((1, 2), 3)).letters == (2, 3)
        assert complement_reverse(Word((3, 4, 4, 1, 2, 3), 5)).letters == (3, 4, 5, 2, 2, 3)

    def test_complement_reverse_involution(self):
        w = Word((2, 1, 3, 3), 4)
        assert complement_reverse(complement_reverse(w)) == w

    def test_word_rejects_out_of_alphabet_letters(self):
        with pytest.raises(PreconditionError):
            Word((1, 5), 4)


class TestTextFormat:
    def test_round_trip_straight(self):
        t = T([[1, 1, 2, 3], [3, 3, 4, 4], [5, 5]], 6)
        assert parse_tableau(format_tableau(t)) == t

    def test_round_trip_skew(self):
        t = T([[2, 3], [3, 4, 4]], 5, inner=(2,))
        text = format_tableau(t)
        assert text == "k=5\n. . 2 3\n3 4 4\n"
        assert parse_tableau(text) == t

    def test_canonical_text_round_trip(self):
        text = "k=4\n1 2\n2 3\n"
        assert format_tableau(parse_tableau(text)) == text

    def test_round_trip_empty(self):
        t = T([], 3)
        assert parse_tableau(format_tableau(t)) == t

    def test_parse_rejects_zero_entry(self):
        with pytest.raises(ParseError):
            parse_tableau("k=3\n1 0 2\n")

    def test_parse_rejects_entry_above_ceiling(self):
        with pytest.raises(ParseError):
            parse_tableau("k=3\n1 4\n")

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_tableau("1 2\n")

    def test_parse_rejects_interior_dot(self):
        with pytest.raises(ParseError):
            parse_tableau("k=3\n1 . 2\n")

    def test_parse_rejects_ragged_shape(self):
        with pytest.raises(ParseError):
            parse_tableau("k=3\n1\n1 2\n")


class TestTableauStructure:
    def test_rejects_bad_shape(self):
        with pytest.raises(PreconditionError):
            Tableau([[1], [1, 2]], 3)

    def test_rejects_inner_not_contained(self):
        with pytest.raises(PreconditionError):
            Tableau([[1]], 3, inner=(2, 2))

    def test_entry_lookup_respects_inner_offset(self):
        t = T([[2, 3], [3, 4, 4]], 5, inner=(2,))
        assert t.entry(1, 3) == 2
        assert t.get(1, 1) is None
        assert t.entry(2, 1) == 3

    def test_enumerate_ssyt_with_ceiling_zero_and_empty_shape(self):
        assert list(enumerate_ssyt((), 0)) == [Tableau((), 0)]

    def test_both_constructors_refuse_a_negative_ceiling(self):
        for build in (lambda: Tableau((), -1), lambda: Tableau._of_word(ReadingLayout(()), (), -1)):
            with pytest.raises(PreconditionError, match="ceiling must be nonnegative: -1"):
                build()


def test_a_large_shape_compiles_its_key_tests_in_bounded_chunks(monkeypatch):
    compiled = recorded_compiles(monkeypatch)
    layout = ReadingLayout((100,) * 100)
    word = tuple(r for r in range(100, 0, -1) for _ in range(100))  # row r holds r, the bottom row read first
    columns = [(a, i) for i, a in enumerate(layout.north) if a >= 0]
    test, definition = pairwise_test(lt, columns), pairwise_test_by_getters(lt, columns)
    # a column that is not strict in the first, the middle or the last chunk
    broken = []
    for a, i in (columns[0], columns[len(columns) // 2], columns[-1]):
        s = list(word)
        s[i] = s[a]
        broken.append(tuple(s))
    assert test(broken[0]) is definition(broken[0]) is False
    assert len(compiled) == 1  # the later chunks are generated on their first call
    for s in [word, *broken]:
        assert test(s) == definition(s) == all(s[a] < s[i] for a, i in columns)
    chunks = -(-len(columns) // CHUNK)
    assert chunks > 1 and len(compiled) == chunks
    assert layout.semistandard_test(100)(word)
    assert all(source.count(" < ") + source.count(" <= ") <= CHUNK for source, *_ in compiled)
