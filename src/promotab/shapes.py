"""Partitions, boxes, words, and semistandard Young tableaux.

Tableaux are oriented in matrix coordinates (English notation): row 1 is the
top row, and box (r, c) means row r, column c, both 1-based.  Skew tableaux
store only their present cells; absent inner cells are implied by the inner
partition.

:func:`order_ideal_chains` is the one enumerator of labellings that grow
one order ideal per label: standard tableaux here, linear extensions in
`posets` and increasing tableaux in `ktableaux` are thin wrappers over it.
:func:`count_order_ideal_chains` counts the paths through its state graph,
up to a cap, so a poset system knows its size before it enumerates.
:func:`ssyt_words` is the one SSYT enumerator: it yields reading words,
cut into rows by a :class:`ReadingRows` (:func:`ssyt_words_of_shape`
reads the shape alone), and :func:`enumerate_ssyt` wraps each in a
tableau; a :class:`ReadingLayout` adds the cells' neighbours and key
tests that the steps and key tests read.
Both enumerators are one walk, :func:`_joined_paths`: a key is the join
of one piece per level of a layered state graph, a packed row under the
row above it or an int holding a label in the fields of an antichain,
walked lazily by a loop over a stack, not a recursion.  The states of a
middle level keep the completions below them the first time they are
walked, so every later prefix into an equal state joins them without
walking below it.  Each word or labelling is packed with a key packer
(:func:`key_packer`): `tuple` by default and for every object built from
them, `bytes` for a homomesy system whose entries fit in a byte.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, repeat
from math import factorial
from operator import add, itemgetter, le, lt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError, PreconditionError

Partition = tuple[int, ...]
Box = tuple[int, int]


def check_partition(parts: Sequence[int]) -> Partition:
    """Validate and normalize a weakly decreasing sequence of positive parts."""
    out = tuple(map(int, parts))
    if out and min(out) <= 0:
        raise PreconditionError(f"partition parts must be positive: {out}")
    if any(a < b for a, b in zip(out, out[1:])):
        raise PreconditionError(f"partition parts must be weakly decreasing: {out}")
    return out


def part(parts: Partition, row: int) -> int:
    """Length of `row` (1-based), padding with 0 beyond the last part."""
    return parts[row - 1] if 1 <= row <= len(parts) else 0


def contains(outer: Partition, inner: Partition) -> bool:
    """Cellwise containment inner <= outer."""
    return all(part(outer, r) >= part(inner, r) for r in range(1, len(inner) + 1))


def conjugate(parts: Partition) -> Partition:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1))


class Tableau:
    """An immutable (possibly skew) tableau with a fixed entry ceiling.

    Row r stores the entries of columns inner[r]+1 .. outer[r] densely;
    the cells of the inner shape are absent.  Entries are integers in
    [1, ceiling].  Semistandardness is *not* enforced at construction;
    use :func:`validate`.  :meth:`_of_word` builds the same tableau from
    a reading word and a layout of its shape, which the steps on reading
    words already hold; either way the reading word is kept once read.
    """

    __slots__ = ("rows", "inner", "outer", "ceiling", "_hash", "_word")

    def __init__(self, rows: Sequence[Sequence[int]], ceiling: int, inner: Sequence[int] = ()):
        inner_p: Partition = check_partition(inner) if inner else ()
        rows_t = tuple([tuple(map(int, row)) for row in rows])
        outer = tuple(map(len, rows_t))
        if inner_p:
            outer = tuple(part(inner_p, r) + n for r, n in enumerate(outer, start=1))
        ceiling = int(ceiling)
        if ceiling < 0:
            raise PreconditionError(f"ceiling must be nonnegative: {ceiling}")
        if outer and (outer[-1] <= 0 or tuple(sorted(outer, reverse=True)) != outer):
            raise PreconditionError(f"rows {rows_t} with inner {inner_p} do not form a skew shape")
        if inner_p and not contains(outer, inner_p):
            raise PreconditionError(f"inner shape {inner_p} not contained in outer {outer}")
        entries = tuple(chain.from_iterable(rows_t))
        if entries and not 1 <= min(entries) <= max(entries) <= ceiling:
            v = next(v for v in entries if not 1 <= v <= ceiling)
            raise PreconditionError(f"entry {v} out of range [1, {ceiling}]")
        self.rows = rows_t
        self.inner = inner_p
        self.outer = outer
        self.ceiling = ceiling
        self._hash = hash((rows_t, inner_p, ceiling))
        self._word = None

    @classmethod
    def _of_word(cls, layout: ReadingRows, word: tuple[int, ...], ceiling: int) -> Tableau:
        """The tableau of the layout's shape whose reading word is `word`,
        a tuple of ints: ``Tableau(layout.rows(word), ceiling, layout.inner)``
        without re-deriving the checked shape.  It raises on every input
        the rows constructor refuses: a word whose length is not the
        layout's size, an entry out of [1, ceiling], a negative ceiling."""
        ceiling = int(ceiling)
        if ceiling < 0:
            raise PreconditionError(f"ceiling must be nonnegative: {ceiling}")
        if len(word) != layout.size:
            raise PreconditionError(f"a word of length {len(word)} does not fill a shape of {layout.size} cells")
        if word and not 1 <= min(word) <= max(word) <= ceiling:
            v = next(v for v in word if not 1 <= v <= ceiling)
            raise PreconditionError(f"entry {v} out of range [1, {ceiling}]")
        self = object.__new__(cls)
        self.rows = rows = tuple([word[a:b] for a, b in layout.bounds])
        self.inner = layout.inner
        self.outer = layout.outer
        self.ceiling = ceiling
        self._hash = hash((rows, layout.inner, ceiling))
        self._word = word
        return self

    # -- basic structure -------------------------------------------------

    @property
    def size(self) -> int:
        """Number of present cells."""
        return sum(len(row) for row in self.rows)

    @property
    def is_straight(self) -> bool:
        return not self.inner

    @property
    def is_rectangular(self) -> bool:
        return self.is_straight and len(set(self.outer)) <= 1

    def has_box(self, row: int, col: int) -> bool:
        return part(self.inner, row) < col <= part(self.outer, row)

    def entry(self, row: int, col: int) -> int:
        if not self.has_box(row, col):
            raise PreconditionError(f"box ({row}, {col}) is not present in the tableau")
        return self.rows[row - 1][col - part(self.inner, row) - 1]

    def get(self, row: int, col: int, default=None):
        if not self.has_box(row, col):
            return default
        return self.rows[row - 1][col - part(self.inner, row) - 1]

    def boxes(self) -> Iterator[Box]:
        for r, row in enumerate(self.rows, start=1):
            off = part(self.inner, r)
            for j in range(len(row)):
                yield (r, off + j + 1)

    def items(self) -> Iterator[tuple[Box, int]]:
        for r, row in enumerate(self.rows, start=1):
            off = part(self.inner, r)
            for j, v in enumerate(row):
                yield (r, off + j + 1), v

    def row_reading(self) -> tuple[int, ...]:
        """Reading word letters: rows bottom to top, each left to right."""
        word = self._word
        if word is None:
            word = self._word = tuple(chain.from_iterable(reversed(self.rows)))
        return word

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.rows == other.rows
            and self.inner == other.inner
            and self.ceiling == other.ceiling
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "/".join(" ".join(str(v) for v in row) for row in self.rows)
        if self.inner:
            return f"<Tableau k={self.ceiling} inner={self.inner} '{body}'>"
        return f"<Tableau k={self.ceiling} '{body}'>"


def validate(t: Tableau, kind: str) -> bool:
    """Check the row/column/entry conditions of the requested tableau kind.

    Kinds: ``semistandard`` (rows weakly increase, columns strictly
    increase), ``standard`` (semistandard with entries a bijection onto
    1..size), ``increasing`` (rows and columns strictly increase, entries
    surjective onto an initial segment 1..d).  Total: returns a boolean,
    never raises for a structurally valid tableau.
    """
    if kind not in ("semistandard", "standard", "increasing"):
        raise PreconditionError(f"unknown tableau kind: {kind}")
    strict_rows = kind == "increasing"
    for row in t.rows:
        for a, b in zip(row, row[1:]):
            if b < a or (strict_rows and b == a):
                return False
    for r, (row, below) in enumerate(zip(t.rows, t.rows[1:]), start=1):
        # row r's entry j sits above entry j + shift of row r + 1
        shift = part(t.inner, r) - part(t.inner, r + 1)
        for j in range(max(0, -shift), min(len(row), len(below) - shift)):
            if below[j + shift] <= row[j]:
                return False
    if kind == "standard":
        values = sorted(v for row in t.rows for v in row)
        return values == list(range(1, t.size + 1))
    if kind == "increasing":
        values = {v for row in t.rows for v in row}
        return values == set(range(1, len(values) + 1))
    return True


# -- enumeration ---------------------------------------------------------


# the comparisons a generated test can make, as they are written in its source
_COMPARISONS = {lt: "<", le: "<="}
# the most comparisons one generated function makes: compiling one takes memory in proportion to its source
CHUNK = 2000


def key_packer(largest: int) -> type:
    """The type that packs the flat keys of a system whose keys and key
    tests hold entries from 0 to `largest`: `bytes` when they all fit in a
    byte, otherwise `tuple`.  Either is called on the entries, as
    ``pack(entries)``.  Equal-length `bytes` compare like the tuples of
    their entries, and iterate and index as those ints, so a system walks
    the same orbits, in the same order, on either."""
    return bytes if 0 <= largest <= 255 else tuple


def pairwise_test(op: Callable[[int, int], bool], pairs: Sequence[tuple[int, int]]) -> Callable[[Sequence[int]], bool]:
    """The test whether ``op(s[i], s[j])`` holds for every (i, j) in
    `pairs`, on a sequence s, for `op` :func:`operator.lt` or
    :func:`operator.le`; any other `op` raises.

    The test is one generated function of straight-line comparisons,
    ``lambda s: s[i0] < s[j0] and s[i1] < s[j1] and ...``, whose source is
    built from the pairs' ``int`` indices.  Over :data:`CHUNK` pairs it is
    one such function per run of at most :data:`CHUNK` consecutive pairs,
    joined by :func:`all`, so no single compile grows with the shape.
    Each function is generated once, on its first call: a system builds
    its key test before its budget is checked, so a refused system
    compiles nothing.
    """
    symbol = _COMPARISONS.get(op)
    if symbol is None:
        raise PreconditionError(f"no generated comparison for {op!r}; expected operator.lt or operator.le")
    pairs = tuple(pairs)

    def generated(chunk: tuple[tuple[int, int], ...]) -> Callable[[Sequence[int]], bool]:
        compiled = None

        def test(s: Sequence[int]) -> bool:
            nonlocal compiled
            if compiled is None:
                terms = " and ".join(f"s[{int(i)}] {symbol} s[{int(j)}]" for i, j in chunk)
                compiled = eval(compile(f"lambda s: {terms or 'True'}", "<pairwise_test>", "eval"), {})
            return compiled(s)

        return test

    # no pairs make one chunk too, which generates `lambda s: True`
    tests = [generated(pairs[a : a + CHUNK]) for a in range(0, len(pairs) or 1, CHUNK)]
    return tests[0] if len(tests) == 1 else lambda s: all(test(s) for test in tests)


# the most keys one packed test checks at once: a chunk's extra memory grows with it
KEYS_PER_CHUNK = 4096


def packed_test(
    size: int,
    top: int,
    pack: type,
    each: Callable[[Sequence[int]], bool],
    strict: Sequence[tuple[int, int]] = (),
    weak: Sequence[tuple[int, int]] = (),
    onto: bool = False,
) -> Callable[[Sequence[Sequence[int]]], int | None]:
    """The test of a list of keys that returns the index of the first key
    that `each`, the test of one key, refuses, or None if it refuses none.
    `each` must refuse exactly the keys that are not of type `pack` (see
    :func:`key_packer`) with `size` entries in 1..top, for which
    s[i] < s[j] for every (i, j) in `strict` and s[i] <= s[j] for every
    (i, j) in `weak`, index `size` reading 0 and `size` + 1 reading
    top + 1, and, if `onto`, whose entries are not all of 1..top.

    The test generates no code.  It checks the keys in chunks of
    :data:`KEYS_PER_CHUNK`, each at once: the type and length of every
    key, the range of every entry, then each key position's column packed
    into one int, a field of whole bytes per key whose top bit, a guard,
    lies above top + 1, so that ``(col_j + G - col_i - ONE) & G == G``
    decides s[i] < s[j] for every key of the chunk, and the same without
    ``- ONE`` decides s[i] <= s[j].  `bytes` keys are joined into one
    buffer, range-checked by ``translate`` and cut into columns by strided
    slices, and onto 1..top ORs each label's bit, by a ``translate`` of
    the buffer per eight labels, over the columns; other keys are
    transposed by ``zip``, their entries written field by field with
    ``int.to_bytes``, and onto compares the sizes of the keys' sets.  Only
    a chunk that fails is read again key by key with `each`, which finds
    the first refused key, so the answer is always that of `each`.
    """
    bound = top + 1
    width = (bound.bit_length() + 8) // 8  # bytes per field, whose top bit, the guard, lies above bound
    allowed = bytes(range(1, min(top, 255) + 1))
    # on bytes keys, by 8 labels from 1, the table taking each of them to its bit and any other value to 0
    tables = None
    if onto and pack is bytes and top < 256:
        tables = [
            bytes(1 << (v - low - 1) if low < v <= low + 8 else 0 for v in range(256)) for low in range(0, top, 8)
        ]

    def columns(chunk: Sequence[Sequence[int]]) -> list[int] | None:
        """Each key position's column of the chunk packed into one int,
        or None if an entry is no int in 1..top."""
        if pack is bytes:
            blob = b"".join(chunk)
            if blob.translate(None, allowed):
                return None
            field, packed = bytearray(width * len(chunk)), []
            for j in range(size):  # each entry's byte goes to the low end of its key's field
                field[::width] = blob[j::size]
                packed.append(int.from_bytes(field, "little"))
            return packed
        transposed = list(zip(*chunk))
        try:
            if transposed and not 1 <= min(map(min, transposed)) <= max(map(max, transposed)) <= top:
                return None
            return [
                int.from_bytes(b"".join(map(int.to_bytes, column, repeat(width), repeat("little"))), "little")
                for column in transposed
            ]
        except TypeError:  # an entry that is no int
            return None

    def labelled(chunk: Sequence[Sequence[int]]) -> bool:
        """Whether every key of the chunk, its entries in 1..top, takes
        every value of 1..top."""
        if tables is None:
            return set(map(len, map(set, chunk))) == {top}
        blob, ones = b"".join(chunk), int.from_bytes(bytes([1]) * len(chunk), "little")
        for low, table in zip(range(0, top, 8), tables):
            bits, seen = blob.translate(table), 0
            for j in range(size):
                seen |= int.from_bytes(bits[j::size], "little")
            if seen != ((1 << min(8, top - low)) - 1) * ones:
                return False
        return True

    def admitted(chunk: Sequence[Sequence[int]]) -> bool:
        if set(map(type, chunk)) != {pack} or set(map(len, chunk)) != {size}:
            return False
        packed = columns(chunk)
        if packed is None:
            return False
        one = int.from_bytes(bytes([1]).ljust(width, b"\0") * len(chunk), "little")
        guard = one << (8 * width - 1)
        below = guard - one
        packed += [0, bound * one]
        if any((packed[j] + below - packed[i]) & guard != guard for i, j in strict):
            return False
        if any((packed[j] + guard - packed[i]) & guard != guard for i, j in weak):
            return False
        return not onto or labelled(chunk)

    def test(keys: Sequence[Sequence[int]]) -> int | None:
        for start in range(0, len(keys), KEYS_PER_CHUNK):
            chunk = keys[start : start + KEYS_PER_CHUNK]
            if not admitted(chunk):
                refused = next((i for i, key in enumerate(chunk) if not each(key)), None)
                if refused is not None:
                    return start + refused
        return None

    return test


class ReadingRows:
    """The rows of the reading words of a (skew) shape: rows bottom to
    top, each left to right, as in :meth:`Tableau.row_reading`, read from
    the shape alone.

    `outer` and `inner` are the checked partitions, `size` the number of
    cells, and `bounds` each row's slice of the word, top row first;
    :meth:`rows` cuts a word into a tableau's rows (top row first).  It is
    all that :func:`ssyt_words` and :meth:`Tableau._of_word` read, so
    :func:`enumerate_ssyt` builds no cell table; :class:`ReadingLayout`
    adds them.
    """

    __slots__ = ("outer", "inner", "size", "bounds")

    def __init__(self, shape: Sequence[int], inner: Sequence[int] = ()):
        outer = check_partition(shape) if shape else ()
        inner_p = check_partition(inner) if inner else ()
        if not contains(outer, inner_p):
            raise PreconditionError(f"inner {inner_p} not contained in outer {outer}")
        lengths = [part(outer, r) - part(inner_p, r) for r in range(1, len(outer) + 1)]
        ends = list(accumulate(reversed(lengths), initial=0))
        self.outer = outer
        self.inner = inner_p
        self.size = ends[-1]
        self.bounds = tuple(zip(ends, ends[1:]))[::-1]

    def rows(self, word: Sequence[int]) -> list[Sequence[int]]:
        """The rows, top row first, of the tableau whose reading word is `word`."""
        return [word[a:b] for a, b in self.bounds]


class ReadingLayout(ReadingRows):
    """Where each cell of a (skew) shape sits in its reading word: the
    :class:`ReadingRows` of the shape, and its cells' tables.

    The reading word is the flat key of a tableau of the shape.
    :meth:`is_semistandard` and :meth:`semistandard_test` test words
    without building a tableau.  `fill` holds, for the cells in
    row-major order, the word index of the cell.  `south`, `east`,
    `north` and `west` hold, by word index, the word index of the cell
    below, to the right, above and to the left, or -1 for a missing one.
    `row_pairs` and `column_pairs` are the (i, j) word index pairs whose
    entries must satisfy s[i] <= s[j] and s[i] < s[j], the latter with
    the bounds 0 and ceiling + 1 at indices size and size + 1, and
    `weak_rows` and `strict_columns` their generated tests, which every
    ceiling's test of one word shares; the test of many words
    (:meth:`semistandard_keys_test`) packs the same pairs.
    """

    __slots__ = (
        "fill", "south", "east", "north", "west",
        "row_pairs", "column_pairs", "weak_rows", "strict_columns",
    )

    def __init__(self, shape: Sequence[int], inner: Sequence[int] = ()):
        super().__init__(shape, inner)
        outer, inner, n, bounds = self.outer, self.inner, self.size, self.bounds
        cells = [(r, c) for r in range(1, len(outer) + 1) for c in range(part(inner, r) + 1, part(outer, r) + 1)]
        index = {(r, c): bounds[r - 1][0] + c - part(inner, r) - 1 for r, c in cells}
        self.fill = tuple(index[cell] for cell in cells)
        by_index = sorted(cells, key=index.__getitem__)
        self.south = south = tuple(index.get((r + 1, c), -1) for r, c in by_index)
        self.east = east = tuple(index.get((r, c + 1), -1) for r, c in by_index)
        self.north = north = tuple(index.get((r - 1, c), -1) for r, c in by_index)
        self.west = west = tuple(index.get((r, c - 1), -1) for r, c in by_index)
        # the word is tested with (0, ceiling + 1) appended, at indices n and n + 1
        lowest = [(n, i) for i in range(n) if west[i] < 0 and north[i] < 0]
        highest = [(i, n + 1) for i in range(n) if east[i] < 0 and south[i] < 0]
        self.row_pairs = tuple((j, i) for i, j in enumerate(west) if j >= 0)
        self.column_pairs = tuple([(a, i) for i, a in enumerate(north) if a >= 0] + lowest + highest)
        self.weak_rows = pairwise_test(le, self.row_pairs)
        self.strict_columns = pairwise_test(lt, self.column_pairs)

    def is_semistandard(self, word: tuple[int, ...], ceiling: int) -> bool:
        """Whether a tuple word is the reading word of a semistandard
        tableau of the shape with entries in [1, ceiling]: rows weakly
        increase and columns strictly increase.  Given those, only the
        cells with no neighbour left and above (compared with a 0 appended
        to the word) and right and below (with ceiling + 1) need their
        range checked.  The comparisons are the layout's `weak_rows` and
        `strict_columns`, built once per layout and each generated on its
        first call."""
        return len(word) == self.size and self.weak_rows(word) and self.strict_columns(word + (0, ceiling + 1))

    def semistandard_test(self, ceiling: int, pack: type = tuple) -> Callable[[Sequence[int]], bool]:
        """:meth:`is_semistandard` at one ceiling, as a function of the
        word alone, for the many words of a system or an orbit walk, on
        words packed by `pack` (see :func:`key_packer`): the bounds are
        appended in the same type, and a word of another type is refused."""
        n, weak_rows, strict_columns = self.size, self.weak_rows, self.strict_columns
        bounds = pack((0, ceiling + 1))

        def test(word: Sequence[int]) -> bool:
            return type(word) is pack and len(word) == n and weak_rows(word) and strict_columns(word + bounds)

        return test

    def semistandard_keys_test(self, ceiling: int, pack: type = tuple) -> Callable[[Sequence[Sequence[int]]], int | None]:
        """The :func:`packed_test` of many words at one ceiling, on words
        packed by `pack`: the index of the first word that
        :meth:`semistandard_test` refuses, or None.  It packs the layout's
        row and column pairs, generates no code, and reads the words one by
        one with :meth:`semistandard_test` only in a chunk that fails."""
        each = self.semistandard_test(ceiling, pack)
        return packed_test(self.size, ceiling, pack, each, strict=self.column_pairs, weak=self.row_pairs)


def _joined_paths(root, edges: Sequence[Callable], middle: int, memo_key: Callable | None, empty) -> Iterator:
    """Every path from `root` through a layered state graph, one edge per
    level, as the join of its edges' pieces, each later piece joined in
    front (``piece + joined``): lazily, and in the order of the edges.

    ``edges[level](state)`` yields the (piece, state) pairs of the edges
    out of a state at `level`, from 0; a path ends after the last level,
    and `empty` is the join of no pieces.  The walk is a loop over a stack
    of edge iterators, with the edges into the leaves walked where their
    state is reached.  A state at level `middle`, if that is a level with
    edges, not 0, keeps its completions, the joins of the pieces of every
    path below it, as they are walked the first time it is reached, under
    ``memo_key(state)`` (or the state itself if that is None): every later
    path into an equal state yields each kept completion joined in front
    of its own prefix, in one `map`, and walks nothing below.
    """
    memo: dict = {}
    # the completions of the last middle state reached, and the prefix into it; None if there is no middle
    kept = prefix = None
    last = len(edges) - 1  # the level whose edges end the paths
    stack: list[Iterator] = []  # the edges left at each level above the state
    joins: list = []  # the join of the pieces into the state of each level of the stack
    state, joined = root, empty  # the state to walk next and the join of the pieces into it
    piece_of = itemgetter(0)
    while True:
        if len(stack) == last:
            if kept is None:
                yield from map(add, map(piece_of, edges[last](state)), repeat(joined))
            else:
                for piece, _ in edges[last](state):
                    piece += joined
                    kept.append(piece)
                    yield piece + prefix
        else:
            stack.append(iter(edges[len(stack)](state)))
            joins.append(joined)
        while stack:  # the next state: the next edge of the deepest level that has one
            level = len(stack)  # the level the top edges lead to
            for piece, state in stack[-1]:
                joined = piece + joins[-1]
                if level != middle:
                    break
                key = state if memo_key is None else memo_key(state)
                completions = memo.get(key)
                if completions is None:
                    kept = memo[key] = []
                    prefix, joined = joined, empty
                    break
                yield from map(add, completions, repeat(joined))
            else:
                stack.pop()
                joins.pop()
                continue
            break
        else:
            return


def _middle(depth: int) -> int:
    """The level of a graph of `depth` levels whose states keep their
    completions in :func:`_joined_paths`, or 0 for none: the level just
    past the half, where fewer completions are kept per state than above
    it, and at least the second, as a state of the first has one path
    into it."""
    middle = max(2, depth // 2 + 1)
    return middle if middle < depth else 0


def _semistandard_rows(length: int, pad: Sequence[int], caps: Sequence[int], pack: type, above: Sequence[int]) -> Iterator:
    """Each weakly increasing row of `length` entries, in lexicographic
    order, whose entry j is at most caps[j] and over entry j of
    ``pad + above``: `pad` holds a 0 for each cell left of the row above,
    `above`.  Each is yielded as a (row, row) pair of the row packed by
    `pack`.  Entries are tried cell by cell, smallest first, backing up to
    the previous cell when one has no value left."""
    lows = pad + above
    values = [0] * length
    last = length - 1
    i, v = 0, lows[0] + 1
    while True:
        if v <= caps[i]:
            values[i] = v
            if i < last:
                i += 1
                v = max(v, lows[i] + 1)
            else:
                row = pack(values)
                yield row, row
                v += 1
        elif i:
            i -= 1
            v = values[i] + 1
        else:
            return


def ssyt_words(layout: ReadingRows, ceiling: int, pack: type = tuple) -> Iterator[Sequence[int]]:
    """The reading words of every semistandard tableau of the layout's
    shape with entries <= ceiling, in the order of :func:`enumerate_ssyt`,
    each packed by `pack` (see :func:`key_packer`): the
    :func:`ssyt_words_of_shape` of the layout's outer and inner shapes."""
    return ssyt_words_of_shape(layout.outer, ceiling, pack, layout.inner)


def ssyt_words_of_shape(outer: Partition, ceiling: int, pack: type = tuple, inner: Partition = ()) -> Iterator[Sequence[int]]:
    """The reading words of every semistandard tableau of the skew shape
    outer/inner with entries <= ceiling, in row-major lexicographic order,
    each packed by `pack`.  It reads the two partitions alone, which must
    be checked ones (:func:`check_partition`), inner inside outer, as a
    :class:`ReadingRows` holds them.

    A word is the rows joined bottom to top, so each row, chosen top to
    bottom given the row above it (:func:`_semistandard_rows`), goes in
    front of the rows above: the :func:`_joined_paths` of the graph whose
    states are rows, whose middle rows keep the rows below them.  A cell
    takes at most the ceiling minus the cells under it in its column, so
    every row lies on a word; a column longer than the ceiling yields no
    word, and nothing is built for it.
    """
    if ceiling < 0:
        raise PreconditionError(f"ceiling must be nonnegative: {ceiling}")
    heights: list[int] = []  # the length of each column of outer
    for r in range(len(outer), 0, -1):
        heights += [r] * (outer[r - 1] - len(heights))
    starts = inner + (0,) * (len(outer) - len(inner))
    edges, previous = [], -1  # a level per row with cells, and the last such row, from 0
    for r, (a, b) in enumerate(zip(starts, outer)):
        if a == b:
            continue
        # a row's first cell has the most cells under it in the row, so the fewest values
        if heights[a] - r > ceiling:
            return iter(())
        # the cells left of the row above, and a row under none, have no cell above
        pad = pack(bytes(starts[r - 1] - a if previous == r - 1 >= 0 else b - a))
        caps = [ceiling + r + 1 - h for h in heights[a:b]]
        edges.append(partial(_semistandard_rows, b - a, pad, caps, pack))
        previous = r
    empty = pack()
    return _joined_paths(empty, edges, _middle(len(edges)), None, empty) if edges else iter([empty])


def enumerate_ssyt(shape: Sequence[int], ceiling: int, inner: Sequence[int] = ()) -> Iterator[Tableau]:
    """All semistandard tableaux of the given shape with entries <= ceiling.

    Deterministic row-major lexicographic order: the tableaux of the
    reading words of :func:`ssyt_words`.
    """
    layout = ReadingRows(shape, inner)
    for word in ssyt_words(layout, ceiling):
        yield Tableau._of_word(layout, word, ceiling)


def _chain_graph(size: int, covers: Iterable[tuple[int, int]], d: int) -> tuple[list, Callable[[list], list]] | None:
    """The root of the state graph of the labellings onto 1..d of the
    poset on 1..size with covers (x, y), y covering x, and the function
    that finds a state's edges; or None when there is no labelling.

    A state is the bitmask of the placed elements and the next label.  Its
    edges, each an antichain of its minimal elements and the state after
    it, come in increasing bitmask order over their sorted list.  No state
    is a dead end: each antichain leaves an element for every later label
    and takes every element whose longest chain upward needs all the
    labels left.  A state's minimal elements are its parent's that are
    left and the antichain's upper covers whose lower covers are placed.
    """
    up: list[list[int]] = [[] for _ in range(size + 1)]
    lower = [0] * (size + 1)  # the bitmask of each element's lower covers, bit x for x
    waiting = [0] * (size + 1)
    for x, y in covers:
        up[x].append(y)
        lower[y] |= 1 << x
        waiting[y] += 1
    roots = [x for x in range(1, size + 1) if not waiting[x]]
    order = roots[:]
    for x in order:  # Kahn's topological order
        for y in up[x]:
            waiting[y] -= 1
            if not waiting[y]:
                order.append(y)
    latest = [d] * (size + 1)  # the largest label each element can take
    for x in reversed(order):
        latest[x] = min((latest[y] for y in up[x]), default=d + 1) - 1
    if d > size or any(latest[x] < 1 for x in order):
        return None
    antichains: dict[tuple[int, int, int], list[tuple[int, tuple[int, ...]]]] = {}
    states: dict[tuple[int, int], list] = {}  # (placed, label) -> [placed, label, elements left, ready, edges]

    def expand(state: list) -> list[tuple[list[int], list]]:
        placed, label, remaining, ready, _ = state
        n = len(ready)
        most = min(remaining - d + label, n)  # each later label needs an element
        # with one element to place, an element that must take this label is the only one ready
        forced = sum(1 << i for i, x in enumerate(ready) if latest[x] == label) if most > 1 else 0
        picks = antichains.get((n, most, forced))
        if picks is None:
            picks = antichains[n, most, forced] = [
                (mask, tuple(i for i in range(n) if mask >> i & 1))
                for mask in range(1, 1 << n)
                if mask.bit_count() <= most and mask & forced == forced
            ]
        edges = []
        for mask, picked in picks:
            chosen = [ready[i] for i in picked]
            after = placed
            for x in chosen:
                after |= 1 << x
            child = states.get((after, label + 1))
            if child is None:
                rest = [x for i, x in enumerate(ready) if not mask >> i & 1]
                rest += {y for x in chosen for y in up[x] if not lower[y] & ~after}
                child = states[after, label + 1] = [after, label + 1, remaining - len(chosen), sorted(rest), None]
            edges.append((chosen, child))
        state[4] = edges
        return edges

    return [0, 1, size, roots, None], expand


def order_ideal_chains(size: int, covers: Iterable[tuple[int, int]], d: int, pack: type = tuple) -> Iterator[Sequence[int]]:
    """Every strictly order-preserving surjection onto 1..d from the poset
    on 1..size with covers (x, y), y covering x, as the labels of 1..size
    packed by `pack` (see :func:`key_packer`).

    A labelling is the :func:`_joined_paths` of the :func:`_chain_graph`:
    each edge's piece is an int holding its label in the field of each
    element of its antichain, fields of whole bytes as wide as d needs, the
    last label's edges also holding it in the field of every element left;
    the join is ``+``, and ``int.to_bytes`` lays the finished int out as
    the labels, which `tuple` packing reads back.  Each state's pieces are
    found once, and the states of the middle label keep their completions.
    """
    graph = _chain_graph(size, covers, d)
    if graph is None:
        return iter(())
    if d < 1:
        return iter([pack()])  # the empty poset, with no labels
    if pack is bytes and d > 255:
        raise PreconditionError(f"labels up to {d} do not fit in bytes keys")
    root, expand = graph
    width = 1 if d < 256 else 2 if d < 1 << 16 else 4 if d < 1 << 32 else 8  # bytes per label, an array item's size
    little = sys.byteorder == "little"
    # each element's 1 in its field: fields in element order, each in the machine's byte order, as arrays read them
    ones = [0] + [1 << 8 * width * (x - 1 if little else size - x) for x in range(1, size + 1)]
    one = ones.__getitem__
    to_bytes = partial(int.to_bytes, length=width * size, byteorder=sys.byteorder)
    if pack is bytes:
        finish = to_bytes
    else:  # bytes read as their ints, or as an array of the fields' items
        code = "BHIQ"[width.bit_length() - 1]

        def finish(labels: int) -> Sequence[int]:
            raw = to_bytes(labels)
            return pack(raw if width == 1 else memoryview(raw).cast(code))

    if d == 1:  # no edges: the one label takes every element, all of them minimal
        return iter([finish(sum(map(one, root[3])))] if len(root[3]) == size else [])

    def edges(state: list) -> list[tuple[int, list]]:
        """The (piece, state) pairs of a state's edges, found on its first
        visit and kept in its edges slot in place of the antichains."""
        if state[4] is None:
            label, out = state[1], []
            for chosen, child in expand(state):
                piece = label * sum(map(one, chosen))
                if child[1] == d:  # the last label takes every element left
                    if not len(child[3]) == child[2] > 0:
                        continue
                    piece += d * sum(map(one, child[3]))
                out.append((piece, child))
            state[4] = out
        return state[4]

    depth = d - 1
    return map(finish, _joined_paths(root, [edges] * depth, _middle(depth), itemgetter(0), 0))


def count_order_ideal_chains(size: int, covers: Iterable[tuple[int, int]], d: int, cap: int) -> int:
    """The number of labellings :func:`order_ideal_chains` yields if it is
    at most `cap`, and otherwise a number over `cap`, building none.

    It counts, label by label, the paths into each state of the
    :func:`_chain_graph`, and stops once a label's paths outnumber `cap`:
    no state is a dead end, so each path extends to labellings of its own.
    """
    graph = _chain_graph(size, covers, d)
    if graph is None:
        return 0
    root, expand = graph
    total, level = 1, [(root, 1)]
    for _ in range(1, d):  # the last label takes every element left
        total, paths = 0, {}  # the next label's states and the paths into each, by placed elements
        for state, n in level:
            for _, child in expand(state):
                paths.setdefault(child[0], [child, 0])[1] += n
                total += n
                if total > cap:
                    return cap + 1
        level = paths.values()
    return total


def enumerate_syt(shape: Sequence[int]) -> Iterator[Tableau]:
    """All standard tableaux of a straight shape, each exactly once: the
    linear extensions of its cells numbered row by row, in the order of
    :func:`order_ideal_chains`.  Ceiling of the results is n."""
    outer = check_partition(shape) if shape else ()
    n = sum(outer)
    starts = list(accumulate(outer, initial=0))
    covers = [(x, x + 1) for a, b in zip(starts, starts[1:]) for x in range(a + 1, b)]
    for r in range(1, len(outer)):  # each cell of row r + 1 covers the cell above it
        covers += [(y - outer[r - 1], y) for y in range(starts[r] + 1, starts[r + 1] + 1)]
    for labels in order_ideal_chains(n, covers, n):
        yield Tableau([labels[a:b] for a, b in zip(starts, starts[1:])], n)


def hook_lengths(shape: Sequence[int]) -> dict[Box, int]:
    outer = check_partition(shape) if shape else ()
    conj = conjugate(outer)
    return {
        (r, c): (outer[r - 1] - c) + (conj[c - 1] - r) + 1
        for r in range(1, len(outer) + 1)
        for c in range(1, outer[r - 1] + 1)
    }


def _product_tree(factors: Iterable[int]) -> int:
    """The product of integer factors, multiplied pairwise as a balanced
    tree, so that each multiplication takes operands of like size."""
    level = list(factors)
    while len(level) > 1:
        paired = [a * b for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0] if level else 1


def count_syt(shape: Sequence[int]) -> int:
    """Number of standard tableaux, by the hook length formula."""
    outer = check_partition(shape) if shape else ()
    return factorial(sum(outer)) // _product_tree(hook_lengths(outer).values())


def count_ssyt(shape: Sequence[int], ceiling: int) -> int:
    """Number of semistandard tableaux with entries <= ceiling (hook content
    formula): the product of the contents ceiling + c - r over the product
    of the hooks, or 0 at once, before any hook is found, when the first
    column is longer than the ceiling.  A content equal to a hook cancels
    it; the rest of each are multiplied by :func:`_product_tree` and
    divided once."""
    outer = check_partition(shape) if shape else ()
    if ceiling < 0:
        raise PreconditionError(f"ceiling must be nonnegative: {ceiling}")
    if len(outer) > ceiling:  # the first column, whose entries strictly increase, has no filling
        return 0
    hooks = hook_lengths(outer)
    contents = Counter(ceiling + c - r for r, c in hooks)  # all positive, as every column fits
    lengths = Counter(hooks.values())
    common = contents & lengths
    contents -= common
    lengths -= common
    count, rest = divmod(_product_tree(contents.elements()), _product_tree(lengths.elements()))
    if rest:
        raise RuntimeError("hook content product is not an integer; this indicates a bug in count_ssyt")
    return count


# -- rotation and words ----------------------------------------------------


def rotate_complement(t: Tableau) -> Tableau:
    """Rotate a rectangular tableau by 180 degrees and replace i by k+1-i."""
    if not t.is_rectangular:
        raise PreconditionError("rotate_complement requires a rectangular straight shape")
    k = t.ceiling
    rows = tuple(tuple(k + 1 - v for v in reversed(row)) for row in reversed(t.rows))
    return Tableau(rows, k)


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {1, ..., ceiling}."""

    letters: tuple[int, ...]
    ceiling: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        if any(not 1 <= x <= self.ceiling for x in self.letters):
            raise PreconditionError(f"letters {self.letters} out of range [1, {self.ceiling}]")

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"<Word k={self.ceiling} '{' '.join(map(str, self.letters))}'>"


def reading_word(t: Tableau) -> Word:
    """Row reading word: bottom row first, each row left to right."""
    return Word(t.row_reading(), t.ceiling)


def rsk_insert(w: Word) -> Tableau:
    """Insertion tableau of a word under RSK row insertion."""
    rows: list[list[int]] = []
    for x in w.letters:
        for row in rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                x = None  # type: ignore[assignment]
                break
            x, row[pos] = row[pos], x
        if x is not None:
            rows.append([x])
    return Tableau(tuple(tuple(r) for r in rows), w.ceiling)


def complement_reverse(w: Word) -> Word:
    """Reverse the word and replace each letter i by k+1-i."""
    k = w.ceiling
    return Word(tuple(k + 1 - x for x in reversed(w.letters)), k)


# -- plain text format -----------------------------------------------------


def format_tableau(t: Tableau) -> str:
    """Render in the plain text format: `k=<ceiling>` header, one row per
    line, entries space separated, absent inner cells written as `.`."""
    lines = [f"k={t.ceiling}"]
    for r, row in enumerate(t.rows, start=1):
        cells = ["."] * part(t.inner, r) + [str(v) for v in row]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def parse_tableau(text: str) -> Tableau:
    """Parse the plain text tableau format (inverse of :func:`format_tableau`)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].strip().startswith("k="):
        raise ParseError("tableau text must start with a 'k=<ceiling>' header line")
    header = lines[0].strip()
    try:
        ceiling = int(header[2:])
    except ValueError:
        raise ParseError(f"malformed ceiling header: {header!r}")
    if ceiling < 0:
        raise ParseError(f"ceiling must be nonnegative: {ceiling}")
    rows: list[tuple[int, ...]] = []
    inner: list[int] = []
    for line in lines[1:]:
        tokens = line.split()
        dots = 0
        while dots < len(tokens) and tokens[dots] == ".":
            dots += 1
        entries = []
        for tok in tokens[dots:]:
            if tok == ".":
                raise ParseError(f"inner cells must form a row prefix: {line!r}")
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad entry {tok!r} in row {line!r}")
            if not 1 <= v <= ceiling:
                raise ParseError(f"entry {v} out of range [1, {ceiling}]")
            entries.append(v)
        inner.append(dots)
        rows.append(tuple(entries))
    last = max((i for i, v in enumerate(inner, start=1) if v > 0), default=0)
    try:
        return Tableau(rows, ceiling, tuple(inner[:last]))
    except PreconditionError as exc:
        raise ParseError(str(exc))
