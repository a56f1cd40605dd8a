"""Partitions, boxes, words, and semistandard Young tableaux.

Tableaux are oriented in matrix coordinates (English notation): row 1 is the
top row, and box (r, c) means row r, column c, both 1-based.  Skew tableaux
store only their present cells; absent inner cells are implied by the inner
partition.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial
from typing import Iterator, Sequence

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
    use :func:`validate`.
    """

    __slots__ = ("rows", "inner", "outer", "ceiling", "_hash")

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
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

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


def enumerate_ssyt(shape: Sequence[int], ceiling: int, inner: Sequence[int] = ()) -> Iterator[Tableau]:
    """All semistandard tableaux of the given shape with entries <= ceiling.

    Deterministic row-major lexicographic order: cells are filled row by
    row, left to right, trying smaller values first.
    """
    outer = check_partition(shape) if shape else ()
    inner_p = check_partition(inner) if inner else ()
    if not contains(outer, inner_p):
        raise PreconditionError(f"inner {inner_p} not contained in outer {outer}")
    if ceiling < 0:
        raise PreconditionError(f"ceiling must be nonnegative: {ceiling}")
    boxes = [
        (r, c)
        for r in range(1, len(outer) + 1)
        for c in range(part(inner_p, r) + 1, part(outer, r) + 1)
    ]
    if not boxes:
        yield Tableau(tuple(() for _ in outer), ceiling, inner_p)
        return
    grid: dict[Box, int] = {}

    def fill(idx: int) -> Iterator[Tableau]:
        if idx == len(boxes):
            rows = []
            for r in range(1, len(outer) + 1):
                off = part(inner_p, r)
                rows.append(tuple(grid[(r, c)] for c in range(off + 1, part(outer, r) + 1)))
            yield Tableau(rows, ceiling, inner_p)
            return
        r, c = boxes[idx]
        left = grid.get((r, c - 1))
        above = grid.get((r - 1, c))
        lo = 1
        if left is not None:
            lo = max(lo, left)
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, ceiling + 1):
            grid[(r, c)] = v
            yield from fill(idx + 1)
        grid.pop((r, c), None)

    yield from fill(0)


def enumerate_syt(shape: Sequence[int]) -> Iterator[Tableau]:
    """All standard tableaux of a straight shape, each exactly once.

    Values 1..n are placed in order; value v may go in any cell whose left
    and upper neighbours are already filled.  Ceiling of the results is n.
    """
    outer = check_partition(shape) if shape else ()
    n = sum(outer)
    if n == 0:
        yield Tableau((), 0)
        return
    grid: dict[Box, int] = {}
    filled = [0] * len(outer)  # filled[r-1] = number of cells filled in row r

    def place(v: int) -> Iterator[Tableau]:
        if v > n:
            rows = tuple(tuple(grid[(r, c)] for c in range(1, outer[r - 1] + 1)) for r in range(1, len(outer) + 1))
            yield Tableau(rows, n)
            return
        for r in range(1, len(outer) + 1):
            c = filled[r - 1] + 1
            if c > outer[r - 1]:
                continue
            if r > 1 and filled[r - 2] < c:
                continue
            grid[(r, c)] = v
            filled[r - 1] += 1
            yield from place(v + 1)
            filled[r - 1] -= 1
            del grid[(r, c)]

    yield from place(1)


def hook_lengths(shape: Sequence[int]) -> dict[Box, int]:
    outer = check_partition(shape) if shape else ()
    conj = conjugate(outer)
    return {
        (r, c): (outer[r - 1] - c) + (conj[c - 1] - r) + 1
        for r in range(1, len(outer) + 1)
        for c in range(1, outer[r - 1] + 1)
    }


def count_syt(shape: Sequence[int]) -> int:
    """Number of standard tableaux, by the hook length formula."""
    outer = check_partition(shape) if shape else ()
    n = sum(outer)
    denom = 1
    for h in hook_lengths(outer).values():
        denom *= h
    return factorial(n) // denom


def count_ssyt(shape: Sequence[int], ceiling: int) -> int:
    """Number of semistandard tableaux with entries <= ceiling (hook content formula)."""
    outer = check_partition(shape) if shape else ()
    if ceiling < 0:
        raise PreconditionError(f"ceiling must be nonnegative: {ceiling}")
    total = Fraction(1)
    hooks = hook_lengths(outer)
    for (r, c), h in hooks.items():
        total *= Fraction(ceiling + c - r, h)
        if total == 0:
            return 0
    assert total.denominator == 1
    return int(total)


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
