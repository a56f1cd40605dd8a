"""Growth windows: chain encodings of promotion orbits.

A tableau is encoded by its multichain of Ferrers diagrams (the shapes of
entries <= j).  Writing the chains of successive promotions in rows, each
row offset one column right of the previous, produces a window whose
columns are again multichains; reading a column bottom to top decodes the
evacuation of the row it crosses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .dynamics import evacuate, orbit_memo, promotion_period_words, reading_word_step, straight_layout
from .errors import PreconditionError
from .shapes import Box, Partition, Tableau, contains, enumerate_ssyt, part

Multiset = tuple[int, ...]

# The most rows the command line builds a window with.  Its text rendering
# shifts each row one column right, so the text grows with the square of
# the height.
MAX_WINDOW_HEIGHT = 1000


@dataclass(frozen=True)
class ChainEncoding:
    """The multichain of shapes (entries <= j) for j = 0 .. ceiling."""

    diagrams: tuple[Partition, ...]

    @property
    def ceiling(self) -> int:
        return len(self.diagrams) - 1


@dataclass(frozen=True)
class GrowthWindow:
    """Rows of chain encodings; row r encodes the r-th promotion of row 0.

    Row r occupies global columns r .. r+ceiling (each row is shifted one
    column right of the row above), so global column C meets row r at
    chain index C - r.
    """

    rows: tuple[ChainEncoding, ...]
    ceiling: int

    @property
    def height(self) -> int:
        return len(self.rows)

    def diagram_at(self, row: int, index: int) -> Partition:
        if not (0 <= row < self.height and 0 <= index <= self.ceiling):
            raise PreconditionError(f"position (row={row}, index={index}) outside the window")
        return self.rows[row].diagrams[index]


def encode_chain(t: Tableau) -> ChainEncoding:
    """Encode a straight tableau as its multichain of subshapes."""
    if not t.is_straight:
        raise PreconditionError("chain encoding requires a straight shape")
    return _chain(t.rows, t.ceiling)


def _chain(rows: Sequence[Sequence[int]], ceiling: int) -> ChainEncoding:
    """:func:`encode_chain` of the straight tableau with these rows: part
    r of diagram j counts the entries <= j of row r, and zero parts are
    dropped."""
    counts = [accumulate(map(row.count, range(ceiling + 1))) for row in rows]
    columns = zip(*counts) if rows else [()] * (ceiling + 1)
    return ChainEncoding(tuple(tuple(filter(None, column)) for column in columns))


def decode_chain(chain: ChainEncoding) -> Tableau:
    """Rebuild the tableau from a multichain of shapes."""
    diagrams = chain.diagrams
    if not diagrams or diagrams[0] != ():
        raise PreconditionError("chain must start at the empty shape")
    outer = diagrams[-1]
    nrows = len(outer)
    rows: list[list[int]] = [[] for _ in range(nrows)]
    for j in range(1, len(diagrams)):
        prev, cur = diagrams[j - 1], diagrams[j]
        if not contains(cur, prev):
            raise PreconditionError(f"not a multichain: {prev} not contained in {cur}")
        for r in range(1, nrows + 1):
            rows[r - 1].extend([j] * (part(cur, r) - part(prev, r)))
    return Tableau(tuple(tuple(row) for row in rows), chain.ceiling)


def build_window(t: Tableau, height: int) -> GrowthWindow:
    """Chain encodings of t, P(t), P^2(t), ... as the rows of a window.

    The promotions are stepped on reading words, each checked
    semistandard as :func:`promote` checks its input.
    """
    k = t.ceiling
    if height < k + 1:
        raise PreconditionError(f"window height {height} below ceiling+1 = {k + 1}")
    if not t.is_straight:
        raise PreconditionError("chain encoding requires a straight shape")
    layout = straight_layout(t.outer)
    semistandard = layout.semistandard_test(k)
    step = reading_word_step(layout, k, "promote")
    rows = []
    word = t.row_reading()
    for _ in range(height):
        if not semistandard(word):
            raise PreconditionError("not semistandard")
        rows.append(_chain(layout.rows(word), k))
        word = step(word)
    return GrowthWindow(tuple(rows), k)


def column_evacuation(w: GrowthWindow, row_index: int) -> Tableau:
    """Decode the column through the rightmost diagram of a row.

    Read bottom to top, that column is the chain of the evacuation of the
    tableau encoded by the row.  Needs rows row_index .. row_index+ceiling.
    """
    k = w.ceiling
    if row_index < 0 or row_index + k >= w.height:
        raise PreconditionError(
            f"window of height {w.height} too short for the column at row {row_index}"
        )
    chain = tuple(w.rows[row_index + k - j].diagrams[j] for j in range(k + 1))
    return decode_chain(ChainEncoding(chain))


def orbit_values(t: Tableau, box: Box) -> Multiset:
    """Multiset of the values box takes over one full promotion period."""
    if not t.is_straight:
        raise PreconditionError("orbit values require a straight shape")
    r, c = box
    if not t.has_box(r, c):
        raise PreconditionError(f"box {box} is not in the shape")
    layout, words = promotion_period_words(t)
    i = layout.bounds[r - 1][0] + c - 1  # the box's index in the reading word
    return tuple(sorted(word[i] for word in words))


@dataclass(frozen=True)
class DisInvarianceReport:
    """Outcome of sweeping the box-value multiset identity over a shape."""

    shape: Partition
    ceiling: int
    tableaux_checked: int
    violations: tuple[tuple[Tableau, Box], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _period_columns(t: Tableau) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The reading words of t's promotion period, and each box's period
    multiset, in the order of ``t.boxes()``: the sorted column of the box's
    word index over the period."""
    layout, words = promotion_period_words(t)
    columns = [sorted(column) for column in zip(*words)]
    return words, [columns[i] for i in layout.fill]


def check_dis_invariance(shape, ceiling: int) -> DisInvarianceReport:
    """Verify that every box's period multiset agrees for t and evacuate(t).

    The periods are read as words, and each orbit's multisets are read
    once: every tableau of an orbit, and every evacuation that lands in
    it, shares them.  An evacuation of another shape disagrees at every
    box.
    """
    violations = []
    checked = 0
    multisets = orbit_memo(_period_columns)
    for t in enumerate_ssyt(shape, ceiling):
        checked += 1
        e = evacuate(t)
        columns_t = multisets(t)
        if e.outer != t.outer:
            violations.extend((t, box) for box in t.boxes())
            continue
        columns_e = multisets(e)
        for box, column_t, column_e in zip(t.boxes(), columns_t, columns_e):
            if column_t != column_e:
                violations.append((t, box))
    return DisInvarianceReport(tuple(shape), ceiling, checked, tuple(violations))


def path_tableau(w: GrowthWindow, start_row: int, hops) -> Tableau:
    """Decode the tableau along a monotone lattice path through the window.

    The path starts at the empty diagram of `start_row` and makes ceiling
    hops, each either ``right`` (same row, next chain index) or ``up``
    (previous row, same global column).  Both hops advance the chain index
    by one, so the visited diagrams form a multichain of full length.
    """
    hops = tuple(hops)
    if len(hops) != w.ceiling:
        raise PreconditionError(f"path must make exactly {w.ceiling} hops, got {len(hops)}")
    row, index = start_row, 0
    diagrams = [w.diagram_at(row, index)]
    for hop in hops:
        if hop == "right":
            index += 1
        elif hop == "up":
            row -= 1
            index += 1
        else:
            raise PreconditionError(f"unknown hop {hop!r}; expected 'up' or 'right'")
        diagrams.append(w.diagram_at(row, index))
    return decode_chain(ChainEncoding(tuple(diagrams)))


def bend_path(hops, corner: int) -> tuple[str, ...]:
    """Swap the two hops around interior position `corner` (1-based chain index)."""
    hops = list(hops)
    if not 1 <= corner <= len(hops) - 1:
        raise PreconditionError(f"corner {corner} not interior to a {len(hops)}-hop path")
    if hops[corner - 1] == hops[corner]:
        raise PreconditionError(f"position {corner} is not a corner of the path")
    hops[corner - 1], hops[corner] = hops[corner], hops[corner - 1]
    return tuple(hops)


def bendable_corners(hops) -> list[int]:
    hops = tuple(hops)
    return [i for i in range(1, len(hops)) if hops[i - 1] != hops[i]]


def render_window(w: GrowthWindow, tracked: Box | None = None) -> str:
    """ASCII rendering: one line per row, partitions as comma-joined parts.

    The empty shape prints as ``-``; a ``*`` prefix marks diagrams that
    contain the tracked box.
    """
    texts = []
    for enc in w.rows:
        row_texts = []
        for d in enc.diagrams:
            s = ",".join(str(p) for p in d) if d else "-"
            if tracked is not None and part(d, tracked[0]) >= tracked[1]:
                s = "*" + s
            row_texts.append(s)
        texts.append(row_texts)
    width = max(len(s) for row in texts for s in row) + 1
    lines = []
    for r, row_texts in enumerate(texts):
        pad = " " * (width * r)
        lines.append(pad + "".join(s.ljust(width) for s in row_texts).rstrip())
    return "\n".join(lines) + "\n"


__all__ = [
    "ChainEncoding",
    "GrowthWindow",
    "DisInvarianceReport",
    "MAX_WINDOW_HEIGHT",
    "encode_chain",
    "decode_chain",
    "build_window",
    "column_evacuation",
    "orbit_values",
    "check_dis_invariance",
    "path_tableau",
    "bend_path",
    "bendable_corners",
    "render_window",
]
