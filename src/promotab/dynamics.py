"""Jeu de taquin, promotion, Bender-Knuth toggles, and evacuation.

All operations are pure: they take immutable tableaux and return new ones.
Promotion and its inverse are implemented twice on purpose (slides and
toggle sweeps) so the two routes can be checked against each other.

:func:`jdt_slide`/:func:`rectify` and :func:`toggle` are the one-step
definitions.  Three slide kernels work on the reading word of a straight
shape, through the shape's table of neighbours (:func:`straight_layout`):
one slides the holes of the 1s out (promotion, and partial promotion
below a ceiling), one slides out the holes of the 1s, then the 2s, and so
on up to the ceiling, in one pass (evacuation), and one slides the holes
of the entries equal to the ceiling back in (inverse promotion).
:func:`promote`, :func:`promote_inverse`, :func:`partial_promote` and
:func:`evacuate` check that a tableau is semistandard, run a kernel on its
reading word and build one :class:`Tableau`, their result, straight
from the kernel's word (``Tableau._of_word``).
:data:`OPERATORS` holds the kernels that orbits step with
:func:`reading_word_step` on reading words (the keys homomesy systems
walk), each packing its result word by a key packer: `tuple` for the
steps on tableaux, `bytes` on an SSYT system whose ceiling is at most
254.  :func:`orbit` and :func:`promotion_period_words` walk a tableau's
orbit in one place.  The toggle sweeps (:func:`promote_via_toggles`,
:func:`promote_inverse_via_toggles`, :func:`evacuate_via_toggles`) toggle
plain rows and build their result with the rows constructor, so the
tests check every kernel, and the word constructor, against them and
against the chains of one-step definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import PreconditionError
from .shapes import Box, Partition, ReadingLayout, Tableau, part

Picker = Callable[[list[Box]], Box]
Slide = Callable[[Sequence[int]], Sequence[int]]
X = TypeVar("X")
R = TypeVar("R")


@dataclass(frozen=True)
class SlideRecord:
    """One jeu de taquin slide: starting inner corner, hole path, result."""

    start: Box
    path: tuple[Box, ...]
    result: Tableau


@dataclass(frozen=True)
class Orbit:
    """A full cycle of an invertible operator, canonically rotated.

    ``elements[0]`` is the representative: the element whose row reading
    word is lexicographically least, so orbits discovered from different
    seeds compare equal.
    """

    representative: Tableau
    elements: tuple[Tableau, ...]
    period: int


def inner_corners(t: Tableau) -> list[Box]:
    """Boxes of the inner shape whose lower and right neighbours are outside it."""
    corners = []
    for r in range(1, len(t.inner) + 1):
        c = t.inner[r - 1]
        if c > part(t.inner, r + 1):
            corners.append((r, c))
    return corners


def _grid(t: Tableau) -> dict[Box, int]:
    return dict(t.items())


def _tableau_from_grid(grid: dict[Box, int], ceiling: int, inner: Partition) -> Tableau:
    if not grid:
        return Tableau((), ceiling)
    nrows = max(r for r, _ in grid)
    rows = []
    for r in range(1, nrows + 1):
        cols = sorted(c for rr, c in grid if rr == r)
        off = part(inner, r)
        if cols != list(range(off + 1, off + len(cols) + 1)):
            raise RuntimeError(f"row {r} of the grid has a gap; this indicates a bug in jdt_slide")
        rows.append(tuple(grid[(r, c)] for c in cols))
    return Tableau(rows, ceiling, inner)


def jdt_slide(t: Tableau, corner: Box) -> SlideRecord:
    """Slide the hole at an inner corner through the tableau.

    At each step the hole moves to whichever of the boxes below or to the
    right holds the smaller value; on equal values it moves below.
    """
    if corner not in inner_corners(t):
        raise PreconditionError(f"{corner} is not an inner corner of the tableau")
    grid = _grid(t)
    r, c = corner
    path = [corner]
    while True:
        below = grid.get((r + 1, c))
        right = grid.get((r, c + 1))
        if below is None and right is None:
            break
        if right is None or (below is not None and below <= right):
            grid[(r, c)] = below
            del grid[(r + 1, c)]
            r += 1
        else:
            grid[(r, c)] = right
            del grid[(r, c + 1)]
            c += 1
        path.append((r, c))
    new_inner = list(t.inner)
    new_inner[corner[0] - 1] -= 1
    inner = tuple(p for p in new_inner if p > 0)
    result = _tableau_from_grid(grid, t.ceiling, inner)
    return SlideRecord(start=corner, path=tuple(path), result=result)


def rectify(t: Tableau, pick: Picker | None = None) -> Tableau:
    """Apply jeu de taquin slides until the shape is straight.

    The result does not depend on the corner order; `pick` selects among
    the available inner corners (first corner in (row, col) order by
    default) and exists so tests can randomize the order.
    """
    cur = t
    while cur.inner:
        corners = inner_corners(cur)
        corner = pick(corners) if pick is not None else corners[0]
        cur = jdt_slide(cur, corner).result
    return cur


def _slide_out(layout: ReadingLayout, i: int, k: int, pack: type = tuple) -> Slide:
    """Promotion of the entries <= i on the reading words of a straight
    layout with entries <= k, every larger entry frozen, each result
    packed by `pack` (a :func:`~promotab.shapes.key_packer`).

    The holes of the top row's 1s slide out one by one, rightmost first,
    by the rule of :func:`jdt_slide` (on equal values the hole moves
    below), and a cell holding more than i counts as absent.  Each hole
    stops holding k + 1, which later slides read as absent; then every
    entry <= i is decremented and every stopped hole holds i.
    """
    south, east = layout.south, layout.east
    top = layout.size - part(layout.outer, 1)  # the top row's first index
    absent = k + 1
    relabel = (-1).__add__ if i == k else lambda v: v - 1 if v <= i else v if v < absent else i

    def step(word: Sequence[int]) -> Sequence[int]:
        w = [*word, absent]  # a missing neighbour's index, -1, reads this absent cell
        for h in range(top + word.count(1) - 1, top - 1, -1):
            while True:
                s, e = south[h], east[h]
                below, right = w[s], w[e]
                if below <= right:
                    if below > i:
                        break
                    w[h], h = below, s
                elif right > i:
                    break
                else:
                    w[h], h = right, e
            w[h] = absent
        w.pop()
        return pack(map(relabel, w))

    return step


def _slide_in(layout: ReadingLayout, k: int, pack: type = tuple) -> Slide:
    """Inverse promotion on the reading words of a straight layout with
    entries <= k: the reverse slides of :func:`_slide_out`, each result
    packed by `pack`.

    The k's become holes and slide north-west one by one, leftmost first
    (their order in the reading word): a hole takes the larger of the
    cells above and to the left, the one above on equal values.  Each
    hole stops holding 0, which later slides read as absent; then every
    entry is incremented.
    """
    north, west = layout.north, layout.west

    def step(word: Sequence[int]) -> Sequence[int]:
        w = [*word, 0]  # a missing neighbour's index, -1, reads this absent cell
        j = -1
        for _ in range(word.count(k)):
            h = j = word.index(k, j + 1)
            while True:
                a, b = north[h], west[h]
                above, left = w[a], w[b]
                if above >= left:
                    if not above:
                        break
                    w[h], h = above, a
                else:
                    w[h], h = left, b
            w[h] = 0
        w.pop()
        return pack(map((1).__add__, w))

    return step


@lru_cache(maxsize=64)
def straight_layout(outer: Partition) -> ReadingLayout:
    """The reading layout of a straight shape, with the key tests that every
    ceiling shares.  Steps, orbit walks, growth windows and SSYT systems
    share one per shape; 64 hold every shape of the identity sweeps."""
    return ReadingLayout(outer)


def _reading_word(t: Tableau, step: str) -> tuple[ReadingLayout, tuple[int, ...]]:
    """The layout and reading word of t, which `step` needs straight and
    semistandard."""
    if not t.is_straight:
        raise PreconditionError(f"{step} requires a straight shape")
    layout = straight_layout(t.outer)
    word = t.row_reading()
    if not layout.is_semistandard(word, t.ceiling):
        raise PreconditionError("not semistandard")
    return layout, word


def promote(t: Tableau) -> Tableau:
    """Promotion: delete the 1s, rectify, decrement, refill with the ceiling.

    A tableau without 1s is simply decremented.
    """
    layout, word = _reading_word(t, "promotion")
    k = t.ceiling
    return Tableau._of_word(layout, _slide_out(layout, k, k)(word), k)


def _toggle_rows(rows: Sequence[Sequence[int]], offsets: Sequence[int], i: int) -> list[Sequence[int]]:
    """The rows of :func:`toggle` at index i, from rows of entries whose
    row r starts after `offsets[r]` absent cells; `offsets` has one more
    item than `rows`, a 0.

    Freeness is read from the input rows only; a row without a free entry
    is returned as it is.
    """
    out = list(rows)
    last = len(rows) - 1
    for r, row in enumerate(rows):
        if i not in row and i + 1 not in row:
            continue
        above, to_above = (rows[r - 1], offsets[r] - offsets[r - 1]) if r else ((), 0)
        below, to_below = (rows[r + 1], offsets[r] - offsets[r + 1]) if r < last else ((), 0)
        free: list[int] = []
        count_hi = 0
        for j, v in enumerate(row):
            if v == i:
                b = j + to_below
                if not (0 <= b < len(below) and below[b] == i + 1):
                    free.append(j)
            elif v == i + 1:
                a = j + to_above
                if not (0 <= a < len(above) and above[a] == i):
                    free.append(j)
                    count_hi += 1
        if free:
            new_row = list(row)
            for idx, j in enumerate(free):
                new_row[j] = i if idx < count_hi else i + 1
            out[r] = new_row
    return out


def _offsets(t: Tableau) -> list[int]:
    """The absent cells before each row of t, and a trailing 0."""
    return [part(t.inner, r) for r in range(1, len(t.rows) + 2)]


def toggle(t: Tableau, i: int) -> Tableau:
    """Bender-Knuth toggle exchanging free i's and (i+1)'s row by row.

    A box holding i is free unless i+1 sits directly below it; a box
    holding i+1 is free unless i sits directly above it.  In each row the
    a free i's and b free (i+1)'s are replaced by b i's and a (i+1)'s.
    """
    if not 1 <= i <= t.ceiling - 1:
        raise PreconditionError(f"toggle index {i} out of range [1, {t.ceiling - 1}]")
    return Tableau(_toggle_rows(t.rows, _offsets(t), i), t.ceiling, t.inner)


def _toggle_sweep(t: Tableau, indices: Iterable[int]) -> Tableau:
    """The toggles at `indices`, applied in order, as one tableau."""
    rows: Sequence[Sequence[int]] = t.rows
    offsets = _offsets(t)
    for i in indices:
        rows = _toggle_rows(rows, offsets, i)
    return Tableau(rows, t.ceiling, t.inner)


def promote_via_toggles(t: Tableau) -> Tableau:
    """Promotion as the ascending toggle sweep."""
    if not t.is_straight:
        raise PreconditionError("promotion requires a straight shape")
    return _toggle_sweep(t, range(1, t.ceiling))


def promote_inverse(t: Tableau) -> Tableau:
    """Inverse promotion, as the reverse slides of :func:`promote`."""
    layout, word = _reading_word(t, "promotion")
    return Tableau._of_word(layout, _slide_in(layout, t.ceiling)(word), t.ceiling)


def promote_inverse_via_toggles(t: Tableau) -> Tableau:
    """Inverse promotion, as the descending toggle sweep.

    Each toggle is an involution, so reversing the sweep inverts
    :func:`promote_via_toggles` exactly, with no reference to the orbit
    period.
    """
    if not t.is_straight:
        raise PreconditionError("promotion requires a straight shape")
    return _toggle_sweep(t, range(t.ceiling - 1, 0, -1))


def slide_toggle(t: Tableau, i: int) -> Tableau:
    """Toggle of the top two letters by deletion and sliding.

    Three steps on a tableau with ceiling i+1: delete the i's; move each
    i+1 with an empty box directly above up one unit, then pack the
    remaining (i+1)'s left within their rows; finally decrement the
    (i+1)'s and write i+1 in every empty box.
    """
    if not t.is_straight:
        raise PreconditionError("slide_toggle requires a straight shape")
    if i != t.ceiling - 1:
        raise PreconditionError(f"slide_toggle needs index {t.ceiling - 1} for ceiling {t.ceiling}")
    hi = i + 1
    grid = _grid(t)
    deleted = {box for box, v in grid.items() if v == i}
    for box in deleted:
        del grid[box]
    moved_up = set()
    for (r, c), v in sorted(grid.items()):
        if v == hi and (r - 1, c) in deleted:
            moved_up.add((r - 1, c))
    for r, c in moved_up:
        del grid[(r + 1, c)]
        grid[(r, c)] = hi
    for r in range(1, len(t.outer) + 1):
        for c in range(part(t.inner, r) + 1, t.outer[r - 1] + 1):
            if grid.get((r, c)) == hi and (r, c) not in moved_up:
                cc = c
                while cc - 1 > part(t.inner, r) and (r, cc - 1) not in grid:
                    cc -= 1
                if cc != c:
                    del grid[(r, c)]
                    grid[(r, cc)] = hi
    new_rows = []
    for r in range(1, len(t.outer) + 1):
        row = []
        for c in range(part(t.inner, r) + 1, t.outer[r - 1] + 1):
            v = grid.get((r, c))
            if v is None:
                row.append(hi)
            elif v == hi:
                row.append(i)
            else:
                row.append(v)
        new_rows.append(tuple(row))
    return Tableau(new_rows, t.ceiling, t.inner)


def partial_promote(t: Tableau, i: int) -> Tableau:
    """Promote the entries <= i in place, freezing everything larger.

    The cells holding entries <= i of a straight semistandard tableau form
    a straight sub-shape; it is promoted with ceiling i under the
    unchanged frozen entries.
    """
    layout, word = _reading_word(t, "partial promotion")
    if not 1 <= i <= t.ceiling:
        raise PreconditionError(f"partial promotion ceiling {i} out of range [1, {t.ceiling}]")
    return Tableau._of_word(layout, _slide_out(layout, i, t.ceiling)(word), t.ceiling)


def _evacuation(layout: ReadingLayout, word: Sequence[int], k: int) -> tuple[int, ...]:
    """Evacuation of a reading word of a straight layout with entries <= k,
    in one pass: the k stages of :func:`evacuate`, with no relabelling.

    Stage s slides out the holes of the s's, by the rule of
    :func:`_slide_out`.  The other entries keep their values, so s is the
    least entry left, and every cell where a hole stopped, frozen, holds
    k + 1 and counts as absent; the stages in :func:`evacuate`'s terms
    instead decrement the unfrozen entries once per stage, which keeps
    every comparison.  The evacuation holds k + 1 - s at each cell where a
    hole of stage s stopped, and every cell is one such.
    """
    south, east = layout.south, layout.east
    top = layout.size - part(layout.outer, 1)  # the top row's first index
    absent = k + 1
    w = [*word, absent]  # a missing neighbour's index, -1, reads this absent cell
    out = list(word)
    for v in range(1, absent):
        for h in range(top + w.count(v) - 1, top - 1, -1):
            while True:
                s, e = south[h], east[h]
                below, right = w[s], w[e]
                if below <= right:
                    if below > k:
                        break
                    w[h], h = below, s
                elif right > k:
                    break
                else:
                    w[h], h = right, e
            w[h] = absent
            out[h] = absent - v
    return tuple(out)


def evacuate(t: Tableau) -> Tableau:
    """Evacuation via iterated frozen promotions.

    Stage j freezes the top j-1 values of the previous stage and promotes
    the remaining portion with the reduced ceiling; the stages run as one
    pass on the reading word.
    """
    layout, word = _reading_word(t, "evacuation")
    return Tableau._of_word(layout, _evacuation(layout, word, t.ceiling), t.ceiling)


def evacuate_via_toggles(t: Tableau) -> Tableau:
    """Evacuation as the triangular toggle product."""
    if not t.is_straight:
        raise PreconditionError("evacuation requires a straight shape")
    return _toggle_sweep(t, (i for j in range(t.ceiling - 1, 0, -1) for i in range(1, j + 1)))


def dual_evacuate(t: Tableau) -> Tableau:
    """Dual evacuation of a rectangular tableau, as a toggle product."""
    if not t.is_rectangular:
        raise PreconditionError("dual evacuation requires a rectangular straight shape")
    k = t.ceiling
    return _toggle_sweep(t, (i for lo in range(1, k) for i in range(k - 1, lo - 1, -1)))


def dual_evacuate_via_complement(t: Tableau) -> Tableau:
    """Dual evacuation through rotation: complement, evacuate, complement."""
    from .shapes import rotate_complement

    if not t.is_rectangular:
        raise PreconditionError("dual evacuation requires a rectangular straight shape")
    return rotate_complement(evacuate(rotate_complement(t)))


# Each operator's kernel: its step on the reading words of a straight layout at a
# ceiling, packing each result word by a key packer.
OPERATORS: dict[str, Callable[[ReadingLayout, int, type], Slide]] = {
    "promote": lambda layout, k, pack: _slide_out(layout, k, k, pack),
    "promote_inverse": _slide_in,
}


def reading_word_step(layout: ReadingLayout, ceiling: int, operator: str, pack: type = tuple) -> Slide:
    """The step map `operator` on reading words: a semistandard word of
    the straight layout, with entries <= ceiling, to the reading word of
    the tableau that the step on tableaux gives, packed by `pack` (a
    :func:`~promotab.shapes.key_packer`).  No tableau is built and the
    word is not checked.
    """
    kernel = OPERATORS.get(operator)
    if kernel is None:
        raise PreconditionError(f"unknown operator {operator!r}")
    if layout.inner:
        raise PreconditionError("promotion requires a straight shape")
    return kernel(layout, ceiling, pack)


def cycle(start: X, step: Callable[[X], X], unvisited: set | None = None) -> Iterator[X]:
    """Yield start, step(start), ... and stop just before start returns.

    If some other element returns first, step is not injective on the
    orbit and :class:`PreconditionError` is raised, so on a finite set the
    walk always ends.  Given `unvisited`, a set holding start, the walk
    removes each element from it as it yields it, and an element not in
    it (one outside the set, or visited by this walk or an earlier one)
    raises instead: the step map is then not a bijection on the set.
    """
    # an element is fresh while it is in the set to consume, or not yet in the set of those seen
    consume = unvisited is not None
    marks = unvisited if consume else set()
    mark = marks.remove if consume else marks.add
    broken = "not a bijection on the enumerated elements" if consume else "not injective: the walk revisited an element"
    cur = start
    while True:
        if (cur in marks) is not consume:
            raise PreconditionError(f"the step map is {broken}")
        mark(cur)
        yield cur
        cur = step(cur)
        if cur == start:
            return


def _orbit_words(t: Tableau, operator: str, skew: str) -> tuple[ReadingLayout, list[tuple[int, ...]]]:
    """The layout of t's shape and the reading words of t's orbit under
    `operator`, from t's own, each checked semistandard as the steps on
    tableaux check their input; a skew t raises `skew`."""
    if not t.is_straight:
        raise PreconditionError(skew)
    k = t.ceiling
    layout = straight_layout(t.outer)
    semistandard = layout.semistandard_test(k)
    words = []
    for word in cycle(t.row_reading(), reading_word_step(layout, k, operator)):
        if not semistandard(word):
            raise PreconditionError("not semistandard")
        words.append(word)
    return layout, words


def promotion_period_words(t: Tableau) -> tuple[ReadingLayout, list[tuple[int, ...]]]:
    """The layout of t's shape and the reading words of t, P(t), ... over
    one full promotion period.

    On a rectangle the order of promotion divides the ceiling k, so the
    period is k and the orbit is repeated to that length; on other
    straight shapes the period is the orbit itself.  Box-value multisets
    are only evacuation-invariant over such full periods.
    """
    layout, words = _orbit_words(t, "promote", "promotion orbits require a straight shape")
    k = t.ceiling
    if not t.is_rectangular:
        return layout, words
    repeats, rest = divmod(k, len(words))
    if rest:
        raise RuntimeError(
            f"promotion orbit of size {len(words)} does not divide the ceiling {k}; "
            "this indicates a bug in promote"
        )
    return layout, words * repeats


def orbit_memo(period: Callable[[Tableau], tuple[Sequence[tuple[int, ...]], R]]) -> Callable[[Tableau], R]:
    """`period` read once per promotion orbit.

    `period(t)` walks t's promotion period (with
    :func:`promotion_period_words`) and returns its reading words and a
    result that depends on the orbit alone.  The returned function keeps
    that result for every word of the period, under t's shape and ceiling,
    so a later tableau of the orbit gets it without a walk; a kept word
    was checked semistandard when its period was walked.  The memo lives
    as long as the returned function, so a sweep makes one per call.
    """
    memos: dict[tuple[Partition, int], dict[tuple[int, ...], R]] = {}

    def of(t: Tableau) -> R:
        memo = memos.setdefault((t.outer, t.ceiling), {})
        word = t.row_reading()
        if word not in memo:
            words, result = period(t)
            memo.update(dict.fromkeys(words, result))
        return memo[word]

    return of


def orbit(t: Tableau, operator: str = "promote") -> Orbit:
    """The cycle of `t` under an operator of :data:`OPERATORS`, canonically
    rotated, with one tableau per orbit element."""
    layout, words = _orbit_words(t, operator, "promotion requires a straight shape")
    lead = words.index(min(words))
    rotated = tuple(Tableau._of_word(layout, word, t.ceiling) for word in words[lead:] + words[:lead])
    return Orbit(representative=rotated[0], elements=rotated, period=len(rotated))
