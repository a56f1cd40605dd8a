"""Jeu de taquin, promotion, Bender-Knuth toggles, and evacuation.

All operations are pure: they take immutable tableaux and return new ones.
Promotion is implemented twice on purpose (the slide definition and the
toggle product) so the two routes can be checked against each other.

:func:`jdt_slide`/:func:`rectify` and :func:`toggle` are the one-step
definitions.  The step maps built on them (:func:`promote` and the toggle
sweeps) work on plain rows and build one :class:`Tableau`, their result;
the tests check each of them against the chain of one-step definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import PreconditionError
from .shapes import Box, Partition, Tableau, part

Picker = Callable[[list[Box]], Box]
X = TypeVar("X")


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
    seeds (or threads) compare equal.
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
        assert cols == list(range(off + 1, off + len(cols) + 1)), "grid rows must be contiguous"
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


def promote(t: Tableau) -> Tableau:
    """Promotion: delete the 1s, rectify, decrement, refill with the ceiling.

    A tableau without 1s is simply decremented.
    """
    if not t.is_straight:
        raise PreconditionError("promotion requires a straight shape")
    return Tableau(_promote_rows(t.rows, t.ceiling), t.ceiling)


def _promote_rows(rows: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    """The rows of :func:`promote` with ceiling k, from the rows of a
    straight shape.

    The holes left by the 1s slide out one by one, rightmost first, by the
    rule of :func:`jdt_slide` (on equal values the hole moves below), on
    one list of rows.
    """
    if any(1 in row for row in rows[1:]):
        raise PreconditionError("not semistandard: 1 below the first row")
    out = [list(row) for row in rows] + [[]]  # an empty row ends every slide downwards
    ones = out[0].count(1)
    for c in range(ones - 1, -1, -1):
        r = 0
        while True:
            below = out[r + 1][c] if c < len(out[r + 1]) else None
            right = out[r][c + 1] if c + 1 < len(out[r]) else None
            if below is None and right is None:
                break
            if right is None or (below is not None and below <= right):
                out[r][c] = below
                r += 1
            else:
                out[r][c] = right
                c += 1
        out[r].pop()
    return [[v - 1 for v in new] + [k] * (len(old) - len(new)) for new, old in zip(out, rows)]


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
    """Inverse promotion, as the descending toggle sweep.

    Each toggle is an involution, so reversing the sweep inverts
    :func:`promote_via_toggles` (equal to :func:`promote`) exactly, with
    no reference to the orbit period.
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
    a straight sub-shape; it is promoted with ceiling i and written back
    under the unchanged frozen entries.
    """
    if not t.is_straight:
        raise PreconditionError("partial promotion requires a straight shape")
    if not 1 <= i <= t.ceiling:
        raise PreconditionError(f"partial promotion ceiling {i} out of range [1, {t.ceiling}]")
    return Tableau(_partial_promote_rows(t.rows, i), t.ceiling)


def _partial_promote_rows(rows: Sequence[Sequence[int]], i: int) -> list[Sequence[int]]:
    """The rows of :func:`partial_promote` at i, from the rows of a
    straight shape."""
    sub_rows = []
    for row in rows:
        taken = 0
        for v in row:
            if v <= i:
                taken += 1
            else:
                break
        sub_rows.append(row[:taken])
    while sub_rows and not sub_rows[-1]:
        sub_rows.pop()
    if any(len(a) < len(b) for a, b in zip(sub_rows, sub_rows[1:])):
        raise PreconditionError(f"the entries <= {i} do not form a straight shape")
    promoted = _promote_rows(sub_rows, i)
    promoted += [[]] * (len(rows) - len(promoted))
    return [base + list(row[len(base):]) for base, row in zip(promoted, rows)]


def evacuate(t: Tableau) -> Tableau:
    """Evacuation via iterated frozen promotions.

    Stage j freezes the top j-1 values of the previous stage and promotes
    the remaining portion with the reduced ceiling.
    """
    if not t.is_straight:
        raise PreconditionError("evacuation requires a straight shape")
    k = t.ceiling
    if k == 0:
        return t
    rows = _promote_rows(t.rows, k)
    for j in range(2, k + 1):
        rows = _partial_promote_rows(rows, k - j + 1)
    return Tableau(rows, k)


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


OPERATORS: dict[str, Callable[[Tableau], Tableau]] = {
    "promote": promote,
    "promote_inverse": promote_inverse,
}


def lookup_operator(name: str) -> Callable[[Tableau], Tableau]:
    """The step map registered in :data:`OPERATORS` under `name`."""
    try:
        return OPERATORS[name]
    except KeyError:
        raise PreconditionError(f"unknown operator {name!r}")


def cycle(start: X, step: Callable[[X], X]) -> Iterator[X]:
    """Yield start, step(start), ... and stop just before start returns.

    If some other element returns first, step is not injective on the
    orbit and :class:`PreconditionError` is raised, so on a finite set the
    walk always ends.
    """
    seen = {start}
    cur = start
    while True:
        yield cur
        cur = step(cur)
        if cur == start:
            return
        if cur in seen:
            raise PreconditionError("the step map is not injective: the walk revisited an element")
        seen.add(cur)


def promotion_period(t: Tableau) -> list[Tableau]:
    """t, P(t), ... over one full promotion period.

    On a rectangle the order of promotion divides the ceiling k, so the
    period is k and the orbit is repeated to that length; on other
    straight shapes the period is the orbit itself.  Box-value multisets
    are only evacuation-invariant over such full periods.
    """
    if not t.is_straight:
        raise PreconditionError("promotion orbits require a straight shape")
    elements = list(cycle(t, promote))
    if not t.is_rectangular:
        return elements
    repeats, rest = divmod(t.ceiling, len(elements))
    if rest:
        raise RuntimeError(
            f"promotion orbit of size {len(elements)} does not divide the ceiling {t.ceiling}; "
            "this indicates a bug in promote"
        )
    return elements * repeats


def orbit(t: Tableau, operator: str = "promote") -> Orbit:
    """The cycle of `t` under an invertible operator, canonically rotated."""
    elements = list(cycle(t, lookup_operator(operator)))
    lead = min(range(len(elements)), key=lambda i: elements[i].row_reading())
    rotated = tuple(elements[lead:] + elements[:lead])
    return Orbit(representative=rotated[0], elements=rotated, period=len(rotated))
