"""Increasing tableaux and K-promotion on finite posets.

An increasing tableau is a strictly order-preserving surjection from a
poset onto 1..d; the deficiency q is |P| - d, and q = 0 recovers linear
extensions.  K-promotion replaces the 1s by bullets, bubbles the bullets
upward with the simultaneous `switch` operators, then decrements and
refills.  Intermediate switch states carry bullets, encoded as label 0.

:func:`switch` is the one-step definition.  K-promotion and its inverse
switch a plain label list and build one :class:`IncreasingTableau`, their
result; the tests check both against the chain of :func:`switch` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .dynamics import cycle
from .errors import PreconditionError
from .posets import FinitePoset, LinearExtension, build_cominuscule, ferrers_poset, rotate
from .shapes import Box, Tableau

BULLET = 0


class IncreasingTableau:
    """A strictly order-preserving surjection from a poset onto 1..d."""

    __slots__ = ("poset", "labels", "d", "_hash")

    def __init__(self, poset: FinitePoset, labels: Sequence[int]):
        labels_t = tuple(map(int, labels))
        if len(labels_t) != poset.size:
            raise PreconditionError(f"expected {poset.size} labels, got {len(labels_t)}")
        values = set(labels_t)
        d = max(labels_t, default=0)
        if poset.size and values != set(range(1, d + 1)):
            raise PreconditionError(f"labels {labels_t} are not surjective onto an initial segment")
        for x, y in poset.covers:
            if labels_t[x - 1] >= labels_t[y - 1]:
                raise PreconditionError(f"labels do not strictly respect the cover ({x}, {y})")
        self.poset = poset
        self.labels = labels_t
        self.d = d
        self._hash = hash((poset, labels_t))

    @property
    def deficiency(self) -> int:
        return self.poset.size - self.d

    def label(self, x: int) -> int:
        return self.labels[x - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IncreasingTableau)
            and self.poset == other.poset
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<IncreasingTableau q={self.deficiency} {self.labels}>"


def switch(state: Sequence[int], a: int, b: int, poset: FinitePoset) -> tuple[int, ...]:
    """Simultaneously swap adjacent occurrences of the labels a and b.

    Every element labeled a that covers or is covered by an element
    labeled b is relabeled b, and vice versa; all other elements are
    unchanged.  Applied twice with the same pair it is the identity.
    """
    if a == b:
        raise PreconditionError("switch needs two distinct labels")
    state_t = tuple(state)
    out = list(state_t)
    for x in poset.elements():
        v = state_t[x - 1]
        if v == a:
            if any(state_t[y - 1] == b for y in poset.neighbors(x)):
                out[x - 1] = b
        elif v == b:
            if any(state_t[y - 1] == a for y in poset.neighbors(x)):
                out[x - 1] = a
    return tuple(out)


def _switch_bullets(labels: list[int], order: Iterable[int], poset: FinitePoset) -> None:
    """Apply ``switch(., i, BULLET)`` to `labels` in place, for each i in
    `order` in turn.

    A switch moves only elements next to a bullet, so each one reads the
    neighbours of the current bullets: those labelled i become bullets and
    the bullets next to them become i.  If no bullet touches an i, the
    switch changes nothing.
    """
    neighbors = poset.neighbors
    bullets = [x for x, v in enumerate(labels, start=1) if v == BULLET]
    for i in order:
        movers: set[int] = set()
        stay, back = [], []
        for x in bullets:
            hit = [y for y in neighbors(x) if labels[y - 1] == i]
            if hit:
                back.append(x)
                movers.update(hit)
            else:
                stay.append(x)
        if not back:
            continue
        for x in back:
            labels[x - 1] = i
        for y in movers:
            labels[y - 1] = BULLET
        bullets = stay + list(movers)


def k_promote(t: IncreasingTableau) -> IncreasingTableau:
    """K-promotion: bulletize the 1s, switch the bullets up through
    2..d, then decrement every label and turn bullets into d."""
    d = t.d
    state = [BULLET if v == 1 else v for v in t.labels]
    _switch_bullets(state, range(2, d + 1), t.poset)
    return IncreasingTableau(t.poset, [d if v == BULLET else v - 1 for v in state])


def k_promote_inverse(t: IncreasingTableau) -> IncreasingTableau:
    """Inverse K-promotion: bulletize the d's, increment, switch the
    bullets back down, then turn bullets into 1."""
    d = t.d
    state = [BULLET if v == d else v + 1 for v in t.labels]
    _switch_bullets(state, range(d, 1, -1), t.poset)
    return IncreasingTableau(t.poset, [1 if v == BULLET else v for v in state])


def k_evacuate(t: IncreasingTableau) -> IncreasingTableau:
    """K-evacuation, decoded from the chain of order ideals whose j-th
    member is the (entries <= j) ideal of the (d-j)-th K-promotion."""
    d = t.d
    powers = [t]
    for _ in range(d):
        powers.append(k_promote(powers[-1]))
    labels = [0] * t.poset.size
    prev: set[int] = set()
    for j in range(1, d + 1):
        ideal = {x for x in t.poset.elements() if powers[d - j].label(x) <= j}
        grew = ideal - prev
        if not prev <= ideal or not grew:
            raise RuntimeError(
                "K-evacuation chain failed to decode; this indicates a bug in k_promote"
            )
        for x in grew:
            labels[x - 1] = j
        prev = ideal
    if len(prev) != t.poset.size:
        raise RuntimeError("K-evacuation chain did not exhaust the poset")
    return IncreasingTableau(t.poset, labels)


def enumerate_increasing(p: FinitePoset, q: int) -> Iterator[IncreasingTableau]:
    """All increasing tableaux of deficiency q, as chains of order ideals
    growing by a nonempty antichain of currently-minimal elements.

    The minimal elements of what remains are kept as a sorted list, from
    the number of unplaced lower covers of each element."""
    if not 0 <= q <= p.size:
        raise PreconditionError(f"deficiency {q} out of range [0, {p.size}]")
    d = p.size - q
    if p.size == 0:
        if q == 0:
            yield IncreasingTableau(p, ())
        return
    if d == 0:
        return
    labels = [0] * p.size
    upper: dict[int, list[int]] = {x: [] for x in p.elements()}
    for x, y in p.covers:
        upper[x].append(y)
    waiting = {x: len(p.lower_covers(x)) for x in p.elements()}

    def grow(step: int, placed: int, ready: list[int]) -> Iterator[IncreasingTableau]:
        remaining = p.size - placed
        steps_left = d - step + 1
        if remaining < steps_left:
            return
        if steps_left == 0:
            if remaining == 0:
                yield IncreasingTableau(p, labels)
            return
        for mask in range(1, 1 << len(ready)):
            chosen, rest = [], []
            for i, x in enumerate(ready):
                (chosen if mask >> i & 1 else rest).append(x)
            if remaining - len(chosen) < steps_left - 1:
                continue
            for x in chosen:
                labels[x - 1] = step
                for y in upper[x]:
                    waiting[y] -= 1
                    if not waiting[y]:
                        rest.append(y)
            yield from grow(step + 1, placed + len(chosen), sorted(rest))
            for x in chosen:
                labels[x - 1] = 0
                for y in upper[x]:
                    waiting[y] += 1

    yield from grow(1, 0, [x for x in p.elements() if not waiting[x]])


# -- grid and linear-extension bridges ----------------------------------------


def increasing_from_grid(t: Tableau) -> IncreasingTableau:
    """Read a strictly increasing straight-shape tableau as an increasing
    tableau on its Ferrers poset."""
    if not t.is_straight:
        raise PreconditionError("increasing tableaux live on straight shapes")
    p = ferrers_poset(t.outer)
    labels = [t.entry(*p.embedding[x]) for x in p.elements()]
    return IncreasingTableau(p, labels)


def increasing_to_grid(t: IncreasingTableau) -> Tableau:
    """Render an increasing tableau on a Ferrers poset as a grid tableau
    whose ceiling is the label maximum."""
    emb = t.poset.embedding
    if emb is None:
        raise PreconditionError("poset has no grid embedding")
    by_row: dict[int, dict[int, int]] = {}
    for x in t.poset.elements():
        r, c = emb[x]
        by_row.setdefault(r, {})[c] = t.label(x)
    rows = []
    for r in sorted(by_row):
        cols = sorted(by_row[r])
        if cols != list(range(1, len(cols) + 1)):
            raise PreconditionError("embedding is not a straight Ferrers diagram")
        rows.append(tuple(by_row[r][c] for c in cols))
    return Tableau(rows, max(t.labels, default=0))


def from_linear_extension(t: LinearExtension) -> IncreasingTableau:
    return IncreasingTableau(t.poset, t.labels)


def to_linear_extension(t: IncreasingTableau) -> LinearExtension:
    if t.deficiency != 0:
        raise PreconditionError("only deficiency-0 tableaux are linear extensions")
    return LinearExtension(t.poset, t.labels)


# -- 2 x n checks and the 3 x 4 witness ----------------------------------------


@dataclass(frozen=True)
class KOrbitOrderReport:
    """Outcome of checking the K-promotion order on a 2 x n rectangle."""

    n: int
    deficiency: int
    order_bound: int
    tableaux_checked: int
    orbit_sizes: tuple[int, ...]
    identity_failures: int

    @property
    def ok(self) -> bool:
        return self.identity_failures == 0 and all(
            self.order_bound % size == 0 for size in self.orbit_sizes
        )


def k_orbit_order_check(n: int, q: int) -> KOrbitOrderReport:
    """Verify that K-promotion to the power 2n-q fixes all of the
    deficiency-q increasing tableaux on the 2 x n rectangle, i.e. that
    every orbit size divides 2n-q."""
    if n < 1:
        raise PreconditionError("n must be positive")
    p = build_cominuscule("rectangle", 2, n)
    bound = 2 * n - q
    sizes = set()
    count = 0
    failures = 0
    for t in enumerate_increasing(p, q):
        count += 1
        size = sum(1 for _ in cycle(t, k_promote))
        if bound % size:
            failures += 1
            continue
        sizes.add(size)
    return KOrbitOrderReport(n, q, bound, count, tuple(sorted(sizes)), failures)


@dataclass(frozen=True)
class CounterexampleReport:
    """The known homomesy violation on the 3 x 4 rectangle at deficiency 3."""

    first: IncreasingTableau
    second: IncreasingTableau
    support_boxes: tuple[Box, ...]
    first_orbit_size: int
    second_orbit_size: int
    first_average: Fraction
    second_average: Fraction


def three_by_four_counterexample() -> CounterexampleReport:
    """Build the two deficiency-3 tableaux on the 3 x 4 rectangle whose
    K-promotion orbits have different cell-sum averages over the
    rotate-fixed pair {(2,2), (2,3)}, and verify the exact numbers."""
    p = build_cominuscule("rectangle", 3, 4)
    rows_t = ((1, 2, 3, 5), (2, 4, 5, 7), (3, 6, 8, 9))
    rows_u = ((1, 4, 5, 6), (2, 6, 7, 8), (3, 7, 8, 9))
    t = increasing_from_grid(Tableau(rows_t, 9))
    u = increasing_from_grid(Tableau(rows_u, 9))
    support_boxes = ((2, 2), (2, 3))
    rot = rotate(p)
    elems = [p.element_at(b) for b in support_boxes]
    if {rot[e] for e in elems} != set(elems):
        raise RuntimeError("support is expected to be rotate-fixed")

    def orbit_stats(start: IncreasingTableau) -> tuple[int, Fraction]:
        elements = list(cycle(start, k_promote))
        total = sum(sum(x.label(e) for e in elems) for x in elements)
        return len(elements), Fraction(total, len(elements))

    size_t, avg_t = orbit_stats(t)
    size_u, avg_u = orbit_stats(u)
    if (size_t, size_u) != (9, 9):
        raise RuntimeError(f"expected both orbits of size 9, got {size_t} and {size_u}")
    if (avg_t, avg_u) != (Fraction(91, 9), Fraction(10)):
        raise RuntimeError(f"expected averages 91/9 and 10, got {avg_t} and {avg_u}")
    return CounterexampleReport(
        first=t,
        second=u,
        support_boxes=support_boxes,
        first_orbit_size=size_t,
        second_orbit_size=size_u,
        first_average=avg_t,
        second_average=avg_u,
    )
