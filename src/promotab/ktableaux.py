"""Increasing tableaux and K-promotion on finite posets.

An increasing tableau is a strictly order-preserving surjection from a
poset onto 1..d; the deficiency q is |P| - d, and q = 0 recovers linear
extensions.  Both are enumerated by
:func:`~promotab.shapes.order_ideal_chains`, the same walk of (placed
elements, next label) states with d labels, whose states at the middle
label keep the labels below them.  K-promotion replaces the 1s
by bullets, bubbles the bullets upward with the simultaneous `switch`
operators, then decrements and refills.  Intermediate switch states carry
bullets, encoded as label 0.

:func:`switch` is the one-step definition.  K-promotion runs as one
event-driven bullet slide on label tuples: the labels are decremented,
the 1s become bullets, and each round jumps to the least label next to a
bullet, which every bullet beside it takes while those cells become
bullets, so the switches that move nothing are never visited.  Inverse
K-promotion is the same slide on the dual poset, conjugated by the
complement v -> d + 1 - v.  :func:`k_promote_step` and
:func:`k_promote_inverse_step` build them once per poset and d;
:func:`k_promote`, :func:`k_promote_inverse`, :func:`k_evacuate` and the
orbit walks below step label tuples and build an
:class:`IncreasingTableau` only for their result.  The tests check both
against the chain of :func:`switch` calls.  :func:`increasing_labels` is
the enumeration on labels alone, which homomesy systems walk with
:func:`k_promote_step`, both packed by a key packer (`bytes` on a poset
of up to 255 elements).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .dynamics import cycle
from .errors import PreconditionError
from .posets import FinitePoset, LinearExtension, build_cominuscule, ferrers_poset, rotate
from .shapes import Box, Tableau, order_ideal_chains

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
    other = {a: b, b: a}
    for x, v in enumerate(state_t):
        if v in other and any(state_t[y] == other[v] for y in poset.above[x] + poset.below[x]):
            out[x] = other[v]
    return tuple(out)


def _bullet_slide(ahead: Sequence[Sequence[int]], d: int, pack: type) -> Callable[[Sequence[int]], Sequence[int]]:
    """K-promotion on the label tuples of increasing tableaux with labels
    1..d, read through `ahead` (a poset's `above`, or its `below` for the
    dual poset): the chain of ``switch(., i, BULLET)`` for i = 2..d
    without visiting the i that move nothing.  Each result is packed by
    `pack` (a :func:`~promotab.shapes.key_packer`).

    Every label is decremented and the 1s become bullets.  Then, while
    some bullet has anything ahead of it, let m be the least label ahead
    of any bullet: every bullet with an m ahead takes the label m, and
    those m-cells become bullets.  The bullets stay an antichain, so a
    bullet never lies ahead of another, and none is read until the end,
    when each takes the label d.
    """

    def step(labels: Sequence[int]) -> Sequence[int]:
        lab = [v - 1 for v in labels]
        bullets = [x for x, v in enumerate(labels) if v == 1]
        while True:
            m = d
            for x in bullets:
                for y in ahead[x]:
                    if lab[y] < m:
                        m = lab[y]
            if m == d:
                break
            moved = []
            for x in bullets:
                hit = False
                for y in ahead[x]:
                    if lab[y] == m:
                        hit = True
                        if y not in moved:  # an m next to two bullets
                            moved.append(y)
                if hit:
                    lab[x] = m
                else:
                    moved.append(x)
            bullets = moved
        for x in bullets:
            lab[x] = d
        return pack(lab)

    return step


def k_promote_step(p: FinitePoset, d: int, pack: type = tuple) -> Callable[[Sequence[int]], Sequence[int]]:
    """K-promotion on the label tuples of the increasing tableaux of p with
    labels 1..d: bulletize the 1s, switch the bullets up through 2..d, then
    decrement every label and turn bullets into d.  No object is built and
    the labels are not checked; each result is packed by `pack`."""
    return _bullet_slide(p.above, d, pack)


def k_promote_inverse_step(p: FinitePoset, d: int, pack: type = tuple) -> Callable[[Sequence[int]], Sequence[int]]:
    """Inverse K-promotion on label tuples, as :func:`k_promote_step`: the
    complement c(v) = d + 1 - v takes the increasing tableaux of p to
    those of the dual poset, and inverse K-promotion is c, then
    K-promotion on the dual poset, then c."""
    slide = _bullet_slide(p.below, d, tuple)
    top = d + 1

    def step(labels: Sequence[int]) -> Sequence[int]:
        return pack([top - v for v in slide([top - v for v in labels])])

    return step


def k_promote(t: IncreasingTableau) -> IncreasingTableau:
    """K-promotion: :func:`k_promote_step`."""
    return IncreasingTableau(t.poset, k_promote_step(t.poset, t.d)(t.labels))


def k_promote_inverse(t: IncreasingTableau) -> IncreasingTableau:
    """Inverse K-promotion: :func:`k_promote_inverse_step`."""
    return IncreasingTableau(t.poset, k_promote_inverse_step(t.poset, t.d)(t.labels))


def k_evacuate(t: IncreasingTableau) -> IncreasingTableau:
    """K-evacuation, decoded from the chain of order ideals whose j-th
    member is the (entries <= j) ideal of the (d-j)-th K-promotion; the
    powers are stepped on label tuples."""
    p, d = t.poset, t.d
    step = k_promote_step(p, d)
    powers = [t.labels]
    for _ in range(d - 1):
        powers.append(step(powers[-1]))
    labels = [0] * p.size
    prev: set[int] = set()
    for j in range(1, d + 1):
        ideal = {x for x, v in enumerate(powers[d - j]) if v <= j}
        grew = ideal - prev
        if not prev <= ideal or not grew:
            raise RuntimeError(
                "K-evacuation chain failed to decode; this indicates a bug in k_promote"
            )
        for x in grew:
            labels[x] = j
        prev = ideal
    if len(prev) != p.size:
        raise RuntimeError("K-evacuation chain did not exhaust the poset")
    return IncreasingTableau(p, labels)


def increasing_labels(p: FinitePoset, q: int, pack: type = tuple) -> Iterator[Sequence[int]]:
    """The labels of every increasing tableau of deficiency q, packed by
    `pack`: the order of :func:`order_ideal_chains` with d = |P| - q labels."""
    if not 0 <= q <= p.size:
        raise PreconditionError(f"deficiency {q} out of range [0, {p.size}]")
    return order_ideal_chains(p.size, p.covers, p.size - q, pack)


def enumerate_increasing(p: FinitePoset, q: int) -> Iterator[IncreasingTableau]:
    """All increasing tableaux of deficiency q, in the order of
    :func:`increasing_labels`."""
    for labels in increasing_labels(p, q):
        yield IncreasingTableau(p, labels)


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
    step = k_promote_step(p, bound)
    sizes = set()
    count = 0
    failures = 0
    for labels in increasing_labels(p, q):
        count += 1
        size = sum(1 for _ in cycle(labels, step))
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
    step = k_promote_step(p, t.d)

    def orbit_stats(start: IncreasingTableau) -> tuple[int, Fraction]:
        orbit = list(cycle(start.labels, step))
        total = sum(labels[e - 1] for labels in orbit for e in elems)
        return len(orbit), Fraction(total, len(orbit))

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
