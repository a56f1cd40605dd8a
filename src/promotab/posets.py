"""Finite posets, linear extensions, and the cominuscule families.

Elements are numbered 1..d.  The five cominuscule families are built
combinatorially from their box diagrams: each box is covered by the box
immediately below it and the box immediately to its right.  Every family
carries a `rotate` involution: 180-degree rotation for rectangles,
propellers, and the Cayley poset; antidiagonal reflection for shifted
staircases and the Freudenthal poset.

:func:`poset_toggle` is the one-step definition of the linear-extension
dynamics.  Promotion, its inverse and evacuation toggle a plain label list
and build one :class:`LinearExtension`, their result; the tests check each
of them against the chain of :func:`poset_toggle` calls.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, PreconditionError
from .shapes import Box, check_partition

CAYLEY_ROWS = ((0, 5), (2, 3), (3, 3), (3, 5))
FREUDENTHAL_ROWS = ((0, 6), (3, 3), (4, 3), (4, 5), (4, 5), (7, 2), (8, 1), (8, 1), (8, 1))

FAMILY_NAMES = ("rectangle", "shifted_staircase", "propeller", "cayley", "freudenthal")


class FinitePoset:
    """An immutable finite poset on elements 1..size given by its covers.

    `covers` holds pairs (x, y) with x covered by y; the relation must be
    acyclic and transitively reduced.  An optional planar embedding maps
    elements to boxes and enables the geometric `rotate` involutions.
    """

    __slots__ = ("size", "covers", "embedding", "rotation", "name", "_above", "_up", "_down", "_neighbors", "_box_of")

    def __init__(
        self,
        size: int,
        covers: Sequence[tuple[int, int]],
        embedding: dict[int, Box] | None = None,
        rotation: dict[int, int] | None = None,
        name: str | None = None,
    ):
        size = int(size)
        if size < 0:
            raise PreconditionError(f"poset size must be nonnegative: {size}")
        covers_f = frozenset((int(x), int(y)) for x, y in covers)
        for x, y in covers_f:
            if not (1 <= x <= size and 1 <= y <= size) or x == y:
                raise PreconditionError(f"cover ({x}, {y}) out of range for size {size}")
        up: dict[int, list[int]] = {x: [] for x in range(1, size + 1)}
        down: dict[int, list[int]] = {x: [] for x in range(1, size + 1)}
        for x, y in sorted(covers_f):
            up[x].append(y)
            down[y].append(x)
        above = _strict_closure(size, up)
        for x, y in covers_f:
            if any(y in above[z] for z in up[x] if z != y):
                raise PreconditionError(f"cover ({x}, {y}) is implied by others (not reduced)")
        self.size = size
        self.covers = covers_f
        self.embedding = dict(embedding) if embedding is not None else None
        self.rotation = dict(rotation) if rotation else None
        self.name = name
        self._above = above
        self._up = {x: tuple(v) for x, v in up.items()}
        self._down = {x: tuple(v) for x, v in down.items()}
        self._neighbors = {x: self._up[x] + self._down[x] for x in up}
        self._box_of = {box: x for x, box in (self.embedding or {}).items()}

    def elements(self) -> range:
        return range(1, self.size + 1)

    def lt(self, x: int, y: int) -> bool:
        return y in self._above[x]

    def lower_covers(self, x: int) -> tuple[int, ...]:
        return self._down[x]

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self._neighbors[x]

    def minimal_of(self, subset) -> list[int]:
        subset = set(subset)
        return sorted(x for x in subset if not any(d in subset for d in self._down[x]))

    def element_at(self, box: Box) -> int:
        if box not in self._box_of:
            raise PreconditionError(f"no element embedded at box {box}")
        return self._box_of[box]

    def __eq__(self, other) -> bool:
        return isinstance(other, FinitePoset) and self.size == other.size and self.covers == other.covers

    def __hash__(self) -> int:
        return hash((self.size, self.covers))

    def __repr__(self) -> str:
        label = self.name or f"{self.size} elements"
        return f"<FinitePoset {label}, {len(self.covers)} covers>"


def _strict_closure(size: int, up: dict[int, list[int]]) -> dict[int, frozenset[int]]:
    """above[x] = all y with x < y; raises on cycles."""
    above: dict[int, frozenset[int]] = {}
    state: dict[int, int] = {}

    def visit(x: int) -> frozenset[int]:
        if state.get(x) == 1:
            raise PreconditionError("cover relation contains a cycle")
        if x in above:
            return above[x]
        state[x] = 1
        acc: set[int] = set()
        for y in up[x]:
            acc.add(y)
            acc |= visit(y)
        above[x] = frozenset(acc)
        state[x] = 2
        return above[x]

    for x in range(1, size + 1):
        visit(x)
    return above


class LinearExtension:
    """An order-preserving bijection from a poset onto 1..d."""

    __slots__ = ("poset", "labels", "_hash")

    def __init__(self, poset: FinitePoset, labels: Sequence[int]):
        labels_t = tuple(map(int, labels))
        if sorted(labels_t) != list(range(1, poset.size + 1)):
            raise PreconditionError(f"labels {labels_t} are not a bijection onto 1..{poset.size}")
        for x, y in poset.covers:
            if labels_t[x - 1] >= labels_t[y - 1]:
                raise PreconditionError(f"labels do not respect the cover ({x}, {y})")
        self.poset = poset
        self.labels = labels_t
        self._hash = hash((poset, labels_t))

    def label(self, x: int) -> int:
        return self.labels[x - 1]

    def element_of(self, value: int) -> int:
        return self.labels.index(value) + 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearExtension)
            and self.poset == other.poset
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<LinearExtension {self.labels}>"


# -- cominuscule families ----------------------------------------------------


def poset_from_rows(row_spans: Sequence[tuple[int, int]], name: str | None = None) -> FinitePoset:
    """Poset of boxes from (left offset, length) per row; covers go to the
    box immediately below and the box immediately to the right."""
    boxes: list[Box] = []
    for r, (offset, length) in enumerate(row_spans, start=1):
        if length <= 0 or offset < 0:
            raise PreconditionError(f"bad row span {(offset, length)}")
        boxes.extend((r, c) for c in range(offset + 1, offset + length + 1))
    index = {box: i + 1 for i, box in enumerate(boxes)}
    covers = []
    for (r, c), x in index.items():
        if (r, c + 1) in index:
            covers.append((x, index[(r, c + 1)]))
        if (r + 1, c) in index:
            covers.append((x, index[(r + 1, c)]))
    embedding = {x: box for box, x in index.items()}
    return FinitePoset(len(boxes), covers, embedding=embedding, name=name)


def ferrers_poset(shape: Sequence[int]) -> FinitePoset:
    """The cell poset of a straight shape (row-major element numbering)."""
    outer = check_partition(shape) if shape else ()
    return poset_from_rows([(0, p) for p in outer], name=f"ferrers{outer}")


def _attach_rotation(p: FinitePoset, kind: str) -> FinitePoset:
    emb = p.embedding
    assert emb is not None
    boxes = set(emb.values())
    max_r = max(r for r, _ in boxes)
    max_c = max(c for _, c in boxes)
    if kind == "180":
        image = {box: (max_r + 1 - box[0], max_c + 1 - box[1]) for box in boxes}
    elif kind == "antidiagonal":
        n = max(max_r, max_c)
        image = {box: (n + 1 - box[1], n + 1 - box[0]) for box in boxes}
    else:
        raise PreconditionError(f"unknown rotation kind {kind!r}")
    if set(image.values()) != boxes:
        raise PreconditionError(f"diagram is not symmetric under the {kind} rotation")
    rotation = {p.element_at(box): p.element_at(image[box]) for box in boxes}
    return FinitePoset(p.size, p.covers, embedding=emb, rotation=rotation, name=p.name)


def build_cominuscule(kind: str, *params: int) -> FinitePoset:
    """Build one of the five families: rectangle(m, n), shifted_staircase(n),
    propeller(n), cayley, freudenthal."""
    if kind == "rectangle":
        if len(params) != 2 or params[0] < 1 or params[1] < 1:
            raise PreconditionError("rectangle needs positive dimensions m, n")
        m, n = params
        rows = [(0, n)] * m
        return _attach_rotation(poset_from_rows(rows, name=f"rectangle({m}x{n})"), "180")
    if kind == "shifted_staircase":
        if len(params) != 1 or params[0] < 1:
            raise PreconditionError("shifted_staircase needs a positive width n")
        n = params[0]
        rows = [(i, n - i) for i in range(n)]
        return _attach_rotation(poset_from_rows(rows, name=f"shifted_staircase({n})"), "antidiagonal")
    if kind == "propeller":
        if len(params) != 1 or params[0] < 3:
            raise PreconditionError("propeller needs a parameter n >= 3")
        n = params[0]
        rows = [(0, n - 1), (n - 3, n - 1)]
        p = _attach_rotation(poset_from_rows(rows, name=f"propeller({n})"), "180")
        if n % 2 == 0:
            # With even tails the evacuation-compatible order-reversing
            # involution fixes the two center boxes instead of swapping
            # them (parity of the ambient longest element); both variants
            # reverse the order, but only this one satisfies
            # evacuation = rotate + alphabet reversal.
            rot = dict(p.rotation)
            for box in ((1, n - 1), (2, n - 2)):
                rot[p.element_at(box)] = p.element_at(box)
            p = FinitePoset(p.size, p.covers, embedding=p.embedding, rotation=rot, name=p.name)
        return p
    if kind == "cayley":
        if params:
            raise PreconditionError("cayley takes no parameters")
        return _attach_rotation(poset_from_rows(CAYLEY_ROWS, name="cayley"), "180")
    if kind == "freudenthal":
        if params:
            raise PreconditionError("freudenthal takes no parameters")
        return _attach_rotation(poset_from_rows(FREUDENTHAL_ROWS, name="freudenthal"), "antidiagonal")
    raise PreconditionError(f"unknown cominuscule family {kind!r}; expected one of {FAMILY_NAMES}")


def rotate(p: FinitePoset) -> dict[int, int]:
    """The rotate involution of a diagram-built poset, validated as an
    order-reversing involution before being returned."""
    if p.rotation is None:
        raise PreconditionError("poset has no rotation (build it via build_cominuscule)")
    rot = dict(p.rotation)
    for x in p.elements():
        if rot[rot[x]] != x:
            raise PreconditionError("rotation is not an involution")
    for x, y in p.covers:
        if not p.lt(rot[y], rot[x]):
            raise PreconditionError("rotation is not order-reversing")
    return rot


# -- linear extension dynamics ----------------------------------------------


def linear_extensions(p: FinitePoset) -> Iterator[LinearExtension]:
    """All linear extensions, by DFS over the lattice of order ideals
    (repeatedly labelling a minimal element of what remains).

    The minimal elements of what remains are kept as a sorted list, from
    the number of unplaced lower covers of each element."""
    labels = [0] * p.size
    waiting = {x: len(p._down[x]) for x in p.elements()}

    def extend(next_label: int, ready: list[int]) -> Iterator[LinearExtension]:
        if next_label > p.size:
            yield LinearExtension(p, labels)
            return
        for idx, x in enumerate(ready):
            labels[x - 1] = next_label
            rest = ready[:idx] + ready[idx + 1 :]
            for y in p._up[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    rest.append(y)
            yield from extend(next_label + 1, sorted(rest))
            for y in p._up[x]:
                waiting[y] += 1
            labels[x - 1] = 0

    yield from extend(1, [x for x in p.elements() if not waiting[x]])


def random_linear_extension(p: FinitePoset, rng: random.Random) -> LinearExtension:
    """A random linear extension (greedy over random minimal elements;
    not uniform, which property checks do not require)."""
    labels = [0] * p.size
    placed: set[int] = set()
    for next_label in range(1, p.size + 1):
        ready = [
            x
            for x in p.elements()
            if x not in placed and all(d in placed for d in p.lower_covers(x))
        ]
        x = rng.choice(ready)
        labels[x - 1] = next_label
        placed.add(x)
    return LinearExtension(p, labels)


def poset_toggle(t: LinearExtension, i: int) -> LinearExtension:
    """Swap the labels i and i+1 unless they sit on comparable elements."""
    d = t.poset.size
    if not 1 <= i <= d - 1:
        raise PreconditionError(f"toggle index {i} out of range [1, {d - 1}]")
    x = t.element_of(i)
    y = t.element_of(i + 1)
    if t.poset.lt(x, y):
        return t
    labels = list(t.labels)
    labels[x - 1], labels[y - 1] = i + 1, i
    return LinearExtension(t.poset, labels)


def _toggle_sweep(t: LinearExtension, indices: Iterable[int]) -> LinearExtension:
    """The poset toggles at `indices`, applied in order, as one linear
    extension.  The labels are toggled in a list, next to the inverse
    array from each label to its element."""
    labels = list(t.labels)
    element = [0] * (len(labels) + 1)
    for x, v in enumerate(labels, start=1):
        element[v] = x
    above = t.poset._above
    for i in indices:
        x, y = element[i], element[i + 1]
        if y not in above[x]:
            labels[x - 1], labels[y - 1] = i + 1, i
            element[i], element[i + 1] = y, x
    return LinearExtension(t.poset, labels)


def poset_promote(t: LinearExtension) -> LinearExtension:
    """Promotion of a linear extension: the ascending toggle sweep."""
    return _toggle_sweep(t, range(1, t.poset.size))


def poset_promote_inverse(t: LinearExtension) -> LinearExtension:
    """Inverse promotion: the descending toggle sweep."""
    return _toggle_sweep(t, range(t.poset.size - 1, 0, -1))


def poset_evacuate(t: LinearExtension) -> LinearExtension:
    """Evacuation of a linear extension: the triangular toggle product."""
    d = t.poset.size
    return _toggle_sweep(t, (i for j in range(d - 1, 0, -1) for i in range(1, j + 1)))


def rotate_reverse(t: LinearExtension) -> LinearExtension:
    """Apply rotate and reverse the alphabet: x gets d+1 - label(rotate(x))."""
    rot = rotate(t.poset)
    d = t.poset.size
    labels = [0] * d
    for x in t.poset.elements():
        labels[x - 1] = d + 1 - t.label(rot[x])
    return LinearExtension(t.poset, labels)


# -- text format --------------------------------------------------------------


def format_poset(p: FinitePoset) -> str:
    """Text format: `elements=d` line, then one `x<y` cover per line."""
    lines = [f"elements={p.size}"]
    lines.extend(f"{x}<{y}" for x, y in sorted(p.covers))
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> FinitePoset:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("elements="):
        raise ParseError("poset text must start with an 'elements=<d>' line")
    try:
        size = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise ParseError(f"malformed element count: {lines[0]!r}")
    covers = []
    for line in lines[1:]:
        if "<" not in line:
            raise ParseError(f"expected a cover 'x<y', got {line!r}")
        a, b = line.split("<", 1)
        try:
            covers.append((int(a), int(b)))
        except ValueError:
            raise ParseError(f"bad cover line {line!r}")
    try:
        return FinitePoset(size, covers)
    except PreconditionError as exc:
        raise ParseError(str(exc))
