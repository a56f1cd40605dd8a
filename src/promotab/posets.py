"""Finite posets, linear extensions, and the cominuscule families.

Elements are numbered 1..d.  The five cominuscule families are built
combinatorially from their box diagrams: each box is covered by the box
immediately below it and the box immediately to its right.  Every family
carries a `rotate` involution: 180-degree rotation for rectangles,
propellers, and the Cayley poset; antidiagonal reflection for shifted
staircases and the Freudenthal poset.  Linear extensions are enumerated by
:func:`~promotab.shapes.order_ideal_chains` with one label per element: a
lazy walk of (placed elements, next label) states whose states at the
middle label keep the labels below them, so each is walked below once.

:func:`poset_toggle` is the one-step definition of the linear-extension
dynamics.  Promotion, its inverse and evacuation toggle a plain label list
with one kernel, on the poset's covers indexed from 0, and build one
:class:`LinearExtension`, their result; the tests check each of them
against the chain of :func:`poset_toggle` calls.
:func:`linear_extension_labels` and :func:`poset_promote_labels` are the
enumeration and the promotion on labels alone, which homomesy systems
walk, packed by a key packer (`bytes` on a poset of up to 255 elements).
"""

from __future__ import annotations

from operator import lt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import PreconditionError
from .shapes import Box, check_partition, order_ideal_chains, packed_test, pairwise_test

CAYLEY_ROWS = ((0, 5), (2, 3), (3, 3), (3, 5))
FREUDENTHAL_ROWS = ((0, 6), (3, 3), (4, 3), (4, 5), (4, 5), (7, 2), (8, 1), (8, 1), (8, 1))

FAMILY_NAMES = ("rectangle", "shifted_staircase", "propeller", "cayley", "freudenthal")


class FinitePoset:
    """An immutable finite poset on elements 1..size given by its covers.

    `covers` holds pairs (x, y) with x covered by y; the relation must be
    acyclic and transitively reduced.  An optional planar embedding maps
    elements to boxes and enables the geometric `rotate` involutions.
    `above` and `below` count elements from 0, as label tuples do:
    ``above[x - 1]`` holds the elements that cover x, each as y - 1, and
    ``below[x - 1]`` the elements that x covers.  `cover_pairs` holds
    each cover (x, y), in sorted order, as the label indices (x - 1, y - 1)
    whose labels must strictly increase: the pairs of both labelling tests.
    """

    __slots__ = ("size", "covers", "embedding", "rotation", "name", "above", "below", "cover_pairs", "_box_of")

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
        # Kahn's topological order, then each element's upper set as a bitmask
        order = [x for x in up if not down[x]]
        waiting = {x: len(v) for x, v in down.items()}
        for x in order:
            for y in up[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    order.append(y)
        if len(order) < size:
            raise PreconditionError("cover relation contains a cycle")
        upper_set = [0] * (size + 1)
        for x in reversed(order):
            for y in up[x]:
                upper_set[x] |= upper_set[y] | 1 << y
        for x, y in covers_f:
            if any(upper_set[z] >> y & 1 for z in up[x]):
                raise PreconditionError(f"cover ({x}, {y}) is implied by others (not reduced)")
        self.size = size
        self.covers = covers_f
        self.embedding = dict(embedding) if embedding is not None else None
        self.rotation = dict(rotation) if rotation else None
        self.name = name
        self.above = tuple(tuple(y - 1 for y in up[x]) for x in up)
        self.below = tuple(tuple(y - 1 for y in down[x]) for x in down)
        self.cover_pairs = tuple((x - 1, y - 1) for x, y in sorted(covers_f))
        self._box_of = {box: x for x, box in (self.embedding or {}).items()}

    def elements(self) -> range:
        return range(1, self.size + 1)

    def lower_covers(self, x: int) -> tuple[int, ...]:
        if not 1 <= x <= self.size:
            raise PreconditionError(f"element {x} outside the poset")
        return tuple(y + 1 for y in self.below[x - 1])

    def labelling_test(self, d: int, pack: type = tuple) -> Callable[[Sequence[int]], bool]:
        """The test whether labels, one per element (element x's at index
        x - 1), strictly increase along every cover and take exactly the
        values 1..d: what :class:`LinearExtension` (d = size) and an
        increasing tableau with d labels check, on labels packed by `pack`
        (a :func:`~promotab.shapes.key_packer`); labels of another type are
        refused.  The covers are tested by a
        :func:`~promotab.shapes.pairwise_test` of `cover_pairs`, generated
        once, on the test's first call."""
        size, values = self.size, frozenset(range(1, d + 1))
        increasing = pairwise_test(lt, self.cover_pairs)
        # one set per call: values.issubset(labels) would build it from the labels too, and more slowly
        return lambda labels: type(labels) is pack and len(labels) == size and increasing(labels) and set(labels) == values

    def labelling_keys_test(self, d: int, pack: type = tuple) -> Callable[[Sequence[Sequence[int]]], int | None]:
        """The :func:`~promotab.shapes.packed_test` of many labellings with
        d labels, packed by `pack`: the index of the first that
        :meth:`labelling_test` refuses, or None.  It packs `cover_pairs`
        and checks that each labelling is onto 1..d, generates no code, and
        reads the labellings one by one with :meth:`labelling_test` only in
        a chunk that fails."""
        each = self.labelling_test(d, pack)
        return packed_test(self.size, d, pack, each, strict=self.cover_pairs, onto=True)

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
    if emb is None:
        raise RuntimeError(f"{p.name} has no diagram to rotate; this indicates a bug in build_cominuscule")
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
    if any(rot[rot[x]] != x for x in p.elements()):
        raise PreconditionError("rotation is not an involution")
    # an involution reverses the order exactly when it reverses every cover
    if any((rot[y], rot[x]) not in p.covers for x, y in p.covers):
        raise PreconditionError("rotation is not order-reversing")
    return rot


# -- linear extension dynamics ----------------------------------------------


def linear_extension_labels(p: FinitePoset, pack: type = tuple) -> Iterator[Sequence[int]]:
    """The labels of every linear extension, packed by `pack`:
    :func:`order_ideal_chains` with one label per element, trying the
    smallest ready element first."""
    return order_ideal_chains(p.size, p.covers, p.size, pack)


def linear_extensions(p: FinitePoset) -> Iterator[LinearExtension]:
    """All linear extensions, in the order of :func:`linear_extension_labels`."""
    for labels in linear_extension_labels(p):
        yield LinearExtension(p, labels)


def poset_toggle(t: LinearExtension, i: int) -> LinearExtension:
    """Swap the labels i and i+1 unless they sit on comparable elements,
    that is (no label lying between them) unless they form a cover."""
    d = t.poset.size
    if not 1 <= i <= d - 1:
        raise PreconditionError(f"toggle index {i} out of range [1, {d - 1}]")
    x = t.element_of(i)
    y = t.element_of(i + 1)
    if y - 1 in t.poset.above[x - 1]:
        return t
    labels = list(t.labels)
    labels[x - 1], labels[y - 1] = i + 1, i
    return LinearExtension(t.poset, labels)


def _sweep(p: FinitePoset, labels: Sequence[int], indices: Iterable[int], pack: type = tuple) -> Sequence[int]:
    """The labels of a linear extension of p after the poset toggles at
    `indices`, applied in order, packed by `pack`.  The labels are toggled
    in a list, next to the inverse array from each label to its element."""
    labels = list(labels)
    element = [0] * (len(labels) + 1)
    for x, v in enumerate(labels):
        element[v] = x
    up = p.above
    for i in indices:
        x, y = element[i], element[i + 1]
        if y not in up[x]:
            labels[x], labels[y] = i + 1, i
            element[i], element[i + 1] = y, x
    return pack(labels)


def poset_promote_labels(p: FinitePoset, labels: Sequence[int], pack: type = tuple) -> Sequence[int]:
    """Promotion on the labels of a linear extension of p: the ascending
    toggle sweep, with no object built, packed by `pack` (a
    :func:`~promotab.shapes.key_packer`)."""
    return _sweep(p, labels, range(1, p.size), pack)


def poset_promote(t: LinearExtension) -> LinearExtension:
    """Promotion of a linear extension: :func:`poset_promote_labels`."""
    return LinearExtension(t.poset, poset_promote_labels(t.poset, t.labels))


def poset_promote_inverse(t: LinearExtension) -> LinearExtension:
    """Inverse promotion: the descending toggle sweep."""
    return LinearExtension(t.poset, _sweep(t.poset, t.labels, range(t.poset.size - 1, 0, -1)))


def poset_evacuate(t: LinearExtension) -> LinearExtension:
    """Evacuation of a linear extension: the triangular toggle product."""
    d = t.poset.size
    indices = (i for j in range(d - 1, 0, -1) for i in range(1, j + 1))
    return LinearExtension(t.poset, _sweep(t.poset, t.labels, indices))


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
