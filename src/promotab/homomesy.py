"""Cell-sum statistics, exact orbit averages, and homomesy verdicts.

A dynamical system here is any finite set with an invertible step map.
A :class:`System` enumerates and steps flat keys, an element's entries
(a tableau's reading word, a poset object's labels), and knows its
layout: the key index of each box or element, and the rotate involution
on key positions (a :class:`Rotation`), which each builder gives once.
Each system picks its key type once, by :func:`~promotab.shapes.key_packer`:
`bytes` when every entry and the bounds its key test appends fit in a
byte (SSYT ceilings up to 254, posets of up to 255 elements), otherwise
int tuples.  Its enumerator, its step kernel and its key test all work in
that type, and equal-length `bytes` order and iterate like the tuples of
their entries, so leads, orbit order and totals do not depend on it;
representatives are int tuples either way.  A system's step, like its
key test, takes a list of keys: it is one column kernel, which packs each
key position's column of the list into one int and steps every key at
once (:func:`~promotab.dynamics.promotion_columns` on SSYT,
:func:`~promotab.ktableaux.k_promotion_columns` on posets).
:func:`partition_orbits` counts it and enumerates it under an explicit
element budget, by the one walk of `shapes`, whose middle states keep
the completions below them, so a key is one join per path into such a
state; an SSYT system builds its reading layout, step and key test on
their first use, and one with no element builds none.  It then
checks all of its keys with one call of the system's key test, which
returns the index of the first key that is no element (it checks them per
chunk, in packed columns, and generates no code), steps them, chunk by
chunk, into one dict of each key's image, and walks every orbit once on
that dict, consuming it, keeping the orbit's least key (its lead), its
size and its keys joined into one sequence of entries; no element object
is built, and no representative until a report is written.  A partition
is its orbits' leads, sizes and joined entries, the orbits ordered by
lead, so every report is deterministic.  Cell sums are linear in the
support, so :func:`verdict` reads a statistic's orbit sums as the sum of
its positions' columns, resolved through the system's layout, each
column the totals of one key position over every orbit, summed from the
joined entries on its first read; it keeps them as integers, and the
verdict is `homomesic` exactly when every orbit average, compared by
cross-multiplying, equals the first.
:func:`cell_sum` and :func:`orbit_average` stay the definitions on
objects that the tests check the totals against, through the
:class:`OrbitSummary` views a report builds when they are read.

:func:`reports_to_json` and the command line's text format write reports
from those integers: each (sum, size) pair's average text is computed
once per write (:class:`AverageTexts`).  The JSON writer asks the system
for one representative per partition in a write, of the key of key
positions, and formats every orbit's entry from that template and the
orbit's lead; the text format prints no representative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import gcd
from operator import add, itemgetter, le, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .dynamics import OPERATORS, cycle, promotion_columns, straight_layout
from .errors import BudgetExceededError, PreconditionError
from .ktableaux import IncreasingTableau, increasing_labels, k_promotion_columns
from .posets import FinitePoset, LinearExtension, linear_extension_labels, rotate
from .shapes import (
    KEYS_PER_CHUNK,
    Tableau,
    check_partition,
    count_order_ideal_chains,
    count_ssyt,
    key_packer,
    ssyt_words_of_shape,
)


@dataclass(frozen=True)
class CellStatistic:
    """A named cell-sum statistic: the sum of entries over a support set."""

    support: frozenset
    name: str


def cell_sum(obj, support) -> int:
    """Sum of the entries of a tableau (by box) or of a labelled poset
    object (by element id, or by box when the poset is grid-embedded).

    Each support item counts once, so an element and its box both count.
    """
    if isinstance(obj, Tableau):
        return sum(obj.entry(*box) for box in support)
    if not isinstance(obj, (LinearExtension, IncreasingTableau)):
        raise PreconditionError(f"unsupported object for cell_sum: {type(obj).__name__}")
    total = 0
    for item in support:
        x = obj.poset.element_at(item) if isinstance(item, tuple) else item
        if not 1 <= x <= obj.poset.size:
            raise PreconditionError(f"element {x} outside the poset")
        total += obj.label(x)
    return total


def orbit_average(elements: Iterable, statistic: CellStatistic) -> Fraction:
    """Exact mean of the statistic over the orbit elements."""
    elements = list(elements)
    if not elements:
        raise PreconditionError("orbit average of an empty orbit")
    return Fraction(sum(cell_sum(x, statistic.support) for x in elements), len(elements))


# -- systems -------------------------------------------------------------------

# An element's entries, packed by its system's key packer: `bytes` when every
# entry fits in a byte, else a tuple of ints (see shapes.key_packer).
Key = bytes | tuple[int, ...]


class Rotation(NamedTuple):
    """A system's rotate involution rho on its key positions: `images[i]`
    is rho(i), and `item(i)` the box or poset element that position i
    names in statistic names."""

    images: Sequence[int]
    item: Callable[[int], object]


@dataclass(frozen=True)
class System:
    """A finite invertible dynamical system on flat keys, with the layout
    of its cells, described for reports.

    An element's key is its entries, packed by the system's key packer
    (`bytes` or `tuple`, see :func:`~promotab.shapes.key_packer`): a
    tableau's reading word or a poset labelling's labels.  `enumerate`
    yields every key, `step` takes a list of keys and returns the list of
    their images, in order (a column kernel: it packs each key position's
    column into one int and steps every key of the list at once),
    `admits` takes a list of keys and returns the index of the first one
    that fails the conditions of the element's constructor or has another
    type, or None
    (a :func:`~promotab.shapes.packed_test`: it checks the keys per chunk,
    in packed columns, and generates no code), and `representative` is
    what reports print for a key, in int tuples whatever the key type: a
    rearrangement of the key's entries, each entry once (a tableau's rows,
    top row first, or a poset labelling's labels), so that of the key
    ``tuple(range(length))`` names the key position of each printed slot.
    `position` is the key index of a support item (a box, or a poset
    element or its box), and refuses items the elements lack;
    `rotate` is the rotate involution rho on key positions, if any, which
    only the rotate-fixed supports read.  `count(cap)` is the number of
    elements when that is at most cap, and otherwise any number over cap,
    so a budget is refused before any key is enumerated.
    """

    description: str
    enumerate: Callable[[], Iterable[Key]]
    step: Callable[[Sequence[Key]], list[Key]]
    admits: Callable[[Sequence[Key]], int | None]
    representative: Callable[[Key], tuple]
    position: Callable[[object], int]
    rotate: Rotation | None
    count: Callable[[int], int]


def _is_box(outer: tuple[int, ...], box) -> bool:
    """Whether `box` is a (row, column) pair of ints naming a box of the
    straight shape `outer`."""
    return (
        isinstance(box, tuple)
        and len(box) == 2
        and all(isinstance(v, int) for v in box)
        and 1 <= box[0] <= len(outer)
        and 1 <= box[1] <= outer[box[0] - 1]
    )


def ssyt_system(shape, ceiling: int, operator: str = "promote") -> System:
    """Semistandard tableaux of a straight shape under (inverse) promotion.

    The enumeration reads the shape alone (:func:`~promotab.shapes.ssyt_words_of_shape`),
    a box's key index is computed per box, and a rectangle's rotate
    reverses the reading word, a lazy `range` of images, so the reading
    layout, the step and the key test are built on their first use: a
    system with no element, one whose first column is longer than the
    ceiling, builds none of them."""
    outer = check_partition(shape)
    if operator not in OPERATORS:
        raise PreconditionError(f"unknown operator {operator!r}")
    pack = key_packer(ceiling + 1)  # the key test appends ceiling + 1
    starts = list(accumulate(reversed(outer), initial=0))[::-1]  # each row's first key index, from row 1

    def position(box) -> int:
        if not _is_box(outer, box):
            raise PreconditionError(f"box {box} is not present in the tableau")
        return starts[box[0]] + box[1] - 1

    def step(words):
        return kernel(words)

    def first_step(words):  # builds the kernel that every later step calls
        nonlocal kernel
        kernel = promotion_columns(straight_layout(outer), ceiling, operator, pack)
        return kernel(words)

    kernel = first_step
    rotation = None
    if len(set(outer)) == 1:  # a rectangle's rotate reverses the word, which reads row m first
        m, n = len(outer), outer[0]
        rotation = Rotation(range(m * n - 1, -1, -1), lambda i: (m - i // n, i % n + 1))
    return System(
        description=f"ssyt(shape={','.join(map(str, outer))};k={ceiling};op={operator})",
        enumerate=lambda: ssyt_words_of_shape(outer, ceiling, pack),
        step=step,
        # no key is refused without building a test
        admits=lambda keys: straight_layout(outer).semistandard_keys_test(ceiling, pack)(keys) if keys else None,
        representative=lambda word: tuple(map(tuple, straight_layout(outer).rows(word))),
        position=position,
        rotate=rotation,
        count=lambda cap: count_ssyt(outer, ceiling),
    )


def _poset_layout(p: FinitePoset) -> dict:
    """The layout fields of a system whose keys are labels of p's elements."""
    def position(item) -> int:
        x = p.element_at(item) if isinstance(item, tuple) else item
        if not 1 <= x <= p.size:
            raise PreconditionError(f"element {x} outside the poset")
        return x - 1

    rotation = None
    if p.rotation:  # element x is at key position x - 1
        rot = rotate(p)
        rotation = Rotation(tuple(rot[x] - 1 for x in p.elements()), lambda i: i + 1)
    return dict(representative=tuple, position=position, rotate=rotation)


def syt_poset_system(p: FinitePoset) -> System:
    """Linear extensions of a poset under promotion, counted on the enumerator's state graph."""
    label = p.name or f"poset{p.size}"
    pack = key_packer(p.size)
    return System(
        description=f"syt_poset({label})",
        enumerate=lambda: linear_extension_labels(p, pack),
        step=k_promotion_columns(p, p.size, pack),
        admits=p.labelling_keys_test(p.size, pack),
        count=lambda cap: count_order_ideal_chains(p.size, p.covers, p.size, cap),
        **_poset_layout(p),
    )


def inc_system(p: FinitePoset, q: int) -> System:
    """Increasing tableaux of fixed deficiency under K-promotion.  A q out of
    range builds no key test (of |P| - q labels): its enumeration raises."""
    label = p.name or f"poset{p.size}"
    pack = key_packer(p.size)
    return System(
        description=f"inc({label};q={q})",
        enumerate=lambda: increasing_labels(p, q, pack),
        step=k_promotion_columns(p, p.size - q, pack),
        admits=p.labelling_keys_test(p.size - q, pack) if 0 <= q <= p.size else lambda keys: 0 if keys else None,
        count=lambda cap: count_order_ideal_chains(p.size, p.covers, p.size - q, cap),
        **_poset_layout(p),
    )


# -- orbit partitions ----------------------------------------------------------


@dataclass(frozen=True)
class OrbitPartition:
    """A system split into orbits, ordered by least key: `leads[i]` is the
    least key of orbit i, in increasing order, `sizes[i]` its size and
    `entries[i]` its keys joined, in walk order, into one sequence of
    ``sizes[i] * length`` entries (`bytes` on `bytes` keys, else an int
    tuple), so an orbit's total at key position p is the sum of
    ``entries[i][p::length]``.  `column(p)` is that total over every
    orbit, summed on its first read, and every statistic's orbit sums are
    sums of these columns.  Reports print an orbit as
    `system.representative` of its lead."""

    system: System
    leads: tuple[Key, ...]
    sizes: tuple[int, ...]
    entries: tuple[Key, ...]
    _columns: dict[int, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def length(self) -> int:
        """The number of key positions, 0 on a partition with no orbit."""
        return len(self.leads[0]) if self.leads else 0

    def column(self, p: int) -> tuple[int, ...]:
        """Each orbit's total at key position p, which must lie in
        0..length - 1: a p past the end would read the next key's entries."""
        column = self._columns.get(p)
        if column is None:
            length = self.length
            if not 0 <= p < length:
                raise PreconditionError(f"{self.system.description}: key position {p} outside 0..{length - 1}")
            column = self._columns[p] = tuple([sum(orbit[p::length]) for orbit in self.entries])
        return column

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Every key position's column, in position order."""
        return tuple(map(self.column, range(self.length)))


def partition_orbits(system: System, budget: int) -> OrbitPartition:
    """Enumerate the system and walk each of its orbits once, on keys.

    `budget` caps the number of elements: a system whose `count` exceeds
    it raises :class:`BudgetExceededError` before any key is enumerated,
    and `system.admits` is called once, on the list of enumerated keys,
    which it checks per chunk in packed columns; the first key it refuses
    is named in the error.  Then `system.step` is called on the keys in
    chunks of :data:`~promotab.shapes.KEYS_PER_CHUNK`, each key once, into
    `following`, one dict of each key's image, held as the enumerated key
    equal to it, so a key and its image are one object.  Each walk is a
    :func:`~promotab.dynamics.cycle` whose step is `following.pop`: it
    consumes the images of the keys it visits, so it may only visit keys
    that no walk has visited yet and ends within the element count.  An
    enumeration that yields a key the system does not admit, repeats one
    (the dict then holds fewer than `count` keys) or yields other than
    `count` keys, or a step that gives other than one image per key of a
    chunk, leaves the enumerated set or is not a bijection on it, raises
    :class:`PreconditionError` naming the system.
    A walk keeps its orbit's keys; once every orbit is walked, the key
    list and the dict are dropped, and each orbit's keys are joined into
    its `entries` (``b"".join`` on `bytes` keys, the chained entries on
    tuples), freeing them.  No element object is built, no support item
    is resolved and no column is summed: `verdict` sums the columns it
    reads, and reports print `system.representative` of an orbit's lead
    when they are written.
    """
    if budget < 1:
        raise PreconditionError(f"budget must be positive: {budget}")
    count = system.count(budget)
    if count > budget:
        raise BudgetExceededError(f"{system.description} exceeds the element budget {budget}")
    keys = list(islice(system.enumerate(), count + 1))
    refused = system.admits(keys)
    if refused is not None:
        raise PreconditionError(f"{system.description}: the enumeration yields {keys[refused]}, which is not an element")
    if len(keys) != count:
        raise PreconditionError(f"{system.description}: the enumeration does not yield its {count} elements")
    following: dict[Key, Key] = dict(zip(keys, keys))  # each key by itself, then by its image
    if len(following) != count:
        raise PreconditionError(f"{system.description}: the enumeration repeats an element")
    # each image as the enumerated key equal to it, so that a key and its image are one object
    images: list[Key] = []
    try:
        for start in range(0, count, KEYS_PER_CHUNK):
            chunk = keys[start : start + KEYS_PER_CHUNK]
            stepped = system.step(chunk)
            if len(stepped) != len(chunk):
                raise PreconditionError(f"{system.description}: the step gives {len(stepped)} images of {len(chunk)} keys")
            images += map(following.__getitem__, stepped)
    except KeyError:
        raise PreconditionError(f"{system.description}: the step map leaves the enumerated elements") from None
    following.update(zip(keys, images))  # until a walk consumes it
    del images
    orbits: dict[Key, list[Key]] = {}  # each orbit's keys by its lead
    for start in keys:
        if start in following:
            try:
                orb = list(cycle(start, following.pop))
            except KeyError:  # a key stepped to twice
                raise PreconditionError(
                    f"{system.description}: the step map is not a bijection on the enumerated elements"
                ) from None
            except PreconditionError as exc:
                raise PreconditionError(f"{system.description}: {exc}") from exc
            orbits[min(orb)] = orb
    join = b"".join if keys and type(keys[0]) is bytes else lambda orb: tuple(chain.from_iterable(orb))
    del keys, following  # the orbits hold every key
    leads = tuple(sorted(orbits))
    sizes = tuple([len(orbits[lead]) for lead in leads])
    entries = tuple([join(orbits.pop(lead)) for lead in leads])
    return OrbitPartition(system=system, leads=leads, sizes=sizes, entries=entries)


# -- verdicts ------------------------------------------------------------------


class OrbitSummary(NamedTuple):
    size: int
    average: Fraction
    representative: tuple


@dataclass(frozen=True)
class HomomesyReport:
    """One statistic's verdict over an orbit partition, kept as integers:
    `sums[i]` is the statistic's total over orbit i of `partition`, whose
    size is `partition.sizes[i]`, and `mismatch` is the first orbit whose
    average differs from orbit 0's, or None.  `orbits` and `witness` are
    :class:`OrbitSummary` views built from them when read, each with the
    representative of its orbit's lead.  Reports compare by their fields
    other than the partition."""

    system: str
    statistic: str
    verdict: str
    sums: tuple[int, ...]
    mismatch: int | None
    partition: OrbitPartition = field(repr=False, compare=False)

    @property
    def homomesic(self) -> bool:
        return self.verdict == "homomesic"

    def _summary(self, i: int) -> OrbitSummary:
        partition, size = self.partition, self.partition.sizes[i]
        representative = partition.system.representative(partition.leads[i])
        return OrbitSummary(size=size, average=Fraction(self.sums[i], size), representative=representative)

    @property
    def orbits(self) -> tuple[OrbitSummary, ...]:
        return tuple(map(self._summary, range(len(self.sums))))

    @property
    def witness(self) -> tuple[OrbitSummary, OrbitSummary] | None:
        return None if self.mismatch is None else (self._summary(0), self._summary(self.mismatch))

    @property
    def common_average(self) -> Fraction | None:
        return Fraction(self.sums[0], self.partition.sizes[0]) if self.homomesic and self.sums else None


def verdict(partition: OrbitPartition, statistic: CellStatistic) -> HomomesyReport:
    """Compare the exact orbit averages of one statistic over a partition.

    Cell sums are linear in the support, so the statistic's orbit sums
    are the element-wise sum of the partition's `column` at each of the
    support's key positions, which the system's `position` resolves (an
    empty partition never checks them); a column is summed once per
    partition, on its first read, so the other positions cost nothing.
    Each sum over its orbit's size is the mean of :func:`cell_sum` over
    the orbit; a position named twice, by an element and by its box,
    counts twice there too.  Averages are compared by cross-multiplying
    the integer sums and sizes, and the report keeps the sums: no
    :class:`Fraction` is built.
    """
    sizes = partition.sizes
    if sizes:
        picked = [partition.column(partition.system.position(item)) for item in statistic.support]
        sums = tuple(map(sum, zip(*picked))) if picked else (0,) * len(sizes)
    else:
        sums = ()
    mismatch = None
    if sums:
        # sums[j] / sizes[j] == sums[0] / sizes[0] for every j, cross-multiplied
        crossed = list(map(mul, sums, repeat(sizes[0])))
        scaled = list(map(mul, sizes, repeat(sums[0])))
        if crossed != scaled:
            mismatch = next(j for j, (a, b) in enumerate(zip(crossed, scaled)) if a != b)
    return HomomesyReport(
        system=partition.system.description,
        statistic=statistic.name,
        verdict="homomesic" if mismatch is None else "violated",
        sums=sums,
        mismatch=mismatch,
        partition=partition,
    )


# -- symmetric supports --------------------------------------------------------


def _rotation(system: System) -> Rotation:
    """The system's rotate involution, which symmetric supports need."""
    if system.rotate is None:
        raise PreconditionError(f"{system.description} has no rotate involution")
    return system.rotate


def _rotate_classes(system: System) -> list[tuple]:
    """The orbits of the system's rotate involution on its items, each
    sorted, ordered by their least item."""
    images, item = _rotation(system)
    return sorted(tuple(sorted({item(i), item(j)})) for i, j in enumerate(images) if i <= j)


def count_symmetric_subsets(system: System) -> int:
    """The number of statistics :func:`symmetric_subsets` yields,
    2^(number of rotate classes), from the rotate's images alone: a class
    is a position i with i <= rho(i)."""
    images = _rotation(system).images
    return 1 << sum(map(le, range(len(images)), images))


def symmetric_subsets(system: System) -> Iterator[CellStatistic]:
    """All statistics whose support is fixed by the system's rotate
    involution: 180-degree rotation of a rectangle's boxes, or a
    cominuscule poset's rotate map on its elements.

    Yields each of the 2^(number of rotate classes) subsets exactly once,
    smallest first, the classes ordered by their least item.
    """
    classes = _rotate_classes(system)
    tag = "cells" if classes and isinstance(classes[0][0], tuple) else "elements"
    for mask in range(1 << len(classes)):
        support = frozenset(x for i, cls in enumerate(classes) if mask >> i & 1 for x in cls)
        yield CellStatistic(support=support, name=f"{tag}:{sorted(support)}")


def fraction_str(f: Fraction) -> str:
    """Reduced fraction serialization with an explicit denominator."""
    return f"{f.numerator}/{f.denominator}"


def _json_list(items: Iterable, indent: str) -> str:
    """``json.dumps(indent=2)`` of a list whose items encode as
    ``str(item)``, with its closing bracket at `indent`."""
    inner = indent + "  "
    body = (",\n" + inner).join(map(str, items))
    return f"[\n{inner}{body}\n{indent}]" if body else "[]"


class AverageTexts(dict):
    """The text of each orbit average looked up by its (sum, size) pair:
    the reduced fraction sum/size as :func:`fraction_str` writes it,
    computed on the first lookup of the pair and read from the dict after.
    The JSON and text reports each fill one per write."""

    def __missing__(self, pair: tuple[int, int]) -> str:
        total, size = pair
        g = gcd(total, size)
        text = self[pair] = f"{total // g}/{size // g}"
        return text


def _fragments(partition: OrbitPartition, item: str, brace: str) -> list[str]:
    """Each orbit's JSON entry after its average's text: its
    representative and its size, with the orbit keys at indent `item` and
    the closing brace at `brace`.  The system's representative of the key
    of key positions, ``tuple(range(length))``, is the layout of every
    representative with each slot's key position; it must name each
    position exactly once, or :class:`PreconditionError` names the system.
    The layout's JSON with ``%d`` in each slot and in the size is a
    template that each orbit fills with its lead's entries in slot order
    and its size."""
    if not partition.leads:  # no probe: an SSYT system with no element builds no layout
        return []
    system, length = partition.system, partition.length
    probe = system.representative(tuple(range(length)))
    rows = bool(probe) and not isinstance(probe[0], int)  # a tableau's rows, or a poset's labels
    order = list(chain.from_iterable(probe)) if rows else list(probe)
    if len(order) != length or set(order) != set(range(length)):
        raise PreconditionError(f"{system.description}: the representative does not name each key position once")
    slots = [_json_list(["%d"] * len(row), item + "  ") for row in probe] if rows else ["%d"] * length
    template = f'",\n{item}"representative": {_json_list(slots, item)},\n{item}"size": %d\n{brace}}}'
    # a slice reads one position or none as a sequence too
    pick = itemgetter(*order) if length > 1 else itemgetter(slice(length))
    return [template % (*pick(lead), size) for lead, size in zip(partition.leads, partition.sizes)]


def reports_to_json(reports: Sequence[HomomesyReport]) -> str:
    """One report as a JSON object, any other number as a list, in the
    bytes of ``json.dumps(payload, sort_keys=True, indent=2)`` where a
    payload maps each report field to its value, orbits to dicts of their
    fields and averages to :func:`fraction_str`, and omits a null witness.

    Each orbit entry is written from the report's integers: the text of
    its (sum, size) pair, from one :class:`AverageTexts` for the whole
    write, then its orbit's fragment (its representative and its size,
    formatted from its lead by one template per partition), built once per
    partition in the write and shared by every report on it.  A witness
    repeats two entries of the report's orbit list.  No summary or
    :class:`Fraction` is built, and `representative` is called once per
    partition in the write, on the key of key positions."""
    if not reports:
        return "[]"
    pad = "  " if len(reports) > 1 else ""  # the reports' braces
    key, brace, item = pad + "  ", pad + "    ", pad + "      "  # report keys, orbit braces, orbit keys
    head = f'{{\n{item}"average": "'  # what each orbit entry writes before its average
    open_, sep, close = f"[\n{brace}{head}", f",\n{brace}{head}", f"\n{key}]"
    average = AverageTexts().__getitem__
    fragments: dict[int, list[str]] = {}  # by the id of a partition, which the reports keep alive
    out = ["[\n  "] if pad else []  # pieces of the text, joined once
    for i, r in enumerate(reports):
        tails = fragments.get(id(r.partition))
        if tails is None:
            tails = fragments[id(r.partition)] = _fragments(r.partition, item, brace)
        # each orbit entry is its average's text and its orbit's fragment
        entries = list(map(add, map(average, zip(r.sums, r.partition.sizes)), tails))
        out += [",\n  {\n" if i else "{\n", key, '"orbits": ']
        out += [open_, sep.join(entries), close] if entries else ["[]"]
        for name in ("statistic", "system", "verdict"):
            out.append(f',\n{key}"{name}": {json.dumps(getattr(r, name))}')
        if r.mismatch is not None:
            out.append(f',\n{key}"witness": {open_}{entries[0]}{sep}{entries[r.mismatch]}{close}')
        out.append(f"\n{pad}}}")
    if pad:
        out.append("\n]")
    return "".join(out)
