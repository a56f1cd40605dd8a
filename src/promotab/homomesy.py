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
representatives are int tuples either way.
:func:`partition_orbits` counts it and enumerates it under an explicit
element budget, by the one walk of `shapes`, whose middle states keep
the completions below them, so a key is one join per path into such a
state; an SSYT system builds its reading layout, step and key test on
their first use, and one with no element builds none.  It then
checks all of its keys with one call of the system's key test, which
returns the index of the first key that is no element (it checks them per
chunk, in packed columns, and generates no code), and walks each orbit
once on keys, keeping the orbit's least key (its lead), its size and the
total of every entry over the orbit, laid out like the key; no element
object is built, and no representative until a report is written.
A system with a rotate involution rho, an order-reversing involution of
its cells given on key positions, walks only half of its orbits: the
mirror mu(key)[i] = c - key[rho(i)], with c the largest entry plus one (on
`bytes` keys one `translate` through a table of c - v), maps
elements to elements and conjugates promotion to its inverse
(mu . step . mu = step^-1; on SSYT rectangles mu is evacuation), so the
image mu(O) of a walked orbit O is an orbit of the same size whose
totals are |O| c - totals_O[rho(i)].  Each derived orbit is checked: it
must consist of |O| keys no walk has visited, and one step must take
mu(x_1) to mu(x_0); an orbit whose image was visited must be its own
image.  A partition is its orbits' leads and sizes and one column per
key position of every orbit's total there, the orbits ordered by lead,
so every report is deterministic.  Cell sums are linear in the support,
so :func:`verdict` reads a statistic's orbit sums as the sum of its
positions' columns, resolved through the system's layout, and keeps them
as integers; the verdict is `homomesic` exactly when every orbit
average, compared by cross-multiplying, equals the first.
:func:`cell_sum` and :func:`orbit_average` stay the definitions on
objects that the tests check the totals against, through the
:class:`OrbitSummary` views a report builds when they are read.

:func:`reports_to_json` and the command line's text format write reports
from those integers: each (sum, size) pair's average text is computed
once per write (:class:`AverageTexts`).  The JSON writer builds each
orbit's representative from its lead, with its size, once per partition
in a write; the text format prints none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import gcd
from operator import add, itemgetter, le, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .dynamics import OPERATORS, cycle, reading_word_step, straight_layout
from .errors import BudgetExceededError, PreconditionError
from .ktableaux import IncreasingTableau, increasing_labels, k_promote_step
from .posets import FinitePoset, LinearExtension, linear_extension_labels, poset_promote_labels, rotate
from .shapes import Tableau, check_partition, count_order_ideal_chains, count_ssyt, key_packer, ssyt_words_of_shape


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
    yields every key, `step` maps a key to the next one, `admits` takes a
    list of keys and returns the index of the first one that fails the
    conditions of the element's constructor or has another type, or None
    (a :func:`~promotab.shapes.packed_test`: it checks the keys per chunk,
    in packed columns, and generates no code), and `representative` is
    what reports print for a key, in int tuples whatever the key type.
    `position` is the key index of a support item (a box, or a poset
    element or its box), and refuses items the elements lack;
    `rotate` is the rotate involution rho on key positions, if any, and
    `complement` the constant c of the mirror mu(key)[i] = c - key[rho(i)]:
    the largest entry plus one, so that mu conjugates `step` to its
    inverse; the orbit walk reads rho as given and resolves no support
    item.  `count(cap)` is the number of elements when that is at most
    cap, and otherwise any number over cap, so a budget is refused before
    any key is enumerated.
    """

    description: str
    enumerate: Callable[[], Iterable[Key]]
    step: Callable[[Key], Key]
    admits: Callable[[Sequence[Key]], int | None]
    representative: Callable[[Key], tuple]
    position: Callable[[object], int]
    rotate: Rotation | None
    complement: int
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

    def step(word):
        return kernel(word)

    def first_step(word):  # builds the kernel that every later step calls
        nonlocal kernel
        kernel = reading_word_step(straight_layout(outer), ceiling, operator, pack)
        return kernel(word)

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
        complement=ceiling + 1,
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
        step=lambda labels: poset_promote_labels(p, labels, pack),
        admits=p.labelling_keys_test(p.size, pack),
        complement=p.size + 1,
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
        step=k_promote_step(p, p.size - q, pack),
        admits=p.labelling_keys_test(p.size - q, pack) if 0 <= q <= p.size else lambda keys: 0 if keys else None,
        complement=p.size - q + 1,
        count=lambda cap: count_order_ideal_chains(p.size, p.covers, p.size - q, cap),
        **_poset_layout(p),
    )


# -- orbit partitions ----------------------------------------------------------


@dataclass(frozen=True)
class OrbitPartition:
    """A system split into orbits, ordered by least key: `leads[i]` is the
    least key of orbit i, in increasing order, `sizes[i]` its size and
    `columns[p][i]` its total at key position p, so every statistic's
    orbit sums are sums of these columns.  Reports print an orbit as
    `system.representative` of its lead."""

    system: System
    leads: tuple[Key, ...]
    sizes: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]


def partition_orbits(system: System, budget: int) -> OrbitPartition:
    """Enumerate the system and walk each of its orbits once, on keys.

    `budget` caps the number of elements: a system whose `count` exceeds
    it raises :class:`BudgetExceededError` before any key is enumerated,
    and `system.admits` is called once, on the list of enumerated keys,
    which it checks per chunk in packed columns; the first key it refuses
    is named in the error.  Each walk is a
    :func:`~promotab.dynamics.cycle` that consumes one set of the
    enumerated keys, so it may only visit keys that no walk has visited
    yet and ends within the element count.  An enumeration that yields a
    key the system does not admit, repeats one or yields other than
    `count` keys, or a step map that leaves the enumerated set or is not
    a bijection on it, raises :class:`PreconditionError` naming the system.
    No element object is built, nor any representative: reports print
    `system.representative` of an orbit's lead when they are written.

    A system with a `rotate` walks each orbit O or its mirror mu(O), never
    both: mu(key)[i] = c - key[rho(i)], for c its `complement` and rho its
    rotate on key positions, read as given: no support item is resolved.
    On `bytes` keys mu is one `translate` through a table of c - v, of the
    reversed key when rho reverses the positions; on tuples it builds the
    tuple of c - v.  After walking O it
    derives mu(O): if mu(O) is unvisited, it must consume exactly |O|
    unvisited keys and the step of mu(x_1) must be mu(x_0), since
    mu . step . mu = step^-1; otherwise mu(O) must be O itself.  A mirror
    that fails either check, or a rotate that does not permute the key
    positions, raises :class:`PreconditionError` naming the system.
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
    unvisited = set(keys)
    if len(unvisited) != len(keys):
        raise PreconditionError(f"{system.description}: the enumeration repeats an element")
    # pick(key)[i] is key[rho(i)], and mirror(key) is mu(key), c - pick(key)
    pick, mirror = _mirror(system, keys[0]) if keys and system.rotate is not None else (None, None)
    c = system.complement
    unmirrored = f"{system.description}: the rotate complement maps an orbit onto no orbit"
    orbits: dict[Key, tuple[int, tuple[int, ...]]] = {}  # each orbit's size and totals by its lead
    for start in keys:
        if start in unvisited:
            try:
                orb = list(cycle(start, system.step, unvisited))
            except PreconditionError as exc:
                raise PreconditionError(f"{system.description}: {exc}") from exc
            size = len(orb)
            totals = tuple(map(sum, zip(*orb)))
            orbits[min(orb)] = size, totals
            if pick is None:
                continue
            image = list(map(mirror, orb))
            if image[0] in unvisited:
                before = len(unvisited)
                unvisited.difference_update(image)
                # image[j] is mu(x_j), and mu conjugates the step to its inverse
                if before - len(unvisited) != size or system.step(image[1 % size]) != image[0]:
                    raise PreconditionError(unmirrored)
                orbits[min(image)] = size, tuple([size * c - t for t in pick(totals)])
            elif set(image) != set(orb):  # an image already visited is the orbit itself
                raise PreconditionError(unmirrored)
    leads = tuple(sorted(orbits))
    sizes, totals = zip(*map(orbits.__getitem__, leads)) if leads else ((), ())
    return OrbitPartition(system=system, leads=leads, sizes=sizes, columns=tuple(zip(*totals)))


def _mirror(system: System, key: Key) -> tuple[Callable[[Sequence[int]], Sequence[int]], Callable[[Key], Key]]:
    """The getter pick of a sequence's entries at the rotate images of its
    positions, and the mirror mu(key) = c - pick(key) on keys of the type
    and length of `key`.  Entry i of pick(s) is s[rho(i)], rho being the
    system's rotate `images` as given, and c is the system's `complement`.
    On `bytes` keys mu is one translate through the table of c - v, of the
    reversed key when rho reverses the key positions (as on rectangles),
    or else of pick(key).  Images that do not permute the key's positions
    raise :class:`PreconditionError` naming the system."""
    length = len(key)
    images = list(system.rotate.images)
    if sorted(images) != list(range(length)):
        raise PreconditionError(f"{system.description}: the rotate involution does not permute the key positions")
    # a slice reads one position or none as a sequence too
    pick = itemgetter(*images) if length > 1 else itemgetter(slice(length))
    c = system.complement
    if type(key) is not bytes:
        return pick, lambda key: tuple([c - v for v in pick(key)])
    table = bytes([(c - v) % 256 for v in range(256)])  # exact at every entry of an element, 1..c - 1
    if images == list(range(length - 1, -1, -1)):
        return pick, lambda key: key[::-1].translate(table)
    return pick, lambda key: bytes(pick(key)).translate(table)


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
    are the element-wise sum of the partition's `columns` at the
    support's key positions, which the system's `position` resolves (an
    empty partition never checks them).  Each sum over its orbit's size
    is the mean of :func:`cell_sum` over the orbit; a position named
    twice, by an element and by its box, counts twice there too.  Averages
    are compared by cross-multiplying the integer sums and sizes, and the
    report keeps the sums: no :class:`Fraction` is built.
    """
    sizes = partition.sizes
    if sizes:
        picked = [partition.columns[partition.system.position(item)] for item in statistic.support]
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


def reports_to_json(reports: Sequence[HomomesyReport]) -> str:
    """One report as a JSON object, any other number as a list, in the
    bytes of ``json.dumps(payload, sort_keys=True, indent=2)`` where a
    payload maps each report field to its value, orbits to dicts of their
    fields and averages to :func:`fraction_str`, and omits a null witness.

    Each orbit entry is written from the report's integers: the text of
    its (sum, size) pair, from one :class:`AverageTexts` for the whole
    write, then its orbit's fragment (the representative of its lead,
    encoded from its int tuples, and its size), built once per partition
    in the write and shared by every report on it.  A witness repeats two
    entries of the report's orbit list.  No summary or :class:`Fraction`
    is built."""
    if not reports:
        return "[]"
    pad = "  " if len(reports) > 1 else ""  # the reports' braces
    key, brace, item = pad + "  ", pad + "    ", pad + "      "  # report keys, orbit braces, orbit keys
    head = f'{{\n{item}"average": "'  # what each orbit entry writes before its average
    open_, sep, close = f"[\n{brace}{head}", f",\n{brace}{head}", f"\n{key}]"
    average = AverageTexts().__getitem__
    fragments: dict[int, list[str]] = {}  # by the id of a partition, which the reports keep alive

    def fragment(rep: tuple, size: int) -> str:
        if rep and not isinstance(rep[0], int):
            rep = [_json_list(row, item + "  ") for row in rep]
        return f'",\n{item}"representative": {_json_list(rep, item)},\n{item}"size": {size}\n{brace}}}'

    out = ["[\n  "] if pad else []  # pieces of the text, joined once
    for i, r in enumerate(reports):
        tails = fragments.get(id(r.partition))
        if tails is None:
            p = r.partition
            tails = fragments[id(p)] = list(map(fragment, map(p.system.representative, p.leads), p.sizes))
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
