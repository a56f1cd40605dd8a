"""Cell-sum statistics, exact orbit averages, and homomesy verdicts.

A dynamical system here is any finite set with an invertible step map.
:func:`partition_orbits` enumerates it under an explicit element budget and
walks each orbit once, keeping the orbit's size, its canonical element and
the total of every entry over the orbit.  Cell sums are linear, so
:func:`verdict` reads any statistic's exact orbit averages from those
totals; the verdict is `homomesic` exactly when every orbit average equals
the first.  Orbits are ordered by their canonical representative, so every
report is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator

from .dynamics import cycle, lookup_operator
from .errors import BudgetExceededError, PreconditionError
from .ktableaux import IncreasingTableau, enumerate_increasing, k_promote
from .posets import FinitePoset, LinearExtension, linear_extensions, poset_promote, rotate
from .shapes import Tableau, check_partition, count_ssyt, enumerate_ssyt, part


@dataclass(frozen=True)
class CellStatistic:
    """A named cell-sum statistic: the sum of entries over a support set."""

    support: frozenset
    name: str


def _entries(obj) -> tuple[tuple[int, ...], Callable]:
    """The entries of obj as one flat tuple, and the map from a support
    item to its index in that tuple, which rejects items obj lacks."""
    if isinstance(obj, Tableau):

        def box_index(box) -> int:
            r, c = box
            if not obj.has_box(r, c):
                raise PreconditionError(f"box ({r}, {c}) is not present in the tableau")
            return sum(map(len, obj.rows[: r - 1])) + c - part(obj.inner, r) - 1

        return tuple(chain.from_iterable(obj.rows)), box_index
    if isinstance(obj, (LinearExtension, IncreasingTableau)):
        poset = obj.poset

        def element_index(item) -> int:
            if isinstance(item, tuple):
                item = poset.element_at(item)
            if not 1 <= item <= poset.size:
                raise PreconditionError(f"element {item} outside the poset")
            return item - 1

        return obj.labels, element_index
    raise PreconditionError(f"unsupported object for cell_sum: {type(obj).__name__}")


def cell_sum(obj, support) -> int:
    """Sum of the entries of a tableau (by box) or of a labelled poset
    object (by element id, or by box when the poset is grid-embedded).

    Each support item counts once, so an element and its box both count.
    """
    entries, index = _entries(obj)
    return sum(entries[index(item)] for item in support)


def orbit_average(elements: Iterable, statistic: CellStatistic) -> Fraction:
    """Exact mean of the statistic over the orbit elements."""
    elements = list(elements)
    if not elements:
        raise PreconditionError("orbit average of an empty orbit")
    return Fraction(sum(cell_sum(x, statistic.support) for x in elements), len(elements))


# -- systems -------------------------------------------------------------------


@dataclass(frozen=True)
class System:
    """A finite invertible dynamical system, described for reports.

    `count`, when known, is the exact number of elements, so a budget can
    be refused before anything is enumerated.
    """

    description: str
    enumerate: Callable[[], Iterator]
    step: Callable
    sort_key: Callable
    count: int | None = None


def ssyt_system(shape, ceiling: int, operator: str = "promote") -> System:
    """Semistandard tableaux of a straight shape under (inverse) promotion."""
    shape = check_partition(shape) if shape else ()
    step = lookup_operator(operator)
    return System(
        description=f"ssyt(shape={','.join(map(str, shape))};k={ceiling};op={operator})",
        enumerate=lambda: enumerate_ssyt(shape, ceiling),
        step=step,
        sort_key=lambda t: t.row_reading(),
        # a negative ceiling is left for the enumeration to reject
        count=count_ssyt(shape, ceiling) if ceiling >= 0 else None,
    )


def syt_poset_system(p: FinitePoset) -> System:
    """Linear extensions of a poset under promotion."""
    label = p.name or f"poset{p.size}"
    return System(
        description=f"syt_poset({label})",
        enumerate=lambda: linear_extensions(p),
        step=poset_promote,
        sort_key=lambda t: t.labels,
    )


def inc_system(p: FinitePoset, q: int) -> System:
    """Increasing tableaux of fixed deficiency under K-promotion."""
    label = p.name or f"poset{p.size}"
    return System(
        description=f"inc({label};q={q})",
        enumerate=lambda: enumerate_increasing(p, q),
        step=k_promote,
        sort_key=lambda t: t.labels,
    )


# -- orbit partitions ----------------------------------------------------------


@dataclass(frozen=True)
class OrbitTotals:
    """One orbit: its size, its canonical element (least sort key), and the
    total over the orbit of each entry, laid out like `lead`'s entries."""

    size: int
    lead: object
    totals: tuple[int, ...]


@dataclass(frozen=True)
class OrbitPartition:
    """A system split into orbits, ordered by canonical representative."""

    system: str
    orbits: tuple[OrbitTotals, ...]


def partition_orbits(system: System, budget: int) -> OrbitPartition:
    """Enumerate the system and walk each of its orbits once.

    `budget` caps the number of enumerated elements; exceeding it raises
    :class:`BudgetExceededError` rather than returning a partial answer,
    before enumerating when the system knows its exact count.
    Each walk is a :func:`~promotab.dynamics.cycle` that may only visit
    enumerated elements that no walk has visited yet, so it ends within
    the element count.  A step map that leaves the enumerated set or is
    not a bijection on it, or an enumeration that repeats an element,
    raises :class:`PreconditionError` naming the system.
    """
    if budget < 1:
        raise PreconditionError(f"budget must be positive: {budget}")
    over_budget = f"{system.description} exceeds the element budget {budget}"
    if system.count is not None and system.count > budget:
        raise BudgetExceededError(over_budget)
    elements = []
    for x in system.enumerate():
        elements.append(x)
        if len(elements) > budget:
            raise BudgetExceededError(over_budget)
    key = system.sort_key
    unvisited = {key(x) for x in elements}
    if len(unvisited) != len(elements):
        raise PreconditionError(f"{system.description}: the enumeration repeats an element")
    orbits: dict[tuple, OrbitTotals] = {}
    for start in elements:
        if key(start) not in unvisited:
            continue
        orb, keys = [], []
        try:
            for cur in cycle(start, system.step):
                k = key(cur)
                if k not in unvisited:
                    raise PreconditionError("the step map is not a bijection on the enumerated elements")
                unvisited.remove(k)
                orb.append(cur)
                keys.append(k)
        except PreconditionError as exc:
            raise PreconditionError(f"{system.description}: {exc}") from exc
        lead = min(range(len(orb)), key=keys.__getitem__)
        totals = tuple(map(sum, zip(*(_entries(y)[0] for y in orb))))
        orbits[keys[lead]] = OrbitTotals(size=len(orb), lead=orb[lead], totals=totals)
    return OrbitPartition(system=system.description, orbits=tuple(orbits[k] for k in sorted(orbits)))


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSummary:
    size: int
    average: Fraction
    representative: tuple


@dataclass(frozen=True)
class HomomesyReport:
    system: str
    statistic: str
    orbits: tuple[OrbitSummary, ...]
    verdict: str
    witness: tuple[OrbitSummary, OrbitSummary] | None

    @property
    def homomesic(self) -> bool:
        return self.verdict == "homomesic"

    @property
    def common_average(self) -> Fraction | None:
        return self.orbits[0].average if self.homomesic and self.orbits else None


def _representative(obj) -> tuple:
    if isinstance(obj, Tableau):
        return tuple(obj.rows)
    return tuple(obj.labels)


def verdict(partition: OrbitPartition, statistic: CellStatistic) -> HomomesyReport:
    """Compare the exact orbit averages of one statistic over a partition.

    All elements of a system share one shape or one poset, and
    :func:`partition_orbits` lays out every orbit's totals like its lead's
    entries, so the support is resolved to entry positions once, against
    the first lead (an empty partition never checks it).  Each average is
    the sum of those positions' orbit totals over the orbit size, which
    equals the mean of :func:`cell_sum` over the orbit; a position named
    twice, by an element and by its box, counts twice there too.
    """
    positions = []
    if partition.orbits:
        index = _entries(partition.orbits[0].lead)[1]
        positions = [index(item) for item in statistic.support]
    summaries = [
        OrbitSummary(
            size=o.size,
            average=Fraction(sum(o.totals[i] for i in positions), o.size),
            representative=_representative(o.lead),
        )
        for o in partition.orbits
    ]
    outcome = "homomesic"
    witness = None
    for summary in summaries[1:]:
        if summary.average != summaries[0].average:
            outcome = "violated"
            witness = (summaries[0], summary)
            break
    return HomomesyReport(
        system=partition.system,
        statistic=statistic.name,
        orbits=tuple(summaries),
        verdict=outcome,
        witness=witness,
    )


# -- symmetric supports --------------------------------------------------------


def symmetric_subsets(shape_or_poset) -> Iterator[CellStatistic]:
    """All statistics whose support is fixed by the rotate involution.

    For an (m, n) pair this is 180-degree rotation on the rectangle's
    boxes; for a cominuscule poset it is its rotate map.  Yields each of
    the 2^(number of rotate orbits) subsets exactly once, smallest first.
    """
    if isinstance(shape_or_poset, FinitePoset):
        rot = rotate(shape_or_poset)
        points = list(shape_or_poset.elements())
        mapping = rot
        tag = "elements"
    else:
        m, n = shape_or_poset
        points = [(r, c) for r in range(1, m + 1) for c in range(1, n + 1)]
        mapping = {(r, c): (m + 1 - r, n + 1 - c) for r, c in points}
        tag = "cells"
    classes: list[tuple] = []
    seen = set()
    for x in points:
        if x in seen:
            continue
        cls = {x, mapping[x]}
        seen |= cls
        classes.append(tuple(sorted(cls)))
    for mask in range(1 << len(classes)):
        support = frozenset(x for i, cls in enumerate(classes) if mask >> i & 1 for x in cls)
        yield CellStatistic(support=support, name=f"{tag}:{sorted(support)}")


def fraction_str(f: Fraction) -> str:
    """Reduced fraction serialization with an explicit denominator."""
    return f"{f.numerator}/{f.denominator}"


def report_to_jsonable(report: HomomesyReport) -> dict:
    out = {
        "system": report.system,
        "statistic": report.statistic,
        "orbits": [
            {
                "size": o.size,
                "average": fraction_str(o.average),
                "representative": o.representative,
            }
            for o in report.orbits
        ],
        "verdict": report.verdict,
    }
    if report.witness is not None:
        out["witness"] = [
            {"size": o.size, "average": fraction_str(o.average), "representative": o.representative}
            for o in report.witness
        ]
    return out


def report_to_json(report: HomomesyReport) -> str:
    return json.dumps(report_to_jsonable(report), sort_keys=True, indent=2)
