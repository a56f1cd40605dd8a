"""Labeled promotion paths and marker trajectories on standard rectangles.

Promotion of a standard tableau moves values northwest along a single
monotone path from the top-left to the bottom-right corner.  Tracking one
marker backwards through the orbit gives its trajectory; collecting the
values that slide into and out of a fixed box over a full period gives
the flow multisets and the interval decomposition of that box's period
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dynamics import evacuate, orbit_memo, promotion_period_words
from .errors import PreconditionError
from .shapes import Box, ReadingLayout, Tableau, enumerate_syt, validate


@dataclass(frozen=True)
class LabeledPath:
    """A lattice path through a rectangle together with the values read off it."""

    boxes: tuple[Box, ...]
    labels: tuple[int, ...]


@dataclass(frozen=True)
class FlowMultisets:
    """Values sliding into and out of one box over a full promotion period.

    ``inn`` holds arriving values after their decrement; ``out`` holds the
    values as they leave.  For the lower-right box ``inn`` is all-ceiling
    by convention (the refilled corner).
    """

    box: Box
    inn: tuple[int, ...]
    out: tuple[int, ...]


def _require_standard_rectangle(t: Tableau) -> tuple[int, int]:
    if not t.is_rectangular or not t.rows:
        raise PreconditionError("operation requires a nonempty rectangular straight shape")
    if t.ceiling != t.size or not validate(t, "standard"):
        raise PreconditionError("operation requires a standard tableau with ceiling = cell count")
    return len(t.outer), t.outer[0]


def promotion_path(t: Tableau) -> LabeledPath:
    """The slide path of promotion: start top-left, repeatedly step to the
    smaller of the boxes below and to the right, end bottom-right."""
    _require_standard_rectangle(t)
    return _path(t.rows)


def _path(rows: Sequence[Sequence[int]]) -> LabeledPath:
    """:func:`promotion_path` of the tableau with these rows, already
    known to be a standard rectangle."""
    m, n = len(rows), len(rows[0])
    r, c = 1, 1
    boxes = [(1, 1)]
    labels = [rows[0][0]]
    while (r, c) != (m, n):
        below = rows[r][c - 1] if r < m else None
        right = rows[r - 1][c] if c < n else None
        if below == right:
            raise RuntimeError(f"box ({r}, {c}) has equal neighbours; this indicates a bug in promote")
        if right is None or (below is not None and below < right):
            r += 1
        else:
            c += 1
        boxes.append((r, c))
        labels.append(rows[r - 1][c - 1])
    return LabeledPath(tuple(boxes), tuple(labels))


def apply_promotion_path(t: Tableau, path: LabeledPath) -> Tableau:
    """Rebuild the promotion from its path: delete the 1 at the start,
    shift the path values one step back, refill the end, decrement all."""
    m, n = _require_standard_rectangle(t)
    k = t.size
    grid = {box: v for box, v in t.items()}
    for i in range(1, len(path.boxes)):
        grid[path.boxes[i - 1]] = grid[path.boxes[i]]
    grid[path.boxes[-1]] = k + 1
    rows = tuple(tuple(grid[(r, c)] - 1 for c in range(1, n + 1)) for r in range(1, m + 1))
    return Tableau(rows, k)


def _progression(t: Tableau) -> list[LabeledPath]:
    """The promotion paths of t, P(t), ..., P^(k-1)(t), for a standard
    rectangle t; promotion keeps it one."""
    return _paths(*promotion_period_words(t))


def _paths(layout: ReadingLayout, words: Sequence[tuple[int, ...]]) -> list[LabeledPath]:
    """The promotion path of each reading word of a standard rectangle."""
    return [_path(layout.rows(word)) for word in words]


def trajectory(t: Tableau) -> LabeledPath:
    """Track the marker starting at the lower-right box through the orbit.

    Each promotion either leaves the marker in place or slides it one box
    up or left along that step's path; its label always drops by one.  The
    recorded labels are the marker's values as it slides out of each box,
    ending with label 1 at the top-left corner.
    """
    m, n = _require_standard_rectangle(t)
    marker: Box = (m, n)
    records: list[tuple[Box, int]] = []
    layout, words = promotion_period_words(t)
    for label, word in zip(range(t.entry(m, n), 1, -1), words):
        path = _path(layout.rows(word))
        if marker in path.boxes:
            idx = path.boxes.index(marker)
            if not idx:
                raise RuntimeError(
                    f"marker left the top-left corner with label {label}; this indicates a bug in promote"
                )
            records.append((marker, label))
            marker = path.boxes[idx - 1]
    if marker != (1, 1):
        raise RuntimeError(
            "marker did not reach the top-left corner; this indicates a bug in promote"
        )
    records.append(((1, 1), 1))
    boxes, labels = zip(*records)
    if len(boxes) != m + n - 1:
        raise RuntimeError(
            f"marker visited {len(boxes)} boxes, not {m + n - 1}; this indicates a bug in promote"
        )
    return LabeledPath(tuple(boxes), tuple(labels))


Events = dict[Box, tuple[list[tuple[int, int]], list[tuple[int, int]]]]


def _flow_events(t: Tableau, progression: Sequence[LabeledPath]) -> Events:
    """Per box of a standard rectangle t, from the promotion paths of its
    period: ((time, arriving value), ...), ((time, leaving value), ...)."""
    k = t.size
    events: Events = {box: ([], []) for box in t.boxes()}
    for time, path in enumerate(progression):
        for i, box in enumerate(path.boxes):
            ins, outs = events[box]
            outs.append((time, path.labels[i]))
            if i + 1 < len(path.boxes):
                ins.append((time, path.labels[i + 1] - 1))
            else:
                ins.append((time, k))  # the refilled lower-right corner
    return events


def _events(t: Tableau) -> Events:
    """:func:`_flow_events` of t's period, t a standard rectangle."""
    _require_standard_rectangle(t)
    return _flow_events(t, _progression(t))


def _multisets(box: Box, ins: list[tuple[int, int]], outs: list[tuple[int, int]]) -> FlowMultisets:
    return FlowMultisets(box=box, inn=tuple(sorted(v for _, v in ins)), out=tuple(sorted(v for _, v in outs)))


def _tables(events: Events) -> dict[Box, FlowMultisets]:
    return {box: _multisets(box, ins, outs) for box, (ins, outs) in events.items()}


def flow_tables(t: Tableau) -> dict[Box, FlowMultisets]:
    """The inn/out multisets of every box, from one orbit pass."""
    return _tables(_events(t))


def flow_multisets(t: Tableau, box: Box) -> FlowMultisets:
    """The inn/out multisets of one box over a full period."""
    return box_flows(t, (box,))[0][0]


Intervals = tuple[tuple[int, int], ...]


def _intervals(box: Box, ins: list[tuple[int, int]], outs: list[tuple[int, int]], k: int) -> Intervals:
    """:func:`interval_decomposition` of a box from its flow events over
    a period of length k."""
    intervals = []
    out_times = [time for time, _ in outs]
    for time, b in ins:
        later = [(ot - time - 1) % k for ot in out_times]
        j = later.index(min(later))
        a = outs[j][1]
        if a > b:
            raise RuntimeError(f"box {box} let value {b} leave as {a}; this indicates a bug in promote")
        intervals.append((a, b))
    return tuple(sorted(intervals))


def interval_decomposition(t: Tableau, box: Box) -> Intervals:
    """Partition the box's period values into intervals [a, b].

    Each arriving value b sits in the box decrementing until it leaves
    with some value a, contributing the interval [a, b]; arrivals pair
    with the cyclically next departure.  The interval tops are the inn
    multiset and the bottoms the out multiset.
    """
    return box_flows(t, (box,))[0][1]


def box_flows(t: Tableau, boxes: Sequence[Box]) -> list[tuple[FlowMultisets, Intervals]]:
    """:func:`flow_multisets` and :func:`interval_decomposition` of each
    box, in order, from one walk of t's period."""
    for box in boxes:
        if not t.has_box(*box):
            raise PreconditionError(f"box {box} is not in the shape")
    events = _events(t)
    return [(_multisets(box, *events[box]), _intervals(box, *events[box], t.size)) for box in boxes]


@dataclass(frozen=True)
class FlowInvarianceReport:
    """Outcome of the inn/out evacuation-invariance sweep on a rectangle."""

    rows: int
    cols: int
    tableaux_checked: int
    violations: tuple[tuple[Tableau, Box], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _period_flows(t: Tableau) -> tuple[list[tuple[int, ...]], dict[Box, FlowMultisets]]:
    """The reading words of t's promotion period and :func:`flow_tables`
    of t, from one walk."""
    _require_standard_rectangle(t)
    layout, words = promotion_period_words(t)
    return words, _tables(_flow_events(t, _paths(layout, words)))


def check_flow_invariance(m: int, n: int) -> FlowInvarianceReport:
    """Verify inn/out multisets agree for t and evacuate(t), all boxes.

    Each orbit's flow tables are read once: every tableau of an orbit, and
    every evacuation that lands in it, shares them.
    """
    violations = []
    checked = 0
    tables = orbit_memo(_period_flows)
    for t in enumerate_syt((n,) * m):
        checked += 1
        flows_t = tables(t)
        flows_e = tables(evacuate(t))
        for box in flows_t:
            if flows_t[box] != flows_e[box]:
                violations.append((t, box))
    return FlowInvarianceReport(m, n, checked, tuple(violations))
