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

from .dynamics import evacuate, promotion_period
from .errors import PreconditionError
from .shapes import Box, Tableau, enumerate_syt, validate


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
    return _path(t)


def _path(t: Tableau) -> LabeledPath:
    """:func:`promotion_path` of a tableau already known to be a standard
    rectangle."""
    rows = t.rows
    m, n = len(rows), len(rows[0])
    r, c = 1, 1
    boxes = [(1, 1)]
    labels = [rows[0][0]]
    while (r, c) != (m, n):
        below = rows[r][c - 1] if r < m else None
        right = rows[r - 1][c] if c < n else None
        assert below != right, "standard tableaux have distinct entries"
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
    return [_path(x) for x in promotion_period(t)]


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
    for label, cur in zip(range(t.entry(m, n), 1, -1), promotion_period(t)):
        path = _path(cur)
        if marker in path.boxes:
            idx = path.boxes.index(marker)
            assert idx >= 1, "marker can only exit the top-left corner with label 1"
            records.append((marker, label))
            marker = path.boxes[idx - 1]
    if marker != (1, 1):
        raise RuntimeError(
            "marker did not reach the top-left corner; this indicates a bug in promote"
        )
    records.append(((1, 1), 1))
    boxes, labels = zip(*records)
    assert len(boxes) == m + n - 1
    return LabeledPath(tuple(boxes), tuple(labels))


def _flow_events(t: Tableau) -> dict[Box, tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """Per box: ((time, arriving value), ...), ((time, leaving value), ...)."""
    m, n = _require_standard_rectangle(t)
    k = t.size
    events: dict[Box, tuple[list, list]] = {box: ([], []) for box in t.boxes()}
    for time, path in enumerate(_progression(t)):
        for i, box in enumerate(path.boxes):
            ins, outs = events[box]
            outs.append((time, path.labels[i]))
            if i + 1 < len(path.boxes):
                ins.append((time, path.labels[i + 1] - 1))
            else:
                ins.append((time, k))  # the refilled lower-right corner
    return events


def flow_tables(t: Tableau) -> dict[Box, FlowMultisets]:
    """The inn/out multisets of every box, from one orbit pass."""
    return {
        box: FlowMultisets(
            box=box,
            inn=tuple(sorted(v for _, v in ins)),
            out=tuple(sorted(v for _, v in outs)),
        )
        for box, (ins, outs) in _flow_events(t).items()
    }


def flow_multisets(t: Tableau, box: Box) -> FlowMultisets:
    """The inn/out multisets of one box over a full period."""
    if not t.has_box(*box):
        raise PreconditionError(f"box {box} is not in the shape")
    return flow_tables(t)[box]


def interval_decomposition(t: Tableau, box: Box) -> tuple[tuple[int, int], ...]:
    """Partition the box's period values into intervals [a, b].

    Each arriving value b sits in the box decrementing until it leaves
    with some value a, contributing the interval [a, b]; arrivals pair
    with the cyclically next departure.  The interval tops are the inn
    multiset and the bottoms the out multiset.
    """
    if not t.has_box(*box):
        raise PreconditionError(f"box {box} is not in the shape")
    k = t.size
    ins, outs = _flow_events(t)[box]
    intervals = []
    out_times = [time for time, _ in outs]
    for time, b in ins:
        later = [(ot - time - 1) % k for ot in out_times]
        j = later.index(min(later))
        a = outs[j][1]
        assert a <= b, "a value can only decrement while it sits in a box"
        intervals.append((a, b))
    return tuple(sorted(intervals))


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


def check_flow_invariance(m: int, n: int) -> FlowInvarianceReport:
    """Verify inn/out multisets agree for t and evacuate(t), all boxes."""
    violations = []
    checked = 0
    for t in enumerate_syt((n,) * m):
        checked += 1
        flows_t = flow_tables(t)
        flows_e = flow_tables(evacuate(t))
        for box in flows_t:
            if flows_t[box] != flows_e[box]:
                violations.append((t, box))
    return FlowInvarianceReport(m, n, checked, tuple(violations))
