"""Shared helpers and independent brute-force oracles for the test suite."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from operator import itemgetter

from promotab import shapes
from promotab.dynamics import cycle, evacuate, promote, rectify
from promotab.errors import ParseError, PreconditionError
from promotab.growth import DisInvarianceReport
from promotab.homomesy import HomomesyReport, OrbitSummary, fraction_str
from promotab.ktableaux import BULLET, IncreasingTableau, switch
from promotab.posets import FinitePoset, LinearExtension
from promotab.paths import LabeledPath, promotion_path
from promotab.shapes import ReadingLayout, Tableau, enumerate_ssyt


def partitions_of(n: int):
    """All partitions of exactly n (weakly decreasing tuples)."""

    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def partitions_up_to(n: int):
    for m in range(1, n + 1):
        yield from partitions_of(m)


def rectangles_up_to(area: int):
    for m in range(1, area + 1):
        for n in range(1, area // m + 1):
            yield m, n


def key_of(obj) -> tuple[int, ...]:
    """A homomesy system's key for an element: a tableau's reading word
    (bottom row first), a labelled poset object's labels."""
    return obj.row_reading() if isinstance(obj, Tableau) else obj.labels


def element_of(system, key, kind, over):
    """The object that one of a homomesy system's keys stands for, built
    with the validating constructor `kind`: a `Tableau` of the key's rows
    with ceiling `over`, or a `LinearExtension` or `IncreasingTableau` of
    the poset `over` labelled by the key."""
    if kind is Tableau:
        return Tableau(system.representative(key), over)
    return kind(over, key)


def tuple_keyed(system):
    """The oracle of a homomesy system on tuple keys: its own enumeration
    and step, each key converted with `tuple`, and its step and key test
    on the keys converted back to the system's packer, one call for a
    list of keys as the system's own, so a partition of it walks the same
    orbits on tuples."""
    pack = type(next(iter(system.enumerate()), ()))
    return replace(
        system,
        enumerate=lambda: map(tuple, system.enumerate()),
        step=lambda keys: list(map(tuple, system.step(list(map(pack, keys))))),
        admits=lambda keys: system.admits(list(map(pack, keys))),
    )


def as_tuples(partition) -> tuple:
    """A partition's leads, as int tuples, its sizes and its columns."""
    return tuple(map(tuple, partition.leads)), partition.sizes, partition.columns


def orbit_walks(system, size: int) -> list[list]:
    """A homomesy system's orbits, found by following each enumerated key's
    image, from one step of the list of all of them, until it returns
    (each walk at most `size` keys), as lists of keys ordered by their
    least key."""
    keys = list(system.enumerate())
    following = dict(zip(keys, system.step(keys)))
    walks, seen = [], set()
    for key in keys:
        if key not in seen:
            walk = [key]
            while (image := following[walk[-1]]) != key:
                walk.append(image)
                assert len(walk) <= size
            seen.update(walk)
            walks.append(walk)
    walks.sort(key=min)
    return walks


def walked_partition(system, size: int = 100_000) -> tuple:
    """The partition that :func:`orbit_walks` finds, as :func:`as_tuples`
    gives a partition: each orbit's least key, as an int tuple, its size
    and the totals of its keys at each key position."""
    walks = orbit_walks(system, size)
    totals = [tuple(map(sum, zip(*walk))) for walk in walks]
    return tuple(tuple(min(walk)) for walk in walks), tuple(map(len, walks)), tuple(zip(*totals))


def report_to_jsonable(report: HomomesyReport) -> dict:
    """Definition: the payload whose ``json.dumps(sort_keys=True,
    indent=2)`` `homomesy.reports_to_json` writes for one report."""

    def entry(o: OrbitSummary) -> dict:
        return {"size": o.size, "average": fraction_str(o.average), "representative": o.representative}

    out = {
        "system": report.system,
        "statistic": report.statistic,
        "orbits": [entry(o) for o in report.orbits],
        "verdict": report.verdict,
    }
    if report.witness is not None:
        out["witness"] = [entry(o) for o in report.witness]
    return out


def random_ssyt(shape, ceiling, rng):
    """A random (not uniform) semistandard filling, built row-major.

    Each entry is capped so the strictly increasing column below it can
    still be completed within the ceiling, so generation never dead-ends.
    """
    from promotab.shapes import Tableau, conjugate

    heights = conjugate(tuple(shape))
    if heights and heights[0] > ceiling:
        raise ValueError("shape too deep for the ceiling")
    rows = []
    for r, length in enumerate(shape):
        row = []
        for c in range(length):
            lo = 1
            if c > 0:
                lo = max(lo, row[c - 1])
            if r > 0:
                lo = max(lo, rows[r - 1][c] + 1)
            hi = ceiling - (heights[c] - r - 1)
            row.append(rng.randint(lo, hi))
        rows.append(row)
    return Tableau(rows, ceiling)


def count_ssyt_by_fractions(shape, ceiling: int) -> int:
    """Oracle of `promotab.shapes.count_ssyt`: the hook content formula as
    a running product of the fractions (ceiling + c - r) / h, one per cell."""
    total = Fraction(1)
    for (r, c), h in shapes.hook_lengths(shape).items():
        total *= Fraction(ceiling + c - r, h)
        if total == 0:
            return 0
    if total.denominator != 1:
        raise RuntimeError(f"hook content product {total} is not an integer")
    return int(total)


def brute_linear_extension_count(p: FinitePoset) -> int:
    """Oracle: filter all d! label bijections."""
    count = 0
    for perm in permutations(range(1, p.size + 1)):
        if all(perm[x - 1] < perm[y - 1] for x, y in p.covers):
            count += 1
    return count


def strict_order(p: FinitePoset) -> set[tuple[int, int]]:
    """Oracle: every pair (x, y) with x < y, closing the covers under
    transitivity (Warshall's algorithm over the elements)."""
    below = {(x, y) for x, y in p.covers}
    for z in p.elements():
        below |= {(x, y) for x, w in below if w == z for v, y in below if v == z}
    return below


def brute_increasing_count(p: FinitePoset, q: int) -> int:
    """Oracle: filter all label assignments onto 1..(|P|-q)."""
    d = p.size - q
    if d < 0:
        return 0
    if p.size == 0:
        return 1 if q == 0 else 0
    if d == 0:
        return 0
    count = 0
    for labels in product(range(1, d + 1), repeat=p.size):
        if set(labels) != set(range(1, d + 1)):
            continue
        if all(labels[x - 1] < labels[y - 1] for x, y in p.covers):
            count += 1
    return count


# -- step maps by their one-step definitions -------------------------------
#
# The library's step maps work on plain rows or label lists and build one
# validated object at the end, and its enumerations keep their minimal
# elements up to date.  Here are the same maps as chains of the public
# one-step definitions, each step a validated object, and the enumerations
# by rescanning; the tests compare the two.


def chain(step, t, indices, memo: dict):
    """t after step(., i) for each i of indices in turn.

    step must be pure: each (state, i) result is kept in memo, so a sweep
    over many elements calls step once per distinct pair.
    """
    for i in indices:
        key = (t, i)
        if key not in memo:
            memo[key] = step(t, i)
        t = memo[key]
    return t


def sweep(step, t, j: int, memo: dict):
    """t after step(., 1), ..., step(., j): the sweep to j - 1, then
    step(., j).  Promotion is the sweep to k - 1.

    Each single step is kept in memo as by :func:`chain`, and each sweep
    under the key ("sweep", state, j).
    """
    if j <= 0:
        return t
    key = ("sweep", t, j)
    if key not in memo:
        memo[key] = chain(step, sweep(step, t, j - 1, memo), (j,), memo)
    return memo[key]


def triangular_chain(step, t, k: int, memo: dict):
    """Evacuation: t after the sweeps to k - 1, k - 2, ..., 1 in turn."""
    for j in range(k - 1, 0, -1):
        t = sweep(step, t, j, memo)
    return t


def descending(k: int) -> range:
    """Step indices of inverse promotion with ceiling (or size) k."""
    return range(k - 1, 0, -1)


def dual_triangular(k: int) -> list[int]:
    """Step indices of dual evacuation: k-1 down to lo, for lo = 1 .. k-1."""
    return [i for lo in range(1, k) for i in range(k - 1, lo - 1, -1)]


def promote_by_rectify(t: Tableau) -> Tableau:
    """Promotion by definition: delete the 1s, rectify the skew tableau
    with jeu de taquin slides, decrement, refill with the ceiling."""
    k = t.ceiling
    ones = sum(1 for v in t.rows[0] if v == 1) if t.rows else 0
    if ones == 0:
        return Tableau(tuple(tuple(v - 1 for v in row) for row in t.rows), k)
    rect = rectify(Tableau((t.rows[0][ones:],) + t.rows[1:], k, (ones,)))
    new_rows = []
    for r in range(1, len(t.outer) + 1):
        base = rect.rows[r - 1] if r <= len(rect.rows) else ()
        new_rows.append(tuple(v - 1 for v in base) + (k,) * (t.outer[r - 1] - len(base)))
    return Tableau(new_rows, k)


def partial_promote_by_definition(t: Tableau, i: int) -> Tableau:
    """Partial promotion by definition: promote the sub-tableau of the
    entries <= i, as a validated tableau, and write it back.

    It calls the library's `promote`, which the tests check against
    :func:`promote_by_rectify` on every tableau such a sub-tableau can be.
    """
    sub_rows = [tuple(v for v in row if v <= i) for row in t.rows]
    while sub_rows and not sub_rows[-1]:
        sub_rows.pop()
    promoted = promote(Tableau(sub_rows, i)).rows
    promoted += ((),) * (len(t.rows) - len(promoted))
    return Tableau([base + row[len(base):] for base, row in zip(promoted, t.rows)], t.ceiling)


# -- promotion periods as tableaux -------------------------------------------
#
# The growth and paths sweeps read promotion periods as reading words.
# Here are the same sweeps on objects: each period is walked with
# `promote` from tableau to tableau, and each box is read with
# `Tableau.entry`.  A memo keeps each tableau's promotion, promotion path
# and period multisets, so a sweep over a shape promotes each tableau once.


def promotion_period_by_objects(t: Tableau, memo: dict) -> list[Tableau]:
    """t, P(t), ... over one full promotion period: the ceiling on
    rectangles, the orbit elsewhere."""

    def step(x):
        if ("promote", x) not in memo:
            memo["promote", x] = promote(x)
        return memo["promote", x]

    elements = list(cycle(t, step))
    if not t.is_rectangular:
        return elements
    repeats, rest = divmod(t.ceiling, len(elements))
    assert not rest, "the orbit of a rectangle divides the ceiling"
    return elements * repeats


def period_values_by_objects(t: Tableau, memo: dict) -> dict:
    """Each box of t, to the Counter of its values over t's period.

    The period of a promotion of t is a rotation of t's, so every tableau
    of the orbit gets the same Counters.
    """
    if ("values", t) not in memo:
        period = promotion_period_by_objects(t, memo)
        values = {box: Counter(u.entry(*box) for u in period) for box in t.boxes()}
        memo.update((("values", u), values) for u in period)
    return memo["values", t]


def check_dis_invariance_by_objects(shape, ceiling: int, memo: dict, evacuation=evacuate) -> DisInvarianceReport:
    """Oracle of `promotab.growth.check_dis_invariance`, with `evacuation`
    in place of `evacuate`."""
    violations = []
    checked = 0
    for t in enumerate_ssyt(shape, ceiling):
        checked += 1
        values_t = period_values_by_objects(t, memo)
        values_e = period_values_by_objects(evacuation(t), memo)
        for box in t.boxes():
            if values_t[box] != values_e[box]:
                violations.append((t, box))
    return DisInvarianceReport(tuple(shape), ceiling, checked, tuple(violations))


def progression_by_objects(t: Tableau, memo: dict) -> list[LabeledPath]:
    """Oracle of `promotab.paths._progression`: the promotion paths of
    the period of a standard rectangle."""
    period = promotion_period_by_objects(t, memo)
    for x in period:
        if ("path", x) not in memo:
            memo["path", x] = promotion_path(x)
    return [memo["path", x] for x in period]


def trajectory_by_objects(t: Tableau, memo: dict) -> LabeledPath:
    """Oracle of `promotab.paths.trajectory`: the marker at the lower
    right box, moved back along each path of the progression it is on."""
    m, n = len(t.rows), len(t.rows[0])
    marker, records = (m, n), []
    for label, path in zip(range(t.entry(m, n), 1, -1), progression_by_objects(t, memo)):
        if marker in path.boxes:
            records.append((marker, label))
            marker = path.boxes[path.boxes.index(marker) - 1]
    records.append(((1, 1), 1))
    boxes, labels = zip(*records)
    return LabeledPath(boxes, labels)


def k_promote_by_switches(t: IncreasingTableau) -> IncreasingTableau:
    """K-promotion as the chain switch(., i, bullet) for i = 2 .. d."""
    d = t.d
    state = tuple(BULLET if v == 1 else v for v in t.labels)
    for i in range(2, d + 1):
        state = switch(state, i, BULLET, t.poset)
    return IncreasingTableau(t.poset, tuple(d if v == BULLET else v - 1 for v in state))


def k_promote_inverse_by_switches(t: IncreasingTableau) -> IncreasingTableau:
    """Inverse K-promotion as the chain switch(., i, bullet) for i = d .. 2."""
    d = t.d
    state = tuple(BULLET if v == d else v + 1 for v in t.labels)
    for i in range(d, 1, -1):
        state = switch(state, i, BULLET, t.poset)
    return IncreasingTableau(t.poset, tuple(1 if v == BULLET else v for v in state))


def minimal_of(p: FinitePoset, subset) -> list[int]:
    """The minimal elements of a subset of p's elements, in increasing order."""
    subset = set(subset)
    return sorted(x for x in subset if not any(d in subset for d in p.lower_covers(x)))


def enumerate_increasing_by_rescan(p: FinitePoset, q: int):
    """Increasing tableaux of deficiency q, finding the minimal elements of
    the unplaced set afresh at every step with :func:`minimal_of`."""
    d = p.size - q
    if p.size == 0:
        if q == 0:
            yield IncreasingTableau(p, ())
        return
    if d == 0:
        return
    labels = [0] * p.size

    def grow(step, placed):
        remaining = p.size - len(placed)
        steps_left = d - step + 1
        if remaining < steps_left:
            return
        if steps_left == 0:
            if remaining == 0:
                yield IncreasingTableau(p, labels)
            return
        ready = minimal_of(p, (x for x in p.elements() if x not in placed))
        for mask in range(1, 1 << len(ready)):
            chosen = [ready[i] for i in range(len(ready)) if mask >> i & 1]
            for x in chosen:
                labels[x - 1] = step
            yield from grow(step + 1, placed | frozenset(chosen))
            for x in chosen:
                labels[x - 1] = 0

    yield from grow(1, frozenset())


def linear_extensions_by_rescan(p: FinitePoset):
    """Linear extensions, labelling in turn each unplaced element whose
    lower covers are all placed, found by scanning every element."""
    labels = [0] * p.size
    placed: set[int] = set()

    def extend(next_label):
        if next_label > p.size:
            yield LinearExtension(p, labels)
            return
        for x in p.elements():
            if x not in placed and all(d in placed for d in p.lower_covers(x)):
                labels[x - 1] = next_label
                placed.add(x)
                yield from extend(next_label + 1)
                placed.discard(x)
                labels[x - 1] = 0

    yield from extend(1)


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


def parse_poset(text: str) -> FinitePoset:
    """Oracle: read back the text of `promotab.posets.format_poset`, an
    `elements=d` line and then one `x<y` cover per line."""
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


def unpruned_ssyt_words(layout: ReadingLayout, ceiling: int):
    """Oracle: the SSYT reading-word loop that tries every value up to the
    ceiling in every cell, dead ends included."""
    n = layout.size
    if not n:
        yield ()
        return
    fill = layout.fill
    left = [layout.west[j] for j in fill]
    above = [layout.north[j] for j in fill]
    values = [0] * (n + 1)
    i, v = 0, 1
    while True:
        if v <= ceiling:
            values[fill[i]] = v
            if i + 1 < n:
                i += 1
                v = max(values[left[i]], values[above[i]] + 1)
            else:
                yield tuple(values[:n])
                v += 1
        elif i:
            i -= 1
            v = values[fill[i]] + 1
        else:
            return


def ssyt_words_by_cells(layout: ReadingLayout, ceiling: int, pack=tuple):
    """Order oracle of `promotab.shapes.ssyt_words`: the same words in the
    same order, each packed by `pack`, by a search that fills one cell at
    a time instead of walking a graph of rows.

    Cells are filled row by row, left to right, trying smaller values
    first and backing up to the previous cell when one has no value left;
    each value is written at the cell's index in the reading word.  A cell
    takes at most the ceiling minus the number of cells under it, the rows
    below that reach its column, so no branch is a dead end.
    """
    if ceiling < 0:
        raise PreconditionError(f"ceiling must be nonnegative: {ceiling}")
    n = layout.size
    if not n:
        yield pack()
        return
    outer, inner = layout.outer, layout.inner
    cells = [(r, c) for r, length in enumerate(outer, start=1) for c in range(shapes.part(inner, r) + 1, length + 1)]
    caps = [ceiling - sum(length >= c for length in outer[r:]) for r, c in cells]
    if min(caps) < 1:  # a column longer than the ceiling
        return
    fill = layout.fill
    left = [layout.west[j] for j in fill]  # by cell in row-major order
    above = [layout.north[j] for j in fill]
    values = [0] * (n + 1)  # a missing neighbour's index, -1, reads the last value, which stays 0
    i, v = 0, 1  # the cell being filled, in row-major order, and the value to try in it
    while True:
        if v <= caps[i]:
            values[fill[i]] = v
            if i + 1 < n:
                i += 1
                v = max(values[left[i]], values[above[i]] + 1)
            else:
                yield pack(values[:n])
                v += 1
        elif i:
            i -= 1
            v = values[fill[i]] + 1
        else:
            return


def order_ideal_chains_by_stack(size, covers, d):
    """Order oracle of `promotab.shapes.order_ideal_chains`: the same
    labellings in the same order, by a stack search that recomputes each
    label's antichains along every branch instead of walking a state graph.

    Every strictly order-preserving surjection onto 1..d from the poset
    on 1..size with covers (x, y), y covering x, as the labels of 1..size.

    Label j goes on a nonempty antichain of the minimal elements of what
    remains.  The minimal elements of what remains are kept as a sorted
    list, from the number of unplaced lower covers of each element, and
    antichains are tried in increasing bitmask order over that list.  No
    branch is a dead end: each antichain leaves an element for every later
    label and takes every element whose longest chain upward needs all the
    labels left.  A stack holds the search state of each label but the
    last, which takes every element left.
    """
    up = [[] for _ in range(size + 1)]
    waiting = [0] * (size + 1)
    for x, y in covers:
        up[x].append(y)
        waiting[y] += 1
    ready = [x for x in range(1, size + 1) if not waiting[x]]
    order, pending = ready[:], waiting[:]  # Kahn's topological order
    for x in order:
        for y in up[x]:
            pending[y] -= 1
            if not pending[y]:
                order.append(y)
    latest = [d] * (size + 1)  # the largest label each element can take
    for x in reversed(order):
        latest[x] = min((latest[y] for y in up[x]), default=d + 1) - 1
    if any(latest[x] < 1 for x in order):
        return  # a chain longer than d
    if d < 1:
        yield ()  # the empty poset, with no labels
        return
    labels = [0] * size
    antichains = {}
    stack = []  # per label but the last: [ready, elements left, antichains, next one, antichain held]
    rest, remaining = ready, size  # the ready elements and the count left for the next label
    while True:
        label = len(stack) + 1
        if label < d:
            ready, n = sorted(rest), len(rest)
            most = min(remaining - d + label, n)  # each later label needs an element
            # with one element to place, an element that must take this label is the only one ready
            forced = sum(1 << i for i, x in enumerate(ready) if latest[x] == label) if most > 1 else 0
            picks = antichains.get((n, most, forced))
            if picks is None:
                picks = antichains[n, most, forced] = [
                    (mask, tuple(i for i in range(n) if mask >> i & 1))
                    for mask in range(1, 1 << n)
                    if mask.bit_count() <= most and mask & forced == forced
                ]
            stack.append([ready, remaining, picks, 0, ()])
        elif len(rest) == remaining > 0:  # the last label takes every element left
            for x in rest:
                labels[x - 1] = d
            yield tuple(labels)
        while stack:  # undo the antichain each label holds until one has another to try
            top = stack[-1]
            ready, remaining, picks, t, held = top
            for x in held:
                for y in up[x]:
                    waiting[y] += 1
            if t < len(picks):
                break
            stack.pop()
        else:
            return
        mask, picked = picks[t]
        if len(picked) == 1:
            i = picked[0]
            chosen, rest = ready[i : i + 1], ready[:i] + ready[i + 1 :]
        else:
            chosen = [ready[i] for i in picked]
            rest = [x for i, x in enumerate(ready) if not mask >> i & 1]
        label = len(stack)
        for x in chosen:
            labels[x - 1] = label
            for y in up[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    rest.append(y)
        top[3], top[4] = t + 1, chosen
        remaining -= len(chosen)


def pairwise_test_by_getters(op, pairs):
    """Definition of `promotab.shapes.pairwise_test`: the test whether
    ``op(s[i], s[j])`` holds for every (i, j) in `pairs`, on a sequence s,
    with two item getters reading the pairs' sides, as
    ``all(op(s[i], s[j]) for i, j in pairs)`` does one pair at a time."""
    if not pairs:
        return lambda s: True
    # the first pair is read twice, so each getter returns a tuple even for one pair
    firsts = itemgetter(pairs[0][0], *(i for i, _ in pairs))
    seconds = itemgetter(pairs[0][1], *(j for _, j in pairs))
    return lambda s: all(map(op, firsts(s), seconds(s)))


def recorded_compiles(monkeypatch) -> list:
    """The arguments of every `compile` call that generates a key test
    from now on, recorded by wrapping the one that
    :func:`promotab.shapes.pairwise_test` calls."""
    compiled = []

    def recorded(*args):
        compiled.append(args)
        return compile(*args)

    monkeypatch.setattr(shapes, "compile", recorded, raising=False)
    return compiled
