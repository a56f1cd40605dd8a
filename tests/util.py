"""Shared helpers and independent brute-force oracles for the test suite."""

from itertools import permutations, product

from promotab.dynamics import promote, rectify
from promotab.ktableaux import BULLET, IncreasingTableau, switch
from promotab.posets import FinitePoset, LinearExtension
from promotab.shapes import Tableau


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


def brute_linear_extension_count(p: FinitePoset) -> int:
    """Oracle: filter all d! label bijections."""
    count = 0
    for perm in permutations(range(1, p.size + 1)):
        if all(perm[x - 1] < perm[y - 1] for x, y in p.covers):
            count += 1
    return count


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


def enumerate_increasing_by_rescan(p: FinitePoset, q: int):
    """Increasing tableaux of deficiency q, finding the minimal elements of
    the unplaced set afresh at every step with ``FinitePoset.minimal_of``."""
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
        ready = p.minimal_of(x for x in p.elements() if x not in placed)
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
