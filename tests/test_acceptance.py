"""Acceptance criteria, one test per criterion, at full stated ranges.

Every check is exact (integer/rational equality, zero tolerance).  Each
test prints one PASS line when its criterion holds; a failed assertion is
the FAIL signal.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction

from promotab.dynamics import (
    dual_evacuate,
    evacuate,
    partial_promote,
    promote,
    promote_inverse,
    promote_via_toggles,
    rectify,
    slide_toggle,
    toggle,
)
from promotab.growth import (
    build_window,
    check_dis_invariance,
    encode_chain,
    orbit_values,
)
from promotab.homomesy import (
    CellStatistic,
    fraction_str,
    inc_system,
    partition_orbits,
    ssyt_system,
    symmetric_subsets,
    syt_poset_system,
    verdict,
)
from promotab.ktableaux import (
    enumerate_increasing,
    increasing_from_grid,
    increasing_to_grid,
    k_evacuate,
    k_orbit_order_check,
    k_promote,
    three_by_four_counterexample,
)
from promotab.paths import (
    check_flow_invariance,
    flow_multisets,
    interval_decomposition,
    promotion_path,
    trajectory,
)
from promotab.posets import (
    build_cominuscule,
    linear_extensions,
    poset_evacuate,
    rotate,
    rotate_reverse,
)
from promotab.shapes import (
    Tableau,
    Word,
    complement_reverse,
    count_ssyt,
    count_syt,
    enumerate_ssyt,
    enumerate_syt,
    rotate_complement,
    rsk_insert,
)
from util import partitions_up_to, random_linear_extension


def T(rows, k, inner=()):
    return Tableau(rows, k, inner)


def rect(m, n):
    return (n,) * m


def all_words(max_len, ceiling):
    def gen(prefix, remaining):
        yield Word(tuple(prefix), ceiling)
        if remaining == 0:
            return
        for x in range(1, ceiling + 1):
            prefix.append(x)
            yield from gen(prefix, remaining - 1)
            prefix.pop()

    yield from gen([], max_len)


def test_c01_worked_example_fidelity():
    # promotion and the toggle chain of the ceiling-6 example
    t6 = T([[1, 1, 2, 3], [3, 3, 4, 4], [5, 5]], 6)
    assert promote(t6) == T([[1, 2, 2, 3], [2, 3, 6, 6], [4, 4]], 6)
    chain = [
        T([[1, 2, 2, 3], [3, 3, 4, 4], [5, 5]], 6),
        T([[1, 2, 2, 3], [2, 3, 4, 4], [5, 5]], 6),
        T([[1, 2, 2, 3], [2, 3, 4, 4], [5, 5]], 6),
        T([[1, 2, 2, 3], [2, 3, 5, 5], [4, 4]], 6),
        T([[1, 2, 2, 3], [2, 3, 6, 6], [4, 4]], 6),
    ]
    cur = t6
    for i, expected in enumerate(chain, start=1):
        cur = toggle(cur, i)
        assert cur == expected
    assert cur == promote(t6)

    # top-letter slide toggle on the ten-column tableau
    r = T([[1, 1, 2, 3, 3, 3, 3, 3, 4, 4], [2, 3, 4, 4, 4], [3], [4]], 4)
    expected_r = T([[1, 1, 2, 3, 3, 3, 3, 4, 4, 4], [2, 3, 4, 4, 4], [3], [4]], 4)
    assert slide_toggle(r, 3) == expected_r == toggle(r, 3)

    # rectification of the ones-deleted skew tableau
    skew = T([[3, 4, 4], [2, 2, 4, 4, 4], [3], [4]], 4, inner=(7,))
    assert rectify(skew) == T([[2, 2, 3, 4, 4, 4, 4], [3, 4], [4]], 4)

    # evacuation of the ceiling-6 example
    assert evacuate(t6) == T([[2, 2, 4, 4], [3, 3, 6, 6], [4, 5]], 6)

    # growth window rows of the ceiling-5 rectangle
    t5 = T([[1, 2, 3], [3, 4, 4]], 5)
    w = build_window(t5, 6)
    assert tuple(enc.diagrams for enc in w.rows) == (
        ((), (1,), (2,), (3, 1), (3, 3), (3, 3)),
        ((), (1,), (2, 1), (3, 2), (3, 2), (3, 3)),
        ((), (2,), (3, 1), (3, 1), (3, 2), (3, 3)),
        ((), (2,), (2,), (2, 1), (3, 1), (3, 3)),
        ((), (), (1,), (2,), (3, 1), (3, 3)),
        ((), (1,), (2,), (3, 1), (3, 3), (3, 3)),
    )

    # one-box period multiset, for the tableau and for its evacuation
    assert orbit_values(t5, (1, 3)) == (2, 3, 3, 4, 4)
    assert orbit_values(evacuate(t5), (1, 3)) == (2, 3, 3, 4, 4)

    # standard 3x3: promotion path, reconstruction, flows, trajectory
    t9 = T([[1, 2, 5], [3, 4, 7], [6, 8, 9]], 9)
    rho = promotion_path(t9)
    assert rho.boxes == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
    assert rho.labels == (1, 2, 4, 7, 9)
    assert promote(t9) == T([[1, 3, 4], [2, 6, 8], [5, 7, 9]], 9)
    fm = flow_multisets(t9, (1, 3))
    assert fm.inn == (5, 6, 6) and fm.out == (3, 4, 4)
    assert interval_decomposition(t9, (1, 3)) == ((3, 6), (4, 5), (4, 6))
    tau = trajectory(t9)
    assert tau.boxes == ((3, 3), (2, 3), (1, 3), (1, 2), (1, 1))
    assert tau.labels == (9, 7, 4, 2, 1)

    # K-promotion, the semistandard contrast, and K-evacuation with its chain
    inc = increasing_from_grid(T([[1, 3], [2, 4], [4, 5]], 5))
    assert increasing_to_grid(k_promote(inc)).rows == ((1, 2), (3, 4), (4, 5))
    assert promote(T([[1, 3], [2, 4], [4, 5]], 5)).rows == ((1, 2), (3, 3), (4, 5))
    ek = increasing_to_grid(k_evacuate(inc))
    assert ek.rows == ((1, 2), (2, 4), (3, 5))
    assert encode_chain(ek).diagrams == ((), (1,), (2, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2))
    print("ACCEPTANCE 01 PASS: worked-example fidelity (exact)")


def test_c02_counterexample_reproduction():
    report = three_by_four_counterexample()
    assert report.first_orbit_size == 9 and report.second_orbit_size == 9
    assert report.first_average == Fraction(91, 9)
    assert report.second_average == Fraction(10)

    poset = report.first.poset
    statistic = CellStatistic(
        support=frozenset(poset.element_at(b) for b in ((2, 2), (2, 3))),
        name="cells:[(2, 2), (2, 3)]",
    )
    report = verdict(partition_orbits(inc_system(poset, 3), budget=100_000), statistic)
    assert report.verdict == "violated"
    averages = {fraction_str(o.average) for o in report.orbits}
    assert {"91/9", "10/1"} <= averages
    print("ACCEPTANCE 02 PASS: 3x4 deficiency-3 counterexample, averages 91/9 vs 10")


def test_c03_rectangular_homomesy_sweep():
    cases = []
    for m, n, kmax in ((2, 2, 5), (2, 3, 5), (3, 3, 4)):
        for k in range(1, kmax + 1):
            cases.append((m, n, k))
    for m, n, k in cases:
        system = ssyt_system(rect(m, n), k)
        partition = partition_orbits(system, budget=10_000)
        for statistic in symmetric_subsets(system):
            report = verdict(partition, statistic)
            assert report.homomesic, (m, n, k, statistic.name)
            expected = Fraction((k + 1) * len(statistic.support), 2)
            if report.orbits:
                assert report.common_average == expected, (m, n, k, statistic.name)
        # box-period multisets complement under rotation, on the same sweep
        for t in enumerate_ssyt(rect(m, n), k):
            for r, c in t.boxes():
                vals = orbit_values(t, (r, c))
                star = orbit_values(t, (m + 1 - r, n + 1 - c))
                assert vals == tuple(sorted(k + 1 - v for v in star))
    print("ACCEPTANCE 03 PASS: promotion homomesy on rectangles, averages (k+1)|S|/2")


def test_c04_toggle_promotion_sweeps():
    checked = 0
    for shape in partitions_up_to(8):
        for k in range(1, 6):
            for t in enumerate_ssyt(shape, k):
                p = promote(t)
                assert p == promote_via_toggles(t)
                if k >= 2:
                    assert p == toggle(partial_promote(t, k - 1), k - 1)
                checked += 1
    assert checked > 20_000
    print(f"ACCEPTANCE 04 PASS: promote = toggle sweep = top-toggle of partial promotion ({checked} tableaux)")


def test_c05_evacuation_identities_sweep():
    for shape in partitions_up_to(8):
        for k in range(1, 6):
            for t in enumerate_ssyt(shape, k):
                e = evacuate(t)
                assert evacuate(e) == t
                assert evacuate(promote(t)) == promote_inverse(e)
    for m in range(1, 10):
        for n in range(1, 10):
            if m * n > 9:
                continue
            for k in range(1, 6):
                for t in enumerate_ssyt(rect(m, n), k):
                    cur = t
                    for _ in range(k):
                        cur = promote(cur)
                    assert cur == t
                    e = evacuate(t)
                    assert e == rotate_complement(t)
                    assert dual_evacuate(e) == t
    print("ACCEPTANCE 05 PASS: evacuation involution/conjugation; rectangle period, rotation, duality")


def test_c06_insertion_complement_duality():
    for ceiling in range(1, 5):
        for w in all_words(6, ceiling):
            assert rsk_insert(complement_reverse(w)) == evacuate(rsk_insert(w))
    print("ACCEPTANCE 06 PASS: insertion of the complemented-reversed word is the evacuation")


def test_c07_box_period_multiset_sweep():
    for shape in partitions_up_to(7):
        for k in range(1, 6):
            report = check_dis_invariance(shape, k)
            assert report.ok, (shape, k, report.violations[:1])
    print("ACCEPTANCE 07 PASS: box period multisets agree under evacuation (all shapes, incl. non-rectangular)")


def test_c08_standard_rectangle_flow_sweeps():
    from promotab.paths import apply_promotion_path, flow_tables

    for m in range(1, 13):
        for n in range(1, 13):
            if m * n > 12:
                continue
            report = check_flow_invariance(m, n)
            assert report.ok, (m, n)
            k = m * n
            for t in enumerate_syt(rect(m, n)):
                assert apply_promotion_path(t, promotion_path(t)) == promote(t)
                # trajectory/path identity at every cyclic offset
                e = evacuate(t)
                cur_back, cur_fwd = t, e
                for _ in range(k):
                    tau = trajectory(cur_back)
                    rho = promotion_path(cur_fwd)
                    assert tau.boxes == tuple(reversed(rho.boxes))
                    assert tau.labels == tuple(reversed(rho.labels))
                    cur_back = promote_inverse(cur_back)
                    cur_fwd = promote(cur_fwd)
                flows = flow_tables(t)
                for r, c in t.boxes():
                    fm = flows[(r, c)]
                    fm_star = flows[(m + 1 - r, n + 1 - c)]
                    assert len(fm.inn) == len(fm.out)
                    assert fm.inn == tuple(sorted(k + 1 - x for x in fm_star.out))
    print("ACCEPTANCE 08 PASS: flow multisets, reconstruction, trajectory identity, complement symmetry")


def test_c09_poset_promotion_homomesy():
    rng = random.Random(2024)
    families = [
        build_cominuscule("rectangle", 3, 4),
        build_cominuscule("shifted_staircase", 4),
        build_cominuscule("propeller", 5),
        build_cominuscule("cayley"),
        build_cominuscule("freudenthal"),
    ]
    for p in families:
        rot = rotate(p)  # validates involution + order reversal
        assert all(rot[rot[x]] == x for x in p.elements())

    sweep_posets = [build_cominuscule("shifted_staircase", n) for n in (1, 2, 3)]
    sweep_posets += [build_cominuscule("propeller", n) for n in (3, 4)]
    for m in range(1, 11):
        for n in range(1, 11):
            if m * n <= 10:
                sweep_posets.append(build_cominuscule("rectangle", m, n))
    for p in sweep_posets:
        for t in linear_extensions(p):
            assert poset_evacuate(t) == rotate_reverse(t)
        system = syt_poset_system(p)
        partition = partition_orbits(system, budget=10_000)
        for statistic in symmetric_subsets(system):
            report = verdict(partition, statistic)
            assert report.homomesic, (p.name, statistic.name)
    for name in ("cayley", "freudenthal"):
        p = build_cominuscule(name)
        for _ in range(500):
            t = random_linear_extension(p, rng)
            assert poset_evacuate(t) == rotate_reverse(t)
    print("ACCEPTANCE 09 PASS: cominuscule rotate validation, evacuation formula, homomesy sweeps")


def test_c10_two_row_k_promotion_homomesy():
    for n in range(1, 6):
        p = build_cominuscule("rectangle", 2, n)
        for q in range(0, 2 * n):
            report = k_orbit_order_check(n, q)
            assert report.ok, (n, q)
            for t in enumerate_increasing(p, q):
                assert k_evacuate(k_evacuate(t)) == t
            system = inc_system(p, q)
            partition = partition_orbits(system, budget=10_000)
            for statistic in symmetric_subsets(system):
                report = verdict(partition, statistic)
                assert report.homomesic, (n, q, statistic.name)
                if report.orbits:
                    expected = Fraction((2 * n - q + 1) * len(statistic.support), 2)
                    assert report.common_average == expected, (n, q, statistic.name)
        for tab in enumerate_syt(rect(2, n)):
            assert increasing_to_grid(k_promote(increasing_from_grid(tab))) == promote(tab)
    print("ACCEPTANCE 10 PASS: 2xn K-promotion order, K-evacuation involution, homomesy, q=0 bridge")


def test_c11_oracle_equivalences():
    for shape in partitions_up_to(8):
        for k in range(1, 6):
            assert sum(1 for _ in enumerate_ssyt(shape, k)) == count_ssyt(shape, k)
    for m in range(1, 13):
        for n in range(1, 13):
            if m * n <= 12:
                assert sum(1 for _ in enumerate_syt(rect(m, n))) == count_syt(rect(m, n))
    rng = random.Random(99)
    inputs = [
        T([[3, 4, 4], [2, 2, 4, 4, 4], [3], [4]], 4, inner=(7,)),
        T([[2, 3], [3, 4, 4]], 5, inner=(2,)),
    ]
    inputs += list(enumerate_ssyt((3, 2, 1), 3, inner=(1, 1)))[:8]
    for skew in inputs:
        baseline = rectify(skew)
        for _ in range(100):
            assert rectify(skew, pick=rng.choice) == baseline
    print("ACCEPTANCE 11 PASS: enumeration counts match hook formulas; rectification is slide-order independent")
