from collections import Counter

import pytest

import promotab.paths as paths
from promotab.dynamics import evacuate, orbit, promote, promote_inverse, promotion_period_words
from promotab.errors import PreconditionError
from promotab.growth import orbit_values
from promotab.paths import (
    apply_promotion_path,
    check_flow_invariance,
    flow_multisets,
    interval_decomposition,
    promotion_path,
    trajectory,
)
from promotab.shapes import Tableau, count_syt, enumerate_syt

T_33 = Tableau([[1, 2, 5], [3, 4, 7], [6, 8, 9]], 9)


def T(rows, k):
    return Tableau(rows, k)


class TestPromotionPath:
    def test_worked_example(self):
        p = promotion_path(T_33)
        assert p.boxes == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
        assert p.labels == (1, 2, 4, 7, 9)

    def test_single_row(self):
        p = promotion_path(T([[1, 2, 3]], 3))
        assert p.boxes == ((1, 1), (1, 2), (1, 3))
        assert p.labels == (1, 2, 3)

    def test_reconstructs_promotion(self):
        assert apply_promotion_path(T_33, promotion_path(T_33)) == T(
            [[1, 3, 4], [2, 6, 8], [5, 7, 9]], 9
        )

    def test_reconstruction_equals_promote_exhaustively(self):
        for t in enumerate_syt((3, 3)):
            assert apply_promotion_path(t, promotion_path(t)) == promote(t)

    def test_rejects_semistandard_input(self):
        with pytest.raises(PreconditionError):
            promotion_path(T([[1, 1], [2, 2]], 2))

    def test_rejects_non_rectangular(self):
        with pytest.raises(PreconditionError):
            promotion_path(T([[1, 2], [3]], 3))


class TestTrajectory:
    def test_worked_example(self):
        tau = trajectory(T_33)
        assert tau.boxes == ((3, 3), (2, 3), (1, 3), (1, 2), (1, 1))
        assert tau.labels == (9, 7, 4, 2, 1)

    def test_single_cell(self):
        tau = trajectory(T([[1]], 1))
        assert tau.boxes == ((1, 1),)
        assert tau.labels == (1,)

    def test_endpoints(self):
        for t in enumerate_syt((3, 3)):
            tau = trajectory(t)
            assert tau.boxes[0] == (2, 3) and tau.boxes[-1] == (1, 1)
            assert tau.labels[0] == 6 and tau.labels[-1] == 1

    def test_trajectory_is_promotion_path_of_evacuation(self):
        # same labeled path; the trajectory runs it backwards (up/left)
        for t in enumerate_syt((3, 3)):
            tau, rho = trajectory(t), promotion_path(evacuate(t))
            assert tau.boxes == tuple(reversed(rho.boxes))
            assert tau.labels == tuple(reversed(rho.labels))

    def test_conjugation_identity_all_offsets(self):
        for t in enumerate_syt((3, 3)):
            e = evacuate(t)
            cur_back, cur_fwd = t, e
            for _ in range(t.size):
                tau, rho = trajectory(cur_back), promotion_path(cur_fwd)
                assert tau.boxes == tuple(reversed(rho.boxes))
                assert tau.labels == tuple(reversed(rho.labels))
                cur_back = promote_inverse(cur_back)
                cur_fwd = promote(cur_fwd)


class TestFlowMultisets:
    def test_worked_example_corner(self):
        fm = flow_multisets(T_33, (1, 3))
        assert fm.inn == (5, 6, 6)
        assert fm.out == (3, 4, 4)

    def test_upper_left_emits_only_ones(self):
        for t in enumerate_syt((2, 2)):
            fm = flow_multisets(t, (1, 1))
            assert set(fm.out) == {1}
            assert len(fm.out) == t.size

    def test_lower_right_receives_only_ceiling(self):
        for t in enumerate_syt((2, 2)):
            fm = flow_multisets(t, (2, 2))
            assert fm.inn == (t.size,) * t.size

    def test_in_and_out_have_equal_sizes(self):
        for t in enumerate_syt((3, 3)):
            for box in t.boxes():
                fm = flow_multisets(t, box)
                assert len(fm.inn) == len(fm.out)

    def test_complement_symmetry(self):
        m, n = 2, 3
        for t in enumerate_syt((n,) * m):
            k = t.size
            for (r, c) in t.boxes():
                fm = flow_multisets(t, (r, c))
                fm_star = flow_multisets(t, (m + 1 - r, n + 1 - c))
                assert fm.inn == tuple(sorted(k + 1 - x for x in fm_star.out))


class TestIntervalDecomposition:
    def test_worked_example(self):
        assert interval_decomposition(T_33, (1, 3)) == ((3, 6), (4, 5), (4, 6))

    def test_matches_inn_out(self):
        intervals = interval_decomposition(T_33, (1, 3))
        fm = flow_multisets(T_33, (1, 3))
        assert tuple(sorted(a for a, _ in intervals)) == fm.out
        assert tuple(sorted(b for _, b in intervals)) == fm.inn

    def test_corner_intervals_start_at_one(self):
        for t in enumerate_syt((3, 3)):
            assert all(a == 1 for a, _ in interval_decomposition(t, (1, 1)))

    def test_union_is_box_period_multiset(self):
        for shape in ((3,) * 2, (3,) * 3):
            for t in enumerate_syt(shape):
                for box in t.boxes():
                    union = Counter()
                    for a, b in interval_decomposition(t, box):
                        union.update(range(a, b + 1))
                    assert union == Counter(orbit_values(t, box))


class TestFlowInvariance:
    def test_two_by_three(self):
        report = check_flow_invariance(2, 3)
        assert report.ok
        assert report.tableaux_checked == count_syt((3, 3)) == 5

    def test_three_by_three(self):
        report = check_flow_invariance(3, 3)
        assert report.ok and report.tableaux_checked == 42

    def test_single_row(self):
        report = check_flow_invariance(1, 4)
        assert report.ok and report.tableaux_checked == 1

    def test_the_sweep_walks_each_promotion_orbit_once(self, monkeypatch):
        # at most one period walk per orbit, and a fresh memo for every call
        walks = []

        def counted(t):
            walks.append(t)
            return promotion_period_words(t)

        monkeypatch.setattr(paths, "promotion_period_words", counted)
        for m, n in ((2, 3), (3, 3), (1, 4), (2, 4), (3, 4)):
            orbits = len({orbit(t).representative for t in enumerate_syt((n,) * m)})
            for _ in range(2):
                walks.clear()
                assert check_flow_invariance(m, n).ok
                assert 0 < len(walks) <= orbits, (m, n)

    def test_broken_evacuation_is_reported(self, monkeypatch):
        least = T([[1, 2, 3], [4, 5, 6]], 6)
        monkeypatch.setattr(paths, "evacuate", lambda t: least)
        report = check_flow_invariance(2, 3)
        assert not report.ok
