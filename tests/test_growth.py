import random
from itertools import islice

import pytest

import promotab.dynamics as dynamics
import promotab.growth as growth
from promotab.dynamics import evacuate, orbit, promote, promotion_period_words, toggle
from promotab.errors import PreconditionError
from promotab.growth import (
    ChainEncoding,
    bend_path,
    bendable_corners,
    build_window,
    check_dis_invariance,
    column_evacuation,
    decode_chain,
    encode_chain,
    orbit_values,
    path_tableau,
    render_window,
)
from promotab.shapes import ReadingLayout, Tableau, enumerate_ssyt
from util import partitions_up_to

T_23 = Tableau([[1, 2, 3], [3, 4, 4]], 5)

WINDOW_ROWS = (
    ((), (1,), (2,), (3, 1), (3, 3), (3, 3)),
    ((), (1,), (2, 1), (3, 2), (3, 2), (3, 3)),
    ((), (2,), (3, 1), (3, 1), (3, 2), (3, 3)),
    ((), (2,), (2,), (2, 1), (3, 1), (3, 3)),
    ((), (), (1,), (2,), (3, 1), (3, 3)),
    ((), (1,), (2,), (3, 1), (3, 3), (3, 3)),
)


def T(rows, k, inner=()):
    return Tableau(rows, k, inner)


class TestChainEncoding:
    def test_worked_chain(self):
        assert encode_chain(T_23).diagrams == WINDOW_ROWS[0]

    def test_empty_tableau(self):
        assert encode_chain(T([], 3)).diagrams == ((), (), (), ())

    def test_standard_square_adds_one_box_per_step(self):
        assert encode_chain(T([[1, 2], [3, 4]], 4)).diagrams == ((), (1,), (2,), (2, 1), (2, 2))

    def test_decode_inverts_encode(self):
        for shape in partitions_up_to(5):
            for t in enumerate_ssyt(shape, 3):
                assert decode_chain(encode_chain(t)) == t

    def test_decode_rejects_non_chain(self):
        with pytest.raises(PreconditionError):
            decode_chain(ChainEncoding((((),), ()), ))  # malformed: does not start empty


class TestGrowthWindow:
    def test_worked_window_rows(self):
        w = build_window(T_23, 6)
        assert tuple(enc.diagrams for enc in w.rows) == WINDOW_ROWS

    def test_single_box_window(self):
        w = build_window(T([[1]], 2), 3)
        decoded = [decode_chain(enc) for enc in w.rows]
        assert decoded == [T([[1]], 2), T([[2]], 2), T([[1]], 2)]

    def test_row_one_decodes_promotion(self):
        for t in enumerate_ssyt((2, 2), 3):
            w = build_window(t, t.ceiling + 1)
            assert decode_chain(w.rows[1]) == promote(t)

    def test_rows_decode_promotion_powers(self):
        for shape in partitions_up_to(4):
            for t in enumerate_ssyt(shape, 3):
                w = build_window(t, 2 * t.ceiling + 1)
                cur = t
                for enc in w.rows:
                    assert decode_chain(enc) == cur
                    cur = promote(cur)

    def test_window_consistency_and_column_evacuation_sweep(self):
        for shape in partitions_up_to(6):
            for k in range(1, 6):
                for t in enumerate_ssyt(shape, k):
                    w = build_window(t, k + 1)
                    cur = t
                    for enc in w.rows:
                        assert decode_chain(enc) == cur
                        cur = promote(cur)
                    assert column_evacuation(w, 0) == evacuate(t)

    def test_two_windows_on_one_shape_build_the_layout_once(self, monkeypatch):
        # the windows share the per-shape layout and test of the steps on tableaux
        first, second = islice(enumerate_ssyt((3, 3, 2), 5), 2)
        built = []
        init = ReadingLayout.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReadingLayout, "__init__", counted)
        dynamics.straight_layout.cache_clear()
        assert build_window(first, 6) != build_window(second, 6)
        assert len(built) == 1

    def test_height_must_cover_one_period(self):
        with pytest.raises(PreconditionError):
            build_window(T_23, 5)

    @pytest.mark.parametrize(
        "t, message",
        [(T([[2, 1]], 3), "^not semistandard$"), (T([[2], [1]], 3, (1,)), "chain encoding requires a straight shape")],
        ids=repr,
    )
    def test_refuses_what_promotion_refuses(self, t, message):
        with pytest.raises(PreconditionError, match=message):
            build_window(t, 4)


class TestColumnEvacuation:
    def test_central_column_is_evacuation_of_top_row(self):
        w = build_window(T_23, 6)
        assert column_evacuation(w, 0) == evacuate(T_23)

    def test_every_row_with_enough_height(self):
        w = build_window(T_23, 11)
        cur = T_23
        for r in range(6):
            assert column_evacuation(w, r) == evacuate(cur)
            cur = promote(cur)

    def test_standard_square_column_gives_rotation_complement(self):
        from promotab.shapes import rotate_complement

        for t in enumerate_ssyt((2, 2), 4):
            w = build_window(t, t.ceiling + 1)
            assert column_evacuation(w, 0) == rotate_complement(t)

    def test_one_by_one(self):
        t = T([[1]], 1)
        w = build_window(t, 2)
        assert column_evacuation(w, 0) == t

    def test_insufficient_height_raises(self):
        w = build_window(T_23, 6)
        with pytest.raises(PreconditionError):
            column_evacuation(w, 1)


class TestOrbitValues:
    def test_worked_multiset(self):
        assert orbit_values(T_23, (1, 3)) == (2, 3, 3, 4, 4)

    def test_single_box_full_alphabet(self):
        assert orbit_values(T([[1]], 3), (1, 1)) == (1, 2, 3)

    def test_invariant_under_evacuation_on_worked_example(self):
        assert orbit_values(evacuate(T_23), (1, 3)) == (2, 3, 3, 4, 4)

    def test_box_outside_shape(self):
        with pytest.raises(PreconditionError):
            orbit_values(T_23, (3, 1))


class TestDisInvariance:
    def test_rectangular_sweep(self):
        report = check_dis_invariance((3, 3), 5)
        assert report.ok and report.tableaux_checked > 0

    def test_non_rectangular_sweep(self):
        report = check_dis_invariance((3, 2, 1), 4)
        assert report.ok and report.tableaux_checked > 0

    def test_single_column_trivial(self):
        assert check_dis_invariance((1,), 3).ok

    def test_the_sweep_builds_two_tableaux_per_enumerated_tableau(self, monkeypatch):
        # the enumerated tableau and its evacuation; the periods are read as words.
        # Both are built from reading words, so both constructors are counted.
        built = []
        init, of_word = Tableau.__init__, Tableau._of_word

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_of_word(cls, *args):
            built.append(of_word(*args))
            return built[-1]

        monkeypatch.setattr(Tableau, "__init__", counted)
        monkeypatch.setattr(Tableau, "_of_word", classmethod(counted_of_word))
        for shape, k in (((3, 3), 5), ((3, 2, 1), 4), ((4,), 3), ((2, 2, 2), 6)):
            built.clear()
            report = check_dis_invariance(shape, k)
            assert report.ok and 0 < len(built) <= 2 * report.tableaux_checked, (shape, k)

    def test_the_sweep_walks_each_promotion_orbit_once(self, monkeypatch):
        # at most one period walk per orbit, and a fresh memo for every call
        walks = []

        def counted(t):
            walks.append(t)
            return promotion_period_words(t)

        monkeypatch.setattr(growth, "promotion_period_words", counted)
        for shape, k in (((3, 3), 5), ((3, 2, 1), 4), ((4,), 3), ((2, 2, 2), 6)):
            orbits = len({orbit(t).representative for t in enumerate_ssyt(shape, k)})
            for _ in range(2):
                walks.clear()
                assert check_dis_invariance(shape, k).ok
                assert 0 < len(walks) <= orbits, (shape, k)

    def test_broken_evacuation_is_reported(self, monkeypatch):
        least = Tableau([[1, 1], [2]], 3)
        monkeypatch.setattr(growth, "evacuate", lambda t: least)
        report = check_dis_invariance((2, 1), 3)
        assert not report.ok

    def test_an_evacuation_of_another_shape_disagrees_at_every_box(self, monkeypatch):
        monkeypatch.setattr(growth, "evacuate", lambda t: Tableau([[1, 2, 3]], 3))
        report = check_dis_invariance((2, 1), 3)
        assert len(report.violations) == 3 * report.tableaux_checked


class TestPathToggles:
    def test_straight_row_path_decodes_the_row(self):
        w = build_window(T_23, 6)
        assert path_tableau(w, 0, ["right"] * 5) == T_23
        assert path_tableau(w, 2, ["right"] * 5) == decode_chain(w.rows[2])

    def test_remark_solid_and_dotted_paths(self):
        w = build_window(T_23, 6)
        solid = path_tableau(w, 2, ["right", "up", "right", "right", "right"])
        dotted = path_tableau(w, 2, ["right", "right", "up", "right", "right"])
        assert solid == T([[1, 1, 3], [2, 3, 5]], 5)
        assert dotted == T([[1, 1, 2], [2, 3, 5]], 5)
        assert dotted == toggle(solid, 2)
        assert solid == toggle(dotted, 2)

    def test_bending_any_corner_is_one_toggle(self):
        rng = random.Random(11)
        for t in (T_23, T([[1, 2], [2, 3]], 4), T([[1, 1, 2], [2, 3, 3]], 4)):
            k = t.ceiling
            w = build_window(t, 2 * k + 1)
            for _ in range(25):
                ups = rng.randrange(0, min(k, 2 * k - k) + 1)
                hops = ["up"] * ups + ["right"] * (k - ups)
                rng.shuffle(hops)
                start = rng.randrange(ups, k + 1)
                base = path_tableau(w, start, hops)
                for corner in bendable_corners(hops):
                    bent = path_tableau(w, start, bend_path(hops, corner))
                    assert bent == toggle(base, corner)

    def test_path_leaving_window_raises(self):
        w = build_window(T_23, 6)
        with pytest.raises(PreconditionError):
            path_tableau(w, 0, ["up", "right", "right", "right", "right"])


class TestRendering:
    def test_render_contains_rows_and_marker(self):
        w = build_window(T_23, 6)
        text = render_window(w, tracked=(1, 3))
        lines = text.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("-")
        assert "*3,1" in text and "*3,3" in text
        # row offsets grow with the row index
        indents = [len(line) - len(line.lstrip()) for line in lines]
        assert indents == sorted(indents)
