import io
import json
import os
import shlex
import subprocess
import sys
import time
from operator import lt
from pathlib import Path

import pytest

from promotab import growth, homomesy, paths, posets, shapes
from promotab.cli import main
from promotab.dynamics import promotion_period_words

T_MAIN_TEXT = "k=6\n1 1 2 3\n3 3 4 4\n5 5\n"
T_INC_TEXT = "k=5\n1 3\n2 4\n4 5\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPromote:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "promote", "--text", T_MAIN_TEXT)
        assert code == 0
        assert out == "k=6\n1 2 2 3\n2 3 6 6\n4 4\n"

    def test_round_trip_through_file(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(T_MAIN_TEXT)
        code, out, _ = run(capsys, "evacuate", str(path))
        assert code == 0
        assert out == "k=6\n2 2 4 4\n3 3 6 6\n4 5\n"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "promote", "--text", "k=6\n1 0 2\n")
        assert code == 2
        assert "parse error" in err

    def test_undecodable_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe k=3\n1 2\n")
        code, out, err = run(capsys, "promote", str(path))
        assert code == 2 and out == ""
        assert "cannot read input file" in err

    def test_undecodable_stdin_is_a_parse_error(self, monkeypatch, capsys):
        raw = io.BytesIO(b"\xff\xfe k=3\n1 2\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8", errors="strict"))
        code, out, err = run(capsys, "promote")
        assert code == 2 and out == ""
        assert "cannot read input file '-'" in err

    def test_precondition_exit_code(self, capsys):
        # a valid skew tableau, but promotion needs a straight shape
        code, _, err = run(capsys, "promote", "--text", "k=3\n. 1\n2\n")
        assert code == 3
        assert "precondition" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "promote", "--text", T_MAIN_TEXT, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"ceiling": 6, "rows": [[1, 2, 2, 3], [2, 3, 6, 6], [4, 4]]}


class TestOrbit:
    def test_period_line(self, capsys):
        code, out, _ = run(capsys, "orbit", "--text", "k=3\n1\n")
        assert code == 0
        assert out.splitlines()[0] == "period=3"

    def test_inverse_operator(self, capsys):
        code, out, _ = run(capsys, "orbit", "--text", "k=3\n1\n", "--operator", "promote-inverse", "--format", "json")
        assert code == 0
        assert json.loads(out)["period"] == 3


class TestGrowthAndDis:
    def test_growth_window_ascii(self, capsys):
        code, out, _ = run(capsys, "growth", "--text", "k=5\n1 2 3\n3 4 4\n")
        assert code == 0
        assert len(out.splitlines()) == 6
        assert out.splitlines()[0].startswith("-")

    def test_growth_tracked_box(self, capsys):
        code, out, _ = run(capsys, "growth", "--text", "k=5\n1 2 3\n3 4 4\n", "--cells", "1,3")
        assert code == 0
        assert "*3,1" in out

    def test_dis_values(self, capsys):
        code, out, _ = run(capsys, "dis", "--text", "k=5\n1 2 3\n3 4 4\n", "--cells", "1,3")
        assert code == 0
        assert out.strip() == "{2,3,3,4,4}"

    def test_growth_rejects_a_box_outside_the_shape(self, capsys):
        code, out, err = run(capsys, "growth", "--text", "k=3\n1 2\n", "--cells", "5,5")
        assert (code, out) == (3, "")
        assert err == "precondition violated: box (5, 5) is not in the shape\n"

    def test_a_window_over_the_row_limit_is_refused_before_any_row(self, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("built a window over the row limit")

        monkeypatch.setattr(growth, "build_window", refuse)
        code, out, err = run(capsys, "growth", "--height", "1000000000", "--text", "k=2\n1\n2\n")
        assert (code, out) == (4, "")
        assert err == "budget exhausted: window height 1000000000 exceeds the limit of 1000 rows\n"

    def test_a_window_at_the_row_limit_is_built(self, capsys):
        height = str(growth.MAX_WINDOW_HEIGHT)
        code, out, _ = run(capsys, "growth", "--height", height, "--format", "json", "--text", "k=2\n1\n2\n")
        assert code == 0 and len(json.loads(out)["rows"]) == growth.MAX_WINDOW_HEIGHT

    def test_dis_requires_cells(self, capsys):
        code, _, err = run(capsys, "dis", "--text", "k=5\n1 2 3\n3 4 4\n")
        assert code == 2


class TestPaths:
    def test_path_and_trajectory(self, capsys):
        text = "k=9\n1 2 5\n3 4 7\n6 8 9\n"
        code, out, _ = run(capsys, "paths", "--text", text, "--cells", "1,3")
        assert code == 0
        assert "promotion_path: (1,1)[1] (1,2)[2] (2,2)[4] (2,3)[7] (3,3)[9]" in out
        assert "trajectory: (3,3)[9] (2,3)[7] (1,3)[4] (1,2)[2] (1,1)[1]" in out
        assert "inn={5,6,6} out={3,4,4}" in out
        assert "intervals=[3,6] [4,5] [4,6]" in out

    def test_the_flows_of_every_box_come_from_one_period_walk(self, monkeypatch, capsys):
        # one walk for the trajectory, one for the flows of all boxes
        walks = []

        def counted(t):
            walks.append(t)
            return promotion_period_words(t)

        monkeypatch.setattr(paths, "promotion_period_words", counted)
        code, out, _ = run(capsys, "paths", "--text", "k=9\n1 2 5\n3 4 7\n6 8 9\n", "--cells", "1,1;1,2;2,1")
        assert code == 0 and len(walks) <= 2
        assert out.splitlines()[2:] == [
            "box (1,1): inn={1,1,1,1,1,1,1,1,1} out={1,1,1,1,1,1,1,1,1}"
            " intervals=[1,1] [1,1] [1,1] [1,1] [1,1] [1,1] [1,1] [1,1] [1,1]",
            "box (1,2): inn={2,3,3,3,3} out={2,2,2,2,2} intervals=[2,2] [2,3] [2,3] [2,3] [2,3]",
            "box (2,1): inn={3,3,3,4} out={2,2,2,2} intervals=[2,3] [2,3] [2,3] [2,4]",
        ]


class TestKOps:
    def test_kpromote(self, capsys):
        code, out, _ = run(capsys, "kpromote", "--text", T_INC_TEXT)
        assert code == 0
        assert out == "k=5\n1 2\n3 4\n4 5\n"

    def test_kevacuate(self, capsys):
        code, out, _ = run(capsys, "kevacuate", "--text", T_INC_TEXT)
        assert code == 0
        assert out == "k=5\n1 2\n2 4\n3 5\n"

    @pytest.mark.parametrize("verb", ["kpromote", "kevacuate"])
    def test_empty_tableau(self, capsys, verb):
        assert run(capsys, verb, "--text", "k=0\n") == (0, "k=0\n", "")
        code, out, _ = run(capsys, verb, "--text", "k=0\n", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"ceiling": 0, "rows": []}

    def test_rejects_non_increasing(self, capsys):
        code, _, err = run(capsys, "kpromote", "--text", "k=5\n1 2\n3 3\n4 5\n")
        assert code == 3


class TestHomomesy:
    def test_requires_budget(self, capsys):
        code, _, err = run(capsys, "homomesy", "--shape", "2x2", "-k", "4", "--cells", "1,1;2,2")
        assert code == 2

    def test_budget_exhaustion_exit_code(self, capsys):
        code, _, err = run(
            capsys, "homomesy", "--shape", "2x2", "-k", "4", "--cells", "1,1;2,2", "--budget", "3"
        )
        assert code == 4
        assert "budget" in err

    def test_homomesic_run(self, capsys):
        code, out, _ = run(
            capsys, "homomesy", "--shape", "2x2", "-k", "4", "--cells", "1,1;2,2", "--budget", "100"
        )
        assert code == 0
        assert "verdict: homomesic" in out

    def test_symmetric_all(self, capsys):
        code, out, _ = run(
            capsys, "homomesy", "--shape", "2x2", "-k", "3", "--symmetric-all", "--budget", "100"
        )
        assert code == 0
        assert out.count("verdict: homomesic") == 4

    def test_violated_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "homomesy",
            "--shape", "3x4", "-q", "3", "--cells", "2,2;2,3", "--budget", "100000",
        )
        assert code == 1
        assert "verdict: violated" in out

    def test_family_system(self, capsys):
        code, out, _ = run(
            capsys,
            "homomesy",
            "--family", "shifted_staircase:3", "--cells", "1,3;2,2", "--budget", "1000",
        )
        assert code == 0
        assert "verdict: homomesic" in out

    def test_json_reports_are_byte_deterministic(self, capsys):
        args = (
            "homomesy", "--shape", "2x3", "-k", "4",
            "--cells", "1,1;2,3", "--budget", "1000", "--format", "json",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["verdict"] == "homomesic"
        assert all("/" in o["average"] for o in payload["orbits"])

    @pytest.mark.parametrize(
        "args, code, err",
        [
            (
                "--shape 3x3 -k 6 --cells 4,4 --budget 100000",
                3,
                "precondition violated: box (4, 4) is not present in the tableau\n",
            ),
            (
                "--family cayley --cells 9,9 --budget 100000",
                3,
                "precondition violated: no element embedded at box (9, 9)\n",
            ),
            (
                "--shape 3x4 -q 3 --cells 4,1 --budget 100000",
                3,
                "precondition violated: no element embedded at box (4, 1)\n",
            ),
            (
                "--shape 3x3 -k 6 --symmetric-all --budget 5",
                4,
                "budget exhausted: ssyt(shape=3,3,3;k=6;op=promote) exceeds the element budget 5\n",
            ),
            # an empty system is vacuously homomesic, and its support is never checked
            ("--shape 2x2 -k 0 --cells 5,5 --budget 100", 0, ""),
            # so is an empty poset system: propeller(4) has no increasing tableau with 4 labels
            ("--family propeller:4 -q 2 --cells 9,9 --budget 100", 0, ""),
            # every system checks the budget before the support
            (
                "--shape 3x3 -k 6 --cells 4,4 --budget 5",
                4,
                "budget exhausted: ssyt(shape=3,3,3;k=6;op=promote) exceeds the element budget 5\n",
            ),
            (
                "--family cayley --cells 9,9 --budget 10",
                4,
                "budget exhausted: syt_poset(cayley) exceeds the element budget 10\n",
            ),
            # a statistic is asked for before a q out of range is checked
            (
                "--shape 3x3 -q 99 --budget 100",
                2,
                "parse error: homomesy needs --cells r1,c1;r2,c2 or --symmetric-all\n",
            ),
            # a q out of range counts no element, and its enumeration refuses it
            (
                "--shape 3x3 -q 99 --cells 1,1 --budget 100",
                3,
                "precondition violated: deficiency 99 out of range [0, 9]\n",
            ),
            (
                "--shape 3x3 -q -1 --cells 1,1 --budget 100",
                3,
                "precondition violated: deficiency -1 out of range [0, 9]\n",
            ),
            # the count refuses a negative ceiling as the enumeration does
            (
                "--shape 2x2 -k -1 --cells 1,1 --budget 100",
                3,
                "precondition violated: ceiling must be nonnegative: -1\n",
            ),
        ],
    )
    def test_error_paths(self, capsys, args, code, err):
        got_code, out, got_err = run(capsys, "homomesy", *args.split())
        assert (got_code, got_err) == (code, err)
        if code == 0:
            assert out.splitlines()[-1] == "verdict: homomesic"
        else:
            assert out == ""

    def test_a_known_size_is_refused_before_enumerating(self, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("enumerated a system known to exceed the budget")

        monkeypatch.setattr("promotab.homomesy.ssyt_words_of_shape", refuse)
        code, out, err = run(capsys, "homomesy", *"--shape 3x3 -k 8 --symmetric-all --budget 14111".split())
        assert (code, out) == (4, "")
        assert err == "budget exhausted: ssyt(shape=3,3,3;k=8;op=promote) exceeds the element budget 14111\n"

    # the systems of every kind that a count refuses before any key is enumerated
    REFUSED = [
        ("--shape 150x150 -k 300", 10, f"ssyt(shape={','.join(['150'] * 150)};k=300;op=promote)"),
        (f"--partition {','.join(['200'] * 10)}", 10, f"syt_poset(ferrers({', '.join(['200'] * 10)}))"),
        ("--family rectangle:12x12", 2_000_000, "syt_poset(rectangle(12x12))"),
        ("--shape 6x6 -q 3", 2_000_000, "inc(rectangle(6x6);q=3)"),
        ("--family rectangle:30x30 -q 5", 10, "inc(rectangle(30x30);q=5)"),
    ]
    REFUSED_IDS = ["shape", "partition", "family", "inc", "inc-family"]

    @pytest.mark.parametrize("args, budget, system", REFUSED, ids=REFUSED_IDS)
    def test_every_system_kind_is_refused_before_enumerating(self, monkeypatch, capsys, args, budget, system):
        def refuse(*_):
            raise AssertionError("enumerated a system over the budget")

        for name in ("ssyt_words_of_shape", "linear_extension_labels", "increasing_labels"):
            monkeypatch.setattr(homomesy, name, refuse)
        code, out, err = run(capsys, "homomesy", *args.split(), "--cells", "1,1", "--budget", str(budget))
        assert (code, out) == (4, "")
        assert err == f"budget exhausted: {system} exceeds the element budget {budget}\n"

    def test_a_partition_poset_is_refused_before_enumerating(self, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("enumerated a system known to exceed the budget")

        monkeypatch.setattr("promotab.homomesy.linear_extension_labels", refuse)
        code, out, err = run(capsys, "homomesy", *"--partition 4,4,4 --cells 1,1 --budget 461".split())
        assert (code, out) == (4, "")
        assert err == "budget exhausted: syt_poset(ferrers(4, 4, 4)) exceeds the element budget 461\n"
        monkeypatch.undo()
        code, out, _ = run(capsys, "homomesy", *"--partition 4,4,4 --cells 1,1 --budget 462".split())
        assert code == 0 and out.endswith("verdict: homomesic\n")

    @pytest.mark.parametrize("args, budget, system", REFUSED, ids=REFUSED_IDS)
    def test_a_refused_system_compiles_no_key_test(self, monkeypatch, capsys, args, budget, system):
        # a system builds its key test before the budget refuses it, so the test must compile lazily
        def refuse(*_):
            raise AssertionError("compiled a key test for a system over the budget")

        monkeypatch.setattr(shapes, "compile", refuse, raising=False)
        monkeypatch.setattr(shapes, "eval", refuse, raising=False)
        code, out, err = run(capsys, "homomesy", *args.split(), "--cells", "1,1", "--budget", str(budget))
        assert (code, out) == (4, "")
        assert err == f"budget exhausted: {system} exceeds the element budget {budget}\n"
        with pytest.raises(AssertionError, match="compiled a key test"):  # the patched generator is the one in use
            shapes.pairwise_test(lt, [(0, 1)])((1, 2))

    @pytest.mark.parametrize(
        "args, budget",
        [
            ("--shape 1x1 -k 300", 1000),
            ("--shape 1x1 -k 65536", 65536),  # a key test of 3-byte fields
            ("--shape 1x2 -k 3", 1000),
            ("--family cayley", 1000),
            ("--shape 2x3 -q 2", 1000),
        ],
    )
    def test_a_partition_compiles_no_key_test(self, monkeypatch, capsys, args, budget):
        # the packed key test generates no code, on tuple keys (k = 300 and 65536) as on bytes keys
        def refuse(*_):
            raise AssertionError("compiled a key test")

        monkeypatch.setattr(shapes, "compile", refuse, raising=False)
        monkeypatch.setattr(shapes, "eval", refuse, raising=False)
        code, out, err = run(capsys, "homomesy", *args.split(), "--cells", "1,1", "--budget", str(budget))
        assert code in (0, 1) and err == "" and "\nverdict: " in out

    def test_a_q_out_of_range_builds_no_key_test(self, monkeypatch, capsys):
        # the key test of d = |P| - q labels would hold every label 1..d
        built = []
        labelling_keys_test = posets.FinitePoset.labelling_keys_test

        def recorded(poset, d, *pack):
            built.append(d)
            return labelling_keys_test(poset, d, *pack) if 0 <= d <= poset.size else lambda keys: 0 if keys else None

        monkeypatch.setattr(posets.FinitePoset, "labelling_keys_test", recorded)
        code, out, err = run(capsys, "homomesy", *"--shape 3x3 -q -1000000000 --cells 1,1 --budget 100".split())
        assert (code, out, err) == (3, "", "precondition violated: deficiency -1000000000 out of range [0, 9]\n")
        assert built == []
        code, _, _ = run(capsys, "homomesy", *"--shape 3x3 -q 3 --cells 1,1 --budget 1000".split())
        assert code == 0 and built == [6]

    def test_every_system_counts_its_enumerated_size(self, monkeypatch, capsys):
        systems = []
        partition = homomesy.partition_orbits

        def recorded(system, budget):
            systems.append(system)
            return partition(system, budget)

        monkeypatch.setattr(homomesy, "partition_orbits", recorded)
        kinds = ("--shape 2x3 -k 4", "--partition 3,2,1 -k 3", "--partition 3,3", "--partition 3,2,1")
        kinds += ("--family cayley", "--family rectangle:2x3", "--shape 3x3 -q 2", "--family propeller:4 -q 1")
        for args in kinds:
            code, _, _ = run(capsys, "homomesy", *args.split(), "--cells", "1,1", "--budget", "1000")
            assert code in (0, 1)
        assert len(systems) == len(kinds)
        for system in systems:
            size = len(list(system.enumerate()))
            # the exact size up to any cap it fits under, and over every cap it exceeds
            assert [system.count(cap) for cap in (size, size + 1, 10**9)] == [size] * 3, system.description
            assert all(system.count(cap) > cap for cap in range(size)), system.description

    def test_symmetric_all_checks_the_shape_before_building_statistics(self, monkeypatch, capsys):
        def refuse(_):
            raise AssertionError("statistics built before the shape was checked")

        monkeypatch.setattr("promotab.homomesy.symmetric_subsets", refuse)
        args = "homomesy --partition 7,7,7,7,1 -k 3 --symmetric-all --budget 10".split()
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err == "parse error: --symmetric-all on ssyt systems needs a rectangular shape\n"
        code, _, err = run(capsys, *args, "--cells", "1,1")
        assert code == 2
        assert err == "parse error: pass either --cells or --symmetric-all, not both\n"

    def test_symmetric_all_checks_the_rotation_before_building_statistics(self, monkeypatch, capsys):
        def refuse(_):
            raise AssertionError("statistics built before the rotation was checked")

        monkeypatch.setattr("promotab.homomesy.symmetric_subsets", refuse)
        code, out, err = run(capsys, "homomesy", *"--partition 2,2 --symmetric-all --budget 10".split())
        assert (code, out) == (2, "")
        assert err == (
            "parse error: --symmetric-all on linear extensions needs a --family poset; --partition has no rotation\n"
        )

    @pytest.mark.parametrize(
        "args",
        ["--partition 1100 --cells 1,1 --budget 10", "--partition 1100 -k 1 --cells 1,1 --budget 10"],
        ids=["labels", "cells"],
    )
    def test_a_chain_past_the_recursion_limit_gets_a_verdict(self, capsys, args):
        code, out, err = run(capsys, "homomesy", *args.split())
        assert (code, err) == (0, "")
        assert out.endswith("  orbit size=1 average=1/1\nverdict: homomesic\n")

    def test_a_long_chain_gets_a_verdict(self, capsys):
        code, out, err = run(capsys, "homomesy", *"--partition 800 --cells 1,1 --budget 10".split())
        assert (code, err) == (0, "")
        assert out.endswith("  orbit size=1 average=1/1\nverdict: homomesic\n")

    def test_oversize_report_is_refused_after_the_partition_before_any_verdict(self, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("a verdict was computed for a report over the budget")

        monkeypatch.setattr("promotab.homomesy.verdict", refuse)
        code, out, err = run(capsys, "homomesy", *"--family cayley --symmetric-all --budget 1000".split())
        assert (code, out) == (4, "")
        assert err == (
            "budget exhausted: syt_poset(cayley): 256 statistics x 7 orbits = 1792 report rows"
            " exceed the budget 1000\n"
        )

    @pytest.mark.parametrize("m, statistics", [(6, 2**18), (7, 2**25)])
    def test_symmetric_all_on_an_empty_system_is_counted_before_building_statistics(
        self, monkeypatch, capsys, m, statistics
    ):
        # k = 1 fills no column of m > 1 boxes, so each statistic is one vacuous report row
        def refuse(_):
            raise AssertionError("statistics built before they were counted")

        monkeypatch.setattr("promotab.homomesy.symmetric_subsets", refuse)
        code, out, err = run(capsys, "homomesy", "--shape", f"{m}x{m}", "-k", "1", "--symmetric-all", "--budget", "10")
        assert (code, out) == (4, "")
        assert err == (
            f"budget exhausted: ssyt(shape={','.join([str(m)] * m)};k=1;op=promote): {statistics} statistics"
            " exceed the budget 10; each is at least one report row\n"
        )

    def test_symmetric_all_on_an_empty_system_within_the_budget_is_vacuous(self, capsys):
        code, out, err = run(capsys, "homomesy", *"--shape 2x2 -k 0 --symmetric-all --budget 4".split())
        assert (code, err, out.count("verdict: homomesic"), out.count("orbit size")) == (0, "", 4, 0)
        code, out, err = run(capsys, "homomesy", *"--shape 2x2 -k 0 --symmetric-all --budget 3".split())
        assert (code, out) == (4, "")
        assert err == (
            "budget exhausted: ssyt(shape=2,2;k=0;op=promote): 4 statistics exceed the budget 3;"
            " each is at least one report row\n"
        )

    @pytest.mark.parametrize(
        "args, err",
        [
            ("--shape 2x2 -k 3 -q 1", "pass either -k or -q, not both"),
            ("--family cayley -k 3 -q 1", "pass either -k or -q, not both"),
            ("--shape 2x2 --partition 3,2 -k 3", "pass one of --partition, --shape or --family, not several"),
            ("--family cayley --shape 3x4 -q 1", "pass one of --partition, --shape or --family, not several"),
            ("--family cayley --partition 2,2", "pass one of --partition, --shape or --family, not several"),
            ("--family cayley --partition 2,2 --shape 2x2", "pass one of --partition, --shape or --family, not several"),
        ],
    )
    def test_conflicting_system_selectors_are_refused_before_building(self, monkeypatch, capsys, args, err):
        def refuse(*_):
            raise AssertionError("built a system from conflicting selectors")

        for name in ("homomesy.ssyt_system", "homomesy.inc_system", "homomesy.syt_poset_system",
                     "posets.build_cominuscule", "posets.ferrers_poset"):
            monkeypatch.setattr(f"promotab.{name}", refuse)
        code, out, got = run(capsys, "homomesy", *args.split(), "--cells", "1,1", "--budget", "100")
        assert (code, out, got) == (2, "", f"parse error: {err}\n")

    def test_a_repeated_box_is_refused(self, capsys):
        code, out, err = run(capsys, "homomesy", *"--shape 2x2 -k 3 --cells 1,1;2,2;1,1 --budget 100".split())
        assert (code, out, err) == (2, "", "parse error: --cells names box (1, 1) more than once\n")

    @pytest.mark.parametrize(
        "args, kind",
        [
            ("--shape 2x3 -q 1", "inc"),
            ("--family cayley -q 2", "inc"),
            ("--family cayley", "syt_poset"),
            ("--partition 3,2", "syt_poset"),
        ],
    )
    def test_poset_systems_refuse_operators_other_than_promote(self, monkeypatch, capsys, args, kind):
        def refuse(*_):
            raise AssertionError("walked a system whose operator is refused")

        monkeypatch.setattr("promotab.homomesy.partition_orbits", refuse)
        argv = [*args.split(), "--operator", "promote-inverse", "--cells", "1,1", "--budget", "1000"]
        code, out, err = run(capsys, "homomesy", *argv)
        message = f"--operator promote-inverse needs an ssyt system (-k); {kind} systems run promote only"
        assert (code, out, err) == (2, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("args", ["--shape 2x3 -q 1", "--family cayley", "--partition 3,2"])
    def test_poset_systems_accept_an_explicit_promote(self, capsys, args):
        argv = [*args.split(), "--cells", "1,1", "--budget", "1000"]
        assert run(capsys, "homomesy", *argv, "--operator", "promote") == run(capsys, "homomesy", *argv)

    def test_threads_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "homomesy", "--shape", "2x3", "-k", "4",
            "--cells", "1,1;2,3", "--budget", "1000", "--threads", "4", "--format", "json",
        )
        assert code == 0


class TestCounterexample:
    def test_prints_exact_averages_and_exits_one(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 1
        assert "average=91/9" in out
        assert "average=10" in out
        assert "verdict: violated" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["first"]["average"] == "91/9"
        assert payload["second"]["average"] == "10/1"
        assert payload["first"]["orbit_size"] == payload["second"]["orbit_size"] == 9


class TestFamilies:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "families")
        assert code == 0
        assert "cayley" in out and "freudenthal" in out

    def test_poset_text(self, capsys):
        code, out, _ = run(capsys, "families", "--family", "cayley")
        assert code == 0
        assert out.splitlines()[0] == "elements=16"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "families", "--family", "octonion")
        assert code == 2


MALFORMED_INPUT = {
    "empty": "",
    "no-header": "1 2\n3\n",
    "bad-header": "k=x\n1\n",
    "non-integer": "k=3\n1 x\n",
    "out-of-range": "k=3\n1 4\n",
    "not-semistandard-or-increasing": "k=3\n2 1\n3 3\n",
    "skew": "k=3\n. 1\n2\n",
    "rows-not-a-shape": "k=3\n1\n2 3\n",
}
INPUT_VERBS = {
    "promote": (),
    "evacuate": (),
    "orbit": (),
    "growth": (),
    "dis": ("--cells", "1,1"),
    "paths": (),
    "kpromote": (),
    "kevacuate": (),
}


MALFORMED_FLAGS = [
    ("homomesy", "--shape 0x2 -k 3 --cells 1,1 --budget 100"),
    ("homomesy", "--partition 2,3 -k 3 --cells 1,1 --budget 100"),
    ("homomesy", "--partition 0 -k 3 --cells 1,1 --budget 100"),
    ("homomesy", "--family propeller:2 --cells 1,1 --budget 100"),
    ("homomesy", "--family propeller:x --cells 1,1 --budget 100"),
    ("homomesy", "--family cayley:3 --cells 1,1 --budget 100"),
    ("homomesy", "--shape 2x2 -q -1 --cells 1,1 --budget 100"),
    ("homomesy", "--shape 2x2 -q 99 --cells 1,1 --budget 100"),
    ("homomesy", "--shape 2x2 -k -3 --cells 1,1 --budget 100"),
    ("homomesy", "--shape 2x2 -k 3 --cells 1,1 --budget 0"),
    ("homomesy", "--shape 2x2 -k 3 --cells 1,x --budget 100"),
    ("homomesy", "--shape 2x2 -k 3 --cells 1,1;1,1 --budget 100"),
    ("homomesy", "--shape 2x2 -k 3 --cells '' --budget 100"),
    ("homomesy", "--shape 2x2 -k 3 --cells ';' --budget 100"),
    ("homomesy", "--shape 2x2 -k x --cells 1,1 --budget 100"),
    ("homomesy", "--shape 2x2 -k 3 --cells 1,1 --budget 100 --bogus"),
    ("families", "--format xml"),
    ("families", "--family rectangle:1x"),
    ("growth", "--height 1"),
    ("dis", "--cells 1,1;1,2"),
    ("paths", "--cells 9,9"),
]
FLAG_INPUT = {"growth": T_MAIN_TEXT, "dis": T_MAIN_TEXT, "paths": "k=4\n1 2\n3 4\n"}


@pytest.mark.parametrize("verb, flags", MALFORMED_FLAGS, ids=[f"{v} {f}".replace(" ", "_") for v, f in MALFORMED_FLAGS])
def test_malformed_flag_values_are_refused_in_one_line(capsys, verb, flags):
    text = ("--text", FLAG_INPUT[verb]) if verb in FLAG_INPUT else ()
    code, out, err = run(capsys, verb, *shlex.split(flags), *text)
    assert code in (2, 3) and out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err


def test_usage_errors_are_one_parse_error_line_and_help_is_unchanged(capsys):
    assert run(capsys) == (2, "", "parse error: the following arguments are required: command\n")
    code, out, err = run(capsys, *"homomesy --shape 2x2 -k x --cells 1,1 --budget 100".split())
    assert (code, out, err) == (2, "", "parse error: argument -k/--ceiling: invalid int value: 'x'\n")
    with pytest.raises(SystemExit) as exc:
        main(["homomesy", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: promotab homomesy")


@pytest.mark.parametrize("case", MALFORMED_INPUT)
@pytest.mark.parametrize("verb", INPUT_VERBS)
def test_malformed_input_is_refused_in_one_line(capsys, verb, case):
    code, out, err = run(capsys, verb, "--text", MALFORMED_INPUT[case], *INPUT_VERBS[verb])
    assert code in (2, 3) and out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err


def run_module(*argv, **options) -> subprocess.CompletedProcess:
    """`python -m promotab` with argv, in a new process, on this checkout's
    library; `options` go to :func:`subprocess.run`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "promotab", *argv], capture_output=True, text=True, env=env, **options)


@pytest.mark.parametrize("cells", ["1,1", "1,1;2,2"])
def test_python_dash_m_runs_the_command_line_tool(capsys, cells):
    argv = ["homomesy", "--shape", "2x2", "-k", "4", "--cells", cells, "--budget", "1000"]
    done = run_module(*argv)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


def test_a_count_of_a_hundred_thousand_bits_is_refused_in_bounded_time():
    # the hook content products of 90,000 cells, cancelled and multiplied as
    # balanced trees, take about 0.2 s; a running product of fractions took 3 s
    started = time.perf_counter()
    done = run_module("homomesy", "--shape", "300x300", "-k", "600", "--cells", "1,1", "--budget", "10")
    elapsed = time.perf_counter() - started
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("budget exhausted: ssyt(shape=300,300,")
    assert done.stderr.endswith(";k=600;op=promote) exceeds the element budget 10\n")
    assert done.stderr.count("\n") == 1
    assert elapsed < 2.5


def test_a_system_with_no_element_builds_nothing_of_its_shape():
    # 1,000 rows over a ceiling of 2: the count is 0 before any hook is
    # found, and the enumeration reads the shape alone, so the layout of a
    # million cells, with its step, key test and box index, is never built;
    # building them took about 6 s and 900 MB, past the limit set here
    import resource

    limit = 256 << 20

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    started = time.perf_counter()
    argv = "homomesy --shape 1000x1000 -k 2 --cells 1,1 --budget 10".split()
    done = run_module(*argv, preexec_fn=limited)
    elapsed = time.perf_counter() - started
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("system: ssyt(shape=1000,1000,")
    assert done.stdout.endswith("statistic: cells:[(1, 1)]\nverdict: homomesic\n")
    assert elapsed < 3


def test_symmetric_all_past_the_digits_str_writes_is_refused_as_a_power_of_two():
    # 2^500000 statistics on a system with no element: the classes are
    # counted from the rotate's images, a range, and the count is written
    # as a power of two, since `str` refuses an int of over 4300 digits
    import resource

    limit = 256 << 20

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    started = time.perf_counter()
    done = run_module(*"homomesy --shape 1000x1000 -k 2 --symmetric-all --budget 10".split(), preexec_fn=limited)
    elapsed = time.perf_counter() - started
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("budget exhausted: ssyt(shape=1000,1000,")
    assert done.stderr.endswith(
        ";k=2;op=promote): 2^500000 statistics exceed the budget 10; each is at least one report row\n"
    )
    assert elapsed < 3


def test_symmetric_all_rows_past_the_digits_str_writes_are_refused_as_a_product(capsys):
    # one row of 30,000 boxes below a ceiling of 1 is one element, one orbit
    code, out, err = run(capsys, *"homomesy --shape 1x30000 -k 1 --symmetric-all --budget 10".split())
    assert (code, out) == (4, "")
    assert err == (
        "budget exhausted: ssyt(shape=30000;k=1;op=promote): 2^15000 statistics x 1 orbits"
        " = 1 x 2^15000 report rows exceed the budget 10\n"
    )
