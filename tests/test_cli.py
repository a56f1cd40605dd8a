import io
import json

import pytest

from promotab.cli import main

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

        monkeypatch.setattr("promotab.homomesy.enumerate_ssyt", refuse)
        code, out, err = run(capsys, "homomesy", *"--shape 3x3 -k 8 --symmetric-all --budget 14111".split())
        assert (code, out) == (4, "")
        assert err == "budget exhausted: ssyt(shape=3,3,3;k=8;op=promote) exceeds the element budget 14111\n"

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


@pytest.mark.parametrize("case", MALFORMED_INPUT)
@pytest.mark.parametrize("verb", INPUT_VERBS)
def test_malformed_input_is_refused_in_one_line(capsys, verb, case):
    code, out, err = run(capsys, verb, "--text", MALFORMED_INPUT[case], *INPUT_VERBS[verb])
    assert code in (2, 3) and out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
