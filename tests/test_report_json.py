"""The homomesy JSON writer against its definition, and the CLI's homomesy
output against pins.

`reports_to_json` must write the bytes of ``json.dumps(payload,
sort_keys=True, indent=2)`` over `report_to_jsonable`, its definition in
`util`.  Each argv below is run in both formats; the JSON is compared with
that definition over the reports the CLI built, the ascii with the line
format below, and both, with their exit codes and stderr, with the
digests in ``report_pins.json``.  Rewrite the pins only for a deliberate change of
output: ``PYTHONPATH=src python tests/test_report_json.py --pin``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from promotab import homomesy
from promotab.cli import main
from util import report_to_jsonable

PINS = Path(__file__).resolve().parent / "report_pins.json"
BUDGET = "100000"


def _systems() -> list[str]:
    """The systems of acceptance criteria c03, c09 and c10 as CLI flags."""
    systems = [f"--shape {m}x{n} -k {k}" for m, n, kmax in ((2, 2, 5), (2, 3, 5), (3, 3, 4)) for k in range(1, kmax + 1)]
    systems += [f"--family shifted_staircase:{n}" for n in (1, 2, 3)]
    systems += [f"--family propeller:{n}" for n in (3, 4)]
    systems += [f"--family rectangle:{m}x{n}" for m in range(1, 11) for n in range(1, 11) if m * n <= 10]
    systems += [f"--shape 2x{n} -q {q}" for n in range(1, 6) for q in range(2 * n)]
    return systems


ARGVS = [f"{system} {statistic}" for system in _systems() for statistic in ("--symmetric-all", "--cells 1,1")]
ARGVS += [
    "--shape 3x3 -k 4 --operator promote-inverse --symmetric-all",
    "--shape 2x3 -k 3 --operator promote-inverse --cells 1,1;2,3",
    "--shape 3x4 -q 3 --cells 2,2;2,3",  # violated, with a witness
    "--shape 3x4 -q 3 --symmetric-all",
    "--shape 2x2 -k 0 --cells 1,1",  # the empty system
    "--shape 2x2 -k 0 --symmetric-all",
    "--shape 1x1 -k 1 --cells 1,1",
    "--shape 1x1 -k 3 --symmetric-all",
]


def run(argv: str, fmt: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one homomesy run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["homomesy", *argv.split(), "--budget", BUDGET, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def ascii_lines(report) -> list[str]:
    frac = homomesy.fraction_str
    lines = [f"system: {report.system}", f"statistic: {report.statistic}"]
    lines += [f"  orbit size={o.size} average={frac(o.average)}" for o in report.orbits]
    lines.append(f"verdict: {report.verdict}")
    if report.witness:
        lines.append(f"witness: {frac(report.witness[0].average)} != {frac(report.witness[1].average)}")
    return lines


def digest(runs) -> str:
    return hashlib.sha256(json.dumps(runs).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", ARGVS)
def test_output_equals_the_definition_and_the_pin(argv, monkeypatch):
    reports = []
    verdict = homomesy.verdict
    monkeypatch.setattr(homomesy, "verdict", lambda *args: reports.append(verdict(*args)) or reports[-1])
    runs = []
    for fmt in ("ascii", "json"):
        reports.clear()
        code, out, err = run(argv, fmt)
        assert (code, err) == (1 if any(r.verdict == "violated" for r in reports) else 0, "")
        if fmt == "json":
            payload = [report_to_jsonable(r) for r in reports]
            assert out == json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True, indent=2) + "\n"
        else:
            assert out == "".join(f"{line}\n" for r in reports for line in ascii_lines(r))
        runs.append([code, out, err])
    assert digest(runs) == json.loads(PINS.read_text())[argv]


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_the_writer_equals_the_definition_on_any_number_of_reports(count):
    system = homomesy.ssyt_system((2, 2), 3)
    partition = homomesy.partition_orbits(system, budget=100)
    stats = list(homomesy.symmetric_subsets(system))[:count]
    reports = [homomesy.verdict(partition, s) for s in stats]
    payload = [report_to_jsonable(r) for r in reports]
    expected = json.dumps(payload[0] if count == 1 else payload, sort_keys=True, indent=2)
    assert homomesy.reports_to_json(reports) == expected


def test_strings_are_escaped_as_json_dumps_escapes_them():
    partition = homomesy.partition_orbits(homomesy.ssyt_system((1,), 2), budget=10)
    report = homomesy.verdict(partition, homomesy.CellStatistic(frozenset({(1, 1)}), 'a "quoted" \\ name é\n'))
    expected = json.dumps(report_to_jsonable(report), sort_keys=True, indent=2)
    assert homomesy.reports_to_json([report]) == expected


def test_json_reports_never_use_the_pure_python_indent_encoder(monkeypatch, capsys):
    def refuse(*_, **__):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    code = main(["homomesy", "--family", "cayley", "--symmetric-all", "--budget", BUDGET, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)) == 256


if __name__ == "__main__" and sys.argv[1:] == ["--pin"]:
    PINS.write_text(
        json.dumps({argv: digest([list(run(argv, fmt)) for fmt in ("ascii", "json")]) for argv in ARGVS}, indent=1)
        + "\n"
    )
