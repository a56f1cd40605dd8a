"""The homomesy JSON writer against its definition, and the CLI's homomesy
output against pins.

`reports_to_json` must write the bytes of ``json.dumps(payload,
sort_keys=True, indent=2)`` over `report_to_jsonable`, its definition in
`util`.  Each argv below is run in both formats; the JSON is compared with
that definition over the reports the CLI built, the ascii with the line
format below, and both, with their exit codes and stderr, with the
digests in ``report_pins.json``.  Rewrite the pins only for a deliberate change of
output: ``PYTHONPATH=src python tests/test_report_json.py --pin``.
Random writes of reports on several partitions are checked against the
same two definitions, and the summaries the reports build from their
integer sums against `orbit_average` on objects.  Only the JSON writer
builds orbit representatives, one per orbit of a partition.
"""

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promotab import cli, homomesy
from promotab.cli import main
from promotab.ktableaux import IncreasingTableau
from promotab.posets import LinearExtension, build_cominuscule
from promotab.shapes import Tableau
from util import element_of, orbit_walks, report_to_jsonable

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


def same_text(got: str, expected: str) -> None:
    """Assert ``got == expected``; on a difference, fail naming the first
    differing line, so a multi-megabyte output is never diffed whole."""
    if got != expected:
        got_lines, expected_lines = got.splitlines(keepends=True), expected.splitlines(keepends=True)
        pairs = zip(got_lines, expected_lines)
        line = next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(got_lines), len(expected_lines)))
        pytest.fail(
            f"the output differs first at line {line + 1} of {len(got_lines)} (expected {len(expected_lines)}): "
            f"{got_lines[line:line + 1]} != {expected_lines[line:line + 1]}",
            pytrace=False,
        )


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
            same_text(out, json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True, indent=2) + "\n")
        else:
            same_text(out, "".join(f"{line}\n" for r in reports for line in ascii_lines(r)))
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


def _boxes(shape) -> list:
    return [(r, c) for r, length in enumerate(shape, start=1) for c in range(1, length + 1)]


def _items(poset) -> list:
    """A poset's elements and their boxes, so that a support can name one
    key position twice."""
    return [*range(1, poset.size + 1), *sorted((poset.embedding or {}).values())]


def _writer_systems() -> dict:
    """Small partitions of every kind, two of them empty, each with the
    support items its statistics draw from and its rotate-fixed supports,
    whose orbit sums often coincide."""
    rect = build_cominuscule("rectangle", 3, 3)
    cayley = build_cominuscule("cayley")
    propeller = build_cominuscule("propeller", 4)
    systems = {
        "ssyt": (homomesy.ssyt_system((3, 3), 3), _boxes((3, 3))),
        "ssyt-inverse": (homomesy.ssyt_system((3, 2), 3, "promote_inverse"), _boxes((3, 2))),
        "ssyt-empty": (homomesy.ssyt_system((3, 3), 0), _boxes((3, 3))),
        "inc": (homomesy.inc_system(rect, 2), _items(rect)),
        "inc-empty": (homomesy.inc_system(propeller, 2), _items(propeller)),
        "syt-poset": (homomesy.syt_poset_system(cayley), _items(cayley)),
    }
    return {
        name: (
            homomesy.partition_orbits(system, budget=10_000),
            items,
            [s.support for s in homomesy.symmetric_subsets(system)] if system.rotate else [frozenset()],
        )
        for name, (system, items) in systems.items()
    }


@pytest.fixture(scope="module")
def writer_systems() -> dict:
    # built when a test first asks, so that a broken partition fails the tests that use it, not the module's collection
    return _writer_systems()


@st.composite
def report_lists(draw, writer_systems: dict) -> list:
    """Zero to four reports, on one partition or several, of random or
    rotate-fixed supports, each possibly repeated."""
    reports = []
    for _ in range(draw(st.integers(0, 4))):
        partition, items, symmetric = writer_systems[draw(st.sampled_from(sorted(writer_systems)))]
        support = draw(st.one_of(st.frozensets(st.sampled_from(items), max_size=4), st.sampled_from(symmetric)))
        name = draw(st.text(alphabet='ab"\\\né', max_size=4))
        reports += [homomesy.verdict(partition, homomesy.CellStatistic(support, name))] * draw(st.integers(1, 2))
    return reports


def _report(writer_systems: dict, system: str, *support) -> homomesy.HomomesyReport:
    return homomesy.verdict(writer_systems[system][0], homomesy.CellStatistic(frozenset(support), "s"))


def check_writes(reports: list) -> None:
    """Both writers write the reports as their definitions do."""
    payload = [report_to_jsonable(r) for r in reports]
    expected = json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True, indent=2)
    assert homomesy.reports_to_json(reports) == expected
    assert cli._homomesy_text(reports) == "".join(f"{line}\n" for r in reports for line in ascii_lines(r))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_random_writes_equal_the_definitions(writer_systems, data):
    check_writes(data.draw(report_lists(writer_systems)))


# each report as its system's name and its support
EXAMPLE_WRITES = {
    # every orbit of the inc system has one pair on two rotate-fixed supports, and a witness on (1, 2)
    "shared-pairs": [("inc", 1, 9), ("inc", (1, 2), (3, 2)), ("inc", (1, 2))],
    # element 1 and its box, an empty support, an empty partition and a violated one
    "edge-supports": [("syt-poset", 1, (1, 1)), ("ssyt",), ("ssyt-empty", (9, 9)), ("ssyt", (1, 1))],
    "empty-inc": [("inc-empty",)],
}


@pytest.mark.parametrize("writes", EXAMPLE_WRITES.values(), ids=EXAMPLE_WRITES)
def test_example_writes_equal_the_definitions(writer_systems, writes):
    check_writes([_report(writer_systems, *write) for write in writes])


def test_the_examples_cover_what_the_writer_shares(writer_systems):
    def report(system, *support):
        return _report(writer_systems, system, *support)

    shared = [report("inc", 1, 9), report("inc", (1, 2), (3, 2))]
    assert len({(s, n) for r in shared for s, n in zip(r.sums, r.partition.sizes)}) == 1 < len(shared[0].sums)
    assert report("syt-poset", 1, (1, 1)).sums == tuple(2 * s for s in report("syt-poset", 1).sums)
    assert report("ssyt-empty", (9, 9)).sums == () and report("ssyt").sums == (0,) * len(report("ssyt").sums)
    assert report("ssyt", (1, 1)).witness is not None and report("inc", (1, 2)).witness is not None


@pytest.mark.parametrize(
    "system",
    [homomesy.ssyt_system((3, 3), 3), homomesy.inc_system(build_cominuscule("rectangle", 3, 4), 3)],
    ids=["ssyt", "inc-violated"],
)
def test_only_the_json_writer_builds_representatives_once_per_orbit(system):
    calls = []

    def representative(key, _representative=system.representative):
        calls.append(key)
        return _representative(key)

    system = replace(system, representative=representative)
    partition = homomesy.partition_orbits(system, budget=100_000)
    assert calls == [] and len(partition.leads) > 1
    reports = [homomesy.verdict(partition, statistic) for statistic in homomesy.symmetric_subsets(system)]
    assert len(reports) > 1
    cli._homomesy_text(reports)
    assert calls == []
    homomesy.reports_to_json(reports)
    assert calls == list(partition.leads)


# one system of each kind, with the class and the ceiling or poset that rebuild its objects
OBJECT_SYSTEMS = {
    "ssyt": (Tableau, 3),
    "inc": (IncreasingTableau, build_cominuscule("rectangle", 3, 3)),
    "syt-poset": (LinearExtension, build_cominuscule("cayley")),
}


def _orbit_objects(partition, kind, over) -> list[list]:
    """Each orbit's objects, walked by stepping keys and rebuilt by their
    validating constructor, ordered by the orbit's least key."""
    walks = orbit_walks(partition.system, sum(partition.sizes))
    return [[element_of(partition.system, key, kind, over) for key in walk] for walk in walks]


@pytest.fixture(scope="module")
def orbit_objects(writer_systems) -> dict:
    return {name: _orbit_objects(writer_systems[name][0], *spec) for name, spec in OBJECT_SYSTEMS.items()}


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(OBJECT_SYSTEMS)), st.data())
def test_summaries_equal_orbit_averages_on_objects(writer_systems, orbit_objects, name, data):
    partition, items, _ = writer_systems[name]
    statistic = homomesy.CellStatistic(data.draw(st.frozensets(st.sampled_from(items), max_size=4)), "s")
    report = homomesy.verdict(partition, statistic)
    averages = [homomesy.orbit_average(objects, statistic) for objects in orbit_objects[name]]
    assert [o.average for o in report.orbits] == averages
    representatives = map(partition.system.representative, partition.leads)
    assert [(o.size, o.representative) for o in report.orbits] == list(zip(partition.sizes, representatives))
    first_other = next((j for j, a in enumerate(averages) if a != averages[0]), None)
    assert report.witness == (None if first_other is None else (report.orbits[0], report.orbits[first_other]))
    assert report.common_average == (averages[0] if first_other is None else None)


if __name__ == "__main__" and sys.argv[1:] == ["--pin"]:
    PINS.write_text(
        json.dumps({argv: digest([list(run(argv, fmt)) for fmt in ("ascii", "json")]) for argv in ARGVS}, indent=1)
        + "\n"
    )
