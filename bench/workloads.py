"""Request catalog, seeded selection and exact oracles of the benchmark.

Every request the benchmark can send is listed here, and every one has a
pin in ``pins.json``: the SHA-256 of its output and its exit code as the
seed implementation produced them.  The workload seed only reorders the
requests and picks each one-statistic request's support from the choices
listed below, so every generated request has a pin.

Homomesy requests are ``promotab`` command lines, run through
``promotab.cli.main``.  Identity requests call library functions directly
and render what they computed as text, so both kinds are checked the same
way: output digest, exit code, and the oracles in :func:`check`.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from promotab import dynamics, growth, paths, shapes

PINS = Path(__file__).resolve().parent / "pins.json"
BUDGET = "40000"


@dataclass(frozen=True)
class Request:
    """One closed-loop request and what its output must satisfy.

    ``argv`` is set for CLI requests; ``check_kind`` and ``params`` name
    the library check of identity requests.  ``elements`` is the exact
    system size, or tableau count, that the output must show.
    ``max_label`` k enables the closed-form average oracle: every orbit
    of a rotate-symmetric support S averages (k+1)|S|/2.  That holds on
    SSYT rectangles with ceiling k, and on the 78 linear extensions of
    cayley (k = 16 labels).  ``witnesses`` lists averages a violation must
    show.
    """

    id: str
    argv: tuple[str, ...] = ()
    check_kind: str = ""
    params: tuple = ()
    elements: int = 0
    refused: bool = False
    max_label: int | None = None
    witnesses: frozenset = frozenset()


def _cli(args: str, **fields) -> Request:
    argv = ("homomesy", "--format", "json", *args.split())
    if "--budget" not in argv:
        argv += ("--budget", BUDGET)
    return Request(id=" ".join(argv), argv=argv, **fields)


def many_stats() -> list[Request]:
    return [
        _cli("--shape 3x3 -k 6 --symmetric-all", elements=shapes.count_ssyt((3, 3, 3), 6), max_label=6),
        _cli(
            "--shape 3x4 -q 3 --symmetric-all",
            elements=882,
            witnesses=frozenset({Fraction(91, 9), Fraction(10)}),
        ),
        _cli("--family cayley --symmetric-all", elements=78, max_label=16),
    ]


def one_stat_catalog() -> list[list[Request]]:
    """Each inner list holds the alternatives the seed chooses from."""
    ssyt = {"elements": shapes.count_ssyt((3, 3, 3), 8), "max_label": 8}
    choices = (
        ("--shape 3x3 -k 8", ("1,1;3,3", "2,2", "1,3;3,1"), ssyt),
        ("--shape 3x3 -k 8 --operator promote-inverse", ("2,2", "1,1;3,3", "2,1;2,3"), ssyt),
        ("--family freudenthal", ("1,1", "1,1;9,9", "4,6"), {"elements": 13110}),
        ("--shape 3x5 -q 3", ("2,2;2,4", "1,1;3,5", "2,3"), {"elements": 34320}),
    )
    groups = [
        [_cli(f"{base} --cells {cells}", **oracle) for cells in cell_choices]
        for base, cell_choices, oracle in choices
    ]
    # An expected refusal: one element over budget, exit 4, nothing on stdout.
    groups.append([_cli("--shape 3x3 -k 8 --symmetric-all --budget 14111", refused=True)])
    return groups


def _partitions(max_cells: int):
    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for size in range(1, max_cells + 1):
        yield from gen(size, size)


def _shape_text(shape) -> str:
    return ",".join(map(str, shape))


def identity_sweep() -> list[Request]:
    requests = []
    for shape in _partitions(7):
        for k in range(1, 5):
            requests.append(
                Request(
                    id=f"evacuation {_shape_text(shape)} k={k}",
                    check_kind="evacuation",
                    params=(shape, k),
                    elements=shapes.count_ssyt(shape, k),
                )
            )
    for shape in _partitions(6):
        for k in range(1, 5):
            requests.append(
                Request(
                    id=f"dis {_shape_text(shape)} k={k}",
                    check_kind="dis",
                    params=(shape, k),
                    elements=shapes.count_ssyt(shape, k),
                )
            )
    for m in range(1, 11):
        for n in range(1, 10 // m + 1):
            requests.append(
                Request(
                    id=f"flow {m}x{n}",
                    check_kind="flow",
                    params=(m, n),
                    elements=shapes.count_syt((n,) * m),
                )
            )
    return requests


def catalog() -> list[Request]:
    """Every request any seed can generate, in a fixed order."""
    return many_stats() + [r for group in one_stat_catalog() for r in group] + identity_sweep()


def select(workload: str, seed: int) -> list[Request]:
    """The requests of one pass, reordered and chosen by the seed."""
    rng = random.Random(seed)
    if workload == "many-stats":
        requests = many_stats()
    elif workload == "one-stat-large":
        requests = [rng.choice(group) for group in one_stat_catalog()]
    elif workload == "identity-sweep":
        requests = identity_sweep()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


# -- identity checks -------------------------------------------------------------


def _evacuation_identities(shape, k) -> str:
    """evacuate is an involution, conjugates promote to its inverse, and
    equals the toggle product, on every SSYT of the shape."""
    images = []
    broken = 0
    for t in shapes.enumerate_ssyt(shape, k):
        e = dynamics.evacuate(t)
        if dynamics.evacuate(e) != t:
            broken += 1
        if dynamics.evacuate(dynamics.promote(t)) != dynamics.promote_inverse(e):
            broken += 1
        if dynamics.evacuate_via_toggles(t) != e:
            broken += 1
        images.append(e.rows)
    return f"checked={len(images)} broken={broken} images={images}"


def _dis_invariance(shape, k) -> str:
    report = growth.check_dis_invariance(shape, k)
    return f"checked={report.tableaux_checked} broken={len(report.violations)}"


def _flow_invariance(m, n) -> str:
    """Flow multisets are evacuation invariant, and the trajectory of t
    is the reversed promotion path of evacuate(t)."""
    report = paths.check_flow_invariance(m, n)
    broken = len(report.violations)
    for t in shapes.enumerate_syt((n,) * m):
        tau = paths.trajectory(t)
        rho = paths.promotion_path(dynamics.evacuate(t))
        if tau.boxes != rho.boxes[::-1] or tau.labels != rho.labels[::-1]:
            broken += 1
    return f"checked={report.tableaux_checked} broken={broken}"


IDENTITY_CHECKS = {
    "evacuation": _evacuation_identities,
    "dis": _dis_invariance,
    "flow": _flow_invariance,
}


def run_identity(request: Request) -> tuple[str, int]:
    return IDENTITY_CHECKS[request.check_kind](*request.params), 0


# -- oracles ---------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _support_size(statistic: str) -> int:
    return len(ast.literal_eval(statistic.split(":", 1)[1]))


def _check_reports(request: Request, reports: list) -> list[str]:
    problems = []
    witnessed = set()
    for rep in reports:
        sizes = [o["size"] for o in rep["orbits"]]
        if sum(sizes) != request.elements:
            problems.append(f"{rep['statistic']}: {sum(sizes)} elements, expected {request.elements}")
        if request.max_label is not None:
            expected = Fraction((request.max_label + 1) * _support_size(rep["statistic"]), 2)
            averages = {Fraction(o["average"]) for o in rep["orbits"]}
            if averages != {expected} or rep["verdict"] != "homomesic":
                problems.append(f"{rep['statistic']}: averages {sorted(averages)}, expected {expected}")
        for w in rep.get("witness", ()):
            witnessed.add(Fraction(w["average"]))
    if not request.witnesses <= witnessed:
        problems.append(f"witness averages {sorted(request.witnesses - witnessed)} missing")
    return problems


@dataclass
class Outcome:
    """What checking one output found.  ``items`` is the work the request
    completed: elements times statistics verified for a homomesy request,
    tableaux checked for an identity request.  ``orbits`` is the orbit
    count of a homomesy request's system."""

    problems: list[str]
    items: int = 0
    orbits: int = 0


def check(request: Request, text: str, code: int, pin: dict | None) -> Outcome:
    """Every way the output differs from its pin and its exact oracles."""
    problems = []
    if pin is None:
        problems.append("no pin for this request")
    else:
        if code != pin["exit"]:
            problems.append(f"exit {code}, pinned {pin['exit']}")
        if digest(text) != pin["sha256"]:
            problems.append("output digest differs from the pin")
    if request.refused:
        if code != 4 or text:
            problems.append("expected a budget refusal with empty stdout")
        return Outcome(problems)
    if not request.argv:
        counts = dict(field.split("=", 1) for field in text.split(" ", 2)[:2])
        if counts.get("checked") != str(request.elements):
            problems.append(f"checked {counts.get('checked')} tableaux, expected {request.elements}")
        if counts.get("broken") != "0":
            problems.append(f"{counts.get('broken')} identity failures")
        return Outcome(problems, request.elements)
    try:
        payload = json.loads(text)
    except ValueError:
        return Outcome(problems + ["stdout is not JSON"])
    reports = payload if isinstance(payload, list) else [payload]
    problems += _check_reports(request, reports)
    return Outcome(problems, request.elements * len(reports), len(reports[0]["orbits"]))


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)
