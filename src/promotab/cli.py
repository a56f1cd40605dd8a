"""Command line surface for the tableau dynamics library.

Exit codes: 0 success; 1 a homomesy verdict of `violated`; 2 parse error;
3 precondition violation; 4 enumeration budget exhausted.  All numeric
output is exact (integers and reduced fractions); no floats are printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Iterable

from . import dynamics, growth, homomesy, ktableaux, paths, posets, shapes
from .errors import BudgetExceededError, ParseError, PreconditionError


def _read_input(args) -> str:
    if getattr(args, "text", None) is not None:
        return args.text
    source = getattr(args, "input", None) or "-"
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input file {source!r}: {exc}")


def _read_tableau(args, kind: str | None = "semistandard") -> shapes.Tableau:
    t = shapes.parse_tableau(_read_input(args))
    if kind is not None and not shapes.validate(t, kind):
        raise PreconditionError(f"input tableau is not {kind}")
    return t


def _parse_cells(text: str) -> tuple[tuple[int, int], ...]:
    """The boxes of a nonempty 'r1,c1;r2,c2' list."""
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad cell {chunk!r}; expected 'row,col'")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"bad cell {chunk!r}; expected integers")
    if not cells:
        raise ParseError(f"--cells {text!r} names no box; expected 'r1,c1;r2,c2'")
    return tuple(cells)


def _parse_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ParseError(f"bad shape {text!r}; expected 'MxN'")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad shape {text!r}; expected integers")
    if m < 1 or n < 1:
        raise ParseError(f"shape dimensions must be positive: {text!r}")
    return m, n


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ParseError(f"bad partition {text!r}; expected 'a,b,c'")
    try:
        return shapes.check_partition(parts)
    except PreconditionError as exc:
        raise ParseError(str(exc))


def _parse_family(text: str) -> posets.FinitePoset:
    name, _, param = text.partition(":")
    name = name.strip().lower()
    if name == "rectangle":
        if not param:
            raise ParseError("rectangle needs dimensions, e.g. rectangle:3x5")
        m, n = _parse_shape(param)
        return posets.build_cominuscule("rectangle", m, n)
    if name in ("shifted_staircase", "propeller"):
        try:
            n = int(param)
        except ValueError:
            raise ParseError(f"{name} needs an integer parameter, e.g. {name}:4")
        return posets.build_cominuscule(name, n)
    if name in ("cayley", "freudenthal"):
        if param:
            raise ParseError(f"{name} takes no parameter")
        return posets.build_cominuscule(name)
    raise ParseError(f"unknown family {text!r}; expected one of {posets.FAMILY_NAMES}")


def _tableau_jsonable(t: shapes.Tableau) -> dict:
    out = {"ceiling": t.ceiling, "rows": [list(row) for row in t.rows]}
    if t.inner:
        out["inner"] = list(t.inner)
    return out


def _emit(args, ascii_text: str, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        sys.stdout.write(ascii_text)


# -- command handlers ----------------------------------------------------------


def _cmd_unary(args, op) -> int:
    t = _read_tableau(args)
    result = op(t)
    _emit(args, shapes.format_tableau(result), _tableau_jsonable(result))
    return 0


def _cmd_kunary(args, op) -> int:
    t = _read_tableau(args, kind="increasing")
    inc = ktableaux.increasing_from_grid(t)
    result = ktableaux.increasing_to_grid(op(inc))
    _emit(args, shapes.format_tableau(result), _tableau_jsonable(result))
    return 0


def _cmd_orbit(args) -> int:
    t = _read_tableau(args)
    operator = args.operator.replace("-", "_")
    orb = dynamics.orbit(t, operator)
    ascii_lines = [f"period={orb.period}"]
    for element in orb.elements:
        ascii_lines.append(shapes.format_tableau(element).rstrip("\n"))
    payload = {
        "operator": operator,
        "period": orb.period,
        "elements": [_tableau_jsonable(x) for x in orb.elements],
    }
    _emit(args, "\n".join(ascii_lines) + "\n", payload)
    return 0


def _cmd_growth(args) -> int:
    t = _read_tableau(args)
    if not t.is_straight:
        raise PreconditionError("growth windows require a straight shape")
    height = args.height if args.height is not None else t.ceiling + 1
    if height > growth.MAX_WINDOW_HEIGHT:
        raise BudgetExceededError(f"window height {height} exceeds the limit of {growth.MAX_WINDOW_HEIGHT} rows")
    window = growth.build_window(t, height)
    tracked = None
    if args.cells:
        boxes = _parse_cells(args.cells)
        if len(boxes) != 1:
            raise ParseError("growth tracks a single box; pass --cells r,c")
        tracked = boxes[0]
        if not t.has_box(*tracked):
            raise PreconditionError(f"box {tracked} is not in the shape")
    payload = {
        "ceiling": window.ceiling,
        "rows": [[list(d) for d in enc.diagrams] for enc in window.rows],
    }
    if tracked is not None:
        payload["tracked"] = list(tracked)
    _emit(args, growth.render_window(window, tracked), payload)
    return 0


def _cmd_dis(args) -> int:
    t = _read_tableau(args)
    if not args.cells:
        raise ParseError("dis needs --cells r,c")
    boxes = _parse_cells(args.cells)
    if len(boxes) != 1:
        raise ParseError("dis takes a single box; pass --cells r,c")
    values = growth.orbit_values(t, boxes[0])
    ascii_text = "{" + ",".join(map(str, values)) + "}\n"
    _emit(args, ascii_text, {"box": list(boxes[0]), "values": list(values)})
    return 0


def _cmd_paths(args) -> int:
    t = _read_tableau(args, kind="standard")
    rho = paths.promotion_path(t)
    tau = paths.trajectory(t)

    def path_text(name: str, p: paths.LabeledPath) -> str:
        steps = " ".join(f"({r},{c})[{v}]" for (r, c), v in zip(p.boxes, p.labels))
        return f"{name}: {steps}"

    lines = [path_text("promotion_path", rho), path_text("trajectory", tau)]
    payload = {
        "promotion_path": {"boxes": [list(b) for b in rho.boxes], "labels": list(rho.labels)},
        "trajectory": {"boxes": [list(b) for b in tau.boxes], "labels": list(tau.labels)},
    }
    if args.cells:
        flows = []
        boxes = _parse_cells(args.cells)
        for box, (fm, intervals) in zip(boxes, paths.box_flows(t, boxes)):
            lines.append(
                f"box ({box[0]},{box[1]}): inn={{{','.join(map(str, fm.inn))}}}"
                f" out={{{','.join(map(str, fm.out))}}}"
                f" intervals={' '.join(f'[{a},{b}]' for a, b in intervals)}"
            )
            flows.append(
                {
                    "box": list(box),
                    "inn": list(fm.inn),
                    "out": list(fm.out),
                    "intervals": [list(iv) for iv in intervals],
                }
            )
        payload["flows"] = flows
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


def _statistics_for(args, system, no_rotation_message: str) -> tuple[int, Callable[[], Iterable]]:
    """How many statistics to check, and how to build them: the --cells
    boxes, or with --symmetric-all every support fixed by the system's
    rotate involution, counted without building any."""
    if args.symmetric_all and args.cells:
        raise ParseError("pass either --cells or --symmetric-all, not both")
    if args.symmetric_all:
        if system.rotate is None:
            raise ParseError(no_rotation_message)
        return homomesy.count_symmetric_subsets(system), lambda: homomesy.symmetric_subsets(system)
    if args.cells is None:
        raise ParseError("homomesy needs --cells r1,c1;r2,c2 or --symmetric-all")
    boxes = _parse_cells(args.cells)
    if len(set(boxes)) < len(boxes):
        raise ParseError(f"--cells names box {next(b for b in boxes if boxes.count(b) > 1)} more than once")
    statistic = homomesy.CellStatistic(support=frozenset(boxes), name=f"cells:{sorted(boxes)}")
    return 1, lambda: [statistic]


def _promote_only(args, system_kind: str) -> None:
    """Refuse an --operator that a system without -k cannot run."""
    if args.operator != "promote":
        raise ParseError(f"--operator {args.operator} needs an ssyt system (-k); {system_kind} systems run promote only")


def _cmd_homomesy(args) -> int:
    if args.budget is None:
        raise ParseError("homomesy needs an explicit --budget N")
    if sum(map(bool, (args.partition, args.shape, args.family))) > 1:
        raise ParseError("pass one of --partition, --shape or --family, not several")
    if args.ceiling is not None and args.q is not None:
        raise ParseError("pass either -k or -q, not both")
    if args.q is not None:
        _promote_only(args, "inc")
        if args.shape:
            m, n = _parse_shape(args.shape)
            poset = posets.build_cominuscule("rectangle", m, n)
        elif args.family:
            poset = _parse_family(args.family)
        else:
            raise ParseError("inc systems need --shape MxN or --family NAME")
        system = homomesy.inc_system(poset, args.q)
        count, statistics = _statistics_for(
            args, system, "--symmetric-all on increasing tableaux needs a poset with a rotation"
        )
    elif args.ceiling is not None:
        if args.partition:
            shape = _parse_partition(args.partition)
        elif args.shape:
            m, n = _parse_shape(args.shape)
            shape = (n,) * m
        else:
            raise ParseError("ssyt systems need --partition a,b,c or --shape MxN")
        system = homomesy.ssyt_system(shape, args.ceiling, args.operator.replace("-", "_"))
        count, statistics = _statistics_for(args, system, "--symmetric-all on ssyt systems needs a rectangular shape")
    elif args.family or args.partition:
        _promote_only(args, "syt_poset")
        poset = _parse_family(args.family) if args.family else posets.ferrers_poset(_parse_partition(args.partition))
        system = homomesy.syt_poset_system(poset)
        count, statistics = _statistics_for(
            args, system, "--symmetric-all on linear extensions needs a --family poset; --partition has no rotation"
        )
    else:
        raise ParseError("homomesy needs a system: (-k with --partition/--shape), (-q ...), or --family")

    partition = homomesy.partition_orbits(system, budget=args.budget)
    orbits = len(partition.sizes)
    # every statistic is at least one report row, even on an empty system
    if count * max(orbits, 1) > args.budget:
        # past 2^64 a count is 2^classes, written so: `str` may refuse its digits
        many = str(count) if count < 1 << 64 else f"2^{count.bit_length() - 1}"
        if not orbits:
            rows = f"{many} statistics exceed the budget {args.budget}; each is at least one report row"
        else:
            total = str(count * orbits) if count < 1 << 64 else f"{orbits} x {many}"
            rows = f"{many} statistics x {orbits} orbits = {total} report rows exceed the budget {args.budget}"
        raise BudgetExceededError(f"{system.description}: {rows}")
    reports = [homomesy.verdict(partition, stat) for stat in statistics()]
    if args.format == "json":
        print(homomesy.reports_to_json(reports))
    else:
        sys.stdout.write(_homomesy_text(reports))
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def _homomesy_text(reports: list[homomesy.HomomesyReport]) -> str:
    """The text format of homomesy reports, written from their integer
    orbit sums: each (sum, size) pair's average is written once."""
    averages = homomesy.AverageTexts()
    lines = []
    for r in reports:
        sums, sizes = r.sums, r.partition.sizes
        lines += [f"system: {r.system}", f"statistic: {r.statistic}"]
        lines += [f"  orbit size={n} average={averages[s, n]}" for s, n in zip(sums, sizes)]
        lines.append(f"verdict: {r.verdict}")
        if r.mismatch is not None:
            j = r.mismatch
            lines.append(f"witness: {averages[sums[0], sizes[0]]} != {averages[sums[j], sizes[j]]}")
    return "".join(f"{line}\n" for line in lines)


def _cmd_counterexample(args) -> int:
    report = ktableaux.three_by_four_counterexample()
    first = ktableaux.increasing_to_grid(report.first)
    second = ktableaux.increasing_to_grid(report.second)
    lines = [
        f"support: {';'.join(f'{r},{c}' for r, c in report.support_boxes)}",
        f"first orbit: size={report.first_orbit_size} average={report.first_average}",
        f"second orbit: size={report.second_orbit_size} average={report.second_average}",
        "verdict: violated",
    ]
    payload = {
        "support": [list(b) for b in report.support_boxes],
        "first": {
            "tableau": _tableau_jsonable(first),
            "orbit_size": report.first_orbit_size,
            "average": homomesy.fraction_str(report.first_average),
        },
        "second": {
            "tableau": _tableau_jsonable(second),
            "orbit_size": report.second_orbit_size,
            "average": homomesy.fraction_str(report.second_average),
        },
        "verdict": "violated",
    }
    _emit(args, "\n".join(lines) + "\n", payload)
    return 1


def _cmd_families(args) -> int:
    if not args.family:
        lines = [
            "rectangle:MxN        m*n elements, rotate = 180 degree rotation",
            "shifted_staircase:N  n(n+1)/2 elements, rotate = antidiagonal reflection",
            "propeller:N          2n-2 elements, rotate = 180 degree rotation",
            "cayley               16 elements, rotate = 180 degree rotation",
            "freudenthal          27 elements, rotate = antidiagonal reflection",
        ]
        payload = {"families": list(posets.FAMILY_NAMES)}
        _emit(args, "\n".join(lines) + "\n", payload)
        return 0
    poset = _parse_family(args.family)
    payload = {
        "name": poset.name,
        "size": poset.size,
        "covers": sorted(list(c) for c in poset.covers),
    }
    _emit(args, posets.format_poset(poset), payload)
    return 0


# -- parser ---------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors are parse errors, which
    :func:`main` reports on one line with exit code 2."""

    def error(self, message: str):
        raise ParseError(message)


def _add_io_arguments(sub, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("input", nargs="?", default="-", help="input file, or '-' for stdin")
        sub.add_argument("--text", help="inline input text (instead of a file)")
    sub.add_argument("--format", choices=("ascii", "json"), default="ascii")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves
    it unchanged, so every call of :func:`main` shares it, and no caller
    may add to it."""
    parser = _ArgumentParser(
        prog="promotab",
        description="Promotion, evacuation, and exact homomesy verification "
        "on tableaux, posets, and increasing tableaux.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    operators = tuple(name.replace("_", "-") for name in dynamics.OPERATORS)

    for verb in ("promote", "evacuate", "kpromote", "kevacuate"):
        sub = subs.add_parser(verb, help=f"apply {verb} to a tableau")
        _add_io_arguments(sub)

    sub = subs.add_parser("orbit", help="the full operator cycle of a tableau")
    _add_io_arguments(sub)
    sub.add_argument("--operator", choices=operators, default="promote")

    sub = subs.add_parser("growth", help="growth window of chain encodings")
    _add_io_arguments(sub)
    sub.add_argument(
        "--height",
        type=int,
        default=None,
        help=f"rows of the window (default ceiling+1, at most {growth.MAX_WINDOW_HEIGHT})",
    )
    sub.add_argument("--cells", help="single tracked box 'r,c' to shade")

    sub = subs.add_parser("dis", help="multiset of one box's values over a period")
    _add_io_arguments(sub)
    sub.add_argument("--cells", help="single box 'r,c'", required=False)

    sub = subs.add_parser("paths", help="promotion path, trajectory, and box flows")
    _add_io_arguments(sub)
    sub.add_argument("--cells", help="boxes 'r1,c1;r2,c2' for flow multisets")

    sub = subs.add_parser("homomesy", help="exact homomesy verdict for a system")
    _add_io_arguments(sub, with_input=False)
    sub.add_argument("--partition", help="straight shape 'a,b,c'")
    sub.add_argument("--shape", help="rectangle 'MxN'")
    sub.add_argument("--family", help="cominuscule family, e.g. propeller:4")
    sub.add_argument("-k", "--ceiling", type=int, help="entry ceiling (ssyt systems)")
    sub.add_argument("-q", type=int, help="deficiency (increasing tableau systems)")
    sub.add_argument("--operator", choices=operators, default="promote")
    sub.add_argument("--cells", help="statistic support 'r1,c1;r2,c2'")
    sub.add_argument("--symmetric-all", action="store_true", help="sweep all rotate-fixed supports")
    sub.add_argument(
        "--budget", type=int, help="maximum number of enumerated elements, and of report rows (statistics x orbits)"
    )
    sub.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")

    sub = subs.add_parser("counterexample", help="the 3x4 deficiency-3 homomesy violation")
    _add_io_arguments(sub, with_input=False)

    sub = subs.add_parser("families", help="list or print the cominuscule families")
    _add_io_arguments(sub, with_input=False)
    sub.add_argument("--family", help="family to print, e.g. cayley")

    return parser


def main(argv=None) -> int:
    handlers = {
        "promote": lambda a: _cmd_unary(a, dynamics.promote),
        "evacuate": lambda a: _cmd_unary(a, dynamics.evacuate),
        "kpromote": lambda a: _cmd_kunary(a, ktableaux.k_promote),
        "kevacuate": lambda a: _cmd_kunary(a, ktableaux.k_evacuate),
        "orbit": _cmd_orbit,
        "growth": _cmd_growth,
        "dis": _cmd_dis,
        "paths": _cmd_paths,
        "homomesy": _cmd_homomesy,
        "counterexample": _cmd_counterexample,
        "families": _cmd_families,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
