"""Benchmark of promotab: exact homomesy verdicts and identity sweeps.

    python3 bench/run.py --workload many-stats --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  One process and one thread send requests as a closed loop
with one client: each request starts when the previous one returns.  A
pass sends every request of the workload once; passes repeat while
another one fits in ``--seconds``.  Every output is checked against its
pin and its exact oracles (see ``workloads.py``).

The last stdout line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the first pass runs untraced and the
rest traced, and the metrics are the per-layer ones (``tracer.py``).
The line before it holds the details: environment, request order, every
pass, and per-request latencies and counts.  A readable summary goes to
stderr.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("many-stats", "one-stat-large", "identity-sweep")
SETUP_RUNS = 15
SEGMENT_S = 0.25

# On a shared virtual machine the speed of one core drifts by up to half
# within minutes.  Every timing is therefore measured next to a fixed piece
# of interpreter work and rescaled to the speed at which that work takes
# REFERENCE_NOMINAL_S (its median on an idle 2.0 GHz Xeon vCPU).  The raw
# wall times are kept in the details line.
REFERENCE_NOMINAL_S = 0.0125
REFERENCE_CODE = """\
def reference_task():
    from time import perf_counter
    started = perf_counter()
    table = {}
    for i in range(30000):
        key = (i % 89, i % 97)
        table[key] = table.get(key, 0) + len(tuple(range(i % 5)))
    return perf_counter() - started
"""
_reference: dict = {}
exec(REFERENCE_CODE, _reference)
reference_task = _reference["reference_task"]

SETUP_CODE = REFERENCE_CODE + """\
import time
before = reference_task()
started = time.perf_counter()
import promotab.cli
promotab.cli.build_parser()
elapsed = time.perf_counter() - started
after = reference_task()
print(elapsed, (before + after) / 2, promotab.cli.__file__)
"""

END_TO_END_UNITS = {"run_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "homomesy.verify_homomesy.calls": "count",
    "homomesy.verify_homomesy.s": "s",
    "homomesy.step_calls": "count",
    "homomesy.elements": "count",
    "homomesy.steps_per_element": "ratio",
    "homomesy.steps_per_element.min": "ratio",
    "homomesy.steps_per_element.max": "ratio",
    "homomesy.orbits": "count",
    "homomesy.orbit_average.calls": "count",
    "homomesy.orbit_average.s": "s",
    "homomesy.cell_sum.calls": "count",
    "homomesy.report_to_jsonable.s": "s",
    "homomesy.symmetric_subsets.items": "count",
    "homomesy.elements_before_refusal": "count",
    "homomesy.self_s": "s",
    "shapes.Tableau.calls": "count",
    "shapes.Tableau.s": "s",
    "shapes.enumerate_ssyt.items": "count",
    "shapes.enumerate_ssyt.s": "s",
    "shapes.enumerate_syt.items": "count",
    "shapes.self_s": "s",
    "dynamics.promote.calls": "count",
    "dynamics.promote.s": "s",
    "dynamics.jdt_slide.calls": "count",
    "dynamics.toggle.calls": "count",
    "dynamics.promote_inverse.s": "s",
    "dynamics.evacuate.calls": "count",
    "dynamics.evacuate.s": "s",
    "dynamics.evacuate_via_toggles.s": "s",
    "dynamics.self_s": "s",
    "posets.linear_extensions.items": "count",
    "posets.linear_extensions.s": "s",
    "posets.minimal_of.calls": "count",
    "posets.poset_promote.calls": "count",
    "posets.poset_promote.s": "s",
    "posets.LinearExtension.calls": "count",
    "posets.self_s": "s",
    "ktableaux.enumerate_increasing.items": "count",
    "ktableaux.enumerate_increasing.s": "s",
    "ktableaux.k_promote.calls": "count",
    "ktableaux.k_promote.s": "s",
    "ktableaux.switch.calls": "count",
    "ktableaux.IncreasingTableau.calls": "count",
    "ktableaux.self_s": "s",
    "growth.check_dis_invariance.s": "s",
    "growth.period_window.calls": "count",
    "growth.self_s": "s",
    "paths.check_flow_invariance.s": "s",
    "paths.trajectory.calls": "count",
    "paths.promotion_path.calls": "count",
    "paths.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


# -- environment and set-up ------------------------------------------------------


def environment() -> dict:
    load = os.getloadavg()
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> list[tuple[float, float]]:
    """Seconds to import promotab.cli and build its parser, each in a
    fresh interpreter, raw and normalised by the reference task run
    before and after it there.  One unmeasured run first writes the
    bytecode cache."""
    times = []
    for attempt in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"importing promotab.cli failed:\n{done.stderr}")
        elapsed, reference, where = done.stdout.split(maxsplit=2)
        if not Path(where.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"promotab.cli came from {where.strip()}, not from {SRC}")
        if attempt:
            times.append((float(elapsed), float(elapsed) * REFERENCE_NOMINAL_S / float(reference)))
    return times


def import_library():
    if not (SRC / "promotab" / "cli.py").is_file():
        raise BenchError(f"no promotab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import promotab.cli

    if not Path(promotab.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"promotab came from {promotab.cli.__file__}, not from {SRC}")


# -- the closed loop -------------------------------------------------------------


def send(request) -> tuple[str, int]:
    """Run one request; return its stdout and exit code."""
    import promotab.cli
    import workloads

    if not request.argv:
        return workloads.run_identity(request)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = promotab.cli.main(list(request.argv))
    return out.getvalue(), code


class SpeedProbe:
    """Samples the machine's speed every ``SEGMENT_S`` seconds while open.

    A SIGALRM handler runs the reference task and records when it started
    and how long it took; ``paused`` totals the time spent in the handler,
    which callers subtract from what they timed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0

    def _sample(self, *_) -> None:
        started = perf_counter()
        self.samples.append((started, reference_task()))
        self.paused += perf_counter() - started

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """Nominal over measured reference time, from the samples taken
        between start and end, or from the nearest one."""
        inside = [taken for at, taken in self.samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return REFERENCE_NOMINAL_S / statistics.fmean(inside)


def run_pass(requests, pins, log: dict, tracer=None) -> dict:
    """Send every request once; check each output after timing it.

    ``run_s_wall`` is the sum of the requests' times, so the checks are
    not part of it.  ``run_s`` rescales each request's time to the nominal
    speed measured by a :class:`SpeedProbe`; traced passes run without
    the probe, so it adds nothing to any layer.  A failed request
    completes no work.
    """
    import workloads

    probe = None if tracer else SpeedProbe()
    timed = []
    work = 0
    failed = 0
    with probe or contextlib.nullcontext():
        for request in requests:
            steps = tracer.homomesy_steps if tracer else 0
            enumerated = tracer.homomesy_enumerated if tracer else 0
            paused = probe.paused if probe else 0.0
            started = perf_counter()
            try:
                text, code = send(request)
            except (Exception, SystemExit) as exc:
                code, text = None, None
                outcome = workloads.Outcome([f"raised {type(exc).__name__}: {exc}"])
            ended = perf_counter()
            elapsed = ended - started - ((probe.paused if probe else 0.0) - paused)
            if text is not None:
                outcome = workloads.check(request, text, code, pins.get(request.id))
            timed.append((started, ended, elapsed))
            entry = log.setdefault(request.id, {"exit": code, "latency_s": []})
            entry["latency_s"].append(elapsed)
            if outcome.problems:
                failed += 1
                entry["problems"] = outcome.problems
            else:
                work += outcome.items
                entry.update(items=outcome.items, orbits=outcome.orbits)
                if request.argv and not request.refused:
                    entry["elements"] = request.elements
            if tracer:
                entry["homomesy_steps"] = tracer.homomesy_steps - steps
                if entry.get("elements"):
                    entry["steps_per_element"] = entry["homomesy_steps"] / entry["elements"]
                if code == 4:
                    entry["elements_before_refusal"] = tracer.homomesy_enumerated - enumerated
    wall = sum(elapsed for _, _, elapsed in timed)
    return {
        "run_s": sum(e * probe.scale(s, t) for s, t, e in timed) if probe else wall,
        "run_s_wall": wall,
        "items": work,
        "attempted": len(requests),
        "failed": failed,
    }


def traced_pass(requests, pins, log: dict) -> dict:
    """One pass with a fresh tracer installed; its counters are attached."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(requests, pins, log, tracer)
    finally:
        tracer.uninstall()
    result["layers"] = tracer.snapshot()
    return result


def run_loop(requests, pins, seconds: float, trace: bool) -> tuple[list[dict], dict, float]:
    """Repeat passes while the next one, estimated by the last, fits.

    With tracing the first pass is untraced and at least one traced pass
    follows.  Returns the passes, the per-request log and the peak
    resident memory (MB) after the first pass.
    """
    passes: list[dict] = []
    log: dict = {}
    peak_mb = 0.0
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        if trace and passes:
            passes.append(traced_pass(requests, pins, log))
        else:
            passes.append(run_pass(requests, pins, log))
        if len(passes) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = perf_counter()
        if (not trace or len(passes) >= 2) and (now - started) + (now - pass_started) > seconds:
            return passes, log, peak_mb


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": math.floor(100 * (n - 10) / n), "value": sorted(samples)[n - 11]}


def per_layer(passes: list[dict], log: dict) -> dict:
    """Medians over the traced passes; the homomesy ratios come from the
    per-request log, and the overhead compares wall times with the
    untraced pass."""
    traced = [p for p in passes if "layers" in p]
    untraced = [p for p in passes if "layers" not in p]
    values = {
        name: statistics.median(p["layers"].get(name, 0) for p in traced) for name in PER_LAYER_UNITS
    }
    systems = [e for e in log.values() if e.get("elements")]
    steps = sum(e["homomesy_steps"] for e in systems)
    elements = sum(e["elements"] for e in systems)
    ratios = [e["homomesy_steps"] / e["elements"] for e in systems]
    values.update(
        {
            "homomesy.step_calls": steps,
            "homomesy.elements": elements,
            "homomesy.steps_per_element": steps / elements if elements else 0,
            "homomesy.steps_per_element.min": min(ratios, default=0),
            "homomesy.steps_per_element.max": max(ratios, default=0),
            "homomesy.orbits": sum(e["orbits"] for e in systems),
            "homomesy.elements_before_refusal": sum(
                e.get("elements_before_refusal", 0) for e in log.values()
            ),
            "trace.overhead_s": statistics.median(p["run_s_wall"] for p in traced)
            - statistics.median(p["run_s_wall"] for p in untraced),
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def end_to_end(passes: list[dict], setup: list[tuple[float, float]], peak_mb: float) -> dict:
    values = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["run_s"] for p in passes),
        "setup_s": statistics.median(normalised for _, normalised in setup),
        "peak_rss_mb": peak_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def summary(args, env: dict, details: dict, metrics: dict) -> str:
    lines = [
        f"promotab bench: workload={args.workload} seed={args.seed} trace={args.trace}"
        f" python={env['python']} nproc={env['nproc']} load={env['loadavg_start'][0]:.2f}",
        f"  {details['requests']} requests x {len(details['passes'])} passes,"
        f" {details['items_per_pass']} items per pass, fail_rate={details['fail_rate']:.4f}",
    ]
    tail_note = details["run_s_tail"] or "no tail: fewer than 11 passes"
    lines.append(f"  run_s over {len(details['passes'])} passes; {tail_note}")
    for name, metric in metrics.items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for request_id, entry in details["per_request"].items():
        if "steps_per_element" in entry:
            lines.append(f"  steps per element {entry['steps_per_element']:g}: {request_id}")
        if "problems" in entry:
            lines.append(f"  FAILED {request_id}: {'; '.join(entry['problems'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = environment()
        import_library()
        setup = [] if args.trace else measure_setup()
        import workloads

        requests = workloads.select(args.workload, args.seed)
        pins = workloads.load_pins()
    except (BenchError, ImportError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    passes, log, peak_mb = run_loop(requests, pins, args.seconds, bool(args.trace))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = per_layer(passes, log) if args.trace else end_to_end(passes, setup, peak_mb)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "requests": len(requests),
        "order": [r.id for r in requests],
        "items_per_pass": passes[0]["items"],
        "fail_rate": failed / attempted,
        "passes": [
            {k: p[k] for k in ("run_s", "run_s_wall", "items", "failed")} | {"traced": "layers" in p}
            for p in passes
        ],
        "run_s_samples": len(passes),
        "run_s_tail": tail([p["run_s"] for p in passes]),
        "run_s_wall_median": statistics.median(p["run_s_wall"] for p in passes),
        "setup_s_wall": [wall for wall, _ in setup],
        "setup_s_samples": [normalised for _, normalised in setup],
        "per_request": log,
    }
    print(summary(args, env, details, metrics), file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
