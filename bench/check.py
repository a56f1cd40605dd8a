"""Self-test of the benchmark.

    python3 bench/check.py

Checks that ``BENCHMARK.json`` names exactly the metrics and workloads
``run.py`` reports, that every request any seed can generate has a pin,
that ``--threads 2`` gives the pinned bytes, that two traced passes with
different seeds give identical counts, that the homomesy waste ratio is
the statistics count per request, and that the benchmark refuses to run
without the library sources.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# Step calls per system element of each homomesy system: one orbit walk
# per statistic verified.
STEPS_PER_ELEMENT = {
    "--shape 3x3 -k 6 --symmetric-all": 32,
    "--shape 3x4 -q 3 --symmetric-all": 64,
    "--family cayley --symmetric-all": 256,
    "--shape 3x3 -k 8 --cells": 1,
    "--shape 3x3 -k 8 --operator promote-inverse": 1,
    "--family freudenthal": 1,
    "--shape 3x5 -q 3": 1,
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS), "workload names")
    expect(
        {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS,
        "end_to_end metrics",
    )
    expect(
        {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER_UNITS,
        "per_layer metrics",
    )


def check_pins(workloads, pins: dict) -> None:
    ids = [r.id for r in workloads.catalog()]
    expect(len(ids) == len(set(ids)), "request ids are unique")
    expect(set(ids) == set(pins), "pins cover exactly the catalog")


def check_threads(workloads, pins: dict) -> None:
    for request in workloads.catalog():
        if not request.argv:
            continue
        threaded = workloads.Request(id=request.id, argv=request.argv + ("--threads", "2"))
        text, code = run.send(threaded)
        expect(
            workloads.digest(text) == pins[request.id]["sha256"] and code == pins[request.id]["exit"],
            f"--threads 2 output equals the pin: {request.id}",
        )


def counts(metrics: dict) -> dict:
    return {
        name: m["value"]
        for name, m in metrics.items()
        if name.endswith((".calls", ".items")) or name.startswith("homomesy.step")
    }


def check_traced_counts(workloads, pins: dict) -> None:
    for workload in run.WORKLOADS:
        seen = []
        for seed in (1, 2):
            requests = workloads.select(workload, seed)
            log: dict = {}
            passes = [run.traced_pass(requests, pins, log)]
            expect(passes[0]["failed"] == 0, f"{workload} seed {seed}: traced pass has no failures")
            # No untraced pass here, so the overhead entry reads 0.
            metrics = run.per_layer(passes + [{"run_s_wall": passes[0]["run_s_wall"]}], log)
            seen.append(counts(metrics))
            for request in requests:
                entry = log[request.id]
                if not entry.get("elements"):
                    continue
                ratio = entry["homomesy_steps"] / entry["elements"]
                wanted = [v for key, v in STEPS_PER_ELEMENT.items() if key in request.id]
                expect(wanted == [ratio], f"{request.id}: steps per element {ratio}, expected {wanted}")
        expect(seen[0] == seen[1], f"{workload}: counts repeat exactly across seeds")
        nonzero = sorted(name for name, value in seen[0].items() if value)
        print(f"{workload}: {len(nonzero)} nonzero counts repeat", file=sys.stderr)


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "many-stats", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=180,
        )
    expect(done.returncode != 0 and not done.stdout.strip(), "refuses to run without src/")


def main() -> int:
    run.import_library()
    import workloads

    pins = workloads.load_pins()
    check_manifest()
    check_pins(workloads, pins)
    check_refuses_without_sources()
    check_threads(workloads, pins)
    check_traced_counts(workloads, pins)
    print("bench check:", "FAILED" if failures else "ok", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
