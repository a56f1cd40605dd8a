"""Write pins.json: the output digest and exit code of every request.

    python3 bench/pin.py

Pins record what the implementation produces now, so run this only on a
commit whose outputs are the reference.  It refuses to write when an
output breaks an exact oracle.  ``check.py`` then confirms that
``--threads 2`` reproduces every pinned homomesy output.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run


def main() -> int:
    run.import_library()
    import workloads

    pins = {}
    bad = 0
    for request in workloads.catalog():
        started = perf_counter()
        text, code = run.send(request)
        elapsed = perf_counter() - started
        pin = {"sha256": workloads.digest(text), "exit": code}
        problems = workloads.check(request, text, code, pin).problems
        pins[request.id] = pin
        print(f"{elapsed:8.3f}s exit={code} {request.id}", file=sys.stderr)
        for problem in problems:
            print(f"  PROBLEM {problem}", file=sys.stderr)
        bad += bool(problems)
    if bad:
        print(f"{bad} requests break their oracles; pins not written", file=sys.stderr)
        return 1
    with open(workloads.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
