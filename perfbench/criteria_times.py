"""Per-criterion wall time of a full `wellspread verify-paper` run.

    python3 perfbench/criteria_times.py

A reference figure, not a workload: it times each `check_*` criterion that
`verify.run_all` calls, by wrapping them from outside the program, and prints
one line per criterion plus the total.
"""
from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wellspread import verify  # noqa: E402


def main() -> int:
    times: list[float] = []

    def timed(fn):
        def wrapper(*a, **kw):
            t0 = perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                times.append(perf_counter() - t0)
        return wrapper

    for name in [n for n in vars(verify) if n.startswith("check_")]:
        setattr(verify, name, timed(getattr(verify, name)))
    t0 = perf_counter()
    results = verify.run_all()
    total = perf_counter() - t0
    for r, seconds in zip(results, times):
        print(f"criterion {r.number:2d} {r.name:24s} {seconds:7.2f} s  "
              f"{'PASS' if r.passed else 'FAIL'} ({len(r.cases)} cases)")
    print(f"total {total:.2f} s")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
