"""One workload process: imports `wellspread`, builds the request list, then
runs the workload's fixed number of rounds of it in-process.

Protocol with run.py: the first line on stdout is "ready K1 K2" once the
first request could be issued, where K1 and K2 are the speed-probe kernel
times taken at the start (before importing the package) and just before it;
the last line is one JSON object with the measurements.  Each request is a
command line passed to `wellspread.cli.main` with stdout captured; a non-zero
exit code or an exception escaping `main` makes it a failed request.  The
captured output of every other request is written to a file under --docs,
and run.py checks it once this process has ended, so the checks' memory and
time stay out of this process's measurements.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads
from speed import SpeedProbe
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_request(cli_main, argv: tuple[str, ...]) -> tuple[float, float, str | None, str]:
    """(start, end, failure or None, captured stdout) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(argv))
        if rc != 0:
            failure = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    except SystemExit as exc:
        failure = f"SystemExit {exc.code}: {err.getvalue().strip()[:200]}"
    except Exception as exc:  # counted as a failed request, never fatal
        failure = f"{type(exc).__name__}: {str(exc)[:200]}"
    return t0, perf_counter(), failure, out.getvalue()


def run_round(cli_main, requests, probe: SpeedProbe, tracer: Tracer | None,
              docs: Path, round_index: int) -> dict:
    """Every request once; each answer is written under docs, unchecked.

    Latencies and span times are reported at the probe's reference speed and
    without the probe's own time (see speed.py); raw latencies ride along.
    """
    if tracer is not None:
        first_span, counts_before = len(tracer.spans), dict(tracer.counts)
        tracer.install()
    timed, doc_names, failures = [], [], []
    round_start = perf_counter()
    try:
        for i, req in enumerate(requests):
            gc.collect()
            if _MALLOC_TRIM is not None:
                # return freed heap to the OS, so each request's peak RSS
                # starts from the same floor whatever ran before it
                _MALLOC_TRIM(0)
            probe.sample()
            if tracer is not None:
                tracer.request += 1
            probe.start()
            try:
                t0, t1, failure, stdout = run_request(cli_main, req.argv)
            finally:
                probe.stop()
            timed.append((t0, t1))
            if failure is not None:
                failures.append(f"{req.label()}: {failure}")
                doc_names.append(None)
            else:
                name = f"r{round_index}-q{i}.out"
                (docs / name).write_text(stdout)
                doc_names.append(name)
            del stdout  # not held while the next request runs
        probe.sample()
    finally:
        if tracer is not None:
            tracer.remove()
    raw = [t1 - t0 - probe.handler_time(t0, t1) for t0, t1 in timed]
    latencies = [probe.scale(t0, t1) for t0, t1 in timed]
    result = {
        "traced": tracer is not None,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "latencies_s": latencies,
        "raw_latencies_s": raw,
        "docs": doc_names,
        "kernel_s": probe.kernel_means(round_start, perf_counter()),
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        counts = {k: v - counts_before[k] for k, v in tracer.counts.items()}
        result["layers"] = tracer.layer_metrics(first_span, counts, probe)
    return result


def _libc_malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _libc_malloc_trim()


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ru_maxrss also keeps the
    peak of the image exec replaced, that is the launching process, so it
    is used only where procfs is missing."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _stay_on_current_cpu() -> None:
    """Pin this process to the CPU it runs on, so the speed probe samples the
    CPU the requests run on (the host's CPUs differ in speed from moment to
    moment)."""
    try:
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no procfs or no affinity control: run unpinned


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=Path, help="directory for the requests' outputs")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit once ready; run.py times several of these for setup_s")
    args = ap.parse_args()

    _stay_on_current_cpu()
    probe = SpeedProbe()
    first = probe.sample()
    sys.path.insert(0, str(SRC))
    from wellspread.cli import main as cli_main

    requests = workloads.generate(args.workload, args.seed)
    print(f"ready {first!r} {probe.sample()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.docs is None:
        ap.error("--docs is required unless --setup-only")
    args.docs.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    rounds = []
    for i in range(workloads.rounds(args.workload, args.seconds, traced=tracer is not None)):
        # a traced run alternates untraced and traced rounds, so the
        # difference between them is the tracing overhead
        traced = tracer is not None and i % 2 == 1
        rounds.append(run_round(cli_main, requests, probe, tracer if traced else None,
                                args.docs, i))

    report = {
        "requests": [r.label() for r in requests],
        "rounds": rounds,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        report["missing"] = tracer.missing_by_metric()
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"requests": report["requests"], "spans": tracer.dump()}))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
