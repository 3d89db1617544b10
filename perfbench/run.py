"""Benchmark of `wellspread`: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh, single-threaded
worker process (worker.py) that calls `wellspread.cli.main` in-process on a
fixed request list, in a fixed number of whole rounds that S scales
(workloads.py), and writes every answer to a file; once the worker has ended,
this process checks the answers independently (checks.py), so the checks
stay out of the worker's time and memory.  Setup is timed on several extra worker
processes that stop once ready.  Times are reported at the reference speed
of a fixed kernel timed alongside them (speed.py); the raw times are printed
as comment lines.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are end to end: setup_s, wall_s,
req_p50_ms and peak_rss_mb.  With --trace 1 they are the per-layer metrics of
tracing.py plus trace.overhead_s, and the spans are written under
perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7  # worker launches timed for setup_s, the measured one included
DEADLINE_S = 170.0  # the whole run, set-up included, ends within this

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


class BenchError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # one thread everywhere (numpy's BLAS computes one eigenvalue guess),
    # and fixed hashing so every run does the same work
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _launch(args: list[str], deadline: float) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it, the seconds until it printed "ready" less
    its two speed-probe samples, and the mean of those samples."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup = perf_counter() - t0
        word, *kernels = line.split()
        if word != "ready" or len(kernels) != 2:
            raise BenchError(f"worker did not become ready (got {line.strip()!r})")
    except BaseException:
        _stop(proc)
        raise
    k1, k2 = map(float, kernels)
    return proc, setup - k1 - k2, (k1 + k2) / 2


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _finish(proc: subprocess.Popen, deadline: float) -> dict | None:
    """Wait for the worker to end; return its report, if it printed one."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the deadline") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups, raw_setups = [], []

    def timed_launch(args):
        # setup at the probe's reference speed, from the worker's own samples
        proc, setup, kernel = _launch(args, deadline)
        raw_setups.append(setup)
        setups.append(setup * REFERENCE_S / kernel)
        return proc

    for _ in range(SETUP_SAMPLES - 1):
        _finish(timed_launch([*base, "--setup-only"]), deadline)
    docs = HERE / "out" / f"docs-{workload}-seed{seed}"
    shutil.rmtree(docs, ignore_errors=True)
    extra = ["--seconds", str(seconds), "--trace", str(int(trace)), "--docs", str(docs)]
    try:
        report = _finish(timed_launch([*base, *extra]), deadline)
        if report is None:
            raise BenchError("worker printed no report")
        rounds = report["rounds"]
        problems = _check_answers(generate(workload, seed), rounds, docs)
    finally:
        shutil.rmtree(docs, ignore_errors=True)
    for r in rounds:
        for f in r["failures"]:
            print(f"failed: {f}", file=sys.stderr)
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {}
        for name, (unit, _how, _groups) in LAYER_METRICS.items():
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                             "unit": unit}
            if name in report["missing"]:
                metrics[name].update(value=None, missing=report["missing"][name])
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        # a failed request never meets a latency target: it sorts last
        latencies = sorted(lat if doc is not None else float("inf") for r in plain
                           for lat, doc in zip(r["latencies_s"], r["docs"]))
        if statistics.median(latencies) == float("inf"):
            raise BenchError("half or more of the requests failed; no median latency")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "req_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for line in _summary(workload, seed, report, rounds, raw_setups):
        print(line)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def _check_answers(requests, rounds: list[dict], docs: Path) -> list[str]:
    """Problems the independent checks find in the answers the worker wrote;
    an answer identical to one already checked for the same request is not
    checked again."""
    problems, seen = [], {}
    for r in rounds:
        for req, name in zip(requests, r["docs"]):
            if name is None:
                continue  # a failed request, counted in "failed"
            text = (docs / name).read_text()
            key = (req.argv, hashlib.sha256(text.encode()).hexdigest())
            if key not in seen:
                seen[key] = checks.check_document(req.check, req.params, req.argv, text)
            problems.extend(f"{req.label()}: {p}" for p in seen[key][:3])
    return problems


def _summary(workload: str, seed: int, report: dict, rounds: list[dict],
             raw_setups: list[float]) -> list[str]:
    """Comment lines with the raw (unscaled) times next to the scaled ones."""
    out = [f"# {workload} seed {seed}: {len(rounds)} rounds of {len(report['requests'])} requests",
           f"#   raw setup_s {statistics.median(raw_setups):.4f}"]
    for r in rounds:
        kernel = " ".join(f"{k} {1000 * v:.3f}" if v is not None else f"{k} -"
                          for k, v in r["kernel_s"].items())
        out.append(f"#   round{' (traced)' if r['traced'] else ''}: wall_s {r['wall_s']:.3f}"
                   f" raw {r['raw_wall_s']:.3f}; kernel ms {kernel}")
    for i, label in enumerate(report["requests"]):
        times = " ".join(f"{r['latencies_s'][i]:.3f}/{r['raw_latencies_s'][i]:.3f}" for r in rounds)
        out.append(f"#   {label}: {times} s scaled/raw")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops and reaps its worker (see _stop)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "wellspread" / "cli.py").is_file():
        print(f"error: no wellspread sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
