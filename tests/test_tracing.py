"""The benchmark's tracer (perfbench/tracing.py) finds every name it wraps."""

from __future__ import annotations

from pathlib import Path

import wellspread.cli  # noqa: F401  the benchmark's worker imports the package this way

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    # a renamed or deleted traced function turns its per-layer metrics into
    # nulls in the benchmark's result line
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.remove()
