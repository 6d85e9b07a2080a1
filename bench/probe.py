"""Run one boxcgf CLI call in this process and record when its phases end.

Usage: python3 bench/probe.py TIMING_JSON TRACE CLI_ARGS...

The boxcgf package is imported from ``src/`` of the checkout that holds
this file.  Two marks are always taken: when the subcommand's runner is
entered and when the report has been written.  With TRACE = 1, the
public functions of each layer are also wrapped at every module that
binds them, and every call becomes a span (name, start, end, parent,
counters).  Spans stay in memory; when the CLI returns, they are reduced
to per-layer totals, which go into TIMING_JSON with the marks, the exit
code and the peak resident memory of this process.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans of wrapped calls, kept in memory until ``summary``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span or None, counters]
        self.local = threading.local()
        self.root: list | None = None  # open runner span: parent of spans in pool threads
        self.calls: dict[str, int] = {}  # calls of functions counted without a span
        self.lock = threading.Lock()

    def count(self, name: str, fn):
        calls, lock = self.calls, self.lock
        calls[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name: str, fn, counters=None, root: bool = False):
        spans, local = self.spans, self.local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else self.root, None]
            spans.append(span)
            stack.append(span)
            if root:
                self.root = span
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if root:
                    self.root = None
            if counters is not None:
                span[4] = counters(args, kwargs, result, span[2] - span[1])
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer totals: seconds, calls, counters and self times."""
        children: dict[int, list[list]] = {}
        for span in self.spans:
            if span[3] is not None:
                children.setdefault(id(span[3]), []).append(span)
        out: dict[str, float] = {f"{name}.calls": n for name, n in self.calls.items()}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            add(f"{name}.s", end - start)
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", end - start - _covered(start, end, children.get(id(span), ())))
            for key, value in (span[4] or {}).items():
                add(f"{name}.{key}", value)
        return out


def _covered(start: float, end: float, kids) -> float:
    """Length of [start, end] covered by the union of the kids' intervals."""
    total, reach = 0.0, start
    for _, a, b, _, _ in sorted(kids, key=lambda s: s[1]):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _noise_counters(args, kwargs, result, seconds) -> dict:
    return {"cells": result.size}


def _integrals_counters(args, kwargs, result, seconds) -> dict:
    """Replicas drawn, and replicas, cells and seconds of each path."""
    model, box = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "b")
    n = len(result)
    if model.kind == "gaussian_ma" and model.nonlinearity == "identity":
        return {"replicas": n, "batch_replicas": n, "batch_s": seconds}
    cells = math.prod(max(1, int(round(r / model.grid_h))) for r in box.sides)
    return {"replicas": n, "grid_cells": n * cells, "grid_s": seconds}


def _write_counters(args, kwargs, result, seconds) -> dict:
    return {"bytes": Path(result).stat().st_size}


def _rows_counters(args, kwargs, result, seconds) -> dict:
    return {"rows": len(result.rows)}


def _install(tracer: Tracer | None, marks: dict) -> None:
    """Wrap the layers' public functions at every boxcgf module binding them."""
    from boxcgf import cgf, config, engine, experiments, fields, report

    def rebind(module, attr: str, name: str, counters=None, span: bool = True) -> None:
        original = getattr(module, attr)
        wrapped = (tracer.wrap(name, original, counters) if span
                   else tracer.count(name, original))
        for mod in [m for key, m in sys.modules.items() if key.startswith("boxcgf")]:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def mark_run(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            marks.setdefault("run_start", time.monotonic())
            return fn(*args, **kwargs)
        return run

    write = report.ExperimentReport.write

    @functools.wraps(write)
    def marked_write(*args, **kwargs):
        path = write(*args, **kwargs)
        marks["write_end"] = time.monotonic()
        return path

    report.ExperimentReport.write = marked_write
    for key, fn in list(experiments.RUNNERS.items()):
        if tracer is not None:
            fn = tracer.wrap("experiments.run", fn, _rows_counters, root=True)
        experiments.RUNNERS[key] = mark_run(fn)
    if tracer is None:
        return
    report.ExperimentReport.write = tracer.wrap("report.write", marked_write, _write_counters)
    from_json = config.ExperimentConfig.from_json.__func__
    config.ExperimentConfig.from_json = classmethod(tracer.wrap("config.from_json", from_json))
    rebind(fields, "white_noise", "fields.white_noise", _noise_counters)
    rebind(fields, "sample_integral", "fields.sample_integral")
    rebind(fields, "sample_integrals", "fields.sample_integrals", _integrals_counters)
    rebind(cgf, "quad_envelope", "cgf.quad_envelope")
    for attr in ("iterate_quadratic_upper", "iterate_quadratic_lower", "ladder_descent"):
        rebind(engine, attr, f"engine.{attr}")
    for attr in ("step_up", "step_down"):  # thousands of calls: counted, not timed
        rebind(engine, attr, f"engine.{attr}", span=False)


def _peak_rss_kb() -> int:
    """High-water resident set of this address space.

    Unlike ru_maxrss, VmHWM starts afresh at exec, so it does not include
    the parent's memory at fork.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    timing_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import boxcgf
    from boxcgf import cli
    import_s = time.perf_counter() - t0
    if not Path(boxcgf.__file__).resolve().is_relative_to(SRC):
        print(f"probe: boxcgf imported from {boxcgf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    marks: dict = {}
    tracer = Tracer() if trace else None
    _install(tracer, marks)
    code = cli.main(argv)
    result = dict(marks, exit=code, import_s=import_s, peak_rss_kb=_peak_rss_kb())
    if tracer is not None:
        result["layers"] = tracer.summary()
    Path(timing_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
