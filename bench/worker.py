"""One fresh benchmark process: import sievelab, build a workload's inputs,
run passes, report on stdout as one JSON object per line.

Started by run.py, never by hand.  Modes:

- main: import and build inputs (the parent times the process from
  spawn until the ``ready`` line), then the first pass of the fresh
  process, checked against the workload's oracles, then warm passes for
  --seconds; every pass's bytes must equal the first pass's.  The peak
  RSS is read after the timed passes.
- trace: the same set-up and first pass, then untraced passes for half
  of --seconds and traced passes for the other half.  Reports per-layer
  metrics, the tracing overhead, and whether every patched binding was
  restored; tradeoff is then run once more with two worker threads.

Every pass is followed by a run of the reference kernel (reference.py),
so each pass time is also reported in reference-speed seconds.

The program is imported from ``src/`` of the checkout this file sits
in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import kernel_time, normalise

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 1


def emit(**msg) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def import_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sievelab

    if Path(sievelab.__file__).resolve().parent != (src / "sievelab").resolve():
        raise ImportError(f"sievelab imported from {sievelab.__file__}, not from {src}")


def digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.text.encode())
    return h.hexdigest()


class Run:
    """Pass bookkeeping: jobs attempted, jobs failed and why, and pass
    times both raw and normalised to reference speed (reference.py)."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.kernel_s = kernel_time()  # the reference kernel's latest time
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.reference = None  # the first pass's jobs

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def timed_pass(self) -> tuple[float, float, list]:
        """(raw seconds, reference-speed seconds, jobs) of one pass."""
        t0 = time.perf_counter()
        jobs = self.workload.run_pass(self.inputs)
        raw = time.perf_counter() - t0
        before, self.kernel_s = self.kernel_s, kernel_time()
        return raw, normalise(raw, before, self.kernel_s), jobs

    def judge(self, jobs) -> None:
        """Count a pass's jobs; the first pass is checked by the oracles,
        later passes must reproduce its bytes."""
        self.attempted += len(jobs)
        broken = [j for j in jobs if j.error is not None]
        for job in broken:
            self.fail(f"{job.name}: {job.error}")
        if self.reference is None:
            self.reference = jobs
            if not broken:
                try:
                    problems = self.workload.check(self.inputs, jobs)
                except Exception as exc:  # an unreadable output fails the check
                    problems = [f"check raised {exc!r}"]
                for p in problems:
                    self.fail(p)
            return
        for job, ref in zip(jobs, self.reference):
            if job.error is None and job.text != ref.text:
                self.fail(f"{job.name}: output bytes differ from the first pass")

    def passes_for(self, seconds: float) -> tuple[list[float], list[float]]:
        """Pass for `seconds` (at least MIN_PASSES times); raw and normalised times."""
        raw, norm = [], []
        deadline = time.perf_counter() + seconds
        while len(raw) < MIN_PASSES or time.perf_counter() < deadline:
            r, n, jobs = self.timed_pass()
            raw.append(r)
            norm.append(n)
            self.judge(jobs)
        return raw, norm


def thread_check(run: Run) -> None:
    """tradeoff must give identical bytes with a two-thread worker pool."""
    os.environ["SIEVELAB_THREADS"] = "2"
    try:
        _, _, jobs = run.timed_pass()
    finally:
        os.environ["SIEVELAB_THREADS"] = "1"
    run.attempted += len(jobs)
    for job, ref in zip(jobs, run.reference):
        if job.error is not None or job.text != ref.text:
            run.fail(f"{job.name}: SIEVELAB_THREADS=2 changed the output bytes")


def traced_passes(run: Run, seconds: float) -> dict:
    from layers import PER_LAYER, TARGETS, pass_metrics
    from tracer import Tracer

    tracer = Tracer(TARGETS)
    per_pass, summaries, raw, norm = [], [], [], []
    tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        while len(raw) < MIN_PASSES or time.perf_counter() < deadline:
            lo = tracer.mark()
            tracer.counters.clear()
            r, n, jobs = run.timed_pass()
            raw.append(r)
            norm.append(n)
            run.judge(jobs)
            counts = run.workload.output_counts(jobs) if not any(j.error for j in jobs) else {}
            summary = tracer.summary(lo, tracer.mark())
            summaries.append(summary)
            per_pass.append(pass_metrics(summary, dict(tracer.counters), counts))
    finally:
        tracer.uninstall()
    leaked = tracer.leaked()
    for binding in leaked:
        run.fail(f"tracing left {binding} patched")
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"spans-{run.workload.name}.npz"))
    layer = {name: statistics.median(p[name] for p in per_pass)
             for name, _ in PER_LAYER if name in per_pass[0]}
    layer["trace.errors"] = sum(tracer.errors.values())
    spans = {name: {k: statistics.median(s[name][k] for s in summaries) for k in summaries[0][name]}
             for name in tracer.names}
    return {"layer": layer, "traced_raw": raw, "traced": norm, "bindings": tracer.bindings(),
            "leaked": leaked, "span_count": tracer.mark(), "spans": spans,
            "largest_self": max(spans, key=lambda n: spans[n]["self_s"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("main", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.smoke)
    emit(event="ready")
    run = Run(workload, inputs)
    kernel_after_setup = run.kernel_s
    first_raw, first_s, jobs = run.timed_pass()
    run.judge(jobs)
    ok = not any(j.error for j in jobs)
    import numpy
    import scipy

    result = {
        "event": "done", "kernel_s": kernel_after_setup,
        "first_pass_raw": first_raw, "first_pass_s": first_s,
        "units": workload.units(inputs), "unit": workload.unit,
        "sha256": digest(jobs), "recall": workload.recall(jobs) if ok else None,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.mode == "main":
        result["raw"], result["samples"] = run.passes_for(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result["raw"], result["samples"] = run.passes_for(args.seconds / 2)
        result.update(traced_passes(run, args.seconds / 2))
        if workload.name == "tradeoff":
            thread_check(run)
    result.update(attempted=run.attempted, failed=run.failed, reasons=run.reasons)
    emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
