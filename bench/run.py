"""sievelab benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sieve --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, untraced and traced
    python3 bench/run.py --smoke                        # self-test on tiny inputs

Workloads (see workloads.py): sieve, pipeline, tradeoff, qsearch.  Every
measurement runs in fresh child processes (worker.py) that import the
program from ``src/`` of this checkout, with one BLAS thread, one
sievelab worker thread and a fixed hash seed; the benchmark never
inherits those settings.

--trace 0 measures the end-to-end metrics with tracing off:

- setup_s: spawn of a fresh interpreter until ``import sievelab`` is done
  and the workload's inputs are built; median of three fresh processes.
- first_pass_s: the first pass in a fresh process; median of the three.
- wall_s: median warm pass time; the three processes each run warm
  passes for a third of --seconds.  Quartiles, samples and the tail
  percentile go to the detail record.
- units_per_s: workload units (list vectors, query vectors, curve
  points, search trials) per second over the warm passes.
- peak_rss_mb: peak resident set of a process after its warm passes;
  median of the three.

Every time above is in reference-speed seconds: the measured time scaled
by how fast a fixed reference kernel ran just before and after it (see
reference.py), which cancels most of a shared host's drift.  The raw
seconds are in the detail record.

Outputs are checked by oracles (workloads.py); every pass must repeat
the first pass's bytes.  Failed jobs count in ``failed``; error_rate
(failed / attempted) and recall (sieve, pipeline) are printed with the
other metrics and kept in the detail record.

--trace 1 runs half of --seconds untraced and half traced in one fresh
process and reports the per-layer metrics of layers.py, the tracing
overhead (traced minus untraced median pass) and the import split from
``-X importtime`` in a separate child.  Spans are written to
``.bench_out/spans-<workload>.npz``.  For tradeoff the traced run also
checks, outside the timed passes, that SIEVELAB_THREADS=2 gives the same
bytes.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The command exits nonzero without that
line when the program cannot be imported or a child process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import kernel_time, normalise
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = tuple(WORKLOADS)
RUN_DEADLINE_S = 170.0
# fresh processes per untraced run; each times its set-up and first pass,
# then runs warm passes for a share of --seconds, which spreads the warm
# passes over more of the run and over several process layouts
FRESH_PROCESSES = 3
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SIEVELAB_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    return {**os.environ, **FIXED_ENV, "PYTHONPATH": str(ROOT / "src")}


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; return (seconds from spawn to its ready line, final message)."""
    OUT.mkdir(exist_ok=True)
    log_path = OUT / "worker-stderr.log"
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                stdout=subprocess.PIPE, stderr=log, text=True,
                                env=child_env(), cwd=ROOT)
        try:
            ready = None
            lines = []
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                    raise BenchError(f"worker {args} timed out")
                line = proc.stdout.readline()
                if not line:
                    break
                if ready is None:
                    ready = time.perf_counter() - t0
                lines.append(json.loads(line))
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or not lines:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{tail}")
    return ready, lines[-1]


def machine_record() -> dict:
    rec = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "platform": platform.platform(), "loadavg_start": os.getloadavg()}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), "unknown")
    except OSError:
        rec["cpu_model"] = "unknown"
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            rec["cpu_max"] = f"{Path(path).name}: {Path(path).read_text().strip()}"
            break
        except OSError:
            rec["cpu_max"] = "unknown"
    rec.update(FIXED_ENV)
    return rec


def timing(samples: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with at least
    ten samples beyond it (None when there are fewer than twenty)."""
    s = sorted(samples)
    q = statistics.quantiles(s, n=4) if len(s) > 1 else [s[0]] * 3
    tail = None
    for p in (99.9, 99, 90, 50):
        if len(s) * (1 - p / 100) >= 10:
            tail = {"percentile": p, "value": s[min(len(s) - 1, int(len(s) * p / 100))]}
            break
    return {"median": statistics.median(s), "q1": q[0], "q3": q[2], "n": len(s),
            "tail": tail, "samples": samples}


def worker_args(workload, seed, seconds, mode, smoke) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--mode", mode]
    return args + ["--smoke"] if smoke else args


def untraced(workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    setups, setups_raw, firsts, firsts_raw, warm, warm_raw, rss = [], [], [], [], [], [], []
    attempted, failed, reasons, hashes = 0, 0, [], set()
    for _ in range(FRESH_PROCESSES):
        before = kernel_time()
        ready, msg = spawn(worker_args(workload, seed, seconds / FRESH_PROCESSES, "main", smoke),
                           deadline)
        setups_raw.append(ready)
        setups.append(normalise(ready, before, msg["kernel_s"]))
        firsts_raw.append(msg["first_pass_raw"])
        firsts.append(msg["first_pass_s"])
        warm += msg["samples"]
        warm_raw += msg["raw"]
        rss.append(msg["peak_rss_mb"])
        attempted += msg["attempted"]
        failed += msg["failed"]
        reasons += msg["reasons"]
        hashes.add(msg["sha256"])
    if len(hashes) != 1:
        failed += 1
        reasons.append("fresh processes disagree on the output bytes")
    wall = timing(warm)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "first_pass_s": (statistics.median(firsts), "s"),
        "wall_s": (wall["median"], "s"),
        "units_per_s": (msg["units"] * wall["n"] / sum(warm), "units/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    detail = {"setup_samples": setups, "first_pass_samples": firsts, "wall": wall,
              "raw": {"setup_s": setups_raw, "first_pass_s": firsts_raw,
                      "wall_s": timing(warm_raw)},
              "peak_rss_samples": rss,
              "error_rate": failed / attempted, "recall": msg["recall"],
              "sha256": msg["sha256"], "units_per_pass": f"{msg['units']} {msg['unit']}",
              "versions": msg["versions"], "reasons": reasons}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}


def traced(workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    from layers import PER_LAYER, import_times

    imp = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sievelab"],
                         capture_output=True, text=True, env=child_env(), cwd=ROOT,
                         timeout=max(1.0, deadline - time.perf_counter()))
    if imp.returncode != 0:
        raise BenchError(f"import sievelab failed:\n{imp.stderr[-2000:]}")
    _, msg = spawn(worker_args(workload, seed, seconds, "trace", smoke), deadline)
    layer = dict(msg["layer"])
    layer.update(import_times(imp.stderr))
    untraced_wall = statistics.median(msg["samples"])
    traced_wall = statistics.median(msg["traced"])
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    units = dict(PER_LAYER)
    metrics = {name: (layer[name], units[name]) for name, _ in PER_LAYER}
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "untraced_samples": msg["samples"], "traced_samples": msg["traced"],
              "raw": {"untraced": msg["raw"], "traced": msg["traced_raw"]},
              "bindings": msg["bindings"], "leaked": msg["leaked"],
              "span_count": msg["span_count"], "spans": msg["spans"],
              "largest_self": msg["largest_self"],
              "recall": msg["recall"], "sha256": msg["sha256"], "reasons": msg["reasons"],
              "error_rate": msg["failed"] / msg["attempted"]}
    return {"metrics": metrics, "attempted": msg["attempted"], "failed": msg["failed"],
            "detail": detail}


def measure(workload, seed, seconds, trace, smoke, machine) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    res = (traced if trace else untraced)(workload, seed, seconds, smoke, deadline)
    res["detail"].update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                         machine={**machine, "loadavg_end": os.getloadavg()})
    return res


def result_line(res: dict) -> dict:
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}


def show(workload: str, res: dict) -> None:
    for name, (value, unit) in res["metrics"].items():
        print(f"{workload:9s} {name:40s} {value:16.10g} {unit}")
    d = res["detail"]
    print(f"{workload:9s} {'error_rate':40s} {d['error_rate']:16.10g} "
          f"ratio ({res['failed']}/{res['attempted']} jobs)")
    if d["recall"] is not None:
        print(f"{workload:9s} {'recall':40s} {d['recall']:16.10g} ratio")
    for reason in d["reasons"]:
        print(f"{workload:9s} FAILED: {reason}")


def smoke(machine) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            res = measure(workload, 1, 0.2, trace, True, machine)
            got = {k: u for k, (v, u) in res["metrics"].items()}
            if got != want[trace]:
                odd = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{workload} trace {trace}: missing, extra or mis-united {odd}")
            if res["failed"]:
                problems.append(f"{workload} trace {trace}: {res['detail']['reasons']}")
            if trace:
                d = res["detail"]
                if d["leaked"] or not d["bindings"]:
                    problems.append(f"{workload}: bindings not restored: {d['leaked']}")
                for binding in ("sievelab.sieve.relevant_filters",
                                "sievelab.circuit.min_find_with_cost", "sievelab.cli.make_rng"):
                    if binding not in d["bindings"]:
                        problems.append(f"{workload}: {binding} was not patched")
            print(f"smoke {workload} trace {trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")
    for p in problems:
        print(f"smoke FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test on tiny inputs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sievelab" / "__init__.py").is_file():
        print(f"error: no sievelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_record()
    try:
        if args.smoke:
            return smoke(machine)
        if args.workload != "all":
            res = measure(args.workload, args.seed, args.seconds, args.trace, False, machine)
            show(args.workload, res)
            print(json.dumps({"detail": res["detail"]}))
            print(json.dumps(result_line(res)))
            return 0
        record = {}
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                res = measure(workload, args.seed, args.seconds, trace, False, machine)
                show(workload, res)
                record.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = {
                    **result_line(res), "detail": res["detail"]}
        OUT.mkdir(exist_ok=True)
        (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps({"seed": args.seed, "correct": all(
            r[k]["correct"] for r in record.values() for k in r)}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
