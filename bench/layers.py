"""Which sievelab functions the traced run wraps, and the per-layer metrics.

Metric names are ``<module>.<function>.<what>``: ``s`` is inclusive time
per pass, ``self_s`` is that time minus the time traced callees cover,
``calls`` counts calls per pass.  These times are raw seconds, median
over the traced passes; a module a workload never calls reads 0.
Counts read off the workload outputs (ledgers, pair counts,
blocked-search means) sit beside them.  Layers never wait on one
another (one thread, no queues), so there is no wait time to record.
"""

from __future__ import annotations

import numpy as np

from tracer import Target


def _wedge_samples(c, args, kwargs, result):
    c["geometry.wedge_volume_mc.samples"] += kwargs.get("samples", args[4] if len(args) > 4 else 0)


def _relevant_filters(c, args, kwargs, result):
    c["rpc.relevant_filters.hits"] += len(result)
    c["rpc.relevant_filters.scanned"] += args[0].t


def _search_report(c, args, kwargs, result):
    c["qsearch.oracle_evals"] += result.oracle_evals
    c["qsearch.qram_reloads"] += result.qram_reloads
    c["qsearch.searches"] += 1
    c["qsearch.successes"] += bool(result.success)


def _min_find(c, args, kwargs, result):
    values = np.asarray(args[0] if args else kwargs["values"])
    idx, cost = result
    c["qsearch.oracle_evals"] += cost
    c["qsearch.searches"] += 1
    c["qsearch.successes"] += bool(values[idx] <= values.min())


TARGETS = [
    Target("geometry.wedge_volume_mc", "sievelab.geometry", "wedge_volume_mc", _wedge_samples),
    Target("geometry.cap_volume_exact", "sievelab.geometry", "cap_volume_exact"),
    Target("rpc.relevant_filters", "sievelab.rpc", "relevant_filters", _relevant_filters),
    Target("rpc.build_sample_tree", "sievelab.rpc", "build_sample_tree"),
    Target("rpc.leaf_index", "sievelab.rpc", "leaf_index"),
    Target("rpc.build_family", "sievelab.rpc", "build_family"),
    Target("sieve.preprocess", "sievelab.sieve", "preprocess"),
    Target("sieve.query_method", "sievelab.sieve", "query_method"),
    Target("sieve.brute_force_pairs", "sievelab.sieve", "brute_force_pairs"),
    Target("sieve.random_instance", "sievelab.sieve", "random_instance"),
    Target("circuit.pipeline_step", "sievelab.circuit", "pipeline_step"),
    Target("circuit.build_circuit", "sievelab.circuit", "build_circuit"),
    Target("circuit.circuit_eval_index", "sievelab.circuit", "circuit_eval_index"),
    Target("qsearch.min_find_with_cost", "sievelab.qsearch", "min_find_with_cost", _min_find),
    Target("qsearch.blocked_search", "sievelab.qsearch", "blocked_search", _search_report),
    Target("qsearch.blocked_pair_search", "sievelab.qsearch", "blocked_pair_search",
           _search_report),
    Target("exponents.optimize", "sievelab.exponents", "optimize"),
    Target("exponents.noqram_point", "sievelab.exponents", "noqram_point"),
    Target("rng.make_rng", "sievelab.rng", "make_rng"),
    Target("cli.main", "sievelab.cli", "main"),
    Target("cli.render", "sievelab.cli", "render_csv"),
    Target("cli.render", "sievelab.cli", "render_json"),
]

# (name, unit), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("geometry.wedge_volume_mc.s", "s"),
    ("geometry.wedge_volume_mc.calls", "count"),
    ("geometry.wedge_volume_mc.samples", "count"),
    ("geometry.cap_volume_exact.calls", "count"),
    ("rpc.relevant_filters.s", "s"),
    ("rpc.relevant_filters.calls", "count"),
    ("rpc.relevant_filters.hits", "count"),
    ("rpc.relevant_filters.hit_ratio", "ratio"),
    ("rpc.build_sample_tree.s", "s"),
    ("rpc.build_sample_tree.calls", "count"),
    ("rpc.leaf_index.s", "s"),
    ("rpc.leaf_index.calls", "count"),
    ("rpc.build_family.s", "s"),
    ("sieve.preprocess.self_s", "s"),
    ("sieve.query_method.self_s", "s"),
    ("sieve.brute_force_pairs.s", "s"),
    ("sieve.random_instance.s", "s"),
    ("sieve.filter_queries", "count"),
    ("sieve.inner_product_queries", "count"),
    ("sieve.insertions", "count"),
    ("sieve.pairs_found", "count"),
    ("sieve.pairs_brute", "count"),
    ("sieve.candidate_yield", "ratio"),
    ("sieve.ratio_inner_products", "ratio"),
    ("sieve.t", "count"),
    ("circuit.pipeline_step.self_s", "s"),
    ("circuit.build_circuit.s", "s"),
    ("circuit.circuit_eval_index.s", "s"),
    ("circuit.circuit_eval_index.calls", "count"),
    ("circuit.oracle_calls", "count"),
    ("circuit.max_calls_per_query", "count"),
    ("circuit.pairs_exhaustive", "count"),
    ("qsearch.min_find_with_cost.s", "s"),
    ("qsearch.min_find_with_cost.calls", "count"),
    ("qsearch.blocked_search.s", "s"),
    ("qsearch.blocked_search.calls", "count"),
    ("qsearch.blocked_pair_search.s", "s"),
    ("qsearch.blocked_pair_search.calls", "count"),
    ("qsearch.oracle_evals", "count"),
    ("qsearch.qram_reloads", "count"),
    ("qsearch.success_ratio", "ratio"),
    ("qsearch.blocked.mean_evals.S1", "count"),
    ("qsearch.blocked.mean_evals.S4", "count"),
    ("qsearch.blocked.mean_evals.S16", "count"),
    ("qsearch.blocked.mean_evals.S64", "count"),
    ("qsearch.blocked.mean_evals.S256", "count"),
    ("qsearch.blocked.slope", "ratio"),
    ("exponents.optimize.s", "s"),
    ("exponents.optimize.calls", "count"),
    ("exponents.optimize.ms_per_point", "ms"),
    ("exponents.noqram_point.s", "s"),
    ("exponents.noqram_point.calls", "count"),
    ("rng.make_rng.s", "s"),
    ("rng.make_rng.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.render.s", "s"),
    ("setup.import.numpy_s", "s"),
    ("setup.import.scipy_s", "s"),
    ("setup.import.sievelab_self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.errors", "count"),
]


def pass_metrics(summary: dict, counters: dict, output_counts: dict) -> dict[str, float]:
    """One traced pass's per-layer values (everything but setup.* and trace.*)."""
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        head, _, what = name.rpartition(".")
        if head in summary and what in ("s", "self_s", "calls"):
            out[name] = summary[head][what]
    out["geometry.wedge_volume_mc.samples"] = counters.get("geometry.wedge_volume_mc.samples", 0)
    out["rpc.relevant_filters.hits"] = counters.get("rpc.relevant_filters.hits", 0)
    scanned = counters.get("rpc.relevant_filters.scanned", 0)
    hits = out["rpc.relevant_filters.hits"]
    out["rpc.relevant_filters.hit_ratio"] = hits / scanned if scanned else 0.0
    for key in ("qsearch.oracle_evals", "qsearch.qram_reloads"):
        out[key] = counters.get(key, 0)
    searches = counters.get("qsearch.searches", 0)
    successes = counters.get("qsearch.successes", 0)
    out["qsearch.success_ratio"] = successes / searches if searches else 0.0
    opt = summary["exponents.optimize"]
    out["exponents.optimize.ms_per_point"] = 1e3 * opt["s"] / opt["calls"] if opt["calls"] else 0.0
    for name, unit in PER_LAYER:
        if name.startswith(("sieve.", "circuit.", "qsearch.blocked.")) and name not in out:
            out[name] = output_counts.get(name, 0)
    return out


def import_times(importtime_stderr: str) -> dict[str, float]:
    """Self import time in seconds per package, from ``-X importtime``."""
    totals = {"numpy": 0.0, "scipy": 0.0, "sievelab": 0.0}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = int(parts[0])
        except ValueError:  # the header row
            continue
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us * 1e-6
    return {
        "setup.import.numpy_s": totals["numpy"],
        "setup.import.scipy_s": totals["scipy"],
        "setup.import.sievelab_self_s": totals["sievelab"],
    }
