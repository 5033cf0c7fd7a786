"""The benchmark's traced layers name sievelab functions by module and
attribute; a rename must fail here, not only in bench/run.py --smoke."""

import importlib
import subprocess
import sys
from pathlib import Path

import sievelab.circuit
import sievelab.cli
import sievelab.sieve
from sievelab import qsearch, rng, rpc

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        layers = importlib.import_module("layers")
        for target in layers.TARGETS:
            fn = getattr(importlib.import_module(target.module), target.function, None)
            assert callable(fn), f"{target.module}.{target.function}"
    finally:  # bench's flat module names stay out of later tests
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)


def test_smoke_bindings_are_the_originals():
    # the smoke run requires these re-bindings to be patched; each must be
    # the defining module's function, imported by name
    assert sievelab.sieve.relevant_filters is rpc.relevant_filters
    assert sievelab.circuit.min_find_with_cost is qsearch.min_find_with_cost
    assert sievelab.cli.make_rng is rng.make_rng


def test_bench_smoke_passes():
    # every workload, plain and traced, on tiny inputs: the traced hooks read
    # the arguments each patched function is called with
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"
