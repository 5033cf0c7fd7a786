"""The four benchmark workloads, their correctness oracles and their counts.

A workload turns a seed into inputs (``build``), runs one pass over its
job list (``run_pass``), checks a pass's outputs against oracles that do
not depend on exact bytes (``check``), and reads the counts a pass
reports (``output_counts``).  The oracles use the test suite's own
floors, neither tightened nor loosened.

Why these four (each stresses different modules):

- sieve: the README's end-to-end run.  Wedge Monte Carlo, explicit-family
  bucketing and querying, brute-force oracle.
- pipeline: the QRAM-free sieve step over a product-code family.  Branch-
  and-bound, sample trees, leaf unranking, minimum finding.  Never calls
  the wedge Monte Carlo; the only workload that touches ``circuit``.
- tradeoff: the rate calculus alone (``exponents.optimize``).
- qsearch: the BBHT emulator loops and Philox streams alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np


@dataclass
class Job:
    name: str
    text: str  # the job's output bytes, decoded
    error: str | None = None  # set when the job exited nonzero or raised


def run_cli(argv: list[str]) -> Job:
    from sievelab import cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # a job that raises counts as failed
        return Job(argv[0], buf.getvalue(), f"raised {exc!r}")
    return Job(argv[0], buf.getvalue(), None if rc == 0 else f"exit code {rc}")


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# --- sieve -------------------------------------------------------------------


class Sieve:
    name = "sieve"
    unit = "list vectors"

    def build(self, seed: int, smoke: bool) -> dict:
        d, n = (12, 300) if smoke else (24, 4000)
        argv = ["sieve", "--d", str(d), "--n", str(n), "--seed", str(seed)]
        if smoke:
            argv += ["--wedge-samples", "20000"]
        return {"argv": argv, "d": d, "n": n, "seed": seed}

    def units(self, inputs: dict) -> int:
        return inputs["n"]

    def run_pass(self, inputs: dict) -> list[Job]:
        return [run_cli(inputs["argv"])]

    @staticmethod
    def _row(jobs: list[Job]) -> dict:
        return json.loads(jobs[0].text)["results"][0]

    def check(self, inputs: dict, jobs: list[Job]) -> list[str]:
        from sievelab import sieve

        row = self._row(jobs)
        bad = []
        theta = row["theta"]
        inst = sieve.random_instance(inputs["d"], inputs["n"], inputs["seed"],
                                     mode="unit", theta=theta)
        x = inst.vectors
        gram_pairs = 0
        for lo in range(0, x.shape[0], 1000):
            dots = x[lo:lo + 1000] @ x.T
            gram_pairs += int(np.count_nonzero(dots >= math.cos(theta)))
            gram_pairs -= int(np.count_nonzero(
                np.diagonal(dots[:, lo:lo + 1000]) >= math.cos(theta)))
        if row["pairs_brute"] != gram_pairs:
            bad.append(f"pairs_brute {row['pairs_brute']} != Gram count {gram_pairs}")
        if row["pairs_found"] > row["pairs_brute"]:
            bad.append("pairs_found exceeds pairs_brute")
        if row["recall"] < 0.85:
            bad.append(f"recall {row['recall']:.4f} < 0.85")
        if not 0.5 <= row["ratio_inner_products"] <= 2.0:
            bad.append(f"ratio_inner_products {row['ratio_inner_products']:.4f} outside [0.5, 2]")
        return bad

    def recall(self, jobs: list[Job]) -> float:
        return self._row(jobs)["recall"]

    def output_counts(self, jobs: list[Job]) -> dict[str, float]:
        row = self._row(jobs)
        keys = ("filter_queries", "inner_product_queries", "insertions",
                "pairs_found", "pairs_brute", "ratio_inner_products")
        out = {f"sieve.{k}": row[k] for k in keys}
        out["sieve.candidate_yield"] = row["pairs_found"] / max(1, row["inner_product_queries"])
        out["sieve.t"] = row["t"]
        return out


# --- pipeline ----------------------------------------------------------------


class Pipeline:
    name = "pipeline"
    unit = "query vectors"
    ALPHA, BETA = 0.40, 0.55

    def build(self, seed: int, smoke: bool) -> dict:
        from sievelab import rpc, sieve
        from sievelab.rng import derive_seed

        d, n, m = (8, 120, 4) if smoke else (16, 2000, 6)
        return {
            "family": rpc.build_family("rpc", d, derive_seed(seed, 1), m=m, B=2),
            "instance": sieve.random_instance(d, n, derive_seed(seed, 2),
                                              mode="norm", radius=1.0),
            "minfind_seed": derive_seed(seed, 3),
        }

    def units(self, inputs: dict) -> int:
        return 2 * inputs["instance"].n  # two steps, one query per list vector

    def run_pass(self, inputs: dict) -> list[Job]:
        from sievelab import circuit

        jobs = []
        for mode, kwargs in (("exhaustive", {}),
                             ("minfind", {"seed": inputs["minfind_seed"], "minfind_runs": 3})):
            try:
                rep = circuit.pipeline_step(inputs["instance"], inputs["family"],
                                            self.ALPHA, self.BETA, mode=mode, **kwargs)
            except Exception as exc:
                jobs.append(Job(mode, "", f"raised {exc!r}"))
                continue
            jobs.append(Job(mode, json.dumps(rep.as_dict(), sort_keys=True) + "\n"))
        return jobs

    def check(self, inputs: dict, jobs: list[Job]) -> list[str]:
        inst = inputs["instance"]
        bound = inst.shrink_factor * inst.radius
        bad = []
        for job in jobs:
            for i, j in json.loads(job.text)["pairs"]:
                dist = float(np.linalg.norm(inst.vectors[i] - inst.vectors[j]))
                if i == j or not 1e-12 < dist <= bound + 1e-9:
                    bad.append(f"{job.name}: pair ({i}, {j}) at distance {dist} is not reducing")
        return bad

    def recall(self, jobs: list[Job]) -> float:
        exh, mf = ({tuple(p) for p in json.loads(j.text)["pairs"]} for j in jobs)
        return len(exh & mf) / len(exh) if exh else 1.0

    def output_counts(self, jobs: list[Job]) -> dict[str, float]:
        reps = [json.loads(j.text) for j in jobs]
        return {
            "circuit.oracle_calls": sum(r["oracle_calls"] for r in reps),
            "circuit.max_calls_per_query": max(r["max_calls_per_query"] for r in reps),
            "circuit.pairs_exhaustive": len(reps[0]["pairs"]),
        }


# --- tradeoff ----------------------------------------------------------------


class Tradeoff:
    name = "tradeoff"
    unit = "curve points"

    def build(self, seed: int, smoke: bool) -> dict:
        steps = {"t2": 3, "t3": 3, "t5": 3, "noqram": 2} if smoke else \
            {"t2": 100, "t3": 100, "t5": 100, "noqram": 40}
        return {"argvs": [["tradeoff", "--model", m, "--steps", str(s), "--seed", str(seed)]
                          for m, s in steps.items()],
                "points": sum(steps.values())}

    def units(self, inputs: dict) -> int:
        return inputs["points"]

    def run_pass(self, inputs: dict) -> list[Job]:
        return [run_cli(argv) for argv in inputs["argvs"]]

    def check(self, inputs: dict, jobs: list[Job]) -> list[str]:
        from sievelab import exponents

        bad = []
        for argv, job in zip(inputs["argvs"], jobs):
            rows = _csv_rows(job.text)
            if len(rows) != int(argv[argv.index("--steps") + 1]):
                bad.append(f"{argv[2]}: {len(rows)} rows")
            for row in rows:
                if row["model"] not in ("t2", "t3", "t5"):
                    continue
                closed = exponents.closed_form_rate(row["model"], float(row["gamma"]))
                if abs(float(row["time_rate"]) - closed) > 1e-4:
                    bad.append(f"{row['model']} gamma={row['gamma']}: "
                               f"{row['time_rate']} vs closed form {closed}")
        return bad

    def recall(self, jobs: list[Job]) -> None:
        return None

    def output_counts(self, jobs: list[Job]) -> dict[str, float]:
        return {}


# --- qsearch -----------------------------------------------------------------


class Qsearch:
    name = "qsearch"
    unit = "search trials"
    S_BLOCKED = (1, 4, 16, 64, 256)
    S_PAIR = (32, 8)

    def build(self, seed: int, smoke: bool) -> dict:
        trials = 10 if smoke else 300
        s = str(seed)
        return {
            "argvs": [
                ["qsearch", "--experiment", "blocked", "--M", "256",
                 "--S", ",".join(map(str, self.S_BLOCKED)), "--trials", str(trials), "--seed", s],
                ["qsearch", "--experiment", "pair", "--M1", "64", "--M2", "64", "--K", "16",
                 "--S", ",".join(map(str, self.S_PAIR)), "--trials", str(trials), "--seed", s],
                ["qsearch", "--experiment", "minfind", "--trials", str(trials), "--seed", s],
            ],
            "trials": trials,
        }

    def units(self, inputs: dict) -> int:
        return inputs["trials"] * (len(self.S_BLOCKED) + len(self.S_PAIR) + 1)

    def run_pass(self, inputs: dict) -> list[Job]:
        return [run_cli(argv) for argv in inputs["argvs"]]

    def check(self, inputs: dict, jobs: list[Job]) -> list[str]:
        blocked, pair, minfind = (_csv_rows(j.text) for j in jobs)
        bad = []
        for r in blocked:
            if float(r["mean_reloads"]) > math.ceil(int(r["M"]) / int(r["S"])):
                bad.append(f"blocked S={r['S']}: mean_reloads {r['mean_reloads']} > ceil(M/S)")
        for r in pair:
            if int(r["min_solutions"]) < int(r["K"]) / 4:
                bad.append(f"pair S={r['S']}: min_solutions {r['min_solutions']} < K/4")
        for r in minfind:
            if float(r["success_rate"]) < 0.5:
                bad.append(f"minfind success_rate {r['success_rate']} < 0.5")
        if [int(r["S"]) for r in blocked] != list(self.S_BLOCKED):
            bad.append("blocked rows do not cover the S list")
        return bad

    def recall(self, jobs: list[Job]) -> None:
        return None

    def output_counts(self, jobs: list[Job]) -> dict[str, float]:
        rows = _csv_rows(jobs[0].text)
        s = [float(r["S"]) for r in rows]
        means = [float(r["mean_evals"]) for r in rows]
        out = {f"qsearch.blocked.mean_evals.S{int(x)}": m for x, m in zip(s, means)}
        out["qsearch.blocked.slope"] = float(np.polyfit(np.log(s), np.log(means), 1)[0])
        return out


WORKLOADS = {w.name: w for w in (Sieve(), Pipeline(), Tradeoff(), Qsearch())}
