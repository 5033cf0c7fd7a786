"""Command-line front end: every curve and experiment as a seeded batch job.

Each subcommand accepts --seed, --out and --format.  CSV output is
comma-separated with a header row, 12 significant digits and LF line
endings; JSON output is one object {"config": ..., "results": ...}.
Identical configurations produce byte-identical files.

Exit codes: 0 success, 2 usage or parameter error, 3 size guard,
4 internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import circuit, exponents, geometry, qsearch, rpc, sieve, symkey
from .errors import DomainError, GuardError, RangeError
from .rng import DEFAULT_SEED, derive_seed, make_rng

SIEVE_D_GUARD = 64
SIEVE_N_GUARD = 10**5
FAMILY_GUARD = 10**6

_SIEVE_MODELS = list(exponents.MODELS)
_EXTRA_MODELS = ["lower", "bkz", "symkey-collision", "symkey-mtps"]


# --- output ------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row.get(c)) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(config: dict, rows) -> str:
    return json.dumps({"config": config, "results": rows}, sort_keys=True, indent=2) + "\n"


def _emit(ns: argparse.Namespace, rows: list[dict]) -> None:
    config = {k: v for k, v in vars(ns).items() if k not in ("out", "func")}
    if ns.format == "json":
        text = render_json(config, rows)
    else:
        # the header is the first row's keys; only an empty sieve has no row
        text = render_csv(rows, list(rows[0]) if rows else _SIEVE_COLS)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _steps(ns) -> int:
    if ns.steps < 1:
        raise DomainError(f"--steps must be >= 1, got {ns.steps}")
    return ns.steps


def _sweep(lo: float, hi: float, ns) -> np.ndarray:
    """--steps evenly spaced points from lo to hi, both finite."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"sweep bounds must be finite, got {lo} and {hi}")
    return np.linspace(lo, hi, _steps(ns))


# --- tradeoff ----------------------------------------------------------------


def cmd_tradeoff(ns) -> list[dict]:
    model, seed = ns.model, ns.seed

    if model in ("symkey-collision", "symkey-mtps"):
        n = ns.n if ns.n is not None else (16.0 if model == "symkey-collision" else 21.0)
        gmin = ns.gamma_min if ns.gamma_min is not None else 0.0
        gmax = ns.gamma_max if ns.gamma_max is not None else n / 3.0
        gammas = _sweep(gmin, gmax, ns)
        if model == "symkey-collision":
            table = symkey.collision_table(n, gammas, trials=ns.trials, seed=seed)
        else:
            t = ns.t if ns.t is not None else n
            table = symkey.mtps_table(n, t, gammas, trials=ns.trials, seed=seed)
        return [{"model": model, **{k: float(v) for k, v in r.items()}, "seed": seed}
                for r in table]

    if model == "lower":
        svals = _sweep(ns.s_min, ns.s_max, ns)
        return [{"model": model, "s_rate": float(s),
                 "time_rate": exponents.lower_bound_rate(float(s)), "seed": seed}
                for s in svals]

    if model == "bkz":
        ks = _sweep(ns.k_min, ns.k_max, ns)
        return [{"model": model, "k": k, "enum_rate": enum,
                 "sieve_rate_noqram": noqram, "sieve_rate_fullqram": fullqram, "seed": seed}
                for k, enum, noqram, fullqram in exponents.bkz_curves(ks)]

    if model == "noqram":
        taus = _sweep(ns.t_min, ns.t_max, ns)
        return [{"model": model, "t_rate": p.t_rate, "alpha": p.alpha, "beta": p.beta,
                 "time_rate": p.time_rate, "seed": seed}
                for p in exponents.noqram_curve(taus)]

    # remaining models sweep the linear memory parameter gamma >= 1
    gmin = ns.gamma_min if ns.gamma_min is not None else 1.0
    gmax = ns.gamma_max if ns.gamma_max is not None else exponents.GAMMA_MAX.get(model, 1.0)
    if not gmin >= 1.0:
        raise DomainError(f"gamma is a linear memory factor and starts at 1, got {gmin}")
    gammas = _sweep(gmin, gmax, ns)
    pts = exponents.tradeoff_curve(model, (math.log2(float(g)) for g in gammas))
    return [
        {"model": model, "gamma": float(g), "gamma_rate": p.gamma_rate,
         "alpha": p.alpha, "beta": p.beta, "t_rate": p.t_rate,
         "time_rate": p.time_rate, "qram_rate": p.qram_rate, "seed": seed}
        for g, p in zip(gammas, pts)
    ]


# --- sieve -------------------------------------------------------------------

# the CSV header of a run with --n 0, which has no row to take it from
_SIEVE_COLS = [
    "d", "n", "method", "theta", "alpha", "beta", "t", "wedge_estimate",
    "pairs_found", "pairs_brute", "recall",
    "filter_queries", "inner_product_queries", "insertions",
    "expected_insert_coverage", "expected_query_coverage", "expected_inner_products",
    "ratio_inner_products", "seed",
]


def cmd_sieve(ns) -> list[dict]:
    if ns.n < 0:
        raise DomainError(f"--n must be >= 0, got {ns.n}")
    if ns.d > SIEVE_D_GUARD:
        raise GuardError(f"d={ns.d} exceeds the dimension guard {SIEVE_D_GUARD}")
    if ns.n > SIEVE_N_GUARD:
        raise GuardError(f"n={ns.n} exceeds the list-size guard {SIEVE_N_GUARD}")
    if ns.n == 0:
        return []

    theta = ns.theta
    alpha = ns.alpha if ns.alpha is not None else math.cos(theta)
    beta = ns.beta if ns.beta is not None else math.cos(theta)

    # t = ceil(3 / W) covers a close pair with probability about 1 - e^-3
    if ns.t is not None:
        t, wedge_est = ns.t, None
    else:
        if ns.wedge_samples is None:
            wedge_est = geometry.wedge_volume_quad(ns.d, alpha, beta, theta)
        else:
            wedge_est = geometry.wedge_volume_mc(
                ns.d, alpha, beta, theta, ns.wedge_samples, derive_seed(ns.seed, 2)
            ).estimate
        if wedge_est <= 0.0:
            raise GuardError("wedge estimate vanished; pass --t explicitly")
        t = math.ceil(3.0 / wedge_est)
    if t > FAMILY_GUARD:
        raise GuardError(f"filter count {t} exceeds the family guard {FAMILY_GUARD}")

    instance = sieve.random_instance(ns.d, ns.n, ns.seed, mode="unit", theta=theta)
    family = rpc.build_family("explicit", ns.d, derive_seed(ns.seed, 1), t=t)
    ledger = sieve.QueryLedger()
    if ns.method == "query":
        buckets = sieve.preprocess(instance, family, beta, ledger)
        pairs = sieve.query_keys(instance, family, alpha, buckets, ledger)
    else:
        pairs = sieve.fas_keys(instance, family, alpha, beta, ledger)
    brute = sieve.brute_force_keys(instance)
    found = np.intersect1d(pairs, brute, assume_unique=True).size
    recall = found / brute.size if brute.size else 1.0
    expected = sieve.expected_ledger(ns.n, t, alpha, beta, ns.d)

    row = {
        "d": ns.d, "n": ns.n, "method": ns.method, "theta": theta,
        "alpha": alpha, "beta": beta, "t": t, "wedge_estimate": wedge_est,
        "pairs_found": pairs.size, "pairs_brute": brute.size, "recall": recall,
        "filter_queries": ledger.filter_queries,
        "inner_product_queries": ledger.inner_product_queries,
        "insertions": ledger.insertions,
        "expected_insert_coverage": expected.insert_coverage,
        "expected_query_coverage": expected.query_coverage,
        "expected_inner_products": expected.inner_products,
        "ratio_inner_products": ledger.inner_product_queries / expected.inner_products,
        "seed": ns.seed,
    }
    return [row]


# --- qsearch -----------------------------------------------------------------


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"{flag} wants a nonempty comma-separated integer list, got {text!r}")
    return values


def cmd_qsearch(ns) -> list[dict]:
    if ns.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {ns.trials}")

    if ns.experiment == "blocked":
        s_values = _parse_int_list(ns.S, "--S")
        # about six marks; blocked_search_scaling refuses M < 1 and p outside (0, 1]
        p = ns.p if ns.p is not None else min(1.0, 6.0 / max(ns.M, 1))
        scaling = qsearch.blocked_search_scaling(ns.M, s_values, p, ns.trials, ns.seed)
        return [{"experiment": "blocked", **dataclasses.asdict(r), "seed": ns.seed}
                for r in scaling]

    if ns.experiment == "pair":
        rows = []
        for S in _parse_int_list(ns.S, "--S"):
            counts, evals = [], []
            for i in range(ns.trials):
                rep = qsearch.blocked_pair_search(
                    ns.M1, ns.M2, ns.K, S, derive_seed(ns.seed, 5000 + i)
                )
                counts.append(len(rep.solutions))
                evals.append(rep.oracle_evals)
            rows.append(
                {"experiment": "pair", "M1": ns.M1, "M2": ns.M2, "K": ns.K, "S": S,
                 "trials": ns.trials, "mean_evals": float(np.mean(evals)),
                 "mean_solutions": float(np.mean(counts)),
                 "min_solutions": int(min(counts)), "seed": ns.seed}
            )
        return rows

    # minfind
    if ns.size < 1:
        raise DomainError(f"--size must be >= 1, got {ns.size}")
    hits, evals = 0, []
    for i in range(ns.trials):
        values = make_rng(derive_seed(ns.seed, 900_000 + i)).standard_normal(ns.size)
        idx, cost = qsearch.min_find_with_cost(values, derive_seed(ns.seed, i))
        hits += int(idx == int(np.argmin(values)))
        evals.append(cost)
    row = {"experiment": "minfind", "size": ns.size, "trials": ns.trials,
           "success_rate": hits / ns.trials, "mean_evals": float(np.mean(evals)),
           "seed": ns.seed}
    return [row]


# --- circuit -----------------------------------------------------------------


def cmd_circuit(ns) -> list[dict]:
    sizes = _parse_int_list(ns.buckets, "--buckets")
    if any(k < 0 for k in sizes):
        raise DomainError("bucket sizes must be nonnegative")
    if ns.d < 1:  # before the zero buckets are shaped; build_circuit checks d too
        raise DomainError(f"--d must be >= 1, got {ns.d}")
    circ = circuit.build_circuit([np.zeros((k, ns.d)) for k in sizes], d=ns.d)
    report = circuit.cost_report(circ)
    row = {
        "buckets": ";".join(str(k) for k in report["bucket_sizes"]),
        "d": ns.d, "t": report["t"], "depth": report["depth"],
        "size": report["size"], "width": report["width"], "seed": ns.seed,
    }
    return [row]


# --- geom --------------------------------------------------------------------


def cmd_geom(ns) -> list[dict]:
    use_mc = ns.mc or (ns.wedge and not ns.exact)
    beta = ns.beta if ns.beta is not None else ns.alpha
    if ns.cap:
        shape, rate = "cap", geometry.cap_rate(ns.alpha)
        if use_mc:
            est = geometry.cap_volume_mc(ns.d, ns.alpha, ns.samples, ns.seed)
            value, stderr, samples = est.estimate, est.stderr, ns.samples
        else:
            value, stderr, samples = geometry.cap_volume_exact(ns.d, ns.alpha), None, None
    else:
        if ns.exact:
            raise DomainError("wedge volumes have no exact evaluator here; use --mc")
        shape, rate = "wedge", geometry.wedge_rate(ns.alpha, beta, ns.theta)
        est = geometry.wedge_volume_mc(ns.d, ns.alpha, beta, ns.theta, ns.samples, ns.seed)
        value, stderr, samples = est.estimate, est.stderr, ns.samples
    row = {
        "shape": shape, "d": ns.d, "alpha": ns.alpha,
        "beta": beta if ns.wedge else None,
        "theta": ns.theta if ns.wedge else None,
        "samples": samples, "value": value, "stderr": stderr,
        "rate": rate, "seed": ns.seed,
    }
    return [row]


# --- symkey ------------------------------------------------------------------


def cmd_symkey(ns) -> list[dict]:
    if ns.kind == "collision":
        opt = exponents.collision_optimize(ns.n, ns.gamma)
        l = ns.l if ns.l is not None else opt.l
        r = ns.r if ns.r is not None else opt.r
        formula = exponents.collision_cost(ns.n, l, r, ns.gamma)
        queries = symkey.emulate_collision_queries(
            symkey.EmulationPlan(n=ns.n, l=l, r=r, gamma=ns.gamma,
                                 trials=ns.trials, seed=ns.seed)
        )
        t_field, mem = None, l
    else:
        t = ns.t if ns.t is not None else exponents.mtps_optimize(ns.n, ns.n, ns.gamma).t_effective
        r = ns.r if ns.r is not None else exponents.mtps_optimize(ns.n, t, ns.gamma).r
        formula = exponents.mtps_cost(ns.n, t, r, ns.gamma)
        queries = symkey.emulate_mtps_queries(
            symkey.EmulationPlan(n=ns.n, t=t, r=r, gamma=ns.gamma,
                                 trials=ns.trials, seed=ns.seed)
        )
        l, t_field, mem = t, t, t
    row = {
        "kind": ns.kind, "n": ns.n, "t": t_field, "gamma": ns.gamma,
        "l": l, "r": r, "T_bits_formula": formula,
        "T_bits_emulated": math.log2(queries), "mem_bits": mem,
        "queries": queries, "seed": ns.seed,
    }
    return [row]


# --- parser ------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sievelab")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("tradeoff", help="cost-model curves")
    p.add_argument("--model", required=True, choices=_SIEVE_MODELS + _EXTRA_MODELS)
    p.add_argument("--gamma-min", type=float, default=None)
    p.add_argument("--gamma-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=exponents.N_RATE)
    p.add_argument("--s-min", type=float, default=0.0)
    p.add_argument("--s-max", type=float, default=0.155)
    p.add_argument("--k-min", type=float, default=70.0)
    p.add_argument("--k-max", type=float, default=2000.0)
    p.add_argument("--n", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_tradeoff)
    _add_common(p)

    p = subs.add_parser("sieve", help="one bucketed near-neighbour run")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("query", "fas"), default="query")
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--wedge-samples", type=int, default=None)
    p.set_defaults(func=cmd_sieve)
    _add_common(p)

    p = subs.add_parser("qsearch", help="bounded-memory search experiments")
    p.add_argument("--experiment", required=True, choices=("blocked", "pair", "minfind"))
    p.add_argument("--M", type=int, default=256)
    p.add_argument("--S", default="1,4,16,64,256")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--M1", type=int, default=64)
    p.add_argument("--M2", type=int, default=64)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--trials", type=int, default=300)
    p.set_defaults(func=cmd_qsearch)
    _add_common(p)

    p = subs.add_parser("circuit", help="comparator-tree cost accounting")
    p.add_argument("--buckets", required=True)
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cmd_circuit)
    _add_common(p)

    p = subs.add_parser("geom", help="cap and wedge volumes")
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--cap", action="store_true")
    shape.add_argument("--wedge", action="store_true")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--exact", action="store_true")
    how.add_argument("--mc", action="store_true")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--samples", type=int, default=10**5)
    p.set_defaults(func=cmd_geom)
    _add_common(p)

    p = subs.add_parser("symkey", help="collision / preimage query emulation")
    p.add_argument("--kind", required=True, choices=("collision", "mtps"))
    p.add_argument("--n", type=float, default=16.0)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_symkey)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.format is None:
        ns.format = "json" if ns.subcommand == "sieve" else "csv"
    try:
        _emit(ns, ns.func(ns))
    except (DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
