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

from . import circuit, exponents, geometry, qsearch, sieve, symkey
from .errors import DomainError, GuardError, RangeError
from .rng import DEFAULT_SEED, derive_seed, search_draws
# make_rng is bound, not called: the bench tracer patches it under this name
from .rng import make_rng  # noqa: F401

# per trial: the blocked --M or minfind --size list, the pair --K and evaluations
QSEARCH_SIZE_GUARD = 10**6
# per run: --trials times the per-trial quantity above, summed over the windows
QSEARCH_RUN_GUARD = 100 * QSEARCH_SIZE_GUARD
# least charge per trial: even a trial of a one-item search takes 35-55 us
QSEARCH_TRIAL_FLOOR = 1000
# tradeoff curve points; the largest curve in use has 100
STEPS_GUARD = 10**4
# geom --cap --mc dimension: each sample shard holds 2^16 x d doubles
CAP_MC_D_GUARD = 256

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
        text = render_csv(rows, list(rows[0]) if rows else
                          [f.name for f in dataclasses.fields(sieve.SieveRun)])
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {ns.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _steps(ns) -> int:
    if ns.steps < 1:
        raise DomainError(f"--steps must be >= 1, got {ns.steps}")
    if ns.steps > STEPS_GUARD:
        raise GuardError(f"--steps {ns.steps} exceeds the curve guard {STEPS_GUARD}")
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
    for flag, g in (("--gamma-min", gmin), ("--gamma-max", gmax)):
        if not g >= 1.0:
            raise DomainError(f"gamma is a linear memory factor and starts at 1, got {flag} {g}")
    gammas = _sweep(gmin, gmax, ns)
    pts = exponents.tradeoff_curve(model, (math.log2(float(g)) for g in gammas))
    return [
        {"model": model, "gamma": float(g), "gamma_rate": p.gamma_rate,
         "alpha": p.alpha, "beta": p.beta, "t_rate": p.t_rate,
         "time_rate": p.time_rate, "qram_rate": p.qram_rate, "seed": seed}
        for g, p in zip(gammas, pts)
    ]


# --- sieve -------------------------------------------------------------------


def cmd_sieve(ns) -> list[dict]:
    run = sieve.run(ns.d, ns.n, ns.seed, ns.method, ns.theta, ns.alpha, ns.beta, ns.t,
                    ns.wedge_samples)
    return [] if run is None else [dataclasses.asdict(run)]


# --- qsearch -----------------------------------------------------------------


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"{flag} wants a nonempty comma-separated integer list, got {text!r}")
    return values


def _check_trials(trials: int, per_trial: int) -> None:
    charge = max(per_trial, QSEARCH_TRIAL_FLOOR)
    if trials * charge > QSEARCH_RUN_GUARD:
        raise GuardError(f"{trials} trials charged {charge} each exceed the run guard {QSEARCH_RUN_GUARD}")


def cmd_qsearch(ns) -> list[dict]:
    if ns.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {ns.trials}")

    if ns.experiment == "blocked":
        if ns.M > QSEARCH_SIZE_GUARD:
            raise GuardError(f"M={ns.M} exceeds the search-size guard {QSEARCH_SIZE_GUARD}")
        s_values = _parse_int_list(ns.S, "--S")
        _check_trials(ns.trials, ns.M * len(s_values))
        for S in s_values:
            if not 1 <= S <= ns.M:
                raise DomainError(f"--S windows must lie in 1 <= S <= --M = {ns.M}, got S={S}")
        # about six marks, M >= 1 by now; blocked_search_scaling refuses p outside (0, 1]
        p = ns.p if ns.p is not None else min(1.0, 6.0 / ns.M)
        scaling = qsearch.blocked_search_scaling(ns.M, s_values, p, ns.trials, ns.seed)
        return [{"experiment": "blocked", **dataclasses.asdict(r), "seed": ns.seed}
                for r in scaling]

    if ns.experiment == "pair":
        # a trial's evaluation count is fixed before its draws; refuse before any
        s_values = _parse_int_list(ns.S, "--S")
        evals = [qsearch.pair_search_plan(ns.M1, ns.M2, ns.K, S)[-1] for S in s_values]
        for S, cost in zip(s_values, evals):
            if max(cost, ns.K) > QSEARCH_SIZE_GUARD:
                raise GuardError(f"S={S}, K={ns.K}: {cost} evaluations per trial; both "
                                 f"must stay within the search-size guard {QSEARCH_SIZE_GUARD}")
        _check_trials(ns.trials, sum(evals))
        rows = []
        for S, cost in zip(s_values, evals):
            counts = []
            for i in range(ns.trials):
                rep = qsearch.blocked_pair_search(
                    ns.M1, ns.M2, ns.K, S, derive_seed(ns.seed, 5000 + i)
                )
                counts.append(len(rep.solutions))
            rows.append(
                {"experiment": "pair", "M1": ns.M1, "M2": ns.M2, "K": ns.K, "S": S,
                 "trials": ns.trials, "mean_evals": float(cost),
                 "mean_solutions": float(np.mean(counts)),
                 "min_solutions": int(min(counts)), "seed": ns.seed}
            )
        return rows

    # minfind
    if ns.size < 1:
        raise DomainError(f"--size must be >= 1, got {ns.size}")
    if ns.size > QSEARCH_SIZE_GUARD:
        raise GuardError(f"size={ns.size} exceeds the search-size guard {QSEARCH_SIZE_GUARD}")
    _check_trials(ns.trials, ns.size)
    hits, evals = 0, []
    for i in range(ns.trials):
        values = search_draws(derive_seed(ns.seed, 900_000 + i)).generator.standard_normal(ns.size)
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
    if ns.d < 1:
        raise DomainError(f"--d must be >= 1, got {ns.d}")
    # the cost depends on the bucket sizes alone, so no vector is shaped at any d
    cost = circuit.chain_cost(sizes)
    row = {
        "buckets": ";".join(str(k) for k in sizes),
        "d": ns.d, "t": len(sizes), "depth": cost.depth,
        "size": cost.size, "width": cost.width, "seed": ns.seed,
    }
    return [row]


# --- geom --------------------------------------------------------------------


def cmd_geom(ns) -> list[dict]:
    beta = ns.beta if ns.beta is not None else ns.alpha
    # a cap or wedge at |alpha| = 1 or |beta| = 1 has a volume but no rate
    # (empty cell); the volume routines refuse every other out-of-range input
    if ns.cap:
        shape, rate = "cap", None if abs(ns.alpha) == 1.0 else geometry.cap_rate(ns.alpha)
        if ns.mc:
            if ns.d > CAP_MC_D_GUARD:
                raise GuardError(f"d={ns.d} exceeds the Monte-Carlo guard {CAP_MC_D_GUARD}")
            est = geometry.cap_volume_mc(ns.d, ns.alpha, ns.samples, ns.seed)
            value, stderr, samples = est.estimate, est.stderr, ns.samples
        else:
            value, stderr, samples = geometry.cap_volume_exact(ns.d, ns.alpha), None, None
    else:
        if ns.exact:
            raise DomainError("wedge volumes have no exact evaluator here; use --mc")
        on_edge = 1.0 in (abs(ns.alpha), abs(beta))
        shape, rate = "wedge", None if on_edge else geometry.wedge_rate(ns.alpha, beta, ns.theta)
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
        point = symkey.collision_point(ns.n, ns.gamma, ns.trials, ns.seed, ns.l, ns.r)
    else:
        point = symkey.mtps_point(ns.n, ns.gamma, ns.t, ns.trials, ns.seed, ns.r)
    return [{"kind": ns.kind, "n": ns.n, "t": None, **point, "seed": ns.seed}]


# --- parser ------------------------------------------------------------------


def _add_command(subs, name: str, help_text: str, func) -> argparse.ArgumentParser:
    """A subcommand running func, with the common --seed, --out and --format."""
    sub = subs.add_parser(name, help=help_text)
    sub.set_defaults(func=func)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sievelab")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = _add_command(subs, "tradeoff", "cost-model curves", cmd_tradeoff)
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

    p = _add_command(subs, "sieve", "one bucketed near-neighbour run", cmd_sieve)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("query", "fas"), default="query")
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--wedge-samples", type=int, default=None)

    p = _add_command(subs, "qsearch", "bounded-memory search experiments", cmd_qsearch)
    p.add_argument("--experiment", required=True, choices=("blocked", "pair", "minfind"))
    p.add_argument("--M", type=int, default=256)
    p.add_argument("--S", default="1,4,16,64,256")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--M1", type=int, default=64)
    p.add_argument("--M2", type=int, default=64)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--trials", type=int, default=300)

    p = _add_command(subs, "circuit", "comparator-tree cost accounting", cmd_circuit)
    p.add_argument("--buckets", required=True)
    p.add_argument("--d", type=int, default=2)

    p = _add_command(subs, "geom", "cap and wedge volumes", cmd_geom)
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

    p = _add_command(subs, "symkey", "collision / preimage query emulation", cmd_symkey)
    p.add_argument("--kind", required=True, choices=("collision", "mtps"))
    p.add_argument("--n", type=float, default=16.0)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=10)

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
    except (DomainError, RangeError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardError) else 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
