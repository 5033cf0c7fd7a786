"""Query-count emulation for memory-limited collision and multi-target
preimage search.

The closed-form optimizers live in :mod:`sievelab.exponents`; this module
realizes their cost equations as seeded count emulators at small bit sizes.
Each amplified stage draws the number of planted solutions from a binomial
with unit mean and charges ceil((pi/4) * sqrt(space / k)) iterations, so a
measured mean lands within fractions of a bit of the idealized sum.  Nested
statevector simulation of the full search is out of scope: the state space
(2^n times the block structure) is infeasible and the count structure is
what the equations assert.

:func:`collision_point` and :func:`mtps_point` compute one trade-off point
each; the ``symkey`` command prints one, and :func:`collision_table` and
:func:`mtps_table` sweep them over gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exponents
from .errors import DomainError, GuardError
from .rng import DEFAULT_SEED, derive_seed, make_rng

# Bit-size guard: counts are materialized per trial as floats, exact while
# they stay far below 2^53, and the tolerance arguments assume the ceil()
# noise stays sub-bit.
SYMKEY_N_GUARD = 22
# _emulate holds one count per trial
SYMKEY_TRIALS_GUARD = 10**6

_QUARTER_PI = math.pi / 4.0


@dataclass(frozen=True)
class EmulationPlan:
    """Parameters for one emulated search, all sizes in bits.

    ``l``/``r`` select the collision trade-off, ``t``/``r`` the preimage
    one; ``gamma`` is the log block size of the memory bound.
    """

    n: float
    l: float | None = None
    r: float | None = None
    t: float | None = None
    gamma: float = 0.0
    trials: int = 10
    seed: int = DEFAULT_SEED


def _check_plan(plan: EmulationPlan) -> None:
    if plan.n <= 0:
        raise DomainError(f"plan needs n > 0, got {plan.n}")
    if plan.n > SYMKEY_N_GUARD:
        raise GuardError(f"n={plan.n} exceeds the emulation guard {SYMKEY_N_GUARD}")
    if plan.trials < 1:
        raise DomainError("plan needs at least one trial")
    if plan.trials > SYMKEY_TRIALS_GUARD:
        raise GuardError(f"{plan.trials} trials exceed the emulation guard {SYMKEY_TRIALS_GUARD}")
    if plan.r is None:
        raise DomainError("plan needs the prefix length r")


def _emulate(
    plan: EmulationPlan, setup: int, chain_cost: int, membership: int, space: int
) -> float:
    """Mean over plan.trials of the setup plus one amplified stage, each
    iteration paying a chain and a block-membership test."""
    # One planted solution on average; k = 0 runs are charged as if the
    # single expected solution were present.
    k = np.maximum(1, make_rng(plan.seed).binomial(space, 1.0 / space, size=plan.trials))
    iterations = np.ceil(_QUARTER_PI * np.sqrt(space / k))
    return float(np.mean(setup + iterations * (chain_cost + membership)))


def emulate_collision_queries(plan: EmulationPlan) -> float:
    """Mean total queries to collide a random n-bit function, storing 2^l
    chain ends found behind prefix 2^r, membership-tested in 2^gamma blocks.

    The mean over ``plan.trials`` stays within one bit of
    ``2 ** collision_cost(n, l, r, gamma)``.
    """
    _check_plan(plan)
    if plan.l is None:
        raise DomainError("collision plan needs the list size l")
    # range and ordering checks live with the cost formula
    exponents.collision_cost(plan.n, plan.l, plan.r, plan.gamma)

    chain_cost = math.ceil(_QUARTER_PI * 2 ** (plan.r / 2.0))
    membership = math.ceil(2 ** (plan.l - plan.gamma))
    space = max(1, round(2 ** (plan.n - plan.r - plan.l)))
    return _emulate(plan, math.ceil(2**plan.l) * chain_cost, chain_cost, membership, space)


def emulate_mtps_queries(plan: EmulationPlan) -> float:
    """Mean total queries to invert one of 2^t targets of a random n-bit
    permutation; same block-membership accounting as the collision case.
    """
    _check_plan(plan)
    if plan.t is None:
        raise DomainError("preimage plan needs the target count t")
    exponents.mtps_cost(plan.n, plan.t, plan.r, plan.gamma)

    chain_cost = math.ceil(_QUARTER_PI * 2 ** (plan.r / 2.0))
    membership = math.ceil(2 ** (plan.t - plan.r - plan.gamma))
    space = max(1, round(2 ** (plan.n - plan.t)))
    return _emulate(plan, math.ceil(2**plan.t), chain_cost, membership, space)


def collision_point(n: float, gamma: float, trials: int = 10, seed: int = DEFAULT_SEED,
                    l: float | None = None, r: float | None = None) -> dict:
    """One collision trade-off point: n, gamma, l, r, T_bits_formula,
    T_bits_emulated, mem_bits and the emulated mean ``queries``.  The
    optimizer fills in only what was not given; its gamma <= n/3 bound
    does not hold for an explicit (l, r)."""
    if l is None or r is None:
        opt = exponents.collision_optimize(n, gamma)
        l = l if l is not None else opt.l
        r = r if r is not None else opt.r
    formula = exponents.collision_cost(n, l, r, gamma)
    plan = EmulationPlan(n=n, l=l, r=r, gamma=gamma, trials=trials, seed=seed)
    queries = emulate_collision_queries(plan)
    return {"n": n, "gamma": gamma, "l": l, "r": r, "T_bits_formula": formula,
            "T_bits_emulated": math.log2(queries), "mem_bits": l, "queries": queries}


def mtps_point(n: float, gamma: float, t: float | None = None, trials: int = 10,
               seed: int = DEFAULT_SEED, r: float | None = None) -> dict:
    """One preimage trade-off point: n, t, gamma, then the collision
    point's columns, with the target table as the stored data (l and
    mem_bits are t).  Without ``t`` the point takes the saturation t for
    2^n targets; a given ``t`` is used as is."""
    if t is None:
        t = exponents.mtps_optimize(n, n, gamma).t_effective
    if r is None:
        r = exponents.mtps_optimize(n, t, gamma).r
    formula = exponents.mtps_cost(n, t, r, gamma)
    plan = EmulationPlan(n=n, t=t, r=r, gamma=gamma, trials=trials, seed=seed)
    queries = emulate_mtps_queries(plan)
    return {"n": n, "t": t, "gamma": gamma, "l": t, "r": r, "T_bits_formula": formula,
            "T_bits_emulated": math.log2(queries), "mem_bits": t, "queries": queries}


def _rows(points) -> list[dict]:
    """The sweep rows: each point without its ``queries``."""
    return [{k: v for k, v in point.items() if k != "queries"} for point in points]


def collision_table(n: float, gammas, trials: int = 10, seed: int = DEFAULT_SEED) -> list[dict]:
    """:func:`collision_point` at each gamma, point i seeded with derive_seed(seed, i)."""
    return _rows(collision_point(n, gamma, trials, derive_seed(seed, i))
                 for i, gamma in enumerate(gammas))


def mtps_table(n: float, t: float, gammas, trials: int = 10,
               seed: int = DEFAULT_SEED) -> list[dict]:
    """Preimage analogue of :func:`collision_table`; ``t`` is capped at the
    saturation point by the optimizer and the effective value is reported."""
    return _rows(mtps_point(n, gamma, exponents.mtps_optimize(n, t, gamma).t_effective,
                            trials, derive_seed(seed, i))
                 for i, gamma in enumerate(gammas))
