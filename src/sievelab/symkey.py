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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exponents
from .errors import DomainError, GuardError
from .rng import DEFAULT_SEED, derive_seed, make_rng

# Bit-size guard: counts are materialized as integers per trial, and the
# tolerance arguments assume the ceil() noise stays sub-bit.
SYMKEY_N_GUARD = 22

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
    if plan.r is None:
        raise DomainError("plan needs the prefix length r")


def _amplified_iterations(space: int, rng) -> int:
    # One planted solution on average; k = 0 runs are charged as if the
    # single expected solution were present.
    k = max(1, int(rng.binomial(space, 1.0 / space)))
    return math.ceil(_QUARTER_PI * math.sqrt(space / k))


def _emulate(
    plan: EmulationPlan, setup: int, chain_cost: int, membership: int, space: int
) -> float:
    """Mean over plan.trials of the setup plus one amplified stage, each
    iteration paying a chain and a block-membership test."""
    rng = make_rng(plan.seed)
    per_iteration = chain_cost + membership
    return float(np.mean(
        [setup + _amplified_iterations(space, rng) * per_iteration for _ in range(plan.trials)]
    ))


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


def collision_table(
    n: float, gammas, trials: int = 10, seed: int = DEFAULT_SEED
) -> list[dict]:
    """Rows (gamma, l, r, T_bits_formula, T_bits_emulated, mem_bits) along a
    gamma sweep, parameters chosen by the closed-form optimizer."""
    rows = []
    for i, gamma in enumerate(gammas):
        opt = exponents.collision_optimize(n, gamma)
        formula = exponents.collision_cost(n, opt.l, opt.r, gamma)
        measured = emulate_collision_queries(
            EmulationPlan(
                n=n, l=opt.l, r=opt.r, gamma=gamma,
                trials=trials, seed=derive_seed(seed, i),
            )
        )
        rows.append(
            {
                "n": n,
                "gamma": gamma,
                "l": opt.l,
                "r": opt.r,
                "T_bits_formula": formula,
                "T_bits_emulated": math.log2(measured),
                "mem_bits": opt.memory_bits,
            }
        )
    return rows


def mtps_table(
    n: float, t: float, gammas, trials: int = 10, seed: int = DEFAULT_SEED
) -> list[dict]:
    """Preimage analogue of :func:`collision_table`; ``t`` is capped at the
    saturation point by the optimizer and the effective value is reported."""
    rows = []
    for i, gamma in enumerate(gammas):
        opt = exponents.mtps_optimize(n, t, gamma)
        formula = exponents.mtps_cost(n, opt.t_effective, opt.r, gamma)
        measured = emulate_mtps_queries(
            EmulationPlan(
                n=n, t=opt.t_effective, r=opt.r, gamma=gamma,
                trials=trials, seed=derive_seed(seed, i),
            )
        )
        rows.append(
            {
                "n": n,
                "t": opt.t_effective,
                "gamma": gamma,
                "l": opt.t_effective,  # stored data: the target table
                "r": opt.r,
                "T_bits_formula": formula,
                "T_bits_emulated": math.log2(measured),
                "mem_bits": opt.t_effective,
            }
        )
    return rows
