"""Seedable randomness for the whole package.

Every stochastic routine takes a 64-bit master seed and derives one
independent stream per task from (master seed, task index) through a
fixed SplitMix64 mix.  Streams are backed by numpy's Philox generator,
a 64-bit counter-based generator, so results do not depend on how work
is sliced across shards or trials.  Draws takes scalar draws of a
Generator's own stream through the bit generator's C interface, for
loops that pay per call.  search_draws(seed) gives the stream
make_rng(seed) would give, read through the calling thread's one Draws:
its Philox is re-keyed in place, so a short search pays neither a new
Generator nor a new C interface.  The Draws it returns stays valid until
the same thread calls search_draws again.

DEFAULT_SEED is the seed used by the command line when none is given.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DomainError

DEFAULT_SEED = 0x5EED

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 scrambling round; maps uint64 -> uint64."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(master: int, index: int) -> int:
    """Per-task seed: mix the master seed with a task index.

    Two rounds keep nearby (master, index) pairs statistically
    unrelated; the mapping is fixed so written-down seeds stay valid.
    """
    return splitmix64(splitmix64(master & _MASK64) ^ ((index & _MASK64) * _GOLDEN & _MASK64))


def make_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for task `index` under `seed` (Philox, counter-based)."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, index)))


class Draws:
    """Scalar draws of ``rng``'s stream through ``rng.bit_generator.ctypes``.

    ``below(n)`` gives what ``rng.integers(0, n)`` gives and ``uniform()``
    what ``rng.random()`` gives, value for value: both step the same C
    state, so they interleave exactly with any other call on ``rng``.
    They skip the Generator's argument dispatch, which is most of a
    scalar draw's cost.  Like numpy, ``below`` takes 32-bit draws through
    Lemire's multiply-and-reject step and draws nothing for n = 1.
    Unlike the Generator's methods they take no lock, so no other thread
    may draw from ``rng`` meanwhile.  ``generator`` is ``rng`` itself, for
    the array draws a search makes on the same stream.
    """

    __slots__ = ("generator", "_state", "_next_uint32", "_next_double")

    def __init__(self, rng: np.random.Generator):
        iface = rng.bit_generator.ctypes
        self.generator = rng  # its bit generator owns the state the pointer names
        self._state = iface.state
        self._next_uint32 = iface.next_uint32
        self._next_double = iface.next_double

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), as ``Generator.integers(0, n)``."""
        if not 1 <= n <= 1 << 32:
            raise DomainError(f"below needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        m = self._next_uint32(self._state) * n
        low = m & 0xFFFFFFFF
        if low < n:  # n bounds the rejection threshold (2**32 - n) % n
            threshold = ((1 << 32) - n) % n
            while low < threshold:
                m = self._next_uint32(self._state) * n
                low = m & 0xFFFFFFFF
        return m >> 32

    def uniform(self) -> float:
        """Uniform float in [0, 1), as ``Generator.random()``."""
        return self._next_double(self._state)


class _SearchStream:
    """One thread's Philox, its Draws and the state template that re-keys it."""

    __slots__ = ("key", "template", "bit_generator", "draws")

    def __init__(self):
        self.key = np.zeros(2, dtype=np.uint64)
        # Philox(key=k) for k < 2**64: key words [k, 0], zero counter, no
        # buffered output, no buffered uint32
        self.template = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self.key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.bit_generator = np.random.Philox(key=0)
        self.draws = Draws(np.random.Generator(self.bit_generator))


_threads = threading.local()  # .stream: the thread's _SearchStream, built on first use


def search_draws(seed: int) -> Draws:
    """The calling thread's Draws, re-keyed to make_rng(seed)'s stream.

    Reads what ``Draws(make_rng(seed))`` reads, through ``below``,
    ``uniform`` and ``generator``, from the start of the stream.  Every
    call re-keys the same Philox, so the previous Draws this thread got
    moves with it: use one search's Draws before starting the next.
    """
    stream = getattr(_threads, "stream", None)
    if stream is None:
        stream = _threads.stream = _SearchStream()
    stream.key[0] = derive_seed(seed, 0)
    stream.bit_generator.state = stream.template
    return stream.draws
