"""Seedable randomness for the whole package.

Every stochastic routine takes a 64-bit master seed and derives one
independent stream per task from (master seed, task index) through a
fixed SplitMix64 mix.  Streams are backed by numpy's Philox generator,
a 64-bit counter-based generator, so results do not depend on how work
is sliced across shards or trials.  Draws takes scalar draws of a
Generator's own stream through the bit generator's C interface, for
loops that pay per call, and interleaves exactly with any other call on
that Generator.  search_draws(seed) gives the stream make_rng(seed)
would give, as the calling thread's one SearchStream: its Philox is
re-keyed in place, so a short search pays neither a new Generator nor a
new bit generator, and its scalar draws are replayed in Python from raw
64-bit words fetched in bulk, so a draw pays no C call either.  Reading
the stream's generator settles the Philox to exactly what the scalar
draws have read.  The SearchStream it returns stays valid until the
same thread calls search_draws again.

DEFAULT_SEED is the seed used by the command line when none is given.
"""

from __future__ import annotations

import functools
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


class _Bounded:
    """``below`` over a class's 32-bit draw ``_next32()``: numpy's bounded integers."""

    __slots__ = ()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), as ``Generator.integers(0, n)``."""
        if not 1 <= n <= 1 << 32:
            raise DomainError(f"below needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        low = m & 0xFFFFFFFF
        if low < n:  # n bounds the rejection threshold (2**32 - n) % n
            threshold = ((1 << 32) - n) % n
            while low < threshold:
                m = self._next32() * n
                low = m & 0xFFFFFFFF
        return m >> 32


class Draws(_Bounded):
    """Scalar draws of ``rng``'s stream through ``rng.bit_generator.ctypes``.

    ``below(n)`` gives what ``rng.integers(0, n)`` gives and ``uniform()``
    what ``rng.random()`` gives, value for value: both step the same C
    state, so they interleave exactly with any other call on ``rng``.
    They skip the Generator's argument dispatch, which is most of a
    scalar draw's cost.  Like numpy, ``below`` takes 32-bit draws through
    Lemire's multiply-and-reject step and draws nothing for n = 1.
    Unlike the Generator's methods they take no lock, so no other thread
    may draw from ``rng`` meanwhile.  ``generator`` is ``rng`` itself, for
    the array draws a search makes on the same stream.  Draws is the
    reader for a Generator its caller owns and may call between draws;
    search_draws gives a SearchStream, which gives the same values
    without a C call per draw.
    """

    __slots__ = ("generator", "_state", "_next32", "_next_double")

    def __init__(self, rng: np.random.Generator):
        iface = rng.bit_generator.ctypes
        self.generator = rng  # its bit generator owns the state the pointer names
        self._state = iface.state
        self._next32 = functools.partial(iface.next_uint32, iface.state)
        self._next_double = iface.next_double

    def uniform(self) -> float:
        """Uniform float in [0, 1), as ``Generator.random()``."""
        return self._next_double(self._state)


# A search stream's first fetch after a restart or pick-up takes FIRST_FETCH
# raw words, each later one four times as many, up to MAX_FETCH.  A fetch
# costs about 0.6 us plus 20 ns a word, and a replayed draw about 0.15 us
# less than a C call (numpy 2.4, Python 3.11, a 2-core x86 host).  So a
# pipeline step's minimum finding, four words a search on average, pays
# for one small fetch, and a pair search, a few hundred words, for few.
FIRST_FETCH = 16
MAX_FETCH = 1024


class SearchStream(_Bounded):
    """make_rng(seed)'s stream for one thread's searches, its scalar draws
    replayed in Python from raw Philox words.

    ``below`` and ``uniform`` give what ``Draws(make_rng(seed))`` gives,
    value for value, without a C call per draw: they read 64-bit words
    that ``random_raw`` fetched in bulk and apply numpy's rules to them.
    A 32-bit draw is the low half of a fresh word, then that word's held
    high half; a double is the word's top 53 bits times 2**-53; ``below``
    is Lemire's multiply-and-reject over 32-bit draws.  Meanwhile the bit
    generator runs ahead of what has been read.  Reading ``generator``
    settles it to the exact word and held half, for the array draws a
    search makes on the same stream, and the next scalar draw picks up
    whatever word and held half those array draws left.  So read
    ``generator`` afresh for each array draw: one kept across a scalar
    draw may be out of step with the stream.
    """

    __slots__ = ("_key", "_template", "_bit_generator", "_generator",
                 "_base", "_fetched", "_fetch", "_words", "_has32", "_u32")

    def __init__(self):
        self._key = [0, 0]
        # Philox(key=k) for k < 2**64: key words [k, 0], zero counter, no
        # buffered output, no buffered uint32.  The setter reads lists of
        # ints faster than arrays.
        self._template = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bit_generator)
        self._replay_from(self._template)

    def _restart(self, seed: int) -> None:
        """Re-key the Philox in place to the start of make_rng(seed)'s stream."""
        self._key[0] = derive_seed(seed, 0)
        self._bit_generator.state = self._template
        self._replay_from(self._template)

    def _replay_from(self, state: dict) -> None:
        """Replay from ``state``, where the bit generator is, nothing fetched."""
        self._base = state  # None once array draws may have moved the bit generator
        self._fetched = 0  # words fetched since the bit generator was at _base
        self._fetch = FIRST_FETCH
        self._words = iter(())
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]

    def _refill(self) -> int:
        """The next word, from a fresh fetch."""
        if self._base is None:  # the generator's array draws moved it
            self._replay_from(self._bit_generator.state)
        k = self._fetch
        self._words = iter(self._bit_generator.random_raw(k).tolist())
        self._fetched += k
        self._fetch = min(4 * k, MAX_FETCH)
        return next(self._words)

    def _next32(self) -> int:
        """numpy's ``next_uint32``: the held high half, else a fresh word's low half."""
        if self._has32:
            self._has32 = 0
            return self._u32
        word = next(self._words, None)
        if word is None:
            if self._base is None:  # pick up the generator's held half first
                self._replay_from(self._bit_generator.state)
                return self._next32()
            word = self._refill()
        self._has32 = 1
        self._u32 = word >> 32
        return word & 0xFFFFFFFF

    def uniform(self) -> float:
        """Uniform float in [0, 1), as ``Generator.random()``."""
        word = next(self._words, None)
        if word is None:
            word = self._refill()
        return (word >> 11) * 2.0**-53

    @property
    def generator(self) -> np.random.Generator:
        """The stream's Generator, settled to what the scalar draws have read."""
        base = self._base
        if base is not None:
            if self._fetched or (self._has32, self._u32) != (base["has_uint32"], base["uinteger"]):
                self._bit_generator.state = dict(base, has_uint32=self._has32, uinteger=self._u32)
                read = self._fetched - self._words.__length_hint__()
                if read:
                    self._bit_generator.random_raw(read, output=False)
            self._base = None
            self._words = iter(())
            self._has32 = 0  # the next 32-bit draw asks the generator
        return self._generator


_threads = threading.local()  # .stream: the thread's SearchStream, built on first use


def search_draws(seed: int) -> SearchStream:
    """The calling thread's SearchStream, restarted at make_rng(seed)'s stream.

    Reads what ``Draws(make_rng(seed))`` reads, through ``below``,
    ``uniform`` and ``generator``, from the start of the stream.  Every
    call restarts the same stream, so the previous one this thread got
    moves with it: use one search's stream before starting the next.
    """
    stream = getattr(_threads, "stream", None)
    if stream is None:
        stream = _threads.stream = SearchStream()
    stream._restart(seed)
    return stream
