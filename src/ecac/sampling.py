"""Seeded draws, equal bit for bit to NumPy's ``default_rng(seed)``.

The package draws two kinds of sample: ``choice(n, k, replace=False)``
(k-means' seed objects, the percentile sample) and one element of an
array (the ``random`` strategy), which is ``integers(0, m)``. Both are
reproduced here from their definitions, so that a run does not import
NumPy's random package, which loads OpenSSL through ``secrets`` and
``hashlib``:

* the seed is hashed into four 32-bit words by SeedSequence's hash-mix,
  which then yields the 128-bit state and increment of
* PCG64 (O'Neill 2014): a 128-bit LCG whose output is its new state's
  XSL-RR 64-bit permutation, handed out in 32-bit halves, low half
  first, when a draw needs 32 bits;
* every draw from 0..r, a shuffle's too, is Lemire's (2019)
  multiply-and-reject on 32 bits (64 bits when r needs them);
* ``choice`` takes Floyd's algorithm and shuffles its k picks, except
  when n > 10,000 and k > n // 50, where it shuffles the last k slots of
  0..n-1 and returns them as they stand.

``Sampler(seed)`` raises ``InvalidSpec`` for a seed that is negative, a
bool or not an integer; it is the one place that checks a seed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpec

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash-mix constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# choice(replace=False) shuffles the tail of 0..n-1 instead of taking
# Floyd's picks when n > _TAIL_MIN_N and k > n // _TAIL_CUTOFF.
_TAIL_MIN_N = 10_000
_TAIL_CUTOFF = 50


def _seed_words(seed) -> list[int]:
    """The seed's 32-bit words, least significant first ([0] for 0)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidSpec(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _pcg_seed(seed) -> tuple[int, int]:
    """SeedSequence(seed).generate_state(4, uint64), as PCG64's 128-bit
    initial state and stream."""
    entropy = _seed_words(seed)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    words = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    return words[0] << 64 | words[1], words[2] << 64 | words[3]


class Sampler:
    """One seeded stream: the draws of NumPy's ``default_rng(seed)``."""

    def __init__(self, seed):
        initstate, initseq = _pcg_seed(seed)
        self._inc = (initseq << 1 | 1) & _MASK128
        # pcg64_srandom: a step from state 0, add the seed, step again.
        self._state = (self._inc + initstate) * _PCG_MULT + self._inc & _MASK128
        self._half = None  # the high half of the last 64-bit output, if unused

    def _next64(self) -> int:
        state = self._state = self._state * _PCG_MULT + self._inc & _MASK128
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def _bounded(self, r: int) -> int:
        """Lemire's draw from 0..r, NumPy's ``random_bounded_uint64``."""
        if r == 0:
            return 0
        bits, draw = (32, self._next32) if r <= _MASK32 else (64, self._next64)
        mask = (1 << bits) - 1
        excl = r + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - r) % excl
            while m & mask < threshold:
                m = draw() * excl
        return m >> bits

    def integer(self, m: int) -> int:
        """One index in 0..m-1: ``integers(0, m)``, the index that
        ``choice`` of an m-element array takes."""
        return self._bounded(m - 1)

    def choice(self, n: int, k: int, shuffle: bool = True) -> np.ndarray:
        """``choice(n, k, replace=False)``: k distinct ids of 0..n-1 as
        int64. ``shuffle=False`` skips only the final shuffle of Floyd's
        picks; the set is the same, unlike NumPy's ``shuffle=False``,
        which moves the tail cutoff."""
        if not 0 <= k <= n:
            raise InvalidSpec(f"cannot take {k} distinct ids of {n}")
        if n > _TAIL_MIN_N and k > n // _TAIL_CUTOFF:
            # Swap slot i with a slot in 0..i, for i from n - 1 down; only
            # displaced slots are held, so time and memory are O(k).
            moved: dict[int, int] = {}
            picks = [0] * k
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self._bounded(i)
                value = moved.pop(i, i)
                if j != i:
                    value, moved[j] = moved.get(j, j), value
                picks[i - n + k] = value
            if k == n:
                picks[0] = moved.get(0, 0)
            return np.array(picks, dtype=np.int64)
        picks, seen = [], set()
        for j in range(n - k, n):
            value = self._bounded(j)
            value = j if value in seen else value
            seen.add(value)
            picks.append(value)
        if shuffle:
            for i in range(k - 1, 0, -1):
                j = self._bounded(i)
                picks[i], picks[j] = picks[j], picks[i]
        return np.array(picks, dtype=np.int64)
