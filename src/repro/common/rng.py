"""Deterministic, named random-number streams.

Every stochastic model component (Linux background-thread wakeups, workload
access patterns, measurement jitter) draws from its own named stream so that

* runs are reproducible given a root seed,
* adding a new consumer never perturbs the draws of existing ones, and
* per-trial reseeding is explicit (``RngHub(root_seed, trial=k)``).

This follows the standard practice for stochastic discrete-event simulation
(independent streams per model entity).

A :class:`Stream` is a pure-Python port of numpy's
``Generator(PCG64(SeedSequence(entropy=root_seed, spawn_key=(trial,
_stable_hash(name)))))``, bit for bit, for the four draws the model makes:
``integers``, ``standard_normal``, ``exponential`` and ``lognormal``. The
port keeps ``numpy.random`` out of every run, and pins the draws here
rather than under numpy's stream-compatibility policy (NEP 19). numpy stays
the test oracle (``tests/common/test_rng.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.common.ziggurat import FE, FI, KE, KI, WE, WI

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier (pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Ziggurat tail starts and 2**-53 (distributions.c, ziggurat_constants.h).
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_EXP_R = 7.69711747013104971
_TO_DOUBLE = 1.0 / 9007199254740992.0


def _words32(n: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative int (``[0]`` for 0)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> Tuple[int, int]:
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _seed_words(entropy: int, spawn_key: Tuple[int, ...]) -> List[int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, uint64)``."""
    run = _words32(entropy)
    spawn = [w for key in spawn_key for w in _words32(key)]
    if spawn and len(run) < _POOL_SIZE:
        run += [0] * (_POOL_SIZE - len(run))
    assembled = run + spawn
    pool = []
    hash_const = _INIT_A
    for word in (assembled + [0] * _POOL_SIZE)[:_POOL_SIZE]:
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                word, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], word)
    for extra in assembled[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(extra, hash_const)
            pool[i_dst] = _mix(pool[i_dst], word)
    state32 = []
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        word = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state32.append(word ^ word >> 16)
    return [state32[i] | state32[i + 1] << 32 for i in range(0, len(state32), 2)]


class Stream:
    """One PCG64 stream (XSL-RR 128/64) with numpy ``Generator``'s draws."""

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, entropy: int, spawn_key: Tuple[int, ...]):
        s_hi, s_lo, i_hi, i_lo = _seed_words(entropy, spawn_key)
        # pcg_setseq_128_srandom_r: one step from state 0 (which leaves
        # the increment), add the seed, step again.
        seed = s_hi << 64 | s_lo
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _MASK128
        self._has_uint32 = False
        self._uinteger = 0

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        # PCG64 hands out each 64-bit output as two 32-bit halves, low first.
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        r = self._next64()
        self._has_uint32 = True
        self._uinteger = r >> 32
        return r & _MASK32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * _TO_DOUBLE

    def _in_wedge(self, f: Tuple[float, ...], idx: int, fx: float) -> bool:
        """A ziggurat layer's rejection test: is a uniform point under ``fx``?"""
        return (f[idx - 1] - f[idx]) * self._next_double() + f[idx] < fx

    def _normal_tail(self, rabs: int) -> float:
        while True:
            # log1p(-u) rather than log(1 - u): numpy's guard against log(0).
            xx = -_NOR_INV_R * math.log1p(-self._next_double())
            yy = -math.log1p(-self._next_double())
            if yy + yy > xx * xx:
                return -(_NOR_R + xx) if (rabs >> 8) & 1 else _NOR_R + xx

    def _exp_tail(self) -> float:
        return _EXP_R - math.log1p(-self._next_double())

    def _lemire32(self, rng: int) -> int:
        """Uniform on ``[0, rng]`` for ``rng < 2**32 - 1`` (Lemire, 32-bit)."""
        rng_excl = rng + 1
        m = self._next32() * rng_excl
        if (m & _MASK32) < rng_excl:
            threshold = (_MASK32 - rng) % rng_excl
            while (m & _MASK32) < threshold:
                m = self._next32() * rng_excl
        return m >> 32

    def _lemire64(self, rng: int) -> int:
        """Uniform on ``[0, rng]`` for ``rng < 2**64 - 1`` (Lemire, 64-bit)."""
        rng_excl = rng + 1
        m = self._next64() * rng_excl
        if (m & _MASK64) < rng_excl:
            threshold = (_MASK64 - rng) % rng_excl
            while (m & _MASK64) < threshold:
                m = self._next64() * rng_excl
        return m >> 64

    def standard_normal(self) -> float:
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                return self._normal_tail(rabs)
            if self._in_wedge(FI, idx, math.exp(-0.5 * x * x)):
                return x

    def _standard_exponential(self) -> float:
        while True:
            r = self._next64() >> 3
            idx = r & 0xFF
            r >>= 8
            x = r * WE[idx]
            if r < KE[idx]:
                return x
            if idx == 0:
                return self._exp_tail()
            if self._in_wedge(FE, idx, math.exp(-x)):
                return x

    def exponential(self, scale: float) -> float:
        return scale * self._standard_exponential()

    def lognormal(self, mean: float, sigma: float) -> float:
        return math.exp(mean + sigma * self.standard_normal())

    def integers(self, low: int, high: int) -> int:
        """Uniform int on ``[low, high)``; both bounds must fit int64."""
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError(
                f"integers needs -2**63 <= low < high <= 2**63, got [{low}, {high})"
            )
        rng = high - low - 1
        if rng == 0:
            return low
        if rng == _MASK32:
            return low + self._next32()
        if rng < _MASK32:
            return low + self._lemire32(rng)
        if rng == _MASK64:
            return low + self._next64()
        return low + self._lemire64(rng)


class RngHub:
    """Factory of independent named :class:`Stream` s.

    Streams are keyed by an arbitrary string name. The same (root_seed,
    trial, name) triple always yields the same stream.
    """

    def __init__(self, root_seed: int = 0xC0FFEE, trial: int = 0):
        if root_seed < 0:
            raise ValueError("root_seed must be non-negative")
        self.root_seed = int(root_seed)
        self.trial = int(trial)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the named stream, creating it deterministically on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = Stream(
                self.root_seed, (self.trial, _stable_hash(name))
            )
        return gen

    def fork_trial(self, trial: int) -> "RngHub":
        """A hub for another trial of the same experiment (fresh streams)."""
        return RngHub(self.root_seed, trial=trial)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngHub(root_seed={self.root_seed:#x}, trial={self.trial})"


def _stable_hash(name: str) -> int:
    """A hash of `name` stable across processes (unlike builtin ``hash``)."""
    h = 2166136261
    for byte in name.encode("utf-8"):
        h = (h ^ byte) * 16777619 & 0xFFFFFFFF
    return h
