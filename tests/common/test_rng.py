"""Determinism and independence of named RNG streams, and the pure-Python
port checked draw for draw against numpy's ``Generator(PCG64(...))``."""

from collections import Counter

import numpy as np
import pytest

from repro.common.rng import RngHub, Stream, _stable_hash
from repro.common.ziggurat import FI


def _draws(stream, n):
    """n draws of every kind the model makes, interleaved."""
    out = []
    for _ in range(n):
        out += [stream.standard_normal(), stream.exponential(2.0),
                stream.lognormal(0.5, 0.7), stream.integers(0, 1000)]
    return out


def test_same_name_same_draws():
    a = RngHub(42).stream("linux.kworker")
    b = RngHub(42).stream("linux.kworker")
    assert _draws(a, 100) == _draws(b, 100)


def test_different_names_different_draws():
    hub = RngHub(42)
    assert _draws(hub.stream("a"), 50) != _draws(hub.stream("b"), 50)


def test_stream_is_cached():
    hub = RngHub(7)
    assert hub.stream("x") is hub.stream("x")


def test_trials_are_independent():
    base = RngHub(42, trial=0)
    t1 = base.fork_trial(1)
    assert _draws(base.stream("w"), 50) != _draws(t1.stream("w"), 50)
    assert t1.root_seed == base.root_seed
    assert t1.trial == 1


def test_adding_consumer_does_not_perturb_existing():
    ref = _draws(RngHub(9).stream("alpha"), 20)

    hub2 = RngHub(9)
    _draws(hub2.stream("beta"), 1000)  # a new consumer drawing first
    assert _draws(hub2.stream("alpha"), 20) == ref


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngHub(-1)


def test_stable_hash_is_stable_and_spread():
    assert _stable_hash("kworker") == _stable_hash("kworker")
    names = [f"stream-{i}" for i in range(200)]
    hashes = {_stable_hash(n) for n in names}
    assert len(hashes) == len(names)  # no collisions among typical names


# -- the port against numpy ---------------------------------------------------

#: ``integers`` range sizes: no draw (1), the 32-bit Lemire path (2, 2**32 - 1,
#: 3 * 2**30), a raw 32-bit word (2**32), the 64-bit Lemire path (2**32 + 1,
#: 2**63 - 6, 3 * 2**62) and a raw 64-bit word (2**64, all of int64).
#: 3 * 2**30 and 3 * 2**62 reject one draw in four.
RANGES = (1, 2, 2**32 - 1, 3 * 2**30, 2**32, 2**32 + 1, 2**63 - 6, 3 * 2**62, 2**64)


def _numpy_twin(seed, trial, name):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial, _stable_hash(name)))
    return np.random.Generator(np.random.PCG64(seq))


def _bounds(size):
    low = 5 if size < 2**63 else 2**63 - size
    return low, low + size


class CountingStream(Stream):
    """A Stream that counts the rare ziggurat and Lemire branches it takes."""

    __slots__ = ("hits", "_raw", "_half")

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = Counter()
        self._raw = self._half = 0

    def _next64(self):
        self._raw += 1
        return super()._next64()

    def _next32(self):
        self._half += 1
        return super()._next32()

    def _in_wedge(self, f, idx, fx):
        inside = super()._in_wedge(f, idx, fx)
        kind = "normal" if f is FI else "exp"
        self.hits[f"{kind}-wedge-{'accept' if inside else 'reject'}"] += 1
        return inside

    def _normal_tail(self, rabs):
        before = self._raw
        x = super()._normal_tail(rabs)
        self.hits["normal-tail"] += 1
        self.hits["normal-tail-retry"] += (self._raw - before) // 2 - 1
        return x

    def _exp_tail(self):
        self.hits["exp-tail"] += 1
        return super()._exp_tail()

    def _lemire32(self, rng):
        before = self._half
        value = super()._lemire32(rng)
        self.hits["lemire32"] += 1
        self.hits["lemire32-retry"] += self._half - before - 1
        return value

    def _lemire64(self, rng):
        before = self._raw
        value = super()._lemire64(rng)
        self.hits["lemire64"] += 1
        self.hits["lemire64-retry"] += self._raw - before - 1
        return value


SEEDS = (0, 42, 0xC0FFEE, 2**32 + 5, 2**64 + 7, 2**150 + 12345)
NAMES = ("trial.variation", "jitter.kitten", "linux.kworker/0", "faults.plan")


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_numpy(seed):
    """Seeding (short, padded and long entropy; big trials), the half-word
    buffer and every draw, interleaved, over many trials and names."""
    mismatches = 0
    for trial in (0, 1, 17, 2**33 + 1):
        for name in NAMES:
            ours = Stream(seed, (trial, _stable_hash(name)))
            ref = _numpy_twin(seed, trial, name)
            for i in range(300):
                size = RANGES[i % len(RANGES)]
                low, high = _bounds(size)
                pairs = (
                    (ours.standard_normal(), ref.standard_normal()),
                    (ours.exponential(3.5), ref.exponential(3.5)),
                    (ours.integers(low, high), int(ref.integers(low, high))),
                    (ours.lognormal(1.2, 0.7), ref.lognormal(1.2, 0.7)),
                )
                mismatches += sum(a != b for a, b in pairs)
    assert mismatches == 0


def test_every_branch_matches_numpy_and_is_hit():
    ours = CountingStream(2**70 + 3, (5, _stable_hash("oracle")))
    ref = _numpy_twin(2**70 + 3, 5, "oracle")
    n = 200_000
    assert [ours.standard_normal() for _ in range(n)] == ref.standard_normal(n).tolist()
    assert [ours.exponential(1.5) for _ in range(n)] == ref.exponential(1.5, n).tolist()
    assert [ours.lognormal(-0.3, 1.1) for _ in range(n // 10)] == (
        ref.lognormal(-0.3, 1.1, n // 10).tolist())
    for size in RANGES:
        low, high = _bounds(size)
        assert [ours.integers(low, high) for _ in range(5_000)] == (
            ref.integers(low, high, 5_000).tolist())
    # Both streams are still in step after every branch.
    assert ours._next64() == int(ref.bit_generator.random_raw())
    for branch in ("normal-tail", "normal-tail-retry", "normal-wedge-accept",
                   "normal-wedge-reject", "exp-tail", "exp-wedge-accept",
                   "exp-wedge-reject", "lemire32", "lemire32-retry", "lemire64",
                   "lemire64-retry"):
        assert ours.hits[branch] > 0, branch


def test_integers_refuses_empty_and_out_of_range_bounds():
    stream = Stream(1, (0, 0))
    for low, high in ((3, 3), (4, 3), (-(2**63) - 1, 0), (0, 2**63 + 1)):
        with pytest.raises(ValueError):
            stream.integers(low, high)
