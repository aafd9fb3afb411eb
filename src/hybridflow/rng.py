"""Named random substreams derived from one master seed.

Every stochastic component pulls its generator through ``substream`` so that
enabling one pipeline stage never perturbs the draws of another.

A named single stream (``substream``, ``substream_seed``) builds numpy's
``SeedSequence``. Per-entity streams, one per shadowing cell
(``radio_env.PropagationModel.fill``) and one per noisy fingerprint trace
(``substreams``), are seeded by ``seed_states``: numpy's SeedSequence hash
as array operations over all rows at once. Each PCG64 then seeds itself from
its row's words through ``_seeded()``, so every stream draws the bits that
``default_rng(SeedSequence(row))`` draws. A row is 2 uint32 words per trace
and 3 per cell, within SeedSequence's pool of 4. The array pass costs about
0.05-0.15 ms whatever its row count (its hash constants are made at import),
so a caller seeds all its entities in one call.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence (bit_generator.pyx): a pool of 4 words, hashed in, mixed and
# hashed out with these constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _entropy(master_seed: int, name: str) -> list:
    return [int(master_seed) & _MASK32, zlib.crc32(name.encode("utf-8"))]


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream; stable across runs and platforms."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(master_seed, name)))


def substreams(master_seeds, names):
    """The generators of ``substream(seed, name)`` for each pair, in order, seeded
    in one ``seed_states`` call; an iterator that builds each one when it is reached."""
    rows = [_entropy(seed, name) for seed, name in zip(master_seeds, names)]
    return generators(np.array(rows, dtype=np.uint32).reshape(len(rows), 2))


def _hash_consts(init: int, mult: int, n: int):
    """The xor and multiplier constants of n successive hash steps; they do not
    depend on the data, so each step of a row is one array operation."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return np.array(xors, np.uint32), np.array(mults, np.uint32)


# every hash constant of seed_states: the (xors, mults) of the pool words hashed in
# (the first _POOL), of each pool word's mixing into the pool (a zero in its own
# column, never read), and of the output
_XORS, _MULTS = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_MIXING = [tuple(np.insert(c[at:at + 3], src, 0) for c in (_XORS, _MULTS))
           for src, at in enumerate(range(_POOL, _POOL * _POOL, 3))]
_OUTPUT = [c.reshape(2, _POOL) for c in _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)]


def _hash(words, xors, mults):
    words = (words ^ xors) * mults
    words ^= words >> 16
    return words


def _mix(x, y):
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def seed_states(entropy) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of a (k, m)
    uint32 array of entropy words, m at most the pool's 4, as a (k, 4) uint64 array,
    worked out as array operations over all rows."""
    # the words hashed into the pool, zeros where a row is shorter
    pool = np.zeros((len(entropy), _POOL), np.uint32)
    pool[:, :entropy.shape[1]] = entropy
    pool = _hash(pool, _XORS[:_POOL], _MULTS[:_POOL])
    # each word mixed into the other three; a source word stays put while it mixes
    for src, consts in enumerate(_MIXING):
        mixed = _mix(pool, _hash(pool[:, src:src + 1], *consts))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # eight 32-bit words from the pool, cycled, paired little-endian into four uint64
    out = _hash(pool[:, None, :], *_OUTPUT).reshape(len(pool), 2 * _POOL)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seeded():
    """The ISeedSequence that hands PCG64 one row of ``seed_states`` in place of its
    SeedSequence. It is made on first use, as numpy imports numpy.random only when a
    program first reads it: a run that seeds no entity, such as the CA alone, would
    pay that import at start-up."""

    class Seeded(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 seed words, asked for {n_words} of "
                                 f"{np.dtype(dtype)}")
            return self._state

    return Seeded


def generators(entropy):
    """An iterator of one Generator per row of ``entropy``, in order, each drawing
    what ``default_rng(SeedSequence(row))`` draws."""
    seeded = _seeded()
    return (np.random.Generator(np.random.PCG64(seeded(state)))
            for state in seed_states(entropy))


class Uniforms:
    """A generator's float64 uniforms, read in blocks of ``BLOCK``. PCG64 float64 draws
    concatenate (``random(a)`` then ``random(b)`` gives ``random(a + b)``), so ``take``
    and ``random`` hand out the values of the generator's scalar draws, in order."""

    BLOCK = 1024
    __slots__ = ("_gen", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator):
        self._gen, self._buf, self._pos = gen, [], 0

    def take(self, n: int) -> list:
        """The next n draws."""
        pos, end = self._pos, self._pos + n
        if end > len(self._buf):
            self._buf = self._buf[pos:] + self._gen.random(max(n, self.BLOCK)).tolist()
            pos, end = 0, n
        self._pos = end
        return self._buf[pos:end]

    def random(self) -> float:
        """The next draw."""
        if self._pos == len(self._buf):
            self._buf, self._pos = self._gen.random(self.BLOCK).tolist(), 0
        self._pos += 1
        return self._buf[self._pos - 1]


def substream_seed(master_seed: int, name: str, index: int = 0) -> int:
    """Derived integer seed, for components that take a seed rather than a Generator."""
    ss = np.random.SeedSequence(_entropy(master_seed, name) + [index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFF)
