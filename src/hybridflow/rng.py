"""Named random substreams derived from one master seed.

Every stochastic component pulls its generator through ``substream`` so that
enabling one pipeline stage never perturbs the draws of another.

A named single stream (``substream``, ``substream_seed``) builds numpy's
``SeedSequence``. Per-entity streams, one per shadowing cell
(``radio_env.PropagationModel.fill``) and one per noisy fingerprint trace
(``substreams``), are seeded by ``seed_states``: numpy's SeedSequence hash
as array operations over all rows at once. Each PCG64 then seeds itself from
its row's words through ``_seeded()``, so every stream draws the bits that
``default_rng(SeedSequence(row))`` draws. The array pass costs about 0.05-0.15
ms whatever its row count (its hash constants are made once per row length),
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


@functools.cache
def _consts(m: int):
    """Every hash constant of ``seed_states`` for rows of m words, made once per m and
    shared, so no caller writes them: the (xors, mults) of the first pool words, of
    each pool word's mixing into the pool (a zero in its own column, never read), of
    each word beyond the pool, and of the output."""
    xors, mults = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + max(m - _POOL, 0) * _POOL)
    mixing = [tuple(np.insert(c[at:at + 3], src, 0) for c in (xors, mults))
              for src, at in enumerate(range(_POOL, _POOL * _POOL, 3))]
    extra = [(xors[at:at + _POOL], mults[at:at + _POOL])
             for at in range(_POOL * _POOL, len(xors), _POOL)]
    output = [c.reshape(2, _POOL) for c in _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)]
    return (xors[:_POOL], mults[:_POOL]), mixing, extra, output


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
    array of 32-bit entropy words, as a (k, 4) uint64 array, worked out as array
    operations over all rows. A uint32 array is taken as it is; any other integer
    array is checked word by word."""
    words = np.asarray(entropy)
    if words.ndim != 2 or words.dtype.kind not in "iu":
        raise ValueError(f"entropy: expected a 2-d array of integer words, got shape "
                         f"{words.shape} of {words.dtype}")
    if words.dtype != np.uint32:
        if (words >> 32).any():  # a negative word or one beyond 32 bits
            i, j = np.argwhere((words < 0) | (words > _MASK32))[0]
            raise ValueError(f"entropy[{i}][{j}]: {words[i, j]} is not a 32-bit word")
        words = words.astype(np.uint32)
    m = words.shape[1]
    first, mixing, extra, output = _consts(m)
    # the first words hashed into the pool, zeros where a row is shorter
    pool = np.zeros((len(words), _POOL), np.uint32)
    pool[:, :min(m, _POOL)] = words[:, :_POOL]
    pool = _hash(pool, *first)
    # each word mixed into the other three; a source word stays put while it mixes
    for src, consts in enumerate(mixing):
        mixed = _mix(pool, _hash(pool[:, src:src + 1], *consts))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # entropy beyond the pool, each word mixed into every pool word
    for src, consts in enumerate(extra, _POOL):
        pool = _mix(pool, _hash(words[:, src:src + 1], *consts))
    # eight 32-bit words from the pool, cycled, paired little-endian into four uint64
    out = _hash(pool[:, None, :], *output).reshape(len(pool), 2 * _POOL)
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
