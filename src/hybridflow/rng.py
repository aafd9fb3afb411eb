"""Named random substreams derived from one master seed.

Every stochastic component pulls its generator through ``substream`` so that
enabling one pipeline stage never perturbs the draws of another.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream; stable across runs and platforms."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(master_seed) & 0xFFFFFFFF, tag]))


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
    tag = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence([int(master_seed) & 0xFFFFFFFF, tag, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFF)
