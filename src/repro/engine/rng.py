"""Block-buffered, bit-exact reimplementation of the numpy draws the
simulator makes on its hot path.

The CPU model draws about 2.5 values per simulated miss from
``numpy.random.Generator`` (``random()``, ``integers(n)``,
``uniform(a, b)``).  Each scalar call costs ~0.5–1.5 µs of argument
parsing and C dispatch.  :class:`BufferedPCG64` and
:class:`BufferedUniform` remove that cost while producing the **same
bit stream**; both engine backends draw through them:

* raw 64-bit words are pulled from the *same* PCG64 generator in
  blocks via ``bit_generator.random_raw(N)``, which consumes the
  underlying bit stream exactly like ``N`` sequential ``next_uint64``
  calls (and like ``integers(0, 2**64, dtype=uint64, size=N)``, at a
  third of its call overhead);
* ``random()`` is numpy's double conversion, ``(u64 >> 11) * 2**-53``;
* ``integers(n)`` is numpy's Lemire rejection sampler, including the
  32-bit fast path for ranges below ``2**32`` *and* PCG64's
  half-word buffering (``next_uint32`` hands out the low half of a
  fresh 64-bit word first and banks the high half);
* ``uniform(a, b)`` is ``a + (b - a) * random()`` — the same IEEE
  operations numpy's ``random_uniform`` performs.

Bit-exactness against scalar numpy is asserted by
``tests/engine/test_rng.py`` over interleaved call patterns, and —
transitively — by the golden matrix, minted while the reference engine
still drew scalar values: a single divergent draw would cascade into a
fingerprint mismatch within one quantum.
"""

from __future__ import annotations

import numpy as np

#: Values fetched per refill.  Every simulated thread holds two such
#: buffers of Python numbers until its run finishes (``finalize``
#: releases them), so the block is small: a 64-word refill costs ~4 µs
#: (~0.06 µs a word, against ~1 µs for one scalar numpy call), while
#: 1024 grew a 24-thread run's peak memory by about 10%.  Block size
#: never changes the stream.
BLOCK = 64

_U32_MASK = 0xFFFFFFFF
_U64_MASK = 0xFFFFFFFFFFFFFFFF
#: numpy's uint64 -> double conversion constant (53-bit mantissa).
_INV_2_53 = 1.0 / (1 << 53)


def _rewind(rng: np.random.Generator, words: int) -> None:
    """Step ``rng`` back over ``words`` fetched but unread 64-bit words."""
    if words:
        # PCG64 advances modulo 2**128, so a negative step goes back
        rng.bit_generator.advance(-words)


class BufferedPCG64:
    """Bit-exact buffered façade over one ``numpy.random.Generator``.

    The wrapped generator must not be used directly once buffering
    starts — the buffer *is* its stream position, pre-fetched — until
    :meth:`release` rewinds it to that position.
    """

    __slots__ = ("_rng", "_raw", "_buf", "_i", "_n", "_has32", "_half",
                 "_block")

    def __init__(self, rng: np.random.Generator, block: int = BLOCK):
        self._rng = rng
        self._raw = rng.bit_generator.random_raw
        self._block = block
        self._buf = ()
        self._i = 0
        self._n = 0
        # PCG64's next_uint32 half-word bank (numpy pcg64_next32).
        self._has32 = False
        self._half = 0

    def _refill(self) -> None:
        self._buf = self._raw(self._block).tolist()
        self._i = 0
        self._n = len(self._buf)

    def release(self) -> None:
        """Drop the unread words, rewinding the generator over them.

        The stream is unchanged: the next draw refills from exactly
        where the buffer stopped (a banked half-word stays banked).
        """
        _rewind(self._rng, self._n - self._i)
        self._buf = ()
        self._i = self._n = 0

    # -- raw words ------------------------------------------------------

    def next64(self) -> int:
        """The next raw 64-bit word of the stream."""
        i = self._i
        if i >= self._n:
            self._refill()
            i = 0
        self._i = i + 1
        return self._buf[i]

    def next32(self) -> int:
        """numpy ``next_uint32``: low half first, high half banked."""
        if self._has32:
            self._has32 = False
            return self._half
        word = self.next64()
        self._has32 = True
        self._half = word >> 32
        return word & _U32_MASK

    # -- distributions --------------------------------------------------

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1)."""
        i = self._i
        if i >= self._n:
            self._refill()
            i = 0
        self._i = i + 1
        return (self._buf[i] >> 11) * _INV_2_53

    def uniform(self, low: float, high: float) -> float:
        """``Generator.uniform(low, high)`` (scalar)."""
        return low + (high - low) * self.random()

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: uniform int in [0, n).

        Follows numpy's ``random_bounded_uint64_fill``: Lemire
        rejection on 32-bit words when the range fits (the simulator's
        ranges — rows, banks — always do), 64-bit words otherwise.
        """
        rng = n - 1  # numpy parameterises by the inclusive range
        if rng <= 0:
            return 0  # numpy short-circuits a zero range without a draw
        if rng <= _U32_MASK:
            rng_excl = rng + 1
            m = self.next32() * rng_excl
            leftover = m & _U32_MASK
            if leftover < rng_excl:
                threshold = (_U32_MASK - rng) % rng_excl
                while leftover < threshold:
                    m = self.next32() * rng_excl
                    leftover = m & _U32_MASK
            return m >> 32
        rng_excl = rng + 1
        m = self.next64() * rng_excl
        leftover = m & _U64_MASK
        if leftover < rng_excl:
            threshold = (_U64_MASK - rng) % rng_excl
            while leftover < threshold:
                m = self.next64() * rng_excl
                leftover = m & _U64_MASK
        return m >> 64


class BufferedUniform:
    """Pre-drawn ``uniform(low, high)`` stream for one generator.

    Used for the issue-gap jitter, whose generator serves *only*
    homogeneous ``uniform(0.9, 1.1)`` calls: a whole block is drawn
    with one vectorized ``Generator.uniform`` call (numpy fills the
    batch from the same bit stream as sequential scalar calls) and
    handed out by index.
    """

    __slots__ = ("_rng", "_low", "_high", "_buf", "_i", "_n", "_block")

    def __init__(
        self,
        rng: np.random.Generator,
        low: float,
        high: float,
        block: int = BLOCK,
    ):
        self._rng = rng
        self._low = low
        self._high = high
        self._block = block
        self._buf = ()
        self._i = 0
        self._n = 0

    def next(self) -> float:
        i = self._i
        if i >= self._n:
            self._buf = self._rng.uniform(
                self._low, self._high, size=self._block
            ).tolist()
            i = 0
            self._n = self._block
        self._i = i + 1
        return self._buf[i]

    def release(self) -> None:
        """Drop the unread draws, rewinding the generator over them
        (each ``uniform`` double consumes one 64-bit word)."""
        _rewind(self._rng, self._n - self._i)
        self._buf = ()
        self._i = self._n = 0
