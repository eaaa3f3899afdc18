"""Named deterministic RNG substreams.

Every stochastic routine in this package draws from a generator obtained
here, keyed by a seed plus a descriptive path. Distinct paths yield
independent streams, the mapping is stable across platforms and processes,
and no routine ever shares mutable generator state with another.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

__all__ = ["substream"]

# Path components are joined with a unit separator so ("a", "b") and
# ("a/b",) cannot collide.
_SEP = "\x1f"

# Resamples whose index rows _resample_chunks maps in one vectorized pass;
# its temporaries hold one chunk, whatever the number of resamples.
_CHUNK = 256

_MASK32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# Philox4x64-10's round multipliers and Weyl key increments (Salmon et al.,
# SC'11), in the order of the counter words they multiply and the key words
# they bump, each shaped to broadcast over (2, rows, blocks).
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)


def _key(seed: int, *path: object) -> int:
    """128-bit Philox key of (seed, *path): the first 16 bytes of SHA-256
    over the joined path, read little-endian."""
    label = _SEP.join(str(part) for part in (seed, *path))
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def substream(seed: int, *path: object) -> np.random.Generator:
    """Independent generator for (seed, *path).

    The Philox key is the first 128 bits of SHA-256 over the joined path,
    so substreams are decorrelated by construction and reproducible from
    the seed alone.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, *path)))


def _philox_words(keys: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` of ``np.random.Philox(key=k).random_raw()`` for
    each row of ``keys``, a (rows, 2) uint64 array of each key's low and
    high word, as a (rows, n_words) uint64 array.

    Philox4x64-10 in numpy uint64 arithmetic, every row at once: the
    counter of output block i (four words) is (i, 0, 0, 0) from i = 1, and
    each of the ten rounds maps counter words (c0, c1, c2, c3) to
    (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)), the
    key bumped by the Weyl increments between rounds. The high half of each
    64x64-bit product is summed from products of its 32-bit halves.
    """
    rows, blocks = len(keys), -(-n_words // 4)
    key = np.ascontiguousarray(keys.T, dtype=np.uint64).reshape(2, rows, 1)
    # (c0, c2) and (c1, c3) of every row's blocks.
    even = np.zeros((2, rows, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    m_lo, m_hi = _PHILOX_M & _MASK32, _PHILOX_M >> _32
    for _ in range(10):
        # The high word of m * x, as Hacker's Delight's mulhu: no partial
        # sum can exceed 64 bits.
        x_lo, x_hi = even & _MASK32, even >> _32
        mid = m_hi * x_lo + ((m_lo * x_lo) >> _32)
        low_mid = m_lo * x_hi + (mid & _MASK32)
        high = m_hi * x_hi + (mid >> _32) + (low_mid >> _32)
        even, odd = high[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
        key = key + _PHILOX_W
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
    return words.reshape(rows, 4 * blocks)[:, :n_words]


def _resample_chunks(
    seed: int, tag: object, b: int, sizes: Sequence[int],
) -> Iterator[np.ndarray]:
    """``b`` bootstrap index rows over pools of ``sizes``, in row order, as
    int64 arrays of at most ``_CHUNK`` rows by ``sum(sizes)`` columns.

    Row ``i`` equals the concatenation over ``sizes`` of
    ``substream(seed, tag, i).integers(0, n, size=n)``: each row's Philox
    words are generated for a chunk at once (``_philox_words``), read as the
    32-bit stream ``integers`` consumes, and mapped by NumPy's
    bounded-integer (Lemire) method. A size-1 pool draws nothing; a row
    holding a draw that mapping rejects is recomputed from its substream,
    the only path here that loads ``numpy.random``.
    """
    sizes = [int(n) for n in sizes]
    if any(n < 1 for n in sizes):
        raise ValueError(f"_resample_chunks: pool sizes must be >= 1, got {sizes}")
    drawn = [n for n in sizes if n > 1]
    # Per draw, in stream order: the exclusive bound and the Lemire threshold
    # below which NumPy rejects the draw.
    bounds = np.repeat(np.array(drawn, dtype=np.uint64), drawn)
    thresholds = (np.uint64(1 << 32) - bounds) % bounds
    columns = np.flatnonzero(np.repeat(np.array(sizes) > 1, sizes))
    n_draws = len(bounds)
    n_words = (n_draws + 1) // 2

    for first in range(0, b, _CHUNK):
        rows = min(_CHUNK, b - first)
        keys = b"".join(_key(seed, tag, r).to_bytes(16, "little")
                        for r in range(first, first + rows))
        words = _philox_words(np.frombuffer(keys, dtype="<u8").reshape(rows, 2), n_words)
        # Philox hands out the low half of each 64-bit word, then the high half.
        draws = words.astype("<u8", copy=False).view("<u4")[:, :n_draws]
        scaled = draws.astype(np.uint64) * bounds
        rejected = ((scaled & _MASK32) < thresholds).any(axis=1)
        out = np.zeros((rows, sum(sizes)), dtype=np.int64)
        out[:, columns] = scaled >> 32
        for r in np.flatnonzero(rejected).tolist():
            gen = substream(seed, tag, first + r)
            out[r] = np.concatenate([gen.integers(0, n, size=n) for n in sizes])
        yield out
