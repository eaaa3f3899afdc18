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

_MASK32 = 0xFFFFFFFF


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


def _resample_chunks(
    seed: int, tag: object, b: int, sizes: Sequence[int],
) -> Iterator[np.ndarray]:
    """``b`` bootstrap index rows over pools of ``sizes``, in row order, as
    int64 arrays of at most ``_CHUNK`` rows by ``sum(sizes)`` columns.

    Row ``i`` equals the concatenation over ``sizes`` of
    ``substream(seed, tag, i).integers(0, n, size=n)``: one Philox is
    re-keyed per row, its raw words are read as the 32-bit stream
    ``integers`` consumes, and NumPy's bounded-integer (Lemire) mapping is
    applied to a chunk at once. A size-1 pool draws nothing; a row holding
    a draw that mapping rejects is recomputed from its substream.
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
    # Row i's key hashes the same bytes as _key(seed, tag, i); the constant
    # prefix is hashed once and its state copied per row.
    prefix = hashlib.sha256(_SEP.join((str(seed), str(tag), "")).encode("utf-8"))

    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    for first in range(0, b, _CHUNK):
        rows = min(_CHUNK, b - first)
        words = np.empty((rows, n_words), dtype=np.uint64)
        for r in range(rows):
            sha = prefix.copy()
            sha.update(str(first + r).encode("utf-8"))
            digest = sha.digest()
            state["state"]["key"] = (int.from_bytes(digest[:8], "little"),
                                     int.from_bytes(digest[8:16], "little"))
            bitgen.state = state
            words[r] = bitgen.random_raw(n_words)
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
