"""Bit-level helpers shared across the package.

Points of the hypercube are plain Python ints used as bit masks: variable i
is bit i (variable 0 least significant), so a mask doubles as the truth-table
index of the point it encodes.  Vectorized paths use uint64 arrays and are
limited to n <= 64; everything has a plain-int fallback for larger n.

Weight-preserving rearrangement of a block matches rows against a pool of
uniform words of the same weight, all in integers and with no redraws; rows
the pool cannot serve, and blocks too small to amortize the pool, fall back
to an exact float-key sort.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_FULL64 = (1 << 64) - 1

# Smallest block that rearrange_bits_block matches against a word pool.  At
# 64 masked slots the pool path breaks even with the key sort near 110 rows
# and at 36 slots near 190; the testers' doubling blocks of 64 and 128 rows
# stay on the key sort, 256 and up take the pool.
_POOL_MIN_ROWS = 192


def popcount_u64(a: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array, as uint64."""
    return np.bitwise_count(a).astype(np.uint64)


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def indices_of(mask: int) -> list[int]:
    """Ascending variable indices of the set bits of ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def random_mask(n: int, rng: np.random.Generator) -> int:
    """Uniform n-bit mask (any n)."""
    if n == 0:
        return 0
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


def random_masks_u64(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform n-bit masks as a uint64 array (n <= 64)."""
    if n > 64:
        raise ValueError("vectorized masks need n <= 64")
    if n == 64:
        return rng.integers(0, _FULL64, size=size, dtype=np.uint64, endpoint=True)
    return rng.integers(0, 1 << n, size=size, dtype=np.uint64)


def rearrange_bits(x: int, mask: int, positions: np.ndarray, rng: np.random.Generator) -> int:
    """Uniformly rearrange the bits of ``x`` at the masked positions.

    Equivalent to applying a uniformly random permutation of those
    coordinates: the multiset of bits inside ``mask`` is preserved, all
    placements are equally likely, bits outside ``mask`` stay put.
    """
    m = (x & mask).bit_count()
    y = x & ~mask
    if m:
        for p in rng.choice(positions, size=m, replace=False):
            y |= 1 << int(p)
    return y


def rearrange_bits_block(
    xs: np.ndarray, mask: int, positions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise independent ``rearrange_bits`` over a uint64 block.

    Blocks of at least ``_POOL_MIN_ROWS`` rows are matched by weight against
    a pool of uniform words cut to ``mask``: a pool word is a uniform subset
    of the masked slots, and conditioned on its weight m a uniform m-subset.
    Rows and pool words are bucketed by weight, and the t-th row of weight m
    takes the t-th pool word of weight m.  The matching reads weights only,
    so every matched row gets an independent uniform subset of its own
    weight.  Rows without a partner (mostly tail weights) and small blocks
    go through ``_rearrange_keysort``.
    """
    b = len(xs)
    if b < _POOL_MIN_ROWS:
        return _rearrange_keysort(xs, mask, positions, rng)
    mk = np.uint64(mask)
    pool = random_masks_u64(64, b + b // 4, rng) & mk
    m = np.bitwise_count(xs & mk)
    pm = np.bitwise_count(pool)
    rows = np.argsort(m, kind="stable")
    words = np.argsort(pm, kind="stable")
    m_sorted = m[rows]
    # weight class w occupies [start[w], start[w + 1]) of each sorted order
    classes = np.arange(len(positions) + 2, dtype=np.uint8)
    word_start = np.searchsorted(pm[words], classes)
    rank = np.arange(b) - np.searchsorted(m_sorted, classes)[m_sorted]
    paired = rank < np.diff(word_start)[m_sorted]
    ys = xs & ~mk
    hit = rows[paired]
    ys[hit] |= pool[words[word_start[m_sorted[paired]] + rank[paired]]]
    left = rows[~paired]
    if len(left):
        ys[left] = _rearrange_keysort(xs[left], mask, positions, rng)
    return ys


def _rearrange_keysort(
    xs: np.ndarray, mask: int, positions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``rearrange_bits_block`` by float keys.

    A uniform arrangement of m ones among L slots is the indicator of the m
    smallest of L iid keys; rows where float ties spoil the count are
    redrawn, so the result is exact.
    """
    b = len(xs)
    length = len(positions)
    m = popcount_u64(xs & np.uint64(mask)).astype(np.int64)

    def draw(counts: np.ndarray) -> np.ndarray:
        keys = rng.random((len(counts), length), dtype=np.float32)
        skeys = np.sort(keys, axis=1)
        idx = np.maximum(counts - 1, 0)
        thresh = np.take_along_axis(skeys, idx[:, None], axis=1)
        return (keys <= thresh) & (counts > 0)[:, None]

    bits = draw(m)
    todo = np.flatnonzero(bits.sum(axis=1) != m)
    while len(todo):
        cand = draw(m[todo])
        bits[todo] = cand
        todo = todo[cand.sum(axis=1) != m[todo]]
    full = np.unpackbits(xs.view(np.uint8).reshape(b, 8), axis=1, bitorder="little")
    full[:, positions] = bits
    return np.packbits(full, axis=1, bitorder="little").view(np.uint64).ravel()


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a 0/1 array little-endian (bit j of byte j//8) into a hex string."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes().hex()


def hex_to_bits(hexstr: str, nbits: int) -> np.ndarray:
    raw = bytes.fromhex(hexstr)
    if len(raw) != (nbits + 7) // 8:
        raise ValueError(f"expected {(nbits + 7) // 8} bytes for {nbits} bits, got {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    if bits[nbits:].any():
        raise ValueError("nonzero padding bits")
    return bits[:nbits].copy()


def randrange_bigint(bound: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, bound) for arbitrarily large bounds."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    nbytes = (bound.bit_length() + 7) // 8
    shift = nbytes * 8 - bound.bit_length()
    while True:
        u = int.from_bytes(rng.bytes(nbytes), "little") >> shift
        if u < bound:
            return u
