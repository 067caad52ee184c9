"""Bit-level helpers shared across the package.

Points of the hypercube are plain Python ints used as bit masks: variable i
is bit i (variable 0 least significant), so a mask doubles as the truth-table
index of the point it encodes.  Blocks of points are (b, ceil(n/64)) uint64
word arrays for every n, variable i being bit i % 64 of word i // 64; at
n <= 64 a block is a single column.

Weight-preserving rearrangement of a block matches rows against a pool of
uniform words of the same weight, all in integers and with no redraws; rows
the pool cannot serve, and blocks too small to amortize the pool, fall back
to an exact float-key sort.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

# Smallest block that rearrange_bits_block matches against a word pool.  At
# 64 masked slots the pool path breaks even with the key sort near 110 rows
# and at 36 slots near 190; the testers' doubling blocks of 64 and 128 rows
# stay on the key sort, 256 and up take the pool.
_POOL_MIN_ROWS = 192


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


def as_index(value, name: str) -> int:
    """``value`` as an int if it is a Python or NumPy integer other than a
    bool; anything else (a float, a string, a bool) raises ``ValueError``
    naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def as_bits(values, name: str) -> np.ndarray:
    """``values`` as a uint8 array (no copy when it already is one) if its
    dtype is integer or bool and every entry is 0 or 1; anything else (a
    float or string entry, a 2, a -1) raises ``ValueError`` naming ``name``."""
    a = np.asarray(values)
    kind = a.dtype.kind
    if a.size and kind != "b":
        if kind not in "iu":
            raise ValueError(f"{name} entries must be bits, got an array of {a.dtype}")
        if a.max() > 1 or (kind == "i" and a.min() < 0):
            raise ValueError(f"{name} entries must be bits, got entries from {a.min()} to {a.max()}")
    return np.asarray(a, dtype=np.uint8)


def random_mask(n: int, rng: np.random.Generator) -> int:
    """Uniform n-bit mask (any n)."""
    if n == 0:
        return 0
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


def to_words(mask: int, width: int) -> np.ndarray:
    """``mask`` as ``width`` little-endian uint64 words, a read-only array
    over the mask's bytes; ``OverflowError`` if it does not fit."""
    return np.frombuffer(mask.to_bytes(8 * width, "little"), dtype="<u8")


def from_words(row: np.ndarray) -> int:
    """The point (an int) held by one row of a block."""
    return int.from_bytes(row.tobytes(), "little")


def block_points(xs: np.ndarray) -> np.ndarray | list[int]:
    """A block as ``eval_many`` takes it: its uint64 column at n <= 64,
    Python ints above."""
    if xs.shape[1] == 1:
        return xs[:, 0]
    return [from_words(row) for row in xs]


def block_weights(xs: np.ndarray) -> np.ndarray:
    """Hamming weight of every row, summed over the words; uint8 while a row
    has at most 192 bits, uint16 above."""
    return np.bitwise_count(xs).sum(axis=1, dtype=np.uint8 if xs.shape[1] < 4 else np.uint16)


def random_masks_u64(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Block of ``size`` uniform points of {0,1}^n.

    At n <= 64 this is one bounded draw of shape (size, 1), the same stream
    as a draw of ``size`` values; above, full words with the top word cut
    to n bits.
    """
    xs = rng.integers(0, 1 << min(n, 64), size=(size, (n + 63) // 64), dtype=np.uint64)
    if n > 64 and n % 64:
        xs[:, -1] &= np.uint64((1 << (n % 64)) - 1)
    return xs


def rearrange_bits_block(xs: np.ndarray, mask: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly rearrange the masked bits of every row of a block.

    Each row independently gets a uniformly random permutation of the
    coordinates in ``mask``: the number of ones inside ``mask`` is kept, all
    placements are equally likely, and bits outside ``mask`` stay put.

    Blocks of at least ``_POOL_MIN_ROWS`` rows are matched by weight against
    a pool of uniform words cut to ``mask``: a pool word is a uniform subset
    of the masked slots, and conditioned on its weight m a uniform m-subset.
    Rows and pool words are bucketed by weight, and the t-th row of weight m
    takes the t-th pool word of weight m.  The matching reads weights only,
    so every matched row gets an independent uniform subset of its own
    weight.  Rows without a partner (mostly tail weights) and small blocks
    go through ``_rearrange_keysort``.
    """
    if not mask:
        return xs.copy()  # nothing to permute, and nothing drawn
    b, width = xs.shape
    mk = to_words(mask, width)
    positions = np.flatnonzero(np.unpackbits(mk.view(np.uint8), bitorder="little"))
    if b < _POOL_MIN_ROWS:
        return _rearrange_keysort(xs, mk, positions, rng)
    pool = random_masks_u64(64 * width, b + b // 4, rng) & mk
    m = block_weights(xs & mk)
    pm = block_weights(pool)
    rows = np.argsort(m, kind="stable")
    words = np.argsort(pm, kind="stable")
    m_sorted = m[rows]
    # weight class w occupies [start[w], start[w + 1]) of each sorted order
    classes = np.arange(len(positions) + 2, dtype=m.dtype)
    word_start = np.searchsorted(pm[words], classes)
    rank = np.arange(b) - np.searchsorted(m_sorted, classes)[m_sorted]
    paired = rank < np.diff(word_start)[m_sorted]
    # row i takes pool word src[i]; unpaired rows are redrawn below
    src = np.zeros(b, dtype=np.intp)
    src[rows[paired]] = words[word_start[m_sorted[paired]] + rank[paired]]
    ys = (xs & ~mk) | np.take(pool, src, axis=0)
    left = rows[~paired]
    if len(left):
        ys[left] = _rearrange_keysort(xs[left], mk, positions, rng)
    return ys


def rearrange_bits(x: int, mask: int, rng: np.random.Generator) -> int:
    """``rearrange_bits_block`` on the single point ``x``."""
    width = max(1, -(-(x | mask).bit_length() // 64))
    return from_words(rearrange_bits_block(to_words(x, width)[None, :], mask, rng)[0])


def _rearrange_keysort(
    xs: np.ndarray, mk: np.ndarray, positions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``rearrange_bits_block`` by float keys.

    A uniform arrangement of m ones among L slots is the indicator of the m
    smallest of L iid keys; rows where float ties spoil the count are
    redrawn, so the result is exact.
    """
    b, width = xs.shape
    length = len(positions)
    m = block_weights(xs & mk).astype(np.int64)

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
    raw = np.ascontiguousarray(xs).view(np.uint8).reshape(b, 8 * width)
    full = np.unpackbits(raw, axis=1, bitorder="little")
    full[:, positions] = bits
    return np.packbits(full, axis=1, bitorder="little").view(np.uint64).reshape(b, width)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a 0/1 array little-endian (bit j of byte j//8) into a hex string."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes().hex()


def hex_to_bits(hexstr: str, nbits: int) -> np.ndarray:
    raw = bytes.fromhex(hexstr)
    if raw.hex() != hexstr:
        raise ValueError("hex must be lowercase digit pairs with no separators")
    if len(raw) != (nbits + 7) // 8:
        raise ValueError(f"expected {(nbits + 7) // 8} bytes for {nbits} bits, got {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    if bits[nbits:].any():
        raise ValueError("nonzero padding bits")
    return bits[:nbits].copy()


def randrange_bigint(bound: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, bound) for arbitrarily large bounds.

    Bounds up to 2^63 take one ``rng.integers`` draw; larger ones draw bytes
    and reject values past the bound.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound <= 1 << 63:
        return int(rng.integers(0, bound))
    nbytes = (bound.bit_length() + 7) // 8
    shift = nbytes * 8 - bound.bit_length()
    while True:
        u = int.from_bytes(rng.bytes(nbytes), "little") >> shift
        if u < bound:
            return u
