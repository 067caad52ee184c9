"""Bit-level helpers shared across the package.

Points of the hypercube are plain Python ints used as bit masks: variable i
is bit i (variable 0 least significant), so a mask doubles as the truth-table
index of the point it encodes.  Blocks of points are (b, ceil(n/64)) uint64
word arrays for every n, variable i being bit i % 64 of word i // 64; at
n <= 64 a block is a single column.  ``block_points`` hands a block to
``eval_many`` as that column at n <= 64 and as a ``WordPoints`` above: a
sequence of ints that keeps its words, so a library function reads the
words and only an oracle that iterates the points builds their ints.

Weight-preserving rearrangement of a block matches rows against a pool of
uniform words of the same weight, all in integers and with no redraws:
rows and pool words are each sorted by weight once, and a row's partner is
read off the two orders as one range per class, with no per-class loop.
Rows the pool cannot serve, and blocks too small to amortize the pool, fall
back to an exact float-key sort.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
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


def as_index(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int if it is a Python or NumPy integer, not a bool,
    in lo..hi (an end given as None is open): the one integer input rule.
    Anything else raises ``ValueError`` naming ``name``, "must be an
    integer" or "must be in lo..hi" (">= lo"); a top end 2^m - 1 past 2^16,
    such as the last point of {0,1}^m, is written so."""
    if value.__class__ is not int:  # an exact int skips the type check
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}") from None
    if (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    top = f"2^{hi.bit_length()} - 1" if hi is not None and hi > 0xFFFF and not hi & (hi + 1) else hi
    span = f">= {lo}" if hi is None else f"<= {top}" if lo is None else f"in {lo}..{top}"
    raise ValueError(f"{name} must be {span}, got {value}")


def as_real(value, name: str, lo, hi, closed: bool = False):
    """``value`` if it is a finite real number (a Python or NumPy int or
    float, or a ``Fraction``; not a bool) between lo and hi, the ends
    included only if ``closed``: as given if rational, else as a float,
    which ``Fraction`` takes.  Anything else raises ``ValueError`` naming
    ``name``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__} {value!r}")
    if -math.inf < value < math.inf and (lo < value < hi or closed and lo <= value <= hi):
        return value if isinstance(value, numbers.Rational) else float(value)
    ends = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
    span = f"finite and {'>=' if closed else '>'} {lo}" if hi == math.inf else f"in {ends}"
    raise ValueError(f"{name} must be {span}, got {value}")


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


class WordPoints(Sequence):
    """The points of a word block as a read-only sequence of ints that
    keeps the block.

    ``words`` is a read-only view of the (b, width) uint64 block.  ``len``,
    indexing and iteration give the ints that ``from_words`` reads off its
    rows; an iteration reads them all from one ``tobytes`` pass, and a
    slice is again a ``WordPoints``.  ``BooleanFunction._block`` takes the words of a
    sequence whose width matches its n as they are, so a library function
    evaluates the block without building its ints.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        if words.dtype != np.uint64 or words.ndim != 2 or not words.shape[1]:
            raise ValueError(f"a word block needs (b, width) uint64 words, got {words.dtype} {words.shape}")
        self.words = words.view()
        self.words.flags.writeable = False

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WordPoints(self.words[i])
        return from_words(self.words[i])

    def __iter__(self):
        rows = np.frombuffer(self.words.tobytes(), dtype=f"V{8 * self.words.shape[1]}")
        return iter([int.from_bytes(row, "little") for row in rows.tolist()])


def block_points(xs: np.ndarray) -> np.ndarray | WordPoints:
    """A block as ``eval_many`` takes it: its uint64 column at n <= 64, a
    ``WordPoints`` sequence of ints over the block above."""
    if xs.shape[1] == 1:
        return xs[:, 0]
    return WordPoints(xs)


def block_weights(xs: np.ndarray) -> np.ndarray:
    """Hamming weight of every row, summed over the words: uint8 through 3
    words, uint16 through 1,023 (65,472 bits), uint32 from 1,024 words on.
    A one-word block skips the sum."""
    width = xs.shape[1]
    if width == 1:
        return np.bitwise_count(xs[:, 0])
    return np.bitwise_count(xs).sum(axis=1, dtype=np.uint8 if width < 4 else np.uint16 if width < 1024 else np.uint32)


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
    The t-th row of weight m takes the t-th pool word of weight m: with
    rows and pool words each stably sorted by weight, class m pairs its
    first min(rc[m], wc[m]) rows with as many pool words, rc and wc
    counting the rows and pool words of weight m, so the pairs are one
    range per class in each order.  The matching reads weights only, so
    every matched row gets an independent uniform subset of its own weight.
    Rows without a partner (the rest of each class's range, mostly tail
    weights), lightest first, and small blocks go through
    ``_rearrange_keysort``.
    """
    if not mask:
        return xs.copy()  # nothing to permute, and nothing drawn
    b, width = xs.shape
    mk = to_words(mask, width)
    if b < _POOL_MIN_ROWS:
        return _rearrange_keysort(xs, mk, rng)
    pool = random_masks_u64(64 * width, b + b // 4, rng) & mk
    m = block_weights(xs & mk)
    pm = block_weights(pool)
    rows = np.argsort(m, kind="stable")
    words = np.argsort(pm, kind="stable")
    classes = mask.bit_count() + 1
    rc = np.bincount(m, minlength=classes)
    wc = np.bincount(pm, minlength=classes)
    rstart = np.cumsum(rc) - rc
    # sorted row j of class m reads sorted pool word j + wstart[m] - rstart[m];
    # the clipped reads of rows past their class's pool words are overwritten
    src = np.empty(b, dtype=np.intp)
    src[rows] = words.take(np.arange(b) + np.repeat(np.cumsum(wc) - wc - rstart, rc), mode="clip")
    ys = np.take(pool, src, axis=0)
    ys |= xs & ~mk
    paired = np.minimum(rc, wc)
    left = rows[_ranges(rstart + paired, rc - paired)]
    if len(left):
        ys[left] = _rearrange_keysort(xs[left], mk, rng)
    return ys


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]), one after another."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def rearrange_bits(x: int, mask: int, rng: np.random.Generator) -> int:
    """``rearrange_bits_block`` on the single point ``x``."""
    width = max(1, -(-(x | mask).bit_length() // 64))
    return from_words(rearrange_bits_block(to_words(x, width)[None, :], mask, rng)[0])


def _rearrange_keysort(xs: np.ndarray, mk: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``rearrange_bits_block`` by float keys.

    A uniform arrangement of m ones among L slots is the indicator of the m
    smallest of L iid keys, those at or below the m-th smallest key (none
    when m = 0).  A row where the m-th and the (m+1)-th smallest keys tie
    would get more than m ones; it is redrawn, so the result is exact.
    """
    b, width = xs.shape
    positions = np.flatnonzero(np.unpackbits(mk.view(np.uint8), bitorder="little"))
    length = len(positions)
    m = block_weights(xs & mk).astype(np.intp)

    def draw(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys = rng.random((len(counts), length), dtype=np.float32)
        skeys = np.sort(keys, axis=1)
        rows = np.arange(len(counts))
        thresh = np.where(counts > 0, skeys[rows, counts - 1], -1)  # keys lie in [0, 1)
        tied = (counts < length) & (skeys[rows, np.minimum(counts, length - 1)] == thresh)
        return keys <= thresh[:, None], tied

    bits, tied = draw(m)
    todo = np.flatnonzero(tied)
    while len(todo):
        bits[todo], tied = draw(m[todo])
        todo = todo[tied]
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
