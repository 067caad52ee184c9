from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import psymtest as pt
from psymtest import _bits
from psymtest._bits import (
    block_weights,
    from_words,
    mask_from_indices,
    random_masks_u64,
    randrange_bigint,
    rearrange_bits,
    rearrange_bits_block,
    to_words,
)

FULL = (1 << 64) - 1
CONTIGUOUS6 = mask_from_indices(range(3, 9))
GAPPED6 = mask_from_indices((0, 5, 17, 30, 41, 63))
GAPPED16 = mask_from_indices(range(0, 64, 4))
# masks whose top bit sits in the last word of a two- and a four-word block
GAPPED6_N128 = mask_from_indices((2, 40, 63, 64, 99, 127))
GAPPED6_N256 = mask_from_indices((7, 70, 128, 150, 201, 255))
GAPPED24_N128 = mask_from_indices(range(1, 128, 5)) | 1 << 127
GAPPED40_N256 = mask_from_indices(range(3, 256, 6)) | 1 << 255
SMALL = _bits._POOL_MIN_ROWS - 1
P_MIN = 1e-4


def _n(mask: int) -> int:
    """Variables of the smallest block holding ``mask``: a whole number of words."""
    return 64 * -(-mask.bit_length() // 64)


def _rearrange(xs: np.ndarray, mask: int, block: int, rng) -> np.ndarray:
    """Rearrange ``xs`` in consecutive blocks of ``block`` rows."""
    return np.concatenate(
        [rearrange_bits_block(xs[i : i + block], mask, rng) for i in range(0, len(xs), block)]
    )


def _weight_class_pvalues(xs: np.ndarray, ys: np.ndarray, mask: int) -> dict[int, float]:
    """Chi-square p-value of y & mask against uniform, per weight of x & mask
    (weights strictly between 0 and |mask| that occur in xs)."""
    pos = _bits.indices_of(mask)
    mk = to_words(mask, xs.shape[1])
    m = block_weights(xs & mk)
    out = {}
    for w in range(1, len(pos)):
        sel = ys[m == w] & mk
        if not len(sel):
            continue
        cells = {sum(1 << p for p in c): i for i, c in enumerate(combinations(pos, w))}
        counts = np.bincount([cells[from_words(v)] for v in sel], minlength=len(cells))
        out[w] = stats.chisquare(counts).pvalue
    return out


@pytest.mark.parametrize("n", [1, 33, 63, 64, 65, 128, 200])
def test_masks_are_word_blocks_of_n_bits(n):
    xs = random_masks_u64(n, 4096, np.random.default_rng(9))
    assert xs.dtype == np.uint64 and xs.shape == (4096, -(-n // 64))
    bits = np.unpackbits(xs.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, n:].any()
    assert np.abs(bits[:, :n].mean(axis=0) - 0.5).max() < 0.05
    if n <= 64:
        # one word draws the stream of a flat draw of n-bit values
        flat = np.random.default_rng(9).integers(0, (1 << n) - 1, 4096, np.uint64, endpoint=True)
        assert np.array_equal(xs[:, 0], flat)


@pytest.mark.parametrize("mask", [FULL, CONTIGUOUS6, GAPPED16, GAPPED24_N128, GAPPED40_N256])
@pytest.mark.parametrize("block", [SMALL, 4096])
def test_block_preserves_weight_and_unmasked_bits(mask, block):
    rng = np.random.default_rng(0)
    xs = random_masks_u64(_n(mask), 2 * block, rng)
    ys = _rearrange(xs, mask, block, rng)
    mk = to_words(mask, xs.shape[1])
    assert ys.dtype == np.uint64 and ys.shape == xs.shape
    assert np.array_equal(block_weights(ys & mk), block_weights(xs & mk))
    assert np.array_equal(ys & ~mk, xs & ~mk)


@pytest.mark.parametrize(
    "mask",
    [CONTIGUOUS6, GAPPED6, GAPPED6_N128, GAPPED6_N256],
    ids=["contiguous", "gapped", "gapped-n128", "gapped-n256"],
)
@pytest.mark.parametrize("block", [SMALL, 4096], ids=["keysort", "pool"])
def test_block_is_uniform_within_each_weight_class(mask, block):
    rng = np.random.default_rng(1)
    xs = random_masks_u64(_n(mask), 8192 if block > SMALL else 40 * SMALL, rng)
    ys = _rearrange(xs, mask, block, rng)
    pvalues = _weight_class_pvalues(xs, ys, mask)
    assert sorted(pvalues) == [1, 2, 3, 4, 5]
    for w, p in pvalues.items():
        assert p > P_MIN, (w, p)


def test_block_rows_are_independent():
    # identical rows of weight 2 in 4 slots: (y_2i, y_2i+1) uniform on 6 x 6 cells
    rng = np.random.default_rng(2)
    mask = mask_from_indices((2, 9, 20, 33))
    xs = np.full((8192, 1), (1 << 2) | (1 << 33) | (1 << 50), dtype=np.uint64)
    ys = (rearrange_bits_block(xs, mask, rng) & np.uint64(mask))[:, 0]
    cells = {int(v): i for i, v in enumerate(np.unique(ys))}
    assert len(cells) == 6
    idx = np.array([cells[int(v)] for v in ys])
    counts = np.bincount(6 * idx[0::2] + idx[1::2], minlength=36)
    assert stats.chisquare(counts).pvalue > P_MIN


@pytest.mark.parametrize("mask", [GAPPED6, GAPPED6_N128, GAPPED40_N256])
def test_one_point_rearrangement_is_a_one_row_block(mask):
    n = _n(mask)
    for seed in range(20):
        x = from_words(random_masks_u64(n, 1, np.random.default_rng(seed))[0])
        y = rearrange_bits(x, mask, np.random.default_rng(seed + 100))
        row = rearrange_bits_block(to_words(x, n // 64)[None, :], mask, np.random.default_rng(seed + 100))
        assert y == from_words(row[0])
        assert y & ~mask == x & ~mask and y.bit_count() == x.bit_count()


@pytest.mark.parametrize("rows", [1, 64, 256])
def test_empty_mask_leaves_the_block_as_it_is(rows):
    # permuting no coordinates: the key sort (under 192 rows) and the pool
    # path agree, and neither draws from the generator
    xs = random_masks_u64(130, rows, np.random.default_rng(rows))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    ys = rearrange_bits_block(xs, 0, rng)
    assert ys.shape == xs.shape and (ys == xs).all()
    assert rng.bit_generator.state == before
    x = from_words(xs[0])
    assert rearrange_bits(x, 0, np.random.default_rng(2)) == x


def test_pool_path_spreads_bits_over_all_64_slots():
    rng = np.random.default_rng(3)
    xs = random_masks_u64(64, 16384, rng)
    ys = rearrange_bits_block(xs, FULL, rng)
    per_slot = np.unpackbits(ys.view(np.uint8), bitorder="little").reshape(-1, 64).sum(axis=0)
    assert stats.chisquare(per_slot).pvalue > P_MIN


def _count_keysort_rows(monkeypatch) -> list[int]:
    seen: list[int] = []
    inner = _bits._rearrange_keysort

    def spy(xs, *args):
        seen.append(len(xs))
        return inner(xs, *args)

    monkeypatch.setattr(_bits, "_rearrange_keysort", spy)
    return seen


@pytest.mark.parametrize("mask", [FULL, GAPPED16])
def test_dispatch_on_block_size(monkeypatch, mask):
    seen = _count_keysort_rows(monkeypatch)
    rng = np.random.default_rng(4)
    rearrange_bits_block(random_masks_u64(64, SMALL, rng), mask, rng)
    assert seen == [SMALL]
    seen.clear()
    rearrange_bits_block(random_masks_u64(64, 4096, rng), mask, rng)
    assert sum(seen) < 0.05 * 4096


def test_leftover_rows_keep_the_law(monkeypatch):
    # empty, full and weight-2 rows have (almost) no pool partner at 16 slots
    seen = _count_keysort_rows(monkeypatch)
    rng = np.random.default_rng(5)
    mask = GAPPED16
    pos = _bits.indices_of(mask)
    mk = np.uint64(mask)
    uniform = random_masks_u64(64, 4096, rng)
    noise = random_masks_u64(64, 4096, rng) & ~mk
    two = np.array([(1 << int(a)) | (1 << int(b)) for a, b in rng.choice(pos, (2048, 2))])
    two = two[np.bitwise_count(two.astype(np.uint64)) == 2].astype(np.uint64)[:, None]
    empty, full = noise[:1024], noise[1024:2048] | mk
    xs = np.concatenate([uniform, empty, full, noise[2048 : 2048 + len(two)] | two])
    xs = xs[rng.permutation(len(xs))]
    ys = rearrange_bits_block(xs, mask, rng)
    assert sum(seen) >= 2048 + len(two) - 64
    m = block_weights(xs & mk)
    assert np.array_equal(block_weights(ys & mk), m)
    assert np.array_equal(ys & ~mk, xs & ~mk)
    assert np.array_equal(ys[m == 0], xs[m == 0])
    assert np.array_equal(ys[m == 16], xs[m == 16])
    pvalues = _weight_class_pvalues(xs[m == 2], ys[m == 2], mask)
    assert list(pvalues) == [2] and pvalues[2] > P_MIN


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_permutation_apply_many_matches_apply(data):
    n = data.draw(st.sampled_from([1, 8, 63, 64, 65, 130]))
    width = (n + 63) // 64
    pi = pt.Permutation(data.draw(st.permutations(range(n))))
    xs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    block = np.array([to_words(x, width) for x in xs], dtype=np.uint64).reshape(len(xs), width)
    for _ in range(2):  # the second call reads the cached tables
        ys = pi.apply_many(block)
        assert ys.dtype == np.uint64 and ys.shape == (len(xs), width)
        assert [from_words(y) for y in ys] == [pi.apply(x) for x in xs]


@pytest.mark.parametrize("width", [1, 2, 3, 64])
def test_to_words_matches_one_shift_per_word(width):
    rng = np.random.default_rng(33)
    top = 1 << (64 * width - 1)
    randoms = [int.from_bytes(rng.bytes(8 * width), "little") for _ in range(20)]
    for mask in [0, 1, top, 2 * top - 1, *randoms, *(x | top for x in randoms)]:
        words = to_words(mask, width)
        assert words.dtype == np.uint64 and words.shape == (width,)
        assert words.tolist() == [(mask >> (64 * i)) & FULL for i in range(width)]
    with pytest.raises(OverflowError):
        to_words(2 * top, width)


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 10])
def test_small_bound_ranks_are_uniform(bound):
    rng = np.random.default_rng(bound)
    draws = [randrange_bigint(bound, rng) for _ in range(3000)]
    counts = np.bincount(draws, minlength=bound)
    assert len(counts) == bound
    if bound > 1:
        assert stats.chisquare(counts).pvalue > P_MIN


@pytest.mark.parametrize("bound", [(1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) + 3, 3**100])
def test_ranks_near_and_past_one_word_stay_in_range(bound):
    rng = np.random.default_rng(0)
    draws = [randrange_bigint(bound, rng) for _ in range(400)]
    assert all(isinstance(u, int) and 0 <= u < bound for u in draws)
    # a uniform draw's mean fraction of the bound is 1/2 with sd 0.29 / 20
    assert abs(np.mean([u / bound for u in draws]) - 0.5) < 0.1
