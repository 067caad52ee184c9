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


def _pool_reference(xs: np.ndarray, mask: int, rng) -> np.ndarray:
    """The pool path of ``rearrange_bits_block`` written per weight class:
    the same pool draw, the t-th row of weight m takes the t-th pool word of
    weight m, and the rows left over, lightest first, go through the key
    sort on the same generator."""
    b, width = xs.shape
    mk = to_words(mask, width)
    pool = random_masks_u64(64 * width, b + b // 4, rng) & mk
    rows_of: dict[int, list[int]] = {}
    words_of: dict[int, list[int]] = {}
    for i, row in enumerate(xs & mk):
        rows_of.setdefault(from_words(row).bit_count(), []).append(i)
    for i, word in enumerate(pool):
        words_of.setdefault(from_words(word).bit_count(), []).append(i)
    ys = xs & ~mk
    left = []
    for m in sorted(rows_of):
        words = words_of.get(m, [])
        for t, i in enumerate(rows_of[m]):
            if t < len(words):
                ys[i] |= pool[words[t]]
            else:
                left.append(i)
    if left:
        ys[left] = _bits._rearrange_keysort(xs[left], mk, rng)
    return ys


@pytest.mark.parametrize("masks", ["full", "gapped", "4-slot"])
@pytest.mark.parametrize("rows", [192, 1000, 16384])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_pool_pairing_matches_a_per_class_reference(width, rows, masks):
    n = 64 * width
    mask = {
        "full": (1 << n) - 1,
        "gapped": mask_from_indices(range(1, n, 3)) | 1 << (n - 1),
        "4-slot": mask_from_indices(np.linspace(0, n - 1, 4).astype(int)),
    }[masks]
    xs = random_masks_u64(n, rows, np.random.default_rng(rows + width))
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    assert np.array_equal(rearrange_bits_block(xs, mask, rng), _pool_reference(xs, mask, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pool_pairing_of_a_block_in_one_tail_class():
    # every row has weight 2 in 16 slots, a class few pool words fall in:
    # a handful of rows pair and the rest go through the key sort
    mask = GAPPED16
    rng = np.random.default_rng(8)
    pairs = [rng.choice(_bits.indices_of(mask), 2, replace=False) for _ in range(4096)]
    xs = np.array([[(1 << int(a)) | (1 << int(b))] for a, b in pairs], dtype=np.uint64)
    xs |= random_masks_u64(64, 4096, rng) & ~np.uint64(mask)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    ys = rearrange_bits_block(xs, mask, rng)
    assert np.array_equal(ys, _pool_reference(xs, mask, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (block_weights(ys & np.uint64(mask)) == 2).all()


class _CoarseKeys:
    """A generator whose float keys take 4 L values for L slots, so that
    rows tie often; ``calls`` counts its draws."""

    def __init__(self, seed: int, slots: int):
        self.rng = np.random.default_rng(seed)
        self.levels = 4 * slots
        self.calls = 0

    def random(self, size, dtype):
        self.calls += 1
        return (np.floor(self.rng.random(size, dtype=dtype) * self.levels) / self.levels).astype(dtype)


def _keysort_reference(xs: np.ndarray, mask: int, rng) -> np.ndarray:
    """The key sort with its tie check as a count of each row's ones: the
    rows whose count of keys at or below their m-th key is not m are
    redrawn, together, until none is left."""
    positions = _bits.indices_of(mask)
    m = block_weights(xs & to_words(mask, xs.shape[1])).astype(np.int64)

    def draw(counts):
        keys = rng.random((len(counts), len(positions)), dtype=np.float32)
        thresh = np.take_along_axis(np.sort(keys, axis=1), np.maximum(counts - 1, 0)[:, None], axis=1)
        return (keys <= thresh) & (counts > 0)[:, None]

    bits = draw(m)
    todo = np.flatnonzero(bits.sum(axis=1) != m)
    while len(todo):
        bits[todo] = draw(m[todo])
        todo = todo[bits[todo].sum(axis=1) != m[todo]]
    ys = xs.copy()
    for i, row in enumerate(bits):
        y = from_words(xs[i]) & ~mask | mask_from_indices(p for p, bit in zip(positions, row) if bit)
        ys[i] = to_words(y, xs.shape[1])
    return ys


@pytest.mark.parametrize("mask", [GAPPED6, FULL, GAPPED24_N128])
def test_key_sort_redraws_exactly_the_rows_whose_keys_tie(mask):
    xs = random_masks_u64(_n(mask), 150, np.random.default_rng(5))
    xs[0] = 0
    xs[1] = to_words(mask, xs.shape[1])
    slots = mask.bit_count()
    rng, ref_rng = _CoarseKeys(6, slots), _CoarseKeys(6, slots)
    ys = _bits._rearrange_keysort(xs, to_words(mask, xs.shape[1]), rng)
    assert np.array_equal(ys, _keysort_reference(xs, mask, ref_rng))
    assert rng.calls == ref_rng.calls > 2
    assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state


@pytest.mark.parametrize("rows", [0, 1, 4096])
def test_one_word_weights_equal_the_summed_form(rows):
    xs = random_masks_u64(64, rows, np.random.default_rng(rows))
    summed = np.bitwise_count(xs).sum(axis=1, dtype=np.uint8)
    got = block_weights(xs)
    assert got.dtype == np.uint8 and got.shape == (rows,)
    assert np.array_equal(got, summed)


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


@pytest.mark.parametrize(
    "n, block, error",
    [
        pytest.param(3, [[8], [3]], "top word 8 outside", id="n3-bit-past-n"),
        pytest.param(3, np.array([[3], [1 << 63]], dtype=np.uint64), "outside", id="n3-top-bit"),
        pytest.param(130, np.zeros((2, 1), dtype=np.uint64), "needs", id="n130-one-word"),
        pytest.param(130, np.zeros((2, 4), dtype=np.uint64), "needs", id="n130-four-words"),
        pytest.param(130, [[0, 0, 4]], "top word 4 outside", id="n130-bit-past-n"),
        pytest.param(64, np.zeros(2, dtype=np.uint64), "needs", id="n64-flat-array"),
        pytest.param(64, np.array([[1.5]]), "integer words", id="n64-float-words"),
        pytest.param(64, np.array([[-1]]), "negative", id="n64-negative-word"),
        pytest.param(64, [[1 << 64]], "integer words", id="n64-word-past-uint64"),
    ],
)
def test_permutation_apply_many_rejects_what_apply_rejects(n, block, error):
    pi = pt.Permutation(range(n)[::-1])
    with pytest.raises(ValueError, match=error):
        pi.apply_many(block)


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


@pytest.mark.parametrize("n", [70_000, 140_000])
def test_weights_past_65535_ones_do_not_wrap(n, monkeypatch):
    # rows of 1,024 words and more hold weights past uint16: the all-ones
    # row, uniform rows (about n/2 ones) and rows with about 31/32 ones
    rng = np.random.default_rng(n)
    width = (n + 63) // 64
    uniform = random_masks_u64(n, 12, rng)
    sparse = random_masks_u64(n, 12, rng)
    for _ in range(4):
        sparse &= random_masks_u64(n, 12, rng)
    heavy = ~sparse
    heavy[:, -1] &= np.uint64((1 << (n % 64)) - 1)
    block = np.concatenate((to_words((1 << n) - 1, width)[None, :], uniform, heavy))
    points = list(_bits.block_points(block))
    weights = [x.bit_count() for x in points]
    assert max(weights) == n and sum(w > 65_535 for w in weights) >= 12
    assert block_weights(block).tolist() == weights
    # a batch reads each point as a scalar query does
    profile = pt.SymmetricProfile(n, rng.integers(0, 2, size=n + 1))
    core = pt.random_core_spec(n, 2, rng)
    for f in (profile, core):
        assert f.eval_many(_bits.block_points(block)).tolist() == [f(x) for x in points]
    # both rearrangement paths keep every row's weight: the key sort on a
    # small block, and the pool on a block of at least its threshold
    mask = (1 << n) - 1
    assert block_weights(rearrange_bits_block(block[:4], mask, rng)).tolist() == weights[:4]
    monkeypatch.setattr(_bits, "_POOL_MIN_ROWS", 8)
    assert block_weights(rearrange_bits_block(block, mask, rng)).tolist() == weights
