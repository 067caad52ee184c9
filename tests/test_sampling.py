import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import groupby, product
from math import comb, log, sqrt

import numpy as np
import pytest

import psymtest as pt
from psymtest._bits import from_words, indices_of, mask_from_indices, random_masks_u64, randrange_bigint, to_words
from psymtest.sampling import (
    _SubsetSumTable,
    _draw,
    core_marginal_exact,
    draw_core_sample,
    draw_core_samples_batch,
    dstar_pmf,
    handle_from_verdict,
)

from helpers import reference_unrank, strong_core_spec


def test_sample_dstar_edge_cases():
    rng = np.random.default_rng(0)
    x, w = pt.sample_dstar(10, 0, rng)
    assert x == 0 and 0 <= w <= 10
    for _ in range(10):
        x, w = pt.sample_dstar(5, 5, rng)
        assert w == 0 and 0 <= x < 32


def test_sample_dstar_mean_weight():
    rng = np.random.default_rng(1)
    ws = [pt.sample_dstar(20, 2, rng)[1] for _ in range(100_000)]
    assert abs(np.mean(ws) - 9.0) < 0.1


def test_count_valid_singletons_and_single_big_part():
    rng = np.random.default_rng(2)
    p = pt.random_partition(12, 12, rng)
    for w in range(13):
        assert _SubsetSumTable(p, 3, ()).count(w) == comb(12, w)
    # one giant part plus a workspace of size 4
    big = pt.Partition(12, [(1 << 8) - 1, ((1 << 12) - 1) ^ ((1 << 8) - 1)])
    for w in range(13):
        expected = (comb(4, w) if w <= 4 else 0) + (comb(4, w - 8) if 0 <= w - 8 <= 4 else 0)
        assert _SubsetSumTable(big, 1, ()).count(w) == expected


def test_count_valid_matches_enumeration():
    rng = np.random.default_rng(3)
    n = 16
    partition = pt.random_partition(n, 5, rng)
    w_part = max(range(partition.r), key=partition.size)
    other_masks = [partition.parts[p] for p in range(partition.r) if p != w_part]
    by_weight = [0] * (n + 1)
    for x in range(1 << n):
        ok = all((x & m) == 0 or (x & m) == m for m in other_masks)
        if ok:
            by_weight[x.bit_count()] += 1
    for w in range(n + 1):
        assert _SubsetSumTable(partition, w_part, ()).count(w) == by_weight[w]


def test_sample_diw_parts_constant_every_draw():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(8, 20))
        r = int(rng.integers(2, 7))
        partition = pt.random_partition(n, r, rng)
        w_part = int(rng.integers(0, partition.r))
        table = _SubsetSumTable(partition, w_part, ())
        block = table.block(rng.binomial(n, 0.5, size=50), rng)
        for y in block[:, 0].tolist():
            for p in range(partition.r):
                if p == w_part:
                    continue
                m = partition.parts[p]
                assert (y & m) == 0 or (y & m) == m


def test_sample_diw_infeasible_weight_returns_zeros():
    partition = pt.Partition(16, [(1 << 15) - 1, 0x8000])
    rng = np.random.default_rng(5)
    block = _SubsetSumTable(partition, 1, ()).block([7], rng)
    assert block.tolist() == [[0]]


@pytest.mark.parametrize("workspace", [-1, 3])
def test_out_of_range_workspace_is_rejected(workspace):
    partition = pt.Partition(6, [0b11, 0b1100, 0b110000])
    f = pt.SymmetricProfile(6, np.zeros(7, dtype=np.uint8))
    with pytest.raises(ValueError, match=f"workspace must be in 0..2, got {workspace}"):
        _SubsetSumTable(partition, workspace, ())
    with pytest.raises(ValueError, match=f"workspace must be in 0..2, got {workspace}"):
        pt.SamplerHandle(f, partition, workspace, (0,))


@pytest.mark.parametrize(
    "f_n, part_n, j_parts, message",
    [
        (6, 6, (-1,), "asymmetric slot must be in 0..2, got -1"),
        (6, 6, (3,), "asymmetric slot must be in 0..2, got 3"),
        (8, 6, (0,), "must agree"),
        (6, 8, (0,), "must agree"),
        (6, 6, (0, 0), "slots must be distinct parts"),
    ],
)
def test_malformed_handle_is_rejected(f_n, part_n, j_parts, message):
    partition = pt.Partition(part_n, [0b11, 0b1100, ((1 << part_n) - 1) ^ 0b1111])
    f = pt.SymmetricProfile(f_n, np.zeros(f_n + 1, dtype=np.uint8))
    with pytest.raises(ValueError, match=message):
        pt.SamplerHandle(f, partition, 2, j_parts)


@pytest.mark.parametrize(
    "workspace, slots, message",
    [
        (2.0, (0,), "workspace must be an integer, got float"),
        (True, (0,), "workspace must be an integer, got bool"),
        (2, (0.0,), "asymmetric slot must be an integer, got float"),
        (2, (np.int64(4),), "asymmetric slot must be in 0..3, got 4"),
        (2, (0, 1, 0), "slots must be distinct parts"),
        (2, (2,), "workspace cannot be an asymmetric slot"),
        (2, (3,), "slots must be nonempty parts"),
    ],
)
def test_table_alone_checks_the_workspace_and_slots(workspace, slots, message):
    # the handle checks only n and hands the parts to its table, which owns every part rule
    partition = pt.Partition(6, [0b11, 0b1100, 0b110000, 0])
    f = pt.SymmetricProfile(6, np.zeros(7, dtype=np.uint8))
    with pytest.raises(ValueError, match=message):
        _SubsetSumTable(partition, workspace, slots)
    with pytest.raises(ValueError, match=message):
        pt.SamplerHandle(f, partition, workspace, slots)


def test_numpy_integer_parts_draw_as_ints():
    partition = pt.Partition(9, [0b11, 0b11100, 0b111100000])
    f = pt.SymmetricProfile(9, np.arange(10, dtype=np.uint8) % 2)
    plain = pt.SamplerHandle(f, partition, 2, (1, 0))
    wrapped = pt.SamplerHandle(f, partition, np.int64(2), (np.int32(1), np.uint8(0)))
    draws = [draw_core_samples_batch(h, 500, np.random.default_rng(41)) for h in (plain, wrapped)]
    assert all(np.array_equal(a, b) for a, b in zip(*draws))
    assert core_marginal_exact(plain) == core_marginal_exact(wrapped)


@pytest.mark.parametrize("n", [64, 65, 256])
def test_fills_row_s_sets_the_lowest_s_workspace_variables(n):
    rng = np.random.default_rng(n)
    partition = pt.random_partition(n, 5, rng)
    w = max(range(partition.r), key=partition.size)
    table = _SubsetSumTable(partition, w, ())
    parts, fills = table.words
    width = (n + 63) // 64
    assert parts.tolist() == [to_words(p, width).tolist() for p in table.parts]
    pos = indices_of(partition.parts[w])
    assert fills.shape == (len(pos) + 1, width) and fills.dtype == np.uint64
    assert [from_words(row) for row in fills] == [mask_from_indices(pos[:s]) for s in range(len(pos) + 1)]


def reference_tv_estimate(handle, trials, rng):
    """The TV estimate's bin loop over every (x, w) of the window."""
    n, k = handle.n, handle.k
    m = n - k
    lo = max(0, int(np.floor(m / 2 - 3 * m**0.5)))
    hi = min(m, int(np.ceil(m / 2 + 3 * m**0.5)))
    _, xs, ws = _draw(handle, trials, rng)
    counts = Counter(zip(xs.tolist(), ws.tolist()))
    total, tail_ref = 0.0, 1.0
    for x in range(1 << k):
        for w in range(lo, hi + 1):
            ref = comb(m, w) / 2**n
            total += abs(counts.pop((x, w), 0) / trials - ref)
            tail_ref -= ref
    return (total + abs(sum(counts.values()) / trials - tail_ref)) / 2


@pytest.mark.parametrize("n, r", [(16, 5), (64, 9), (256, 9), (64, 64)])
def test_tv_estimate_histogram_matches_the_bin_loop(n, r):
    rng = np.random.default_rng(50 + n + r)
    partition = pt.random_partition(n, r, rng)
    w = max(range(partition.r), key=partition.size)
    slots = tuple(p for p in range(partition.r) if p != w and partition.parts[p])[:2]
    handle = pt.SamplerHandle(pt.SymmetricProfile(n, np.zeros(n + 1, dtype=np.uint8)), partition, w, slots)
    tv = pt.marginal_tv_estimate(handle, 20_000, np.random.default_rng(60 + n))
    assert isinstance(tv, float)
    assert abs(tv - reference_tv_estimate(handle, 20_000, np.random.default_rng(60 + n))) <= 1e-12


def check_rank_bijection(partition, workspace, slots):
    """Ranks 0..count(w) - 1 of every weight w unrank onto the parts and
    workspace weight s of the valid weight-w points, each (parts, s) from
    C(|W|, s) consecutive ranks, one per placement of the s workspace ones,
    and the next rank ends the walk off its rank.  Returns the weights with
    no valid point."""
    table = _SubsetSumTable(partition, workspace, slots)
    others = [partition.parts[p] for p in range(partition.r) if p != workspace]
    ws_mask = partition.parts[workspace]
    valid = [[] for _ in range(partition.n + 1)]
    for y in range(1 << partition.n):
        if all(y & m in (0, m) for m in others):
            valid[y.bit_count()].append(y)
    for w, points in enumerate(valid):
        total = table.count(w)
        assert total == len(points)
        ranked = [table.unrank(w, u) for u in range(total)]
        assert Counter(ranked) == Counter((y & ~ws_mask, (y & ws_mask).bit_count()) for y in points)
        assert all(c == comb(ws_mask.bit_count(), s) for (_, s), c in Counter(ranked).items())
        runs = [key for key, _ in groupby(ranked)]
        assert len(runs) == len(set(runs))
        with pytest.raises(RuntimeError, match="ended off its rank"):
            table.unrank(w, total)
    return {w for w, points in enumerate(valid) if not points}


@pytest.mark.parametrize(
    "partition, workspace, infeasible",
    [
        # part 1 is empty
        (pt.Partition(9, [0b11, 0, 0b11100, 0b111100000]), 3, set()),
        # two parts of 4 beside a one-slot workspace
        (pt.Partition(9, [0b1111, 0b11110000, 1 << 8]), 2, {2, 3, 6, 7}),
    ],
)
def test_unranking_every_rank_covers_each_pattern_once_per_fill(partition, workspace, infeasible):
    free = [p for p in range(partition.r) if p != workspace and partition.parts[p]]
    for k in range(len(free) + 1):
        # slots taken from the top, so they are not in part order
        assert check_rank_bijection(partition, workspace, tuple(free[::-1][:k])) == infeasible


def test_unranking_is_a_bijection_on_random_handles():
    rng = np.random.default_rng(29)
    seen = Counter()
    for _ in range(60):
        n = int(rng.integers(1, 13))
        r = int(rng.integers(1, 9))
        assign = rng.integers(0, r, size=n)
        partition = pt.Partition(n, [sum(1 << int(i) for i in np.flatnonzero(assign == p)) for p in range(r)])
        workspace = int(rng.integers(0, r))
        free = [p for p in range(r) if p != workspace and partition.parts[p]]
        k = int(rng.integers(0, min(len(free), 3) + 1))
        check_rank_bijection(partition, workspace, tuple(int(p) for p in rng.permutation(free)[:k]))
        seen["empty part"] += any(not partition.parts[p] for p in range(r) if p != workspace)
        seen["empty workspace"] += not partition.parts[workspace]
        seen[f"k = {k}"] += 1
    assert min(seen[case] for case in ("empty part", "empty workspace", "k = 0", "k = 1", "k = 2", "k = 3")) >= 3, seen


def test_sample_diw_conditional_uniformity_chi_square():
    from scipy import stats

    rng = np.random.default_rng(6)
    n = 14
    partition = pt.random_partition(n, 4, rng)
    w_part = max(range(partition.r), key=partition.size)
    w = 7
    other_masks = [partition.parts[p] for p in range(partition.r) if p != w_part]
    valid = [
        x
        for x in range(1 << n)
        if x.bit_count() == w
        and all((x & m) == 0 or (x & m) == m for m in other_masks)
    ]
    table = _SubsetSumTable(partition, w_part, ())
    draws = 300_000
    ys = table.block([w] * draws, rng)[:, 0]
    index = np.searchsorted(valid, ys)
    assert (np.array(valid, dtype=np.uint64)[index] == ys).all()
    counts = np.bincount(index, minlength=len(valid))
    expected = draws / len(valid)
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p_value = stats.chi2.sf(stat, df=len(valid) - 1)
    assert p_value > 0.01


def test_build_sampler_completeness_and_rejection():
    f = strong_core_spec(64)
    rng = np.random.default_rng(7)
    built = 0
    for s in range(20):
        try:
            handle = pt.build_sampler(f, 2, 0.1, 0.1, np.random.default_rng(s))
            built += 1
            assert handle.k == 2 and len(handle.j_parts) == 2
        except pt.SamplerRejected:
            pass
    assert built >= 12

    far = pt.random_function(12, rng)
    rejections = 0
    for s in range(20):
        try:
            pt.build_sampler(far, 2, 0.1, 0.1, np.random.default_rng(s))
        except pt.SamplerRejected as rej:
            assert not rej.verdict.accepted
            rejections += 1
    assert rejections >= 12


def test_handle_fields_cannot_be_assigned():
    # the table is built from the slots and the workspace once, at construction
    partition = pt.Partition(6, [0b11, 0b1100, 0b110000])
    handle = pt.SamplerHandle(pt.SymmetricProfile(6, np.zeros(7, dtype=np.uint8)), partition, 2, (0,))
    for name, value in [("j_parts", (1,)), ("workspace", 1), ("partition", partition), ("f", handle.f)]:
        with pytest.raises(FrozenInstanceError):
            setattr(handle, name, value)


def test_singleton_handle_builds_no_count_table():
    # neither draw reads the table's O(n^2) bigint counts
    n = 1024
    partition = pt.random_partition(n, n, np.random.default_rng(30))
    f = pt.KLinear(n, [0, n - 1])
    tracemalloc.start()
    try:
        handle = pt.SamplerHandle(f, partition, 5, (0, n - 1))
        s = draw_core_sample(handle, np.random.default_rng(38))
        single = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        xs, ws, zs = draw_core_samples_batch(handle, 100, np.random.default_rng(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.z == s.x.bit_count() & 1 and len(zs) == 100
    assert single < 1 << 20, f"single draw traced peak {single / 2**20:.2f} MB"
    assert peak < 4 << 20, f"traced peak {peak / 2**20:.1f} MB"


def _handles(n=12):
    """A singleton handle, a general one and a general one whose workspace
    part is empty."""
    f = pt.SymmetricProfile(n, (np.arange(n + 1) % 2).astype(np.uint8))
    half = (1 << (n // 2)) - 1
    return {
        "singleton": pt.SamplerHandle(f, pt.random_partition(n, n, np.random.default_rng(32)), 0, (1,)),
        "general": pt.SamplerHandle(f, pt.Partition(n, [0b11, 0b1100, ((1 << n) - 1) ^ 0b1111]), 2, (1,)),
        "empty workspace": pt.SamplerHandle(f, pt.Partition(n, [half, 0, half << (n // 2)]), 1, (0,)),
    }


@pytest.mark.parametrize("kind", ["singleton", "general", "empty workspace"])
@pytest.mark.parametrize("count", [-1, True, 2.5, "3"])
def test_batch_count_is_a_nonnegative_integer_on_every_path(kind, count):
    handle = _handles()[kind]
    with pytest.raises(ValueError, match="count must be"):
        draw_core_samples_batch(handle, count, np.random.default_rng(33))


@pytest.mark.parametrize("kind", ["singleton", "general", "empty workspace"])
def test_batches_of_zero_and_more_draws_on_every_path(kind):
    handle = _handles()[kind]
    rng = np.random.default_rng(34)
    assert [len(a) for a in draw_core_samples_batch(handle, 0, rng)] == [0, 0, 0]
    xs, ws, zs = draw_core_samples_batch(handle, 200, rng)
    assert ((0 <= ws) & (ws <= handle.n - handle.k)).all()
    assert (zs == (xs + ws) % 2).all()
    s = draw_core_sample(handle, rng)
    assert s.z == (s.x + s.w) % 2


def test_first_general_draw_at_n4096_builds_only_part_rows():
    # one count row per part: the workspace enters only as its base row
    n = 4096
    partition = pt.random_partition(n, 9, np.random.default_rng(35))
    w_part = max(range(partition.r), key=partition.size)
    slot = next(p for p in range(partition.r) if p != w_part)
    f = pt.KLinear(n, [0, n - 1])
    tracemalloc.start()
    try:
        handle = pt.SamplerHandle(f, partition, w_part, (slot,))
        s = draw_core_sample(handle, np.random.default_rng(36))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 <= s.w <= n - 1
    assert peak < 4 << 20, f"traced peak {peak / 2**20:.1f} MB"


def test_handle_padding_uses_low_nonempty_parts():
    f = pt.SymmetricProfile(32, np.zeros(33, dtype=np.uint8))
    v = pt.partially_symmetric_test(f, 2, 0.2, np.random.default_rng(8))
    assert v.accepted and v.found_parts == []
    handle = handle_from_verdict(f, v, 2)
    assert len(handle.j_parts) == 2
    for p in handle.j_parts:
        assert p != v.workspace and v.partition.parts[p]
    expected = [
        p for p in range(v.partition.r) if p != v.workspace and v.partition.parts[p]
    ][:2]
    assert list(handle.j_parts) == expected


@pytest.mark.parametrize("k, message", [(1.5, "k must be an integer"), (True, "k must be an integer"), (-1, "k must be >= 0")])
def test_handle_from_verdict_checks_k(k, message):
    f = pt.SymmetricProfile(32, np.zeros(33, dtype=np.uint8))
    v = pt.partially_symmetric_test(f, 2, 0.2, np.random.default_rng(8))
    assert v.accepted
    with pytest.raises(ValueError, match=message):
        handle_from_verdict(f, v, k)


def test_draw_core_sample_symmetric_profile_reads_profile():
    profile = (np.arange(33) % 2).astype(np.uint8)
    f = pt.SymmetricProfile(32, profile)
    v = pt.partially_symmetric_test(f, 2, 0.2, np.random.default_rng(9))
    handle = handle_from_verdict(f, v, 2)
    rng = np.random.default_rng(10)
    for _ in range(10_000):
        s = pt.draw_core_sample(handle, rng)
        assert s.z == profile[s.x.bit_count() + s.w]


def test_draw_core_sample_aligned_core_spec_is_exact():
    f = strong_core_spec(64)
    handle = None
    for s in range(20):
        try:
            cand = pt.build_sampler(f, 2, 0.1, 0.1, np.random.default_rng(s))
        except pt.SamplerRejected:
            continue
        masks = [cand.partition.parts[p] for p in cand.j_parts]
        if {m.bit_length() - 1 for m in masks if m.bit_count() == 1} == set(f.asym):
            handle = cand
            break
    assert handle is not None
    order = [m.bit_length() - 1 for m in (handle.partition.parts[p] for p in handle.j_parts)]
    sigma = [order.index(a) for a in f.asym]
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        s = pt.draw_core_sample(handle, rng)
        xc = 0
        for c, slot in enumerate(sigma):
            xc |= ((s.x >> slot) & 1) << c
        assert s.z == f.core_eval(xc, s.w)


def test_draw_core_sample_counts_one_query():
    f = pt.counting_oracle(strong_core_spec(64))
    v = pt.partially_symmetric_test(f, 2, 0.1, np.random.default_rng(12))
    handle = handle_from_verdict(f, v, 2)
    before = pt.read_count(f)
    rng = np.random.default_rng(13)
    for i in range(100):
        pt.draw_core_sample(handle, rng)
    assert pt.read_count(f) == before + 100
    draw_core_samples_batch(handle, 50, rng)
    assert pt.read_count(f) == before + 150


def test_batch_draws_match_scalar_distribution():
    f = strong_core_spec(64)
    v = pt.partially_symmetric_test(f, 2, 0.1, np.random.default_rng(14))
    handle = handle_from_verdict(f, v, 2)
    xs, ws, zs = draw_core_samples_batch(handle, 5000, np.random.default_rng(15))
    assert ((0 <= xs) & (xs < 4)).all()
    assert ((0 <= ws) & (ws <= 62)).all()
    mean_w = ws.mean()
    assert abs(mean_w - 31.0) < 0.5


def test_marginal_tv_k0_matches_binomial():
    f = pt.SymmetricProfile(40, np.zeros(41, dtype=np.uint8))
    v = pt.partially_symmetric_test(f, 0, 0.2, np.random.default_rng(16))
    handle = handle_from_verdict(f, v, 0)
    tv = pt.marginal_tv_estimate(handle, 100_000, np.random.default_rng(17))
    assert tv <= 0.02


def test_marginal_tv_requires_enough_trials():
    f = pt.SymmetricProfile(40, np.zeros(41, dtype=np.uint8))
    v = pt.partially_symmetric_test(f, 0, 0.2, np.random.default_rng(18))
    handle = handle_from_verdict(f, v, 0)
    with pytest.raises(ValueError):
        pt.marginal_tv_estimate(handle, 100, np.random.default_rng(19))


def test_core_marginal_exact_sums_to_one_and_matches_empirical():
    rng = np.random.default_rng(20)
    n = 16
    partition = pt.random_partition(n, 5, rng)
    w_part = max(range(partition.r), key=partition.size)
    slots = [p for p in range(partition.r) if p != w_part and partition.parts[p]][:2]
    f = pt.SymmetricProfile(n, np.zeros(n + 1, dtype=np.uint8))
    handle = pt.SamplerHandle(f, partition, w_part, tuple(slots))
    exact = core_marginal_exact(handle)
    assert sum(exact.values()) == 1

    reference = dstar_pmf(n, 2)
    exact_tv = float(pt.tv_exact(exact, reference))
    est = pt.marginal_tv_estimate(handle, 200_000, np.random.default_rng(21))
    assert abs(est - exact_tv) <= 0.02


def reference_core_marginal(handle):
    """The sampler's (x, w) law by enumerating every choice of constants for
    the nonempty non-workspace parts; 2^r terms, so only for r <= 12."""
    partition, table = handle.partition, handle._table
    n = handle.n
    others = [p for p in range(partition.r) if p != handle.workspace and partition.parts[p]]
    assert partition.r <= 12
    sizes = {p: partition.size(p) for p in others}
    slot_of = {part: c for c, part in enumerate(handle.j_parts)}
    w_size = partition.size(handle.workspace)
    mass = {}
    for w in range(n + 1):
        p_w = Fraction(comb(n, w), 1 << n)
        valid = table.count(w)
        if valid == 0:
            # all-zeros fallback: every constant is 0
            mass[(0, 0)] = mass.get((0, 0), 0) + p_w
            continue
        for bits in product((0, 1), repeat=len(others)):
            t = w - sum(sizes[p] for p, b in zip(others, bits) if b)
            if not 0 <= t <= w_size:
                continue
            x = sum(1 << slot_of[p] for p, b in zip(others, bits) if b and p in slot_of)
            key = (x, w - x.bit_count())
            mass[key] = mass.get(key, 0) + p_w * Fraction(comb(w_size, t), valid)
    return mass


def test_core_marginal_exact_matches_enumeration_on_random_handles():
    rng = np.random.default_rng(26)
    seen = Counter()
    for _ in range(160):
        n = int(rng.integers(3, 41))
        r = int(rng.integers(2, 13))
        assign = rng.integers(0, r, size=n)
        partition = pt.Partition(n, [sum(1 << int(i) for i in np.flatnonzero(assign == p)) for p in range(r)])
        workspace = int(rng.integers(0, r))
        free = [p for p in range(r) if p != workspace and partition.parts[p]]
        k = int(rng.integers(0, min(len(free), 3) + 1))
        slots = tuple(int(p) for p in rng.permutation(free)[:k])
        f = pt.SymmetricProfile(n, np.zeros(n + 1, dtype=np.uint8))
        handle = pt.SamplerHandle(f, partition, workspace, slots)
        law = core_marginal_exact(handle)
        assert law == reference_core_marginal(handle)
        assert sum(law.values()) == 1
        seen["empty workspace"] += not partition.parts[workspace]
        seen["fallback weight"] += any(handle._table.count(w) == 0 for w in range(n + 1))
        seen["wide slot"] += any(partition.size(p) > 1 for p in slots)
        seen["k = 0"] += k == 0
    assert min(seen[case] for case in ("empty workspace", "fallback weight", "wide slot", "k = 0")) >= 10, seen


@pytest.mark.parametrize("n, k", [(64, 2), (256, 1)])
def test_core_marginal_exact_on_singleton_handles_is_dstar(n, k):
    # every non-workspace part a singleton: the law is exactly D*
    partition = pt.random_partition(n, n, np.random.default_rng(27))
    f = pt.SymmetricProfile(n, np.zeros(n + 1, dtype=np.uint8))
    handle = pt.SamplerHandle(f, partition, n // 3, tuple(range(n - k, n)))
    law = core_marginal_exact(handle)
    assert sum(law.values()) == 1
    assert law == dstar_pmf(n, k)


def test_core_marginal_exact_past_enumeration_at_n256_r200():
    n = 256
    partition = pt.random_partition(n, 200, np.random.default_rng(28))
    w_part = max(range(partition.r), key=partition.size)
    slots = tuple(p for p in range(partition.r) if p != w_part and partition.size(p) > 1)[:2]
    f = pt.SymmetricProfile(n, np.zeros(n + 1, dtype=np.uint8))
    handle = pt.SamplerHandle(f, partition, w_part, slots)
    law = core_marginal_exact(handle)
    assert sum(law.values()) == 1
    # the point's weight |x| + w is binomial, with the all-zeros fallback at 0
    by_weight = Counter()
    for (x, w), p in law.items():
        by_weight[x.bit_count() + w] += p
    expected = Counter()
    for w in range(n + 1):
        expected[w if handle._table.count(w) else 0] += Fraction(comb(n, w), 1 << n)
    assert by_weight == expected
    assert {x for x, _ in law} == set(range(4))


def test_core_marginal_check_fires_when_a_slot_is_counted_twice(monkeypatch):
    from psymtest import sampling

    partition = pt.Partition(9, [0b11, 0b11100, 0b111100000])
    f = pt.SymmetricProfile(9, np.zeros(10, dtype=np.uint8))
    handle = pt.SamplerHandle(f, partition, 2, (0,))
    assert core_marginal_exact(handle) == reference_core_marginal(handle)
    real = sampling._suffix_ways
    # the slot item counted last, so that it falls among the items after the slots
    monkeypatch.setattr(sampling, "_suffix_ways", lambda sizes, width: real([*sizes[1:], sizes[0]], width))
    with pytest.raises(RuntimeError, match="slot patterns count"):
        core_marginal_exact(pt.SamplerHandle(f, partition, 2, (0,)))


def test_batch_draws_general_partition_path():
    rng = np.random.default_rng(22)
    n = 16
    partition = pt.random_partition(n, 5, rng)
    w_part = max(range(partition.r), key=partition.size)
    slots = [p for p in range(partition.r) if p != w_part and partition.parts[p]][:2]
    f = pt.counting_oracle(pt.SymmetricProfile(n, (np.arange(n + 1) % 2).astype(np.uint8)))
    handle = pt.SamplerHandle(f, partition, w_part, tuple(slots))
    xs, ws, zs = draw_core_samples_batch(handle, 500, rng)
    assert pt.read_count(f) == 500
    assert ((0 <= ws) & (ws <= n - 2)).all()
    profile = np.arange(n + 1) % 2
    for x, w, z in zip(xs, ws, zs):
        assert z == profile[int(x).bit_count() + w]


def test_build_sampler_validates_parameters():
    f = strong_core_spec(64)
    with pytest.raises(ValueError):
        pt.build_sampler(f, 2, 1.5, 0.1, np.random.default_rng(0))


def test_rank_walk_checks_where_it_ends():
    # a rank at a weight with no valid point takes more ones than the weight
    table = _SubsetSumTable(pt.Partition(16, [(1 << 15) - 1, 0x8000]), 1, ())
    assert table.count(7) == 0 and table.unrank(15, 0) == ((1 << 15) - 1, 0)
    with pytest.raises(RuntimeError, match="ended off its rank"):
        table.unrank(7, 0)
    # a rank past the C(|W|, s) placements of its parts and s
    table = _SubsetSumTable(pt.Partition(12, [0b11, 0b1100, (1 << 12) - 16]), 2, (0, 1))
    assert table.unrank(3, table.count(3) - 1) == (0b11, 1)
    with pytest.raises(RuntimeError, match="ended off its rank"):
        table.unrank(3, table.count(3))


def _random_table(n, r, seed):
    """The table of a random r-part partition with its largest part as the
    workspace and one slot."""
    partition = pt.random_partition(n, r, np.random.default_rng(seed))
    w_part = max(range(partition.r), key=partition.size)
    slot = next(p for p in range(partition.r) if p != w_part and partition.parts[p])
    return _SubsetSumTable(partition, w_part, (slot,))


def _random_ranks(table, count, rng):
    """``count`` (w, u) pairs with u uniform in [0, count(w)): half at
    binomial weights, half at uniform weights that have a valid point."""
    n = table.n
    feasible = [w for w in range(n + 1) if table.count(w)]
    ws = [int(w) for w in rng.binomial(n, 0.5, size=count // 2)]
    ws += [feasible[i] for i in rng.integers(0, len(feasible), size=count - count // 2)]
    return ws, [randrange_bigint(table.count(w), rng) for w in ws]


@pytest.mark.parametrize(
    "n, r, dtype", [(64, 9, np.int64), (256, 9, np.int64), (4096, 9, object), (256, 200, object)]
)
def test_array_walk_matches_the_scalar_walk(n, r, dtype):
    table = _random_table(n, r, 44)
    assert table.suffix.dtype == dtype
    ws, us = _random_ranks(table, 300, np.random.default_rng(45))
    takes, s = table._walk(np.array(ws), np.array(us, dtype=dtype))
    for row, (w, u) in enumerate(zip(ws, us)):
        expected = reference_unrank(table, w, u)
        y = sum(part for part, take in zip(table.parts, takes[:, row]) if take)
        assert (y, int(s[row])) == expected
        assert table.unrank(w, u) == expected


def test_counts_are_int64_exactly_while_parts_and_workspace_fit_62_bits():
    # two 2-variable parts beside a workspace of 60 and of 61 variables
    for n, dtype in [(64, np.int64), (65, object)]:
        table = _SubsetSumTable(pt.Partition(n, [0b11, 0b1100, ((1 << n) - 1) ^ 0b1111]), 2, (0,))
        assert len(table.sizes) + table.workspace.bit_count() == n - 2
        assert table.suffix.dtype == dtype
    rng = np.random.default_rng(46)
    for _ in range(40):
        n = int(rng.integers(40, 90))
        table = _random_table(n, int(rng.integers(2, 40)), rng)
        bits = len(table.sizes) + table.workspace.bit_count()
        assert table.suffix.dtype == (np.int64 if bits <= 62 else object)
        # row i counts every pair of a set of parts i.. and a workspace subset once
        for i, row in enumerate(table.suffix):
            assert sum(row.tolist()) == 1 << (bits - i)


@pytest.mark.parametrize("n", [64, 256])
def test_counts_cast_to_object_walk_to_the_same_rows(n):
    table = _random_table(n, 9, 47)
    wide = _random_table(n, 9, 47)
    wide.__dict__["suffix"] = table.suffix.astype(object)
    assert table.suffix.dtype == np.int64
    ws, us = _random_ranks(table, 500, np.random.default_rng(48))
    walks = [t._walk(np.array(ws), np.array(us, dtype=t.suffix.dtype)) for t in (table, wide)]
    assert all((a == b).all() for a, b in zip(*walks))
    # ranks below 2^63 read the same stream drawn per row as drawn at once
    weights = np.random.default_rng(49).binomial(n, 0.5, size=2000)
    rows = [t.block(weights, np.random.default_rng(50)) for t in (table, wide)]
    assert (rows[0] == rows[1]).all()
    for t in (table, wide):
        with pytest.raises(RuntimeError, match="ended off its rank"):
            t._walk(np.array([ws[0]]), np.array([t.count(ws[0])], dtype=t.suffix.dtype))


def _tv_and_bound(xs, ws, exact, alpha: float):
    """Total-variation distance of the (x, w) histogram of D draws from the
    ``exact`` law, and the level it passes with probability at most alpha
    when the draws follow that law: E[TV] <= sum_i sqrt(p_i (1 - p_i) / D) / 2,
    and one draw moves TV by at most 1/D (McDiarmid)."""
    d = len(xs)
    keys, counts = np.unique(np.stack([xs, ws], axis=1), axis=0, return_counts=True)
    hist = {(int(x), int(w)): int(c) for (x, w), c in zip(keys, counts)}
    probs = {key: float(p) for key, p in exact.items()}
    tv = 0.5 * sum(abs(hist.get(key, 0) / d - probs.get(key, 0.0)) for key in set(hist) | set(probs))
    bound = 0.5 * sum(sqrt(p * (1 - p) / d) for p in probs.values()) + sqrt(log(1 / alpha) / (2 * d))
    return tv, bound


@pytest.mark.parametrize("n, draws", [(64, 20_000), (256, 20_000), (4096, 4_000)])
def test_general_batch_law_matches_core_marginal_exact(n, draws):
    # the rule the benchmark's sampler check uses: TV within the McDiarmid
    # bound that a correct sampler exceeds with probability 1e-6
    partition = pt.random_partition(n, 9, np.random.default_rng(51))
    w_part = max(range(partition.r), key=partition.size)
    slots = tuple(p for p in range(partition.r) if p != w_part and partition.parts[p])[:2]
    handle = pt.SamplerHandle(pt.SymmetricProfile(n, np.zeros(n + 1, dtype=np.uint8)), partition, w_part, slots)
    assert handle._table.suffix.dtype == (object if n == 4096 else np.int64)
    xs, ws, _ = draw_core_samples_batch(handle, draws, np.random.default_rng(52))
    tv, bound = _tv_and_bound(xs, ws, core_marginal_exact(handle), 1e-6)
    assert tv <= bound, (tv, bound)


class _BatchRecorder(pt.BooleanFunction):
    """Keeps every batch of points it is asked; scalar queries are an error."""

    def __init__(self, inner):
        super().__init__(inner.n)
        self.inner = inner
        self.batches = []

    def _eval(self, x):
        raise AssertionError("the batch sampler made a scalar query")

    def eval_many(self, xs):
        self.batches.append([int(v) for v in xs])
        return self.inner.eval_many(xs)


@pytest.mark.parametrize("n", [65, 130])
def test_singleton_batches_past_one_word_read_off_their_queries(n):
    # slots in the top word and past the first, an empty part, and a
    # workspace spread over all words
    slots = [1 << (n - 1), 1 << 63, 1 << (n // 2)]
    parts = slots + [0, ((1 << n) - 1) ^ sum(slots)]
    partition = pt.Partition(n, parts)
    rec = _BatchRecorder(pt.KLinear(n, [0, n - 1, 63]))
    handle = pt.SamplerHandle(rec, partition, 4, (0, 1, 2))
    xs, ws, zs = draw_core_samples_batch(handle, 2000, np.random.default_rng(23))
    assert len(rec.batches) == 1 and len(rec.batches[0]) == 2000
    for y, x, w, z in zip(rec.batches[0], xs, ws, zs):
        bits = [int(y & m == m) for m in slots]
        assert x == sum(b << c for c, b in enumerate(bits))
        assert w == y.bit_count() - sum(bits)
        assert z == ((y & 1) ^ bits[0] ^ bits[1])
    assert abs(ws.mean() - (n - 3) / 2) < 4 * np.sqrt((n - 3) / 4 / 2000)
    assert set(xs.tolist()) == set(range(8))


def test_singleton_batch_at_one_word_is_the_uniform_mask_stream():
    f = strong_core_spec(64)
    partition = pt.Partition(64, [1 << 5, 1 << 11, ((1 << 64) - 1) ^ (1 << 5) ^ (1 << 11)])
    handle = pt.SamplerHandle(f, partition, 2, (1, 0))
    xs, ws, zs = draw_core_samples_batch(handle, 3000, np.random.default_rng(24))
    ys = random_masks_u64(64, 3000, np.random.default_rng(24))[:, 0]
    # slot 0 is the part at bit 11, slot 1 the part at bit 5
    bit11, bit5 = ((ys >> np.uint64(b)) & np.uint64(1) for b in (11, 5))
    x_ref = bit11 | (bit5 << np.uint64(1))
    assert (xs == x_ref.astype(np.int64)).all()
    assert (ws == np.bitwise_count(ys).astype(np.int64) - np.bitwise_count(x_ref)).all()
    assert (zs == f.eval_many(ys)).all()


def test_general_batch_is_one_query_call():
    rng = np.random.default_rng(25)
    partition = pt.random_partition(64, 9, rng)
    w_part = max(range(partition.r), key=partition.size)
    slots = [p for p in range(partition.r) if p != w_part and partition.parts[p]][:1]
    rec = _BatchRecorder(pt.SymmetricProfile(64, (np.arange(65) % 3 == 0).astype(np.uint8)))
    handle = pt.SamplerHandle(rec, partition, w_part, tuple(slots))
    xs, ws, zs = draw_core_samples_batch(handle, 300, rng)
    assert len(rec.batches) == 1 and len(rec.batches[0]) == 300
    for y, x, w, z in zip(rec.batches[0], xs, ws, zs):
        assert x == int(y & partition.parts[slots[0]] == partition.parts[slots[0]])
        assert w == y.bit_count() - x
        assert z == int(y.bit_count() % 3 == 0)
        for p in range(partition.r):
            m = partition.parts[p]
            assert p == w_part or y & m in (0, m)
