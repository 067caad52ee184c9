from fractions import Fraction
from math import ceil, comb, log2

import numpy as np
import pytest

import psymtest as pt
from psymtest import testers
from psymtest.isomorphism import iso_sample_budget
from psymtest.testers import psym_partition_size, psym_query_bound

from helpers import member_rejection_cause, random_junta, strong_core_spec


def test_random_partition_single_part_and_singletons():
    rng = np.random.default_rng(0)
    p = pt.random_partition(10, 1, rng)
    assert p.r == 1 and p.parts[0] == (1 << 10) - 1
    p = pt.random_partition(10, 10, rng)
    assert p.r == 10 and sorted(p.parts) == [1 << i for i in range(10)]
    p = pt.random_partition(10, 50, rng)
    assert p.r == 10


def test_random_partition_is_disjoint_cover():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        r = int(rng.integers(1, 20))
        p = pt.random_partition(n, r, rng)
        union = 0
        total = 0
        for mask in p.parts:
            union |= mask
            total += mask.bit_count()
        assert union == (1 << n) - 1 and total == n


@pytest.mark.parametrize("n", [1, 24, 64, 65, 130, 4096])
@pytest.mark.parametrize(
    "parts", [lambda n: 1, lambda n: 2, lambda n: 5, lambda n: n - 1, lambda n: n, lambda n: n + 3],
    ids=["1", "2", "5", "n-1", "n", "n+3"],
)
def test_random_partition_is_its_draw(n, parts):
    """Part p holds the i whose draw is p, from one integers(0, r, n) call;
    from r = n on, the singletons, with no draw."""
    r = max(1, parts(n))
    for s in range(3):
        rng = np.random.default_rng(s)
        p = pt.random_partition(n, r, rng)
        ref = np.random.default_rng(s)
        if r >= n:
            expected = [1 << i for i in range(n)]
        else:
            expected = [0] * r
            for i, part in enumerate(ref.integers(0, r, size=n)):
                expected[part] += 1 << i
        assert p.n == n and p.parts == expected
        assert rng.bit_generator.state == ref.bit_generator.state


def test_random_partition_max_part_size_concentrates():
    n, r = 10_000, 100
    good = 0
    seeds = 1000
    for s in range(seeds):
        p = pt.random_partition(n, r, np.random.default_rng(s))
        if max(p.size(i) for i in range(r)) <= 2 * n / r:
            good += 1
    assert good / seeds >= 0.99


def test_junta_accepts_juntas_always():
    rng = np.random.default_rng(2)
    and2 = random_junta(64, 2, (0, 1), [0, 0, 0, 1])
    for s in range(50):
        assert pt.junta_test(and2, 2, 0.1, np.random.default_rng(s)).accepted
    const = pt.SymmetricProfile(32, np.zeros(33, dtype=np.uint8))
    for k in (0, 1, 3):
        assert pt.junta_test(const, k, 0.2, rng).accepted


def test_junta_rejects_far_parity():
    f = pt.KLinear(64, range(6))
    verdicts = [pt.junta_test(f, 2, 0.1, np.random.default_rng(s)) for s in range(50)]
    rejected = [v for v in verdicts if not v.accepted]
    assert len(rejected) / 50 >= 0.6
    # every rejection says why
    assert all(v.failure_reason == "too_many_parts" for v in rejected)
    assert all(v.failure_reason is None for v in verdicts if v.accepted)


def test_junta_found_parts_contain_relevant_variables():
    f = pt.KLinear(64, (7, 20, 33))
    for s in range(10):
        v = pt.junta_test(f, 3, 0.1, np.random.default_rng(s))
        assert v.accepted
        for part in v.found_parts:
            assert v.partition.parts[part] & ((1 << 7) | (1 << 20) | (1 << 33))


def test_junta_verdict_queries_match_counting_oracle():
    f = pt.counting_oracle(pt.KLinear(64, range(6)))
    v = pt.junta_test(f, 1, 0.1, np.random.default_rng(3))
    assert pt.read_count(f) == v.queries + v.speculative
    assert not v.accepted


def test_find_asymmetric_set_on_symmetric_function_returns_none():
    # n = 65 and 130 draw multi-word rows
    for n, seed in ((32, 4), (65, 40), (130, 41)):
        rng = np.random.default_rng(seed)
        f = pt.SymmetricProfile(n, (np.arange(n + 1) % 2).astype(np.uint8))
        partition = pt.random_partition(n, 9, rng)
        w = max(range(partition.r), key=partition.size)
        for _ in range(100):
            assert pt.find_asymmetric_set(f, partition, [], w, rng) is None


def test_find_asymmetric_set_pins_single_asymmetric_variable():
    # f(x) = x_11 and parity(|rest|): one asymmetric variable at 11
    assert pt.find_core(pt.PartiallySymmetricCore(10, 1, (3,), [[0] * 10, [w & 1 for w in range(10)]])) == (
        0, 1, 2, 4, 5, 6, 7, 8, 9,
    )
    # n = 65 and 130 draw multi-word rows
    for n, seed in ((32, 5), (65, 50), (130, 51)):
        core = np.array([[0] * n, [w & 1 for w in range(n)]], dtype=np.uint8)
        f = pt.PartiallySymmetricCore(n, 1, (11,), core)
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(20_000):
            partition = pt.random_partition(n, 9, rng)
            candidates = [
                i
                for i in range(partition.r)
                if not (partition.parts[i] >> 11) & 1 and 2 * partition.r * partition.size(i) >= n
            ]
            if not candidates:
                continue
            w = candidates[0]
            part = pt.find_asymmetric_set(f, partition, [], w, rng)
            if part is None:
                continue
            hits += 1
            assert (partition.parts[part] >> 11) & 1
            if hits == 500:
                break
        assert hits == 500, n


def test_find_asymmetric_set_query_budget_per_invocation():
    n = 48
    f = strong_core_spec(n)
    rng = np.random.default_rng(6)
    for _ in range(50):
        partition = pt.random_partition(n, 7, rng)
        w = max(range(partition.r), key=partition.size)
        wrapped = pt.counting_oracle(f)
        pt.find_asymmetric_set(wrapped, partition, [], w, rng)
        t = partition.r + ceil(4 * n / partition.size(w))
        assert pt.read_count(wrapped) <= 2 + ceil(log2(t))


def test_find_asymmetric_set_rejects_bad_arguments():
    rng = np.random.default_rng(7)
    f = strong_core_spec(16)
    partition = pt.random_partition(16, 4, rng)
    with pytest.raises(ValueError):
        pt.find_asymmetric_set(f, partition, [0], 0, rng)
    tiny = pt.Partition(16, [1, (1 << 16) - 2])
    with pytest.raises(ValueError):
        pt.find_asymmetric_set(f, tiny, [], 0, rng)
    # part indices must be integers in 0..r-1: a -1 would drop the last part
    w = max(range(partition.r), key=partition.size)
    other = (w + 1) % partition.r
    for workspace, j_parts in [(w, [-1]), (w, [partition.r]), (w, [float(other)]), (partition.r, []), (-1, [])]:
        with pytest.raises(ValueError):
            pt.find_asymmetric_set(f, partition, j_parts, workspace, rng)
    # a partition of other variables than f's
    for wide in (pt.random_partition(24, 4, rng), pt.random_partition(12, 4, rng)):
        with pytest.raises(ValueError, match="variables for a function of 16"):
            pt.find_asymmetric_set(f, wide, [], max(range(wide.r), key=wide.size), rng)


def test_partition_index_is_the_one_part_rule():
    partition = pt.Partition(6, [0b11, 0b1100, 0b110000])
    p = partition.index(np.int64(2), "slot")
    assert p == 2 and type(p) is int
    cases = [
        (1.0, "slot must be an integer, got float"),
        (True, "slot must be an integer, got bool"),
        (-1, "slot must be in 0..2, got -1"),
        (3, "slot must be in 0..2, got 3"),
    ]
    for p, message in cases:
        with pytest.raises(ValueError, match=message):
            partition.index(p, "slot")


def test_partition_free_is_the_one_free_part_rule(monkeypatch):
    from psymtest.sampling import _SubsetSumTable, handle_from_verdict
    from psymtest.testers import _locate_asymmetric_part

    def parts():
        # part 3 is empty and part 4 is the workspace W, of 8 variables
        return pt.Partition(14, [0b11, 0b1100, 0b110000, 0, 0xFF << 6])

    f = pt.KLinear(14, [6])
    x, y = 1 << 6, 1 << 7  # differ only inside W
    x2_and_x9 = random_junta(16, 2, (2, 9), [0, 0, 0, 1])

    def orders():
        partition = parts()  # a fresh one: chunks are cached per partition
        return (
            [owner for owner, _ in partition.chunks(4)],
            [partition.parts.index(part) for part in _SubsetSumTable(partition, 4, [1]).parts],
            handle_from_verdict(f, pt.TestVerdict(True, 0, [1], partition, 4), 2).j_parts,
            _locate_asymmetric_part(f, x, y, partition, [1], 4, f(x), np.random.default_rng(0)),
            [pt.junta_test(x2_and_x9, 1, 0.3, np.random.default_rng(s)).found_parts for s in range(40)],
        )

    assert parts().free([]) == [0, 1, 2, 4] and parts().free([4, 1]) == [0, 2]
    chunks, table, padding, fallback, juntas = orders()
    assert (chunks, table, padding, fallback) == ([0, 1, 2], [1, 0, 2], (1, 0), 0)
    # every rule that takes free parts takes them in the order free gives
    real = testers.Partition.free
    monkeypatch.setattr(testers.Partition, "free", lambda self, taken: real(self, taken)[::-1])
    chunks, table, padding, fallback, reversed_ = orders()
    assert (chunks, table, padding, fallback) == ([2, 1, 0], [1, 2, 0], (1, 2), 2)
    # when both of x_2 and x_9 change, the bisection names the part of the
    # one that the chain settles first or last; no draw depends on the order
    assert all(sorted(u) == sorted(v) for u, v in zip(juntas, reversed_))
    assert any(u != v for u, v in zip(juntas, reversed_))


class _Values(pt.BooleanFunction):
    """Records the value of every scalar query."""

    def __init__(self, inner):
        super().__init__(inner.n)
        self.inner = inner
        self.seen = []

    def _eval(self, x: int) -> int:
        self.seen.append(self.inner(x))
        return self.seen[-1]


def test_find_asymmetric_set_never_names_an_empty_part():
    # x_4 lies in the workspace W = 0xf0; with part 1 identified the only
    # part left is the empty part 0, so a flip inside W names no part
    partition = pt.Partition(8, [0, 0x0F, 0xF0])
    rng = np.random.default_rng(28)
    flips = 0
    for _ in range(40):
        f = _Values(pt.KLinear(8, [4]))
        assert pt.find_asymmetric_set(f, partition, [1], 2, rng) is None
        assert len(f.seen) == 2
        flips += f.seen[0] != f.seen[1]
    assert flips >= 5


def test_find_asymmetric_set_skips_identified_parts():
    # f is the dictator x_a: once a's part is identified, every permutation of
    # the rest keeps f, so each call returns None after its two queries, x and
    # its partner; with nothing identified, the flips name a's part
    n, a = 16, 5
    f = pt.PartiallySymmetricCore(n, 1, (a,), np.repeat(np.array([[0], [1]], dtype=np.uint8), n, axis=1))
    rng = np.random.default_rng(23)
    free_hits = 0
    for _ in range(40):
        partition = pt.random_partition(n, 5, rng)
        owner = next(p for p in range(partition.r) if partition.parts[p] >> a & 1)
        w = max((p for p in range(partition.r) if p != owner), key=partition.size)
        if 2 * partition.r * partition.size(w) < n:
            continue
        wrapped = pt.counting_oracle(f)
        assert pt.find_asymmetric_set(wrapped, partition, [owner], w, rng) is None
        assert pt.read_count(wrapped) == 2
        free_hits += pt.find_asymmetric_set(f, partition, [], w, rng) == owner
    assert free_hits >= 5


@pytest.mark.parametrize("c_parts, c_iters", [(3.0, 24.0), (1.7, 5.3), (1.0, 1.0)])
def test_scaled_counts_are_their_formulas_bit_for_bit(c_parts, c_iters):
    cfg = pt.TesterConfig(c_parts, c_iters)
    for k in range(8):
        for eps in (0.9, 0.3, 0.1, 0.05, 1e-3, 1e-100):
            assert testers._scaled_count(c_parts * k * k, "c_parts", cfg, eps, 0) == ceil(c_parts * k * k)
            assert testers._rounds(cfg, k, eps) == ceil(c_iters * max(k, 1) / eps)
            r = max(3, ceil(c_parts * k * k / (eps * eps)))
            assert psym_partition_size(256, k, eps, cfg) == r + 1 - r % 2
            assert iso_sample_budget(k, eps, cfg) == ceil(c_iters * max(k, 1) * log2(k + 2) / (eps * eps))
    v = pt.junta_test(pt.KLinear(256, [0, 1]), 3, 0.3, np.random.default_rng(0), cfg=cfg)
    assert v.partition.r == ceil(c_parts * 9)


def _hit_pairs(n: int, r: int, count: int, rng):
    """``count`` (partition, workspace, x, y) with y a uniform rearrangement
    of x; the workspace is the largest part."""
    from psymtest._bits import from_words, random_masks_u64, rearrange_bits_block

    for _ in range(count):
        partition = pt.random_partition(n, r, rng)
        w = max(range(partition.r), key=partition.size)
        xs = random_masks_u64(n, 1, rng)
        ys = rearrange_bits_block(xs, (1 << n) - 1, rng)
        yield partition, w, from_words(xs[0]), from_words(ys[0])


def test_weight_preserved_along_chain():
    from psymtest.testers import _chain_schedule

    rng = np.random.default_rng(8)
    for n, r in ((24, 5), (130, 5), (64, 64)):
        for partition, w, x, y in _hit_pairs(n, r, 50, rng):
            w_mask = partition.parts[w]
            owners, cum, wts = _chain_schedule(x, y, partition, w)
            assert len(cum) == len(wts) == len(owners) + 1 and cum[0] == 0
            assert wts[0] == (x & w_mask).bit_count()
            for i, (c, wt) in enumerate(zip(cum, wts)):
                outside = ((x & ~c) | (y & c)) & ~w_mask
                assert outside.bit_count() + wt == x.bit_count()
                assert 0 <= wt <= partition.size(w)
                # step i settles one chunk of its owner's part
                if i:
                    step = c & ~cum[i - 1]
                    assert step and step & ~partition.parts[owners[i - 1]] == 0
            assert all(o != w for o in owners)
            # the last point is y
            assert ((x & ~cum[-1]) | (y & cum[-1])) & ~w_mask == y & ~w_mask
            assert wts[-1] == (y & w_mask).bit_count()


class _CountingChoice:
    """A generator whose ``choice`` calls are counted."""

    def __init__(self, rng):
        self.rng = rng
        self.choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("n, r", [(24, 5), (130, 5), (256, 256)])
def test_localization_fills_only_the_points_it_reads(n, r):
    from psymtest.testers import _chain_schedule, _locate_asymmetric_part

    rng = np.random.default_rng(n)
    f = pt.random_core_spec(n, 3, rng)
    located = 0
    for partition, w, x, y in _hit_pairs(n, r, 60, rng):
        fx = f(x)
        if f(y) == fx:
            continue
        t = len(_chain_schedule(x, y, partition, w)[0])
        counting = _CountingChoice(rng)
        g = pt.counting_oracle(f)
        part = _locate_asymmetric_part(g, x, y, partition, [], w, fx, counting)
        assert part is not None and part != w
        assert counting.choices <= ceil(log2(t)) + 1
        assert pt.read_count(g) <= ceil(log2(t))
        located += 1
    assert located >= 10


def test_bisection_returns_the_first_flip_and_builds_only_the_points_it_reads():
    for t in range(1, 65):
        for step in range(t):
            built, read = [], []

            def point(i):
                built.append(i)
                return i

            def g(i):
                read.append(i)
                return int(i > step)

            assert testers._bisect(g, 0, t, point) == step
            assert built == read and len(read) <= ceil(log2(t))


def test_difference_inside_the_workspace_goes_to_the_lowest_free_part():
    from psymtest.testers import _locate_asymmetric_part

    n = 12
    partition = pt.Partition(n, [0b111100000000, 0b1111, 0b11110000])
    f = pt.counting_oracle(pt.KLinear(n, [8]))
    x, y = 1 << 8, 1 << 9  # equal outside the workspace part 0
    rng = np.random.default_rng(0)
    fx = f(x)
    assert _locate_asymmetric_part(f, x, y, partition, [], 0, fx, rng) == 1
    assert _locate_asymmetric_part(f, x, y, partition, [1], 0, fx, rng) == 2
    assert _locate_asymmetric_part(f, x, y, partition, [1, 2], 0, fx, rng) is None
    assert pt.read_count(f) == 1  # the fallback asks f nothing


def _shift_one_weight(owners, cum, wts, w_size):
    wts[1] += 1 if wts[1] < w_size else -1


def _overfill(owners, cum, wts, w_size):
    wts[1:-1] = [w_size + 1] * (len(wts) - 2)


def _drop_last_step(owners, cum, wts, w_size):
    del owners[-1], cum[-1], wts[-1]


@pytest.mark.parametrize(
    "breakage, message",
    [
        (_shift_one_weight, "changed the Hamming weight"),
        (_overfill, "outside 0.."),
        (_drop_last_step, "did not end at its endpoint"),
    ],
)
def test_broken_schedule_bookkeeping_raises_before_any_query(monkeypatch, breakage, message):
    rng = np.random.default_rng(14)
    f = pt.random_core_spec(64, 3, rng)
    schedule = testers._chain_schedule
    for partition, w, x, y in _hit_pairs(64, 9, 200, rng):
        owners, _, _ = schedule(x, y, partition, w)
        if len(owners) >= 4 and partition.size(w) >= 2 and f(x) != f(y):
            break
    else:
        pytest.fail("no chain of four steps drawn")

    def broken(*args):
        owners, cum, wts = schedule(*args)
        breakage(owners, cum, wts, partition.size(w))
        return owners, cum, wts

    monkeypatch.setattr(testers, "_chain_schedule", broken)
    g = pt.counting_oracle(f)
    with pytest.raises(RuntimeError, match=message):
        testers._locate_asymmetric_part(g, x, y, partition, [], w, f(x), rng)
    assert pt.read_count(g) == 0


@pytest.mark.parametrize("n", [24, 130, 256])
def test_chunks_match_their_definition(n):
    from psymtest._bits import indices_of

    rng = np.random.default_rng(n)
    for r in (5, n // 3, n, 2 * n):
        for _ in range(3):
            partition = pt.random_partition(n, r, rng)
            for w in range(0, partition.r, max(1, partition.r // 8)):
                cap = max(1, -(-partition.size(w) // 4))
                expected = []
                for p in range(partition.r):
                    pos = indices_of(partition.parts[p]) if p != w else []
                    for start in range(0, len(pos), cap):
                        expected.append((p, sum(1 << v for v in pos[start : start + cap])))
                assert partition.chunks(w) == expected


@pytest.mark.parametrize("n", [65, 128, 256])
def test_testers_past_one_word(n):
    g = np.random.default_rng(n)
    and2 = random_junta(n, 2, (3, n - 1), [0, 0, 0, 1])
    parity6 = pt.KLinear(n, [int(i) for i in g.choice(n, 6, replace=False)])
    core6 = pt.random_core_spec(n, 6, g)
    seeds = 20

    def accepted(tester, f):
        return sum(tester(f, 2, 0.1, np.random.default_rng(s)).accepted for s in range(seeds))

    assert accepted(pt.junta_test, and2) == seeds
    assert accepted(pt.junta_test, parity6) <= 0.4 * seeds
    assert accepted(pt.partially_symmetric_test, strong_core_spec(n)) >= 0.6 * seeds
    assert accepted(pt.partially_symmetric_test, core6) <= 0.4 * seeds


class _Log(pt.BooleanFunction):
    """Keeps every batch of answers and counts single queries."""

    def __init__(self, inner):
        super().__init__(inner.n)
        self.inner = inner
        self.batches = []
        self.single = 0

    def _eval(self, x):
        self.single += 1
        return self.inner(x)

    def eval_many(self, xs):
        ys = self.inner.eval_many(xs)
        self.batches.append(np.asarray(ys))
        return ys


@pytest.mark.parametrize("n", [64, 65])
def test_verdicts_count_pairs_up_to_each_first_flip(n):
    # Batches come in (x-ends, partner-ends) pairs, one pair per block; the
    # pairs after a block's first flip are speculative, localization queries
    # are single calls.
    g = np.random.default_rng(n)
    cases = [
        (pt.junta_test, pt.KLinear(n, [int(i) for i in g.choice(n, 6, replace=False)])),
        (pt.junta_test, random_junta(n, 2, (0, n - 1), [0, 1, 1, 0])),
        (pt.partially_symmetric_test, pt.random_core_spec(n, 6, g)),
        (pt.partially_symmetric_test, strong_core_spec(n)),
    ]
    for tester, f in cases:
        for s in range(5):
            log = _Log(f)
            counted = pt.counting_oracle(log)
            v = tester(counted, 2, 0.1, np.random.default_rng(s))
            pairs = 0
            for fx, fy in zip(log.batches[0::2], log.batches[1::2]):
                flips = np.flatnonzero(fx != fy)
                pairs += flips[0] + 1 if len(flips) else len(fx)
            assert v.queries == 2 * pairs + log.single
            assert pt.read_count(counted) == v.queries + v.speculative


def test_psym_accepts_symmetric_profile():
    f = pt.SymmetricProfile(64, (np.arange(65) % 3 == 0).astype(np.uint8))
    accepted = sum(
        pt.partially_symmetric_test(f, 2, 0.1, np.random.default_rng(s)).accepted
        for s in range(200)
    )
    assert accepted / 200 >= 0.9


def test_psym_accepts_two_asymmetric_core():
    f = strong_core_spec(64)
    accepted = 0
    for s in range(100):
        v = pt.partially_symmetric_test(f, 2, 0.1, np.random.default_rng(s))
        accepted += v.accepted
        if v.accepted and len(v.found_parts) == 2:
            for part in v.found_parts:
                assert v.partition.parts[part] & ((1 << 5) | (1 << 11))
    assert accepted / 100 >= 0.6


def test_psym_rejects_random_function():
    rng = np.random.default_rng(9)
    f = pt.random_function(12, rng)
    assert pt.dist_to_t_symmetric(f, 10) >= 0.05
    verdicts = [pt.partially_symmetric_test(f, 2, 0.05, np.random.default_rng(s)) for s in range(50)]
    rejected = [v for v in verdicts if not v.accepted]
    assert len(rejected) / 50 >= 0.6
    # every rejection says why
    assert all(v.failure_reason in ("too_many_parts", "workspace") for v in rejected)
    assert any(v.failure_reason == "too_many_parts" for v in rejected)
    assert all(v.failure_reason is None for v in verdicts if v.accepted)


def test_psym_found_parts_distinct_and_bounded():
    rng = np.random.default_rng(10)
    f = pt.random_function(12, rng)
    for s in range(20):
        v = pt.partially_symmetric_test(f, 2, 0.05, np.random.default_rng(s))
        assert len(set(v.found_parts)) == len(v.found_parts) <= 3
        assert v.workspace not in v.found_parts


def test_psym_queries_match_counting_oracle_and_bound():
    f = pt.counting_oracle(strong_core_spec(64))
    cfg = pt.TesterConfig()
    v = pt.partially_symmetric_test(f, 2, 0.1, np.random.default_rng(11), cfg=cfg)
    assert pt.read_count(f) == v.queries + v.speculative
    rounds = ceil(cfg.c_iters * 2 / 0.1)
    bound = psym_query_bound(rounds, v.partition.r, 64, v.partition.size(v.workspace))
    assert v.queries <= bound


def test_psym_query_budget_check_raises(monkeypatch):
    monkeypatch.setattr(testers, "psym_query_bound", lambda *args: 1)
    f = pt.SymmetricProfile(16, np.arange(17) % 2)
    with pytest.raises(RuntimeError, match="exceeds budget 1"):
        pt.partially_symmetric_test(f, 1, 0.3, np.random.default_rng(0))


def test_junta_query_budget_holds_and_its_check_raises(monkeypatch):
    # a far function: the tester finds k + 1 parts, each by a binary search
    f = pt.random_function(12, np.random.default_rng(21))
    cfg = pt.TesterConfig()
    v = pt.junta_test(f, 2, 0.1, np.random.default_rng(4), cfg=cfg)
    assert not v.accepted and len(v.found_parts) == 3
    assert v.queries <= testers.junta_query_bound(ceil(cfg.c_iters * 2 / 0.1), v.partition.r, 2)
    monkeypatch.setattr(testers, "junta_query_bound", lambda *args: 1)
    with pytest.raises(RuntimeError, match="exceeds budget 1"):
        pt.junta_test(f, 2, 0.1, np.random.default_rng(4))


def test_psym_workspace_failure_reason():
    # 40 vars over 35 parts: some workspaces come out empty
    f = pt.SymmetricProfile(40, np.zeros(41, dtype=np.uint8))
    cfg = pt.TesterConfig(c_parts=3.0, c_iters=24.0)
    seen = False
    for s in range(60):
        v = pt.partially_symmetric_test(f, 3, 0.9, np.random.default_rng(s), cfg=cfg)
        if not v.accepted:
            assert v.failure_reason == "workspace"
            assert v.queries == 0
            seen = True
    assert seen


def test_far_function_keeps_high_symmetric_influence_over_random_partitions():
    # at n = 16 and a far function, unions of k parts of a nontrivial random
    # partition should almost always leave high symmetric influence behind
    from psymtest.influence import symmetric_distance

    rng = np.random.default_rng(13)
    n, k = 16, 1
    f = pt.random_function(n, rng)
    farness = min(
        symmetric_distance(f, [i for i in range(n) if i != v]) for v in range(n)
    )
    assert farness > Fraction(2, 5)
    eps = float(farness) * 0.95
    r = psym_partition_size(n, k, eps, pt.TesterConfig())
    assert r < n
    good = 0
    trials = 20
    for s in range(trials):
        partition = pt.random_partition(n, r, np.random.default_rng(s))
        ok = True
        for p in range(partition.r):
            members = [i for i in range(n) if not (partition.parts[p] >> i) & 1]
            if pt.symmetric_influence_exact(f, members) < eps / 9:
                ok = False
                break
        good += ok
    assert good / trials >= 0.8


def test_psym_sizing_guard():
    f = pt.random_function(8, np.random.default_rng(12))
    with pytest.raises(ValueError):
        pt.partially_symmetric_test(f, 4, 0.1, np.random.default_rng(0))


def test_psym_partition_size_is_odd():
    cfg = pt.TesterConfig()
    for k in range(7):
        for eps in (0.05, 0.1, 0.3, 0.9):
            assert psym_partition_size(256, k, eps, cfg) % 2 == 1


@pytest.mark.parametrize("call", ["psym_partition_size", "iso_sample_budget", "build_sampler", "iso_test"])
def test_eps_whose_square_underflows_is_rejected_by_name(call):
    # eps^2 is 0 below about 1e-162, and subnormal just above
    cfg, rng = pt.TesterConfig(), np.random.default_rng(0)
    f = pt.KLinear(16, [0, 1])
    calls = {
        "psym_partition_size": lambda: psym_partition_size(16, 2, 1e-200, cfg),
        "iso_sample_budget": lambda: iso_sample_budget(2, 1e-200, cfg),
        "build_sampler": lambda: pt.build_sampler(f, 1, 1e-100, 1e-100, rng),
        "iso_test": lambda: pt.iso_test(pt.random_core_spec(16, 2, rng), f, 1e-160, rng),
    }
    with pytest.raises(ValueError, match=r"eps = 1e-(200|160) with multiplier"):
        calls[call]()


def test_tester_config_validation():
    with pytest.raises(ValueError):
        pt.TesterConfig(c_parts=0.5)


@pytest.mark.parametrize("tester", [pt.junta_test, pt.partially_symmetric_test])
@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_non_integer_k_is_rejected(tester, k):
    f = pt.KLinear(16, [0, 1])
    with pytest.raises(ValueError, match="^k must be an integer"):
        tester(f, k, 0.1, np.random.default_rng(0))


@pytest.mark.parametrize("n", [14, 24, 64, 65, 130, 2048])
def test_psym_rejects_a_member_only_for_its_two_causes(n):
    causes = []
    for seed in range(20):
        rng = np.random.default_rng([n, seed])
        core = pt.random_core_spec(n, 2, rng)
        relabeled = core.permuted(pt.Permutation.random(n, rng))
        profile = pt.SymmetricProfile(n, rng.integers(0, 2, size=n + 1))
        for f, k, core_mask in ((core, 2, core.asym_mask), (relabeled, 2, relabeled.asym_mask), (profile, 0, 0)):
            v = pt.partially_symmetric_test(f, k, 0.1, rng)
            cause = member_rejection_cause(v, core_mask)
            # every rejection has a cause, and a run without one accepts
            assert v.accepted or cause is not None
            assert (v.failure_reason == "workspace") == (cause == "workspace")
            causes.append(None if v.accepted else cause)
    if n == 14:
        assert "meets core" in causes
    if n == 2048:
        assert "workspace" in causes


def _cause_probability(n: int, k: int, r: int) -> Fraction:
    """Exact chance that a psym run on a member with core size k draws one
    of its two rejection causes, from the partition law.  At r >= n the
    parts are the n singletons and the workspace is one of them, so it
    meets the core with chance k/n and always passes the rule.  Below,
    every variable lies in the uniform workspace part independently with
    chance 1/r: no cause needs the workspace to miss the k core variables
    and to hold at least n / (2r) of the n - k others."""
    if r >= n:
        return Fraction(k, n)
    q = Fraction(1, r)
    least = -(-n // (2 * r))
    holds = sum(comb(n - k, w) * q**w * (1 - q) ** (n - k - w) for w in range(least, n - k + 1))
    return 1 - (1 - q) ** k * holds


@pytest.mark.parametrize("n, eps, runs", [(24, 0.1, 200), (64, 0.5, 300)])
def test_psym_member_rejection_rate_is_within_a_binomial_bound_of_its_causes(n, eps, runs):
    # n = 24 is singleton parts (r = 1201), n = 64 a random partition of
    # r = 49 parts, where both causes occur
    from scipy.stats import binom

    k = 2
    r = psym_partition_size(n, k, eps, pt.TesterConfig())
    p = float(_cause_probability(n, k, r))
    causes = rejections = 0
    for seed in range(runs):
        rng = np.random.default_rng([n, 9, seed])
        f = pt.random_core_spec(n, k, rng)
        v = pt.partially_symmetric_test(f, k, eps, rng)
        cause = member_rejection_cause(v, f.asym_mask)
        causes += cause is not None
        rejections += not v.accepted
    # two-sided at 1e-6 on the causes, one-sided on the rejections they allow
    lo, hi = binom.ppf(1e-6, runs, p), binom.isf(1e-6, runs, p)
    assert lo <= causes <= hi, (causes, runs * p, lo, hi)
    assert rejections <= hi
