from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import psymtest as pt
from psymtest import isomorphism, oracle, testers
from psymtest.isomorphism import iso_sample_budget
from psymtest.testers import TesterConfig, _rounds, psym_query_bound

from helpers import member_rejection_cause, reference_vote, strong_core_spec


def _samples_from(handle, count, seed):
    """``count`` scalar draws from one generator, as the x, w and z arrays
    that ``draw_core_samples_batch`` returns."""
    rng = np.random.default_rng(seed)
    samples = [pt.draw_core_sample(handle, rng) for _ in range(count)]
    return tuple(np.array([getattr(s, name) for s in samples], dtype=np.int64) for name in "xwz")


def _aligned_handle(f, seed0=0, tries=30):
    for s in range(seed0, seed0 + tries):
        try:
            cand = pt.build_sampler(f, f.k, 0.1, 0.1, np.random.default_rng(s))
        except pt.SamplerRejected:
            continue
        vars_found = {
            cand.partition.parts[p].bit_length() - 1
            for p in cand.j_parts
            if cand.partition.parts[p].bit_count() == 1
        }
        if vars_found == set(f.asym):
            return cand
    raise AssertionError("no aligned handle found")


def _alignment(handle, f):
    order = [handle.partition.parts[p].bit_length() - 1 for p in handle.j_parts]
    return tuple(order.index(a) for a in f.asym)


def test_consistency_fraction_aligned_is_one():
    f = strong_core_spec(64)
    handle = _aligned_handle(f)
    samples = _samples_from(handle, 500, seed=1)
    sigma = _alignment(handle, f)
    assert pt.consistency_fraction(*samples, f, sigma) == 1


def test_consistency_fraction_complemented_core_is_zero_for_every_assignment():
    # swap-invariant core, so every assignment reads the same value
    n = 32
    core = np.zeros((4, n - 1), dtype=np.uint8)
    for xc in range(4):
        for w in range(n - 1):
            core[xc, w] = ((xc & 1) & (xc >> 1)) ^ (w & 1)
    f = pt.PartiallySymmetricCore(n, 2, (3, 9), core)
    handle = _aligned_handle(f)
    samples = _samples_from(handle, 300, seed=2)
    neg = pt.PartiallySymmetricCore(n, 2, f.asym, 1 - f.core)
    for sigma in permutations(range(2)):
        assert pt.consistency_fraction(*samples, neg, sigma) == 0
        assert pt.consistency_fraction(*samples, f, sigma) == 1


def test_consistency_fraction_random_bits_near_half():
    f = strong_core_spec(64)
    handle = _aligned_handle(f)
    rng = np.random.default_rng(3)
    xs, ws, _ = _samples_from(handle, 1000, seed=4)
    zs = np.array([int(rng.integers(0, 2)) for _ in xs], dtype=np.int64)
    frac = pt.consistency_fraction(xs, ws, zs, f, _alignment(handle, f))
    assert abs(float(frac) - 0.5) < 0.05


def test_best_assignment_k1_and_exact_fraction():
    n = 32
    core = np.array([[0] * n, [w & 1 for w in range(n)]], dtype=np.uint8)
    f = pt.PartiallySymmetricCore(n, 1, (11,), core)
    handle = _aligned_handle(f)
    samples = _samples_from(handle, 200, seed=5)
    sigma, frac = pt.best_assignment(*samples, f)
    assert sigma == (0,)
    assert frac == pt.consistency_fraction(*samples, f, sigma)


def test_best_assignment_recovers_true_matching_k3():
    # distinguishable coordinates: core reads coordinate (w mod 3)
    n = 33
    k = 3
    core = np.zeros((8, n - k + 1), dtype=np.uint8)
    for xc in range(8):
        for w in range(n - k + 1):
            core[xc, w] = (xc >> (w % 3)) & 1
    f = pt.PartiallySymmetricCore(n, k, (4, 17, 29), core)
    handle = _aligned_handle(f)
    samples = _samples_from(handle, 1000, seed=6)
    sigma, frac = pt.best_assignment(*samples, f)
    assert frac == 1
    assert sigma == _alignment(handle, f)
    for other in permutations(range(k)):
        assert pt.consistency_fraction(*samples, f, other) <= frac


def test_iso_test_accepts_isomorphic_pair():
    f = strong_core_spec(32)
    g = pt.apply_permutation(f, pt.Permutation.random(32, np.random.default_rng(7)))
    accepted = sum(
        pt.iso_test(f, g, 0.2, np.random.default_rng(s)).accepted for s in range(30)
    )
    assert accepted / 30 >= 0.6


def test_iso_test_rejects_complemented_core():
    f = strong_core_spec(32)
    neg = pt.PartiallySymmetricCore(32, 2, f.asym, 1 - f.core)
    rejected = sum(
        not pt.iso_test(f, neg, 0.2, np.random.default_rng(s)).accepted for s in range(30)
    )
    assert rejected / 30 >= 0.6


def test_iso_test_rejects_random_function_via_stage_one():
    rng = np.random.default_rng(8)
    f = strong_core_spec(12)
    g = pt.random_function(12, rng)
    rejected = 0
    for s in range(30):
        v = pt.iso_test(f, g, 0.05, np.random.default_rng(s))
        rejected += not v.accepted
        assert v.failure_reason in ("not_partially_symmetric", "workspace", "core_mismatch")
    assert rejected / 30 >= 0.6


def test_iso_test_query_budget():
    cfg = TesterConfig()
    f = strong_core_spec(32)
    g = pt.apply_permutation(f, pt.Permutation.random(32, np.random.default_rng(9)))
    gg = pt.counting_oracle(g)
    eps = 0.25
    v = pt.iso_test(f, gg, eps, np.random.default_rng(10), cfg=cfg)
    assert pt.read_count(gg) == v.queries + v.speculative
    budget = psym_query_bound(
        _rounds(cfg, 2, eps / 1000), v.partition.r, 32, v.partition.size(v.workspace)
    ) + iso_sample_budget(2, eps, cfg)
    assert v.queries <= budget


def test_iso_query_budget_check_raises(monkeypatch):
    # the psym stage's budget is the one the tester enforces
    monkeypatch.setattr(testers, "psym_query_bound", lambda *args: 0)
    f = strong_core_spec(12)
    with pytest.raises(RuntimeError, match="exceeds budget 0$"):
        pt.iso_test(f, f, 0.5, np.random.default_rng(0))


def test_iso_budget_check_measures_the_sampling_stage(monkeypatch):
    # g is read by the psym stage and once per sample; one extra oracle read
    # in the sampling stage breaks that identity
    f = strong_core_spec(12)
    eps = 0.5
    q = iso_sample_budget(2, eps, TesterConfig())
    v = pt.iso_test(f, f, eps, np.random.default_rng(0))
    assert v.accepted
    draw = isomorphism.draw_core_samples_batch

    def one_extra_read(handle, count, rng):
        handle.f(0)
        return draw(handle, count, rng)

    monkeypatch.setattr(isomorphism, "draw_core_samples_batch", one_extra_read)
    message = (
        rf"g was read {v.queries + v.speculative + 1} times, not the psym stage's {v.queries - q}"
        rf" queries \+ {v.speculative} speculative \+ {q} samples$"
    )
    with pytest.raises(RuntimeError, match=message):
        pt.iso_test(f, f, eps, np.random.default_rng(0))


def test_iso_relabeling_invariance_of_acceptance_rate():
    f = strong_core_spec(16)
    g1 = pt.apply_permutation(f, pt.Permutation.random(16, np.random.default_rng(11)))
    g2 = pt.apply_permutation(g1, pt.Permutation.random(16, np.random.default_rng(12)))
    runs = 200
    eps = 0.5
    r1 = sum(pt.iso_test(f, g1, eps, np.random.default_rng(s)).accepted for s in range(runs))
    r2 = sum(pt.iso_test(f, g2, eps, np.random.default_rng(s)).accepted for s in range(runs))
    assert abs(r1 - r2) / runs <= 0.1


@pytest.mark.parametrize("n", [16, 24])
def test_iso_test_rejects_a_relabeled_member_only_for_its_two_causes(n):
    # the psym stage's partition is n singletons here, so the workspace
    # meets g's core with chance k / n
    causes = []
    for seed in range(16):
        rng = np.random.default_rng([n, seed])
        f = pt.random_core_spec(n, 2, rng)
        g = f.permuted(pt.Permutation.random(n, rng))
        v = pt.iso_test(f, g, 0.2, rng)
        cause = member_rejection_cause(v, g.asym_mask)
        # every rejection has a cause, and a run without one accepts
        assert v.accepted or cause is not None
        assert v.failure_reason in (None, "not_partially_symmetric")
        causes.append(None if v.accepted else cause)
    assert "meets core" in causes


def test_iso_test_validates_arguments():
    f = strong_core_spec(32)
    g = pt.random_function(12, np.random.default_rng(13))
    with pytest.raises(ValueError):
        pt.iso_test(f, g, 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        pt.iso_test(f, pt.KLinear(32, [0]), 1.5, np.random.default_rng(0))


def test_consistency_fraction_validates():
    f = strong_core_spec(32)
    empty = np.zeros(0, dtype=np.int64)
    one = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError):
        pt.consistency_fraction(empty, empty, empty, f, (0, 1))
    with pytest.raises(ValueError):
        pt.consistency_fraction(one, one, one, f, (0, 0))


def test_samples_outside_the_core_are_rejected():
    # x in {0,1}^k, w in 0..n-k and z a bit; a -1 would read the core's last
    # row or column
    f = strong_core_spec(32)
    good = {"x": np.array([0, 3]), "w": np.array([0, 30]), "z": np.array([0, 0])}
    assert pt.consistency_fraction(good["x"], good["w"], good["z"], f, (0, 1)) == Fraction(1, 2)
    for name, bad in [("x", -1), ("x", 4), ("w", -1), ("w", 31), ("z", 2), ("z", -1)]:
        samples = {**good, name: np.array([0, bad])}
        with pytest.raises(ValueError, match=f"sample {name} entries"):
            pt.consistency_fraction(samples["x"], samples["w"], samples["z"], f, (0, 1))
        with pytest.raises(ValueError, match=f"sample {name} entries"):
            pt.best_assignment(samples["x"], samples["w"], samples["z"], f)


def test_samples_must_be_integer_arrays():
    # a float x would shift by a slot, and a list has no min: both name the array
    f = strong_core_spec(32)
    good = {"x": np.array([0, 3]), "w": np.array([0, 30]), "z": np.array([0, 0])}
    for name, bad in [
        ("x", np.array([0.0, 3.0])),
        ("w", np.array([0.0, 30.0])),
        ("z", np.array([False, False])),
        ("x", [0, 3]),
        ("w", (0, 30)),
        ("z", np.array([[0, 0]])),
    ]:
        samples = {**good, name: bad}
        with pytest.raises(ValueError, match=f"sample {name} must be a 1-D integer array"):
            pt.consistency_fraction(samples["x"], samples["w"], samples["z"], f, (0, 1))
        with pytest.raises(ValueError, match=f"sample {name} must be a 1-D integer array"):
            pt.best_assignment(samples["x"], samples["w"], samples["z"], f)


def _vote_case(k, kind, seed):
    """A target and samples at n = 16: uniform samples ("random"), samples
    at binomial weights read through a random assignment, with 10 % of z
    flipped ("noisy"), or uniform samples of a core that is constant in x,
    where every assignment ties ("tied").  k = 0 is a weight profile."""
    n, q = 16, 600
    rng = np.random.default_rng([k, seed])
    if kind == "tied":
        core = np.repeat(rng.integers(0, 2, (1, n - k + 1), dtype=np.uint8), 1 << k, axis=0)
    else:
        core = rng.integers(0, 2, (1 << k, n - k + 1), dtype=np.uint8)
    f = pt.SymmetricProfile(n, core[0]) if k == 0 else pt.PartiallySymmetricCore(n, k, range(k), core)
    xs = rng.integers(0, 1 << k, q)
    ws = rng.integers(0, n - k + 1, q)
    zs = rng.integers(0, 2, q)
    if kind == "noisy":
        ws = rng.binomial(n - k, 0.5, q)
        sigma = rng.permutation(k)
        xc = sum(((xs >> int(slot)) & 1) << c for c, slot in enumerate(sigma))
        zs = core[xc, ws] ^ (rng.random(q) < 0.1)
    return f, xs, ws, zs.astype(np.int64)


@pytest.mark.parametrize("kind", ["random", "noisy", "tied"])
@pytest.mark.parametrize("k", range(6))
def test_vote_matches_the_per_sample_reference(k, kind):
    for seed in range(3):
        f, xs, ws, zs = _vote_case(k, kind, seed)
        want = reference_vote(xs, ws, zs, f.core, k)
        assert pt.best_assignment(xs, ws, zs, f) == want
        if kind == "tied":
            assert want[0] == tuple(range(k))


@pytest.mark.parametrize("kind", ["random", "tied"])
def test_vote_keeps_the_first_best_across_blocks(monkeypatch, kind):
    # blocks of 5 of the 24 orderings at k = 4: the first best of a later
    # block must not displace an equal one of an earlier block
    monkeypatch.setattr(oracle, "_TSYM_STACK_BYTES", 5 * (16 << 4))
    for seed in range(3):
        f, xs, ws, zs = _vote_case(4, kind, seed)
        assert pt.best_assignment(xs, ws, zs, f) == reference_vote(xs, ws, zs, f.core, 4)


@pytest.mark.parametrize("k, per_block", [(0, 1), (3, 1), (3, 4), (4, 5), (5, 120)])
def test_orderings_are_the_permutations_and_their_index_maps(k, per_block):
    blocks = list(oracle._orderings(k, oracle._TSYM_STACK_BYTES // per_block))
    assert [len(orders) for orders, _ in blocks[:-1]] == [per_block] * (len(blocks) - 1)
    got = [(tuple(map(int, o)), list(map(int, row))) for orders, x in blocks for o, row in zip(orders, x)]
    want = [
        (sigma, [sum(((y >> s) & 1) << c for c, s in enumerate(sigma)) for y in range(1 << k)])
        for sigma in permutations(range(k))
    ]
    assert got == want


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
def test_vote_takes_every_integer_dtype(dtype):
    f = pt.random_core_spec(16, 2, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    xs, ws, zs = rng.integers(0, 4, 50), rng.integers(0, 15, 50), rng.integers(0, 2, 50)
    want = reference_vote(xs, ws, zs, f.core, 2)
    cast = [v.astype(dtype) for v in (xs, ws, zs)]
    assert pt.best_assignment(*cast, f) == want
    assert pt.consistency_fraction(*cast, f, want[0]) == want[1]
