from itertools import permutations

import numpy as np
import pytest

import psymtest as pt
from psymtest import isomorphism
from psymtest.isomorphism import iso_sample_budget
from psymtest.testers import TesterConfig, _rounds, psym_query_bound

from helpers import strong_core_spec


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
    monkeypatch.setattr(isomorphism, "psym_query_bound", lambda *args: 0)
    f = strong_core_spec(12)
    eps = 0.5
    budget = iso_sample_budget(2, eps, TesterConfig())
    with pytest.raises(RuntimeError, match=f"exceeds budget {budget}$"):
        pt.iso_test(f, f, eps, np.random.default_rng(0))


def test_iso_budget_check_measures_the_sampling_stage(monkeypatch):
    # with the psym allowance set to what the psym stage used, the budget is
    # met exactly; one extra oracle read in the sampling stage overruns it
    f = strong_core_spec(12)
    eps = 0.5
    q = iso_sample_budget(2, eps, TesterConfig())
    v = pt.iso_test(f, f, eps, np.random.default_rng(0))
    assert v.accepted
    monkeypatch.setattr(isomorphism, "psym_query_bound", lambda *args: v.queries - q)
    assert pt.iso_test(f, f, eps, np.random.default_rng(0)).queries == v.queries
    draw = isomorphism.draw_core_samples_batch

    def one_extra_read(handle, count, rng):
        handle.f(0)
        return draw(handle, count, rng)

    monkeypatch.setattr(isomorphism, "draw_core_samples_batch", one_extra_read)
    with pytest.raises(RuntimeError, match=f"query count {v.queries + 1} exceeds budget {v.queries}$"):
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
