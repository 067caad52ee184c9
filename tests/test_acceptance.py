"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
from fractions import Fraction

import numpy as np
import pytest

import psymtest as pt
from psymtest.cli import _xor_of_symmetric
from psymtest.influence import symmetric_distance
from psymtest.isomorphism import iso_sample_budget
from psymtest.oracle import SetFamily
from psymtest.sampling import core_marginal_exact, draw_core_samples_batch, dstar_pmf
from psymtest.testers import TesterConfig, _rounds, psym_query_bound

from helpers import random_junta, strong_core_spec


@contextlib.contextmanager
def criterion(number, detail):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {detail}")
        raise
    print(f"[criterion {number}] PASS: {detail}")


def readout_core_spec(n, k, positions):
    """Core reads coordinate (w mod k): every coordinate identifiable."""
    core = np.zeros((1 << k, n - k + 1), dtype=np.uint8)
    for xc in range(1 << k):
        for w in range(n - k + 1):
            core[xc, w] = (xc >> (w % k)) & 1
    return pt.PartiallySymmetricCore(n, k, tuple(positions), core)


def test_criterion_1_sandwich_inequality():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(4, 11))
        f = pt.random_function(n, rng)
        members = [int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))]
        dist = symmetric_distance(f, members)
        si = pt.symmetric_influence_exact(f, members)
        assert dist <= si <= 2 * dist, (n, members, dist, si)
        checked += 1
    with criterion(1, f"distance/symmetric-influence sandwich exact on {checked} pairs"):
        assert checked == 500


def test_criterion_2_fourier_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        f = pt.random_function(n, rng)
        members = [int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))]
        a = pt.symmetric_influence_exact(f, members)
        b = pt.symmetric_influence_fourier(f, members)
        worst = max(worst, abs(float(a - b)))
        assert abs(float(a - b)) <= 1e-9
    with criterion(2, f"coefficient-side identity on 200 pairs, max |diff| = {worst}"):
        assert worst <= 1e-9


def test_criterion_3_monotonicity_exhaustive_nested_pairs():
    rng = np.random.default_rng(103)
    n = 6
    pairs = 0
    for _ in range(50):
        f = pt.random_function(n, rng)
        vals = {}
        for mask in range(1 << n):
            vals[mask] = pt.symmetric_influence_exact(
                f, [i for i in range(n) if (mask >> i) & 1]
            )
        for mask in range(1 << n):
            sub = (mask - 1) & mask
            while True:
                assert vals[sub] <= vals[mask]
                pairs += 1
                if sub == 0:
                    break
                sub = (sub - 1) & mask
    # proper nested pairs per function: 3^6 - 2^6, plus the (0, 0) probe
    with criterion(3, f"monotonicity on all nested pairs of 50 functions ({pairs} comparisons)"):
        assert pairs == 50 * (3**6 - 2**6 + 1)


def test_criterion_4_junta_tester_contract():
    rng = np.random.default_rng(104)
    n = 64
    runs = 0
    accepted = 0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        relevant = [int(v) for v in rng.choice(n, size=k, replace=False)]
        table = rng.integers(0, 2, size=1 << k, dtype=np.uint8)
        f = random_junta(n, k, relevant, table)
        for s in range(50):
            runs += 1
            accepted += pt.junta_test(f, k, 0.1, np.random.default_rng(1000 + s)).accepted
    assert accepted == runs

    parity10 = pt.TruthTable(10, pt.KLinear(10, range(6)).truth_table())
    cert = pt.dist_to_k_junta(parity10, 2)
    assert cert == Fraction(1, 2)

    far = pt.KLinear(n, range(6))
    rejected = sum(
        not pt.junta_test(far, 2, 0.1, np.random.default_rng(2000 + s)).accepted
        for s in range(200)
    )
    with criterion(
        4,
        f"junta completeness {accepted}/{runs}, parity-6 certified {cert} far, "
        f"rejection rate {rejected / 200:.3f}",
    ):
        assert accepted == runs == 2500
        assert rejected / 200 >= 0.6


@pytest.fixture(scope="module")
def far12():
    f = pt.random_function(12, np.random.default_rng(105))
    cert = pt.dist_to_t_symmetric(f, 10)
    assert cert >= Fraction(1, 20)
    return f, cert


def test_criterion_5_partial_symmetry_tester_contract(far12):
    cfg = TesterConfig()
    f = strong_core_spec(64)
    eps = 0.1
    accepted = 0
    for s in range(200):
        v = pt.partially_symmetric_test(f, 2, eps, np.random.default_rng(3000 + s), cfg=cfg)
        accepted += v.accepted
        bound = psym_query_bound(
            _rounds(cfg, 2, eps), v.partition.r, 64, v.partition.size(v.workspace)
        )
        assert v.queries <= bound

    far, cert = far12
    rejected = 0
    for s in range(200):
        v = pt.partially_symmetric_test(far, 2, 0.05, np.random.default_rng(4000 + s), cfg=cfg)
        rejected += not v.accepted
        if v.workspace is not None and v.queries:
            bound = psym_query_bound(
                _rounds(cfg, 2, 0.05), v.partition.r, 12, v.partition.size(v.workspace)
            )
            assert v.queries <= bound

    sweep_eps = 0.25
    mean_queries = []
    ks = range(1, 7)
    for k in ks:
        positions = [5 * i + 3 for i in range(k)]
        fk = readout_core_spec(64, k, positions)
        qs = []
        for s in range(20):
            v = pt.partially_symmetric_test(
                fk, k, sweep_eps, np.random.default_rng(5000 + 100 * k + s), cfg=cfg
            )
            qs.append(v.queries)
        mean_queries.append(np.mean(qs))
    slope = float(np.polyfit(np.log(list(ks)), np.log(mean_queries), 1)[0])

    with criterion(
        5,
        f"partial-symmetry acceptance {accepted / 200:.3f}, certified-far ({float(cert):.3f}) "
        f"rejection {rejected / 200:.3f}, query-scaling slope {slope:.3f}",
    ):
        assert accepted / 200 >= 0.6
        assert rejected / 200 >= 0.6
        assert 0.8 <= slope <= 1.4


@pytest.fixture(scope="module")
def aligned_handle_64():
    f = strong_core_spec(64)
    for s in range(40):
        try:
            handle = pt.build_sampler(f, 2, 0.1, 0.1, np.random.default_rng(6000 + s))
        except pt.SamplerRejected:
            continue
        singleton_vars = {
            handle.partition.parts[p].bit_length() - 1
            for p in handle.j_parts
            if handle.partition.parts[p].bit_count() == 1
        }
        if singleton_vars == set(f.asym):
            return f, handle
    raise AssertionError("no aligned sampler handle produced")


def test_criterion_6_delta_sampler_contract(aligned_handle_64):
    f, handle = aligned_handle_64
    tv = pt.marginal_tv_estimate(handle, 100_000, np.random.default_rng(107))
    exact_tv64 = float(pt.tv_exact(core_marginal_exact(handle), dstar_pmf(64, 2)))

    order = [handle.partition.parts[p].bit_length() - 1 for p in handle.j_parts]
    sigma = [order.index(a) for a in f.asym]
    xs, ws, zs = draw_core_samples_batch(handle, 100_000, np.random.default_rng(108))
    xc = np.zeros(len(xs), dtype=np.int64)
    for c, slot in enumerate(sigma):
        xc |= ((xs >> slot) & 1) << c
    matches = int(np.count_nonzero(zs == f.core[xc, ws]))

    n16 = 16
    partition = pt.random_partition(n16, 5, np.random.default_rng(109))
    w_part = max(range(partition.r), key=partition.size)
    slots = [p for p in range(partition.r) if p != w_part and partition.parts[p]][:2]
    f16 = pt.SymmetricProfile(n16, np.zeros(n16 + 1, dtype=np.uint8))
    handle16 = pt.SamplerHandle(f16, partition, w_part, tuple(slots))
    exact_tv = float(pt.tv_exact(core_marginal_exact(handle16), dstar_pmf(n16, 2)))
    est_tv = pt.marginal_tv_estimate(handle16, 200_000, np.random.default_rng(110))

    with criterion(
        6,
        f"sampler marginal TV {tv:.4f} (exact {exact_tv64:.4f}), core agreement {matches}/100000, "
        f"n=16 exact TV {exact_tv:.4f} vs estimate {est_tv:.4f}",
    ):
        assert tv <= 0.1
        assert matches == 100_000
        assert abs(est_tv - exact_tv) <= 0.02


@pytest.fixture(scope="module")
def iso_far_pair():
    f8 = strong_core_spec(8)
    neg8 = pt.PartiallySymmetricCore(8, 2, f8.asym, 1 - f8.core)
    cert = pt.dist_to_iso_class(f8, neg8)
    assert cert >= Fraction(2, 5)
    f = strong_core_spec(64)
    neg = pt.PartiallySymmetricCore(64, 2, f.asym, 1 - f.core)
    return f, neg, cert


def test_criterion_7_isomorphism_tester_contract(iso_far_pair):
    cfg = TesterConfig()
    eps = 0.1
    f, neg, cert = iso_far_pair
    g = pt.apply_permutation(f, pt.Permutation.random(64, np.random.default_rng(111)))

    def budget(v):
        return psym_query_bound(
            _rounds(cfg, 2, eps / 1000), v.partition.r, 64, v.partition.size(v.workspace)
        ) + iso_sample_budget(2, eps, cfg)

    accepted = 0
    for s in range(200):
        v = pt.iso_test(f, g, eps, np.random.default_rng(7000 + s), cfg=cfg)
        accepted += v.accepted
        if v.workspace is not None and v.queries:
            assert v.queries <= budget(v)

    rejected = 0
    for s in range(200):
        v = pt.iso_test(f, neg, eps, np.random.default_rng(8000 + s), cfg=cfg)
        rejected += not v.accepted
        if v.workspace is not None and v.queries:
            assert v.queries <= budget(v)

    with criterion(
        7,
        f"isomorphic-pair acceptance {accepted / 200:.3f}, complemented-core "
        f"(certified {float(cert):.3f} far at n=8) rejection {rejected / 200:.3f}",
    ):
        assert accepted / 200 >= 0.6
        assert rejected / 200 >= 0.6


def test_criterion_8_intersecting_family_measure_bound():
    rng = np.random.default_rng(112)
    n = 12
    p = Fraction(1, 5)
    checked = 0
    for i in range(100):
        if i % 2 == 0:
            base = frozenset(int(v) for v in rng.choice(n, size=2, replace=False))
            sets = [
                base | {int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))}
                for _ in range(int(rng.integers(2, 8)))
            ]
            fam = SetFamily.of(n, sets)
        else:
            while True:
                sets = [
                    {int(v) for v in np.flatnonzero(rng.random(n) < 0.6)} for _ in range(5)
                ]
                fam = SetFamily.of(n, sets)
                if pt.is_t_intersecting(fam, 2):
                    break
        assert pt.is_t_intersecting(fam, 2)
        assert pt.mu_p(fam, p) <= p**2
        checked += 1

    t = 3
    equality = SetFamily.of(n, [set(range(t))])
    mu = pt.mu_p(equality, p)
    with criterion(
        8, f"measure bound on {checked} 2-intersecting families; equality family mu = {mu}"
    ):
        assert checked == 100
        assert mu == p**t


def test_criterion_9_hypergeometric_binomial_distance_grid():
    worst = Fraction(0)
    points = 0
    for n in range(20, 201):
        m = n // 2
        for k in range(1, 11):
            tv = pt.tv_hypergeometric_binomial(n, m, k)
            assert tv <= Fraction(k, n), (n, m, k, tv)
            worst = max(worst, tv * n / k)
            points += 1
    with criterion(
        9,
        f"exact TV <= k/n on {points} grid points, worst ratio {float(worst):.4f}",
    ):
        assert points == 181 * 10


def test_criterion_10_strong_subadditivity_counterexample():
    rng = np.random.default_rng(113)
    n = 12
    successes = 0
    for _ in range(50):
        f, j, k = _xor_of_symmetric(n, rng)
        zero_j = pt.symmetric_influence_exact(f, j) == 0
        zero_k = pt.symmetric_influence_exact(f, k) == 0
        positive_union = pt.symmetric_influence_exact(f, j + k) > 0
        successes += zero_j and zero_k and positive_union
    with criterion(10, f"xor-of-symmetric counterexample held in {successes}/50 draws"):
        assert successes == 50
