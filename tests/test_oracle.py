import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import psymtest as pt
from psymtest.oracle import SetFamily, binomial_pmf, hypergeometric_pmf

from helpers import brute_dist, strong_core_spec


def test_dist_exact_basics():
    rng = np.random.default_rng(0)
    f = pt.random_function(8, rng)
    g = pt.TruthTable(8, 1 - f.table)
    assert pt.dist_exact(f, f) == 0
    assert pt.dist_exact(f, g) == 1
    h = pt.random_function(8, rng)
    assert pt.dist_exact(f, h) == brute_dist(f, h)
    with pytest.raises(ValueError):
        pt.dist_exact(f, pt.KLinear(9, [0]))


def test_dist_exact_cross_checks_closest_symmetric():
    f = pt.TruthTable(2, [0, 1, 0, 0])
    g = pt.closest_j_symmetric(f, [0, 1])
    assert pt.dist_exact(f, g) == Fraction(1, 4)


def test_dist_to_t_symmetric():
    rng = np.random.default_rng(1)
    prof = pt.SymmetricProfile(8, rng.integers(0, 2, size=9, dtype=np.uint8))
    for t in range(9):
        assert pt.dist_to_t_symmetric(prof, t) == 0
    spec = strong_core_spec(10)
    assert pt.dist_to_t_symmetric(spec, 8) == 0
    f = pt.random_function(12, rng)
    assert pt.dist_to_t_symmetric(f, 10) >= Fraction(1, 20)


@pytest.mark.parametrize("t", [13, 14])
def test_dist_to_t_symmetric_at_n15_matches_every_j(t):
    n = 15
    rng = np.random.default_rng(15)
    near = pt.random_core_spec(n, n - t, rng).truth_table().copy()
    near[rng.choice(1 << n, size=40, replace=False)] ^= 1
    for f in (pt.TruthTable(n, near), pt.random_function(n, rng)):
        want = min(pt.symmetric_distance(f, j) for j in combinations(range(n), t))
        assert pt.dist_to_t_symmetric(f, t) == want


def test_dist_to_t_symmetric_memory_stays_under_its_cap():
    # with no cap, the stacked folds at n = 16 would trace 82 MB at t = 6
    # and 78 MB at t = 8
    f = pt.random_function(16, np.random.default_rng(160))
    peaks = []
    for t in range(17):
        tracemalloc.start()
        try:
            pt.dist_to_t_symmetric(f, t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < pt.oracle._TSYM_STACK_BYTES, peaks


def test_dist_to_t_symmetric_stops_at_the_first_symmetric_set(monkeypatch):
    # the symmetric block is the top seven variables: the folds complete it
    # at v = 7, and no variable below 7 is ever folded
    n, t = 14, 7
    rng = np.random.default_rng(147)
    core = rng.integers(0, 2, size=(1 << (n - t), t + 1), dtype=np.uint8)
    spec = pt.PartiallySymmetricCore(n, n - t, tuple(range(n - t)), core)
    fold, calls = pt.oracle._fold, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return fold(*args, **kwargs)

    monkeypatch.setattr(pt.oracle, "_fold", counted)
    assert pt.dist_to_t_symmetric(pt.random_function(n, rng), t) > 0
    sweep, calls[:] = len(calls), []
    assert pt.dist_to_t_symmetric(spec, t) == 0
    assert len(calls) < sweep and min(calls) == t


@pytest.mark.parametrize("routine, name", [(pt.dist_to_t_symmetric, "t"), (pt.dist_to_k_junta, "k")])
@pytest.mark.parametrize("size", [True, 2.0, "2", None])
def test_minimizations_take_only_an_integer_size(routine, name, size):
    f = pt.random_function(6, np.random.default_rng(6))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        routine(f, size)
    assert routine(f, np.int64(2)) == routine(f, 2)


def test_dist_to_k_junta_parity():
    f = pt.KLinear(10, range(6))
    table = pt.TruthTable(10, f.truth_table())
    assert pt.dist_to_k_junta(table, 2) == Fraction(1, 2)
    two_junta = pt.TruthTable(10, pt.KLinear(10, [0, 5]).truth_table())
    assert pt.dist_to_k_junta(two_junta, 2) == 0


def test_dist_to_k_junta_extreme_k_at_cap():
    n = pt.oracle.MAX_TSYM_N
    f = pt.random_function(n, np.random.default_rng(14))
    ones = int(f.truth_table().sum())
    assert pt.dist_to_k_junta(f, 0) == Fraction(min(ones, (1 << n) - ones), 1 << n)
    assert pt.dist_to_k_junta(f, n) == 0


def test_dist_to_k_junta_memory_is_bounded_by_its_batches():
    # all C(16, 11) * 2^11 subset moments at once would trace about 275 MB
    f = pt.random_function(16, np.random.default_rng(16))
    tracemalloc.start()
    try:
        pt.dist_to_k_junta(f, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def junta_distance_by_bincount(table: np.ndarray, n: int, k: int) -> int:
    """Min over k-subsets S of the flips of the closest junta on S, with
    the ones of f counted per assignment to S by ``np.bincount``."""
    points = np.flatnonzero(table)
    bits = (points >> np.arange(n)[:, None]) & 1
    best = 1 << n
    for subset in combinations(range(n), k):
        key = sum(bits[v] << c for c, v in enumerate(subset))
        ones = np.bincount(key, minlength=1 << k)
        best = min(best, int(np.minimum(ones, (1 << (n - k)) - ones).sum()))
    return best


def test_dist_to_k_junta_runs_at_every_k_at_the_cap():
    # the Moebius batch holds C(16, k) subsets, a power of two at no k in 1..15
    n = pt.oracle.MAX_TSYM_N
    f = pt.random_function(n, np.random.default_rng(1616))
    dists = [pt.dist_to_k_junta(f, k) for k in range(n + 1)]
    assert dists == sorted(dists, reverse=True) and dists[-1] == 0
    for k in (4, 5):
        assert dists[k] == Fraction(junta_distance_by_bincount(f.truth_table(), n, k), 1 << n)


def test_dist_to_iso_class():
    rng = np.random.default_rng(2)
    spec = pt.random_core_spec(8, 2, rng)
    g = pt.apply_permutation(spec, pt.Permutation.random(8, rng))
    assert pt.dist_to_iso_class(spec, g) == 0
    neg = pt.PartiallySymmetricCore(8, 2, spec.asym, 1 - spec.core)
    assert pt.dist_to_iso_class(spec, neg) > Fraction(1, 4)


def test_dist_to_iso_class_symmetric_target_reduces_to_distance():
    rng = np.random.default_rng(3)
    profile = rng.integers(0, 2, size=9, dtype=np.uint8)
    core = profile.reshape(1, 9).copy()
    spec = pt.PartiallySymmetricCore(8, 0, (), core)
    g = pt.random_function(8, rng)
    assert pt.dist_to_iso_class(spec, g) == pt.dist_exact(spec, g)


def test_stack_budget_widths_are_the_fold_types():
    # the 8 MB budget counts each stack's entries at the width _fold writes.
    # With t = s0 + 1 there are no stacks, and _stack_bytes(n, s, s - 1, .)
    # is one fold of each size below s plus two of size s.  n = 20 reaches
    # all three widths: uint8, uint16 and int32
    from psymtest.influence import _fold

    n = 20
    a = pt.random_function(n, np.random.default_rng(17)).truth_table().reshape(1, -1)
    below = 0
    for s in range(1, n + 1):
        a = _fold(a, n - s)
        one = (pt.oracle._stack_bytes(n, s, s - 1, 0) - below) // 2
        assert one == a.itemsize * (s + 1) << (n - s), s
        below += one


def test_iso_class_distance_certifies_criterion_7_pair_up_to_n16(monkeypatch):
    # criterion 7's far pair, a core and its complement, is 5/8 apart at
    # every n the oracle reaches, while a relabeled copy is at 0
    for n in (8, 12, 16):
        f = strong_core_spec(n)
        neg = pt.PartiallySymmetricCore(n, 2, f.asym, 1 - f.core)
        g = pt.apply_permutation(f, pt.Permutation.random(n, np.random.default_rng(n)))
        assert pt.dist_to_iso_class(f, neg) == Fraction(5, 8)
        assert pt.dist_to_iso_class(f, g) == 0
    with monkeypatch.context() as m:
        # every variable walked depth first, as the top ones are at n = 16 from k = 4 on
        m.setattr(pt.oracle, "_stack_bytes", lambda *args: 1 << 60)
        assert pt.dist_to_iso_class(f, neg) == Fraction(5, 8)
        assert pt.dist_to_iso_class(f, g) == 0
    # the k! (n - k + 1) 2^k float32 signed core tables must fit the 8 MB budget
    rng = np.random.default_rng(716)
    for n, k, fits in [(8, 7, True), (9, 7, True), (9, 8, False), (10, 7, False), (16, 7, False)]:
        spec = pt.random_core_spec(n, k, rng)
        g = pt.counting_oracle(pt.random_function(n, rng))
        if fits:
            assert 0 < pt.dist_to_iso_class(spec, g) < 1
        else:
            with pytest.raises(ValueError, match="pass the 8 MB budget"):
                pt.dist_to_iso_class(spec, g)
            assert g.count == 0


def test_find_core_symmetric_and_dictator():
    rng = np.random.default_rng(4)
    prof = pt.SymmetricProfile(6, rng.integers(0, 2, size=7, dtype=np.uint8))
    assert pt.find_core(prof) == tuple(range(6))
    dictator = pt.TruthTable(4, [(x & 1) for x in range(16)])
    assert pt.find_core(dictator) == (1, 2, 3)


def test_find_core_recovers_asymmetric_variables():
    spec = strong_core_spec(10)
    expected = tuple(i for i in range(10) if i not in spec.asym)
    assert pt.find_core(spec) == expected
    for i in spec.asym:
        assert not pt.is_j_symmetric(spec, list(expected) + [i])


def test_find_core_no_strict_superset_is_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = pt.random_function(7, rng)
        core = pt.find_core(f)
        assert pt.is_j_symmetric(f, core)
        for extra in range(7):
            if extra not in core:
                assert not pt.is_j_symmetric(f, list(core) + [extra])


def test_swap_invariance_relation_is_transitive():
    from psymtest.oracle import _invariant_transposition

    rng = np.random.default_rng(6)
    for trial in range(10):
        n = 6
        # core-form functions have invariant pairs, so transitivity is not vacuous
        f = pt.random_function(n, rng) if trial % 2 else pt.random_core_spec(n, 2, rng)
        table = f.truth_table()
        inv = {
            (i, j): _invariant_transposition(table, i, j)
            for i in range(n)
            for j in range(i + 1, n)
        }
        for (i, j), same in inv.items():
            swap = (1 << i) | (1 << j)
            flips = [x ^ swap if (x >> i & 1) != (x >> j & 1) else x for x in range(1 << n)]
            assert same == all(table[x] == table[y] for x, y in enumerate(flips))

        def rel(a, b):
            return inv[(min(a, b), max(a, b))]

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3 and rel(i, j) and rel(j, k):
                        assert rel(i, k)


def test_transposition_difference_past_the_leading_block():
    from psymtest.oracle import _invariant_transposition

    # a symmetric table with one point flipped where both slices are read last
    n = 10
    base = pt.SymmetricProfile(n, np.arange(n + 1) % 2).truth_table()
    for i, j in combinations(range(n), 2):
        assert _invariant_transposition(base, i, j)
        table = base.copy()
        table[((1 << n) - 1) ^ (1 << j)] ^= 1  # x_j = 0, every other bit 1
        assert not _invariant_transposition(table, i, j)
        assert not _invariant_transposition(table, j, i)


@pytest.mark.parametrize("k", [0, 2, 3])
def test_find_core_skips_pairs_already_joined(k, monkeypatch):
    from psymtest import oracle

    n = 16
    f = pt.random_core_spec(n, k, np.random.default_rng(40 + k))
    table = f.truth_table()
    inv = {pair: oracle._invariant_transposition(table, *pair) for pair in combinations(range(n), 2)}
    # the classes of the relation, from every pair
    label = list(range(n))
    for (i, j), same in inv.items():
        if same:
            label = [label[i] if v == label[j] else v for v in label]
    classes = {c: [v for v in range(n) if label[v] == c] for c in set(label)}
    want = max(classes.values(), key=lambda c: (len(c), -min(c)))
    assert len(want) >= n - k
    # a pair inside a class is tested only while its roots differ, and each
    # such test joins two roots; a pair across classes is always tested
    across = sum(label[i] != label[j] for i, j in inv)
    calls = []

    def counted(table, i, j):
        calls.append((i, j))
        return inv[(i, j)]

    monkeypatch.setattr(oracle, "_invariant_transposition", counted)
    assert pt.find_core(f) == tuple(want)
    assert len(calls) == (n - len(classes)) + across
    assert len(calls) == {0: 15, 2: 42, 3: 54}[k]


def test_is_t_intersecting():
    fam = SetFamily.of(8, [{0, 1, 2}, {1, 2, 5}, {0, 1, 2, 7}])
    assert pt.is_t_intersecting(fam, 2)
    assert not pt.is_t_intersecting(fam, 3)
    near = SetFamily.of(8, [{0, 1}, {1, 2}])
    assert not pt.is_t_intersecting(near, 2)
    small = SetFamily.of(8, [{3}])
    assert not pt.is_t_intersecting(small, 2)


def test_mu_p_equality_family():
    t = 3
    fam = SetFamily.of(10, [set(range(t))])
    p = Fraction(1, 5)
    assert pt.mu_p(fam, p) == p**t
    assert pt.is_t_intersecting(fam, t)


def test_mu_p_counts_up_closure():
    fam = SetFamily.of(3, [{0, 1}])
    # subsets containing {0,1}: {0,1} and {0,1,2}
    p = Fraction(1, 2)
    assert pt.mu_p(fam, p) == Fraction(1, 4)
    both = SetFamily.of(3, [{0}, {1}])
    # complement of "contains neither": 1 - (1-p)^2 terms over the third bit
    assert pt.mu_p(both, p) == Fraction(3, 4)


def test_random_2_intersecting_families_satisfy_measure_bound():
    rng = np.random.default_rng(7)
    p = Fraction(1, 5)
    for _ in range(10):
        base = frozenset(int(v) for v in rng.choice(12, size=2, replace=False))
        sets = [base | {int(v) for v in np.flatnonzero(rng.integers(0, 2, size=12))} for _ in range(6)]
        fam = SetFamily.of(12, sets)
        assert pt.is_t_intersecting(fam, 2)
        assert pt.mu_p(fam, p) <= p**2


def test_hypergeometric_pmf_sums_to_one():
    from math import comb

    pmf = hypergeometric_pmf(10, 4, 3)
    assert sum(pmf) == 1
    assert pmf[0] == Fraction(comb(6, 3), comb(10, 3))


def test_tv_exact():
    assert pt.tv_exact([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]) == 0
    assert pt.tv_exact({0: 1}, {1: 1}) == 1
    assert pt.tv_exact([1, 0], [Fraction(1, 2), Fraction(1, 2)]) == Fraction(1, 2)


def test_tv_hypergeometric_binomial_trivial_cases():
    assert pt.tv_hypergeometric_binomial(10, 5, 0) == 0
    assert pt.tv_hypergeometric_binomial(10, 4, 1) == 0
    with pytest.raises(ValueError):
        pt.tv_hypergeometric_binomial(10, 11, 2)


def test_tv_hypergeometric_binomial_bound_small_grid():
    for n in (20, 35, 50):
        m = n // 2
        for k in range(1, 6):
            tv = pt.tv_hypergeometric_binomial(n, m, k)
            assert 0 <= tv <= Fraction(k, n)


def test_binomial_pmf_matches_direct_formula():
    pmf = binomial_pmf(4, Fraction(1, 3))
    assert sum(pmf) == 1
    assert pmf[2] == 6 * Fraction(1, 9) * Fraction(4, 9)


@pytest.mark.parametrize("member", [1.5, 1.0, True, np.float64(1.0)])
def test_set_family_built_directly_checks_its_members(member):
    # a 1.5 was measured as {1} by mu_p while is_t_intersecting saw no 1 in it
    with pytest.raises(ValueError, match="set member must be an integer"):
        SetFamily(3, (frozenset({member}),))
    with pytest.raises(ValueError, match="set member must be an integer"):
        SetFamily.of(3, [[0, member]])
    fam = SetFamily(3, (frozenset({np.int64(1)}),))
    assert pt.mu_p(fam, Fraction(1, 3)) == Fraction(1, 3) and pt.is_t_intersecting(fam, 1)
