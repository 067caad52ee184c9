import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import psymtest as pt
from psymtest.influence import _KRON_CALL, _kron, _wht_signs, symmetric_distance, walsh_hadamard
from psymtest.oracle import binomial_pmf, hypergeometric_pmf
from psymtest.sampling import dstar_pmf

from helpers import brute_dist, brute_influence, brute_syminf, split_table

DICTATOR2 = pt.TruthTable(2, [0, 1, 0, 1])  # f(x) = x_0
AND2 = pt.TruthTable(2, [0, 0, 0, 1])
X0_AND_NOT_X1 = pt.TruthTable(2, [0, 1, 0, 0])


def test_influence_exact_dictator():
    f = pt.TruthTable(3, [x & 1 for x in range(8)])
    assert pt.influence_exact(f, [0]) == Fraction(1, 2)
    assert pt.influence_exact(f, [1, 2]) == 0
    assert pt.influence_exact(f, []) == 0


def test_influence_exact_and_gate():
    assert pt.influence_exact(AND2, [0, 1]) == Fraction(3, 8)
    assert pt.influence_exact(AND2, [0, 1]) == brute_influence(AND2, [0, 1])


def test_influence_exact_matches_brute_on_random_functions():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        f = pt.random_function(n, rng)
        members = [int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))]
        assert pt.influence_exact(f, members) == brute_influence(f, members)


_PARITY3 = pt.KLinear(3, [0, 1])


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda rng: pt.influence_exact(_PARITY3, [1.5]), "set member", id="float-member"),
        pytest.param(lambda rng: pt.symmetric_influence_exact(_PARITY3, [True, 2]), "set member", id="bool-member"),
        pytest.param(lambda rng: pt.influence_exact(_PARITY3, [-1]), "set member", id="negative-member"),
        pytest.param(lambda rng: pt.influence_mc(_PARITY3, [3], 10, rng), "set member", id="member-past-n"),
        pytest.param(lambda rng: pt.is_j_symmetric(_PARITY3, [1.5, 2]), "set member", id="j-symmetric-float"),
        pytest.param(lambda rng: pt.is_j_symmetric(_PARITY3, [0, "1"]), "set member", id="j-symmetric-str"),
        pytest.param(lambda rng: pt.SetFamily.of(3, [[0], [1.5]]), "set member", id="family-float"),
        pytest.param(lambda rng: pt.influence_mc(_PARITY3, [0], 2.5, rng), "trials", id="float-trials"),
        pytest.param(lambda rng: pt.symmetric_influence_mc(_PARITY3, [0, 1], True, rng), "trials", id="bool-trials"),
        pytest.param(lambda rng: pt.random_partition(8, 2.5, rng), "r", id="float-parts"),
        pytest.param(lambda rng: pt.random_partition(8, True, rng), "r", id="bool-parts"),
        pytest.param(lambda rng: pt.sample_dstar(4.5, 1, rng), "n", id="dstar-float-n"),
        pytest.param(lambda rng: pt.sample_dstar(4, True, rng), "k", id="dstar-bool-k"),
        pytest.param(lambda rng: pt.sample_dstar(4, 1.5, rng), "k", id="dstar-float-k"),
        pytest.param(lambda rng: dstar_pmf(4, 1.5), "k", id="dstar-pmf-float-k"),
        pytest.param(lambda rng: hypergeometric_pmf(10, 3, 2.0), "k", id="hypergeometric-float-k"),
        pytest.param(lambda rng: binomial_pmf(True, 0.5), "k", id="binomial-bool-k"),
        pytest.param(lambda rng: pt.tv_hypergeometric_binomial(10, True, 2), "m", id="tv-bool-m"),
        pytest.param(lambda rng: pt.tv_hypergeometric_binomial(10.0, 3, 2), "n", id="tv-float-n"),
    ],
)
def test_set_members_and_counts_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name}"):
        call(np.random.default_rng(0))


def test_monte_carlo_estimators_run_past_2_to_the_21_variables():
    # the block of 2^15 * 64 / n rows reaches 0 above n = 2^21; it keeps one row
    n = (1 << 21) + 64
    f = pt.KLinear(n, [0, 5])
    rng = np.random.default_rng(21)
    assert 0 <= pt.influence_mc(f, [0], 3, rng) <= 1
    assert 0 <= pt.symmetric_influence_mc(f, [0, 1], 3, rng) <= 1


def test_influence_exact_cap():
    f = pt.KLinear(20, [0])
    with pytest.raises(ValueError, match="influence_mc"):
        pt.influence_exact(f, [0])


def test_influence_mc():
    rng = np.random.default_rng(1)
    f = pt.TruthTable(3, [x & 1 for x in range(8)])
    assert pt.influence_mc(f, [], 100, rng) == 0.0
    est = pt.influence_mc(f, [0], 100_000, rng)
    assert abs(est - 0.5) < 0.01
    est = pt.influence_mc(AND2, [0, 1], 100_000, rng)
    assert abs(est - 0.375) < 0.01


def test_influence_monotone_and_subadditive_exactly():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = 6
        f = pt.random_function(n, rng)
        j = set(int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n)))
        k = set(int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n)))
        inf_j = pt.influence_exact(f, j)
        inf_k = pt.influence_exact(f, k)
        inf_u = pt.influence_exact(f, j | k)
        assert inf_j <= inf_u <= inf_j + inf_k


def test_far_from_juntas_forces_high_complement_influence():
    import itertools

    rng = np.random.default_rng(30)
    n, k = 10, 2
    f = pt.random_function(n, rng)
    farness = pt.dist_to_k_junta(f, k)
    assert farness > 0
    for size in range(k + 1):
        for members in itertools.combinations(range(n), size):
            comp = [i for i in range(n) if i not in members]
            assert pt.influence_exact(f, comp) >= farness


def test_far_from_t_symmetric_forces_high_symmetric_influence():
    rng = np.random.default_rng(31)
    n, t = 10, 8
    f = pt.random_function(n, rng)
    farness = pt.dist_to_t_symmetric(f, t)
    assert farness > 0
    import itertools

    for members in itertools.combinations(range(n), t):
        assert pt.symmetric_influence_exact(f, members) >= farness


def test_syminf_symmetric_function_is_zero():
    rng = np.random.default_rng(3)
    f = pt.SymmetricProfile(8, rng.integers(0, 2, size=9, dtype=np.uint8))
    assert pt.symmetric_influence_exact(f, range(8)) == 0


def test_syminf_exact_hand_cases():
    assert pt.symmetric_influence_exact(X0_AND_NOT_X1, [0, 1]) == Fraction(1, 4)
    assert brute_syminf(X0_AND_NOT_X1, [0, 1]) == Fraction(1, 4)
    dictator3 = pt.TruthTable(3, [x & 1 for x in range(8)])
    assert pt.symmetric_influence_exact(dictator3, [0, 1]) == Fraction(1, 4)
    assert brute_syminf(dictator3, [0, 1]) == Fraction(1, 4)


def test_syminf_exact_matches_brute_on_random_functions():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        f = pt.random_function(n, rng)
        size = int(rng.integers(0, min(n, 5) + 1))
        members = [int(v) for v in rng.choice(n, size=size, replace=False)]
        assert pt.symmetric_influence_exact(f, members) == brute_syminf(f, members)


def test_syminf_mc():
    rng = np.random.default_rng(5)
    f = pt.random_function(8, rng)
    assert pt.symmetric_influence_mc(f, [3], 100, rng) == 0.0
    assert pt.symmetric_influence_mc(f, [], 100, rng) == 0.0
    est = pt.symmetric_influence_mc(X0_AND_NOT_X1, [0, 1], 100_000, rng)
    assert abs(est - 0.25) < 0.01


@pytest.mark.parametrize("n", [65, 128, 256])
def test_mc_estimators_match_closed_forms_past_one_word(n):
    # AND of x_1 and x_{n-1}: rerandomizing x_{n-1} flips it w.p. 1/4.  The
    # dictator x_{n-1} under a uniform permutation of m coordinates that
    # include n-1 reads another coordinate w.p. (m-1)/m: (m-1)/(2m).
    rng = np.random.default_rng(n)
    trials = 20_000
    core = np.repeat(np.array([[0], [0], [0], [1]], dtype=np.uint8), n - 1, axis=1)
    and2 = pt.PartiallySymmetricCore(n, 2, (1, n - 1), core)
    members = list(range(0, n, 3)) + [n - 1]
    dictator = pt.KLinear(n, [n - 1])
    m = len(members)
    for est, p in (
        (pt.influence_mc(and2, [n - 1], trials, rng), 1 / 4),
        (pt.symmetric_influence_mc(dictator, members, trials, rng), (m - 1) / (2 * m)),
    ):
        assert abs(est - p) <= 4 * (p * (1 - p) / trials) ** 0.5, (est, p)


def test_syminf_mc_within_three_standard_errors_of_exact():
    rng = np.random.default_rng(6)
    f = pt.random_function(10, rng)
    exact = float(pt.symmetric_influence_exact(f, range(10)))
    trials = 100_000
    est = pt.symmetric_influence_mc(f, range(10), trials, rng)
    assert abs(est - exact) <= 3 / (2 * trials**0.5)


def test_closest_j_symmetric_fixed_point():
    rng = np.random.default_rng(7)
    f = pt.SymmetricProfile(6, rng.integers(0, 2, size=7, dtype=np.uint8))
    g = pt.closest_j_symmetric(f, range(6))
    assert np.array_equal(g.truth_table(), f.truth_table())


def test_closest_j_symmetric_single_split_layer():
    g = pt.closest_j_symmetric(X0_AND_NOT_X1, [0, 1])
    assert brute_dist(X0_AND_NOT_X1, g) == Fraction(1, 4)
    diffs = [x for x in range(4) if X0_AND_NOT_X1(x) != g(x)]
    assert len(diffs) == 1
    # tie-break: the split weight-1 layer resolves to 0
    assert g(0b01) == 0 and g(0b10) == 0


def test_closest_is_j_symmetric_and_distance_formula_agrees():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = 6
        f = pt.random_function(n, rng)
        members = [int(v) for v in rng.choice(n, size=3, replace=False)]
        g = pt.closest_j_symmetric(f, members)
        assert pt.is_j_symmetric(g, members)
        assert brute_dist(f, g) == symmetric_distance(f, members)


def test_sandwich_inequality_exact():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = 8
        f = pt.random_function(n, rng)
        members = [int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))]
        dist = symmetric_distance(f, members)
        si = pt.symmetric_influence_exact(f, members)
        assert dist <= si <= 2 * dist


def test_wht_constant_and_parity():
    const = pt.TruthTable(4, np.zeros(16, dtype=np.uint8))
    ft = walsh_hadamard(const)
    assert ft.coeffs[0] == 1.0
    assert np.all(ft.coeffs[1:] == 0)

    parity = pt.KLinear(4, [1, 3])
    ft = walsh_hadamard(pt.TruthTable(4, parity.truth_table()))
    s = (1 << 1) | (1 << 3)
    assert abs(ft.coeffs[s]) == 1.0
    others = np.delete(ft.coeffs, s)
    assert np.all(others == 0)


def test_wht_parseval_on_random_function():
    f = pt.random_function(10, np.random.default_rng(10))
    assert abs(walsh_hadamard(f).parseval_sum() - 1.0) <= 1e-9


def reference_walsh_hadamard(table: np.ndarray, n: int) -> np.ndarray:
    """The float64 sign-table path: (-1)^f built as 1 - 2f, a plain
    radix-2 butterfly in float64, then one division by 2^n."""
    coeffs = table.astype(np.float64)
    coeffs *= -2.0
    coeffs += 1.0
    for v in range(n):
        pairs = coeffs.reshape(-1, 2, 1 << v)
        low, high = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = low + high
        pairs[:, 1] = low - high
    coeffs /= 1 << n
    return coeffs


@pytest.mark.parametrize("n", range(1, 21))
def test_walsh_hadamard_is_byte_identical_to_the_float64_sign_path(n):
    rng = np.random.default_rng(900 + n)
    tables = [
        rng.integers(0, 2, size=1 << n, dtype=np.uint8),
        np.zeros(1 << n, dtype=np.uint8),
        np.ones(1 << n, dtype=np.uint8),
        pt.KLinear(n, range(0, n, 2)).truth_table(),
    ]
    for table in tables:
        coeffs = walsh_hadamard(pt.TruthTable(n, table)).coeffs
        want = reference_walsh_hadamard(table, n)
        assert coeffs.dtype == np.float64
        assert coeffs.tobytes() == want.tobytes()
        raw = _wht_signs(table, n)
        assert raw.dtype == np.float32 and np.array_equal(raw, want * (1 << n))


@pytest.mark.parametrize(
    "routine, bound_mb",
    [("walsh_hadamard", 8.5), ("symmetric_influence_exact", 3), ("closest_j_symmetric", 3)],
)
def test_exact_routines_at_n20_allocate_little_past_their_output(routine, bound_mb):
    """The transform's passes run inside its 8 MB float64 output, and 0/1
    layer folds at |J| = 18 hold uint8 and uint16 sums, not int32 (which
    traced 12.1 MB and 7.0 MB)."""
    n = 20
    rng = np.random.default_rng(2020)
    f = pt.random_function(n, rng)
    members = sorted(int(v) for v in rng.choice(n, size=18, replace=False))
    args = (f,) if routine == "walsh_hadamard" else (f, members)
    tracemalloc.start()
    try:
        getattr(pt.influence, routine)(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * (1 << 20)


def test_wht_at_n20_is_exact_and_parseval_sum_is_exactly_one():
    n = 20
    f = pt.random_function(n, np.random.default_rng(20))
    raw = walsh_hadamard(f).coeffs * (1 << n)
    ints = np.rint(raw).astype(np.int64)
    assert np.array_equal(ints, raw)
    assert int(np.sum(ints * ints)) == 1 << (2 * n)


@pytest.mark.parametrize(
    "kernel",
    [[[1, 1], [1, -1]], [[1, 1], [0, 1]], [[1, -1], [0, 1]]],
    ids=["hadamard", "superset-sums", "subset-mobius"],
)
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n", range(10))
def test_kron_matches_dense_tensor_power(kernel, batch, n):
    kernel = np.array(kernel, dtype=np.float64)
    dense = np.ones((1, 1))
    for _ in range(n):
        dense = np.kron(dense, kernel)
    rows = np.random.default_rng(n).integers(-3, 4, size=(batch, 1 << n)).astype(np.float64)
    want = rows @ dense.T
    out = _kron(rows, n, kernel)
    assert out.dtype == np.float32 and np.array_equal(out, want)
    assert np.array_equal(_kron(rows, n, kernel, -2.0), -2.0 * want)


def radix2_kron(rows: np.ndarray, n: int, kernel: np.ndarray) -> np.ndarray:
    """The tensor power by one float64 butterfly per variable."""
    out = rows.astype(np.float64)
    for v in range(n):
        pairs = out.reshape(len(rows), -1, 2, 1 << v)
        low, high = pairs[:, :, 0].copy(), pairs[:, :, 1].copy()
        pairs[:, :, 0] = kernel[0, 0] * low + kernel[0, 1] * high
        pairs[:, :, 1] = kernel[1, 0] * low + kernel[1, 1] * high
    return out


@pytest.mark.parametrize(
    "kernel",
    [[[1, 1], [1, -1]], [[1, 1], [0, 1]], [[1, -1], [0, 1]]],
    ids=["hadamard", "superset-sums", "subset-mobius"],
)
@pytest.mark.parametrize(
    "batch, n",
    # every last-pass width n mod 4; 1820 rows at n = 4 are the Moebius batch
    # of the junta distance at n = 16, k = 4, past one capped call and not a
    # power of two, and 3 rows at n = 15 and 16 span several calls per pass
    [(1820, 4), (3, 15), (3, 16), (1, 17), (7, 13), (2, 14), (1001, 3), (5000, 2), (9, 1)],
)
def test_kron_matches_a_radix2_reference(kernel, batch, n):
    kernel = np.array(kernel, dtype=np.float64)
    rows = np.random.default_rng(batch + n).integers(-3, 4, size=(batch, 1 << n)).astype(np.float64)
    want = radix2_kron(rows, n, kernel)
    out = _kron(rows, n, kernel)
    assert out.dtype == np.float32 and np.array_equal(out, want)
    assert np.array_equal(_kron(rows, n, kernel, -2.0), -2.0 * want)


def test_kron_products_stay_under_the_single_thread_cap(monkeypatch):
    """Every product of a ``_kron`` pass makes at most ``_KRON_CALL``
    multiply-adds per matrix, the most OpenBLAS runs on one thread; larger
    ones stalled under two OpenBLAS threads."""
    products = []
    matmul = np.matmul

    def recorded(x, y, *args, **kwargs):
        products.append(np.shape(x)[-2:] + np.shape(y)[-1:])
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    rng = np.random.default_rng(31)
    f14, f16, f20 = (pt.random_function(n, rng) for n in (14, 16, 20))
    calls = {
        "walsh_hadamard n=20": lambda: walsh_hadamard(f20),
        "symmetric_influence_fourier n=16": lambda: pt.symmetric_influence_fourier(f16, range(0, 16, 3)),
        "dist_to_k_junta n=14 k=2": lambda: pt.dist_to_k_junta(f14, 2),
        "dist_to_k_junta n=16 k=4": lambda: pt.dist_to_k_junta(f16, 4),
    }
    for name, call in calls.items():
        products.clear()
        call()
        assert products, name
        assert max(m * k * n for m, k, n in products) <= _KRON_CALL, (name, products)


def test_syminf_fourier_trivial_and_hand_case():
    rng = np.random.default_rng(11)
    f = pt.SymmetricProfile(6, rng.integers(0, 2, size=7, dtype=np.uint8))
    assert pt.symmetric_influence_fourier(f, range(6)) == 0
    assert pt.symmetric_influence_fourier(X0_AND_NOT_X1, [0, 1]) == Fraction(1, 4)


def test_syminf_fourier_equals_exact_on_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = 8
        f = pt.random_function(n, rng)
        members = [int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))]
        assert pt.symmetric_influence_fourier(f, members) == pt.symmetric_influence_exact(
            f, members
        )


def test_syminf_monotone_on_nested_sets():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = 6
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
                if sub == 0:
                    break
                sub = (sub - 1) & mask


def test_strong_subadditivity_fails_for_symmetric_xor():
    from psymtest.cli import _xor_of_symmetric

    rng = np.random.default_rng(14)
    f, j, k = _xor_of_symmetric(12, rng)
    assert pt.symmetric_influence_exact(f, j) == 0
    assert pt.symmetric_influence_exact(f, k) == 0
    assert pt.symmetric_influence_exact(f, j + k) > 0


def test_character_orbit_identity():
    # E over x and permutations of J of chi_S(x) chi_T(pi x) equals
    # 1 / C(|J|, |S & J|) when T is in S's orbit and 0 otherwise
    from itertools import permutations as iperm
    from math import comb

    from helpers import apply_perm_to_point

    n = 5
    members = [0, 2, 3]
    rng = np.random.default_rng(17)

    def chi(s_mask, x):
        return -1 if (s_mask & x).bit_count() & 1 else 1

    for _ in range(20):
        s_mask = int(rng.integers(0, 1 << n))
        t_mask = int(rng.integers(0, 1 << n))
        total = 0
        count = 0
        for perm in iperm(members):
            mapping = list(range(n))
            for src, dst in zip(members, perm):
                mapping[src] = dst
            for x in range(1 << n):
                total += chi(s_mask, x) * chi(t_mask, apply_perm_to_point(x, mapping, n))
                count += 1
        j_mask = 0b01101
        same_orbit = (s_mask & ~j_mask) == (t_mask & ~j_mask) and (
            (s_mask & j_mask).bit_count() == (t_mask & j_mask).bit_count()
        )
        expected = (
            Fraction(1, comb(3, (s_mask & j_mask).bit_count())) if same_orbit else Fraction(0)
        )
        assert Fraction(total, count) == expected


def reference_layer_counts(table, n, j_mask):
    """The split's columns sorted by weight, each weight's run summed in int64
    by ``np.add.reduceat``: (row, weight) sums, sizes and column weights."""
    from math import comb

    from psymtest._bits import indices_of

    cols = indices_of(j_mask)
    j = len(cols)
    weights = np.bitwise_count(np.arange(1 << j))
    sizes = np.array([comb(j, w) for w in range(j + 1)], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    by_weight = split_table(table, n, cols)[:, np.argsort(weights, kind="stable")]
    return np.add.reduceat(by_weight, starts, axis=1, dtype=np.int64), sizes, weights


@pytest.mark.parametrize("n", range(1, 9))
def test_fold_matches_sorted_reduceat_sums_for_every_j(n):
    from psymtest.influence import _layer_sums, _wht_signs

    rng = np.random.default_rng(700 + n)
    table = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
    raw = _wht_signs(table, n).astype(np.int64)
    # the CLI's exhaustive sweep: one column per function, uint32
    stacked = rng.integers(0, 2, size=(1 << n, 5), dtype=np.uint32)
    for values in (table, raw, stacked):
        for j_mask in range(1 << n):
            sums, sizes = _layer_sums(values, n, j_mask)
            want, want_sizes, _ = reference_layer_counts(values, n, j_mask)
            # weight first: entry [w, row] of the sums is entry [row, w] of the reference
            assert np.moveaxis(sums, 0, 1).shape == want.shape
            assert np.array_equal(np.moveaxis(sums, 0, 1), want) and np.array_equal(sizes.ravel(), want_sizes)


@pytest.mark.parametrize("kind", ["dictator", "outside", "dense"])
def test_layer_sums_past_int32_at_n20(kind):
    """|J| = 18 at n = 20: layers of up to C(18, 9) = 48620 points.  The
    dictator on a member of J has layer products 2 c (L - c) that add up past
    2^31 over the rows; the dictator on a variable outside J fills whole
    layers, so its sums pass 2^15."""
    from psymtest.influence import _over_sizes

    n = 20
    rng = np.random.default_rng(20)
    members = sorted(int(v) for v in rng.choice(n, size=18, replace=False))
    if kind == "dense":
        f = pt.random_function(n, rng)
    else:
        v = members[5] if kind == "dictator" else min(set(range(n)) - set(members))
        f = pt.TruthTable(n, (np.arange(1 << n) >> v) & 1)
    j_mask = sum(1 << v for v in members)
    ones, sizes, weights = reference_layer_counts(f.truth_table(), n, j_mask)
    products = np.sum(2 * ones * (sizes - ones), axis=0)
    if kind == "dictator":
        assert int(products.sum()) > 2**31
    assert pt.symmetric_influence_exact(f, members) == _over_sizes(products, sizes) / (1 << n)
    flips = int(np.sum(np.minimum(ones, sizes - ones)))
    assert pt.symmetric_distance(f, members) == Fraction(flips, 1 << n)
    closest = pt.closest_j_symmetric(f, members).truth_table()
    majority = (2 * ones > sizes).astype(np.uint8)
    assert np.array_equal(split_table(closest, n, members), majority[:, weights])


def test_fold_types_hold_full_layers():
    """On the constant-one table every layer sum is its size C(|J|, w), the
    largest a fold type must hold: uint8 ends after 10 folded variables and
    uint16 after 18, each the type the sums come in."""
    from psymtest.influence import _layer_sums

    rng = np.random.default_rng(1011)
    n = 20
    one = pt.TruthTable(n, np.ones(1 << n, dtype=np.uint8))
    for j in (10, 11, 18, 19, 20):
        members = sorted(int(v) for v in rng.choice(n, size=j, replace=False))
        ones, sizes = _layer_sums(one.truth_table(), n, sum(1 << v for v in members))
        assert list(sizes.ravel()) == [comb(j, w) for w in range(j + 1)]
        assert ones.dtype == (np.uint8 if j <= 10 else np.uint16 if j <= 18 else np.int32)
        assert ones.shape == (j + 1, 1 << (n - j))
        assert np.array_equal(ones, np.broadcast_to(sizes, ones.shape))
        assert symmetric_distance(one, members) == 0
        assert np.array_equal(pt.closest_j_symmetric(one, members).truth_table(), one.table)
    one16 = pt.TruthTable(16, np.ones(1 << 16, dtype=np.uint8))
    for t in (10, 11, 16):
        assert pt.dist_to_t_symmetric(one16, t) == 0


def test_layer_sizes_are_binomial_counts():
    from math import comb

    from psymtest._bits import mask_from_indices
    from psymtest.influence import _layer_sums

    rng = np.random.default_rng(16)
    n = 8
    f = pt.random_function(n, rng)
    members = [1, 3, 4, 6]
    rest = [v for v in range(n) if v not in members]
    j_mask = mask_from_indices(members)
    ones, sizes = _layer_sums(f.truth_table(), n, j_mask)
    ones, sizes = ones.T, sizes.ravel()
    # per-point enumeration: row = the bits outside J packed in order, column = weight in J
    want_ones = np.zeros((1 << len(rest), len(members) + 1), dtype=np.int64)
    want_sizes = np.zeros_like(want_ones)
    for x in range(1 << n):
        row = sum(((x >> v) & 1) << i for i, v in enumerate(rest))
        w = (x & j_mask).bit_count()
        want_ones[row, w] += f(x)
        want_sizes[row, w] += 1
    assert np.array_equal(ones, want_ones)
    assert np.array_equal(want_sizes, np.broadcast_to(sizes, want_sizes.shape))
    assert list(sizes) == [comb(len(members), w) for w in range(len(members) + 1)]
    assert np.all(2 * np.minimum(ones, sizes - ones) <= sizes)  # minority fraction <= 1/2


def test_fourier_parseval_check_fires_when_a_layer_is_lost(monkeypatch):
    from psymtest import influence

    real = influence._layer_sums

    def drop_weight_zero(table, n, j_mask):
        sums, sizes = real(table, n, j_mask)
        return sums[1:], sizes[1:]

    assert pt.symmetric_influence_fourier(X0_AND_NOT_X1, [0, 1]) == Fraction(1, 4)
    monkeypatch.setattr(influence, "_layer_sums", drop_weight_zero)
    with pytest.raises(RuntimeError, match="Parseval"):
        pt.symmetric_influence_fourier(X0_AND_NOT_X1, [0, 1])


def test_zero_syminf_characterizes_symmetric_sets():
    rng = np.random.default_rng(15)
    for _ in range(5):
        f = pt.random_function(5, rng)
        for mask in range(1 << 5):
            members = [i for i in range(5) if (mask >> i) & 1]
            zero = pt.symmetric_influence_exact(f, members) == 0
            assert zero == pt.is_j_symmetric(f, members)
