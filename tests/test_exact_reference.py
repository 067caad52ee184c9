"""Every exact routine against a plain per-point Python reference at n <= 6,
and the layer routines that fold J (closest function, t-symmetric distance)
at n = 7 and 8 as well.

The references loop over points, pairs of points and subset masks in Python
and group points with dicts, so they share nothing with the library's split
of the truth table.  Each test sweeps every J, every k or t, and every
placement the routine minimizes over.
"""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

import psymtest as pt
from psymtest.oracle import _invariant_transposition


def functions(n: int, rng):
    """A dense random function, a core-form one and a symmetric one."""
    yield pt.random_function(n, rng)
    if n >= 3:
        yield pt.TruthTable(n, pt.random_core_spec(n, 2, rng).truth_table())
    profile = rng.integers(0, 2, size=n + 1, dtype=np.uint8)
    yield pt.TruthTable(n, pt.SymmetricProfile(n, profile).truth_table())


def layers(n: int, j_mask: int) -> list[list[int]]:
    """Points grouped by (bits outside J, weight inside J)."""
    out: dict = {}
    for x in range(1 << n):
        out.setdefault((x & ~j_mask, (x & j_mask).bit_count()), []).append(x)
    return list(out.values())


def submasks(mask: int) -> list[int]:
    return [s for s in range(mask + 1) if s & mask == s]


def ref_influence(t, n, j_mask) -> Fraction:
    """Pr[f(x) != f(x with the J bits replaced by uniform bits)]."""
    subs = submasks(j_mask)
    hits = sum(t[x] != t[(x & ~j_mask) | y] for x in range(1 << n) for y in subs)
    return Fraction(hits, (1 << n) * len(subs))


def ref_syminf(t, n, j_mask) -> Fraction:
    """(x, pi x) is a uniform ordered pair of x's layer: count differing pairs."""
    total = Fraction(0)
    for layer in layers(n, j_mask):
        diff = sum(t[x] != t[y] for x in layer for y in layer)
        total += Fraction(diff, len(layer))
    return total / (1 << n)


def ref_closest(t, n, j_mask) -> list[int]:
    out = [0] * (1 << n)
    for layer in layers(n, j_mask):
        majority = int(2 * sum(t[x] for x in layer) > len(layer))
        for x in layer:
            out[x] = majority
    return out


def ref_symdist(t, n, j_mask) -> Fraction:
    closest = ref_closest(t, n, j_mask)
    return Fraction(sum(a != b for a, b in zip(t, closest)), 1 << n)


def ref_coefficients(t, n) -> list[Fraction]:
    """E_x[(-1)^(f(x) + |S & x|)] for every subset mask S."""
    return [
        Fraction(sum((-1) ** (t[x] + (s & x).bit_count()) for x in range(1 << n)), 1 << n)
        for s in range(1 << n)
    ]


def ref_fourier(t, n, j_mask) -> Fraction:
    """Half the sum over orbits of |O| times the variance of the coefficients."""
    coeff = ref_coefficients(t, n)
    total = Fraction(0)
    for orbit in layers(n, j_mask):
        sq = sum(coeff[s] ** 2 for s in orbit)
        mean = sum(coeff[s] for s in orbit) / len(orbit)
        total += sq - len(orbit) * mean**2
    return total / 2


def ref_symmetric(t, n, j_mask) -> bool:
    return all(len({t[x] for x in layer}) == 1 for layer in layers(n, j_mask))


def ref_junta(t, n, k) -> Fraction:
    best = None
    for members in combinations(range(n), k):
        s_mask = sum(1 << v for v in members)
        groups: dict = {}
        for x in range(1 << n):
            groups.setdefault(x & s_mask, []).append(t[x])
        flips = sum(min(sum(g), len(g) - sum(g)) for g in groups.values())
        best = flips if best is None else min(best, flips)
    return Fraction(best, 1 << n)


def mask_of(members) -> int:
    return sum(1 << v for v in members)


@pytest.mark.parametrize("n", range(1, 9))
def test_layer_routines_match_reference_for_every_j(n):
    rng = np.random.default_rng(100 + n)
    for f in functions(n, rng):
        t = [int(v) for v in f.truth_table()]
        for j_mask in range(1 << n):
            members = [v for v in range(n) if j_mask >> v & 1]
            closest = pt.closest_j_symmetric(f, members)
            assert [int(v) for v in closest.truth_table()] == ref_closest(t, n, j_mask)
            assert pt.symmetric_distance(f, members) == ref_symdist(t, n, j_mask)
            fourier = pt.symmetric_influence_fourier(f, members)
            assert fourier == pt.symmetric_influence_exact(f, members)
            if n > 6:
                continue  # the pair and coefficient references below grow as 4^n
            assert pt.influence_exact(f, members) == ref_influence(t, n, j_mask)
            assert pt.symmetric_influence_exact(f, members) == ref_syminf(t, n, j_mask)
            assert fourier == ref_fourier(t, n, j_mask)
            assert pt.is_j_symmetric(f, members) == ref_symmetric(t, n, j_mask)


@pytest.mark.parametrize("n", range(1, 7))
def test_walsh_hadamard_matches_reference_coefficients(n):
    rng = np.random.default_rng(500 + n)
    for f in functions(n, rng):
        t = [int(v) for v in f.truth_table()]
        coeffs = pt.walsh_hadamard(f).coeffs
        assert [Fraction(float(c)) for c in coeffs] == ref_coefficients(t, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_minimizers_match_reference_for_every_k(n, monkeypatch):
    rng = np.random.default_rng(200 + n)
    for f in functions(n, rng):
        t = [int(v) for v in f.truth_table()]
        for k in range(n + 1):
            want = ref_junta(t, n, k)
            assert pt.dist_to_k_junta(f, k) == want
            with monkeypatch.context() as m:
                # batches of 8 moments: several subsets per batch below k = 3, one from there on
                m.setattr(pt.oracle, "_JUNTA_BATCH", 8)
                assert pt.dist_to_k_junta(f, k) == want
            want = min(ref_symdist(t, n, mask_of(m)) for m in combinations(range(n), k))
            assert pt.dist_to_t_symmetric(f, k) == want


@pytest.mark.parametrize("n", range(2, 7))
def test_transpositions_and_core_match_reference(n):
    rng = np.random.default_rng(300 + n)
    for f in functions(n, rng):
        table = f.truth_table()
        t = [int(v) for v in table]
        for i, j in combinations(range(n), 2):
            swap = (1 << i) | (1 << j)
            want = all(t[x] == t[x ^ swap] for x in range(1 << n) if (x >> i & 1) != (x >> j & 1))
            assert _invariant_transposition(table, i, j) == want
            assert _invariant_transposition(table, j, i) == want
        # the largest symmetric set; ties go to the one with the smallest member
        symmetric = [
            m for size in range(1, n + 1) for m in combinations(range(n), size)
            if ref_symmetric(t, n, mask_of(m))
        ]
        assert pt.find_core(f) == max(symmetric, key=lambda m: (len(m), -m[0]))


@pytest.mark.parametrize("n, k", [(3, 0), (4, 1), (5, 2), (6, 2), (6, 3)])
def test_iso_class_distance_matches_reference(n, k):
    rng = np.random.default_rng(400 + 10 * n + k)
    spec = pt.random_core_spec(n, k, rng)
    near = pt.apply_permutation(spec, pt.Permutation.random(n, rng)).truth_table().copy()
    near[rng.choice(1 << n, size=3, replace=False)] ^= 1
    for g in (pt.TruthTable(n, near), pt.random_function(n, rng)):
        t = [int(v) for v in g.truth_table()]
        best = None
        for placement in permutations(range(n), k):
            rest = ~mask_of(placement)
            diff = 0
            for x in range(1 << n):
                xc = sum((x >> p & 1) << c for c, p in enumerate(placement))
                diff += int(spec.core[xc, (x & rest).bit_count()]) != t[x]
            best = diff if best is None else min(best, diff)
        assert pt.dist_to_iso_class(spec, g) == Fraction(best, 1 << n)
