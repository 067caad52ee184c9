"""Influence and symmetric influence of variable sets.

Influence of J: probability that rerandomizing the J-coordinates of a uniform
point changes the output.  Symmetric influence of J: probability that a
uniformly random permutation of the J-coordinates changes the output.  Exact
variants enumerate the cube once, bucket points into layers, and return
rationals so that order relations between these quantities can be checked
without float tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

import numpy as np

from ._bits import mask_from_indices, popcount_u64, rearrange_bits_block
from .boolfn import BooleanFunction, TruthTable
from .testers import Partner, _pair_block, _rerandomized

MAX_EXACT_INFLUENCE_N = 15
MAX_EXACT_SYMINF_N = 20
MAX_FOURIER_N = 16

# Monte Carlo block rows: 2^15 while a row is one word, 2^15 * 64 / n above (about as many words).
_MC_BLOCK = 1 << 15


def _as_mask(f: BooleanFunction, members: Iterable[int]) -> int:
    mask = mask_from_indices(members)
    if mask >= (1 << f.n):
        raise ValueError("set members outside range(n)")
    return mask


def _layer_keys(n: int, j_mask: int) -> np.ndarray:
    """Layer id of every point: the pair (bits outside J, Hamming weight)."""
    idx = np.arange(1 << n, dtype=np.uint64)
    w = popcount_u64(idx)
    z = idx & np.uint64(((1 << n) - 1) ^ j_mask)
    return (z * np.uint64(n + 1) + w).astype(np.int64)


def _layer_counts(table: np.ndarray, n: int, j_mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer index of every point, then per-layer sizes and ones-counts,
    for a 0/1 table."""
    _, inv = np.unique(_layer_keys(n, j_mask), return_inverse=True)
    sizes = np.bincount(inv)
    ones = np.bincount(inv[table.astype(bool)], minlength=len(sizes))
    return inv, sizes, ones


def _pair_disagreement(sizes: np.ndarray, ones: np.ndarray, n: int) -> Fraction:
    """(1/2^n) * sum over layers of 2 c (L - c) / L, computed exactly."""
    total = Fraction(0)
    for size in np.unique(sizes):
        sel = sizes == size
        num = int(np.sum(2 * ones[sel] * (int(size) - ones[sel])))
        if num:
            total += Fraction(num, int(size))
    return total / (1 << n)


def _flip_rate(
    f: BooleanFunction, trials: int, partner: Partner, rng: np.random.Generator
) -> float:
    """Fraction of ``trials`` uniform pairs (x, partner(x)) on which f differs."""
    block = _MC_BLOCK * 64 // max(f.n, 64)
    hits = done = 0
    while done < trials:
        b = min(block, trials - done)
        _, _, fx, fy = _pair_block(f, b, partner, rng)
        hits += int(np.count_nonzero(fx != fy))
        done += b
    return hits / trials


def influence_exact(f: BooleanFunction, members: Iterable[int]) -> Fraction:
    """Exact Pr[f(x) != f(x with J rerandomized)] by cube enumeration."""
    if f.n > MAX_EXACT_INFLUENCE_N:
        raise ValueError(
            f"exact influence enumerates 2^n points and is capped at n <= "
            f"{MAX_EXACT_INFLUENCE_N}; use influence_mc for larger n"
        )
    j_mask = _as_mask(f, members)
    j = j_mask.bit_count()
    if j == 0:
        return Fraction(0)
    table = f.truth_table()
    idx = np.arange(1 << f.n, dtype=np.int64)
    keys = idx & ~np.int64(j_mask)
    _, inv = np.unique(keys, return_inverse=True)
    cube = 1 << j
    ones = np.bincount(inv, weights=table).astype(np.int64)
    num = int(np.sum(2 * ones * (cube - ones)))
    return Fraction(num, 1 << (f.n + j))


def influence_mc(
    f: BooleanFunction, members: Iterable[int], trials: int, rng: np.random.Generator
) -> float:
    """Unbiased Monte Carlo estimate of the influence of J."""
    if trials < 1:
        raise ValueError("need at least one trial")
    j_mask = _as_mask(f, members)
    if j_mask == 0:
        return 0.0
    return _flip_rate(f, trials, lambda xs: _rerandomized(xs, f.n, j_mask, rng), rng)


def symmetric_influence_exact(f: BooleanFunction, members: Iterable[int]) -> Fraction:
    """Exact Pr[f(x) != f(pi x)] for uniform x and uniform pi permuting J.

    Within each layer (fixed bits outside J, fixed weight) the pair (x, pi x)
    is a uniform ordered pair, so the layer contributes 2 p (1 - p) where p is
    its minority fraction.
    """
    if f.n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"exact symmetric influence is capped at n <= {MAX_EXACT_SYMINF_N}")
    j_mask = _as_mask(f, members)
    if j_mask.bit_count() <= 1:
        return Fraction(0)
    table = f.truth_table()
    _, sizes, ones = _layer_counts(table, f.n, j_mask)
    return _pair_disagreement(sizes, ones, f.n)


def symmetric_influence_mc(
    f: BooleanFunction, members: Iterable[int], trials: int, rng: np.random.Generator
) -> float:
    """Unbiased Monte Carlo estimate of the symmetric influence of J."""
    if trials < 1:
        raise ValueError("need at least one trial")
    j_mask = _as_mask(f, members)
    if j_mask.bit_count() <= 1:
        return 0.0
    return _flip_rate(f, trials, lambda xs: rearrange_bits_block(xs, j_mask, rng), rng)


def symmetric_distance(f: BooleanFunction, members: Iterable[int]) -> Fraction:
    """Exact distance from f to the closest J-symmetric function."""
    if f.n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"exact symmetric distance is capped at n <= {MAX_EXACT_SYMINF_N}")
    j_mask = _as_mask(f, members)
    table = f.truth_table()
    return _symmetric_distance_table(table, f.n, j_mask)


def _symmetric_distance_table(table: np.ndarray, n: int, j_mask: int) -> Fraction:
    _, sizes, ones = _layer_counts(table, n, j_mask)
    flips = int(np.sum(np.minimum(ones, sizes - ones)))
    return Fraction(flips, 1 << n)


def closest_j_symmetric(f: BooleanFunction, members: Iterable[int]) -> TruthTable:
    """Closest J-symmetric function: each layer takes its majority value.

    Split layers (exactly half ones) resolve to 0 so the result is
    deterministic; any tie-break attains the minimum distance.
    """
    if f.n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"closest J-symmetric construction is capped at n <= {MAX_EXACT_SYMINF_N}")
    j_mask = _as_mask(f, members)
    inv, sizes, ones = _layer_counts(f.truth_table(), f.n, j_mask)
    majority = (2 * ones > sizes).astype(np.uint8)
    return TruthTable(f.n, majority[inv])


@dataclass(frozen=True)
class FourierTable:
    """All 2^n coefficients of the +/-1-valued version of a function.

    ``coeffs[S]`` is E_x[(-1)^{f(x)} chi_S(x)] with chi_S(x) = (-1)^{|S & x|};
    subset masks index coefficients exactly like points index tables.
    """

    n: int
    coeffs: np.ndarray

    def parseval_sum(self) -> float:
        return float(np.sum(self.coeffs.astype(np.float64) ** 2))


def _wht_signs(table: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of (-1)^f, exact in int64."""
    a = (1 - 2 * table.astype(np.int64)).copy()
    h = 1
    size = a.size
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a = np.stack((top, bot), axis=1).reshape(-1)
        h *= 2
    return a


def walsh_hadamard(f: BooleanFunction) -> FourierTable:
    """Fast transform of the whole table, O(n 2^n)."""
    if f.n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"transform is capped at n <= {MAX_EXACT_SYMINF_N}")
    raw = _wht_signs(f.truth_table())
    return FourierTable(f.n, raw.astype(np.float64) / (1 << f.n))


def symmetric_influence_fourier(f: BooleanFunction, members: Iterable[int]) -> Fraction:
    """Symmetric influence from the coefficient side.

    Permuting J acts on subset masks; the orbit of S is the class of sets
    sharing S's bits outside J and |S & J|.  The symmetric influence equals
    half the sum over orbits of orbit size times the population variance of
    the coefficients in the orbit.  Computed in exact integer arithmetic.
    """
    if f.n > MAX_FOURIER_N:
        raise ValueError(f"coefficient-side symmetric influence is capped at n <= {MAX_FOURIER_N}")
    j_mask = _as_mask(f, members)
    n = f.n
    j = j_mask.bit_count()
    raw = _wht_signs(f.truth_table())
    s_all = np.arange(1 << n, dtype=np.uint64)
    in_j = popcount_u64(s_all & np.uint64(j_mask))
    outside = s_all & np.uint64(((1 << n) - 1) ^ j_mask)
    keys = (outside * np.uint64(j + 1) + in_j).astype(np.int64)
    uniq, inv = np.unique(keys, return_inverse=True)
    counts = np.bincount(inv)
    expected = np.array([comb(j, int(u % (j + 1))) for u in uniq])
    if not np.array_equal(counts, expected):
        raise RuntimeError("orbit sizes disagree with binomial counts")
    sums = np.bincount(inv, weights=raw).astype(np.int64)
    sums_sq = np.bincount(inv, weights=raw.astype(np.float64) ** 2).astype(np.int64)
    total = Fraction(0)
    for o in np.unique(counts):
        sel = counts == o
        dev = int(o) * sums_sq[sel] - sums[sel] ** 2
        num = sum(int(v) for v in dev)
        if num:
            total += Fraction(num, int(o))
    return total / (1 << (2 * n + 1))


__all__ = [
    "FourierTable",
    "closest_j_symmetric",
    "influence_exact",
    "influence_mc",
    "symmetric_distance",
    "symmetric_influence_exact",
    "symmetric_influence_fourier",
    "symmetric_influence_mc",
    "walsh_hadamard",
]
