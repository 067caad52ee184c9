"""Influence and symmetric influence of variable sets.

Influence of J: probability that rerandomizing the J-coordinates of a uniform
point changes the output.  Symmetric influence of J: probability that a
uniformly random permutation of the J-coordinates changes the output.  Exact
variants read the truth table as a (2^(n-j), 2^j) split, one row per
assignment to the bits outside J and one column per assignment inside J,
sum it over rows or over the columns of each weight in int64, and return
rationals so that order relations between these quantities can be checked
without float tolerances.  The Walsh-Hadamard transform is ``_kron``: three
variables per float64 matrix product, exact because every value is an
integer far below 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

import numpy as np

from ._bits import indices_of, mask_from_indices, rearrange_bits_block
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


def _split(table: np.ndarray, n: int, cols: Sequence[int]) -> np.ndarray:
    """View a table as a (2^(n-j), 2^j, ...) array, j = len(cols).

    The table reshapes to (2,)*n with variable v on axis n-1-v.  Column bit c
    of the split is variable ``cols[c]``; the row index holds the other
    variables in ascending order, lowest bit first.  Axes past the first are
    kept, so a stack of tables splits at once.
    """
    j = len(cols)
    cube = table.reshape((2,) * n + table.shape[1:])
    cube = np.moveaxis(cube, [n - 1 - v for v in reversed(cols)], range(n - j, n))
    return cube.reshape((1 << (n - j), 1 << j) + table.shape[1:])


def _unsplit(split: np.ndarray, n: int, cols: Sequence[int]) -> np.ndarray:
    """Inverse of ``_split``: the table in point order."""
    j = len(cols)
    cube = split.reshape((2,) * n + split.shape[2:])
    cube = np.moveaxis(cube, range(n - j, n), [n - 1 - v for v in reversed(cols)])
    return cube.reshape((1 << n,) + split.shape[2:])


def _layer_counts(table: np.ndarray, n: int, j_mask: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact sums of a table over the layers of J.

    A layer fixes the bits outside J (the row of the split) and the weight w
    inside J.  Returns the (2^(n-j), j+1, ...) int64 sums, the layer sizes
    C(j, w), and the weight of every column of the split.
    """
    cols = indices_of(j_mask)
    j = len(cols)
    weights = np.bitwise_count(np.arange(1 << j))
    sizes = np.array([comb(j, w) for w in range(j + 1)], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    by_weight = _split(table, n, cols)[:, np.argsort(weights, kind="stable")]
    return np.add.reduceat(by_weight, starts, axis=1, dtype=np.int64), sizes, weights


def _over_sizes(nums: np.ndarray, sizes: np.ndarray) -> Fraction:
    """sum over w of nums[w] / sizes[w], exact."""
    return sum((Fraction(int(a), int(b)) for a, b in zip(nums, sizes)), Fraction(0))


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
    ones = _split(f.truth_table(), f.n, indices_of(j_mask)).sum(axis=1, dtype=np.int64)
    num = int(np.sum(2 * ones * ((1 << j) - ones)))
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
    ones, sizes, _ = _layer_counts(f.truth_table(), f.n, j_mask)
    return _over_sizes(np.sum(2 * ones * (sizes - ones), axis=0), sizes) / (1 << f.n)


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
    return _symmetric_distance_table(f.truth_table(), f.n, j_mask)


def _symmetric_distance_table(table: np.ndarray, n: int, j_mask: int) -> Fraction:
    ones, sizes, _ = _layer_counts(table, n, j_mask)
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
    ones, sizes, weights = _layer_counts(f.truth_table(), f.n, j_mask)
    majority = (2 * ones > sizes).astype(np.uint8)
    return TruthTable(f.n, _unsplit(majority[:, weights], f.n, indices_of(j_mask)))


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


# Columns per BLAS call in a ``_kron`` pass: an 8 x 8 x 4096 product is 2^18
# multiply-adds, which OpenBLAS's gemm runs on one thread at its default
# threshold.  Larger calls stalled for 30-40 ms each under 2 OpenBLAS threads
# at n = 16 on a 2-vCPU guest.
_KRON_COLS = 1 << 12
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


def _kron(a: np.ndarray, n: int, kernel: np.ndarray) -> np.ndarray:
    """Apply the n-fold tensor power of a 2x2 kernel to every row of ``a``.

    ``a`` is a (batch, 2^n) array whose column bit v is variable v;
    along each variable an output bit o reads the input bits i with weights
    ``kernel[o, i]``.  Yates's method: each pass multiplies the 8x8 kernel
    (2x2 or 4x4 for the last one or two variables) against the three lowest
    index bits and moves them to the top of the index, so ceil(n/3) passes
    bring every bit back in place.  The kernels in use have integer entries;
    float64 results are exact as long as every partial sum is an integer
    below 2^53, which holds for every caller here (no value reaches 2^29).
    The passes alternate between ``a`` and one spare array of its size, so a
    C-contiguous float64 ``a`` is overwritten; any other is converted first.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    spare = np.empty_like(a)
    batch = a.shape[0]
    for done in range(0, n, 3):
        b = min(3, n - done)
        step = kernel
        for _ in range(b - 1):
            step = np.kron(step, kernel)
        rest = 1 << (n - b)
        cols = min(_KRON_COLS, rest)
        np.matmul(
            step,
            a.reshape(batch, rest // cols, cols, 1 << b).transpose(0, 1, 3, 2),
            out=spare.reshape(batch, 1 << b, rest // cols, cols).transpose(0, 2, 1, 3),
        )
        a, spare = spare, a
    return a


def _wht_signs(table: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of (-1)^f in float64; every
    value is an integer of absolute value at most 2^n, so it is exact."""
    signs = table.astype(np.float64).reshape(1, -1)
    signs *= -2.0
    signs += 1.0
    return _kron(signs, n, _HADAMARD)[0]


def walsh_hadamard(f: BooleanFunction) -> FourierTable:
    """Fast transform of the whole table, O(n 2^n)."""
    if f.n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"transform is capped at n <= {MAX_EXACT_SYMINF_N}")
    coeffs = _wht_signs(f.truth_table(), f.n)
    coeffs /= 1 << f.n
    return FourierTable(f.n, coeffs)


def symmetric_influence_fourier(f: BooleanFunction, members: Iterable[int]) -> Fraction:
    """Symmetric influence from the coefficient side.

    Permuting J acts on subset masks; the orbit of S is the class of sets
    sharing S's bits outside J and |S & J|, a layer of J over the coefficient
    index.  The symmetric influence equals half the sum over orbits of orbit
    size times the population variance of the coefficients in the orbit.
    Computed in exact integer arithmetic; the orbits' squared coefficients
    must sum to 1 (Parseval), which catches a lost or doubled orbit.
    """
    if f.n > MAX_FOURIER_N:
        raise ValueError(f"coefficient-side symmetric influence is capped at n <= {MAX_FOURIER_N}")
    j_mask = _as_mask(f, members)
    n = f.n
    raw = _wht_signs(f.truth_table(), n).astype(np.int64)
    sums, sizes, _ = _layer_counts(raw, n, j_mask)
    sums_sq, _, _ = _layer_counts(raw * raw, n, j_mask)
    if int(sums_sq.sum()) != 1 << (2 * n):
        raise RuntimeError("orbit sums of squared coefficients break Parseval's identity")
    return _over_sizes(np.sum(sizes * sums_sq - sums**2, axis=0), sizes) / (1 << (2 * n + 1))


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
