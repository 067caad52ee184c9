"""Influence and symmetric influence of variable sets.

Influence of J: probability that rerandomizing the J-coordinates of a uniform
point changes the output.  Symmetric influence of J: probability that a
uniformly random permutation of the J-coordinates changes the output.  Exact
variants return rationals so that order relations between these quantities
can be checked without float tolerances.  Every exact routine over J reads
the layer sums of J (``_layer_sums``: fixed bits outside J, fixed weight
inside J); influence adds each assignment's layers over the weights.  The
sums fold J's variables out of the table one at a time, highest first
(``_fold``), a 0/1 table in the narrowest integer type that holds
C(j, j // 2) after j folds (uint8, uint16, then int32), and the layers are
scored in that type; when folding low variables in place would cost more,
one copy first moves J's variables to the top of the table
(``_j_on_top``).  The closest J-symmetric function maps each layer's
majority back by the inverse steps.  The Walsh-Hadamard transform is
``_kron`` on the 0/1 table, -2 folded into the first pass: ceil(n/4) passes,
each a float32 product of a 16 x 16 kernel with four variables where they
stand, in BLAS calls of at most 2^18 multiply-adds (the most OpenBLAS runs
on one thread); exact because every value and partial sum is an integer of
size at most 2^(n+1) <= 2^21, below float32's 2^24.  The passes run in the
two float32 halves of the float64 output, which is then widened in place, so
a call allocates nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from typing import Iterable

import numpy as np

from ._bits import as_index, indices_of, mask_from_indices, rearrange_bits_block
from .boolfn import BooleanFunction, TruthTable
from .testers import Partner, _pair_block, _rerandomized

MAX_EXACT_INFLUENCE_N = 15
MAX_EXACT_SYMINF_N = 20
MAX_FOURIER_N = 16

# Monte Carlo block rows: 2^15 while a row is one word, 2^15 * 64 / n above (about as many words),
# and at least one row.
_MC_BLOCK = 1 << 15


def _as_mask(f: BooleanFunction, members: Iterable[int]) -> int:
    mask = 0
    for v in members:
        mask |= 1 << as_index(v, "set member", 0, f.n - 1)
    return mask


def _fold_type(a: np.ndarray) -> type:
    """The type ``_fold`` accumulates ``a`` in (see there)."""
    w = a.shape[0]
    if a.dtype == np.int64 or (w == 1 and a.dtype != np.uint8):
        return np.int64
    return np.uint8 if w <= 10 else np.uint16 if w <= 18 else np.int32


def _fold(a: np.ndarray, v: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum variable v out of a weight-first array of layer sums.

    ``a`` is (w+1, 2^m, ...): entry [u, x] sums the table over the points
    whose already folded variables have weight u and whose other variables
    spell x, and v is the highest variable x still holds.  Returns the
    (w+2, 2^(m-1), ...) array in which the x_v = 0 half adds in at weight u
    and the x_v = 1 half at weight u + 1.  Variables below v keep their bit
    positions; trailing axes are kept.  A 0/1 table (uint8) accumulates in
    the narrowest type that holds C(w, w // 2), the largest sum after these
    w folded variables: uint8 through w = 10 (C(10, 5) = 252), uint16
    through w = 18 (C(18, 9) = 48620), int32 beyond.  Wider inputs
    accumulate in int64.  ``out``, if given, is an array of that type and
    shape to write (a fresh one if not).
    """
    w = a.shape[0]
    halves = a.reshape((w, -1, 2, 1 << v) + a.shape[2:])
    zero, one = halves[:, :, 0], halves[:, :, 1]
    dtype = _fold_type(a)
    shape = (w + 1,) + zero.shape[1:]
    # splitting the second axis of ``out`` is always a view, at any strides
    res = np.empty(shape, dtype) if out is None else out.reshape(shape)
    res[0] = zero[0]
    np.add(zero[1:], one[:-1], out=res[1:w], dtype=dtype)
    res[w] = one[w - 1]
    return res.reshape((w + 1, -1) + a.shape[2:])


def _j_on_top(table: np.ndarray, n: int, cols: list[int]) -> tuple[np.ndarray, list[int]]:
    """The table with J's variables moved to its top bits (J's order kept,
    the other variables' too) and their new positions, when folding them in
    place would cost more than that one copy; else the table and ``cols``.

    A fold of variable v moves the table in runs of 2^v entries, slow below
    v = 4, and the i-th fold (highest first) reads (i+1) / 2^i of the
    table's entries: the copy pays when the folds below 4 read more than a
    whole table.
    """
    slow = sum((i + 1) / 2**i for i, v in enumerate(reversed(cols)) if v < 4)
    if slow <= 1:
        return table, cols
    j = len(cols)
    cube = np.moveaxis(table.reshape((2,) * n + table.shape[1:]), [n - 1 - v for v in reversed(cols)], range(j))
    return cube.reshape(table.shape), list(range(n - j, n))


def _layer_sums(table: np.ndarray, n: int, j_mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact sums of a table over the layers of J, weight first.

    A layer fixes the weight w inside J and the bits outside J (the column:
    the other variables in ascending order, lowest bit first).  J's
    variables are folded out one at a time, highest first (``_fold``), after
    ``_j_on_top`` when that is cheaper.  Returns the (j+1, 2^(n-j), ...)
    sums in ``_fold``'s type, and the layer sizes C(j, w) in that type too,
    shaped to broadcast against them.
    """
    table, cols = _j_on_top(table, n, indices_of(j_mask))
    a = table.reshape((1, 1 << n) + table.shape[1:])
    for v in reversed(cols):
        a = _fold(a, v)
    j = len(cols)
    sizes = np.array([comb(j, w) for w in range(j + 1)], dtype=a.dtype)
    return a, sizes.reshape((-1,) + (1,) * (a.ndim - 1))


def _over_sizes(nums: np.ndarray, sizes: np.ndarray) -> Fraction:
    """sum over w of nums[w] / sizes[w], exact."""
    return sum((Fraction(int(a), int(b)) for a, b in zip(nums, sizes)), Fraction(0))


def _flip_rate(
    f: BooleanFunction, trials: int, partner: Partner, rng: np.random.Generator
) -> float:
    """Fraction of ``trials`` uniform pairs (x, partner(x)) on which f differs."""
    block = max(1, _MC_BLOCK * 64 // max(f.n, 64))
    hits = done = 0
    while done < trials:
        b = min(block, trials - done)
        _, _, fx, fy = _pair_block(f, b, partner, rng)
        hits += int(np.count_nonzero(fx != fy))
        done += b
    return hits / trials


def influence_exact(f: BooleanFunction, members: Iterable[int]) -> Fraction:
    """Exact Pr[f(x) != f(x with J rerandomized)] by cube enumeration: an
    assignment outside J with ``ones`` ones over J adds 2 ones (2^j - ones)."""
    if f.n > MAX_EXACT_INFLUENCE_N:
        raise ValueError(
            f"exact influence enumerates 2^n points and is capped at n <= "
            f"{MAX_EXACT_INFLUENCE_N}; use influence_mc for larger n"
        )
    j_mask = _as_mask(f, members)
    j = j_mask.bit_count()
    if j == 0:
        return Fraction(0)
    ones = _layer_sums(f.truth_table(), f.n, j_mask)[0].sum(axis=0, dtype=np.int64)
    num = int(np.sum(2 * ones * ((1 << j) - ones)))
    return Fraction(num, 1 << (f.n + j))


def influence_mc(
    f: BooleanFunction, members: Iterable[int], trials: int, rng: np.random.Generator
) -> float:
    """Unbiased Monte Carlo estimate of the influence of J."""
    trials = as_index(trials, "trials", 1)
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
    ones, sizes = _layer_sums(f.truth_table(), f.n, j_mask)
    # ones (L - ones) <= L^2 / 4 for a layer of L <= C(j, j // 2) points
    j = j_mask.bit_count()
    dtype = np.result_type(ones, np.min_scalar_type(-(comb(j, j // 2) ** 2 // 4)))
    prods = np.multiply(ones, sizes - ones, dtype=dtype).sum(axis=1, dtype=np.int64)
    return _over_sizes(2 * prods, sizes.ravel()) / (1 << f.n)


def symmetric_influence_mc(
    f: BooleanFunction, members: Iterable[int], trials: int, rng: np.random.Generator
) -> float:
    """Unbiased Monte Carlo estimate of the symmetric influence of J."""
    trials = as_index(trials, "trials", 1)
    j_mask = _as_mask(f, members)
    if j_mask.bit_count() <= 1:
        return 0.0
    return _flip_rate(f, trials, lambda xs: rearrange_bits_block(xs, j_mask, rng), rng)


def symmetric_distance(f: BooleanFunction, members: Iterable[int]) -> Fraction:
    """Exact distance from f to the closest J-symmetric function."""
    if f.n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"exact symmetric distance is capped at n <= {MAX_EXACT_SYMINF_N}")
    ones, sizes = _layer_sums(f.truth_table(), f.n, _as_mask(f, members))
    return Fraction(int(np.minimum(ones, sizes - ones).sum()), 1 << f.n)


def closest_j_symmetric(f: BooleanFunction, members: Iterable[int]) -> TruthTable:
    """Closest J-symmetric function: each layer takes its majority value.

    Split layers (exactly half ones) resolve to 0 so the result is
    deterministic; any tie-break attains the minimum distance.  The layer
    values go back to the points by the inverse of ``_fold``, variables of J
    from the lowest up: the x_v = 0 half of the output at weight u reads the
    input at weight u, the x_v = 1 half the input at weight u + 1.  When
    ``_j_on_top`` moved J's variables to the top, they go back with one copy.
    """
    if f.n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"closest J-symmetric construction is capped at n <= {MAX_EXACT_SYMINF_N}")
    n = f.n
    orig = indices_of(_as_mask(f, members))
    table, cols = _j_on_top(f.truth_table(), n, orig)
    ones, sizes = _layer_sums(table, n, mask_from_indices(cols))
    a = (ones > sizes // 2).astype(np.uint8)
    for v in cols:
        w = a.shape[0] - 1
        out = np.empty((w, a.shape[1] >> v, 2, 1 << v), np.uint8)
        out[:, :, 0] = a[:w].reshape(w, -1, 1 << v)
        out[:, :, 1] = a[1:].reshape(w, -1, 1 << v)
        a = out.reshape(w, -1)
    if cols != orig:
        cube = np.moveaxis(a.reshape((2,) * n), range(len(cols)), [n - 1 - v for v in reversed(orig)])
        a = cube.reshape(1, -1)
    return TruthTable(f.n, a[0])


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


# Variables per ``_kron`` pass: a pass with the 16 x 16 kernel runs near the
# speed of a copy of the table (0.5-0.6 against 0.37 ms at n = 20 on a 2-vCPU
# guest), so fewer, wider passes pay.
_KRON_VARS = 4
# Multiply-adds per BLAS call in a ``_kron`` pass: OpenBLAS's gemm runs a call
# of at most 2^18 on one thread at its default threshold.  Larger calls stalled
# for 30-40 ms each under 2 OpenBLAS threads at n = 16 on a 2-vCPU guest.
_KRON_CALL = 1 << 18
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


@cache
def _kernel_power(entries: tuple[float, ...], b: int, scale: float) -> np.ndarray:
    """``scale`` times the b-fold tensor power of the 2x2 kernel whose
    row-major entries are ``entries``, as a read-only float32 array."""
    kernel = np.array(entries).reshape(2, 2)
    step = kernel * scale
    for _ in range(b - 1):
        step = np.kron(step, kernel)
    step = step.astype(np.float32)
    step.flags.writeable = False
    return step


def _kron(
    a: np.ndarray, n: int, kernel: np.ndarray, scale: float = 1.0, spare: np.ndarray | None = None
) -> np.ndarray:
    """Apply ``scale`` times the n-fold tensor power of a 2x2 kernel to every
    row of ``a``, in float32.

    ``a`` is a (batch, 2^n) array whose column bit v is variable v;
    along each variable an output bit o reads the input bits i with weights
    ``kernel[o, i]``.  Each pass transforms the variables [lo, lo + b),
    b = 4 (fewer for the last one), where they stand: it views the array as
    (..., 2^b, 2^lo) and multiplies the 2^b x 2^b power of the kernel into
    it, or, at lo = 0, multiplies the rows (..., 2^b) by its transpose, so
    ceil(n/4) passes transform every variable; the first pass's kernel
    carries ``scale``.  No BLAS call makes more than ``_KRON_CALL``
    multiply-adds: above 2^(18-2b) columns a view splits them into blocks
    of that many, and the lowest pass multiplies the rows in blocks of
    2^(18-2b), with the rows a batch that is not a power of two leaves over
    in one more call.
    The kernels in use have integer entries, and so do ``scale`` and the
    inputs.  A result is then exact as long as every partial sum of every
    pass is an integer below 2^24 in absolute value, float32's limit for
    exact integers; each caller proves its own bound.  The passes alternate
    between ``a`` and ``spare``, a C-contiguous float32 array of its shape
    (a fresh one if not given), and the result is whichever of the two the
    last pass wrote: ``a`` after an even number of passes.  A C-contiguous
    float32 ``a`` is overwritten; any other is converted first.
    """
    a = np.ascontiguousarray(a, dtype=np.float32)
    if n == 0:
        a *= scale  # no pass to carry it
    if spare is None:
        spare = np.empty_like(a)
    for lo in range(0, n, _KRON_VARS):
        b = min(_KRON_VARS, n - lo)
        width = _KRON_CALL >> 2 * b  # columns, or rows at lo = 0, per call
        if lo == 0:
            # (K^T)^(x b) is the transpose of K^(x b)
            step = _kernel_power(tuple(kernel.T.ravel().tolist()), b, scale)
            rows, out = a.reshape(-1, 1 << b), spare.reshape(-1, 1 << b)
            cut = len(rows) - len(rows) % width
            np.matmul(rows[:cut].reshape(-1, width, 1 << b), step, out=out[:cut].reshape(-1, width, 1 << b))
            np.matmul(rows[cut:], step, out=out[cut:])
        else:
            step = _kernel_power(tuple(kernel.ravel().tolist()), b, 1.0)
            cols = min(width, 1 << lo)
            shape = (-1, 1 << b, (1 << lo) // cols, cols)
            np.matmul(step, a.reshape(shape).transpose(0, 2, 1, 3), out=spare.reshape(shape).transpose(0, 2, 1, 3))
        a, spare = spare, a
    return a


def _wht_signs(table: np.ndarray, n: int, halves: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of (-1)^f, in float32.

    WHT(1 - 2f) = 2^n e_0 - 2 WHT(f): the 0/1 table is transformed with -2
    in the first pass's kernel, and 2^n is added at index 0.  Every value of
    a pass is a signed sum of entries of -2f, and so is every partial sum
    inside a pass's products: an integer of absolute value at most
    2 * 2^n = 2^(n+1) <= 2^21 for n <= 20, below float32's exact-integer
    limit 2^24.  The passes run in ``halves``, a (2, 2^n) float32 buffer (a
    fresh one if not given): the table is copied into the half that makes
    the last of the ceil(n/4) passes write ``halves[1]``, which is returned.
    """
    if halves is None:
        halves = np.empty((2, 1 << n), np.float32)
    start = 1 - (n + 3) // 4 % 2  # an even pass count ends where it starts
    np.copyto(halves[start], table)
    raw = _kron(halves[start : start + 1], n, _HADAMARD, -2.0, spare=halves[1 - start : 2 - start])[0]
    raw[0] += 1 << n
    return raw


def walsh_hadamard(f: BooleanFunction) -> FourierTable:
    """Fast transform of the whole table, O(n 2^n); float64 coefficients.

    The ceil(n/4) float32 passes of ``_kron`` (see ``_wht_signs``) run in
    the two halves of the float64 output and end in the upper half, float32
    slots [N, 2N) of N = 2^n coefficients.  It is widened in place over the
    chunks [0, N/2), [N/2, 3N/4), ..., [N-1, N):
    float64 chunk [lo, hi) writes the slots [2 lo, 2 hi), and 2 hi <= N + lo
    keeps them below its own source, slots N + lo onwards, so no chunk
    overwrites a value not yet read (the last one-entry chunk overlaps only
    its own source, which numpy reads before writing).
    """
    n = f.n
    if n > MAX_EXACT_SYMINF_N:
        raise ValueError(f"transform is capped at n <= {MAX_EXACT_SYMINF_N}")
    coeffs = np.empty(1 << n)
    raw = _wht_signs(f.truth_table(), n, coeffs.view(np.float32).reshape(2, -1))
    lo = 0
    while lo < 1 << n:
        hi = ((1 << n) + lo + 1) // 2
        np.multiply(raw[lo:hi], 2.0**-n, out=coeffs[lo:hi], dtype=np.float64)
        lo = hi
    return FourierTable(n, coeffs)


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
    sums, sizes = _layer_sums(raw, n, j_mask)
    sums_sq, _ = _layer_sums(raw * raw, n, j_mask)
    if int(sums_sq.sum()) != 1 << (2 * n):
        raise RuntimeError("orbit sums of squared coefficients break Parseval's identity")
    return _over_sizes(np.sum(sizes * sums_sq - sums**2, axis=1), sizes.ravel()) / (1 << (2 * n + 1))


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
