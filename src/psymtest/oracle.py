"""Brute-force ground truths for certifying test instances at small n.

Everything here enumerates, so the caps are tight; results are exact
(integer counts, rational results).  Table routines read the whole truth
table with array operations, never point by point: slices of the table
viewed as (2,)*n (transpositions), the one-variable folds of
``influence._fold`` (t-symmetric and isomorphism-class distances: the folds
of all the sets of each size are stacked, so that one fold call moves a
whole stack on; they hold uint8 sums through t = 10 and uint16 up to the cap
t = 16, and every t-set is scored from them), or the tensor-power passes
of ``influence._kron`` (junta distance: superset sums over the table, then a
Moebius inversion inside every k-subset at once; ceil(n/4) and ceil(k/4)
passes of four variables in float32, exact because no partial sum passes
16 * 2^n <= 2^20 at n <= 16).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Mapping

import numpy as np

from ._bits import as_index, indices_of, mask_from_indices
from .boolfn import BooleanFunction, PartiallySymmetricCore
from .influence import _as_mask, _fold, _fold_type, _kron

MAX_DIST_N = 22
MAX_TSYM_N = 16
MAX_ISO_N = 16
MAX_CORE_N = 16
MAX_MEASURE_N = 16

# subset moments gathered per batch of the junta distance
_JUNTA_BATCH = 1 << 20
# bytes the stacked folds of the t-symmetric distance may hold at once
_TSYM_STACK_BYTES = 8 << 20
# a stack with room for this many sets or more interleaves them on its last
# axis, so that its folds run along the sets; a narrower one keeps every
# set's array in one block, so that its folds run along the array
_WIDE_STACK = 64

_SUPERSET_SUMS = np.array([[1.0, 1.0], [0.0, 1.0]])
_SUBSET_MOBIUS = np.array([[1.0, -1.0], [0.0, 1.0]])


def dist_exact(f: BooleanFunction, g: BooleanFunction) -> Fraction:
    """Exact fraction of points where f and g disagree."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    if f.n > MAX_DIST_N:
        raise ValueError(f"exact distance is capped at n <= {MAX_DIST_N}")
    diff = int(np.count_nonzero(f.truth_table() != g.truth_table()))
    return Fraction(diff, 1 << f.n)


def dist_to_t_symmetric(f: BooleanFunction, t: int) -> Fraction:
    """Min over |J| = t of the distance to the closest J-symmetric function:
    every layer of a ``_min_over_sets`` fold flips its minority,
    min(ones, C(t, w) - ones), scored in the fold's own type."""
    n = f.n
    if n > MAX_TSYM_N:
        raise ValueError(f"t-symmetric distance is capped at n <= {MAX_TSYM_N}")
    t = as_index(t, "t")
    if not 0 <= t <= n:
        raise ValueError("t outside 0..n")
    if t <= 1:
        return Fraction(0)  # no two variables to swap
    sizes = np.array([comb(t, w) for w in range(t + 1)], dtype=np.min_scalar_type(comb(t, t // 2)))
    sizes = sizes.reshape(-1, 1, 1)

    def minority(folds: np.ndarray) -> int:
        # A set's flips add up to at most 2^(n-1) <= 2^15, so uint16 holds every
        # partial sum.  numpy sums down a column a row at a time, so the first
        # sum reads rows of >= 1024 entries, and the second adds the few left
        flips = sizes - folds
        np.minimum(folds, flips, out=flips)
        sets = flips.shape[-1]
        rows = min(flips.shape[1], 1 << (-(-1024 // sets) - 1).bit_length())
        part = flips.reshape(-1, rows * sets).sum(axis=0, dtype=np.uint16)
        return int(part.reshape(rows, sets).sum(axis=0, dtype=np.uint16).min())

    return Fraction(_min_over_sets(f.truth_table(), n, t, minority), 1 << n)


def _min_over_sets(table: np.ndarray, n: int, t: int, score: Callable[[np.ndarray], int]) -> int:
    """Least ``score`` over the t-sets of an n-variable table.

    Variables fold out highest first (``influence._fold``), so a set of s
    variables, all above the next variable v, folds to an (s+1, 2^(n-s))
    array that still holds v at bit v.  The sets that can still reach t
    members are stacked per size s, and one ``_fold`` call at v moves a
    whole stack to s + 1, while the stack itself stays at s as long as the
    variables below v can fill it up.  Folds that reach t go to ``score`` at
    once, a (t+1, 2^(n-t), sets) stack with the other variables ascending on
    its second axis.  While the stacks below a variable would pass
    ``_TSYM_STACK_BYTES``, it is walked depth first instead, folded in and
    then left out.  A score of 0 ends the walk."""
    best = 1 << n

    def stacked(a: np.ndarray, s0: int, top: int) -> None:
        # stacks[s] is (s+1, 2^(n-s), room) with counts[s] sets filled in,
        # room for every set of s variables it will hold
        nonlocal best
        stacks, counts = {s0: a[..., None]}, {s0: 1}
        for v in range(top, -1, -1):
            for s in sorted(stacks, reverse=True):
                sets = stacks[s][..., : counts[s]]
                if s + 1 == t:
                    best = min(best, score(_fold(sets, v)))
                else:
                    if s + 1 not in stacks:
                        room = _stack_room(t, s0, top, s + 1)
                        shape = (s + 2, 1 << (n - s - 1))
                        if room < _WIDE_STACK:
                            stack = np.empty((room,) + shape, _fold_type(sets)).transpose(1, 2, 0)
                        else:
                            stack = np.empty(shape + (room,), _fold_type(sets))
                        stacks[s + 1], counts[s + 1] = stack, 0
                    c = counts[s + 1]
                    _fold(sets, v, out=stacks[s + 1][..., c : c + counts[s]])
                    counts[s + 1] = c + counts[s]
                if s + v < t:
                    del stacks[s]
            if best == 0:
                return

    def walk(a: np.ndarray, s: int, v: int) -> None:
        # a: the fold of s variables above v, which with v..0 can reach t
        nonlocal best
        if s + v + 1 == t:  # every variable left goes in
            for u in range(v, -1, -1):
                a = _fold(a, u)
            best = min(best, score(a[..., None]))
        elif s == t:
            best = min(best, score(a[..., None]))
        elif _stack_bytes(n, t, s, v) <= _TSYM_STACK_BYTES:
            stacked(a, s, v)
        else:
            walk(_fold(a, v), s + 1, v - 1)
            if best and s + v >= t:
                walk(a, s, v - 1)

    walk(table.reshape(1, -1), 0, n - 1)
    return best


def _stack_room(t: int, s0: int, top: int, s: int) -> int:
    """Sets a stack of size s holds at most when the stacks start from one
    set of s0 variables over variables top..0: that set and s - s0 of the
    variables t - s..top, the ones a set of size s can still take in."""
    return comb(top + 1 + s - t, s - s0)


def _stack_bytes(n: int, t: int, s0: int, top: int) -> int:
    """Bytes ``dist_to_t_symmetric`` holds at most on a 0/1 table while it
    stacks the folds of one set of s0 variables over variables top..0: the
    set's chain of folds, every stack at its full room, and the last fold
    with its flips."""

    def nbytes(s: int, sets: int) -> int:
        return np.dtype(_fold_type(np.empty((s, 0), np.uint8))).itemsize * (s + 1) * sets << (n - s)

    room = [_stack_room(t, s0, top, s) for s in range(s0 + 1, t)]
    stacks = sum(nbytes(s, c) for s, c in enumerate(room, s0 + 1))
    return sum(nbytes(s, 1) for s in range(1, s0 + 1)) + stacks + 2 * nbytes(t, room[-1] if room else 1)


def dist_to_k_junta(f: BooleanFunction, k: int) -> Fraction:
    """Min over |S| = k of the distance to the closest function on S only."""
    n = f.n
    if n > MAX_TSYM_N:
        raise ValueError(f"junta distance is capped at n <= {MAX_TSYM_N}")
    k = as_index(k, "k")
    if not 0 <= k <= n:
        raise ValueError("k outside 0..n")
    # above[T]: the ones of f among the points that contain T.  Both passes
    # run in float32, exact below 2^24: every pass value counts ones of f,
    # so no partial sum of a 16-term product passes 16 * 2^n <= 2^20 at n <= 16
    above = _kron(f.truth_table().reshape(1, -1), n, _SUPERSET_SUMS)[0]
    # one row per k-subset S, one column per T inside S: bit c of the column
    # is S's c-th smallest member; at most _JUNTA_BATCH moments at a time
    subsets = itertools.combinations(range(n), k)
    best = 1 << n
    while batch := list(itertools.islice(subsets, max(1, _JUNTA_BATCH >> k))):
        bits = 1 << np.array(batch, dtype=np.int64).reshape(len(batch), k)
        inside = np.zeros((len(batch), 1), dtype=np.int64)
        for c in range(k):
            inside = np.concatenate((inside, inside | bits[:, c : c + 1]), axis=1)
        # Moebius inversion inside S: ones[S, c] counts the ones of f whose bits on S spell c
        ones = _kron(above[inside], k, _SUBSET_MOBIUS)
        best = min(best, int(np.minimum(ones, (1 << (n - k)) - ones).sum(axis=1).min()))
    return Fraction(best, 1 << n)


def dist_to_iso_class(f_spec: PartiallySymmetricCore, g: BooleanFunction) -> Fraction:
    """Min distance from g to any relabeling of the core-form function.

    A relabeling is the ordered placement of the k core coordinates, and the
    other t = n - k variables are interchangeable: a k-set reads only its
    ``_min_over_sets`` fold A[w, y].  Ordering sigma (core bit c reads bit
    sigma[c] of y) misses sum core C(t, w) + sum (1 - 2 core[x_sigma(y), w])
    A[w, y] points, one float32 product of the k! signed core tables (refused
    past ``_TSYM_STACK_BYTES``) with the stack; no partial sum passes 2^16."""
    n = f_spec.n
    if g.n != n:
        raise ValueError("dimension mismatch")
    if n > MAX_ISO_N:
        raise ValueError(f"isomorphism-class distance is capped at n <= {MAX_ISO_N}")
    k, t, core = f_spec.k, n - f_spec.k, f_spec.core
    if factorial(k) * (t + 1) << (k + 2) > _TSYM_STACK_BYTES:
        raise ValueError(f"the k! signed core tables at k = {k} pass the {_TSYM_STACK_BYTES >> 20} MB budget")
    orders = np.array(list(itertools.permutations(range(k))), dtype=np.uint8)[:, None]
    x = ((np.arange(1 << k, dtype=np.uint8)[:, None] >> orders & 1) << np.arange(k, dtype=np.uint8)).sum(2, np.uint8)
    tables = np.where(core, np.float32(-1), np.float32(1))[x[:, None], np.arange(t + 1)[:, None]].reshape(len(x), -1)
    base = sum(comb(t, w) * int(ones) for w, ones in enumerate(core.sum(axis=0)))

    def misses(folds: np.ndarray) -> int:
        return base + int((tables @ folds.reshape(-1, folds.shape[-1]).astype(np.float32)).min())

    return Fraction(_min_over_sets(g.truth_table(), n, t, misses), 1 << n)


def _invariant_transposition(table: np.ndarray, i: int, j: int) -> bool:
    """Swapping x_i and x_j leaves the table unchanged: its (x_i, x_j) = 10
    and 01 slices agree.  Both are views of the table as (2,)*n, with the
    axes of the other variables merged.  A leading block of at most 4^3
    entries is compared first: most pairs of a dense table differ there."""
    lo, hi = sorted((i, j))
    cube = table.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    ten, one = cube[:, 1, :, 0], cube[:, 0, :, 1]
    lead = (slice(4),) * 3
    return bool(np.array_equal(ten[lead], one[lead]) and np.array_equal(ten, one))


def is_j_symmetric(f: BooleanFunction, members: Iterable[int]) -> bool:
    """Exhaustive check that f is unchanged by every permutation of J.

    The transpositions of neighbours in sorted J generate all of them.
    """
    n = f.n
    if n > MAX_CORE_N:
        raise ValueError(f"symmetry check is capped at n <= {MAX_CORE_N}")
    mem = indices_of(_as_mask(f, members))
    table = f.truth_table()
    return all(_invariant_transposition(table, a, b) for a, b in itertools.pairwise(mem))


def find_core(f: BooleanFunction) -> tuple[int, ...]:
    """Largest class of mutually interchangeable variables.

    Invariance under single transpositions is an equivalence relation here
    (invariances compose), and transpositions generate all permutations of a
    class, so the classes are exactly the maximal sets on which f is
    symmetric.  Ties break toward the class with the smallest member.
    """
    n = f.n
    if n > MAX_CORE_N:
        raise ValueError(f"core search is capped at n <= {MAX_CORE_N}")
    table = f.truth_table()
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # a pair already joined through others is invariant too: no test needed
    for i, j in itertools.combinations(range(n), 2):
        ri, rj = root(i), root(j)
        if ri != rj and _invariant_transposition(table, i, j):
            parent[ri] = rj
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(root(v), []).append(v)
    best = max(classes.values(), key=lambda c: (len(c), -min(c)))
    return tuple(sorted(best))


@dataclass(frozen=True)
class SetFamily:
    """Generator sets of a family over the ground set range(n)."""

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        for s in self.sets:
            if any(not 0 <= as_index(v, "set member") < self.n for v in s):
                raise ValueError("family member outside the ground set")

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        # members are checked before a set can merge a True into a 1
        return cls(n, tuple(frozenset(as_index(v, "set member") for v in s) for s in sets))


def is_t_intersecting(family: SetFamily, t: int) -> bool:
    """Every two members (a member with itself included) share >= t elements;
    t must be an integer >= 0 (``as_index``), or ``ValueError`` is raised."""
    t = as_index(t, "t")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    sets = family.sets
    for i in range(len(sets)):
        for j in range(i, len(sets)):
            if len(sets[i] & sets[j]) < t:
                return False
    return True


def mu_p(family: SetFamily, p) -> Fraction:
    """Biased measure of the family's upward closure.

    A p-biased random subset J belongs iff it contains some generator set.
    Exact enumeration of the ground cube, so capped at n <= 16; no sampled
    approximation is substituted.
    """
    n = family.n
    if n > MAX_MEASURE_N:
        raise ValueError(f"exact biased measure is capped at n <= {MAX_MEASURE_N}")
    pf = Fraction(p)
    if not 0 <= pf <= 1:
        raise ValueError("p outside [0, 1]")
    js = np.arange(1 << n, dtype=np.int64)
    member = np.zeros(1 << n, dtype=bool)
    for s in family.sets:
        m = mask_from_indices(s)
        member |= (js & m) == m
    counts = np.bincount(np.bitwise_count(js)[member], minlength=n + 1)
    total = Fraction(0)
    for s, c in enumerate(counts):
        if c:
            total += int(c) * pf**s * (1 - pf) ** (n - s)
    return total


def hypergeometric_pmf(n: int, m: int, k: int) -> list[Fraction]:
    """Exact law of the red count when drawing k of n balls, m of them red."""
    n, m, k = as_index(n, "n"), as_index(m, "m"), as_index(k, "k")
    if not (0 <= m <= n and 0 <= k <= n):
        raise ValueError("need 0 <= m <= n and 0 <= k <= n")
    denom = comb(n, k)
    return [Fraction(comb(m, i) * comb(n - m, k - i), denom) for i in range(k + 1)]


def binomial_pmf(k: int, p) -> list[Fraction]:
    """Exact law of successes in k trials at success probability p."""
    pf = Fraction(p)
    if as_index(k, "k") < 0 or not 0 <= pf <= 1:
        raise ValueError("need k >= 0 and p in [0, 1]")
    return [comb(k, i) * pf**i * (1 - pf) ** (k - i) for i in range(k + 1)]


def tv_exact(p, q) -> Fraction:
    """Total variation distance between two finite-support distributions.

    Accepts mappings keyed by outcome or sequences aligned by index (a
    sequence is read as the mapping from each index to its value); values
    must be exact (int or Fraction).
    """
    pm = dict(p) if isinstance(p, Mapping) else dict(enumerate(p))
    qm = dict(q) if isinstance(q, Mapping) else dict(enumerate(q))
    return sum(abs(Fraction(pm.get(key, 0)) - Fraction(qm.get(key, 0))) for key in pm.keys() | qm.keys()) / 2


def tv_hypergeometric_binomial(n: int, m: int, k: int) -> Fraction:
    """Exact distance between the k-draw hypergeometric law and its binomial
    match at success probability m/n."""
    if as_index(n, "n") <= 0:
        raise ValueError("need n >= 1")
    return tv_exact(hypergeometric_pmf(n, m, k), binomial_pmf(k, Fraction(m, n)))


__all__ = [
    "SetFamily",
    "binomial_pmf",
    "dist_exact",
    "dist_to_iso_class",
    "dist_to_k_junta",
    "dist_to_t_symmetric",
    "find_core",
    "hypergeometric_pmf",
    "is_j_symmetric",
    "is_t_intersecting",
    "mu_p",
    "tv_exact",
    "tv_hypergeometric_binomial",
]
