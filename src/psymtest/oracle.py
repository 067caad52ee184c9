"""Brute-force ground truths for certifying test instances at small n.

Everything here enumerates, so the caps are tight; results are exact
(integer counts, rational results).  Table routines read the whole truth
table with array operations, never point by point: the split of
``influence._split`` (one column per assignment to a few chosen variables,
one row per assignment to the rest; isomorphism-class distance), slices of
the table viewed as (2,)*n (transpositions), the one-variable folds of
``influence._fold`` (t-symmetric distance: the t-subsets share the folds of
their common prefixes, which hold uint8 sums through t = 10 and uint16 up to
the cap t = 16, and each is scored in that type), or the tensor-power passes
of ``influence._kron`` (junta distance: superset sums over the table, then a
Moebius inversion inside every k-subset at once; in float32, exact because
no partial sum passes 8 * 2^n <= 2^19 at n <= 16).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

import numpy as np

from ._bits import mask_from_indices
from .boolfn import BooleanFunction, PartiallySymmetricCore
from .influence import _fold, _kron, _split

MAX_DIST_N = 22
MAX_TSYM_N = 16
MAX_ISO_N = 10
MAX_CORE_N = 16
MAX_MEASURE_N = 16

# subset moments gathered per batch of the junta distance
_JUNTA_BATCH = 1 << 20

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
    """Min over |J| = t of the distance to the closest J-symmetric function.

    The t-subsets come in descending order, each one listed highest member
    first, and keep a stack of partial folds (``influence._fold``): a subset
    folds only the members past the prefix it shares with the previous one,
    and every layer then flips its minority, min(ones, C(t, w) - ones).
    """
    n = f.n
    if n > MAX_TSYM_N:
        raise ValueError(f"t-symmetric distance is capped at n <= {MAX_TSYM_N}")
    if not 0 <= t <= n:
        raise ValueError("t outside 0..n")
    # the layer sizes in the folds' own type (see ``_fold``), so that scoring casts nothing
    sizes = np.array([[comb(t, w)] for w in range(t + 1)], dtype=np.min_scalar_type(comb(t, t // 2)))
    folds = [f.truth_table().reshape(1, -1)]
    prev: tuple[int, ...] = ()
    best = 1 << n
    for members in itertools.combinations(range(n - 1, -1, -1), t):
        shared = next((i for i, (a, b) in enumerate(zip(prev, members)) if a != b), len(prev))
        del folds[shared + 1 :]
        for v in members[shared:]:
            folds.append(_fold(folds[-1], v))
        prev = members
        ones = folds[-1]
        best = min(best, int(np.minimum(ones, sizes - ones).sum()))
        if best == 0:
            break
    return Fraction(best, 1 << n)


def dist_to_k_junta(f: BooleanFunction, k: int) -> Fraction:
    """Min over |S| = k of the distance to the closest function on S only."""
    n = f.n
    if n > MAX_TSYM_N:
        raise ValueError(f"junta distance is capped at n <= {MAX_TSYM_N}")
    if not 0 <= k <= n:
        raise ValueError("k outside 0..n")
    # above[T]: the ones of f among the points that contain T.  Both passes
    # run in float32, exact below 2^24: every pass value counts ones of f,
    # so no partial sum of an 8-term product passes 8 * 2^n <= 2^19 at n <= 16
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

    A relabeling is determined by the ordered placement of the k core
    coordinates; the symmetric block is interchangeable.
    """
    n = f_spec.n
    if g.n != n:
        raise ValueError("dimension mismatch")
    if n > MAX_ISO_N:
        raise ValueError(f"isomorphism-class distance is capped at n <= {MAX_ISO_N}")
    k = f_spec.k
    g_table = g.truth_table()
    # split rows are the symmetric block's assignments, columns the core's
    core = f_spec.core.T[np.bitwise_count(np.arange(1 << (n - k)))]
    best = Fraction(1)
    for placement in itertools.permutations(range(n), k):
        diff = int(np.count_nonzero(_split(g_table, n, placement) != core))
        d = Fraction(diff, 1 << n)
        if d < best:
            best = d
            if best == 0:
                break
    return best


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
    mem = sorted(set(int(v) for v in members))
    if mem and not (0 <= mem[0] and mem[-1] < n):
        raise ValueError("set members outside range(n)")
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
            if any(not 0 <= v < self.n for v in s):
                raise ValueError("family member outside the ground set")

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(n, tuple(frozenset(int(v) for v in s) for s in sets))


def is_t_intersecting(family: SetFamily, t: int) -> bool:
    """Every two members (a member with itself included) share >= t elements."""
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
    if not (0 <= m <= n and 0 <= k <= n):
        raise ValueError("need 0 <= m <= n and 0 <= k <= n")
    denom = comb(n, k)
    return [Fraction(comb(m, i) * comb(n - m, k - i), denom) for i in range(k + 1)]


def binomial_pmf(k: int, p) -> list[Fraction]:
    """Exact law of successes in k trials at success probability p."""
    pf = Fraction(p)
    if k < 0 or not 0 <= pf <= 1:
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
    if n <= 0:
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
