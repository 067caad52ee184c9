"""Independent brute-force oracles for the tests.

These deliberately avoid the package's layer/bucketing tricks: straight
double loops over points and explicitly enumerated permutations, so they can
serve as ground truth for the library's faster implementations.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np


def apply_perm_to_point(x: int, mapping, n: int) -> int:
    """y with y_{mapping[i]} = x_i."""
    y = 0
    for i in range(n):
        if (x >> i) & 1:
            y |= 1 << mapping[i]
    return y


def brute_influence(f, members) -> Fraction:
    """Enumerate every (x, rerandomized y_J) pair."""
    n = f.n
    members = sorted(members)
    j = len(members)
    hits = 0
    for x in range(1 << n):
        for ybits in range(1 << j):
            z = x
            for pos, var in enumerate(members):
                z &= ~(1 << var)
                z |= ((ybits >> pos) & 1) << var
            hits += f(x) != f(z)
    return Fraction(hits, 1 << (n + j))


def brute_syminf(f, members) -> Fraction:
    """Enumerate every x and every permutation of the J coordinates."""
    n = f.n
    members = sorted(members)
    hits = 0
    total = 0
    for perm in permutations(members):
        mapping = list(range(n))
        for src, dst in zip(members, perm):
            mapping[src] = dst
        for x in range(1 << n):
            hits += f(x) != f(apply_perm_to_point(x, mapping, n))
            total += 1
    return Fraction(hits, total)


def split_table(table: np.ndarray, n: int, cols) -> np.ndarray:
    """A table as a (2^(n-j), 2^j, ...) array, j = len(cols), by one axis
    move of its (2,)*n cube: column bit c is variable ``cols[c]``, and the
    row index holds the other variables in ascending order, lowest bit
    first.  Axes past the first are kept, so a stack of tables splits at
    once."""
    j = len(cols)
    cube = table.reshape((2,) * n + table.shape[1:])
    cube = np.moveaxis(cube, [n - 1 - v for v in reversed(cols)], range(n - j, n))
    return cube.reshape((1 << (n - j), 1 << j) + table.shape[1:])


def brute_dist(f, g) -> Fraction:
    n = f.n
    hits = sum(f(x) != g(x) for x in range(1 << n))
    return Fraction(hits, 1 << n)


def strong_core_spec(n: int):
    """Two-asymmetric-variable instance whose variables are easy to locate:
    f(x) = x_a xor (x_b and parity of the symmetric block)."""
    import psymtest as pt

    a, b = (5, 11) if n > 12 else (2, 5)
    core = np.zeros((4, n - 1), dtype=np.uint8)
    for xc in range(4):
        for w in range(n - 1):
            core[xc, w] = (xc & 1) ^ (((xc >> 1) & 1) & (w & 1))
    return pt.PartiallySymmetricCore(n, 2, (a, b), core)


def random_junta(n: int, k: int, relevant, table_bits):
    """k-junta as a core-form function whose core ignores the weight."""
    import psymtest as pt

    rows = np.asarray(table_bits, dtype=np.uint8).reshape(1 << k, 1)
    core = np.repeat(rows, n - k + 1, axis=1)
    return pt.PartiallySymmetricCore(n, k, tuple(relevant), core)


def reference_unrank(table, w: int, u: int):
    """The sampler table's rank walk one part at a time, in Python ints: the
    parts taken by the u-th valid weight-w point, as one mask, and the
    point's workspace weight s."""
    y = 0
    for i, part in enumerate(table.parts):
        skip = int(table.suffix[i + 1, w])
        if u >= skip:
            u -= skip
            w -= table.sizes[i]
            y |= part
    if w < 0 or u >= int(table.suffix[-1, w]):
        raise RuntimeError("rank walk ended off its rank")
    return y, w


def member_rejection_cause(v, core_mask: int) -> str | None:
    """What can make a run on a member reject, fixed by its partition and
    workspace before any query: "workspace" when the rule 2 r |W| >= n
    fails, "meets core" when the workspace holds a core variable, or None."""
    part = v.partition.parts[v.workspace]
    if 2 * v.partition.r * part.bit_count() < v.partition.n:
        return "workspace"
    return "meets core" if part & core_mask else None


def reference_vote(xs, ws, zs, core: np.ndarray, k: int):
    """The isomorphism vote sample by sample: every assignment in
    ``permutations(range(k))`` order reads each sample's core row (sample
    bit ``assignment[c]`` feeds core bit c), and the first with the most
    agreeing z wins.  Returns it and its exact fraction."""
    xs = np.asarray(xs, dtype=np.int64)
    best = None
    for assignment in permutations(range(k)):
        xc = np.zeros(len(xs), dtype=np.int64)
        for c, slot in enumerate(assignment):
            xc |= ((xs >> slot) & 1) << c
        agree = Fraction(int(np.count_nonzero(core[xc, ws] == zs)), len(xs))
        if best is None or agree > best[1]:
            best = assignment, agree
    return best
