"""Randomized query-access testers.

``junta_test`` looks for parts of a random partition that contain relevant
variables; ``partially_symmetric_test`` looks for parts containing asymmetric
variables, using weight-preserving permutations so the workspace part absorbs
the surplus.  Both accept when at most k parts are identified.

Both testers run one probe loop, ``_Probe.find_parts``: draw a block of
uniform points as a word array (any n), draw each point's partner on the
unidentified parts (rerandomized or permuted bits), evaluate both ends, and
hand the first value flip to the tester's localization, which names a part;
more than k parts end the loop.  The Monte Carlo estimators in
``influence`` draw their pairs with the same step.  ``_Probe.verdict``
reports logical queries, the evaluations a pair-at-a-time tester makes: a
block whose first flip is at row h costs 2(h + 1), a block with no flip
costs two per row, and localization queries come on top.  The evaluations
past a block's first flip are reported separately as ``speculative``, so
the oracle reads ``queries + speculative`` evaluations in all.

Both localizations binary-search a chain from x to its partner with
``_bisect``, which builds a point only when it reads it.  The junta chain
takes the partner's bits on a growing prefix of the unidentified parts.  The
psym chain is weight-preserving: its schedule (the part settled at each
step, the union of the settled chunks, the workspace weight) is integer
bookkeeping made in one pass and checked at every step, and each point read
gets a uniform workspace fill and a Hamming-weight check.  The psym partners
come from ``rearrange_bits_block``, which matches rows to uniform pool words
of equal weight (exact, integer-only) once a block reaches a few hundred
rows.  ``_Probe.verdict`` alone checks the query budgets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil, inf, log2
from typing import Callable, Iterable

import numpy as np

from ._bits import (
    as_index,
    as_real,
    block_points,
    from_words,
    indices_of,
    mask_from_indices,
    random_masks_u64,
    rearrange_bits,
    rearrange_bits_block,
    to_words,
)
from .boolfn import BooleanFunction, CountingFunction

_BLOCK_START = 64
_BLOCK_CAP = 1 << 14


@dataclass(frozen=True)
class TesterConfig:
    """Multipliers for the hidden constants of the testers.

    ``c_parts`` scales the partition size, ``c_iters`` the main loop length.
    The defaults are calibrated so the statistical contracts hold at the
    sample sizes used in the acceptance suite.
    """

    __test__ = False  # keep pytest from collecting the class

    c_parts: float = 3.0
    c_iters: float = 24.0

    def __post_init__(self):
        as_real(self.c_parts, "c_parts", 1, inf, closed=True)
        as_real(self.c_iters, "c_iters", 1, inf, closed=True)


@dataclass
class Partition:
    """Disjoint parts covering range(n), n >= 1, each an int bit mask and
    held in no other form (``indices_of`` lists a part's variables); parts
    may be empty.  Parts given as NumPy integers are stored as ints."""

    n: int
    parts: list[int]

    def __post_init__(self):
        self.n = as_index(self.n, "n", 1)
        union = 0
        total = 0
        for mask in self.parts:
            if mask.__class__ is not int:
                # check every part, then start over on their ints
                self.parts = [as_index(m, "part") for m in self.parts]
                return self.__post_init__()
            union |= mask
            total += mask.bit_count()
        if union != (1 << self.n) - 1 or total != self.n:
            raise ValueError("parts must be disjoint and cover range(n)")
        self._chunks: dict[int, list[tuple[int, int]]] = {}

    @property
    def r(self) -> int:
        return len(self.parts)

    def size(self, i: int) -> int:
        return self.parts[i].bit_count()

    def index(self, p, name: str) -> int:
        """``p`` as a part index: an integer in 0..r-1 (``as_index``, naming
        ``name``)."""
        return as_index(p, name, 0, self.r - 1)

    def free(self, taken: Iterable[int]) -> list[int]:
        """The nonempty parts outside ``taken``, in index order."""
        taken = set(taken)
        return [p for p, mask in enumerate(self.parts) if mask and p not in taken]

    def chunks(self, workspace: int) -> list[tuple[int, int]]:
        """Each free part outside the workspace in pieces of at most ceil(|W|/4).

        Returns (owner part index, chunk mask) pairs; owners repeat when a
        part splits.  Small pieces keep every weight adjustment within the
        slack the workspace can absorb.
        """
        if workspace not in self._chunks:
            cap = max(1, -(-self.size(workspace) // 4))
            out = []
            for p in self.free([workspace]):
                mask = self.parts[p]
                if mask.bit_count() <= cap:
                    out.append((p, mask))
                    continue
                pos = indices_of(mask)
                for start in range(0, len(pos), cap):
                    out.append((p, mask_from_indices(pos[start : start + cap])))
            self._chunks[workspace] = out
        return self._chunks[workspace]


def random_partition(n: int, r: int, rng: np.random.Generator) -> Partition:
    """Assign each index independently and uniformly among r parts.

    Once r >= n there is nothing to gain from collisions, so the partition
    degenerates to the n single-element sets.
    """
    n, r = as_index(n, "n", 1), as_index(r, "r", 1)
    if r >= n:
        return Partition(n, [1 << i for i in range(n)])
    parts = [0] * r
    for i, p in enumerate(rng.integers(0, r, size=n).tolist()):
        parts[p] |= 1 << i
    return Partition(n, parts)


@dataclass
class TestVerdict:
    __test__ = False  # keep pytest from collecting the class

    accepted: bool
    queries: int
    found_parts: list[int]
    partition: Partition
    workspace: int | None = None
    failure_reason: str | None = None
    speculative: int = 0


def _scaled_count(count: float, field: str, cfg: TesterConfig, eps: float, power: int) -> int:
    """``ceil(count / eps^power)``, power 0, 1 or 2, for a count that the
    multiplier ``field`` of cfg scales; ``ValueError`` naming eps and the
    multiplier when eps^power underflows to 0 (eps^2 below about 1e-162) or
    the quotient passes the float range."""
    divisor = (1.0, eps, eps * eps)[power]
    if divisor == 0 or count / divisor == inf:
        value = getattr(cfg, field)
        raise ValueError(f"eps = {eps} with multiplier {field} = {value} gives a count past the float range")
    return ceil(count / divisor)


def _rounds(cfg: TesterConfig, k: int, eps: float) -> int:
    return _scaled_count(cfg.c_iters * max(k, 1), "c_iters", cfg, eps, 1)


# ---------------------------------------------------------------------------
# The probe loop

# maps a block of points to a block of partners
Partner = Callable[[np.ndarray], np.ndarray]


def _rerandomized(xs: np.ndarray, n: int, mask: int, rng: np.random.Generator) -> np.ndarray:
    """Partner that keeps the bits of ``xs`` outside ``mask`` and draws
    fresh uniform bits inside it."""
    m = to_words(mask, xs.shape[1])
    return (xs & ~m) | (random_masks_u64(n, len(xs), rng) & m)


def _pair_block(f: BooleanFunction, b: int, partner: Partner, rng: np.random.Generator):
    """b uniform points, their partners, and the value of f at both ends."""
    xs = random_masks_u64(f.n, b, rng)
    ys = partner(xs)
    return xs, ys, f.eval_many(block_points(xs)), f.eval_many(block_points(ys))


class _Probe:
    """The testers' probe loop over doubling blocks of query pairs, with its
    counting oracle ``f`` and its verdict.

    A block starts at ``_BLOCK_START`` rows and doubles, up to a cap set by
    the round count and k, while no pair flips f.  The first flip ends its
    block and is handed to the tester's localization before the next block
    is drawn, and that block starts small again.  The rows after a flip were
    evaluated but are not queries of the pair-at-a-time tester;
    ``speculative`` counts them.
    """

    def __init__(self, f: BooleanFunction, k: int, eps: float, cfg: TesterConfig):
        self.f = CountingFunction(f)
        self.k = k
        self.rounds = _rounds(cfg, k, eps)
        self.max_block = min(_BLOCK_CAP, max(_BLOCK_START, self.rounds // (8 * (k + 1))))
        self.speculative = 0

    def find_parts(self, partition: Partition, partner, locate, rng: np.random.Generator) -> list[int]:
        """Identified parts, in order, once the rounds run out or more than k
        are found.  ``partner(xs, jbar_mask)`` draws a block's partners from
        the bits of the unidentified parts; ``locate(x, y, f(x), found)``
        names the part a flipping pair points to, or None.
        """
        found: list[int] = []
        jbar_mask = (1 << partition.n) - 1
        consumed = 0
        block = _BLOCK_START
        while consumed < self.rounds and len(found) <= self.k:
            b = min(block, self.rounds - consumed)
            xs, ys, fx, fy = _pair_block(self.f, b, lambda xs: partner(xs, jbar_mask), rng)
            flips = np.flatnonzero(fx != fy)
            if not len(flips):
                consumed += b
                block = min(block * 2, self.max_block)
                continue
            h = int(flips[0])
            consumed += h + 1
            self.speculative += 2 * (b - h - 1)
            block = _BLOCK_START
            part = locate(from_words(xs[h]), from_words(ys[h]), int(fx[h]), found)
            if part is not None:
                found.append(part)
                jbar_mask ^= partition.parts[part]
        return found

    def verdict(self, found: list[int], partition: Partition, bound: int, workspace=None) -> TestVerdict:
        """The verdict on ``found``; logical queries past ``bound`` raise."""
        queries = self.f.count - self.speculative
        if queries > bound:
            raise RuntimeError(f"query count {queries} exceeds budget {bound}")
        reason = None if len(found) <= self.k else "too_many_parts"
        return TestVerdict(reason is None, queries, found, partition, workspace, reason, self.speculative)


def _bisect(g: BooleanFunction, fx: int, t: int, point: Callable[[int], int]) -> int:
    """Binary-search a chain of t steps for one that flips g.

    Chain point 0 reads ``fx`` and point t does not; ``point(i)`` builds the
    point i (0 < i < t) and is called only for the points the search reads,
    at most ceil(log2 t) of them.  Returns the step i (0 <= i < t) such that
    g reads ``fx`` at point i and not at point i + 1.
    """
    lo, hi = 0, t
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(point(mid)) != fx:
            hi = mid
        else:
            lo = mid
    return lo


# ---------------------------------------------------------------------------
# Junta testing


def junta_query_bound(rounds: int, r: int, k: int) -> int:
    """Worst-case query budget: every round costs two probes, and each of at
    most k + 1 hits binary-searches at most r parts."""
    return 2 * rounds + (k + 1) * ceil(log2(max(r, 2)))


def junta_test(
    f: BooleanFunction,
    k: int,
    eps: float,
    rng: np.random.Generator,
    cfg: TesterConfig | None = None,
) -> TestVerdict:
    """Accepts every k-junta; rejects functions far from all k-juntas.

    Each round rerandomizes the coordinates outside the identified parts and,
    when the value flips, binary-searches the affected part.  Rejects as soon
    as more than k parts are identified, with
    ``failure_reason="too_many_parts"``.
    """
    cfg = cfg or TesterConfig()
    k = as_index(k, "k", 0)
    as_real(eps, "eps", 0, 1)
    n = f.n
    r = max(1, _scaled_count(cfg.c_parts * k * k, "c_parts", cfg, eps, 0))
    partition = random_partition(n, r, rng)
    probe = _Probe(f, k, eps, cfg)

    def locate(x: int, z: int, fx: int, found: list[int]) -> int:
        # hybrid point i takes z's bits on the first i unidentified parts
        order = partition.free(found)
        cum = [0]
        for p in order:
            cum.append(cum[-1] | partition.parts[p])
        return order[_bisect(probe.f, fx, len(order), lambda i: (x & ~cum[i]) | (z & cum[i]))]

    found = probe.find_parts(partition, lambda xs, jbar: _rerandomized(xs, n, jbar, rng), locate, rng)
    return probe.verdict(found, partition, junta_query_bound(probe.rounds, partition.r, k))


# ---------------------------------------------------------------------------
# Partial-symmetry testing


def _chain_schedule(
    x: int, y: int, partition: Partition, workspace: int
) -> tuple[list[int], list[int], list[int]]:
    """The weight-preserving chain x = x^0, ..., x^t = y as integers.

    Step i settles the i-th chunk to y's bits and parks the weight difference
    in the workspace; the final step also aligns the workspace itself.  The
    order depends only on each differing chunk's ones deficit d: chunks with
    d != 0 alternate between surplus (d < 0) and deficit (d > 0) while the
    workspace can absorb them, each side first come first served, chunks
    with d == 0 come when nothing else fits, and the last chunk is always
    taken.  Returns the step owners, the
    prefix unions ``cum[i]`` of the first i chunks, and the workspace weight
    of every point.
    """
    if x.bit_count() != y.bit_count():
        raise ValueError("endpoints must have equal weight")
    w_size = partition.size(workspace)
    queues = (deque(), deque(), deque())  # surplus d < 0, deficit d > 0, zero d == 0
    moved = x ^ y
    for owner, cmask in partition.chunks(workspace):
        if moved & cmask:
            d = (y & cmask).bit_count() - (x & cmask).bit_count()
            queues[0 if d < 0 else 1 if d > 0 else 2].append((owner, cmask, d))
    owners: list[int] = []
    cum = [0]
    wts = [(x & partition.parts[workspace]).bit_count()]
    orders = (queues, (queues[1], queues[0], queues[2]))
    want = 0  # surplus first, then the other side after every nonzero step
    for pending in range(sum(map(len, queues)), 0, -1):
        for q in orders[want]:
            if q and (pending == 1 or 0 <= wts[-1] - q[0][2] <= w_size):
                break
        else:
            raise RuntimeError("no feasible chunk; cannot happen for |W| >= n/(2r)")
        owner, cmask, d = q.popleft()
        owners.append(owner)
        cum.append(cum[-1] | cmask)
        wts.append(wts[-1] - d)
        if d:
            want = int(d < 0)
    return owners, cum, wts


def _locate_asymmetric_part(
    g: BooleanFunction,
    x: int,
    y: int,
    partition: Partition,
    j_parts: Iterable[int],
    workspace: int,
    fx: int,
    rng: np.random.Generator,
) -> int | None:
    """Binary-search the weight-preserving chain from x to y for the step
    that flips f, and return the part that owns it.

    Point i takes y's bits on ``cum[i]`` and x's bits elsewhere outside the
    workspace W, and a fresh uniform fill of the scheduled weight inside W.
    A point is built only when the search reads it, so a localization makes
    at most ceil(log2 t) workspace fills; the fills do not depend on f, so
    the points the search visits keep their joint law.  When x and y differ
    only inside W, the step goes to the first free part outside W and the
    identified parts (``Partition.free``), if any.
    """
    owners, cum, wts = _chain_schedule(x, y, partition, workspace)
    w_mask = partition.parts[workspace]
    w_size = partition.size(workspace)
    weight = x.bit_count()
    ox, diff = x & ~w_mask, (x ^ y) & ~w_mask
    if not owners:
        if diff:
            raise RuntimeError("chain endpoints differ outside the workspace")
        owner = next(iter(partition.free([workspace, *j_parts])), None)
        if owner is None:
            return None
    else:
        for c, w in zip(cum, wts):
            if not 0 <= w <= w_size:
                raise RuntimeError(f"workspace weight {w} outside 0..{w_size}")
            if (ox ^ (diff & c)).bit_count() + w != weight:
                raise RuntimeError("chain step changed the Hamming weight")
        if diff & ~cum[-1] or wts[-1] != (y & w_mask).bit_count():
            raise RuntimeError("chain did not end at its endpoint")
        w_positions = indices_of(w_mask)

        def chain_point(i: int) -> int:
            point = ox ^ (diff & cum[i])
            if wts[i] == w_size:
                point |= w_mask
            elif wts[i]:
                point |= mask_from_indices(rng.choice(w_positions, size=wts[i], replace=False))
            if point.bit_count() != weight:
                raise RuntimeError("chain step changed the Hamming weight")
            return point

        owner = owners[_bisect(g, fx, len(owners), chain_point)]
    if owner == workspace or owner in j_parts:
        raise RuntimeError(f"step owner {owner} is the workspace or an identified part")
    return owner


def _workspace_fits(partition: Partition, workspace: int) -> bool:
    """The rule 2 r |W| >= n under which ``_chain_schedule`` always fits."""
    return 2 * partition.r * partition.size(workspace) >= partition.n


def find_asymmetric_set(
    f: BooleanFunction,
    partition: Partition,
    j_parts: Iterable[int],
    workspace: int,
    rng: np.random.Generator,
) -> int | None:
    """One probe for a part holding an asymmetric variable.

    Draws x and a uniform permutation of the coordinates outside the
    identified parts; on a value flip, binary-searches the weight-preserving
    chain and returns the part whose step flipped f.  Succeeds with probability equal
    to the symmetric influence of the unidentified coordinates.  Part
    indices outside 0..r-1 raise ``ValueError`` (``Partition.index``).
    """
    workspace = partition.index(workspace, "workspace")
    j_parts = [partition.index(p, "identified part") for p in j_parts]
    if partition.n != f.n:
        raise ValueError(f"a partition of {partition.n} variables for a function of {f.n}")
    if workspace in j_parts:
        raise ValueError("workspace cannot be an identified part")
    n = f.n
    if not _workspace_fits(partition, workspace):
        raise ValueError("workspace too small (needs |W| >= n / (2r))")
    jbar_mask = (1 << n) - 1
    for p in j_parts:
        jbar_mask &= ~partition.parts[p]
    x = from_words(random_masks_u64(n, 1, rng)[0])
    y = rearrange_bits(x, jbar_mask, rng)
    fx = f(x)
    if f(y) == fx:
        return None
    return _locate_asymmetric_part(f, x, y, partition, j_parts, workspace, fx, rng)


def psym_partition_size(n: int, k: int, eps: float, cfg: TesterConfig) -> int:
    """Part count for the partial-symmetry tester: next odd >= c_parts k^2 / eps^2."""
    k = as_index(k, "k", 0)
    r = max(3, _scaled_count(cfg.c_parts * k * k, "c_parts", cfg, eps, 2))
    return r if r % 2 == 1 else r + 1


def psym_query_bound(rounds: int, r: int, n: int, w_size: int) -> int:
    """Worst-case query budget: every round costs two probes plus, on a hit,
    a binary search over at most r + 4n/|W| chunks."""
    t_bound = max(2, r + ceil(4 * n / w_size))
    return rounds * (2 + ceil(log2(t_bound)))


def partially_symmetric_test(
    f: BooleanFunction,
    k: int,
    eps: float,
    rng: np.random.Generator,
    cfg: TesterConfig | None = None,
) -> TestVerdict:
    """Tests whether all but at most k < n/2 variables are interchangeable.

    Draws a random partition with an odd number of parts and a random
    workspace; too small a workspace rejects immediately with
    ``failure_reason="workspace"``.  Each round permutes the coordinates
    outside the identified parts and attributes any value flip to a part;
    more than k identified parts reject with
    ``failure_reason="too_many_parts"``.  The verdict keeps the partition,
    workspace, and parts for reuse by the core sampler.

    A member (an (n-k)-symmetric f) is rejected for one of two causes
    only: the workspace meets the core, or the rule 2 r |W| >= n fails.  A
    run whose workspace misses the core and passes the rule accepts.  At
    k = 2 and eps = 0.1 (r = 1201, so the partition is n singletons up to
    n = 1200) the workspace meets the core with chance k/n: 32 of 200
    seeds rejected at n = 14 and 3 at n = 64.  Past n = r, |W| is
    Binomial(n, 1/r), and the rule failed on 30 of 200 seeds at n = 4096
    and 4 at n = 16384.
    """
    cfg = cfg or TesterConfig()
    n = f.n
    k = as_index(k, "k", 0, (n - 1) // 2)
    as_real(eps, "eps", 0, 1)
    r = psym_partition_size(n, k, eps, cfg)
    partition = random_partition(n, r, rng)
    workspace = int(rng.integers(0, partition.r))
    if not _workspace_fits(partition, workspace):
        return TestVerdict(False, 0, [], partition, workspace, failure_reason="workspace")

    probe = _Probe(f, k, eps, cfg)
    found = probe.find_parts(
        partition,
        lambda xs, jbar: rearrange_bits_block(xs, jbar, rng),
        lambda x, y, fx, found: _locate_asymmetric_part(probe.f, x, y, partition, found, workspace, fx, rng),
        rng,
    )
    bound = psym_query_bound(probe.rounds, partition.r, n, partition.size(workspace))
    return probe.verdict(found, partition, bound, workspace)


__all__ = [
    "Partition",
    "TesterConfig",
    "TestVerdict",
    "find_asymmetric_set",
    "junta_query_bound",
    "junta_test",
    "partially_symmetric_test",
    "psym_partition_size",
    "psym_query_bound",
    "random_partition",
]
