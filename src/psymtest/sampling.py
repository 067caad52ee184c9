"""Core sampling for nearly partially symmetric functions.

The reference law on the core domain pairs a uniform k-bit value with an
independent Binomial(n - k, 1/2) weight.  The constrained input law draws a
binomial Hamming weight and then a uniform point among those whose
non-workspace parts are each constant; one query at such a point yields a
core triplet whose marginal approaches the reference law.

A handle holds the function, the partition, the workspace W and the parts
acting as asymmetric slots; its n is the partition's and its k the number
of slots.  It keeps one exact subset-sum table over the slot parts, then
the other nonempty non-workspace parts, whose base row C(|W|, s) counts the
workspace fills of each weight s.  A draw walks one uniform rank through
the parts to a set of them and an s, puts s ones on the lowest workspace
variables, and one ``rearrange_bits_block`` call over the batch spreads
them uniformly over W; the sampler's exact (x, w) law is read from the
counts of the parts after the slots.  When every non-workspace part is a
singleton the law is uniform on the cube, a batch is one block of uniform
words and the table is never built.  Either way x and w are read off the
word block and the batch is one ``eval_many`` call, returned as the x, w
and z int64 arrays that the isomorphism vote reads; a single draw is the
first row of a one-draw batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Sequence

import numpy as np

from ._bits import (
    as_index,
    block_points,
    block_weights,
    indices_of,
    random_mask,
    random_masks_u64,
    randrange_bigint,
    rearrange_bits_block,
)
from .boolfn import BooleanFunction
from .testers import Partition, TesterConfig, TestVerdict, partially_symmetric_test


@dataclass(frozen=True)
class CoreSample:
    """One draw from a function's core: asymmetric values ``x`` (a k-bit
    mask), the weight ``w`` of the symmetric block, and the queried bit."""

    x: int
    w: int
    z: int


class SamplerRejected(Exception):
    """The preprocessing test rejected the function."""

    def __init__(self, verdict: TestVerdict):
        super().__init__("partial-symmetry test rejected the function")
        self.verdict = verdict


def sample_dstar(n: int, k: int, rng: np.random.Generator) -> tuple[int, int]:
    """Reference core draw: uniform x over {0,1}^k, w ~ Binomial(n-k, 1/2)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return random_mask(k, rng), int(rng.binomial(n - k, 0.5))


def dstar_pmf(n: int, k: int) -> dict[tuple[int, int], Fraction]:
    """Exact reference mass of every (x, w) pair."""
    return {(x, w): Fraction(comb(n - k, w), 1 << n) for x in range(1 << k) for w in range(n - k + 1)}


def _suffix_ways(sizes: Sequence[int], width: int) -> list[list[int]]:
    """suffix[i][s] counts the pairs (a set of parts i.., a subset of a
    width-variable workspace) with total size s; the last row is C(width, s)."""
    row = [comb(width, s) for s in range(width + 1)] + [0] * sum(sizes)
    suffix = [row]
    for size in reversed(sizes):
        row = [a + b for a, b in zip(row, [0] * size + row)]
        suffix.append(row)
    return suffix[::-1]


class _SubsetSumTable:
    """Exact counts, by weight, of the points whose non-workspace parts are
    each constant, for one (partition, workspace, slots), and the walk that
    turns a rank among them back into a set of parts.

    The parts are the slot parts in order, then the other nonempty
    non-workspace parts; a valid point is a set of parts plus s of the |W|
    workspace variables.  ``suffix`` counts those by part and weight; it is
    built on first use, which a singleton handle never makes.
    """

    def __init__(self, partition: Partition, workspace: int, slots: Sequence[int]):
        if not 0 <= workspace < partition.r:
            raise ValueError("workspace is not a part index")
        others = (p for p in range(partition.r) if p != workspace and partition.parts[p] and p not in slots)
        self.parts = [partition.parts[p] for p in (*slots, *others)]
        self.sizes = [part.bit_count() for part in self.parts]
        self.workspace = partition.parts[workspace]
        # binomial weight + uniform valid point collapses to a uniform point
        self.uniform = all(size == 1 for size in self.sizes)
        self.n = partition.n

    @cached_property
    def suffix(self) -> list[list[int]]:
        return _suffix_ways(self.sizes, self.workspace.bit_count())

    @cached_property
    def fills(self) -> list[int]:
        """fills[s] sets the lowest s workspace variables."""
        fills = [0]
        for pos in indices_of(self.workspace):
            fills.append(fills[-1] | 1 << pos)
        return fills

    def count(self, w: int) -> int:
        """Number of valid weight-w points."""
        return self.suffix[0][w]

    def unrank(self, w: int, u: int) -> tuple[int, int]:
        """The parts taken by the u-th valid weight-w point, u in
        [0, count(w)), as one mask, and the point's workspace weight s; each
        (parts, s) is reached by C(|W|, s) consecutive ranks.

        At part i with weight w left, the ranks below suffix[i + 1][w]
        leave the part out and the rest take it; the walk must end with
        s >= 0 and u < C(|W|, s), which is 0 past s = |W|.
        """
        suffix = self.suffix
        y = 0
        for i, part in enumerate(self.parts):
            skip = suffix[i + 1][w]
            if u >= skip:
                u -= skip
                w -= self.sizes[i]
                y |= part
        if w < 0 or u >= suffix[-1][w]:
            raise RuntimeError("rank walk ended off its rank")
        return y, w

    def block(self, weights: Iterable[int], rng: np.random.Generator) -> np.ndarray:
        """One uniform valid weight-w point per weight w, all zeros when
        there is none, as a word block.

        A row takes the parts and s of one uniform rank, and ``fills[s]``;
        one ``rearrange_bits_block`` call then spreads every row's ones
        uniformly over the workspace.  Each weight is read just before its
        row's rank, so weights drawn lazily from ``rng`` interleave with them.
        """
        nbytes = 8 * ((self.n + 63) // 64)
        rows = bytearray()
        for w in weights:
            total = self.count(w)
            y, s = self.unrank(w, randrange_bigint(total, rng)) if total else (0, 0)
            rows += (y | self.fills[s]).to_bytes(nbytes, "little")
        block = np.frombuffer(rows, dtype="<u8").reshape(-1, nbytes // 8)
        return rearrange_bits_block(block, self.workspace, rng)


@dataclass(frozen=True)
class SamplerHandle:
    """Frozen outcome of the preprocessing test, ready to draw core samples.

    ``j_parts`` lists the distinct parts acting as asymmetric slots, in
    order; the sample's bit c is the constant of part ``j_parts[c]``.  The
    core size ``k`` is ``len(j_parts)`` and ``n`` is the partition's, which
    must be the function's.
    """

    f: BooleanFunction
    partition: Partition
    workspace: int
    j_parts: tuple[int, ...]
    preprocessing_queries: int = 0
    _table: _SubsetSumTable = field(init=False, repr=False)

    def __post_init__(self):
        if self.partition.n != self.f.n:
            raise ValueError("the partition's n and the function's n must agree")
        if any(not 0 <= p < self.partition.r for p in self.j_parts):
            raise ValueError("asymmetric slots must be part indices")
        if len(set(self.j_parts)) != len(self.j_parts):
            raise ValueError("asymmetric slots must be distinct parts")
        if self.workspace in self.j_parts:
            raise ValueError("workspace cannot be an asymmetric slot")
        if any(not self.partition.parts[p] for p in self.j_parts):
            raise ValueError("asymmetric slots must be nonempty parts")
        object.__setattr__(self, "_table", _SubsetSumTable(self.partition, self.workspace, self.j_parts))

    @property
    def k(self) -> int:
        return len(self.j_parts)

    @property
    def n(self) -> int:
        return self.partition.n


def handle_from_verdict(f: BooleanFunction, verdict: TestVerdict, k: int) -> SamplerHandle:
    """Freeze an accepting verdict into a sampler handle.

    When fewer than k parts were identified, the lowest-indexed unused
    nonempty parts fill the remaining slots; for accepted functions they
    carry no asymmetric variable, so the core marginal is unaffected.  Empty
    parts are skipped because a slot must contribute its constant to the
    sample's weight accounting.
    """
    if not verdict.accepted:
        raise ValueError("cannot build a sampler from a rejecting verdict")
    if verdict.workspace is None:
        raise ValueError("verdict carries no workspace")
    partition = verdict.partition
    j_parts = list(verdict.found_parts)
    if len(j_parts) > k:
        raise ValueError("verdict identified more than k parts")
    for p in range(partition.r):
        if len(j_parts) == k:
            break
        if p == verdict.workspace or p in j_parts or not partition.parts[p]:
            continue
        j_parts.append(p)
    if len(j_parts) < k:
        raise ValueError("not enough nonempty parts to pad the handle")
    return SamplerHandle(f, partition, verdict.workspace, tuple(j_parts), preprocessing_queries=verdict.queries)


def build_sampler(
    f: BooleanFunction,
    k: int,
    delta: float,
    eta: float,
    rng: np.random.Generator,
    cfg: TesterConfig | None = None,
) -> SamplerHandle:
    """Preprocess with the partial-symmetry test at accuracy eta * delta and
    freeze its partition, workspace, and identified parts.

    Raises :class:`SamplerRejected` when the test rejects.
    """
    if not 0 < delta < 1 or not 0 < eta < 1:
        raise ValueError("delta and eta must be in (0, 1)")
    verdict = partially_symmetric_test(f, k, eta * delta, rng, cfg=cfg)
    if not verdict.accepted:
        raise SamplerRejected(verdict)
    return handle_from_verdict(f, verdict, k)


def draw_core_sample(handle: SamplerHandle, rng: np.random.Generator) -> CoreSample:
    """One core triplet for one query: the first row of a one-draw batch."""
    xs, ws, zs = draw_core_samples_batch(handle, 1, rng)
    return CoreSample(int(xs[0]), int(ws[0]), int(zs[0]))


def _draw(
    handle: SamplerHandle, count: int, rng: np.random.Generator
) -> tuple[np.ndarray | list[int], np.ndarray, np.ndarray]:
    """``count`` constrained points y, as ``eval_many`` takes them, with
    their slot bits x and weights |y| - |x|, all read off one word block.

    A singleton handle draws a block of uniform points, any other a
    binomial weight per row that its table turns into a row.  A slot part
    is constant on every row, so its bit is read at its first variable.
    """
    count = as_index(count, "count")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    table = handle._table
    if table.uniform:
        block = random_masks_u64(handle.n, count, rng)
    else:
        block = table.block((int(rng.binomial(handle.n, 0.5)) for _ in range(count)), rng)
    xs = np.zeros(count, dtype=np.int64)
    for c, part in enumerate(handle.j_parts):
        pos = int(handle.partition.positions(part)[0])
        xs |= ((block[:, pos // 64] >> np.uint64(pos % 64)) & np.uint64(1)).astype(np.int64) << c
    ws = block_weights(block).astype(np.int64) - np.bitwise_count(xs)
    return block_points(block), xs, ws


def draw_core_samples_batch(
    handle: SamplerHandle, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` independent core triplets (x, w, z) from one ``eval_many``
    call; still exactly one query per sample."""
    ys, xs, ws = _draw(handle, count, rng)
    return xs, ws, handle.f.eval_many(ys).astype(np.int64)


def marginal_tv_estimate(handle: SamplerHandle, trials: int, rng: np.random.Generator) -> float:
    """Empirical total-variation distance of the (x, w) marginal from the
    reference law, binning w within six standard deviations of its mean
    and lumping the tails."""
    if trials < 10_000:
        raise ValueError("need at least 10^4 trials for a stable estimate")
    n, k = handle.n, handle.k
    m = n - k
    mean = m / 2
    sd = (m**0.5) / 2
    lo = max(0, int(np.floor(mean - 6 * sd)))
    hi = min(m, int(np.ceil(mean + 6 * sd)))
    _, xs, ws = _draw(handle, trials, rng)
    keys, counts = np.unique(xs * (n + 1) + ws, return_counts=True)
    counts = {divmod(int(key), n + 1): int(c) for key, c in zip(keys, counts)}
    total = 0.0
    tail_ref = 1.0
    for x in range(1 << k):
        for w in range(lo, hi + 1):
            ref = comb(m, w) / 2**n
            emp = counts.pop((x, w), 0) / trials
            total += abs(emp - ref)
            tail_ref -= ref
    tail_emp = sum(counts.values()) / trials
    total += abs(tail_emp - tail_ref)
    return total / 2


def core_marginal_exact(handle: SamplerHandle) -> dict[tuple[int, int], Fraction]:
    """Exact (x, w) law of the handle's sampler, counted from its table at
    every partition: a weight-w draw lands on (x, w - |x|) with probability
    p_w * rest[w - size(x)] / count(w), where size(x) is the total size of
    the slots x sets and ``rest`` = ``suffix[k]`` counts the sets of the
    parts after the slots, with their workspace fills, by total size.  When
    count(w) = 0 the all-zeros fallback takes p_w whole.
    """
    table, n = handle._table, handle.n
    rest = table.suffix[handle.k]
    slot_size = [0]
    for part in handle.j_parts:
        slot_size += [size + handle.partition.size(part) for size in slot_size]
    mass: dict[tuple[int, int], Fraction] = {}
    for w in range(n + 1):
        p_w = Fraction(comb(n, w), 1 << n)
        total = table.count(w)
        if total == 0:
            mass[(0, 0)] = mass.get((0, 0), 0) + p_w
            continue
        counted = 0
        for x, size in enumerate(slot_size):
            cnt = rest[w - size] if size <= w else 0
            if cnt:
                counted += cnt
                key = (x, w - x.bit_count())
                mass[key] = mass.get(key, 0) + p_w * Fraction(cnt, total)
        if counted != total:
            raise RuntimeError(f"slot patterns count {counted} weight-{w} points, the table {total}")
    return mass


__all__ = [
    "CoreSample",
    "SamplerHandle",
    "SamplerRejected",
    "build_sampler",
    "core_marginal_exact",
    "draw_core_sample",
    "draw_core_samples_batch",
    "dstar_pmf",
    "handle_from_verdict",
    "marginal_tv_estimate",
    "sample_dstar",
]
