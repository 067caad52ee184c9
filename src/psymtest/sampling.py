"""Core sampling for nearly partially symmetric functions.

The reference law on the core domain pairs a uniform k-bit value with an
independent Binomial(n - k, 1/2) weight.  The constrained input law draws a
binomial Hamming weight and then a uniform point among those whose
non-workspace parts are each constant; one query at such a point yields a
core triplet whose marginal approaches the reference law.

A handle holds the function, the partition, the workspace W and the parts
acting as asymmetric slots; its n is the partition's and its k the number
of slots.  Its one table checks W and the slots (``Partition.index``:
integer part indices; the slots distinct, nonempty and not W) and orders
the slot parts first, then the free parts outside the slots and W
(``Partition.free``).  The table keeps one exact subset-sum count over those
parts, whose base row C(|W|, s) counts the workspace fills of each weight
s: one (parts + 1, n + 1) array, int64 while every count fits and Python
ints above.  A batch draws all its binomial weights in one call and a
uniform rank per weight, walks every rank through the parts at once to a
set of them and an s, ORs in row s of the table's fills block (the lowest s
workspace variables), and one ``rearrange_bits_block`` call spreads those
ones uniformly over W; the sampler's exact (x, w) law is read from the
counts of the parts after the slots.  When every non-workspace part is a
singleton the law is uniform on the cube, a batch is one block of uniform
words and the table is never walked.  Either way x and w are read off the
word block (slot c's bit at the first variable of the table's part c) and
the batch is one ``eval_many`` call, returned as the x, w and z int64
arrays that the isomorphism vote reads; a single draw is the first row of a
one-draw batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Sequence

import numpy as np

from ._bits import (
    WordPoints,
    as_index,
    as_real,
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
    """Reference core draw: uniform x over {0,1}^k, w ~ Binomial(n-k, 1/2),
    for integers n >= 0 and k in 0..n."""
    n = as_index(n, "n", 0)
    k = as_index(k, "k", 0, n)
    return random_mask(k, rng), int(rng.binomial(n - k, 0.5))


def dstar_pmf(n: int, k: int) -> dict[tuple[int, int], Fraction]:
    """Exact reference mass of every (x, w) pair, for n >= 0 and k in 0..n."""
    n = as_index(n, "n", 0)
    k = as_index(k, "k", 0, n)
    return {(x, w): Fraction(comb(n - k, w), 1 << n) for x in range(1 << k) for w in range(n - k + 1)}


def _suffix_ways(sizes: Sequence[int], width: int) -> np.ndarray:
    """suffix[i, s] counts the pairs (a set of parts i.., a subset of a
    width-variable workspace) with total size s; the last row is C(width, s).

    There are 2^(len(sizes) + width) pairs in all, so the counts are int64
    while len(sizes) + width <= 62 and Python ints in an object array above.
    """
    dtype = np.int64 if len(sizes) + width <= 62 else object
    suffix = np.zeros((len(sizes) + 1, width + 1 + sum(sizes)), dtype=dtype)
    suffix[-1, : width + 1] = [comb(width, s) for s in range(width + 1)]
    for i in reversed(range(len(sizes))):
        suffix[i] = suffix[i + 1]
        suffix[i, sizes[i] :] += suffix[i + 1, : -sizes[i]]
    return suffix


class _SubsetSumTable:
    """Exact counts, by weight, of the points whose non-workspace parts are
    each constant, for one (partition, workspace, slots), and the walk that
    turns ranks among them back into sets of parts.

    The constructor is the one check of the workspace and the slots: each
    a part index (``Partition.index``), the slots distinct, nonempty and
    not the workspace.  The parts are the slot parts in order, then the
    free parts outside them and the workspace (``Partition.free``); a valid
    point is a set of parts plus s of the |W| workspace variables.
    ``suffix`` counts those by part and weight in one (parts + 1, n + 1)
    array, and ``words`` holds the parts and the workspace fills as word
    blocks; both are built on first use, which a singleton handle never
    makes.
    """

    def __init__(self, partition: Partition, workspace: int, slots: Sequence[int]):
        workspace = partition.index(workspace, "workspace")
        slots = [partition.index(p, "asymmetric slot") for p in slots]
        if len(set(slots)) != len(slots):
            raise ValueError("asymmetric slots must be distinct parts")
        if workspace in slots:
            raise ValueError("workspace cannot be an asymmetric slot")
        if any(not partition.parts[p] for p in slots):
            raise ValueError("asymmetric slots must be nonempty parts")
        self.parts = [partition.parts[p] for p in (*slots, *partition.free([workspace, *slots]))]
        self.sizes = [part.bit_count() for part in self.parts]
        self.workspace = partition.parts[workspace]
        # binomial weight + uniform valid point collapses to a uniform point
        self.uniform = all(size == 1 for size in self.sizes)
        self.n = partition.n

    @cached_property
    def suffix(self) -> np.ndarray:
        return _suffix_ways(self.sizes, self.workspace.bit_count())

    @cached_property
    def words(self) -> tuple[np.ndarray, np.ndarray]:
        """The parts as a (parts, words) block, and the workspace fills as
        one (|W| + 1, words) block whose row s sets the lowest s workspace
        variables: the cumulative OR of the workspace's one-hot rows."""
        width = (self.n + 63) // 64
        parts = np.frombuffer(b"".join(p.to_bytes(8 * width, "little") for p in self.parts), dtype="<u8")
        pos = np.array(indices_of(self.workspace), dtype=np.int64)
        fills = np.zeros((len(pos) + 1, width), dtype=np.uint64)
        fills[np.arange(1, len(pos) + 1), pos // 64] = np.uint64(1) << (pos % 64).astype(np.uint64)
        return parts.reshape(-1, width), np.bitwise_or.accumulate(fills, axis=0, out=fills)

    def count(self, w: int) -> int:
        """Number of valid weight-w points."""
        return int(self.suffix[0, w])

    def _walk(self, w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The parts taken by the u-th valid weight-w point, u in
        [0, count(w)), for every row of the weight and rank arrays at once,
        as a (parts, rows) bool array, and each point's workspace weight s;
        each (parts, s) is reached by C(|W|, s) consecutive ranks.

        At part i with weight w left, the ranks below suffix[i + 1, w]
        leave the part out and the rest take it; every walk must end with
        s >= 0 and u < C(|W|, s), which is 0 past s = |W|.
        """
        suffix = self.suffix
        w, u = w.copy(), u.copy()
        takes = np.empty((len(self.sizes), len(w)), dtype=bool)
        for size, row, take in zip(self.sizes, suffix[1:], takes):
            skip = row[w]
            np.greater_equal(u, skip, out=take)
            np.subtract(u, skip, out=u, where=take)
            np.subtract(w, size, out=w, where=take)
        if ((w < 0) | (u >= suffix[-1, w])).any():
            raise RuntimeError("rank walk ended off its rank")
        return takes, w

    def unrank(self, w: int, u: int) -> tuple[int, int]:
        """The one-row walk: the parts taken by the u-th valid weight-w
        point, as one mask, and the point's workspace weight s."""
        takes, s = self._walk(np.array([w]), np.array([u], dtype=self.suffix.dtype))
        return sum(part for part, take in zip(self.parts, takes[:, 0]) if take), int(s[0])

    def block(self, weights: np.ndarray | Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """One uniform valid weight-w point per weight w, all zeros when
        there is none, as a word block.

        The ranks come from one ``rng.integers`` call on int64 counts, or one
        ``randrange_bigint`` per row on Python-int counts; a weight with no
        valid point walks rank 0 at weight 0, the all-zeros row.  Every row
        walks the parts at once, takes its parts and ORs in row s of the
        fills block (the lowest s workspace variables), and one
        ``rearrange_bits_block`` call then spreads every row's workspace ones
        uniformly over the workspace.
        """
        w = np.asarray(weights, dtype=np.int64)
        w = np.where(self.suffix[0, w] > 0, w, 0)
        totals = self.suffix[0, w]
        if totals.dtype == object:
            u = np.array([randrange_bigint(t, rng) for t in totals.tolist()], dtype=object)
        else:
            u = rng.integers(0, totals)
        takes, s = self._walk(w, u)
        parts, fills = self.words
        # the parts are disjoint, so the sum of the taken parts is their union
        rows = takes.T.astype(np.uint64) @ parts
        rows |= fills[s]
        return rearrange_bits_block(rows, self.workspace, rng)


@dataclass(frozen=True)
class SamplerHandle:
    """Frozen outcome of the preprocessing test, ready to draw core samples.

    ``j_parts`` lists the distinct nonempty parts acting as asymmetric
    slots, in order; the sample's bit c is the constant of part
    ``j_parts[c]``.  The core size ``k`` is ``len(j_parts)`` and ``n`` is the
    partition's, which must be the function's; the table checks the
    workspace and the slots.
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
        object.__setattr__(self, "_table", _SubsetSumTable(self.partition, self.workspace, self.j_parts))

    @property
    def k(self) -> int:
        return len(self.j_parts)

    @property
    def n(self) -> int:
        return self.partition.n


def handle_from_verdict(f: BooleanFunction, verdict: TestVerdict, k: int) -> SamplerHandle:
    """Freeze an accepting verdict into a sampler handle.

    When fewer than k parts were identified, the first free parts outside
    them and the workspace (``Partition.free``) fill the remaining slots;
    for accepted functions they carry no asymmetric variable, so the core
    marginal is unaffected.  Free parts are nonempty because a slot must
    contribute its constant to the sample's weight accounting.
    """
    k = as_index(k, "k", 0)
    if not verdict.accepted:
        raise ValueError("cannot build a sampler from a rejecting verdict")
    if verdict.workspace is None:
        raise ValueError("verdict carries no workspace")
    partition = verdict.partition
    j_parts = list(verdict.found_parts)
    if len(j_parts) > k:
        raise ValueError("verdict identified more than k parts")
    j_parts += partition.free([verdict.workspace, *j_parts])[: k - len(j_parts)]
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
    as_real(delta, "delta", 0, 1)
    as_real(eta, "eta", 0, 1)
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
) -> tuple[np.ndarray | WordPoints, np.ndarray, np.ndarray]:
    """``count`` constrained points y, as ``eval_many`` takes them, with
    their slot bits x and weights |y| - |x|, all read off one word block.

    A singleton handle draws a block of uniform points, any other one
    binomial weight per row, all in one call, that its table turns into
    rows.  A slot part
    is constant on every row, so its bit is read at its first variable.
    """
    count = as_index(count, "count", 0)
    table = handle._table
    if table.uniform:
        block = random_masks_u64(handle.n, count, rng)
    else:
        block = table.block(rng.binomial(handle.n, 0.5, size=count), rng)
    xs = np.zeros(count, dtype=np.int64)
    for c, m in enumerate(table.parts[: handle.k]):
        pos = (m & -m).bit_length() - 1
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
    and lumping the tails: one histogram of the (x, w) pairs drawn.  A
    stable estimate needs ``trials`` >= 10^4."""
    trials = as_index(trials, "trials", 10_000)
    n, k = handle.n, handle.k
    m = n - k
    mean = m / 2
    sd = (m**0.5) / 2
    lo = max(0, int(np.floor(mean - 6 * sd)))
    hi = min(m, int(np.ceil(mean + 6 * sd)))
    _, xs, ws = _draw(handle, trials, rng)
    counts = np.bincount(xs * (n + 1) + ws, minlength=(n + 1) << k).reshape(1 << k, n + 1)[:, lo : hi + 1]
    ref = np.array([comb(m, w) / 2**n for w in range(lo, hi + 1)])
    tail_emp = (trials - counts.sum()) / trials
    tail_ref = 1.0 - (1 << k) * ref.sum()
    return float(np.abs(counts / trials - ref).sum() + abs(tail_emp - tail_ref)) / 2


def core_marginal_exact(handle: SamplerHandle) -> dict[tuple[int, int], Fraction]:
    """Exact (x, w) law of the handle's sampler, counted from its table at
    every partition: a weight-w draw lands on (x, w - |x|) with probability
    p_w * rest[w - size(x)] / count(w), where size(x) is the total size of
    the slots x sets and ``rest``, row k of ``suffix``, counts the sets of the
    parts after the slots, with their workspace fills, by total size.  When
    count(w) = 0 the all-zeros fallback takes p_w whole.
    """
    table, n = handle._table, handle.n
    rest = table.suffix[handle.k].tolist()
    slot_size = [0]
    for part_size in table.sizes[: handle.k]:
        slot_size += [size + part_size for size in slot_size]
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
