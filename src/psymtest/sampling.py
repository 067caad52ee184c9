"""Core sampling for nearly partially symmetric functions.

The reference law on the core domain pairs a uniform k-bit value with an
independent Binomial(n - k, 1/2) weight.  The constrained input law draws a
binomial Hamming weight and then a uniform point among those whose
non-workspace parts are each constant; one query at such a point yields a
core triplet whose marginal approaches the reference law.

A handle keeps one exact subset-sum table for its (partition, workspace):
it counts the valid points of each weight in at most |W| + 1 terms, and a
draw unranks one uniform rank among them.  When every non-workspace part
is a singleton the law is uniform on the cube, so a batch is one block of
uniform words at any n.  Either way a batch is one ``eval_many`` call.
The sampler's exact (x, w) law is counted from the same table, at every
partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from ._bits import block_points, block_weights, random_mask, random_masks_u64, randrange_bigint
from .boolfn import BooleanFunction
from .testers import Partition, TesterConfig, TestVerdict, partially_symmetric_test


@dataclass(frozen=True)
class CoreSample:
    """One draw from a function's core: asymmetric values ``x`` (a k-bit
    mask), the weight ``w`` of the symmetric block, and the queried bit."""

    x: int
    w: int
    z: int


def format_core_sample(sample: CoreSample, k: int) -> str:
    """CSV row: x as a bitstring (coordinate 0 first), then w, then z."""
    bitstring = "".join(str((sample.x >> c) & 1) for c in range(k))
    return f"{bitstring},{sample.w},{sample.z}"


def write_core_samples(samples: Iterable[CoreSample], k: int, out: IO[str]) -> None:
    out.write("x,w,z\n")
    for s in samples:
        out.write(format_core_sample(s, k) + "\n")


class SamplerRejected(Exception):
    """The preprocessing test rejected the function."""

    def __init__(self, verdict: TestVerdict):
        super().__init__("partial-symmetry test rejected the function")
        self.verdict = verdict


def sample_dstar(n: int, k: int, rng: np.random.Generator) -> tuple[int, int]:
    """Reference core draw: uniform x over {0,1}^k, w ~ Binomial(n-k, 1/2)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    x = random_mask(k, rng)
    w = int(rng.binomial(n - k, 0.5))
    return x, w


def dstar_pmf(n: int, k: int) -> dict[tuple[int, int], Fraction]:
    """Exact reference mass of every (x, w) pair."""
    out = {}
    for x in range(1 << k):
        for w in range(n - k + 1):
            out[(x, w)] = Fraction(comb(n - k, w), 1 << n)
    return out


def _suffix_ways(sizes: Sequence[int]) -> list[list[int]]:
    """suffix[i][s] counts 0/1 choices for parts i.. with total size s."""
    total = sum(sizes)
    suffix = [[0] * (total + 1) for _ in range(len(sizes) + 1)]
    suffix[len(sizes)][0] = 1
    for i in range(len(sizes) - 1, -1, -1):
        s_i = sizes[i]
        nxt = suffix[i + 1]
        row = suffix[i]
        for s in range(total + 1):
            row[s] = nxt[s] + (nxt[s - s_i] if s >= s_i else 0)
    return suffix


class _SubsetSumTable:
    """Exact counts, by weight, of the points whose non-workspace parts are
    each constant, for one (partition, workspace), and the walk that turns
    a rank among them back into a point.

    A weight-w valid point is a choice of nonempty non-workspace parts set
    to 1, of total size s, plus a weight-(w - s) fill of the workspace W:
    ``suffix`` counts the choices and ``wcomb[t]`` = C(|W|, t) the fills.
    """

    def __init__(self, partition: Partition, workspace: int):
        if not 0 <= workspace < partition.r:
            raise ValueError("workspace is not a part index")
        self.partition = partition
        self.others = [p for p in range(partition.r) if p != workspace and partition.parts[p]]
        self.sizes = [partition.size(p) for p in self.others]
        self.suffix = _suffix_ways(self.sizes)
        w_size = partition.size(workspace)
        self.wcomb = [comb(w_size, t) for t in range(w_size + 1)]
        self.fill_bits = [1 << int(pos) for pos in partition.positions(workspace)]
        # binomial weight + uniform valid point collapses to a uniform point
        self.uniform = all(size == 1 for size in self.sizes)
        self._counts: dict[int, int] = {}

    def _by_sum(self, w: int) -> Iterator[tuple[int, int]]:
        """(s, number of valid weight-w points whose choice sums to s)."""
        ways = self.suffix[0]
        for s in range(max(0, w - len(self.wcomb) + 1), min(w, len(ways) - 1) + 1):
            yield s, ways[s] * self.wcomb[w - s]

    def count(self, w: int) -> int:
        """Number of valid weight-w points, summed once per weight."""
        if w not in self._counts:
            self._counts[w] = sum(c for _, c in self._by_sum(w))
        return self._counts[w]

    def unrank(self, w: int, u: int) -> tuple[int, int]:
        """The u-th valid weight-w point, u in [0, count(w)), and its
        chosen-part mask.

        Ranks run through the sums s in order, each choice of sum s taking
        C(|W|, w - s) consecutive ranks, one per workspace fill: the quotient
        walks the suffix table to the choice, and the remainder is the fill,
        a (w - s)-subset of W in the combinatorial number system.
        """
        for s, c in self._by_sum(w):
            if u < c:
                break
            u -= c
        else:
            raise ValueError(f"rank outside 0..count({w}) - 1")
        t = w - s
        v, fill = divmod(u, self.wcomb[t])
        chosen = y = 0
        for i, part in enumerate(self.others):
            skip = self.suffix[i + 1][s]
            if v >= skip:
                v -= skip
                s -= self.sizes[i]
                chosen |= 1 << part
                y |= self.partition.parts[part]
        # fill = sum of C(i, j) over the j-th lowest chosen slot i of W
        i = len(self.fill_bits)
        while t:
            i -= 1
            c = comb(i, t)
            if fill >= c:
                fill -= c
                t -= 1
                y |= self.fill_bits[i]
        if s or v or fill:
            raise RuntimeError("rank walk ended off its rank")
        return y, chosen

    def draw(self, rng: np.random.Generator) -> tuple[int, int]:
        """A point of the constrained law and its chosen-part mask."""
        return self.point(int(rng.binomial(self.partition.n, 0.5)), rng)

    def point(self, w: int, rng: np.random.Generator) -> tuple[int, int]:
        """Uniform valid weight-w point from one uniform rank (the all-zeros
        point when there is none) and its chosen-part mask."""
        total = self.count(w)
        if total == 0:
            return 0, 0
        return self.unrank(w, randrange_bigint(total, rng))


def count_valid(partition: Partition, workspace: int, w: int) -> int:
    """Number of weight-w points whose non-workspace parts are all constant."""
    if not 0 <= w <= partition.n:
        raise ValueError("weight outside 0..n")
    return _SubsetSumTable(partition, workspace).count(w)


def sample_diw(partition: Partition, workspace: int, rng: np.random.Generator) -> int:
    """Draw a point with binomial weight, uniform among the valid points of
    that weight; the all-zeros point stands in when none exists."""
    return _SubsetSumTable(partition, workspace).draw(rng)[0]


@dataclass
class SamplerHandle:
    """Frozen outcome of the preprocessing test, ready to draw core samples.

    ``j_parts`` lists the k parts acting as asymmetric slots, in order; the
    sample's bit c is the constant of part ``j_parts[c]``.
    """

    f: BooleanFunction
    partition: Partition
    workspace: int
    j_parts: tuple[int, ...]
    k: int
    n: int
    preprocessing_queries: int = 0
    _table: _SubsetSumTable = field(init=False, repr=False)

    def __post_init__(self):
        if not self.n == self.partition.n == self.f.n:
            raise ValueError("n, the partition's n and the function's n must agree")
        self._table = _SubsetSumTable(self.partition, self.workspace)
        if any(not 0 <= p < self.partition.r for p in self.j_parts):
            raise ValueError("asymmetric slots must be part indices")
        if len(set(self.j_parts)) != self.k:
            raise ValueError("j_parts must be k distinct parts")
        if self.workspace in self.j_parts:
            raise ValueError("workspace cannot be an asymmetric slot")
        if any(not self.partition.parts[p] for p in self.j_parts):
            raise ValueError("asymmetric slots must be nonempty parts")


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
    return SamplerHandle(
        f,
        partition,
        verdict.workspace,
        tuple(j_parts),
        k,
        partition.n,
        preprocessing_queries=verdict.queries,
    )


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


def _sample_to_core(handle: SamplerHandle, y: int, chosen: int) -> tuple[int, int]:
    """Slot bits x (bit c is part ``j_parts[c]``'s constant, read off the
    chosen-part mask) and the symmetric weight |y| - |x|."""
    x = 0
    for c, part in enumerate(handle.j_parts):
        x |= ((chosen >> part) & 1) << c
    w = y.bit_count() - x.bit_count()
    if not 0 <= w <= handle.n - handle.k:
        raise RuntimeError(f"symmetric weight {w} outside 0..{handle.n - handle.k}")
    return x, w


def draw_core_sample(handle: SamplerHandle, rng: np.random.Generator) -> CoreSample:
    """One core triplet for one query: draw a constrained point y by the
    table walk, read off the slot constants as x, report w = |y| - |x| and
    z = f(y)."""
    y, chosen = handle._table.draw(rng)
    x, w = _sample_to_core(handle, y, chosen)
    return CoreSample(x, w, int(handle.f(y)))


def _draw(
    handle: SamplerHandle, count: int, rng: np.random.Generator
) -> tuple[np.ndarray | list[int], np.ndarray, np.ndarray]:
    """``count`` constrained points y, as ``eval_many`` takes them, with
    their slot bits x and weights |y| - |x|.

    A handle whose non-workspace parts are singletons draws one block of
    uniform points and reads slot bits off their words; any other handle
    draws each point by the table walk.
    """
    table = handle._table
    if table.uniform:
        block = random_masks_u64(handle.n, count, rng)
        xs = np.zeros(count, dtype=np.int64)
        for c, part in enumerate(handle.j_parts):
            pos = int(handle.partition.positions(part)[0])
            xs |= ((block[:, pos // 64] >> np.uint64(pos % 64)) & np.uint64(1)).astype(np.int64) << c
        ws = block_weights(block).astype(np.int64) - np.bitwise_count(xs)
        return block_points(block), xs, ws
    ys, xs, ws = [], [], []
    for _ in range(count):
        y, chosen = table.draw(rng)
        x, w = _sample_to_core(handle, y, chosen)
        ys.append(y)
        xs.append(x)
        ws.append(w)
    return ys, np.array(xs, dtype=np.int64), np.array(ws, dtype=np.int64)


def draw_core_samples_batch(
    handle: SamplerHandle, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` independent core triplets (x, w, z) from one ``eval_many``
    call; still exactly one query per sample."""
    ys, xs, ws = _draw(handle, count, rng)
    return xs, ws, handle.f.eval_many(ys).astype(np.int64)


def _marginal_counts(
    handle: SamplerHandle, trials: int, rng: np.random.Generator
) -> dict[tuple[int, int], int]:
    _, xs, ws = _draw(handle, trials, rng)
    keys, counts = np.unique(xs * (handle.n + 1) + ws, return_counts=True)
    return {divmod(int(key), handle.n + 1): int(c) for key, c in zip(keys, counts)}


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
    counts = _marginal_counts(handle, trials, rng)
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
    the slots x sets and ``rest[t]`` counts the choices of the other parts
    and the workspace fill of total size t.  When count(w) = 0 the
    all-zeros fallback takes p_w whole.
    """
    table, n = handle._table, handle.n
    # a weight-t workspace fill is a choice of t one-variable parts
    free = [size for p, size in zip(table.others, table.sizes) if p not in handle.j_parts]
    rest = _suffix_ways(free + [1] * (len(table.wcomb) - 1))[0]
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
            cnt = rest[w - size] if 0 <= w - size < len(rest) else 0
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
    "count_valid",
    "draw_core_sample",
    "draw_core_samples_batch",
    "dstar_pmf",
    "format_core_sample",
    "handle_from_verdict",
    "marginal_tv_estimate",
    "sample_diw",
    "sample_dstar",
    "write_core_samples",
]
