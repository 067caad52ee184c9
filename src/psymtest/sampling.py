"""Core sampling for nearly partially symmetric functions.

The reference law on the core domain pairs a uniform k-bit value with an
independent Binomial(n - k, 1/2) weight.  The constrained input law draws a
binomial Hamming weight and then a uniform point among those whose
non-workspace parts are each constant; one query at such a point yields a
core triplet whose marginal approaches the reference law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import IO, Iterable, Sequence

import numpy as np

from ._bits import popcount_u64, random_mask, random_masks_u64, randrange_bigint
from .boolfn import BooleanFunction
from .testers import Partition, TesterConfig, TestVerdict, partially_symmetric_test

MAX_ENUMERATION_PARTS = 20


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


def _nonempty_others(partition: Partition, workspace: int) -> list[int]:
    return [
        p for p in range(partition.r) if p != workspace and partition.parts[p]
    ]


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


def count_valid(partition: Partition, workspace: int, w: int) -> int:
    """Number of weight-w points whose non-workspace parts are all constant.

    Sums, over subset-sum values s of the non-workspace part sizes, the ways
    to reach s times the workspace completions choose(|W|, w - s).
    """
    if not 0 <= w <= partition.n:
        raise ValueError("weight outside 0..n")
    others = _nonempty_others(partition, workspace)
    sizes = [partition.size(p) for p in others]
    ways = _suffix_ways(sizes)[0]
    w_size = partition.size(workspace)
    total = 0
    for s, c in enumerate(ways):
        if c and 0 <= w - s <= w_size:
            total += c * comb(w_size, w - s)
    return total


def _sample_constrained(
    partition: Partition, workspace: int, w: int, rng: np.random.Generator
) -> tuple[int, dict[int, int]]:
    """Uniform weight-w point with constant non-workspace parts, plus the
    per-part constants (empty parts get an independent fair bit).

    Falls back to the all-zeros point when no valid point of weight w exists.
    """
    others = _nonempty_others(partition, workspace)
    sizes = [partition.size(p) for p in others]
    suffix = _suffix_ways(sizes)
    w_size = partition.size(workspace)

    def completions(level: int, acc: int) -> int:
        row = suffix[level]
        return sum(
            c * comb(w_size, w - acc - s)
            for s, c in enumerate(row)
            if c and 0 <= w - acc - s <= w_size
        )

    choices = {p: 0 for p in range(partition.r) if p != workspace}
    if completions(0, 0) == 0:
        return 0, choices
    y = 0
    acc = 0
    for level, part in enumerate(others):
        w1 = completions(level + 1, acc + sizes[level])
        w0 = completions(level + 1, acc)
        pick_one = w1 > 0 and randrange_bigint(w0 + w1, rng) < w1
        if pick_one:
            choices[part] = 1
            acc += sizes[level]
            y |= partition.parts[part]
    for part in range(partition.r):
        if part != workspace and not partition.parts[part]:
            choices[part] = int(rng.integers(0, 2))
    fill = w - acc
    if fill:
        for pos in rng.choice(partition.positions(workspace), size=fill, replace=False):
            y |= 1 << int(pos)
    if y.bit_count() != w:
        raise RuntimeError(f"constrained point has weight {y.bit_count()}, not {w}")
    if any((y & partition.parts[p]) not in (0, partition.parts[p]) for p in others):
        raise RuntimeError("non-workspace part not constant")
    return y, choices


def _singleton_like(partition: Partition, workspace: int) -> bool:
    return all(
        partition.size(p) <= 1 for p in range(partition.r) if p != workspace
    )


def _draw_point_choices(
    partition: Partition, workspace: int, rng: np.random.Generator
) -> tuple[int, dict[int, int]]:
    n = partition.n
    if _singleton_like(partition, workspace):
        # binomial weight + uniform valid point collapses to a uniform point
        y = random_mask(n, rng)
        choices = {}
        for p in range(partition.r):
            if p == workspace:
                continue
            mask = partition.parts[p]
            choices[p] = int(bool(y & mask)) if mask else int(rng.integers(0, 2))
        return y, choices
    w = int(rng.binomial(n, 0.5))
    return _sample_constrained(partition, workspace, w, rng)


def sample_diw(partition: Partition, workspace: int, rng: np.random.Generator) -> int:
    """Draw a point with binomial weight, uniform among the valid points of
    that weight; the all-zeros point stands in when none exists."""
    if not 0 <= workspace < partition.r:
        raise ValueError("workspace is not a part index")
    y, _ = _draw_point_choices(partition, workspace, rng)
    return y


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
    _singleton: bool = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.j_parts)) != self.k:
            raise ValueError("j_parts must be k distinct parts")
        if self.workspace in self.j_parts:
            raise ValueError("workspace cannot be an asymmetric slot")
        if any(not self.partition.parts[p] for p in self.j_parts):
            raise ValueError("asymmetric slots must be nonempty parts")
        self._singleton = _singleton_like(self.partition, self.workspace)


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


def _sample_to_core(handle: SamplerHandle, y: int, choices: dict[int, int]) -> tuple[int, int]:
    x = 0
    for c, part in enumerate(handle.j_parts):
        x |= choices[part] << c
    w = y.bit_count() - x.bit_count()
    if not 0 <= w <= handle.n - handle.k:
        raise RuntimeError(f"symmetric weight {w} outside 0..{handle.n - handle.k}")
    return x, w


def draw_core_sample(handle: SamplerHandle, rng: np.random.Generator) -> CoreSample:
    """One core triplet for one query: draw a constrained point y, read off
    the slot constants as x, report w = |y| - |x| and z = f(y)."""
    y, choices = _draw_point_choices(handle.partition, handle.workspace, rng)
    x, w = _sample_to_core(handle, y, choices)
    return CoreSample(x, w, int(handle.f(y)))


def _singleton_draws(
    handle: SamplerHandle, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` draws of a singleton-like handle at n <= 64: uniform points
    y (binomial weight, then uniform among the valid points, is uniform)
    with their slot bits x and symmetric weights w."""
    ys = random_masks_u64(handle.n, count, rng)[:, 0]
    xs = np.zeros(count, dtype=np.int64)
    for c, part in enumerate(handle.j_parts):
        pos = int(handle.partition.positions(part)[0])
        xs |= (((ys >> np.uint64(pos)) & np.uint64(1)) << np.uint64(c)).astype(np.int64)
    ws = popcount_u64(ys).astype(np.int64) - popcount_u64(xs.astype(np.uint64)).astype(np.int64)
    return ys, xs, ws


def draw_core_samples_batch(
    handle: SamplerHandle, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized equivalent of ``count`` independent draws; still exactly
    one query per sample."""
    if handle._singleton and handle.n <= 64:
        ys, xs, ws = _singleton_draws(handle, count, rng)
        return xs, ws, handle.f.eval_many(ys).astype(np.int64)
    xs = np.empty(count, dtype=np.int64)
    ws = np.empty(count, dtype=np.int64)
    zs = np.empty(count, dtype=np.int64)
    for i in range(count):
        s = draw_core_sample(handle, rng)
        xs[i], ws[i], zs[i] = s.x, s.w, s.z
    return xs, ws, zs


def _marginal_counts(
    handle: SamplerHandle, trials: int, rng: np.random.Generator
) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    if handle._singleton and handle.n <= 64:
        _, xs, ws = _singleton_draws(handle, trials, rng)
        keys = xs * (handle.n + 1) + ws
        uniq, cnt = np.unique(keys, return_counts=True)
        for key, c in zip(uniq, cnt):
            counts[(int(key) // (handle.n + 1), int(key) % (handle.n + 1))] = int(c)
        return counts
    for _ in range(trials):
        y, choices = _draw_point_choices(handle.partition, handle.workspace, rng)
        key = _sample_to_core(handle, y, choices)
        counts[key] = counts.get(key, 0) + 1
    return counts


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
    tail_emp = 0
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
    """Exact (x, w) law of the handle's sampler by enumerating the part
    constants; usable while the non-workspace part count stays small."""
    partition, workspace = handle.partition, handle.workspace
    n = handle.n
    others = _nonempty_others(partition, workspace)
    if len(others) > MAX_ENUMERATION_PARTS:
        raise ValueError("too many parts to enumerate")
    sizes = {p: partition.size(p) for p in others}
    slot_of = {part: c for c, part in enumerate(handle.j_parts)}
    w_size = partition.size(workspace)
    valid = {w: count_valid(partition, workspace, w) for w in range(n + 1)}

    mass: dict[tuple[int, int], Fraction] = {}

    def add(key: tuple[int, int], value: Fraction) -> None:
        mass[key] = mass.get(key, Fraction(0)) + value

    for w in range(n + 1):
        p_w = Fraction(comb(n, w), 1 << n)
        if valid[w] == 0:
            # all-zeros fallback: every constant is 0
            add((0, 0), p_w)
            continue
        for bits in itertools.product((0, 1), repeat=len(others)):
            s = sum(sizes[p] for p, b in zip(others, bits) if b)
            t = w - s
            if not 0 <= t <= w_size:
                continue
            weight = p_w * Fraction(comb(w_size, t), valid[w])
            x = 0
            for part, b in zip(others, bits):
                if b and part in slot_of:
                    x |= 1 << slot_of[part]
            add((x, w - x.bit_count()), weight)
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
