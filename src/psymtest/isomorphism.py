"""Isomorphism testing against a function given in core form.

Stage one runs the partial-symmetry test on the unknown function at a much
finer accuracy; stage two draws core samples through the frozen handle and
accepts when some assignment of core coordinates to identified parts agrees
with a large enough fraction of them.  Only the k! part assignments matter:
sampled points are constant on parts, so positions inside a part are
interchangeable.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import ceil, log2
from typing import Sequence

import numpy as np

from .boolfn import BooleanFunction, CountingFunction, PartiallySymmetricCore
from .sampling import CoreSample, draw_core_samples_batch, handle_from_verdict
from .testers import (
    TesterConfig,
    TestVerdict,
    partially_symmetric_test,
    psym_query_bound,
    _rounds,
)

MAX_ASSIGNMENT_K = 10


def _check_assignment(assignment: Sequence[int], k: int) -> tuple[int, ...]:
    a = tuple(int(v) for v in assignment)
    if sorted(a) != list(range(k)):
        raise ValueError("assignment must be a bijection on range(k)")
    return a


def _sample_arrays(samples: Sequence[CoreSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The samples' x, w and z as three int64 arrays."""
    if not samples:
        raise ValueError("need at least one sample")
    return tuple(np.array([getattr(s, name) for s in samples], dtype=np.int64) for name in "xwz")


def _consistency_arrays(
    xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore, assignment
) -> int:
    xc = np.zeros(len(xs), dtype=np.int64)
    for c, slot in enumerate(assignment):
        xc |= ((xs >> slot) & 1) << c
    return int(np.count_nonzero(f_spec.core[xc, ws] == zs))


def consistency_fraction(
    samples: Sequence[CoreSample], f_spec: PartiallySymmetricCore, assignment: Sequence[int]
) -> Fraction:
    """Fraction of samples whose bit matches the core read through the
    assignment (sample bit ``assignment[c]`` feeds core coordinate c)."""
    xs, ws, zs = _sample_arrays(samples)
    a = _check_assignment(assignment, f_spec.k)
    return Fraction(_consistency_arrays(xs, ws, zs, f_spec, a), len(samples))


def _best_assignment_arrays(
    xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore
) -> tuple[tuple[int, ...], Fraction]:
    best_a: tuple[int, ...] | None = None
    best_hits = -1
    for a in permutations(range(f_spec.k)):
        hits = _consistency_arrays(xs, ws, zs, f_spec, a)
        if hits > best_hits:
            best_a, best_hits = a, hits
    if best_a is None:
        raise RuntimeError("no assignment scored; k! candidates expected")
    return best_a, Fraction(best_hits, len(xs))


def best_assignment(
    samples: Sequence[CoreSample], f_spec: PartiallySymmetricCore
) -> tuple[tuple[int, ...], Fraction]:
    """Maximizing assignment over all k! candidates, first in lexicographic
    order on ties."""
    xs, ws, zs = _sample_arrays(samples)
    if f_spec.k > MAX_ASSIGNMENT_K:
        raise ValueError(f"assignment enumeration is capped at k <= {MAX_ASSIGNMENT_K}")
    return _best_assignment_arrays(xs, ws, zs, f_spec)


def iso_sample_budget(k: int, eps: float, cfg: TesterConfig) -> int:
    """Number of core samples: c_iters * k * log2(k + 2) / eps^2, with k
    floored at 1 so tiny cores still get a positive budget."""
    return ceil(cfg.c_iters * max(k, 1) * log2(k + 2) / (eps * eps))


def iso_test(
    f_spec: PartiallySymmetricCore,
    g: BooleanFunction,
    eps: float,
    rng: np.random.Generator,
    cfg: TesterConfig | None = None,
) -> TestVerdict:
    """Accepts when g is (close to) a relabeling of the core-form function.

    Runs the partial-symmetry test on g at accuracy eps/1000; on acceptance,
    draws the sample budget through the frozen handle and accepts iff some
    assignment reaches consistency at least 1 - eps/2 (ties accept).  A
    rejection by the first stage reports ``"workspace"`` or
    ``"not_partially_symmetric"``, one by the second ``"core_mismatch"``.
    """
    if f_spec.n != g.n:
        raise ValueError("dimension mismatch")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    k = f_spec.k
    if k > MAX_ASSIGNMENT_K:
        raise ValueError(f"assignment enumeration is capped at k <= {MAX_ASSIGNMENT_K}")
    cfg = cfg or TesterConfig()
    gg = CountingFunction(g)
    inner = partially_symmetric_test(gg, k, eps / 1000, rng, cfg=cfg)
    if not inner.accepted:
        reason = "workspace" if inner.failure_reason == "workspace" else "not_partially_symmetric"
        return replace(inner, failure_reason=reason)
    handle = handle_from_verdict(gg, inner, k)
    q = iso_sample_budget(k, eps, cfg)
    xs, ws, zs = draw_core_samples_batch(handle, q, rng)
    _, frac = _best_assignment_arrays(xs, ws, zs, f_spec)
    accepted = frac >= 1 - Fraction(eps) / 2

    # every evaluation of g but the psym stage's speculative ones
    queries = gg.count - inner.speculative
    budget = q + psym_query_bound(
        _rounds(cfg, k, eps / 1000),
        inner.partition.r,
        g.n,
        inner.partition.size(inner.workspace),
    )
    if queries > budget:
        raise RuntimeError(f"query count {queries} exceeds budget {budget}")
    failure = None if accepted else "core_mismatch"
    return replace(inner, accepted=accepted, queries=queries, failure_reason=failure)


__all__ = [
    "best_assignment",
    "consistency_fraction",
    "iso_sample_budget",
    "iso_test",
]
