"""Isomorphism testing against a function given in core form.

Stage one runs the partial-symmetry test on the unknown function at a much
finer accuracy; stage two draws core samples through the frozen handle and
accepts when some assignment of core coordinates to identified parts agrees
with a large enough fraction of them.  Only the k! part assignments matter:
sampled points are constant on parts, so positions inside a part are
interchangeable.  The vote reads the samples as the x, w and z arrays that
``draw_core_samples_batch`` returns.  The verdict reports stage one's
queries plus one per sample, and g must have been read exactly that often
plus stage one's speculative evaluations.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import log2
from typing import Sequence

import numpy as np

from ._bits import as_index
from .boolfn import BooleanFunction, CountingFunction, PartiallySymmetricCore
from .sampling import draw_core_samples_batch, handle_from_verdict
from .testers import TesterConfig, TestVerdict, _scaled_count, partially_symmetric_test

MAX_ASSIGNMENT_K = 10


def _check_samples(xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore) -> None:
    """Raises ``ValueError`` unless x, w and z are 1-D integer arrays of one
    nonzero length whose samples lie in the core: x in [0, 2^k), w in
    [0, n - k] and z a bit."""
    for name, v in (("x", xs), ("w", ws), ("z", zs)):
        if not isinstance(v, np.ndarray) or v.dtype.kind not in "iu" or v.ndim != 1:
            got = f"{v.dtype} array of shape {v.shape}" if isinstance(v, np.ndarray) else type(v).__name__
            raise ValueError(f"sample {name} must be a 1-D integer array, got {got}")
    if len(xs) == 0 or not len(xs) == len(ws) == len(zs):
        raise ValueError("need x, w and z arrays of one nonzero length")
    for name, v, top in (("x", xs, (1 << f_spec.k) - 1), ("w", ws, f_spec.n - f_spec.k), ("z", zs, 1)):
        if v.min() < 0 or v.max() > top:
            raise ValueError(f"sample {name} entries must lie in 0..{top}, got {v.min()} to {v.max()}")


def _agreement(
    xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore, assignment: Sequence[int]
) -> Fraction:
    """``consistency_fraction`` on checked samples and a checked bijection."""
    xc = np.zeros(len(xs), dtype=np.int64)
    for c, slot in enumerate(assignment):
        xc |= ((xs >> slot) & 1) << c
    return Fraction(int(np.count_nonzero(f_spec.core[xc, ws] == zs)), len(xs))


def consistency_fraction(
    xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore, assignment: Sequence[int]
) -> Fraction:
    """Fraction of the samples (x, w, z), given as the int64 arrays that
    ``draw_core_samples_batch`` returns, whose bit z matches the core read
    through the assignment (sample bit ``assignment[c]`` feeds core
    coordinate c).  A sample outside the core (x not in [0, 2^k), w not in
    [0, n - k], z not a bit) raises ``ValueError``."""
    _check_samples(xs, ws, zs, f_spec)
    a = [as_index(v, "assignment entry") for v in assignment]
    if sorted(a) != list(range(f_spec.k)):
        raise ValueError("assignment must be a bijection on range(k)")
    return _agreement(xs, ws, zs, f_spec, a)


def best_assignment(
    xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore
) -> tuple[tuple[int, ...], Fraction]:
    """Maximizing assignment of ``consistency_fraction`` over all k!
    candidates, first in lexicographic order on ties.  The samples are
    checked once, not once per candidate."""
    if f_spec.k > MAX_ASSIGNMENT_K:
        raise ValueError(f"assignment enumeration is capped at k <= {MAX_ASSIGNMENT_K}")
    _check_samples(xs, ws, zs, f_spec)
    scored = ((a, _agreement(xs, ws, zs, f_spec, a)) for a in permutations(range(f_spec.k)))
    return max(scored, key=lambda pair: pair[1])


def iso_sample_budget(k: int, eps: float, cfg: TesterConfig) -> int:
    """Number of core samples: c_iters * k * log2(k + 2) / eps^2, with k
    floored at 1 so tiny cores still get a positive budget."""
    return _scaled_count(cfg.c_iters * max(k, 1) * log2(k + 2), "c_iters", cfg, eps, 2)


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
    q = iso_sample_budget(k, eps, cfg)
    gg = CountingFunction(g)
    inner = partially_symmetric_test(gg, k, eps / 1000, rng, cfg=cfg)
    if not inner.accepted:
        reason = "workspace" if inner.failure_reason == "workspace" else "not_partially_symmetric"
        return replace(inner, failure_reason=reason)
    handle = handle_from_verdict(gg, inner, k)
    xs, ws, zs = draw_core_samples_batch(handle, q, rng)
    _, frac = best_assignment(xs, ws, zs, f_spec)
    accepted = frac >= 1 - Fraction(eps) / 2

    if gg.count != inner.queries + inner.speculative + q:
        msg = f"the psym stage's {inner.queries} queries + {inner.speculative} speculative + {q} samples"
        raise RuntimeError(f"g was read {gg.count} times, not {msg}")
    failure = None if accepted else "core_mismatch"
    return replace(inner, accepted=accepted, queries=inner.queries + q, failure_reason=failure)


__all__ = [
    "best_assignment",
    "consistency_fraction",
    "iso_sample_budget",
    "iso_test",
]
