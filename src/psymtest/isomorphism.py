"""Isomorphism testing against a function given in core form.

Stage one runs the partial-symmetry test on the unknown function at a much
finer accuracy; stage two draws core samples through the frozen handle and
accepts when some assignment of core coordinates to identified parts agrees
with a large enough fraction of them.  Only the k! part assignments matter:
sampled points are constant on parts, so positions inside a part are
interchangeable.  The vote reads the samples once, as the x, w and z arrays
that ``draw_core_samples_batch`` returns, into their counts per (x, w, z),
and scores every assignment from those counts over the orderings of
``oracle._orderings``, the one enumeration that ``dist_to_iso_class``
scores its folds over too.  The verdict reports stage one's queries plus
one per sample, and g must have been read exactly that often plus stage
one's speculative evaluations.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import log2
from typing import Sequence

import numpy as np

from ._bits import as_index, as_real
from .boolfn import BooleanFunction, CountingFunction, PartiallySymmetricCore, _check_core_form
from .oracle import _best_ordering
from .sampling import draw_core_samples_batch, handle_from_verdict
from .testers import TesterConfig, TestVerdict, _scaled_count, partially_symmetric_test

MAX_ASSIGNMENT_K = 10


def _check_samples(
    xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, w and z as int64 arrays.  Raises ``ValueError`` unless f_spec is
    in core form and they are 1-D integer arrays of one nonzero length whose
    samples lie in its core: x in [0, 2^k), w in [0, n - k] and z a bit."""
    _check_core_form(f_spec)
    for name, v in (("x", xs), ("w", ws), ("z", zs)):
        if not isinstance(v, np.ndarray) or v.dtype.kind not in "iu" or v.ndim != 1:
            got = f"{v.dtype} array of shape {v.shape}" if isinstance(v, np.ndarray) else type(v).__name__
            raise ValueError(f"sample {name} must be a 1-D integer array, got {got}")
    if len(xs) == 0 or not len(xs) == len(ws) == len(zs):
        raise ValueError("need x, w and z arrays of one nonzero length")
    for name, v, top in (("x", xs, (1 << f_spec.k) - 1), ("w", ws, f_spec.n - f_spec.k), ("z", zs, 1)):
        if v.min() < 0 or v.max() > top:
            raise ValueError(f"sample {name} entries must lie in 0..{top}, got {v.min()} to {v.max()}")
    return tuple(v.astype(np.int64, copy=False) for v in (xs, ws, zs))


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
    """Fraction of the samples (x, w, z), given as 1-D arrays of any integer
    type (``draw_core_samples_batch`` returns int64 ones), whose bit z
    matches the core read through the assignment (sample bit
    ``assignment[c]`` feeds core coordinate c).  A sample outside the core
    (x not in [0, 2^k), w not in [0, n - k], z not a bit) raises
    ``ValueError``."""
    xs, ws, zs = _check_samples(xs, ws, zs, f_spec)
    a = [as_index(v, "assignment entry") for v in assignment]
    if sorted(a) != list(range(f_spec.k)):
        raise ValueError("assignment must be a bijection on range(k)")
    return _agreement(xs, ws, zs, f_spec, a)


def best_assignment(
    xs: np.ndarray, ws: np.ndarray, zs: np.ndarray, f_spec: PartiallySymmetricCore
) -> tuple[tuple[int, ...], Fraction]:
    """Maximizing assignment of ``consistency_fraction`` over all k!
    candidates, first in lexicographic order on ties, scored exactly from
    sample counts.  The samples are checked and read once, into the counts
    of each (x, w, z): core row y agrees with D[y, x] of the samples at x,
    and assignment sigma with sum_x D[x_sigma(x), x] of all, one gather per
    candidate over the index maps of ``oracle._orderings``, the one
    enumeration of core orderings, which ``dist_to_iso_class`` scores its
    folds over too (``oracle._best_ordering`` keeps the first best)."""
    xs, ws, zs = _check_samples(xs, ws, zs, f_spec)
    k = f_spec.k
    if k > MAX_ASSIGNMENT_K:
        raise ValueError(f"assignment enumeration is capped at k <= {MAX_ASSIGNMENT_K}")
    # only the weights that samples hold: about sqrt(n) of them at large n
    lo = int(ws.min())
    core = f_spec.core[:, lo : int(ws.max()) + 1]
    rows, cols = core.shape
    counts = np.bincount((xs * cols + ws - lo) * 2 + zs, minlength=rows * cols * 2).reshape(rows, cols, 2)
    # D[y, x]: the z = 0 samples at x, plus the z = 1 ones minus the z = 0
    # ones at each w where core row y reads 1
    zeros = counts[..., 0]
    d = zeros.sum(axis=1) + core.astype(np.int64) @ (counts[..., 1] - zeros).T
    slots = np.arange(rows)
    # an ordering holds its gathered int64 row of D and that row's index
    assignment, score = _best_ordering(k, 16 << k, lambda x: d[x, slots].sum(axis=1))
    return assignment, Fraction(score, len(xs))


def iso_sample_budget(k: int, eps: float, cfg: TesterConfig) -> int:
    """Number of core samples: c_iters * k * log2(k + 2) / eps^2, with k
    floored at 1 so tiny cores still get a positive budget."""
    k = as_index(k, "k", 0)
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
    An f_spec not in core form raises ``ValueError``.
    """
    _check_core_form(f_spec)
    if f_spec.n != g.n:
        raise ValueError("dimension mismatch")
    as_real(eps, "eps", 0, 1)
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
