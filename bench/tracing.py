"""In-process spans around the library's layer boundaries.

The tracer replaces module attributes of ``psymtest`` with timing wrappers,
so every call made through those names (by the benchmark or by the library
itself) opens a span.  Spans (name, start, end, parent, amount) live in flat
arrays and are written out once at the end; self times come from the spans:
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from functools import wraps

import numpy as np

# (module, attribute, span name, amount taken from (args, result) or None)
_PATCHES = [
    ("testers", "junta_test", "testers.junta_test", "parts"),
    ("testers", "partially_symmetric_test", "testers.partially_symmetric_test", "parts"),
    ("testers", "random_partition", "testers.random_partition", None),
    ("testers", "random_mask", "bits.random_mask", None),
    ("testers", "random_masks_u64", "bits.random_masks_u64", None),
    ("testers", "rearrange_bits", "bits.rearrange_bits", None),
    ("testers", "rearrange_bits_block", "bits.rearrange_bits_block", "rows"),
    ("influence", "random_mask", "bits.random_mask", None),
    ("influence", "random_masks_u64", "bits.random_masks_u64", None),
    ("influence", "rearrange_bits", "bits.rearrange_bits", None),
    ("influence", "rearrange_bits_block", "bits.rearrange_bits_block", "rows"),
    ("sampling", "random_mask", "bits.random_mask", None),
    ("sampling", "random_masks_u64", "bits.random_masks_u64", None),
    ("isomorphism", "iso_test", "isomorphism.iso_test", None),
    ("isomorphism", "partially_symmetric_test", "testers.partially_symmetric_test", "parts"),
    ("isomorphism", "draw_core_samples_batch", "sampling.draw_core_samples_batch", "count"),
    ("sampling", "build_sampler", "sampling.build_sampler", None),
    ("sampling", "partially_symmetric_test", "testers.partially_symmetric_test", "parts"),
    ("sampling", "draw_core_samples_batch", "sampling.draw_core_samples_batch", "count"),
] + [
    ("influence", name, f"influence.{name}", "butterflies" if name == "walsh_hadamard" else None)
    for name in (
        "walsh_hadamard",
        "symmetric_influence_exact",
        "symmetric_influence_fourier",
        "closest_j_symmetric",
        "influence_exact",
    )
] + [
    ("oracle", name, f"oracle.{name}", None)
    for name in ("dist_to_t_symmetric", "dist_to_k_junta", "find_core")
]


# spans the benchmark opens itself: around each op and in the recording oracle
OWN_SPANS = frozenset({"op", "boolfn.call", "boolfn.eval_many"})


class MissingSpan(LookupError):
    """A span name was read that the tracer never wrapped."""


def _amount(kind, args, result) -> float:
    if kind == "parts":
        return len(result.found_parts)
    if kind == "rows":
        return len(args[0])
    if kind == "count":
        return args[1]
    if kind == "butterflies":
        return args[0].n << args[0].n
    return 0


class Tracer:
    """Span store plus the module patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.stop = array("d")
        self.parent = array("i")
        self.amount = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.patched: set[str] = set()

    def begin(self, name: str, amount: float = 0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.amount.append(amount)
        self.stop.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.stop[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, kind=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if kind is not None:
                self.amount[idx] = _amount(kind, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every listed name; a name the package no longer has is
        skipped instead of failing the run, and its span stays unknown."""
        for module_name, attr, name, kind in _PATCHES:
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, kind))
            self.patched.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.stop, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).astype(np.int64)
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).astype(np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "amount": np.frombuffer(self.amount, dtype=np.float64, count=n),
            "dur": dur,
            "self": dur - child[:n],
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name_id", "start", "end", "parent", "amount")},
        )


class SpanView:
    """Per-name sums over the spans of a finished trace.  Reading a span
    that was never wrapped raises ``MissingSpan``; a wrapped span that no
    call opened reads as zero."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.a = tracer.arrays()

    def _id(self, name: str) -> int:
        if name not in self.t.patched and name not in OWN_SPANS:
            raise MissingSpan(name)
        return self.t._ids.get(name, -1)

    def _sel(self, name: str, parent: str | None = None) -> np.ndarray:
        nid = self._id(name)
        sel = self.a["name_id"] == nid
        if parent is not None:
            pid = self._id(parent)
            par = self.a["parent"]
            parent_names = np.where(par >= 0, self.a["name_id"][np.maximum(par, 0)], -2)
            sel &= parent_names == pid
        return sel

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._sel(name)))

    def total(self, name: str, parent: str | None = None) -> float:
        return float(self.a["dur"][self._sel(name, parent)].sum())

    def self_time(self, name: str) -> float:
        return float(self.a["self"][self._sel(name)].sum())

    def amount(self, name: str) -> float:
        return float(self.a["amount"][self._sel(name)].sum())
