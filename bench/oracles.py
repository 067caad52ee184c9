"""Instance oracles for the benchmark: a recording wrapper and references.

``Recorder`` is the black box every tester receives.  It counts physical
evaluations, keeps each queried point with the answer the library produced
(unless told not to), and can open a trace span around every call.  After an op the benchmark
replays the recorded points through a reference evaluator written here from
the instance's definition (not through the library's ``eval_many``), so a
single wrong answer anywhere in an op is caught.
"""

from __future__ import annotations

import numpy as np

from psymtest.boolfn import BooleanFunction


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).astype(np.int64)


class Parity:
    """Reference for the parity of ``indices``."""

    def __init__(self, n: int, indices):
        self.n = n
        self.indices = tuple(sorted(int(i) for i in indices))
        self.mask = sum(1 << i for i in self.indices)

    def one(self, x: int) -> int:
        return bin(x & self.mask).count("1") & 1

    def many(self, xs: np.ndarray) -> np.ndarray:
        return (_popcount(xs & np.uint64(self.mask)) & 1).astype(np.uint8)


class RelabeledCore:
    """Reference for x -> core[bits of pi(x) at asym, weight of the rest].

    ``mapping[i]`` is where pi sends bit i (the library's convention); with
    no mapping the core function is read directly.
    """

    def __init__(self, n: int, asym, core: np.ndarray, mapping=None):
        self.n = n
        self.asym = tuple(int(a) for a in asym)
        self.core = np.asarray(core, dtype=np.uint8)
        self.mapping = tuple(range(n)) if mapping is None else tuple(int(d) for d in mapping)
        self._tables = None

    def _apply(self, x: int) -> int:
        y = 0
        for i, d in enumerate(self.mapping):
            if (x >> i) & 1:
                y |= 1 << d
        return y

    def one(self, x: int) -> int:
        y = self._apply(x)
        bits = [(y >> a) & 1 for a in self.asym]
        xc = sum(b << c for c, b in enumerate(bits))
        return int(self.core[xc, bin(y).count("1") - sum(bits)])

    def many(self, xs: np.ndarray) -> np.ndarray:
        if self._tables is None:
            # one 256-entry lookup table per input byte: byte value -> moved bits
            tables = np.zeros((8, 256), dtype=np.uint64)
            for byte in range(8):
                for value in range(256):
                    tables[byte, value] = np.uint64(self._apply(value << (8 * byte)))
            self._tables = tables
        raw = xs.view(np.uint8).reshape(-1, 8)
        ys = np.zeros(len(xs), dtype=np.uint64)
        for byte in range(8):
            ys |= self._tables[byte][raw[:, byte]]
        xc = np.zeros(len(xs), dtype=np.int64)
        for c, a in enumerate(self.asym):
            xc |= ((ys >> np.uint64(a)) & np.uint64(1)).astype(np.int64) << c
        return self.core[xc, _popcount(ys) - _popcount(xc.astype(np.uint64))]


class Recorder(BooleanFunction):
    """Oracle wrapper: counts, records and optionally traces every query.
    With ``keep=False`` it only counts, so it holds no memory per query."""

    kind = "recorder"

    def __init__(self, inner: BooleanFunction, reference, tracer=None, keep: bool = True):
        super().__init__(inner.n)
        self.inner = inner
        self.reference = reference
        self.tracer = tracer
        self.keep = keep
        self.evals = 0
        self.points: list = []  # per call: an int (scalar) or a uint64 array
        self.answers: list = []

    def _eval(self, x: int) -> int:
        if self.tracer is None:
            y = self.inner(x)
        else:
            span = self.tracer.begin("boolfn.call", 1)
            try:
                y = self.inner(x)
            finally:
                self.tracer.end(span)
        self.evals += 1
        if self.keep:
            self.points.append(x)
            self.answers.append(int(y))
        return y

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        if self.tracer is None:
            ys = self.inner.eval_many(xs)
        else:
            span = self.tracer.begin("boolfn.eval_many", len(xs))
            try:
                ys = self.inner.eval_many(xs)
            finally:
                self.tracer.end(span)
        self.evals += len(xs)
        if not self.keep:
            return ys
        # copies, so a caller reusing its buffers cannot rewrite the record
        self.points.append(np.array(xs, dtype=np.uint64) if self.n <= 64 else [int(v) for v in xs])
        self.answers.append(np.array(ys, dtype=np.uint8))
        return ys

    def flat(self, start: int = 0) -> tuple[list[int], list[int]]:
        """Queried points and their answers, in query order, from call
        ``start`` on."""
        points: list[int] = []
        answers: list[int] = []
        for p, a in zip(self.points[start:], self.answers[start:]):
            if isinstance(p, int):
                points.append(p)
                answers.append(a)
            else:
                points.extend(int(v) for v in p)
                answers.extend(int(v) for v in a)
        return points, answers

    def mismatches(self) -> int:
        """Recorded answers that disagree with the reference."""
        bad = 0
        for p, a in zip(self.points, self.answers):
            if isinstance(p, int):
                bad += a != self.reference.one(p)
            elif self.n <= 64:
                bad += int(np.count_nonzero(self.reference.many(p) != a))
            else:
                bad += sum(int(v) != self.reference.one(int(x)) for x, v in zip(p, a))
        return bad
