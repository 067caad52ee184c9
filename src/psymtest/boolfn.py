"""Boolean function representations with uniform query access.

Every function is a total map {0,1}^n -> {0,1} queried at integer masks
(variable i is bit i, variable 0 least significant, so a mask is also the
truth-table index of the point).  ``eval_many`` takes a batch of points in
one of two forms: a 1-D integer array at n <= 64, or a sequence of ints at
any n.  It rejects a bad point with ``ValueError`` as ``__call__`` does (a
point outside the cube, a float, a bool scalar or array) and turns the
batch into a (b, ceil(n/64)) uint64 word block, and every structured kind
evaluates that block with array operations at every n.  The batches that
the library draws above n = 64 are ``WordPoints`` sequences, whose words
every library kind and wrapper takes as they are; an oracle of its own
that iterates such a batch reads its ints.  A relabeling g(x) = f(pi x) of a
structured kind is again a function of that kind (``permuted`` returns it,
and a ``Permuted`` wrapper evaluates batches through it); only an opaque
inner function (a truth table or a counting wrapper) has its points moved by
``Permutation.apply_many``'s byte tables.  Dense truth tables are capped at
n <= 25; larger n must use one of the structured kinds.  All functions are
immutable after construction and safe to query concurrently; the counting
wrapper's counter is the single mutable spot and needs external
synchronization if shared across threads.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from ._bits import (
    WordPoints,
    as_bits,
    as_index,
    bits_to_hex,
    block_points,
    block_weights,
    hex_to_bits,
    mask_from_indices,
    to_words,
)

MAX_DENSE_N = 25


def _check_top_word(block: np.ndarray, n: int) -> None:
    """Raise ``ValueError`` if a row of the word block has a bit at or above n."""
    if n % 64 and len(block):
        top = int(block[:, -1].max())
        if top >> (n % 64):
            raise ValueError(f"point with top word {top} outside {{0,1}}^{n}")


class Permutation:
    """Relabeling of n variable positions.

    ``mapping[i]`` is the destination of variable i: applying the permutation
    to a point moves bit i of the input to bit ``mapping[i]`` of the result.
    """

    __slots__ = ("mapping", "_tables")

    def __init__(self, mapping: Sequence[int]):
        m = tuple(as_index(v, "permutation entry") for v in mapping)
        if sorted(m) != list(range(len(m))):
            raise ValueError("mapping is not a bijection on range(n)")
        self.mapping = m
        self._tables: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"Permutation({list(self.mapping)})"

    def apply(self, x: int) -> int:
        """Move each set bit i of ``x`` to position mapping[i]; ``x`` must
        be an integer point of {0,1}^n, or ``ValueError`` is raised."""
        x = as_index(x, "x")
        if not 0 <= x < (1 << len(self.mapping)):
            raise ValueError(f"x = {x} outside {{0,1}}^{len(self.mapping)}")
        y = 0
        while x:
            low = x & -x
            y |= 1 << self.mapping[low.bit_length() - 1]
            x ^= low
        return y

    def apply_many(self, xs: np.ndarray) -> np.ndarray:
        """``apply`` over a (b, ceil(n/64)) uint64 word block, one table
        lookup per byte; returns a block of the same shape.  A block of
        another width, of non-integer or negative words, or with a bit at
        or above n raises ``ValueError`` as ``apply`` does.

        Entry [j, v] of the cached tables holds the words of the image of
        the point v << 8j, so a point's image is the OR of its bytes' images.
        """
        n = len(self.mapping)
        width = (n + 63) // 64
        xs = np.asarray(xs)
        if xs.dtype.kind not in "iu" or xs.ndim != 2 or xs.shape[1] != width:
            raise ValueError(f"a block for n = {n} needs (b, {width}) integer words, got {xs.dtype} {xs.shape}")
        if xs.dtype.kind == "i" and xs.size and xs.min() < 0:
            raise ValueError(f"word {xs.min()} of a block is negative")
        xs = np.ascontiguousarray(xs, dtype="<u8")
        _check_top_word(xs, n)
        if self._tables is None:
            self._tables = self._byte_tables()
        nbytes = len(self._tables)
        parts = xs.view(np.uint8).reshape(xs.shape[0], 8 * xs.shape[1])[:, :nbytes]
        ys = np.take(self._tables[0], parts[:, 0], axis=0)
        for j in range(1, nbytes):
            ys |= np.take(self._tables[j], parts[:, j], axis=0)
        return ys

    def _byte_tables(self) -> np.ndarray:
        n = len(self.mapping)
        v = np.arange(256, dtype=np.uint64)
        tables = np.zeros(((n + 7) // 8, 256, (n + 63) // 64), dtype=np.uint64)
        for i, d in enumerate(self.mapping):
            tables[i // 8, :, d // 64] |= ((v >> np.uint64(i % 8)) & np.uint64(1)) << np.uint64(d % 64)
        return tables

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, d in enumerate(self.mapping):
            inv[d] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation applying ``other`` first, then ``self``."""
        if len(other) != len(self):
            raise ValueError("size mismatch")
        return Permutation(tuple(self.mapping[d] for d in other.mapping))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        return cls(rng.permutation(n))


class BooleanFunction:
    """Base query interface; subclasses fill in ``_eval``."""

    kind = "abstract"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = int(n)

    def __call__(self, x: int) -> int:
        x = as_index(x, "point")
        if not 0 <= x < (1 << self.n):
            raise ValueError(f"point {x} outside {{0,1}}^{self.n}")
        return self._eval(x)

    def _eval(self, x: int) -> int:
        raise NotImplementedError

    def eval_many(self, xs) -> np.ndarray:
        """Evaluate a batch of points, a 1-D uint64 array (n <= 64) or a
        sequence of ints (any n); one query is counted per element."""
        return np.fromiter((self(v) for v in xs), dtype=np.uint8, count=len(xs))

    def _block(self, xs) -> np.ndarray:
        """``xs`` as a (b, ceil(n/64)) uint64 word block, checked as in
        ``__call__``: a bad point raises ``ValueError``.

        A ``WordPoints`` sequence of ceil(n/64) words per point (the form
        ``block_points`` gives above n = 64) is taken as its words, uint64
        since it was built, once its top word is checked against n % 64;
        one of another width is read as its ints.  An array must be 1-D
        with an integer dtype (one check per batch, plus a ``min`` pass when
        it is signed).  A sequence becomes a list of ints in one pass, in
        which an element other than an exact int goes through ``as_index``
        as in ``__call__``, so a float or a bool is rejected.  At n <= 64
        the block is a view of the uint64 array, range-checked by one
        ``max`` pass (none at n = 64, where every uint64 is a point).
        Above, the ints go through one bytes pass and the top word is
        checked as for a ``WordPoints``.
        """
        n = self.n
        if isinstance(xs, WordPoints) and xs.words.shape[1] == (n + 63) // 64:
            _check_top_word(xs.words, n)
            return xs.words
        if isinstance(xs, np.ndarray):
            if xs.ndim != 1:
                raise ValueError(f"points must be a 1-D array, got shape {xs.shape}")
            if xs.dtype.kind not in "iu":
                raise ValueError(f"points must be integers, got an array of {xs.dtype}")
            if xs.dtype.kind == "i" and len(xs) and xs.min() < 0:
                raise ValueError(f"point {xs.min()} outside {{0,1}}^{n}")
            if n > 64:
                xs = xs.tolist()
        else:
            xs = [x if x.__class__ is int else as_index(x, "point") for x in xs]
        try:
            if n <= 64:
                if isinstance(xs, np.ndarray):
                    xs = xs.astype(np.uint64, copy=False)
                else:
                    xs = np.fromiter(xs, dtype=np.uint64, count=len(xs))
                if n < 64 and len(xs):
                    top = int(xs.max())
                    if top >> n:
                        raise ValueError(f"point {top} outside {{0,1}}^{n}")
                return xs[:, None]
            width = (n + 63) // 64
            raw = b"".join([x.to_bytes(8 * width, "little") for x in xs])
        except OverflowError:
            raise ValueError(f"points outside {{0,1}}^{n}") from None
        block = np.frombuffer(raw, dtype="<u8").reshape(len(xs), width)
        _check_top_word(block, n)
        return block

    def permuted(self, pi: Permutation) -> "BooleanFunction":
        """g with g(x) = f(pi x), no table materialized: the relabeled
        function itself for a structured kind, else a lazy ``Permuted``.
        ``pi`` must act on n variables, or ``ValueError`` is raised."""
        if len(pi) != self.n:
            raise ValueError("permutation size mismatch")
        g = self._relabeled(pi)
        return Permuted(self, pi) if g is None else g

    def _relabeled(self, pi: Permutation) -> "BooleanFunction | None":
        """Closed form of g(x) = f(pi x) for a ``pi`` of size n, or None
        when the kind has none and queries must be relabeled point by point."""
        return None

    def truth_table(self) -> np.ndarray:
        if self.n > MAX_DENSE_N:
            raise ValueError(f"truth table needs n <= {MAX_DENSE_N}")
        return self.eval_many(np.arange(1 << self.n, dtype=np.uint64))


class TruthTable(BooleanFunction):
    kind = "truth_table"

    def __init__(self, n: int, table):
        super().__init__(n)
        if n > MAX_DENSE_N:
            raise ValueError(f"dense tables are capped at n <= {MAX_DENSE_N}")
        t = as_bits(table, "table")
        if t.shape != (1 << n,):
            raise ValueError(f"table must have 2^{n} entries")
        self.table = t
        self.table.flags.writeable = False

    def _eval(self, x: int) -> int:
        return int(self.table[x])

    def eval_many(self, xs) -> np.ndarray:
        return self.table[self._block(xs)[:, 0]]

    def truth_table(self) -> np.ndarray:
        return self.table


class KLinear(BooleanFunction):
    """Parity of a fixed index set."""

    kind = "k_linear"

    def __init__(self, n: int, indices: Iterable[int]):
        super().__init__(n)
        idx = tuple(sorted(as_index(i, "index") for i in indices))
        if len(set(idx)) != len(idx) or any(not 0 <= i < n for i in idx):
            raise ValueError("indices must be distinct and in range(n)")
        self.indices = idx
        self.mask = mask_from_indices(idx)
        self._mask_words = to_words(self.mask, (n + 63) // 64)

    def _eval(self, x: int) -> int:
        return (x & self.mask).bit_count() & 1

    def eval_many(self, xs) -> np.ndarray:
        return (block_weights(self._block(xs) & self._mask_words) & 1).astype(np.uint8)

    def _relabeled(self, pi: Permutation) -> "BooleanFunction":
        inv = pi.inverse().mapping
        return KLinear(self.n, (inv[i] for i in self.indices))


class PartiallySymmetricCore(BooleanFunction):
    """Function symmetric outside k distinguished variables.

    ``asym`` lists the k asymmetric positions in core-coordinate order and
    ``core[x, w]`` gives the output for asymmetric values x (a k-bit mask)
    and Hamming weight w of the remaining n - k variables.
    """

    kind = "psym_core"

    def __init__(self, n: int, k: int, asym: Iterable[int], core):
        super().__init__(n)
        k = as_index(k, "k")
        asym = tuple(as_index(a, "asym position") for a in asym)
        if not 0 <= k < n or len(asym) != k:
            raise ValueError("need 0 <= k < n and k asymmetric positions")
        if len(set(asym)) != k or any(not 0 <= a < n for a in asym):
            raise ValueError("asym positions must be distinct and in range(n)")
        c = as_bits(core, "core")
        if c.shape != (1 << k, n - k + 1):
            raise ValueError(f"core must have shape (2^{k}, {n - k + 1})")
        self.k = k
        self.asym = asym
        self.core = c
        self.core.flags.writeable = False
        self._flat_core = self.core.reshape(-1)
        self.asym_mask = mask_from_indices(asym)
        self.sym_mask = ((1 << n) - 1) ^ self.asym_mask
        self._sym_words = to_words(self.sym_mask, (n + 63) // 64)

    def core_eval(self, x: int, w: int) -> int:
        """Value of the core at asymmetric values ``x`` and symmetric weight
        ``w``; both must be integers in range, or ``ValueError`` is raised."""
        x = as_index(x, "x")
        w = as_index(w, "w")
        if not 0 <= x < (1 << self.k):
            raise ValueError(f"x = {x} outside {{0,1}}^{self.k}")
        if not 0 <= w <= self.n - self.k:
            raise ValueError(f"w = {w} outside 0..{self.n - self.k}")
        return int(self.core[x, w])

    def _eval(self, x: int) -> int:
        xc = 0
        for c, a in enumerate(self.asym):
            xc |= ((x >> a) & 1) << c
        return int(self.core[xc, (x & self.sym_mask).bit_count()])

    def eval_many(self, xs) -> np.ndarray:
        """``__call__`` over a batch: each point reads the flattened core at
        w + (n - k + 1) xc, its symmetric weight w plus the stride
        (n - k + 1) 2^c of every set asymmetric bit c."""
        xs = self._block(xs)
        idx = block_weights(xs & self._sym_words).astype(np.int64)
        for c, a in enumerate(self.asym):
            bit = xs[:, a // 64] >> np.uint64(a % 64)
            bit &= np.uint64(1)
            bit *= np.uint64((self.n - self.k + 1) << c)
            idx += bit.view(np.int64)
        return self._flat_core[idx]

    def _relabeled(self, pi: Permutation) -> "BooleanFunction":
        # g(x) = f(pi x) reads asymmetric value c at pi^{-1}(asym[c]); at k = 0
        # g is f, since weight is permutation-invariant
        if not self.k:
            return self
        inv = pi.inverse().mapping
        return PartiallySymmetricCore(self.n, self.k, (inv[a] for a in self.asym), self.core)


class SymmetricProfile(PartiallySymmetricCore):
    """Output depends only on the Hamming weight: f(x) = profile[|x|].  It is
    the core form with k = 0, evaluated, relabeled and tested against as a
    core; ``profile`` is a read-only view of its one core row."""

    kind = "symmetric_profile"

    def __init__(self, n: int, profile):
        p = as_bits(profile, "profile")
        if p.shape != (n + 1,):
            raise ValueError("profile needs n + 1 entries")
        super().__init__(n, 0, (), p[None, :])
        self.profile = self.core[0]


class Permuted(BooleanFunction):
    """Lazy wrapper: g(x) = inner(pi x).

    When ``inner`` has a closed-form relabeling (a structured kind, or
    another ``Permuted``, whose permutation composes with ``pi``),
    ``eval_many`` hands the batch to that relabeled function, built once
    here.  Otherwise (a truth table or a counting wrapper) each batch is
    relabeled by ``pi``'s byte tables and handed to ``inner`` in the public
    form, so a wrapper sees every query.  A scalar query always relabels its
    point and calls ``inner``.
    """

    kind = "permuted"

    def __init__(self, inner: BooleanFunction, pi: Permutation):
        super().__init__(inner.n)
        if len(pi) != inner.n:
            raise ValueError("permutation size mismatch")
        self.inner = inner
        self.pi = pi
        self._folded = inner._relabeled(pi)

    def _eval(self, x: int) -> int:
        return self.inner(self.pi.apply(x))

    def eval_many(self, xs) -> np.ndarray:
        if self._folded is not None:
            return self._folded.eval_many(xs)
        return self.inner.eval_many(block_points(self.pi.apply_many(self._block(xs))))

    def _relabeled(self, pi: Permutation) -> "BooleanFunction":
        return self.inner.permuted(self.pi.compose(pi))


class CountingFunction(BooleanFunction):
    """Wrapper that counts every evaluation of the inner function."""

    kind = "counting"

    def __init__(self, inner: BooleanFunction):
        super().__init__(inner.n)
        self.inner = inner
        self.count = 0

    def _eval(self, x: int) -> int:
        self.count += 1
        return self.inner(x)

    def eval_many(self, xs) -> np.ndarray:
        ys = self.inner.eval_many(xs)
        self.count += len(xs)
        return ys

    def reset(self) -> None:
        self.count = 0


def counting_oracle(f: BooleanFunction) -> CountingFunction:
    """Wrap ``f`` so every query is counted (count starts at 0)."""
    return CountingFunction(f)


def read_count(f: BooleanFunction) -> int:
    if not isinstance(f, CountingFunction):
        raise TypeError("read_count needs a counting wrapper")
    return f.count


def apply_permutation(f: BooleanFunction, pi: Permutation) -> BooleanFunction:
    """Return g with g(x) = f(pi x)."""
    return f.permuted(pi)


def random_function(n: int, rng: np.random.Generator) -> TruthTable:
    """Uniformly random dense function (n <= 25)."""
    if n > MAX_DENSE_N:
        raise ValueError(f"random dense tables need n <= {MAX_DENSE_N}")
    return TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def _check_core_size(n: int, k: int) -> None:
    """Refuse a core past 2^MAX_DENSE_N entries, testing k before any size."""
    if 0 <= k <= n and (k > MAX_DENSE_N or (n - k + 1) << k > 1 << MAX_DENSE_N):
        raise ValueError(f"a core of 2^{k} x {n - k + 1} entries exceeds 2^{MAX_DENSE_N}")


def random_core_spec(n: int, k: int, rng: np.random.Generator) -> PartiallySymmetricCore:
    """Uniformly random (n-k)-symmetric function in core form; the core's
    2^k (n - k + 1) entries are capped at 2^MAX_DENSE_N; k must lie in
    0..n-1, as the core form requires, and is checked before any draw."""
    n, k = as_index(n, "n"), as_index(k, "k")
    if not 0 <= k < n:
        raise ValueError(f"core size k must satisfy 0 <= k < n = {n}, got {k}")
    _check_core_size(n, k)
    asym = tuple(int(a) for a in rng.choice(n, size=k, replace=False))
    core = rng.integers(0, 2, size=(1 << k, n - k + 1), dtype=np.uint8)
    return PartiallySymmetricCore(n, k, asym, core)


def function_to_json(f: BooleanFunction) -> dict:
    """JSON-serializable spec; truth tables and cores are hex, little-endian."""
    if isinstance(f, TruthTable):
        return {"kind": "truth_table", "n": f.n, "table_hex": bits_to_hex(f.table)}
    if isinstance(f, KLinear):
        return {"kind": "k_linear", "n": f.n, "indices": list(f.indices)}
    if isinstance(f, SymmetricProfile):
        return {"kind": "symmetric_profile", "n": f.n, "profile": [int(b) for b in f.profile]}
    if isinstance(f, PartiallySymmetricCore):
        return {
            "kind": "psym_core",
            "n": f.n,
            "k": f.k,
            "asym": list(f.asym),
            "core_hex": bits_to_hex(f.core.reshape(-1)),
        }
    raise ValueError(f"kind {f.kind!r} has no file form")


_JSON_TYPES = {int: "integer", str: "string", list: "array"}


def _json_fields(obj: dict, **types: type) -> list:
    """The values of ``obj``'s fields other than "kind", which must be
    exactly the keys of ``types``, each a JSON value of its type (a bool is
    no integer)."""
    extra = obj.keys() - types.keys() - {"kind"}
    if extra:
        raise ValueError(f"a {obj['kind']} spec takes no field {', '.join(sorted(map(repr, extra)))}")
    values = []
    for key, kind in types.items():
        if key not in obj:
            raise ValueError(f"a {obj['kind']} spec needs field {key!r}")
        value = obj[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(f"field {key!r} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
        values.append(value)
    return values


def function_from_json(obj: dict) -> BooleanFunction:
    """The function that a spec in ``function_to_json``'s form describes;
    any other key set, JSON type or value raises ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"a function spec must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "truth_table":
        n, table_hex = _json_fields(obj, n=int, table_hex=str)
        if n > MAX_DENSE_N:
            raise ValueError(f"dense tables are capped at n <= {MAX_DENSE_N}, got n = {n}")
        return TruthTable(n, hex_to_bits(table_hex, 1 << n))
    if kind == "k_linear":
        return KLinear(*_json_fields(obj, n=int, indices=list))
    if kind == "symmetric_profile":
        n, profile = _json_fields(obj, n=int, profile=list)
        if any(isinstance(bit, bool) for bit in profile):
            raise ValueError("field 'profile' must hold JSON integers 0 or 1, got a bool")
        return SymmetricProfile(n, profile)
    if kind == "psym_core":
        n, k, asym, core_hex = _json_fields(obj, n=int, k=int, asym=list, core_hex=str)
        if not 0 <= k < n:
            raise ValueError(f"field 'k' must satisfy 0 <= k < n = {n}, got {k}")
        _check_core_size(n, k)
        bits = hex_to_bits(core_hex, (1 << k) * (n - k + 1))
        return PartiallySymmetricCore(n, k, asym, bits.reshape(1 << k, n - k + 1))
    raise ValueError(f"unknown function kind {kind!r}")


def save_function(f: BooleanFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(function_to_json(f), fh)
        fh.write("\n")


def load_function(path) -> BooleanFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(json.load(fh))


__all__ = [
    "MAX_DENSE_N",
    "BooleanFunction",
    "CountingFunction",
    "KLinear",
    "PartiallySymmetricCore",
    "Permutation",
    "Permuted",
    "SymmetricProfile",
    "TruthTable",
    "apply_permutation",
    "counting_oracle",
    "function_from_json",
    "function_to_json",
    "load_function",
    "random_core_spec",
    "random_function",
    "read_count",
    "save_function",
]
