import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psymtest as pt
from psymtest._bits import WordPoints, block_points, from_words, random_masks_u64, to_words
from psymtest.boolfn import MAX_DENSE_N

from helpers import apply_perm_to_point


def test_klinear_eval():
    f = pt.KLinear(3, [0, 2])
    # x = 101 reading variables 0..2, i.e. mask 0b101
    assert f(0b101) == 0
    assert f(0b001) == 1
    assert f(0b111) == 0


def test_symmetric_profile_eval():
    f = pt.SymmetricProfile(2, [0, 1, 0])
    assert f(0b01) == 1
    assert f(0b10) == 1
    assert f(0b00) == 0
    assert f(0b11) == 0


def test_core_spec_eval_hand_expanded():
    # one asymmetric variable at position 1, core(x, w) = x xor (w mod 2)
    core = np.array([[w & 1 for w in range(4)], [1 - (w & 1) for w in range(4)]], dtype=np.uint8)
    f = pt.PartiallySymmetricCore(4, 1, (1,), core)
    # x = 0110: asymmetric bit is 1, weight outside is 1 -> 1 xor 1 = 0
    assert f(0b0110) == 0
    assert f.core_eval(1, 2) == 1
    # agree with a hand-expanded truth table
    for x in range(16):
        xa = (x >> 1) & 1
        w = (x & 0b1101).bit_count()
        assert f(x) == (xa ^ (w & 1))


def test_core_eval_matches_full_eval_on_consistent_points():
    rng = np.random.default_rng(0)
    spec = pt.random_core_spec(10, 2, rng)
    sym_positions = [i for i in range(10) if i not in spec.asym]
    for _ in range(100):
        xc = int(rng.integers(0, 4))
        w = int(rng.integers(0, 9))
        ones = rng.choice(sym_positions, size=w, replace=False)
        point = sum(1 << int(p) for p in ones)
        for c, a in enumerate(spec.asym):
            point |= ((xc >> c) & 1) << a
        assert spec(point) == spec.core_eval(xc, w)


def test_constant_core_is_constant():
    core = np.zeros((2, 6), dtype=np.uint8)
    f = pt.PartiallySymmetricCore(6, 1, (3,), core)
    assert all(f(x) == 0 for x in range(64))
    assert all(f.core_eval(x, w) == 0 for x in range(2) for w in range(6))


def test_core_eval_range_errors():
    spec = pt.random_core_spec(8, 2, np.random.default_rng(1))
    with pytest.raises(ValueError):
        spec.core_eval(0, 7)
    with pytest.raises(ValueError):
        spec.core_eval(4, 0)


@pytest.mark.parametrize(
    "call, name, error",
    [
        pytest.param(lambda f, pi: f.core_eval(True, 0), "x", "must be an integer", id="core-bool-x"),
        pytest.param(lambda f, pi: f.core_eval("1", 2), "x", "must be an integer", id="core-str-x"),
        pytest.param(lambda f, pi: f.core_eval(1.0, 2), "x", "must be an integer", id="core-float-x"),
        pytest.param(lambda f, pi: f.core_eval(1, 2.0), "w", "must be an integer", id="core-float-w"),
        pytest.param(lambda f, pi: f.core_eval(1, np.True_), "w", "must be an integer", id="core-numpy-bool-w"),
        pytest.param(lambda f, pi: f.core_eval(-1, 0), "x", "= -1 outside", id="core-negative-x"),
        pytest.param(lambda f, pi: f.core_eval(0, -1), "w", "= -1 outside", id="core-negative-w"),
        pytest.param(lambda f, pi: pi.apply(8), "x", "= 8 outside", id="apply-past-the-cube"),
        pytest.param(lambda f, pi: pi.apply(-1), "x", "= -1 outside", id="apply-negative"),
        pytest.param(lambda f, pi: pi.apply(2.0), "x", "must be an integer", id="apply-float"),
        pytest.param(lambda f, pi: pi.apply(True), "x", "must be an integer", id="apply-bool"),
    ],
)
def test_core_eval_and_apply_reject_bad_input_by_name(call, name, error):
    f = pt.random_core_spec(8, 2, np.random.default_rng(1))
    pi = pt.Permutation([1, 0, 2])
    with pytest.raises(ValueError, match=f"^{name} {error}"):
        call(f, pi)


@pytest.mark.parametrize("n", [64, 65, 130])
@pytest.mark.parametrize("k", range(7))
def test_core_eval_many_reads_every_core_entry_as_call_does(n, k):
    rng = np.random.default_rng(10 * n + k)
    f = pt.random_core_spec(n, k, rng)
    asym = f.asym_mask
    sym = ((1 << n) - 1) ^ asym
    # the core's corners: no bit, every asymmetric bit (last row), every
    # symmetric bit (last column) and both
    points = [0, asym, sym, asym | sym]
    points += [from_words(row) for row in random_masks_u64(n, 200, rng)]
    # every row of the core at a random weight
    sym_pos = [i for i in range(n) if not asym >> i & 1]
    for xc in range(1 << k):
        ones = rng.choice(sym_pos, size=int(rng.integers(0, n - k + 1)), replace=False)
        points.append(sum(1 << int(a) for c, a in enumerate(f.asym) if xc >> c & 1) + sum(1 << int(p) for p in ones))
    expected = [f(x) for x in points]
    assert f.eval_many(points).tolist() == expected
    if n == 64:
        assert f.eval_many(np.array(points, dtype=np.uint64)).tolist() == expected
    assert f.eval_many([asym | sym]).tolist() == [f.core[-1, -1]]


CORE_K1_N4 = np.zeros((2, 4), dtype=np.uint8)


@pytest.mark.parametrize(
    "build, name",
    [
        pytest.param(lambda: pt.KLinear(8, [0.5]), "index", id="klinear-float"),
        pytest.param(lambda: pt.KLinear(8, [np.float64(3.0)]), "index", id="klinear-numpy-float"),
        pytest.param(lambda: pt.KLinear(8, [True]), "index", id="klinear-bool"),
        pytest.param(lambda: pt.KLinear(8, ["3"]), "index", id="klinear-str"),
        pytest.param(lambda: pt.PartiallySymmetricCore(4, 1, [0.0], CORE_K1_N4), "asym position", id="asym-float"),
        pytest.param(
            lambda: pt.PartiallySymmetricCore(4, 1, [np.True_], CORE_K1_N4), "asym position", id="asym-numpy-bool"
        ),
        pytest.param(lambda: pt.PartiallySymmetricCore(4, 1.0, [0], CORE_K1_N4), "k", id="core-float-k"),
        pytest.param(lambda: pt.Permutation([0.0, 1.0]), "permutation entry", id="permutation-float"),
        pytest.param(lambda: pt.Permutation([False, True]), "permutation entry", id="permutation-bool"),
    ],
)
def test_non_integer_indices_are_rejected(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        build()


def test_numpy_integer_indices_are_accepted():
    assert pt.KLinear(8, np.array([3, 0], dtype=np.uint8)).indices == (0, 3)
    assert pt.Permutation(np.arange(3)[::-1]).mapping == (2, 1, 0)
    assert pt.PartiallySymmetricCore(4, np.int64(1), [np.int32(2)], CORE_K1_N4).asym == (2,)
    f = pt.random_core_spec(8, 2, np.random.default_rng(1))
    assert f.core_eval(np.int64(3), np.uint8(6)) == f.core[3, 6]
    assert pt.Permutation([1, 0, 2]).apply(np.uint64(7)) == 7


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: pt.TruthTable(2, [0, 1, 0.7, 1]), id="table-float"),
        pytest.param(lambda: pt.TruthTable(2, [0, 1, -1, 1]), id="table-negative"),
        pytest.param(lambda: pt.TruthTable(2, [0, 1, 2, 1]), id="table-two"),
        pytest.param(lambda: pt.TruthTable(2, np.array([0, 1, 1, 0], dtype=np.float32)), id="table-float-array"),
        pytest.param(lambda: pt.TruthTable(2, ["0", "1", "1", "0"]), id="table-str"),
        pytest.param(lambda: pt.SymmetricProfile(3, [0, 0.5, 1, 0]), id="profile-half"),
        pytest.param(lambda: pt.SymmetricProfile(3, [0, -1, 1, 0]), id="profile-negative"),
        pytest.param(lambda: pt.PartiallySymmetricCore(4, 1, [0], CORE_K1_N4 + 0.5), id="core-half"),
        pytest.param(lambda: pt.PartiallySymmetricCore(4, 1, [0], CORE_K1_N4.astype(np.int8) - 1), id="core-negative"),
    ],
)
def test_non_bit_table_entries_are_rejected(build):
    with pytest.raises(ValueError, match="entries must be bits"):
        build()


def test_bool_and_integer_tables_are_accepted():
    bits = [0, 1, 1, 0]
    for table in (bits, np.array(bits, dtype=bool), np.array(bits, dtype=np.int64), np.array(bits, dtype=np.uint16)):
        assert pt.TruthTable(2, table).table.tolist() == bits
    assert pt.SymmetricProfile(3, np.array([1, 0, 0, 1], dtype=bool)).profile.tolist() == [1, 0, 0, 1]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: pt.KLinear(8, [0])(True), id="scalar-bool"),
        pytest.param(lambda: pt.KLinear(8, [0])(3.0), id="scalar-float"),
        pytest.param(lambda: pt.KLinear(8, [0]).eval_many(np.array([1.5, 2.0])), id="float-array"),
        pytest.param(lambda: pt.KLinear(8, [0]).eval_many(np.array([True, False])), id="bool-array"),
        pytest.param(lambda: pt.KLinear(100, [0]).eval_many([1.5]), id="wide-float-element"),
        pytest.param(lambda: pt.KLinear(8, [0]).eval_many([True, 0]), id="bool-element"),
        pytest.param(lambda: pt.KLinear(100, [0]).eval_many([True]), id="wide-bool-element"),
    ],
)
def test_non_integer_points_are_rejected(call):
    with pytest.raises(ValueError, match="must be an integer|must be integers"):
        call()


def test_eval_rejects_out_of_range_points():
    f = pt.KLinear(4, [0])
    with pytest.raises(ValueError):
        f(16)
    with pytest.raises(ValueError):
        f(-1)


def test_apply_permutation_identity_and_dictator_swap():
    rng = np.random.default_rng(2)
    f = pt.random_function(5, rng)
    g = pt.apply_permutation(f, pt.Permutation.identity(5))
    assert all(g(x) == f(x) for x in range(32))

    dictator = pt.TruthTable(2, [0, 1, 0, 1])  # f(x) = x_0
    swapped = pt.apply_permutation(dictator, pt.Permutation([1, 0]))
    # x = 10 (mask 0b01) maps to 01 (mask 0b10): f there is 0
    assert swapped(0b01) == 0
    assert [swapped(x) for x in range(4)] == [0, 0, 1, 1]


def test_symmetric_function_is_permutation_invariant():
    rng = np.random.default_rng(3)
    f = pt.SymmetricProfile(7, rng.integers(0, 2, size=8, dtype=np.uint8))
    for _ in range(5):
        pi = pt.Permutation.random(7, rng)
        g = pt.apply_permutation(f, pi)
        assert all(g(x) == f(x) for x in range(128))


def test_permutation_matches_coordinate_relabeling_definition():
    rng = np.random.default_rng(4)
    f = pt.random_function(6, rng)
    pi = pt.Permutation.random(6, rng)
    g = pt.apply_permutation(f, pi)
    for x in range(64):
        assert g(x) == f(apply_perm_to_point(x, pi.mapping, 6))


def test_permutation_roundtrip_pointwise():
    rng = np.random.default_rng(5)
    f = pt.random_function(6, rng)
    for _ in range(10):
        pi = pt.Permutation.random(6, rng)
        h = pt.apply_permutation(pt.apply_permutation(f, pi), pi.inverse())
        assert all(h(x) == f(x) for x in range(64))


@given(st.integers(0, 2**12 - 1), st.permutations(list(range(12))))
def test_permutation_preserves_weight(x, mapping):
    pi = pt.Permutation(mapping)
    assert pi.apply(x).bit_count() == x.bit_count()


@given(st.permutations(list(range(8))), st.permutations(list(range(8))))
@settings(max_examples=50)
def test_permutation_compose_inverse(m1, m2):
    p1, p2 = pt.Permutation(m1), pt.Permutation(m2)
    x = 0b10110101
    assert p1.compose(p2).apply(x) == p1.apply(p2.apply(x))
    assert p1.compose(p1.inverse()).mapping == tuple(range(8))


def test_core_spec_invariant_under_symmetric_block_permutations():
    rng = np.random.default_rng(6)
    spec = pt.random_core_spec(8, 2, rng)
    sym = [i for i in range(8) if i not in spec.asym]
    for _ in range(5):
        mapping = list(range(8))
        shuffled = rng.permutation(sym)
        for src, dst in zip(sym, shuffled):
            mapping[src] = int(dst)
        pi = pt.Permutation(mapping)
        for x in range(256):
            assert spec(x) == spec(pi.apply(x))


def test_counting_oracle():
    f = pt.KLinear(6, [1, 2])
    g = pt.counting_oracle(f)
    assert pt.read_count(g) == 0
    for x in range(7):
        g(x)
    assert pt.read_count(g) == 7
    g.eval_many(np.arange(5, dtype=np.uint64))
    assert pt.read_count(g) == 12
    g.reset()
    assert pt.read_count(g) == 0
    with pytest.raises(TypeError):
        pt.read_count(f)


def test_counting_junta_cross_check():
    rng = np.random.default_rng(7)
    f = pt.counting_oracle(pt.KLinear(64, [3]))
    verdict = pt.junta_test(f, 1, 0.1, rng)
    assert pt.read_count(f) == verdict.queries + verdict.speculative


def test_random_function_determinism_and_bias():
    t1 = pt.random_function(12, np.random.default_rng(42)).table
    t2 = pt.random_function(12, np.random.default_rng(42)).table
    assert np.array_equal(t1, t2)
    assert abs(t1.mean() - 0.5) < 0.05
    with pytest.raises(ValueError):
        pt.random_function(MAX_DENSE_N + 1, np.random.default_rng(0))


def test_random_core_spec_is_symmetric_outside_asym():
    rng = np.random.default_rng(8)
    spec = pt.random_core_spec(10, 2, rng)
    sym = [i for i in range(10) if i not in spec.asym]
    assert len(sym) == 8
    assert pt.is_j_symmetric(spec, sym)


def test_json_roundtrip_all_kinds():
    rng = np.random.default_rng(9)
    fns = [
        pt.random_function(6, rng),
        pt.KLinear(40, [0, 7, 31]),
        pt.SymmetricProfile(20, rng.integers(0, 2, size=21, dtype=np.uint8)),
        pt.random_core_spec(30, 3, rng),
    ]
    for f in fns:
        g = pt.function_from_json(pt.function_to_json(f))
        assert g.n == f.n and g.kind == f.kind
        for _ in range(50):
            x = int(rng.integers(0, 1 << min(f.n, 63)))
            assert f(x) == g(x)


def test_json_hex_encoding_is_little_endian():
    f = pt.TruthTable(2, [0, 1, 0, 0])
    blob = pt.function_to_json(f)
    # bit j of byte j // 8 holds table[j]: table 0100 -> byte 0b0010
    assert blob["table_hex"] == "02"
    assert np.array_equal(pt.function_from_json(blob).table, f.table)


def test_save_load_roundtrip(tmp_path):
    f = pt.random_core_spec(16, 2, np.random.default_rng(10))
    path = tmp_path / "f.json"
    pt.save_function(f, path)
    g = pt.load_function(path)
    assert np.array_equal(g.truth_table(), f.truth_table())


def test_wrappers_have_no_file_form():
    f = pt.counting_oracle(pt.KLinear(4, [0]))
    with pytest.raises(ValueError):
        pt.function_to_json(f)


def test_dense_table_cap():
    with pytest.raises(ValueError):
        pt.TruthTable(MAX_DENSE_N + 1, np.zeros(2 ** (MAX_DENSE_N + 1), dtype=np.uint8))


@pytest.mark.parametrize(
    "f",
    [
        pt.TruthTable(3, [0, 1, 1, 0, 1, 0, 0, 1]),
        pt.KLinear(3, [0]),
        pt.SymmetricProfile(3, [0, 1, 0, 1]),
        pt.PartiallySymmetricCore(3, 1, [2], np.zeros((2, 3), dtype=np.uint8)),
        pt.Permuted(pt.KLinear(3, [0]), pt.Permutation([2, 0, 1])),
        pt.counting_oracle(pt.KLinear(3, [0])),
        pt.KLinear(70, [0]),
    ],
    ids=lambda f: f"{f.kind}-{f.n}",
)
def test_eval_many_range_check_matches_call(f):
    top = 1 << f.n
    for bad in [top, -1] + [2**64 - 1] * (f.n < 64):
        with pytest.raises(ValueError):
            f(bad)
        with pytest.raises(ValueError):
            f.eval_many([0, bad])
    with pytest.raises(ValueError):
        f.eval_many(np.array([1, -1]))
    if isinstance(f, pt.CountingFunction):
        assert pt.read_count(f) == 0  # rejected points are not queries
    assert [int(v) for v in f.eval_many([0, top - 1])] == [f(0), f(top - 1)]


def test_eval_many_takes_every_uint64_at_n64():
    f = pt.KLinear(64, [0, 63])
    xs = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    assert [int(v) for v in f.eval_many(xs)] == [f(int(x)) for x in xs] == [0, 1, 0]


def _function_of_kind(kind: str, n: int, rng: np.random.Generator) -> pt.BooleanFunction:
    if kind == "truth_table":
        return pt.random_function(n, rng)
    if kind == "k_linear":
        return pt.KLinear(n, rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    if kind == "symmetric_profile":
        return pt.SymmetricProfile(n, rng.integers(0, 2, size=n + 1))
    return pt.random_core_spec(n, int(rng.integers(0, min(n, 4))), rng)


@st.composite
def _batched(draw):
    """A function of any kind, plain, permuted (once or twice, over a plain
    or a counted function) or counted, and a batch of its points: drawn
    ones, then uniform ones."""
    kind = draw(st.sampled_from(["truth_table", "k_linear", "symmetric_profile", "psym_core"]))
    if kind == "truth_table":
        n = draw(st.integers(1, 12))
    else:
        n = draw(st.sampled_from([1, 63, 64, 65, 130, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = _function_of_kind(kind, n, rng)
    # up to two relabelings, each over a plain or a counted function
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            f = pt.counting_oracle(f)
        f = pt.Permuted(f, pt.Permutation.random(n, rng))
    if draw(st.booleans()):
        f = pt.counting_oracle(f)
    points = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    return f, points + [from_words(row) for row in random_masks_u64(n, 16, rng)]


@settings(max_examples=150, deadline=None)
@given(_batched())
def test_batch_and_scalar_evaluation_agree(case):
    f, points = case
    n = f.n
    expected = [f(x) for x in points]
    assert f.eval_many(points).tolist() == expected
    if n <= 64:
        assert f.eval_many(np.array(points, dtype=np.uint64)).tolist() == expected
    for bad in (1 << n, -1):
        with pytest.raises(ValueError):
            f(bad)
        with pytest.raises(ValueError):
            f.eval_many(points + [bad])
    # at n = 64 every uint64 is a point, so only smaller n has a bad array
    if n < 64:
        with pytest.raises(ValueError):
            f.eval_many(np.array(points + [1 << n], dtype=np.uint64))
        with pytest.raises(ValueError):
            f.eval_many(np.array(points + [-1], dtype=np.int64))
    # a non-integer point is rejected alike by the scalar and both batch forms
    with pytest.raises(ValueError):
        f(0.0)
    with pytest.raises(ValueError):
        f.eval_many(points + [0.0])
    with pytest.raises(ValueError):
        f.eval_many(np.array(points + [0], dtype=np.float64))


@pytest.mark.parametrize("kind", ["k_linear", "symmetric_profile", "psym_core", "permuted_core"])
def test_eval_many_past_one_word_makes_no_scalar_call(kind, monkeypatch):
    n = 130
    rng = np.random.default_rng(31)
    f = _function_of_kind(kind.removeprefix("permuted_"), n, rng)
    if kind == "permuted_core":
        f = pt.Permuted(f, pt.Permutation.random(n, rng))
    points = [0, (1 << n) - 1] + [from_words(row) for row in random_masks_u64(n, 200, rng)]
    expected = [f(x) for x in points]

    def scalar_query(self, x):
        raise AssertionError("eval_many made a scalar query")

    monkeypatch.setattr(pt.BooleanFunction, "__call__", scalar_query)
    assert f.eval_many(points).tolist() == expected


@pytest.mark.parametrize("size", [4, 12])
@pytest.mark.parametrize(
    "kind",
    ["truth_table", "k_linear", "symmetric_profile", "psym_core", "permuted_truth_table", "permuted_psym_core",
     "counted_psym_core"],
)
def test_wrong_size_permutation_is_rejected(kind, size):
    n = 8
    rng = np.random.default_rng(size)
    f = _function_of_kind(kind.removeprefix("permuted_").removeprefix("counted_"), n, rng)
    if kind.startswith("permuted_"):
        f = pt.Permuted(f, pt.Permutation.random(n, rng))
    if kind.startswith("counted_"):
        f = pt.counting_oracle(f)
    pi = pt.Permutation(range(size)[::-1])
    for relabel in (f.permuted, lambda pi: pt.apply_permutation(f, pi), lambda pi: pt.Permuted(f, pi)):
        with pytest.raises(ValueError, match="permutation size mismatch"):
            relabel(pi)


@pytest.mark.parametrize("shape", [(3, 2), (), (2, 1, 1)])
@pytest.mark.parametrize(
    "kind, n",
    [("truth_table", 8), ("permuted_truth_table", 8)]
    + [(kind, n) for kind in ("k_linear", "symmetric_profile", "psym_core", "permuted_psym_core") for n in (8, 130)],
)
def test_eval_many_rejects_arrays_that_are_not_1d(kind, n, shape):
    rng = np.random.default_rng(n)
    f = _function_of_kind(kind.removeprefix("permuted_"), n, rng)
    if kind.startswith("permuted_"):
        f = pt.Permuted(f, pt.Permutation.random(n, rng))
    counted = pt.counting_oracle(f)
    with pytest.raises(ValueError, match="1-D"):
        counted.eval_many(np.zeros(shape, dtype=np.uint64))
    assert pt.read_count(counted) == 0


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 130])
@pytest.mark.parametrize("kind", ["k_linear", "symmetric_profile", "psym_core"])
def test_permuted_structured_kind_evaluates_without_byte_tables(kind, n):
    rng = np.random.default_rng(n)
    f = _function_of_kind(kind, n, rng)
    pi1, pi2 = pt.Permutation.random(n, rng), pt.Permutation.random(n, rng)
    block = random_masks_u64(n, 300, rng)
    block[0] = 0
    block[1] = to_words((1 << n) - 1, block.shape[1])
    g = pt.Permuted(f, pi1)
    gg = pt.Permuted(g, pi2)
    got, got_nested = g.eval_many(block_points(block)), gg.eval_many(block_points(block))
    assert pi1._tables is None and pi2._tables is None
    # references: byte-table relabeling on fresh copies of the permutations,
    # and scalar queries, which relabel one point at a time
    moved = pt.Permutation(pi1.mapping).apply_many(block)
    points = [from_words(row) for row in block]
    assert got.tolist() == f.eval_many(block_points(moved)).tolist() == [g(x) for x in points]
    moved_twice = pt.Permutation(pi1.mapping).apply_many(pt.Permutation(pi2.mapping).apply_many(block))
    assert got_nested.tolist() == f.eval_many(block_points(moved_twice)).tolist() == [gg(x) for x in points]


@pytest.mark.parametrize("n", [8, 64, 130])
def test_permuted_counting_wrapper_sees_every_batch_query(n):
    rng = np.random.default_rng(n)
    core = pt.random_core_spec(n, 2, rng)
    counted = pt.counting_oracle(core)
    pi1, pi2 = pt.Permutation.random(n, rng), pt.Permutation.random(n, rng)
    g = pt.Permuted(counted, pi1)
    gg = pt.Permuted(g, pi2)
    total = 0
    for f, plain in ((g, pt.Permuted(core, pi1)), (gg, pt.Permuted(pt.Permuted(core, pi1), pi2))):
        for size in (0, 1, 257):
            points = block_points(random_masks_u64(n, size, rng))
            assert f.eval_many(points).tolist() == plain.eval_many(points).tolist()
            total += size
            assert pt.read_count(counted) == total


class _LowBit(pt.BooleanFunction):
    """A subclass that defines only ``_eval``."""

    def _eval(self, x: int) -> int:
        return x & 1


def test_base_eval_many_reads_each_point_through_call():
    f = _LowBit(5)
    points = [0, 1, 6, 31, np.int64(7)]
    for xs in (points, np.array([0, 1, 6, 31, 7], dtype=np.uint64)):
        out = f.eval_many(xs)
        assert out.dtype == np.uint8 and out.tolist() == [0, 1, 0, 1, 1]
    assert f.eval_many([]).tolist() == []
    for bad in ([0, 32], [0, -1], [0, 1.0], [True]):
        with pytest.raises(ValueError):
            f.eval_many(bad)


def _library_functions(n: int, rng: np.random.Generator) -> list[pt.BooleanFunction]:
    """Every structured kind, a counting wrapper, and a relabeled core-form
    function both folded and opaque (over a counting wrapper)."""
    core = pt.random_core_spec(n, 2, rng)
    return [
        _function_of_kind("k_linear", n, rng),
        _function_of_kind("symmetric_profile", n, rng),
        core,
        pt.counting_oracle(core),
        pt.Permuted(core, pt.Permutation.random(n, rng)),
        pt.Permuted(pt.counting_oracle(core), pt.Permutation.random(n, rng)),
    ]


class _NoInts(WordPoints):
    """A word-backed batch that refuses to be read as ints."""

    def __iter__(self):
        raise AssertionError("the batch was read as ints")

    def __getitem__(self, i):
        raise AssertionError("the batch was read as ints")


@pytest.mark.parametrize("n", [65, 128, 130, 256])
def test_word_points_are_the_ints_of_their_rows(n):
    block = random_masks_u64(n, 40, np.random.default_rng(n))
    block[0] = 0
    block[1] = to_words((1 << n) - 1, block.shape[1])
    points = block_points(block)
    ints = [from_words(row) for row in block]
    assert isinstance(points, WordPoints) and len(points) == 40
    assert list(points) == ints and list(points) == ints
    assert [points[i] for i in range(-40, 40)] == ints + ints
    assert list(points[5:11]) == ints[5:11] and 0 in points and points.index(ints[7]) == 7
    with pytest.raises(IndexError):
        points[40]
    with pytest.raises(ValueError):
        points.words[0, 0] = 1
    for bad in (block.astype(np.int64), block[:, :0], block[0]):
        with pytest.raises(ValueError, match="uint64"):
            WordPoints(bad)


@pytest.mark.parametrize("n", [65, 128, 130, 256])
def test_word_points_evaluate_as_their_ints(n):
    rng = np.random.default_rng(n + 1)
    block = random_masks_u64(n, 60, rng)
    block[0] = to_words((1 << n) - 1, block.shape[1])
    ints = [from_words(row) for row in block]
    for f in _library_functions(n, rng) + [_LowBit(n)]:
        expected = [f(x) for x in ints]
        assert f.eval_many(block_points(block)).tolist() == f.eval_many(ints).tolist() == expected
        if not isinstance(f, _LowBit):
            # a library function reads the words and builds no int
            assert f.eval_many(_NoInts(block)).tolist() == expected
        # a narrower block is read as its ints
        narrow = block_points(block[:, :-1])
        assert f.eval_many(narrow).tolist() == [f(x) for x in narrow]


@pytest.mark.parametrize("n", [65, 130])
def test_word_points_past_n_are_rejected_as_their_ints(n):
    rng = np.random.default_rng(n + 2)
    block = random_masks_u64(n, 30, rng)
    block[17, -1] |= np.uint64(1 << (n % 64))
    for f in _library_functions(n, rng) + [_LowBit(n)]:
        with pytest.raises(ValueError) as words_error:
            f.eval_many(block_points(block))
        with pytest.raises(ValueError) as ints_error:
            f.eval_many(list(block_points(block)))
        assert str(words_error.value) == str(ints_error.value)
