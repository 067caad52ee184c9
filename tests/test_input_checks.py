"""Refusals of malformed or oversized input, one case per check: each raises
``ValueError`` with its own message before any work is done."""

import re

import numpy as np
import pytest

import psymtest as pt
from psymtest import influence, isomorphism, oracle
from psymtest.boolfn import MAX_DENSE_N
from psymtest.oracle import SetFamily
from psymtest.sampling import dstar_pmf, handle_from_verdict, marginal_tv_estimate, sample_dstar


def _core(n: int, k: int) -> pt.PartiallySymmetricCore:
    return pt.PartiallySymmetricCore(n, k, range(k), np.zeros((1 << k, n - k + 1), dtype=np.uint8))


def _verdict(accepted: bool, found: list[int], workspace):
    return pt.TestVerdict(accepted, 0, found, pt.Partition(4, [0b11, 0, 0b1100]), workspace)


def _lin(n: int) -> pt.KLinear:
    return pt.KLinear(n, [0])


def _rng():
    return np.random.default_rng(0)


_ONE = np.zeros(1, dtype=np.int64)
_INF_N = influence.MAX_EXACT_INFLUENCE_N + 1
_SYM_N = influence.MAX_EXACT_SYMINF_N + 1
_FOURIER_N = influence.MAX_FOURIER_N + 1
_K = isomorphism.MAX_ASSIGNMENT_K + 1
_ZEROS = np.zeros((4, 3), dtype=np.uint8)
_CASES = [
    # the exact-routine caps of influence
    ("influence_exact", "capped at n <= 15", lambda: influence.influence_exact(_lin(_INF_N), [0])),
    ("symmetric_influence_exact", "capped at n <= 20", lambda: influence.symmetric_influence_exact(_lin(_SYM_N), [0])),
    ("symmetric_distance", "capped at n <= 20", lambda: influence.symmetric_distance(_lin(_SYM_N), [0, 1])),
    ("closest_j_symmetric", "capped at n <= 20", lambda: influence.closest_j_symmetric(_lin(_SYM_N), [0, 1])),
    ("walsh_hadamard", "capped at n <= 20", lambda: influence.walsh_hadamard(_lin(_SYM_N))),
    ("symmetric_influence_fourier", "capped at n <= 16", lambda: influence.symmetric_influence_fourier(
        _lin(_FOURIER_N), [0, 1])),
    # the enumeration caps of oracle
    ("dist_exact", "capped at n <= 22", lambda: oracle.dist_exact(_lin(23), _lin(23))),
    ("dist_to_t_symmetric cap", "capped at n <= 16", lambda: oracle.dist_to_t_symmetric(_lin(17), 2)),
    ("dist_to_k_junta cap", "capped at n <= 16", lambda: oracle.dist_to_k_junta(_lin(17), 1)),
    ("dist_to_iso_class cap", "capped at n <= 16", lambda: oracle.dist_to_iso_class(_core(17, 1), _lin(17))),
    ("is_j_symmetric", "capped at n <= 16", lambda: oracle.is_j_symmetric(_lin(17), [0, 1])),
    ("find_core", "capped at n <= 16", lambda: oracle.find_core(_lin(17))),
    ("mu_p cap", "capped at n <= 16", lambda: oracle.mu_p(SetFamily.of(17, [[0]]), 0.5)),
    # the assignment enumeration cap, in the vote and in the tester
    ("best_assignment k", "capped at k <= 10", lambda: isomorphism.best_assignment(_ONE, _ONE, _ONE, _core(12, _K))),
    ("iso_test k", "capped at k <= 10", lambda: isomorphism.iso_test(_core(12, _K), _lin(12), 0.1, _rng())),
    # handle_from_verdict's refusals
    ("handle from a rejection", "rejecting verdict", lambda: handle_from_verdict(_lin(4), _verdict(False, [], 2), 1)),
    ("handle without workspace", "no workspace", lambda: handle_from_verdict(_lin(4), _verdict(True, [], None), 1)),
    ("handle past k parts", "more than k parts", lambda: handle_from_verdict(_lin(4), _verdict(True, [0], 2), 0)),
    ("handle short of parts", "not enough nonempty", lambda: handle_from_verdict(_lin(4), _verdict(True, [], 2), 2)),
    # k outside 0..n for the reference law
    ("sample_dstar k > n", "0 <= k <= n", lambda: sample_dstar(4, 5, _rng())),
    ("sample_dstar k < 0", "0 <= k <= n", lambda: sample_dstar(4, -1, _rng())),
    ("dstar_pmf k > n", "0 <= k <= n", lambda: dstar_pmf(4, 5)),
    ("dstar_pmf k < 0", "0 <= k <= n", lambda: dstar_pmf(4, -1)),
    # the t and k ranges, and mu_p's p
    ("dist_to_t_symmetric t > n", "t outside 0..n", lambda: oracle.dist_to_t_symmetric(_lin(6), 7)),
    ("dist_to_t_symmetric t < 0", "t outside 0..n", lambda: oracle.dist_to_t_symmetric(_lin(6), -1)),
    ("dist_to_k_junta k > n", "k outside 0..n", lambda: oracle.dist_to_k_junta(_lin(6), 7)),
    ("dist_to_k_junta k < 0", "k outside 0..n", lambda: oracle.dist_to_k_junta(_lin(6), -1)),
    ("random_core_spec k = n", "0 <= k < n = 8, got 8", lambda: pt.random_core_spec(8, 8, _rng())),
    ("random_core_spec k < 0", "0 <= k < n = 8, got -1", lambda: pt.random_core_spec(8, -1, _rng())),
    ("mu_p p > 1", "p outside [0, 1]", lambda: oracle.mu_p(SetFamily.of(4, [[0]]), 1.5)),
    ("mu_p p < 0", "p outside [0, 1]", lambda: oracle.mu_p(SetFamily.of(4, [[0]]), -0.25)),
    # is_t_intersecting's t follows the integer input rule
    ("is_t_intersecting t float", "t must be an integer, got float", lambda: oracle.is_t_intersecting(
        SetFamily.of(4, [[0, 1]]), 1.5)),
    ("is_t_intersecting t bool", "t must be an integer, got bool", lambda: oracle.is_t_intersecting(
        SetFamily.of(4, [[0, 1]]), True)),
    ("is_t_intersecting t str", "t must be an integer, got str", lambda: oracle.is_t_intersecting(
        SetFamily.of(4, [[0, 1]]), "1")),
    ("is_t_intersecting t < 0", "t must be >= 0, got -1", lambda: oracle.is_t_intersecting(
        SetFamily.of(4, [[0, 1]]), -1)),
    # marginal_tv_estimate names its own argument
    ("marginal_tv_estimate trials float", "trials must be an integer, got float", lambda: marginal_tv_estimate(
        handle_from_verdict(_lin(4), _verdict(True, [0], 2), 1), 1e5, _rng())),
    # constructors
    ("Permutation repeat", "not a bijection", lambda: pt.Permutation([0, 0, 1])),
    ("Permutation gap", "not a bijection", lambda: pt.Permutation([0, 2])),
    ("TruthTable cap", "capped at n <= 25", lambda: pt.TruthTable(MAX_DENSE_N + 1, [])),
    ("TruthTable length", "2^3 entries", lambda: pt.TruthTable(3, [0] * 7)),
    ("KLinear repeat", "distinct and in range(n)", lambda: pt.KLinear(4, [1, 1])),
    ("KLinear range", "distinct and in range(n)", lambda: pt.KLinear(4, [4])),
    ("core k = n", "k asymmetric positions", lambda: pt.PartiallySymmetricCore(2, 2, (0, 1), np.zeros((4, 1)))),
    ("core asym count", "k asymmetric positions", lambda: pt.PartiallySymmetricCore(4, 2, (0,), _ZEROS)),
    ("core asym repeat", "distinct and in range(n)", lambda: pt.PartiallySymmetricCore(4, 2, (1, 1), _ZEROS)),
    ("core asym range", "distinct and in range(n)", lambda: pt.PartiallySymmetricCore(4, 2, (0, 4), _ZEROS)),
    ("core shape", "core must have shape", lambda: pt.PartiallySymmetricCore(4, 1, (0,), _ZEROS)),
    ("Partition overlap", "disjoint and cover range(n)", lambda: pt.Partition(4, [0b0111, 0b1100])),
    ("random_partition r < 1", "at least one part", lambda: pt.random_partition(4, 0, _rng())),
]


@pytest.mark.parametrize("message, call", [pytest.param(m, call, id=name) for name, m, call in _CASES])
def test_input_check_refuses(message, call):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
