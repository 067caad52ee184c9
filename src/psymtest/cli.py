"""Command-line front end.

Four commands: ``measure`` (influence / symmetric influence of variable
sets), ``experiment`` (seeded sweeps of the testers with a CSV report),
``lemmas`` (the invariant suites at small n), and ``brute-iso`` (reference
isomorphism check by plain random queries).  Every command is deterministic
given ``--seed``.

Exit codes: 0 success, 1 headline rejection (for scripting), 2 usage or I/O
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import permutations
from math import ceil, comb, lcm, log2
from typing import Sequence

import numpy as np

from . import boolfn, influence, isomorphism, sampling, testers
from ._bits import block_points, random_masks_u64


def _trial_rng(seed: int, trial: int) -> tuple[int, np.random.Generator]:
    ss = np.random.SeedSequence(seed, spawn_key=(trial,))
    return int(ss.generate_state(1)[0]), np.random.default_rng(ss)


# the keys each descriptor needs, one of each group; it takes no others
_DESCRIPTOR_KEYS = {
    "random": [("n",)],
    "profile": [("n",)],
    "core": [("n",), ("k",)],
    "parity": [("n",), ("k", "vars")],
}


def _parse_kv(head: str, body: str) -> dict[str, str]:
    groups = _DESCRIPTOR_KEYS[head]
    out = {}
    for piece in body.split(","):
        if piece:
            key, _, val = piece.partition("=")
            key = key.strip()
            if not any(key in group for group in groups):
                raise ValueError(f"descriptor {head!r} takes no key {key!r}")
            out[key] = val.strip()
    for group in groups:
        if not any(key in out for key in group):
            raise ValueError(f"descriptor {head!r} needs key {' or '.join(map(repr, group))}")
    return out


def resolve_function(spec: str, rng: np.random.Generator) -> boolfn.BooleanFunction:
    """Load a function file, or generate one from a descriptor.

    Descriptors: ``random:n=12`` (dense uniform), ``profile:n=64`` (random
    symmetric profile), ``core:n=64,k=2`` (random core form),
    ``parity:n=64,k=6`` or ``parity:n=64,vars=0;3;7``.
    """
    head, sep, body = spec.partition(":")
    if sep and head in _DESCRIPTOR_KEYS:
        kv = _parse_kv(head, body)
        n = int(kv["n"])
        if head == "random":
            return boolfn.random_function(n, rng)
        if head == "profile":
            return boolfn.SymmetricProfile(n, rng.integers(0, 2, size=n + 1, dtype=np.uint8))
        if head == "core":
            return boolfn.random_core_spec(n, int(kv["k"]), rng)
        if "vars" in kv:
            return boolfn.KLinear(n, [int(v) for v in kv["vars"].split(";")])
        return boolfn.KLinear(n, range(int(kv["k"])))
    return boolfn.load_function(spec)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# measure


def cmd_measure(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    f = resolve_function(args.fn, rng)
    report: dict = {"n": f.n, "sets": []}
    for spec in args.set:
        members = sorted(int(v) for v in spec.split(",") if v != "")
        entry: dict = {"members": members}
        for key, cap, exact, mc in (
            ("influence", influence.MAX_EXACT_INFLUENCE_N, influence.influence_exact, influence.influence_mc),
            ("symmetric_influence", influence.MAX_EXACT_SYMINF_N,
             influence.symmetric_influence_exact, influence.symmetric_influence_mc),
        ):
            if f.n <= cap:
                entry[key], entry[key + "_method"] = float(exact(f, members)), "exact"
            else:
                entry[key], entry[key + "_method"] = mc(f, members, args.mc_trials, rng), "mc"
        report["sets"].append(entry)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# experiment

CSV_HEADER = ["trial", "seed", "accepted", "queries", "parts_found"]


def _run_trial(args, f, target, cfg, rng) -> testers.TestVerdict:
    if args.tester == "junta":
        return testers.junta_test(f, args.k, args.eps, rng, cfg=cfg)
    if args.tester == "psym":
        return testers.partially_symmetric_test(f, args.k, args.eps, rng, cfg=cfg)
    if args.tester == "iso":
        return isomorphism.iso_test(target, f, args.eps, rng, cfg=cfg)
    if args.tester == "sampler":
        try:
            handle = sampling.build_sampler(f, args.k, args.delta, args.eta, rng, cfg=cfg)
        except sampling.SamplerRejected as rej:
            return rej.verdict
        parts = list(handle.j_parts)
        return testers.TestVerdict(
            True, handle.preprocessing_queries, parts, handle.partition, handle.workspace
        )
    raise ValueError(f"unknown tester {args.tester!r}")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")


def cmd_experiment(args: argparse.Namespace) -> int:
    _check_trials(args.trials)
    cfg = testers.TesterConfig(c_parts=args.parts_mult, c_iters=args.iters_mult)
    gen_rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(0xF,)))
    f = resolve_function(args.fn, gen_rng)
    target = None
    if args.tester == "iso":
        if not args.target:
            raise ValueError("iso experiments need --target (core-form function file)")
        target = resolve_function(args.target, gen_rng)
        if not isinstance(target, boolfn.PartiallySymmetricCore):
            raise ValueError("--target must be a psym_core function (a symmetric_profile is one with k = 0)")

    rows = []
    accepted = 0
    queries = []
    for trial in range(args.trials):
        seed_val, rng = _trial_rng(args.seed, trial)
        verdict = _run_trial(args, f, target, cfg, rng)
        accepted += verdict.accepted
        queries.append(verdict.queries)
        rows.append(
            [
                trial,
                seed_val,
                int(verdict.accepted),
                verdict.queries,
                ";".join(str(p) for p in verdict.found_parts),
            ]
        )

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    rate = accepted / args.trials
    mean_q = sum(queries) / len(queries)
    writer.writerow(["SUMMARY", args.seed, f"{rate:.6f}", f"{mean_q:.3f}", max(queries)])
    _emit(buf.getvalue(), args.out)
    return 0 if rate >= 0.5 else 1


# ---------------------------------------------------------------------------
# lemmas


def _monotonicity_violations(tables: np.ndarray, n: int) -> int:
    """Nested pairs J < K with SI(J) > SI(K), counted over a stack of truth
    tables of shape (count, 2^n).

    A layer of J (fixed bits outside J, weight w inside) of size
    L = C(|J|, w) with c ones adds 2 c (L - c) / L to 2^n SI(J).  The scores
    are scaled by the lcm of every layer size C(j, w) with j <= n, so they
    are integers and the comparison is exact at every n.
    """
    scale = lcm(*(comb(j, w) for j in range(n + 1) for w in range(j + 1)))
    scores = []
    for j_mask in range(1 << n):
        ones, sizes = (a.astype(np.int64) for a in influence._layer_sums(tables.T, n, j_mask))
        scores.append((2 * ones * (sizes - ones) * (scale // sizes)).sum(axis=(0, 1)))
    violations = 0
    for k_mask in range(1 << n):
        sub = k_mask
        while sub:
            sub = (sub - 1) & k_mask
            violations += int(np.count_nonzero(scores[sub] > scores[k_mask]))
    return violations


def _xor_of_symmetric(n: int, rng: np.random.Generator):
    """f(x) = f1(x_J) xor f2(x_K) for random symmetric halves.

    Profiles that are constant or weight-alternating on both halves make the
    xor fully symmetric and are redrawn.
    """
    half = n // 2
    j = list(range(half))
    k = list(range(half, n))
    while True:
        p1 = rng.integers(0, 2, size=half + 1, dtype=np.uint8)
        p2 = rng.integers(0, 2, size=n - half + 1, dtype=np.uint8)
        d1 = np.bitwise_xor(p1[1:], p1[:-1])
        d2 = np.bitwise_xor(p2[1:], p2[:-1])
        degenerate = (np.all(d1 == 0) or np.all(d1 == 1)) and (
            np.all(d2 == 0) or np.all(d2 == 1)
        ) and (d1[0] == d2[0] if len(d1) and len(d2) else True)
        if not degenerate:
            break
    idx = np.arange(1 << n)
    wj, wk = np.bitwise_count(idx & ((1 << half) - 1)), np.bitwise_count(idx >> half)
    table = np.bitwise_xor(p1[wj], p2[wk])
    return boolfn.TruthTable(n, table), j, k


def cmd_lemmas(args: argparse.Namespace) -> int:
    _check_trials(args.trials)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    n_max = args.n_max
    if not 4 <= n_max <= 12:
        raise ValueError(f"lemma suites need 4 <= --n-max <= 12, got {n_max}")
    report: dict = {}

    pairs = 0
    sandwich_bad = 0
    for _ in range(args.trials):
        n = int(rng.integers(4, min(n_max, 10) + 1))
        f = boolfn.random_function(n, rng)
        members = [int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))]
        si = influence.symmetric_influence_exact(f, members)
        dist = influence.symmetric_distance(f, members)
        pairs += 1
        if not dist <= si <= 2 * dist:
            sandwich_bad += 1
    report["sandwich"] = {"pairs": pairs, "violations": sandwich_bad}

    n = min(n_max, 6)
    draws = max(1, args.trials // 10)
    tables = np.stack([boolfn.random_function(n, rng).truth_table() for _ in range(draws)])
    mono_bad = _monotonicity_violations(tables, n)
    # every nested pair of every draw, plus the empty set against itself
    report["monotonicity"] = {"pairs": draws * (3**n - 2**n + 1), "violations": mono_bad}
    if n_max <= 4:
        size = 1 << n_max  # row i is the table of the function whose bits spell i
        every = (np.arange(1 << size)[:, None] >> np.arange(size) & 1).astype(np.uint8)
        exhaustive = _monotonicity_violations(every, n_max)
        report["monotonicity"]["exhaustive_all_functions_violations"] = exhaustive

    fourier_bad = 0
    for _ in range(max(1, args.trials // 5)):
        n = min(n_max, 8)
        f = boolfn.random_function(n, rng)
        members = [int(v) for v in np.flatnonzero(rng.integers(0, 2, size=n))]
        a = influence.symmetric_influence_exact(f, members)
        b = influence.symmetric_influence_fourier(f, members)
        if a != b:
            fourier_bad += 1
    report["fourier_identity"] = {"violations": fourier_bad}

    slacks = []
    for _ in range(max(1, args.trials // 10)):
        n = min(n_max, 10)
        f = boolfn.random_function(n, rng)
        j_mask = int(rng.integers(0, 1 << n)) | int(rng.integers(0, 1 << n))
        k_mask = int(rng.integers(0, 1 << n)) | int(rng.integers(0, 1 << n))
        j = [i for i in range(n) if (j_mask >> i) & 1]
        k = [i for i in range(n) if (k_mask >> i) & 1]
        gamma = max(n - len(j), n - len(k)) / n
        if gamma == 0:
            continue
        union = sorted(set(j) | set(k))
        slack = float(
            influence.symmetric_influence_exact(f, union)
            - influence.symmetric_influence_exact(f, j)
            - influence.symmetric_influence_exact(f, k)
        )
        slacks.append(max(0.0, slack) / gamma**0.5)
    report["weak_subadditivity_slack"] = {
        "samples": len(slacks),
        "max": max(slacks) if slacks else 0.0,
        "mean": sum(slacks) / len(slacks) if slacks else 0.0,
    }

    ctr_ok = 0
    ctr_total = max(1, args.trials // 10)
    xor_slacks = []
    for _ in range(ctr_total):
        n = min(n_max, 12)
        f, j, k = _xor_of_symmetric(n, rng)
        si_j = influence.symmetric_influence_exact(f, j)
        si_k = influence.symmetric_influence_exact(f, k)
        si_u = influence.symmetric_influence_exact(f, j + k)
        if si_j == 0 and si_k == 0 and si_u > 0:
            ctr_ok += 1
        xor_slacks.append(float(si_u) / (max(len(j), len(k)) / n) ** 0.5)
    report["strong_subadditivity_counterexample"] = {
        "draws": ctr_total,
        "successes": ctr_ok,
        "normalized_slack_max": max(xor_slacks),
    }

    hard_pass = (
        sandwich_bad == 0
        and mono_bad == 0
        and fourier_bad == 0
        and ctr_ok == ctr_total
        and report["monotonicity"].get("exhaustive_all_functions_violations", 0) == 0
    )
    report["pass"] = hard_pass
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if hard_pass else 1


# ---------------------------------------------------------------------------
# brute-iso

MAX_BRUTE_PLACEMENTS = 500_000


def brute_iso_once(
    f: boolfn.BooleanFunction,
    g: boolfn.BooleanFunction,
    eps: float,
    rng: np.random.Generator,
) -> bool:
    """Reference tester: accept iff some relabeling of f agrees with g on
    a batch of ceil(2 n log2(n+1) / eps) uniform points."""
    n = f.n
    if g.n != n:
        raise ValueError("dimension mismatch")
    q = ceil(2 * n * log2(n + 1) / eps)
    pts = block_points(random_masks_u64(n, q, rng))
    gv = g.eval_many(pts)
    if isinstance(f, boolfn.PartiallySymmetricCore):
        total = 1
        for i in range(f.k):
            total *= n - i
        if total > MAX_BRUTE_PLACEMENTS:
            raise ValueError("too many placements to enumerate")
        candidates = permutations(range(n), f.k)
        for placement in candidates:
            spec = boolfn.PartiallySymmetricCore(n, f.k, placement, f.core)
            if np.array_equal(spec.eval_many(pts), gv):
                return True
        return False
    if n > 8:
        raise ValueError("full relabeling enumeration needs n <= 8 (or a core-form target)")
    for pi in permutations(range(n)):
        h = f.permuted(boolfn.Permutation(pi))
        if np.array_equal(h.eval_many(pts), gv):
            return True
    return False


def cmd_brute_iso(args: argparse.Namespace) -> int:
    _check_trials(args.trials)
    if not 0 < args.eps < 1:
        raise ValueError(f"--eps must lie strictly between 0 and 1, got {args.eps}")
    gen_rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(0xF,)))
    f = resolve_function(args.fn, gen_rng)
    g = resolve_function(args.g, gen_rng)
    accepted = 0
    results = []
    for trial in range(args.trials):
        _, rng = _trial_rng(args.seed, trial)
        ok = brute_iso_once(f, g, args.eps, rng)
        accepted += ok
        results.append(bool(ok))
    report = {
        "trials": args.trials,
        "accepted": accepted,
        "acceptance_rate": accepted / args.trials,
        "verdicts": results,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if accepted * 2 >= args.trials else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psymtest", description="Property testing toolkit for Boolean functions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="influence / symmetric influence of variable sets")
    p.add_argument("--fn", required=True, help="function file or generator descriptor")
    p.add_argument("--set", action="append", required=True, help="comma-separated indices")
    p.add_argument("--mc-trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("experiment", help="seeded tester sweep with CSV report")
    p.add_argument("--tester", choices=["junta", "psym", "iso", "sampler"], required=True)
    p.add_argument("--fn", required=True, help="function under test: file or descriptor")
    p.add_argument("--target", help="core-form reference function (iso tester)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parts-mult", type=float, default=3.0)
    p.add_argument("--iters-mult", type=float, default=24.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("lemmas", help="invariant suites at small n")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("brute-iso", help="reference isomorphism check by random queries")
    p.add_argument("--fn", required=True, help="reference function: file or descriptor")
    p.add_argument("--g", required=True, help="candidate function: file or descriptor")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_brute_iso)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"psymtest: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"psymtest: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
