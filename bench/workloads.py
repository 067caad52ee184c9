"""The benchmark's workloads: instances from a seed, one op, output checks.

An op is one pass over a workload's instance list at one trial seed, so a
per-op time is a sum over instance kinds rather than a draw from a mix.  Ops
only call the library; everything that validates an op (answers replayed
through a reference, query budgets, output shapes) runs afterwards in
``check``, outside the timed region.

Every library entry point is reached through its module attribute
(``testers.junta_test``, not a name bound at import), so the traced run can
wrap it.
"""

from __future__ import annotations

import traceback
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import log, sqrt

import numpy as np

from psymtest import boolfn, influence, isomorphism, oracle, sampling, testers

from oracles import Parity, Recorder, RelabeledCore

EPS = 0.1
CFG = testers.TesterConfig()
WARMUP_TRIAL = 1 << 30  # trial indices no measured op uses
CHECK_TRIAL = WARMUP_TRIAL + 1
PROBE_TRIAL = WARMUP_TRIAL + 2


@dataclass
class Instance:
    name: str
    oracle: boolfn.BooleanFunction
    reference: object
    far: bool

    def describe(self) -> str:
        ref = self.reference
        if isinstance(ref, Parity):
            return f"{self.name}: parity{ref.indices}"
        digest = zlib.crc32(ref.core.tobytes() + repr(ref.mapping).encode())
        return f"{self.name}: core asym={ref.asym} digest={digest:08x}"


@dataclass
class Call:
    """One library call of an op: its recorder and its result (or the
    formatted exception it raised)."""

    inst: Instance
    rec: Recorder | None
    result: object
    error: str | None = None
    tester: str = ""


@dataclass
class Outcome:
    queries: int = 0
    evals: int = 0
    failures: list[str] = field(default_factory=list)


class Rates:
    """Acceptance on yes instances and rejection on far ones, per workload."""

    def __init__(self):
        self.yes = self.yes_accepted = self.far = self.far_rejected = 0

    def add(self, far: bool, accepted: bool) -> None:
        if far:
            self.far += 1
            self.far_rejected += not accepted
        else:
            self.yes += 1
            self.yes_accepted += accepted

    def failures(self) -> list[str]:
        out = []
        if self.yes and 3 * self.yes_accepted < 2 * self.yes:
            out.append(f"acceptance on yes instances {self.yes_accepted}/{self.yes} < 2/3")
        if self.far and 3 * self.far_rejected < 2 * self.far:
            out.append(f"rejection on far instances {self.far_rejected}/{self.far} < 2/3")
        return out

    def summary(self) -> str:
        return f"yes accepted {self.yes_accepted}/{self.yes}, far rejected {self.far_rejected}/{self.far}"


def _guarded(inst: Instance, rec: Recorder | None, fn, *args, **kwargs) -> Call:
    # An op must survive a raising call so the run can count it as failed.
    try:
        return Call(inst, rec, fn(*args, **kwargs))
    except Exception:
        return Call(inst, rec, None, traceback.format_exc(limit=3))


def _verdict_problems(v, k: int) -> list[str]:
    if not isinstance(v, testers.TestVerdict):
        return [f"result is {type(v).__name__}, not a TestVerdict"]
    out = []
    if not isinstance(v.accepted, bool):
        out.append("accepted is not a bool")
    if not isinstance(v.queries, int) or v.queries < 0:
        out.append(f"queries {v.queries!r} is not a count")
    r = v.partition.r
    if len(set(v.found_parts)) != len(v.found_parts) or any(not 0 <= p < r for p in v.found_parts):
        out.append(f"found_parts {v.found_parts} are not distinct parts of {r}")
    elif v.accepted and len(v.found_parts) > k:
        out.append(f"accepted with {len(v.found_parts)} > k parts")
    if v.workspace is not None and not 0 <= v.workspace < r:
        out.append(f"workspace {v.workspace} outside the partition")
    return out


def _psym_budget(v, n: int, k: int, eps: float) -> int:
    """``psym_query_bound`` for the partition and workspace that ``v`` (a
    verdict or a sampler handle) carries."""
    return testers.psym_query_bound(
        testers._rounds(CFG, k, eps), v.partition.r, n, v.partition.size(v.workspace)
    )


class Workload:
    """Instances built from the seed, plus op and check for one workload."""

    name = ""
    why = ""
    min_ops = 1  # always measured; ``queries_per_op`` is the mean over exactly these
    stream = 0  # keeps the random streams of workloads that share a seed apart

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.recording = True
        self.rates = Rates()
        self.instances: list[Instance] = []
        self.build(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(self.stream,))))

    def rng(self, trial: int, slot: int) -> np.random.Generator:
        """Generator for one call of one op: the same (seed, trial, slot)
        always gives the same stream."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream, trial, slot)))

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer

    def build(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, trial: int) -> list[Call]:
        raise NotImplementedError

    def check_call(self, call: Call, out: Outcome) -> None:
        raise NotImplementedError

    def recorder(self, inst: Instance) -> Recorder:
        return Recorder(inst.oracle, inst.reference, self.tracer, keep=self.recording)

    def probe(self) -> None:
        """One unchecked op whose oracles count queries but keep no points,
        so the peak memory it reaches is the library's, not the record's."""
        self.recording = False
        try:
            self.op(PROBE_TRIAL)
        finally:
            self.recording = True

    def check(self, calls: list[Call]) -> Outcome:
        out = Outcome()
        for call in calls:
            if call.rec is not None:
                out.evals += call.rec.evals
                bad = call.rec.mismatches()
                if bad:
                    out.failures.append(f"{call.inst.name}: {bad} oracle answers disagree with the reference")
            if call.error is not None:
                out.failures.append(f"{call.inst.name}: raised\n{call.error}")
                continue
            self.check_call(call, out)
        return out

    def final_checks(self) -> list[str]:
        return self.rates.failures()

    def describe(self) -> list[str]:
        return [inst.describe() for inst in self.instances]

    def rates_summary(self) -> str:
        return self.rates.summary()


class IsoN64(Workload):
    name = "iso-n64"
    why = "iso_test at n=64: the eps/1000 psym stage runs ~480k rounds in blocks up to 16384 rows"
    min_ops = 8
    stream = 0
    n, k = 64, 2

    def build(self, rng):
        f = boolfn.random_core_spec(self.n, self.k, rng)
        neg = boolfn.PartiallySymmetricCore(self.n, self.k, f.asym, 1 - f.core)
        self.spec = f
        for name, g, far in (("iso-pair", f, False), ("far-pair", neg, True)):
            pi = boolfn.Permutation.random(self.n, rng)
            ref = RelabeledCore(self.n, g.asym, g.core, pi.mapping)
            self.instances.append(Instance(name, boolfn.Permuted(g, pi), ref, far))

    def warm_up(self):
        rng = self.rng(WARMUP_TRIAL, 0)
        isomorphism.iso_test(self.spec, self.instances[0].oracle, 0.9, rng)

    def op(self, trial):
        calls = []
        for j, inst in enumerate(self.instances):
            rec = self.recorder(inst)
            rng = self.rng(trial, j)
            calls.append(_guarded(inst, rec, isomorphism.iso_test, self.spec, rec, EPS, rng))
        return calls

    def check_call(self, call, out):
        v = call.result
        problems = _verdict_problems(v, self.k)
        if not problems and v.workspace is not None and v.queries:
            budget = _psym_budget(v, self.n, self.k, EPS / 1000)
            budget += isomorphism.iso_sample_budget(self.k, EPS, CFG)
            if v.queries > budget:
                problems.append(f"{v.queries} queries exceed the budget {budget}")
        out.failures += [f"{call.inst.name}: {p}" for p in problems]
        if not problems:
            out.queries += v.queries
            self.rates.add(call.inst.far, v.accepted)


def _parity(n: int, size: int, rng, far: bool) -> Instance:
    idx = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
    return Instance(f"parity{size}-n{n}", boolfn.KLinear(n, idx), Parity(n, idx), far)


def _core(n: int, k: int, rng, far: bool) -> Instance:
    f = boolfn.random_core_spec(n, k, rng)
    return Instance(f"core{k}-n{n}", f, RelabeledCore(n, f.asym, f.core), far)


class RejectMix(Workload):
    """Junta and psym testers at k=2 on far instances and 2-parities."""

    name = "reject-mix"
    why = "junta/psym at k=2 on far instances and 2-parities: frequent hits, localization, n=256 scalar path"
    min_ops = 60
    stream = 1
    k = 2

    def build(self, rng):
        self.instances = [
            _parity(64, 6, rng, True),
            _core(64, 6, rng, True),
            _core(256, 3, rng, True),
            _parity(64, 2, rng, False),
            _parity(256, 2, rng, False),
        ]

    def warm_up(self):
        for j, inst in enumerate(self.instances[3:]):
            rng = self.rng(WARMUP_TRIAL, j)
            testers.junta_test(inst.oracle, self.k, EPS, rng)
            testers.partially_symmetric_test(inst.oracle, self.k, EPS, rng)

    def op(self, trial):
        calls = []
        slot = 0
        for inst in self.instances:
            for tester in (testers.junta_test, testers.partially_symmetric_test):
                rec = self.recorder(inst)
                rng = self.rng(trial, slot)
                slot += 1
                call = _guarded(inst, rec, tester, rec, self.k, EPS, rng)
                call.tester = tester.__name__
                calls.append(call)
        return calls

    def check_call(self, call, out):
        v = call.result
        label = f"{call.tester} on {call.inst.name}"
        problems = _verdict_problems(v, self.k)
        if not problems and call.tester == "partially_symmetric_test" and v.failure_reason != "workspace":
            budget = _psym_budget(v, call.inst.oracle.n, self.k, EPS)
            if v.queries > budget:
                problems.append(f"{v.queries} queries exceed the budget {budget}")
        if not problems and call.tester == "junta_test" and not call.inst.far and not v.accepted:
            problems.append("rejected a 2-junta")
        out.failures += [f"{label}: {p}" for p in problems]
        if not problems:
            out.queries += v.queries
            self.rates.add(call.inst.far, v.accepted)


class SamplerGeneral(Workload):
    """build_sampler at k=1, delta*eta=0.594 (9 parts), then a draw batch."""

    name = "sampler-general"
    why = "build_sampler at k=1, delta*eta=0.594 (9 parts) and general-path draws: the only subset-sum DP user"
    min_ops = 20
    stream = 2
    k = 1
    delta, eta = 0.6, 0.99
    draws = {64: 300, 256: 150}
    check_draws = {64: 3000, 256: 1500}
    attempts = 8
    alpha = 1e-6  # chance that the TV check fails on a correct sampler

    def build(self, rng):
        self.instances = [_core(64, 1, rng, False), _core(256, 1, rng, False)]
        self.first_handles: dict[int, object] = {}

    def warm_up(self):
        inst = self.instances[0]
        rng = self.rng(WARMUP_TRIAL, 0)
        handle = self._build(inst.oracle, rng)[1]
        if handle is not None:
            sampling.draw_core_samples_batch(handle, 20, rng)

    def _build(self, f, rng):
        """Run the preprocessing test until it accepts, as a user would."""
        rejected = []
        for _ in range(self.attempts):
            try:
                return rejected, sampling.build_sampler(f, self.k, self.delta, self.eta, rng)
            except sampling.SamplerRejected as exc:
                rejected.append(exc.verdict)
        return rejected, None

    def _op_one(self, inst, rec, rng):
        rejected, handle = self._build(rec, rng)
        if handle is None:
            return rejected, None, len(rec.points), None
        start = len(rec.points)
        batch = sampling.draw_core_samples_batch(handle, self.draws[inst.oracle.n], rng)
        return rejected, handle, start, batch

    def op(self, trial):
        calls = []
        for j, inst in enumerate(self.instances):
            rec = self.recorder(inst)
            calls.append(_guarded(inst, rec, self._op_one, inst, rec, self.rng(trial, j)))
        return calls

    def check_call(self, call, out):
        rejected, handle, start, batch = call.result
        n = call.inst.oracle.n
        eps = self.delta * self.eta
        label = f"sampler on {call.inst.name}"
        problems = []
        for v in rejected:
            bad = _verdict_problems(v, self.k)
            if not bad and v.failure_reason != "workspace" and v.queries > _psym_budget(v, n, self.k, eps):
                bad.append(f"preprocessing used {v.queries} queries, over budget")
            problems += bad
            self.rates.add(False, False)
            out.queries += v.queries
        if handle is None:
            problems.append(f"no accepting preprocessing run in {self.attempts} attempts")
        else:
            self.rates.add(False, True)
            if handle.preprocessing_queries > _psym_budget(handle, n, self.k, eps):
                problems.append(f"preprocessing used {handle.preprocessing_queries} queries, over budget")
            problems += self._draw_problems(handle, call.rec, start, batch, self.draws[n])
            out.queries += handle.preprocessing_queries + self.draws[n]
            self.first_handles.setdefault(n, handle)
        out.failures += [f"{label}: {p}" for p in problems]

    def _draw_problems(self, handle, rec, start, batch, count) -> list[str]:
        """Each draw is one query at a point y; (x, w, z) must read off y."""
        xs, ws, zs = (np.asarray(a) for a in batch)
        if not len(xs) == len(ws) == len(zs) == count:
            return [f"batch lengths {len(xs)}, {len(ws)}, {len(zs)} != {count}"]
        points, answers = rec.flat(start)
        if len(points) != count:
            return [f"{len(points)} queries for {count} draws"]
        parts = [handle.partition.parts[p] for p in handle.j_parts]
        for i, y in enumerate(points):
            x = sum(1 << c for c, m in enumerate(parts) if y & m == m)
            if any(y & m not in (0, m) for m in parts):
                return [f"draw {i}: slot part not constant"]
            if (int(xs[i]), int(ws[i]), int(zs[i])) != (x, y.bit_count() - x.bit_count(), answers[i]):
                return [f"draw {i}: (x, w, z) = {(xs[i], ws[i], zs[i])} does not match y"]
        return []

    def tv_check(self, handle, n: int) -> list[str]:
        """Histogram of fresh draws against ``core_marginal_exact``.

        E[TV] <= sum_i sqrt(p_i (1 - p_i) / D) / 2, and one draw moves TV by
        at most 1/D, so TV exceeds that plus sqrt(ln(1/alpha) / (2 D)) with
        probability at most alpha (McDiarmid).
        """
        d = self.check_draws[n]
        xs, ws, _ = sampling.draw_core_samples_batch(handle, d, self.rng(CHECK_TRIAL, n))
        exact = sampling.core_marginal_exact(handle)
        keys, counts = np.unique(np.stack([xs, ws], axis=1), axis=0, return_counts=True)
        hist = {(int(x), int(w)): int(c) for (x, w), c in zip(keys, counts)}
        probs = {key: float(p) for key, p in exact.items()}
        tv = 0.5 * sum(abs(hist.get(key, 0) / d - probs.get(key, 0.0)) for key in set(hist) | set(probs))
        bound = 0.5 * sum(sqrt(p * (1 - p) / d) for p in probs.values())
        bound += sqrt(log(1 / self.alpha) / (2 * d))
        print(f"note: sampler n={n}: TV {tv:.4f} of {d} draws vs core_marginal_exact, bound {bound:.4f}")
        if tv > bound:
            return [f"sampler n={n}: TV {tv:.4f} > bound {bound:.4f}"]
        return []

    def final_checks(self):
        out = self.rates.failures()
        for n, handle in sorted(self.first_handles.items()):
            rec = handle.f
            rec.points.clear()
            rec.answers.clear()
            out += self.tv_check(handle, n)
            if rec.mismatches():
                out.append(f"sampler n={n}: check draws read wrong oracle answers")
        return out


class OracleExact(Workload):
    name = "oracle-exact"
    why = "exact influence and oracle routines on dense random functions at n=14, 16, 20 (n=20 spills L2)"
    min_ops = 3
    stream = 3
    routines = [
        # (module, name, largest n it accepts, extra argument)
        (influence, "walsh_hadamard", 20, None),
        (influence, "symmetric_influence_exact", 20, "J"),
        (influence, "symmetric_influence_fourier", 16, "J"),
        (influence, "closest_j_symmetric", 20, "J"),
        (influence, "influence_exact", 14, "J"),
        (oracle, "dist_to_t_symmetric", 14, "t"),
        (oracle, "dist_to_k_junta", 14, "k"),
        (oracle, "find_core", 16, None),
    ]

    def build(self, rng):
        self.exact = Instance("exact routines", None, None, False)
        self.cases = []
        for n in (14, 16, 20):
            f = boolfn.random_function(n, rng)
            members = sorted(int(v) for v in rng.choice(n, size=n - 2, replace=False))
            self.cases.append((n, f, members))
        self.first: dict | None = None
        self.points_per_op = sum(
            1 << n for n, _, _ in self.cases for _, _, cap, _ in self.routines if n <= cap
        )

    def warm_up(self):
        n, f, members = self.cases[0]
        influence.walsh_hadamard(f)
        influence.symmetric_influence_exact(f, members)

    def _run_routines(self):
        results = {}
        for n, f, members in self.cases:
            extra = {"J": members, "t": n - 2, "k": 2, None: None}
            for module, name, cap, arg in self.routines:
                if n <= cap:
                    fn = getattr(module, name)
                    args = (f,) if arg is None else (f, extra[arg])
                    results[(n, name)] = fn(*args)
        return results

    def op(self, trial):
        return [_guarded(self.exact, None, self._run_routines)]

    def check_call(self, call, out):
        results = call.result
        out.queries += self.points_per_op
        out.evals += self.points_per_op
        if self.first is None:
            out.failures += self._first_problems(results)
            self.first = results
            return
        for key, value in results.items():
            old = self.first[key]
            same = (
                np.array_equal(value.coeffs, old.coeffs) if key[1] == "walsh_hadamard"
                else np.array_equal(value.table, old.table) if key[1] == "closest_j_symmetric"
                else value == old
            )
            if not same:
                out.failures.append(f"{key}: result differs from the first op")

    def _first_problems(self, results) -> list[str]:
        out = []
        for n, f, members in self.cases:
            dist = influence.symmetric_distance(f, members)
            si = results[(n, "symmetric_influence_exact")]
            if not dist <= si <= 2 * dist:
                out.append(f"n={n}: sandwich dist {dist} <= syminf {si} <= 2 dist fails")
            if n <= 16 and results[(n, "symmetric_influence_fourier")] != si:
                out.append(f"n={n}: symmetric_influence_fourier != symmetric_influence_exact")
            raw = results[(n, "walsh_hadamard")].coeffs * (1 << n)
            ints = np.rint(raw).astype(np.int64)
            if not np.array_equal(ints, raw) or int(np.sum(ints * ints)) != 1 << (2 * n):
                out.append(f"n={n}: Parseval sum is not exactly 1")
            closest = results[(n, "closest_j_symmetric")]
            flips = int(np.count_nonzero(closest.table != f.table))
            if Fraction(flips, 1 << n) != dist:
                out.append(f"n={n}: closest_j_symmetric is {flips} flips away, symmetric_distance {dist}")
            if n <= 14:
                inf = results[(n, "influence_exact")]
                if not 0 <= inf <= 1:
                    out.append(f"n={n}: influence {inf} outside [0, 1]")
                if not results[(n, "dist_to_t_symmetric")] <= dist:
                    out.append(f"n={n}: dist_to_t_symmetric exceeds the distance for one J of size t")
                if not 0 <= results[(n, "dist_to_k_junta")] <= Fraction(1, 2):
                    out.append(f"n={n}: dist_to_k_junta outside [0, 1/2]")
            if n <= 16:
                core = results[(n, "find_core")]
                if list(core) != sorted(set(core)) or not core or not 0 <= core[0] <= core[-1] < n:
                    out.append(f"n={n}: find_core returned {core}")
                elif not oracle.is_j_symmetric(f, core):
                    out.append(f"n={n}: find_core class {core} is not symmetric")
        return out

    def describe(self):
        return [f"n={n}: table digest={zlib.crc32(f.table.tobytes()):08x} J={m}" for n, f, m in self.cases]


WORKLOADS = {w.name: w for w in (IsoN64, RejectMix, SamplerGeneral, OracleExact)}
