"""psymtest benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload iso-n64 --seed 1 --seconds 27 --trace 0

Builds the workload's instances from ``--seed`` (imports, construction and
warm-up make up ``setup_s``), then runs ops for ``--seconds`` seconds and at
least the workload's ``min_ops``.  Every op is checked afterwards; a failed
check makes the exit code 1.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the per-layer metrics are reported, with spans saved
under ``bench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The program is imported
from ``src/`` next to this directory; without it the run exits with code 2.

End-to-end times are in reference seconds.  On a shared virtual machine the
same op can run 1.6 times slower for minutes at a time (seen on a 2-vCPU KVM
guest), so a fixed calibration loop that shares no code with psymtest runs
between ops, and each op's wall time is scaled by ``CAL_REF_S`` over the
loop's time around it.  A change to psymtest moves reference seconds as it
moves wall seconds; the machine's speed does not.  The wall-clock median is
printed on a note line and kept in the run context.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, so timings are single-threaded.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
CAL_ITERATIONS = 20_000
CAL_DATA = numpy.random.default_rng(0).random(20_000)
CAL_REF_S = 1.25e-3  # the loop's seconds on a 2-vCPU KVM guest (Xeon, 2 MiB L2) at its fastest
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, psymtest; print(time.perf_counter() - t)"

E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "evals_per_s": "1/s",
    "queries_per_op": "count",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "boolfn.batch_calls": "count/op",
    "boolfn.batch_points": "count/op",
    "boolfn.batch_s": "s/op",
    "boolfn.points_per_s": "1/s",
    "boolfn.scalar_calls": "count/op",
    "boolfn.scalar_s": "s/op",
    "bits.masks_s": "s/op",
    "bits.rearrange_block_calls": "count/op",
    "bits.rearrange_block_rows": "count/op",
    "bits.rows_per_block": "count",
    "bits.rearrange_block_s": "s/op",
    "bits.rearrange_scalar_calls": "count/op",
    "bits.rearrange_scalar_s": "s/op",
    "testers.partition_s": "s/op",
    "testers.self_s": "s/op",
    "testers.parts_found_mean": "count",
    "testers.query_yield": "ratio",
    "isomorphism.psym_stage_s": "s/op",
    "isomorphism.sample_stage_s": "s/op",
    "isomorphism.self_s": "s/op",
    "sampling.build_s": "s/op",
    "sampling.draws": "count/op",
    "sampling.draw_s": "s/op",
    "sampling.us_per_draw": "us",
    "influence.wht_butterflies_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}
EXACT_ROUTINES = (
    "influence.walsh_hadamard",
    "influence.symmetric_influence_exact",
    "influence.symmetric_influence_fourier",
    "influence.closest_j_symmetric",
    "influence.influence_exact",
    "oracle.dist_to_t_symmetric",
    "oracle.dist_to_k_junta",
    "oracle.find_core",
)
LAYER_UNITS.update({f"{r}_s": "s/op" for r in EXACT_ROUTINES})

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of a checkout's own .git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args, numpy) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l2 = "unknown"
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        pass
    return {
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2": l2,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def timed_op(workload, trial: int, tracer=None) -> tuple[float, object]:
    """(op seconds, checked outcome); the op's record is dropped on return,
    so no two ops' records are alive at once."""
    span = tracer.begin("op") if tracer is not None else None
    t0 = time.perf_counter()
    calls = workload.op(trial)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
    return dt, workload.check(calls)


def calibration_s() -> float:
    """Wall seconds of a fixed loop of Python integer arithmetic and a numpy
    sort.  It shares no code with psymtest, so it tracks only how fast the
    machine runs at the moment."""
    t = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i
    numpy.sort(CAL_DATA)
    return time.perf_counter() - t


def measure(workload, seconds: float, tracer=None) -> list[tuple[float, float, object]]:
    """Run ops from trial 0 until ``seconds`` have passed and ``min_ops``
    ops are done, with the calibration loop before the first op and after
    every op.  Returns per op (reference seconds, wall seconds, checked
    outcome); reference seconds scale the wall time by ``CAL_REF_S`` over
    the mean of the loops just before and after the op."""
    samples = []
    before = calibration_s()
    started = time.perf_counter()
    while len(samples) < workload.min_ops or time.perf_counter() - started < seconds:
        dt, outcome = timed_op(workload, len(samples), tracer)
        after = calibration_s()
        samples.append((dt * 2 * CAL_REF_S / (before + after), dt, outcome))
        before = after
    return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond); with ten or fewer samples, the maximum."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(samples, workload, setup_s: float, rss_mb: float) -> dict[str, float]:
    """Times are in reference seconds; the central ones are medians over
    ops, so one op that ends early (a tester that rejects at once) or runs
    long moves none of them.  ``queries_per_op`` is the median over the
    first ``min_ops`` ops, which a fixed seed repeats exactly."""
    times = [ref for ref, _, _ in samples]
    p50 = statistics.median(times)
    return {
        "setup_s": setup_s,
        "op_s_p50": p50,
        "op_s_tail": tail(times)[0],
        "ops_per_s": 1 / p50,
        "evals_per_s": statistics.median(o.evals / ref for ref, _, o in samples),
        "queries_per_op": statistics.median(o.queries for _, _, o in samples[: workload.min_ops]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced, untraced) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans, and the names of those left out
    because a span they read was not wrapped (the library lost the name)."""
    from tracing import MissingSpan, SpanView

    v = SpanView(tracer)
    ops = len(traced)
    outcomes = [o for _, _, o in traced]

    def per_op(x: float) -> float:
        return x / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def both(read) -> float:
        return sum(read(t) for t in ("testers.junta_test", "testers.partially_symmetric_test"))

    draw = "sampling.draw_core_samples_batch"
    walsh = "influence.walsh_hadamard"
    block = "bits.rearrange_bits_block"
    common = min(len(traced), len(untraced))
    formulas = {
        "boolfn.batch_calls": lambda: per_op(v.calls("boolfn.eval_many")),
        "boolfn.batch_points": lambda: per_op(v.amount("boolfn.eval_many")),
        "boolfn.batch_s": lambda: per_op(v.total("boolfn.eval_many")),
        "boolfn.points_per_s": lambda: ratio(v.amount("boolfn.eval_many"), v.total("boolfn.eval_many")),
        "boolfn.scalar_calls": lambda: per_op(v.calls("boolfn.call")),
        "boolfn.scalar_s": lambda: per_op(v.total("boolfn.call")),
        "bits.masks_s": lambda: per_op(v.total("bits.random_mask") + v.total("bits.random_masks_u64")),
        "bits.rearrange_block_calls": lambda: per_op(v.calls(block)),
        "bits.rearrange_block_rows": lambda: per_op(v.amount(block)),
        "bits.rows_per_block": lambda: ratio(v.amount(block), v.calls(block)),
        "bits.rearrange_block_s": lambda: per_op(v.total(block)),
        "bits.rearrange_scalar_calls": lambda: per_op(v.calls("bits.rearrange_bits")),
        "bits.rearrange_scalar_s": lambda: per_op(v.total("bits.rearrange_bits")),
        "testers.partition_s": lambda: per_op(v.total("testers.random_partition")),
        "testers.self_s": lambda: per_op(both(v.self_time)),
        "testers.parts_found_mean": lambda: ratio(both(v.amount), both(v.calls)),
        "testers.query_yield": lambda: ratio(sum(o.queries for o in outcomes), sum(o.evals for o in outcomes)),
        "isomorphism.psym_stage_s": lambda: per_op(
            v.total("testers.partially_symmetric_test", "isomorphism.iso_test")
        ),
        "isomorphism.sample_stage_s": lambda: per_op(v.total(draw, "isomorphism.iso_test")),
        "isomorphism.self_s": lambda: per_op(v.self_time("isomorphism.iso_test")),
        "sampling.build_s": lambda: per_op(v.total("sampling.build_sampler")),
        "sampling.draws": lambda: per_op(v.amount(draw)),
        "sampling.draw_s": lambda: per_op(v.total(draw)),
        "sampling.us_per_draw": lambda: 1e6 * ratio(v.total(draw), v.amount(draw)),
        "influence.wht_butterflies_per_s": lambda: ratio(v.amount(walsh), v.total(walsh)),
        "trace.overhead_frac": lambda: statistics.median(ref for ref, _, _ in traced[:common])
        / statistics.median(ref for ref, _, _ in untraced[:common])
        - 1,
        "trace.attributed_frac": lambda: ratio(v.total("op") - v.self_time("op"), v.total("op")),
    }
    formulas.update({f"{r}_s": (lambda r=r: per_op(v.total(r))) for r in EXACT_ROUTINES})
    metrics, missing = {}, []
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except MissingSpan:
            missing.append(name)
    return metrics, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "psymtest" / "__init__.py").is_file():
        print(f"error: no psymtest sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import psymtest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Set up several times: each repeat times a fresh interpreter's imports
    # plus one instance construction and warm-up here, in reference seconds
    # by the calibration loop that follows it; setup_s is the median.
    setups = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        t = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        workload.warm_up()
        wall = float(probe.stdout) + time.perf_counter() - t
        setups.append(wall * CAL_REF_S / calibration_s())
    return report(args, workload, statistics.median(setups), numpy, psymtest)


def report(args, workload, setup_s, numpy, psymtest) -> int:
    context = run_context(args, numpy)
    if not args.trace:
        # Peak memory is read before any op keeps a record of its queries.
        workload.probe()
        rss_mb = peak_rss_mb()
    if args.trace:
        from tracing import Tracer

        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install(psymtest)
        workload.set_tracer(tracer)
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
            workload.set_tracer(None)
        samples = untraced + traced
        metrics, missing = per_layer(tracer, traced, untraced)
        units = LAYER_UNITS
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        context["samples"] = {"untraced_ops": len(untraced), "traced_ops": len(traced), "spans": len(tracer.start)}
    else:
        samples = measure(workload, args.seconds)
        metrics, missing = end_to_end(samples, workload, setup_s, rss_mb), []
        units = E2E_UNITS
        context["samples"] = {"ops": len(samples), "queries_ops": workload.min_ops}
        context["wall_op_s_p50"] = statistics.median(dt for _, dt, _ in samples)

    print("context " + json.dumps(context, sort_keys=True))
    failures = [f"op {i}: {msg}" for i, (_, _, o) in enumerate(samples) for msg in o.failures]
    failures += workload.final_checks()
    failed = sum(1 for _, _, o in samples if o.failures)
    print(f"note: {workload.rates_summary()}")
    if not args.trace:
        value, pct, beyond = tail([ref for ref, _, _ in samples])
        wall = context["wall_op_s_p50"]
        print(f"note: times are reference seconds: wall seconds x {CAL_REF_S:g} / the calibration loop's seconds")
        print(f"note: op_s_p50 {wall:.6g} wall seconds, {wall / metrics['op_s_p50']:.4g} x reference")
        print(f"note: setup_s is the median of {SETUP_REPEATS} (import + build + warm-up) repeats")
        print(f"note: op_s_tail is p{pct:.1f} of {len(samples)} ops, {beyond} beyond it")
        print(f"note: queries_per_op is the median over the first {workload.min_ops} ops")
        print("note: peak_rss_mb is read after one op whose oracles keep no record")
        print(f"failed_frac {failed / len(samples):.6g} ratio")
    for name in missing:
        print(f"missing: {name} (a wrapped name is gone from psymtest)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not failures
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
