"""Smoke tests for the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import psymtest  # noqa: E402
from psymtest.boolfn import BooleanFunction  # noqa: E402

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            proc = cli(workload, seed, trace)
            assert proc.returncode == 0, proc.stderr
            cache[key] = (proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1]))
        return cache[key]

    return get


def test_spec_matches_the_metrics_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize(
    "workload, trace",
    [(w, 0) for w in WORKLOADS] + [("reject-mix", 1), ("sampler-general", 1), ("oracle-exact", 1)],
)
def test_every_named_metric_is_printed_with_its_unit(runs, workload, trace):
    lines, result = runs(workload, 1, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]["value"]
        assert any(line == f"{m['name']} {value:.6g} {m['unit']}" for line in lines), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert any(line.startswith("failed_frac ") for line in lines)


def test_same_seed_reproduces_queries_per_op(runs):
    first = runs("reject-mix", 1, 0)[1]["metrics"]["queries_per_op"]["value"]
    again = cli("reject-mix", 1, 0)
    assert json.loads(again.stdout.splitlines()[-1])["metrics"]["queries_per_op"]["value"] == first


@pytest.mark.parametrize("name", ["reject-mix", "sampler-general"])
def test_same_seed_reproduces_every_op_query_count(name):
    def counts():
        workload = WORKLOADS[name](7)
        return [workload.check(workload.op(t)).queries for t in range(3)]

    assert counts() == counts()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_different_seed_yields_different_instances(name):
    assert WORKLOADS[name](1).describe() != WORKLOADS[name](2).describe()
    assert WORKLOADS[name](1).describe() == WORKLOADS[name](1).describe()


class FlipOne(BooleanFunction):
    """Returns the inner answers, except the ``index``-th one is flipped."""

    def __init__(self, inner, index):
        super().__init__(inner.n)
        self.inner, self.index, self.seen = inner, index, 0

    def _eval(self, x):
        self.seen += 1
        return self.inner(x) ^ (self.seen - 1 == self.index)

    def eval_many(self, xs):
        ys = np.array(self.inner.eval_many(xs), dtype=np.uint8)
        if self.seen <= self.index < self.seen + len(ys):
            ys[self.index - self.seen] ^= 1
        self.seen += len(ys)
        return ys


@pytest.mark.parametrize(
    "name, index", [("reject-mix", 0), ("reject-mix", 50), ("sampler-general", 200), ("iso-n64", 123_456)]
)
def test_one_flipped_oracle_answer_trips_a_check(name, index):
    workload = WORKLOADS[name](3)
    inst = workload.instances[-1]
    inst.oracle = FlipOne(inst.oracle, index)
    outcome = workload.check(workload.op(0))
    assert any("disagree with the reference" in msg for msg in outcome.failures)


def test_a_failed_check_makes_the_run_exit_nonzero(capsys):
    workload = WORKLOADS["reject-mix"](3)
    workload.min_ops = 1
    workload.probe = lambda: None  # the probe op would use up the flipped answer
    inst = workload.instances[0]
    inst.oracle = FlipOne(inst.oracle, 0)
    args = Namespace(workload="reject-mix", seed=3, seconds=0.0, trace=0)
    assert run.report(args, workload, 0.1, np, psymtest) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_missing_wrapped_name_is_reported_and_not_fatal():
    modules = ("testers", "influence", "sampling", "isomorphism", "oracle")
    pkg = SimpleNamespace(**{m: SimpleNamespace(**vars(getattr(psymtest, m))) for m in modules})
    del pkg.testers.rearrange_bits_block
    del pkg.influence.rearrange_bits_block
    tracer = Tracer()
    tracer.install(pkg)
    assert "bits.rearrange_bits_block" not in tracer.patched and "bits.random_masks_u64" in tracer.patched
    span = tracer.begin("op")
    pkg.testers.random_masks_u64(8, 4, np.random.default_rng(0))
    tracer.end(span)
    sample = [(1.0, 1.0, Outcome(queries=1, evals=1))]
    metrics, missing = run.per_layer(tracer, sample, sample)
    assert "bits.rearrange_block_s" in missing and "bits.rearrange_block_s" not in metrics
    assert metrics["bits.masks_s"] > 0


def test_reference_seconds_scale_wall_seconds_by_the_calibration_loop(monkeypatch):
    workload = WORKLOADS["oracle-exact"](1)
    workload.min_ops = 2
    monkeypatch.setattr(run, "calibration_s", lambda: 2 * run.CAL_REF_S)
    samples = run.measure(workload, 0)
    assert len(samples) == 2
    assert all(ref == pytest.approx(wall / 2) for ref, wall, _ in samples)


def test_a_probe_op_keeps_no_record():
    workload = WORKLOADS["reject-mix"](1)
    recorders = []
    make = workload.recorder
    workload.recorder = lambda inst: recorders.append(make(inst)) or recorders[-1]
    workload.probe()
    assert recorders and all(not r.points and not r.answers for r in recorders)
    assert sum(r.evals for r in recorders) > 0
    workload.op(0)
    assert recorders[-1].points and workload.recording


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = cli("reject-mix", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
