import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psymtest as pt
from psymtest.cli import main

from helpers import strong_core_spec


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_measure_symmetric_function(tmp_path, capsys):
    path = tmp_path / "sym.json"
    pt.save_function(pt.SymmetricProfile(10, (np.arange(11) % 2).astype(np.uint8)), path)
    assert run_cli("measure", "--fn", path, "--set", ",".join(str(i) for i in range(10))) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sets"][0]["symmetric_influence"] == 0.0
    assert report["sets"][0]["symmetric_influence_method"] == "exact"


def test_measure_hand_value(tmp_path, capsys):
    path = tmp_path / "f.json"
    pt.save_function(pt.TruthTable(2, [0, 1, 0, 0]), path)
    assert run_cli("measure", "--fn", path, "--set", "0,1") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sets"][0]["symmetric_influence"] == 0.25
    assert report["sets"][0]["influence"] == 0.375


def test_measure_missing_file_exits_2(capsys):
    assert run_cli("measure", "--fn", "/nonexistent/f.json", "--set", "0") == 2
    assert "error" in capsys.readouterr().err


def test_measure_mc_fallback_for_large_n(tmp_path, capsys):
    path = tmp_path / "big.json"
    pt.save_function(pt.KLinear(40, [0, 1]), path)
    assert run_cli("measure", "--fn", path, "--set", "0", "--mc-trials", "20000") == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["sets"][0]
    assert entry["influence_method"] == "mc"
    assert abs(entry["influence"] - 0.5) < 0.02


def test_experiment_is_deterministic_and_summarized(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "experiment", "--tester", "psym", "--fn", "profile:n=64", "--k", "2",
        "--eps", "0.1", "--trials", "200", "--seed", "7",
    ]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,accepted,queries,parts_found"
    assert len(lines) == 202
    summary = lines[-1].split(",")
    assert summary[0] == "SUMMARY"
    assert float(summary[2]) >= 0.9
    max_queries = int(summary[4])
    assert all(int(row.split(",")[3]) <= max_queries for row in lines[1:-1])

    from math import ceil
    from psymtest.testers import TesterConfig, _rounds, psym_partition_size, psym_query_bound

    cfg = TesterConfig()
    n = 64
    r = min(psym_partition_size(n, 2, 0.1, cfg), n)
    bound = psym_query_bound(_rounds(cfg, 2, 0.1), r, n, ceil(n / (2 * r)))
    assert max_queries <= bound


def test_experiment_junta_far_instance_exits_1(tmp_path):
    out = tmp_path / "junta.csv"
    code = run_cli(
        "experiment", "--tester", "junta", "--fn", "parity:n=64,k=6", "--k", "2",
        "--eps", "0.1", "--trials", "30", "--seed", "3", "--out", out,
    )
    assert code == 1
    summary = out.read_text().strip().splitlines()[-1].split(",")
    assert float(summary[2]) <= 0.4


def test_experiment_iso_needs_target(capsys):
    assert (
        run_cli(
            "experiment", "--tester", "iso", "--fn", "core:n=32,k=2", "--k", "2",
            "--trials", "2", "--seed", "0",
        )
        == 2
    )


def test_experiment_iso_runs_its_trials_against_a_core_target(tmp_path, capsys):
    from psymtest.isomorphism import iso_sample_budget

    rng = np.random.default_rng(12)
    f = strong_core_spec(64)
    fp, gp, hp = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "neg.json"
    pt.save_function(f, fp)
    pt.save_function(pt.apply_permutation(f, pt.Permutation.random(64, rng)), gp)
    pt.save_function(pt.PartiallySymmetricCore(64, 2, f.asym, 1 - f.core), hp)
    budget = iso_sample_budget(2, 0.1, pt.TesterConfig())
    for g, code in ((gp, 0), (hp, 1)):
        out = tmp_path / "iso.csv"
        argv = ["experiment", "--tester", "iso", "--fn", g, "--target", fp, "--k", "2", "--trials", "3"]
        assert run_cli(*argv, "--seed", "4", "--out", out) == code
        rows = out.read_text().strip().splitlines()
        assert rows[0].split(",") == ["trial", "seed", "accepted", "queries", "parts_found"]
        trials = [row.split(",") for row in rows[1:-1]]
        assert [t[0] for t in trials] == ["0", "1", "2"]
        # every trial ran; a trial that reached the vote paid for its samples
        assert all(int(t[3]) > 0 and (t[2] == "0" or int(t[3]) > budget) for t in trials)
        accepted = sum(t[2] == "1" for t in trials)
        assert accepted >= 2 if code == 0 else accepted == 0


def test_experiment_iso_with_a_non_core_target_exits_2(capsys):
    argv = ["experiment", "--tester", "iso", "--fn", "core:n=16,k=2", "--target", "parity:n=16,k=2", "--k", "2"]
    assert run_cli(*argv, "--trials", "1") == 2
    err = capsys.readouterr().err
    assert "--target must be a psym_core function" in err and "Traceback" not in err


def test_a_profile_is_a_core_form_target(tmp_path, capsys):
    # a weight profile is the core form with k = 0: the iso tester and the
    # brute-force check take it as a target, past brute-iso's n <= 8 too
    fp = tmp_path / "profile.json"
    pt.save_function(pt.SymmetricProfile(12, (np.arange(13) % 3 == 0).astype(np.uint8)), fp)
    argv = ["experiment", "--tester", "iso", "--fn", fp, "--target", fp, "--k", "0", "--eps", "0.3"]
    assert run_cli(*argv, "--trials", "2", "--seed", "5") == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("SUMMARY,5,1.000000")
    assert run_cli("brute-iso", "--fn", fp, "--g", fp, "--trials", "2", "--seed", "5") == 0
    assert json.loads(capsys.readouterr().out)["verdicts"] == [True, True]


def test_measure_core_descriptor_checks_k_first(capsys):
    for k in ("9", "8", "-1"):
        assert run_cli("measure", "--fn", f"core:n=8,k={k}", "--set", "0") == 2
        err = capsys.readouterr().err
        assert f"core size k must satisfy 0 <= k < n = 8, got {k}" in err and "larger sample" not in err


def test_brute_iso_once_relabels_a_non_core_function_in_full():
    from psymtest.cli import brute_iso_once

    rng = np.random.default_rng(13)
    f = pt.random_function(6, rng)
    g = pt.apply_permutation(f, pt.Permutation.random(6, rng))
    assert brute_iso_once(f, g, 0.1, rng)
    assert not brute_iso_once(f, pt.TruthTable(6, 1 - f.truth_table()), 0.1, rng)
    with pytest.raises(ValueError, match="dimension mismatch"):
        brute_iso_once(f, pt.random_function(7, rng), 0.1, rng)


def test_experiment_sampler(tmp_path):
    out = tmp_path / "sampler.csv"
    code = run_cli(
        "experiment", "--tester", "sampler", "--fn", "core:n=64,k=2", "--k", "2",
        "--delta", "0.2", "--eta", "0.2", "--trials", "20", "--seed", "1", "--out", out,
    )
    assert code == 0
    summary = out.read_text().strip().splitlines()[-1].split(",")
    assert float(summary[2]) >= 0.6


def test_experiment_oversized_core_exits_2(capsys):
    code = run_cli(
        "experiment", "--tester", "sampler", "--fn", "core:n=64,k=40", "--k", "2",
        "--delta", "0.2", "--eta", "0.2", "--trials", "1", "--seed", "1",
    )
    assert code == 2
    assert "exceeds 2^25" in capsys.readouterr().err


def test_lemmas_default_run_passes(capsys):
    assert run_cli("lemmas", "--n-max", "8", "--trials", "60", "--seed", "2") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["sandwich"]["violations"] == 0
    assert report["monotonicity"]["violations"] == 0
    assert report["fourier_identity"]["violations"] == 0
    ctr = report["strong_subadditivity_counterexample"]
    assert ctr["successes"] == ctr["draws"]
    assert ctr["normalized_slack_max"] > 0
    assert np.isfinite(report["weak_subadditivity_slack"]["max"])


def test_lemmas_exhaustive_small_n(capsys):
    assert run_cli("lemmas", "--n-max", "4", "--trials", "20", "--seed", "3") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["monotonicity"]["exhaustive_all_functions_violations"] == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["experiment", "--tester", "psym", "--trials", "0"], "--trials"),
        (["experiment", "--tester", "junta", "--trials", "-3"], "--trials"),
        (["brute-iso", "--trials", "0"], "--trials"),
        (["brute-iso", "--eps", "0"], "--eps"),
        (["brute-iso", "--eps", "1"], "--eps"),
        (["lemmas", "--n-max", "3"], "--n-max"),
        (["lemmas", "--n-max", "13"], "--n-max"),
        (["lemmas", "--trials", "0"], "--trials"),
        (["measure", "--fn", "core:n=8,k=2,z=1"], "descriptor 'core' takes no key 'z'"),
        (["measure", "--fn", "random:n=8,k=2"], "descriptor 'random' takes no key 'k'"),
        (["measure", "--fn", "core:k=2"], "descriptor 'core' needs key 'n'"),
        (["measure", "--fn", "core:n=8"], "descriptor 'core' needs key 'k'"),
        (["measure", "--fn", "parity:n=8"], "descriptor 'parity' needs key 'k' or 'vars'"),
    ],
)
def test_out_of_range_arguments_exit_2(argv, flag, capsys):
    functions = {
        "experiment": ["--fn", "profile:n=16", "--k", "2"],
        "brute-iso": ["--fn", "core:n=8,k=2", "--g", "core:n=8,k=2"],
        "lemmas": [],
        "measure": ["--set", "0"],
    }
    assert run_cli(*argv, *functions[argv[0]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psymtest: error:") and flag in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--parts-mult", "inf", "c_parts must be finite"),
        ("--iters-mult", "inf", "c_iters must be finite"),
        ("--iters-mult", "1e308", "c_iters = 1e+308"),  # finite, but its round count is not
        ("--parts-mult", "nan", "c_parts must be finite"),
    ],
)
def test_non_finite_tester_multipliers_exit_2(flag, value, message, capsys):
    argv = ["experiment", "--tester", "junta", "--fn", "parity:n=16,k=2", "--k", "1", "--trials", "1"]
    assert run_cli(*argv, flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("psymtest: error:") and message in err and "Traceback" not in err


def test_eps_whose_square_underflows_exits_2(capsys):
    argv = ["experiment", "--tester", "psym", "--fn", "parity:n=16,k=2", "--k", "2", "--trials", "1"]
    assert run_cli(*argv, "--eps", "1e-200") == 2
    err = capsys.readouterr().err
    assert err.startswith("psymtest: error:") and "eps = 1e-200" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "blob, message",
    [
        ([1, 2], "must be a JSON object, got list"),
        (None, "must be a JSON object, got NoneType"),
        ({"kind": "k_linear", "n": 4, "indices": None}, "'indices' must be a JSON array"),
        ({"kind": "k_linear", "n": 3.7, "indices": [0]}, "'n' must be a JSON integer"),
        ({"kind": "k_linear", "n": True, "indices": [0]}, "'n' must be a JSON integer"),
        ({"kind": "symmetric_profile", "n": 2, "profile": None}, "'profile' must be a JSON array"),
        ({"kind": "truth_table", "n": 2, "table_hex": None}, "'table_hex' must be a JSON string"),
        ({"kind": "psym_core", "n": 4, "k": 1, "asym": None, "core_hex": "00"}, "'asym' must be a JSON array"),
        ({"kind": "k_linear", "n": 8, "indices": [0.5]}, "index must be an integer, got float"),
        ({"kind": "k_linear", "n": 8, "indices": [2, "3"]}, "index must be an integer, got str"),
        ({"kind": "psym_core", "n": 4, "k": 1, "asym": [True], "core_hex": "00"}, "asym position must be an integer"),
        ({"kind": "psym_core", "n": 4, "k": 5, "asym": [], "core_hex": "01"}, "'k' must satisfy 0 <= k < n = 4, got 5"),
        ({"kind": "psym_core", "n": 4, "k": -1, "asym": [], "core_hex": "01"}, "'k' must satisfy 0 <= k < n = 4, got -1"),
        ({"kind": "k_linear", "n": 4, "indices": [0], "extra": 1}, "a k_linear spec takes no field 'extra'"),
        ({"kind": "truth_table", "n": 2, "table_hex": "06", "profile": [0]}, "a truth_table spec takes no field 'profile'"),
        ({"kind": "k_linear", "n": 4}, "a k_linear spec needs field 'indices'"),
        ({"kind": "truth_table", "n": 2, "table_hex": "0F"}, "hex must be lowercase"),
        ({"kind": "symmetric_profile", "n": 1, "profile": [True, False]}, "'profile' must hold JSON integers"),
        # sizes past the caps are refused before they are computed
        ({"kind": "truth_table", "n": 40, "table_hex": "00"}, "capped at n <= 25, got n = 40"),
        ({"kind": "truth_table", "n": 20_000_000_000, "table_hex": "00"}, "capped at n <= 25"),
        ({"kind": "psym_core", "n": 100, "k": 90, "asym": [], "core_hex": "00"}, "x 11 entries exceeds"),
        (
            {"kind": "psym_core", "n": 20_000_000_001, "k": 20_000_000_000, "asym": [], "core_hex": "00"},
            "entries exceeds",
        ),
        ({"kind": "psym_core", "n": 2**40, "k": 2, "asym": [], "core_hex": "00"}, "x 1099511627775 entries"),
    ],
)
def test_malformed_function_file_exits_2(blob, message, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=message):
        pt.load_function(path)
    assert run_cli("measure", "--fn", path, "--set", "0") == 2
    err = capsys.readouterr().err
    assert err.startswith("psymtest: error:") and message in err


@pytest.mark.parametrize(
    "spec",
    [
        json.dumps({"kind": "k_linear", "n": 20_000_000_000, "indices": [0]}),
        "parity:n=20000000000,k=2",
        "parity:n=20000000000,vars=0;5",
        "profile:n=20000000000",
    ],
)
def test_out_of_memory_exits_2(spec, tmp_path):
    # under an address-space limit of about 1.4 GiB the n / 8-byte masks and the
    # (n + 1)-entry profile of these specs cannot be allocated
    if spec.startswith("{"):
        path = tmp_path / "f.json"
        path.write_text(spec)
        spec = str(path)
    src = os.path.dirname(os.path.dirname(pt.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "psymtest.cli", "measure", "--fn", spec, "--set", "0,1"],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1_500_000 << 10,) * 2),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("psymtest: error:") and "Traceback" not in proc.stderr


# small integers keep every accepted function cheap to measure
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_VALID_SPECS = [
    {"kind": "truth_table", "n": 3, "table_hex": "96"},
    {"kind": "k_linear", "n": 8, "indices": [5, 0]},
    {"kind": "symmetric_profile", "n": 3, "profile": [0, 1, 1, 0]},
    {"kind": "psym_core", "n": 4, "k": 1, "asym": [2], "core_hex": "a5"},
]


@st.composite
def _function_files(draw):
    if draw(st.booleans()):
        return draw(_JSON)
    spec = dict(draw(st.sampled_from(_VALID_SPECS)))
    key = draw(st.sampled_from(sorted(spec) + ["extra", None]))  # None keeps the spec valid
    if key is not None:
        valid_values = st.sampled_from([value for other in _VALID_SPECS for value in other.values()])
        spec[key] = draw(_JSON | valid_values)
    return spec


@settings(max_examples=300, deadline=None)
@given(_function_files())
@example({"kind": "symmetric_profile", "n": 1, "profile": [True, False]})
@example({"kind": "truth_table", "n": 40, "table_hex": "00"})
@example({"kind": "psym_core", "n": 100, "k": 90, "asym": [], "core_hex": "00"})
def test_function_files_load_exactly_or_exit_2(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["measure", "--fn", path, "--set", "0", "--mc-trials", "10"])
        assert code in (0, 2)
        if code == 0:
            if blob["kind"] == "k_linear":
                blob = dict(blob, indices=sorted(blob["indices"]))
            # dumps tells true from 1, which == does not
            assert json.dumps(pt.function_to_json(pt.load_function(path)), sort_keys=True) == json.dumps(
                blob, sort_keys=True
            )


def test_brute_iso_self_and_complement(tmp_path, capsys):
    f = strong_core_spec(8)
    fp = tmp_path / "f.json"
    pt.save_function(f, fp)
    assert run_cli("brute-iso", "--fn", fp, "--g", fp, "--eps", "0.1", "--trials", "3") == 0
    json.loads(capsys.readouterr().out)

    neg = pt.PartiallySymmetricCore(8, 2, f.asym, 1 - f.core)
    gp = tmp_path / "g.json"
    pt.save_function(neg, gp)
    assert run_cli("brute-iso", "--fn", fp, "--g", gp, "--eps", "0.1", "--trials", "3") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["acceptance_rate"] == 0.0


def test_brute_iso_permuted_pair_accepts(tmp_path, capsys):
    rng = np.random.default_rng(4)
    f = pt.random_core_spec(8, 2, rng)
    g = pt.apply_permutation(f, pt.Permutation.random(8, rng))
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    pt.save_function(f, fp)
    pt.save_function(g, gp)
    assert run_cli("brute-iso", "--fn", fp, "--g", gp, "--eps", "0.1", "--trials", "10", "--seed", "5") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["acceptance_rate"] >= 0.9


def test_brute_iso_refuses_oversized_enumeration(tmp_path, capsys):
    f = pt.random_function(10, np.random.default_rng(6))
    g = pt.random_function(10, np.random.default_rng(7))
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    pt.save_function(f, fp)
    pt.save_function(g, gp)
    assert run_cli("brute-iso", "--fn", fp, "--g", gp, "--eps", "0.1") == 2


def test_resolve_function_descriptors():
    from psymtest.cli import resolve_function

    rng = np.random.default_rng(8)
    f = resolve_function("random:n=10", rng)
    assert isinstance(f, pt.TruthTable) and f.n == 10
    f = resolve_function("core:n=40,k=3", rng)
    assert isinstance(f, pt.PartiallySymmetricCore) and f.k == 3
    f = resolve_function("parity:n=16,vars=0;5;9", rng)
    assert f.indices == (0, 5, 9)
    f = resolve_function("profile:n=12", rng)
    assert isinstance(f, pt.SymmetricProfile)
