"""Tests of the benchmark's own output checks.

Each workload runs end to end in quick mode (a few sweeps, one round);
then one output at a time is corrupted and the matching check must
fail. Run with ``python3 -m pytest perfbench -q`` from the repository
root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
SEED = 3


def quick_run(tmp, name, trace=False):
    spec = workloads.WORKLOADS[name]
    run_dir = tmp / name
    result = workloads.run(spec, run.import_program(), run_dir, SEED, 0.0,
                           trace=trace, quick=True, t_start=run.T_START, startup=0.0,
                           trace_path=tmp / f"trace-{name}.tsv.gz")
    return spec, run_dir, result


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    return quick_run(tmp_path_factory.mktemp("fit"), "fit-p10")


@pytest.fixture(scope="module")
def classify_run(tmp_path_factory):
    return quick_run(tmp_path_factory.mktemp("classify"), "classify-p10")


def _end_to_end_ok(result, ops):
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (ops, 0)
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "wall_s", "sweeps_per_s", "post_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_quick_fit_p10_passes_its_checks(fit_run):
    _end_to_end_ok(fit_run[2], ops=2)


def test_quick_classify_p10_passes_its_checks(classify_run):
    _end_to_end_ok(classify_run[2], ops=1)


def test_quick_fit_p40_passes_its_checks(tmp_path):
    _end_to_end_ok(quick_run(tmp_path, "fit-p40")[2], ops=3)


@pytest.mark.parametrize("name, busy", [
    ("fit-p10", ("io.save_results_s", "inference.call_network_s")),
    ("classify-p10", ("pdcore.mvn_logpdf_rows_s", "model.validate_state_s",
                      "baselines.classifiers_s")),
])
def test_traced_run_counts_every_edge_proposal(tmp_path, name, busy):
    spec, _, result = quick_run(tmp_path, name, trace=True)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    flags = spec.quick_chain
    sweeps = int(flags[flags.index("--iterations") + 1])
    chains = int(flags[flags.index("--replicates") + 1]) if "--replicates" in flags else 1
    proposals = spec.p * (spec.p - 1) // 2 * sweeps * chains
    assert metrics["sampler.update_edge_calls"] == proposals
    assert metrics["sampler.edge_proposed"] == proposals
    assert all(metrics[key] > 0 for key in ("sampler.update_edge_s",) + busy)
    assert (tmp_path / f"trace-{name}.tsv.gz").stat().st_size > 0


def _fit_outputs(fit_run, tmp_path):
    spec, run_dir, _ = fit_run
    fit_dir = tmp_path / "fit"
    shutil.copytree(run_dir / "round0" / "fit", fit_dir)
    truth = workloads.inputs.Truth.load(run_dir / "inputs" / "truth.npz")
    return fit_dir, truth.names


def test_flipped_network_edge_fails(fit_run, tmp_path):
    fit_dir, names = _fit_outputs(fit_run, tmp_path)
    bundle = checks.load_bundle(fit_dir / "results.npz")
    assert checks.check_networks(bundle, names, fit_dir, workloads.FIT_ALPHAS) == []
    path = checks.network_path(fit_dir, "class1", 0.1)
    called = checks.read_network_tsv(path, {n: i for i, n in enumerate(names)})
    absent = next((i, j) for i in range(len(names)) for j in range(i + 1, len(names))
                  if (i, j) not in called)
    with open(path, "a") as fh:
        fh.write(f"{names[absent[0]]}\t{names[absent[1]]}\t0.5\tpositive\t1\t\n")
    bad = checks.check_networks(bundle, names, fit_dir, workloads.FIT_ALPHAS)
    assert len(bad) == 1 and path.name in bad[0]


def test_broken_pd_in_one_draw_fails(fit_run, tmp_path):
    fit_dir, _ = _fit_outputs(fit_run, tmp_path)
    bundle = checks.load_bundle(fit_dir / "results.npz")
    a, r, lam = (bundle[key].copy() for key in ("draws_a", "draws_r", "draws_lam"))
    assert checks.check_draws(a, r, bundle["draws_s"], lam) == []
    # a 3-cycle of near-unit correlations with an odd number of negative
    # signs has no positive definite completion
    for (i, j), value in (((0, 1), 0.99), ((0, 2), 0.99), ((1, 2), -0.99)):
        a[5, 0, i, j] = a[5, 0, j, i] = 1
        r[5, 0, i, j] = r[5, 0, j, i] = value
        lam[5, i, j] = lam[5, j, i] = a[5, 0, i, j] ^ a[5, 1, i, j]
    bad = checks.check_draws(a, r, bundle["draws_s"], lam)
    assert bad == ["A o R not positive definite (draw 5, class 1, 1 matrices)"]


def test_lam_not_xor_fails(fit_run, tmp_path):
    fit_dir, _ = _fit_outputs(fit_run, tmp_path)
    bundle = checks.load_bundle(fit_dir / "results.npz")
    lam = bundle["draws_lam"].copy()
    lam[0, 1, 2] = lam[0, 2, 1] = 1 - lam[0, 1, 2]
    bad = checks.check_draws(bundle["draws_a"], bundle["draws_r"], bundle["draws_s"], lam)
    assert bad == ["lam differs from a1 XOR a2"]


def test_altered_error_percentage_fails(classify_run, tmp_path):
    _, run_dir, _ = classify_run
    out = tmp_path / "benchmark"
    shutil.copytree(run_dir / "round0" / "benchmark", out)
    n_test = workloads.make_inputs(workloads.WORKLOADS["classify-p10"], SEED,
                                   tmp_path / "inputs").n_test
    assert checks.check_benchmark_tables(out, n_test, compare=False) == []
    path = out / "benchmark_replicates.tsv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split("\t")
    cells[-1] = repr(float(cells[-1]) + 1.0)
    path.write_text("\n".join(lines[:-1] + ["\t".join(cells)]) + "\n")
    bad = checks.check_benchmark_tables(out, n_test, compare=False)
    assert any("not a multiple of 100/40" in msg for msg in bad)


def test_fdr_selection_takes_ties_and_the_excess_is_reported(tmp_path):
    probs = np.array([1.0, 0.95, 0.8, 0.8, 0.3])
    # the top three have mean (1 - p) 0.0833 <= 0.1; the tie at 0.8 pulls
    # the fourth edge in and the called set's mean rises to 0.1125
    assert checks.fdr_called(probs, 0.1).tolist() == [True, True, True, True, False]
    assert checks.fdr_called(probs, 0.01).tolist() == [True, False, False, False, False]

    names = ("A", "B", "C")
    ppi = np.array([[0.0, 1.0, 0.8], [1.0, 0.0, 0.8], [0.8, 0.8, 0.0]])
    bundle = {"ppi_class1": ppi, "ppi_class2": ppi, "ppi_diff": np.zeros((3, 3))}
    column_header = "protein_i\tprotein_j\tppi\tsign\tweight\tcarrier\n"
    for which in checks.NETWORKS:
        rows = "".join(f"{a}\t{b}\t1\tpositive\t1\t\n"
                       for a, b in (("A", "B"), ("A", "C"), ("B", "C")))
        checks.network_path(tmp_path, which, 0.1).write_text(
            "# header\n" + column_header + (rows if which != "differential" else ""))
    assert checks.check_networks(bundle, names, tmp_path, [0.1]) == []
    excess = checks.fdr_excess(bundle, names, tmp_path, [0.1])
    assert [msg.split(":")[0] for msg in excess] == [
        "network_class1_alpha0.1.tsv", "network_class2_alpha0.1.tsv"]


def test_auc_and_cholesky_helpers():
    assert checks.rank_auc([0.9, 0.8, 0.1, 0.1], [1, 1, 0, 0]) == 1.0
    assert checks.rank_auc([0.5, 0.5], [1, 0]) == 0.5
    rng = np.random.default_rng(0)
    m = rng.standard_normal((20, 6, 6))
    spd = m @ np.swapaxes(m, 1, 2) + 0.1 * np.eye(6)
    assert (checks.smallest_cholesky_pivots(spd) > 0).all()
    spd[3, 0, 0] = -1.0
    assert (checks.smallest_cholesky_pivots(spd) > 0).tolist().count(False) == 1


def test_edge_ess_of_independent_draws_is_near_the_draw_count():
    rng = np.random.default_rng(1)
    a = (rng.random((4000, 2, 5, 5)) < 0.3).astype(np.uint8)
    ess = workloads.mean_edge_ess(a)
    assert 3400 < ess < 4600


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fit-p10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stderr.strip())
