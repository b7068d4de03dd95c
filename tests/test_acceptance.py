"""Formal acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them). The statistical criteria run real MCMC at fixed seeds, so the
suite is deterministic; expect about 5.5 minutes single-threaded for
the whole module.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import invgamma

from bggm.baselines import SplitPlan, benchmark
from bggm.cli import main as cli_main
from bggm.inference import (
    NET_CLASS1,
    NET_CLASS2,
    call_network,
    summarize,
)
from bggm.model import (
    CLASS1,
    CLASS2,
    Dataset,
    Hyperparameters,
    center_mean_prior,
    default_hyperparameters,
)
from bggm.sampler import ChainConfig, _Workspace, init_state, run_chain, update_mu
from bggm.synthetic import generate_model, sample_data

from oracles import admissible_interval, empty_dataset, score_recovery
from test_pdcore import grid_pd_mask, random_correlation

# Violation counts from every chain the suite runs; criterion 8 asserts
# the total is zero.
VALIDATION_LOG = []


def _report(num, name, passed, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")


def _recovery_hyper(p):
    """Fit prior for the synthetic-recovery criteria: edge density 1/4
    and differential density 1/6, matching the generating sparsity class
    (12 true edges of 45, 4 differential)."""
    h = default_hyperparameters(p)
    return Hyperparameters(
        edge_a=np.full((2, p, p), 2.0), edge_b=np.full((2, p, p), 6.0),
        diff_e=np.full((p, p), 2.0), diff_f=np.full((p, p), 10.0),
        s_shape=1.0, s_scale=1.0, label_eta=2.0, label_zeta=2.0,
        mu0=h.mu0, b0=h.b0)


RECOVERY_CHAIN = dict(iterations=5000, burn_in=1000, thin=1,
                      r_proposal="walk", r_walk_step=0.15,
                      s_proposal_sd=0.10, validate_every=1)


def _fit_synthetic(seed):
    model = generate_model(10, 8, 4, (0.4, 0.7), seed=seed)
    d = sample_data(model, 100, 100, seed=seed + 1)
    h = center_mean_prior(_recovery_hyper(10), d)
    cfg = ChainConfig(seed=seed + 2, **RECOVERY_CHAIN)
    samples = run_chain(d, h, cfg)
    VALIDATION_LOG.append(("recovery", len(samples.violations)))
    return model, summarize(samples)


def test_criterion_1_admissible_interval_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    step = 1e-3
    xs = np.arange(-1.0 + step, 1.0, step)
    worst = 0.0
    checked = 0
    for _ in range(200):
        c = random_correlation(5, rng)
        for i in range(5):
            for j in range(i + 1, 5):
                u, v = admissible_interval(c, i, j)
                ok = grid_pd_mask(c, i, j, xs)
                hits = np.where(ok)[0]
                assert hits.size > 0
                worst = max(worst, abs(u - xs[hits[0]]), abs(v - xs[hits[-1]]))
                checked += 1
    elapsed = time.monotonic() - t0
    passed = worst <= 2e-3 and elapsed < 30.0
    _report(1, "PD-interval oracle", passed,
            f"{checked} intervals, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 2e-3
    assert elapsed < 30.0


def _prior_recovery_hyper(p=4):
    """Heterogeneous sparse-to-moderate priors: the four-cell enumeration
    oracle is exact for the sampler's joint up to the (small, measured)
    positive-definiteness coupling at these densities."""
    h = default_hyperparameters(p)
    edge_a = np.full((2, p, p), 2.0)
    edge_b = np.full((2, p, p), 4.0)
    edge_a[0, 0, 1] = edge_a[0, 1, 0] = 2.0
    edge_b[0, 0, 1] = edge_b[0, 1, 0] = 10.0   # class-asymmetric edge
    diff_e = np.full((p, p), 2.0)
    diff_f = np.full((p, p), 10.0)
    diff_f[2, 3] = diff_f[3, 2] = 2.0          # one vague differential prior
    return Hyperparameters(
        edge_a=edge_a, edge_b=edge_b, diff_e=diff_e, diff_f=diff_f,
        s_shape=1.0, s_scale=1.0, label_eta=2.0, label_zeta=2.0,
        mu0=np.zeros((2, p)), b0=h.b0)


def _coupled_cell_marginals(m1, m2, mp):
    cells = {}
    for a1 in (0, 1):
        for a2 in (0, 1):
            lam = a1 ^ a2
            cells[(a1, a2)] = ((m1 if a1 else 1 - m1)
                               * (m2 if a2 else 1 - m2)
                               * (mp if lam else 1 - mp))
    z = sum(cells.values())
    return ((cells[(1, 0)] + cells[(1, 1)]) / z,
            (cells[(0, 1)] + cells[(1, 1)]) / z)


def test_criterion_2_prior_recovery():
    t0 = time.monotonic()
    p = 4
    d = empty_dataset(p)
    h = _prior_recovery_hyper(p)
    # 20000 retained draws; thinning only reduces autocorrelation
    cfg = ChainConfig(iterations=61000, burn_in=1000, thin=3, seed=1,
                      s_proposal_sd=2.5, validate_every=1)
    samples = run_chain(d, h, cfg)
    VALIDATION_LOG.append(("prior-recovery", len(samples.violations)))
    assert samples.n_draws == 20000

    max_dev = 0.0
    for i in range(p):
        for j in range(i + 1, p):
            m1 = h.edge_a[0, i, j] / (h.edge_a[0, i, j] + h.edge_b[0, i, j])
            m2 = h.edge_a[1, i, j] / (h.edge_a[1, i, j] + h.edge_b[1, i, j])
            mp = h.diff_e[i, j] / (h.diff_e[i, j] + h.diff_f[i, j])
            w1, w2 = _coupled_cell_marginals(m1, m2, mp)
            max_dev = max(max_dev,
                          abs(samples.a[:, 0, i, j].mean() - w1),
                          abs(samples.a[:, 1, i, j].mean() - w2))

    want_q = invgamma.ppf([0.25, 0.5, 0.75], a=1.0, scale=1.0)
    worst_rel = 0.0
    for k in range(2):
        for i in range(p):
            got_q = np.quantile(samples.s[:, k, i], [0.25, 0.5, 0.75])
            worst_rel = max(worst_rel, float(np.max(np.abs(got_q - want_q) / want_q)))

    elapsed = time.monotonic() - t0
    passed = max_dev <= 0.02 and worst_rel <= 0.05 and elapsed < 120.0
    _report(2, "prior recovery", passed,
            f"max edge-marginal dev {max_dev:.4f} (tol 0.02), "
            f"worst IG-quartile rel err {worst_rel:.4f} (tol 0.05), {elapsed:.0f}s")
    assert max_dev <= 0.02
    assert worst_rel <= 0.05
    assert elapsed < 120.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "update_edge with r_proposal='walk' has no proposal-density term for "
    "moves that switch an edge on (CHANGES.md, FOUND: walk proposals); "
    "remove this marker with the fix"))
def test_walk_proposal_prior_recovery():
    # criterion 2's prior-only setting with random-walk correlation
    # proposals: the edge marginals should match the same four-cell oracle
    p = 4
    d = empty_dataset(p)
    h = _prior_recovery_hyper(p)
    cfg = ChainConfig(iterations=12000, burn_in=1000, seed=1,
                      s_proposal_sd=2.5, r_proposal="walk")
    samples = run_chain(d, h, cfg)
    max_dev = 0.0
    for i in range(p):
        for j in range(i + 1, p):
            m1 = h.edge_a[0, i, j] / (h.edge_a[0, i, j] + h.edge_b[0, i, j])
            m2 = h.edge_a[1, i, j] / (h.edge_a[1, i, j] + h.edge_b[1, i, j])
            mp = h.diff_e[i, j] / (h.diff_e[i, j] + h.diff_f[i, j])
            w1, w2 = _coupled_cell_marginals(m1, m2, mp)
            max_dev = max(max_dev,
                          abs(samples.a[:, 0, i, j].mean() - w1),
                          abs(samples.a[:, 1, i, j].mean() - w2))
    assert max_dev <= 0.02, f"max edge-marginal deviation {max_dev:.4f}"


def test_criterion_3_conjugate_mu_check():
    rng = np.random.default_rng(79)
    p = 3
    n_per = 12
    d = Dataset(
        np.vstack([rng.standard_normal((n_per, p)) + 1.0,
                   rng.standard_normal((n_per, p)) - 1.0]),
        np.array([CLASS1] * n_per + [CLASS2] * n_per),
        ("a", "b", "c"))
    h = default_hyperparameters(p)
    h = center_mean_prior(h, d)
    st = init_state(d, h)
    # freeze a non-trivial precision: one edge per class, uneven scales
    st.a[0, 0, 1] = st.a[0, 1, 0] = 1
    st.r[0, 0, 1] = st.r[0, 1, 0] = -0.45
    st.a[1, 1, 2] = st.a[1, 2, 1] = 1
    st.r[1, 1, 2] = st.r[1, 2, 1] = 0.3
    st.s[0] = (0.8, 1.3, 1.0)
    st.s[1] = (1.1, 0.7, 1.6)

    work = _Workspace(st, d)
    m = 10000
    draws = np.empty((m, 2, p))
    gen = np.random.default_rng(80)
    for t in range(m):
        update_mu(st, h, gen, work=work)
        draws[t] = st.mu

    ok = True
    details = []
    for k, cls in enumerate((CLASS1, CLASS2)):
        omega = work.omega(st, k)
        rows = d.y[d.labels == cls]
        post_prec = h.b0[k] + len(rows) * omega
        post_cov = np.linalg.inv(post_prec)
        post_mean = post_cov @ (h.b0[k] @ h.mu0[k] + omega @ rows.sum(axis=0))

        emp_mean = draws[:, k].mean(axis=0)
        mean_se = np.sqrt(np.diag(post_cov) / m)
        mean_ok = np.all(np.abs(emp_mean - post_mean) <= 3 * mean_se)

        emp_cov = np.cov(draws[:, k], rowvar=False)
        cov_se = np.sqrt((np.outer(np.diag(post_cov), np.diag(post_cov))
                          + post_cov ** 2) / m)
        cov_ok = np.all(np.abs(emp_cov - post_cov) <= 3 * cov_se)
        ok = ok and mean_ok and cov_ok
        details.append(
            f"class{cls}: mean dev {np.max(np.abs(emp_mean - post_mean) / mean_se):.2f} SE, "
            f"cov dev {np.max(np.abs(emp_cov - post_cov) / cov_se):.2f} SE")
    _report(3, "conjugate mu check", ok, "; ".join(details))
    assert ok


RECOVERY_SEEDS = (11, 22, 33, 44, 55)


@pytest.fixture(scope="module")
def recovery_runs():
    t0 = time.monotonic()
    runs = [(_fit_synthetic(seed)) for seed in RECOVERY_SEEDS]
    return runs, time.monotonic() - t0


def test_criterion_4_structure_recovery(recovery_runs):
    runs, elapsed = recovery_runs
    scores = [score_recovery(model, summary) for model, summary in runs]
    auc1 = float(np.mean([s["auc_class1"] for s in scores]))
    auc2 = float(np.mean([s["auc_class2"] for s in scores]))
    aucd = float(np.mean([s["auc_diff"] for s in scores]))
    passed = auc1 >= 0.8 and auc2 >= 0.8 and aucd >= 0.7 and elapsed < 1500.0
    _report(4, "structure recovery", passed,
            f"mean AUC class1 {auc1:.3f} / class2 {auc2:.3f} (>= 0.8), "
            f"differential {aucd:.3f} (>= 0.7), {elapsed:.0f}s over "
            f"{len(RECOVERY_SEEDS)} seeds")
    assert auc1 >= 0.8
    assert auc2 >= 0.8
    assert aucd >= 0.7
    assert elapsed < 1500.0


def test_criterion_5_fdr_calibration():
    fdps = []
    for rep in range(20):
        seed = 5000 + 31 * rep
        model, summary = _fit_synthetic(seed)
        for which in (NET_CLASS1, NET_CLASS2):
            call = call_network(summary, which, 0.10)
            fdps.append(score_recovery(model, call)["fdp"])
    mean_fdp = float(np.mean(fdps))
    passed = mean_fdp <= 0.2
    _report(5, "FDR calibration", passed,
            f"mean realized FDP at alpha=0.10: {mean_fdp:.3f} (tol 0.2, "
            f"{len(fdps)} network calls over 20 replicates)")
    assert mean_fdp <= 0.2


def test_criterion_6_classification_advantage():
    model = generate_model(10, 4, 8, (0.5, 0.8), seed=901)
    d = sample_data(model, 60, 60, seed=902)  # equal means by construction
    assert np.allclose(model.mean, 0.0)
    plan = SplitPlan(n_replicates=25, train_fraction=2.0 / 3.0, seed=903)
    cfg = ChainConfig(iterations=2000, burn_in=500, thin=1,
                      r_proposal="walk", r_walk_step=0.2,
                      s_proposal_sd=0.15, validate_every=1)
    result = benchmark(d, plan,
                       classifiers=("knn", "lda", "dlda", "dqda", "nbc", "bgbc"),
                       bggm_config=cfg)
    VALIDATION_LOG.append(("benchmark", result.validation_violations))
    bgbc, lda, dlda = result.mean["bgbc"], result.mean["lda"], result.mean["dlda"]
    passed = bgbc < lda and bgbc < dlda
    _report(6, "classification advantage", passed,
            f"mean misclassification % over 25 splits: BGBC {bgbc:.1f} "
            f"vs LDA {lda:.1f}, DLDA {dlda:.1f}")
    assert bgbc < lda
    assert bgbc < dlda


def test_criterion_7_fit_determinism(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--out", str(sim), "--p", "6",
                     "--conserved", "4", "--differential", "2",
                     "--n1", "40", "--n2", "40", "--seed", "17"]) == 0
    # mark a few rows unknown so predictions are exercised too
    lines = (sim / "dataset.csv").read_text().splitlines()
    for idx in range(3, 6):
        cells = lines[idx].split(",")
        cells[-1] = "?"
        lines[idx] = ",".join(cells)
    (sim / "dataset.csv").write_text("\n".join(lines) + "\n")

    outs = []
    for run in ("run_a", "run_b"):
        out = tmp_path / run
        code = cli_main(["fit", "--data", str(sim / "dataset.csv"),
                         "--out", str(out), "--iterations", "600",
                         "--burn-in", "200", "--seed", "29",
                         "--alpha", "0.1,0.2", "--validate-every", "1"])
        assert code == 0
        outs.append(out)

    compared = 0
    identical = True
    for path_a in sorted(outs[0].glob("*.tsv")) + sorted(outs[0].glob("*.dot")):
        path_b = outs[1] / path_a.name
        same = path_a.read_bytes() == path_b.read_bytes()
        identical = identical and same
        compared += 1
    passed = identical and compared >= 11  # summary + predictions + 4 nets x 2 alphas
    _report(7, "fit determinism", passed,
            f"{compared} output files byte-compared, identical={identical}")
    assert passed


def test_criterion_9_performance_envelope():
    model = generate_model(10, 8, 4, (0.4, 0.7), seed=990)
    d = sample_data(model, 80, 80, seed=991)
    h = center_mean_prior(default_hyperparameters(10), d)
    cfg = ChainConfig(iterations=5000, burn_in=1000, thin=1, seed=992,
                      validate_every=1)
    t0 = time.monotonic()
    samples = run_chain(d, h, cfg)
    elapsed = time.monotonic() - t0
    VALIDATION_LOG.append(("performance", len(samples.violations)))
    passed = elapsed < 300.0
    _report(9, "performance envelope", passed,
            f"5000 iterations at p=10, n=160 in {elapsed:.0f}s (limit 300s)")
    assert passed


def test_criterion_8_invariant_suite():
    # dedicated run with per-sweep validation on a dataset with unknowns
    model = generate_model(6, 3, 2, (0.4, 0.7), seed=801)
    d_full = sample_data(model, 30, 30, seed=802)
    labels = d_full.labels.copy()
    labels[-8:] = 0
    d = Dataset(d_full.y, labels, d_full.names)
    h = center_mean_prior(default_hyperparameters(6), d)
    cfg = ChainConfig(iterations=800, burn_in=100, thin=1, seed=803,
                      validate_every=1)
    samples = run_chain(d, h, cfg)
    VALIDATION_LOG.append(("dedicated", len(samples.violations)))

    total = sum(count for _, count in VALIDATION_LOG)
    chains = len(VALIDATION_LOG)
    passed = total == 0 and chains >= 5
    _report(8, "invariant suite", passed,
            f"{total} violations across {chains} validated chains "
            "(PD checked every sweep)")
    assert total == 0
    assert chains >= 5
