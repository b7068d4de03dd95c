import numpy as np
import pytest
from scipy.stats import invgamma

from bggm.errors import InputError, ValidationError
from bggm.model import (
    CLASS1,
    CLASS2,
    Dataset,
    Hyperparameters,
    default_hyperparameters,
    validate_state,
)
from bggm.pdcore import det_ratio, entry_kernel, hadamard_correlation
from bggm.sampler import (
    INTERVAL_SHRINK,
    RANK2_MIN_RATIO,
    ChainConfig,
    _Workspace,
    _sweep,
    init_state,
    new_counters,
    run_chain,
    update_edge,
    update_labels,
    update_mu,
    update_q_pi,
    update_s,
)
from oracles import empty_dataset, mvn_logpdf
from test_pdcore import near_singular_correlation, random_correlation


def hyper_with(p, edge_ab=None, diff_ef=None, b0_scale=None, mu0=None):
    h = default_hyperparameters(p)
    edge_a, edge_b = h.edge_a.copy(), h.edge_b.copy()
    if edge_ab is not None:
        for (k, i, j), (a_val, b_val) in edge_ab.items():
            edge_a[k, i, j] = edge_a[k, j, i] = a_val
            edge_b[k, i, j] = edge_b[k, j, i] = b_val
    diff_e, diff_f = h.diff_e.copy(), h.diff_f.copy()
    if diff_ef is not None:
        diff_e[:, :], diff_f[:, :] = diff_ef
    b0 = h.b0.copy() if b0_scale is None else np.broadcast_to(
        b0_scale * np.eye(p), (2, p, p)).copy()
    return Hyperparameters(
        edge_a=edge_a, edge_b=edge_b, diff_e=diff_e, diff_f=diff_f,
        s_shape=h.s_shape, s_scale=h.s_scale,
        label_eta=h.label_eta, label_zeta=h.label_zeta,
        mu0=h.mu0 if mu0 is None else mu0, b0=b0)


def two_class_gaussian(p, n_per, rng, omega1=None, omega2=None, mu1=None, mu2=None):
    omega1 = np.eye(p) if omega1 is None else omega1
    omega2 = np.eye(p) if omega2 is None else omega2
    mu1 = np.zeros(p) if mu1 is None else mu1
    mu2 = np.zeros(p) if mu2 is None else mu2
    y1 = rng.multivariate_normal(mu1, np.linalg.inv(omega1), size=n_per)
    y2 = rng.multivariate_normal(mu2, np.linalg.inv(omega2), size=n_per)
    labels = np.array([CLASS1] * n_per + [CLASS2] * n_per)
    return Dataset(np.vstack([y1, y2]), labels, tuple(f"P{i}" for i in range(p)))


def coupled_cell_marginals(m1, m2, mp):
    """Enumerate the four (a1, a2) cells of the coupled prior using the
    Beta prior means; exact for the sampler's joint by multilinearity."""
    cells = {}
    for a1 in (0, 1):
        for a2 in (0, 1):
            lam = a1 ^ a2
            cells[(a1, a2)] = ((m1 if a1 else 1 - m1)
                               * (m2 if a2 else 1 - m2)
                               * (mp if lam else 1 - mp))
    z = sum(cells.values())
    return ((cells[(1, 0)] + cells[(1, 1)]) / z,
            (cells[(0, 1)] + cells[(1, 1)]) / z,
            (cells[(1, 0)] + cells[(0, 1)]) / z)


class TestChainConfig:
    def test_draw_count(self):
        cfg = ChainConfig(iterations=100, burn_in=50, thin=5)
        assert cfg.n_draws == 10

    def test_burn_in_bounds(self):
        with pytest.raises(InputError):
            ChainConfig(iterations=10, burn_in=10)

    def test_thin_bounds(self):
        with pytest.raises(InputError):
            ChainConfig(iterations=10, burn_in=5, thin=6)


class TestInitState:
    def test_fresh_state_is_valid(self):
        rng = np.random.default_rng(0)
        d = two_class_gaussian(3, 5, rng)
        st = init_state(d, default_hyperparameters(3))
        assert validate_state(st) == []

    def test_empty_graph_init(self):
        rng = np.random.default_rng(1)
        d = two_class_gaussian(2, 2, rng)
        st = init_state(d, default_hyperparameters(2))
        assert st.a[0, 0, 1] == 0 and st.a[1, 0, 1] == 0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        d = two_class_gaussian(3, 6, rng)
        h = default_hyperparameters(3)
        s1 = init_state(d, h)
        s2 = init_state(d, h)
        for name in ("a", "r", "s", "mu", "q", "pi", "h", "z_u"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name)), name

    def test_too_few_labeled_samples(self):
        d = Dataset(np.random.default_rng(3).standard_normal((3, 2)),
                    np.array([1, 1, 2]), ("a", "b"))
        with pytest.raises(ValidationError):
            init_state(d, default_hyperparameters(2))


class TestUpdateMu:
    def test_empty_class_draws_from_prior(self):
        # all samples assigned to class 1; class 2 mean must follow the prior
        rng = np.random.default_rng(4)
        p = 2
        y = rng.standard_normal((6, p))
        d = Dataset(y, np.array([1] * 6), ("a", "b"))
        mu0 = np.array([[0.0, 0.0], [5.0, -3.0]])
        h = hyper_with(p, b0_scale=1e4, mu0=mu0)
        d_ok = Dataset(np.vstack([y, y[:2] + 9]), np.array([1] * 6 + [2] * 2),
                       ("a", "b"))
        st = init_state(d_ok, h)
        st.z_u = np.zeros(0, dtype=np.int8)
        draws = []
        gen = np.random.default_rng(11)
        work = _Workspace(st, d)
        for _ in range(400):
            # class 2 has no members in d
            update_mu(st, h, gen, work)
            draws.append(st.mu[1].copy())
        draws = np.array(draws)
        # prior sd = 1e-2, so draws hug mu0
        assert np.allclose(draws.mean(axis=0), mu0[1], atol=5e-3)

    def test_prior_dominated_limit(self):
        rng = np.random.default_rng(5)
        p = 3
        d = two_class_gaussian(p, 20, rng)
        mu0 = np.zeros((2, p))
        h = hyper_with(p, b0_scale=1e8, mu0=mu0)
        st = init_state(d, h)
        gen = np.random.default_rng(7)
        update_mu(st, h, gen, _Workspace(st, d))
        assert np.allclose(st.mu, mu0, atol=1e-3)

    def test_matches_closed_form_posterior(self):
        # frozen state: identity omega, near-flat prior; Gibbs draws must
        # match the normal posterior N(ybar_k, I / n_k) within MC error
        rng = np.random.default_rng(6)
        p = 2
        n_per = 8
        d = two_class_gaussian(p, n_per, rng)
        h = hyper_with(p, b0_scale=1e-6)
        st = init_state(d, h)
        # freeze omega at the identity: empty graph, unit scales
        st.s[:, :] = 1.0
        gen = np.random.default_rng(13)
        m = 10000
        draws = np.empty((m, 2, p))
        work = _Workspace(st, d)
        for t in range(m):
            update_mu(st, h, gen, work=work)
            draws[t] = st.mu
        for k, cls in enumerate((CLASS1, CLASS2)):
            ybar = d.y[d.labels == cls].mean(axis=0)
            post_prec = 1e-6 + n_per
            post_mean = n_per * ybar / post_prec
            post_sd = np.sqrt(1.0 / post_prec)
            mc_se = post_sd / np.sqrt(m)
            assert np.all(np.abs(draws[:, k].mean(axis=0) - post_mean) < 3 * mc_se)
            assert np.allclose(draws[:, k].std(axis=0), post_sd, rtol=0.05)


class TestUpdateEdge:
    def test_prior_recovery_no_data(self):
        # p=2 has no PD coupling, so retained frequencies must match the
        # analytic cell enumeration exactly (up to MC error)
        p = 2
        d = empty_dataset(p)
        h = hyper_with(p, edge_ab={(0, 0, 1): (10, 2), (1, 0, 1): (2, 2)},
                       diff_ef=(2.0, 10.0))
        st = init_state(d, h)
        gen = np.random.default_rng(17)
        work = _Workspace(st, d)
        hits = np.zeros(3)
        sweeps = 20000
        for _ in range(sweeps):
            update_edge(st, 0, 1, gen, work, new_counters(),
                        r_proposal="prior", r_walk_step=0.2)
            update_q_pi(st, h, gen)
            hits += (st.a[0, 0, 1], st.a[1, 0, 1], st.a[0, 0, 1] ^ st.a[1, 0, 1])
        got = hits / sweeps
        want = coupled_cell_marginals(10 / 12, 0.5, 2 / 12)
        assert np.all(np.abs(got - np.array(want)) < 0.02), (got, want)

    def test_degenerate_prior_forces_edge_on(self):
        p = 2
        d = empty_dataset(p)
        h = default_hyperparameters(p)
        st = init_state(d, h)
        st.q[:, 0, 1] = st.q[:, 1, 0] = 1.0  # force q = 1
        gen = np.random.default_rng(19)
        work = _Workspace(st, d)
        for _ in range(50):
            update_edge(st, 0, 1, gen, work, new_counters(),
                        r_proposal="prior", r_walk_step=0.2)
            assert st.a[0, 0, 1] == 1 and st.a[1, 0, 1] == 1

    def test_strong_signal_recovered(self):
        # true partial correlation 0.8 on the single edge of both classes
        rng = np.random.default_rng(20)
        c = np.array([[1.0, -0.8], [-0.8, 1.0]])  # C entry = -rho
        omega = c.copy()
        d = two_class_gaussian(2, 200, rng, omega1=omega, omega2=omega)
        h = default_hyperparameters(2)
        cfg = ChainConfig(iterations=5000, burn_in=1000, thin=1, seed=5)
        samples = run_chain(d, h, cfg)
        assert samples.a[:, 0, 0, 1].mean() > 0.9
        assert samples.a[:, 1, 0, 1].mean() > 0.9
        # recovered partial correlation should be near +0.8
        active = samples.a[:, 0, 0, 1] == 1
        rho_draws = -samples.r[active, 0, 0, 1]
        assert abs(rho_draws.mean() - 0.8) < 0.1

    def test_requires_i_less_than_j(self):
        d = empty_dataset(3)
        h = default_hyperparameters(3)
        st = init_state(d, h)
        with pytest.raises(InputError):
            update_edge(st, 2, 1, np.random.default_rng(0),
                        _Workspace(st, d), new_counters(),
                        r_proposal="prior", r_walk_step=0.2)


def workspace_on(corrs):
    """State with both classes' graphs full and R_k = ``corrs[k]`` (so
    C_k = R_k) over an empty dataset, and its workspace."""
    p = corrs[0].shape[0]
    d = empty_dataset(p)
    st = init_state(d, default_hyperparameters(p))
    st.a[:] = 1
    st.r[:] = corrs
    return st, d, _Workspace(st, d)


def assert_workspace_exact(st, work, tol):
    """The workspace against direct inversion and slogdet of C_k: log-det
    to ``tol`` absolute, W_k to ``tol`` relative to its largest entry."""
    for k in range(2):
        c = hadamard_correlation(st.a[k], st.r[k])
        assert np.array_equal(work.c[k], c)
        sign, logdet = np.linalg.slogdet(c)
        assert sign > 0
        assert work.logdet_c[k] == pytest.approx(logdet, abs=tol)
        inv = np.linalg.inv(c)
        assert np.max(np.abs(work.w[k] - inv)) <= tol * np.max(np.abs(inv))


class TestWorkspaceRank2Update:
    """move_entry keeps C_k, log det C_k and W_k = C_k^-1 exact over long
    runs of accepted moves without a refactor."""

    def run_moves(self, st, work, rng, n_moves):
        p = st.p
        done = 0
        while done < n_moves:
            k = int(rng.integers(2))
            i, j = sorted(rng.choice(p, size=2, replace=False))
            x0 = work.c[k, i, j]
            u, v, up_gap, down_gap = entry_kernel(work.w[k], i, j, x0)
            x = rng.uniform(u + INTERVAL_SHRINK, v - INTERVAL_SHRINK)
            ratio = det_ratio(up_gap, down_gap, x - x0)
            if not RANK2_MIN_RATIO <= ratio <= 1.0 / RANK2_MIN_RATIO:
                continue  # update_edge refactors these in full
            st.r[k, i, j] = st.r[k, j, i] = x
            work.move_entry(k, i, j, x, ratio)
            done += 1

    @pytest.mark.parametrize("p", [3, 10, 40])
    def test_random_correlations(self, p):
        rng = np.random.default_rng(500 + p)
        st, _, work = workspace_on([random_correlation(p, rng) for _ in range(2)])
        for _ in range(4):
            self.run_moves(st, work, rng, 60)
            assert_workspace_exact(st, work, tol=1e-9)

    def test_near_singular_start(self):
        # condition number ~9e6 at the start; the oracle's own inverse
        # and log-det are only good to about cond * eps (2e-9) there
        c = near_singular_correlation(10, np.random.default_rng(8))
        assert np.linalg.cond(c) > 1e6
        st, _, work = workspace_on([c, c.copy()])
        rng = np.random.default_rng(9)
        self.run_moves(st, work, rng, 240)
        assert_workspace_exact(st, work, tol=1e-8)

    def test_out_of_band_moves_refactor_in_full(self):
        # no data: every proposal is accepted, and uniform values near an
        # interval end give determinant ratios far from 1 either way
        st, d, work = workspace_on([np.eye(2), np.eye(2)])
        st.q[:] = 1.0  # always propose the edge in both classes
        rank2_ratios = []
        move_entry = work.move_entry

        def spy(k, i, j, x, ratio):
            rank2_ratios.append(ratio)
            move_entry(k, i, j, x, ratio)

        work.move_entry = spy
        counters = new_counters()
        gen = np.random.default_rng(3)
        low = high = 0
        for _ in range(200):
            before = work.c[:, 0, 1].copy()
            logdet_before = np.array([np.linalg.slogdet(c)[1] for c in work.c])
            update_edge(st, 0, 1, gen, work, counters,
                        r_proposal="prior", r_walk_step=0.2)
            fresh = _Workspace(st, d)
            for k in range(2):
                if work.c[k, 0, 1] == before[k]:
                    continue
                change = np.linalg.slogdet(work.c[k])[1] - logdet_before[k]
                if abs(change) > -np.log(RANK2_MIN_RATIO):
                    low += change < 0.0
                    high += change > 0.0
                    # the fallback leaves a freshly factored class
                    assert np.array_equal(work.w[k], fresh.w[k])
                    assert work.logdet_c[k] == fresh.logdet_c[k]
        assert low > 0 and high > 0
        assert counters["w_refactor_forced"] == low + high
        assert RANK2_MIN_RATIO <= min(rank2_ratios)
        assert max(rank2_ratios) <= 1.0 / RANK2_MIN_RATIO
        assert (counters["edge_accepted"], counters["edge_proposed"]) == (200, 200)


class TestSweepReanchor:
    def test_workspace_matches_fresh_and_drift_is_reported(self):
        rng = np.random.default_rng(42)
        y_unlab = rng.standard_normal((6, 5))
        d_lab = two_class_gaussian(5, 12, rng)
        d = Dataset(np.vstack([d_lab.y, y_unlab]),
                    np.concatenate([d_lab.labels, np.zeros(6, dtype=int)]),
                    d_lab.names)
        h = default_hyperparameters(5)
        cfg = ChainConfig(iterations=60, burn_in=10, seed=16)
        st = init_state(d, h)
        work = _Workspace(st, d)
        counters = new_counters()
        gen = np.random.default_rng(18)
        for _ in range(50):
            _sweep(st, d, h, cfg, gen, work, counters)
            fresh = _Workspace(st, d)
            assert np.array_equal(work.c, fresh.c)
            assert np.allclose(work.logdet_c, fresh.logdet_c, rtol=0, atol=1e-10)
            assert np.allclose(work.w, fresh.w, rtol=0, atol=1e-10)
        assert counters["edge_accepted"] > 100
        assert counters["w_refactor_forced"] == 0
        assert 0.0 < counters["w_drift_max"] < 1e-10


class TestUpdateS:
    def test_no_data_matches_inverse_gamma_quantiles(self):
        p = 2
        d = empty_dataset(p)
        h = default_hyperparameters(p)
        st = init_state(d, h)
        gen = np.random.default_rng(23)
        work = _Workspace(st, d)
        m = 50000
        draws = np.empty(m)
        for t in range(m):
            update_s(st, h, 0, gen, work, new_counters(), proposal_sd=2.0)
            draws[t] = st.s[0, 0]
        want = invgamma.ppf([0.25, 0.5, 0.75], a=1.0, scale=1.0)
        got = np.quantile(draws, [0.25, 0.5, 0.75])
        assert np.all(np.abs(got - want) / want < 0.05), (got, want)

    def test_tiny_proposal_freezes_state(self):
        p = 2
        d = empty_dataset(p)
        h = default_hyperparameters(p)
        st = init_state(d, h)
        before = st.s.copy()
        counters = new_counters()
        gen = np.random.default_rng(29)
        work = _Workspace(st, d)
        for _ in range(200):
            update_s(st, h, 0, gen, work, counters, proposal_sd=1e-9)
        accepted, proposed = counters["s_accepted"], counters["s_proposed"]
        assert accepted / proposed > 0.999
        assert np.allclose(st.s, before, atol=1e-6)

    def test_concentrates_on_inverse_sd(self):
        # diagonal model: omega_ii = s_i^2, so s_0 -> 1/sd as n grows
        rng = np.random.default_rng(30)
        true_sd = 2.5
        n = 5000
        y = np.column_stack([
            rng.normal(0.0, true_sd, size=n),
            rng.normal(0.0, 1.0, size=n),
        ])
        labels = np.array([CLASS1] * (n // 2) + [CLASS2] * (n - n // 2))
        d = Dataset(y, labels, ("a", "b"))
        h = default_hyperparameters(2)
        st = init_state(d, h)
        st.s[:, :] = 1.0
        gen = np.random.default_rng(31)
        work = _Workspace(st, d)
        draws = []
        for t in range(3000):
            update_s(st, h, 0, gen, work, new_counters(), proposal_sd=0.1)
            if t >= 500:
                draws.append(st.s[:, 0].copy())
        post_mean = np.mean(draws, axis=0)
        assert np.all(np.abs(post_mean - 1.0 / true_sd) / (1.0 / true_sd) < 0.05)


class TestUpdateLabels:
    def _state_with_unknowns(self, d, h):
        st = init_state(d, h)
        return st

    def test_symmetric_case_is_fair(self):
        rng = np.random.default_rng(32)
        p = 2
        y = rng.standard_normal((24, p))
        labels = np.array([1] * 8 + [2] * 8 + [0] * 8)
        d = Dataset(y, labels, ("a", "b"))
        h = default_hyperparameters(p)
        st = self._state_with_unknowns(d, h)
        st.mu[:, :] = 0.0
        st.s[:, :] = 1.0
        st.h[:] = 0.5
        gen = np.random.default_rng(33)
        work = _Workspace(st, d)
        z_mean = []
        for _ in range(3000):
            st.h[:] = 0.5
            update_labels(st, d, h, gen, work=work)
            z_mean.append((st.z_u == CLASS1).mean())
        # symmetric means/precisions: assignment probability is exactly 1/2
        assert abs(np.mean(z_mean) - 0.5) < 0.02

    def test_dominant_likelihood_wins(self):
        rng = np.random.default_rng(34)
        p = 2
        mu1 = np.zeros(p)
        mu2 = np.full(p, 10.0)  # 10 sd apart
        y = np.vstack([rng.standard_normal((4, p)),
                       rng.standard_normal((4, p)) + 10.0,
                       np.zeros((3, p))])  # unknowns sit at mu1
        labels = np.array([1] * 4 + [2] * 4 + [0] * 3)
        d = Dataset(y, labels, ("a", "b"))
        h = default_hyperparameters(p)
        st = self._state_with_unknowns(d, h)
        st.mu[0] = mu1
        st.mu[1] = mu2
        st.s[:, :] = 1.0
        gen = np.random.default_rng(35)
        work = _Workspace(st, d)
        for _ in range(60):
            update_labels(st, d, h, gen, work=work)
            assert np.all(st.z_u == CLASS1)

    def test_graph_structure_helps_classification(self):
        # equal means; class 1 has a strong edge, class 2 is diagonal;
        # sampled assignments should track the plug-in Bayes classifier
        rng = np.random.default_rng(36)
        p = 2
        # class 1: unit variances, partial correlation 0.8 (scales chosen
        # so the covariance diagonal is exactly 1); class 2: independent
        scale1 = 1.0 / np.sqrt(0.36)
        omega1 = np.array([[1.0, -0.8], [-0.8, 1.0]]) * scale1 ** 2
        omega2 = np.eye(p)
        n_lab = 30
        y_test = rng.multivariate_normal(np.zeros(p), np.linalg.inv(omega1), size=200)
        y = np.vstack([
            rng.multivariate_normal(np.zeros(p), np.linalg.inv(omega1), size=n_lab),
            rng.multivariate_normal(np.zeros(p), np.linalg.inv(omega2), size=n_lab),
            y_test,
        ])
        labels = np.array([1] * n_lab + [2] * n_lab + [0] * 200)
        d = Dataset(y, labels, ("a", "b"))
        h = default_hyperparameters(p)
        st = self._state_with_unknowns(d, h)
        # freeze the true parameters into the state
        st.mu[:, :] = 0.0
        st.s[0, :] = scale1
        st.s[1, :] = 1.0
        st.a[0, 0, 1] = st.a[0, 1, 0] = 1
        st.r[0, 0, 1] = st.r[0, 1, 0] = -0.8
        st.a[1, 0, 1] = st.a[1, 1, 0] = 0
        st.r[1, 0, 1] = st.r[1, 1, 0] = 0.0
        gen = np.random.default_rng(37)
        work = _Workspace(st, d)
        votes = np.zeros(200)
        n_rounds = 400
        for _ in range(n_rounds):
            st.h[:] = 0.5
            update_labels(st, d, h, gen, work=work)
            votes += st.z_u == CLASS1
        majority = np.where(votes > n_rounds / 2, CLASS1, CLASS2)

        # plug-in true-parameter Bayes classifier oracle
        ld1 = float(np.linalg.slogdet(omega1)[1])
        ll1 = np.array([mvn_logpdf(row, np.zeros(p), omega1, ld1) for row in y_test])
        ll2 = np.array([mvn_logpdf(row, np.zeros(p), omega2, 0.0) for row in y_test])
        oracle = np.where(ll1 >= ll2, CLASS1, CLASS2)
        oracle_acc = np.mean(oracle == CLASS1)
        sampled_acc = np.mean(majority == CLASS1)
        assert oracle_acc > 0.7  # the setup is genuinely separable
        assert sampled_acc >= oracle_acc - 0.05
        assert sampled_acc > 0.5

    def test_noop_without_unknowns(self):
        rng = np.random.default_rng(38)
        d = two_class_gaussian(2, 4, rng)
        h = default_hyperparameters(2)
        st = init_state(d, h)
        before = st.z_u.copy()
        update_labels(st, d, h, np.random.default_rng(1), _Workspace(st, d))
        assert np.array_equal(st.z_u, before)


class TestRunChain:
    def test_draw_counting(self):
        d = empty_dataset(2)
        h = default_hyperparameters(2)
        cfg = ChainConfig(iterations=100, burn_in=50, thin=5, seed=12)
        samples = run_chain(d, h, cfg)
        assert samples.n_draws == 10

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(39)
        d = two_class_gaussian(3, 8, rng)
        h = default_hyperparameters(3)
        cfg = ChainConfig(iterations=120, burn_in=20, thin=2, seed=13)
        s1 = run_chain(d, h, cfg)
        s2 = run_chain(d, h, cfg)
        for name in ("a", "r", "s", "mu", "lam", "z_u"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name)), name
        assert s1.acceptance == s2.acceptance
        assert s1.counts == s2.counts

    def test_invariants_hold_every_sweep(self):
        rng = np.random.default_rng(40)
        y_unlab = rng.standard_normal((5, 3))
        d_lab = two_class_gaussian(3, 10, rng)
        d = Dataset(np.vstack([d_lab.y, y_unlab]),
                    np.concatenate([d_lab.labels, np.zeros(5, dtype=int)]),
                    d_lab.names)
        h = default_hyperparameters(3)
        cfg = ChainConfig(iterations=300, burn_in=50, thin=1, seed=14,
                          validate_every=1)
        samples = run_chain(d, h, cfg)
        assert samples.violations == []

    def test_walk_proposal_also_valid(self):
        rng = np.random.default_rng(41)
        d = two_class_gaussian(3, 10, rng)
        h = default_hyperparameters(3)
        cfg = ChainConfig(iterations=300, burn_in=50, thin=1, seed=15,
                          r_proposal="walk", r_walk_step=0.3, validate_every=1)
        samples = run_chain(d, h, cfg)
        assert samples.violations == []
        assert 0.0 <= samples.acceptance["edge"] <= 1.0
