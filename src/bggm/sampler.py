"""MCMC engine.

Systematic-scan sampler over both classes' graphical-model parameters:
joint Metropolis-Hastings updates of the coupled edge indicators and
correlation entries under the positive-definiteness constraint, log-scale
random walks on the diagonal scales, conjugate Gibbs draws for the means
and the Beta probabilities, and within-chain sampling of unknown labels.

Sweep order is fixed: all edges in lexicographic (i, j) order, then the
scale entries, the means, the Beta probabilities, and finally the unknown
labels. Everything is driven by one explicit Generator, so a chain is
fully deterministic given its seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import InputError, NumericalAbort, ValidationError
from .model import CLASS1, CLASS2, ChainState, Dataset, validate_state
from .pdcore import (
    entry_kernel,
    hadamard_correlation,
    is_positive_definite,
    mvn_logpdf_rows,
)

# Safety margin stripped from each admissible-interval endpoint before any
# value is sampled, keeping proposals away from the singular boundary.
INTERVAL_SHRINK = 1e-8

R_PROPOSAL_PRIOR = "prior"
R_PROPOSAL_WALK = "walk"


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 5000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0
    r_proposal: str = R_PROPOSAL_PRIOR
    r_walk_step: float = 0.2
    s_proposal_sd: float = 0.3
    validate_every: int = 0  # 0 disables per-sweep invariant checks

    def __post_init__(self):
        if self.iterations < 1:
            raise InputError("iterations must be positive")
        if not (0 <= self.burn_in < self.iterations):
            raise InputError("burn_in must be non-negative and below iterations")
        if not (1 <= self.thin <= self.iterations - self.burn_in):
            raise InputError("thin must be in [1, iterations - burn_in]")
        if self.r_proposal not in (R_PROPOSAL_PRIOR, R_PROPOSAL_WALK):
            raise InputError(f"unknown r_proposal {self.r_proposal!r}")
        if self.r_walk_step <= 0 or self.s_proposal_sd <= 0:
            raise InputError("proposal scales must be positive")
        if self.validate_every < 0:
            raise InputError("validate_every must be non-negative")

    @property
    def n_draws(self):
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainSamples:
    """Thinned post-burn-in draws plus acceptance statistics."""

    config: ChainConfig
    p: int
    unknown_rows: np.ndarray
    a: np.ndarray     # (M, 2, p, p) uint8
    r: np.ndarray     # (M, 2, p, p) float
    s: np.ndarray     # (M, 2, p) float
    mu: np.ndarray    # (M, 2, p) float
    lam: np.ndarray   # (M, p, p) uint8
    z_u: np.ndarray   # (M, n_u) uint8
    acceptance: dict
    counts: dict
    violations: list = field(default_factory=list)

    @property
    def n_draws(self):
        return self.a.shape[0]

    @property
    def seed(self):
        return self.config.seed


def _rng_from(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


_INIT_SHRINK = 0.5


def _shrunk_precision(y_rows, ridge=1e-6, shrink=None):
    """Empirical precision of a sample block: the covariance is blended
    toward its diagonal (base weight ``shrink``, escalated until the
    Cholesky factorization succeeds) and inverted. The shrinkage keeps
    the starting point conservative when n is small relative to p."""
    cov = np.cov(y_rows, rowvar=False)
    cov = np.atleast_2d(cov)
    scale = np.trace(cov) / cov.shape[0]
    if scale <= 0 or not np.isfinite(scale):
        scale = 1.0
    cov = cov + ridge * scale * np.eye(cov.shape[0])
    w = _INIT_SHRINK if shrink is None else shrink
    for _ in range(60):
        blended = (1.0 - w) * cov + w * np.diag(np.diag(cov))
        if is_positive_definite(blended):
            return np.linalg.inv(blended)
        w = min(1.0, max(w * 1.5, 0.1))
    return np.linalg.inv(np.diag(np.diag(cov)))


def _project_unit_correlation(r):
    """Scale off-diagonals toward zero until the matrix is PD."""
    out = r.copy()
    np.fill_diagonal(out, 1.0)
    for _ in range(60):
        if is_positive_definite(out):
            return out
        mask = ~np.eye(out.shape[0], dtype=bool)
        out[mask] *= 0.5
    out[:] = np.eye(out.shape[0])
    return out


def init_state(d: Dataset, h, seed):
    """Deterministic-by-seed initial state.

    Empty graphs, correlation-role matrices seeded from the (negated,
    shrunk) empirical partial correlations of the labeled samples per
    class, scales from the shrunk empirical precision diagonal, means at
    the class sample means, Beta probabilities at their prior means and
    unknown labels assigned to the nearest class mean.
    """
    rng = _rng_from(seed)
    p = d.p
    a = np.zeros((2, p, p), dtype=np.int8)
    a[:] = np.eye(p, dtype=np.int8)
    r = np.zeros((2, p, p))
    s = np.ones((2, p))
    mu = h.mu0.copy()

    for k, cls in enumerate((CLASS1, CLASS2)):
        rows = d.class_rows(cls)
        if d.n == 0:
            r[k] = np.eye(p)
            continue
        if len(rows) < 2:
            raise ValidationError(
                f"init needs at least 2 labeled samples in class {cls}"
            )
        prec = _shrunk_precision(d.y[rows])
        prec = 0.5 * (prec + prec.T)
        diag = np.sqrt(np.diag(prec))
        # rho_ij = -omega_ij / sqrt(omega_ii omega_jj); an active edge
        # contributes C_ij = r_ij = -rho_ij, so seed r with the negation.
        rho = -prec / np.outer(diag, diag)
        np.fill_diagonal(rho, 1.0)
        r_k = -rho
        np.fill_diagonal(r_k, 1.0)
        r[k] = _project_unit_correlation(np.clip(r_k, -0.999, 0.999))
        s[k] = diag
        mu[k] = d.y[rows].mean(axis=0)

    q = h.edge_a / (h.edge_a + h.edge_b)
    pi = h.diff_e / (h.diff_e + h.diff_f)
    lam = np.zeros((p, p), dtype=np.int8)

    unknown = d.unknown_rows
    n_u = len(unknown)
    h_prob = np.full(n_u, h.label_eta / (h.label_eta + h.label_zeta))
    if n_u:
        d1 = np.linalg.norm(d.y[unknown] - mu[0], axis=1)
        d2 = np.linalg.norm(d.y[unknown] - mu[1], axis=1)
        z_u = np.where(d1 <= d2, CLASS1, CLASS2).astype(np.int8)
    else:
        z_u = np.zeros(0, dtype=np.int8)

    return ChainState(a=a, r=r, s=s, mu=mu, q=q.copy(), lam=lam, pi=pi.copy(),
                      h=h_prob, z_u=z_u)


class _Workspace:
    """Per-chain caches: effective correlation matrices C_k = A_k o R_k,
    their log-determinants and inverses W_k = C_k^-1, current class
    assignments, sums and scatter matrices. Owned by exactly one running
    chain.

    W_k is what the edge kernel reads: by the matrix determinant lemma,
    moving entry (i, j) of C_k by delta multiplies det C_k by
    (1 + delta w_ij)^2 - delta^2 w_ii w_jj, so the admissible interval
    and the log-determinant change of a proposal cost O(1). When an
    accepted move changes C_k, ``refresh_c`` recomputes C_k, its
    Cholesky log-determinant and W_k in full."""

    def __init__(self, st, d):
        self.d = d
        self.c = np.empty((2, d.p, d.p))
        self.logdet_c = np.empty(2)
        self.w = np.empty((2, d.p, d.p))
        for k in range(2):
            self.refresh_c(st, k)
        self.z = None
        self.n_k = None
        self.ysum = None
        self.scatter = None
        self.refresh_assignments(st)
        self.refresh_scatter(st)

    def refresh_c(self, st, k):
        c = hadamard_correlation(st.a[k], st.r[k])
        chol = np.linalg.cholesky(c)
        self.c[k] = c
        self.logdet_c[k] = 2.0 * np.sum(np.log(np.diagonal(chol)))
        self.w[k] = cho_solve((chol, True), np.eye(self.d.p))

    def refresh_assignments(self, st):
        z = self.d.labels.copy()
        if len(st.z_u):
            z[self.d.unknown_rows] = st.z_u
        self.z = z
        self.n_k = np.array([int(np.sum(z == CLASS1)), int(np.sum(z == CLASS2))])
        self.ysum = np.zeros((2, self.d.p))
        for k, cls in enumerate((CLASS1, CLASS2)):
            rows = z == cls
            if rows.any():
                self.ysum[k] = self.d.y[rows].sum(axis=0)

    def refresh_scatter(self, st):
        self.scatter = np.zeros((2, self.d.p, self.d.p))
        for k, cls in enumerate((CLASS1, CLASS2)):
            rows = self.z == cls
            if rows.any():
                resid = self.d.y[rows] - st.mu[k]
                self.scatter[k] = resid.T @ resid

    def omega(self, st, k):
        return self.c[k] * np.outer(st.s[k], st.s[k])

    def logdet_omega(self, st, k):
        return 2.0 * float(np.sum(np.log(st.s[k]))) + float(self.logdet_c[k])


def update_edge(st, d, h, i, j, rng, work, counters,
                r_proposal=R_PROPOSAL_PRIOR, r_walk_step=0.2):
    """Joint update of (a1, a2, r1, r2) at edge (i, j).

    A candidate (a1*, a2*) cell is drawn with probability proportional to
    the coupled prior q1^a1 (1-q1)^(1-a1) q2^a2 (1-q2)^(1-a2)
    pi^lam (1-pi)^(1-lam), restricted to cells whose implied correlation
    matrices stay positive definite. Correlation values for active
    candidates are proposed inside the admissible interval (uniform by
    default, random walk optionally); inactive entries are refreshed from
    the interval as dormant bookkeeping. The joint move is accepted on the
    two-class Gaussian likelihood ratio alone; with prior-uniform
    proposals the prior and proposal factors cancel exactly.
    """
    if not i < j:
        raise InputError("update_edge requires i < j")
    counters["edge"][1] += 1

    c_old = (float(work.c[0, i, j]), float(work.c[1, i, j]))
    intervals = []
    for k in range(2):
        u, v, _ = entry_kernel(work.w[k], i, j, c_old[k])
        u, v = u + INTERVAL_SHRINK, v - INTERVAL_SHRINK
        if not (u < v):
            counters["edge_empty_interval"] += 1
            return st
        intervals.append((u, v))

    q1 = float(st.q[0, i, j])
    q2 = float(st.q[1, i, j])
    pi = float(st.pi[i, j])
    # Cell weights under the coupled prior; a cell proposing a_k = 0 is
    # feasible only if zeroing the entry keeps that class PD (0 inside the
    # interval). Feasibility depends only on the other entries, so the
    # mask is identical for forward and reverse moves.
    zero_ok = (intervals[0][0] < 0.0 < intervals[0][1],
               intervals[1][0] < 0.0 < intervals[1][1])
    cells = ((0, 0), (1, 0), (0, 1), (1, 1))
    feasible = []
    weights = []
    total = 0.0
    for a1c, a2c in cells:
        ok = (a1c or zero_ok[0]) and (a2c or zero_ok[1])
        wt = ((q1 if a1c else 1.0 - q1)
              * (q2 if a2c else 1.0 - q2)
              * (pi if a1c ^ a2c else 1.0 - pi)) if ok else 0.0
        feasible.append(ok)
        weights.append(wt)
        total += wt
    if total <= 0.0:
        counters["edge_empty_interval"] += 1
        return st

    # inverse-CDF draw over the four cells (Generator.choice is slow)
    target = rng.random() * total
    acc = 0.0
    cell_idx = 3
    for idx in range(4):
        acc += weights[idx]
        if target < acc:
            cell_idx = idx
            break
    a_new = cells[cell_idx]
    a_cur = (int(st.a[0, i, j]), int(st.a[1, i, j]))
    if not feasible[cells.index(a_cur)]:
        # The reverse proposal cannot reach the current cell; reject.
        return st

    r_new = [0.0, 0.0]
    walk_reject = False
    for k in range(2):
        u, v = intervals[k]
        if a_new[k] == 1 and r_proposal == R_PROPOSAL_WALK:
            # active candidates walk from the stored value; for an edge
            # coming in from a = 0 that value is the dormant bookkeeping
            # entry (seeded from the empirical partial correlations)
            cand = float(st.r[k, i, j]) + r_walk_step * rng.standard_normal()
            if not (u < cand < v):
                walk_reject = True
            r_new[k] = cand
        else:
            r_new[k] = rng.uniform(u, v)
    if walk_reject:
        return st

    delta_ll = 0.0
    changed = []
    for k in range(2):
        c_new = float(a_new[k]) * r_new[k]
        if c_new == c_old[k]:
            continue
        _, _, ratio = entry_kernel(work.w[k], i, j, c_old[k], c_new)
        if not ratio > 0.0:
            return st
        changed.append(k)
        delta_ll += 0.5 * work.n_k[k] * math.log(ratio)
        delta_ll -= (
            st.s[k, i] * st.s[k, j] * (c_new - c_old[k]) * work.scatter[k][i, j]
        )

    if not np.isfinite(delta_ll):
        return st
    if math.log(rng.random()) < delta_ll:
        for k in range(2):
            st.a[k, i, j] = st.a[k, j, i] = a_new[k]
            st.r[k, i, j] = st.r[k, j, i] = r_new[k]
        st.lam[i, j] = st.lam[j, i] = a_new[0] ^ a_new[1]
        for k in changed:
            work.refresh_c(st, k)
        counters["edge"][0] += 1
    return st


def update_s(st, d, h, i, rng, work, counters, proposal_sd=0.3):
    """Metropolis random walk on log S_i, both classes independently.

    Target is the Gaussian likelihood times the inverse-gamma(shape,
    scale) prior; the log-move Jacobian is included.
    """
    for k in range(2):
        counters["s"][1] += 1
        s_cur = float(st.s[k, i])
        t_cur = math.log(s_cur)
        t_new = t_cur + proposal_sd * rng.standard_normal()
        s_new = math.exp(t_new)

        n_k = work.n_k[k]
        scatter = work.scatter[k]
        cross = float(st.s[k] @ (work.c[k][i] * scatter[i])) \
            - s_cur * float(work.c[k][i, i] * scatter[i, i])
        quad_delta = 2.0 * (s_new - s_cur) * cross \
            + (s_new * s_new - s_cur * s_cur) * float(scatter[i, i])
        delta = n_k * (t_new - t_cur) - 0.5 * quad_delta
        delta += -(h.s_shape + 1.0) * (t_new - t_cur) \
            - h.s_scale * (1.0 / s_new - 1.0 / s_cur)
        delta += t_new - t_cur  # log-scale proposal Jacobian

        if np.isfinite(delta) and math.log(rng.random()) < delta:
            st.s[k, i] = s_new
            counters["s"][0] += 1
    return st


def update_mu(st, d, h, rng, work):
    """Gibbs draw of both class means from the conjugate normal full
    conditional N((B0 + n_k Omega)^-1 (B0 mu0 + Omega sum(y)),
    (B0 + n_k Omega)^-1); classes without members draw from the prior."""
    for k in range(2):
        n_k = work.n_k[k]
        noise = rng.standard_normal(st.p)
        if n_k == 0:
            chol = np.linalg.cholesky(h.b0[k])
            st.mu[k] = h.mu0[k] + solve_triangular(chol.T, noise, lower=False)
            continue
        omega = work.omega(st, k)
        post_prec = h.b0[k] + n_k * omega
        rhs = h.b0[k] @ h.mu0[k] + omega @ work.ysum[k]
        chol = np.linalg.cholesky(post_prec)
        mean = cho_solve((chol, True), rhs)
        st.mu[k] = mean + solve_triangular(chol.T, noise, lower=False)
    work.refresh_scatter(st)
    return st


def update_q_pi(st, h, rng):
    """Conjugate Beta Gibbs draws of the edge and differential
    probabilities from the current indicators."""
    p = st.p
    iu = np.triu_indices(p, 1)
    for k in range(2):
        a_vals = st.a[k][iu].astype(float)
        draw = rng.beta(h.edge_a[k][iu] + a_vals, h.edge_b[k][iu] + 1.0 - a_vals)
        st.q[k][iu] = draw
        st.q[k].T[iu] = draw
    lam_vals = st.lam[iu].astype(float)
    draw = rng.beta(h.diff_e[iu] + lam_vals, h.diff_f[iu] + 1.0 - lam_vals)
    st.pi[iu] = draw
    st.pi.T[iu] = draw
    return st


def update_labels(st, d, h, rng, work):
    """Sample each unknown label from its posterior odds, then refresh the
    per-sample Beta probabilities. No-op without unknown samples."""
    if len(st.z_u) == 0:
        return st
    rows = d.unknown_rows
    y_u = d.y[rows]

    log_odds = np.log(st.h) - np.log1p(-st.h)
    for k in range(2):
        omega = work.omega(st, k)
        logdet = work.logdet_omega(st, k)
        ll = mvn_logpdf_rows(y_u, st.mu[k], omega, logdet)
        log_odds += ll if k == 0 else -ll

    p1 = 1.0 / (1.0 + np.exp(np.clip(-log_odds, -700.0, 700.0)))
    z_new = np.where(rng.random(len(rows)) < p1, CLASS1, CLASS2).astype(np.int8)
    st.z_u = z_new
    st.h = rng.beta(h.label_eta + (z_new == CLASS1),
                    h.label_zeta + (z_new == CLASS2))
    work.refresh_assignments(st)
    work.refresh_scatter(st)
    return st


def _sweep(st, d, h, cfg, rng, work, counters):
    p = st.p
    for i in range(p):
        for j in range(i + 1, p):
            update_edge(st, d, h, i, j, rng, work=work, counters=counters,
                        r_proposal=cfg.r_proposal, r_walk_step=cfg.r_walk_step)
    for i in range(p):
        update_s(st, d, h, i, rng, work=work, counters=counters,
                 proposal_sd=cfg.s_proposal_sd)
    update_mu(st, d, h, rng, work=work)
    update_q_pi(st, h, rng)
    update_labels(st, d, h, rng, work=work)


def _check_finite(st, work, sweep_idx):
    if not (np.all(np.isfinite(work.logdet_c))
            and np.all(np.isfinite(st.mu))
            and np.all(np.isfinite(st.s))):
        raise NumericalAbort(
            f"non-finite chain state at sweep {sweep_idx}",
            diagnostics={"violations": validate_state(st),
                         "logdet_c": work.logdet_c.tolist()},
        )


def run_chain(d: Dataset, h, cfg: ChainConfig) -> ChainSamples:
    """Run the full sampler and return thinned post-burn-in draws.

    Fully deterministic given (dataset, hyperparameters, config): the same
    seed yields bit-identical samples.
    """
    rng = np.random.default_rng(cfg.seed)
    st = init_state(d, h, rng)
    work = _Workspace(st, d)
    counters = {
        "edge": [0, 0],
        "s": [0, 0],
        "edge_empty_interval": 0,
    }

    m = cfg.n_draws
    p = d.p
    n_u = len(d.unknown_rows)
    draws_a = np.zeros((m, 2, p, p), dtype=np.uint8)
    draws_r = np.zeros((m, 2, p, p))
    draws_s = np.zeros((m, 2, p))
    draws_mu = np.zeros((m, 2, p))
    draws_lam = np.zeros((m, p, p), dtype=np.uint8)
    draws_z = np.zeros((m, n_u), dtype=np.uint8)
    violations = []

    out = 0
    for it in range(cfg.iterations):
        _sweep(st, d, h, cfg, rng, work, counters)
        _check_finite(st, work, it)
        if cfg.validate_every and (it + 1) % cfg.validate_every == 0:
            for msg in validate_state(st):
                violations.append((it, msg))
        if it >= cfg.burn_in and (it - cfg.burn_in + 1) % cfg.thin == 0:
            draws_a[out] = st.a
            draws_r[out] = st.r
            draws_s[out] = st.s
            draws_mu[out] = st.mu
            draws_lam[out] = st.lam
            draws_z[out] = st.z_u
            out += 1

    acceptance = {}
    counts = {"edge_empty_interval": counters["edge_empty_interval"]}
    for family in ("edge", "s"):
        accepted, proposed = counters[family]
        counts[f"{family}_proposed"] = proposed
        counts[f"{family}_accepted"] = accepted
        acceptance[family] = accepted / proposed if proposed else 0.0

    return ChainSamples(
        config=cfg, p=p, unknown_rows=d.unknown_rows.copy(),
        a=draws_a[:out], r=draws_r[:out], s=draws_s[:out], mu=draws_mu[:out],
        lam=draws_lam[:out], z_u=draws_z[:out],
        acceptance=acceptance, counts=counts, violations=violations,
    )
