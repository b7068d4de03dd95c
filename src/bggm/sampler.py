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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalAbort, ValidationError
from .model import CLASS1, CLASS2, ChainState, Dataset, validate_state
from .pdcore import hadamard_correlation, is_positive_definite, mvn_logpdf_rows

# Safety margin stripped from each admissible-interval endpoint before any
# value is sampled, keeping proposals away from the singular boundary.
INTERVAL_SHRINK = 1e-8

# An accepted edge move whose determinant ratio lies outside
# [RANK2_MIN_RATIO, 1 / RANK2_MIN_RATIO] refactors C_k in full instead of
# updating W_k by rank 2. A small ratio divides the round-off already in
# W_k by the ratio; a large one cancels most of a large W_k, leaving that
# round-off on a much smaller result.
RANK2_MIN_RATIO = 0.1

R_PROPOSAL_PRIOR = "prior"
R_PROPOSAL_WALK = "walk"


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 5000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0
    # walk proposals lack the proposal-density term in their acceptance
    # ratio, so a walk chain does not keep the target posterior
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
        for name in ("r_walk_step", "s_proposal_sd"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(f"{name} must be finite and positive, got {value}")
        if self.validate_every < 0:
            raise InputError("validate_every must be non-negative")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")

    @property
    def n_draws(self):
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainSamples:
    """Thinned post-burn-in draws plus the chain's counters
    (``new_counters``) and invariant violations."""

    config: ChainConfig
    unknown_rows: np.ndarray
    a: np.ndarray     # (M, 2, p, p) uint8
    r: np.ndarray     # (M, 2, p, p) float
    s: np.ndarray     # (M, 2, p) float
    mu: np.ndarray    # (M, 2, p) float
    z_u: np.ndarray   # (M, n_u) uint8
    counts: dict
    violations: list = field(default_factory=list)

    @property
    def n_draws(self):
        return self.a.shape[0]

    @property
    def lam(self):
        """(M, p, p) uint8 differential indicators, a1 XOR a2 per draw."""
        return (self.a[:, 0] != self.a[:, 1]).astype(np.uint8)

    @property
    def acceptance(self):
        """Accepted over proposed moves per family, 0 when none was proposed."""
        c = self.counts
        return {fam: c[f"{fam}_accepted"] / max(c[f"{fam}_proposed"], 1)
                for fam in ("edge", "s")}


_INIT_SHRINK = 0.5


def _shrunk_precision(y_rows):
    """Empirical precision of a sample block: a ridge of 1e-6 times the
    mean variance is added, the covariance is blended toward its diagonal
    (base weight ``_INIT_SHRINK``, escalated until the Cholesky
    factorization succeeds) and inverted. The shrinkage keeps the
    starting point conservative when n is small relative to p."""
    cov = np.cov(y_rows, rowvar=False)
    cov = np.atleast_2d(cov)
    scale = np.trace(cov) / cov.shape[0]
    if scale <= 0 or not np.isfinite(scale):
        scale = 1.0
    cov = cov + 1e-6 * scale * np.eye(cov.shape[0])
    w = _INIT_SHRINK
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


def init_state(d: Dataset, h):
    """Deterministic initial state; it draws no random numbers.

    Empty graphs, correlation-role matrices seeded from the (negated,
    shrunk) empirical partial correlations of the labeled samples per
    class, scales from the shrunk empirical precision diagonal, means at
    the class sample means, Beta probabilities at their prior means and
    unknown labels assigned to the nearest class mean.
    """
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
        block = d.y[rows]
        constant = [d.names[c] for c in np.flatnonzero(np.ptp(block, axis=0) == 0)]
        if constant:
            raise ValidationError(
                f"constant column(s) {constant} in class {cls}'s labeled samples")
        prec = _shrunk_precision(block)
        prec = 0.5 * (prec + prec.T)
        diag = np.sqrt(np.diag(prec))
        # rho_ij = -omega_ij / sqrt(omega_ii omega_jj); an active edge
        # contributes C_ij = r_ij = -rho_ij, so seed r with the negation.
        r_k = prec / np.outer(diag, diag)
        np.fill_diagonal(r_k, 1.0)
        r[k] = _project_unit_correlation(np.clip(r_k, -0.999, 0.999))
        s[k] = diag
        mu[k] = block.mean(axis=0)

    q = h.edge_a / (h.edge_a + h.edge_b)
    pi = h.diff_e / (h.diff_e + h.diff_f)

    unknown = d.unknown_rows
    n_u = len(unknown)
    h_prob = np.full(n_u, h.label_eta / (h.label_eta + h.label_zeta))
    if n_u:
        d1 = np.linalg.norm(d.y[unknown] - mu[0], axis=1)
        d2 = np.linalg.norm(d.y[unknown] - mu[1], axis=1)
        z_u = np.where(d1 <= d2, CLASS1, CLASS2).astype(np.int8)
    else:
        z_u = np.zeros(0, dtype=np.int8)

    return ChainState(a=a, r=r, s=s, mu=mu, q=q.copy(), pi=pi.copy(),
                      h=h_prob, z_u=z_u)


class _Workspace:
    """Per-chain caches: effective correlation matrices C_k = A_k o R_k,
    their log-determinants and inverses W_k = C_k^-1, current class
    assignments with each class's block of rows, sums and scatter
    matrices. Owned by exactly one running chain.

    W_k is what the edge kernel reads: by the matrix determinant lemma,
    moving entry (i, j) of C_k by delta multiplies det C_k by
    (1 + delta w_ij)^2 - delta^2 w_ii w_jj, so the admissible interval
    and the log-determinant change of a proposal cost O(1).
    ``update_edge`` evaluates that kernel inline from three entries of W_k
    per class; ``tests/oracles.py`` keeps it as the functions
    ``entry_kernel`` and ``det_ratio``, the reference the inline form is
    tested against. An accepted move updates C_k, its log-determinant and
    W_k in O(p^2) through ``move_entry``; ``refresh_c`` recomputes all
    three from a Cholesky factor in O(p^3), and ``reanchor`` does so for
    both classes once per sweep so that round-off in W_k cannot
    accumulate. A refactor takes W_k = L^-T L^-1 from the lower Cholesky
    factor L of C_k (see ``_factor``).

    The scatter matrices depend on the means and the assignments.
    ``update_mu`` and ``update_labels`` change those and leave the
    scatter stale; ``_sweep`` refreshes it once, after the last of them,
    before anything reads it again."""

    def __init__(self, st, d):
        self.d = d
        self.eye = np.eye(d.p)
        self.unknown_rows = d.unknown_rows
        self.c = np.empty((2, d.p, d.p))
        self.logdet_c = np.empty(2)
        self.w = np.empty((2, d.p, d.p))
        for k in range(2):
            self.refresh_c(st, k)
        self.blocks = None
        self.n_k = None
        self.ysum = None
        self.scatter = np.empty((2, d.p, d.p))
        self.refresh_assignments(st)
        self.refresh_scatter(st)

    def _factor(self, k, c, chol):
        """Store C_k = ``c`` with its log-determinant and inverse from its
        lower Cholesky factor L = ``chol``: log det C_k is twice the sum of
        log diag L, and W_k = L^-T L^-1. ``k`` is a class index, or
        ``...`` with both classes stacked in ``c`` and ``chol``.

        W_k comes from the factor the log-determinant needs anyway, not
        from an LU inverse of C_k: the rank-2 updates carry W_k's round-off
        into every later determinant ratio and log-determinant, and from
        an LU inverse the p=40 rank-2 workspace test misses its 1e-9
        log-determinant tolerance. L^-T L^-1 is also exactly symmetric.
        numpy has no triangular solver, so L^-1 is numpy's general
        inverse of L."""
        self.c[k] = c
        self.logdet_c[k] = 2.0 * np.sum(
            np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        inv_chol = np.linalg.inv(chol)
        self.w[k] = np.swapaxes(inv_chol, -1, -2) @ inv_chol

    def refresh_c(self, st, k):
        c = hadamard_correlation(st.a[k], st.r[k])
        self._factor(k, c, np.linalg.cholesky(c))

    def move_entry(self, k, i, j, x, ratio):
        """Set C_k[i, j] = C_k[j, i] = ``x``, where ``ratio`` is the
        determinant ratio of the move (as ``update_edge`` computes it),
        and update W_k by Sherman-Morrison-Woodbury: with delta the
        change of the entry and X = W_k[:, (i, j)],

            W_k <- W_k - X K X',  K = (delta / ratio)
                  [[-delta w_jj, 1 + delta w_ij], [1 + delta w_ij, -delta w_ii]],

        in O(p^2). ``update_edge`` calls it only for ratios in
        [RANK2_MIN_RATIO, 1 / RANK2_MIN_RATIO]."""
        delta = x - self.c.item(k, i, j)
        cols = self.w[k][:, (i, j)]
        scale = delta / ratio
        cross = scale * (1.0 + delta * cols.item(i, 1))
        gain = np.array([[-scale * delta * cols.item(j, 1), cross],
                         [cross, -scale * delta * cols.item(i, 0)]])
        self.w[k] -= cols @ gain @ cols.T
        self.c[k, i, j] = self.c[k, j, i] = x
        self.logdet_c[k] += math.log(ratio)

    def reanchor(self, st):
        """Refactor both classes from a Cholesky factor and return the
        largest max|W_k C_k - I| found beforehand: the drift the rank-2
        updates since the last refactor left in W_k."""
        drift = float(np.max(np.abs(self.w @ self.c - self.eye)))
        c = st.a * st.r
        diag = np.arange(self.d.p)
        c[:, diag, diag] = 1.0
        self._factor(..., c, np.linalg.cholesky(c))
        return drift

    def refresh_assignments(self, st):
        """Class assignments of the rows (unknown rows take z_u), each
        class's block of rows, its size and its column sums."""
        z = self.d.labels.copy()
        if len(st.z_u):
            z[self.unknown_rows] = st.z_u
        self.blocks = (self.d.y[z == CLASS1], self.d.y[z == CLASS2])
        self.n_k = (len(self.blocks[0]), len(self.blocks[1]))
        self.ysum = np.array([block.sum(axis=0) for block in self.blocks])

    def refresh_scatter(self, st):
        for k, block in enumerate(self.blocks):
            resid = block - st.mu[k]
            self.scatter[k] = resid.T @ resid

    def omega(self, st, k):
        return self.c[k] * np.outer(st.s[k], st.s[k])

    def logdet_omega(self, st, k):
        return 2.0 * float(np.sum(np.log(st.s[k]))) + float(self.logdet_c[k])


def update_edge(st, i, j, rng, uniform, work, counters, r_proposal,
                r_walk_step):
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

    The kernel is evaluated inline on Python floats, class 1 and class 2
    written out in turn: by the matrix determinant lemma, moving entry
    (i, j) of C_k by delta multiplies det C_k by

        (1 + delta w_ij)^2 - delta^2 w_ii w_jj = (1 - delta up) (1 + delta down),

    with W_k = C_k^-1, up = sqrt(w_ii w_jj) - w_ij and down = sqrt(w_ii
    w_jj) + w_ij. Its roots x + 1 / up and x - 1 / down around the current
    entry x bound the values that keep C_k positive definite.

    Every uniform comes from ``uniform()``, at most 4 per call (the cell,
    r1, r2 and the accept draw); ``rng`` gives only the walk's normals.
    With prior proposals ``_sweep`` passes the ``pop`` of a list drawn
    for the whole edge loop, with walk proposals ``rng.random`` itself.
    """
    if not i < j:
        raise InputError("update_edge requires i < j")
    counters["edge_proposed"] += 1

    c = work.c.item
    w = work.w.item
    old1 = c(0, i, j)
    w_ij = w(0, i, j)
    root = math.sqrt(w(0, i, i) * w(0, j, j))
    up1 = root - w_ij
    down1 = root + w_ij
    u1 = old1 - 1.0 / down1
    if u1 < -1.0:
        u1 = -1.0
    v1 = old1 + 1.0 / up1
    if v1 > 1.0:
        v1 = 1.0
    u1 += INTERVAL_SHRINK
    v1 -= INTERVAL_SHRINK
    if not u1 < v1:
        counters["edge_empty_interval"] += 1
        return st
    old2 = c(1, i, j)
    w_ij = w(1, i, j)
    root = math.sqrt(w(1, i, i) * w(1, j, j))
    up2 = root - w_ij
    down2 = root + w_ij
    u2 = old2 - 1.0 / down2
    if u2 < -1.0:
        u2 = -1.0
    v2 = old2 + 1.0 / up2
    if v2 > 1.0:
        v2 = 1.0
    u2 += INTERVAL_SHRINK
    v2 -= INTERVAL_SHRINK
    if not u2 < v2:
        counters["edge_empty_interval"] += 1
        return st

    q1 = st.q.item(0, i, j)
    q2 = st.q.item(1, i, j)
    pi = st.pi.item(i, j)
    # Cell weights under the coupled prior; a cell proposing a_k = 0 is
    # feasible only if zeroing the entry keeps that class PD (0 inside the
    # interval). Feasibility depends only on the other entries, so the
    # mask is identical for forward and reverse moves.
    zero_ok1 = u1 < 0.0 < v1
    zero_ok2 = u2 < 0.0 < v2
    w00 = (1.0 - q1) * (1.0 - q2) * (1.0 - pi) if zero_ok1 and zero_ok2 else 0.0
    w10 = q1 * (1.0 - q2) * pi if zero_ok2 else 0.0
    w01 = (1.0 - q1) * q2 * pi if zero_ok1 else 0.0
    w11 = q1 * q2 * (1.0 - pi)
    total = w00 + w10 + w01 + w11
    if total <= 0.0:
        counters["edge_empty_interval"] += 1
        return st

    # inverse-CDF draw over the cells in the order (0, 0), (1, 0), (0, 1),
    # (1, 1) (Generator.choice is slow)
    target = uniform() * total
    if target < w00:
        a1, a2 = 0, 0
    elif target < w00 + w10:
        a1, a2 = 1, 0
    elif target < w00 + w10 + w01:
        a1, a2 = 0, 1
    else:
        a1, a2 = 1, 1
    if not ((st.a.item(0, i, j) or zero_ok1) and (st.a.item(1, i, j) or zero_ok2)):
        # The reverse proposal cannot reach the current cell; reject.
        return st

    # active candidates walk from the stored value; for an edge coming in
    # from a = 0 that value is the dormant bookkeeping entry (seeded from
    # the empirical partial correlations). u + (v - u) * uniform() is the
    # draw rng.uniform(u, v) makes, at a third of its call cost.
    walk = r_proposal == R_PROPOSAL_WALK
    walk_reject = False
    if a1 and walk:
        r1 = st.r.item(0, i, j) + r_walk_step * rng.standard_normal()
        walk_reject = not u1 < r1 < v1
    else:
        r1 = u1 + (v1 - u1) * uniform()
    if a2 and walk:
        r2 = st.r.item(1, i, j) + r_walk_step * rng.standard_normal()
        walk_reject = walk_reject or not u2 < r2 < v2
    else:
        r2 = u2 + (v2 - u2) * uniform()
    if walk_reject:
        return st

    # a ratio of 0.0 marks a class whose entry does not change; a changed
    # entry's ratio is positive
    delta_ll = 0.0
    new1 = a1 * r1
    ratio1 = 0.0
    if new1 != old1:
        delta = new1 - old1
        ratio1 = (1.0 - delta * up1) * (1.0 + delta * down1)
        if not ratio1 > 0.0:
            return st
        delta_ll += 0.5 * work.n_k[0] * math.log(ratio1)
        delta_ll -= (st.s.item(0, i) * st.s.item(0, j) * delta
                     * work.scatter.item(0, i, j))
    new2 = a2 * r2
    ratio2 = 0.0
    if new2 != old2:
        delta = new2 - old2
        ratio2 = (1.0 - delta * up2) * (1.0 + delta * down2)
        if not ratio2 > 0.0:
            return st
        delta_ll += 0.5 * work.n_k[1] * math.log(ratio2)
        delta_ll -= (st.s.item(1, i) * st.s.item(1, j) * delta
                     * work.scatter.item(1, i, j))

    if not math.isfinite(delta_ll):
        return st
    # a zero uniform has log -inf, below any finite log-ratio
    u = uniform()
    if u == 0.0 or math.log(u) < delta_ll:
        st.a[0, i, j] = st.a[0, j, i] = a1
        st.r[0, i, j] = st.r[0, j, i] = r1
        st.a[1, i, j] = st.a[1, j, i] = a2
        st.r[1, i, j] = st.r[1, j, i] = r2
        if ratio1:
            if not RANK2_MIN_RATIO <= ratio1 <= 1.0 / RANK2_MIN_RATIO:
                work.refresh_c(st, 0)
                counters["w_refactor_forced"] += 1
            else:
                work.move_entry(0, i, j, new1, ratio1)
        if ratio2:
            if not RANK2_MIN_RATIO <= ratio2 <= 1.0 / RANK2_MIN_RATIO:
                work.refresh_c(st, 1)
                counters["w_refactor_forced"] += 1
            else:
                work.move_entry(1, i, j, new2, ratio2)
        counters["edge_accepted"] += 1
    return st


def update_s(st, h, i, rng, work, counters, proposal_sd):
    """Metropolis random walk on log S_i, both classes independently.

    Target is the Gaussian likelihood times the inverse-gamma(shape,
    scale) prior; the log-move Jacobian is included.
    """
    for k in range(2):
        counters["s_proposed"] += 1
        s_cur = st.s.item(k, i)
        t_cur = math.log(s_cur)
        t_new = t_cur + proposal_sd * rng.standard_normal()
        s_new = math.exp(t_new)

        n_k = work.n_k[k]
        scatter_ii = work.scatter.item(k, i, i)
        cross = float(st.s[k] @ (work.c[k, i] * work.scatter[k, i])) \
            - s_cur * (work.c.item(k, i, i) * scatter_ii)
        quad_delta = 2.0 * (s_new - s_cur) * cross \
            + (s_new * s_new - s_cur * s_cur) * scatter_ii
        delta = n_k * (t_new - t_cur) - 0.5 * quad_delta
        delta += -(h.s_shape + 1.0) * (t_new - t_cur) \
            - h.s_scale * (1.0 / s_new - 1.0 / s_cur)
        delta += t_new - t_cur  # log-scale proposal Jacobian

        if not math.isfinite(delta):
            continue
        # a zero uniform has log -inf, below any finite log-ratio
        u = rng.random()
        if u == 0.0 or math.log(u) < delta:
            st.s[k, i] = s_new
            counters["s_accepted"] += 1
    return st


def update_mu(st, h, rng, work):
    """Gibbs draw of both class means from the conjugate normal full
    conditional N(P_k^-1 (B0 mu0 + Omega sum(y)), P_k^-1), where
    P_k = B0 + n_k Omega; a class without members (n_k = 0) draws from
    the prior N(mu0, B0^-1) by the same formula. The scatter matrices
    go stale; ``_sweep`` refreshes them.

    Both classes are stacked: with L_k the lower Cholesky factor of P_k
    and z_k standard normal, mu_k = L_k^-T (L_k^-1 rhs_k + z_k), that is
    the mean L_k^-T L_k^-1 rhs_k plus the noise L_k^-T z_k. numpy has no
    triangular solver, so L_k^-1 is numpy's general inverse of L_k."""
    n_k = np.array(work.n_k, dtype=float)[:, None, None]
    omega = work.c * (st.s[:, :, None] * st.s[:, None, :])
    rhs = h.b0 @ h.mu0[:, :, None] + omega @ work.ysum[:, :, None]
    inv_chol = np.linalg.inv(np.linalg.cholesky(h.b0 + n_k * omega))
    shifted = inv_chol @ rhs + rng.standard_normal((2, st.p))[:, :, None]
    st.mu[:] = (np.swapaxes(inv_chol, 1, 2) @ shifted)[:, :, 0]
    return st


@functools.cache
def _upper(p):
    """Row and column indices of the strict upper triangle of a p x p
    matrix; ``np.triu_indices`` costs as much as the draws that use it.
    Every caller gets the same arrays, so none may write to them."""
    return np.triu_indices(p, 1)


def update_q_pi(st, h, rng):
    """Conjugate Beta Gibbs draws of the edge and differential
    probabilities from the current indicators. One ``beta`` call draws
    class 1's edge probabilities, class 2's and then the differential
    ones, entry by entry in that order."""
    rows, cols = _upper(st.p)
    a_vals = st.a[:, rows, cols].astype(float)
    lam_vals = (a_vals[0] != a_vals[1]).astype(float)
    draw = rng.beta(
        np.vstack([h.edge_a[:, rows, cols] + a_vals, h.diff_e[rows, cols] + lam_vals]),
        np.vstack([h.edge_b[:, rows, cols] + 1.0 - a_vals,
                   h.diff_f[rows, cols] + 1.0 - lam_vals]))
    st.q[:, rows, cols] = st.q[:, cols, rows] = draw[:2]
    st.pi[rows, cols] = st.pi[cols, rows] = draw[2]
    return st


def update_labels(st, d, h, rng, work):
    """Sample each unknown label from its posterior odds, then refresh the
    per-sample Beta probabilities and the class assignments. The scatter
    matrices go stale; ``_sweep`` refreshes them. No-op without unknown
    samples."""
    if len(st.z_u) == 0:
        return st
    rows = work.unknown_rows
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
    return st


def new_counters():
    """The counters ``run_chain`` threads through every sweep and reports
    as ``counts``: proposed and accepted moves per family, edge proposals
    rejected for an empty interval, accepted edge moves that refactored
    C_k in full instead of the rank-2 update, and the largest W_k drift
    seen at a re-anchor."""
    return {
        "edge_proposed": 0,
        "edge_accepted": 0,
        "s_proposed": 0,
        "s_accepted": 0,
        "edge_empty_interval": 0,
        "w_refactor_forced": 0,
        "w_drift_max": 0.0,
    }


def _sweep(st, d, h, cfg, rng, work, counters):
    p = st.p
    r_proposal = cfg.r_proposal
    r_walk_step = cfg.r_walk_step
    buffered = r_proposal != R_PROPOSAL_WALK
    if buffered:
        # Prior proposals draw only uniforms in the edge loop, at most 4
        # per edge, so draw them all in one call and then rewind the
        # generator to just past the ones taken. With PCG64, random(n)
        # yields the doubles of n scalar calls and advance(k) moves the
        # state as k of them would, so the stream is the same as with
        # scalar draws. (The rewind would drop a buffered 32-bit half
        # word; the chain makes no 32-bit draws.)
        saved = rng.bit_generator.state
        drawn = 2 * p * (p - 1)
        buffer = rng.random(drawn)[::-1].tolist()
        uniform = buffer.pop
    else:
        # walk proposals interleave normals with the uniforms
        uniform = rng.random
    for i in range(p):
        for j in range(i + 1, p):
            update_edge(st, i, j, rng, uniform, work, counters, r_proposal,
                        r_walk_step)
    if buffered:
        rng.bit_generator.state = saved
        rng.bit_generator.advance(drawn - len(buffer))
    drift = work.reanchor(st)
    if drift > counters["w_drift_max"]:
        counters["w_drift_max"] = drift
    s_proposal_sd = cfg.s_proposal_sd
    for i in range(p):
        update_s(st, h, i, rng, work, counters, s_proposal_sd)
    update_mu(st, h, rng, work)
    update_q_pi(st, h, rng)
    update_labels(st, d, h, rng, work)
    # the one scatter refresh of the sweep, after the means and the
    # assignments have both moved
    work.refresh_scatter(st)


def _check_finite(st, work, sweep_idx):
    if not (np.isfinite(work.logdet_c).all()
            and np.isfinite(st.mu).all()
            and np.isfinite(st.s).all()):
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
    st = init_state(d, h)
    work = _Workspace(st, d)
    counters = new_counters()

    m = cfg.n_draws
    p = d.p
    n_u = len(d.unknown_rows)
    draws_a = np.zeros((m, 2, p, p), dtype=np.uint8)
    draws_r = np.zeros((m, 2, p, p))
    draws_s = np.zeros((m, 2, p))
    draws_mu = np.zeros((m, 2, p))
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
            draws_z[out] = st.z_u
            out += 1

    return ChainSamples(
        config=cfg, unknown_rows=d.unknown_rows.copy(),
        a=draws_a[:out], r=draws_r[:out], s=draws_s[:out], mu=draws_mu[:out],
        z_u=draws_z[:out],
        counts=counters, violations=violations,
    )
