"""Reference implementations the tests check production code against.

Precision assembly from (s, A, R) factors, partial correlations, the
single-row multivariate normal log-density and the admissible interval
of one correlation entry. The sampler works on cached correlation
matrices, their inverses and row-wise densities instead; these direct
forms serve as oracles for that math and for the synthetic truth.
``entry_kernel`` and ``det_ratio`` are the closed-form edge kernel as
functions, and ``update_edge_reference`` is the edge update written on
them, which the sampler's inline ``update_edge`` must match draw for
draw; ``sweep_reference`` is the sweep with one generator call per
edge-loop uniform, which the buffered ``_sweep`` must match.
``factor_reference`` and ``mu_draw_reference`` are the workspace
factorisation and the mean draw through scipy's LAPACK Cholesky solves,
which the sampler's numpy-only forms must match to round-off.
``validate_state_reference`` checks the chain-state invariants one class
at a time, the form the stacked ``model.validate_state`` must match.
``GaussianNBReference`` scores the naive Bayes rule with scipy's normal
log-density, ``score_recovery`` scores a fit against the generating
truth, and ``read_network_dot`` parses the DOT files the program writes.
"""

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.stats import norm

from bggm import sampler
from bggm.baselines import _log_priors, _split_by_class
from bggm.errors import InputError
from bggm.inference import (
    NET_CLASS1,
    NET_CLASS2,
    NET_CONSERVED,
    NET_DIFFERENTIAL,
    NetworkCall,
    PosteriorSummary,
)
from bggm.model import CLASS1, CLASS2, Dataset
from bggm.pdcore import (
    PD_PIVOT_TOL,
    _check_square_symmetric,
    hadamard_correlation,
    is_positive_definite,
)
from bggm.sampler import (
    INTERVAL_SHRINK,
    R_PROPOSAL_WALK,
    RANK2_MIN_RATIO,
)


class PreconditionError(ValueError):
    """An oracle was called on a value that fails its mathematical
    precondition (e.g. a matrix that must be positive definite is not)."""


def empty_dataset(p):
    """Dataset with no rows, used to sample from the prior."""
    names = tuple(f"V{i + 1}" for i in range(p))
    return Dataset(np.zeros((0, p)), np.zeros(0, dtype=int), names)


def entry_kernel(w, i, j, x0):
    """Closed-form effect of changing one entry pair of a PD correlation
    matrix C, given its inverse ``w`` = C^-1.

    Moving c[i, j] (and c[j, i]) from its current value ``x0`` by delta
    multiplies det C by (matrix determinant lemma)

        f(delta) = (1 + delta w_ij)^2 - delta^2 w_ii w_jj
                 = (1 - delta up_gap) (1 + delta down_gap),

    with up_gap = sqrt(w_ii w_jj) - w_ij and down_gap = sqrt(w_ii w_jj)
    + w_ij, a downward quadratic with f(0) = 1. Its roots x0 + 1 / up_gap
    and x0 - 1 / down_gap bound the values that keep C positive definite.

    Reads the three entries of ``w`` once and returns ``(lower, upper,
    up_gap, down_gap)``: that interval clipped to [-1, 1], and the two
    factors ``det_ratio`` takes.
    """
    w_ij = w.item(i, j)
    root = math.sqrt(w.item(i, i) * w.item(j, j))
    up_gap = root - w_ij
    down_gap = root + w_ij
    lower = max(x0 - 1.0 / down_gap, -1.0)
    upper = min(x0 + 1.0 / up_gap, 1.0)
    return lower, upper, up_gap, down_gap


def det_ratio(up_gap, down_gap, delta):
    """f(delta) of ``entry_kernel``: the factor by which moving the entry
    by ``delta`` multiplies det C. Not positive outside the interval."""
    return (1.0 - delta * up_gap) * (1.0 + delta * down_gap)


def update_edge_reference(st, i, j, rng, uniform, work, counters, r_proposal,
                          r_walk_step):
    """``bggm.sampler.update_edge`` written on ``entry_kernel`` and
    ``det_ratio``, with per-class lists in place of its straight-line
    code. It makes the same float operations and takes the same uniforms
    and normals in the same order, so a chain run with either is
    bit-identical."""
    if not i < j:
        raise InputError("update_edge requires i < j")
    counters["edge_proposed"] += 1

    c_old = (work.c.item(0, i, j), work.c.item(1, i, j))
    intervals = []
    gaps = []
    for k in range(2):
        u, v, up_gap, down_gap = entry_kernel(work.w[k], i, j, c_old[k])
        u, v = u + INTERVAL_SHRINK, v - INTERVAL_SHRINK
        if not (u < v):
            counters["edge_empty_interval"] += 1
            return st
        intervals.append((u, v))
        gaps.append((up_gap, down_gap))

    q1 = st.q.item(0, i, j)
    q2 = st.q.item(1, i, j)
    pi = st.pi.item(i, j)
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

    target = uniform() * total
    acc = 0.0
    cell_idx = 3
    for idx in range(4):
        acc += weights[idx]
        if target < acc:
            cell_idx = idx
            break
    a_new = cells[cell_idx]
    a_cur = (st.a.item(0, i, j), st.a.item(1, i, j))
    if not feasible[cells.index(a_cur)]:
        return st

    r_new = [0.0, 0.0]
    walk_reject = False
    for k in range(2):
        u, v = intervals[k]
        if a_new[k] == 1 and r_proposal == R_PROPOSAL_WALK:
            cand = st.r.item(k, i, j) + r_walk_step * rng.standard_normal()
            if not (u < cand < v):
                walk_reject = True
            r_new[k] = cand
        else:
            r_new[k] = u + (v - u) * uniform()
    if walk_reject:
        return st

    delta_ll = 0.0
    changed = []
    for k in range(2):
        c_new = float(a_new[k]) * r_new[k]
        if c_new == c_old[k]:
            continue
        delta = c_new - c_old[k]
        ratio = det_ratio(gaps[k][0], gaps[k][1], delta)
        if not ratio > 0.0:
            return st
        changed.append((k, c_new, ratio))
        delta_ll += 0.5 * work.n_k[k] * math.log(ratio)
        delta_ll -= (st.s.item(k, i) * st.s.item(k, j) * delta
                     * work.scatter.item(k, i, j))

    if not math.isfinite(delta_ll):
        return st
    u = uniform()
    if u == 0.0 or math.log(u) < delta_ll:
        for k in range(2):
            st.a[k, i, j] = st.a[k, j, i] = a_new[k]
            st.r[k, i, j] = st.r[k, j, i] = r_new[k]
        for k, c_new, ratio in changed:
            if not RANK2_MIN_RATIO <= ratio <= 1.0 / RANK2_MIN_RATIO:
                work.refresh_c(st, k)
                counters["w_refactor_forced"] += 1
            else:
                work.move_entry(k, i, j, c_new, ratio)
        counters["edge_accepted"] += 1
    return st


def sweep_reference(st, d, h, cfg, rng, work, counters):
    """``bggm.sampler._sweep`` with every edge-loop uniform drawn by its
    own ``rng.random()`` call, in both proposal modes. The production
    sweep draws the prior-proposal uniforms in one call and rewinds the
    generator to just past the ones taken; a chain run with either sweep
    is bit-identical."""
    p = st.p
    for i in range(p):
        for j in range(i + 1, p):
            sampler.update_edge(st, i, j, rng, rng.random, work, counters,
                                cfg.r_proposal, cfg.r_walk_step)
    drift = work.reanchor(st)
    if drift > counters["w_drift_max"]:
        counters["w_drift_max"] = drift
    for i in range(p):
        sampler.update_s(st, h, i, rng, work, counters, cfg.s_proposal_sd)
    sampler.update_mu(st, h, rng, work)
    sampler.update_q_pi(st, h, rng)
    sampler.update_labels(st, d, h, rng, work)
    work.refresh_scatter(st)


def factor_reference(c):
    """Log-determinant and inverse of the PD matrix ``c`` from its lower
    Cholesky factor, the inverse by LAPACK's Cholesky solve ``dpotrs``
    against the identity."""
    chol = np.linalg.cholesky(c)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol)))
    return logdet, dpotrs(chol, np.eye(len(c)), lower=1)[0]


def mu_draw_reference(st, h, work, z):
    """Both classes' mean draws split into the conditional mean and the
    noise, one class at a time through LAPACK's triangular solves, given
    the standard normals ``z`` (2, p): with L the lower Cholesky factor
    of the posterior precision P = B0 + n_k Omega, the mean is
    P^-1 (B0 mu0 + Omega sum(y)) by ``dpotrs`` and the noise L^-T z by
    ``dtrtrs``. A class without members takes mu0 as its mean and the
    factor of B0. Returns the (2, p) means, the (2, p) noises and the
    (2, p, p) posterior precisions."""
    means, noises, precs = [], [], []
    for k in range(2):
        n_k = work.n_k[k]
        if n_k == 0:
            prec = h.b0[k]
            chol = np.linalg.cholesky(prec)
            mean = h.mu0[k]
        else:
            omega = work.omega(st, k)
            prec = h.b0[k] + n_k * omega
            chol = np.linalg.cholesky(prec)
            rhs = h.b0[k] @ h.mu0[k] + omega @ work.ysum[k]
            mean = dpotrs(chol, rhs, lower=1)[0]
        means.append(mean)
        noises.append(dtrtrs(chol.T, z[k], lower=0)[0])
        precs.append(prec)
    return np.array(means), np.array(noises), np.array(precs)


def validate_state_reference(st):
    """``model.validate_state`` written as one loop over the classes, with
    ``is_positive_definite`` on each effective correlation matrix; it
    raises InputError where that matrix is non-finite or asymmetric."""
    bad = []
    for k in range(2):
        a_k = st.a[k]
        r_k = st.r[k]
        if not np.array_equal(a_k, a_k.T) or not np.all((a_k == 0) | (a_k == 1)):
            bad.append(f"A: class {k + 1} selection matrix not symmetric binary")
        if not np.all(np.diag(a_k) == 1):
            bad.append(f"A-diag: class {k + 1} selection diagonal not all 1")
        if not np.array_equal(r_k, r_k.T):
            bad.append(f"R: class {k + 1} correlation matrix not symmetric")
        if not np.all(np.diag(r_k) == 1.0):
            bad.append(f"R-diag: class {k + 1} correlation diagonal not all 1")
        if np.any(np.abs(r_k) > 1.0):
            bad.append(f"R-range: class {k + 1} entries outside [-1, 1]")
        if not np.all(st.s[k] > 0):
            bad.append(f"S: class {k + 1} scales not strictly positive")
        if not np.all((st.q[k] > 0) & (st.q[k] < 1)):
            bad.append(f"q: class {k + 1} edge probabilities outside (0, 1)")
        if not is_positive_definite(hadamard_correlation(a_k, r_k)):
            bad.append(f"PD: class {k + 1} effective correlation not positive definite")
    if not np.all((st.pi > 0) & (st.pi < 1)):
        bad.append("pi: differential probabilities outside (0, 1)")
    if st.h.shape != st.z_u.shape:
        bad.append("labels: h and z_u length mismatch")
    if not np.all((st.h > 0) & (st.h < 1)):
        bad.append("h: unknown-label probabilities outside (0, 1)")
    if not np.all(np.isin(st.z_u, [CLASS1, CLASS2])):
        bad.append("z_u: sampled labels must be 1 or 2")
    if not np.all(np.isfinite(st.mu)):
        bad.append("mu: non-finite entries")
    return bad


def admissible_interval(c, i, j):
    """Open interval of values for entry (i, j) of ``c`` preserving PD.

    Returns the maximal open interval (u, v) within (-1, 1) such that
    replacing c[i, j] (and c[j, i]) by any x in (u, v) keeps the matrix
    positive definite: the root pair of the determinant-lemma quadratic
    of ``entry_kernel``, evaluated from the inverse of ``c``.
    """
    c = _check_square_symmetric(c, "correlation matrix")
    if i == j:
        raise InputError("admissible_interval requires an off-diagonal entry")
    p = c.shape[0]
    if not (0 <= i < p and 0 <= j < p):
        raise InputError(f"indices ({i}, {j}) out of range for dim {p}")
    if not is_positive_definite(c):
        raise PreconditionError(
            "matrix must be positive definite at its current entry value"
        )
    lower, upper, _, _ = entry_kernel(np.linalg.inv(c), i, j, float(c[i, j]))
    return lower, upper


@dataclass(frozen=True)
class PrecisionFactors:
    """Factors (s, A, R) of a precision matrix S (A o R) S.

    ``s`` holds the positive diagonal of S (inverse partial standard
    deviations), ``a`` is the binary symmetric selection matrix with unit
    diagonal and ``r`` the symmetric correlation-role matrix. The
    elementwise product a*r must be positive definite; that is checked
    on construction.
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        a = _check_square_symmetric(self.a, "selection matrix")
        r = _check_square_symmetric(self.r, "correlation matrix")
        p = a.shape[0]
        if s.shape != (p,) or r.shape != (p, p):
            raise InputError("factor dimensions disagree")
        if not np.all(s > 0):
            raise InputError("s entries must be strictly positive")
        if not np.all((a == 0) | (a == 1)) or not np.all(np.diag(a) == 1):
            raise InputError("selection matrix must be binary with unit diagonal")
        if not np.all(np.diag(r) == 1.0) or np.any(np.abs(r) > 1.0):
            raise InputError("correlation matrix needs unit diagonal, entries in [-1, 1]")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)
        if not is_positive_definite(hadamard_correlation(a, r)):
            raise PreconditionError("a * r is not positive definite")


def assemble_precision(f: PrecisionFactors):
    """Precision matrix and its log-determinant from factors.

    omega[i, j] = s[i] s[j] a[i, j] r[i, j]; the log-determinant is
    2 sum(log s) + log det(a o r), computed from the Cholesky factor of
    the correlation part.
    """
    c = hadamard_correlation(f.a, f.r)
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise PreconditionError("a * r is not positive definite")
    piv = np.diagonal(chol)
    if not np.all(piv * piv > PD_PIVOT_TOL):
        raise PreconditionError("a * r is numerically singular")
    logdet_c = 2.0 * float(np.sum(np.log(piv)))
    omega = c * np.outer(f.s, f.s)
    log_det = 2.0 * float(np.sum(np.log(f.s))) + logdet_c
    return omega, log_det


def partial_correlations(omega):
    """Partial correlation matrix -omega_ij / sqrt(omega_ii omega_jj).

    Unit diagonal by convention. For a precision assembled from factors
    this recovers -(a o r) off the diagonal.
    """
    omega = _check_square_symmetric(omega, "precision matrix")
    if not is_positive_definite(omega):
        raise PreconditionError("precision matrix must be positive definite")
    d = np.sqrt(np.diag(omega))
    rho = -omega / np.outer(d, d)
    np.fill_diagonal(rho, 1.0)
    return rho


def mvn_logpdf(y, mu, omega, log_det):
    """Multivariate normal log-density in precision form.

    -(p/2) log(2 pi) + (1/2) log_det - (1/2) (y - mu)' omega (y - mu).
    ``log_det`` is the log-determinant of ``omega`` (passed in because
    callers cache it).
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    omega = np.asarray(omega, dtype=float)
    p = omega.shape[0]
    if y.shape != (p,) or mu.shape != (p,) or omega.shape != (p, p):
        raise InputError("dimension mismatch in mvn_logpdf")
    resid = y - mu
    quad = float(resid @ omega @ resid)
    return -0.5 * p * np.log(2.0 * np.pi) + 0.5 * log_det - 0.5 * quad


def read_network_dot(path):
    """Parse back the edges written by io.write_network_dot. Returns a
    list of (name_i, name_j, color, penwidth, ppi) tuples."""
    pattern = re.compile(
        r'"(?P<a>[^"]+)" -- "(?P<b>[^"]+)" '
        r'\[color=(?P<color>\w+), penwidth=(?P<pw>[\d.]+), ppi="(?P<ppi>[^"]+)"\]')
    out = []
    with open(path) as fh:
        for line in fh:
            match = pattern.search(line)
            if match:
                out.append((match["a"], match["b"], match["color"],
                            float(match["pw"]), float(match["ppi"])))
    return out


class GaussianNBReference:
    """Naive Bayes with per-class independent Gaussians, scored with
    scipy's normal log-density: an independent implementation of the
    DQDA rule that ``baselines.GaussianNB`` and ``baselines.DQDA`` run."""

    def fit(self, y, labels):
        groups = _split_by_class(np.asarray(y, float), np.asarray(labels))
        self.params = {}
        for cls, block in groups.items():
            dof = max(len(block) - 1, 1)
            sd = np.sqrt(np.maximum(
                ((block - block.mean(axis=0)) ** 2).sum(axis=0) / dof, 1e-12))
            self.params[cls] = (block.mean(axis=0), sd)
        self.log_prior = _log_priors(labels)
        return self

    def _score(self, y, cls):
        mean, sd = self.params[cls]
        return norm.logpdf(y, loc=mean, scale=sd).sum(axis=1) + self.log_prior[cls]

    def classify(self, y):
        y = np.asarray(y, float)
        return np.where(self._score(y, CLASS1) >= self._score(y, CLASS2),
                        CLASS1, CLASS2)


def differential_truth(m):
    """The true differential indicators of a ``synthetic.TrueModel``:
    a1 XOR a2 with a zero diagonal."""
    lam = (m.adjacency[0] != m.adjacency[1]).astype(np.int8)
    np.fill_diagonal(lam, 0)
    return lam


def _rank_auc(scores, truth):
    """Mann-Whitney AUC of ``scores`` against a binary ``truth`` vector,
    with average ranks under ties."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[truth].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _upper(mat):
    p = mat.shape[0]
    iu = np.triu_indices(p, 1)
    return np.asarray(mat)[iu]


def score_recovery(m, result):
    """Recovery metrics against the generating truth ``m``.

    Given a PosteriorSummary: edge-ranking AUCs per class and for the
    differential indicators. Given a NetworkCall: realized false
    discovery proportion and sensitivity of that call against the
    matching truth.
    """
    lam_truth = differential_truth(m)
    if isinstance(result, PosteriorSummary):
        if result.ppi_class1.shape[0] != m.p:
            raise InputError("dimension mismatch between model and summary")
        truths = {
            "auc_class1": (result.ppi_class1, m.adjacency[0]),
            "auc_class2": (result.ppi_class2, m.adjacency[1]),
            "auc_diff": (result.ppi_diff, lam_truth),
        }
        out = {}
        for key, (ppi, truth) in truths.items():
            t = _upper(truth) > 0
            out[key] = _rank_auc(_upper(ppi), t)
        return out

    if isinstance(result, NetworkCall):
        truth_mat = {
            NET_CLASS1: m.adjacency[0],
            NET_CLASS2: m.adjacency[1],
            NET_DIFFERENTIAL: lam_truth,
            NET_CONSERVED: 1 - lam_truth,
        }[result.which]
        called = {(e.i, e.j) for e in result.edges}
        iu_pairs = [(i, j) for i in range(m.p) for j in range(i + 1, m.p)]
        true_set = {pair for pair in iu_pairs if truth_mat[pair] > 0}
        n_called = len(called)
        false_pos = len(called - true_set)
        fdp = false_pos / n_called if n_called else 0.0
        sens = len(called & true_set) / len(true_set) if true_set else float("nan")
        return {"called": n_called, "fdp": fdp, "sensitivity": sens}

    raise InputError("result must be a PosteriorSummary or NetworkCall")
