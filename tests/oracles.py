"""Reference implementations the tests check production code against.

Precision assembly from (s, A, R) factors, partial correlations, the
single-row multivariate normal log-density and the admissible interval
of one correlation entry. The sampler works on cached correlation
matrices, their inverses and row-wise densities instead; these direct
forms serve as oracles for that math and for the synthetic truth.
``GaussianNBReference`` scores the naive Bayes rule with scipy's normal
log-density, ``score_recovery`` scores a fit against the generating
truth, and ``read_network_dot`` parses the DOT files the program writes.
"""

import re
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

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
    entry_kernel,
    hadamard_correlation,
    is_positive_definite,
)


class PreconditionError(ValueError):
    """An oracle was called on a value that fails its mathematical
    precondition (e.g. a matrix that must be positive definite is not)."""


def empty_dataset(p):
    """Dataset with no rows, used to sample from the prior."""
    names = tuple(f"V{i + 1}" for i in range(p))
    return Dataset(np.zeros((0, p)), np.zeros(0, dtype=int), names)


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
