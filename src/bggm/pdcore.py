"""Positive-definiteness kernel.

Deterministic linear algebra used everywhere else: Cholesky-based PD
tests, the closed-form edge kernel (from the inverse of a correlation
matrix, the interval of values one entry can take while the matrix stays
positive definite and the determinant ratio of moving it, both by the
matrix determinant lemma), assembly of a precision matrix from (s, A, R)
factors, and the multivariate normal log-density in precision form.

All functions are pure and safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError

# A matrix counts as PD iff every Cholesky pivot exceeds this. Strictly
# positive so that near-singular proposals are treated as invalid.
PD_PIVOT_TOL = 1e-10


def _check_square_symmetric(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
        raise InputError(f"{name} is not symmetric")
    return m


def is_positive_definite(m):
    """True iff ``m`` is symmetric positive definite.

    Implemented as an attempted Cholesky factorization with a strict
    positivity tolerance on the pivots, so matrices that are singular to
    working precision are rejected.
    """
    m = _check_square_symmetric(m)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    piv = np.diagonal(chol)
    return bool(np.all(piv * piv > PD_PIVOT_TOL))


def entry_kernel(w, i, j, x0, x=None):
    """Closed-form effect of changing one entry pair of a PD correlation
    matrix C, given its inverse ``w`` = C^-1.

    Moving c[i, j] (and c[j, i]) from its current value ``x0`` by delta
    multiplies det C by (matrix determinant lemma)

        f(delta) = (1 + delta w_ij)^2 - delta^2 w_ii w_jj,

    a downward quadratic with f(0) = 1. Its roots bound the values that
    keep C positive definite: the interval has centre x0 + w_ij / D and
    half-width sqrt(w_ii w_jj) / D, where D = w_ii w_jj - w_ij^2.

    Returns ``(lower, upper, ratio)``: that interval clipped to [-1, 1],
    and the determinant ratio f(x - x0) of moving the entry to ``x``
    (1.0 when ``x`` is omitted). The ratio is not positive when ``x``
    lies outside the interval.
    """
    w_ij = float(w[i, j])
    root = math.sqrt(float(w[i, i]) * float(w[j, j]))
    # f(delta) = (1 - delta up_gap) (1 + delta down_gap): the roots
    # 1 / up_gap and -1 / down_gap are the interval ends, less x0
    up_gap = root - w_ij
    down_gap = root + w_ij
    lower = max(x0 - 1.0 / down_gap, -1.0)
    upper = min(x0 + 1.0 / up_gap, 1.0)
    delta = 0.0 if x is None else x - x0
    return lower, upper, (1.0 - delta * up_gap) * (1.0 + delta * down_gap)


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
    lower, upper, _ = entry_kernel(np.linalg.inv(c), i, j, float(c[i, j]))
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


def hadamard_correlation(a, r):
    """Effective correlation matrix A o R with the diagonal pinned to 1."""
    c = np.asarray(a, dtype=float) * np.asarray(r, dtype=float)
    np.fill_diagonal(c, 1.0)
    return c


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


def mvn_logpdf_rows(y, mu, omega, log_det):
    """Row-wise mvn_logpdf for an (n, p) matrix of observations."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    mu = np.asarray(mu, dtype=float)
    p = omega.shape[0]
    if y.shape[1] != p or mu.shape != (p,):
        raise InputError("dimension mismatch in mvn_logpdf_rows")
    resid = y - mu
    quad = np.einsum("ni,ij,nj->n", resid, omega, resid)
    return -0.5 * p * np.log(2.0 * np.pi) + 0.5 * log_det - 0.5 * quad
