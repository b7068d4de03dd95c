"""Reference implementations the tests check production code against.

Precision assembly from (s, A, R) factors, partial correlations and the
single-row multivariate normal log-density. The sampler works on cached
correlation matrices, their inverses and row-wise densities instead;
these direct forms serve as oracles for that math and for the synthetic
truth. ``read_network_dot`` parses the DOT files the program writes.
"""

import re
from dataclasses import dataclass

import numpy as np

from bggm.errors import InputError, PreconditionError
from bggm.pdcore import (
    PD_PIVOT_TOL,
    _check_square_symmetric,
    hadamard_correlation,
    is_positive_definite,
)


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
