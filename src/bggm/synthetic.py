"""Ground-truth generator for two-class sparse Gaussian graphical data
with controlled conserved/differential structure."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import CLASS1, CLASS2, Dataset
from .pdcore import is_positive_definite

EDGE_CONSERVED = "conserved"
EDGE_DIFF_CLASS1 = "differential-class1"
EDGE_DIFF_CLASS2 = "differential-class2"
EDGE_NULL = "null"


@dataclass(frozen=True)
class TrueModel:
    """Known two-class model: adjacencies, partial correlations, scales,
    means, the implied precision matrices and per-edge labels."""

    p: int
    adjacency: np.ndarray       # (2, p, p) int8, unit diagonal
    partial_corr: np.ndarray    # (2, p, p) true rho values, zero diagonal
    s: np.ndarray               # (2, p)
    mean: np.ndarray            # (2, p)
    omega: np.ndarray           # (2, p, p)
    edge_labels: dict           # {(i, j): label} for i < j


def generate_model(p, n_conserved, n_diff, corr_range, seed,
                   s_range=(0.5, 2.0), pd_margin=0.05) -> TrueModel:
    """Random two-class model with the requested edge mix.

    Conserved edges are placed first with a shared partial-correlation
    value; differential edges are then split evenly between the classes.
    Magnitudes are uniform over ``corr_range`` with random signs. Each
    insertion must keep the correlation structure positive definite with
    a working eigenvalue margin (``pd_margin``); a value that breaks the
    check is halved until it passes and dropped after 20 halvings, so
    recovered magnitudes should be read against this possibly-shrunk
    truth. Without the margin, cycles of strong edges can leave the truth
    essentially singular (marginal correlations of 1), which no method
    can recover from finite samples.
    """
    max_edges = p * (p - 1) // 2
    if n_conserved + n_diff > max_edges:
        raise InputError("requested more edges than p(p-1)/2")
    lo, hi = corr_range
    if not (0.0 <= lo <= hi < 1.0):
        raise InputError("corr_range must satisfy 0 <= lo <= hi < 1")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    order = rng.permutation(len(pairs))
    chosen = [pairs[k] for k in order[: n_conserved + n_diff]]
    conserved = chosen[:n_conserved]
    differential = chosen[n_conserved:]

    adjacency = np.zeros((2, p, p), dtype=np.int8)
    adjacency[:] = np.eye(p, dtype=np.int8)
    # c holds A o R per class; an edge with partial correlation rho
    # contributes C_ij = -rho.
    c = np.zeros((2, p, p))
    c[:] = np.eye(p)
    partial = np.zeros((2, p, p))
    labels = {pair: EDGE_NULL for pair in pairs}

    def draw_rho():
        mag = rng.uniform(lo, hi)
        return mag if rng.random() < 0.5 else -mag

    def pd_with_margin(mat):
        if not is_positive_definite(mat):
            return False
        return float(np.linalg.eigvalsh(mat)[0]) >= pd_margin

    def insert(classes, i, j, rho):
        for _ in range(21):
            ok = True
            for k in classes:
                c[k, i, j] = c[k, j, i] = -rho
                if not pd_with_margin(c[k]):
                    ok = False
            if ok:
                for k in classes:
                    adjacency[k, i, j] = adjacency[k, j, i] = 1
                    partial[k, i, j] = partial[k, j, i] = rho
                return True
            for k in classes:
                c[k, i, j] = c[k, j, i] = 0.0
            rho *= 0.5
        return False

    for i, j in conserved:
        if insert((0, 1), i, j, draw_rho()):
            labels[(i, j)] = EDGE_CONSERVED

    for idx, (i, j) in enumerate(differential):
        k = idx % 2
        if insert((k,), i, j, draw_rho()):
            labels[(i, j)] = EDGE_DIFF_CLASS1 if k == 0 else EDGE_DIFF_CLASS2

    s = rng.uniform(s_range[0], s_range[1], size=(2, p))
    omega = np.stack([c[k] * np.outer(s[k], s[k]) for k in range(2)])
    mean = np.zeros((2, p))
    return TrueModel(p=p, adjacency=adjacency, partial_corr=partial, s=s,
                     mean=mean, omega=omega, edge_labels=labels)


def sample_data(m: TrueModel, n1, n2, seed) -> Dataset:
    """Draw n1 + n2 rows from the two classes' Gaussians."""
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for k, (n_k, cls) in enumerate(((n1, CLASS1), (n2, CLASS2))):
        cov = np.linalg.inv(m.omega[k])
        cov = 0.5 * (cov + cov.T)
        chol = np.linalg.cholesky(cov)
        z = rng.standard_normal((n_k, m.p))
        blocks.append(m.mean[k] + z @ chol.T)
        labels.extend([cls] * n_k)
    y = np.vstack(blocks)
    names = tuple(f"V{i + 1}" for i in range(m.p))
    return Dataset(y, np.array(labels), names)
