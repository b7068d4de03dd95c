"""Posterior summarization: edge posterior probabilities, Bayesian FDR
thresholding, conserved/differential network calls, class prediction and
model-averaged precision estimates."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import CLASS1, CLASS2

NET_CLASS1 = "class1"
NET_CLASS2 = "class2"
NET_DIFFERENTIAL = "differential"
NET_CONSERVED = "conserved"

# Sentinel threshold returned when no edge survives the FDR bound; any
# value > 1 makes the called set empty since PPIs live in [0, 1].
PHI_EMPTY = 1.0 + 1e-9


@dataclass(frozen=True)
class PosteriorSummary:
    """Model-averaged posterior quantities from one chain."""

    ppi_class1: np.ndarray        # (p, p) edge inclusion probability, class 1
    ppi_class2: np.ndarray        # (p, p) class 2
    ppi_diff: np.ndarray          # (p, p) differential-edge probability
    mean_partial_corr: np.ndarray  # (2, p, p) model-averaged partial correlations
    bma_omega: np.ndarray         # (2, p, p) model-averaged precision matrices
    class1_probability: np.ndarray  # (n_u,)
    unknown_rows: np.ndarray      # (n_u,) dataset row indices

    @property
    def ppi_common(self):
        """1 - ppi_diff off the diagonal, 0 on it."""
        common = 1.0 - self.ppi_diff
        np.fill_diagonal(common, 0.0)
        return common

    def ppi(self, which):
        return {
            NET_CLASS1: self.ppi_class1,
            NET_CLASS2: self.ppi_class2,
            NET_DIFFERENTIAL: self.ppi_diff,
            NET_CONSERVED: self.ppi_common,
        }[which]


@dataclass(frozen=True)
class EdgeCall:
    i: int
    j: int
    ppi: float
    sign: str            # "positive" | "negative"
    weight: float        # |partial correlation| max-normalized to [0, 1]
    carrier: str = ""    # differential calls: class carrying the edge


@dataclass(frozen=True)
class NetworkCall:
    which: str
    alpha: float
    threshold: float
    edges: tuple


def summarize(samples) -> PosteriorSummary:
    """Average the retained draws into PPIs, partial correlations,
    class probabilities and BMA precision estimates."""
    m = samples.n_draws
    if m == 0:
        raise InputError("cannot summarize an empty draw set")
    a = samples.a.astype(float)
    ppi_k = a.mean(axis=0)
    for k in range(2):
        np.fill_diagonal(ppi_k[k], 0.0)
    ppi_diff = samples.lam.astype(float).mean(axis=0)
    np.fill_diagonal(ppi_diff, 0.0)

    # C = a * r per draw; an inactive edge contributes zero partial
    # correlation, and rho = -C off the diagonal.
    c_draws = a * samples.r
    mean_pc = -c_draws.mean(axis=0)
    for k in range(2):
        np.fill_diagonal(mean_pc[k], 0.0)

    idx = np.arange(c_draws.shape[-1])
    c_draws[..., idx, idx] = 1.0
    bma = np.einsum("mkij,mki,mkj->kij", c_draws, samples.s, samples.s) / m

    if samples.z_u.size:
        class1_prob = (samples.z_u == CLASS1).mean(axis=0)
    else:
        class1_prob = np.zeros(samples.z_u.shape[1])

    return PosteriorSummary(
        ppi_class1=ppi_k[0], ppi_class2=ppi_k[1], ppi_diff=ppi_diff,
        mean_partial_corr=mean_pc, bma_omega=bma,
        class1_probability=class1_prob,
        unknown_rows=samples.unknown_rows.copy(),
    )


def fdr_threshold(probs, alpha):
    """Bayesian FDR threshold for a list of posterior probabilities.

    Sorting the probabilities in descending order, the threshold is the
    smallest retained probability such that the running mean of the
    q-values (1 - prob) of everything retained stays at or below alpha.
    Returns (phi, selected_count); when nothing qualifies, phi is a
    sentinel above 1 and the count is 0.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.size == 0:
        raise InputError("probs must be non-empty")
    if np.any(probs < 0) or np.any(probs > 1):
        raise InputError("probs must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie strictly between 0 and 1")

    ordered = np.sort(probs)[::-1]
    running_q = np.cumsum(1.0 - ordered) / np.arange(1, ordered.size + 1)
    qualifying = np.where(running_q <= alpha)[0]
    if qualifying.size == 0:
        return PHI_EMPTY, 0
    phi = float(ordered[qualifying[-1]])
    return phi, int(np.sum(probs >= phi))


def _upper_triangle_columnwise(mat):
    """Unique entries of a symmetric matrix stacked column by column."""
    p = mat.shape[0]
    pairs = [(i, j) for j in range(p) for i in range(j)]
    values = np.array([mat[i, j] for i, j in pairs])
    return pairs, values


def call_network(summary: PosteriorSummary, which, alpha) -> NetworkCall:
    """FDR-thresholded edge set for one of the four networks.

    Class networks carry the sign of the model-averaged partial
    correlation and a weight given by its magnitude, normalized by the
    maximum over called edges. Differential calls are annotated with the
    class whose inclusion probability carries the edge. Conserved calls
    use the across-class average partial correlation for sign and weight.
    """
    if which not in (NET_CLASS1, NET_CLASS2, NET_DIFFERENTIAL, NET_CONSERVED):
        raise InputError(f"unknown network {which!r}")
    pairs, probs = _upper_triangle_columnwise(summary.ppi(which))
    phi, _ = fdr_threshold(probs, alpha)
    chosen = [(pair, prob) for pair, prob in zip(pairs, probs) if prob >= phi]

    if which == NET_CLASS1:
        strength = summary.mean_partial_corr[0]
    elif which == NET_CLASS2:
        strength = summary.mean_partial_corr[1]
    else:
        strength = summary.mean_partial_corr.mean(axis=0)

    mags = [abs(strength[i, j]) for (i, j), _ in chosen]
    max_mag = max(mags) if mags else 0.0

    edges = []
    for ((i, j), prob), mag in zip(chosen, mags):
        sign = "negative" if strength[i, j] < 0 else "positive"
        weight = mag / max_mag if max_mag > 0 else 0.0
        carrier = ""
        if which == NET_DIFFERENTIAL:
            carrier = (NET_CLASS1
                       if summary.ppi_class1[i, j] >= summary.ppi_class2[i, j]
                       else NET_CLASS2)
        edges.append(EdgeCall(i=i, j=j, ppi=float(prob), sign=sign,
                              weight=float(weight), carrier=carrier))
    return NetworkCall(which=which, alpha=float(alpha), threshold=float(phi),
                       edges=tuple(edges))


def predict_labels(summary: PosteriorSummary):
    """Hard class calls for the unknown samples.

    Returns (classes, probabilities); class 1 wherever the posterior
    class-1 probability is >= 0.5 (ties go to class 1).
    """
    if summary.class1_probability.size == 0:
        raise InputError("the fitted run had no unknown samples")
    probs = summary.class1_probability
    classes = np.where(probs >= 0.5, CLASS1, CLASS2)
    return classes, probs.copy()
