"""Seeded input generator for the benchmark workloads.

Everything here is independent of ``bggm``: the two-class truth used by
the output checks comes from this file, not from ``bggm.synthetic``, so a
change to the program cannot change a workload or its reference answer.

A two-class model is a pair of unit-diagonal precision matrices
K_k = I - (partial correlations) sharing the conserved edges and
splitting the differential edges between the classes, scaled by random
positive diagonals. Each edge is accepted only if both classes keep a
smallest eigenvalue of at least ``pd_margin``; a rejected edge is
redrawn at another pair and magnitude, so the edge counts are exact.
"""
# At p = 80 with more than about p edges this margin is rarely reachable
# and two_class_model can search for minutes; the workloads stay at
# p <= 40 with 1.2 p edges, where it takes well under a second.

import csv
from dataclasses import dataclass

import numpy as np

CLASS_NAMES = ("luminal", "basal")


@dataclass(frozen=True)
class Truth:
    names: tuple
    adjacency: np.ndarray    # (2, p, p) bool, zero diagonal
    precision: np.ndarray    # (2, p, p)
    mean: np.ndarray         # (2, p)

    @property
    def p(self):
        return len(self.names)

    def save(self, path):
        np.savez(path, names=np.array(self.names), adjacency=self.adjacency,
                 precision=self.precision, mean=self.mean)

    @staticmethod
    def load(path):
        with np.load(path) as npz:
            return Truth(tuple(str(x) for x in npz["names"]), npz["adjacency"],
                         npz["precision"], npz["mean"])


def two_class_model(rng, p, n_conserved, n_diff, rho_range, mean_shift_sd,
                    pd_margin=0.1, restarts=1000):
    """Random two-class model; a graph whose next edge cannot be placed
    in 300 draws is discarded and drawn again from the same stream."""
    for _ in range(restarts):
        k_mat = _place_edges(rng, p, n_conserved, n_diff, rho_range, pd_margin)
        if k_mat is not None:
            break
    else:
        raise ValueError("could not place the edges with the PD margin")
    adjacency = (k_mat != 0) & ~np.eye(p, dtype=bool)
    scales = rng.uniform(0.6, 1.6, size=(2, p))
    precision = k_mat * scales[:, :, None] * scales[:, None, :]
    mean = np.empty((2, p))
    mean[0] = rng.normal(0.0, 1.0, p)
    mean[1] = mean[0] + rng.normal(0.0, mean_shift_sd, p)
    names = tuple(f"P{i + 1:02d}" for i in range(p))
    return Truth(names, adjacency, precision, mean)


def _place_edges(rng, p, n_conserved, n_diff, rho_range, pd_margin, tries=300):
    """Unit-diagonal precisions of both classes, or None when stuck."""
    lo, hi = rho_range
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    free = list(rng.permutation(len(pairs)))
    k_mat = np.stack([np.eye(p), np.eye(p)])
    plan = [(0, 1)] * n_conserved + [((0,), (1,))[idx % 2] for idx in range(n_diff)]
    for classes in plan:
        for _ in range(tries):
            slot = int(rng.integers(len(free)))
            i, j = pairs[free[slot]]
            rho = rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
            trial = k_mat.copy()
            for k in classes:
                trial[k, i, j] = trial[k, j, i] = -rho
            if all(np.linalg.eigvalsh(trial[k])[0] >= pd_margin for k in classes):
                k_mat = trial
                free.pop(slot)
                break
        else:
            return None
    return k_mat


def sample_rows(rng, truth, n_per_class):
    """Gaussian rows of each class, y = mean + L^-T z with K = L L^T."""
    blocks = []
    labels = []
    for k, n_k in enumerate(n_per_class):
        chol = np.linalg.cholesky(truth.precision[k])
        z = rng.standard_normal((n_k, truth.p))
        blocks.append(truth.mean[k] + np.linalg.solve(chol.T, z.T).T)
        labels += [CLASS_NAMES[k]] * n_k
    return np.vstack(blocks), labels


def write_csv(path, names, y, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["label"])
        for row, lab in zip(y, labels):
            writer.writerow([repr(float(v)) for v in row] + [lab])


def write_prior_network(path, rng, truth, n_important, n_unimportant):
    """Tag some true edges (of either class) ``important`` and some pairs
    absent from both classes ``unimportant``."""
    p = truth.p
    union = truth.adjacency[0] | truth.adjacency[1]
    present = [(i, j) for i in range(p) for j in range(i + 1, p) if union[i, j]]
    absent = [(i, j) for i in range(p) for j in range(i + 1, p) if not union[i, j]]
    lines = ["# protein_i\tprotein_j\tevidence"]
    for pool, count, tag in ((present, n_important, "important"),
                             (absent, n_unimportant, "unimportant")):
        for idx in sorted(rng.choice(len(pool), size=count, replace=False)):
            i, j = pool[idx]
            lines.append(f"{truth.names[i]}\t{truth.names[j]}\t{tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
