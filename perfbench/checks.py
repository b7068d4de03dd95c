"""Output checks, written apart from the program.

Each check reads what a ``bggm`` command wrote (or the draws a chain
returned) and compares it with a computation of the benchmark's own or
with a property the method must have. Every check returns a list of
failure messages; an empty list means the output is correct. Nothing
here imports ``bggm``.
"""

import json
from pathlib import Path

import numpy as np

NETWORKS = ("class1", "class2", "differential", "conserved")


def smallest_cholesky_pivots(m):
    """Smallest squared Cholesky pivot of each matrix in a (..., p, p)
    stack, by column-wise elimination; a matrix is positive definite iff
    the result is > 0."""
    m = np.asarray(m, dtype=float)
    p = m.shape[-1]
    low = np.zeros_like(m)
    smallest = np.full(m.shape[:-2], np.inf)
    for j in range(p):
        row = low[..., j, :j]
        d = m[..., j, j] - np.einsum("...k,...k->...", row, row)
        smallest = np.minimum(smallest, d)
        root = np.sqrt(np.where(d > 0, d, 1.0))
        low[..., j, j] = root
        below = m[..., j + 1:, j] - np.einsum("...ik,...k->...i", low[..., j + 1:, :j], row)
        low[..., j + 1:, j] = below / root[..., None]
    return smallest


def check_draws(a, r, s, lam):
    """Invariants every saved draw must satisfy: symmetric binary
    selection matrices with a unit diagonal, lam = a1 XOR a2 off the
    diagonal, positive scales and a positive definite A o R."""
    a = np.asarray(a)
    r = np.asarray(r, dtype=float)
    bad = []
    if a.shape[0] == 0:
        return ["no draws saved"]
    off = ~np.eye(a.shape[-1], dtype=bool)
    if not np.isin(a, (0, 1)).all():
        bad.append("selection matrix entries outside {0, 1}")
    if not (a == np.swapaxes(a, -1, -2)).all():
        bad.append("selection matrix not symmetric")
    if not (np.diagonal(a, axis1=-2, axis2=-1) == 1).all():
        bad.append("selection diagonal not all 1")
    xor = (a[:, 0] != a[:, 1])
    if not (np.asarray(lam)[:, off] == xor[:, off]).all():
        bad.append("lam differs from a1 XOR a2")
    if not (np.isfinite(s).all() and (np.asarray(s) > 0).all()):
        bad.append("scale s not strictly positive")
    c = a * r
    idx = np.arange(c.shape[-1])
    c[..., idx, idx] = 1.0
    pivots = smallest_cholesky_pivots(c)
    if not (pivots > 0).all():
        draw, cls = np.argwhere(~(pivots > 0))[0]
        bad.append(f"A o R not positive definite (draw {draw}, class {cls + 1}, "
                   f"{int(np.sum(~(pivots > 0)))} matrices)")
    return bad


def fdr_called(probs, alpha):
    """Bayesian-FDR selection: the largest set of highest probabilities
    whose mean of (1 - prob) stays <= alpha, extended to every
    probability tied with its smallest member."""
    order = np.sort(probs)[::-1]
    running = np.cumsum(1.0 - order) / np.arange(1, order.size + 1)
    k = int(np.count_nonzero(running <= alpha))
    if k == 0:
        return np.zeros(probs.shape, dtype=bool)
    return probs >= order[k - 1]


def read_network_tsv(path, index):
    """Edge set of a network TSV as index pairs (i < j)."""
    edges = set()
    lines = Path(path).read_text().splitlines()
    body = lines[lines.index("protein_i\tprotein_j\tppi\tsign\tweight\tcarrier") + 1:]
    for line in body:
        name_i, name_j = line.split("\t")[:2]
        i, j = index[name_i], index[name_j]
        edges.add((min(i, j), max(i, j)))
    return edges


def load_bundle(path):
    with np.load(path, allow_pickle=False) as npz:
        out = {key: npz[key] for key in npz.files}
    out["meta"] = json.loads(str(out["meta"]))
    return out


def network_probs(bundle, which):
    if which == "class1":
        return bundle["ppi_class1"]
    if which == "class2":
        return bundle["ppi_class2"]
    if which == "differential":
        return bundle["ppi_diff"]
    return 1.0 - bundle["ppi_diff"]


def network_path(out_dir, which, alpha):
    return Path(out_dir) / f"network_{which}_alpha{alpha:g}.tsv"


def _network_files(bundle, names, out_dir, alphas):
    """(path, alpha, PPI matrix, called edge set) per network file."""
    index = {name: i for i, name in enumerate(names)}
    for alpha in alphas:
        for which in NETWORKS:
            path = network_path(out_dir, which, alpha)
            yield path, alpha, network_probs(bundle, which), read_network_tsv(path, index)


def check_networks(bundle, names, out_dir, alphas):
    """Each network file holds exactly the FDR selection recomputed from
    the bundle's PPIs."""
    bad = []
    iu = np.triu_indices(len(names), 1)
    pairs = list(zip(iu[0].tolist(), iu[1].tolist()))
    for path, alpha, ppi, got in _network_files(bundle, names, out_dir, alphas):
        chosen = fdr_called(ppi[iu], alpha)
        want = {pair for pair, keep in zip(pairs, chosen) if keep}
        if got != want:
            bad.append(f"{path.name}: {len(got ^ want)} edges differ from the "
                       f"FDR selection ({len(got)} called, {len(want)} expected)")
    return bad


def fdr_excess(bundle, names, out_dir, alphas):
    """Network files whose called edges have a mean (1 - PPI) above alpha.
    Given check_networks, only edges tied at the threshold can cause it."""
    out = []
    for path, alpha, ppi, got in _network_files(bundle, names, out_dir, alphas):
        if got:
            mean_q = float(np.mean([1.0 - ppi[e] for e in got]))
            if mean_q > alpha + 1e-12:
                out.append(f"{path.name}: mean (1 - PPI) {mean_q:.4f} above alpha")
    return out


def check_same_files(dir_a, dir_b, names):
    """Files of the same name in two directories are byte-identical."""
    bad = []
    for name in names:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if not (a.exists() and b.exists()):
            bad.append(f"{name}: missing")
        elif a.read_bytes() != b.read_bytes():
            bad.append(f"{name}: differs between {Path(dir_a).name} and {Path(dir_b).name}")
    return bad


def rank_auc(scores, truth):
    """Mann-Whitney AUC with ties counted one half."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    pos, neg = scores[truth], scores[~truth]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


def check_recovery(bundle, adjacency, floor):
    """Class-network AUC of the PPIs against the generating truth."""
    bad = []
    iu = np.triu_indices(adjacency.shape[-1], 1)
    for k, key in enumerate(("ppi_class1", "ppi_class2")):
        auc = rank_auc(bundle[key][iu], adjacency[k][iu])
        if not auc > floor:
            bad.append(f"class {k + 1} network AUC {auc:.3f} not above {floor}")
    return bad


def check_chain_counts(chain, traced):
    """The chain proposed every edge once per sweep; in a traced run the
    wrapped update_edge calls agree with the program's own count."""
    want = chain.p * (chain.p - 1) // 2 * chain.sweeps
    got = chain.counts.get("edge_proposed")
    bad = []
    if got != want:
        bad.append(f"edge_proposed {got}, expected p(p-1)/2 x sweeps = {want}")
    if traced and chain.edge_calls != want:
        bad.append(f"{chain.edge_calls} wrapped update_edge calls, expected {want}")
    if chain.violations:
        bad.append(f"{chain.violations} invariant violations reported")
    return bad


def _table_rows(path, column_header):
    lines = Path(path).read_text().splitlines()
    start = lines.index(column_header) + 1
    return [line.split("\t") for line in lines[start:] if line]


def check_benchmark_tables(out_dir, n_test, compare=True):
    """Error percentages are whole multiples of 100 / n_test, the table
    means agree with the replicates and, with ``compare``, BGBC's mean
    error is below LDA's and DLDA's."""
    out_dir = Path(out_dir)
    bad = []
    rows = _table_rows(out_dir / "benchmark_replicates.tsv",
                       "replicate\tseed\tclassifier\terror_percent")
    errors = {}
    for _, _, name, pct in rows:
        value = float(pct)
        wrong = value * n_test / 100.0
        if abs(wrong - round(wrong)) > 1e-6:
            bad.append(f"{name} error {pct}% is not a multiple of 100/{n_test}")
        errors.setdefault(name, []).append(value)
    table = _table_rows(out_dir / "benchmark.tsv",
                        "stat\tKNN\tLDA\tDLDA\tDQDA\tNBC\tBGBC")
    means = dict(zip(("knn", "lda", "dlda", "dqda", "nbc", "bgbc"),
                     (float(x) for x in table[0][1:])))
    for name, values in errors.items():
        if abs(means[name] - float(np.mean(values))) > 1e-6:
            bad.append(f"{name} mean {means[name]} differs from its replicates")
    for rival in ("lda", "dlda") if compare else ():
        if not means["bgbc"] < means[rival]:
            bad.append(f"BGBC mean error {means['bgbc']} not below {rival.upper()} "
                       f"{means[rival]}")
    return bad
