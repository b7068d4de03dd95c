"""File formats: dataset CSV, prior-network text, edge-list TSV, DOT
graphs, the results bundle and benchmark tables.

Every output file begins with a versioned header line recording the tool
version, the seed and a hash of the effective configuration. Numeric
output formatting is fixed so identical runs produce byte-identical
files.
"""

import csv
import hashlib
import json
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import InputError, ValidationError
from .inference import NET_DIFFERENTIAL, NetworkCall, PosteriorSummary
from .model import CLASS1, CLASS2, UNKNOWN, Dataset, PriorNetwork
from .sampler import ChainConfig, ChainSamples

RESULTS_FORMAT_VERSION = 1

# DOT rendering: pen widths interpolate linearly between these bounds as
# the normalized edge weight goes 0 -> 1.
DOT_MIN_PENWIDTH = 0.5
DOT_MAX_PENWIDTH = 4.0

_DIFF_COLORS = {"class1": "orange", "class2": "blue"}
_SIGN_COLORS = {"positive": "green", "negative": "red"}


def config_hash(mapping):
    """Short stable hash of a configuration mapping."""
    canon = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def format_header(seed, cfg_hash, comment="#"):
    return f"{comment} bggm {__version__} seed={seed} config={cfg_hash}"


def _fmt(x):
    return format(float(x), ".10g")


def _fmt_exact(x):
    return format(float(x), ".17g")


def read_dataset_csv(path, label_column="label", unknown_token="?",
                     class_names=None):
    """Parse a dataset CSV: header row of protein names plus one label
    column; unknowns marked by ``unknown_token``.

    Returns (Dataset, (class1_name, class2_name)). When ``class_names``
    is not given the two class names are the sorted distinct non-unknown
    label values.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if label_column not in header:
        raise InputError(f"{path}: no column named {label_column!r}")
    label_idx = header.index(label_column)
    names = [h for k, h in enumerate(header) if k != label_idx]

    raw_labels = []
    values = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        raw_labels.append(row[label_idx].strip())
        numeric = []
        for k, cell in enumerate(row):
            if k == label_idx:
                continue
            try:
                numeric.append(float(cell))
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric cell at row {r}, column {header[k]!r}: {cell!r}")
        values.append(numeric)

    observed = sorted({lab for lab in raw_labels if lab != unknown_token})
    if class_names is None:
        if len(observed) != 2:
            raise ValidationError(
                f"{path}: expected exactly two class labels, found {observed}")
        class_names = tuple(observed)
    else:
        class_names = tuple(class_names)
        if len(class_names) != 2:
            raise InputError("class_names must list exactly two names")
        unexpected = set(observed) - set(class_names)
        if unexpected:
            raise ValidationError(f"{path}: unknown class label values {sorted(unexpected)}")

    mapping = {class_names[0]: CLASS1, class_names[1]: CLASS2,
               unknown_token: UNKNOWN}
    labels = np.array([mapping[lab] for lab in raw_labels], dtype=int)
    return Dataset(np.array(values, dtype=float), labels, tuple(names)), class_names


def write_dataset_csv(path, d: Dataset, class_names, label_column="label",
                      unknown_token="?", header=None):
    names = {CLASS1: class_names[0], CLASS2: class_names[1],
             UNKNOWN: unknown_token}
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header + "\n")
        writer = csv.writer(fh)
        writer.writerow(list(d.names) + [label_column])
        for row, lab in zip(d.y, d.labels):
            writer.writerow([_fmt_exact(v) for v in row] + [names[int(lab)]])


def read_prior_network(path) -> PriorNetwork:
    """Three- or four-column text file: protein_i, protein_j, evidence
    and an optional scope. Separators may be tabs, commas or runs of
    spaces; '#' starts a comment."""
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = [p for p in text.replace(",", " ").replace("\t", " ").split(" ") if p]
            if len(parts) not in (3, 4):
                raise InputError(
                    f"{path}:{lineno}: expected 3 or 4 fields, got {len(parts)}")
            edges.append(tuple(parts))
    return PriorNetwork(tuple(edges))


def write_network_tsv(path, call: NetworkCall, names, header):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(f"# network={call.which} alpha={_fmt(call.alpha)} "
                 f"threshold={_fmt(call.threshold)} edges={len(call.edges)}\n")
        fh.write("protein_i\tprotein_j\tppi\tsign\tweight\tcarrier\n")
        for e in call.edges:
            fh.write(f"{names[e.i]}\t{names[e.j]}\t{_fmt(e.ppi)}\t{e.sign}\t"
                     f"{_fmt(e.weight)}\t{e.carrier}\n")


def _edge_color(call, edge):
    if call.which == NET_DIFFERENTIAL:
        return _DIFF_COLORS[edge.carrier]
    return _SIGN_COLORS[edge.sign]


def penwidth(weight):
    return DOT_MIN_PENWIDTH + (DOT_MAX_PENWIDTH - DOT_MIN_PENWIDTH) * weight


def write_network_dot(path, call: NetworkCall, names, header):
    """Undirected DOT graph. Class/conserved networks color edges green
    (positive) or red (negative partial correlation); differential
    networks color by carrying class (orange = class 1, blue = class 2).
    Pen width scales linearly with the normalized weight."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(f"graph {call.which} {{\n")
        fh.write("  node [shape=ellipse, fontsize=10];\n")
        for name in names:
            fh.write(f'  "{name}";\n')
        for e in call.edges:
            fh.write(
                f'  "{names[e.i]}" -- "{names[e.j]}" '
                f'[color={_edge_color(call, e)}, penwidth={penwidth(e.weight):.3f}, '
                f'ppi="{_fmt(e.ppi)}"];\n'
            )
        fh.write("}\n")


def read_network_dot(path):
    """Parse back the edges written by write_network_dot; used by the
    round-trip checks. Returns a list of (name_i, name_j, color, penwidth,
    ppi) tuples."""
    import re

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


def write_predictions_tsv(path, summary: PosteriorSummary, class_names, header):
    names = {CLASS1: class_names[0], CLASS2: class_names[1]}
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("row\tclass1_probability\tpredicted\n")
        for row, prob in zip(summary.unknown_rows, summary.class1_probability):
            cls = CLASS1 if prob >= 0.5 else CLASS2
            fh.write(f"{int(row)}\t{_fmt(prob)}\t{names[cls]}\n")


def write_chain_summary_tsv(path, samples: ChainSamples, header):
    cfg = samples.config
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("key\tvalue\n")
        rows = [
            ("iterations", cfg.iterations),
            ("burn_in", cfg.burn_in),
            ("thin", cfg.thin),
            ("seed", cfg.seed),
            ("draws", samples.n_draws),
            ("acceptance_edge", _fmt(samples.acceptance.get("edge", 0.0))),
            ("acceptance_s", _fmt(samples.acceptance.get("s", 0.0))),
            ("edge_empty_interval", samples.counts.get("edge_empty_interval", 0)),
            ("invariant_violations", len(samples.violations)),
        ]
        for key, value in rows:
            fh.write(f"{key}\t{value}\n")


def write_benchmark_tsv(path, result, header):
    """Mean/sd table in the classical comparison layout: KNN, LDA, DLDA,
    DQDA, NBC, BGBC. No network-based SVM column; noted in the header."""
    cols = [c for c in ("knn", "lda", "dlda", "dqda", "nbc", "bgbc")
            if c in result.classifiers]
    cols += [c for c in result.classifiers if c not in cols]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("# misclassification percentage over "
                 f"{result.errors.shape[0]} random splits; "
                 "network-based SVM column not included\n")
        fh.write(f"# resampled_splits={result.resampled} "
                 f"invariant_violations={result.validation_violations}\n")
        fh.write("stat\t" + "\t".join(c.upper() for c in cols) + "\n")
        fh.write("mean\t" + "\t".join(_fmt(result.mean[c]) for c in cols) + "\n")
        fh.write("sd\t" + "\t".join(_fmt(result.sd[c]) for c in cols) + "\n")


def write_benchmark_replicates_tsv(path, result, header):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("replicate\tseed\tclassifier\terror_percent\n")
        for rep in range(result.errors.shape[0]):
            for col, name in enumerate(result.classifiers):
                fh.write(f"{rep}\t{result.replicate_seeds[rep]}\t{name}\t"
                         f"{_fmt(result.errors[rep, col])}\n")


def write_truth_tsv(path, model, names, header):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("protein_i\tprotein_j\tlabel\tpartial_corr_class1\tpartial_corr_class2\n")
        for (i, j), label in sorted(model.edge_labels.items()):
            if label == "null":
                continue
            fh.write(f"{names[i]}\t{names[j]}\t{label}\t"
                     f"{_fmt(model.partial_corr[0, i, j])}\t"
                     f"{_fmt(model.partial_corr[1, i, j])}\n")


def save_results(path, samples: ChainSamples, summary: PosteriorSummary, meta):
    """Persist a fitted run (draws + posterior summary + metadata) as a
    single self-describing .npz bundle with an explicit format version."""
    meta_full = dict(meta)
    meta_full["format_version"] = RESULTS_FORMAT_VERSION
    meta_full["tool_version"] = __version__
    meta_full["chain_config"] = asdict(samples.config)
    meta_full["acceptance"] = samples.acceptance
    meta_full["counts"] = samples.counts
    meta_full["n_violations"] = len(samples.violations)
    np.savez_compressed(
        path,
        meta=np.array(json.dumps(meta_full, sort_keys=True)),
        draws_a=samples.a, draws_r=samples.r, draws_s=samples.s,
        draws_mu=samples.mu, draws_lam=samples.lam, draws_z=samples.z_u,
        unknown_rows=samples.unknown_rows,
        ppi_class1=summary.ppi_class1, ppi_class2=summary.ppi_class2,
        ppi_diff=summary.ppi_diff,
        mean_partial_corr=summary.mean_partial_corr,
        bma_omega=summary.bma_omega,
        class1_probability=summary.class1_probability,
    )


def load_results(path):
    """Inverse of save_results: (ChainSamples, PosteriorSummary, meta)."""
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["meta"]))
        if meta.get("format_version") != RESULTS_FORMAT_VERSION:
            raise InputError(
                f"{path}: unsupported results format {meta.get('format_version')!r}")
        cfg = ChainConfig(**meta["chain_config"])
        samples = ChainSamples(
            config=cfg, p=npz["ppi_class1"].shape[0],
            unknown_rows=npz["unknown_rows"],
            a=npz["draws_a"], r=npz["draws_r"], s=npz["draws_s"],
            mu=npz["draws_mu"], lam=npz["draws_lam"], z_u=npz["draws_z"],
            acceptance=meta["acceptance"], counts=meta["counts"],
            violations=[None] * meta["n_violations"],
        )
        ppi_diff = npz["ppi_diff"]
        ppi_common = 1.0 - ppi_diff
        np.fill_diagonal(ppi_common, 0.0)
        summary = PosteriorSummary(
            n_draws=samples.n_draws,
            ppi_class1=npz["ppi_class1"], ppi_class2=npz["ppi_class2"],
            ppi_diff=ppi_diff, ppi_common=ppi_common,
            mean_partial_corr=npz["mean_partial_corr"],
            bma_omega=npz["bma_omega"],
            class1_probability=npz["class1_probability"],
            unknown_rows=npz["unknown_rows"],
        )
    return samples, summary, meta
