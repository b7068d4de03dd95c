"""Command-line surface.

Subcommands: fit (estimate networks and predict unknown labels in one
run), predict (re-extract predictions from a saved results bundle),
networks (re-threshold a saved run at new alpha levels), simulate
(generate ground-truth data) and benchmark (repeated-split classifier
comparison).

Exit codes: 0 success, 2 validation/input error, 3 numerical abort.
Options may also be supplied through a flat key=value config file;
explicit flags win over the file, the file wins over defaults.
"""

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import __version__, io
from .baselines import BENCHMARK_CHAIN, DEFAULT_CLASSIFIERS, SplitPlan, benchmark
from .errors import InputError, NumericalAbort
from .inference import (
    NET_CLASS1,
    NET_CLASS2,
    NET_CONSERVED,
    NET_DIFFERENTIAL,
    call_network,
    summarize,
)
from .model import apply_prior_network, center_mean_prior, default_hyperparameters
from .sampler import ChainConfig, run_chain
from .synthetic import generate_model, sample_data

log = logging.getLogger("bggm")

_NETWORKS = (NET_CLASS1, NET_CLASS2, NET_DIFFERENTIAL, NET_CONSERVED)


def _dataset_options(parser):
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--label-column", default=None)
    parser.add_argument("--unknown-token", default=None)
    parser.add_argument("--class-names", default=None,
                        help="comma-separated pair mapped to class1,class2")


_DATASET_DEFAULTS = {"label_column": "label", "unknown_token": "?", "class_names": ""}


def _read_dataset(args, opts):
    class_names = None
    if opts["class_names"]:
        class_names = tuple(tok.strip() for tok in opts["class_names"].split(","))
    return io.read_dataset_csv(
        args.data, label_column=opts["label_column"],
        unknown_token=opts["unknown_token"], class_names=class_names)


def _chain_options(parser):
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--burn-in", type=int, default=None)
    parser.add_argument("--thin", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--r-proposal", choices=["prior", "walk"], default=None,
                        help="correlation proposal (default prior); walk "
                             "proposals do not keep the target posterior")
    parser.add_argument("--r-walk-step", type=float, default=None)
    parser.add_argument("--s-proposal-sd", type=float, default=None)
    parser.add_argument("--validate-every", type=int, default=None)


_CHAIN_DEFAULTS = dataclasses.asdict(ChainConfig())


def read_config_file(path):
    """Flat key = value file; '#' starts a comment; keys use the long
    option names with dashes or underscores."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise InputError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in text.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _merge_options(args, defaults):
    """flags > config file > defaults."""
    merged = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        file_opts = read_config_file(cfg_path)
        unknown = set(file_opts) - set(defaults)
        if unknown:
            raise InputError(f"{cfg_path}: unknown config keys: {sorted(unknown)}")
        for key, raw in file_opts.items():
            kind = type(defaults[key])
            try:
                merged[key] = kind(raw)
            except ValueError:
                raise InputError(
                    f"{cfg_path}: {key} = {raw!r} is not a valid {kind.__name__}")
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _chain_config(opts):
    return ChainConfig(**{name: opts[name] for name in _CHAIN_DEFAULTS})


def _parse_alphas(text):
    try:
        alphas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"cannot parse alpha list {text!r}")
    if not alphas or any(not 0.0 < a < 1.0 for a in alphas):
        raise InputError("alpha values must lie strictly between 0 and 1")
    return alphas


def _write_networks(out_dir, summary, names, alphas, seed, cfg_hash):
    tsv_header = io.format_header(seed, cfg_hash)
    dot_header = io.format_header(seed, cfg_hash, comment="//")
    for alpha in alphas:
        for which in _NETWORKS:
            call = call_network(summary, which, alpha)
            stem = f"network_{which}_alpha{alpha:g}"
            io.write_network_tsv(out_dir / f"{stem}.tsv", call, names, tsv_header)
            io.write_network_dot(out_dir / f"{stem}.dot", call, names, dot_header)


def cmd_fit(args):
    opts = _merge_options(args, {**_CHAIN_DEFAULTS, **_DATASET_DEFAULTS,
                                 "prior_network": "", "alpha": "0.1"})
    dataset, class_names = _read_dataset(args, opts)
    dataset.require_labeled(min_per_class=2)

    hyper = default_hyperparameters(dataset.p)
    if opts["prior_network"]:
        net = io.read_prior_network(opts["prior_network"])
        hyper = apply_prior_network(hyper, net, dataset.names)
    hyper = center_mean_prior(hyper, dataset)

    cfg = _chain_config(opts)
    alphas = _parse_alphas(opts["alpha"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    run_meta = dict(opts)
    run_meta["data"] = str(args.data)
    cfg_hash = io.config_hash(run_meta)
    header = io.format_header(cfg.seed, cfg_hash)

    log.info("fitting: n=%d (unknown %d), p=%d, %d iterations",
             dataset.n, len(dataset.unknown_rows), dataset.p, cfg.iterations)
    samples = run_chain(dataset, hyper, cfg)
    log.info("edge kernel: %d accepted moves refactored in full, "
             "max |W C - I| at re-anchor %.1e",
             samples.counts["w_refactor_forced"], samples.counts["w_drift_max"])
    summary = summarize(samples)

    io.write_chain_summary_tsv(out_dir / "chain_summary.tsv", samples, header)
    io.save_results(out_dir / "results.npz", samples, summary, meta={
        "class_names": list(class_names),
        "label_column": opts["label_column"],
        "names": list(dataset.names),
        "alphas": alphas,
        "config_hash": cfg_hash,
    })
    io.write_predictions_tsv(out_dir / "predictions.tsv", summary,
                             class_names, header)
    _write_networks(out_dir, summary, dataset.names, alphas, cfg.seed, cfg_hash)
    log.info("wrote results to %s", out_dir)
    return 0


def cmd_predict(args):
    summary, meta = io.load_results(args.results)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = io.format_header(meta["chain_config"]["seed"], meta["config_hash"])
    io.write_predictions_tsv(out_dir / "predictions.tsv", summary,
                             tuple(meta["class_names"]), header)
    return 0


def cmd_networks(args):
    summary, meta = io.load_results(args.results)
    alphas = _parse_alphas(args.alpha)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_networks(out_dir, summary, tuple(meta["names"]), alphas,
                    meta["chain_config"]["seed"], meta["config_hash"])
    return 0


def cmd_simulate(args):
    defaults = {
        "p": 10, "conserved": 8, "differential": 4,
        "corr_min": 0.4, "corr_max": 0.7, "n1": 100, "n2": 100, "seed": 0,
        "label_column": "label",
    }
    opts = _merge_options(args, defaults)
    model = generate_model(opts["p"], opts["conserved"], opts["differential"],
                           (opts["corr_min"], opts["corr_max"]), opts["seed"])
    dataset = sample_data(model, opts["n1"], opts["n2"], opts["seed"] + 1)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_hash = io.config_hash(opts)
    header = io.format_header(opts["seed"], cfg_hash)
    io.write_dataset_csv(out_dir / "dataset.csv", dataset,
                         class_names=("class1", "class2"),
                         label_column=opts["label_column"], header=header)
    io.write_truth_tsv(out_dir / "truth.tsv", model, dataset.names, header)
    log.info("simulated %d+%d samples, %d proteins", opts["n1"], opts["n2"], opts["p"])
    return 0


def cmd_benchmark(args):
    opts = _merge_options(args, {
        **dataclasses.asdict(BENCHMARK_CHAIN), **_DATASET_DEFAULTS,
        "replicates": 25, "train_fraction": 2.0 / 3.0,
        "classifiers": ",".join(DEFAULT_CLASSIFIERS), "knn_k": 5,
    })
    dataset, _ = _read_dataset(args, opts)

    plan = SplitPlan(n_replicates=opts["replicates"],
                     train_fraction=opts["train_fraction"], seed=opts["seed"])
    names = tuple(tok.strip() for tok in opts["classifiers"].split(",") if tok.strip())
    result = benchmark(dataset, plan, classifiers=names,
                       bggm_config=_chain_config(opts), knn_k=opts["knn_k"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_hash = io.config_hash({k: str(v) for k, v in opts.items()})
    header = io.format_header(opts["seed"], cfg_hash)
    io.write_benchmark_tsv(out_dir / "benchmark.tsv", result, header)
    io.write_benchmark_replicates_tsv(out_dir / "benchmark_replicates.tsv",
                                      result, header)
    log.info("benchmark means: %s",
             {k: round(v, 2) for k, v in result.mean.items()})
    log.info("benchmark: %d degenerate splits resampled, %d invariant violations",
             result.resampled, result.validation_violations)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bggm",
        description="Bayesian sparse Gaussian graphical models for "
                    "two-class data: networks, differential edges and "
                    "classification.",
    )
    parser.add_argument("--version", action="version", version=f"bggm {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model and write networks/predictions")
    _dataset_options(p_fit)
    p_fit.add_argument("--prior-network", default=None)
    p_fit.add_argument("--alpha", default=None,
                       help="comma-separated FDR levels (default 0.1)")
    _chain_options(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="re-extract predictions from a results bundle")
    p_pred.add_argument("--results", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_net = sub.add_parser("networks", help="re-threshold a results bundle at new alphas")
    p_net.add_argument("--results", required=True)
    p_net.add_argument("--out", required=True)
    p_net.add_argument("--alpha", required=True)
    p_net.set_defaults(func=cmd_networks)

    p_sim = sub.add_parser("simulate", help="generate synthetic two-class data")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--p", type=int, default=None)
    p_sim.add_argument("--conserved", type=int, default=None)
    p_sim.add_argument("--differential", type=int, default=None)
    p_sim.add_argument("--corr-min", type=float, default=None)
    p_sim.add_argument("--corr-max", type=float, default=None)
    p_sim.add_argument("--n1", type=int, default=None)
    p_sim.add_argument("--n2", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="repeated-split classifier comparison")
    _dataset_options(p_bench)
    p_bench.add_argument("--replicates", type=int, default=None)
    p_bench.add_argument("--train-fraction", type=float, default=None)
    p_bench.add_argument("--classifiers", default=None)
    p_bench.add_argument("--knn-k", type=int, default=None)
    _chain_options(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except NumericalAbort as exc:
        log.error("numerical abort: %s", exc)
        if exc.diagnostics:
            log.error("diagnostics: %s", exc.diagnostics)
        return 3


if __name__ == "__main__":
    sys.exit(main())
