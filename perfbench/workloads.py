"""The workloads and the measured loop.

A run generates its inputs once, then repeats whole rounds of the
workload's ``bggm`` commands: at least one, and another as long as it
should end (judged by the last round's length) within the requested
seconds. A fixed calibration loop runs before the first round and after
each round; a round's chain and post times are reported at the
reference machine speed, scaled by CALIBRATION_REF_S over the mean of
the calibrations on either side of it.
Every round runs the same commands on the same inputs with the same
chain seed. Timing per round: set-up is the time up to the round's
first call into ``run_chain`` (for the first round, from the process's
start, less the benchmark's own input generation), chain time is the
time inside ``run_chain``, and post time is the rest of the round's
command time. Outputs are checked after the last round, so the checks
are not timed.
"""

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from probe import Probe

FIT_ALPHAS = (0.05, 0.1, 0.2)
NETWORK_ALPHAS = (0.1, 0.15, 0.3)   # 0.1 is also a fit level: files must match
TRAIN_FRACTION = 2.0 / 3.0          # bggm benchmark's default split
WALK = ("--r-proposal", "walk", "--r-walk-step", "0.2",
        "--s-proposal-sd", "0.15", "--validate-every", "1")
# calibrate() takes about this long on the 2-vCPU machine the bounds were
# set on; the machine's speed swings by a third over minutes, so times
# are reported as seconds at this calibration speed
CALIBRATION_REF_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "fit" (then networks/predict) or "benchmark"
    p: int
    n_conserved: int
    n_diff: int
    rho_range: tuple
    mean_shift_sd: float
    n_per_class: tuple
    chain: tuple                 # flags passed to the bggm command
    quick_chain: tuple
    tag: int                     # second word of the input seed
    auc_floor: float = 0.0
    prior_network: tuple = ()    # (important, unimportant) tagged pairs
    predict: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("fit-p10", "fit", 10, 8, 4, (0.4, 0.7), 0.5, (80, 80),
             chain=(), quick_chain=("--iterations", "60", "--burn-in", "20"),
             tag=10, auc_floor=0.75),
    Workload("fit-p40", "fit", 40, 32, 16, (0.4, 0.7), 0.5, (80, 80),
             chain=("--iterations", "100", "--burn-in", "30"),
             quick_chain=("--iterations", "12", "--burn-in", "4"),
             tag=40, auc_floor=0.6, prior_network=(12, 12), predict=True),
    Workload("classify-p10", "benchmark", 10, 4, 8, (0.5, 0.8), 0.0, (60, 60),
             chain=("--replicates", "4", "--iterations", "600", "--burn-in", "150") + WALK,
             quick_chain=("--replicates", "1", "--iterations", "60", "--burn-in", "20") + WALK,
             tag=6),
)}


@dataclass
class Inputs:
    csv: Path
    prior: Path
    truth: inputs.Truth
    chain_seed: int
    n_test: int


def make_inputs(spec, seed, directory):
    model_seq, rows_seq, prior_seq, chain_seq = np.random.SeedSequence(
        [seed, spec.tag]).spawn(4)
    truth = inputs.two_class_model(np.random.default_rng(model_seq), spec.p,
                                   spec.n_conserved, spec.n_diff, spec.rho_range,
                                   spec.mean_shift_sd)
    y, labels = inputs.sample_rows(np.random.default_rng(rows_seq), truth,
                                   spec.n_per_class)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "data.csv"
    inputs.write_csv(csv_path, truth.names, y, labels)
    truth.save(directory / "truth.npz")
    prior = None
    if spec.prior_network:
        prior = directory / "prior_network.tsv"
        inputs.write_prior_network(prior, np.random.default_rng(prior_seq), truth,
                                   *spec.prior_network)
    n_test = sum(n - int(round(TRAIN_FRACTION * n)) for n in spec.n_per_class)
    return Inputs(csv_path, prior, truth, int(chain_seq.generate_state(1)[0] % 2**31),
                  n_test)


def _alphas(values):
    return ",".join(f"{a:g}" for a in values)


def round_ops(spec, inp, out, quick):
    """(name, argv) of each bggm command in one round, writing under ``out``."""
    flags = list(spec.quick_chain if quick else spec.chain)
    seed = ["--seed", str(inp.chain_seed)]
    if spec.command == "benchmark":
        return [("benchmark", ["benchmark", "--data", str(inp.csv),
                               "--out", str(out / "benchmark")] + seed + flags)]
    fit = (["fit", "--data", str(inp.csv), "--out", str(out / "fit"),
            "--alpha", _alphas(FIT_ALPHAS)] + seed + flags)
    if inp.prior:
        fit += ["--prior-network", str(inp.prior)]
    bundle = str(out / "fit" / "results.npz")
    ops = [("fit", fit),
           ("networks", ["networks", "--results", bundle, "--out", str(out / "networks"),
                         "--alpha", _alphas(NETWORK_ALPHAS)])]
    if spec.predict:
        ops.append(("predict", ["predict", "--results", bundle,
                                "--out", str(out / "predict")]))
    return ops


def check_op(spec, inp, out, name, chains, traced, quick):
    """(failures, FDR excesses) of one command's outputs. Quick runs are
    too short for the statistical checks (AUC floor, BGBC against LDA
    and DLDA) and skip them."""
    bad = []
    for chain in chains:
        bad += checks.check_chain_counts(chain, traced)
    if name == "benchmark":
        flags = spec.quick_chain if quick else spec.chain
        replicates = int(flags[flags.index("--replicates") + 1])
        if len(chains) != replicates:
            bad.append(f"{len(chains)} chains ran for {replicates} replicates")
        for chain in chains:
            bad += chain.inspected["bad"]
        bad += checks.check_benchmark_tables(out / "benchmark", inp.n_test,
                                             compare=not quick)
        return bad, []
    names = inp.truth.names
    bundle = checks.load_bundle(out / "fit" / "results.npz")
    excess = []
    if name == "fit":
        bad += checks.check_draws(bundle["draws_a"], bundle["draws_r"],
                                  bundle["draws_s"], bundle["draws_lam"])
        bad += checks.check_networks(bundle, names, out / "fit", FIT_ALPHAS)
        excess = checks.fdr_excess(bundle, names, out / "fit", FIT_ALPHAS)
        if not quick:
            bad += checks.check_recovery(bundle, inp.truth.adjacency, spec.auc_floor)
    elif name == "networks":
        bad += checks.check_networks(bundle, names, out / "networks", NETWORK_ALPHAS)
        excess = checks.fdr_excess(bundle, names, out / "networks", NETWORK_ALPHAS)
        shared = [f"network_{which}_alpha{alpha:g}.{ext}"
                  for alpha in NETWORK_ALPHAS if alpha in FIT_ALPHAS
                  for which in checks.NETWORKS for ext in ("tsv", "dot")]
        bad += checks.check_same_files(out / "fit", out / "networks", shared)
    elif name == "predict":
        bad += checks.check_same_files(out / "fit", out / "predict", ["predictions.tsv"])
    return bad, excess


def mean_edge_ess(a):
    """Mean effective sample size over the edge indicators of one chain's
    (M, 2, p, p) draws that are not constant, by FFT autocorrelation
    and Geyer's initial monotone sequence."""
    m, _, p, _ = a.shape
    iu = np.triu_indices(p, 1)
    x = a[:, :, iu[0], iu[1]].reshape(m, -1).astype(float)
    x = x[:, x.std(axis=0) > 0]
    if x.shape[1] == 0 or m < 4:
        return 0.0
    x = x - x.mean(axis=0)
    size = 1 << (2 * m - 1).bit_length()
    freq = np.fft.rfft(x, n=size, axis=0)
    acov = np.fft.irfft(freq * np.conj(freq), n=size, axis=0)[:m]
    rho = acov / acov[0]
    half = m // 2
    pairs = rho[0:2 * half:2] + rho[1:2 * half:2]
    pairs = np.where(np.cumprod(pairs > 0, axis=0).astype(bool), pairs, 0.0)
    tau = np.maximum(-1.0 + 2.0 * np.minimum.accumulate(pairs, axis=0).sum(axis=0), 1e-12)
    return float(np.mean(m / tau))


def calibrate(repeats=6000):
    """Seconds for a fixed mix of interpreter work and small LAPACK calls
    (a 40x40 log-determinant and a 10x10 determinant), the two kinds of
    work a sweep is made of; it does not depend on bggm."""
    rng = np.random.default_rng(0)
    m40, m10 = rng.standard_normal((40, 40)), rng.standard_normal((10, 10))
    c40, c10 = m40 @ m40.T / 40 + np.eye(40), m10 @ m10.T / 10 + np.eye(10)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(repeats):
        acc += np.linalg.slogdet(c40)[1] + float(np.linalg.det(c10))
        for i in range(100):
            acc += i * 1e-9
    return time.perf_counter() - t0


def inspect_draws(samples):
    return {"bad": checks.check_draws(samples.a, samples.r, samples.s, samples.lam),
            "ess": mean_edge_ess(samples.a)}


@dataclass
class Op:
    name: str
    code: int
    wall: float
    chains: list


@dataclass
class Round:
    directory: Path
    started: float
    ops: list = field(default_factory=list)

    @property
    def chains(self):
        return [chain for op in self.ops for chain in op.chains]

    @property
    def chain_s(self):
        return sum(chain.seconds for chain in self.chains)


def invoke(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash of the command under test is a failed operation
        traceback.print_exc(file=sys.stderr)
        return 1


def run(spec, modules, run_dir, seed, seconds, trace, quick, t_start, startup,
        trace_path):
    t_gen = time.perf_counter()
    inp = make_inputs(spec, seed, run_dir / "inputs")
    gen_s = time.perf_counter() - t_gen

    rounds = []
    calibrations = [calibrate()]
    with Probe(modules, trace=trace) as probe:
        if spec.command == "benchmark":
            probe.inspect = inspect_draws
        main = modules["cli"].main
        t_loop = time.perf_counter()
        while True:
            rnd = Round(run_dir / f"round{len(rounds)}", time.perf_counter())
            for name, argv in round_ops(spec, inp, rnd.directory, quick):
                call = probe.spanned(f"cli.{name}", main) if trace else main
                first_chain = len(probe.chains)
                inspect0 = probe.inspect_seconds
                t0 = time.perf_counter()
                code = invoke(call, argv)
                wall = time.perf_counter() - t0 - (probe.inspect_seconds - inspect0)
                rnd.ops.append(Op(name, code, wall, probe.chains[first_chain:]))
            rounds.append(rnd)
            calibrations.append(calibrate())
            now = time.perf_counter()
            # start another round only if one as long as this should end in time
            if quick or (now - t_loop) + (now - rnd.started) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = wrong = excess = 0
    for rnd in rounds:
        for op in rnd.ops:
            attempted += 1
            bad, over = ([f"exit code {op.code}"], []) if op.code else ([], [])
            if op.code == 0:
                try:
                    bad, over = check_op(spec, inp, rnd.directory, op.name, op.chains,
                                         trace, quick)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    bad = [f"unreadable output: {exc!r}"]
                wrong += bool(bad)
            failed += bool(bad)
            excess += len(over)
            for msg in bad:
                print(f"perfbench: {rnd.directory.name} {op.name}: {msg}", file=sys.stderr)
            for msg in over:
                print(f"perfbench: note: {rnd.directory.name} {op.name}: {msg} "
                      "(edges tied at the threshold; not counted as a failure)",
                      file=sys.stderr)

    if trace:
        metrics = layer_metrics(probe, rounds, spec)
        metrics["inference.networks_over_alpha"] = (excess / len(rounds), "count")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        probe.write_spans(trace_path, int(t_start * 1e9))
    else:
        times = round_times(rounds, t_start, startup, gen_s + calibrations[0])
        speed = [CALIBRATION_REF_S / (0.5 * (a + b))
                 for a, b in zip(calibrations, calibrations[1:])]
        metrics = end_to_end_metrics(rounds, times, speed, peak_rss_mb)
        raw = end_to_end_metrics(rounds, times, [1.0] * len(rounds), peak_rss_mb)
        for name in ("wall_s", "sweeps_per_s", "post_s"):
            print(f"uncorrected {name:24s} {raw[name][0]:.6g} {raw[name][1]}")
        print("calibration_s " + " ".join(f"{c:.4f}" for c in calibrations))
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _round_times(rnd, since):
    """(set-up, chain, post) seconds of one round, set-up counted from
    ``since`` to the round's first chain."""
    wall = sum(op.wall for op in rnd.ops) + (rnd.started - since)
    chains = rnd.chains
    setup = chains[0].started - since if chains else wall
    return setup, rnd.chain_s, wall - setup - rnd.chain_s


def round_times(rounds, t_start, startup, own_s):
    """(set-up, chain, post) seconds of each round. The first round's
    set-up runs from the process's start, less ``own_s``: the input
    generation and the calibration before it are the benchmark's work."""
    times = []
    for idx, rnd in enumerate(rounds):
        setup, chain, post = _round_times(rnd, t_start if idx == 0 else rnd.started)
        if idx == 0:
            setup += startup - own_s
        times.append((setup, chain, post))
    return times


def end_to_end_metrics(rounds, times, speed, peak_rss_mb):
    """Metrics from per-round times; chain and post times are scaled by
    their round's ``speed``. Set-up, mostly imports, is left unscaled:
    the calibration does not track it (scaled, its spread doubled)."""
    setup_s = times[0][0]
    chain_s = statistics.median(t[1] * f for t, f in zip(times, speed))
    post_s = statistics.median(t[2] * f for t, f in zip(times, speed))
    sweeps = sum(chain.sweeps for rnd in rounds for chain in rnd.chains)
    seconds = sum(t[1] * f for t, f in zip(times, speed))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (setup_s + chain_s + post_s, "s"),
        "sweeps_per_s": (sweeps / seconds if seconds else 0.0, "sweeps/s"),
        "post_s": (post_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(probe, rounds, spec):
    """Per-round self time and calls of each layer in a traced run."""
    own, calls = probe.self_times()
    n = len(rounds)
    chains = [chain for rnd in rounds for chain in rnd.chains]

    def total(key):
        return sum(chain.counts.get(key, 0) for chain in chains)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for span in ("sampler.update_edge", "sampler.update_s", "sampler.update_mu",
                 "sampler.update_q_pi", "sampler.update_labels", "pdcore.mvn_logpdf_rows",
                 "model.validate_state", "sampler.init_state", "sampler.run_chain",
                 "model.hyperparameters", "io.read_dataset_csv", "io.read_prior_network",
                 "inference.summarize", "inference.call_network",
                 "inference.predict_labels", "io.save_results", "io.load_results",
                 "io.write_outputs", "baselines.classifiers"):
        out[f"{span}_s"] = (own.get(span, 0.0) / n, "s")
    edge_calls = calls.get("sampler.update_edge", 0)
    out["sampler.update_edge_calls"] = (edge_calls / n, "count")
    out["sampler.update_edge_us"] = (
        1e6 * ratio(own.get("sampler.update_edge", 0.0), edge_calls), "us")
    proposed, accepted = total("edge_proposed"), total("edge_accepted")
    out["sampler.edge_proposed"] = (proposed / n, "count")
    out["sampler.edge_accepted"] = (accepted / n, "count")
    out["sampler.edge_acceptance"] = (ratio(accepted, proposed), "ratio")
    out["sampler.edge_empty_interval"] = (total("edge_empty_interval") / n, "count")
    out["sampler.s_acceptance"] = (ratio(total("s_accepted"), total("s_proposed")), "ratio")
    chain_seconds = sum(chain.seconds for chain in chains)
    out["sampler.traced_sweeps_per_s"] = (
        ratio(sum(chain.sweeps for chain in chains), chain_seconds), "sweeps/s")
    out["pdcore.is_positive_definite_calls"] = (
        probe.calls["pdcore.is_positive_definite"] / n, "count")

    if spec.command == "benchmark":
        ess_rates = [chain.inspected["ess"] / chain.seconds for chain in chains]
        bundle_bytes = 0
    else:
        last = rounds[-1]
        bundle_path = last.directory / "fit" / "results.npz"
        ess = mean_edge_ess(checks.load_bundle(bundle_path)["draws_a"])
        ess_rates = [ess / chain.seconds for chain in last.chains[:1]]
        bundle_bytes = bundle_path.stat().st_size
    out["sampler.edge_ess_per_s"] = (float(np.mean(ess_rates)) if ess_rates else 0.0, "1/s")
    out["io.bundle_bytes"] = (bundle_bytes, "bytes")
    return out
