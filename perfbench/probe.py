"""Timing hooks around the program's layers.

A ``Probe`` replaces a function of ``bggm`` by a wrapper under the name
its caller looks it up with (``bggm.sampler.update_edge`` for the sweep,
``bggm.cli.run_chain`` for ``fit`` and so on) and puts every original
back on exit. Untraced runs wrap only ``run_chain``, once per chain, to
time the chain and keep its counts. A traced run also wraps each layer's
public functions and keeps one span (name, start, end, parent) per call
in flat arrays, written out by ``write_spans``.
"""

import gzip
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

# span name -> [(module, attribute), ...] wrapped in a traced run
TRACED = {
    "sampler.update_edge": [("sampler", "update_edge")],
    "sampler.update_s": [("sampler", "update_s")],
    "sampler.update_mu": [("sampler", "update_mu")],
    "sampler.update_q_pi": [("sampler", "update_q_pi")],
    "sampler.update_labels": [("sampler", "update_labels")],
    "sampler.init_state": [("sampler", "init_state")],
    "pdcore.mvn_logpdf_rows": [("sampler", "mvn_logpdf_rows")],
    "model.validate_state": [("sampler", "validate_state")],
    "model.hyperparameters": [
        ("cli", "default_hyperparameters"), ("cli", "apply_prior_network"),
        ("cli", "center_mean_prior"), ("baselines", "default_hyperparameters"),
        ("baselines", "center_mean_prior")],
    "io.read_dataset_csv": [("io", "read_dataset_csv")],
    "io.read_prior_network": [("io", "read_prior_network")],
    "inference.summarize": [("cli", "summarize"), ("baselines", "summarize")],
    "inference.call_network": [("cli", "call_network")],
    "inference.predict_labels": [("baselines", "predict_labels")],
    "io.save_results": [("io", "save_results")],
    "io.load_results": [("io", "load_results")],
    "io.write_outputs": [
        ("io", "write_chain_summary_tsv"), ("io", "write_predictions_tsv"),
        ("io", "write_network_tsv"), ("io", "write_network_dot"),
        ("io", "write_benchmark_tsv"), ("io", "write_benchmark_replicates_tsv")],
}
# calls counted without a span
COUNTED = {
    "pdcore.is_positive_definite": [("model", "is_positive_definite"),
                                    ("sampler", "is_positive_definite")],
}
BASELINE_CLASSES = ("KNN", "LDA", "DLDA", "DQDA", "GaussianNB")
RUN_CHAIN_SITES = (("cli", "run_chain"), ("baselines", "run_chain"))


@dataclass
class Chain:
    """One call into run_chain."""

    started: float           # perf_counter at entry
    seconds: float
    sweeps: int
    p: int
    counts: dict
    violations: int
    edge_calls: int          # wrapped update_edge calls, traced runs only
    inspected: object = None  # what Probe.inspect returned for the draws


class Probe:
    def __init__(self, modules, trace=False):
        self.modules = modules          # short name -> bggm module
        self.trace = trace
        # optional callable run on each chain's samples as it returns; its
        # time is kept apart in inspect_seconds so callers can leave it out
        self.inspect = None
        self.inspect_seconds = 0.0
        self.chains = []
        self.calls = Counter()
        self.names = []
        self._name_ids = {}
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._name = array("H")
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr in RUN_CHAIN_SITES:
            self._patch(module, attr, self._chain_wrapper)
        if self.trace:
            for span, sites in TRACED.items():
                for module, attr in sites:
                    self._patch(module, attr, lambda fn, s=span: self.spanned(s, fn))
            for counted, sites in COUNTED.items():
                for module, attr in sites:
                    self._patch(module, attr, lambda fn, c=counted: self._counted(c, fn))
            for attr in BASELINE_CLASSES:
                self._patch("baselines", attr, self._timed_classifier)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _patch(self, module, attr, make):
        mod = self.modules[module]
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def spanned(self, name, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self._start)
            self._parent.append(stack[-1] if stack else -1)
            self._name.append(name_id)
            self._start.append(0)
            self._end.append(0)
            stack.append(idx)
            self.calls[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                self._start[idx] = t0
                stack.pop()
        return traced

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed_classifier(self, cls):
        return type(cls.__name__, (cls,), {
            "fit": self.spanned("baselines.classifiers", cls.fit),
            "classify": self.spanned("baselines.classifiers", cls.classify),
        })

    def _chain_wrapper(self, run_chain):
        if self.trace:
            run_chain = self.spanned("sampler.run_chain", run_chain)

        def timed_run_chain(d, h, cfg):
            edge0 = self.calls["sampler.update_edge"]
            t0 = time.perf_counter()
            samples = run_chain(d, h, cfg)
            t1 = time.perf_counter()
            inspected = self.inspect(samples) if self.inspect else None
            self.inspect_seconds += time.perf_counter() - t1
            self.chains.append(Chain(
                started=t0, seconds=t1 - t0, sweeps=cfg.iterations, p=d.p,
                counts=dict(samples.counts),
                violations=len(samples.violations),
                edge_calls=self.calls["sampler.update_edge"] - edge0,
                inspected=inspected))
            return samples
        return timed_run_chain

    def self_times(self):
        """Seconds of self time and number of calls per span name."""
        if not self._start:
            return {}, {}
        start = np.frombuffer(self._start, dtype=np.int64)
        dur = np.frombuffer(self._end, dtype=np.int64) - start
        parent = np.frombuffer(self._parent, dtype=np.int64)
        names = np.frombuffer(self._name, dtype=np.uint16)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.bincount(names, weights=(dur - child), minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return ({n: float(own[i]) * 1e-9 for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def write_spans(self, path, origin_ns):
        """Gzipped TSV: index, name, start and end in ns from ``origin_ns``,
        parent index (-1 for a root span)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for idx in range(len(self._start)):
                fh.write(f"{idx}\t{self.names[self._name[idx]]}\t"
                         f"{self._start[idx] - origin_ns}\t{self._end[idx] - origin_ns}\t"
                         f"{self._parent[idx]}\n")
