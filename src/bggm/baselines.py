"""Reference classifiers and the repeated-split misclassification harness.

All classifiers follow the fit/classify protocol on integer labels
(1/2). The graph-based Bayesian classifier enters the harness by fitting
one chain per replicate with the test labels treated as unknown.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, ValidationError
from .inference import predict_labels, summarize
from .model import CLASS1, CLASS2, UNKNOWN, Dataset, center_mean_prior, default_hyperparameters
from .sampler import ChainConfig, run_chain

log = logging.getLogger(__name__)

_CLASSES = (CLASS1, CLASS2)


def _split_by_class(y, labels):
    out = {}
    for cls in _CLASSES:
        rows = labels == cls
        if not rows.any():
            raise ValidationError(f"training data has no samples of class {cls}")
        out[cls] = y[rows]
    return out


def _log_priors(labels):
    n = len(labels)
    return {cls: np.log(np.sum(labels == cls) / n) for cls in _CLASSES}


class _ScoreRule:
    """Plug-in rule: each subclass's ``_score(y, cls)`` gives one value
    per row, and the higher score wins (ties go to class 1)."""

    def classify(self, y):
        y = np.asarray(y, float)
        return np.where(self._score(y, CLASS1) >= self._score(y, CLASS2),
                        CLASS1, CLASS2)


class LDA(_ScoreRule):
    """Pooled full-covariance linear discriminant rule. Adds a ridge of
    1e-6 tr(Sigma)/p when the pooled covariance is not invertible."""

    def fit(self, y, labels):
        groups = _split_by_class(np.asarray(y, float), np.asarray(labels))
        n, p = y.shape
        pooled = np.zeros((p, p))
        self.means = {}
        for cls, block in groups.items():
            mean = block.mean(axis=0)
            self.means[cls] = mean
            resid = block - mean
            pooled += resid.T @ resid
        pooled /= max(n - 2, 1)
        try:
            np.linalg.cholesky(pooled)
        except np.linalg.LinAlgError:
            pooled = pooled + (1e-6 * np.trace(pooled) / p) * np.eye(p)
        self.precision = np.linalg.pinv(pooled)
        self.log_prior = _log_priors(labels)
        return self

    def _score(self, y, cls):
        mean = self.means[cls]
        lin = y @ self.precision @ mean
        return lin - 0.5 * mean @ self.precision @ mean + self.log_prior[cls]


class DLDA(_ScoreRule):
    """Diagonal LDA: pooled per-feature variances, linear rule."""

    def fit(self, y, labels):
        groups = _split_by_class(np.asarray(y, float), np.asarray(labels))
        n, p = y.shape
        ss = np.zeros(p)
        self.means = {}
        for cls, block in groups.items():
            mean = block.mean(axis=0)
            self.means[cls] = mean
            ss += ((block - mean) ** 2).sum(axis=0)
        var = ss / max(n - 2, 1)
        self.inv_var = 1.0 / np.maximum(var, 1e-12)
        self.log_prior = _log_priors(labels)
        return self

    def _score(self, y, cls):
        mean = self.means[cls]
        return (-0.5 * ((y - mean) ** 2 * self.inv_var).sum(axis=1)
                + self.log_prior[cls])


class DQDA(_ScoreRule):
    """Diagonal QDA: per-class per-feature variances, quadratic rule."""

    def fit(self, y, labels):
        groups = _split_by_class(np.asarray(y, float), np.asarray(labels))
        self.means = {}
        self.vars = {}
        for cls, block in groups.items():
            self.means[cls] = block.mean(axis=0)
            dof = max(len(block) - 1, 1)
            var = ((block - self.means[cls]) ** 2).sum(axis=0) / dof
            self.vars[cls] = np.maximum(var, 1e-12)
        self.log_prior = _log_priors(labels)
        return self

    def _score(self, y, cls):
        mean, var = self.means[cls], self.vars[cls]
        return (-0.5 * (np.log(var).sum() + ((y - mean) ** 2 / var).sum(axis=1))
                + self.log_prior[cls])


class GaussianNB(DQDA):
    """Naive Bayes with per-class independent Gaussians: the same rule as
    DQDA, so the NBC column of the benchmark equals the DQDA column."""


class KNN:
    """K-nearest-neighbor vote on Euclidean distance.

    Ties on the k-th distance are broken toward the lower training index;
    vote ties fall back to the label of the single nearest neighbor.
    """

    def __init__(self, k=5):
        if k < 1:
            raise InputError("k must be positive")
        self.k = k

    def fit(self, y, labels):
        _split_by_class(np.asarray(y, float), np.asarray(labels))
        self.train_y = np.asarray(y, float)
        self.train_labels = np.asarray(labels)
        return self

    def classify(self, y):
        y = np.asarray(y, float)
        k = min(self.k, len(self.train_y))
        out = np.empty(len(y), dtype=int)
        for row, point in enumerate(y):
            dist = np.linalg.norm(self.train_y - point, axis=1)
            # stable sort keeps lower training indices first among ties
            nearest = np.argsort(dist, kind="stable")[:k]
            votes = self.train_labels[nearest]
            n1 = int(np.sum(votes == CLASS1))
            n2 = k - n1
            if n1 > n2:
                out[row] = CLASS1
            elif n2 > n1:
                out[row] = CLASS2
            else:
                out[row] = votes[0]
        return out


class BGBC:
    """Graph-based Bayesian classifier: one MCMC fit per call with the
    test rows entering as unknown labels."""

    def __init__(self, config: ChainConfig):
        self.config = config

    def fit_classify(self, train_y, train_labels, test_y, seed):
        y = np.vstack([train_y, test_y])
        labels = np.concatenate([
            np.asarray(train_labels, int),
            np.full(len(test_y), UNKNOWN, dtype=int),
        ])
        names = tuple(f"V{i + 1}" for i in range(y.shape[1]))
        d = Dataset(y, labels, names)
        h = center_mean_prior(default_hyperparameters(d.p), d)
        samples = run_chain(d, h, replace(self.config, seed=seed))
        classes, _ = predict_labels(summarize(samples))
        return classes, samples


@dataclass(frozen=True)
class SplitPlan:
    n_replicates: int
    train_fraction: float = 2.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        if self.n_replicates < 1:
            raise InputError("n_replicates must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError("train_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass
class BenchmarkResult:
    classifiers: tuple
    mean: dict
    sd: dict
    errors: np.ndarray          # (n_replicates, n_classifiers) percent
    replicate_seeds: tuple
    resampled: int = 0
    validation_violations: int = 0


def stratified_split(labels, train_fraction, rng):
    """Per-class random split; train takes round(fraction * n_class)."""
    train_idx = []
    test_idx = []
    for cls in _CLASSES:
        rows = np.where(labels == cls)[0]
        n_train = int(round(train_fraction * len(rows)))
        n_train = min(max(n_train, 0), len(rows))
        perm = rng.permutation(rows)
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    return np.sort(np.array(train_idx, int)), np.sort(np.array(test_idx, int))


DEFAULT_CLASSIFIERS = ("knn", "lda", "dlda", "dqda", "nbc", "bgbc")

# Chain run by the BGBC column of the benchmark unless told otherwise.
BENCHMARK_CHAIN = ChainConfig(iterations=2000, burn_in=500)


def _make_baseline(name, knn_k):
    return {
        "knn": lambda: KNN(k=knn_k),
        "lda": LDA,
        "dlda": DLDA,
        "dqda": DQDA,
        "nbc": GaussianNB,
    }[name]()


def benchmark(d: Dataset, plan: SplitPlan, classifiers=DEFAULT_CLASSIFIERS,
              bggm_config=BENCHMARK_CHAIN, knn_k=5) -> BenchmarkResult:
    """Repeated stratified train/test splits; per-replicate test
    misclassification percentage for each classifier, aggregated as mean
    and sample standard deviation.

    A degenerate split (any class with fewer than 2 training samples or
    an empty test set) is resampled with the next sub-seed and logged.
    """
    if np.any(d.labels == UNKNOWN):
        raise ValidationError("benchmark requires a fully labeled dataset")
    d.require_labeled(min_per_class=2)
    classifiers = tuple(classifiers)
    if not classifiers:
        raise InputError("no classifiers given")
    for name in classifiers:
        if name not in DEFAULT_CLASSIFIERS:
            raise InputError(f"unknown classifier {name!r}")
        if classifiers.count(name) > 1:
            raise InputError(f"classifier {name!r} listed more than once")

    errors = np.zeros((plan.n_replicates, len(classifiers)))
    replicate_seeds = []
    resampled = 0
    violations = 0

    for rep in range(plan.n_replicates):
        seq = np.random.SeedSequence([plan.seed, rep])
        rep_seed = int(seq.generate_state(1)[0])
        replicate_seeds.append(rep_seed)
        rng = np.random.default_rng(seq)

        for attempt in range(100):
            train_idx, test_idx = stratified_split(d.labels, plan.train_fraction, rng)
            counts = [np.sum(d.labels[train_idx] == cls) for cls in _CLASSES]
            if min(counts) >= 2 and len(test_idx) > 0:
                break
            resampled += 1
            log.warning("replicate %d: degenerate split, resampling", rep)
        else:
            raise ValidationError("could not draw a usable split; dataset too small")

        train_y, train_lab = d.y[train_idx], d.labels[train_idx]
        test_y, test_lab = d.y[test_idx], d.labels[test_idx]

        for col, name in enumerate(classifiers):
            if name == "bgbc":
                clf = BGBC(bggm_config)
                predicted, samples = clf.fit_classify(
                    train_y, train_lab, test_y, seed=rep_seed)
                violations += len(samples.violations)
            else:
                predicted = _make_baseline(name, knn_k).fit(
                    train_y, train_lab).classify(test_y)
            errors[rep, col] = 100.0 * np.mean(predicted != test_lab)

    mean = {name: float(errors[:, col].mean())
            for col, name in enumerate(classifiers)}
    sd = {name: float(errors[:, col].std(ddof=1)) if plan.n_replicates > 1 else 0.0
          for col, name in enumerate(classifiers)}
    return BenchmarkResult(classifiers=classifiers, mean=mean, sd=sd,
                           errors=errors, replicate_seeds=tuple(replicate_seeds),
                           resampled=resampled, validation_violations=violations)
