import numpy as np
import pytest

from bggm.baselines import (
    BGBC,
    DLDA,
    DQDA,
    KNN,
    LDA,
    GaussianNB,
    SplitPlan,
    benchmark,
    stratified_split,
)
from bggm.errors import InputError, ValidationError
from bggm.model import CLASS1, CLASS2, Dataset
from bggm.sampler import ChainConfig
from bggm.synthetic import generate_model, sample_data

from oracles import GaussianNBReference


def labeled_dataset(rng, p=3, n_per=20, sep=2.0):
    y = np.vstack([
        rng.standard_normal((n_per, p)) - sep / 2,
        rng.standard_normal((n_per, p)) + sep / 2,
    ])
    labels = np.array([CLASS1] * n_per + [CLASS2] * n_per)
    return Dataset(y, labels, tuple(f"P{i}" for i in range(p)))


class TestClassifierBasics:
    def test_lda_nearest_mean_1d_pair(self):
        # two (2-d) classes split on the first coordinate at -1 / +1
        y = np.array([[-1.0, 0.0], [-1.2, 0.1], [1.0, 0.0], [1.2, -0.1]])
        labels = np.array([1, 1, 2, 2])
        clf = LDA().fit(y, labels)
        assert clf.classify(np.array([[0.9, 0.0]]))[0] == CLASS2
        assert clf.classify(np.array([[-0.9, 0.0]]))[0] == CLASS1

    def test_knn_k1_recovers_own_label(self):
        rng = np.random.default_rng(1)
        d = labeled_dataset(rng)
        clf = KNN(k=1).fit(d.y, d.labels)
        assert np.array_equal(clf.classify(d.y), d.labels)

    def test_knn_distance_tie_lower_index(self):
        # the two training points are equidistant from the origin; the
        # vote set of size 1 must take the lower training index
        y = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
        labels = np.array([1, 2, 1, 2])
        clf = KNN(k=1).fit(y, labels)
        assert clf.classify(np.array([[0.0, 0.0]]))[0] == CLASS1

    def test_dqda_matches_quadratic_boundary_oracle(self):
        # equal means, variances (1, 1) vs (9, 9): the decision boundary is
        # |y|^2 = threshold from the per-class Gaussian likelihood ratio
        rng = np.random.default_rng(2)
        n = 400
        y = np.vstack([
            rng.normal(0, 1, size=(n, 2)),
            rng.normal(0, 3, size=(n, 2)),
        ])
        labels = np.array([1] * n + [2] * n)
        clf = DQDA().fit(y, labels)

        grid = np.array([[a, b]
                         for a in np.linspace(-6, 6, 50)
                         for b in np.linspace(-6, 6, 50)])
        got = clf.classify(grid)

        # analytic ratio with the *estimated* parameters
        mean1, var1 = clf.means[CLASS1], clf.vars[CLASS1]
        mean2, var2 = clf.means[CLASS2], clf.vars[CLASS2]
        ll1 = (-0.5 * (np.log(var1).sum() + ((grid - mean1) ** 2 / var1).sum(axis=1))
               + clf.log_prior[CLASS1])
        ll2 = (-0.5 * (np.log(var2).sum() + ((grid - mean2) ** 2 / var2).sum(axis=1))
               + clf.log_prior[CLASS2])
        want = np.where(ll1 >= ll2, CLASS1, CLASS2)
        assert np.array_equal(got, want)

    def test_nb_and_dqda_agree(self):
        rng = np.random.default_rng(3)
        d = labeled_dataset(rng, p=4, n_per=30, sep=1.0)
        test = rng.standard_normal((50, 4))
        nb = GaussianNB().fit(d.y, d.labels).classify(test)
        dqda = DQDA().fit(d.y, d.labels).classify(test)
        reference = GaussianNBReference().fit(d.y, d.labels).classify(test)
        assert np.array_equal(nb, reference)
        assert np.array_equal(dqda, reference)
        assert np.array_equal(nb, dqda)

    def test_training_order_invariance(self):
        rng = np.random.default_rng(4)
        d = labeled_dataset(rng, p=3, n_per=25)
        test = rng.standard_normal((40, 3))
        perm = rng.permutation(d.n)
        for clf_maker in (LDA, DLDA, DQDA, GaussianNB):
            base = clf_maker().fit(d.y, d.labels).classify(test)
            shuffled = clf_maker().fit(d.y[perm], d.labels[perm]).classify(test)
            assert np.array_equal(base, shuffled), clf_maker.__name__

    def test_single_class_training_rejected(self):
        y = np.zeros((4, 2))
        labels = np.array([1, 1, 1, 1])
        for clf in (LDA(), DLDA(), DQDA(), GaussianNB(), KNN()):
            with pytest.raises(ValidationError):
                clf.fit(y, labels)


class TestSplits:
    def test_deterministic_and_stratified(self):
        labels = np.array([1] * 30 + [2] * 18)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        tr1, te1 = stratified_split(labels, 2 / 3, rng1)
        tr2, te2 = stratified_split(labels, 2 / 3, rng2)
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
        assert np.sum(labels[tr1] == 1) == round(2 / 3 * 30)
        assert np.sum(labels[tr1] == 2) == round(2 / 3 * 18)
        assert len(set(tr1) & set(te1)) == 0
        assert len(tr1) + len(te1) == 48

    def test_plan_validation(self):
        with pytest.raises(InputError):
            SplitPlan(n_replicates=0)
        with pytest.raises(InputError):
            SplitPlan(n_replicates=5, train_fraction=1.0)


class TestBenchmark:
    def test_perfect_separability_zero_error(self):
        rng = np.random.default_rng(6)
        d = labeled_dataset(rng, p=3, n_per=24, sep=12.0)
        plan = SplitPlan(n_replicates=3, seed=1)
        cfg = ChainConfig(iterations=200, burn_in=50, thin=1)
        result = benchmark(d, plan, classifiers=("knn", "lda", "dlda", "dqda", "nbc", "bgbc"),
                           bggm_config=cfg)
        for name, mean_err in result.mean.items():
            assert mean_err == pytest.approx(0.0), name

    def test_requires_full_labels(self):
        rng = np.random.default_rng(7)
        d = labeled_dataset(rng)
        labels = d.labels.copy()
        labels[0] = 0
        d_unlab = Dataset(d.y, labels, d.names)
        with pytest.raises(ValidationError):
            benchmark(d_unlab, SplitPlan(n_replicates=1))

    def test_replicate_rows_reproducible(self):
        rng = np.random.default_rng(8)
        d = labeled_dataset(rng, p=3, n_per=15, sep=1.0)
        plan3 = SplitPlan(n_replicates=3, seed=9)
        baselines_only = ("knn", "lda", "dlda")
        r3 = benchmark(d, plan3, classifiers=baselines_only)
        # rerunning the full plan reproduces each replicate's row
        r3b = benchmark(d, plan3, classifiers=baselines_only)
        assert np.array_equal(r3.errors, r3b.errors)
        assert r3.replicate_seeds == r3b.replicate_seeds

    def test_unknown_classifier_rejected(self):
        rng = np.random.default_rng(10)
        d = labeled_dataset(rng)
        for classifiers in (("svm",), (), ("lda", "lda")):
            with pytest.raises(InputError):
                benchmark(d, SplitPlan(n_replicates=1), classifiers=classifiers)

    def test_bgbc_beats_mean_blind_baselines_on_covariance_signal(self):
        # equal means, different precisions: LDA and DLDA are blind here
        model = generate_model(4, 0, 4, (0.6, 0.8), seed=31)
        d = sample_data(model, 40, 40, seed=32)
        plan = SplitPlan(n_replicates=2, seed=33)
        cfg = ChainConfig(iterations=800, burn_in=200, thin=1)
        result = benchmark(d, plan, classifiers=("lda", "dlda", "bgbc"),
                           bggm_config=cfg)
        assert result.mean["bgbc"] < 50.0
