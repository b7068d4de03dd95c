import numpy as np
import pytest

from bggm.errors import InputError
from bggm.model import CLASS1, CLASS2
from bggm.pdcore import is_positive_definite
from bggm.synthetic import (
    EDGE_CONSERVED,
    EDGE_DIFF_CLASS1,
    EDGE_DIFF_CLASS2,
    EDGE_NULL,
    generate_model,
    sample_data,
)
from bggm.inference import NET_CLASS1, NetworkCall, EdgeCall
from oracles import _rank_auc, differential_truth, partial_correlations, score_recovery


class TestGenerateModel:
    def test_no_edges_gives_diagonal(self):
        m = generate_model(4, 0, 0, (0.4, 0.7), seed=0)
        for k in range(2):
            assert np.allclose(m.omega[k], np.diag(np.diag(m.omega[k])))
        assert all(lab == EDGE_NULL for lab in m.edge_labels.values())

    def test_deterministic_given_seed(self):
        m1 = generate_model(5, 3, 0, (0.4, 0.7), seed=11)
        m2 = generate_model(5, 3, 0, (0.4, 0.7), seed=11)
        assert np.array_equal(m1.adjacency, m2.adjacency)
        assert np.array_equal(m1.omega, m2.omega)

    def test_label_consistency(self):
        m = generate_model(8, 5, 4, (0.4, 0.7), seed=3)
        lam = differential_truth(m)
        for (i, j), label in m.edge_labels.items():
            in1 = m.adjacency[0, i, j] == 1
            in2 = m.adjacency[1, i, j] == 1
            if label == EDGE_CONSERVED:
                assert in1 and in2 and lam[i, j] == 0
            elif label == EDGE_DIFF_CLASS1:
                assert in1 and not in2 and lam[i, j] == 1
            elif label == EDGE_DIFF_CLASS2:
                assert in2 and not in1 and lam[i, j] == 1
            else:
                assert not in1 and not in2

    def test_omegas_positive_definite(self):
        m = generate_model(10, 8, 4, (0.4, 0.7), seed=7)
        for k in range(2):
            assert is_positive_definite(m.omega[k])

    def test_partial_correlation_roundtrip(self):
        # inverting omega and re-deriving partial correlations recovers the
        # inserted values (where no shrinkage occurred)
        m = generate_model(6, 4, 2, (0.3, 0.5), seed=5)
        for k in range(2):
            rho = partial_correlations(m.omega[k])
            iu = np.triu_indices(6, 1)
            assert np.allclose(rho[iu], m.partial_corr[k][iu], atol=1e-10)

    def test_infeasible_edge_count_rejected(self):
        with pytest.raises(InputError):
            generate_model(3, 3, 1, (0.4, 0.7), seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be non-negative"):
            generate_model(3, 1, 1, (0.4, 0.7), seed=-1)


class TestSampleData:
    def test_covariance_matches_at_large_n(self):
        m = generate_model(3, 2, 0, (0.4, 0.6), seed=9)
        d = sample_data(m, 5000, 5000, seed=10)
        for k, cls in enumerate((CLASS1, CLASS2)):
            block = d.y[d.labels == cls]
            emp = np.cov(block, rowvar=False)
            want = np.linalg.inv(m.omega[k])
            rel = np.linalg.norm(emp - want) / np.linalg.norm(want)
            assert rel < 0.05

    def test_reproducible(self):
        m = generate_model(4, 2, 2, (0.4, 0.7), seed=1)
        d1 = sample_data(m, 10, 10, seed=2)
        d2 = sample_data(m, 10, 10, seed=2)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(d1.labels, d2.labels)

    def test_labels_attached(self):
        m = generate_model(3, 1, 0, (0.4, 0.6), seed=4)
        d = sample_data(m, 7, 5, seed=5)
        assert int(np.sum(d.labels == CLASS1)) == 7
        assert int(np.sum(d.labels == CLASS2)) == 5


class TestScoreRecovery:
    def _perfect_summary(self, m):
        # hand-build a summary whose PPIs equal the truth
        from test_inference import make_samples
        p = m.p
        a = np.zeros((2, 2, p, p), dtype=np.uint8)
        a[:] = m.adjacency
        r = np.zeros((2, 2, p, p))
        r[:] = np.where(m.adjacency == 1, -m.partial_corr, 0.0)
        for t in range(2):
            for k in range(2):
                np.fill_diagonal(r[t, k], 1.0)
        from bggm.inference import summarize
        return summarize(make_samples(a, r))

    def test_perfect_ppis_score_auc_one(self):
        m = generate_model(6, 4, 2, (0.4, 0.7), seed=21)
        summary = self._perfect_summary(m)
        scores = score_recovery(m, summary)
        assert scores["auc_class1"] == pytest.approx(1.0)
        assert scores["auc_class2"] == pytest.approx(1.0)
        assert scores["auc_diff"] == pytest.approx(1.0)

    def test_random_ppis_score_near_half(self):
        rng = np.random.default_rng(22)
        p = 30
        m = generate_model(p, 60, 40, (0.2, 0.4), seed=23)
        pos = m.adjacency[0][np.triu_indices(p, 1)] > 0
        scores = rng.random(pos.size)
        auc = _rank_auc(scores, pos)
        assert abs(auc - 0.5) < 0.1

    def test_fdp_and_sensitivity_of_call(self):
        m = generate_model(5, 2, 0, (0.4, 0.7), seed=25)
        true_edges = [pair for pair, lab in m.edge_labels.items()
                      if lab == EDGE_CONSERVED]
        false_edge = next(pair for pair, lab in m.edge_labels.items()
                          if lab == EDGE_NULL)
        edges = [EdgeCall(i=i, j=j, ppi=1.0, sign="positive", weight=1.0)
                 for i, j in true_edges[:1] + [false_edge]]
        call = NetworkCall(which=NET_CLASS1, alpha=0.1, threshold=0.9,
                           edges=tuple(edges))
        metrics = score_recovery(m, call)
        assert metrics["called"] == 2
        assert metrics["fdp"] == pytest.approx(0.5)
        assert metrics["sensitivity"] == pytest.approx(1 / len(true_edges))

    def test_auc_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(26)
        truth = rng.random(40) < 0.3
        scores = rng.random(40)
        base = _rank_auc(scores, truth)
        assert _rank_auc(np.exp(3 * scores), truth) == pytest.approx(base)
        assert _rank_auc(scores ** 3, truth) == pytest.approx(base)
