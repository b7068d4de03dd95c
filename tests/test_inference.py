import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bggm.errors import InputError
from bggm.inference import (
    NET_CLASS1,
    NET_CLASS2,
    NET_CONSERVED,
    NET_DIFFERENTIAL,
    PHI_EMPTY,
    call_network,
    fdr_threshold,
    predict_labels,
    summarize,
)
from bggm.model import CLASS1, CLASS2
from bggm.sampler import ChainConfig, ChainSamples


def make_samples(a, r, s=None, mu=None, z_u=None, unknown_rows=None):
    """Assemble a ChainSamples by hand from (M, 2, p, p) arrays."""
    a = np.asarray(a, dtype=np.uint8)
    r = np.asarray(r, dtype=float)
    m, _, p, _ = a.shape
    if z_u is None:
        z_u = np.zeros((m, 0), dtype=np.uint8)
        unknown_rows = np.zeros(0, dtype=int)
    cfg = ChainConfig(iterations=max(m, 1), burn_in=0, thin=1, seed=0)
    return ChainSamples(
        config=cfg, unknown_rows=np.asarray(unknown_rows),
        a=a, r=r,
        s=np.ones((m, 2, p)) if s is None else np.asarray(s, float),
        mu=np.zeros((m, 2, p)) if mu is None else np.asarray(mu, float),
        z_u=np.asarray(z_u, dtype=np.uint8),
        counts={},
    )


def eye_stack(m, p):
    out = np.zeros((m, 2, p, p))
    out[:] = np.eye(p)
    return out


class TestSummarize:
    def test_always_on_edge_gives_ppi_one(self):
        p, m = 3, 6
        a = eye_stack(m, p).astype(np.uint8)
        a[:, :, 0, 1] = a[:, :, 1, 0] = 1
        r = eye_stack(m, p)
        r[:, :, 0, 1] = r[:, :, 1, 0] = -0.4
        summary = summarize(make_samples(a, r))
        assert summary.ppi_class1[0, 1] == 1.0
        assert summary.ppi_class2[0, 1] == 1.0
        assert summary.ppi_diff[0, 1] == 0.0

    def test_alternating_lambda_splits_half(self):
        p, m = 2, 10
        a = eye_stack(m, p).astype(np.uint8)
        a[::2, 0, 0, 1] = a[::2, 0, 1, 0] = 1  # class 1 edge on even draws
        r = eye_stack(m, p)
        summary = summarize(make_samples(a, r))
        assert summary.ppi_diff[0, 1] == pytest.approx(0.5)
        assert summary.ppi_common[0, 1] == pytest.approx(0.5)
        assert (summary.ppi_diff + summary.ppi_common)[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_three_draw_toy_chain_by_hand(self):
        p = 2
        a = eye_stack(3, p).astype(np.uint8)
        r = eye_stack(3, p)
        s = np.ones((3, 2, p))
        # draw 0: class1 edge with r=-0.5; draw 1: off; draw 2: on with r=-0.7
        for t, val in ((0, -0.5), (2, -0.7)):
            a[t, 0, 0, 1] = a[t, 0, 1, 0] = 1
            r[t, 0, 0, 1] = r[t, 0, 1, 0] = val
        s[1, 0, :] = 2.0
        summary = summarize(make_samples(a, r, s=s))
        # ppi: 2 of 3 draws on
        assert summary.ppi_class1[0, 1] == pytest.approx(2 / 3)
        # mean partial correlation: mean of (0.5, 0, 0.7)
        assert summary.mean_partial_corr[0][0, 1] == pytest.approx((0.5 + 0.7) / 3)
        # BMA omega off-diagonal: mean of (-0.5, 0, -0.7); diagonal mean of (1, 4, 1)
        assert summary.bma_omega[0][0, 1] == pytest.approx((-0.5 - 0.7) / 3)
        assert summary.bma_omega[0][0, 0] == pytest.approx((1 + 4 + 1) / 3)
        assert summary.bma_omega[1][0, 1] == 0.0

    def test_class_probability_from_draws(self):
        p, m = 2, 4
        a = eye_stack(m, p).astype(np.uint8)
        r = eye_stack(m, p)
        z = np.array([[1, 1], [1, 2], [1, 2], [1, 2]], dtype=np.uint8)
        summary = summarize(make_samples(a, r, z_u=z, unknown_rows=np.array([5, 9])))
        assert summary.class1_probability[0] == pytest.approx(1.0)
        assert summary.class1_probability[1] == pytest.approx(0.25)

    def test_empty_draws_rejected(self):
        p = 2
        samples = make_samples(np.zeros((0, 2, p, p)), np.zeros((0, 2, p, p)))
        with pytest.raises(InputError):
            summarize(samples)


class TestFdrThreshold:
    def test_all_ones_selected(self):
        phi, count = fdr_threshold([1.0, 1.0, 1.0], 0.05)
        assert phi == 1.0 and count == 3

    def test_worked_example(self):
        # sorted q-values: 0.01, 0.05, 0.10, 0.50; running means
        # 0.01, 0.03, 0.0533..., 0.165 -> cutoff at the third entry
        phi, count = fdr_threshold([0.99, 0.95, 0.90, 0.50], 0.10)
        assert phi == pytest.approx(0.90)
        assert count == 3

    def test_nothing_selected(self):
        phi, count = fdr_threshold([0.5, 0.4], 0.10)
        assert count == 0 and phi > 1.0
        assert phi == PHI_EMPTY

    def test_alpha_validation(self):
        with pytest.raises(InputError):
            fdr_threshold([0.5], 0.0)
        with pytest.raises(InputError):
            fdr_threshold([0.5], 1.0)
        with pytest.raises(InputError):
            fdr_threshold([], 0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
           st.floats(min_value=0.01, max_value=0.99))
    def test_permutation_invariance(self, probs, alpha):
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(probs)
        assert fdr_threshold(probs, alpha) == fdr_threshold(shuffled, alpha)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    def test_monotone_in_alpha(self, probs):
        counts = [fdr_threshold(probs, alpha)[1] for alpha in (0.05, 0.1, 0.2, 0.4)]
        assert counts == sorted(counts)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.95, max_value=1.0), min_size=1, max_size=20))
    def test_high_probs_all_selected(self, probs):
        alpha = 0.1
        # every prob >= 1 - alpha, so every prefix has mean q <= alpha
        phi, count = fdr_threshold(probs, alpha)
        assert count == len(probs)


def uniform_summary(p, ppi_val=1.0, pc_val=0.3, diff_val=0.0):
    m = 8
    a = eye_stack(m, p).astype(np.uint8)
    r = eye_stack(m, p)
    iu = np.triu_indices(p, 1)
    for t in range(m):
        for k in range(2):
            a[t, k][iu] = 1
            a[t, k].T[iu] = 1
            r[t, k][iu] = -pc_val
            r[t, k].T[iu] = -pc_val
    return summarize(make_samples(a, r))


class TestCallNetwork:
    def test_all_edges_called_positive(self):
        p = 4
        summary = uniform_summary(p, pc_val=0.3)
        call = call_network(summary, NET_CLASS1, 0.1)
        assert len(call.edges) == p * (p - 1) // 2
        assert all(e.sign == "positive" for e in call.edges)
        assert all(e.ppi == 1.0 for e in call.edges)
        # weights are max-normalized; all equal here
        assert all(e.weight == pytest.approx(1.0) for e in call.edges)

    def test_differential_carrier_annotation(self):
        p = 2
        m = 4
        a = eye_stack(m, p).astype(np.uint8)
        a[:, 0, 0, 1] = a[:, 0, 1, 0] = 1  # class 1 carries the edge
        r = eye_stack(m, p)
        r[:, 0, 0, 1] = r[:, 0, 1, 0] = -0.5
        summary = summarize(make_samples(a, r))
        call = call_network(summary, NET_DIFFERENTIAL, 0.2)
        assert len(call.edges) == 1
        assert call.edges[0].carrier == "class1"

    def test_conserved_and_differential_ppis_complement(self):
        p = 3
        summary = uniform_summary(p)
        diff = summary.ppi_diff
        common = summary.ppi_common
        iu = np.triu_indices(p, 1)
        assert np.allclose(diff[iu] + common[iu], 1.0, atol=1e-12)

    def test_unknown_network_rejected(self):
        summary = uniform_summary(3)
        with pytest.raises(InputError):
            call_network(summary, "bogus", 0.1)

    def test_empty_call_set(self):
        p = 3
        m = 10
        a = eye_stack(m, p).astype(np.uint8)
        a[0, 0, 0, 1] = a[0, 0, 1, 0] = 1  # ppi 0.1 on one edge
        r = eye_stack(m, p)
        summary = summarize(make_samples(a, r))
        call = call_network(summary, NET_CLASS1, 0.05)
        assert call.edges == ()
        assert call.threshold > 1.0


class TestPredictLabels:
    def _summary_with_probs(self, probs):
        m = len(probs) and 4
        p = 2
        a = eye_stack(4, p).astype(np.uint8)
        r = eye_stack(4, p)
        z = np.zeros((4, len(probs)), dtype=np.uint8)
        for col, prob in enumerate(probs):
            n1 = int(round(prob * 4))
            z[:n1, col] = CLASS1
            z[n1:, col] = CLASS2
        return summarize(make_samples(a, r, z_u=z,
                                      unknown_rows=np.arange(len(probs))))

    def test_tie_goes_to_class1(self):
        summary = self._summary_with_probs([0.5])
        classes, probs = predict_labels(summary)
        assert classes[0] == CLASS1 and probs[0] == 0.5

    def test_high_probability_class1(self):
        summary = self._summary_with_probs([0.75, 0.25])
        classes, probs = predict_labels(summary)
        assert classes[0] == CLASS1 and classes[1] == CLASS2
        assert probs[0] == pytest.approx(0.75)

    def test_majority_vote_agreement(self):
        rng = np.random.default_rng(3)
        z = rng.choice([CLASS1, CLASS2], size=(101, 7)).astype(np.uint8)
        p = 2
        a = eye_stack(101, p).astype(np.uint8)
        r = eye_stack(101, p)
        summary = summarize(make_samples(a, r, z_u=z, unknown_rows=np.arange(7)))
        classes, _ = predict_labels(summary)
        majority = np.where((z == CLASS1).sum(axis=0) * 2 >= len(z), CLASS1, CLASS2)
        assert np.array_equal(classes, majority)

    def test_no_unknowns_rejected(self):
        summary = uniform_summary(3)
        with pytest.raises(InputError):
            predict_labels(summary)
