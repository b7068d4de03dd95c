import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst

from bggm.errors import InputError, ValidationError
from bggm.model import (
    CLASS1,
    CLASS2,
    UNKNOWN,
    Dataset,
    Hyperparameters,
    PriorNetwork,
    apply_prior_network,
    center_mean_prior,
    default_hyperparameters,
    validate_state,
)
from bggm.sampler import init_state

from bggm.pdcore import hadamard_correlation
from oracles import empty_dataset, validate_state_reference


def small_dataset(rng=None, n_per=4, p=3, unknown=0):
    rng = rng or np.random.default_rng(0)
    y = rng.standard_normal((2 * n_per + unknown, p))
    labels = np.array([CLASS1] * n_per + [CLASS2] * n_per + [UNKNOWN] * unknown)
    return Dataset(y, labels, tuple(f"P{i}" for i in range(p)))


class TestDataset:
    def test_valid_construction(self):
        d = small_dataset()
        assert d.n == 8 and d.p == 3

    def test_rejects_non_finite(self):
        y = np.zeros((4, 2))
        y[1, 1] = np.inf
        with pytest.raises(InputError):
            Dataset(y, np.array([1, 1, 2, 2]), ("a", "b"))

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 2)), np.array([1, 7]), ("a", "b"))

    def test_rejects_single_protein(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((4, 1)), np.array([1, 1, 2, 2]), ("a",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 2)), np.array([1, 2]), ("a", "a"))

    def test_empty_dataset_for_prior_studies(self):
        d = empty_dataset(4)
        assert d.n == 0 and d.p == 4

    def test_require_labeled(self):
        d = Dataset(np.zeros((3, 2)), np.array([1, 1, 0]), ("a", "b"))
        with pytest.raises(ValidationError):
            d.require_labeled(min_per_class=1)


class TestDefaultHyperparameters:
    def test_edge_prior_mean_half(self):
        h = default_hyperparameters(3)
        q_mean = h.edge_a / (h.edge_a + h.edge_b)
        assert np.allclose(q_mean, 0.5)

    def test_inverse_gamma_is_vague(self):
        h = default_hyperparameters(3)
        assert h.s_shape == 1.0 and h.s_scale == 1.0

    def test_label_prior(self):
        h = default_hyperparameters(3)
        assert h.label_eta == 2.0 and h.label_zeta == 2.0

    def test_b0_diagonal_pd(self):
        h = default_hyperparameters(3)
        for k in range(2):
            assert np.allclose(h.b0[k], 1e-2 * np.eye(3))

    @pytest.mark.parametrize("p", [2, 7, 50, 200])
    def test_valid_for_many_dims(self, p):
        h = default_hyperparameters(p)
        assert h.p == p

    def test_rejects_p_below_2(self):
        with pytest.raises(InputError):
            default_hyperparameters(1)


class TestPriorNetwork:
    def test_important_edge_sets_10_2(self):
        h = default_hyperparameters(3)
        net = PriorNetwork((("P0", "P1", "important", "both"),))
        h2 = apply_prior_network(h, net, ("P0", "P1", "P2"))
        for k in range(2):
            assert h2.edge_a[k, 0, 1] == 10.0 and h2.edge_b[k, 0, 1] == 2.0
            assert h2.edge_a[k, 1, 0] == 10.0
        mean = h2.edge_a[0, 0, 1] / (h2.edge_a[0, 0, 1] + h2.edge_b[0, 0, 1])
        assert mean == pytest.approx(10.0 / 12.0)

    def test_unimportant_edge_sets_2_10(self):
        h = default_hyperparameters(3)
        net = PriorNetwork((("P0", "P2", "unimportant"),))
        h2 = apply_prior_network(h, net, ("P0", "P1", "P2"))
        mean = h2.edge_a[1, 0, 2] / (h2.edge_a[1, 0, 2] + h2.edge_b[1, 0, 2])
        assert mean == pytest.approx(2.0 / 12.0)

    def test_empty_network_no_change(self):
        h = default_hyperparameters(3)
        h2 = apply_prior_network(h, PriorNetwork(()), ("P0", "P1", "P2"))
        assert np.array_equal(h.edge_a, h2.edge_a)
        assert np.array_equal(h.edge_b, h2.edge_b)

    def test_scope_restricts_class(self):
        h = default_hyperparameters(3)
        net = PriorNetwork((("P0", "P1", "important", "class2"),))
        h2 = apply_prior_network(h, net, ("P0", "P1", "P2"))
        assert h2.edge_a[0, 0, 1] == 2.0  # class 1 untouched
        assert h2.edge_a[1, 0, 1] == 10.0

    def test_unknown_name_rejected(self):
        net = PriorNetwork((("P0", "NOPE", "important"),))
        with pytest.raises(ValidationError):
            apply_prior_network(default_hyperparameters(3), net, ("P0", "P1", "P2"))

    def test_duplicate_pair_rejected(self):
        net = PriorNetwork((
            ("P0", "P1", "important"),
            ("P1", "P0", "unimportant"),
        ))
        with pytest.raises(ValidationError):
            apply_prior_network(default_hyperparameters(3), net, ("P0", "P1", "P2"))

    def test_self_edge_rejected(self):
        net = PriorNetwork((("P0", "P0", "important"),))
        with pytest.raises(ValidationError):
            apply_prior_network(default_hyperparameters(3), net, ("P0", "P1", "P2"))

    def test_bad_evidence_rejected(self):
        with pytest.raises(ValidationError):
            PriorNetwork((("P0", "P1", "critical"),))

    def test_idempotent(self):
        h = default_hyperparameters(3)
        net = PriorNetwork((("P0", "P1", "important"),))
        names = ("P0", "P1", "P2")
        once = apply_prior_network(h, net, names)
        twice = apply_prior_network(once, net, names)
        assert np.array_equal(once.edge_a, twice.edge_a)
        assert np.array_equal(once.edge_b, twice.edge_b)

    def test_commutative_on_disjoint_edges(self):
        h = default_hyperparameters(4)
        names = ("P0", "P1", "P2", "P3")
        n1 = PriorNetwork((("P0", "P1", "important"),))
        n2 = PriorNetwork((("P2", "P3", "unimportant"),))
        ab = apply_prior_network(apply_prior_network(h, n1, names), n2, names)
        ba = apply_prior_network(apply_prior_network(h, n2, names), n1, names)
        assert np.array_equal(ab.edge_a, ba.edge_a)
        assert np.array_equal(ab.edge_b, ba.edge_b)


class TestCenterMeanPrior:
    def test_mu0_set_to_class_means(self):
        d = small_dataset()
        h = center_mean_prior(default_hyperparameters(d.p), d)
        assert np.allclose(h.mu0[0], d.y[d.labels == CLASS1].mean(axis=0))
        assert np.allclose(h.mu0[1], d.y[d.labels == CLASS2].mean(axis=0))


class TestChainState:
    def test_fresh_state_validates(self):
        d = small_dataset(unknown=2)
        st = init_state(d, default_hyperparameters(d.p))
        assert validate_state(st) == []

    def test_non_pd_violation_detected(self):
        d = small_dataset()
        st = init_state(d, default_hyperparameters(d.p))
        st.a[0, 0, 1] = st.a[0, 1, 0] = 1
        st.a[0, 0, 2] = st.a[0, 2, 0] = 1
        st.a[0, 1, 2] = st.a[0, 2, 1] = 1
        st.r[0, 0, 1] = st.r[0, 1, 0] = 0.9
        st.r[0, 0, 2] = st.r[0, 2, 0] = 0.9
        st.r[0, 1, 2] = st.r[0, 2, 1] = -0.9
        violations = validate_state(st)
        assert any(v.startswith("PD") for v in violations)


def fresh_state(p=4):
    """A valid initial state over a dataset with unknown rows."""
    d = small_dataset(p=p, unknown=3)
    st = init_state(d, default_hyperparameters(p))
    assert validate_state(st) == []
    return st


PER_CLASS = ("A", "A-diag", "R", "R-diag", "R-range", "S", "q", "PD")
SHARED = ("pi", "labels", "h", "z_u", "mu")


def plant(st, prefix, k=None):
    """Break the invariant whose message starts with ``prefix``, in class
    ``k`` for a per-class one, and nothing else. The plants touch
    different entries, so all of them can stand together."""
    if prefix == "A":
        st.a[k, 2, 3] = 1  # a[k, 3, 2] stays 0; r = 0 keeps A o R symmetric
        st.r[k, 2, 3] = st.r[k, 3, 2] = 0.0
    elif prefix == "A-diag":
        st.a[k, 0, 0] = 0
    elif prefix == "R":
        st.r[k, 0, 3] = 0.25  # an inactive entry, so A o R stays symmetric
    elif prefix == "R-diag":
        st.r[k, 1, 1] = 0.5
    elif prefix == "R-range":
        st.r[k, 1, 3] = st.r[k, 3, 1] = 1.5
    elif prefix == "S":
        st.s[k, 2] = 0.0
    elif prefix == "q":
        st.q[k] = 1.0
    elif prefix == "PD":
        # a 3-cycle of strong correlations whose signs cannot all hold
        for (i, j), x in (((0, 1), 0.9), ((0, 2), 0.9), ((1, 2), -0.9)):
            st.a[k, i, j] = st.a[k, j, i] = 1
            st.r[k, i, j] = st.r[k, j, i] = x
    elif prefix == "pi":
        st.pi[0, 1] = 0.0
    elif prefix == "labels":
        st.h = st.h[:-1]
    elif prefix == "h":
        st.h[0] = 1.0
    elif prefix == "z_u":
        st.z_u[1] = 0
    elif prefix == "mu":
        st.mu[1, 0] = np.nan


class TestValidateState:
    """Each of the 13 invariants, broken alone, gives exactly its message;
    the stacked check agrees with the per-class reference."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("prefix", PER_CLASS)
    def test_each_class_violation_alone(self, prefix, k):
        st = fresh_state()
        plant(st, prefix, k)
        violations = validate_state(st)
        assert len(violations) == 1
        assert violations[0].startswith(f"{prefix}: class {k + 1} ")
        assert violations == validate_state_reference(st)

    @pytest.mark.parametrize("prefix", SHARED)
    def test_each_shared_violation_alone(self, prefix):
        st = fresh_state()
        plant(st, prefix)
        violations = validate_state(st)
        assert len(violations) == 1
        assert violations[0].startswith(f"{prefix}: ")
        assert violations == validate_state_reference(st)

    def test_messages_and_order(self):
        st = fresh_state()
        for k in (1, 0):
            for prefix in PER_CLASS:
                plant(st, prefix, k)
        for prefix in SHARED:
            plant(st, prefix)
        assert validate_state(st) == [
            "A: class 1 selection matrix not symmetric binary",
            "A-diag: class 1 selection diagonal not all 1",
            "R: class 1 correlation matrix not symmetric",
            "R-diag: class 1 correlation diagonal not all 1",
            "R-range: class 1 entries outside [-1, 1]",
            "S: class 1 scales not strictly positive",
            "q: class 1 edge probabilities outside (0, 1)",
            "PD: class 1 effective correlation not positive definite",
            "A: class 2 selection matrix not symmetric binary",
            "A-diag: class 2 selection diagonal not all 1",
            "R: class 2 correlation matrix not symmetric",
            "R-diag: class 2 correlation diagonal not all 1",
            "R-range: class 2 entries outside [-1, 1]",
            "S: class 2 scales not strictly positive",
            "q: class 2 edge probabilities outside (0, 1)",
            "PD: class 2 effective correlation not positive definite",
            "pi: differential probabilities outside (0, 1)",
            "labels: h and z_u length mismatch",
            "h: unknown-label probabilities outside (0, 1)",
            "z_u: sampled labels must be 1 or 2",
            "mu: non-finite entries",
        ]

    @pytest.mark.parametrize("k", [0, 1])
    def test_near_singular_is_not_pd(self, k):
        # Cholesky succeeds, but the last pivot squared is about 2e-12,
        # below PD_PIVOT_TOL
        st = fresh_state()
        st.a[k, 0, 1] = st.a[k, 1, 0] = 1
        st.r[k, 0, 1] = st.r[k, 1, 0] = 1.0 - 1e-12
        np.linalg.cholesky(hadamard_correlation(st.a[k], st.r[k]))
        assert validate_state(st) == [
            f"PD: class {k + 1} effective correlation not positive definite"]
        assert validate_state(st) == validate_state_reference(st)

    @pytest.mark.parametrize("other_not_pd", [False, True])
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("case", ["nan", "nan-dormant", "asymmetric"])
    def test_bad_r_is_reported_not_raised(self, case, k, other_not_pd):
        # the per-class reference raises InputError on these, from
        # is_positive_definite; a non-PD other class makes the stacked
        # Cholesky fail, so each class is then factored by itself
        st = init_state(empty_dataset(4), default_hyperparameters(4))
        if case == "asymmetric":
            st.a[k, 0, 1] = st.a[k, 1, 0] = 1
            st.r[k, 0, 1], st.r[k, 1, 0] = 0.3, 0.2
        else:
            st.a[k, 0, 1] = st.a[k, 1, 0] = case == "nan"
            st.r[k, 0, 1] = np.nan
        want = [f"R: class {k + 1} correlation matrix not symmetric",
                f"PD: class {k + 1} effective correlation not positive definite"]
        if other_not_pd:
            plant(st, "PD", 1 - k)
            other = f"PD: class {2 - k} effective correlation not positive definite"
            want = [other] + want if k else want + [other]
        assert validate_state(st) == want

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(hst.lists(hst.tuples(
        hst.sampled_from(["a", "r", "s", "q", "pi", "h", "z_u", "mu", "drop_h"]),
        hst.integers(0, 1), hst.integers(0, 3), hst.integers(0, 3),
        hst.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, -0.95, 0.95, 1.0 - 1e-12,
                          1.5, 1e-300, np.nan, np.inf])),
        max_size=6))
    def test_matches_reference(self, moves):
        st = fresh_state()
        for field, k, i, j, x in moves:
            if field == "a":
                st.a[k, i, j] = st.a[k, j, i] = int(x) if np.isfinite(x) else 1
            elif field == "r" and np.isfinite(x):
                st.r[k, i, j] = st.r[k, j, i] = x
            elif field == "s":
                st.s[k, i] = x
            elif field in ("q", "pi"):
                arr = st.q[k] if field == "q" else st.pi
                arr[i, j] = arr[j, i] = x
            elif field == "h" and i < len(st.h):
                st.h[i] = x
            elif field == "z_u" and i < len(st.z_u) and np.isfinite(x):
                st.z_u[i] = int(x)
            elif field == "mu":
                st.mu[k, i] = x
            elif field == "drop_h":
                st.h = st.h[:-1]
        for k in range(2):
            c = hadamard_correlation(st.a[k], st.r[k])
            assume(np.all(np.isfinite(c)) and np.array_equal(c, c.T))
        assert validate_state(st) == validate_state_reference(st)


class TestHyperparameterValidation:
    def test_rejects_nonpositive_beta(self):
        h = default_hyperparameters(3)
        bad = h.edge_a.copy()
        bad[0, 0, 1] = 0.0
        with pytest.raises(InputError):
            Hyperparameters(edge_a=bad, edge_b=h.edge_b, diff_e=h.diff_e,
                            diff_f=h.diff_f, s_shape=h.s_shape, s_scale=h.s_scale,
                            label_eta=h.label_eta, label_zeta=h.label_zeta,
                            mu0=h.mu0, b0=h.b0)

    def test_rejects_non_pd_b0(self):
        h = default_hyperparameters(3)
        bad = h.b0.copy()
        bad[1] = 0.0
        with pytest.raises(InputError):
            Hyperparameters(edge_a=h.edge_a, edge_b=h.edge_b, diff_e=h.diff_e,
                            diff_f=h.diff_f, s_shape=h.s_shape, s_scale=h.s_scale,
                            label_eta=h.label_eta, label_zeta=h.label_zeta,
                            mu0=h.mu0, b0=bad)
