import numpy as np
import pytest

from bggm.errors import InputError
from bggm.pdcore import (
    det_ratio,
    entry_kernel,
    hadamard_correlation,
    is_positive_definite,
    mvn_logpdf_rows,
)
from oracles import (
    PreconditionError,
    PrecisionFactors,
    admissible_interval,
    assemble_precision,
    mvn_logpdf,
    partial_correlations,
)


def random_correlation(p, rng, strength=1.0):
    """Random PD correlation matrix via a Gram construction."""
    w = rng.standard_normal((p, p + 2)) * strength
    cov = w @ w.T + 0.1 * np.eye(p)
    d = np.sqrt(np.diag(cov))
    c = cov / np.outer(d, d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return np.clip(c, -1.0, 1.0)


def grid_pd_mask(c, i, j, xs, tol=1e-10):
    """Batched Cholesky over the grid of substituted (i, j) values; the
    brute-force oracle for admissible_interval."""
    n = xs.size
    p = c.shape[0]
    m = np.broadcast_to(c, (n, p, p)).copy()
    m[:, i, j] = xs
    m[:, j, i] = xs
    chol = np.zeros_like(m)
    ok = np.ones(n, dtype=bool)
    for k in range(p):
        pivot = m[:, k, k] - np.einsum("nj,nj->n", chol[:, k, :k], chol[:, k, :k])
        ok &= pivot > tol
        pivot = np.where(pivot > tol, pivot, 1.0)
        chol[:, k, k] = np.sqrt(pivot)
        if k + 1 < p:
            below = m[:, k + 1:, k] - np.einsum(
                "nij,nj->ni", chol[:, k + 1:, :k], chol[:, k, :k])
            chol[:, k + 1:, k] = below / chol[:, k, k][:, None]
    return ok


def interval_by_grid(c, i, j, step=1e-3):
    xs = np.arange(-1.0 + step, 1.0, step)
    ok = grid_pd_mask(c, i, j, xs)
    hits = np.where(ok)[0]
    assert hits.size, "grid scan found no PD value"
    return xs[hits[0]], xs[hits[-1]]


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_singular_2x2(self):
        assert not is_positive_definite(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_3x3_with_negative_eigenvalue(self):
        # eigenvalue oracle by characteristic polynomial: for a 3x3
        # correlation with off-diagonals (a, b, c) the determinant is
        # 1 + 2abc - a^2 - b^2 - c^2; with (0.9, 0.9, -0.9) it is
        # 1 - 1.458 - 2.43 < 0, so one eigenvalue must be negative.
        a, b, c = 0.9, 0.9, -0.9
        det = 1 + 2 * a * b * c - a * a - b * b - c * c
        assert det < 0
        m = np.array([[1, a, b], [a, 1, c], [b, c, 1.0]])
        assert not is_positive_definite(m)

    def test_non_finite_rejected(self):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(InputError):
            is_positive_definite(m)

    def test_asymmetric_rejected(self):
        m = np.eye(2)
        m[0, 1] = 0.5
        with pytest.raises(InputError):
            is_positive_definite(m)

    def test_near_singular_pivot_tolerance(self):
        m = np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
        assert not is_positive_definite(m)


class TestAdmissibleInterval:
    def test_2x2_full_range(self):
        c = np.array([[1.0, 0.3], [0.3, 1.0]])
        u, v = admissible_interval(c, 0, 1)
        assert u == pytest.approx(-1.0, abs=1e-9)
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_identity_3x3_decoupled(self):
        u, v = admissible_interval(np.eye(3), 1, 2)
        assert (u, v) == pytest.approx((-1.0, 1.0), abs=1e-9)

    def test_known_3x3_interval(self):
        # with the two other off-diagonals at 0.8 the analytic interval
        # for the free entry is (2*0.64 - 1, 1) = (0.28, 1)
        c = np.eye(3)
        c[0, 2] = c[2, 0] = 0.8
        c[1, 2] = c[2, 1] = 0.8
        c[0, 1] = c[1, 0] = 0.5
        u, v = admissible_interval(c, 0, 1)
        assert u == pytest.approx(0.28, abs=1e-9)
        assert v == pytest.approx(1.0, abs=1e-9)
        gu, gv = interval_by_grid(c, 0, 1)
        assert u == pytest.approx(gu, abs=2e-3)
        assert v == pytest.approx(gv, abs=2e-3)

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = random_correlation(4, rng)
            i, j = 0, 2
            u, v = admissible_interval(c, i, j)
            gu, gv = interval_by_grid(c, i, j)
            assert u == pytest.approx(gu, abs=2e-3)
            assert v == pytest.approx(gv, abs=2e-3)

    def test_contains_current_value_and_boundaries_fail(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = random_correlation(5, rng)
            i, j = sorted(rng.choice(5, size=2, replace=False))
            u, v = admissible_interval(c, i, j)
            assert u < c[i, j] < v
            for x in np.linspace(u, v, 102)[1:-1]:
                m = c.copy()
                m[i, j] = m[j, i] = x
                assert is_positive_definite(m)
            for edge, shift in ((v, 1e-2), (u, -1e-2)):
                x = np.clip(edge + shift, -1.0, 1.0)
                if abs(edge) == 1.0:
                    continue
                m = c.copy()
                m[i, j] = m[j, i] = x
                assert not is_positive_definite(m)

    def test_diagonal_entry_rejected(self):
        with pytest.raises(InputError):
            admissible_interval(np.eye(3), 1, 1)

    def test_non_pd_precondition(self):
        c = np.eye(3)
        c[0, 2] = c[2, 0] = 0.8
        c[1, 2] = c[2, 1] = 0.8  # entry (0,1) = 0 is outside (0.28, 1)
        with pytest.raises(PreconditionError):
            admissible_interval(c, 0, 1)

    def test_input_not_mutated(self):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = 0.4
        before = c.copy()
        admissible_interval(c, 0, 1)
        assert np.array_equal(c, before)


def moved(c, i, j, x):
    m = c.copy()
    m[i, j] = m[j, i] = x
    return m


def near_singular_correlation(p, rng):
    """Correlation matrix whose columns (2, 3) and (4, 5) are nearly
    collinear (condition number near 1e7): det of the block without
    rows/columns 0 and 1 falls below 1e-12."""
    g = rng.standard_normal((p, p + 2))
    g[3] = g[2] + 3e-3 * rng.standard_normal(p + 2)
    g[5] = g[4] + 3e-3 * rng.standard_normal(p + 2)
    cov = g @ g.T
    d = np.sqrt(np.diag(cov))
    c = cov / np.outer(d, d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


class TestEntryKernel:
    """The determinant-lemma kernel against direct determinant evaluation."""

    def check_kernel(self, c, i, j, tol=1e-9):
        x0 = c[i, j]
        w = np.linalg.inv(c)
        u, v, up_gap, down_gap = entry_kernel(w, i, j, x0)
        assert det_ratio(up_gap, down_gap, 0.0) == 1.0
        assert u < x0 < v
        base = np.linalg.slogdet(c)[1]
        for x in np.linspace(u, v, 9)[1:-1]:
            sign, logdet = np.linalg.slogdet(moved(c, i, j, x))
            assert sign > 0
            ratio = det_ratio(up_gap, down_gap, x - x0)
            assert np.log(ratio) == pytest.approx(logdet - base, abs=tol)
        for end in (u, v):
            ratio = det_ratio(up_gap, down_gap, end - x0)
            if abs(end) < 1.0:
                # a root of f: the moved matrix is singular
                assert ratio == pytest.approx(0.0, abs=1e-9)
                direct = np.linalg.det(moved(c, i, j, end)) / np.linalg.det(c)
                assert direct == pytest.approx(0.0, abs=1e-8)
            else:
                # clipped: the root lies beyond +-1
                assert ratio > 0.0

    @pytest.mark.parametrize("p", [3, 10, 40])
    def test_ratio_matches_slogdet_and_vanishes_at_endpoints(self, p):
        rng = np.random.default_rng(300 + p)
        for _ in range(10):
            c = random_correlation(p, rng)
            i, j = sorted(rng.choice(p, size=2, replace=False))
            self.check_kernel(c, i, j)

    def test_near_singular_matrix(self):
        # the interpolated quadratic det(x) = a2 x^2 + a1 x + a0 through
        # x = -1, 0, 1 has a leading coefficient below 1e-12 here
        c = near_singular_correlation(10, np.random.default_rng(8))
        assert is_positive_definite(c)
        dets = [np.linalg.det(moved(c, 0, 1, x)) for x in (-1.0, 0.0, 1.0)]
        assert abs(0.5 * (dets[0] + dets[2]) - dets[1]) < 1e-12
        # the LU log-determinant itself is only good to about
        # cond(C) * eps (1e-9) at this conditioning
        self.check_kernel(c, 0, 1, tol=1e-7)
        u, v = admissible_interval(c, 0, 1)
        gu, gv = interval_by_grid(c, 0, 1)
        assert u == pytest.approx(gu, abs=2e-3)
        assert v == pytest.approx(gv, abs=2e-3)


class TestAssemblePrecision:
    def test_diagonal_case(self):
        f = PrecisionFactors(s=np.array([2.0, 3.0]), a=np.eye(2), r=np.eye(2))
        omega, log_det = assemble_precision(f)
        assert np.allclose(omega, np.diag([4.0, 9.0]))
        assert log_det == pytest.approx(np.log(36.0))

    def test_2x2_single_edge(self):
        f = PrecisionFactors(
            s=np.ones(2), a=np.ones((2, 2)),
            r=np.array([[1.0, 0.5], [0.5, 1.0]]))
        omega, log_det = assemble_precision(f)
        assert np.allclose(omega, [[1.0, 0.5], [0.5, 1.0]])
        assert log_det == pytest.approx(np.log(0.75))

    def test_random_factors_match_naive_oracle(self):
        rng = np.random.default_rng(23)
        p = 5
        r = random_correlation(p, rng)
        a = np.ones((p, p))
        mask = rng.random((p, p)) < 0.4
        mask = np.triu(mask, 1)
        a[mask | mask.T] = 0.0
        np.fill_diagonal(a, 1.0)
        c = hadamard_correlation(a, r)
        if not is_positive_definite(c):
            c = 0.5 * (c + np.eye(p))  # keep the fixture PD
            r = c.copy()
            a = np.ones((p, p))
        s = rng.uniform(0.5, 2.0, size=p)
        f = PrecisionFactors(s=s, a=a, r=r)
        omega, log_det = assemble_precision(f)

        naive = np.empty((p, p))
        for i in range(p):
            for j in range(p):
                cij = 1.0 if i == j else a[i, j] * r[i, j]
                naive[i, j] = s[i] * s[j] * cij
        assert np.allclose(omega, naive, atol=0, rtol=1e-12)
        # LU determinant oracle
        assert log_det == pytest.approx(np.log(np.linalg.det(naive)), abs=1e-10)

    def test_non_pd_factors_rejected(self):
        with pytest.raises((PreconditionError, InputError)):
            PrecisionFactors(
                s=np.ones(3), a=np.ones((3, 3)),
                r=np.array([[1, 0.9, 0.9], [0.9, 1, -0.9], [0.9, -0.9, 1.0]]))

    @pytest.mark.parametrize("p", [2, 8, 20])
    def test_logdet_matches_lu_oracle_up_to_p20(self, p):
        rng = np.random.default_rng(100 + p)
        r = random_correlation(p, rng, strength=0.4)
        s = rng.uniform(0.5, 2.0, size=p)
        omega, log_det = assemble_precision(
            PrecisionFactors(s=s, a=np.ones((p, p)), r=r))
        sign, lu_logdet = np.linalg.slogdet(omega)
        assert sign > 0
        assert log_det == pytest.approx(lu_logdet, abs=1e-9)


class TestPartialCorrelations:
    def test_diagonal_precision(self):
        rho = partial_correlations(np.diag([2.0, 5.0, 1.0]))
        assert np.allclose(rho, np.eye(3))

    def test_direct_2x2(self):
        rho = partial_correlations(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert rho[0, 1] == pytest.approx(-0.5)

    def test_roundtrip_recovers_negated_hadamard(self):
        rng = np.random.default_rng(31)
        p = 5
        r = random_correlation(p, rng, strength=0.6)
        a = np.ones((p, p))
        s = rng.uniform(0.5, 2.0, size=p)
        f = PrecisionFactors(s=s, a=a, r=r)
        omega, _ = assemble_precision(f)
        rho = partial_correlations(omega)
        c = hadamard_correlation(a, r)
        off = ~np.eye(p, dtype=bool)
        assert np.allclose(rho[off], -c[off], atol=1e-12)

    def test_non_pd_rejected(self):
        with pytest.raises(PreconditionError):
            partial_correlations(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestMvnLogpdf:
    def test_standard_normal_at_zero(self):
        val = mvn_logpdf(np.zeros(1), np.zeros(1), np.eye(1), 0.0)
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_identity_2d_at_mean(self):
        val = mvn_logpdf(np.ones(2), np.ones(2), np.eye(2), 0.0)
        assert val == pytest.approx(-np.log(2 * np.pi))

    def test_matches_covariance_form_oracle(self):
        rng = np.random.default_rng(41)
        p = 5
        r = random_correlation(p, rng, strength=0.5)
        s = rng.uniform(0.5, 2.0, size=p)
        omega, log_det = assemble_precision(
            PrecisionFactors(s=s, a=np.ones((p, p)), r=r))
        y = rng.standard_normal(p)
        mu = rng.standard_normal(p)
        # covariance-form density with an explicit inverse
        cov = np.linalg.inv(omega)
        resid = y - mu
        oracle = (-0.5 * p * np.log(2 * np.pi)
                  - 0.5 * np.log(np.linalg.det(cov))
                  - 0.5 * resid @ np.linalg.solve(cov, resid))
        assert mvn_logpdf(y, mu, omega, log_det) == pytest.approx(oracle, abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(43)
        p = 4
        r = random_correlation(p, rng, strength=0.5)
        s = rng.uniform(0.5, 2.0, size=p)
        omega, log_det = assemble_precision(
            PrecisionFactors(s=s, a=np.ones((p, p)), r=r))
        y = rng.standard_normal(p)
        mu = rng.standard_normal(p)
        base = mvn_logpdf(y, mu, omega, log_det)
        perm = rng.permutation(p)
        val = mvn_logpdf(y[perm], mu[perm], omega[np.ix_(perm, perm)], log_det)
        assert val == pytest.approx(base, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            mvn_logpdf(np.zeros(3), np.zeros(2), np.eye(2), 0.0)

    def test_rows_variant_agrees(self):
        rng = np.random.default_rng(47)
        p = 3
        omega, log_det = assemble_precision(
            PrecisionFactors(s=np.ones(p), a=np.eye(p), r=np.eye(p)))
        ys = rng.standard_normal((6, p))
        mu = rng.standard_normal(p)
        rows = mvn_logpdf_rows(ys, mu, omega, log_det)
        singles = [mvn_logpdf(y, mu, omega, log_det) for y in ys]
        assert np.allclose(rows, singles, atol=1e-12)
