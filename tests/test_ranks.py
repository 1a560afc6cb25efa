import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blast.errors import DegenerateSignalError, DegenerateVarianceError, DimensionError
from blast.evalsim import SimScenario, generate
from blast.ranks import (
    RankSelectionConfig,
    _loglik_at_k,
    _study_svd_summary,
    select_dims,
    select_dims_report,
    select_shared_rank,
    select_study_rank,
    surrogate_loglik,
)

from conftest import random_orthonormal


def dense_surrogate_oracle(y, k, tau_s):
    """Independent evaluation: explicit factors, loadings, variances, and the
    literal Gaussian log-likelihood."""
    n_s, p = y.shape
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    m_hat = np.sqrt(n_s) * u[:, :k]
    lam_hat = y.T @ m_hat / (n_s + 1.0 / tau_s**2)
    resid_proj = y - m_hat @ m_hat.T @ y / n_s
    sigma_sq = np.sum(resid_proj**2, axis=0) / n_s
    resid_fit = y - m_hat @ lam_hat.T
    trace_term = np.sum(resid_fit**2 / sigma_sq[None, :])
    return (
        -0.5 * n_s * np.sum(np.log(sigma_sq))
        - 0.5 * trace_term
        - 0.5 * n_s * p * math.log(2 * math.pi)
    )


def per_k_criterion(y, k_max):
    """The criterion's log-likelihood one k at a time: `_loglik_at_k` at each
    k's self-consistent prior scale, signal energy over k times the noise.
    Returns (loglik, tau_sq), one entry per k = 1..k_max."""
    n_s, p = y.shape
    _, col_sq, comp_sq = _study_svd_summary(y, k_max)
    loglik, tau_sq = [], []
    for k in range(1, k_max + 1):
        theta = comp_sq[:, :k].sum() / n_s
        omega = max((col_sq.sum() - comp_sq[:, :k].sum()) / n_s, 0.0)
        tau_sq.append(1.0 if omega <= 0.0 or theta <= 0.0 else theta / (k * omega))
        loglik.append(_loglik_at_k(n_s, p, col_sq, comp_sq, k, tau_sq[-1]))
    return np.array(loglik), np.array(tau_sq)


@pytest.mark.parametrize("n_s, p", [(500, 2000), (300, 200), (500, 1000), (150, 60)])
def test_column_sums_bit_equal_to_squared_copy(n_s, p):
    # the workload study shapes: the JIC traces read these sums, so their
    # bytes must not move with how they are computed
    ds, _ = generate(SimScenario(n_studies=1, n_per_study=n_s, p=p, k0=3, q_s=2,
                                 loading_sd=0.5, seed=n_s + p))
    y = ds.studies[0]
    _, col_sq, _ = _study_svd_summary(y, 5)
    assert col_sq.tobytes() == np.sum(y**2, axis=0).tobytes()


class TestSurrogateLoglik:
    def test_matches_dense_oracle(self, rng):
        y = rng.standard_normal((25, 12)) + 3.0 * np.outer(
            rng.standard_normal(25), rng.standard_normal(12)
        )
        for k, tau in [(1, 0.5), (3, 1.0), (5, 3.0)]:
            expected = dense_surrogate_oracle(y, k, tau)
            got = surrogate_loglik(y, k, tau)
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_flat_prior_limit_trace_term(self, rng):
        # strong rank-3 signal plus noise, nearly unshrunk loadings
        n_s, p, k_true = 60, 30, 3
        y = 5.0 * rng.standard_normal((n_s, k_true)) @ rng.standard_normal((k_true, p))
        y += rng.standard_normal((n_s, p))
        ll = surrogate_loglik(y, k_true, 1e6)
        sigma_sq_term = -2 * (
            ll + 0.5 * n_s * p * math.log(2 * math.pi)
        )  # = n_s sum log sigma^2 + trace
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        resid = y - u[:, :k_true] @ u[:, :k_true].T @ y
        log_term = n_s * np.sum(np.log(np.sum(resid**2, axis=0) / n_s))
        trace_term = sigma_sq_term - log_term
        np.testing.assert_allclose(trace_term, n_s * p, rtol=1e-6)

    def test_loglik_jumps_until_true_rank(self, rng):
        # the criterion penalty must separate the pre- and post-rank gains
        n_s, p, k_true = 80, 40, 4
        y = 4.0 * rng.standard_normal((n_s, k_true)) @ rng.standard_normal((k_true, p))
        y += rng.standard_normal((n_s, p))
        lls = np.array([surrogate_loglik(y, k, 1e3) for k in range(1, 8)])
        gains = 2.0 * np.diff(lls)
        penalty_per_k = max(n_s, p) * math.log(min(n_s, p))
        assert np.min(gains[: k_true - 1]) > penalty_per_k
        assert np.max(np.abs(gains[k_true - 1 :])) < penalty_per_k

    def test_zero_matrix(self):
        with pytest.raises(DegenerateVarianceError):
            surrogate_loglik(np.zeros((10, 5)), 1, 1.0)

    def test_saturation_guard(self, rng):
        y = rng.standard_normal((6, 20))
        with pytest.raises(DegenerateVarianceError):
            surrogate_loglik(y, 6, 1.0)  # k = n_s < p: residuals vanish

    def test_k_out_of_range(self, rng):
        with pytest.raises(DimensionError):
            surrogate_loglik(rng.standard_normal((10, 5)), 6, 1.0)


class TestSelectStudyRank:
    def test_penalty_arithmetic(self, rng):
        y = 2.0 * rng.standard_normal((100, 50))
        k_hat, trace = select_study_rank(y, RankSelectionConfig(k_max=5))
        penalty = trace.jic + 2.0 * trace.loglik
        np.testing.assert_allclose(penalty[2], 3 * 100 * math.log(50), rtol=1e-12)
        assert abs(penalty[2] - 1173.61) < 0.01

    def test_jic_identity(self, rng):
        y = rng.standard_normal((40, 30))
        _, trace = select_study_rank(y, RankSelectionConfig(k_max=6))
        n_s, p = 40, 30
        expected = -2.0 * trace.loglik + trace.ks * max(n_s, p) * math.log(min(n_s, p))
        np.testing.assert_allclose(trace.jic, expected, rtol=1e-12)

    def test_recovers_true_rank_on_generator(self):
        hits = 0
        for r in range(10):
            ds, _ = generate(SimScenario(n_studies=1, n_per_study=300, p=200, k0=5,
                                         q_s=4, loading_sd=0.5, seed=100 + r))
            k_hat, _ = select_study_rank(ds.studies[0], RankSelectionConfig(k_max=20))
            hits += k_hat == 9
        assert hits >= 9

    def test_pure_noise_selects_one(self, rng):
        y = rng.standard_normal((300, 200))
        k_hat, trace = select_study_rank(y, RankSelectionConfig(k_max=10))
        assert k_hat == 1
        assert np.argmin(trace.jic) == 0  # brute-force trace agrees

    def test_k_max_clamped_below_min_dimension(self, rng):
        y = rng.standard_normal((40, 30))
        k_hat, trace = select_study_rank(y, RankSelectionConfig(k_max=30))
        assert trace.ks[-1] == 29
        k_29, trace_29 = select_study_rank(y, RankSelectionConfig(k_max=29))
        assert k_hat == k_29 and trace.jic.tobytes() == trace_29.jic.tobytes()

    @pytest.mark.parametrize("shape,k_max,seed", [
        ((300, 200), 30, 101), ((150, 60), 30, 20), ((40, 30), 29, 3),
    ])
    def test_all_k_matches_per_k_form(self, shape, k_max, seed):
        # the criterion at every k at once equals the per-k evaluation, and
        # surrogate_loglik (validated against a dense oracle) at each k's
        # prior scale agrees with both
        n_s, p = shape
        ds, _ = generate(SimScenario(n_studies=1, n_per_study=n_s, p=p, k0=2, q_s=2,
                                     loading_sd=1.0, seed=seed))
        y = ds.studies[0]
        _, trace = select_study_rank(y, RankSelectionConfig(k_max=k_max))
        loglik, tau_sq = per_k_criterion(y, k_max)
        np.testing.assert_allclose(trace.loglik, loglik, rtol=1e-12, atol=0)
        oracle = [surrogate_loglik(y, k, math.sqrt(t)) for k, t in zip(trace.ks, tau_sq)]
        np.testing.assert_allclose(trace.loglik, oracle, rtol=1e-9, atol=0)

    def test_saturation_named_at_first_k(self, rng):
        # an exactly rank-2 study: the residual vanishes from k = 2 on
        y = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30))
        with pytest.raises(DegenerateVarianceError, match=r"at k=2; rank saturates"):
            select_study_rank(y, RankSelectionConfig(k_max=5))

    def test_orthogonal_invariance(self, rng):
        y = rng.standard_normal((30, 20)) + 2.0 * np.outer(
            rng.standard_normal(30), rng.standard_normal(20)
        )
        q = random_orthonormal(rng, 30, 30)
        k1, t1 = select_study_rank(y, RankSelectionConfig(k_max=8))
        k2, t2 = select_study_rank(q @ y, RankSelectionConfig(k_max=8))
        assert k1 == k2
        np.testing.assert_allclose(t1.loglik, t2.loglik, rtol=1e-8)


class TestSelectSharedRank:
    def test_threshold_count(self):
        spectrum = np.array([0.99, 0.95, 0.40, 0.10])
        assert select_shared_rank(spectrum, [5, 5], 0.2) == 2

    def test_fully_shared(self):
        spectrum = np.array([1.0, 1.0, 1.0, 0.2])
        assert select_shared_rank(spectrum, [3, 3, 3], 0.2) == 3

    def test_no_shared_structure(self):
        assert select_shared_rank(np.array([0.75, 0.3]), [4, 4], 0.2) == 0

    def test_capped_by_min_study_rank(self):
        spectrum = np.array([0.99, 0.98, 0.97])
        assert select_shared_rank(spectrum, [2, 5], 0.2) == 2

    def test_monotone_in_tau(self):
        spectrum = np.array([0.99, 0.9, 0.7, 0.5, 0.2])
        prev = 0
        for tau in (0.05, 0.15, 0.35, 0.55, 0.85):
            k0 = select_shared_rank(spectrum, [5], tau)
            assert k0 >= prev
            prev = k0

    def test_empty_spectrum(self):
        with pytest.raises(DimensionError):
            select_shared_rank(np.array([]), [2], 0.2)

    @settings(max_examples=200, deadline=None)
    @given(spectrum=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
           k_hat_s=st.lists(st.integers(1, 30), min_size=1, max_size=6),
           tau=st.floats(0.01, 0.99))
    def test_never_above_the_smallest_study_rank(self, spectrum, k_hat_s, tau):
        # so k_hat_s - k0 >= 0 in every study: rank selection's q_s
        assert select_shared_rank(np.array(spectrum), k_hat_s, tau) <= min(k_hat_s)


class TestSelectDims:
    def test_desk_generator_exact(self):
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=300, p=200, k0=5,
                                     q_s=4, loading_sd=0.5, seed=77))
        dims = select_dims(ds, RankSelectionConfig())
        assert dims.k0 == 5
        assert dims.k_s == (9, 9, 9)
        assert dims.q_s == (4, 4, 4)

    def test_single_study(self):
        ds, _ = generate(SimScenario(n_studies=1, n_per_study=200, p=100, k0=3,
                                     q_s=0, loading_sd=1.0, seed=4))
        dims = select_dims(ds, RankSelectionConfig())
        assert dims.k0 == dims.k_s[0]
        assert dims.q_s == (0,)

    def test_heterogeneous_ranks_keep_invariants(self):
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=(250, 300, 350), p=150,
                                     k0=3, q_s=(2, 5, 7), loading_sd=1.0, seed=15))
        dims = select_dims(ds, RankSelectionConfig())
        assert dims.k0 >= 1
        for k, q in zip(dims.k_s, dims.q_s):
            assert q == k - dims.k0 >= 0

    def test_pure_noise_reports_without_shared_structure(self, rng):
        from blast.spectral import MultiStudyDataset

        ds = MultiStudyDataset(tuple(rng.standard_normal((120, 80)) for _ in range(3)))
        report = select_dims_report(ds, RankSelectionConfig(k_max=6))
        assert report.k0 == 0
        assert report.dims is None
        assert all(k == 1 for k in report.k_hat_s)
        with pytest.raises(DegenerateSignalError):
            select_dims(ds, RankSelectionConfig(k_max=6))

    def test_k_max_resolution(self):
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=20, p=100, k0=2, q_s=1,
                                     loading_sd=2.0, seed=6))
        cfg = RankSelectionConfig()
        assert cfg.resolve_k_max(ds) == 19
        with pytest.raises(DimensionError):
            RankSelectionConfig(k_max=25).resolve_k_max(ds)

    @pytest.mark.parametrize("k_max", [60, 61])
    def test_k_max_above_largest_allowed_is_a_dimension_error(self, k_max):
        # min_s min(n_s, p) = 60; a rank of 60 leaves no residual variance
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=150, p=60, k0=2, q_s=2,
                                     loading_sd=1.0, seed=0))
        with pytest.raises(DimensionError, match="largest allowed value 59"):
            select_dims_report(ds, RankSelectionConfig(k_max=k_max))
        assert select_dims_report(ds, RankSelectionConfig(k_max=59)).k_max == 59
