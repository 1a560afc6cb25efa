import numpy as np
import pytest

from blast.errors import (
    InvalidCovarianceError,
    ParameterError,
    UndefinedMetricError,
)
from blast.evalsim import (
    SimScenario,
    SimTruth,
    conditional_predict,
    coverage_eval,
    gaussian_loglik,
    generate,
    prediction_nmse,
    predictive_interval_coverage,
    procrustes_error,
    rel_fro_error,
)
from blast.numerics import derive_stream
from blast.posterior import CovarianceModel, PosteriorDraw

from conftest import random_orthonormal


def diag_model(diag):
    diag = np.asarray(diag, dtype=np.float64)
    p = diag.shape[0]
    return CovarianceModel(lambda_hat=np.zeros((p, 0)), gamma_hat=np.zeros((p, 0)),
                           diag_add=diag)


def random_model(rng, p, r, diag_lo=0.5, diag_hi=2.0):
    return CovarianceModel(
        lambda_hat=rng.standard_normal((p, r)),
        gamma_hat=np.zeros((p, 0)),
        diag_add=rng.uniform(diag_lo, diag_hi, size=p),
    )


class TestGenerate:
    def test_pure_noise_corner(self):
        sc = SimScenario(n_studies=2, n_per_study=30, p=20, k0=2, q_s=2,
                         loading_sparsity=1.0, seed=1)
        ds, truth = generate(sc)
        assert np.max(np.abs(truth.lambda0)) == 0.0
        # Y reduces to the noise matrix: per-column variances near sigma0
        emp = np.var(ds.studies[0], axis=0)
        assert np.corrcoef(emp, truth.sigma0_sq)[0, 1] > 0.5

    def test_zero_fraction_matches_sparsity(self):
        sc = SimScenario(n_studies=3, n_per_study=10, p=500, k0=5, q_s=5, seed=3)
        ds, truth = generate(sc)
        stacked = np.hstack([truth.lambda0] + list(truth.gamma0_s))
        frac = np.mean(stacked == 0.0)
        assert abs(frac - 0.5) < 0.03

    def test_noise_variances_in_range(self):
        ds, truth = generate(SimScenario(seed=5))
        assert np.all(truth.sigma0_sq >= 0.5)
        assert np.all(truth.sigma0_sq <= 5.0)

    def test_bit_reproducible(self):
        a_ds, a_truth = generate(SimScenario(seed=9))
        b_ds, b_truth = generate(SimScenario(seed=9))
        for ya, yb in zip(a_ds.studies, b_ds.studies):
            assert np.array_equal(ya, yb)
        assert np.array_equal(a_truth.lambda0, b_truth.lambda0)

    def test_heteroscedastic_shape(self):
        ds, truth = generate(SimScenario(n_studies=2, n_per_study=20, p=15, k0=2,
                                         q_s=2, heteroscedastic=True, seed=2))
        assert truth.sigma0_sq.shape == (2, 15)
        assert not np.allclose(truth.sigma0_sq[0], truth.sigma0_sq[1])

    def test_collinear_design_shares_confounder(self):
        sc = SimScenario(n_studies=3, n_per_study=20, p=2000, k0=3, q_s=3,
                         collinear=True, confounder_sd=0.3, seed=4)
        ds, truth = generate(sc)
        # the same confounder block enters lambda and the gamma of studies >= 2,
        # so their first two columns are positively correlated; study 1 is not
        for col in range(2):
            c12 = np.corrcoef(truth.gamma0_s[1][:, col], truth.gamma0_s[2][:, col])[0, 1]
            c_lam = np.corrcoef(truth.lambda0[:, col], truth.gamma0_s[1][:, col])[0, 1]
            assert c12 > 0.05
            assert c_lam > 0.05
        c_first = np.corrcoef(truth.gamma0_s[0][:, 0], truth.gamma0_s[1][:, 0])[0, 1]
        assert abs(c_first) < 0.1
        # later columns stay confounder-free
        c_late = np.corrcoef(truth.gamma0_s[1][:, 2], truth.gamma0_s[2][:, 2])[0, 1]
        assert abs(c_late) < 0.1

    def test_full_rank_enforced(self):
        ds, truth = generate(SimScenario(seed=6))
        stacked = np.hstack([truth.lambda0] + list(truth.gamma0_s))
        sv = np.linalg.svd(stacked, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


class TestErrorMetrics:
    def test_rel_error_corners(self, rng):
        t = rng.standard_normal((10, 10))
        assert rel_fro_error(t, t) == 0.0
        np.testing.assert_allclose(rel_fro_error(np.zeros_like(t), t), 1.0)

    def test_rel_error_elementwise_oracle(self, rng):
        a = rng.standard_normal((10, 10))
        b = rng.standard_normal((10, 10))
        num = np.sqrt(sum((a[i, j] - b[i, j]) ** 2 for i in range(10) for j in range(10)))
        den = np.sqrt(sum(b[i, j] ** 2 for i in range(10) for j in range(10)))
        np.testing.assert_allclose(rel_fro_error(a, b), num / den, rtol=1e-12)

    def test_rel_error_structured_matches_dense(self, rng):
        est = CovarianceModel(lambda_hat=rng.standard_normal((12, 3)),
                              gamma_hat=rng.standard_normal((12, 2)),
                              diag_add=rng.uniform(0.1, 1.0, 12))
        tru = CovarianceModel(lambda_hat=rng.standard_normal((12, 3)),
                              gamma_hat=np.zeros((12, 0)),
                              diag_add=np.zeros(12))
        structured = rel_fro_error(est, tru)
        dense = rel_fro_error(est.densify(), tru.densify())
        np.testing.assert_allclose(structured, dense, rtol=1e-10)

    def test_zero_truth_rejected(self, rng):
        with pytest.raises(UndefinedMetricError):
            rel_fro_error(rng.standard_normal((4, 4)), np.zeros((4, 4)))

    def test_procrustes_rotation_invariance(self, rng):
        t = rng.standard_normal((20, 3))
        q = random_orthonormal(rng, 3, 3)
        assert procrustes_error(t @ q, t) < 1e-8
        assert procrustes_error(-t, t) < 1e-10

    def test_procrustes_alignment_never_hurts(self, rng):
        a = rng.standard_normal((15, 3))
        b = rng.standard_normal((15, 3))
        aligned = procrustes_error(a, b)
        unaligned = np.linalg.norm(a - b) / np.sqrt(15 * 3)
        assert aligned <= unaligned + 1e-12

    def test_rank_zero_convention(self):
        assert procrustes_error(np.zeros((5, 0)), np.zeros((5, 0))) == 0.0

    def test_row_permutation_invariance(self, rng):
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal((12, 3))
        perm = rng.permutation(12)
        np.testing.assert_allclose(procrustes_error(a, b),
                                   procrustes_error(a[perm], b[perm]), rtol=1e-10)
        sq_a = rng.standard_normal((12, 12))
        sq_b = rng.standard_normal((12, 12))
        np.testing.assert_allclose(
            rel_fro_error(sq_a, sq_b),
            rel_fro_error(sq_a[np.ix_(perm, perm)], sq_b[np.ix_(perm, perm)]),
            rtol=1e-12,
        )


def make_draws_from_rows(lams, gammas=None):
    draws = []
    for t in range(lams.shape[0]):
        g = () if gammas is None else (gammas[t],)
        draws.append(PosteriorDraw(lambda_tilde=lams[t], gamma_tilde_s=g,
                                   sigma_tilde_sq=np.ones(lams.shape[1])))
    return draws


class TestCoverageEval:
    def test_degenerate_intervals_cover_truth(self, rng):
        p, k0 = 30, 2
        lam = rng.standard_normal((p, k0))
        truth = SimTruth(lambda0=lam, gamma0_s=(lam.copy(),), sigma0_sq=np.ones(p),
                         m0_s=(), f0_s=())
        lams = np.repeat(lam[None], 60, axis=0)
        draws = make_draws_from_rows(lams, np.repeat(lam[None], 60, axis=0))
        cov_l, cov_g = coverage_eval(draws, truth, level=0.95, submatrix=20,
                                     stream=derive_stream(1, ("c",)))
        assert cov_l == 1.0
        assert cov_g[0] == 1.0

    def test_calibrated_sampler_oracle(self, rng):
        # truth and draws i.i.d. from one law: rank-exchangeability makes the
        # equal-tail interval cover at its nominal level
        p, k0, t_draws = 150, 2, 500
        g = np.random.default_rng(321)
        truth_lam = g.standard_normal((p, k0))
        lams = g.standard_normal((t_draws, p, k0))
        truth = SimTruth(lambda0=truth_lam, gamma0_s=(), sigma0_sq=np.ones(p),
                         m0_s=(), f0_s=())
        draws = make_draws_from_rows(lams)
        cov, _ = coverage_eval(draws, truth, level=0.95, submatrix=100,
                               stream=derive_stream(2, ("c",)))
        assert abs(cov - 0.95) < 0.03

    def test_parameter_validation(self, rng):
        p = 10
        lam = rng.standard_normal((p, 1))
        truth = SimTruth(lambda0=lam, gamma0_s=(), sigma0_sq=np.ones(p), m0_s=(), f0_s=())
        draws = make_draws_from_rows(np.repeat(lam[None], 60, axis=0))
        with pytest.raises(ParameterError):
            coverage_eval(draws, truth, level=1.5, submatrix=5)
        with pytest.raises(ParameterError):
            coverage_eval(draws[:10], truth, level=0.95, submatrix=5)
        with pytest.raises(ParameterError):
            coverage_eval(draws, truth, level=0.95, submatrix=p + 1)

    def test_q_zero_returns_nan(self, rng):
        p = 12
        lam = rng.standard_normal((p, 2))
        truth = SimTruth(lambda0=lam, gamma0_s=(np.zeros((p, 0)),),
                         sigma0_sq=np.ones(p), m0_s=(), f0_s=())
        lams = np.repeat(lam[None], 60, axis=0)
        draws = [PosteriorDraw(lambda_tilde=lams[t], gamma_tilde_s=(np.zeros((p, 0)),),
                               sigma_tilde_sq=np.ones(p)) for t in range(60)]
        _, cov_g = coverage_eval(draws, truth, submatrix=10,
                                 stream=derive_stream(3, ("c",)))
        assert np.isnan(cov_g[0])


class TestConditionalPredict:
    def test_independence_case(self):
        model = diag_model(np.ones(6))
        mean, var, target = conditional_predict(model, np.arange(3, 6), np.ones(3))
        np.testing.assert_allclose(mean, 0.0)
        np.testing.assert_allclose(var, 1.0)
        np.testing.assert_array_equal(target, [0, 1, 2])

    def test_bivariate_normal(self):
        rho = 0.6
        model = CovarianceModel(
            lambda_hat=np.array([[np.sqrt(rho)], [np.sqrt(rho)]]),
            gamma_hat=np.zeros((2, 0)),
            diag_add=np.array([1.0 - rho, 1.0 - rho]),
        )
        y2 = 1.7
        mean, var, target = conditional_predict(model, [1], [y2])
        np.testing.assert_allclose(mean, [rho * y2], rtol=1e-12)
        np.testing.assert_allclose(var, [1.0 - rho**2], rtol=1e-12)

    def test_matches_dense_schur_oracle(self, rng):
        for i in range(100):
            g = np.random.default_rng(1000 + i)
            p = int(g.integers(6, 13))
            model = random_model(g, p, 3)
            obs = np.sort(g.permutation(p)[: p // 2])
            y = g.standard_normal(obs.size)
            mean, var, target = conditional_predict(model, obs, y)
            # dense oracle: explicit Schur complement
            sigma = model.densify()
            s_oo = sigma[np.ix_(obs, obs)]
            s_to = sigma[np.ix_(target, obs)]
            s_tt = sigma[np.ix_(target, target)]
            mean_o = s_to @ np.linalg.solve(s_oo, y)
            var_o = np.diag(s_tt - s_to @ np.linalg.solve(s_oo, s_to.T))
            np.testing.assert_allclose(mean, mean_o, atol=1e-8)
            np.testing.assert_allclose(var, var_o, atol=1e-8)

    def test_singular_diagonal_dense_fallback(self, rng):
        # exact linear dependence: the target is determined by the observed
        model = CovarianceModel(
            lambda_hat=np.array([[1.0], [1.0]]),
            gamma_hat=np.zeros((2, 0)),
            diag_add=np.array([0.0, 1e-9]),
        )
        f = 0.83
        mean, var, target = conditional_predict(model, [1], [f])
        np.testing.assert_allclose(mean, [f], rtol=1e-6)
        assert var[0] <= 1e-8

    def test_validation(self, rng):
        model = diag_model(np.ones(5))
        with pytest.raises(ParameterError):
            conditional_predict(model, [], [])
        with pytest.raises(ParameterError):
            conditional_predict(model, [1, 1], [0.0, 0.0])
        with pytest.raises(ParameterError):
            conditional_predict(model, np.arange(5), np.zeros(5))
        bad = diag_model(np.array([1.0, -1.0, 1.0]))
        with pytest.raises(InvalidCovarianceError):
            conditional_predict(bad, [1], [0.0])

    def test_singular_dense_block_raises(self):
        # zero diagonal on the observed block and one shared factor: the
        # densified block is the rank-1 all-ones matrix
        model = CovarianceModel(lambda_hat=np.ones((6, 1)), gamma_hat=np.zeros((6, 0)),
                                diag_add=np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(InvalidCovarianceError):
            conditional_predict(model, [0, 1, 2], [0.5, 0.5, 0.5])

    def test_denormal_diagonal_raises(self):
        model = CovarianceModel(lambda_hat=np.ones((4, 1)), gamma_hat=np.zeros((4, 0)),
                                diag_add=np.full(4, 1e-310))
        with pytest.raises(InvalidCovarianceError):
            conditional_predict(model, [0, 1, 2], [0.5, 0.5, 0.5])


class TestGaussianLoglik:
    def test_scalar_standard_normal(self):
        model = diag_model(np.ones(1))
        np.testing.assert_allclose(gaussian_loglik(model, np.zeros((1, 1))),
                                   -0.5 * np.log(2 * np.pi), rtol=1e-12)
        assert abs(gaussian_loglik(model, np.zeros((1, 1))) + 0.918939) < 1e-6

    def test_identity_covariance(self):
        model = diag_model(np.ones(4))
        np.testing.assert_allclose(gaussian_loglik(model, np.zeros((1, 4))),
                                   -2.0 * np.log(2 * np.pi), rtol=1e-12)

    def test_matches_dense_cholesky_oracle(self, rng):
        for i in range(100):
            g = np.random.default_rng(2000 + i)
            p = int(g.integers(5, 16))
            model = random_model(g, p, 3)
            y = g.standard_normal((10, p))
            got = gaussian_loglik(model, y)
            # dense oracle: Cholesky factorization of the full covariance
            sigma = model.densify()
            chol = np.linalg.cholesky(sigma)
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            z = np.linalg.solve(chol, y.T)
            expected = -0.5 * (np.sum(z**2) + 10 * (logdet + p * np.log(2 * np.pi)))
            np.testing.assert_allclose(got, expected, atol=1e-8 * max(1.0, abs(expected)))

    def test_invalid_diagonal(self):
        model = diag_model(np.array([1.0, 0.0]))
        with pytest.raises(InvalidCovarianceError):
            gaussian_loglik(model, np.zeros((1, 2)))

    def test_denormal_diagonal_raises(self):
        # 1 / 1e-310 overflows; the result must not be a silent nan
        model = CovarianceModel(lambda_hat=np.ones((4, 1)), gamma_hat=np.zeros((4, 0)),
                                diag_add=np.full(4, 1e-310))
        with pytest.raises(InvalidCovarianceError):
            gaussian_loglik(model, np.ones((2, 4)))


class TestPredictiveIntervals:
    def sample_from(self, model, rows, seed):
        g = np.random.default_rng(seed)
        w = model.factors()
        f = g.standard_normal((rows, w.shape[1]))
        e = g.standard_normal((rows, model.p)) * np.sqrt(model.diag_add)[None, :]
        return f @ w.T + e

    def test_self_consistent_coverage(self, rng):
        model = random_model(np.random.default_rng(8), p=12, r=2)
        y = self.sample_from(model, 400, seed=9)  # 400 rows x 6 targets = 2400
        cov = predictive_interval_coverage(model, y, 0.95)
        assert abs(cov - 0.95) < 0.02

    def test_level_half(self, rng):
        model = random_model(np.random.default_rng(10), p=12, r=2)
        y = self.sample_from(model, 400, seed=11)
        cov = predictive_interval_coverage(model, y, 0.5)
        assert abs(cov - 0.50) < 0.03

    def test_exact_dependence_full_coverage(self):
        model = CovarianceModel(
            lambda_hat=np.array([[1.0], [1.0]]),
            gamma_hat=np.zeros((2, 0)),
            diag_add=np.array([0.0, 1e-12]),
        )
        g = np.random.default_rng(3)
        f = g.standard_normal(200)
        y = np.stack([f, f], axis=1)
        cov = predictive_interval_coverage(model, y, 0.95, observed_idx=[1])
        assert cov == 1.0

    def test_nmse_corners(self, rng):
        # no predictive signal: identity covariance scores about 1
        model = diag_model(np.ones(10))
        y = np.random.default_rng(5).standard_normal((500, 10))
        nmse, _ = prediction_nmse(model, y)
        assert np.all(np.abs(nmse - 1.0) < 0.25)
        assert abs(np.mean(nmse) - 1.0) < 0.05
        # strong low-rank signal, no noise: near-zero error
        strong = CovarianceModel(
            lambda_hat=np.tile(np.eye(2), (5, 1)) * 3.0,
            gamma_hat=np.zeros((10, 0)),
            diag_add=np.full(10, 1e-8),
        )
        y = self.sample_from(strong, 200, seed=6)
        nmse, _ = prediction_nmse(strong, y)
        assert np.max(nmse) < 1e-4
