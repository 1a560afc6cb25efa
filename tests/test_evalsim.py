import logging

import numpy as np
import pytest

from blast import evalsim
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
    evaluate_fit,
    gaussian_loglik,
    generate,
    prediction_nmse,
    predictive_interval_coverage,
    procrustes_error,
    rel_fro_error,
    run_replicates,
    summarize_replicates,
)
from blast.numerics import derive_stream
from blast.posterior import BlastConfig, CovarianceModel, DrawSet, run_blast
from blast.spectral import LatentDims

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
    return DrawSet(lambda_tilde=lams, gamma_tilde_s=() if gammas is None else (gammas,),
                   sigma_tilde_sq=np.ones(lams.shape[:2]))


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

    def test_degenerate_intervals_cover_truth_with_zero_entries(self, rng):
        p, k0 = 30, 5
        lam = rng.standard_normal((p, k0))
        lam[rng.random((p, k0)) < 0.5] = 0.0
        lam[3] = 0.0
        truth = SimTruth(lambda0=lam, gamma0_s=(-lam,), sigma0_sq=np.ones(p),
                         m0_s=(), f0_s=())
        draws = make_draws_from_rows(np.repeat(lam[None], 60, axis=0),
                                     np.repeat(-lam[None], 60, axis=0))
        cov_l, cov_g = coverage_eval(draws, truth, level=0.95, submatrix=30,
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
            coverage_eval(make_draws_from_rows(draws.lambda_tilde[:10]), truth, level=0.95,
                          submatrix=5)
        with pytest.raises(ParameterError):
            coverage_eval(draws, truth, level=0.95, submatrix=p + 1)
        for bad in (0, -3):
            with pytest.raises(ParameterError, match="submatrix"):
                coverage_eval(draws, truth, level=0.95, submatrix=bad)

    def test_q_zero_returns_nan(self, rng):
        p = 12
        lam = rng.standard_normal((p, 2))
        truth = SimTruth(lambda0=lam, gamma0_s=(np.zeros((p, 0)),),
                         sigma0_sq=np.ones(p), m0_s=(), f0_s=())
        lams = np.repeat(lam[None], 60, axis=0)
        draws = DrawSet(lambda_tilde=lams, gamma_tilde_s=(np.zeros((60, p, 0)),),
                        sigma_tilde_sq=np.ones((60, p)))
        _, cov_g = coverage_eval(draws, truth, submatrix=10,
                                 stream=derive_stream(3, ("c",)))
        assert np.isnan(cov_g[0])


def einsum_pair_coverage(draw_rows, truth_rows, level):
    """Reference: all (T, m, m) products, quantiles over the draw axis, then
    the upper triangle of the covered mask."""
    prods = np.einsum("tik,tjk->tij", draw_rows, draw_rows)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(prods, [alpha, 1.0 - alpha], axis=0)
    target = np.einsum("ik,jk->ij", truth_rows, truth_rows)
    covered = (target >= lo) & (target <= hi)
    iu = np.triu_indices(covered.shape[0])
    return float(np.mean(covered[iu]))


@pytest.fixture(scope="module")
def desk_fit():
    ds, truth = generate(SimScenario(n_studies=3, n_per_study=300, p=200, k0=5, q_s=4,
                                     loading_sd=0.5, seed=101))
    return run_blast(ds, BlastConfig(n_mc=501, seed=101)), truth


class TestTriangleCoverage:
    @pytest.mark.parametrize("source", ["random", "desk_fit"])
    @pytest.mark.parametrize("t", [50, 501])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 2, 37, 100])
    def test_matches_einsum_oracle(self, request, source, t, k, m):
        if source == "random":
            g = np.random.default_rng(1000 * m + 10 * k + t)
            truth_rows = g.standard_normal((m, k))
            draw_rows = g.standard_normal((t, m, k))
        else:
            result, truth = request.getfixturevalue("desk_fit")
            idx = np.sort(np.random.default_rng(m).permutation(truth.lambda0.shape[0])[:m])
            truth_rows = truth.lambda0[idx, :k]
            draw_rows = result.draws.lambda_tilde[:t, idx, :k]
        want = einsum_pair_coverage(draw_rows, truth_rows, 0.9)
        assert evalsim._pair_coverage(draw_rows, truth_rows, 0.9) == want

    def test_coverage_eval_matches_einsum_oracle_on_a_fit(self, desk_fit, monkeypatch):
        result, truth = desk_fit
        stream = derive_stream(101, ("coverage",))
        got = coverage_eval(result.draws, truth, stream=stream)
        monkeypatch.setattr(evalsim, "_pair_coverage", einsum_pair_coverage)
        assert coverage_eval(result.draws, truth, stream=stream) == got

    def test_pair_order_is_triu_indices(self):
        primes = np.array([2.0, 3.0, 5.0, 7.0, 11.0])  # distinct pairwise products
        rows = np.stack([primes, 10.0 * primes])[:, :, None]  # T=2, m=5, k=1
        prods = evalsim._triangle_products(rows)
        i, j = np.triu_indices(5)
        assert prods.shape == (15, 2) and prods.flags.c_contiguous
        np.testing.assert_array_equal(prods, (rows[:, i, 0] * rows[:, j, 0]).T)
        np.testing.assert_array_equal(evalsim._triangle_products(rows[:, :, :0]), 0.0)

    def test_products_match_einsum(self):
        rows = np.random.default_rng(7).standard_normal((9, 37, 5))
        i, j = np.triu_indices(37)
        ref = np.einsum("tik,tjk->tij", rows, rows)[:, i, j].T
        scale = np.einsum("tik,tjk->tij", np.abs(rows), np.abs(rows))[:, i, j].T
        assert np.all(np.abs(evalsim._triangle_products(rows) - ref) <= 1e-14 * scale)


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


def test_stage_timings_are_logged(caplog):
    ds, truth = generate(SimScenario(n_studies=2, n_per_study=150, p=60, k0=2, q_s=2,
                                     seed=17))
    with caplog.at_level(logging.DEBUG, logger="blast"):
        result = run_blast(ds, BlastConfig(n_mc=50, seed=17))
        evaluate_fit(result, truth, submatrix=20)
    logged = {}
    for rec in caplog.records:
        if rec.getMessage().startswith("event=stage_done "):
            assert rec.levelno == logging.DEBUG
            fields = dict(f.split("=", 1) for f in rec.getMessage().split())
            logged[fields["stage"]] = float(fields["seconds"])
    timings = result.report["timings"]
    assert list(logged) == ["rank_selection", "factor_estimation", "posterior_fit",
                            "sampling", "coverage"]
    for stage in ("rank_selection", "factor_estimation", "posterior_fit", "sampling"):
        assert logged[stage] == pytest.approx(timings[f"{stage}_s"], abs=1e-6)
    assert logged["coverage"] >= 0.0


class TestEveryReplicateIsScored:
    # rank selection saturates at k_max here: dims k0=26, q_s=(4, 4)
    SATURATED = SimScenario(n_studies=2, n_per_study=60, p=40, k0=2, q_s=2, seed=17)

    @pytest.mark.filterwarnings("error")
    def test_misselected_rank_scores_nan(self):
        ds, truth = generate(self.SATURATED)
        result = run_blast(ds, BlastConfig(n_mc=50, seed=17))
        assert result.dims.k0 != 2
        report = evaluate_fit(result, truth, submatrix=20)
        assert np.all(np.isnan(report.procrustes_shared))
        assert np.all(np.isnan(report.procrustes_specific))
        assert np.isfinite(report.rel_error_shared)
        assert np.all(np.isfinite(report.rel_error_specific))
        assert np.isnan(report.study_mean("procrustes_shared"))

    @pytest.mark.filterwarnings("error")
    def test_run_replicates_scores_every_replicate(self):
        reports = run_replicates(self.SATURATED, BlastConfig(n_mc=50), 2, submatrix=20)
        assert len(reports) == 2
        summary = summarize_replicates(reports)
        assert summary["procrustes_shared"] is None
        assert summary["procrustes_specific"] is None
        assert np.isfinite(summary["rel_error_shared"]["mean"])
        assert np.isfinite(summary["coverage_shared"]["mean"])

    @pytest.mark.filterwarnings("error")
    def test_study_without_specific_part_scores_nan(self):
        ds, truth = generate(SimScenario(n_studies=2, n_per_study=50, p=30, k0=2,
                                         q_s=(0, 2), loading_sd=1.0, seed=19))
        dims = LatentDims(k0=2, k_s=(2, 4), q_s=(0, 2))
        report = evaluate_fit(run_blast(ds, BlastConfig(dims=dims, n_mc=0, seed=2)), truth)
        assert np.isnan(report.rel_error_specific[0])
        assert np.isfinite(report.rel_error_specific[1])
        assert report.study_mean("rel_error_specific") == report.rel_error_specific[1]
        assert report.procrustes_specific[0] == 0.0
