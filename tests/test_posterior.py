import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from blast.errors import (
    DegenerateSignalError,
    DegenerateVarianceError,
    DimensionError,
    InfeasibleHyperparameterError,
    NumericalError,
    ParameterError,
)
from blast.evalsim import SimScenario, generate
from blast.numerics import derive_stream
from blast.posterior import (
    BlastConfig,
    DrawSet,
    Hyperparams,
    PosteriorSpec,
    estimate_hyperparams,
    fit_lambda_posterior,
    inflation_gamma,
    inflation_lambda,
    mu_gamma,
    nig_update,
    point_estimates,
    run_blast,
    sample_draw,
)
from blast.spectral import LatentDims, MultiStudyDataset, estimate_factors

from conftest import random_orthonormal


def small_fit(seed=0, n_studies=2, n_per_study=(20, 20), p=10, k0=3, q_s=2):
    ds, truth = generate(SimScenario(n_studies=n_studies, n_per_study=n_per_study,
                                     p=p, k0=k0, q_s=q_s, loading_sd=1.0, seed=seed))
    dims = LatentDims(k0=k0, k_s=tuple(k0 + q for q in [q_s] * n_studies),
                      q_s=tuple([q_s] * n_studies))
    fe = estimate_factors(ds, dims)
    hp = estimate_hyperparams(ds, fe, dims)
    return ds, dims, fe, hp


def brute_force_nig(m_hat, y, tau_sq, nu0, sigma0_sq):
    """Textbook conjugate update, inverting the k x k matrix explicitly."""
    n, k = m_hat.shape
    prec = m_hat.T @ m_hat + np.eye(k) / tau_sq
    cov = np.linalg.inv(prec)
    mu = y.T @ m_hat @ cov
    gamma_n = nu0 + n
    delta_sq = np.empty(y.shape[1])
    for j in range(y.shape[1]):
        yj = y[:, j]
        delta_sq[j] = (nu0 * sigma0_sq + yj @ yj - mu[j] @ prec @ mu[j]) / gamma_n
    return mu, cov, gamma_n, delta_sq


class TestHyperparams:
    def test_noise_free_degenerates(self, rng):
        lam = rng.standard_normal((20, 2))
        studies = tuple(rng.standard_normal((30, 2)) @ lam.T for _ in range(2))
        from blast.spectral import MultiStudyDataset

        ds = MultiStudyDataset(studies)
        dims = LatentDims(k0=2, k_s=(2, 2), q_s=(0, 0))
        fe = estimate_factors(ds, dims)
        with pytest.raises(DegenerateSignalError):
            estimate_hyperparams(ds, fe, dims)

    def test_consistency_at_scale(self):
        sc = SimScenario(n_studies=2, n_per_study=500, p=500, k0=5, q_s=4,
                         loading_sd=1.0, seed=123)
        ds, truth = generate(sc)
        dims = LatentDims(k0=5, k_s=(9, 9), q_s=(4, 4))
        fe = estimate_factors(ds, dims)
        n = fe.n_total
        theta = float(np.sum(fe.d_c**2) / n)
        _, _, _, _, v_j = fit_lambda_posterior(fe, estimate_hyperparams(ds, fe, dims))
        omega = float(np.sum(v_j))
        lam_sq = float(np.sum(truth.lambda0**2))
        sig_sq = float(np.sum(truth.sigma0_sq))
        assert abs(theta - lam_sq) / lam_sq < 0.10
        assert abs(omega - sig_sq) / sig_sq < 0.10

    def test_scale_invariance(self):
        ds, dims, fe, hp = small_fit(seed=8)
        from blast.spectral import MultiStudyDataset

        ds2 = MultiStudyDataset(tuple(3.0 * y for y in ds.studies))
        fe2 = estimate_factors(ds2, dims)
        hp2 = estimate_hyperparams(ds2, fe2, dims)
        np.testing.assert_allclose(hp2.tau_lambda_sq, hp.tau_lambda_sq, rtol=1e-8)
        for t2, t1 in zip(hp2.tau_gamma_sq, hp.tau_gamma_sq):
            np.testing.assert_allclose(t2, t1, rtol=1e-8)
        # residual variances scale with the square of the data scale
        _, _, _, _, v1 = fit_lambda_posterior(fe, hp)
        _, _, _, _, v2 = fit_lambda_posterior(fe2, hp2)
        np.testing.assert_allclose(v2, 9.0 * v1, rtol=1e-8)

    def test_q_zero_leaves_tau_unset(self):
        ds, truth = generate(SimScenario(n_studies=2, n_per_study=40, p=20, k0=2,
                                         q_s=(0, 2), loading_sd=1.0, seed=3))
        dims = LatentDims(k0=2, k_s=(2, 4), q_s=(0, 2))
        fe = estimate_factors(ds, dims)
        hp = estimate_hyperparams(ds, fe, dims)
        assert hp.tau_gamma_sq[0] is None
        assert hp.tau_gamma_sq[1] > 0

    def test_positive_validation(self):
        with pytest.raises(InfeasibleHyperparameterError):
            Hyperparams(tau_lambda_sq=-1.0, tau_gamma_sq=(None,))
        with pytest.raises(InfeasibleHyperparameterError):
            Hyperparams(tau_lambda_sq=1.0, tau_gamma_sq=(0.0,))


class TestLambdaPosterior:
    def test_orthogonal_response_arithmetic(self):
        mu, k_scalar, gamma_n, delta_sq = nig_update(
            np.array([[1.0], [-1.0]]), np.array([[1.0], [1.0]]), 1.0
        )
        np.testing.assert_allclose(mu, [[0.0]], atol=1e-15)

    def test_direct_arithmetic(self):
        mu, k_scalar, gamma_n, delta_sq = nig_update(
            np.array([[1.0], [-1.0]]), np.array([[1.0], [-1.0]]), 1.0,
            nu0=1.0, sigma0_sq=1.0,
        )
        np.testing.assert_allclose(mu, [[2.0 / 3.0]], rtol=1e-12)
        assert gamma_n == 3.0
        np.testing.assert_allclose(delta_sq, [5.0 / 9.0], rtol=1e-12)
        np.testing.assert_allclose(k_scalar, 1.0 / 3.0, rtol=1e-12)

    def test_matches_brute_force_oracle(self):
        for seed in range(5):
            ds, dims, fe, hp = small_fit(seed=seed, n_per_study=(20, 20), p=8, k0=3, q_s=1)
            mu, k_scalar, gamma_n, delta_sq, v_j = fit_lambda_posterior(fe, hp)
            mu_o, cov_o, gamma_o, delta_o = brute_force_nig(
                fe.m_hat, fe.y_c, hp.tau_lambda_sq, hp.nu0, hp.sigma0_sq
            )
            np.testing.assert_allclose(mu, mu_o, atol=1e-10)
            np.testing.assert_allclose(k_scalar * np.eye(dims.k0), cov_o, atol=1e-10)
            assert gamma_n == gamma_o
            np.testing.assert_allclose(delta_sq, delta_o, atol=1e-10)

    def test_ridge_identity(self):
        ds, dims, fe, hp = small_fit(seed=31, p=12)
        mu, _, _, _, _ = fit_lambda_posterior(fe, hp)
        # normal-equations oracle for the penalized least-squares problem
        k = dims.k0
        sol = np.linalg.solve(
            fe.m_hat.T @ fe.m_hat + np.eye(k) / hp.tau_lambda_sq, fe.m_hat.T @ fe.y_c
        ).T
        np.testing.assert_allclose(mu, sol, atol=1e-10)

    def test_delta_positive_always(self):
        for seed in range(10):
            ds, dims, fe, hp = small_fit(seed=seed)
            _, _, _, delta_sq, _ = fit_lambda_posterior(fe, hp)
            assert np.all(delta_sq > 0)

    def test_outer_product_invariant_to_rotation(self, rng):
        m = np.sqrt(40) * random_orthonormal(rng, 40, 3)
        y = rng.standard_normal((40, 6))
        q = random_orthonormal(rng, 3, 3)
        mu1, _, _, _ = nig_update(m, y, 2.0)
        mu2, _, _, _ = nig_update(m @ q, y, 2.0)
        np.testing.assert_allclose(mu1 @ mu1.T, mu2 @ mu2.T, atol=1e-10)


class TestInflation:
    def test_diagonal_branch_arithmetic(self):
        # one informative outcome: its diagonal factor is sqrt(2)
        mu = np.array([[np.sqrt(2.0), 0.0], [0.0, 0.0]])
        v = np.array([1.0, 1.0])
        assert abs(inflation_lambda(mu, v, strategy="max") - math.sqrt(2.0)) < 1e-12

    def test_offdiagonal_branch_arithmetic(self):
        mu = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([1.0, 1.0])
        # every pair (both diagonals and the off-diagonal) evaluates to sqrt(1.5)
        assert abs(inflation_lambda(mu, v, strategy="max") - math.sqrt(1.5)) < 1e-12

    def test_null_signal_no_inflation(self):
        p = 199
        mu = np.zeros((p, 3))
        v = np.ones(p)
        assert inflation_lambda(mu, v, strategy="max") == 1.0
        # the stated mean normalization divides p(p+1)/2 unit terms by C(p,2)
        np.testing.assert_allclose(
            inflation_lambda(mu, v, strategy="mean"), (p + 1) / (p - 1), rtol=1e-12
        )

    def test_gamma_diagonal_arithmetic(self):
        mu_g = np.array([[np.sqrt(2.0)], [0.0]])
        mu_l = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([1.0, 1.0])
        assert abs(inflation_gamma(mu_g, mu_l, v, strategy="max") - math.sqrt(3.0)) < 1e-12

    def test_gamma_null_signal(self):
        p = 99
        rho = inflation_gamma(np.zeros((p, 2)), np.zeros((p, 3)), np.ones(p), strategy="max")
        assert rho == 1.0

    def test_matches_pair_enumeration_oracle(self, rng):
        p = 5
        mu_l = rng.standard_normal((p, 3))
        mu_g = rng.standard_normal((p, 2))
        v = rng.uniform(0.5, 2.0, size=p)

        def b_lambda(j, jp):
            nj, njp = mu_l[j] @ mu_l[j], mu_l[jp] @ mu_l[jp]
            if j == jp:
                return math.sqrt(1.0 + nj / (2.0 * v[j]))
            num = nj * njp + (mu_l[j] @ mu_l[jp]) ** 2
            den = v[j] * njp + v[jp] * nj
            return math.sqrt(1.0 + num / den)

        def b_gamma(j, jp):
            ngj, ngjp = mu_g[j] @ mu_g[j], mu_g[jp] @ mu_g[jp]
            nlj, nljp = mu_l[j] @ mu_l[j], mu_l[jp] @ mu_l[jp]
            if j == jp:
                return math.sqrt(1.0 + (ngj + 2.0 * nlj) / (2.0 * v[j]))
            num = (
                ngj * ngjp
                + (mu_g[j] @ mu_g[jp]) ** 2
                + ngj * nljp
                + ngjp * nlj
                + 2.0 * (mu_g[j] @ mu_g[jp]) * (mu_l[j] @ mu_l[jp])
            )
            den = v[j] * ngjp + v[jp] * ngj
            return math.sqrt(1.0 + num / den)

        for fn, impl_mean, impl_max in [
            (b_lambda,
             inflation_lambda(mu_l, v, strategy="mean"),
             inflation_lambda(mu_l, v, strategy="max")),
            (b_gamma,
             inflation_gamma(mu_g, mu_l, v, strategy="mean"),
             inflation_gamma(mu_g, mu_l, v, strategy="max")),
        ]:
            bs = [fn(j, jp) for j in range(p) for jp in range(j, p)]
            assert all(b >= 1.0 for b in bs)
            np.testing.assert_allclose(impl_mean, sum(bs) / (p * (p - 1) / 2.0), rtol=1e-12)
            np.testing.assert_allclose(impl_max, max(bs), rtol=1e-12)
            assert impl_max >= max(bs) - 1e-12

    def test_row_blocks_match_dense_all_pairs(self, rng):
        # p = 1100 spans three 512-row blocks; the largest pair (600, 1090)
        # lies right of the diagonal square of its block
        p = 1100
        mu_l = rng.standard_normal((p, 3))
        mu_g = rng.standard_normal((p, 2))
        mu_g[[600, 1090]] = 8.0 * mu_g[600]
        v = rng.uniform(0.5, 2.0, size=p)
        ng, nl = np.sum(mu_g**2, axis=1), np.sum(mu_l**2, axis=1)
        gg, gl = mu_g @ mu_g.T, mu_l @ mu_l.T
        num = (np.outer(ng, ng) + gg**2 + np.outer(ng, nl) + np.outer(nl, ng)
               + 2.0 * gg * gl)
        den = np.outer(v, ng) + np.outer(ng, v)
        b = np.sqrt(1.0 + num / den)
        np.fill_diagonal(b, np.sqrt(1.0 + (ng + 2.0 * nl) / (2.0 * v)))
        upper = b[np.triu_indices(p)]
        assert np.unravel_index(np.argmax(b), b.shape) in [(600, 1090), (1090, 600)]
        np.testing.assert_allclose(inflation_gamma(mu_g, mu_l, v, strategy="mean"),
                                   np.sum(upper) / (p * (p - 1) / 2.0), rtol=1e-12)
        np.testing.assert_allclose(inflation_gamma(mu_g, mu_l, v, strategy="max"),
                                   np.max(upper), rtol=1e-12)

    def test_fixed_strategy(self, rng):
        mu = rng.standard_normal((4, 2))
        v = np.ones(4)
        assert inflation_lambda(mu, v, strategy="fixed", fixed=1.7) == 1.7
        with pytest.raises(ParameterError):
            inflation_lambda(mu, v, strategy="fixed", fixed=0.5)

    def test_zero_variance_rejected(self, rng):
        mu = rng.standard_normal((4, 2))
        with pytest.raises(DegenerateVarianceError):
            inflation_lambda(mu, np.array([1.0, 0.0, 1.0, 1.0]))

    def test_subsampled_mean_close_to_exact(self, rng):
        from blast import posterior as post

        p = 60
        mu = rng.standard_normal((p, 2))
        v = rng.uniform(0.5, 2.0, size=p)
        exact = inflation_lambda(mu, v, strategy="mean")
        old = post._EXACT_PAIR_FLOPS
        post._EXACT_PAIR_FLOPS = 0  # force the sampled path
        try:
            approx = inflation_lambda(mu, v, strategy="mean")
        finally:
            post._EXACT_PAIR_FLOPS = old
        assert abs(approx - exact) / exact < 0.01


class TestMuGamma:
    def test_fully_explained_outcome(self, rng):
        ds, dims, fe, hp = small_fit(seed=2)
        mu_l, _, _, _, _ = fit_lambda_posterior(fe, hp)
        y_fake = fe.m_hat_s[0] @ mu_l.T
        mg = mu_gamma(y_fake, fe.m_hat_s[0], fe.f_hat_s[0], mu_l, 1.0)
        assert np.max(np.abs(mg)) < 1e-10

    def test_pure_specific_signal(self, rng):
        n_s, q = 50, 2
        f_hat = np.sqrt(n_s) * random_orthonormal(rng, n_s, q)
        m_hat = np.zeros((n_s, 1))
        c = rng.standard_normal((3, q))  # three outcomes with known coefficients
        y = f_hat @ c.T
        mg = mu_gamma(y, m_hat, f_hat, np.zeros((3, 1)), 1e12)
        np.testing.assert_allclose(mg, c, atol=1e-6)

    def test_matches_ridge_oracle(self):
        for seed in range(5):
            ds, dims, fe, hp = small_fit(seed=seed)
            mu_l, _, _, _, _ = fit_lambda_posterior(fe, hp)
            s = 0
            mg = mu_gamma(ds.studies[s], fe.m_hat_s[s], fe.f_hat_s[s], mu_l,
                          hp.tau_gamma_sq[s])
            f = fe.f_hat_s[s]
            resid = ds.studies[s] - fe.m_hat_s[s] @ mu_l.T
            oracle = np.linalg.solve(
                f.T @ f + np.eye(dims.q_s[s]) / hp.tau_gamma_sq[s], f.T @ resid
            ).T
            np.testing.assert_allclose(mg, oracle, atol=1e-10)


def synthetic_spec(p=3, k0=2, n=50.0, rho_lambda=1.0, delta=1.0, mu_scale=1.0,
                   q_s=(), rho_gamma=(), seed=0):
    rng = np.random.default_rng(seed)
    mu = mu_scale * rng.standard_normal((p, k0))
    return PosteriorSpec(
        mu_lambda=mu,
        k_scalar=1.0 / (n + 1.0),
        gamma_n=n + 1.0,
        delta_sq=np.full(p, delta),
        v_j=np.full(p, delta),
        rho_lambda=rho_lambda,
        rho_gamma=tuple(rho_gamma),
        mu_gamma_s=tuple(np.zeros((p, q)) for q in q_s),
        k_gamma_s=tuple(1.0 / (n + 1.0) for _ in q_s),
        n=int(n),
        n_s=tuple(int(n) for _ in q_s) or (int(n),),
        q_s=tuple(q_s),
        f_t_y_s=tuple(np.zeros((q, p)) for q in q_s),
        f_t_m_s=tuple(np.zeros((q, k0)) for q in q_s),
    )


class TestSampleDraw:
    def test_vanishing_variance_limit(self):
        spec = synthetic_spec(n=1e8, mu_scale=2.0)
        draw = sample_draw(spec, derive_stream(0, ("draw", 0)))
        assert np.max(np.abs(draw.lambda_tilde - spec.mu_lambda)) < 1e-3

    def test_lambda_moments_and_covariance(self):
        spec = synthetic_spec(p=3, k0=2, n=50.0, rho_lambda=1.3, delta=2.0, seed=4)
        root = derive_stream(77, ("draw",))
        t_draws = 10_000
        lams = np.empty((t_draws, 3, 2))
        sigs = np.empty((t_draws, 3))
        for t in range(t_draws):
            d = sample_draw(spec, root.child(t))
            lams[t] = d.lambda_tilde
            sigs[t] = d.sigma_tilde_sq
        gamma_n = spec.gamma_n
        sigma_bar = gamma_n * spec.delta_sq[0] / (gamma_n - 2.0)
        # inverse-gamma mean
        se_sig = sigs[:, 0].std() / np.sqrt(t_draws)
        assert abs(sigs[:, 0].mean() - sigma_bar) < 4 * se_sig
        # normal mean and covariance per outcome
        target_var = sigma_bar * spec.rho_lambda**2 * spec.k_scalar
        for j in range(3):
            se = lams[:, j, :].std(axis=0) / np.sqrt(t_draws)
            assert np.all(np.abs(lams[:, j, :].mean(axis=0) - spec.mu_lambda[j]) < 4 * se)
            cov = np.cov(lams[:, j, :].T)
            assert np.all(np.abs(np.diag(cov) / target_var - 1.0) < 0.10)
            assert abs(cov[0, 1]) < 0.1 * target_var

    def test_uncorrected_posterior_at_rho_one(self):
        spec = synthetic_spec(p=2, k0=2, n=40.0, rho_lambda=1.0, delta=1.5, seed=9)
        root = derive_stream(5, ("draw",))
        lams = np.stack([
            sample_draw(spec, root.child(t)).lambda_tilde for t in range(10_000)
        ])
        sigma_bar = spec.gamma_n * 1.5 / (spec.gamma_n - 2.0)
        target = sigma_bar * spec.k_scalar
        for j in range(2):
            cov = np.cov(lams[:, j, :].T)
            assert np.all(np.abs(np.diag(cov) / target - 1.0) < 0.10)

    def test_interval_width_scales_with_rho(self):
        widths = []
        for rho in (1.0, 2.0):
            spec = synthetic_spec(p=2, k0=1, n=30.0, rho_lambda=rho, seed=3)
            root = derive_stream(11, ("draw",))
            lams = np.stack([
                sample_draw(spec, root.child(t)).lambda_tilde for t in range(400)
            ])
            dev = lams[:, 0, 0] - spec.mu_lambda[0, 0]
            widths.append(np.quantile(dev, 0.975) - np.quantile(dev, 0.025))
        np.testing.assert_allclose(widths[1], 2.0 * widths[0], rtol=1e-10)

    def test_gamma_mean_uses_drawn_lambda(self, rng):
        # non-zero factor cross-product: the drawn loading shifts the mean
        p, k0, q = 2, 1, 1
        spec = synthetic_spec(p=p, k0=k0, n=1e8, q_s=(q,), rho_gamma=(1.0,), seed=1)
        f_t_m = (np.full((q, k0), 5.0),)
        spec = replace(spec, f_t_m_s=f_t_m, k_gamma_s=(1.0 / 100.0,),
                       f_t_y_s=(np.zeros((q, p)),),
                       delta_sq=np.full(p, 1e-12))  # keep the draw noise negligible
        d = sample_draw(spec, derive_stream(2, ("draw", 0)))
        expected = -(5.0 * d.lambda_tilde[:, 0]) / 100.0
        np.testing.assert_allclose(d.gamma_tilde_s[0][:, 0], expected, atol=1e-5)

    def test_specific_loading_moments(self):
        p, k0 = 3, 2
        spec = synthetic_spec(p=p, k0=k0, n=50.0, delta=2.0, q_s=(0, 2),
                              rho_gamma=(1.0, 1.7), seed=5)
        f_t_y = np.random.default_rng(8).standard_normal((2, p))
        spec = replace(spec, f_t_y_s=(np.zeros((0, p)), f_t_y))
        root = derive_stream(31, ("draw",))
        t_draws = 10_000
        gams = np.empty((t_draws, p, 2))
        for t in range(t_draws):
            d = sample_draw(spec, root.child(t))
            assert d.gamma_tilde_s[0].shape == (p, 0)
            gams[t] = d.gamma_tilde_s[1]
        k_g = spec.k_gamma_s[1]
        sigma_bar = spec.gamma_n * spec.delta_sq[0] / (spec.gamma_n - 2.0)
        se = gams.std(axis=0) / np.sqrt(t_draws)
        assert np.all(np.abs(gams.mean(axis=0) - f_t_y.T * k_g) < 4 * se)
        target_var = spec.rho_gamma[1] ** 2 * sigma_bar * k_g
        assert np.all(np.abs(gams.var(axis=0) / target_var - 1.0) < 0.10)

    def test_draws_are_prefix_stable(self):
        # draw t depends only on (seed, "draw", t), not on n_mc
        ds, dims, fe, hp = small_fit(seed=6)
        short = run_blast(ds, BlastConfig(dims=dims, n_mc=3, seed=41)).draws
        long = run_blast(ds, BlastConfig(dims=dims, n_mc=5, seed=41)).draws
        assert np.array_equal(short.lambda_tilde, long.lambda_tilde[:3])
        assert np.array_equal(short.sigma_tilde_sq, long.sigma_tilde_sq[:3])
        for g3, g5 in zip(short.gamma_tilde_s, long.gamma_tilde_s, strict=True):
            assert np.array_equal(g3, g5[:3])

    def test_reproducible_and_schedule_free(self):
        ds, dims, fe, hp = small_fit(seed=6)
        cfg1 = BlastConfig(dims=dims, n_mc=8, seed=123, threads=1)
        cfg8 = BlastConfig(dims=dims, n_mc=8, seed=123, threads=8)
        r1 = run_blast(ds, cfg1)
        r8 = run_blast(ds, cfg8)
        for d1, d8 in zip(r1.draws, r8.draws):
            assert np.array_equal(d1.lambda_tilde, d8.lambda_tilde)
            assert np.array_equal(d1.sigma_tilde_sq, d8.sigma_tilde_sq)
            for g1, g8 in zip(d1.gamma_tilde_s, d8.gamma_tilde_s):
                assert np.array_equal(g1, g8)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_draw_rows_equal_sample_draw(self, threads):
        # each row of the arrays is filled in place by one sample_draw call;
        # a short switch interval makes the worker threads interleave often
        ds, dims, fe, hp = small_fit(seed=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_blast(ds, BlastConfig(dims=dims, n_mc=40, seed=55, threads=threads))
        finally:
            sys.setswitchinterval(interval)
        root = derive_stream(55, ("draw",))
        for t in range(40):
            want = sample_draw(result.spec, root.child(t))
            got = result.draws[t]
            assert np.array_equal(got.lambda_tilde, want.lambda_tilde)
            assert np.array_equal(got.sigma_tilde_sq, want.sigma_tilde_sq)
            for g, w in zip(got.gamma_tilde_s, want.gamma_tilde_s, strict=True):
                assert np.array_equal(g, w)


class TestDrawSet:
    def make(self, t=4, p=3, k0=2, q_s=(0, 2)):
        g = np.random.default_rng(0)
        return DrawSet(lambda_tilde=g.standard_normal((t, p, k0)),
                       gamma_tilde_s=tuple(g.standard_normal((t, p, q)) for q in q_s),
                       sigma_tilde_sq=g.random((t, p)))

    def test_len_index_and_iteration(self):
        draws = self.make()
        assert len(draws) == 4 and draws
        assert not self.make(t=0)
        d = draws[2]
        assert np.shares_memory(d.lambda_tilde, draws.lambda_tilde)
        assert np.array_equal(d.gamma_tilde_s[1], draws.gamma_tilde_s[1][2])
        assert np.array_equal(d.sigma_tilde_sq, draws.sigma_tilde_sq[2])
        assert [x.sigma_tilde_sq[0] for x in draws] == list(draws.sigma_tilde_sq[:, 0])
        with pytest.raises(TypeError):
            draws[1:3]
        with pytest.raises(IndexError):
            draws[4]

    @pytest.mark.parametrize("change", [
        lambda d: {"lambda_tilde": d.lambda_tilde[0]},
        lambda d: {"gamma_tilde_s": (d.gamma_tilde_s[0], d.gamma_tilde_s[1][:3])},
        lambda d: {"gamma_tilde_s": (d.gamma_tilde_s[0], d.gamma_tilde_s[1][:, :2])},
        lambda d: {"sigma_tilde_sq": d.sigma_tilde_sq[..., None]},
    ], ids=["lambda_ndim", "gamma_n_draws", "gamma_p", "sigma_ndim"])
    def test_shapes_must_agree(self, change):
        draws = self.make()
        with pytest.raises(DimensionError):
            replace(draws, **change(draws))


class TestPointEstimates:
    def test_null_signal_pure_diagonal(self):
        spec = synthetic_spec(mu_scale=0.0, n=8.0, delta=1.0, rho_lambda=1.5)
        dims = LatentDims(k0=2, k_s=(2,), q_s=(0,))
        shared, _ = point_estimates(spec, dims)
        assert np.max(np.abs(shared.lambda_hat)) == 0.0
        expected = 1.5**2 * 2 * spec.k_scalar * spec.gamma_n / (spec.gamma_n - 2.0)
        np.testing.assert_allclose(shared.diag_add, expected, rtol=1e-12)

    def test_psi_arithmetic(self):
        # k0 = 2, gamma_n = 6, n + tau^{-2} = 10, delta^2 = 1 -> 0.3 per entry
        spec = synthetic_spec(p=4, k0=2, mu_scale=0.0, seed=0)
        spec = replace(spec, k_scalar=1.0 / 10.0, gamma_n=6.0,
                       delta_sq=np.ones(4), rho_lambda=1.0)
        dims = LatentDims(k0=2, k_s=(2,), q_s=(0,))
        shared, _ = point_estimates(spec, dims)
        np.testing.assert_allclose(shared.diag_add, 0.3, rtol=1e-12)

    def test_specific_uses_study_inflation(self):
        spec = synthetic_spec(p=3, k0=1, q_s=(2,), rho_gamma=(2.0,), seed=5)
        dims = LatentDims(k0=1, k_s=(3,), q_s=(2,))
        _, specific = point_estimates(spec, dims)
        base = 2 * spec.k_gamma_s[0] * spec.gamma_n / (spec.gamma_n - 2.0) * spec.delta_sq
        np.testing.assert_allclose(specific[0].diag_add, 4.0 * base, rtol=1e-12)

    def test_infeasible_gamma_n(self):
        spec = synthetic_spec()
        spec = replace(spec, gamma_n=2.0)
        with pytest.raises(InfeasibleHyperparameterError):
            point_estimates(spec, LatentDims(k0=2, k_s=(2,), q_s=(0,)))


class TestRunBlast:
    def test_zero_draws(self):
        ds, dims, fe, hp = small_fit(seed=14)
        result = run_blast(ds, BlastConfig(dims=dims, n_mc=0, seed=1))
        assert len(result.draws) == 0
        assert result.report["n_mc"] == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e100, 2.0**332])
    def test_overflowing_scale_raises(self, scale):
        # the dims are found, but the inflation products overflow; the
        # overflow reaches the caller as NumericalError, never as a warning
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=300, p=200, k0=5, q_s=4,
                                     loading_sd=0.5, seed=101))
        big = MultiStudyDataset(tuple(y * scale for y in ds.studies))
        with pytest.raises(NumericalError, match="rho_lambda is not finite"):
            run_blast(big, BlastConfig(n_mc=5, seed=1))

    def test_structural_invariants_and_report(self):
        ds, truth = generate(SimScenario(n_studies=3, n_per_study=60, p=40, k0=2,
                                         q_s=2, loading_sd=1.0, seed=17))
        result = run_blast(ds, BlastConfig(n_mc=60, seed=17))
        fe = result.factors
        n = fe.n_total
        np.testing.assert_allclose(fe.m_hat.T @ fe.m_hat, n * np.eye(result.dims.k0),
                                   atol=1e-8 * n)
        assert result.spec.rho_lambda >= 1.0
        assert all(r >= 1.0 for r in result.spec.rho_gamma)
        assert np.all(result.spec.delta_sq > 0)
        # the factor cross-product vanishes, so no extra diagonal term
        for m_hat_s, f_hat_s in zip(fe.m_hat_s, fe.f_hat_s):
            assert np.max(np.abs(m_hat_s.T @ f_hat_s), initial=0.0) <= 1e-8 * n
        assert "jic" in result.report
        assert len(result.draws) == 60

    def test_gamma_inflation_source_flag(self):
        ds, dims, fe, hp = small_fit(seed=21)
        r1 = run_blast(ds, BlastConfig(dims=dims, n_mc=0, seed=1,
                                       gamma_inflation_source="rho_lambda"))
        assert r1.spec.rho_for_gamma(0) == r1.spec.rho_lambda

    def test_tau_overrides(self):
        ds, dims, fe, hp = small_fit(seed=22)
        r = run_blast(ds, BlastConfig(dims=dims, n_mc=0, seed=1,
                                      tau_lambda_sq=0.7, tau_gamma_sq=0.3))
        assert r.hyperparams.tau_lambda_sq == 0.7
        assert all(t == 0.3 for t in r.hyperparams.tau_gamma_sq)

    def test_q_zero_study_end_to_end(self):
        ds, truth = generate(SimScenario(n_studies=2, n_per_study=50, p=30, k0=2,
                                         q_s=(0, 2), loading_sd=1.0, seed=19))
        dims = LatentDims(k0=2, k_s=(2, 4), q_s=(0, 2))
        result = run_blast(ds, BlastConfig(dims=dims, n_mc=10, seed=2))
        assert result.draws[0].gamma_tilde_s[0].shape == (30, 0)
        assert result.draws[0].gamma_tilde_s[1].shape == (30, 2)
        assert result.spec.rho_gamma[0] == 1.0

    def test_center_columns_flag(self):
        ds, truth = generate(SimScenario(n_studies=2, n_per_study=50, p=30, k0=2,
                                         q_s=2, loading_sd=1.0, seed=23))
        shifted = type(ds)(tuple(y + 7.0 for y in ds.studies))
        dims = LatentDims(k0=2, k_s=(4, 4), q_s=(2, 2))
        r_plain = run_blast(ds, BlastConfig(dims=dims, n_mc=0, seed=3))
        r_shift = run_blast(shifted, BlastConfig(dims=dims, n_mc=0, seed=3,
                                                 center_columns=True))
        # centering removes the constant shift; mean estimates roughly agree
        delta = np.abs(r_plain.spec.mu_lambda) - np.abs(r_shift.spec.mu_lambda)
        assert np.max(np.abs(delta)) < 0.5
