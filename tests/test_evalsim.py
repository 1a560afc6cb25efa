import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blast import evalsim
from blast.errors import (
    DataError,
    DimensionError,
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


def einsum_pair_coverage(draw_rows, truth_rows, level, idx=None):
    """Reference: all (T, m, m) products, quantiles over the draw axis, then
    the upper triangle of the covered mask, on the outcomes idx (all when
    None)."""
    if idx is not None:
        draw_rows, truth_rows = draw_rows[:, idx], truth_rows[idx]
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
        prods = triangle_products(rows)
        i, j = np.triu_indices(5)
        assert prods.shape == (15, 2) and prods.flags.c_contiguous
        np.testing.assert_array_equal(prods, (rows[:, i, 0] * rows[:, j, 0]).T)
        np.testing.assert_array_equal(triangle_products(rows[:, :, :0]), 0.0)

    def test_products_match_einsum(self):
        rows = np.random.default_rng(7).standard_normal((9, 37, 5))
        i, j = np.triu_indices(37)
        ref = np.einsum("tik,tjk->tij", rows, rows)[:, i, j].T
        scale = np.einsum("tik,tjk->tij", np.abs(rows), np.abs(rows))[:, i, j].T
        assert np.all(np.abs(triangle_products(rows) - ref) <= 1e-14 * scale)


def triangle_products(rows):
    """All (m(m+1)/2, T) draw products of `_triangle_blocks`, stacked, with
    the truth column (here rows[0]) dropped."""
    t = rows.shape[0]
    return np.concatenate([block[:, :t] for block in
                           evalsim._triangle_blocks(evalsim._lifted_rows(rows, rows[0]))])


def pair_budget(block_pairs, t):
    """The `_BLOCK_BYTES` that gives blocks of `block_pairs` pairs at T = t."""
    return block_pairs * 8 * (t + 1)


class TestTriangleBlocks:
    @pytest.mark.parametrize("t_plus_1", [51, 52, 501, 502])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_kernel_is_sequential_multiply_add(self, k, t_plus_1, monkeypatch):
        # Coverage must not move with the numpy build: a kernel that fused the
        # multiply-add, or summed the rank axis in another order, fails here.
        g = np.random.default_rng(100 * k + t_plus_1)
        m = 12
        scales = 10.0 ** g.uniform(-150, 150, (m, 1))  # products 1e-300 .. 1e300
        draw_rows = g.standard_normal((t_plus_1 - 1, m, k)) * scales
        truth_rows = g.standard_normal((m, k)) * scales
        lifted = np.concatenate([draw_rows, truth_rows[None]]).transpose(1, 2, 0)
        i, j = np.triu_indices(m)
        ref = np.zeros((i.size, t_plus_1))
        for c in range(k):
            ref += lifted[i, c] * lifted[j, c]
        at = evalsim._lifted_rows(draw_rows, truth_rows)
        default = evalsim._BLOCK_BYTES // (8 * t_plus_1)
        for block_pairs in (default, 7, 1):  # 7 and 1 split rows
            monkeypatch.setattr(evalsim, "_BLOCK_BYTES", pair_budget(block_pairs, t_plus_1 - 1))
            blocks = [b.copy() for b in evalsim._triangle_blocks(at)]
            assert all(len(b) <= block_pairs and b.flags.c_contiguous for b in blocks)
            assert np.array_equal(np.concatenate(blocks), ref)

    @pytest.mark.parametrize("t,pairs", [(500, 130), (2000, 32), (70_000, 1)])
    def test_block_is_sized_by_bytes(self, t, pairs):
        m = 20 if pairs > 1 else 3
        sizes = [len(b) for b in evalsim._triangle_blocks(np.zeros((m, 1, t + 1)))]
        assert max(sizes) == pairs and sum(sizes) == m * (m + 1) // 2

    def test_memory_grows_linearly_in_m(self):
        # The full products array alone is 20 MB at m = 100 and 181 MB at
        # m = 300.  Past the m x K x (T+1) gather of the rows, the working
        # set is at most about 1.2 MB whatever m and T (after a first call's
        # one-time allocations).
        g = np.random.default_rng(8)
        evalsim._pair_coverage(g.standard_normal((50, 3, 2)), g.standard_normal((3, 2)), 0.95)
        # all ties, so np.quantile runs: its first call imports numpy.ma
        evalsim._pair_coverage(np.zeros((50, 3, 2)), np.zeros((3, 2)), 0.95)
        for m, t in ((100, 500), (300, 500), (100, 2000)):
            draw_rows = g.standard_normal((t, m, 5))
            truth_rows = g.standard_normal((m, 5))
            tracemalloc.start()
            try:
                evalsim._pair_coverage(draw_rows, truth_rows, 0.95)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            gather = m * 5 * (t + 1) * 8
            assert peak < gather + 1.5e6, (m, t, peak / 1e6)

    def test_coverage_eval_gathers_no_draw_copy(self):
        # no (T, m, k) copy of the subset's draws: coverage_eval peaks where
        # _pair_coverage on a view of the same draws does
        g = np.random.default_rng(9)
        p, t, k = 200, 500, 5
        draws = DrawSet(lambda_tilde=g.standard_normal((t, p, k)),
                        gamma_tilde_s=(np.zeros((t, p, 0)),), sigma_tilde_sq=np.ones((t, p)))
        truth = SimTruth(lambda0=g.standard_normal((p, k)), gamma0_s=(np.zeros((p, 0)),),
                         sigma0_sq=np.ones(p), m0_s=(), f0_s=())

        def peak(fn, *args, **kwargs):
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stream = derive_stream(3, ("c",))
        coverage_eval(draws, truth, submatrix=50, stream=stream)  # one-time set-up
        for m in (100, 200):
            idx = np.sort(stream.generator().permutation(p)[:m])
            full = peak(coverage_eval, draws, truth, submatrix=m, stream=stream)
            view = peak(evalsim._pair_coverage, draws.lambda_tilde[:, :m], truth.lambda0[:m], 0.95)
            assert full < view + t * m * k * 8 / 4, (m, full / 1e6, view / 1e6)
            assert evalsim._pair_coverage(draws.lambda_tilde, truth.lambda0, 0.95, idx) == \
                evalsim._pair_coverage(draws.lambda_tilde[:, idx], truth.lambda0[idx], 0.95)


@st.composite
def coverage_cases(draw):
    """(draw_rows, truth_rows, level) whose products both `_pair_coverage` and
    the einsum oracle compute exactly: small integers or dyadic values for
    k > 1, and a single product per pair (k = 1) for arbitrary floats."""
    t = draw(st.sampled_from([50, 51, 500, 501]))
    m = draw(st.integers(1, 6))
    level = draw(st.one_of(st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]),
                           st.floats(0.5, 0.999)))
    kind = draw(st.sampled_from(["integer", "truth_rows", "concentrated", "extreme"]))
    k = draw(st.integers(1, 3)) if kind in ("integer", "truth_rows") else 1
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":  # ties
        truth_rows = g.integers(-3, 4, (m, k)).astype(float)
        draw_rows = g.integers(-3, 4, (t, m, k)).astype(float)
    elif kind == "truth_rows":  # draws equal to the truth, signed zeros included
        pool = np.array([0.0, -0.0, 0.5, -0.5, 1.25, -2.0])
        truth_rows = g.choice(pool, (m, k))
        same = g.random((t, m, 1)) < draw(st.floats(0.0, 1.0))
        draw_rows = np.where(same, truth_rows, g.choice(pool, (t, m, k)))
    elif kind == "concentrated":  # near-degenerate rows around the truth
        truth_rows = g.standard_normal((m, 1))
        scale = draw(st.sampled_from([1.0, 1e-3, 1e-15]))
        draw_rows = truth_rows + scale * g.standard_normal((t, m, 1))
    else:  # products at +-inf, nan and near 2^1023
        pool = np.array([np.inf, -np.inf, np.nan, 2.0**511.6, -(2.0**511.6), 2.0**511,
                         1.0, -1.0, 0.0])
        truth_rows = g.choice(pool, (m, 1))
        draw_rows = g.standard_normal((t, m, 1)) * draw(st.sampled_from([1.0, 2.0**511]))
        hit = g.random((t, m, 1)) < draw(st.floats(0.0, 0.2))
        draw_rows[hit] = g.choice(pool, int(hit.sum()))
    return draw_rows, truth_rows, level


class TestRankCountCoverage:
    @settings(max_examples=300, deadline=None)
    @given(coverage_cases())
    def test_matches_einsum_oracle_exactly(self, case):
        draw_rows, truth_rows, level = case
        with np.errstate(all="ignore"):
            want = einsum_pair_coverage(draw_rows, truth_rows, level)
            assert evalsim._pair_coverage(draw_rows, truth_rows, level) == want

    def test_overflowing_lerp_goes_to_quantiles(self):
        # Products of row 0 with row 1 jump from -2^1023.9 to +2^1023.05 at
        # the lower edge of a 50% interval (order statistics 12 and 13), so
        # the lerp between them overflows and np.quantile returns lo = +inf:
        # a target above x(13) is not covered, though its counts say covered.
        t = 50
        x1 = np.concatenate([np.full(13, -(2.0**511.95)),
                             2.0 ** np.linspace(511.1, 511.95, t - 13)])
        draw_rows = np.stack([np.full(t, 2.0**511.95), x1], axis=1)[:, :, None]
        truth_rows = np.array([[2.0**511.95], [x1[25]]])
        with np.errstate(all="ignore"):
            want = einsum_pair_coverage(draw_rows, truth_rows, 0.5)
            assert evalsim._pair_coverage(draw_rows, truth_rows, 0.5) == want

    @pytest.mark.parametrize("where,value,guard,route", [
        ("draws", np.nextafter(2.0**510, 0.0), "inputs", "counts"),
        ("draws", -np.nextafter(2.0**510, 0.0), "inputs", "counts"),
        ("truth", np.nextafter(2.0**510, 0.0), "inputs", "counts"),
        ("draws", 2.0**510, "blocks", "counts"),
        ("draws", -np.nextafter(2.0**510, np.inf), "blocks", "counts"),
        ("truth", np.nextafter(2.0**510, np.inf), "blocks", "counts"),
        ("draws", np.inf, "blocks", "quantile"),
        ("draws", -np.inf, "blocks", "quantile"),
        ("draws", np.nan, "blocks", "quantile"),
        ("truth", np.nan, "blocks", "counts"),
    ])
    def test_input_bound_edges(self, where, value, guard, route, caplog):
        # At rank 2 the input bound is max|entry| < sqrt(2^1021 / 2) = 2^510;
        # the other entries stay below 2^509.  Past the bound the products
        # are still below 2^1022, so the per-block check keeps counting.
        g = np.random.default_rng(6)
        draw_rows = g.uniform(-1.0, 1.0, (200, 10, 2)) * 2.0**509
        truth_rows = g.uniform(-1.0, 1.0, (10, 2)) * 2.0**509
        if where == "draws":
            draw_rows[7, 3, 0] = value
        else:
            truth_rows[3, 1] = value
        with np.errstate(all="ignore"), caplog.at_level(logging.DEBUG, logger="blast"):
            want = einsum_pair_coverage(draw_rows, truth_rows, 0.9)
            assert evalsim._pair_coverage(draw_rows, truth_rows, 0.9) == want
        [rec] = [r for r in caplog.records if r.getMessage().startswith("event=coverage ")]
        fields = dict(f.split("=", 1) for f in rec.getMessage().split())
        assert (fields["guard"], fields["route"]) == (guard, route)

    @pytest.mark.parametrize("route,guard", [
        pytest.param("counts", "inputs", id="counts"),
        pytest.param("quantile", "blocks", id="quantile"),
    ])
    def test_coverage_event_is_logged(self, route, guard, caplog):
        g = np.random.default_rng(4)
        draw_rows = g.standard_normal((200, 10, 2))
        if route == "quantile":
            draw_rows[7, 3, 0] = np.inf
        with np.errstate(invalid="ignore"), caplog.at_level(logging.DEBUG, logger="blast"):
            evalsim._pair_coverage(draw_rows, g.standard_normal((10, 2)), 0.9)
        [rec] = [r for r in caplog.records if r.getMessage().startswith("event=coverage ")]
        assert rec.levelno == logging.DEBUG
        fields = dict(f.split("=", 1) for f in rec.getMessage().split())
        assert fields["pairs"] == "55" and fields["route"] == route
        assert (fields["blocks"], fields["block_pairs"], fields["guard"]) == ("1", "55", guard)
        assert float(fields["seconds"]) >= 0.0
        quantile_pairs = int(fields["quantile_pairs"])
        if route == "quantile":
            assert quantile_pairs == 55
        else:
            assert 0 <= quantile_pairs < 55


@st.composite
def multi_block_cases(draw):
    """(draw_rows, truth_rows, level, block_pairs) where the m(m+1)/2 pairs
    span at least three blocks of `block_pairs`, and the m pairs of row 0
    fall in the first block."""
    t = draw(st.sampled_from([50, 51, 500, 501]))
    m = draw(st.integers(4, 9))
    block_pairs = draw(st.integers(m, (m * (m + 1) // 2 - 1) // 2))
    level = draw(st.one_of(st.sampled_from([0.5, 0.9, 0.95, 0.99]), st.floats(0.5, 0.999)))
    kind = draw(st.sampled_from(["ties", "truth_rows", "one_bad_block", "other_rank"]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        k = draw(st.integers(1, 3))
        truth_rows = g.integers(-3, 4, (m, k)).astype(float)
        draw_rows = g.integers(-3, 4, (t, m, k)).astype(float)
    elif kind == "truth_rows":  # draws equal to the truth, signed zeros included
        pool = np.array([0.0, -0.0, 0.5, -0.5, 1.25, -2.0])
        truth_rows = g.choice(pool, (m, draw(st.integers(1, 3))))
        same = g.random((t, m, 1)) < draw(st.floats(0.0, 1.0))
        draw_rows = np.where(same, truth_rows, g.choice(pool, (t,) + truth_rows.shape))
    elif kind == "one_bad_block":  # only the first block holds non-finite or huge products
        truth_rows = g.standard_normal((m, 1))
        draw_rows = g.standard_normal((t, m, 1))
        bad = np.array([np.inf, -np.inf, np.nan, 2.0**511.6, -(2.0**511.6)])
        hit = g.random(t) < draw(st.floats(0.0, 0.2))
        hit[g.integers(t)] = True
        draw_rows[hit, 0, 0] = g.choice(bad, int(hit.sum()))
    else:  # a selected rank that differs from the truth's
        k_draw, k_truth = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2,
                                        unique=True))
        truth_rows = g.integers(-2, 3, (m, k_truth)) / 2.0
        draw_rows = g.integers(-2, 3, (t, m, k_draw)) / 2.0
    return draw_rows, truth_rows, level, block_pairs


class TestBlockedCoverage:
    @settings(max_examples=200, deadline=None)
    @given(multi_block_cases())
    def test_matches_einsum_oracle_exactly(self, case):
        draw_rows, truth_rows, level, block_pairs = case
        budget = pair_budget(block_pairs, draw_rows.shape[0])
        with np.errstate(all="ignore"), mock.patch.object(evalsim, "_BLOCK_BYTES", budget):
            want = einsum_pair_coverage(draw_rows, truth_rows, level)
            assert evalsim._pair_coverage(draw_rows, truth_rows, level) == want

    def test_one_overflowing_block_reports_mixed_route(self, monkeypatch, caplog):
        g = np.random.default_rng(5)
        draw_rows = g.standard_normal((200, 10, 2))
        draw_rows[7, 0, 0] = np.inf  # pairs (0, j) fill the first of 6 blocks
        monkeypatch.setattr(evalsim, "_BLOCK_BYTES", pair_budget(10, 200))
        with np.errstate(invalid="ignore"), caplog.at_level(logging.DEBUG, logger="blast"):
            evalsim._pair_coverage(draw_rows, g.standard_normal((10, 2)), 0.9)
        [rec] = [r for r in caplog.records if r.getMessage().startswith("event=coverage ")]
        fields = dict(f.split("=", 1) for f in rec.getMessage().split())
        assert (fields["pairs"], fields["blocks"], fields["route"]) == ("55", "6", "mixed")
        assert (fields["block_pairs"], fields["guard"]) == ("10", "blocks")
        assert 10 <= int(fields["quantile_pairs"]) < 55


def test_coverage_eval_rejects_draw_truth_mismatch(rng):
    lam = rng.standard_normal((20, 2))
    truth = SimTruth(lambda0=lam, gamma0_s=(lam,), sigma0_sq=np.ones(20), m0_s=(),
                     f0_s=())
    for p in (30, 10):  # extra draw outcomes went unnoticed, missing ones hit IndexError
        rows = rng.standard_normal((60, p, 2))
        with pytest.raises(DimensionError, match="outcomes"):
            coverage_eval(make_draws_from_rows(rows, rows), truth, submatrix=5)
    rows = np.repeat(lam[None], 60, axis=0)
    for gammas in ((), (rows, rows)):
        draws = DrawSet(lambda_tilde=rows, gamma_tilde_s=gammas,
                        sigma_tilde_sq=np.ones((60, 20)))
        with pytest.raises(DimensionError, match="studies"):
            coverage_eval(draws, truth, submatrix=5)


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

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (1, 3), (3, 1), ()])
    def test_observed_values_must_be_one_row(self, rng, shape):
        # a (3, 3) block once returned a wrong (3, p_o) array without an error
        model = random_model(rng, 7, 2)
        with pytest.raises(DimensionError, match="must be one row"):
            conditional_predict(model, [0, 2, 4], rng.standard_normal(shape))

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


def per_row_predict(cov, observed_idx, y):
    """Reference: the conditioning of one row with nothing planned ahead,
    in the gain form that `conditional_predict` plans (W_t C^{-1} on the
    Woodbury route; the dense fallback as it was)."""
    p = cov.p
    mask = np.ones(p, dtype=bool)
    mask[observed_idx] = False
    target_idx = np.nonzero(mask)[0]
    w = cov.factors()
    w_o = w[observed_idx]
    w_t = w[target_idx]
    d_o = cov.diag_add[observed_idx]
    floor = 1e-12 * max(float(np.max(d_o)), float(np.max(np.sum(w_o**2, axis=1))), 1.0)
    if np.min(d_o) > floor:
        dinv, core = evalsim._woodbury_pieces(w_o, d_o)
        gain = np.linalg.solve(core, w_t.T).T
        mean = gain @ ((w_o * dinv[:, None]).T @ y)
        var = np.sum(gain * w_t, axis=1) + cov.diag_add[target_idx]
        return mean, np.maximum(var, 0.0), target_idx
    sigma_oo = w_o @ w_o.T + np.diag(d_o)
    siy = np.linalg.solve(sigma_oo, y)
    a = w_o.T @ np.linalg.solve(sigma_oo, w_o)
    mean = w_t @ (w_o.T @ siy)
    cross_var = np.sum((w_t @ a) * w_t, axis=1)
    var = np.sum(w_t**2, axis=1) + cov.diag_add[target_idx] - cross_var
    return mean, np.maximum(var, 0.0), target_idx


def woodbury_solve_predict(cov, observed_idx, y):
    """The Woodbury route as it was before the gain matrix: Sigma_oo^{-1} y
    by one r x r solve per row, and the explained variance from
    A = B - B C^{-1} B with B = W_o^T D^{-1} W_o."""
    target_idx = np.setdiff1d(np.arange(cov.p), observed_idx)
    w = cov.factors()
    w_o, w_t = w[observed_idx], w[target_idx]
    dinv, core = evalsim._woodbury_pieces(w_o, cov.diag_add[observed_idx])
    dy = dinv * y
    siy = dy - (w_o * dinv[:, None]) @ np.linalg.solve(core, w_o.T @ dy)
    b = (w_o * dinv[:, None]).T @ w_o
    a = b - b @ np.linalg.solve(core, b)
    var = np.sum(w_t**2, axis=1) + cov.diag_add[target_idx] - np.sum((w_t @ a) * w_t, axis=1)
    return w_t @ (w_o.T @ siy), np.maximum(var, 0.0)


@pytest.fixture(scope="module")
def cli_scale_model(tmp_path_factory):
    """Study 1's fitted covariance, as `blast predict` rebuilds it, from a
    point fit of the cli-scale dataset (S=3, n_s=500, p=1000, seed 101),
    with the random-half split `blast predict --seed 101` uses and 100 of
    the study's rows."""
    from blast import cli, io

    ds, _ = generate(SimScenario(n_studies=3, n_per_study=500, p=1000, k0=5, q_s=4,
                                 loading_sd=0.5, seed=101))
    result = run_blast(ds, BlastConfig(n_mc=0, seed=101))
    fit_dir = tmp_path_factory.mktemp("cli_scale_fit")
    io.write_point_estimates(fit_dir / "point_estimates.npz", result.spec, result.dims)
    model = cli._load_fit_models(fit_dir)[0]
    observed, _ = cli._resolve_split(None, model.p, 101)
    return model, observed, ds.studies[0][:100]


def fresh_copy(model):
    return CovarianceModel(model.lambda_hat.copy(), model.gamma_hat.copy(),
                           model.diag_add.copy())


class TestConditioningPlan:
    @staticmethod
    def woodbury_case():
        g = np.random.default_rng(41)
        model = CovarianceModel(lambda_hat=g.standard_normal((60, 3)),
                                gamma_hat=g.standard_normal((60, 2)),
                                diag_add=g.uniform(0.5, 2.0, 60))
        return model, np.sort(g.permutation(60)[:30]), g.standard_normal((25, 30))

    @staticmethod
    def dense_case():
        # two zero entries on the observed diagonal: the dense fallback
        g = np.random.default_rng(42)
        obs = np.sort(g.permutation(20)[:10])
        diag = g.uniform(0.5, 2.0, 20)
        diag[obs[:2]] = 0.0
        model = CovarianceModel(lambda_hat=g.standard_normal((20, 3)),
                                gamma_hat=np.zeros((20, 0)), diag_add=diag)
        return model, obs, g.standard_normal((25, 10))

    @pytest.mark.parametrize("case", ["woodbury_case", "dense_case"])
    def test_repeated_rows_bit_equal_oracle(self, case):
        model, obs, rows = getattr(self, case)()
        for y in rows:
            mean, var, target = conditional_predict(model, obs, y)
            mean_o, var_o, target_o = per_row_predict(model, obs, y)
            assert np.array_equal(mean, mean_o) and np.array_equal(var, var_o)
            assert np.array_equal(target, target_o)
        assert len(model._plans) == 1
        plan = next(iter(model._plans.values()))
        assert (plan.sigma_oo is None) == (case == "woodbury_case")

    def test_gain_form_matches_woodbury_solve_at_cli_scale(self, cli_scale_model):
        model, obs, rows = cli_scale_model
        assert model.factors().shape == (1000, 9)
        _, var, _ = conditional_predict(model, obs, rows[0, obs])
        _, var_w = woodbury_solve_predict(model, obs, rows[0, obs])
        assert np.max(np.abs(var - var_w)) <= 1e-12 * np.max(np.abs(var_w))
        for y in rows:
            mean, _, _ = conditional_predict(model, obs, y[obs])
            mean_w, _ = woodbury_solve_predict(model, obs, y[obs])
            assert np.max(np.abs(mean - mean_w)) <= 1e-12 * np.max(np.abs(mean_w))

    def test_plan_built_once_per_observed_set(self, monkeypatch):
        model, obs, rows = self.woodbury_case()
        built = []
        plan_fn = evalsim._conditional_plan
        monkeypatch.setattr(evalsim, "_conditional_plan",
                            lambda *a: built.append(1) or plan_fn(*a))
        monkeypatch.setattr(evalsim, "conditional_predict",
                            mock.Mock(wraps=evalsim.conditional_predict))
        y = np.random.default_rng(6).standard_normal((25, 60))
        prediction_nmse(model, y, observed_idx=obs)
        predictive_interval_coverage(model, y, 0.9, observed_idx=obs)
        assert len(built) == 1
        assert evalsim.conditional_predict.call_count == 2 * len(y)

    def test_switching_observed_sets_uses_no_stale_plan(self):
        model, obs, rows = self.woodbury_case()
        other = np.sort(np.random.default_rng(5).permutation(60)[:30])
        for idx in (obs, other, obs, other[:-3], obs):
            y = rows[0, : idx.size]
            got = conditional_predict(model, idx, y)
            want = conditional_predict(fresh_copy(model), idx, y)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert len(model._plans) == 1

    def test_returned_arrays_do_not_alias_the_plan(self):
        model, obs, rows = self.woodbury_case()
        mean, var, target = conditional_predict(model, obs, rows[0])
        var[:] = -1.0
        target[:] = 0
        _, var2, target2 = conditional_predict(model, obs, rows[0])
        assert np.array_equal(var2, per_row_predict(model, obs, rows[0])[1])
        assert np.array_equal(target2, np.setdiff1d(np.arange(60), obs))

    @pytest.mark.parametrize("idx, error", [
        ([], ParameterError), ([1, 1], ParameterError), (np.arange(60), ParameterError),
        ([0, 60], DimensionError), ([-1, 3], DimensionError),
    ])
    def test_bad_observed_set_still_raises_after_a_plan(self, idx, error):
        model, obs, rows = self.woodbury_case()
        conditional_predict(model, obs, rows[0])
        with pytest.raises(error):
            conditional_predict(model, idx, np.zeros(len(idx)))

    @pytest.mark.parametrize("shape", [(3, 30), (30, 1), (1, 30), ()])
    def test_two_d_values_still_raise_after_a_plan(self, shape):
        model, obs, rows = self.woodbury_case()
        conditional_predict(model, obs, rows[0])
        with pytest.raises(DimensionError, match="must be one row"):
            conditional_predict(model, obs, np.zeros(shape))
        with pytest.raises(DimensionError, match="disagree in length"):
            conditional_predict(model, obs, np.zeros(29))

    def test_index_errors_come_before_value_and_covariance_errors(self):
        bad = diag_model(np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ParameterError, match="empty"):
            conditional_predict(bad, [], np.zeros((2, 2)))
        with pytest.raises(DimensionError, match="one row"):
            conditional_predict(bad, [1], np.zeros((1, 1)))
        with pytest.raises(InvalidCovarianceError):
            conditional_predict(bad, [1], [0.0])
        assert not bad._plans


# the three scores of `blast predict`, over one model and one test block
EVERY_SCORE = pytest.mark.parametrize("score", [
    prediction_nmse,
    lambda model, y: predictive_interval_coverage(model, y, 0.9),
    gaussian_loglik,
], ids=["nmse", "interval_coverage", "loglik"])


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

    @pytest.mark.parametrize("level, z_ref", [
        # exact quantiles at the double 0.5 + level / 2, to 17 digits
        (0.5, 0.67448975019608174), (0.8, 1.2815515655446006),
        (0.9, 1.6448536269514723), (0.95, 1.9599639845400539),
        (0.99, 2.5758293035489005), (0.999, 3.2905267314919258),
    ])
    def test_z_is_the_normal_quantile(self, level, z_ref):
        assert abs(evalsim._central_z(level) - z_ref) <= 4 * np.spacing(z_ref)

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

    @pytest.mark.parametrize("width", [8, 12])
    @EVERY_SCORE
    def test_test_width_must_be_p(self, score, width):
        # 8 columns once raised a raw IndexError, and 12 were scored on
        # their first 10 without a word
        model = random_model(np.random.default_rng(12), p=10, r=2)
        y = np.random.default_rng(13).standard_normal((20, width))
        with pytest.raises(DimensionError, match=f"y_test has {width} columns, expected 10"):
            score(model, y)

    @pytest.mark.parametrize("block, message", [
        (np.zeros((0, 10)), "y_test has no rows"),
        (np.vstack([np.ones((3, 10)), np.full((1, 10), np.nan)]), "non-finite entries"),
    ], ids=["no_rows", "nan_row"])
    @EVERY_SCORE
    def test_empty_or_nonfinite_block_is_a_data_error(self, score, block, message):
        # no rows once raised a raw ValueError (nmse) or ZeroDivisionError
        # (interval coverage), and a NaN row gave an nmse of NaN
        model = random_model(np.random.default_rng(12), p=10, r=2)
        with pytest.raises(DataError, match=message):
            score(model, block)

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
