import dataclasses
import tracemalloc

import numpy as np
import pytest

from blast.errors import DegenerateSignalError, DimensionError, NumericalError, ParameterError
from blast.evalsim import SimScenario, generate, procrustes_error
from blast.numerics import ProjectedStack
from blast.posterior import BlastConfig, run_blast
from blast.ranks import RankSelectionConfig, select_dims_report
from blast.spectral import (
    PROJECTION_WEIGHTINGS,
    LatentDims,
    MultiStudyDataset,
    estimate_factors,
    shared_basis,
    shared_factors,
    specific_factors,
    study_right_basis,
)

from conftest import random_orthonormal, rebuild_y_c


def desk_scenario(seed):
    return SimScenario(n_studies=3, n_per_study=300, p=200, k0=5, q_s=4,
                       loading_sd=0.5, seed=seed)


def exact_dataset(rng, n_s=(40, 50), p=30, k0=2, q_s=(3, 2), scale=4.0):
    """Noise-free data with mutually orthogonal loading spans and per-study
    orthogonal factor blocks, so recovery is exact up to rotations."""
    total = k0 + sum(q_s)
    basis = random_orthonormal(rng, p, total)
    lam = scale * basis[:, :k0]
    gammas, off = [], k0
    for q in q_s:
        gammas.append(scale * basis[:, off:off + q])
        off += q
    studies, m0, f0 = [], [], []
    for s, n in enumerate(n_s):
        fac = random_orthonormal(rng, n, k0 + q_s[s])
        m = np.sqrt(n) * fac[:, :k0]
        f = np.sqrt(n) * fac[:, k0:]
        studies.append(m @ lam.T + f @ gammas[s].T)
        m0.append(m)
        f0.append(f)
    ds = MultiStudyDataset(tuple(studies))
    dims = LatentDims(k0=k0, k_s=tuple(k0 + q for q in q_s), q_s=tuple(q_s))
    return ds, dims, lam, gammas, m0, f0


class TestStudyRightBasis:
    def test_identity_input(self):
        v = study_right_basis(np.eye(3), 3)
        np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-10)

    def test_rank_one(self, rng):
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        basis = study_right_basis(np.outer(u, v), 1)
        np.testing.assert_allclose(basis @ basis.T, np.outer(v, v), atol=1e-10)

    def test_projection_properties(self, rng):
        y = rng.standard_normal((8, 5))
        basis = study_right_basis(y, 2)
        proj = basis @ basis.T  # dense oracle, only for the check
        np.testing.assert_allclose(proj, proj.T, atol=1e-12)
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert abs(np.trace(proj) - 2.0) <= 1e-10

    def test_rank_deficient(self, rng):
        y = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        with pytest.raises(DegenerateSignalError):
            study_right_basis(y, 2)


class TestSharedBasis:
    def test_identical_subspaces(self):
        v = np.eye(5)[:, :2]
        v_bar, spectrum = shared_basis([v, v], 2)
        np.testing.assert_allclose(spectrum[:2], [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(spectrum[2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(v_bar @ v_bar.T, v @ v.T, atol=1e-10)

    def test_orthogonal_subspaces_average(self):
        v1 = np.eye(5)[:, :1]
        v2 = np.eye(5)[:, 1:2]
        _, spectrum = shared_basis([v1, v2], 1)
        np.testing.assert_allclose(spectrum, [0.5, 0.5], atol=1e-12)

    def test_matches_dense_average_oracle(self, rng):
        bases = [random_orthonormal(rng, 20, k) for k in (3, 4, 2)]
        _, spectrum = shared_basis(bases, 2)
        dense = sum(v @ v.T for v in bases) / 3.0  # oracle: explicit 20x20 average
        evals = np.sort(np.linalg.eigvalsh(dense))[::-1]
        np.testing.assert_allclose(spectrum, evals[: len(spectrum)], atol=1e-10)

    def test_spectrum_in_unit_interval(self, rng):
        bases = [random_orthonormal(rng, 15, 3) for _ in range(4)]
        _, spectrum = shared_basis(bases, 3)
        assert np.all(spectrum >= -1e-12)
        assert np.all(spectrum <= 1.0 + 1e-10)

    def test_k0_too_large(self, rng):
        bases = [random_orthonormal(rng, 10, 2), random_orthonormal(rng, 10, 3)]
        with pytest.raises(DimensionError):
            shared_basis(bases, 3)


class TestSpecificFactors:
    def test_fully_shared_signal_degenerates(self, rng):
        v_bar = random_orthonormal(rng, 10, 2)
        y = rng.standard_normal((6, 2)) @ v_bar.T  # columns inside span(v_bar)
        with pytest.raises(DegenerateSignalError):
            specific_factors(y, v_bar, 1)

    def test_q_zero_empty(self, rng):
        f, u = specific_factors(rng.standard_normal((6, 4)), random_orthonormal(rng, 4, 2), 0)
        assert f.shape == (6, 0)
        assert u.shape == (6, 0)

    def test_scaling_and_orthogonality(self, rng):
        y = rng.standard_normal((30, 12))
        v_bar = random_orthonormal(rng, 12, 2)
        f, u = specific_factors(y, v_bar, 3)
        np.testing.assert_allclose(f.T @ f, 30 * np.eye(3), atol=1e-8 * 30)
        # residual matrix is orthogonal to the shared directions
        y_perp = y - (y @ v_bar) @ v_bar.T
        assert np.max(np.abs(y_perp @ v_bar)) <= 1e-10
        np.testing.assert_allclose(f, np.sqrt(30) * u)


class TestSharedFactors:
    def test_single_study_reduction(self, rng):
        y = rng.standard_normal((12, 6))
        ds = MultiStudyDataset((y,))
        m_hat, *_ = shared_factors(ds, (np.zeros((12, 0)),), 2)
        np.testing.assert_allclose(ProjectedStack(ds.studies, (np.zeros((12, 0)),)).dense(), y)
        u, s, vt = np.linalg.svd(y)
        span_est = m_hat @ m_hat.T
        span_true = 12 * u[:, :2] @ u[:, :2].T
        np.testing.assert_allclose(span_est, span_true, atol=1e-8)

    def test_annihilation(self, rng):
        u_perp = random_orthonormal(rng, 10, 2)
        y1 = u_perp @ rng.standard_normal((2, 5))  # fully inside the specific span
        y2 = rng.standard_normal((8, 5))
        ds = MultiStudyDataset((y1, y2))
        y_c = ProjectedStack(ds.studies, (u_perp, np.zeros((8, 0)))).dense()
        assert np.max(np.abs(y_c[:10])) <= 1e-10

    def test_y_c_bit_equal_to_stacked_blocks(self, rng):
        # one study with q_s = 0 (a plain copy), one with specific factors
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=(30, 45), p=20, k0=2,
                                     q_s=(0, 2), seed=9))
        u_perp_s = (np.zeros((30, 0)), random_orthonormal(rng, 45, 2))
        y_c = ProjectedStack(ds.studies, u_perp_s).dense()
        y0, y1 = ds.studies
        u = u_perp_s[1]
        want = np.vstack([y0, y1 - u @ (u.T @ y1)])
        assert y_c.flags.c_contiguous and y_c.tobytes() == want.tobytes()

    def test_statistics_bit_equal_to_y_c(self):
        # what the posterior reads of y_c, against y_c rebuilt from the fit.
        # The statistics are sums over the studies, so they agree to the
        # first-order roundoff bound of a sum of n products: n eps times the
        # same sum over the raw stacked data, in absolute values
        ds, _ = generate(desk_scenario(101))
        fe = estimate_factors(ds, LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4)))
        y_c = rebuild_y_c(ds, fe.u_perp_s)
        raw = np.abs(np.vstack(ds.studies))
        tol = ds.n_total * np.finfo(np.float64).eps
        assert np.all(np.abs(fe.yc_col_sq - np.sum(y_c**2, axis=0))
                      <= tol * np.sum(raw**2, axis=0))
        assert np.all(np.abs(fe.yc_t_m - y_c.T @ fe.m_hat) <= tol * (raw.T @ np.abs(fe.m_hat)))

    def test_w_s_is_u_perp_s_t_y_s(self):
        # what the posterior reads in place of f_hat_s^T Y_s: one study with
        # q_s = 0 (an empty block) and two with specific factors
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=(40, 60, 50), p=30, k0=2,
                                     q_s=(0, 2, 3), seed=12))
        fe = estimate_factors(ds, LatentDims(k0=2, k_s=(2, 4, 5), q_s=(0, 2, 3)))
        for s, y in enumerate(ds.studies):
            w = fe.w_s[s]
            assert w.shape == (fe.u_perp_s[s].shape[1], ds.p)
            np.testing.assert_allclose(w, fe.u_perp_s[s].T @ y, rtol=0,
                                       atol=1e-13 * np.abs(y).max())
            np.testing.assert_allclose(np.sqrt(ds.n_s[s]) * w, fe.f_hat_s[s].T @ y, rtol=0,
                                       atol=1e-12 * np.abs(y).max())

    def test_no_n_by_p_array_is_kept(self):
        ds, _ = generate(desk_scenario(101))
        fe = estimate_factors(ds, LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4)))
        arrays, todo = [], [getattr(fe, f.name) for f in dataclasses.fields(fe)]
        while todo:
            x = todo.pop()
            if isinstance(x, tuple):
                todo.extend(x)
            elif isinstance(x, np.ndarray):
                arrays.append(x)
                if x.base is not None:  # a view keeps its base alive
                    todo.append(x.base)
        assert arrays
        assert all(a.size != ds.n_total * ds.p for a in arrays)

    def test_no_n_by_p_or_p_by_p_array_is_formed(self):
        # n x p is 3.84 MB and p x p 2.88 MB here, while each study's own
        # temporaries are 0.96 MB: the fit's traced peak stays below both
        ds, _ = generate(SimScenario(n_studies=4, n_per_study=200, p=600, k0=3, q_s=2,
                                     loading_sd=0.5, seed=11))
        dims = LatentDims(k0=3, k_s=(5,) * 4, q_s=(2,) * 4)
        estimate_factors(ds, dims)  # first-call allocations stay out of the trace
        tracemalloc.start()
        try:
            estimate_factors(ds, dims)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * ds.p**2 < 8 * ds.n_total * ds.p

    def test_block_orthogonality_identity(self, rng):
        ds, truth = generate(SimScenario(n_studies=3, n_per_study=40, p=30, k0=2, q_s=2, seed=5))
        dims = LatentDims(k0=2, k_s=(4, 4, 4), q_s=(2, 2, 2))
        fe = estimate_factors(ds, dims)
        for s in range(3):
            block = fe.m_hat_s[s] / np.sqrt(fe.n_total)  # block of u_c
            assert np.max(np.abs(fe.u_perp_s[s].T @ block)) <= 1e-8


class TestEstimateFactors:
    def test_exact_recovery_at_zero_noise(self, rng):
        ds, dims, lam, gammas, m0, f0 = exact_dataset(rng)
        fe = estimate_factors(ds, dims)
        for s in range(ds.n_studies):
            assert procrustes_error(fe.m_hat_s[s], m0[s]) <= 1e-6
            assert procrustes_error(fe.f_hat_s[s], f0[s]) <= 1e-6

    def test_factor_normalization_invariants(self, rng):
        ds, truth = generate(desk_scenario(3))
        dims = LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4))
        fe = estimate_factors(ds, dims)
        n = fe.n_total
        np.testing.assert_allclose(fe.m_hat.T @ fe.m_hat, n * np.eye(5), atol=1e-8 * n)
        for s in range(3):
            n_s = ds.n_s[s]
            np.testing.assert_allclose(
                fe.f_hat_s[s].T @ fe.f_hat_s[s], n_s * np.eye(4), atol=1e-8 * n_s
            )
            cross = fe.m_hat_s[s].T @ fe.f_hat_s[s]
            assert np.max(np.abs(cross)) <= 1e-8 * np.sqrt(n * n_s)
        assert np.all(fe.p_tilde_spectrum <= 1.0 + 1e-10)
        assert np.all(fe.p_tilde_spectrum >= -1e-12)

    def test_non_orthogonal_factors_are_refused(self):
        # the posterior draws specific loadings around a mean that takes
        # m_hat_s^T f_hat_s = 0, so factors that break it are not accepted
        ds, _ = generate(desk_scenario(3))
        fe = estimate_factors(ds, LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4)))
        f_hat_s = list(fe.f_hat_s)
        f_hat_s[1] = f_hat_s[1] + 1e-6 * fe.m_hat_s[1][:, :4]
        with pytest.raises(NumericalError, match="study 1: specific factors are not orth"):
            dataclasses.replace(fe, f_hat_s=tuple(f_hat_s))

    def test_desk_scale_procrustes_matches_reference(self):
        # reference desk-scale values are ~0.36 for both factor sets
        ds, truth = generate(desk_scenario(11))
        dims = LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4))
        fe = estimate_factors(ds, dims)
        shared = np.mean([procrustes_error(fe.m_hat_s[s], truth.m0_s[s]) for s in range(3)])
        specific = np.mean([procrustes_error(fe.f_hat_s[s], truth.f0_s[s]) for s in range(3)])
        assert 0.29 < shared < 0.44
        assert 0.29 < specific < 0.44

    def test_study_permutation_equivariance(self, rng):
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=(30, 40, 50), p=25,
                                     k0=2, q_s=2, seed=9))
        dims = LatentDims(k0=2, k_s=(4, 4, 4), q_s=(2, 2, 2))
        fe = estimate_factors(ds, dims)
        order = [2, 0, 1]
        ds_p = MultiStudyDataset(tuple(ds.studies[s] for s in order))
        fe_p = estimate_factors(ds_p, dims)
        np.testing.assert_allclose(fe_p.p_tilde_spectrum, fe.p_tilde_spectrum, atol=1e-9)
        for new_s, old_s in enumerate(order):
            np.testing.assert_allclose(fe_p.f_hat_s[new_s], fe.f_hat_s[old_s], atol=1e-8)
            np.testing.assert_allclose(fe_p.m_hat_s[new_s], fe.m_hat_s[old_s], atol=1e-7)

    def test_direct_call_equals_the_fit(self):
        # a direct call decomposes each study once, as run_blast does with
        # fixed dims: the specific factors downdate the basis request's Gram
        ds, _ = generate(desk_scenario(101))
        dims = LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4))
        direct = estimate_factors(ds, dims)
        fit = run_blast(ds, BlastConfig(dims=dims, n_mc=0)).factors
        for f in dataclasses.fields(direct):
            got, want = getattr(direct, f.name), getattr(fit, f.name)
            pairs = zip(got, want, strict=True) if isinstance(want, tuple) else [(got, want)]
            for x, y in pairs:
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), f.name

    def test_weighting_by_n(self, rng):
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=(30, 60), p=25, k0=2,
                                     q_s=2, seed=21))
        dims = LatentDims(k0=2, k_s=(4, 4), q_s=(2, 2))
        fe_u = estimate_factors(ds, dims, weighting="uniform")
        fe_w = estimate_factors(ds, dims, weighting="by_n")
        # both valid; weighted averaging changes the spectrum
        assert not np.allclose(fe_u.p_tilde_spectrum, fe_w.p_tilde_spectrum)

    def test_unknown_weighting_is_a_parameter_error(self):
        # a setting typo exits 2 (ConfigError), and rank selection must not
        # quietly average uniformly instead
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=30, p=25, k0=2, q_s=2, seed=21))
        with pytest.raises(ParameterError, match="by-n"):
            select_dims_report(ds, RankSelectionConfig(k_max=6), weighting="by-n")
        with pytest.raises(ParameterError, match="by-n"):
            estimate_factors(ds, LatentDims(k0=2, k_s=(4, 4), q_s=(2, 2)), weighting="by-n")

    def test_config_checks_the_names_spectral_decides(self):
        with pytest.raises(ParameterError, match="by-n"):
            BlastConfig(projection_weighting="by-n")
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=(30, 60), p=25, k0=2,
                                     q_s=2, seed=21))
        for name in PROJECTION_WEIGHTINGS:
            BlastConfig(projection_weighting=name)
            estimate_factors(ds, LatentDims(k0=2, k_s=(4, 4), q_s=(2, 2)), weighting=name)

    def test_dims_validation(self, rng):
        ds, _ = generate(SimScenario(n_studies=2, n_per_study=10, p=25, k0=2, q_s=2, seed=2))
        with pytest.raises(DimensionError):
            estimate_factors(ds, LatentDims(k0=2, k_s=(11, 11), q_s=(9, 9)))
