import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blast import numerics, posterior, ranks, spectral
from blast.errors import DataError, DimensionError, NumericalError
from blast.evalsim import SimScenario, generate
from blast.numerics import derive_stream, parallel_map, procrustes_rotation, truncated_svd

from conftest import random_orthonormal


def rank_deficient(rng, m, n, drop):
    """m x n Gaussian matrix with `drop` column-space directions projected out."""
    a = rng.standard_normal((m, n))
    q = random_orthonormal(rng, n, drop)
    return a - (a @ q) @ q.T


_REAL_SVD = np.linalg.svd


def broken_svd(failure):
    """Stand-in SVD that raises LinAlgError, or returns NaN singular values."""

    def svd(a, full_matrices=True, **kwargs):
        if failure == "raise":
            raise np.linalg.LinAlgError("SVD did not converge")
        u, s, vt = _REAL_SVD(a, full_matrices=full_matrices)
        return u, s * np.nan, vt

    return svd


def failing_eigh(g):
    """Stand-in eigh that raises LinAlgError."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def failing_syevr(failure, calls=None):
    """Stand-in for the top-r driver that `numerics._load_syevr` binds: it
    reports a nonzero `info` ("raise"), writes NaN eigenvalues ("nan"), or
    finds fewer eigenvalues than asked ("short").  Records the shape of
    each matrix it is given in `calls`."""

    def syevr(layout, jobz, range_, uplo, n, a, lda, vl, vu, il, iu, abstol, found, w, z,
              ldz, support):
        if calls is not None:
            calls.append(a.shape)
        if failure == "raise":
            return 1
        found[0] = iu - il + (failure != "short")
        w[:] = np.nan if failure == "nan" else 1.0
        z[:] = 0.0
        return 0

    return syevr


def break_eigensolvers(monkeypatch, failure):
    """Make both Gram-route eigensolvers fail: numpy's eigh (the Ritz step,
    and the full route on numpy builds without the top-r driver) raises, and
    the top-r driver fails as `failing_syevr` says, so every request falls
    through to dense LAPACK."""
    monkeypatch.setattr(numerics.np.linalg, "eigh", failing_eigh)
    monkeypatch.setattr(numerics, "_load_syevr", lambda: failing_syevr(failure))


def dense_truncated_svd(monkeypatch, a, r):
    """truncated_svd forced onto the dense LAPACK route: every Gram route
    declines."""
    with monkeypatch.context() as m:
        m.setattr(numerics, "_operator_svd", lambda *args: None)
        return truncated_svd(a, r)


def sine_largest_angle(got, want):
    """Sine of the largest principal angle between two orthonormal bases."""
    return np.linalg.norm(got - want @ (want.T @ got), 2)


def assert_same_factors(fac, expected):
    assert np.array_equal(fac.singvals, expected.singvals)
    assert np.array_equal(fac.left, expected.left)
    assert np.array_equal(fac.right, expected.right)


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        fac = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(fac.singvals, [3.0, 2.0])
        np.testing.assert_allclose(fac.left, np.eye(3)[:, :2], atol=1e-12)
        np.testing.assert_allclose(fac.right, np.eye(3)[:, :2], atol=1e-12)

    def test_zero_matrix(self):
        fac = truncated_svd(np.zeros((2, 2)), 1)
        np.testing.assert_allclose(fac.singvals, [0.0])
        # orthonormality still holds for the reported factors
        np.testing.assert_allclose(fac.left.T @ fac.left, np.eye(1), atol=1e-10)

    def test_full_rank_reconstruction_vs_eigh_oracle(self, rng):
        a = rng.standard_normal((6, 4))
        fac = truncated_svd(a, 4)
        assert np.linalg.norm(fac.reconstruct() - a) <= 1e-10
        # oracle: dense symmetric eigendecomposition of a^T a
        evals = np.linalg.eigvalsh(a.T @ a)[::-1]
        np.testing.assert_allclose(fac.singvals, np.sqrt(evals), rtol=1e-8)

    @pytest.mark.parametrize("shape,r", [((8, 5), 3), ((5, 9), 4), ((20, 3), 2)])
    def test_singvals_match_gram_eigenvalues(self, rng, shape, r):
        a = rng.standard_normal(shape)
        fac = truncated_svd(a, r)
        evals = np.linalg.eigvalsh(a.T @ a)[::-1][:r]
        np.testing.assert_allclose(fac.singvals, np.sqrt(np.maximum(evals, 0)), rtol=1e-8)

    def test_orthonormal_factors(self, rng):
        a = rng.standard_normal((12, 7))
        fac = truncated_svd(a, 5)
        np.testing.assert_allclose(fac.left.T @ fac.left, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(5), atol=1e-10)

    def test_sign_convention(self, rng):
        a = rng.standard_normal((10, 6))
        fac = truncated_svd(a, 4)
        for c in range(4):
            col = fac.right[:, c]
            assert col[np.argmax(np.abs(col))] > 0
        # deterministic: identical bytes on repeat
        fac2 = truncated_svd(a, 4)
        assert np.array_equal(fac.left, fac2.left)
        assert np.array_equal(fac.right, fac2.right)

    def test_sign_convention_ties_go_to_the_first_index(self):
        # columns whose largest magnitude is tied between a positive and a
        # negative entry: the first of them decides
        right = np.array([[0.5, -0.5, 0.6], [-0.5, 0.5, -0.8], [0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]])
        left = np.arange(6.0).reshape(2, 3)
        got_left, got_right = numerics._apply_sign_convention(left, right)
        flips = np.array([1.0, -1.0, -1.0])
        assert np.array_equal(got_right, right * flips)
        assert np.array_equal(got_left, left * flips)

    def test_row_permutation_covariance(self, rng):
        a = rng.standard_normal((9, 5))
        perm = rng.permutation(9)
        fac = truncated_svd(a, 3)
        fac_p = truncated_svd(a[perm], 3)
        np.testing.assert_allclose(fac_p.singvals, fac.singvals, rtol=1e-10)
        np.testing.assert_allclose(fac_p.right, fac.right, atol=1e-9)
        np.testing.assert_allclose(fac_p.left, fac.left[perm], atol=1e-9)

    def test_gram_path_contracts(self, rng):
        # rank small against the short side: the Gram route
        a = rng.standard_normal((1400, 600)) @ np.diag(
            np.concatenate([np.full(5, 30.0), np.ones(595)])
        )
        fac = truncated_svd(a, 5)
        np.testing.assert_allclose(fac.left.T @ fac.left, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(5), atol=1e-10)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(fac.singvals, s[:5], rtol=1e-10)
        best = (u[:, :5] * s[:5]) @ vt[:5]
        assert np.linalg.norm(fac.reconstruct() - best) <= 1e-8 * s[0]

    @pytest.mark.parametrize("sigma_2", [1e-6, 1e-8])
    def test_gram_route_rejects_unresolvable_component(self, rng, sigma_2):
        # sigma_2^2 / sigma_1^2 is far below what the Gram matrix resolves;
        # the request must fall back to LAPACK and keep its orthonormal factors
        u = random_orthonormal(rng, 700, 2)
        v = random_orthonormal(rng, 520, 2)
        a = (u * [1.0, sigma_2]) @ v.T
        fac = truncated_svd(a, 2)
        assert np.abs(fac.left.T @ fac.left - np.eye(2)).max() <= 1e-10
        assert np.abs(fac.right.T @ fac.right - np.eye(2)).max() <= 1e-10
        assert np.array_equal(fac.singvals, numerics._svd_lapack(a, 2)[1])

    def test_ratio_guard_logs_lapack_route(self, rng, caplog):
        # an array request is served as a StudyGram's, so both decline alike
        u = random_orthonormal(rng, 300, 2)
        v = random_orthonormal(rng, 200, 2)
        a = (u * [1.0, 1e-3]) @ v.T
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(a, 2)
            study = truncated_svd(numerics.StudyGram(a), 2)
        assert gram_eig_lines(caplog) == ["event=gram_eig k=200 r=2 route=lapack reason=ratio"] * 2
        assert np.array_equal(fac.singvals, numerics._svd_lapack(a, 2)[1])
        assert_same_factors(study, fac)

    def test_iterative_path_known_factorization(self, rng):
        # a large low-rank request (short side 4100, r=3) takes the Gram
        # route; the factorization is known exactly
        m, n, r = 4200, 4100, 6
        u = random_orthonormal(rng, m, r)
        v = random_orthonormal(rng, n, r)
        d = np.array([50.0, 40.0, 30.0, 20.0, 10.0, 5.0])
        a = (u * d) @ v.T
        fac = truncated_svd(a, 3)
        np.testing.assert_allclose(fac.singvals, d[:3], rtol=1e-10)
        for c in range(3):
            assert abs(u[:, c] @ fac.left[:, c]) > 1 - 1e-10
        np.testing.assert_allclose(fac.left.T @ fac.left, np.eye(3), atol=1e-10)

    def test_rank_out_of_range(self, rng):
        a = rng.standard_normal((4, 3))
        with pytest.raises(DimensionError):
            truncated_svd(a, 0)
        with pytest.raises(DimensionError):
            truncated_svd(a, 4)

    def test_nonfinite_entries(self):
        a = np.ones((3, 3))
        a[1, 2] = np.nan
        with pytest.raises(DataError):
            truncated_svd(a, 1)

    # The tests below break one decomposition at a time by monkeypatching, so
    # they exercise the fallbacks on every BLAS build, not only on one whose
    # gesdd fails on real input.  A request reaches LAPACK only when the Gram
    # route declines, so the LAPACK tests break its eigensolvers too.

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_gesdd_failure_falls_back_to_gesvd(self, rng, monkeypatch, caplog, failure):
        a = rank_deficient(rng, 40, 25, 3)
        expected = truncated_svd(a, 4)
        break_eigensolvers(monkeypatch, failure)
        monkeypatch.setattr(numerics.np.linalg, "svd", broken_svd(failure))
        with caplog.at_level(logging.WARNING, logger="blast.numerics"):
            fac = truncated_svd(a, 4)
        assert "event=svd_fallback shape=40x25 r=4" in caplog.text
        np.testing.assert_allclose(fac.singvals, expected.singvals, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fac.left, expected.left, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fac.right, expected.right, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_both_drivers_fail_raises_numerical_error(self, rng, monkeypatch, failure):
        a = rng.standard_normal((12, 7))
        break_eigensolvers(monkeypatch, failure)
        monkeypatch.setattr(numerics.np.linalg, "svd", broken_svd("raise"))
        monkeypatch.setattr(scipy.linalg, "svd", broken_svd(failure))
        with pytest.raises(NumericalError, match=r"shape 12x7 at rank r=3") as err:
            truncated_svd(a, 3)
        assert "gesvd " + ("nonfinite" if failure == "nan" else "'SVD did not") in str(err.value)

    @pytest.mark.parametrize("failure", ["raise", "nan", "short"])
    def test_gram_route_failure_falls_back_to_dense(self, rng, monkeypatch, caplog, failure):
        a = rng.standard_normal((200, 120))
        expected = dense_truncated_svd(monkeypatch, a, 4)
        calls = []

        def broken_eigh(g):
            calls.append(g.shape)
            if failure != "nan":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            w, v = np.linalg.eigvalsh(g), np.eye(g.shape[0])
            return w * np.nan, v

        monkeypatch.setattr(numerics.np.linalg, "eigh", broken_eigh)
        monkeypatch.setattr(numerics, "_load_syevr", lambda: failing_syevr(failure, calls))
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(a, 4)
        # the Gram route was taken: both of its eigensolvers ran and failed,
        # the subspace iteration on its 7 x 7 Ritz matrix, then the top-r
        # driver on the 120 x 120 Gram matrix
        assert calls == [(7, 7), (120, 120)]
        assert "event=gram_eig k=120 r=4 route=full reason=solver driver=syevr" in caplog.text
        assert_same_factors(fac, expected)

    def test_subspace_iteration_matches_full_eigh(self, rng, monkeypatch, caplog):
        # shaped like the shared-factor request at large p: 2500 x 2000, r=5,
        # five separated components above a noise bulk
        u = random_orthonormal(rng, 2500, 5)
        v = random_orthonormal(rng, 2000, 5)
        a = rng.standard_normal((2500, 2000)) + (u * [900.0, 700.0, 500.0, 350.0, 250.0]) @ v.T
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(a, 5)
        assert "event=gram_eig k=2000 r=5 route=subspace iters=" in caplog.text
        with monkeypatch.context() as m:
            m.setattr(numerics, "_subspace_eigh", lambda g, r: (None, "forced"))
            full = truncated_svd(a, 5)
        np.testing.assert_allclose(fac.singvals, full.singvals, rtol=1e-12)
        for got, want in [(fac.left, full.left), (fac.right, full.right)]:
            assert sine_largest_angle(got, want) <= 1e-10

    def test_subspace_iteration_at_large_scale(self, rng, caplog):
        # entries near 1e90 put the Gram matrix near 1e185: its residual
        # must not overflow, so the scaled request converges in as many
        # iterations as the unscaled one, to the same factors
        a = rng.standard_normal((400, 240))
        a += 200.0 * random_orthonormal(rng, 400, 3) @ random_orthonormal(rng, 240, 3).T
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(a, 3)
            big = truncated_svd(a * 2.0**300, 3)
        lines = [r.getMessage() for r in caplog.records if "event=gram_eig" in r.getMessage()]
        assert len(lines) == 2 and lines[0] == lines[1] and "route=subspace" in lines[0]
        np.testing.assert_allclose(big.singvals, fac.singvals * 2.0**300, rtol=1e-12)
        np.testing.assert_allclose(big.right, fac.right, rtol=0, atol=1e-10)

    def test_flat_spectrum_takes_full_eigh(self, rng, monkeypatch, caplog):
        # pure noise has no gap after rank 10, so subspace iteration would
        # need more products than a full eigendecomposition costs
        self.assert_full_eigh(rng, monkeypatch, caplog, 10, "slow_gap")

    def test_k_max_request_takes_full_eigh_without_a_ritz_step(self, rng, monkeypatch, caplog):
        # at rank 30 (rank selection's k_max) the block of 65 columns spans
        # more than an eighth of the 500 x 500 Gram matrix
        self.assert_full_eigh(rng, monkeypatch, caplog, 30, "wide_block")

    def assert_full_eigh(self, rng, monkeypatch, caplog, r, reason):
        a = rng.standard_normal((500, 2000))
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(a, r)
        assert f"event=gram_eig k=500 r={r} route=full reason={reason}" in caplog.text
        with monkeypatch.context() as m:
            m.setattr(numerics, "_subspace_eigh", lambda g, r: (None, "forced"))
            assert_same_factors(fac, truncated_svd(a, r))

    def test_byte_identical_across_thread_counts(self, rng, caplog):
        # gapped inputs, so every request runs the seeded subspace iteration
        inputs = [rng.standard_normal((400, 240))
                  + 200.0 * random_orthonormal(rng, 400, 3) @ random_orthonormal(rng, 240, 3).T
                  for _ in range(6)]

        def run(threads):
            return parallel_map(lambda i: truncated_svd(inputs[i], 3), len(inputs), threads)

        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            serial, threaded = run(1), run(4)
        assert caplog.text.count("route=subspace") == 12
        for fac, other in zip(serial, threaded):
            assert_same_factors(fac, other)


def gram_eig_lines(caplog):
    return [r.getMessage() for r in caplog.records if "event=gram_eig" in r.getMessage()]


class TestFullRouteDriver:
    """The full route's eigensolver: LAPACK's top-r `dsyevr` from the
    library numpy links, or numpy's full `eigh` where numpy has none."""

    def test_syevr_is_bound_where_numpy_links_ilp64_scipy_openblas(self, rng, caplog):
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        ilp64 = (lapack["name"] == "scipy-openblas"
                 and "USE64BITINT" in lapack.get("openblas configuration", ""))
        assert (numerics._load_syevr() is not None) == ilp64
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            truncated_svd(rng.standard_normal((60, 40)), 10)
        driver = "syevr" if ilp64 else "syevd"
        assert gram_eig_lines(caplog) == [
            f"event=gram_eig k=40 r=10 route=full reason=wide_block driver={driver}"]

    @pytest.mark.parametrize("r", [30, 12])
    def test_eigh_path_meets_the_dense_lapack_tolerance(self, rng, monkeypatch, caplog, r):
        a = (rng.standard_normal((300, 200))
             + 30.0 * random_orthonormal(rng, 300, 5) @ random_orthonormal(rng, 200, 5).T)
        dense = dense_truncated_svd(monkeypatch, a, r)
        monkeypatch.setattr(numerics, "_load_syevr", lambda: None)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(a, r)
        assert gram_eig_lines(caplog) == [
            f"event=gram_eig k=200 r={r} route=full reason=wide_block driver=syevd"]
        np.testing.assert_allclose(fac.singvals, dense.singvals, rtol=1e-12, atol=0)
        assert sine_largest_angle(fac.left, dense.left) <= 1e-10
        assert sine_largest_angle(fac.right, dense.right) <= 1e-10


class TestFactorizationScope:
    """What one study's factorization keeps: a `StudyGram` holds its study's
    Gram matrix and eigenpairs, and a plain array keeps nothing."""

    def gapped(self, rng, m=120, n=80, rank=6):
        return (rng.standard_normal((m, n))
                + 50.0 * random_orthonormal(rng, m, rank) @ random_orthonormal(rng, n, rank).T)

    def test_lower_rank_request_reuses_within_tolerance(self, rng, caplog):
        a = self.gapped(rng)
        fresh = truncated_svd(a, 3)
        study = numerics.StudyGram(a)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            truncated_svd(study, 8)
            reused = truncated_svd(study, 3)
        lines = gram_eig_lines(caplog)
        assert len(lines) == 2 and lines[1].endswith(" route=reuse")
        np.testing.assert_allclose(reused.singvals, fresh.singvals, rtol=1e-12, atol=0)
        assert sine_largest_angle(reused.left, fresh.left) <= 1e-10
        assert sine_largest_angle(reused.right, fresh.right) <= 1e-10

    def test_no_reuse_outside_a_fit(self, rng, caplog):
        # plain array requests, and a fresh StudyGram over the same array,
        # each decompose afresh
        a = self.gapped(rng)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            for r in (8, 3, 3):
                truncated_svd(a, r)
            truncated_svd(numerics.StudyGram(a), 3)
        lines = gram_eig_lines(caplog)
        assert len(lines) == 4 and not any("route=reuse" in line for line in lines)

    def test_back_to_back_fits_log_the_same_routes(self, caplog):
        dataset, _ = generate(SimScenario(n_studies=3, n_per_study=120, p=150, k0=3, q_s=2,
                                          loading_sd=0.5, seed=31))
        fits = []
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
                posterior.run_blast(dataset, posterior.BlastConfig(n_mc=0, seed=5))
            fits.append(gram_eig_lines(caplog))
        assert fits[0] == fits[1]
        k_max_lines = [line for line in fits[0] if " r=30 " in line]
        assert len(k_max_lines) == 3 and not any("route=reuse" in x for x in k_max_lines)
        assert sum("route=reuse" in line for line in fits[0]) == 6

    def test_entries_hold_small_copies_not_arrays(self):
        dataset, _ = generate(SimScenario(n_studies=3, n_per_study=120, p=150, k0=3, q_s=2,
                                          loading_sd=0.5, seed=31))
        report = ranks.select_dims_report(dataset, ranks.RankSelectionConfig())
        assert len(report.studies) == 3
        for y, study in zip(dataset.studies, report.studies, strict=True):
            assert study.y is y and study.dense() is y and study.shape == y.shape
            w, v = study.eigenpairs
            assert w.ndim == 1 and v.shape[1] == w.size <= v.shape[0]
            k = v.shape[0]
            # no k x k eigenvector matrix stays behind the kept eigenpairs
            for x in (w, v):
                assert x.base is None or x.base.size <= k * w.size < k * k
            # the lower triangle of the short-side Gram matrix, not the input array
            assert study.packed_gram.shape == (k * (k + 1) // 2,)
            assert study.packed_gram.base is None
            np.testing.assert_allclose(numerics._unpack_lower(study.packed_gram, k), y @ y.T,
                                       rtol=1e-12, atol=0)

    def test_each_gram_is_released_at_its_downdate(self):
        dataset, _ = generate(SimScenario(n_studies=3, n_per_study=120, p=150, k0=3, q_s=2,
                                          loading_sd=0.5, seed=31))
        report = ranks.select_dims_report(dataset, ranks.RankSelectionConfig())
        dims = report.dims

        def kept_studies():
            return [s for s, study in enumerate(report.studies)
                    if study.packed_gram is not None]

        assert kept_studies() == [0, 1, 2]
        v_bar = random_orthonormal(np.random.default_rng(0), dataset.p, dims.k0)
        spectral.specific_factors(report.studies[1], v_bar, dims.q_s[1])
        assert kept_studies() == [0, 2]
        spectral.estimate_factors(dataset, dims, studies=report.studies)
        assert kept_studies() == []
        # the eigenpairs go with the Gram matrix, as nothing later reads them
        assert all(study.eigenpairs is None for study in report.studies)


@pytest.fixture
def desk_requests(monkeypatch, caplog):
    """Every truncated_svd request of a point fit at desk scale (seed 101),
    with its factors, and the `event=gram_eig` lines of the fit."""
    dataset, _ = generate(SimScenario(n_studies=3, n_per_study=300, p=200, k0=5, q_s=4,
                                      loading_sd=0.5, seed=101))
    requests = []

    def recording_svd(a, r):
        fac = truncated_svd(a, r)
        # operators (ProjectedStack, ProjectedStudy) are formed for the check
        dense = a.dense() if hasattr(a, "dense") else np.array(a)
        requests.append((dense, r, fac))
        return fac

    monkeypatch.setattr(ranks, "truncated_svd", recording_svd)
    monkeypatch.setattr(spectral, "truncated_svd", recording_svd)
    with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
        posterior.run_blast(dataset, posterior.BlastConfig(n_mc=0, seed=101))
    return requests, gram_eig_lines(caplog)


class TestPipelineRequests:
    def test_one_gram_eig_line_per_request(self, desk_requests):
        requests, lines = desk_requests
        assert len(requests) == 15 and len(lines) == 15
        # the route each request shape takes at desk scale: rank selection
        # at k_max = 30 is too wide for a block, the bases at rank 9 reuse
        # its eigenpairs, the full-rank shared bases are too wide as well,
        # two specific (r=4) factors converge by iteration on the downdated
        # Gram matrix, and the shared (r=5) factors by iteration on the
        # unformed stack.  The third study's downdated matrix has a small
        # gap after rank 4 (lambda_7 / lambda_4 = 0.52), so the first Ritz
        # step of a 7-column block predicts more products than the full
        # route costs
        full, reuse = "route=full reason=wide_block driver=", "route=reuse"
        expected = ([(200, 30, full), (200, 9, reuse)] * 3 + [(27, 27, full)]
                    + [(200, 9, reuse)] * 3 + [(27, 27, full)]
                    + [(200, 4, "route=downdate subspace iters=")] * 2
                    + [(200, 4, "route=downdate full reason=slow_gap driver="),
                       (200, 5, "route=stack iters=")])
        for (a, r, _), line, (k, want_r, route) in zip(requests, lines, expected, strict=True):
            assert (min(a.shape), r) == (k, want_r)
            assert line.startswith(f"event=gram_eig k={k} r={r} {route}")

    def test_matches_dense_lapack_within_tolerance(self, monkeypatch, desk_requests):
        # the documented tolerance of the Gram route against dense LAPACK:
        # singular values within rtol 1e-12, subspace sine at most 1e-10
        requests, _ = desk_requests
        for a, r, fac in requests:
            dense = dense_truncated_svd(monkeypatch, a, r)
            np.testing.assert_allclose(fac.singvals, dense.singvals, rtol=1e-12, atol=0)
            assert sine_largest_angle(fac.left, dense.left) <= 1e-10
            assert sine_largest_angle(fac.right, dense.right) <= 1e-10

    def test_large_p_route_table(self, monkeypatch, caplog):
        # as the benchmark's large_p_point runs it
        self.assert_route_table(monkeypatch, caplog, 5, 2000, "iters=3 products=10")

    def test_cli_scale_route_table(self, monkeypatch, caplog):
        # as the benchmark's cli_roundtrip runs it
        self.assert_route_table(monkeypatch, caplog, 3, 1000, "iters=4 products=14")

    def assert_route_table(self, monkeypatch, caplog, n_studies, p, stack_detail):
        # one route per request shape of a point fit (n_s=500), with the
        # product counts of the subspace iteration on its block of r + 3
        # columns
        dataset, _ = generate(SimScenario(n_studies=n_studies, n_per_study=500, p=p, k0=5,
                                          q_s=4, loading_sd=0.5, seed=701))
        shapes = []

        def recording_svd(a, r):
            shapes.append((min(a.shape), r))
            return truncated_svd(a, r)

        monkeypatch.setattr(ranks, "truncated_svd", recording_svd)
        monkeypatch.setattr(spectral, "truncated_svd", recording_svd)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            result = posterior.run_blast(dataset, posterior.BlastConfig(n_mc=0, seed=701))
        assert result.dims == spectral.LatentDims(k0=5, k_s=(9,) * n_studies,
                                                  q_s=(4,) * n_studies)
        shared_k = 9 * n_studies  # the full-rank shared bases
        expected = {
            (500, 30): "route=full reason=wide_block driver=",
            (500, 9): "route=reuse",
            (shared_k, shared_k): "route=full reason=wide_block driver=",
            (500, 4): "route=downdate subspace iters=4 products=14",
            (p, 5): "route=stack " + stack_detail,
        }
        lines = gram_eig_lines(caplog)
        assert len(lines) == len(shapes) == 4 * n_studies + 3
        for (k, r), line in zip(shapes, lines):
            assert line.startswith(f"event=gram_eig k={k} r={r} {expected[k, r]}")
        counts = {key: shapes.count(key) for key in expected}
        assert counts == {(500, 30): n_studies, (500, 9): 2 * n_studies,
                          (shared_k, shared_k): 2, (500, 4): n_studies, (p, 5): 1}

    def test_large_p_study_matches_dense_lapack(self, monkeypatch):
        # a study matrix at the large-p shape (n_s=500, p=2000), at the
        # ranks the pipeline requests of it
        dataset, _ = generate(SimScenario(n_studies=1, n_per_study=500, p=2000, k0=5,
                                          q_s=4, loading_sd=0.5, seed=701))
        y = dataset.studies[0]
        dense = dense_truncated_svd(monkeypatch, y, 30)
        for r in (30, 9, 4):
            fac = truncated_svd(y, r)
            np.testing.assert_allclose(fac.singvals, dense.singvals[:r], rtol=1e-12, atol=0)
            assert sine_largest_angle(fac.left, dense.left[:, :r]) <= 1e-10
            assert sine_largest_angle(fac.right, dense.right[:, :r]) <= 1e-10


def projected_stack(rng, n_studies, n_per_study, p, q_s, seed):
    """A ProjectedStack over a generated dataset, with random orthonormal
    U_s of q_s columns."""
    dataset, _ = generate(SimScenario(n_studies=n_studies, n_per_study=n_per_study, p=p,
                                      k0=5, q_s=4, loading_sd=0.5, seed=seed))
    bases = [random_orthonormal(rng, n_per_study, q_s) for _ in range(n_studies)]
    return numerics.ProjectedStack(dataset.studies, bases)


class TestProjectedStack:
    @pytest.mark.parametrize("shape", [(5, 500, 2000), (2, 150, 600)], ids=["n>p", "n<p"])
    def test_matches_dense_lapack_within_tolerance(self, rng, monkeypatch, caplog, shape):
        # the large-p shared-factor request (2500 x 2000), and a stack with
        # fewer rows than columns, against dense LAPACK on the formed stack
        stack = projected_stack(rng, *shape, q_s=4, seed=701)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(stack, 5)
        [line] = gram_eig_lines(caplog)  # an accepted request logs one line
        assert line.startswith(f"event=gram_eig k={min(stack.shape)} r=5 route=stack iters=")
        dense = dense_truncated_svd(monkeypatch, stack.dense(), 5)
        np.testing.assert_allclose(fac.singvals, dense.singvals, rtol=1e-12, atol=0)
        assert sine_largest_angle(fac.left, dense.left) <= 1e-10
        assert sine_largest_angle(fac.right, dense.right) <= 1e-10

    @pytest.mark.parametrize("r, reason", [(8, "slow_gap"), (60, "wide_block"), (8, "ratio")])
    def test_declined_request_takes_the_array_route(self, rng, caplog, r, reason):
        # 240 x 200 stacks.  Pure noise has no gap after rank 8; a block for
        # r=60 spans more than an eighth of the Gram matrix; and with every
        # block of rank 5, r=8 asks for three components of pure roundoff
        blocks = [rng.standard_normal((80, 200)) for _ in range(3)]
        if reason == "ratio":
            v = random_orthonormal(rng, 200, 5)
            blocks = [(y @ v) @ v.T for y in blocks]
        stack = numerics.ProjectedStack(blocks, [random_orthonormal(rng, 80, 2)] * 3)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            fac = truncated_svd(stack, r)
        lines = gram_eig_lines(caplog)
        assert lines[0] == f"event=gram_eig k=200 r={r} route=dense reason={reason}"
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            assert_same_factors(fac, truncated_svd(stack.dense(), r))
        # then the one line of the formed stack's request
        assert len(lines) == 2 and lines[1:] == gram_eig_lines(caplog)

    def test_products_match_the_formed_stack(self, rng):
        stack = projected_stack(rng, 3, 40, 30, q_s=2, seed=4)
        dense = stack.dense()
        x, z = rng.standard_normal((30, 3)), rng.standard_normal((120, 3))
        np.testing.assert_allclose(stack.dot(x), dense @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stack.tdot(z), dense.T @ z, rtol=0, atol=1e-12)
        gram = numerics._StackGram(stack)
        assert gram.shape == (30, 30)
        np.testing.assert_allclose(gram @ x, dense.T @ (dense @ x), rtol=0, atol=1e-10)
        np.testing.assert_allclose(stack.col_sq(), np.sum(dense**2, axis=0), rtol=1e-12)


    @pytest.mark.parametrize("shape", [(3, 300, 200), (3, 500, 1000), (5, 500, 2000)],
                             ids=["p=200", "p=1000", "p=2000"])
    def test_fused_product_matches_dot_then_tdot(self, rng, shape):
        stack = projected_stack(rng, *shape, q_s=4, seed=26)
        x = rng.standard_normal((shape[2], 15))
        want = stack.tdot(stack.dot(x))
        got = numerics._StackGram(stack) @ x
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_fused_product_byte_identical_across_threads(self, rng):
        # products taken on worker threads, and whole fits at threads 1 and 4
        stack = projected_stack(rng, 3, 300, 200, q_s=4, seed=27)
        xs = [rng.standard_normal((200, 15)) for _ in range(6)]
        serial, threaded = (parallel_map(lambda i: stack.gram_dot(xs[i]), 6, t) for t in (1, 4))
        assert [a.tobytes() for a in serial] == [b.tobytes() for b in threaded]
        dataset, _ = generate(SimScenario(n_studies=3, n_per_study=300, p=200, k0=5, q_s=4,
                                          loading_sd=0.5, seed=27))
        fits = [posterior.run_blast(dataset, posterior.BlastConfig(n_mc=0, seed=1, threads=t))
                for t in (1, 4)]
        assert fits[0].factors.m_hat.tobytes() == fits[1].factors.m_hat.tobytes()
        assert fits[0].factors.v_c.tobytes() == fits[1].factors.v_c.tobytes()

    def test_n_side_never_takes_the_fused_product(self, rng, monkeypatch, caplog):
        stack = projected_stack(rng, 2, 150, 600, q_s=4, seed=28)

        def fused(self, x):
            raise AssertionError("fused product on the n side")

        monkeypatch.setattr(numerics.ProjectedStack, "gram_dot", fused)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            truncated_svd(stack, 5)
        assert gram_eig_lines(caplog)[0].startswith("event=gram_eig k=300 r=5 route=stack iters=")


def downdate_case(shape, seed, shared_scale=1.0):
    """A study and an orthonormal basis of its generator's shared loadings;
    `shared_scale` multiplies the shared part of the study."""
    n_s, p = shape
    dataset, truth = generate(SimScenario(n_studies=1, n_per_study=n_s, p=p, k0=5, q_s=4,
                                          loading_sd=0.5, seed=seed))
    v_bar = np.linalg.qr(truth.lambda0)[0]
    y = dataset.studies[0]
    y = y + (shared_scale - 1.0) * (y @ v_bar) @ v_bar.T
    return y, v_bar


class TestProjectedStudy:
    @pytest.mark.parametrize("shape", [(300, 900), (300, 200)], ids=["n<p", "n>p"])
    def test_downdate_matches_dense_lapack(self, monkeypatch, caplog, shape):
        y, v_bar = downdate_case(shape, 41)
        kept = numerics.StudyGram(y)
        study = numerics.ProjectedStudy(kept, v_bar)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            truncated_svd(kept, 30)
            fac = truncated_svd(study, 4)
        # one line for each accepted request
        first, line = gram_eig_lines(caplog)
        assert first.startswith(f"event=gram_eig k={min(shape)} r=30 route=full ")
        assert line.startswith(f"event=gram_eig k={min(shape)} r=4 route=downdate subspace iters=")
        dense = dense_truncated_svd(monkeypatch, study.dense(), 4)
        np.testing.assert_allclose(fac.singvals, dense.singvals, rtol=1e-12, atol=0)
        assert sine_largest_angle(fac.left, dense.left) <= 1e-10
        assert sine_largest_angle(fac.right, dense.right) <= 1e-10

    @pytest.mark.parametrize("kept", [True, False], ids=["guard", "outside_a_fit"])
    def test_declined_request_forms_the_study(self, monkeypatch, caplog, kept):
        # a shared part 1e3 times the data's dwarfs the residual: the
        # downdate would cancel more than roundoff, so the guard declines.
        # Over a plain array there is no kept Gram matrix to downdate
        y, v_bar = downdate_case((300, 900), 42, shared_scale=1e3 if kept else 1.0)
        with caplog.at_level(logging.DEBUG, logger="blast.numerics"):
            if kept:
                study = numerics.ProjectedStudy(numerics.StudyGram(y), v_bar)
                truncated_svd(study.source, 30)
                caplog.clear()
            else:
                study = numerics.ProjectedStudy(y, v_bar)
            fac = truncated_svd(study, 4)
            lines = gram_eig_lines(caplog)
            reason = "ratio" if kept else "no_gram"
            assert lines[0] == f"event=gram_eig k=300 r=4 route=formed reason={reason}"
            caplog.clear()
            assert_same_factors(fac, truncated_svd(study.dense(), 4))
        # then the one line of the formed study's request
        assert len(lines) == 2 and lines[1:] == gram_eig_lines(caplog)
        dense = dense_truncated_svd(monkeypatch, study.dense(), 4)
        np.testing.assert_allclose(fac.singvals, dense.singvals, rtol=1e-12, atol=0)
        assert sine_largest_angle(fac.left, dense.left) <= 1e-10
        assert sine_largest_angle(fac.right, dense.right) <= 1e-10


class TestProcrustes:
    def test_identity_case(self, rng):
        a = rng.standard_normal((8, 3))
        r = procrustes_rotation(a, a)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-10)
        assert np.linalg.norm(a @ r - a) <= 1e-10

    def test_recovers_known_rotation(self, rng):
        b = rng.standard_normal((8, 3))
        q = random_orthonormal(rng, 3, 3)
        a = b @ q.T
        r = procrustes_rotation(a, b)
        np.testing.assert_allclose(r, q, atol=1e-8)
        assert np.linalg.norm(a @ r - b) <= 1e-8

    def test_beats_random_search_oracle(self, rng):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        r = procrustes_rotation(a, b)
        best = np.linalg.norm(a @ r - b)
        for _ in range(1000):
            q = random_orthonormal(rng, 3, 3)
            if rng.random() < 0.5:
                q[:, 0] = -q[:, 0]  # include reflections
            assert best <= np.linalg.norm(a @ q - b) + 1e-12

    def test_orthogonal_with_unit_determinant_magnitude(self, rng):
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            r = procrustes_rotation(a, b)
            np.testing.assert_allclose(r.T @ r, np.eye(4), atol=1e-10)
            assert abs(abs(np.linalg.det(r)) - 1.0) <= 1e-10

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            procrustes_rotation(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)))

    def test_gesdd_failure_falls_back_to_gesvd(self, rng, monkeypatch):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        expected = procrustes_rotation(a, b)
        monkeypatch.setattr(numerics.np.linalg, "svd", broken_svd("raise"))
        np.testing.assert_allclose(procrustes_rotation(a, b), expected, rtol=0, atol=1e-10)

    def test_both_drivers_fail_raises_numerical_error(self, rng, monkeypatch):
        a = rng.standard_normal((8, 3))
        monkeypatch.setattr(numerics.np.linalg, "svd", broken_svd("raise"))
        monkeypatch.setattr(scipy.linalg, "svd", broken_svd("raise"))
        with pytest.raises(NumericalError, match=r"shape 3x3 at rank r=3"):
            procrustes_rotation(a, a)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_property_orthogonality(self, m, r, seed):
        g = np.random.default_rng(seed)
        rot = procrustes_rotation(g.standard_normal((m, r)), g.standard_normal((m, r)))
        assert np.allclose(rot.T @ rot, np.eye(r), atol=1e-8)


class TestParallelMap:
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_same_ordered_list_for_any_thread_count(self, n):
        def fn(i):
            return i, i * i

        expected = [(i, i * i) for i in range(n)]
        assert parallel_map(fn, n, 1) == expected
        assert parallel_map(fn, n, 2) == expected

    @pytest.mark.parametrize("threads", [1, 2])
    def test_exception_reaches_caller(self, threads):
        class Boom(Exception):
            pass

        def fn(i):
            if i == 2:
                raise Boom(i)
            return i

        with pytest.raises(Boom) as info:
            parallel_map(fn, 4, threads)
        assert info.value.args == (2,)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_workers_see_the_callers_errstate(self, threads):
        # numpy's errstate is a context variable: a worker thread that did
        # not run in a copy of the caller's context would see the default
        with np.errstate(over="raise"):
            seen = parallel_map(lambda i: np.geterr()["over"], 8, threads)
        assert seen == ["raise"] * 8


class TestRngStreams:
    def test_same_path_identical(self):
        a = derive_stream(123, ("lambda", 1)).generator().standard_normal(1000)
        b = derive_stream(123, ("lambda", 1)).generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_child_path_equivalence(self):
        direct = derive_stream(9, ("draw", 3, 7)).generator().standard_normal(10)
        chained = derive_stream(9, ("draw",)).child(3).child(7).generator().standard_normal(10)
        assert np.array_equal(direct, chained)

    def test_distinct_paths_uncorrelated(self):
        x = derive_stream(7, ("lambda", 1)).generator().standard_normal(10_000)
        y = derive_stream(7, ("lambda", 2)).generator().standard_normal(10_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05

    def test_seed_changes_stream(self):
        a = derive_stream(1, ("x",)).generator().standard_normal(10)
        b = derive_stream(2, ("x",)).generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_str_and_int_labels_distinct(self):
        a = derive_stream(0, ("1",)).generator().standard_normal(10)
        b = derive_stream(0, (1,)).generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_standard_normal_moments(self):
        draws = derive_stream(42, ("moments",)).generator().standard_normal(100_000)
        assert abs(draws.mean()) < 0.02
