"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 run full pipelines; every fit therein is also pushed through the
structural-invariant checker whose tally criterion 5 asserts.  Criterion 1
uses the slab standard deviation 0.5, the value the reference numbers
were generated under (see the README calibration note).
"""

import hashlib
import math
import resource
import time

import numpy as np

from blast import io
from blast.cli import main as cli_main
from blast.evalsim import (
    SimScenario,
    SimTruth,
    conditional_predict,
    coverage_eval,
    evaluate_fit,
    gaussian_loglik,
    generate,
)
from blast.numerics import derive_stream
from blast.posterior import (
    BlastConfig,
    CovarianceModel,
    DrawSet,
    fit_lambda_posterior,
    mu_gamma,
    point_estimates,
    run_blast,
)
from blast.ranks import RankSelectionConfig, select_dims
from blast.spectral import LatentDims, estimate_factors

from conftest import rebuild_y_c

DESK = dict(n_studies=3, n_per_study=300, p=200, k0=5, q_s=4, loading_sd=0.5)

# tally of structural checks performed by criteria 1-3, asserted by criterion 5
_structural = {"fits": 0, "failures": []}


def _check_structural(result):
    fe = result.factors
    spec = result.spec
    n = fe.n_total
    k0 = result.dims.k0
    problems = []
    if not np.allclose(fe.m_hat.T @ fe.m_hat, n * np.eye(k0), atol=1e-8 * n):
        problems.append("m_hat normalization")
    for s, f_hat in enumerate(fe.f_hat_s):
        n_s = fe.n_s[s]
        q = f_hat.shape[1]
        if q and not np.allclose(f_hat.T @ f_hat, n_s * np.eye(q), atol=1e-8 * n_s):
            problems.append(f"f_hat normalization study {s}")
        cross = fe.m_hat_s[s].T @ f_hat
        if q and np.max(np.abs(cross)) > 1e-8 * math.sqrt(n * n_s):
            problems.append(f"factor cross-product study {s}")
    if spec.rho_lambda < 1.0:
        problems.append("rho_lambda < 1")
    if any(r < 1.0 for r in spec.rho_gamma):
        problems.append("rho_gamma < 1")
    if not np.all(spec.delta_sq > 0.0):
        problems.append("nonpositive delta^2")
    _structural["fits"] += 1
    _structural["failures"].extend(problems)
    assert not problems, problems


def _report(criterion, ok, detail):
    # visible live under `pytest -s`; captured output surfaces on failure
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_desk_scale_replication():
    t0 = time.time()
    replicates = 20
    seed = 20260810
    rows = []
    for r in range(replicates):
        sc = SimScenario(**DESK, seed=seed + r)
        dataset, truth = generate(sc)
        result = run_blast(dataset, BlastConfig(n_mc=500, seed=seed + r))
        _check_structural(result)
        rep = evaluate_fit(result, truth, level=0.95, submatrix=100,
                           coverage_stream=derive_stream(seed + r, ("coverage",)))
        rows.append([
            rep.rel_error_shared,
            float(np.mean(rep.rel_error_specific)),
            float(np.mean(rep.procrustes_shared)),
            float(np.mean(rep.procrustes_specific)),
            rep.coverage_shared,
            float(np.nanmean(rep.coverage_specific)),
        ])
    means = np.mean(rows, axis=0)
    targets = np.array([0.2787, 0.4714, 0.3587, 0.3592, 0.9060, 0.9549])
    tols = np.array([0.05, 0.05, 0.05, 0.05, 0.04, 0.04])
    names = ["rel_shared", "rel_specific", "pro_shared", "pro_specific",
             "cov_shared", "cov_specific"]
    elapsed = time.time() - t0
    detail = ", ".join(
        f"{n}={m:.4f} (target {t:.4f})" for n, m, t in zip(names, means, targets)
    ) + f", {elapsed:.0f}s"
    ok = bool(np.all(np.abs(means - targets) <= tols)) and elapsed < 600
    _report("1 desk-scale replication", ok, detail)


def test_criterion_2_rank_selection():
    t0 = time.time()
    hits = 0
    replicates = 50
    for r in range(replicates):
        sc = SimScenario(**DESK, seed=40_000 + r)
        dataset, _ = generate(sc)
        try:
            dims = select_dims(dataset, RankSelectionConfig())
        except Exception:
            continue
        hits += dims.k0 == 5 and dims.q_s == (4, 4, 4)
    elapsed = time.time() - t0
    ok = hits >= 45 and elapsed < 300
    _report("2 rank selection", ok, f"correct dims in {hits}/{replicates}, {elapsed:.0f}s")


def test_criterion_3_scaling_trend():
    """Errors fall as n_s and p grow together (the blessing of dimensionality).

    At n_s=600, p=400, seed 60003 the specific-factor SVD of study index 2
    made numpy's gesdd fail on some OpenBLAS builds.  That rank-4 request now
    takes the Gram route of `truncated_svd`, so gesdd never sees it; the
    monkeypatched tests in test_numerics.py exercise the gesvd fallback.
    """
    t0 = time.time()
    sizes = [(150, 100), (300, 200), (600, 400)]
    med_shared, med_specific, med_procrustes = [], [], []
    for n_s, p in sizes:
        shared_errs, specific_errs, pro_errs = [], [], []
        for r in range(10):
            sc = SimScenario(n_studies=3, n_per_study=n_s, p=p, k0=5, q_s=4,
                             loading_sd=0.5, seed=60_000 + r)
            dataset, truth = generate(sc)
            dims = LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4))
            result = run_blast(dataset, BlastConfig(dims=dims, n_mc=0, seed=60_000 + r))
            _check_structural(result)
            rep = evaluate_fit(result, truth)
            shared_errs.append(rep.rel_error_shared)
            specific_errs.append(float(np.mean(rep.rel_error_specific)))
            pro_errs.append(float(np.mean(rep.procrustes_shared)))
        med_shared.append(float(np.median(shared_errs)))
        med_specific.append(float(np.median(specific_errs)))
        med_procrustes.append(float(np.median(pro_errs)))
    elapsed = time.time() - t0
    decreasing = (
        med_shared[0] > med_shared[1] > med_shared[2]
        and med_specific[0] > med_specific[1] > med_specific[2]
    )
    # factor-recovery trend: nonincreasing as both sizes grow
    factor_trend = med_procrustes[0] >= med_procrustes[1] >= med_procrustes[2]
    ok = decreasing and factor_trend and elapsed < 900
    _report(
        "3 scaling trend",
        ok,
        f"shared medians {['%.4f' % v for v in med_shared]}, "
        f"specific {['%.4f' % v for v in med_specific]}, "
        f"factor {['%.4f' % v for v in med_procrustes]}, {elapsed:.0f}s",
    )


def test_criterion_3_gesdd_failure_case():
    # The case of criterion 3 whose specific-factor SVD (study index 2, a
    # rank p - k0 matrix with condition number ~3e15) made numpy's gesdd
    # fail on some OpenBLAS builds when it took the dense route.  The fit
    # must complete and keep its structural invariants.
    sc = SimScenario(n_studies=3, n_per_study=600, p=400, k0=5, q_s=4,
                     loading_sd=0.5, seed=60_003)
    dataset, _ = generate(sc)
    dims = LatentDims(k0=5, k_s=(9, 9, 9), q_s=(4, 4, 4))
    result = run_blast(dataset, BlastConfig(dims=dims, n_mc=0, seed=60_003))
    _check_structural(result)


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    worst_nig = worst_ridge = 0.0
    for i in range(100):
        g = np.random.default_rng(70_000 + i)
        n_per = (int(g.integers(15, 30)), int(g.integers(15, 30)))
        p = int(g.integers(8, 16))
        sc = SimScenario(n_studies=2, n_per_study=n_per, p=p, k0=2, q_s=1,
                         loading_sd=1.0, seed=70_000 + i)
        dataset, _ = generate(sc)
        dims = LatentDims(k0=2, k_s=(3, 3), q_s=(1, 1))
        fe = estimate_factors(dataset, dims)
        from blast.posterior import estimate_hyperparams

        hp = estimate_hyperparams(dataset, fe, dims)
        mu, k_scalar, gamma_n, delta_sq, v_j = fit_lambda_posterior(fe, hp)
        # brute-force normal-equations / conjugate-update oracle
        prec = fe.m_hat.T @ fe.m_hat + np.eye(2) / hp.tau_lambda_sq
        y_c = rebuild_y_c(dataset, fe.u_perp_s)
        mu_o = np.linalg.solve(prec, fe.m_hat.T @ y_c).T
        worst_nig = max(worst_nig, float(np.max(np.abs(mu - mu_o))))
        delta_o = np.empty(p)
        for j in range(p):
            yj = y_c[:, j]
            delta_o[j] = (hp.nu0 * hp.sigma0_sq + yj @ yj - mu_o[j] @ prec @ mu_o[j]) / gamma_n
        worst_nig = max(worst_nig, float(np.max(np.abs(delta_sq - delta_o))))
        s = 0
        mg = mu_gamma(dataset.studies[s], fe.m_hat_s[s], fe.f_hat_s[s], mu,
                      hp.tau_gamma_sq[s])
        f = fe.f_hat_s[s]
        ridge = np.linalg.solve(
            f.T @ f + np.eye(1) / hp.tau_gamma_sq[s],
            f.T @ (dataset.studies[s] - fe.m_hat_s[s] @ mu.T),
        ).T
        worst_ridge = max(worst_ridge, float(np.max(np.abs(mg - ridge))))

    worst_pred = worst_ll = 0.0
    for i in range(100):
        g = np.random.default_rng(80_000 + i)
        p = int(g.integers(8, 31))
        model = CovarianceModel(
            lambda_hat=g.standard_normal((p, 3)),
            gamma_hat=g.standard_normal((p, 2)),
            diag_add=g.uniform(0.5, 2.0, size=p),
        )
        obs = np.sort(g.permutation(p)[: p // 2])
        y_obs = g.standard_normal(obs.size)
        mean, var, target = conditional_predict(model, obs, y_obs)
        sigma = model.densify()
        s_oo = sigma[np.ix_(obs, obs)]
        s_to = sigma[np.ix_(target, obs)]
        mean_o = s_to @ np.linalg.solve(s_oo, y_obs)
        var_o = np.diag(
            sigma[np.ix_(target, target)] - s_to @ np.linalg.solve(s_oo, s_to.T)
        )
        worst_pred = max(worst_pred, float(np.max(np.abs(mean - mean_o))),
                         float(np.max(np.abs(var - var_o))))
        y = g.standard_normal((5, p))
        chol = np.linalg.cholesky(sigma)
        z = np.linalg.solve(chol, y.T)
        ll_o = -0.5 * (np.sum(z**2) + 5 * (2 * np.sum(np.log(np.diag(chol)))
                                           + p * np.log(2 * np.pi)))
        worst_ll = max(worst_ll, abs(gaussian_loglik(model, y) - ll_o) / max(1.0, abs(ll_o)))
    elapsed = time.time() - t0
    ok = worst_nig <= 1e-10 and worst_ridge <= 1e-10 and worst_pred <= 1e-8 \
        and worst_ll <= 1e-8 and elapsed < 60
    _report(
        "4 oracle equivalence",
        ok,
        f"nig dev {worst_nig:.2e}, ridge dev {worst_ridge:.2e}, "
        f"predict dev {worst_pred:.2e}, loglik relative dev {worst_ll:.2e}, {elapsed:.0f}s",
    )


def test_criterion_5_structural_invariants():
    if _structural["fits"] == 0:
        # standalone run: exercise a few fresh fits
        for r in range(3):
            dataset, _ = generate(SimScenario(**DESK, seed=90_000 + r))
            result = run_blast(dataset, BlastConfig(n_mc=0, seed=90_000 + r))
            _check_structural(result)
    ok = _structural["fits"] > 0 and not _structural["failures"]
    _report(
        "5 structural invariants",
        ok,
        f"{_structural['fits']} fits checked, "
        f"{len(_structural['failures'])} violations",
    )


def test_criterion_6_thread_determinism(tmp_path):
    t0 = time.time()
    data_dir = tmp_path / "data"
    dataset, _ = generate(SimScenario(**DESK, seed=123))
    io.write_dataset(data_dir, dataset)
    hashes = []
    for threads in (1, 8):
        out = tmp_path / f"fit_t{threads}"
        code = cli_main(["fit", str(data_dir), "--nmc", "100", "--seed", "77",
                         "--threads", str(threads), "--out", str(out)])
        assert code == 0
        hashes.append(hashlib.sha256((out / "draws.bin").read_bytes()).hexdigest())
    elapsed = time.time() - t0
    ok = hashes[0] == hashes[1] and elapsed < 120
    _report("6 thread determinism", ok,
            f"sha256 {hashes[0][:16]} == {hashes[1][:16]}, {elapsed:.0f}s")


def test_criterion_7_coverage_calibration():
    t0 = time.time()
    p, k0, n_draws = 150, 2, 500
    g = np.random.default_rng(4321)
    truth = SimTruth(lambda0=g.standard_normal((p, k0)), gamma0_s=(),
                     sigma0_sq=np.ones(p), m0_s=(), f0_s=())
    draws = DrawSet(
        lambda_tilde=np.stack([g.standard_normal((p, k0)) for _ in range(n_draws)]),
        gamma_tilde_s=(),
        sigma_tilde_sq=np.ones((n_draws, p)),
    )
    cov, _ = coverage_eval(draws, truth, level=0.95, submatrix=100,
                           stream=derive_stream(1, ("acc7",)))
    elapsed = time.time() - t0
    ok = abs(cov - 0.95) <= 0.03 and elapsed < 60
    _report("7 coverage calibration", ok, f"coverage {cov:.4f}, {elapsed:.0f}s")


def test_criterion_8_large_p_smoke():
    t0 = time.time()
    sc = SimScenario(n_studies=5, n_per_study=500, p=2000, k0=5, q_s=4,
                     loading_sd=0.5, seed=8_000)
    dataset, truth = generate(sc)
    result = run_blast(dataset, BlastConfig(n_mc=100, seed=8_000))
    shared_model, _ = point_estimates(result.spec, result.dims)
    truth_model = CovarianceModel(
        lambda_hat=truth.lambda0,
        gamma_hat=np.zeros((sc.p, 0)),
        diag_add=np.zeros(sc.p),
    )
    from blast.evalsim import rel_fro_error

    rel = rel_fro_error(shared_model, truth_model)
    elapsed = time.time() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    ok = rel < 0.25 and elapsed < 1200 and peak_gb < 8.0
    _report(
        "8 large-p smoke",
        ok,
        f"rel error {rel:.4f} (< 0.25), {elapsed:.0f}s (< 1200), peak {peak_gb:.2f} GB (< 8)",
    )
