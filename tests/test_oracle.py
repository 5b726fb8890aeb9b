"""Regression oracles: cross-fitting, R-loss and squared-error fits, lasso, rates.

The independent oracles here are deliberately naive: full lstsq refits,
double loops, explicit normal equations.  The fast paths must match them.
"""

import math
import warnings

import numpy as np
import pytest

from hte_bandit import oracle
from hte_bandit.core import (
    ActionDistribution,
    LoggedSample,
    arm_block_map,
    custom_map,
    rng_stream,
    shared_intercept_map,
)
from hte_bandit.environments import EnvironmentSpec, build_environment
from hte_bandit.oracle import (
    CD_MAX_SWEEPS,
    CD_TOL,
    auto_lambda,
    chosen_design,
    cross_fit_mu,
    empirical_rloss,
    estimation_rate,
    fit_rloss,
    fit_rloss_lasso,
    fit_squared_error,
    fit_squared_error_lasso,
    residualized_design,
    zero_model,
)


def logged(x, action, probs, reward, mu=None):
    return LoggedSample(context=np.asarray(x, float), action=action,
                        propensities=ActionDistribution(probs), reward=reward,
                        mu_hat=mu)


def env_batch(scenario, n, seed, d=6, sigma=0.1):
    """Uniform-logging batch from a built scenario."""
    env = build_environment(EnvironmentSpec(scenario=scenario, d=d,
                                            num_actions=2, sigma=sigma,
                                            seed=seed))
    rng_c, rng_n, rng_a = (rng_stream(seed, s) for s in (0, 1, 2))
    half = ActionDistribution([0.5, 0.5])
    out = []
    for t in range(1, n + 1):
        rnd = env.sample_round(rng_c, rng_n, t)
        a = half.sample(rng_a)
        out.append(logged(rnd.contexts[0], a, [0.5, 0.5],
                          float(rnd.rewards(np.array([a]))[0])))
    return env, out


# A feature map whose residualized rows equal the raw context: action 1
# carries the context, action 2 is all-zero, and logging puts mass 1 on
# action 2.  Handy for testing the solvers on a design chosen directly.
def direct_design_map(p):
    fn = lambda x, a: np.asarray(x, float) if a == 1 else np.zeros(p)
    return custom_map(fn, feature_dim=p, num_actions=2, raw_dim=0)


def direct_samples(Z, y, mu=0.0):
    return [logged(z, 1, [0.0, 1.0], yi, mu=mu) for z, yi in zip(Z, y)]


# -- design rows -----------------------------------------------------------------

DESIGN_MAPS = {
    "arm_block": arm_block_map,
    "shared_intercept": shared_intercept_map,
    "custom": lambda d, K: custom_map(
        lambda x, a: np.concatenate([np.sin(a * x), [float(a), 1.0]]),
        feature_dim=d + 2, num_actions=K, raw_dim=d, intercepts=(d + 1,)),
}


def explicit_design(kind, K, X, A, P=None):
    """The built-in layouts written out entry by entry, independent of
    FeatureMap: block k of an arm-block row holds [x; 1] on columns
    k(d+1) .. k(d+1)+d; block k of a shared row holds x on columns
    kd .. kd+d-1, and the last column is the intercept of every action.
    Given P, action k's entries are 1{a = k} v - P[k] v, and the shared
    intercept is 1 - (P[0] + ... + P[K-1]), summed in that order."""
    n, d = X.shape
    w = d + 1 if kind == "arm_block" else d
    Z = np.zeros((n, K * w + (kind == "shared_intercept")))
    for i in range(n):
        v = X[i].tolist() + [1.0]
        total = 0.0
        for k in range(K):
            pk = 0.0 if P is None else float(P[i, k])
            total += pk
            for j in range(w):
                Z[i, k * w + j] = (v[j] if k == A[i] - 1 else 0.0) - pk * v[j]
        if kind == "shared_intercept":
            Z[i, -1] = 1.0 - total
    return Z


@pytest.mark.parametrize("K", [2, 5, 8, 9])
@pytest.mark.parametrize("kind", sorted(DESIGN_MAPS))
def test_design_rows_match_per_row_formula(kind, K):
    """Both designs equal the per-row formulas built from featurize,
    phi(x, a) and phi(x, a) - sum_b p(b) phi(x, b): exactly, except the
    shared intercept column (1 - sum_b p(b)), which may differ by an ulp.
    The built-in maps also match their layouts written out, exactly."""
    d, n = 3, 40
    fm = DESIGN_MAPS[kind](d, K)
    rng = rng_stream(11, 0)
    X = rng.standard_normal((n, d))
    X[0] = 0.0
    A = rng.integers(1, K + 1, n)
    P = rng.dirichlet(np.ones(K), n)
    P[1] = np.eye(K)[A[1] - 1]           # all mass on the logged action
    samples = [logged(X[i], int(A[i]), P[i], float(i), mu=0.5) for i in range(n)]
    phis = [np.stack([fm.featurize(x, b) for b in range(1, K + 1)]) for x in X]
    want_chosen = np.stack([phi[a - 1] for phi, a in zip(phis, A)])
    want_resid = np.stack([phi[a - 1] - p @ phi for phi, a, p in zip(phis, A, P)])

    Z, y = chosen_design(samples, fm)
    np.testing.assert_array_equal(Z, want_chosen)
    np.testing.assert_array_equal(y, np.arange(n, dtype=float))
    R, y = residualized_design(samples, fm)
    np.testing.assert_array_equal(y, np.arange(n) - 0.5)
    blocks = slice(None, -1) if kind == "shared_intercept" else slice(None)
    np.testing.assert_array_equal(R[:, blocks], want_resid[:, blocks])
    np.testing.assert_allclose(R[:, -1], want_resid[:, -1], rtol=0, atol=1e-15)
    if kind != "custom":
        np.testing.assert_array_equal(Z, explicit_design(kind, K, X, A))
        np.testing.assert_array_equal(R, explicit_design(kind, K, X, A, P))


# -- cross-fitting -------------------------------------------------------------

def test_cross_fit_constant_rewards_exact_without_ridge():
    rng = rng_stream(1, 0)
    samples = [logged(rng.standard_normal(2), 1, [0.5, 0.5], 1.7)
               for _ in range(10)]
    est, fitted = cross_fit_mu(samples, num_folds=2, ridge=0.0)
    np.testing.assert_allclose(est.mu_hat, 1.7, atol=1e-9)
    assert all(s.mu_hat == pytest.approx(1.7, abs=1e-9) for s in fitted)
    assert not est.fallback


def test_cross_fit_constant_rewards_ridge_shrinkage():
    # zero contexts isolate the intercept: each fold trains on 4 samples,
    # so the ridge solution is exactly c * n_train / (n_train + ridge)
    samples = [logged(np.zeros(3), 1, [0.5, 0.5], 2.0) for _ in range(8)]
    est, _ = cross_fit_mu(samples, num_folds=2, ridge=1.0)
    np.testing.assert_allclose(est.mu_hat, 2.0 * 4 / 5, atol=1e-12)


def test_cross_fit_is_out_of_fold():
    rng = rng_stream(2, 0)
    samples = [logged(rng.standard_normal(3), 1, [0.5, 0.5],
                      float(rng.standard_normal())) for _ in range(40)]
    est, _ = cross_fit_mu(samples, num_folds=2, fold_seed=9)
    bumped = list(samples)
    bumped[0] = logged(samples[0].context, 1, [0.5, 0.5],
                       samples[0].reward + 1.0)
    est2, _ = cross_fit_mu(bumped, num_folds=2, fold_seed=9)
    np.testing.assert_array_equal(est.fold_of, est2.fold_of)
    same_fold = est.fold_of == est.fold_of[0]
    # sample 0's own fold (including itself) never saw the perturbation
    np.testing.assert_array_equal(est.mu_hat[same_fold], est2.mu_hat[same_fold])
    assert np.all(est.mu_hat[~same_fold] != est2.mu_hat[~same_fold])


def test_cross_fit_against_brute_force_refit():
    rng = rng_stream(3, 0)
    d, n = 4, 200
    beta, b0 = rng.standard_normal(d), 0.7
    samples = []
    X = np.empty((n, d + 1))
    for i in range(n):
        x = rng.standard_normal(d)
        X[i] = np.concatenate([x, [1.0]])
        samples.append(logged(x, 1, [0.5, 0.5], float(beta @ x + b0)))
    est, _ = cross_fit_mu(samples, num_folds=2, ridge=0.0, fold_seed=5)
    for k in range(2):
        train = est.fold_of != k
        coef = np.linalg.lstsq(X[train], np.array([s.reward for s in samples])[train],
                               rcond=None)[0]
        val = est.fold_of == k
        np.testing.assert_allclose(est.mu_hat[val], X[val] @ coef, atol=1e-8)
    # the target is noiseless and linear, so out-of-fold prediction is exact
    np.testing.assert_allclose(est.mu_hat, X @ np.concatenate([beta, [b0]]),
                               atol=1e-8)


def test_cross_fit_degenerate_batch_falls_back():
    one = [logged(np.ones(2), 1, [0.5, 0.5], 0.9)]
    est, fitted = cross_fit_mu(one, num_folds=2, reward_range=(0.0, 2.0))
    assert est.fallback and est.mu_hat[0] == 1.0 and fitted[0].mu_hat == 1.0
    est2, _ = cross_fit_mu(one, num_folds=2)
    assert est2.fallback and est2.mu_hat[0] == pytest.approx(0.9)


def test_cross_fit_clips_to_reward_range():
    rng = rng_stream(4, 0)
    samples = [logged(rng.standard_normal(2), 1, [0.5, 0.5], 5.0)
               for _ in range(10)]
    est, _ = cross_fit_mu(samples, reward_range=(0.0, 1.0))
    assert np.all(est.mu_hat == 1.0)


def test_cross_fit_infinite_ridge_gives_the_zero_model_without_warnings():
    """An infinite penalty touches only the diagonal: no inf * 0 turns the
    off-diagonal normal equations into NaN."""
    rng = rng_stream(6, 0)
    samples = [logged(rng.standard_normal(3), 1, [0.5, 0.5],
                      float(rng.standard_normal())) for _ in range(20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, _ = cross_fit_mu(samples, num_folds=2, ridge=np.inf)
    assert np.all(est.mu_hat == 0.0)


def test_cross_fit_rejects_bad_arguments():
    s = [logged(np.zeros(1), 1, [1.0, 0.0], 0.0)]
    with pytest.raises(ValueError):
        cross_fit_mu([])
    with pytest.raises(ValueError):
        cross_fit_mu(s, num_folds=1)
    with pytest.raises(ValueError):
        cross_fit_mu(s, ridge=-1.0)


def test_fold_assignment_depends_on_seed_only():
    rng = rng_stream(5, 0)
    samples = [logged(rng.standard_normal(2), 1, [0.5, 0.5], 0.0)
               for _ in range(40)]
    a, _ = cross_fit_mu(samples, fold_seed=1)
    b, _ = cross_fit_mu(samples, fold_seed=1)
    c, _ = cross_fit_mu(samples, fold_seed=2)
    np.testing.assert_array_equal(a.fold_of, b.fold_of)
    assert not np.array_equal(a.fold_of, c.fold_of)


# -- R-loss fits -----------------------------------------------------------------

def test_rloss_single_sample_ridge_closed_form():
    # one sample with residualized row = e1 and target 1: theta = e1 / 2
    fm = direct_design_map(3)
    s = direct_samples(np.array([[1.0, 0.0, 0.0]]), [1.0])
    model = fit_rloss(s, fm, ridge=1.0)
    np.testing.assert_allclose(model.theta, [0.5, 0.0, 0.0], atol=1e-12)


def test_rloss_zero_targets_give_zero_model():
    fm = direct_design_map(4)
    rng = rng_stream(6, 0)
    s = direct_samples(rng.standard_normal((12, 4)), np.zeros(12))
    model = fit_rloss(s, fm, ridge=0.5)
    np.testing.assert_allclose(model.theta, 0.0, atol=1e-12)


def test_rloss_degenerate_kernel_zero_design():
    # propensity mass entirely on the logged action: z = 0 for every row
    fm = arm_block_map(2, 2)
    s = [logged([0.4, -0.2], 1, [1.0, 0.0], 0.9, mu=0.1) for _ in range(6)]
    Z, y = residualized_design(s, fm)
    assert not Z.any()
    model = fit_rloss(s, fm, ridge=0.3)
    np.testing.assert_allclose(model.theta, 0.0, atol=1e-12)


def test_rloss_missing_mu_hat_raises():
    fm = arm_block_map(2, 2)
    with pytest.raises(ValueError):
        fit_rloss([logged([0.1, 0.2], 1, [0.5, 0.5], 1.0)], fm)


def test_fits_reject_a_negative_ridge_or_penalty():
    fm = direct_design_map(2)
    s = direct_samples(np.eye(2), [1.0, 0.0])
    with pytest.raises(ValueError, match="ridge must be nonnegative"):
        fit_rloss(s, fm, ridge=-1.0)
    with pytest.raises(ValueError, match="penalty must be nonnegative"):
        fit_rloss_lasso(s, fm, lam=-0.1)


def test_rloss_recovers_population_minimizer_on_spanning_design():
    """Noiseless rewards from a linear effect, exact nuisance values, and a
    design whose residualized rows span R^p: the fit returns theta_star and
    hence every logged contrast of the truth."""
    p = 4
    fm = direct_design_map(p)
    rng = rng_stream(7, 0)
    theta_star = rng.standard_normal(p)
    samples = []
    for i in range(p):
        x = np.eye(p)[i]
        for action in (1, 2):
            gvals = np.array([theta_star @ x, 0.0])
            mu = 0.5 * gvals.sum()
            samples.append(logged(x, action, [0.5, 0.5],
                                  float(gvals[action - 1]), mu=float(mu)))
    model = fit_rloss(samples, fm, ridge=0.0)
    np.testing.assert_allclose(model.theta, theta_star, atol=1e-8)
    for s in samples:
        fitted = model.predict(s.context)
        truth = np.array([theta_star @ s.context, 0.0])
        contrast = lambda v: v[s.action - 1] - s.propensities.probs @ v
        assert contrast(fitted) == pytest.approx(contrast(truth), abs=1e-8)


def test_rloss_gaps_identified_despite_rank_deficiency():
    """Per-arm blocks with K=2 make the residualized design rank-deficient
    (levels are unidentified), but the minimum-norm fit still reproduces
    all between-action gaps of the truth, on and off the logged contexts."""
    d, K = 3, 2
    fm = arm_block_map(d, K)
    rng = rng_stream(8, 0)
    theta_star = rng.standard_normal(fm.feature_dim)
    samples = []
    for _ in range(6):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        gvals = fm.scores(theta_star, x)
        mu = 0.5 * gvals.sum()
        for action in (1, 2):
            samples.append(logged(x, action, [0.5, 0.5],
                                  float(gvals[action - 1]), mu=float(mu)))
    model = fit_rloss(samples, fm, ridge=0.0)
    assert model.rank_deficient
    for _ in range(10):
        x = rng.standard_normal(d)
        fitted, truth = model.predict(x), fm.scores(theta_star, x)
        assert fitted[0] - fitted[1] == pytest.approx(truth[0] - truth[1],
                                                      abs=1e-8)


def test_rloss_ridge_stationarity():
    fm = direct_design_map(6)
    rng = rng_stream(9, 0)
    Z = rng.standard_normal((20, 6))
    y = rng.standard_normal(20)
    ridge = 0.7
    model = fit_rloss(direct_samples(Z, y), fm, ridge=ridge)
    grad = Z.T @ (y - Z @ model.theta) - ridge * model.theta
    np.testing.assert_allclose(grad, 0.0, atol=1e-9)


# -- squared-error fits -----------------------------------------------------------

def test_squared_error_exact_recovery():
    fm = shared_intercept_map(3, 2)
    rng = rng_stream(10, 0)
    theta_star = rng.standard_normal(fm.feature_dim)
    samples = []
    for i in range(40):
        x = rng.standard_normal(3)
        a = 1 + i % 2
        samples.append(logged(x, a, [0.5, 0.5],
                              float(theta_star @ fm.featurize(x, a))))
    model = fit_squared_error(samples, fm, ridge=0.0)
    np.testing.assert_allclose(model.theta, theta_star, atol=1e-8)


def test_squared_error_zero_rewards():
    fm = shared_intercept_map(2, 2)
    s = [logged(np.ones(2), 1, [0.5, 0.5], 0.0) for _ in range(5)]
    model = fit_squared_error(s, fm, ridge=0.4)
    np.testing.assert_allclose(model.theta, 0.0, atol=1e-12)


def test_squared_error_lin_lin_blocks_against_dense_solve():
    env, samples = env_batch("lin_lin", 5000, seed=23, d=6)
    fm = arm_block_map(6, 2)
    ridge = 1e-6
    model = fit_squared_error(samples, fm, ridge=ridge)
    # independent oracle: explicit regularized normal equations
    Z = np.stack([fm.featurize(s.context, s.action) for s in samples])
    y = np.array([s.reward for s in samples])
    oracle = np.linalg.solve(Z.T @ Z + ridge * np.eye(fm.feature_dim), Z.T @ y)
    np.testing.assert_allclose(model.theta, oracle, atol=1e-8)
    # per-arm blocks approach [theta_a; 1]
    blocks = model.theta.reshape(2, 7)
    target = np.hstack([env.truth.thetas, np.ones((2, 1))])
    assert np.max(np.abs(blocks - target)) <= 0.05


@pytest.mark.parametrize("make_map", [arm_block_map, shared_intercept_map],
                         ids=["arm_block", "shared_intercept"])
def test_ridge_sparsity_counts_active_penalized_coefficients(make_map):
    """A ridge fit's sparsity means what a lasso fit's does: the active
    coefficients outside the intercepts."""
    _, samples = env_batch("lin_lin", 200, seed=24, d=4)
    fm = make_map(4, 2)
    model = fit_squared_error(samples, fm, ridge=1e-6)
    assert np.all(np.abs(model.theta) > 1e-10)   # dense, intercepts included
    assert model.sparsity == model.active_context_coefficients()
    assert model.sparsity == fm.feature_dim - len(fm.intercept_indices())


# -- lasso -----------------------------------------------------------------------

def test_lasso_zero_penalty_matches_ridge_free_fit():
    fm = direct_design_map(6)
    rng = rng_stream(11, 0)
    Z = rng.standard_normal((40, 6))
    y = Z @ rng.standard_normal(6) + 0.01 * rng.standard_normal(40)
    s = direct_samples(Z, y)
    dense = fit_rloss(s, fm, ridge=0.0)
    sparse = fit_rloss_lasso(s, fm, lam=0.0)
    assert sparse.converged
    np.testing.assert_allclose(sparse.theta, dense.theta, atol=1e-6)


def test_lasso_kill_condition():
    fm = direct_design_map(5)   # no intercept coordinates: all penalized
    rng = rng_stream(12, 0)
    Z = rng.standard_normal((30, 5))
    y = rng.standard_normal(30)
    Zs = Z / np.sqrt(np.mean(Z * Z, axis=0))
    corr = np.abs(Zs.T @ y)
    model = fit_rloss_lasso(direct_samples(Z, y), fm, lam=float(corr.max()))
    np.testing.assert_allclose(model.theta, 0.0, atol=1e-12)
    assert model.sparsity == 0
    # the sharp threshold is max correlation / n; just above kills, below keeps
    thr = float(corr.max()) / 30
    dead = fit_rloss_lasso(direct_samples(Z, y), fm, lam=thr * 1.001)
    np.testing.assert_allclose(dead.theta, 0.0, atol=1e-12)
    alive = fit_rloss_lasso(direct_samples(Z, y), fm, lam=thr * 0.5)
    assert alive.sparsity >= 1


def test_lasso_keeps_unpenalized_intercepts():
    fm = shared_intercept_map(2, 2)
    rng = rng_stream(13, 0)
    samples = [logged(rng.standard_normal(2), 1 + i % 2, [0.5, 0.5], 3.0)
               for i in range(50)]
    model = fit_squared_error_lasso(samples, fm, lam=10.0)
    assert model.sparsity == 0
    assert model.theta[-1] == pytest.approx(3.0, abs=1e-6)


def test_lasso_auto_penalty_formula():
    fm = direct_design_map(4)
    rng = rng_stream(14, 0)
    Z = rng.standard_normal((60, 4))
    y = rng.standard_normal(60)
    gram = Z.T @ Z
    before = gram.copy()
    lam = auto_lambda(Z, y, gram, Z.T @ y, scale=1.5)
    n, p = Z.shape
    pre = np.linalg.solve(Z.T @ Z + 1e-6 * n * np.eye(p), Z.T @ y)
    sigma = float(np.std(y - Z @ pre))
    assert lam == pytest.approx(1.5 * sigma * math.sqrt(2 * math.log(p) / n),
                                abs=1e-12)
    # the pilot's ridge leaves the Gram as it was found
    assert_same_bits(gram, before)


def kkt_report(model, samples, fm):
    """Max subgradient violation of the lasso optimality conditions."""
    Z, y = residualized_design(samples, fm)
    n = Z.shape[0]
    scales = np.sqrt(np.mean(Z * Z, axis=0))
    live = scales > 0
    Zs = np.where(live, Z / np.where(live, scales, 1.0), 0.0)
    theta_s = model.theta * scales
    corr = Zs.T @ (y - Zs @ theta_s) / n
    lam = model.lam
    penal = np.ones(fm.feature_dim, dtype=bool)
    for j in fm.intercept_indices():
        penal[j] = False
    worst = 0.0
    for j in range(fm.feature_dim):
        if not live[j]:
            continue
        if not penal[j]:
            worst = max(worst, abs(corr[j]))
        elif abs(theta_s[j]) > 1e-10:
            worst = max(worst, abs(corr[j] - lam * np.sign(theta_s[j])))
        else:
            worst = max(worst, max(abs(corr[j]) - lam, 0.0))
    return worst


def test_lasso_on_constant_effect_scenario():
    """Context-free treatment effects: the auto-penalized R-loss lasso keeps
    every context coefficient at zero and still recovers the effect gap.
    The returned point must satisfy the KKT subgradient conditions."""
    _, samples = env_batch("lin_const", 2000, seed=31, d=20)
    fm = arm_block_map(20, 2)
    est, fitted = cross_fit_mu(samples, num_folds=2, ridge=1e-6 * 2000,
                               reward_range=(-0.5, 4.5), fold_seed=77)
    model = fit_rloss_lasso(fitted, fm, lam="auto", scale=1.5)
    assert model.converged
    assert model.sparsity == 0
    assert model.active_context_coefficients() == 0
    env = build_environment(EnvironmentSpec(scenario="lin_const", d=20,
                                            num_actions=2, sigma=0.1,
                                            seed=31))
    true_gap = env.truth.u[0] + 1.0 - env.truth.u[1]
    fitted_gap = float(np.diff(model.predict(np.zeros(20)))[0])
    assert -fitted_gap == pytest.approx(true_gap, abs=0.05)
    assert kkt_report(model, fitted, fm) <= 1e-6


def test_lasso_kkt_at_active_solution():
    # a solution with active coordinates must sit on the subgradient boundary
    fm = direct_design_map(6)
    rng = rng_stream(15, 0)
    Z = rng.standard_normal((80, 6))
    y = Z @ np.array([2.0, -1.5, 0.0, 0.0, 0.0, 0.0]) + 0.05 * rng.standard_normal(80)
    s = direct_samples(Z, y)
    model = fit_rloss_lasso(s, fm, lam=0.05)
    assert model.sparsity >= 1
    assert kkt_report(model, s, fm) <= 1e-6


# -- normal equations and the PSD solve --------------------------------------------

@pytest.mark.parametrize("kind", sorted(DESIGN_MAPS))
def test_normal_equations_match_the_design_gram(kind):
    """The per-action (G, Z^T y) equal Z.T @ Z and Z.T @ y of the chosen
    design up to rounding, for built-in maps with an action that has no
    rows, and so do the Gram and Z^T y of the written-out layout; a custom
    map forms Z and matches exactly."""
    for d, K, n in ((4, 5, 60), (1, 2, 30), (3, 9, 80), (6, 12, 90)):
        fm = DESIGN_MAPS[kind](d, K)
        rng = rng_stream(18, 0)
        X = rng.standard_normal((n, d))
        A = rng.integers(1, K, n)                  # action K has no rows
        y = rng.standard_normal(n)
        Z = fm.design(X, A)
        G, zy = fm.normal_equations(X, A, y)
        if kind == "custom":
            assert_same_bits(G, Z.T @ Z)
            assert_same_bits(zy, Z.T @ y)
        else:
            np.testing.assert_allclose(G, Z.T @ Z, rtol=1e-13, atol=1e-13 * n)
            np.testing.assert_allclose(zy, Z.T @ y, rtol=1e-13, atol=1e-13 * n)
            np.testing.assert_array_equal(G, G.T)
            E = explicit_design(kind, K, X, A)
            np.testing.assert_allclose(G, E.T @ E, rtol=1e-13, atol=1e-13 * n)
            np.testing.assert_allclose(zy, E.T @ y, rtol=1e-13, atol=1e-13 * n)
        with pytest.raises(ValueError, match="actions outside"):
            fm.normal_equations(X, np.full(n, K + 1), y)


@pytest.mark.parametrize("p", [1, 42, oracle.SOLVE_BLOCK - 1, oracle.SOLVE_BLOCK,
                               oracle.SOLVE_BLOCK + 1, 1608])
def test_solve_psd_matches_lstsq(p):
    rng = rng_stream(19, p)
    B = rng.standard_normal((p, p))
    A = B @ B.T / p + np.eye(p)
    b = rng.standard_normal(p)
    theta, fell_back = oracle._solve_psd(A, b)
    assert not fell_back
    want = np.linalg.lstsq(A, b, rcond=None)[0]
    np.testing.assert_allclose(theta, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_solve_psd_falls_back_to_eigh_through_linalgerror(monkeypatch):
    """A singular Gram makes np.linalg.cholesky raise LinAlgError, and the
    minimum-norm eigh solution comes back flagged."""
    raised = []
    cholesky = np.linalg.cholesky

    def spy(A):
        try:
            return cholesky(A)
        except np.linalg.LinAlgError as e:
            raised.append(e)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    v = np.array([1.0, 2.0, -1.0, 0.5])
    A = np.outer(v, v)
    b = 3.0 * v
    theta, fell_back = oracle._solve_psd(A, b)
    assert fell_back and len(raised) == 1
    np.testing.assert_allclose(theta, np.linalg.lstsq(A, b, rcond=None)[0], atol=1e-12)


# -- coordinate descent ------------------------------------------------------------

def reference_coordinate_descent(Z, y, lam, penalized):
    """Residual-form CD, the oracle._coordinate_descent before it ran on the
    normal equations alone: a C-order standardized copy Zs of Z, read one
    column at a time, with rho = z_j . r from the residual.  Same objective,
    other rounding.  Returns (theta, converged, sweeps)."""
    n, p = Z.shape
    scales = np.sqrt(np.mean(Z * Z, axis=0))
    live = scales > 0
    Zs = Z / np.where(live, scales, 1.0)
    Zs[:, ~live] = 0.0
    col_sq = np.einsum("ij,ij->j", Zs, Zs)
    thr = lam * n
    theta = np.zeros(p)
    r = y.copy()
    finite = bool(np.isfinite(Z).all() and np.isfinite(y).all())
    converged = False
    for sweeps in range(1, CD_MAX_SWEEPS + 1):
        delta = 0.0
        for j in range(p):
            if not live[j]:
                continue
            rho = Zs[:, j] @ r + col_sq[j] * theta[j]
            if penalized[j]:
                new = math.copysign(max(abs(rho) - thr, 0.0), rho) / col_sq[j]
            else:
                new = rho / col_sq[j]
            if new != theta[j]:
                r += Zs[:, j] * (theta[j] - new)
                delta = max(delta, abs(new - theta[j]))
                theta[j] = new
        if delta < CD_TOL:
            converged = finite and bool(np.isfinite(theta).all())
            break
    out = np.where(live, theta / np.where(live, scales, 1.0), 0.0)
    return out, converged, sweeps


def scalar_coordinate_descent(gram, zy, n, lam, penalized):
    """oracle._coordinate_descent's covariance update in Python floats, one
    rounded operation at a time, with no numpy in the loop.  numpy's
    elementwise row update rounds each product and difference once on any
    SIMD path, so the two agree bit for bit."""
    G, c, p = gram.tolist(), zy.tolist(), zy.shape[0]
    scales = [math.sqrt(G[j][j] / n) for j in range(p)]
    inv = [1.0 / s if s > 0 else 0.0 for s in scales]
    col_sq = [G[j][j] * inv[j] * inv[j] for j in range(p)]
    thr = lam * n
    theta = [0.0] * p
    finite = all(math.isfinite(v) for row in G for v in row) and all(map(math.isfinite, c))
    converged = False
    for sweeps in range(1, oracle.CD_MAX_SWEEPS + 1):
        delta = 0.0
        for j in range(p):
            if not scales[j] > 0:
                continue
            old = theta[j]
            rho = c[j] * inv[j] + col_sq[j] * old
            if penalized[j]:
                new = math.copysign(max(abs(rho) - thr, 0.0), rho) / col_sq[j]
            else:
                new = rho / col_sq[j]
            if new != old:
                m = (new - old) * inv[j]
                c = [ck - gk * m for ck, gk in zip(c, G[j])]
                delta = max(delta, abs(new - old))
                theta[j] = new
        if delta < CD_TOL:
            converged = finite and all(map(math.isfinite, theta))
            break
    out = np.array([t / s if s > 0 else 0.0 for t, s in zip(theta, scales)])
    return out, converged, sweeps


def cd_inputs(n, p, seed, dead=(), tiny=(), free=()):
    """A random (Z, y, penalized): columns on mixed scales, `dead` columns
    all zero, `tiny` columns scaled so their squares reach the subnormal
    range or underflow, `free` coordinates unpenalized."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, p)) * rng.choice([0.01, 1.0, 30.0], size=p)
    Z[:, list(tiny)] *= 1e-160
    Z[:, list(dead)] = 0.0
    y = rng.standard_normal(n) + np.sign(Z[:, :3]).sum(axis=1)
    penalized = np.ones(p, dtype=bool)
    penalized[list(free)] = False
    return Z, y, penalized


# (n, p, lam, dead, tiny, free): p in {1, 2, 3}, odd p, p > 64 and not a
# multiple of 64, n = 1 and n >= 200.
CD_CASES = [
    (1, 1, 0.0, (), (), ()),
    (40, 1, 0.05, (), (), ()),
    (300, 1, 0.0, (), (), ()),
    (250, 1, 0.02, (), (), (0,)),
    (1, 3, 0.0, (), (), ()),
    (30, 2, 0.0, (), (), (1,)),
    (30, 3, 0.1, (1,), (), ()),
    (50, 5, 0.02, (), (2,), (4,)),
    (1, 65, 0.05, (), (), ()),
    (200, 33, 0.0, (), (7,), ()),
    (250, 65, 0.02, (3,), (), (64,)),
    (300, 97, 0.05, (10, 96), (50,), ()),
    (220, 129, 0.01, (), (0,), (128,)),
    (300, 130, 0.0, (64,), (), (0, 65)),
    (210, 193, 0.03, (5,), (100, 101), (192,)),
]


def assert_same_bits(a, b):
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_cd(got, want):
    assert_same_bits(got[0], want[0])
    assert got[1:] == want[1:]


def assert_close_cd(got, want, rtol=1e-12):
    """Same sweeps, convergence and support (entries above rtol of the
    largest), and theta within rtol of the largest entry."""
    assert got[1:] == want[1:]
    top = max(float(np.max(np.abs(want[0]))), 1e-300)
    np.testing.assert_array_equal(np.abs(got[0]) > rtol * top,
                                  np.abs(want[0]) > rtol * top)
    assert float(np.max(np.abs(got[0] - want[0]))) <= rtol * top


def coordinate_descent(Z, y, lam, penalized):
    return oracle._coordinate_descent(Z.T @ Z, Z.T @ y, Z.shape[0], lam, penalized)


@pytest.mark.parametrize("n,p,lam,dead,tiny,free", CD_CASES)
def test_coordinate_descent_matches_reference_bits(n, p, lam, dead, tiny, free):
    """Given its normal equations, CD has the bits of the scalar reference,
    tiny columns included, whatever numpy's SIMD dispatch or BLAS kernel."""
    Z, y, penalized = cd_inputs(n, p, seed=n * 1000 + p, dead=dead, tiny=tiny, free=free)
    gram, zy = Z.T @ Z, Z.T @ y
    want = scalar_coordinate_descent(gram, zy, n, lam, penalized)
    assert_same_cd(oracle._coordinate_descent(gram, zy, n, lam, penalized), want)
    assert 1 <= want[2] <= CD_MAX_SWEEPS


# The cases above without tiny columns, whose Gram diagonal keeps too few
# bits to standardize them as the residual form does, plus an infinite
# penalty with a dead column.
RESIDUAL_CASES = [c for c in CD_CASES if not c[4]] + [(250, 65, math.inf, (3,), (), (64,))]


@pytest.mark.parametrize("n,p,lam,dead,tiny,free", RESIDUAL_CASES)
def test_coordinate_descent_matches_the_residual_form(n, p, lam, dead, tiny, free):
    Z, y, penalized = cd_inputs(n, p, seed=n * 1000 + p, dead=dead, tiny=tiny, free=free)
    got = coordinate_descent(Z, y, lam, penalized)
    assert_close_cd(got, reference_coordinate_descent(Z, y, lam, penalized))
    assert np.all(got[0][list(dead)] == 0.0)
    if lam == math.inf:
        assert np.all(got[0][penalized] == 0.0)


@pytest.mark.parametrize("n,p", [(300, 1), (200, 65)])
def test_coordinate_descent_sweep_cap_matches_reference(monkeypatch, n, p):
    """Both stop unconverged after one sweep when capped there, with the same
    coefficients up to rounding."""
    monkeypatch.setattr(oracle, "CD_MAX_SWEEPS", 1)
    monkeypatch.setitem(globals(), "CD_MAX_SWEEPS", 1)
    for seed in range(8):
        Z, y, penalized = cd_inputs(n, p, seed)
        want = reference_coordinate_descent(Z, y, 0.0, penalized)
        assert want[1:] == (False, 1)
        assert_close_cd(coordinate_descent(Z, y, 0.0, penalized), want)
        gram, zy = Z.T @ Z, Z.T @ y
        assert_same_cd(oracle._coordinate_descent(gram, zy, n, 0.0, penalized),
                       scalar_coordinate_descent(gram, zy, n, 0.0, penalized))


# -- coordinate descent screening -------------------------------------------------

class CountingNumpy:
    """Stands in for oracle's numpy module and counts np.multiply calls: one
    per Gram row update, that is per coordinate move.  A visit that the soft
    threshold holds at zero makes none."""

    def __init__(self):
        self.row_updates = 0

    def multiply(self, *args, **kwargs):
        self.row_updates += 1
        return np.multiply(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def screened_cd(monkeypatch, Z, y, lam, penalized):
    """CD checked against the residual form, its normal equations left as
    they were given; returns the row updates made and the visits of live
    penalized coordinates."""
    want = reference_coordinate_descent(Z, y, lam, penalized)
    gram, zy = Z.T @ Z, Z.T @ y
    before = gram.copy(), zy.copy()
    counter = CountingNumpy()
    monkeypatch.setattr(oracle, "np", counter)
    got = oracle._coordinate_descent(gram, zy, Z.shape[0], lam, penalized)
    monkeypatch.setattr(oracle, "np", np)
    assert_close_cd(got, want)
    assert_same_bits(gram, before[0])
    assert_same_bits(zy, before[1])
    live = np.sqrt(np.mean(Z * Z, axis=0)) > 0
    return counter.row_updates, int(np.sum(live & penalized)) * want[2]


def sparse_inputs(n, p, seed, support=5):
    """A wide design on mixed column scales whose target depends on a few
    columns, with the last column an unpenalized intercept."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, p)) * rng.choice([0.01, 1.0, 30.0], size=p)
    Z[:, -1] = 1.0
    beta = np.zeros(p)
    beta[rng.choice(p - 1, size=support, replace=False)] = rng.choice([-2.0, 2.0], size=support)
    y = (Z / np.sqrt(np.mean(Z * Z, axis=0))) @ beta + 3.0 + rng.standard_normal(n)
    penalized = np.ones(p, dtype=bool)
    penalized[-1] = False
    return Z, y, penalized


@pytest.mark.parametrize("n,p,frac", [(400, 301, 0.05), (300, 513, 0.1), (256, 1025, 0.2)])
def test_screened_cd_skips_most_visits_on_wide_sparse_designs(monkeypatch, n, p, frac):
    Z, y, penalized = sparse_inputs(n, p, seed=p)
    Zs = Z / np.sqrt(np.mean(Z * Z, axis=0))
    lam = frac * float(np.max(np.abs(Zs[:, :-1].T @ (y - y.mean())))) / n
    updates, visits = screened_cd(monkeypatch, Z, y, lam, penalized)
    assert updates < visits / 4


@pytest.mark.parametrize("below", [False, True])
def test_screened_cd_at_the_exact_threshold(monkeypatch, below):
    """lam n equals |rho| of coordinate 0 in sweep 1, as CD computes it from
    the normal equations (n = 256 makes lam n exact), or lies one ulp below
    it, where the coordinate must move off zero by the last bit."""
    monkeypatch.setattr(oracle, "CD_MAX_SWEEPS", 1)
    n, p = 256, 301
    Z, y, penalized = sparse_inputs(n, p, seed=7)
    gram, zy = Z.T @ Z, Z.T @ y
    rho = abs(zy.item(0) * (1.0 / math.sqrt(gram.item(0, 0) / n)) + 0.0)
    thr = np.nextafter(rho, 0.0) if below else rho
    lam = thr / n
    assert lam * n == thr
    got = oracle._coordinate_descent(gram, zy, n, lam, penalized)
    assert (got[0][0] != 0.0) == below
    assert_same_cd(got, scalar_coordinate_descent(gram, zy, n, lam, penalized))


def test_screened_cd_skips_nothing_at_zero_penalty(monkeypatch):
    """At lam = 0 the threshold holds no coordinate at zero: the first sweep
    moves every live coordinate."""
    Z, y, penalized = sparse_inputs(300, 41, seed=3)
    screened_cd(monkeypatch, Z, y, 0.0, penalized)
    monkeypatch.setattr(oracle, "CD_MAX_SWEEPS", 1)
    monkeypatch.setitem(globals(), "CD_MAX_SWEEPS", 1)
    updates, visits = screened_cd(monkeypatch, Z, y, 0.0, penalized)
    assert updates == visits + 1        # the unpenalized intercept moves too


def test_screened_cd_skips_every_penalized_visit_at_infinite_penalty(monkeypatch):
    Z, y, penalized = sparse_inputs(300, 301, seed=4)
    updates, _ = screened_cd(monkeypatch, Z, y, math.inf, penalized)
    assert updates == 1                 # the intercept's one move to the mean
    theta = coordinate_descent(Z, y, math.inf, penalized)[0]
    assert np.all(theta[:-1] == 0.0)
    assert theta[-1] == pytest.approx(y.mean(), rel=1e-12)


@pytest.mark.parametrize("y_scale,nan", [(1.0, False), (1e300, False), (1.0, True)])
def test_screened_cd_fails_closed_on_tiny_dead_and_overflowing_columns(monkeypatch, y_scale, nan):
    """Tiny columns (squares that underflow), dead ones, a 1e300 target whose
    products overflow and a NaN target keep the scalar reference's results;
    no NaN or inf rho holds a coordinate at zero, so a NaN target reaches
    every live coefficient.  Three sweeps suffice; a 1e300 target never
    meets the absolute CD_TOL, and neither it nor a NaN target is reported
    converged."""
    monkeypatch.setattr(oracle, "CD_MAX_SWEEPS", 3)
    n, p = 300, 331
    Z, y, penalized = cd_inputs(n, p, seed=11, dead=(4, 200), tiny=(5, 6, 150, 330), free=(0,))
    Z[:, 7] *= 2e-162                       # squares partly underflow: sqrt(mean) is inexact
    y = y * y_scale
    if nan:
        y[17] = math.nan
    lam = 0.05 * y_scale
    with np.errstate(all="ignore"):
        gram, zy = Z.T @ Z, Z.T @ y
        got = oracle._coordinate_descent(gram, zy, n, lam, penalized)
        want = scalar_coordinate_descent(gram, zy, n, lam, penalized)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    assert np.all(got[0][[4, 200]] == 0.0)
    if nan or y_scale != 1.0:
        assert not got[1]
    if nan:
        live = np.sqrt(np.diagonal(gram) / n) > 0
        assert np.all(np.isnan(got[0][live])) and np.all(got[0][~live] == 0.0)


@pytest.mark.parametrize("where", ["target", "context"])
def test_coordinate_descent_reports_a_nan_fit_unconverged(where):
    """One NaN target, or one NaN design entry (its column's Gram diagonal is
    NaN, so CD reads that column as dead), ends CD within a few sweeps,
    unconverged."""
    rng = np.random.default_rng(5)
    Z, y = rng.standard_normal((50, 4)), rng.standard_normal(50)
    if where == "target":
        y[3] = math.nan
    else:
        Z[3, 2] = math.nan
    theta, converged, sweeps = oracle._coordinate_descent(
        Z.T @ Z, Z.T @ y, 50, 0.01, np.ones(4, dtype=bool))
    assert not converged and sweeps <= 10
    assert np.isnan(theta).any() == (where == "target")


@pytest.mark.parametrize("lam", ["auto", 0.01])
@pytest.mark.parametrize("fit,make_map", [(fit_rloss_lasso, arm_block_map),
                                          (fit_squared_error_lasso, shared_intercept_map)],
                         ids=["rloss", "squared_error"])
def test_lasso_fits_report_a_nan_reward_unconverged(fit, make_map, lam):
    """A 60-row batch with one NaN reward (and so, for lam="auto", a NaN
    penalty) gives a lasso model that says it did not converge."""
    d, n = 3, 60
    rng = rng_stream(23, 0)
    X = rng.standard_normal((n, d))
    A = rng.integers(1, 3, n)
    r = rng.standard_normal(n)
    r[7] = math.nan
    samples = [logged(X[i], int(A[i]), [0.5, 0.5], float(r[i]), mu=0.0) for i in range(n)]
    with np.errstate(invalid="ignore"):
        model = fit(samples, make_map(d, 2), lam=lam)
    assert not model.converged and 1 <= model.sweeps <= 10
    assert np.isnan(model.theta).any()


def test_screened_cd_after_a_pilot_that_falls_back_to_eigh(monkeypatch):
    """Columns 0 and 1 are equal and hold +-2^20, so the Gram's first two
    rows are exact and their ridge (1e-6 n) is below half an ulp of the
    diagonal: Cholesky meets an exactly zero second pivot on any BLAS, and
    the auto penalty's pilot takes the eigh fallback.  Column 3 is dead.
    The pilot must still leave the normal equations with their bits."""
    n, p = 64, 6
    rng = np.random.default_rng(21)
    Z = rng.standard_normal((n, p))
    Z[:, 0] = Z[:, 1] = rng.choice([-1.0, 1.0], size=n) * 2.0 ** 20
    Z[:, 3] = 0.0
    y = rng.standard_normal(n) + Z[:, 0] * 2.0 ** -20
    gram, zy = Z.T @ Z, Z.T @ y
    before = gram.copy(), zy.copy()
    fell_back = []
    solve_psd = oracle._solve_psd

    def spy(A, b):
        theta, fallback = solve_psd(A, b)
        fell_back.append(fallback)
        return theta, fallback

    monkeypatch.setattr(oracle, "_solve_psd", spy)
    lam = auto_lambda(Z, y, gram, zy, scale=1.5)
    assert fell_back == [True]
    assert_same_bits(gram, before[0])
    assert_same_bits(zy, before[1])
    penalized = np.ones(p, dtype=bool)
    penalized[5] = False
    screened_cd(monkeypatch, Z, y, lam, penalized)


# -- empirical R-loss --------------------------------------------------------------

def test_empirical_rloss_frozen_values():
    fm = direct_design_map(3)
    s = direct_samples(np.array([[1.0, 0.0, 0.0]]), [1.0])
    assert empirical_rloss(zero_model(fm), s) == 1.0
    exact = fit_rloss(s, fm, ridge=0.0)   # interpolates the single target
    assert empirical_rloss(exact, s) == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("kind", sorted(DESIGN_MAPS))
def test_empirical_rloss_matches_naive_double_loop(kind):
    fm = DESIGN_MAPS[kind](3, 2)
    rng = rng_stream(16, 0)
    theta = rng.standard_normal(fm.feature_dim)
    samples = []
    for _ in range(30):
        x = rng.standard_normal(3)
        pr = rng.uniform(0.2, 0.8)
        samples.append(logged(x, int(rng.integers(1, 3)), [pr, 1.0 - pr],
                              float(rng.standard_normal()),
                              mu=float(rng.standard_normal())))
    model = fit_rloss(samples, fm, ridge=1.0)
    total = 0.0
    for s in samples:
        contrast = 0.0
        for a in (1, 2):
            score = float(theta_dot(model.theta, fm, s.context, a))
            ind = 1.0 if a == s.action else 0.0
            contrast += (ind - s.propensities.prob(a)) * score
        total += (s.reward - s.mu_hat - contrast) ** 2
    assert empirical_rloss(model, samples) == pytest.approx(total / 30,
                                                            abs=1e-12)


def theta_dot(theta, fm, x, a):
    return theta @ fm.featurize(x, a)


# -- estimation rate ----------------------------------------------------------------

def test_estimation_rate_frozen_values():
    expect = (5 * math.log(100) + math.log(10)) / 100
    assert estimation_rate(100, 0.1, 5) == pytest.approx(expect, abs=1e-12)
    # raw value (2 ln 2 + 1) / 2 ~ 1.19 engages the cap
    assert estimation_rate(2, math.exp(-1), 2) == 1.0
    assert estimation_rate(10 ** 6, 0.5, 1) < 1e-4


def test_estimation_rate_validation():
    with pytest.raises(ValueError):
        estimation_rate(0, 0.5, 1)
    with pytest.raises(ValueError):
        estimation_rate(5, 0.0, 1)
    with pytest.raises(ValueError):
        estimation_rate(5, 1.0, 1)
    with pytest.raises(ValueError):
        estimation_rate(5, 0.5, 0)
    with pytest.raises(ValueError):
        estimation_rate(5, 0.5, 1, scale=0.0)


def test_estimation_rate_monotone_in_n():
    """Non-increasing in n over 1..10^6 for a grid of confidence levels.

    An independent vectorized replica covers every n; the function itself is
    cross-checked against the replica on a random subsample.
    """
    n = np.arange(1, 1_000_001)
    rng = rng_stream(17, 0)
    probe = np.sort(rng.integers(1, 1_000_001, size=2000))
    for dim, zeta in ((1, 0.9), (1, 0.37), (1, 0.01), (5, 0.1), (42, 0.001)):
        raw = (dim * np.log(np.maximum(n, 2)) + np.log(1.0 / zeta)) / n
        vals = np.minimum(1.0, np.where(n <= 2, raw, np.minimum(raw[1], raw)))
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        for i in probe[:: len(probe) // 50]:
            assert estimation_rate(int(i), zeta, dim) == pytest.approx(
                vals[i - 1], abs=1e-15)
