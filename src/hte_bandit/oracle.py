"""Regression oracles.

Two fitting routes share the linear machinery here:

* R-loss fits regress residualized rewards (r - mu_hat) on residualized
  treatments (phi(x, a) - sum_a p(a|x) phi(x, a)).  Only score *gaps*
  between actions are identified, which is the point: the confounding
  part of the reward drops out of the design by construction.
* Squared-error fits regress raw rewards on phi(x, a).

Both come in a ridge flavor (exact normal-equation solve, SPD Cholesky
with an eigen-clipped minimum-norm fallback) and a lasso flavor (cyclic
coordinate descent on RMS-standardized columns, intercept coordinates
unpenalized).  Every fit solves from its normal equations Z^T Z, Z^T y:
squared-error fits build them per action without Z
(FeatureMap.normal_equations), and coordinate descent reads nothing else.
No n x p design is alive while a Gram is factored: R-loss fits drop Z once
its normal equations are formed, the auto penalty builds the design it
reads after its pilot is solved, and squared-error fits build theirs only
after the factorization.  Nuisance values mu_hat come from cross_fit_mu:
per-fold ridge regressions predicting each sample from the complement of
its fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import STREAM_FOLD, FeatureMap, LoggedSample, SampleBatch, rng_stream

EIGEN_CLIP = 1e-12        # relative eigenvalue cutoff for the min-norm fallback
CD_TOL = 1e-8             # coordinate descent: max coefficient change per sweep
CD_MAX_SWEEPS = 10_000
SOLVE_BLOCK = 32          # diagonal block size of the triangular substitutions


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for lower-triangular L: a forward then a back
    substitution, each a small solve per SOLVE_BLOCK diagonal block and
    matrix-vector products for the rest."""
    x = b.copy()
    starts = range(0, b.shape[0], SOLVE_BLOCK)
    for i in starts:
        s = slice(i, i + SOLVE_BLOCK)
        x[s] = np.linalg.solve(L[s, s], x[s] - L[s, :i] @ x[:i])
    for i in reversed(starts):
        s, e = slice(i, i + SOLVE_BLOCK), i + SOLVE_BLOCK
        x[s] = np.linalg.solve(L[s, s].T, x[s] - L[e:, s].T @ x[e:])
    return x


def _solve_psd(A: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Solve A theta = b for symmetric positive semidefinite A.

    Returns (theta, fell_back).  A Cholesky solve is attempted first; on
    numerical rank deficiency we fall back to the minimum-norm solution
    with eigenvalues below EIGEN_CLIP * max(eig) treated as zero.
    """
    try:
        theta = _cho_solve(np.linalg.cholesky(A), b)
        if np.all(np.isfinite(theta)):
            return theta, False
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(A)
    tol = EIGEN_CLIP * max(float(w[-1]), 1.0)
    inv = np.where(w > tol, 1.0 / np.where(w > tol, w, 1.0), 0.0)
    return V @ (inv * (V.T @ b)), True


class LinearModel:
    """Linear scorer over a feature map: the result of every fit.

    An R-loss fit's scores are meaningful only as between-action gaps; a
    squared-error fit's scores estimate the rewards themselves.  sparsity
    counts the active penalized (non-intercept) coefficients, whatever the
    fit.  lam and sweeps are the lasso penalty and coordinate-descent
    sweeps, 0 for ridge fits.
    """

    def __init__(self, theta: np.ndarray, feature_map: FeatureMap, *,
                 rank_deficient: bool = False, converged: bool = True,
                 lam: float = 0.0, sweeps: int = 0):
        self.theta = np.asarray(theta, dtype=float)
        self.feature_map = feature_map
        self.sparsity = feature_map.context_coefficients(self.theta)
        self.rank_deficient = rank_deficient
        self.converged = converged
        self.lam = lam
        self.sweeps = sweeps

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Scores for all K actions at context x."""
        return self.feature_map.scores(self.theta, x)

    def active_context_coefficients(self) -> int:
        return self.sparsity


def zero_model(feature_map: FeatureMap) -> LinearModel:
    return LinearModel(np.zeros(feature_map.feature_dim), feature_map)


@dataclass
class NuisanceEstimate:
    """Cross-fitting artifacts: the fold assignment, kept so tests can
    verify out-of-fold discipline, and the out-of-fold predictions."""

    fold_of: np.ndarray
    mu_hat: np.ndarray
    fallback: bool = False


def cross_fit_mu(samples: Sequence[LoggedSample], num_folds: int = 2,
                 ridge: float = 1e-6, reward_range: Optional[Tuple[float, float]] = None,
                 fold_seed: int = 0) -> Tuple[NuisanceEstimate, SampleBatch]:
    """Out-of-fold ridge estimates of the conditional mean reward.

    Each fold's model is ridge least squares of reward on [context; 1]
    trained on the complement of that fold; sample t is predicted by the
    model that never saw it.  Fold membership is a deterministic function
    of the sample index and fold_seed.  Predictions are clipped to
    reward_range when given.  Returns the estimate and the batch with mu set.

    With fewer samples than folds the estimate degenerates to a constant
    (range midpoint, or the observed mean without a range) and the result
    is flagged via `fallback`.
    """
    batch = SampleBatch.of(samples)
    n = len(batch)
    if n == 0:
        raise ValueError("cannot cross-fit an empty batch")
    if num_folds < 2:
        raise ValueError("need at least two folds")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    rewards = batch.r
    if n < num_folds:
        mu0 = 0.5 * (reward_range[0] + reward_range[1]) if reward_range else float(rewards.mean())
        mu = np.full(n, mu0)
        est = NuisanceEstimate(np.zeros(n, dtype=int), mu, fallback=True)
        return est, batch.with_mu(mu)

    perm = rng_stream(fold_seed, STREAM_FOLD).permutation(n)
    fold_of = perm % num_folds
    d = batch.X.shape[1]
    X = np.empty((n, d + 1))
    X[:, :d] = batch.X
    X[:, d] = 1.0

    mu = np.empty(n)
    for k in range(num_folds):
        train = fold_of != k
        Xk = X[train]   # one bound array: Xk.T @ Xk takes numpy's syrk path
        beta, _ = _solve_ridged(Xk.T @ Xk, Xk.T @ rewards[train], ridge)
        val = fold_of == k
        mu[val] = X[val] @ beta
    if reward_range is not None:
        np.clip(mu, reward_range[0], reward_range[1], out=mu)

    return NuisanceEstimate(fold_of, mu), batch.with_mu(mu)


def _nonempty(samples: Sequence[LoggedSample]) -> SampleBatch:
    batch = SampleBatch.of(samples)
    if len(batch) == 0:
        raise ValueError("empty sample batch")
    return batch


def residualized_design(samples: Sequence[LoggedSample],
                        feature_map: FeatureMap) -> Tuple[np.ndarray, np.ndarray]:
    """Build (Z, y) for the R-loss regression.

    z_t = phi(x_t, a_t) - sum_a p_t(a) phi(x_t, a),  y_t = r_t - mu_hat_t.
    Requires cross-fitted mu_hat on every sample.
    """
    batch = _nonempty(samples)
    if batch.mu is None:
        raise ValueError("samples lack cross-fitted mu_hat")
    return feature_map.design(batch.X, batch.A, batch.P), batch.r - batch.mu


def chosen_design(samples: Sequence[LoggedSample],
                  feature_map: FeatureMap) -> Tuple[np.ndarray, np.ndarray]:
    """Design for the squared-error route: rows phi(x_t, a_t), targets r_t."""
    batch = _nonempty(samples)
    return feature_map.design(batch.X, batch.A), batch.r.copy()


def _rloss_normal_equations(batch, feature_map):
    """(y, Z^T Z, Z^T y) of the R-loss route.  Z comes from the fit's one
    residualized_design call, whose result perfbench's traced pass checks
    the fit against, and dies on return, before any factorization."""
    Z, y = residualized_design(batch, feature_map)
    return y, Z.T @ Z, Z.T @ y


def _solve_ridged(gram, zy, ridge):
    """Solve (gram + ridge I) theta = zy: the ridge goes on gram's diagonal
    for the solve, and the diagonal is then copied back."""
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    diag = gram.diagonal().copy()
    gram[np.diag_indices_from(gram)] += ridge
    try:
        return _solve_psd(gram, zy)
    finally:
        gram[np.diag_indices_from(gram)] = diag


def fit_rloss(samples: Sequence[LoggedSample], feature_map: FeatureMap,
              ridge: float = 0.0) -> LinearModel:
    """Exact minimizer of sum_t (y_t - <theta, z_t>)^2 + ridge ||theta||^2."""
    _, gram, zy = _rloss_normal_equations(samples, feature_map)
    theta, deficient = _solve_ridged(gram, zy, ridge)
    return LinearModel(theta, feature_map, rank_deficient=deficient)


def fit_squared_error(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                      ridge: float = 0.0) -> LinearModel:
    """Ridge least squares of raw reward on phi(x_t, a_t).  The fit reads
    only the per-action normal equations; its one chosen_design call comes
    after the factorization, for perfbench's traced pass to check the fit
    against."""
    batch = _nonempty(samples)
    gram, zy = feature_map.normal_equations(batch.X, batch.A, batch.r)
    theta, deficient = _solve_ridged(gram, zy, ridge)
    chosen_design(batch, feature_map)
    return LinearModel(theta, feature_map, rank_deficient=deficient)


def auto_lambda(Z, y: np.ndarray, gram: np.ndarray, zy: np.ndarray,
                scale: float = 1.0) -> float:
    """Penalty sigma_hat * scale * sqrt(2 log p / n) with sigma_hat the
    residual standard deviation of a lightly ridged preliminary fit on the
    normal equations gram = Z.T @ Z, zy = Z.T @ y, which keep their bits.
    Z is the design or a zero-argument callable that builds it, called once
    the pilot is solved, so that no design is alive while gram is factored.
    With n <= p rows the pilot interpolates and its residual is near 0, so
    sigma_hat is std(y), the null model's residual, and Z is not read."""
    n, p = y.shape[0], gram.shape[0]
    if n <= p:
        sigma = float(np.std(y))
    else:
        theta, _ = _solve_ridged(gram, zy, 1e-6 * n)
        if callable(Z):
            Z = Z()
        sigma = float(np.std(y - Z @ theta))
    return scale * sigma * math.sqrt(2.0 * math.log(p) / n)


def _coordinate_descent(gram, zy, n, lam, penalized):
    """Cyclic CD for (1/2n)||y - Z theta||^2 + lam * sum_{penalized} |theta_j|
    on the normal equations gram = Z^T Z and zy = Z^T y alone, which are only
    read: the covariance update of Friedman, Hastie & Tibshirani (2010,
    section 2.2).  Returns (theta, converged, sweeps).

    Columns are standardized to unit RMS, s_j = sqrt(G_jj / n), on the fly;
    returned coefficients live on the original scale, and dead (all-zero)
    columns keep coefficient 0.  c tracks Z^T r for the residual r: it starts
    at zy, and a move of standardized coordinate k by d subtracts
    (d / s_k) G[k].  A visit of j soft-thresholds rho = c_j / s_j + col_sq_j
    theta_j with col_sq_j = G_jj / s_j^2, so a penalized coordinate at zero
    with |rho| <= lam n stays there and costs no row update.  A fit converges
    only with finite normal equations and theta: a NaN move never raises
    delta, and its row update makes all of c NaN, so such a fit soon stops.
    """
    p = zy.shape[0]
    finite = bool(np.isfinite(gram).all() and np.isfinite(zy).all())
    diag = np.diagonal(gram)
    scales = np.sqrt(diag / n)
    live = scales > 0
    inv_s = np.divide(1.0, scales, out=np.zeros(p), where=live)
    col_sq = (diag * inv_s * inv_s).tolist()
    inv_l = inv_s.tolist()
    live_cols = np.flatnonzero(live).tolist()
    penalized = penalized.tolist()
    thr = lam * n
    theta = [0.0] * p
    c = zy.copy()
    # One reused buffer for the row products: fresh temporaries would be
    # strewn through the heap and leave it fragmented after the fit.
    step = np.empty(p)
    converged = False
    for sweeps in range(1, CD_MAX_SWEEPS + 1):
        delta = 0.0
        for j in live_cols:
            old = theta[j]
            rho = c.item(j) * inv_l[j] + col_sq[j] * old
            if penalized[j]:
                new = math.copysign(max(abs(rho) - thr, 0.0), rho) / col_sq[j]
            else:
                new = rho / col_sq[j]
            if new != old:
                c -= np.multiply(gram[j], (new - old) * inv_l[j], out=step)
                delta = max(delta, abs(new - old))
                theta[j] = new
        if delta < CD_TOL:
            converged = finite and all(map(math.isfinite, theta))
            break
    out = np.where(live, np.array(theta) / np.where(live, scales, 1.0), 0.0)
    return out, converged, sweeps


def _lasso_fit(design, y, gram, zy, feature_map, lam, scale) -> LinearModel:
    """Lasso fit of y on Z with normal equations gram = Z^T Z, zy = Z^T y;
    intercept coordinates are never penalized.  design() builds Z for the
    auto penalty's residual alone, and that Z is dropped before coordinate
    descent."""
    if lam == "auto":
        lam = auto_lambda(design, y, gram, zy, scale)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lasso penalty must be nonnegative")
    theta, converged, sweeps = _coordinate_descent(gram, zy, y.shape[0], lam,
                                                   feature_map.penalized())
    return LinearModel(theta, feature_map, converged=converged, lam=lam, sweeps=sweeps)


def fit_rloss_lasso(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                    lam="auto", scale: float = 1.0) -> LinearModel:
    """L1-penalized R-loss fit (see _lasso_fit).  The auto penalty's
    residual reads a design rebuilt, bit for bit, by the same
    feature_map.design call as residualized_design's."""
    batch = _nonempty(samples)
    design = lambda: feature_map.design(batch.X, batch.A, batch.P)
    return _lasso_fit(design, *_rloss_normal_equations(batch, feature_map),
                      feature_map, lam, scale)


def fit_squared_error_lasso(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                            lam="auto", scale: float = 1.0) -> LinearModel:
    """L1-penalized squared-error fit (see _lasso_fit).  Its one
    chosen_design call builds the auto penalty's residual design, or
    follows the fit when no penalty reads a design."""
    batch = _nonempty(samples)
    built = []
    design = lambda: built.append(True) or chosen_design(batch, feature_map)[0]
    model = _lasso_fit(design, batch.r,
                       *feature_map.normal_equations(batch.X, batch.A, batch.r),
                       feature_map, lam, scale)
    if not built:
        design()
    return model


def empirical_rloss(model: LinearModel, samples: Sequence[LoggedSample]) -> float:
    """Mean of (r - mu_hat - <e_a - p, scores>)^2 over a logged batch: the
    squared residual of theta on the R-loss design, whose row z_t gives
    <theta, z_t> = <e_a - p, scores>."""
    Z, y = residualized_design(samples, model.feature_map)
    r = y - Z @ model.theta
    return float(r @ r) / r.shape[0]


def estimation_rate(n: int, confidence: float, dim: int, scale: float = 1.0) -> float:
    """Excess-risk rate bound xi(n, confidence) for a dim-dimensional class.

    scale * (dim * log(max(n, 2)) + log(1/confidence)) / n, capped at 1 and
    flattened where the raw formula would briefly increase (n = 2 -> 3 with
    small dim) so the result is non-increasing in n for fixed confidence.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if scale <= 0:
        raise ValueError("scale must be positive")

    def raw(m: int) -> float:
        return scale * (dim * math.log(max(m, 2)) + math.log(1.0 / confidence)) / m

    value = raw(n) if n <= 2 else min(raw(2), raw(n))
    return min(1.0, value)
