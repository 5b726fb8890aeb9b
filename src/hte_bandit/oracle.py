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
unpenalized).  Nuisance values mu_hat come from cross_fit_mu: per-fold
ridge regressions predicting each sample from the complement of its fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .core import STREAM_FOLD, FeatureMap, LoggedSample, SampleBatch, rng_stream

ACTIVE_TOL = 1e-10        # |theta_j| above this counts as an active coefficient
EIGEN_CLIP = 1e-12        # relative eigenvalue cutoff for the min-norm fallback
CD_TOL = 1e-8             # coordinate descent: max coefficient change per sweep
CD_MAX_SWEEPS = 10_000
CD_CHUNK = 64             # columns standardized at a time when building the CD design


def _solve_psd(A: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Solve A theta = b for symmetric positive semidefinite A.

    Returns (theta, fell_back).  A Cholesky solve is attempted first; on
    numerical rank deficiency we fall back to the minimum-norm solution
    with eigenvalues below EIGEN_CLIP * max(eig) treated as zero.
    """
    try:
        c = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        theta = scipy.linalg.cho_solve(c, b, check_finite=False)
        if np.all(np.isfinite(theta)):
            return theta, False
    except scipy.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(A)
    tol = EIGEN_CLIP * max(float(w[-1]), 1.0)
    inv = np.where(w > tol, 1.0 / np.where(w > tol, w, 1.0), 0.0)
    return V @ (inv * (V.T @ b)), True


class LinearModel:
    """Linear scorer over a feature map; base for both oracle outputs."""

    def __init__(self, theta: np.ndarray, feature_map: FeatureMap, *,
                 sparsity: Optional[int] = None, rank_deficient: bool = False,
                 converged: bool = True, lam: float = 0.0, sweeps: int = 0):
        self.theta = np.asarray(theta, dtype=float)
        self.feature_map = feature_map
        if sparsity is None:
            sparsity = int(np.sum(np.abs(self.theta) > ACTIVE_TOL))
        self.sparsity = sparsity
        self.rank_deficient = rank_deficient
        self.converged = converged
        self.lam = lam
        self.sweeps = sweeps      # coordinate-descent sweeps; 0 for ridge fits

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Scores for all K actions at context x."""
        return self.feature_map.scores(self.theta, x)

    def active_context_coefficients(self) -> int:
        return self.feature_map.context_coefficients(self.theta, ACTIVE_TOL)


class TreatmentEffectModel(LinearModel):
    """Output of an R-loss fit; only between-action score gaps are meaningful."""


class RewardModel(LinearModel):
    """Output of a squared-error fit of raw rewards."""


def zero_model(feature_map: FeatureMap) -> TreatmentEffectModel:
    return TreatmentEffectModel(np.zeros(feature_map.feature_dim), feature_map,
                                sparsity=0)


@dataclass
class NuisanceEstimate:
    """Cross-fitting artifacts: per-fold coefficient vectors and the
    fold assignment, kept so tests can verify out-of-fold discipline."""

    fold_models: List[np.ndarray]
    fold_of: np.ndarray
    num_folds: int
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
        est = NuisanceEstimate([], np.zeros(n, dtype=int), num_folds, mu, fallback=True)
        return est, batch.with_mu(mu)

    perm = rng_stream(fold_seed, STREAM_FOLD).permutation(n)
    fold_of = perm % num_folds
    d = batch.X.shape[1]
    X = np.empty((n, d + 1))
    X[:, :d] = batch.X
    X[:, d] = 1.0

    mu = np.empty(n)
    fold_models = []
    for k in range(num_folds):
        train = fold_of != k
        beta, _ = _ridge_fit(X[train], rewards[train], ridge)
        fold_models.append(beta)
        val = fold_of == k
        mu[val] = X[val] @ beta
    if reward_range is not None:
        np.clip(mu, reward_range[0], reward_range[1], out=mu)

    est = NuisanceEstimate(fold_models, fold_of, num_folds, mu)
    return est, batch.with_mu(mu)


def residualized_design(samples: Sequence[LoggedSample],
                        feature_map: FeatureMap) -> Tuple[np.ndarray, np.ndarray]:
    """Build (Z, y) for the R-loss regression.

    z_t = phi(x_t, a_t) - sum_a p_t(a) phi(x_t, a),  y_t = r_t - mu_hat_t.
    Requires cross-fitted mu_hat on every sample.
    """
    batch = SampleBatch.of(samples)
    if len(batch) == 0:
        raise ValueError("empty sample batch")
    if batch.mu is None:
        raise ValueError("samples lack cross-fitted mu_hat")
    return feature_map.design(batch.X, batch.A, batch.P), batch.r - batch.mu


def chosen_design(samples: Sequence[LoggedSample],
                  feature_map: FeatureMap) -> Tuple[np.ndarray, np.ndarray]:
    """Design for the squared-error route: rows phi(x_t, a_t), targets r_t."""
    batch = SampleBatch.of(samples)
    if len(batch) == 0:
        raise ValueError("empty sample batch")
    return feature_map.design(batch.X, batch.A), batch.r.copy()


def _ridge_fit(Z, y, ridge):
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    A = Z.T @ Z   # one bound array on both sides, so numpy takes the syrk path
    A[np.diag_indices_from(A)] += ridge
    return _solve_psd(A, Z.T @ y)


def fit_rloss(samples: Sequence[LoggedSample], feature_map: FeatureMap,
              ridge: float = 0.0) -> TreatmentEffectModel:
    """Exact minimizer of sum_t (y_t - <theta, z_t>)^2 + ridge ||theta||^2."""
    Z, y = residualized_design(samples, feature_map)
    theta, deficient = _ridge_fit(Z, y, ridge)
    return TreatmentEffectModel(theta, feature_map, rank_deficient=deficient)


def fit_squared_error(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                      ridge: float = 0.0) -> RewardModel:
    """Ridge least squares of raw reward on phi(x_t, a_t)."""
    Z, y = chosen_design(samples, feature_map)
    theta, deficient = _ridge_fit(Z, y, ridge)
    return RewardModel(theta, feature_map, rank_deficient=deficient)


def auto_lambda(Z: np.ndarray, y: np.ndarray, scale: float = 1.0) -> float:
    """Penalty sigma_hat * scale * sqrt(2 log p / n) with sigma_hat the
    residual standard deviation of a lightly ridged preliminary fit."""
    n, p = Z.shape
    theta, _ = _ridge_fit(Z, y, 1e-6 * n)
    sigma = float(np.std(y - Z @ theta))
    return scale * sigma * math.sqrt(2.0 * math.log(p) / n)


def _coordinate_descent(Z, y, lam, penalized):
    """Cyclic CD for (1/2n)||y - Z theta||^2 + lam * sum_{penalized} |theta_j|.

    Columns are standardized to unit RMS internally; returned coefficients
    live on the original scale.  Dead (all-zero) columns keep coefficient 0.
    Returns (theta, converged, sweeps).

    The standardized design is held column-paired, W of shape
    (ceil(p/2), n, 2) with column j at W[j // 2, :, j % 2], and built
    CD_CHUNK columns at a time, so no n x p temporary sits beside Z and W.
    A stride-2 column streams through memory, yet BLAS ddot sums it in the
    same order as the stride-p column of Z; a unit-stride column would not,
    so p == 1 keeps its unit-stride (1, n, 1) layout, as the (n, 1) Z has.
    """
    n, p = Z.shape
    W = np.zeros(((p + 1) // 2, n, 1 if p == 1 else 2))
    scales = np.empty(p)
    col_sq = np.empty(p)
    # A lone one-column chunk would be reduced as a contiguous vector
    # (pairwise summation) rather than row by row, so it joins the chunk
    # before it.
    bounds = list(range(0, p, CD_CHUNK)) + [p]
    if len(bounds) > 2 and p - bounds[-2] == 1:
        del bounds[-2]
    for a, b in zip(bounds, bounds[1:]):
        Zc = Z[:, a:b]
        s = np.sqrt(np.mean(Zc * Zc, axis=0))
        live = s > 0
        Zc = Zc / np.where(live, s, 1.0)
        Zc[:, ~live] = 0.0
        scales[a:b] = s
        col_sq[a:b] = np.einsum("ij,ij->j", Zc, Zc)
        for t in range(W.shape[2]):
            W[a // 2:(b + 1 - t) // 2, :, t] = Zc[:, t::2].T
    cols = [W[j // 2, :, j % 2] for j in range(p)]
    live = scales > 0
    live_cols = np.flatnonzero(live).tolist()
    col_sq, penalized = col_sq.tolist(), penalized.tolist()
    thr = lam * n
    theta = [0.0] * p
    r = y.copy()
    converged = False
    for sweeps in range(1, CD_MAX_SWEEPS + 1):
        delta = 0.0
        for j in live_cols:
            z, old = cols[j], theta[j]
            rho = z @ r + col_sq[j] * old
            if penalized[j]:
                new = math.copysign(max(abs(rho) - thr, 0.0), rho) / col_sq[j]
            else:
                new = rho / col_sq[j]
            if new != old:
                r += z * (old - new)
                delta = max(delta, abs(new - old))
                theta[j] = new
        if delta < CD_TOL:
            converged = True
            break
    out = np.where(live, np.array(theta) / np.where(live, scales, 1.0), 0.0)
    return out, converged, sweeps


def _lasso_fit(Z, y, feature_map, lam, scale):
    if lam == "auto":
        lam = auto_lambda(Z, y, scale)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lasso penalty must be nonnegative")
    penalized = np.ones(feature_map.feature_dim, dtype=bool)
    for j in feature_map.intercept_indices():
        penalized[j] = False
    theta, converged, sweeps = _coordinate_descent(Z, y, lam, penalized)
    sparsity = int(np.sum(np.abs(theta[penalized]) > ACTIVE_TOL))
    return theta, lam, sparsity, converged, sweeps


def fit_rloss_lasso(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                    lam="auto", scale: float = 1.0) -> TreatmentEffectModel:
    """L1-penalized R-loss fit.  Intercept coordinates are never penalized;
    `sparsity` counts active penalized coordinates only."""
    Z, y = residualized_design(samples, feature_map)
    theta, lam, sparsity, converged, sweeps = _lasso_fit(Z, y, feature_map, lam, scale)
    return TreatmentEffectModel(theta, feature_map, sparsity=sparsity,
                                converged=converged, lam=lam, sweeps=sweeps)


def fit_squared_error_lasso(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                            lam="auto", scale: float = 1.0) -> RewardModel:
    """L1-penalized squared-error fit with the same conventions."""
    Z, y = chosen_design(samples, feature_map)
    theta, lam, sparsity, converged, sweeps = _lasso_fit(Z, y, feature_map, lam, scale)
    return RewardModel(theta, feature_map, sparsity=sparsity,
                       converged=converged, lam=lam, sweeps=sweeps)


def empirical_rloss(model: LinearModel, samples: Sequence[LoggedSample]) -> float:
    """Mean of (r - mu_hat - <e_a - p, scores>)^2 over a logged batch."""
    if len(samples) == 0:
        raise ValueError("empty sample batch")
    total = 0.0
    for s in samples:
        if s.mu_hat is None:
            raise ValueError("samples lack cross-fitted mu_hat")
        scores = model.predict(s.context)
        contrast = scores[s.action - 1] - float(s.propensities.probs @ scores)
        total += (s.reward - s.mu_hat - contrast) ** 2
    return total / len(samples)


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
