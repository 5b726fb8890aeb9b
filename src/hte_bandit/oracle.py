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
unpenalized).  A lasso fit forms Z^T Z and Z^T y once: the auto penalty's
ridge pilot solves on them, and coordinate descent starts its Z^T r from
Z^T y and uses Z^T Z to skip every zero coordinate that a rounding-safe
bound shows would stay zero, with the same bits as visiting it.  Nuisance
values mu_hat come from cross_fit_mu: per-fold ridge regressions
predicting each sample from the complement of its fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .core import STREAM_FOLD, FeatureMap, LoggedSample, SampleBatch, rng_stream

EIGEN_CLIP = 1e-12        # relative eigenvalue cutoff for the min-norm fallback
CD_TOL = 1e-8             # coordinate descent: max coefficient change per sweep
CD_MAX_SWEEPS = 10_000
CD_CHUNK = 64             # columns standardized at a time by coordinate descent


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
        beta, _ = _ridge_fit(X[train], rewards[train], ridge)
        val = fold_of == k
        mu[val] = X[val] @ beta
    if reward_range is not None:
        np.clip(mu, reward_range[0], reward_range[1], out=mu)

    return NuisanceEstimate(fold_of, mu), batch.with_mu(mu)


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


def _ridge_fit(Z, y, ridge):
    """Ridge solve on Z's normal equations; Z.T @ Z on one bound array takes
    numpy's syrk path."""
    return _solve_ridged(Z.T @ Z, Z.T @ y, ridge)


def fit_rloss(samples: Sequence[LoggedSample], feature_map: FeatureMap,
              ridge: float = 0.0) -> LinearModel:
    """Exact minimizer of sum_t (y_t - <theta, z_t>)^2 + ridge ||theta||^2."""
    Z, y = residualized_design(samples, feature_map)
    theta, deficient = _ridge_fit(Z, y, ridge)
    return LinearModel(theta, feature_map, rank_deficient=deficient)


def fit_squared_error(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                      ridge: float = 0.0) -> LinearModel:
    """Ridge least squares of raw reward on phi(x_t, a_t)."""
    Z, y = chosen_design(samples, feature_map)
    theta, deficient = _ridge_fit(Z, y, ridge)
    return LinearModel(theta, feature_map, rank_deficient=deficient)


def auto_lambda(Z: np.ndarray, y: np.ndarray, gram: np.ndarray, zy: np.ndarray,
                scale: float = 1.0) -> float:
    """Penalty sigma_hat * scale * sqrt(2 log p / n) with sigma_hat the
    residual standard deviation of a lightly ridged preliminary fit on the
    normal equations gram = Z.T @ Z, zy = Z.T @ y, which keep their bits."""
    n, p = Z.shape
    theta, _ = _solve_ridged(gram, zy, 1e-6 * n)
    sigma = float(np.std(y - Z @ theta))
    return scale * sigma * math.sqrt(2.0 * math.log(p) / n)


def _coordinate_descent(Z, y, lam, penalized, gram, zy):
    """Cyclic CD for (1/2n)||y - Z theta||^2 + lam * sum_{penalized} |theta_j|.

    Columns are standardized to unit RMS internally; returned coefficients
    live on the original scale.  Dead (all-zero) columns keep coefficient 0.
    Returns (theta, converged, sweeps).  The normal equations G = gram =
    Z.T @ Z and zy = Z.T @ y are only read.

    Screening.  A penalized coordinate at zero whose rho = z_j . r satisfies
    |rho| <= lam * n stays at zero, so its visit changes nothing.  Alongside
    the residual r, zr tracks Z^T r: it starts as a copy of zy, and each
    move d of coordinate k adds d * inv_s[k] * G[k].  Coordinate j is
    skipped when it is penalized, at zero and |zr_j| inv_s_j + e_j < lam n,
    where e_j bounds both the drift of zr_j inv_s_j from the exact z_j . r
    and the rounding of the ddot that a visit would make.  With u = 2^-53,
    eta = 2^-1074 (which bounds the underflow error of one product) and
    eps = (n + 16) 2u >= gamma_n + 16u,

        e_j = 2 (nu_j (A + eps R) + inv_s_j B + Om),

    where nu_j = sqrt(G_jj + n eta) inv_s_j (1 + eps) + om bounds the norms
    of column j, unrounded (||Z_j|| / s_j) and standardized (||z_j||); R
    bounds ||r||; om = (n + 1)^2 2^-530 bounds every underflow term that is
    not scaled by inv_s_j (all norms nu are below 2 sqrt(n) + om and all
    scales lie in [2^-537, 2^513]); eps R covers the visit's ddot and the
    check's own product.  The accumulators start from Y >= ||y|| at
    A = eps Y, B = n eta and Om = om (1 + Y), covering the rounding of
    Z^T y, of inv_s and of the division that makes z_j.  Each move of size
    |d| at k adds to

    * A: eps (|d| nu_k + R), the Gram's and the update's rounding
      (gamma_n + 9u) |d| nu_j nu_k, the residual update's u ||z_j|| (|d|
      nu_k + R), and the rounding of zr_j's own sum, u |zr_j inv_s_j| <=
      u (nu_j R + e_j); and om (1 + |d|), the residual update's underflow;
    * B: n eta |d| inv_s_k, the Gram's underflow |d| n eta inv_s_j inv_s_k,
      large only between two columns whose squares underflow;
    * Om: om (1 + |d|), the underflow of the update's products;
    * R (recomputed from r at each sweep start): (R + |d| nu_k) (1 + eps)
      + om.

    The factor 2 absorbs the (1 + u) per move that zr_j's rounding feeds
    back into e_j and the rounding of e_j's own evaluation.  The pilot's
    ridge is never in G: the pilot puts it on the diagonal and copies the
    diagonal back.  A NaN or inf anywhere makes the comparison false, so
    that coordinate is visited.  A visited coordinate runs exactly the
    unscreened step, so theta, converged and sweeps have the same bits as
    without screening.

    Lazy columns.  The scales need all of Z; the standardized columns do
    not.  The first visit to a column of a CD_CHUNK-column chunk gathers
    and standardizes, with their col_sq, only the chunk's columns that fail
    the screen then.  A column that fails the screen later is gathered on
    its own.  Each kept column is a strided view into its gather: BLAS ddot
    sums every non-unit stride in the same order as the stride-p column of
    Z, but a unit stride in another, so a lone column is gathered twice
    unless p == 1, whose (n, 1) Z is itself unit-stride.
    """
    n, p = Z.shape
    # Column sums of squares with the bits of np.mean over whole columns and
    # no (n, p) temporary: einsum sums two or more C-order columns row by
    # row, as np.mean does; one column is summed pairwise.
    sq_sum = np.einsum("ij,ij->j", Z, Z) if p > 1 else np.add.reduce(Z * Z, axis=0)
    scales = np.sqrt(sq_sum / n)
    live = scales > 0
    eps = (n + 16) * 2.0 ** -52
    om = (n + 1) ** 2 * 2.0 ** -530
    n_eta = n * 2.0 ** -1074
    with np.errstate(over="ignore", invalid="ignore"):
        inv_s = np.divide(1.0, scales, out=np.zeros(p), where=live)
        nu = (np.sqrt(np.diagonal(gram) + n_eta) * inv_s * (1.0 + eps) + om).tolist()
    zr = zy.copy()
    # Reused buffers for the per-move products: fresh temporaries would be
    # strewn through the heap between the kept columns, and the freed space
    # would then stay resident and fragmented after the fit.
    zr_step, r_step = np.empty(p), np.empty(n)
    inv_l = inv_s.tolist()
    col_sq = [0.0] * p
    cols = [None] * p
    built = [False] * -(-p // CD_CHUNK)
    live_cols = np.flatnonzero(live).tolist()
    penalized = penalized.tolist()
    thr = lam * n
    theta = [0.0] * p
    r = y.copy()
    Y = math.sqrt(float(r @ r) + n_eta) * (1.0 + eps) + om
    A, B, Om = eps * Y, n_eta, om * (1.0 + Y)

    def screened(j):
        return (penalized[j] and theta[j] == 0.0
                and abs(zr.item(j)) * inv_l[j]
                + 2.0 * (nu[j] * slack + inv_l[j] * B + Om) < thr)

    def keep(idx):
        # Standardize columns idx of Z and store their views and col_sq.
        # np.take copies in C order, and a lone column is taken twice when
        # p > 1, so einsum sums each column row by row, as over the whole
        # design; a lone column, or one in F order, would be summed pairwise.
        if len(idx) == 1 and p > 1:
            idx = idx * 2
        Zs = np.take(Z, idx, axis=1)
        Zs /= scales[idx]
        sq = np.einsum("ij,ij->j", Zs, Zs).tolist()
        for m, j in enumerate(idx):
            cols[j], col_sq[j] = Zs[:, m], sq[m]

    def column(j):
        ci = j // CD_CHUNK
        if built[ci]:
            keep([j])
        else:
            built[ci] = True
            keep([i for i in range(ci * CD_CHUNK, min(ci * CD_CHUNK + CD_CHUNK, p))
                  if live[i] and not screened(i)])
        return cols[j]

    converged = False
    for sweeps in range(1, CD_MAX_SWEEPS + 1):
        R = math.sqrt(float(r @ r) + n_eta) * (1.0 + eps) + om
        slack = A + eps * R
        delta = 0.0
        for j in live_cols:
            if screened(j):
                continue
            z = cols[j]
            if z is None:
                z = column(j)
            old = theta[j]
            rho = z @ r + col_sq[j] * old
            if penalized[j]:
                new = math.copysign(max(abs(rho) - thr, 0.0), rho) / col_sq[j]
            else:
                new = rho / col_sq[j]
            if new != old:
                d = old - new
                r += np.multiply(z, d, out=r_step)
                delta = max(delta, abs(new - old))
                theta[j] = new
                zr += np.multiply(gram[j], d * inv_l[j], out=zr_step)
                ad = abs(d)
                R = (R + ad * nu[j]) * (1.0 + eps) + om
                A += eps * (ad * nu[j] + R) + om * (1.0 + ad)
                B += ad * inv_l[j] * n_eta      # n_eta * ad alone may underflow
                Om += om * (1.0 + ad)
                slack = A + eps * R
        if delta < CD_TOL:
            converged = True
            break
    out = np.where(live, np.array(theta) / np.where(live, scales, 1.0), 0.0)
    return out, converged, sweeps


def _lasso_fit(Z, y, feature_map, lam, scale) -> LinearModel:
    """Lasso fit of y on Z; intercept coordinates are never penalized.  The
    auto penalty's ridge pilot and coordinate descent share Z^T Z, Z^T y."""
    gram, zy = Z.T @ Z, Z.T @ y
    if lam == "auto":
        lam = auto_lambda(Z, y, gram, zy, scale)
    lam = float(lam)
    if lam < 0:
        raise ValueError("lasso penalty must be nonnegative")
    theta, converged, sweeps = _coordinate_descent(Z, y, lam, feature_map.penalized(),
                                                   gram, zy)
    return LinearModel(theta, feature_map, converged=converged, lam=lam, sweeps=sweeps)


def fit_rloss_lasso(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                    lam="auto", scale: float = 1.0) -> LinearModel:
    """L1-penalized R-loss fit (see _lasso_fit)."""
    return _lasso_fit(*residualized_design(samples, feature_map), feature_map, lam, scale)


def fit_squared_error_lasso(samples: Sequence[LoggedSample], feature_map: FeatureMap,
                            lam="auto", scale: float = 1.0) -> LinearModel:
    """L1-penalized squared-error fit (see _lasso_fit)."""
    return _lasso_fit(*chosen_design(samples, feature_map), feature_map, lam, scale)


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
