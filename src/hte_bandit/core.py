"""Shared value types: RNG streams, feature maps, action distributions, epoch schedules.

Every module in the package builds on the contracts here.  Actions are
integers in 1..K throughout the public API; arrays indexed by action use
position a-1.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

# Stream ids for rng_stream.  Each consumer of randomness gets its own stream
# so that e.g. swapping the algorithm never perturbs the context sequence.
STREAM_CONTEXT = 0
STREAM_NOISE = 1
STREAM_ACTION = 2
STREAM_FOLD = 3
STREAM_PARAMS = 4
STREAM_VALIDATION = 5

ACTIVE_TOL = 1e-10        # |theta_j| above this counts as an active coefficient


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """The generator of one reproducible (seed, stream) pair.

    Distinct stream ids under the same seed give statistically independent
    generators (SeedSequence spawn keys), identical pairs give identical
    sequences on every platform.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


class ActionDistribution:
    """Probability vector over actions 1..K with validated entries."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a 1-d vector")
        # Positive conditions, so that a NaN entry fails them.
        if not (p.min() >= -1e-12 and p.max() <= 1 + 1e-12):
            raise ValueError(f"probabilities outside [0,1]: {p}")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        self.probs = p

    @classmethod
    def trusted(cls, probs: np.ndarray) -> "ActionDistribution":
        """Wrap a float vector already known to pass the checks above, such
        as an igw_kernel row (entries in (0, 1], sum within K ulps of 1, as
        the kernel's tests assert) or a logged propensity row."""
        dist = object.__new__(cls)
        dist.probs = probs
        return dist

    @property
    def num_actions(self) -> int:
        return self.probs.size

    def prob(self, action: int) -> float:
        return float(self.probs[action - 1])

    def sample(self, rng: np.random.Generator) -> int:
        """Inverse-CDF draw; returns an action in 1..K."""
        return int(inverse_cdf(self.probs[None, :], np.array([rng.random()]))[0])

    def __repr__(self):
        return f"ActionDistribution({self.probs.tolist()})"


def inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draw from an (n, K) block of distributions.

    Row i gets the first action whose running sum of probs[i] exceeds u[i];
    a u at or above the last running sum (which may round to 1 - eps) gets
    action K.  Returns actions in 1..K.  The running sums are kept column
    by column, np.cumsum's order, and the first crossing is the last one
    written on a pass from column K - 1 back to column 1.
    """
    cols = probs.T
    running = [cols[0]]
    for col in cols[1:-1]:
        running.append(running[-1] + col)
    actions = np.full(probs.shape[0], probs.shape[1])
    for k in range(len(running) - 1, -1, -1):
        np.copyto(actions, k + 1, where=running[k] > u)
    return actions


def _fold_columns(ufunc, block: np.ndarray) -> np.ndarray:
    cols = block.T
    out = cols[0]
    for col in cols[1:]:
        out = ufunc(out, col)
    return out


def row_max(block: np.ndarray) -> np.ndarray:
    """Row maxima of an (n, K) block, folded one column at a time: exact, so
    equal to block.max(axis=1), and for few columns much cheaper than
    numpy's per-row reduction."""
    return _fold_columns(np.maximum, block)


def row_min(block: np.ndarray) -> np.ndarray:
    """Row minima of an (n, K) block, folded as row_max is."""
    return _fold_columns(np.minimum, block)


def row_products(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W @ x_i for every row x_i of X, as the stacked product W @ X[:, :, None]:
    numpy makes one BLAS gemv call per row, the call a single vector makes,
    so row i equals W @ X[i] bit for bit (X @ W.T, one gemm, does not)."""
    return (W @ X[:, :, None])[:, :, 0]


# Feature map kinds.
ARM_BLOCK = "arm_block_with_intercept"
SHARED_INTERCEPT = "shared_with_intercept"
CUSTOM = "custom"


@dataclass(frozen=True)
class FeatureMap:
    """Joint context-action embedding phi(x, a) in R^p.

    A built-in map reads one column table, built in __post_init__: action
    k = a - 1 has a first context column and an intercept column, and
    phi(x, a) is x on the d columns from the first, 1 on the intercept
    column and 0 elsewhere.

    arm_block_with_intercept
        p = K*(d+1), columns (k(d+1), k(d+1)+d): block k holds [x; 1].  Each
        action has its own intercept, so between-arm constants are
        representable.
    shared_with_intercept
        p = K*d + 1, columns (kd, Kd): block k holds x, and every action
        shares the trailing intercept, so score differences between actions
        cannot contain a constant term.
    custom
        User-supplied callable with declared dimension.
    """

    kind: str
    raw_dim: int
    num_actions: int
    feature_dim: int = field(init=False, default=0)
    fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    custom_dim: int = 0
    custom_intercepts: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.num_actions < 2:
            raise ValueError("need at least two actions")
        if self.kind == CUSTOM:
            if self.fn is None or self.custom_dim < 1:
                raise ValueError("custom maps need fn and custom_dim")
            idx = self.custom_intercepts
            if (not all(isinstance(j, (int, np.integer)) and not isinstance(j, bool)
                        and 0 <= j < self.custom_dim for j in idx)
                    or len(set(idx)) != len(idx)):
                raise ValueError(f"custom intercepts {idx!r} must be distinct "
                                 f"indices in 0..{self.custom_dim - 1}")
            object.__setattr__(self, "feature_dim", self.custom_dim)
            self._set_penalized()
            return
        if self.raw_dim < 1:
            raise ValueError("raw context dimension must be positive")
        K, d, k = self.num_actions, self.raw_dim, np.arange(self.num_actions)
        if self.kind == ARM_BLOCK:
            first, intercept = k * (d + 1), k * (d + 1) + d
        elif self.kind == SHARED_INTERCEPT:
            first, intercept = k * d, np.full(K, K * d)
        else:
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        # Row k: action k+1's d context columns, then its intercept column.  An
        # attribute, not a field, so equality, hash and repr see the fields only.
        columns = np.column_stack([first[:, None] + np.arange(d), intercept])
        columns.flags.writeable = False
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "feature_dim", int(intercept[-1]) + 1)
        self._set_penalized()

    def _set_penalized(self) -> None:
        mask = np.ones(self.feature_dim, dtype=bool)
        mask[list(self.intercept_indices())] = False
        mask.flags.writeable = False
        object.__setattr__(self, "_penalized", mask)

    def featurize(self, x: np.ndarray, action: int) -> np.ndarray:
        """Embed one (context, action) pair.  Action must lie in 1..K."""
        if not 1 <= action <= self.num_actions:
            raise ValueError(f"action {action} outside 1..{self.num_actions}")
        x = np.asarray(x, dtype=float)
        if self.kind != CUSTOM:
            return self.design(x[None], np.array([action]))[0]
        v = np.asarray(self.fn(x, action), dtype=float)
        if v.shape != (self.feature_dim,):
            raise ValueError("custom map returned wrong dimension")
        return v

    def all_actions(self, x: np.ndarray) -> np.ndarray:
        """Stack phi(x, a) for a = 1..K into a (K, p) matrix."""
        return np.stack([self.featurize(x, a) for a in range(1, self.num_actions + 1)])

    def design(self, X: np.ndarray, A: np.ndarray,
               P: Optional[np.ndarray] = None) -> np.ndarray:
        """The (n, p) design of contexts X (n, d) and actions A (n,) in 1..K:
        rows phi(x_i, a_i) or, given propensity rows P (n, K), the
        residualized rows phi(x_i, a_i) - sum_b P[i, b] phi(x_i, b).

        Built-in kinds read Z as K action blocks of width d + 1 (arm block:
        x, then the block's intercept) or d (shared: x, with one intercept
        column after the blocks).  Given P, one broadcast product writes
        P[i, b] x into block b and P[i, b] (that is, P[i, b] * 1) into its
        intercept, all of which is then subtracted from 0, and each action b
        in turn subtracts P[:, b] from a shared intercept; then each row adds
        x, and 1 on its intercept, to its chosen block.  So the chosen block
        holds (0 - P v) + v with v = [x; 1] (two roundings, like the row
        formula), the others 0 - P v, and the shared intercept
        ((0 - P[i, 0]) - ...) - P[i, K-1] + 1, in that order.  Custom maps
        go row by row through fn.
        """
        self._check_rows(X, A)
        n = A.shape[0]
        Z = np.zeros((n, self.feature_dim))
        if self.kind == CUSTOM:
            for i in range(n):
                if P is None:
                    Z[i] = self.featurize(X[i], int(A[i]))
                else:
                    phi = self.all_actions(X[i])
                    Z[i] = phi[A[i] - 1] - P[i] @ phi
            return Z
        d, K = self.raw_dim, self.num_actions
        width = int(self._columns[1, 0])   # d + 1, or d before a shared intercept
        # The in-place subtraction runs on the 2-D view: on the (n, K, width)
        # reshape, not contiguous before a shared intercept, numpy would
        # first copy the whole input.
        flat = Z[:, :K * width]
        blocks = flat.reshape(n, K, width)
        if P is not None:
            np.multiply(P[:, :, None], X[:, None, :], out=blocks[:, :, :d])
            if width > d:
                blocks[:, :, d] = P
            np.subtract(0.0, flat, out=flat)
            for b in range(K) if width == d else ():
                Z[:, -1] -= P[:, b]
        rows, chosen = np.arange(n), A - 1
        blocks[rows, chosen, :d] += X
        if width > d:
            blocks[rows, chosen, d] += 1.0
        else:
            Z[:, -1] += 1.0
        return Z

    def normal_equations(self, X: np.ndarray, A: np.ndarray,
                         y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(Z^T Z, Z^T y) for the chosen-action design Z = design(X, A).

        Built-in kinds never form Z: the rows v = [x; 1] of action a give
        V_a^T V_a and V_a^T y_a, added onto a's columns of the table, so only
        a shared intercept's entries sum over actions.  Custom maps form Z.
        """
        if self.kind == CUSTOM:
            Z = self.design(X, A)
            return Z.T @ Z, Z.T @ y
        self._check_rows(X, A)
        d, p = self.raw_dim, self.feature_dim
        G, zy = np.zeros((p, p)), np.zeros(p)
        for k, cols in enumerate(self._columns):
            rows = A == k + 1
            V = np.empty((np.count_nonzero(rows), d + 1))
            V[:, :d] = X[rows]
            V[:, d] = 1.0
            G[cols[:, None], cols] += V.T @ V
            zy[cols] += V.T @ y[rows]
        return G, zy

    def _check_rows(self, X: np.ndarray, A: np.ndarray) -> None:
        if self.kind != CUSTOM and X.shape[1:] != (self.raw_dim,):
            raise ValueError(f"contexts have shape {X.shape[1:]}, "
                             f"expected ({self.raw_dim},)")
        if not np.all((A >= 1) & (A <= self.num_actions)):
            raise ValueError(f"actions outside 1..{self.num_actions}")

    def scores(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        """All K inner products <theta, phi(x, a)> without materializing phi:
        a (K,) vector for one context and, for the built-in kinds, an (n, K)
        block for n stacked contexts, each row equal to its one-context
        scores bit for bit (see row_products).
        """
        x = np.asarray(x, dtype=float)
        if self.kind == CUSTOM:
            return self.all_actions(x) @ theta
        X = x[None, :] if x.ndim == 1 else x
        S = row_products(theta[self._columns[:, :-1]], X) + theta[self._columns[:, -1]]
        return S[0] if x.ndim == 1 else S

    def intercept_indices(self) -> Tuple[int, ...]:
        """Coordinates left unpenalized by the lasso fits."""
        if self.kind == CUSTOM:
            return self.custom_intercepts
        return tuple(sorted(set(self._columns[:, -1].tolist())))

    def penalized(self) -> np.ndarray:
        """Read-only boolean mask of the non-intercept coordinates, the ones
        the lasso fits penalize, built once with the map."""
        return self._penalized

    def context_coefficients(self, theta: np.ndarray, tol: float = ACTIVE_TOL) -> int:
        """Count of active (|theta_j| > tol) non-intercept coordinates."""
        return int(np.sum(np.abs(theta[self.penalized()]) > tol))


def arm_block_map(raw_dim: int, num_actions: int) -> FeatureMap:
    return FeatureMap(ARM_BLOCK, raw_dim, num_actions)


def shared_intercept_map(raw_dim: int, num_actions: int) -> FeatureMap:
    return FeatureMap(SHARED_INTERCEPT, raw_dim, num_actions)


def custom_map(fn, feature_dim: int, num_actions: int, raw_dim: int = 0,
               intercepts: Sequence[int] = ()) -> FeatureMap:
    return FeatureMap(CUSTOM, raw_dim, num_actions, fn=fn, custom_dim=feature_dim,
                      custom_intercepts=tuple(intercepts))


@dataclass(frozen=True)
class LoggedSample:
    """One interaction record: context, chosen action, full propensity vector,
    realized reward, and (once cross-fitting has run) the nuisance value."""

    context: np.ndarray
    action: int
    propensities: ActionDistribution
    reward: float
    mu_hat: Optional[float] = None


class SampleBatch(Sequence):
    """Logged rounds as column arrays: contexts X (n, d), actions A (n,) in
    1..K, propensity rows P (n, K) (each a distribution), rewards r (n,)
    and, once cross-fitting has run, nuisance values mu (n,).

    Indexing (and so the Sequence base's iteration) yields LoggedSample
    rows, and a slice yields a batch of those rows, so a batch serves
    wherever a sample list does;
    SampleBatch.of turns a sample list into columns.
    """

    __slots__ = ("X", "A", "P", "r", "mu")

    def __init__(self, X: np.ndarray, A: np.ndarray, P: np.ndarray,
                 r: np.ndarray, mu: Optional[np.ndarray] = None):
        self.X, self.A, self.P, self.r, self.mu = X, A, P, r, mu

    @classmethod
    def of(cls, samples: Sequence[LoggedSample]) -> "SampleBatch":
        """The batch itself, or the columns of a LoggedSample sequence
        (mu is set only when every sample carries mu_hat)."""
        if isinstance(samples, SampleBatch):
            return samples
        mus = [s.mu_hat for s in samples]
        return cls(np.array([s.context for s in samples], dtype=float),
                   np.array([s.action for s in samples], dtype=np.int64),
                   np.array([s.propensities.probs for s in samples]),
                   np.array([s.reward for s in samples], dtype=float),
                   None if None in mus else np.array(mus, dtype=float))

    @classmethod
    def concat(cls, parts: Sequence["SampleBatch"]) -> "SampleBatch":
        """Rows of every part, in order (parts are epoch-buffer pieces,
        which carry no mu)."""
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(b, f) for b in parts])
                     for f in ("X", "A", "P", "r")))

    def with_mu(self, mu: np.ndarray) -> "SampleBatch":
        return SampleBatch(self.X, self.A, self.P, self.r, mu)

    def __len__(self) -> int:
        return self.r.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SampleBatch(self.X[i], self.A[i], self.P[i], self.r[i],
                               None if self.mu is None else self.mu[i])
        return LoggedSample(context=self.X[i], action=int(self.A[i]),
                            propensities=ActionDistribution.trusted(self.P[i]),
                            reward=float(self.r[i]),
                            mu_hat=None if self.mu is None else float(self.mu[i]))


DOUBLING = "doubling"
FIXED_LENGTH = "fixed_length"
EXPLICIT = "explicit_list"


@dataclass(frozen=True)
class EpochSchedule:
    """Epoch boundaries tau_0 = 0 < tau_1 < tau_2 < ...

    doubling:     tau_m = base * 2^m
    fixed_length: tau_m = base * m
    explicit_list: boundaries given verbatim; rounds past the last boundary
                   are undefined and raise.
    """

    kind: str
    base: int = 1
    boundaries: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind in (DOUBLING, FIXED_LENGTH):
            if self.base < 1:
                raise ValueError("base must be a positive integer")
        elif self.kind == EXPLICIT:
            bs = self.boundaries
            if not bs or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])) or bs[0] < 1:
                raise ValueError("boundaries must be strictly increasing positive ints")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    def boundary(self, m: int) -> int:
        """tau_m; m = 0 gives 0."""
        if m < 0:
            raise ValueError("epoch index must be nonnegative")
        if m == 0:
            return 0
        if self.kind == DOUBLING:
            return self.base * (1 << m)
        if self.kind == FIXED_LENGTH:
            return self.base * m
        if m > len(self.boundaries):
            raise ValueError(f"schedule has only {len(self.boundaries)} epochs")
        return self.boundaries[m - 1]

    def epoch_of(self, t: int) -> int:
        """The unique m with tau_{m-1} < t <= tau_m."""
        if t < 1:
            raise ValueError("rounds are 1-indexed")
        if self.kind == DOUBLING:
            c = -(-t // self.base)  # ceil(t / base)
            return max(1, (c - 1).bit_length())
        if self.kind == FIXED_LENGTH:
            return -(-t // self.base)
        i = bisect.bisect_left(self.boundaries, t)
        if i == len(self.boundaries):
            raise ValueError(f"round {t} beyond final boundary {self.boundaries[-1]}")
        return i + 1

    def epoch_length(self, m: int) -> int:
        return self.boundary(m) - self.boundary(m - 1)
