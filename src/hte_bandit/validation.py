"""Exact finite-instance oracles for the excess-risk identities.

On a finite context set everything is an explicit sum, so the two
structural facts behind the algorithm can be checked to float precision:

1. The excess R-loss risk of any effect table g does not depend on the
   nuisance table mu and equals the propensity-weighted variance-style
   contrast of g - f (the "gap identity").
2. Against any kernel, the best achievable excess R-loss risk of a model
   class never exceeds the class's best squared-error risk against f
   (the "misspecification bound"), and can be strictly smaller.

These enumerations are the measuring stick for the sampled-data oracles
elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import inverse_cdf

IDENTITY_TOL = 1e-10
BOUND_TOL = 1e-12


@dataclass(frozen=True)
class FiniteInstance:
    """Discrete environment: context probabilities, mean-reward table f_star,
    logging kernel, and optional heteroscedastic noise variances."""

    context_probs: np.ndarray     # (n_ctx,)
    f_star: np.ndarray            # (n_ctx, K)
    kernel: np.ndarray            # (n_ctx, K), rows are distributions
    noise_var: Optional[np.ndarray] = None

    def __post_init__(self):
        p = np.asarray(self.context_probs, float)
        f = np.asarray(self.f_star, float)
        k = np.asarray(self.kernel, float)
        if p.ndim != 1 or f.ndim != 2 or f.shape[0] != p.size or k.shape != f.shape:
            raise ValueError("inconsistent table shapes")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("context probabilities must form a distribution")
        _check_kernel_rows(k)
        object.__setattr__(self, "context_probs", p)
        object.__setattr__(self, "f_star", f)
        object.__setattr__(self, "kernel", k)
        if self.noise_var is not None:
            v = np.asarray(self.noise_var, float)
            if v.shape != f.shape or np.any(v < 0):
                raise ValueError("noise variances must be nonnegative, same shape as f_star")
            object.__setattr__(self, "noise_var", v)

    @property
    def num_contexts(self) -> int:
        return self.context_probs.size

    @property
    def num_actions(self) -> int:
        return self.f_star.shape[1]


def _check_kernel_rows(kernel: np.ndarray) -> None:
    """Every row of a kernel (n_ctx, K), or of a stack of kernels, must be a
    distribution over the K actions."""
    if np.any(kernel < 0) or np.any(np.abs(kernel.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("kernel rows must be distributions")


def _rloss_terms(inst: FiniteInstance, g: np.ndarray, mu: np.ndarray,
                 kernel: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-context R-loss risk E_a[(r - mu(x) - <e_a - p(x), g(x, .)>)^2]
    of one effect table (n_ctx, K), or of each table in an (m, n_ctx, K) stack,
    under inst's kernel or under a kernel stack that broadcasts against g,
    such as (n_kern, 1, n_ctx, K) against a table stack."""
    k = inst.kernel if kernel is None else kernel
    contrast = g - (k * g).sum(axis=-1, keepdims=True)
    err = inst.f_star - mu[:, None] - contrast
    per = err * err
    if inst.noise_var is not None:
        per = per + inst.noise_var
    return (k * per).sum(axis=-1)


def _squared_terms(inst: FiniteInstance, g: np.ndarray,
                   kernel: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-context E_a[(g(x, a) - f_star(x, a))^2], for one table or a stack,
    under inst's kernel or a broadcasting kernel stack as in _rloss_terms."""
    k = inst.kernel if kernel is None else kernel
    delta = g - inst.f_star
    return (k * delta * delta).sum(axis=-1)


def exact_rloss_risk(inst: FiniteInstance, g: np.ndarray, mu: np.ndarray) -> float:
    """Population R-loss risk of effect table g under nuisance table mu:
    E[(r - mu(x) - <e_a - p(x), g(x, .)>)^2] over x ~ D, a ~ kernel."""
    return float(inst.context_probs @ _rloss_terms(inst, np.asarray(g, float),
                                                   np.asarray(mu, float)))


def excess_rloss_risk(inst: FiniteInstance, g: np.ndarray, mu: np.ndarray) -> float:
    """Risk of g minus the unconstrained minimum (attained at g = f_star)."""
    return exact_rloss_risk(inst, g, mu) - exact_rloss_risk(inst, inst.f_star, mu)


def gap_identity_value(inst: FiniteInstance, g: np.ndarray) -> float:
    """E[<e_a - p(x), g(x,.) - f_star(x,.)>^2]: the nuisance-free form the
    excess risk must equal."""
    delta = np.asarray(g, float) - inst.f_star
    centered = delta - (inst.kernel * delta).sum(axis=1, keepdims=True)
    return float(inst.context_probs @ (inst.kernel * centered * centered).sum(axis=1))


def squared_error_risk(inst: FiniteInstance, g: np.ndarray) -> float:
    """E[(g(x,a) - f_star(x,a))^2] over the same logging distribution."""
    return float(inst.context_probs @ _squared_terms(inst, np.asarray(g, float)))


def excess_risk_identity_gap(inst: FiniteInstance, g: np.ndarray,
                             mu_a: np.ndarray, mu_b: np.ndarray) -> float:
    """Maximum pairwise deviation between the excess risk computed under two
    unrelated nuisance tables and the gap-identity value.  Zero (to float
    precision) is the claim under test."""
    vals = (excess_rloss_risk(inst, g, mu_a),
            excess_rloss_risk(inst, g, mu_b),
            gap_identity_value(inst, g))
    return max(abs(u - v) for i, u in enumerate(vals) for v in vals[i + 1:])


@dataclass
class BoundReport:
    holds: bool
    best_excess: float        # min over class of excess R-loss risk
    best_squared: float       # min over class of squared-error risk
    worst_margin: float       # min over kernels of (squared - excess)
    max_excess: float         # max over sampled kernels of the class minimum
    max_squared: float


def misspec_bound_check(inst: FiniteInstance, model_class: Sequence[np.ndarray],
                        kernels: Sequence[np.ndarray],
                        tol: float = BOUND_TOL) -> BoundReport:
    """For each sampled kernel, compare the model class's best excess R-loss
    risk against its best squared-error risk.  The excess side is computed
    as a risk difference under a fixed zero nuisance, not via the gap
    identity, so the two routes stay independent.

    Every kernel scores the whole class at once: the kernels are stacked as
    one (n_kern, 1, n_ctx, K) array against the class stacked behind f_star
    (the excess risk's baseline) as one (1 + m, n_ctx, K) array.  All
    (kernel, member) context-weighted sums are one stacked product
    p @ (n_kern, m, n_ctx, 1), for which numpy calls BLAS ddot once per pair
    with the operands of p.dot(row), p first: some OpenBLAS kernels' sums
    depend on which operand is first.  So every figure equals the one-table
    risk functions' bit for bit.  A kernel or member whose shape is not
    f_star's, or an empty class, raises ValueError."""
    shape = inst.f_star.shape
    stack = _stacked(kernels, shape).reshape(-1, 1, *shape)
    _check_kernel_rows(stack)
    members = _stacked(model_class, shape)
    if not len(members):
        raise ValueError("the model class has no members")
    tables = np.concatenate([inst.f_star[None], members])
    mu0 = np.zeros(inst.num_contexts)
    p = inst.context_probs

    def risks(terms):
        return (p @ terms[..., None])[..., 0]

    rloss = risks(_rloss_terms(inst, tables, mu0, stack))
    best_e = (rloss[:, 1:] - rloss[:, :1]).min(axis=1)
    best_s = risks(_squared_terms(inst, members, stack)).min(axis=1)
    last = (float(best_e[-1]), float(best_s[-1])) if len(stack) else (np.nan, np.nan)
    return BoundReport(bool(np.all(best_e <= best_s + tol)), *last,
                       float(np.min(best_s - best_e, initial=np.inf)),
                       float(np.max(best_e, initial=-np.inf)),
                       float(np.max(best_s, initial=-np.inf)))


def _stacked(tables: Sequence[np.ndarray], shape: Tuple[int, ...]) -> np.ndarray:
    """The tables as one (m, *shape) float array; ValueError unless each has
    the given shape."""
    arrays = [np.asarray(t, float) for t in tables]
    if any(a.shape != shape for a in arrays):
        raise ValueError("inconsistent table shapes")
    return np.array(arrays).reshape(-1, *shape)


def mc_excess_risk(context_sampler: Callable[[np.random.Generator], np.ndarray],
                   kernel_fn: Callable[[np.ndarray], np.ndarray],
                   g_fn: Callable[[np.ndarray], np.ndarray],
                   g_star_fn: Callable[[np.ndarray], np.ndarray],
                   n: int, rng: np.random.Generator) -> Tuple[float, float]:
    """Monte Carlo estimate (and standard error) of the gap-identity value
    over fresh context draws and kernel-sampled actions."""
    if n < 1:
        raise ValueError("need at least one draw")
    vals = np.empty(n)
    for i in range(n):
        x = context_sampler(rng)
        probs = np.asarray(kernel_fn(x), float)
        u = rng.random()
        a = int(inverse_cdf(probs[None, :], np.array([u]))[0]) - 1
        delta = np.asarray(g_fn(x), float) - np.asarray(g_star_fn(x), float)
        contrast = delta[a] - float(probs @ delta)
        vals[i] = contrast * contrast
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return est, stderr


# -- randomized instance generators (shared by the CLI suite and tests) -----

def random_instance(rng: np.random.Generator, max_contexts: int = 20,
                    max_actions: int = 4, noise: bool = True) -> FiniteInstance:
    n_ctx = int(rng.integers(2, max_contexts + 1))
    K = int(rng.integers(2, max_actions + 1))
    probs = rng.uniform(0.05, 1.0, n_ctx)
    probs /= probs.sum()
    f = rng.uniform(-2.0, 2.0, (n_ctx, K))
    kern = random_kernel(rng, n_ctx, K)
    var = rng.uniform(0.0, 0.25, (n_ctx, K)) if noise else None
    return FiniteInstance(probs, f, kern, var)


def random_kernel(rng: np.random.Generator, n_ctx: int, K: int,
                  floor: float = 0.02, count: Optional[int] = None) -> np.ndarray:
    """One random (n_ctx, K) kernel, rows uniform on [floor, 1] normalized,
    or with count, a (count, n_ctx, K) stack drawn as one block.  The stack
    equals count successive single draws bit for bit and leaves rng in the
    same state, since the uniforms fill it in the same order."""
    k = rng.uniform(floor, 1.0, (n_ctx, K) if count is None else (count, n_ctx, K))
    return k / k.sum(axis=-1, keepdims=True)


def random_model_class(rng: np.random.Generator, inst: FiniteInstance,
                       size: int = 8) -> np.ndarray:
    """size random effect tables, uniform on [-2.5, 2.5], as one
    (size, n_ctx, K) draw: the same members, bit for bit, as size successive
    draws of one table."""
    return rng.uniform(-2.5, 2.5, (size, *inst.f_star.shape))


def shifted_class(inst: FiniteInstance, shift: float = 0.5) -> List[np.ndarray]:
    """Single-member class {f_star + shift}: zero excess R-loss risk but
    squared-error risk shift^2, the canonical strict-gap construction."""
    return [inst.f_star + shift]
