"""The per-block and per-refit kernels against the formulas they replace.

Each rewritten kernel must give the bits of the plain numpy formula kept
here as its reference: the row reductions over actions (now folded one
column at a time), the inverse-CDF draw, the IGW kernel's leader score,
the design of the built-in feature maps (now one broadcast product), and
the solver's ridge and substitution bookkeeping.  Floats are compared as
their uint64 bit patterns, so a signed zero or a last-bit difference fails.
"""

import tracemalloc

import numpy as np
import pytest

from hte_bandit.core import (arm_block_map, inverse_cdf, row_max, row_min,
                             row_products, shared_intercept_map)
from hte_bandit.environments import Environment, EnvironmentSpec, Rounds
from hte_bandit.oracle import _cho_solve, _solve_psd, _solve_ridged
from hte_bandit.policy import igw_kernel

ROWS = (1, 2, 3, 65, 1000)
ACTIONS = (2, 3, 5, 8, 9)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype.kind == "f":
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        np.testing.assert_array_equal(got, want)


def blocks(rng, n, K):
    """Score-like (n, K) blocks: continuous rows, and rows drawn from a few
    values, so that most rows repeat their maximum and their minimum."""
    yield rng.standard_normal((n, K))
    yield 0.5 * rng.integers(-2, 3, (n, K)).astype(float)


def reference_design(fm, X, A, P=None):
    """The design built one action block at a time: given P each block b
    subtracts P[:, b] v from its columns, then each row adds v = [x; 1] on
    its chosen action's columns."""
    Z = np.zeros((A.shape[0], fm.feature_dim))
    d = fm.raw_dim
    if P is not None:
        for b, cols in enumerate(fm._columns):
            Z[:, cols[0]:cols[0] + d] -= P[:, b, None] * X
            Z[:, cols[-1]] -= P[:, b]
    for b, cols in enumerate(fm._columns):
        rows = A == b + 1
        Z[rows, cols[0]:cols[0] + d] += X[rows]
        Z[rows, cols[-1]] += 1.0
    return Z


@pytest.mark.parametrize("K", ACTIONS)
def test_row_extremes_match_the_row_reductions(K):
    rng = np.random.default_rng(K)
    for n in ROWS:
        for S in blocks(rng, n, K):
            assert_same_bits(row_max(S), S.max(axis=1))
            assert_same_bits(row_min(S), S.min(axis=1))
            # a row slice, as the runner takes of a block after a trigger
            assert_same_bits(row_max(S[n // 2:]), S[n // 2:].max(axis=1))


@pytest.mark.parametrize("K", ACTIONS)
def test_inverse_cdf_matches_the_cumsum_formula(K):
    rng = np.random.default_rng(100 + K)
    for n in ROWS:
        probs = rng.dirichlet(np.ones(K), n)
        # Running sums that fall back (tiny negative entries, as
        # ActionDistribution admits) and rows with zero entries.
        probs[::3, K // 2] = -1e-13
        probs[1::4, 0] = 0.0
        running = np.cumsum(probs, axis=1)
        u = rng.random(n)
        # u exactly at a running sum (no crossing there), at 0 and at the
        # last running sum or above it (action K).
        at = rng.integers(0, K, n)
        u[::2] = running[np.arange(n), at][::2]
        u[::5] = 0.0
        u[::7] = running[::7, -1]
        u[::11] = 1.0
        above = running > u[:, None]
        want = np.where(above.any(axis=1), above.argmax(axis=1) + 1, K)
        assert_same_bits(inverse_cdf(probs, u), want)


@pytest.mark.parametrize("K", ACTIONS)
def test_igw_kernel_matches_the_max_reduction_formula(K):
    """The leader's score, gathered at S.argmax's flat positions, leaves the
    kernel's bits as S.max(axis=1, keepdims=True) gave them; on ties the
    lowest index leads."""
    rng = np.random.default_rng(200 + K)
    for n in ROWS:
        for S in blocks(rng, n, K):
            for gamma in (1.0, 37.5, np.exp(rng.uniform(0.0, 9.0, n))):
                g = gamma[:, None] if isinstance(gamma, np.ndarray) else gamma
                want = 1.0 / (K + g * (S.max(axis=1, keepdims=True) - S))
                lead = S.argmax(axis=1)
                want[np.arange(n), lead] = 0.0
                want[np.arange(n), lead] = 1.0 - want.sum(axis=1)
                assert_same_bits(igw_kernel(S, gamma), want)
            one = igw_kernel(S[0], 2.0).probs
            assert_same_bits(one, igw_kernel(S[:1], 2.0)[0])


@pytest.mark.parametrize("K", ACTIONS)
def test_expected_regrets_and_confounder_peak_match_the_row_reductions(K):
    rng = np.random.default_rng(300 + K)
    for n in ROWS:
        for m in blocks(rng, n, K):
            rounds = Rounds(rng.standard_normal((n, 3)), m, rng.standard_normal(n))
            actions = rng.integers(1, K + 1, n)
            want = m.max(axis=1) - m[np.arange(n), actions - 1]
            assert_same_bits(rounds.expected_regrets(actions), want)
    for scenario in ("step_lin", "perturbed"):
        env = Environment(EnvironmentSpec(scenario, d=4, num_actions=K, seed=K))
        X = rng.standard_normal((1000, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        peak = (1.0 + row_products(env.truth.thetas, X)).max(axis=1)
        assert_same_bits(env.h_star(X), np.where(X[:, 0] <= 0.25, 0.0, -peak))


@pytest.mark.parametrize("K", ACTIONS)
@pytest.mark.parametrize("make_map", (arm_block_map, shared_intercept_map))
def test_design_matches_the_per_action_block_formula(make_map, K):
    """Both built-in layouts, with and without propensity rows, on contexts
    with entries exactly 0.0 and -0.0, and propensities with zero entries."""
    rng = np.random.default_rng(400 + K)
    d = 4
    fm = make_map(d, K)
    for n in ROWS:
        X = rng.standard_normal((n, d))
        X[::2, 0] = 0.0
        X[::3, 1] = -0.0
        X[1::5] = 0.0
        A = rng.integers(1, K + 1, n)
        P = rng.dirichlet(np.ones(K), n)
        P[::4, -1] = 0.0
        for probs in (None, P):
            assert_same_bits(fm.design(X, A, probs), reference_design(fm, X, A, probs))


def reference_cho_solve(L, b, block=32):
    x = b.copy()
    starts = range(0, b.shape[0], block)
    for i in starts:
        s = slice(i, i + block)
        x[s] = np.linalg.solve(L[s, s], x[s] - L[s, :i] @ x[:i])
    for i in reversed(starts):
        s, e = slice(i, i + block), i + block
        x[s] = np.linalg.solve(L[s, s].T, x[s] - L[e:, s].T @ x[e:])
    return x


@pytest.mark.parametrize("p", (1, 2, 31, 32, 33, 64, 65, 97))
def test_solver_bookkeeping_matches_the_reference(p):
    """_cho_solve without the empty products of its first forward and last
    backward block, and _solve_ridged's ridge through one diagonal view,
    give the reference solves' bits and leave the Gram as it was."""
    rng = np.random.default_rng(500 + p)
    Z = rng.standard_normal((p + 5, p))
    gram, zy = Z.T @ Z, Z.T @ rng.standard_normal(p + 5)
    L = np.linalg.cholesky(gram)
    assert_same_bits(_cho_solve(L, zy), reference_cho_solve(L, zy))
    for ridge in (0.0, 1e-6, 3.5):
        before = gram.copy()
        ridged = gram.copy()
        ridged[np.diag_indices_from(ridged)] += ridge
        theta, deficient = _solve_ridged(gram, zy, ridge)
        want, want_deficient = _solve_psd(ridged, zy)
        assert_same_bits(theta, want)
        assert deficient == want_deficient
        assert_same_bits(gram, before)


@pytest.mark.parametrize("make_map", (arm_block_map, shared_intercept_map))
def test_penalized_mask_is_built_once_and_read_only(make_map):
    fm = make_map(3, 4)
    mask = fm.penalized()
    assert mask is fm.penalized() and not mask.flags.writeable
    fresh = np.ones(fm.feature_dim, dtype=bool)
    fresh[list(fm.intercept_indices())] = False
    np.testing.assert_array_equal(mask, fresh)


@pytest.mark.parametrize("make_map", (arm_block_map, shared_intercept_map))
def test_design_holds_at_most_one_context_sized_temporary(make_map):
    """The in-place steps on the action blocks copy nothing: past the design
    itself, the peak is the (n, d) gather of the chosen blocks.  On the
    (n, K, d) view of a shared layout, numpy's in-place subtraction would
    first copy all n K d entries."""
    n, d, K = 3000, 50, 8
    rng = np.random.default_rng(7)
    X, A = rng.standard_normal((n, d)), rng.integers(1, K + 1, n)
    P = rng.dirichlet(np.ones(K), n)
    fm = make_map(d, K)
    for probs in (None, P):
        tracemalloc.start()
        try:
            Z = fm.design(X, A, probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= Z.nbytes + X.nbytes + 2 ** 16
