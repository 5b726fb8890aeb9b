"""Finite-instance enumeration oracles and their Monte Carlo cross-checks."""

import numpy as np
import pytest
from scipy import stats

from hte_bandit.core import rng_stream
from hte_bandit.environments import EnvironmentSpec, _unit_sphere, build_environment
from hte_bandit.validation import (
    BoundReport,
    FiniteInstance,
    exact_rloss_risk,
    excess_risk_identity_gap,
    excess_rloss_risk,
    gap_identity_value,
    mc_excess_risk,
    misspec_bound_check,
    random_instance,
    random_kernel,
    random_model_class,
    shifted_class,
    squared_error_risk,
)


def single_context_instance():
    return FiniteInstance(context_probs=np.array([1.0]),
                          f_star=np.array([[1.0, 0.0]]),
                          kernel=np.array([[0.5, 0.5]]))


def test_instance_validation():
    with pytest.raises(ValueError):
        FiniteInstance(np.array([0.6, 0.6]), np.zeros((2, 2)),
                       np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        FiniteInstance(np.array([1.0]), np.zeros((1, 2)),
                       np.array([[0.9, 0.3]]))
    with pytest.raises(ValueError):
        FiniteInstance(np.array([1.0]), np.zeros((1, 2)),
                       np.array([[0.5, 0.5]]), noise_var=np.array([[-1.0, 0.0]]))


def test_instance_rejects_a_one_dimensional_reward_table():
    with pytest.raises(ValueError, match="inconsistent table shapes"):
        FiniteInstance(np.array([0.5, 0.5]), np.zeros(2), np.full((2, 2), 0.5))


def test_risk_frozen_two_term_enumeration():
    inst = single_context_instance()
    g0 = np.zeros((1, 2))
    mu0 = np.zeros(1)
    assert exact_rloss_risk(inst, g0, mu0) == pytest.approx(0.5, abs=1e-15)
    # the minimum sits at g = f_star; its risk under mu = 0 is 0.25
    assert exact_rloss_risk(inst, inst.f_star, mu0) == pytest.approx(0.25,
                                                                     abs=1e-15)
    assert excess_rloss_risk(inst, g0, mu0) == pytest.approx(0.25, abs=1e-15)
    assert gap_identity_value(inst, g0) == pytest.approx(0.25, abs=1e-15)


def test_truth_has_zero_risk_with_kernel_mean_nuisance():
    rng = rng_stream(50, 5)
    inst = random_instance(rng, noise=False)
    mu_balanced = (inst.kernel * inst.f_star).sum(axis=1)
    assert exact_rloss_risk(inst, inst.f_star, mu_balanced) == \
        pytest.approx(0.0, abs=1e-14)
    assert excess_rloss_risk(inst, inst.f_star, mu_balanced) == \
        pytest.approx(0.0, abs=1e-14)


def test_noise_floor_enters_the_risk():
    inst = single_context_instance()
    noisy = FiniteInstance(inst.context_probs, inst.f_star, inst.kernel,
                           noise_var=np.full((1, 2), 0.04))
    mu = (inst.kernel * inst.f_star).sum(axis=1)
    assert exact_rloss_risk(noisy, noisy.f_star, mu) == pytest.approx(0.04,
                                                                      abs=1e-15)
    # the excess is noise-free
    assert excess_rloss_risk(noisy, np.zeros((1, 2)), mu) == \
        pytest.approx(0.25, abs=1e-15)


def test_excess_risk_identity_and_nuisance_invariance():
    rng = rng_stream(51, 5)
    worst = 0.0
    for _ in range(10):
        inst = random_instance(rng)
        g = rng.uniform(-2.5, 2.5, inst.f_star.shape)
        mu_a = rng.uniform(-2.0, 2.0, inst.num_contexts)
        mu_b = rng.uniform(-2.0, 2.0, inst.num_contexts)
        worst = max(worst, excess_risk_identity_gap(inst, g, mu_a, mu_b))
        assert exact_rloss_risk(inst, g, mu_a) != exact_rloss_risk(inst, g, mu_b)
    assert worst <= 1e-10


def test_identity_gap_detects_a_broken_evaluator():
    # dropping the propensity centering must move the value: the enumeration
    # is a real oracle, not a tautology
    rng = rng_stream(52, 5)
    inst = random_instance(rng, noise=False)
    g = rng.uniform(-2.5, 2.5, inst.f_star.shape)
    delta = g - inst.f_star
    uncentered = float(inst.context_probs @ (inst.kernel * delta * delta).sum(axis=1))
    assert abs(uncentered - gap_identity_value(inst, g)) > 1e-3


def test_bound_holds_on_random_classes():
    rng = rng_stream(53, 5)
    for _ in range(20):
        inst = random_instance(rng, noise=False)
        cls = random_model_class(rng, inst, size=6)
        kerns = [random_kernel(rng, inst.num_contexts, inst.num_actions)
                 for _ in range(5)]
        rep = misspec_bound_check(inst, cls, kerns)
        assert rep.holds
        assert rep.worst_margin >= -1e-12


def test_bound_realizable_class_hits_zero():
    rng = rng_stream(54, 5)
    inst = random_instance(rng, noise=False)
    cls = [inst.f_star, inst.f_star + 1.3]
    rep = misspec_bound_check(inst, cls, [inst.kernel])
    assert rep.holds
    assert rep.best_excess == pytest.approx(0.0, abs=1e-12)
    assert rep.best_squared == pytest.approx(0.0, abs=1e-12)


def test_bound_constant_shift_class_has_strict_gap():
    """A context-free shift of the truth is an admissible confounder, so its
    excess R-loss risk is zero while its squared error stays shift^2: the
    canonical strict-inequality witness."""
    rng = rng_stream(55, 5)
    inst = random_instance(rng, noise=False)
    rep = misspec_bound_check(inst, shifted_class(inst, 0.5), [inst.kernel])
    assert rep.holds
    assert rep.best_excess <= 1e-12
    assert rep.best_squared == pytest.approx(0.25, abs=1e-12)
    assert squared_error_risk(inst, inst.f_star + 0.5) == \
        pytest.approx(0.25, abs=1e-12)


def reference_bound_check(inst, model_class, kernels, tol=1e-12):
    """misspec_bound_check as a loop over kernels and class members, each
    risk one table at a time."""
    def rloss(sub, g, mu):
        contrast = g - (sub.kernel * g).sum(axis=1, keepdims=True)
        err = sub.f_star - mu[:, None] - contrast
        per = err * err
        if sub.noise_var is not None:
            per = per + sub.noise_var
        return float(sub.context_probs @ (sub.kernel * per).sum(axis=1))

    def squared(sub, g):
        delta = g - sub.f_star
        return float(sub.context_probs @ (sub.kernel * delta * delta).sum(axis=1))

    mu0 = np.zeros(inst.num_contexts)
    holds, worst, max_e, max_s = True, np.inf, -np.inf, -np.inf
    best_e = best_s = np.nan
    for kern in kernels:
        sub = FiniteInstance(inst.context_probs, inst.f_star, kern, inst.noise_var)
        base = rloss(sub, sub.f_star, mu0)
        best_e = min(rloss(sub, g, mu0) - base for g in model_class)
        best_s = min(squared(sub, g) for g in model_class)
        holds = holds and (best_e <= best_s + tol)
        worst = min(worst, best_s - best_e)
        max_e, max_s = max(max_e, best_e), max(max_s, best_s)
    return BoundReport(holds, best_e, best_s, worst, max_e, max_s)


def report_bits(rep):
    return (rep.holds, *(float(v).hex() for v in (
        rep.best_excess, rep.best_squared, rep.worst_margin, rep.max_excess,
        rep.max_squared)))


@pytest.mark.parametrize("noise", [False, True])
def test_class_batched_bound_check_matches_member_loop(noise):
    """The inputs of the validate command's bound check (seed 1), and the
    same draws with noise variances: every report field bit for bit."""
    rng = rng_stream(1, 5)
    for _ in range(100):
        inst = random_instance(rng, noise=noise)
        cls = random_model_class(rng, inst)
        kerns = random_kernel(rng, inst.num_contexts, inst.num_actions, count=20)
        assert report_bits(misspec_bound_check(inst, cls, kerns)) == \
            report_bits(reference_bound_check(inst, cls, kerns))
    strict = random_instance(rng, noise=noise)
    cls = shifted_class(strict, 0.5)
    assert report_bits(misspec_bound_check(strict, cls, [strict.kernel])) == \
        report_bits(reference_bound_check(strict, cls, [strict.kernel]))


@pytest.mark.parametrize("noise", [False, True])
def test_stacked_bound_check_matches_member_loop_past_32_contexts(noise):
    """Instances with 32 to 64 contexts, where BLAS ddot sums with its SIMD
    body and not only its scalar tail: every report field bit for bit."""
    rng = rng_stream(59, 5)
    wide = 0
    for _ in range(40):
        inst = random_instance(rng, max_contexts=64, noise=noise)
        cls = random_model_class(rng, inst)
        kerns = random_kernel(rng, inst.num_contexts, inst.num_actions, count=5)
        assert report_bits(misspec_bound_check(inst, cls, kerns)) == \
            report_bits(reference_bound_check(inst, cls, kerns))
        wide += inst.num_contexts >= 32
    assert wide >= 10


@pytest.mark.parametrize("n_ctx,K,count", [(1, 2, 1), (7, 3, 20), (64, 4, 3)])
def test_stacked_kernel_draw_equals_successive_single_draws(n_ctx, K, count):
    stacked_rng, single_rng = rng_stream(60, 5), rng_stream(60, 5)
    stack = random_kernel(stacked_rng, n_ctx, K, count=count)
    singles = [random_kernel(single_rng, n_ctx, K) for _ in range(count)]
    assert stack.shape == (count, n_ctx, K)
    assert stack.tobytes() == np.array(singles).tobytes()
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("size", [1, 8])
def test_stacked_class_draw_equals_successive_single_draws(size):
    stacked_rng, single_rng = rng_stream(61, 5), rng_stream(61, 5)
    inst = random_instance(stacked_rng)
    random_instance(single_rng)
    members = random_model_class(stacked_rng, inst, size=size)
    singles = [single_rng.uniform(-2.5, 2.5, inst.f_star.shape)
               for _ in range(size)]
    assert members.shape == (size, *inst.f_star.shape)
    assert members.tobytes() == np.array(singles).tobytes()
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("wrong", ["member", "kernel"])
def test_bound_check_rejects_a_table_of_the_wrong_shape(wrong):
    rng = rng_stream(62, 5)
    inst = random_instance(rng, noise=False)
    n_ctx, K = inst.f_star.shape
    cls, kerns = [inst.f_star + 1.0], [inst.kernel]
    if wrong == "member":
        cls.append(np.zeros((n_ctx, K + 1)))
    else:
        kerns.append(np.full((n_ctx, K + 1), 1.0 / (K + 1)))
    with pytest.raises(ValueError, match="inconsistent table shapes"):
        misspec_bound_check(inst, cls, kerns)


def test_bound_check_rejects_an_empty_class():
    rng = rng_stream(63, 5)
    inst = random_instance(rng, noise=False)
    with pytest.raises(ValueError, match="no members"):
        misspec_bound_check(inst, [], [inst.kernel])


def test_bound_check_rejects_a_kernel_off_the_simplex():
    rng = rng_stream(56, 5)
    inst = random_instance(rng, noise=False)
    cls = random_model_class(rng, inst)
    bad = inst.kernel.copy()
    bad[-1] *= 1.01
    with pytest.raises(ValueError, match="kernel rows"):
        misspec_bound_check(inst, cls, [inst.kernel, bad])


def test_exact_risk_matches_monte_carlo():
    rng = rng_stream(56, 5)
    inst = random_instance(rng, max_contexts=6, max_actions=3)
    g = rng.uniform(-2.0, 2.0, inst.f_star.shape)
    mu = rng.uniform(-1.0, 1.0, inst.num_contexts)
    exact = exact_rloss_risk(inst, g, mu)

    n = 1_000_000
    ctx = rng.choice(inst.num_contexts, size=n, p=inst.context_probs)
    u = rng.random(n)
    act = (u[:, None] >= np.cumsum(inst.kernel, axis=1)[ctx]).sum(axis=1)
    act = np.minimum(act, inst.num_actions - 1)
    sd = np.sqrt(inst.noise_var)[ctx, act]
    r = inst.f_star[ctx, act] + sd * np.sqrt(12.0) * (rng.random(n) - 0.5)
    contrast = g[ctx, act] - (inst.kernel[ctx] * g[ctx]).sum(axis=1)
    vals = (r - mu[ctx] - contrast) ** 2
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - exact) <= 3.0 * stderr


def test_mc_excess_risk_zero_cases():
    rng = rng_stream(57, 5)
    sampler = lambda r: r.standard_normal(3)
    g_star = lambda x: np.array([x[0], -x[0]])
    uniform = lambda x: np.array([0.5, 0.5])
    est, se = mc_excess_risk(sampler, uniform, g_star, g_star, 500, rng)
    assert est == 0.0 and se == 0.0
    # a deterministic kernel zeroes the contrast on-support for any model
    point = lambda x: np.array([1.0, 0.0])
    other = lambda x: np.array([x[0] + 2.0, x[1] - 1.0])
    est2, _ = mc_excess_risk(sampler, point, other, g_star, 500, rng)
    assert est2 == 0.0
    with pytest.raises(ValueError):
        mc_excess_risk(sampler, uniform, g_star, g_star, 0, rng)


def test_mc_excess_risk_matches_quadrature_on_linear_scenario():
    """Uniform logging of a zero model against the linear scenario: the
    excess risk has both a sphere-quadrature value and a closed form
    ||theta_1 - theta_2||^2 / (4 d).  All three must agree."""
    d = 5
    env = build_environment(EnvironmentSpec(scenario="lin_lin", d=d,
                                            num_actions=2, sigma=0.1,
                                            seed=77))
    diff = env.truth.thetas[0] - env.truth.thetas[1]
    closed = float(diff @ diff) / (4.0 * d)

    sobol = stats.qmc.Sobol(d, scramble=True, seed=11).random_base2(17)
    X = stats.norm.ppf(sobol)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    gaps = X @ diff
    quad = float(np.mean(gaps * gaps)) / 4.0
    assert quad == pytest.approx(closed, rel=2e-3)

    rng = rng_stream(58, 5)
    est, se = mc_excess_risk(lambda rng: _unit_sphere(rng, 1, d)[0],
                             lambda x: np.array([0.5, 0.5]),
                             lambda x: np.zeros(2),
                             lambda x: env.g_star(x[None])[0], 100_000, rng)
    assert abs(est - quad) <= 3.0 * se
