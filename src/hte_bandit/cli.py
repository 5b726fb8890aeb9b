"""Command-line interface: run / compare / validate.

Exit codes: 0 success, 1 validation check failure, 2 configuration error,
143 when stopped by SIGTERM during run or compare.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from typing import List, Optional, Tuple

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .core import STREAM_VALIDATION, rng_stream, row_max, row_min
from .policy import igw_kernel
from .runner import compare, implicit_regret_sweep, run_experiment
from .validation import (BOUND_TOL, IDENTITY_TOL, excess_risk_identity_gap,
                         misspec_bound_check, random_instance, random_kernel,
                         random_model_class, shifted_class)

Check = Tuple[str, bool, str]


def identity_check(seed: int = 0, instances: int = 50,
                   tol: float = IDENTITY_TOL) -> Check:
    """Excess R-loss risk must match the gap identity and ignore the
    nuisance table, to float precision, on random finite instances."""
    rng = rng_stream(seed, STREAM_VALIDATION)
    worst = 0.0
    for _ in range(instances):
        inst = random_instance(rng)
        g = rng.uniform(-2.5, 2.5, inst.f_star.shape)
        mu_a = rng.uniform(-2.0, 2.0, inst.num_contexts)
        mu_b = rng.uniform(-2.0, 2.0, inst.num_contexts)
        worst = max(worst, excess_risk_identity_gap(inst, g, mu_a, mu_b))
    return ("excess-risk identity", worst <= tol,
            f"max deviation {worst:.3e} over {instances} instances")


def bound_check(seed: int = 1, instances: int = 100, kernels: int = 20,
                strict_margin: float = 0.1) -> Check:
    """Best-in-class excess R-loss risk never exceeds best-in-class squared
    error, and the shifted-class construction keeps a strict gap."""
    rng = rng_stream(seed, STREAM_VALIDATION)
    ok = True
    checked = 0
    for _ in range(instances):
        inst = random_instance(rng, noise=False)
        cls = random_model_class(rng, inst)
        kerns = random_kernel(rng, inst.num_contexts, inst.num_actions,
                              count=kernels)
        rep = misspec_bound_check(inst, cls, kerns)
        ok = ok and rep.holds
        checked += kernels
    strict = random_instance(rng, noise=False)
    srep = misspec_bound_check(strict, shifted_class(strict, 0.5),
                               [strict.kernel])
    strict_ok = (srep.holds and srep.best_excess <= BOUND_TOL
                 and srep.best_squared >= strict_margin)
    return ("misspecification bound", ok and strict_ok,
            f"{checked} kernel cases, strict gap {srep.best_squared:.3f}")


def kernel_check(seed: int = 2, draws: int = 100_000) -> Check:
    """Inverse-gap kernel validity: simplex membership, leader mass,
    and the per-action floor 1/(K + gamma * max_gap).  Each chunk of draws
    is checked per K as one (n, K) block, with one gamma per row: its rows
    are selected once, and the row maxima and minima of scores and kernel
    are core.row_max and row_min."""
    rng = rng_stream(seed, STREAM_VALIDATION)
    ok = True
    chunk = 10_000   # draws held at once; draw i scores with row i's first K
    for start in range(0, draws, chunk):
        n = min(chunk, draws - start)
        ks = rng.integers(2, 7, size=n)
        normals = rng.standard_normal((n, 6))
        exponents = 9.0 * rng.random(n)
        for K in range(2, 7):
            rows = np.flatnonzero(ks == K)
            scores = 3.0 * normals[rows, :K]
            gamma = np.exp(exponents[rows])
            p = igw_kernel(scores, gamma)
            lead = p[np.arange(len(rows)), scores.argmax(axis=1)]
            floor = 1.0 / (K + gamma * (row_max(scores) - row_min(scores)))
            ok = ok and bool(np.all((np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
                                    & (lead >= 1.0 / K - 1e-15)
                                    & (lead == row_max(p))
                                    & (row_min(p) >= floor - 1e-15)))
    return ("kernel validity sweep", ok, f"{draws} random (scores, gamma) draws")


def implicit_regret_check(seed: int = 3, tol: float = 1e-12) -> Check:
    """Per-round implicit regret of the deployed kernel stays below K/gamma
    over a full realizable run."""
    cfg = RunConfig(scenario="lin_lin", d=10, horizon=2000, algorithm="hte_igw",
                    schedule_kind="doubling", schedule_base=16,
                    rate_const=0.01, seeds=(seed,))
    worst = implicit_regret_sweep(cfg, seed)
    return ("implicit regret bound", worst <= tol,
            f"max slack {worst:.3e} over 2000 rounds")


def validation_checks(seed: int = 0) -> List[Check]:
    return [identity_check(seed), bound_check(seed + 1),
            kernel_check(seed + 2), implicit_regret_check(seed + 3)]


# -- entry point --------------------------------------------------------------

def _seed(text: str) -> int:
    """A validation seed: a nonnegative integer, as SeedSequence requires."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hte-bandit",
                                description="Contextual bandit simulation harness")
    sub = p.add_subparsers(dest="command", required=True)

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", help="key=value config file")
    configured.add_argument("--set", dest="overrides", action="append", default=[],
                            metavar="SECTION.KEY=VALUE", help="override a config entry")

    sub.add_parser("run", parents=[configured],
                   help="run one algorithm over the seed list")
    cmp_p = sub.add_parser("compare", parents=[configured],
                           help="paired runs of several algorithms")
    cmp_p.add_argument("--algos", required=True,
                       help="comma-separated algorithm list")

    val_p = sub.add_parser("validate", help="run the structural check suite")
    val_p.add_argument("--seed", type=_seed, default=0)
    return p


def _exit_on_sigterm(signum, frame):
    # Later SIGTERMs are ignored, so that they cannot cut the cleanup short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _sigterm_as_exit():
    """SIGTERM raises SystemExit(143) in the main thread while the block
    runs, so that the runner's cleanup on exceptions runs: pending jobs are
    cancelled and no .part file is left.  Off the main thread, where no
    handler can be set, SIGTERM keeps its disposition."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            checks = validation_checks(args.seed)
            failed = 0
            for name, ok, stat in checks:
                print(f"{'PASS' if ok else 'FAIL'}  {name}: {stat}")
                failed += 0 if ok else 1
            print(f"{len(checks) - failed}/{len(checks)} checks passed")
            return 0 if failed == 0 else 1
        cfg = load_config(args.config, args.overrides)
        if args.command == "run":
            with _sigterm_as_exit():
                final = run_experiment(cfg).curve.final_mean()
            print(f"{cfg.algorithm} on {cfg.scenario}: "
                  f"final mean cumulative regret {final:.3f} "
                  f"({len(cfg.seeds)} seeds, T={cfg.horizon})")
        else:
            algos = [a.strip() for a in args.algos.split(",") if a.strip()]
            with _sigterm_as_exit():
                results = compare(cfg, algos)
            base = results[algos[0]].curve.final_mean()
            for a in algos:
                final = results[a].curve.final_mean()
                ratio = final / base if base else float("nan")
                print(f"{a:>12}: final regret {final:9.3f}  ratio {ratio:.3f}")
        print(f"artifacts written to {cfg.output_dir}/")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
