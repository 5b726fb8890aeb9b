"""The three workloads: their inputs from the seed, their operations, their checks.

An operation is one call into the package's public entry points
(``run_experiment`` or ``cli.main``).  Every pass of a workload runs the
same operations in the same order.  Building a workload from its seed is
also what the set-up measurement times in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from hte_bandit import cli
from hte_bandit.config import RunConfig, load_config
from hte_bandit.environments import build_environment
from hte_bandit.runner import run_experiment

import checks

# tests/test_acceptance.py: the 9-cell grid at the acceptance settings.
ACCEPTANCE_SEEDS = tuple(range(101, 111))
DESK = dict(d=20, num_actions=2, sigma=0.1, horizon=5000,
            schedule_kind="doubling", schedule_base=128,
            delta=0.05, n_min=32, ridge_scale=1e-6, num_folds=2,
            rate_const=0.01, lasso_const=1.5)
CELLS = (("lin_lin", "hte_igw"), ("lin_lin", "igw"),
         ("lin_const", "mod_hte_igw"), ("lin_const", "mod_igw"),
         ("step_lin", "hte_igw"), ("step_lin", "igw"), ("step_lin", "uniform"),
         ("perturbed", "mod_hte_igw"), ("perturbed", "mod_igw"))
DESK_SEEDS_PER_CELL = 2
# (scenario, R-loss cell, squared-error cell): the paper's orderings.
ORDERINGS = (("step_lin", "hte_igw", "igw"),
             ("lin_const", "mod_hte_igw", "mod_igw"),
             ("perturbed", "mod_hte_igw", "mod_igw"))

# Wide contexts: p = K (d + 1) = 1608 coefficients per refit.
WIDE = dict(scenario="lin_const", d=200, num_actions=8, sigma=0.1,
            schedule_kind="fixed_length", schedule_base=3000, delta=0.05,
            n_min=32, ridge_scale=1e-6, num_folds=2, rate_const=0.01,
            lasso_const=1.5)
WIDE_EPOCHS = 2
WIDE_ALGORITHMS = ("hte_igw", "mod_hte_igw", "mod_igw")

# The nonstationary drift makes hte_igw's monitor trigger near t = 5500;
# it did so on every seed in 1..30 when this workload was chosen.
CLI_SEED_POOL = tuple(range(1, 31))
CLI_SEEDS_PER_RUN = 2
CLI_ALGORITHMS = ("hte_igw", "igw", "uniform")
CLI_HORIZON = 8000
CLI_SETTINGS = ("env.scenario=nonstationary", "env.amplitude=1.0",
                "env.period=8000", f"env.horizon={CLI_HORIZON}")


@dataclass
class Op:
    name: str
    run: Callable[[Path], object]            # out_dir -> result
    check: Callable[[object, Path], List[str]]
    rounds: Callable[[object], int]


@dataclass
class Workload:
    name: str
    workers: int                             # HTE_BANDIT_THREADS in timed passes
    ops: List[Op]
    cross_check: Callable[[Dict[str, object]], Dict[str, List[str]]] = (
        lambda results: {})
    info: Dict[str, object] = field(default_factory=dict)


def _experiment_op(name: str, cfg: RunConfig, refits: Optional[int] = None) -> Op:
    uniform = cfg.algorithm == "uniform"

    def check(res, out_dir):
        found = []
        for r in res.results:
            label = f"{name}/seed {r.seed}"
            found += checks.run_result(label, r, cfg.num_actions, uniform,
                                       cfg.horizon)
            if refits is not None and len(r.fits) != refits:
                found.append(f"{label}: {len(r.fits)} refits, expected {refits}")
        return found

    return Op(name, lambda out_dir: run_experiment(cfg, write=False), check,
              lambda res: sum(r.t.size for r in res.results))


def desk_grid(seed: int) -> Workload:
    seeds = tuple(sorted(random.Random(seed).sample(ACCEPTANCE_SEEDS,
                                                    DESK_SEEDS_PER_CELL)))
    ops = []
    for scenario, algo in CELLS:
        cfg = RunConfig(scenario=scenario, algorithm=algo, seeds=seeds,
                        **DESK).validate()
        for s in seeds:
            build_environment(cfg.env_spec(s))
        ops.append(_experiment_op(f"{scenario}.{algo}", cfg))

    def orderings(results):
        found = {}
        for scenario, rloss, squared in ORDERINGS:
            a = results.get(f"{scenario}.{rloss}")
            b = results.get(f"{scenario}.{squared}")
            if a is None or b is None or isinstance(a, Exception) or isinstance(b, Exception):
                continue
            fa, fb = a.curve.final_mean(), b.curve.final_mean()
            if not fa < fb:
                found[f"{scenario}.{rloss}"] = [
                    f"{scenario}: R-loss final regret {fa:.1f} not below "
                    f"squared-error {fb:.1f}"]
        return found

    return Workload("desk_grid", 1, ops, orderings, {"seeds": seeds})


def wide_refit(seed: int) -> Workload:
    run_seed = random.Random(seed).randrange(1, 1_000_000)
    horizon = WIDE["schedule_base"] * WIDE_EPOCHS + 1
    ops = []
    for algo in WIDE_ALGORITHMS:
        cfg = RunConfig(algorithm=algo, horizon=horizon, seeds=(run_seed,),
                        **WIDE).validate()
        build_environment(cfg.env_spec(run_seed))
        ops.append(_experiment_op(f"wide.{algo}", cfg, refits=WIDE_EPOCHS))
    return Workload("wide_refit", 1, ops, info={"seeds": (run_seed,),
                                                "horizon": horizon})


def _cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_session(seed: int) -> Workload:
    seeds = tuple(sorted(random.Random(seed).sample(CLI_SEED_POOL,
                                                    CLI_SEEDS_PER_RUN)))
    settings = list(CLI_SETTINGS) + [f"run.seeds={','.join(map(str, seeds))}"]
    cfg = load_config(None, settings)
    for s in seeds:
        build_environment(cfg.env_spec(s))

    def compare_argv(out_dir: Path) -> List[str]:
        argv = ["compare", "--algos", ",".join(CLI_ALGORITHMS)]
        for s in settings + [f"run.output_dir={out_dir}"]:
            argv += ["--set", s]
        return argv

    def check_compare(res, out_dir):
        rc, _ = res
        if rc != 0:
            return [f"compare exited with {rc}"]
        return checks.compare_artifacts(out_dir, CLI_ALGORITHMS, seeds,
                                        CLI_HORIZON, cfg.num_actions,
                                        must_trigger=("hte_igw",))

    def check_validate(res, out_dir):
        rc, text = res
        if rc != 0 or "4/4 checks passed" not in text:
            return [f"validate exited with {rc}: {text.strip()[-200:]}"]
        return []

    ops = [Op("compare", lambda out_dir: _cli(compare_argv(out_dir)), check_compare,
              lambda res: len(CLI_ALGORITHMS) * len(seeds) * CLI_HORIZON
              if res[0] == 0 else 0),
           Op("validate", lambda out_dir: _cli(["validate"]), check_validate,
              lambda res: 0)]
    return Workload("cli_session", 2, ops, info={"seeds": seeds})


WORKLOADS = {"desk_grid": desk_grid, "wide_refit": wide_refit,
             "cli_session": cli_session}
