"""Per-layer spans over the modules of hte_bandit, and their metrics.

The layers are the package's modules.  ``LayerTrace.install`` wraps each
public boundary named in README.md; the hooks count what the calls return
(fits, flags, bytes written) and check every refit's inputs and outputs
against the benchmark's own formulas.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from typing import Dict, List

from hte_bandit import cli, config, core, environments, oracle, policy, runner, svg, validation

import checks
from tracing import Tracer
from workloads import CELLS

# metric -> (unit, span names whose self time it sums)
SELF_TIME = {
    "environments.sample_round_s": ("environments.sample_round",),
    "core.action_dist_s": ("core.action_dist",),
    "core.action_sample_s": ("core.action_sample",),
    "oracle.predict_s": ("oracle.predict",),
    "policy.igw_kernel_s": ("policy.igw_kernel",),
    "policy.act_self_s": ("policy.act",),
    "policy.record_self_s": ("policy.record",),
    "policy.monitor_check_s": ("policy.monitor_check",),
    "oracle.cross_fit_mu_s": ("oracle.cross_fit_mu",),
    "oracle.design_s": ("oracle.design",),
    "oracle.ridge_fit_self_s": ("oracle.ridge_fit",),
    "oracle.lasso_fit_self_s": ("oracle.lasso_fit",),
    "oracle.auto_lambda_s": ("oracle.auto_lambda",),
    "runner.run_single_self_s": ("runner.run_single",),
    "runner.write_csv_s": ("runner.write_csv",),
    "svg.write_chart_s": ("svg.write_chart",),
    "config.load_config_s": ("config.load_config",),
    "validation.misspec_bound_check_s": ("validation.misspec_bound_check",),
    "cli.kernel_check_self_s": ("cli.kernel_check",),
}
# metric -> span name whose calls it counts
CALLS = {
    "environments.rounds": "environments.sample_round",
    "policy.igw_kernel_calls": "policy.igw_kernel",
    "policy.monitor_checks": "policy.monitor_check",
}
# metrics counted by the hooks below
HOOK_COUNTS = {
    "policy.monitor_triggers": "count", "oracle.design_mb": "MB",
    "oracle.fits": "count", "oracle.lasso_unconverged": "count",
    "oracle.rank_deficient": "count", "oracle.nuisance_fallbacks": "count",
    "runner.csv_mb": "MB", "svg.mb": "MB",
}
CELL_RATES = [f"runner.rounds_per_s.{s}.{a}" for s, a in CELLS]
ROUND_LAYERS = ("environments.", "core.", "policy.", "runner.run_single")

UNITS: Dict[str, str] = {}
for _name in SELF_TIME:
    UNITS[_name] = "s"
for _name in CALLS:
    UNITS[_name] = "count"
UNITS.update(HOOK_COUNTS)
for _name in CELL_RATES:
    UNITS[_name] = "rounds/s"
UNITS.update({"trace.overhead_s": "s", "trace.oracle_share": "%",
              "trace.round_share": "%"})


class LayerTrace:
    def __init__(self):
        self.tracer = Tracer()
        self.counts: Dict[str, float] = defaultdict(float)
        self.breaches: List[str] = []
        self._design = None
        self._sig = {name: inspect.signature(getattr(oracle, name))
                     for name in ("fit_rloss", "fit_squared_error",
                                  "residualized_design", "chosen_design")}

    def install(self) -> None:
        t = self.tracer
        t.patch_method(environments.Environment, "sample_round", "environments.sample_round")
        t.patch_method(core.ActionDistribution, "__init__", "core.action_dist")
        t.patch_method(core.ActionDistribution, "sample", "core.action_sample")
        t.patch_method(oracle.LinearModel, "predict", "oracle.predict")
        t.patch_function(policy, "igw_kernel", "policy.igw_kernel")
        t.patch_method(policy.Policy, "act", "policy.act")
        t.patch_method(policy.Policy, "record", "policy.record")
        t.patch_method(policy.SafetyMonitor, "check", "policy.monitor_check")
        t.patch_function(oracle, "cross_fit_mu", "oracle.cross_fit_mu", self._cross_fit)
        t.patch_function(oracle, "residualized_design", "oracle.design",
                         self._design_hook("residualized_design"))
        t.patch_function(oracle, "chosen_design", "oracle.design",
                         self._design_hook("chosen_design"))
        t.patch_function(oracle, "fit_rloss", "oracle.ridge_fit",
                         self._ridge_hook("fit_rloss"))
        t.patch_function(oracle, "fit_squared_error", "oracle.ridge_fit",
                         self._ridge_hook("fit_squared_error"))
        t.patch_function(oracle, "fit_rloss_lasso", "oracle.lasso_fit", self._lasso)
        t.patch_function(oracle, "fit_squared_error_lasso", "oracle.lasso_fit", self._lasso)
        t.patch_function(oracle, "auto_lambda", "oracle.auto_lambda")
        t.patch_function(runner, "run_single", "runner.run_single", self._run_single)
        t.patch_function(runner, "write_run_csv", "runner.write_csv", self._file("runner.csv_mb"))
        t.patch_function(runner, "write_curve_csv", "runner.write_csv", self._file("runner.csv_mb"))
        t.patch_function(svg, "write_chart", "svg.write_chart", self._file("svg.mb"))
        t.patch_function(config, "load_config", "config.load_config")
        t.patch_function(validation, "misspec_bound_check", "validation.misspec_bound_check")
        t.patch_function(cli, "kernel_check", "cli.kernel_check")

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def drain_breaches(self) -> List[str]:
        found, self.breaches = self.breaches, []
        return found

    # -- hooks --------------------------------------------------------------

    def _bound(self, fn_name, args, kwargs):
        bound = self._sig[fn_name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _check(self, fn, *args) -> None:
        self.breaches += self.tracer.run_spanned("bench.check", fn, *args)

    def _cross_fit(self, args, kwargs, result) -> None:
        self.counts["oracle.nuisance_fallbacks"] += bool(result[0].fallback)

    def _design_hook(self, fn_name):
        def hook(args, kwargs, result):
            a = self._bound(fn_name, args, kwargs)
            Z, y = result
            self.counts["oracle.design_mb"] += Z.shape[0] * Z.shape[1] * 8 / 1e6
            self._design = (Z, y, a["feature_map"])
            if fn_name == "residualized_design":
                self._check(checks.residualized_rows, a["samples"], a["feature_map"], Z, y)
        return hook

    def _fit_done(self, model) -> tuple:
        self.counts["oracle.fits"] += 1
        self.counts["oracle.rank_deficient"] += bool(model.rank_deficient)
        design, self._design = self._design, None
        return design

    def _ridge_hook(self, fn_name):
        def hook(args, kwargs, model):
            Z, y, _ = self._fit_done(model)
            ridge = self._bound(fn_name, args, kwargs)["ridge"]
            self._check(checks.ridge_solution, Z, y, ridge, model.theta)
        return hook

    def _lasso(self, args, kwargs, model) -> None:
        Z, y, fmap = self._fit_done(model)
        if not model.converged:
            self.counts["oracle.lasso_unconverged"] += 1
            return
        self._check(checks.lasso_kkt, Z, y, model.theta, model.lam,
                    fmap.intercept_indices())

    def _run_single(self, args, kwargs, result) -> None:
        self.counts["policy.monitor_triggers"] += bool(result.triggered)

    def _file(self, metric):
        def hook(args, kwargs, result):
            self.counts[metric] += os.path.getsize(args[0]) / 1e6
        return hook

    # -- metrics --------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float,
                cell_rates: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric; layers a workload never enters read 0."""
        totals = self.tracer.totals()
        self_of = lambda name: totals.get(name, (0.0, 0.0, 0))[0]
        bench = sum(v[1] for k, v in totals.items() if k.startswith("bench."))
        wall = traced_wall - bench
        out = {m: sum(self_of(s) for s in spans) for m, spans in SELF_TIME.items()}
        out.update({m: float(totals.get(s, (0.0, 0.0, 0))[2]) for m, s in CALLS.items()})
        out.update({m: float(self.counts.get(m, 0.0)) for m in HOOK_COUNTS})
        out.update({m: float(cell_rates.get(m, 0.0)) for m in CELL_RATES})
        oracle_s = sum(v[0] for k, v in totals.items() if k.startswith("oracle."))
        round_s = sum(v[0] for k, v in totals.items() if k.startswith(ROUND_LAYERS))
        out["trace.overhead_s"] = wall - untraced_wall
        out["trace.oracle_share"] = 100.0 * oracle_s / wall if wall > 0 else 0.0
        out["trace.round_share"] = 100.0 * round_s / wall if wall > 0 else 0.0
        return out
