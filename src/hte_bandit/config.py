"""Run configuration: flat key=value files with [section] headers.

Sections mirror the modules: [env], [schedule], [oracle], [policy], [run].
Command-line overrides use dotted keys, e.g. --set policy.algorithm=igw.
Anything malformed raises ConfigError, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple, get_type_hints

import numpy as np

from .core import DOUBLING, EpochSchedule
from .environments import (DEFAULT_REWARD_RANGE, EnvironmentSpec, build_environment,
                           reward_bounds)
from .policy import Policy


class ConfigError(Exception):
    pass


def _key(section: str, default):
    """A RunConfig field set by the key section.<name>, where name is the
    field name less its "schedule_" prefix."""
    return field(default=default, metadata={"section": section})


@dataclass
class RunConfig:
    scenario: str = _key("env", "lin_lin")
    d: int = _key("env", 20)
    num_actions: int = _key("env", 2)
    sigma: float = _key("env", 0.1)
    horizon: int = _key("env", 5000)
    amplitude: float = _key("env", 0.5)
    period: float = _key("env", 500.0)

    schedule_kind: str = _key("schedule", DOUBLING)
    schedule_base: int = _key("schedule", 1)
    schedule_boundaries: Tuple[int, ...] = _key("schedule", ())

    algorithm: str = _key("policy", "hte_igw")
    delta: float = _key("policy", 0.05)
    n_min: int = _key("policy", 32)
    r_lo: Optional[float] = _key("policy", None)
    r_hi: Optional[float] = _key("policy", None)

    ridge_scale: float = _key("oracle", 1e-6)
    num_folds: int = _key("oracle", 2)
    rate_const: float = _key("oracle", 1.0)
    lasso_const: float = _key("oracle", 1.0)

    seeds: Tuple[int, ...] = _key("run", tuple(range(1, 11)))
    output_dir: str = _key("run", "out")

    def schedule(self) -> EpochSchedule:
        return EpochSchedule(self.schedule_kind, base=self.schedule_base,
                             boundaries=self.schedule_boundaries)

    def reward_range(self) -> Tuple[float, float]:
        lo, hi = DEFAULT_REWARD_RANGE[self.scenario]
        if self.r_lo is not None:
            lo = self.r_lo
        if self.r_hi is not None:
            hi = self.r_hi
        return (lo, hi)

    def env_spec(self, seed: int) -> EnvironmentSpec:
        return EnvironmentSpec(scenario=self.scenario, d=self.d,
                               num_actions=self.num_actions, sigma=self.sigma,
                               seed=seed, amplitude=self.amplitude,
                               period=self.period)

    def policy(self, seed: int) -> Policy:
        return Policy(self.algorithm, self.d, self.num_actions, self.schedule(),
                      self.delta, seed=seed, ridge_scale=self.ridge_scale,
                      num_folds=self.num_folds, rate_const=self.rate_const,
                      lasso_const=self.lasso_const, n_min=self.n_min,
                      reward_range=self.reward_range())

    def validate(self) -> "RunConfig":
        """Build what a run builds, so their checks apply; then check the run."""
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be nonnegative")
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        if self.horizon < 0:
            raise ConfigError("horizon must be nonnegative")
        try:
            spec = self.env_spec(self.seeds[0])
            # Round horizon has the largest drift angle of the run; an angle
            # that overflows raises ValueError, so numpy need not warn too.
            with np.errstate(over="ignore"):
                build_environment(spec).mean_rewards(np.zeros((1, self.d)), self.horizon)
            self.policy(self.seeds[0]).check_horizon(self.horizon)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        lo, hi = self.reward_range()
        env_lo, env_hi = reward_bounds(spec)
        if not (lo <= env_lo and env_hi <= hi):
            raise ConfigError(f"reward range {(lo, hi)} must contain {(env_lo, env_hi)}")
        return self


_FIELD_NAME = {(f.metadata["section"], f.name.removeprefix("schedule_")): f.name
               for f in fields(RunConfig)}

# A key's type is the annotation of the RunConfig field it sets.
_TYPES = get_type_hints(RunConfig)


def _convert(section: str, key: str, raw: str):
    name = _FIELD_NAME.get((section, key))
    if name is None:
        raise ConfigError(f"unknown key {section}.{key}")
    typ = _TYPES[name]
    raw = raw.strip()
    try:
        if typ == Tuple[int, ...]:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if typ == Optional[float]:
            return float(raw)
        return typ(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from e


def parse_overrides(pairs: List[str]) -> Dict[Tuple[str, str], str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        if "." not in key:
            raise ConfigError(f"override key {key!r} must be section.key")
        section, name = key.split(".", 1)
        out[(section.strip(), name.strip())] = value
    return out


def load_config(path: Optional[str] = None,
                overrides: Optional[List[str]] = None) -> RunConfig:
    cfg = RunConfig()
    items: Dict[Tuple[str, str], str] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except configparser.Error as e:
            raise ConfigError(f"malformed config {path}: {e}") from e
        for section in parser.sections():
            for key, raw in parser.items(section):
                items[(section, key)] = raw
    if overrides:
        items.update(parse_overrides(overrides))
    for (section, key), raw in items.items():
        value = _convert(section, key, raw)
        setattr(cfg, _FIELD_NAME[(section, key)], value)
    return cfg.validate()
