"""Config parsing, CSV/SVG emission, and the command-line entry points."""

import contextlib
import filecmp
import io
import math
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hte_bandit import cli, config
from hte_bandit.config import ConfigError, RunConfig, load_config
from hte_bandit.core import DOUBLING, EXPLICIT, FIXED_LENGTH, STREAM_VALIDATION, rng_stream
from hte_bandit.environments import SCENARIOS, build_environment
from hte_bandit.policy import ALGORITHMS
from hte_bandit.runner import CURVE_HEADER, RUN_HEADER, run_experiment
from hte_bandit.validation import (BOUND_TOL, BoundReport, _rloss_terms, _squared_terms,
                                   gap_identity_value, random_instance, shifted_class)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_default_config_roundtrip():
    cfg = load_config()
    assert cfg == RunConfig()
    assert cfg.reward_range() == (-0.5, 2.5)
    assert cfg.schedule().epoch_of(1) == 1


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[env]\nscenario = step_lin\nd = 7\nhorizon = 123\n"
        "[schedule]\nkind = explicit_list\nboundaries = 50, 123\n"
        "[policy]\nalgorithm = uniform\nr_lo = -3.0\nr_hi = 3.0\n"
        "[run]\nseeds = 5, 6\noutput_dir = artifacts\n",
        encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.scenario == "step_lin" and cfg.d == 7 and cfg.horizon == 123
    assert cfg.schedule_boundaries == (50, 123)
    assert cfg.algorithm == "uniform"
    assert cfg.reward_range() == (-3.0, 3.0)
    assert cfg.seeds == (5, 6) and cfg.output_dir == "artifacts"
    # command-line overrides beat the file
    cfg2 = load_config(str(path), ["env.scenario=lin_lin", "env.d=4",
                                   "schedule.kind=doubling", "schedule.base=8",
                                   "run.seeds=9"])
    assert cfg2.scenario == "lin_lin" and cfg2.d == 4 and cfg2.seeds == (9,)


@pytest.mark.parametrize("overrides", [
    ["env.scenario=bogus"],
    ["policy.algorithm=thompson"],
    ["env.d=abc"],
    ["env.bogus=1"],
    ["nosuchsection.key=1"],
    ["missingdot=1"],
    ["notkeyvalue"],
    ["env.horizon=-5"],
    ["schedule.kind=explicit_list", "schedule.boundaries=10,20"],  # horizon 5000
    ["run.seeds=1,1"],
    ["policy.delta=1.5"],
    ["policy.r_lo=2.0", "policy.r_hi=-2.0"],
    ["oracle.rate_const=0"],
    ["oracle.ridge_scale=-1"],
    ["policy.n_min=0"],
    ["env.sigma=-1"],
    ["env.scenario=nonstationary", "env.period=0"],
    ["oracle.num_folds=1"],
    ["policy.algorithm=mod_igw", "oracle.lasso_const=-1"],
    ["env.sigma=2"],                          # rewards leave (-0.5, 2.5)
    ["policy.r_lo=-inf"],
    ["run.seeds=-1"],
    ["run.seeds=1,-2"],                       # a run builds only seeds[0] to validate
    ["run.output_dir="],                      # as from an unset shell variable
    ["oracle.rate_const=1e-306", "policy.algorithm=mod_hte_igw"],  # gamma overflows
    ["oracle.rate_const=5e-324"],             # the rate bound underflows to 0
    ["policy.delta=5e-322"],                  # delta' / m^2 underflows by the last epoch
    ["env.scenario=nonstationary", "env.period=1e-310", "env.horizon=50"],  # drift angle overflows
    ["policy.algorithm=uniform", "schedule.kind=explicit_list", "schedule.boundaries=10,20"],
    ["env.scenario=nonstationary", "policy.delta=1e-310", "env.horizon=3000"],  # monitor term overflows
    ["env.scenario=nonstationary", "policy.r_hi=6.972533046852865e+307",
     "env.horizon=3000"],                     # monitor bounds overflow
])
def test_bad_config_raises(overrides):
    with pytest.raises(ConfigError):
        load_config(None, overrides)


def test_uniform_loads_at_any_positive_rate_const():
    """uniform never refits, so no rate_const is too small for it."""
    cfg = load_config(None, ["policy.algorithm=uniform", "oracle.rate_const=5e-324"])
    assert cfg.rate_const == 5e-324


# A valid non-default value for the key of each RunConfig field.
NON_DEFAULT = {
    "scenario": "lin_const", "d": "5", "num_actions": "3", "sigma": "0.2",
    "horizon": "100", "amplitude": "0.25", "period": "100.0",
    "schedule_kind": "fixed_length", "schedule_base": "16",
    "schedule_boundaries": "10,20",
    "algorithm": "igw", "delta": "0.1", "n_min": "8", "r_lo": "-1.0", "r_hi": "5.0",
    "ridge_scale": "1e-5", "num_folds": "3", "rate_const": "0.5",
    "lasso_const": "2.0", "seeds": "3,4", "output_dir": "elsewhere",
}


@pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
def test_each_field_is_set_by_its_one_key(f):
    keys = [f"{section}.{key}" for (section, key), name in config._FIELD_NAME.items()
            if name == f.name]
    assert len(keys) == 1
    cfg = load_config(None, [f"{keys[0]}={NON_DEFAULT[f.name]}"])
    assert getattr(cfg, f.name) != getattr(RunConfig(), f.name)
    assert cfg == replace(RunConfig(), **{f.name: getattr(cfg, f.name)})


# -- the load-time promise ---------------------------------------------------------
# A config that passes load_config either runs to completion or is rejected
# at load time with exit code 2.  Each draw starts from a small run (BASE:
# at most 300 rounds, one seed) and sets a few keys, drawn from
# fields(RunConfig) by type, to values that favour the boundaries.

BASE = {"d": 3, "horizon": 300, "seeds": (1,)}
BOUNDARY_INTS = (-1, 0, 1, 2, 3, 32, 33, 300, 2 ** 63)
BOUNDARY_FLOATS = (-math.inf, -1e308, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-6, 0.5, 1.0,
                   2.0, 1e6, 1e300, 1e308, math.inf, math.nan)
INT_CAPS = {"d": 4, "num_actions": 3, "horizon": 300}   # a run's memory and time
CHOICES = {"scenario": SCENARIOS, "schedule_kind": (DOUBLING, FIXED_LENGTH, EXPLICIT),
           "output_dir": ("", "out")}


def _ints(cap):
    return st.one_of(st.sampled_from([v for v in BOUNDARY_INTS if v <= cap]),
                     st.integers(-1, cap))


_FLOATS = st.one_of(st.sampled_from(BOUNDARY_FLOATS), st.floats())
_VALUES = {
    int: lambda name: _ints(INT_CAPS.get(name, 2 ** 63)),
    float: lambda name: _FLOATS,
    Optional[float]: lambda name: _FLOATS,
    Tuple[int, ...]: lambda name: (
        st.sampled_from(((), (-1,), (0,), (1,), (2 ** 63,))) if name == "seeds" else
        st.one_of(st.lists(_ints(301), max_size=4),
                  st.sets(_ints(301), max_size=4).map(sorted)).map(tuple)),
    str: lambda name: st.sampled_from(CHOICES[name] + ("bogus",)),
}
_KEYS = {f.name: f"{f.metadata['section']}.{f.name.removeprefix('schedule_')}"
         for f in fields(RunConfig)}


def _text(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def config_overrides(draw, algorithm, out_dir):
    """--set overrides of BASE with up to five other keys drawn; the policy
    key is fixed to algorithm, and a non-empty output_dir lands in out_dir."""
    changed = {name: draw(_VALUES[config._TYPES[name]](name))
               for name in draw(st.sets(st.sampled_from(sorted(set(_KEYS) - {"algorithm"})),
                                        max_size=5))}
    values = {**BASE, **changed, "algorithm": algorithm}
    if values.get("output_dir", "out"):
        values["output_dir"] = str(out_dir / values.get("output_dir", "out"))
    return [f"{_KEYS[name]}={_text(v)}" for name, v in values.items()]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_loaded_config_runs_or_is_rejected_with_exit_2(algorithm, data, tmp_path_factory):
    """load_config either raises ConfigError, and the CLI exits 2 with
    nothing written, or run_experiment completes with a finite regret curve
    and the CLI exits 0."""
    root = tmp_path_factory.mktemp("promise")
    overrides = data.draw(config_overrides(algorithm, root))
    try:
        cfg = load_config(None, overrides)
    except ConfigError:
        cfg = None
    event("rejected" if cfg is None else "loaded")
    if cfg is not None:
        curve = run_experiment(cfg, write=False).curve
        assert np.isfinite(curve.mean).all() and np.isfinite(curve.std).all()
    argv = ["run"] + [arg for o in overrides for arg in ("--set", o)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if cfg is None:
        assert code == 2 and not any(root.iterdir())
    else:
        assert code == 0


def test_a_reward_range_near_the_float_limit_runs_to_completion():
    """With more folds than rows the nuisance falls back to the reward
    range's midpoint, here about 2e307, and the early R-loss fits
    overflow; they are not deployed, so the run completes."""
    cfg = load_config(None, ["env.d=3", "env.horizon=300", "run.seeds=1",
                             "policy.r_hi=4e307", "oracle.num_folds=32",
                             "policy.algorithm=hte_igw"])
    with np.errstate(all="ignore"):
        res = run_experiment(cfg, write=False)
        norms = [2.0 * float(np.abs(f.model.theta).sum()) for f in res.results[0].fits]
    assert np.isfinite(res.curve.mean).all()
    assert not all(map(math.isfinite, norms))


def test_cli_maps_config_error_to_exit_2(capsys):
    code = cli.main(["run", "--set", "env.scenario=bogus"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("threads,args", [
    ("abc", ["run"]),
    (None, ["compare", "--algos", "uniform,thompson"]),
    (None, ["compare", "--algos", "igw", "--set", "run.seeds=-1"]),
    (None, ["compare", "--algos", "igw,uniform,igw"]),
    (None, ["run", "--set", "env.scenario=nonstationary",
            "--set", "policy.r_hi=6.972533046852865e+307"]),  # monitor bounds overflow
])
def test_cli_rejects_before_writing(tmp_path, monkeypatch, capsys, threads, args):
    if threads is not None:
        monkeypatch.setenv("HTE_BANDIT_THREADS", threads)
    out = tmp_path / "out"
    code = cli.main(args + ["--set", "env.horizon=50", "--set", "env.d=3",
                            "--set", f"run.output_dir={out}"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["run", "--set", "run.seeds="], "at least one seed required"),
    (["compare", "--algos", ","], "empty algorithm list"),
    (["run", "--config", "{missing}"], "cannot read config"),
    (["run", "--config", "{headless}"], "malformed config"),
])
def test_cli_config_errors_exit_2_without_output(tmp_path, capsys, args, message):
    headless = tmp_path / "headless.cfg"
    headless.write_text("horizon = 50\n", encoding="utf-8")   # no [section] line
    args = [a.format(missing=tmp_path / "missing.cfg", headless=headless) for a in args]
    out = tmp_path / "out"
    assert cli.main(args + ["--set", f"run.output_dir={out}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run"],
    ["compare", "--algos", "uniform,igw"],
])
def test_uncreatable_output_dir_is_a_config_error(tmp_path, capsys, args):
    """An output directory under a regular file is reported before any seed
    runs: exit 2 and one config-error line, not a traceback afterwards."""
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    code = cli.main(args + ["--set", "policy.algorithm=uniform",
                            "--set", "env.horizon=50", "--set", "run.seeds=1",
                            "--set", f"run.output_dir={blocker / 'sub'}"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert blocker.read_text(encoding="utf-8") == ""


def uniform_args(out_dir, horizon=50, seeds="1,2", d=4):
    return ["run",
            "--set", "policy.algorithm=uniform",
            "--set", f"env.horizon={horizon}",
            "--set", f"env.d={d}",
            "--set", f"run.seeds={seeds}",
            "--set", f"run.output_dir={out_dir}"]


def test_run_artifacts_and_aggregation(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(uniform_args(out)) == 0
    assert "final mean cumulative regret" in capsys.readouterr().out

    per_seed = []
    for seed in (1, 2):
        header, rows = read_rows(out / f"run_{seed}.csv")
        assert header == RUN_HEADER
        assert len(rows) == 50
        assert [int(r[0]) for r in rows] == list(range(1, 51))
        cum = np.array([float(r[8]) for r in rows])
        step = np.array([float(r[7]) for r in rows])
        np.testing.assert_allclose(np.diff(cum), step[1:], atol=1e-12)
        assert np.all(step >= 0.0)
        # uniform never leaves epoch-1 uniform play
        assert all(float(r[3]) == 1.0 and int(r[2]) == 1 for r in rows)
        per_seed.append(cum)

    header, rows = read_rows(out / "curve.csv")
    assert header == CURVE_HEADER
    assert len(rows) == 50
    mean = np.array([float(r[1]) for r in rows])
    std = np.array([float(r[2]) for r in rows])
    stacked = np.stack(per_seed)
    np.testing.assert_allclose(mean, stacked.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(std, stacked.std(axis=0), atol=1e-9)

    root = ET.parse(out / "curve.svg").getroot()
    assert root.tag.endswith("svg")


def test_zero_horizon_writes_headers_only(tmp_path):
    out = tmp_path / "empty"
    assert cli.main(uniform_args(out, horizon=0, seeds="1")) == 0
    assert (out / "run_1.csv").read_text(encoding="utf-8") == RUN_HEADER + "\n"
    assert (out / "curve.csv").read_text(encoding="utf-8") == CURVE_HEADER + "\n"


def hte_args(out_dir):
    return ["run",
            "--set", "policy.algorithm=hte_igw",
            "--set", "env.horizon=80", "--set", "env.d=3",
            "--set", "schedule.base=16",
            "--set", "oracle.rate_const=0.01",
            "--set", "run.seeds=1,2",
            "--set", f"run.output_dir={out_dir}"]


def test_repeat_invocations_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(hte_args(a)) == 0
    assert cli.main(hte_args(b)) == 0
    for name in ("run_1.csv", "run_2.csv", "curve.csv", "curve.svg"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_worker_count_does_not_change_artifacts(tmp_path, monkeypatch):
    for threads in ("1", "2"):
        monkeypatch.setenv("HTE_BANDIT_THREADS", threads)
        assert cli.main(hte_args(tmp_path / threads)) == 0
    for name in ("run_1.csv", "run_2.csv", "curve.csv"):
        assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name,
                           shallow=False), name


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A wide lin_const run writes the same run_7.csv with the three BLAS
    thread variables unset as with them set to 1, since the package pins
    one thread itself.  Its fits round differently on more than one BLAS
    thread, so this test can only fail on a multi-core host."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(cli.__file__).resolve().parents[1])
    sets = ["env.scenario=lin_const", "env.d=200", "env.num_actions=8",
            "schedule.kind=fixed_length", "schedule.base=3000", "env.horizon=6001",
            "run.seeds=7", "oracle.rate_const=0.01"]
    for name, pin in (("unset", {}), ("pinned", dict.fromkeys(blas, "1"))):
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env.update(pin, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        args = [a for kv in sets + [f"run.output_dir={tmp_path / name}"]
                for a in ("--set", kv)]
        subprocess.run([sys.executable, "-m", "hte_bandit.cli", "run", *args],
                       env=env, check=True, capture_output=True)
    assert filecmp.cmp(tmp_path / "unset" / "run_7.csv",
                       tmp_path / "pinned" / "run_7.csv", shallow=False)


def test_a_run_never_imports_scipy():
    """numpy is the only runtime dependency: importing the package and a
    300-round mod_igw run, whose lasso refits take the Cholesky pilot, leave
    scipy out of sys.modules."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\n"
            "import hte_bandit\n"
            "from hte_bandit.config import RunConfig\n"
            "from hte_bandit.runner import run_experiment\n"
            "res = run_experiment(RunConfig(algorithm='mod_igw', horizon=300,\n"
            "                               seeds=(1,)).validate(), write=False)\n"
            "assert res.results[0].fits\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_compare_ratio_and_artifacts(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--algos", "uniform,hte_igw",
                     "--set", "env.horizon=64", "--set", "env.d=3",
                     "--set", "schedule.base=16",
                     "--set", "oracle.rate_const=0.01",
                     "--set", "run.seeds=1,2",
                     "--set", f"run.output_dir={out}"])
    assert code == 0
    assert "ratio" in capsys.readouterr().out
    header, rows = read_rows(out / "compare.csv")
    assert header == "algorithm,final_mean_cum_regret,final_std_cum_regret,ratio_vs_first"
    assert [r[0] for r in rows] == ["uniform", "hte_igw"]
    # the baseline's ratio against itself is exactly 1.0
    assert rows[0][3] == "1.0"
    for sub in ("uniform", "hte_igw"):
        assert (out / sub / "curve.csv").exists()
    root = ET.parse(out / "compare.svg").getroot()
    assert root.tag.endswith("svg")


def test_compare_runs_on_one_pool_with_the_same_bytes(tmp_path, monkeypatch):
    """Every (algorithm, seed) job of a compare shares one pool, and the
    files are byte-identical whether it runs serially or on two workers."""
    from hte_bandit import runner

    pools = []

    class CountingPool(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
    algos = ("hte_igw", "igw", "uniform")
    for threads in ("1", "2"):
        monkeypatch.setenv("HTE_BANDIT_THREADS", threads)
        assert cli.main(["compare", "--algos", ",".join(algos),
                         "--set", "env.scenario=nonstationary",
                         "--set", "env.horizon=300", "--set", "env.d=3",
                         "--set", "schedule.base=16", "--set", "run.seeds=4",
                         "--set", f"run.output_dir={tmp_path / threads}"]) == 0
    assert pools == [2]
    files = sorted(p.relative_to(tmp_path / "1")
                   for p in (tmp_path / "1").rglob("*") if p.is_file())
    assert len(files) == 2 + 3 * len(algos)
    for name in files:
        assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name,
                           shallow=False), name


def test_compare_writes_each_algorithm_once_its_seeds_are_in(tmp_path, monkeypatch):
    """On one worker, each run streams its run_<seed>.csv.part as it ends,
    and the first algorithm's run_*.csv are in place before the second
    algorithm's first run starts."""
    from hte_bandit import runner

    events = []
    real_run, real_write = runner.run_single, runner.write_run_csv

    def placed():
        return tuple(sorted(str(p.relative_to(tmp_path))
                            for p in tmp_path.rglob("run_*.csv")))

    def run_spy(config, seed):
        events.append(("run", config.algorithm, seed, placed()))
        return real_run(config, seed)

    def write_spy(path, result):
        events.append(("write", Path(path).parent.name, Path(path).name))
        real_write(path, result)

    monkeypatch.setattr(runner, "run_single", run_spy)
    monkeypatch.setattr(runner, "write_run_csv", write_spy)
    monkeypatch.setenv("HTE_BANDIT_THREADS", "1")
    assert cli.main(["compare", "--algos", "hte_igw,uniform",
                     "--set", "env.horizon=100", "--set", "env.d=3",
                     "--set", "run.seeds=1,2",
                     "--set", f"run.output_dir={tmp_path}"]) == 0
    first = ("hte_igw/run_1.csv", "hte_igw/run_2.csv")
    assert events == [("run", "hte_igw", 1, ()), ("write", "hte_igw", "run_1.csv.part"),
                      ("run", "hte_igw", 2, ()), ("write", "hte_igw", "run_2.csv.part"),
                      ("run", "uniform", 1, first), ("write", "uniform", "run_1.csv.part"),
                      ("run", "uniform", 2, first), ("write", "uniform", "run_2.csv.part")]
    assert placed() == first + ("uniform/run_1.csv", "uniform/run_2.csv")
    assert not list(tmp_path.rglob("*.part"))


def test_compare_formats_each_run_csv_in_a_worker(tmp_path, monkeypatch):
    """On two workers every run_*.csv is formatted and written by the
    worker that simulated its run, and none by the coordinating process."""
    from hte_bandit import runner

    log = tmp_path / "pids.txt"
    real_run, real_write = runner.run_single, runner.write_run_csv

    def note(line):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {line}\n")

    def run_spy(config, seed):
        note(f"run {config.algorithm}/run_{seed}.csv.part")
        return real_run(config, seed)

    def write_spy(path, result):
        note(f"write {Path(path).parent.name}/{Path(path).name}")
        real_write(path, result)

    monkeypatch.setattr(runner, "run_single", run_spy)
    monkeypatch.setattr(runner, "write_run_csv", write_spy)
    monkeypatch.setenv("HTE_BANDIT_THREADS", "2")
    out = tmp_path / "out"
    assert cli.main(["compare", "--algos", "hte_igw,uniform",
                     "--set", "env.horizon=100", "--set", "env.d=3",
                     "--set", "run.seeds=1,2",
                     "--set", f"run.output_dir={out}"]) == 0
    notes = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    ran = {name: pid for pid, kind, name in notes if kind == "run"}
    wrote = {name: pid for pid, kind, name in notes if kind == "write"}
    assert len(notes) == 8 and ran == wrote and len(ran) == 4
    assert str(os.getpid()) not in ran.values()
    assert sorted(str(p.relative_to(out)) for p in out.rglob("run_*.csv")) == [
        "hte_igw/run_1.csv", "hte_igw/run_2.csv", "uniform/run_1.csv", "uniform/run_2.csv"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_failed_compare_keeps_finished_algorithms_and_no_part_file(
        tmp_path, monkeypatch, threads):
    """A run that raises in the second algorithm leaves the first
    algorithm's files complete, nothing of the second, and no .part file:
    neither the one its earlier run wrote, nor the one a later run writes
    on two workers while the pool shuts down after the failure."""
    from hte_bandit import runner

    real_run = runner.run_single

    def run_spy(config, seed):
        if config.algorithm == "uniform":
            if seed == 2:
                raise RuntimeError("run failed")
            if seed == 3:
                time.sleep(0.3)
        return real_run(config, seed)

    monkeypatch.setattr(runner, "run_single", run_spy)
    monkeypatch.setenv("HTE_BANDIT_THREADS", threads)
    cfg = RunConfig(horizon=100, d=3, seeds=(1, 2, 3), output_dir=str(tmp_path / "out"))
    with pytest.raises(RuntimeError, match="run failed"):
        runner.compare(cfg, ["hte_igw", "uniform"])
    out = tmp_path / "out"
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == [
        "hte_igw/curve.csv", "hte_igw/curve.svg", "hte_igw/run_1.csv",
        "hte_igw/run_2.csv", "hte_igw/run_3.csv"]
    monkeypatch.setattr(runner, "run_single", real_run)
    ref = tmp_path / "ref"
    run_experiment(replace(cfg, algorithm="hte_igw", output_dir=str(ref)))
    for name in ("curve.csv", "curve.svg", "run_1.csv", "run_2.csv", "run_3.csv"):
        assert filecmp.cmp(out / "hte_igw" / name, ref / name, shallow=False), name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sigterm_leaves_no_part_file_and_no_worker(tmp_path, threads):
    """A run stopped by SIGTERM once its first .part file is on disk exits
    with 143, and leaves no .part file, no run_*.csv and no process of its
    session behind.  Its stderr goes to a file: a pipe would stay open as
    long as an orphaned worker lives."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, HTE_BANDIT_THREADS=threads, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out, log = tmp_path / "out", tmp_path / "stderr.txt"
    args = [a for kv in ("env.horizon=50000", "run.seeds=1,2,3,4,5,6,7,8,9,10,11,12",
                         f"run.output_dir={out}") for a in ("--set", kv)]
    with open(log, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "hte_bandit.cli", "run", *args],
                                env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        deadline = time.monotonic() + 120
        while not list(out.glob("*.part")):
            assert proc.poll() is None, log.read_text()
            assert time.monotonic() < deadline, "no .part file appeared"
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 143, log.read_text()
        assert sorted(p.name for p in out.iterdir()) == []
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the run's session is left"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_a_writing_job_returns_only_its_regret_column(tmp_path):
    """_job with write streams run_<seed>.csv.part and sends back one float
    column of length T, the run's cum_expected_regret."""
    from hte_bandit import runner

    cfg = RunConfig(horizon=100, d=3, seeds=(3,), output_dir=str(tmp_path)).validate()
    got = runner._job(cfg, 3, True)
    want = runner.run_single(cfg, 3)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (100,)
    assert np.array_equal(got, want.cum_expected_regret)
    runner.write_run_csv(tmp_path / "ref.csv", want)
    assert filecmp.cmp(tmp_path / "run_3.csv.part", tmp_path / "ref.csv", shallow=False)
    assert isinstance(runner._job(cfg, 3, False), runner.RunResult)


def test_a_writing_run_experiment_returns_no_run_results(tmp_path):
    cfg = RunConfig(horizon=100, d=3, seeds=(1, 2), output_dir=str(tmp_path)).validate()
    written = run_experiment(cfg)
    kept = run_experiment(cfg, write=False)
    assert written.results == [] and len(kept.results) == 2
    for a, b in zip((written.curve.t, written.curve.mean, written.curve.std),
                    (kept.curve.t, kept.curve.mean, kept.curve.std)):
        assert np.array_equal(a, b)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curve.csv", "curve.svg", "run_1.csv", "run_2.csv"]


def test_uniform_regret_slope_matches_oracle(tmp_path):
    """The simulated uniform policy's average per-round regret must match an
    independent expectation estimate built straight from the environment
    truth over fresh context draws."""
    seeds = (21, 22, 23)
    cfg = load_config(None, [
        "policy.algorithm=uniform", "env.horizon=2000", "env.d=6",
        "run.seeds=21,22,23", f"run.output_dir={tmp_path / 'slope'}"])
    from hte_bandit.runner import run_experiment
    res = run_experiment(cfg, write=False)
    slope = res.curve.final_mean() / cfg.horizon

    est = []
    for seed in seeds:
        env = build_environment(cfg.env_spec(seed))
        rng = rng_stream(seed, STREAM_VALIDATION)
        X = rng.standard_normal((200_000, cfg.d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        f = 1.0 + X @ env.truth.thetas.T
        est.append(float(np.mean(f.max(axis=1) - f.mean(axis=1))))
    oracle = float(np.mean(est))
    assert abs(slope - oracle) <= 0.05 * oracle


def test_validate_command_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "4/4 checks passed" in out


def test_validate_command_passes_at_seed_1(capsys):
    assert cli.main(["validate", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "4/4 checks passed" in out


@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_validate_rejects_a_bad_seed_with_exit_2(capsys, seed):
    """Exit code 1 means a check failed, so a seed SeedSequence cannot take
    is a usage error (2) from the parser, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and "Traceback" not in err


def test_validate_output_matches_golden(capsys):
    """Every stat line of the default validate run, as pinned in
    tests/golden/validate.txt (read only)."""
    assert cli.main(["validate"]) == 0
    golden = Path(__file__).parent / "golden" / "validate.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_validation_checks_return_python_bools():
    checks = [cli.identity_check(instances=5), cli.bound_check(instances=3, kernels=2),
              cli.kernel_check(draws=2000), cli.implicit_regret_check()]
    for check in checks:
        name, ok, stat = check
        assert type(name) is str and type(ok) is bool and type(stat) is str
        assert ok, check


def test_kernel_check_flags_a_kernel_below_its_floor(monkeypatch):
    """Half of each row's smallest probability moved to the leader: sums,
    leader mass and argmax stay right, only the floor breaks."""
    real_kernel = cli.igw_kernel

    def floorless(scores, gamma):
        P = real_kernel(scores, gamma).copy()
        rows = np.arange(P.shape[0])
        low, lead = P.argmin(axis=1), P.argmax(axis=1)
        P[rows, lead] += P[rows, low] / 2
        P[rows, low] /= 2
        return P

    assert cli.kernel_check(draws=2000)[1] is True
    monkeypatch.setattr(cli, "igw_kernel", floorless)
    name, ok, _ = cli.kernel_check(draws=2000)
    assert name == "kernel validity sweep" and ok is False


def test_validate_flags_a_broken_identity_evaluator(monkeypatch, capsys):
    def sign_flipped(inst, g, mu_a, mu_b):
        delta = g - inst.f_star
        shift = (inst.kernel * delta).sum(axis=1, keepdims=True)
        wrong = float(inst.context_probs @
                      (inst.kernel * (delta + shift) ** 2).sum(axis=1))
        return abs(wrong - gap_identity_value(inst, g))

    monkeypatch.setattr(cli, "excess_risk_identity_gap", sign_flipped)
    assert cli.main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  excess-risk identity" in out
    assert "3/4 checks passed" in out


# -- the validate checks against their per-draw, per-row references ----------

def dot_bound_report(inst, model_class, kernels, tol=BOUND_TOL):
    """misspec_bound_check before its stacked product: each (kernel, member)
    pair's context-weighted sum is its own p.dot."""
    shape = inst.f_star.shape
    stack = np.array(kernels).reshape(-1, 1, *shape)
    tables = np.stack([inst.f_star, *model_class])
    p = inst.context_probs

    def risks(terms):
        dots = [p.dot(row) for row in terms.reshape(-1, p.size)]
        return np.array(dots).reshape(terms.shape[:2])

    rloss = risks(_rloss_terms(inst, tables, np.zeros(inst.num_contexts), stack))
    best_e = (rloss[:, 1:] - rloss[:, :1]).min(axis=1)
    best_s = risks(_squared_terms(inst, tables[1:], stack)).min(axis=1)
    return BoundReport(bool(np.all(best_e <= best_s + tol)),
                       float(best_e[-1]), float(best_s[-1]),
                       float(np.min(best_s - best_e)), float(np.max(best_e)),
                       float(np.max(best_s)))


def reference_bound_check(seed, reports, instances=100, kernels=20,
                          strict_margin=0.1):
    """cli.bound_check with one draw per class member and per kernel, and
    dot_bound_report; every report is appended to reports."""
    rng = rng_stream(seed, STREAM_VALIDATION)
    ok = True
    checked = 0
    for _ in range(instances):
        inst = random_instance(rng, noise=False)
        cls = [rng.uniform(-2.5, 2.5, inst.f_star.shape) for _ in range(8)]
        kerns = []
        for _ in range(kernels):
            k = rng.uniform(0.02, 1.0, inst.f_star.shape)
            kerns.append(k / k.sum(axis=1, keepdims=True))
        rep = dot_bound_report(inst, cls, kerns)
        reports.append(rep)
        ok = ok and rep.holds
        checked += kernels
    strict = random_instance(rng, noise=False)
    srep = dot_bound_report(strict, shifted_class(strict, 0.5), [strict.kernel])
    reports.append(srep)
    strict_ok = (srep.holds and srep.best_excess <= BOUND_TOL
                 and srep.best_squared >= strict_margin)
    return ("misspecification bound", ok and strict_ok,
            f"{checked} kernel cases, strict gap {srep.best_squared:.3f}")


def reference_kernel_check(seed, draws=100_000):
    """cli.kernel_check with each K's rows selected twice and numpy's row
    reductions, calling the kernel through cli.igw_kernel."""
    rng = rng_stream(seed, STREAM_VALIDATION)
    ok = True
    chunk = 10_000
    for start in range(0, draws, chunk):
        n = min(chunk, draws - start)
        ks = rng.integers(2, 7, size=n)
        normals = rng.standard_normal((n, 6))
        exponents = 9.0 * rng.random(n)
        for K in range(2, 7):
            scores = 3.0 * normals[ks == K, :K]
            gamma = np.exp(exponents[ks == K])
            p = cli.igw_kernel(scores, gamma)
            lead = p[np.arange(len(scores)), scores.argmax(axis=1)]
            floor = 1.0 / (K + gamma * (scores.max(axis=1) - scores.min(axis=1)))
            ok = ok and bool(np.all((np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
                                    & (lead >= 1.0 / K - 1e-15)
                                    & (lead == p.max(axis=1))
                                    & (p.min(axis=1) >= floor - 1e-15)))
    return ("kernel validity sweep", ok, f"{draws} random (scores, gamma) draws")


def report_bits(rep):
    return (rep.holds, *(float(v).hex() for v in (
        rep.best_excess, rep.best_squared, rep.worst_margin, rep.max_excess,
        rep.max_squared)))


@pytest.mark.parametrize("seed", range(5))
def test_bound_check_matches_its_per_draw_reference(seed, monkeypatch):
    """Same check tuple, and every instance's report bit for bit."""
    expected, got = [], []
    want = reference_bound_check(seed, expected)
    real = cli.misspec_bound_check

    def recording(*args, **kwargs):
        got.append(real(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(cli, "misspec_bound_check", recording)
    assert cli.bound_check(seed) == want
    assert [report_bits(r) for r in got] == [report_bits(r) for r in expected]


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_kernel_check_matches_its_row_reduction_reference(seed, broken, monkeypatch):
    """Same check tuple and the same igw_kernel inputs, call by call, with
    the real kernel and with one that breaks the floor on one row a call."""
    real_kernel = cli.igw_kernel
    calls = []

    def recording(scores, gamma):
        calls.append((scores.tobytes(), gamma.tobytes()))
        P = real_kernel(scores, gamma)
        if broken:   # row 0 moves half its smallest probability to its leader
            P = P.copy()
            low, lead = P[0].argmin(), P[0].argmax()
            P[0, lead] += P[0, low] / 2
            P[0, low] /= 2
        return P

    monkeypatch.setattr(cli, "igw_kernel", recording)
    want = reference_kernel_check(seed)
    ref_calls, calls[:] = calls[:], []
    assert cli.kernel_check(seed) == want
    assert want[1] is not broken
    assert calls == ref_calls and len(calls) == 50

