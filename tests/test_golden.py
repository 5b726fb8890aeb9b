"""Golden artifact digests: the bytes every identical config must reproduce.

tests/golden/artifacts.sha256 lists one `<sha256>  <relative path>` line per
file, for the CSV and SVG artifacts of the 9 acceptance cells (seeds 101 and
102) and every file of a 2-worker `compare` on nonstationary that triggers
the safety monitor.  The test regenerates them in a temporary directory and
compares; it never writes the golden file.

tests/golden/wide_fits.txt pins the two lasso fits on one wide batch
(p = 1608), a size the artifacts above never reach: one line per fit with
the sha256 of theta's bytes, float.hex(lam), the sparsity and whether
coordinate descent converged.

A change that alters these bytes on purpose regenerates both files
(`PYTHONPATH=src python tests/test_golden.py`, which pins one BLAS thread
as the suite does) and says why.
"""

import hashlib
from pathlib import Path

import conftest  # noqa: F401  (one BLAS thread, also when run as a script)
import numpy as np

from hte_bandit import cli
from hte_bandit.config import RunConfig
from hte_bandit.core import (STREAM_ACTION, STREAM_CONTEXT, STREAM_NOISE,
                             SampleBatch, arm_block_map, rng_stream)
from hte_bandit.environments import EnvironmentSpec, build_environment
from hte_bandit.oracle import cross_fit_mu, fit_rloss_lasso, fit_squared_error_lasso
from hte_bandit.runner import run_experiment

GOLDEN = Path(__file__).parent / "golden" / "artifacts.sha256"
WIDE_FITS = Path(__file__).parent / "golden" / "wide_fits.txt"

DESK = dict(d=20, num_actions=2, sigma=0.1, horizon=5000,
            schedule_kind="doubling", schedule_base=128,
            delta=0.05, n_min=32, ridge_scale=1e-6, num_folds=2,
            rate_const=0.01, lasso_const=1.5, seeds=(101, 102))
CELLS = (("lin_lin", "hte_igw"), ("lin_lin", "igw"),
         ("lin_const", "mod_hte_igw"), ("lin_const", "mod_igw"),
         ("step_lin", "hte_igw"), ("step_lin", "igw"), ("step_lin", "uniform"),
         ("perturbed", "mod_hte_igw"), ("perturbed", "mod_igw"))
COMPARE_SETTINGS = ("env.scenario=nonstationary", "env.amplitude=1.0",
                    "env.period=8000", "env.horizon=8000", "run.seeds=1,2")


def write_artifacts(root: Path, monkeypatch) -> None:
    """The grid under root/grid/<scenario>.<algorithm>/, one worker, and the
    comparison under root/compare/, two workers."""
    monkeypatch.setenv("HTE_BANDIT_THREADS", "1")
    for scenario, algo in CELLS:
        run_experiment(RunConfig(scenario=scenario, algorithm=algo,
                                 output_dir=str(root / "grid" / f"{scenario}.{algo}"),
                                 **DESK).validate())
    monkeypatch.setenv("HTE_BANDIT_THREADS", "2")
    argv = ["compare", "--algos", "hte_igw,igw,uniform"]
    for s in COMPARE_SETTINGS + (f"run.output_dir={root / 'compare'}",):
        argv += ["--set", s]
    assert cli.main(argv) == 0


def digests(root: Path) -> str:
    """`sha256sum`-style listing of every file under root, sorted by path."""
    paths = sorted(p for p in root.rglob("*") if p.is_file())
    return "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
                   f"{p.relative_to(root).as_posix()}\n" for p in paths)


def test_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    write_artifacts(tmp_path, monkeypatch)
    got = digests(tmp_path).splitlines()
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(want) == 50
    assert [line.split("  ")[1] for line in got] == [line.split("  ")[1] for line in want]
    changed = [w.split("  ")[1] for g, w in zip(got, want) if g != w]
    assert not changed, f"artifacts differ from the golden digests: {changed}"


def wide_fit_fingerprints() -> str:
    """The fingerprint lines of the R-loss and squared-error lasso fits on
    3000 uniformly logged lin_const rounds at d = 200, K = 8."""
    n, d, K, seed = 3000, 200, 8, 7
    env = build_environment(EnvironmentSpec(scenario="lin_const", d=d,
                                            num_actions=K, sigma=0.1, seed=seed))
    rounds = env.sample_rounds(rng_stream(seed, STREAM_CONTEXT),
                               rng_stream(seed, STREAM_NOISE), 1, n)
    A = rng_stream(seed, STREAM_ACTION).integers(1, K + 1, n)
    batch = SampleBatch(rounds.contexts, A, np.full((n, K), 1.0 / K), rounds.rewards(A))
    _, batch = cross_fit_mu(batch, num_folds=2, ridge=1e-6 * n, fold_seed=seed)
    fm = arm_block_map(d, K)
    lines = []
    for name, fit in (("rloss", fit_rloss_lasso), ("squared_error", fit_squared_error_lasso)):
        m = fit(batch, fm, scale=1.5)
        lines.append(f"{name} {hashlib.sha256(m.theta.tobytes()).hexdigest()} "
                     f"{float.hex(m.lam)} {m.sparsity} {m.converged}\n")
    return "".join(lines)


def test_wide_lasso_fits_match_golden():
    assert wide_fit_fingerprints() == WIDE_FITS.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    import pytest

    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        write_artifacts(Path(d), mp)
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(digests(Path(d)), encoding="utf-8")
    WIDE_FITS.write_text(wide_fit_fingerprints(), encoding="utf-8")
