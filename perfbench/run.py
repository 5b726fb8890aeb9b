"""Benchmark of the hte_bandit simulator: round loop, epoch refit, CLI artifact path.

Run from the repository root:

    python3 perfbench/run.py --workload desk_grid --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it measures untraced passes for half the time, then one traced
pass, and reports the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_PASSES = 3          # per-operation medians need at least three samples
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "rounds_per_s": "rounds/s",
             "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("desk_grid", "wide_refit", "cli_session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package and build the inputs, then exit")
    return p.parse_args(argv)


def import_package():
    """Import hte_bandit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hte_bandit
    if not Path(hte_bandit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hte_bandit resolved to {hte_bandit.__file__}, not {src}")


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # ru_maxrss is in KiB on Linux


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing and building inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, and every breach seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.breaches = []

    def add(self, op_name, result, found):
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.breaches.append(f"{op_name}: raised {result!r}")
        elif found:
            self.failed += 1
            self.correct = False
            self.breaches += [f"{op_name}: {msg}" for msg in found]


def run_pass(wl, pass_dir: Path, after_op=None):
    """One pass over the workload's operations; checks stay outside the timing."""
    results, walls, cpus = {}, {}, {}
    for op in wl.ops:
        out_dir = pass_dir / op.name
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            results[op.name] = op.run(out_dir)
        except Exception as e:          # counted as a failed operation
            results[op.name] = e
        walls[op.name] = time.perf_counter() - t0
        cpus[op.name] = cpu_seconds() - c0
        if after_op is not None:
            after_op(op.name)
    return results, walls, cpus


def verify(wl, results, pass_dir, reference, tally, extra=None):
    """Run every check of one pass; returns the pass's rounds completed."""
    import checks       # imports numpy, so only after main() has pinned BLAS

    cross = wl.cross_check(results)
    rounds = {}
    for op in wl.ops:
        res = results[op.name]
        found = []
        if not isinstance(res, Exception):
            try:
                found = op.check(res, pass_dir / op.name)
                rounds[op.name] = op.rounds(res)
            except Exception as e:      # an unreadable artifact is a breach
                found = [f"check raised {e!r}"]
            found += cross.get(op.name, []) + (extra or {}).get(op.name, [])
            out_dir = pass_dir / op.name
            if reference is not None and out_dir.is_dir():
                found += checks.same_bytes(reference / op.name, out_dir)
        tally.add(op.name, res, found)
    return rounds


@dataclass
class Passes:
    walls: list = field(default_factory=list)      # per pass: op -> seconds
    cpus: list = field(default_factory=list)
    rounds: list = field(default_factory=list)     # per pass: op -> rounds done
    reference: Optional[Path] = None               # artifacts of the first pass
    peak_rss_mb: float = 0.0                       # high-water mark after pass 1


def timed_passes(wl, scratch: Path, budget: float, tally: Tally,
                 min_passes: int = 1) -> Passes:
    """Untraced passes until the budget is spent (at least min_passes).

    Every later pass's artifacts must match the first pass's byte for byte.
    Peak RSS is read after the first pass, so that it does not depend on how
    many passes fit in the budget.
    """
    os.environ["HTE_BANDIT_THREADS"] = str(wl.workers)
    out = Passes()
    start = time.perf_counter()
    while True:
        pass_dir = scratch / f"pass{len(out.walls)}"
        res, w, c = run_pass(wl, pass_dir)
        out.rounds.append(verify(wl, res, pass_dir, out.reference, tally))
        del res
        out.walls.append(w)
        out.cpus.append(c)
        if out.reference is None:
            out.reference = pass_dir
            out.peak_rss_mb = peak_rss_mb()
        else:
            shutil.rmtree(pass_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(out.walls) >= min_passes and elapsed + elapsed / len(out.walls) > budget:
            return out


def median_by_op(per_pass):
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def end_to_end(args, wl, scratch, tally):
    setup = measure_setup(args.workload, args.seed)
    p = timed_passes(wl, scratch, args.seconds, tally, MIN_PASSES)
    wall = sum(median_by_op(p.walls).values())
    cpu = sum(median_by_op(p.cpus).values())
    done = statistics.median(sum(r.values()) for r in p.rounds)
    metrics = {"setup_s": setup, "wall_s": wall, "rounds_per_s": done / wall,
               "cpu_s": cpu, "peak_rss_mb": p.peak_rss_mb}
    return metrics, len(p.walls)


def per_layer(args, wl, scratch, tally):
    from layers import LayerTrace

    p = timed_passes(wl, scratch, args.seconds / 2, tally)
    op_wall = median_by_op(p.walls)
    cell_rates = {f"runner.rounds_per_s.{name}": done / op_wall[name]
                  for name, done in p.rounds[-1].items() if done}

    # One traced pass, one worker, so every span lands in this process.
    os.environ["HTE_BANDIT_THREADS"] = "1"
    trace = LayerTrace()
    extra = {}

    def collect(op_name):
        extra[op_name] = trace.drain_breaches()

    trace.install()
    try:
        res, traced, _ = run_pass(wl, scratch / "traced", after_op=collect)
    finally:
        trace.uninstall()
    verify(wl, res, scratch / "traced", p.reference, tally, extra)
    trace.tracer.save(OUT / f"trace_{args.workload}.npz")
    metrics = trace.metrics(sum(traced.values()), sum(op_wall.values()), cell_rates)
    return metrics, len(p.walls) + 1


def report(args, wl, metrics, units, passes, tally):
    print(f"workload {args.workload}  seed {args.seed}  inputs {wl.info}  "
          f"passes {passes}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:14.6g} {units[name]}")
    print(f"  operations attempted {tally.attempted}, failed {tally.failed}; "
          f"checks {'passed' if not tally.breaches else 'BREACHED'}")
    for msg in tally.breaches[:20]:
        print(f"    {msg}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    try:
        import_package()
    except ImportError as e:
        print(f"perfbench: cannot import hte_bandit from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    try:
        if args.trace:
            from layers import UNITS
            metrics, passes = per_layer(args, wl, scratch, tally)
            units = UNITS
        else:
            metrics, passes = end_to_end(args, wl, scratch, tally)
            units = E2E_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(args, wl, metrics, units, passes, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
