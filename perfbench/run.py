"""weldqc benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload export --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout: the library is imported from the
checkout's `src/`, and inputs, artifacts and the run record go to
`.perfbench_work/<workload>/` at the checkout root.

Untraced (`--trace 0`): set up several times (re-import weldqc, generate and
write the seeded inputs), then run passes of the workload's steps until the
next pass would end after `--seconds` (at least two passes).  Prints the
end-to-end metrics: median set-up time, pass wall time (the sum of each
step's median over the passes) and peak RSS.

Traced (`--trace 1`): the same set-up, then an untraced pass, a pass with
spans recorded around each layer's public functions, and another untraced
pass.  Prints the per-layer metrics, the untraced per-step times and the
tracing overhead.

Both modes check every pass's artifacts against the first pass (determinism)
and check the first pass's outputs for correctness, outside the timed
region.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: set-ups per run: at least MIN, more while they take under SETUP_BUDGET_S, at most MAX
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 25, 2.0
MIN_PASSES = 2


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# one process, no extra threads: BLAS pools are pinned before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, nproc()))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_weldqc() -> None:
    """Fresh import of every weldqc module from the checkout's src/."""
    for name in [n for n in sys.modules if n == "weldqc" or n.startswith("weldqc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    module = importlib.import_module("weldqc.cli")
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"weldqc was imported from {module.__file__}, not from {SRC}")


def setup(workload: workloads.Workload, seed: int, work: Path):
    """Repeated timed set-ups; the last one's inputs are used."""
    times, prepared, files = [], None, []
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        import_weldqc()
        prepared = workload.setup(work, seed)
        times.append(time.perf_counter() - start)
        files.append(prepared.files)
    same = all(f == files[0] for f in files[1:])
    check = workloads.Check("inputs_identical_for_seed", same, f"{len(files)} set-ups")
    return prepared, times, check


def digest(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class Pass:
    """One run of every step of a workload, in order."""

    def __init__(self, steps: list[workloads.Step], out_dir: Path) -> None:
        self.times: dict[str, float] = {}
        self.results: dict[str, object] = {}
        self.errors: list[str] = []
        self.calls = 0
        shutil.rmtree(out_dir, ignore_errors=True)
        for step in steps:
            self.calls += step.calls
            start = time.perf_counter()
            try:
                self.results[step.name] = step.run()
            except Exception as exc:  # a failed command counts, the run goes on
                self.errors.append(f"{step.name}: {type(exc).__name__}: {exc}")
            self.times[step.name] = time.perf_counter() - start
        self.wall = sum(self.times.values())
        self.artifacts = digest(out_dir) if out_dir.exists() else {}
        self.artifacts.update(
            {f"result:{name}": repr(value) for name, value in self.results.items()}
        )


def run_passes(steps, out_dir: Path, seconds: float) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(steps, out_dir))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
            return passes


def traced_passes(steps, out_dir: Path) -> tuple[list[Pass], tracing.Tracer]:
    """Untraced, traced, untraced: a steady drift in machine speed cancels
    out of the traced pass minus the mean of the untraced ones."""
    before = Pass(steps, out_dir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pass(steps, out_dir)
    finally:
        tracer.uninstall()
    return [before, traced, Pass(steps, out_dir)], tracer


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "weldqc" / "__init__.py").is_file():
        print(f"error: no weldqc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / workload.name
    prepared, setup_times, input_check = setup(workload, args.seed, work)
    steps = workload.steps(prepared)
    out_dir = work / "out"

    tracer = None
    if args.trace:
        passes, tracer = traced_passes(steps, out_dir)
    else:
        passes = run_passes(steps, out_dir, args.seconds)

    checks = [input_check]
    first = passes[0]
    for index, later in enumerate(passes[1:], start=2):
        same = later.artifacts == first.artifacts
        checks.append(workloads.Check(f"pass_{index}_identical_to_pass_1", same,
                                      f"{len(first.artifacts)} artifacts"))
    if not first.errors:
        try:
            checks.extend(workload.checks(prepared, first.results))
        except Exception as exc:  # an unreadable artifact fails the checks
            checks.append(workloads.Check("checks_ran", False, f"{type(exc).__name__}: {exc}"))
    calls = sum(p.calls for p in passes)
    errors = [error for p in passes for error in p.errors]
    failed = len(errors) + sum(not c.ok for c in checks)
    attempted = calls + len(checks)

    step_median = {name: statistics.median(p.times[name] for p in passes) for name in first.times}
    if tracer is not None:
        # per-step times come from the untraced passes; layer metrics from the traced one
        untraced = [passes[0], passes[2]]
        metrics = {
            f"cmd.{name}_s": metric(
                statistics.mean(p.times[name] for p in untraced) if name in first.times else 0.0,
                "s",
            )
            for name in workloads.STEP_NAMES
        }
        metrics.update(
            {name: metric(value, tracing.unit(name)) for name, value in tracer.metrics().items()}
        )
        overhead = passes[1].wall - statistics.mean(p.wall for p in untraced)
        metrics["trace.overhead_s"] = metric(overhead, "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            # a slow spell that hits one step of one pass drops out of a per-step median
            "wall_s": metric(sum(step_median.values()), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": prepared.sizes,
        "setup_s": setup_times,
        "passes": [{"wall_s": p.wall, "steps_s": p.times, "errors": p.errors} for p in passes],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    }
    if tracer is not None:
        record["spans"] = tracer.dump()
    (work / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes")
    print(f"inputs {json.dumps(prepared.sizes)}")
    print(f"environment {json.dumps(record['environment'])}")
    for name, seconds in step_median.items():
        print(f"  step {name:<22} {seconds:9.4f} s")
    for check in checks:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.name} {check.detail}")
    for error in errors:
        print(f"  error {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
