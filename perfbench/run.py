"""keldrot benchmark: one workload, one run, one JSON line of results.

Usage, from the root of a keldrot checkout::

    python3 perfbench/run.py --workload momentum --seed 1 --seconds 30 --trace 0

Workloads: momentum, time-grid, cli-artifacts (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics (setup_s, wall_s,
peak_rss_mb); ``--trace 1`` runs the same passes with a span around
every call into a keldrot module and prints the per-layer metrics.  The
last line of standard output is the result; the exit code is 0 only when
every output passed its checks.

Set-up is timed in fresh processes from their start until they have
imported keldrot and generated the seeded inputs.  With ``--trace 0`` it
is sampled SETUP_SAMPLES times and the median reported: half of the
set-up-only processes run before the process that runs the passes, half
after it, so that the samples span the run as the passes do.  No process
uses more than one BLAS thread.  The whole run is stopped, and fails,
once it has taken DEADLINE_BASE_S + DEADLINE_PER_S x --seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("momentum", "time-grid", "cli-artifacts")
SETUP_SAMPLES = 5
# set-ups, the checks and, when tracing, the three passes that run
# however short --seconds is
DEADLINE_BASE_S, DEADLINE_PER_S = 80.0, 3.0
WORK_DIR = ".perfbench_work"


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(args, root: Path, workdir: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # own process group, so that stopping it also stops the CLI processes it runs
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    return proc, t0


def _stop(proc: subprocess.Popen):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _ready(proc: subprocess.Popen, t0: float, deadline: float) -> float:
    if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
        raise RuntimeError("worker set-up ran past the deadline")
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not finish set-up: {line!r}")
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="keldrot benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the clean-up below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "keldrot" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the root of a keldrot checkout (src/keldrot missing)\n")
        return 2
    base = root / WORK_DIR
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds
    proc = None
    extra = 0 if args.trace else SETUP_SAMPLES - 1

    def setup_only(i: int) -> float:
        nonlocal proc
        proc, t0 = _start(args, root, base / f"setup{i}", setup_only=True)
        took = _ready(proc, t0, deadline)
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        shutil.rmtree(base / f"setup{i}", ignore_errors=True)
        return took

    try:
        setups = [setup_only(i) for i in range(extra // 2)]
        proc, t0 = _start(args, root, base / "run", setup_only=False)
        setups.append(_ready(proc, t0, deadline))
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        setups += [setup_only(i) for i in range(extra // 2, extra)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        if proc is not None:
            _stop(proc)
        shutil.rmtree(base, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for problem in result["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
