"""One fresh process of one workload: set-up, then whole passes until the
run time is used up.

Started by run.py from the root of a checkout, with ``src`` on PYTHONPATH.
It prints ``READY`` once set-up is done, so the parent can time set-up
from process start, and prints its result as one JSON line at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

STARTUP_SAMPLES = 3
# wall_s takes each call's median over the passes
MIN_PASSES = 2


def _keldrot(root: Path) -> types.SimpleNamespace:
    """The keldrot modules, imported from the checkout's own source tree."""
    import importlib

    import keldrot

    src = (root / "src").resolve()
    if src not in Path(keldrot.__file__).resolve().parents:
        raise SystemExit(f"keldrot imported from {keldrot.__file__}, not from {src}")
    from spans import LAYERS

    return types.SimpleNamespace(**{n: importlib.import_module(f"keldrot.{n}") for n in LAYERS})


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


RATES = ("k2_points_per_s", "x2_points_per_s", "mc_samples_per_s", "accept_s")


class Runner:
    def __init__(self, wl, seconds: float):
        self.wl, self.seconds = wl, seconds
        self.start = time.perf_counter()
        self.durations: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def more(self) -> bool:
        """Start another pass only if it is expected to end in time, or if
        fewer than MIN_PASSES have run."""
        if self.problems:
            return False
        if len(self.durations) < MIN_PASSES:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.durations) <= self.seconds

    def run(self, lib, tracer=None, on_done=None):
        t0 = time.perf_counter()
        res = self.wl.run_pass(lib, tracer)
        if on_done:
            on_done(res)
        self.account(res)
        self.durations.append(time.perf_counter() - t0)
        return res

    def account(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems += self.wl.check(res)


def untraced(wl, lib, seconds: float) -> tuple[Runner, dict]:
    runner = Runner(wl, seconds)
    ops, rss = [], []
    # the CLI workload measures one process per verb
    pass_lib = None if wl.name == "cli-artifacts" else lib
    from probe import SpeedProbe
    from workloads import PassResult

    probe = SpeedProbe(wl.probe, dict(os.environ))
    PassResult.after_op = probe.maybe
    if hasattr(wl, "gate"):
        runner.account(wl.gate())

    def first_peak(_):
        # read before the checks, which load the artefacts back
        if not rss:
            rss.append(_peak_rss_mb())

    while runner.more():
        ops.append(runner.run(pass_lib, on_done=first_peak).ops)
    PassResult.after_op = None
    # each call's median over the passes, at the probe's reference speed
    wall = sum(statistics.median(p[key] for p in ops) for key in ops[0])
    sys.stderr.write(f"perfbench: {len(ops)} passes, wall {wall:.4f} s as measured, "
                     f"{len(probe.times)} {probe.kind} probes, median "
                     f"{1e3 * statistics.median(probe.times):.4f} ms\n")
    metrics = {"wall_s": (wall * probe.scale(), "s"), "peak_rss_mb": (rss[0], "MB")}
    return runner, metrics


def traced(wl, lib, seconds: float, root: Path) -> tuple[Runner, dict]:
    """A warm-up pass, then untraced and traced passes in turn; the
    overhead is the difference of their median walls."""
    from layers import PER_LAYER, layer_metrics
    from spans import Tracer

    runner = Runner(wl, seconds)
    runner.run(lib)
    tracer = Tracer()
    per_pass, traced_walls, plain = [], [], []
    while not runner.problems and (runner.more() or not (plain and per_pass)):
        if len(plain) <= len(per_pass):
            plain.append(runner.run(lib))
            continue
        first = len(tracer.spans)
        with tracer.installed():
            traced_walls.append(runner.run(lib, tracer).wall)
        per_pass.append(tracer.spans[first:])
    warnings = [sum(1 for w in ws if w == "IntegrationWarning") for ws in tracer.warnings]
    out = layer_metrics(per_pass, warnings)
    extra = dict.fromkeys(["trace.wall_s", "trace.overhead_s", "cli.startup_s", *RATES], 0.0)
    if plain and traced_walls:
        trace_wall = statistics.median(traced_walls)
        extra.update({k: statistics.median(r.rates[k] for r in plain) for k in plain[0].rates})
        extra["trace.wall_s"] = trace_wall
        extra["trace.overhead_s"] = trace_wall - statistics.median(r.wall for r in plain)
    if wl.name == "cli-artifacts" and not runner.problems:
        extra["cli.startup_s"] = statistics.median(_startup(root) for _ in range(STARTUP_SAMPLES))
    for name, val in extra.items():
        out[name] = {"value": float(val), "unit": PER_LAYER[name][0]}
    return runner, out


def _startup(root: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "keldrot.cli", "--help"], cwd=root,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()

    lib = _keldrot(root)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        runner, metrics = traced(wl, lib, args.seconds, root)
    else:
        runner, raw = untraced(wl, lib, args.seconds)
        metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in raw.items()}
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics,
                      "problems": runner.problems}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
