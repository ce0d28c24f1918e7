"""How fast the shared machine ran during a run, from work that never
touches keldrot.

The sandbox's speed drifts: the same pass takes 30-40% longer in one spell
of minutes than in another, whatever the code.  A SpeedProbe times a fixed
piece of work between the workload's calls, spread evenly over the run,
and ``wall_s`` is the workload's wall time scaled by the kind's reference
time divided by the probe's median time in that run: the wall time the
run would have taken at the probe's reference speed.  The probe is the
same for every commit, so a change to keldrot moves ``wall_s`` in full.

Three kinds, each the one whose ratio to the workload's calls moved least
when the two were timed in turn:

- ``compute``: in-process quadrature with a Python integrand, small
  matrix products, an FFT and a JSON round trip (about 1.5 ms), for the
  per-point quadrature of ``momentum``;
- ``dense``: FFTs over a 256 x 1024 complex array and a 256 x 256 matrix
  product (about 3.5 ms), for the n x n kernels of ``time-grid``;
- ``process``: a fresh interpreter that imports numpy (about 0.15 s), for
  ``cli-artifacts``, which starts one process per CLI verb.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad

# (least spacing between samples, reference median time) of each kind,
# the latter measured on the 2-core sandbox
KINDS = {"compute": (0.2, 1.5e-3), "dense": (0.2, 3.5e-3), "process": (1.5, 0.15)}


class SpeedProbe:
    def __init__(self, kind: str, env: dict):
        self.kind, self.env = kind, env
        self.interval_s, self.reference_s = KINDS[kind]
        rng = np.random.default_rng(0)
        if kind == "compute":
            self.a = rng.normal(size=(64, 64))
            self.v = rng.normal(size=4096)
        elif kind == "dense":
            self.z = rng.normal(size=(256, 1024)) + 0j
            self.b = rng.normal(size=(256, 256))
        self.times: list[float] = []
        self.last = time.perf_counter()

    def _work(self):
        if self.kind == "process":
            subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True)
            return
        if self.kind == "dense":
            np.fft.fft(self.z, axis=1)
            self.b @ self.b
            return
        for c in (1.0, 2.0):
            quad(lambda t: np.cos(c * t) / (1.0 + t * t), 0.0, 40.0, limit=200)
        for _ in range(4):
            self.a @ self.a
        np.fft.fft(self.v)
        json.loads(json.dumps([float(x) for x in self.v[:512]]))

    def maybe(self):
        """Take a sample if the last one is at least interval_s old."""
        if time.perf_counter() - self.last >= self.interval_s:
            t0 = time.perf_counter()
            self._work()
            self.last = time.perf_counter()
            self.times.append(self.last - t0)

    def scale(self) -> float:
        """Reference time over this run's median probe time."""
        return self.reference_s / statistics.median(self.times)
