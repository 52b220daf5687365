"""The machine's current speed, read from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more over tens of seconds. A timed run therefore times a fixed reference kernel alongside its body and reports
the body's time in units of the kernel's time (unit "ref"): a slow spell of
the host stretches both, and their ratio stays put. The kernel is one HiGHS
solve of a transportation LP built here from a fixed seed, so it does not
depend on the workload seed nor on any code of the package, and a change to
the package moves the ratio by exactly its own effect. Each workload names the
HiGHS method whose slow spells follow its own: interior point (the package's
LP method) where LP solves dominate, dual simplex for Python-bound synthesis.

Where a workload makes many calls of one package function, a sample runs
before each of them (pacing), so the samples follow the host through the
body; their time is taken out of the body's. Pool workers inherit the pacing
because the pool forks them, and spool their samples to a file each, which
the parent collects after the body.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .spans import patched

# Sources (and sinks) of the transportation LP per method, sized so that one
# solve takes about 60 ms.
KERNEL_SIZES = {"highs-ipm": 70, "highs-ds": 100}
BOUNDARY_SAMPLES = 3  # samples taken before the first body and after each body


def _transportation_lp(size: int):
    rng = np.random.default_rng(0)
    supply = rng.random(size) + 1.0
    demand = supply[rng.permutation(size)]  # same total, so the LP is feasible
    flat = np.arange(size * size)
    rows = np.concatenate([flat // size, size + flat % size])
    a_eq = sp.csr_matrix((np.ones(2 * flat.size), (rows, np.concatenate([flat, flat]))),
                         shape=(2 * size, flat.size))
    return rng.random(flat.size), a_eq, np.concatenate([supply, demand])


class SpeedReference:
    def __init__(self, spool_dir: Path, method: str):
        self.method = method
        self._lp = _transportation_lp(KERNEL_SIZES[method])
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.samples = []  # (wall_s, cpu_s, pid) of each kernel run
        self.sample()  # the first solve pays one-time costs; it is not kept
        self.samples.clear()

    def sample(self):
        cost, a_eq, b_eq = self._lp
        c0, t0 = time.process_time(), time.perf_counter()
        res = linprog(cost, A_eq=a_eq, b_eq=b_eq, method=self.method)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if res.status != 0:
            raise RuntimeError(f"reference kernel failed: {res.message}")
        pid = os.getpid()
        if pid == self.pid:
            self.samples.append((wall, cpu, pid))
        else:
            with open(self.spool_dir / f"kernel-{pid}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps([wall, cpu, pid]) + "\n")

    def collect(self):
        """Add the samples that pool workers spooled, and remove their files."""
        for path in sorted(self.spool_dir.glob("kernel-*.jsonl")):
            lines = path.read_text(encoding="utf-8").splitlines()
            self.samples.extend(tuple(json.loads(line)) for line in lines)
            path.unlink()

    def boundary(self):
        for _ in range(BOUNDARY_SAMPLES):
            self.sample()

    def _paced(self, fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            self.sample()
            return fn(*args, **kwargs)

        return paced

    @contextmanager
    def pacing(self, sites):
        """Run one sample before each call of every (owner, attribute) in sites;
        restore the attributes on exit."""
        with patched([(owner, attr, self._paced) for owner, attr in sites]):
            yield self
