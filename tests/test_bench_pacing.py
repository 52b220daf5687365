"""The benchmark paces its speed-reference samples by the calls of one package
function per workload (`paced_by`), so a refactor that stops calling that
name through its module would leave the body unpaced and change what its
wall_ref and cpu_ref are measured against. Each paced name must be called at
least once per body of the tiny workloads `bench/tests` runs."""

import functools
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from rdcn_bench import workloads  # noqa: E402

TINY = (
    workloads.SweepWorkload(name="sweep-n4", n=4),
    workloads.ScanWorkload(name="scan-chessboard-n4", n=4, u=2),
    workloads.SynthWorkload(name="synth-n8", n=8, u=2, scales=(1.0, 0.9)),
)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_paced_name_is_called_in_each_body(workload, tmp_path, monkeypatch):
    # One line per call in a file, so that the sweep's pool workers, which
    # fork with the wrapper in place, are counted too.
    log = tmp_path / "calls.log"

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(name + "\n")
            return fn(*args, **kwargs)

        return wrapper

    names = [f"{owner.__name__}.{attr}" for owner, attr in workload.paced_by]
    for name, (owner, attr) in zip(names, workload.paced_by):
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    outcome = workload.run(workload.setup(3, tmp_path))
    check = workload.check(outcome, None, None)
    assert check.failed == 0, check.problems
    calls = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
    for name in names:
        assert calls.count(name) >= 1, f"{workload.name}: {name} was not called"
