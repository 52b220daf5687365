"""Record the reference theta of every cell of sweep-n8 and scan-chessboard-n16.

    python3 bench/record_reference.py --seeds 0 1 2

Writes bench/reference.json, which the benchmark's output check compares
against: to 1e-9 for LP cells and to one heuristic step for demand-aware
cells. Record it at the commit whose results are taken as correct, and never
to make a run pass.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from rdcn_bench.harness import REFERENCE_PATH, environment  # noqa: E402
from rdcn_bench.workloads import STEP, WORKLOADS  # noqa: E402

RECORDED = ("sweep-n8", "scan-chessboard-n16")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    thetas = {}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        for name in RECORDED:
            workload = WORKLOADS[name]
            thetas[name] = {}
            for seed in args.seeds:
                outcome = workload.run(workload.setup(seed, Path(workdir)))
                check = workload.check(outcome, None, None)
                if check.failed:
                    print(f"{name} seed {seed}: {check.problems}", file=sys.stderr)
                    return 1
                thetas[name][str(seed)] = dict(sorted(outcome.items()))
                print(f"{name} seed {seed}: {len(outcome)} cells recorded", flush=True)
    payload = {"environment": environment(), "step": STEP, "thetas": thetas}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
