"""Benchmark of rdcn-throughput, run from the root of a checkout.

    python3 bench/run.py --workload sweep-n8 --seed 0 --seconds 20 --trace 0

Workloads: sweep-n8, scan-chessboard-n16, synth-n64. With --trace 0 it prints
the end-to-end metrics (setup_s, wall_ref, cpu_ref, peak_rss_mb); with --trace 1
the per-layer metrics of a traced run, whose spans go to bench/out/. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. The package is imported from this checkout's src/, never from an
installed copy.
"""

import time

_STARTED = time.perf_counter()  # set-up probes time imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="Only time imports plus input set-up, in this fresh interpreter.")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    from rdcn_bench.workloads import WORKLOADS

    import rdcn_throughput

    src = (ROOT / "src").resolve()
    if src not in Path(rdcn_throughput.__file__).resolve().parents:
        print(f"error: rdcn_throughput imported from {rdcn_throughput.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        if args.setup_probe:
            workload.setup(args.seed, Path(workdir))
            print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
            return 0
        from rdcn_bench import harness

        print(json.dumps({"environment": harness.environment(), "workload": workload.name,
                          "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
        reference = harness.load_reference(workload.name, args.seed)
        if args.trace:
            result = harness.traced_run(workload, args.seed, Path(workdir), reference, out_dir)
        else:
            result = harness.timed_run(workload, args.seed, args.seconds, Path(workdir),
                                       reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
