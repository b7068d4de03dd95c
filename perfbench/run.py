"""Benchmark of the bggm sampler and the commands built on it.

    python3 perfbench/run.py --workload fit-p10 --seed 1 --seconds 30 --trace 0

Runs one workload in this process: it generates the inputs from
``--seed``, then runs whole rounds of the workload's ``bggm`` commands
(called in-process through ``bggm.cli.main``) for up to ``--seconds``
(at least one round), checks every output and prints one JSON object
as its last line. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` a separate traced run's per-layer metrics. ``--quick``
runs one round of a few sweeps, for the benchmark's own tests. See
README.md in this directory.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

# perf_counter anchor of the process; set-up time is counted from the
# process's creation (process_age_at_start), so imports above still count
T_START = time.perf_counter()

# One process, one BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"


def process_age_at_start():
    """Seconds between the process's creation and ``T_START`` (Linux,
    10 ms resolution); 0 where /proc is unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return max(0.0, now - (time.perf_counter() - T_START) - started)


def import_program():
    """The checkout's own bggm modules; ImportError when ``src/`` does
    not hold them (an installed copy elsewhere does not count)."""
    sys.path.insert(0, str(SRC))
    import bggm.cli  # noqa: F401  (imports every module cli uses)
    if not Path(bggm.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bggm was imported from {bggm.cli.__file__}, not {SRC}")
    return {name: sys.modules[f"bggm.{name}"]
            for name in ("cli", "sampler", "model", "io", "baselines", "inference")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round of a few sweeps (for tests)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        modules = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import bggm from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads  # needs numpy, imported with bggm above

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{spec.name}-s{args.seed}-p{os.getpid()}"
    try:
        result = workloads.run(spec, modules, run_dir, args.seed, args.seconds,
                               trace=bool(args.trace), quick=args.quick,
                               t_start=T_START, startup=process_age_at_start(),
                               trace_path=RUNS / f"trace-{spec.name}-s{args.seed}.tsv.gz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"operations attempted {result['attempted']}, failed {result['failed']}, "
          f"outputs correct: {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
