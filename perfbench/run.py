"""Run eigenlearn benchmark workloads, each in a fresh interpreter.

    python3 perfbench/run.py --workload compare-desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --out results.jsonl

Run it from the root of a checkout. Each workload runs in its own child
process (perfbench/workloads.py) with the BLAS and OpenMP thread variables
set to BLAS_THREADS before numpy is imported. The child's output is passed
through; its last line is the result. `--out` appends each workload's full
record (environment, checks, every metric) as one JSON line, which
perfbench/compare.py reads.

Exit status: 0 when every workload ran (a failed output check shows in the
result's "correct" and "failed" fields), 1 when a workload crashed or timed
out, 2 when the checkout holds no eigenlearn sources.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("compare-desk", "pretrain-wide", "spectra-prep", "infer-desk")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread: at these matrix sizes extra threads mostly add
# synchronisation cost, and on a shared machine they add noise
# (perfbench/README.md, "BLAS threads").
BLAS_THREADS = 1
# A child may run this long beyond --seconds: set-up, the last unit and the
# output checks come on top of the measured time.
CHILD_MARGIN_S = 150


def run_workload(name: str, args) -> int:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    command = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.out:
        command += ["--out", os.path.abspath(args.out)]
    timeout = args.seconds + CHILD_MARGIN_S
    try:
        child = subprocess.run(command, env=env, cwd=REPO, stdout=subprocess.PIPE,
                               text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish within {timeout:g}s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"perfbench: {name} exited with status {child.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", help="append each workload's full record to this JSONL file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(REPO, "src", "eigenlearn", "__init__.py")):
        print(f"perfbench: no eigenlearn sources under {os.path.join(REPO, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_workload(name, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
