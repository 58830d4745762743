"""BLAS thread sensitivity report: `np.linalg.eigh` and the head GEMV at one
and two BLAS threads.

    python3 perfbench/blas_threads.py

Not a workload. It settles which BLAS thread count the benchmark should pin
(run.py pins BLAS_THREADS). For each thread count it starts a fresh
interpreter with the thread variables set before numpy is imported, and times,
at n = 16, 40 and 100 nodes:
  eigh  the eigendecomposition of a graph Laplacian (n x n);
  gemv  the first layer of the graph-level head: a (1, n*60) row times an
        (n*60, 2400) matrix, as at hidden_dim 60 and head_hidden_dim 2400.
Each figure is the median time of one call over repeated calls for about
0.3 seconds. Prints a table, then the figures as one JSON line.
"""

import json
import os
import subprocess
import sys

from run import THREAD_VARS

THREADS = (1, 2)
SIZES = (16, 40, 100)
HIDDEN_DIM = 60
HEAD_WIDTH = 2400
MIN_SECONDS = 0.3


def _median_call_us(fn) -> float:
    import statistics
    import time
    times = []
    started = time.perf_counter()
    while time.perf_counter() - started < MIN_SECONDS or len(times) < 5:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e6 * statistics.median(times)


def child() -> dict:
    """Figures for the thread count this interpreter was started with."""
    import numpy as np
    rng = np.random.default_rng(0)
    out = {}
    for n in SIZES:
        a = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
        a[np.arange(n - 1), np.arange(1, n)] = 1.0  # a path keeps it connected
        a = a + a.T
        lap = np.diag(a.sum(axis=1)) - a
        x = rng.standard_normal((1, n * HIDDEN_DIM))
        w = rng.standard_normal((n * HIDDEN_DIM, HEAD_WIDTH))
        out[f"eigh_us.n{n}"] = _median_call_us(lambda: np.linalg.eigh(lap))
        out[f"gemv_us.n{n}"] = _median_call_us(lambda: x @ w)
    return out


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(child()))
        return 0
    results = {}
    for threads in THREADS:
        env = dict(os.environ)
        env.update({var: str(threads) for var in THREAD_VARS})
        child_run = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                                   env=env, stdout=subprocess.PIPE, text=True,
                                   timeout=120, check=True)
        results[threads] = json.loads(child_run.stdout.strip().splitlines()[-1])
    print(f"{'op':16} " + " ".join(f"{f'{t} thread(s)':>14}" for t in THREADS)
          + f" {'2 vs 1':>8}")
    for name in results[THREADS[0]]:
        row = [results[t][name] for t in THREADS]
        print(f"{name:16} " + " ".join(f"{v:12.1f}us" for v in row)
              + f" {row[-1] / row[0]:7.2f}x")
    print(json.dumps({"cpu_count": os.cpu_count(), "median_us": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
