"""Compare two sets of benchmark records, one row per workload and metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records that `run.py --out` appends, one run per line;
traced runs are ignored. For every workload and every metric that both sets
report, the row gives each side's median and quartiles over its runs, the
change of the medians, and a verdict. This is a report, not a gate; it
always exits 0 once both files are read.

Verdicts, judged against the bounds in BENCHMARK.json (end-to-end metrics)
and in DETAILS below (workload-specific metrics):
  exact       (bound 0, a value fixed by the seed) unchanged when every seed
              both sets ran gives the same value, improved when nine tenths
              of them are better, worse otherwise;
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, unless every run of the change beats every run of the
              parent, which counts as improved;
  worse       the change's median is worse than the parent's by more than
              the bound;
  improved    the change wins at least nine tenths of the runs paired by
              seed, and its median is better by more than the parent's own
              spread;
  unchanged   otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WIN_SHARE = 0.9

# Metrics in the records' "details": name -> (better, bound). Each applies to
# some workloads only, so BENCHMARK.json, whose metrics every workload must
# report, cannot hold them. The final losses and failed_frac are fixed by the seed.
DETAILS = {
    "train_steps_per_s": ("higher", 0.1),
    "final_loss": ("lower", 0.0),
    "final_loss_baseline": ("lower", 0.0),
    "final_loss_random": ("lower", 0.0),
    "prep_graphs_per_s": ("higher", 0.1),
    "predict_graphs_per_s": ("higher", 0.1),
    "predict_ms_p50": ("lower", 0.1),
    "predict_ms_tail": ("lower", 0.25),
    "checkpoint_save_s": ("lower", 0.15),
    "checkpoint_load_s": ("lower", 0.15),
    "load_dataset_s": ("lower", 0.15),
    "failed_frac": ("lower", 0.0),
}


def load(path: str) -> dict:
    """workload -> metric -> {seed: value} over the untraced records."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            metrics = out.setdefault(record["workload"], {})
            for section in ("end_to_end", "details"):
                for name, entry in record[section].items():
                    metrics.setdefault(name, {})[record["seed"]] = entry["value"]
    return out


def specs() -> dict:
    """metric name -> (better, bound) from BENCHMARK.json and DETAILS."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    table = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    table.update(DETAILS)
    return table


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple:
    """(relative gain of the change's median, verdict); gain > 0 is better."""
    sign = 1.0 if better == "higher" else -1.0
    a, b = list(parent.values()), list(change.values())
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    seeds = parent.keys() & change.keys()
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    if bound == 0:
        if all(change[s] == parent[s] for s in seeds):
            return gain, "unchanged"
        return gain, "improved" if wins >= WIN_SHARE * len(seeds) else "worse"
    beats_every_run = min(b) > max(a) if better == "higher" else max(b) < min(a)
    if min(len(a), len(b)) >= 2 and beats_every_run:
        return gain, "improved"
    if max(spread(a), spread(b)) > bound:
        return gain, "unresolved"
    if gain < -bound:
        return gain, "worse"
    if seeds and wins >= WIN_SHARE * len(seeds) and gain > spread(a):
        return gain, "improved"
    return gain, "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="records of the parent commit (JSONL)")
    parser.add_argument("change", help="records of the change (JSONL)")
    args = parser.parse_args(argv)
    parent, change, table = load(args.parent), load(args.change), specs()
    print(f"{'workload':14} {'metric':22} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'gain':>8}  verdict")
    for workload in sorted(parent.keys() & change.keys()):
        for name in sorted(parent[workload].keys() & change[workload].keys()):
            if name not in table:
                continue
            a, b = parent[workload][name], change[workload][name]
            gain, word = verdict(a, b, *table[name])
            cells = []
            for side in (a, b):
                q1, q2, q3 = quartiles(list(side.values()))
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(side)}")
            print(f"{workload:14} {name:22} {cells[0]:34} {cells[1]:34} "
                  f"{100 * gain:+7.2f}%  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
