"""Steadiness check: two sets of runs of the same code, compared per metric.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --seconds 10 --workload unary_giop

Two sets each run every chosen workload ``--runs`` times untraced, each
run with its own seed (the second set uses seeds the first did not).
For every end-to-end metric it prints each set's median and quartiles,
the spread (interquartile range over median) and the gap, the change
of the second median against the first (positive is worse), next to
the metric's bound from ``BENCHMARK.json``.  A metric is ``OVER`` when
a spread or the size of the gap passes the bound, in either direction,
``near`` when either passes a third of it, and ``ok`` otherwise;
``setup_s`` is judged like every other metric.  Exit status 1 means
some metric was ``OVER``, some output was wrong, or the share of failed
operations differed between the sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    output = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        timeout=180).stdout
    return json.loads(output.strip().splitlines()[-1])


def spread(values):
    """Quartiles, median and interquartile range over median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def worse_by(first, second, better):
    """How much worse *second* is than *first*, as a share of *first*
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {}  # (set, workload) -> [result]
    for set_index in range(2):
        for workload in workloads:
            runs = results.setdefault((set_index, workload), [])
            for run in range(args.runs):
                seed = 1000 + set_index * args.runs + run
                runs.append(run_once(workload, seed, seconds))
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + ", ".join(f"{name}={entry['value']:.6g}" for name, entry
                                  in runs[-1]["metrics"].items()),
                      flush=True)
    failing = False
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':<16} {'set':>3} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'spread':>7} {'gap':>7} {'bound':>6}  verdict")
        shares = []
        for set_index in range(2):
            runs = results[set_index, workload]
            attempted = sum(r["attempted"] for r in runs)
            shares.append((sum(r["failed"] for r in runs), attempted))
            if not all(r["correct"] for r in runs):
                print(f"  set {set_index + 1}: some run reported wrong output")
                failing = True
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index in range(2):
                values = [r["metrics"][name]["value"]
                          for r in results[set_index, workload]]
                q1, median, q3, width = spread(values)
                medians.append(median)
                gap = (worse_by(medians[0], median, metric["better"])
                       if set_index else 0.0)
                worst = max(width, abs(gap))
                if worst > bound:
                    verdict = "OVER"
                elif worst > bound / 3:
                    verdict = "near"
                else:
                    verdict = "ok"
                failing |= verdict == "OVER"
                print(f"  {name:<16} {set_index + 1:>3} {q1:>11.5g} "
                      f"{median:>11.5g} {q3:>11.5g} {width:>7.3f} "
                      f"{gap:>+7.3f} {bound:>6.2f}  {verdict}")
        (f1, a1), (f2, a2) = shares
        same = f1 * a2 == f2 * a1
        failing |= not same
        print(f"  failed share: {f1}/{a1} against {f2}/{a2} "
              f"({'same' if same else 'DIFFERENT'})")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
