"""A/A check: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/aa.py --runs 10                 # every workload
    python3 perfbench/aa.py --runs 5 --workload query-small --traced

Set A uses seeds ``first .. first+runs-1`` and set B the next ``runs``
seeds; the runs of the two sets alternate.  Per workload and end-to-end
metric it prints both medians, the gap between them in the metric's
"worse" direction next to its bound, and each set's spread (interquartile
range over median) with and without host-speed scaling.  ``--traced`` adds
one traced run per seed of set A and reports the tracing overhead
(``1 − trace.ops_per_s ÷ ops_per_s``) and the layer coverage.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stdout}{completed.stderr}")
    result = json.loads(lines[-1])
    raw = [line for line in lines if line.startswith("raw ")]
    result["raw"] = json.loads(raw[-1][4:]) if raw else {}
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", action="store_true")
    arguments = parser.parse_args()
    workloads = arguments.workload or [w["name"] for w in config["workloads"]]
    seeds = range(arguments.first_seed, arguments.first_seed + arguments.runs)

    verdict = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for seed in seeds:
            for label, offset in (("A", 0), ("B", arguments.runs)):
                sets[label].append(run_once(workload, seed + offset, arguments.seconds, 0))
        shares = {label: {r["failed"] / r["attempted"] for r in runs}
                  for label, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        print(f"\n{workload}: correct={correct} failed share A={sorted(shares['A'])} "
              f"B={sorted(shares['B'])}")
        print(f"{'metric':<16}{'median A':>12}{'median B':>12}{'gap':>8}{'bound':>7}"
              f"{'spread A':>10}{'spread B':>10}{'raw A':>8}{'raw B':>8}")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            gap = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            if metric["better"] == "higher":
                gap = -gap
            raw = [spread([r["raw"][name] for r in sets[label]]) for label in "AB"]
            ok = gap <= bound and max(spread(a), spread(b)) <= bound
            verdict = verdict and ok and correct
            print(f"{name:<16}{statistics.median(a):>12.4f}{statistics.median(b):>12.4f}"
                  f"{gap:>8.3f}{bound:>7.2f}{spread(a):>10.3f}{spread(b):>10.3f}"
                  f"{raw[0]:>8.3f}{raw[1]:>8.3f}{'' if ok else '  FAIL'}")
        if arguments.traced:
            traced = [run_once(workload, seed, arguments.seconds, 1) for seed in seeds]
            plain = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in sets["A"])
            rate = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in traced)
            cover = min(r["metrics"]["trace.layer_coverage"]["value"] for r in traced)
            print(f"tracing overhead {1 - rate / plain:.3f}, lowest layer coverage {cover:.3f}")
    print("\nA/A " + ("agrees within bounds" if verdict else "DISAGREES"))
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
