#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 e2ebench/compare.py PARENT.jsonl CHANGE.jsonl \
        [--claim WORKLOAD:METRIC] [--benchmark BENCHMARK.json]

Each file holds the run records the benchmark appends to
`.e2ebench/runs.jsonl` (one JSON object per line); only untraced runs
count. Run the parent and the change alternately, the same number of
times per workload, so that the i-th parent run and the i-th change run
of a workload form a pair.

The claimed metric on the claimed workload must win at least nine tenths
of all pairs (ties count for neither side), over at least ten pairs, and
its median must beat the parent's by more than the parent's own
interquartile range. Every other metric/workload pair may worsen by at
most the metric's bound from BENCHMARK.json; where either side's spread
(interquartile range over median) exceeds the bound, the pair is
"unresolved" unless every change run beats every parent run.

Exit status: 0 when the claim (if any) holds and nothing regressed, 1
otherwise, 2 on bad input.
"""

import argparse
import json
import statistics
import sys

# Figures every untraced run prints and keeps in its record, outside the
# result line, with no bound in BENCHMARK.json: name -> better direction.
UNGATED = {"latency_p90_ms": "lower", "jobs_per_s": "higher"}


def load_runs(path):
    """Untraced run records of one file, grouped as {workload: [metrics]}."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if str(record.get("trace")) != "0":
                continue
            values = {name: m["value"] for name, m in record["result"]["metrics"].items()}
            values.update({name: record[name] for name in UNGATED if name in record})
            runs.setdefault(record["workload"], []).append(values)
    return runs


def summary(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def better(a, b, direction):
    """Whether value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for name, direction in UNGATED.items():
        metrics.setdefault(name, {"better": direction, "bound": None})
    workloads = [w["name"] for w in spec["workloads"]]
    parent, change = load_runs(args.parent), load_runs(args.change)
    # Workloads run by hand (not gated by BENCHMARK.json) compare too.
    workloads += sorted((parent.keys() & change.keys()) - set(workloads))

    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in metrics:
            print(f"unknown claim {args.claim!r}", file=sys.stderr)
            return 2
        claim = (workload, metric)

    ok = True
    print(
        f"{'workload':<12} {'metric':<16} "
        + "parent median [q1, q3]".ljust(34)
        + " change median [q1, q3]".ljust(35)
        + f" {'delta':>8}  verdict"
    )
    for workload in workloads:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:<12} (no runs on one side)")
            continue
        for name, m in metrics.items():
            p = [r[name] for r in p_runs if name in r]
            c = [r[name] for r in c_runs if name in r]
            if not p or not c:
                continue
            direction, bound = m["better"], m["bound"]
            pm, pq1, pq3 = summary(p)
            cm, cq1, cq3 = summary(c)
            worse = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
            spread = max((pq3 - pq1) / pm, (cq3 - cq1) / cm)
            all_better = all(better(x, y, direction) for x in c for y in p)
            if (workload, name) == claim:
                pairs = list(zip(p, c))
                wins = sum(better(cv, pv, direction) for pv, cv in pairs)
                gap = abs(cm - pm)
                met = (
                    len(pairs) >= 10
                    and wins >= 0.9 * len(pairs)
                    and better(cm, pm, direction)
                    and gap > pq3 - pq1
                )
                verdict = f"claim {'MET' if met else 'NOT MET'} ({wins}/{len(pairs)} pairs won, gap {gap:.4g} vs parent IQR {pq3 - pq1:.4g})"
                ok &= met
            elif bound is None:
                verdict = "not gated"
            elif worse > bound:
                verdict = f"REGRESSION (worse by {worse:.1%} > bound {bound:.0%})"
                ok = False
            elif spread > bound and not all_better:
                verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
            else:
                verdict = f"within bound {bound:.0%}"
            print(
                f"{workload:<12} {name:<16} {pm:>12.5g} [{pq1:.5g}, {pq3:.5g}]".ljust(64)
                + f" {cm:>12.5g} [{cq1:.5g}, {cq3:.5g}]".ljust(35)
                + f" {-worse:>+8.1%}  {verdict}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
