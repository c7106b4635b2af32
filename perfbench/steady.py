#!/usr/bin/env python3
"""Interleaved steadiness check and A/B comparison for the benchmark.

Runs the benchmark alternately in two checkouts (A, B, A, B, ...), one seed
per pair, and reports for each end-to-end metric of each workload the median,
the quartiles and the quartile spread (Q3 - Q1) / median of each side, plus
B's median against A's. Two copies of the same code must agree within the
bounds in BENCHMARK.json; a change is judged against its parent the same way.

    python3 perfbench/steady.py --a ../parent --b . --workload mcu-sweep \
        --seeds 1,2,3,4,5,6,7,8,9,10 --out steady-mcu.json

Runs whose `context` line differs between the sides on host_cpus,
pool_threads or build_type are refused: such numbers are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CONTEXT_KEYS = ("host_cpus", "pool_threads", "build_type", "workload")


def run_once(checkout, workload, seed, seconds, trace=0):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run failed in %s (%s seed %d)"
                           % (checkout, workload, seed))
    context = {}
    for line in lines:
        if line.startswith("context "):
            context = dict(item.split("=", 1) for item in line.split()[1:])
    result = json.loads(lines[-1])
    result["context"] = context
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def check_context(runs):
    first = runs[0]["context"]
    for run in runs[1:]:
        for key in CONTEXT_KEYS:
            if run["context"].get(key) != first.get(key):
                raise SystemExit("refusing to compare: %s differs (%s vs %s)"
                                 % (key, first.get(key),
                                    run["context"].get(key)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="first checkout")
    parser.add_argument("--b", required=True, help="second checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated, one A/B pair per seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args()

    with open(os.path.join(args.b, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = {"a": [], "b": []}
    for i, seed in enumerate(seeds):
        # Alternate which side runs first so drift hits both equally.
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            checkout = args.a if side == "a" else args.b
            result = run_once(checkout, args.workload, seed, seconds)
            result["seed"] = seed
            runs[side].append(result)
            print("%s seed %d %s" % (side, seed, json.dumps(result["metrics"])),
                  flush=True)
    check_context(runs["a"] + runs["b"])

    summary = {}
    ok = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sides = {side: spread([r["metrics"][name]["value"] for r in runs[side]])
                 for side in runs}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (sides["b"]["median"] / sides["a"]["median"] - 1.0)
        steady = all(s["spread"] <= bound / 3 for s in sides.values())
        agree = worse <= bound
        if name != "setup_s":
            ok = ok and steady
        ok = ok and agree
        summary[name] = {"a": sides["a"], "b": sides["b"],
                         "b_worse_by": worse, "bound": bound,
                         "spread_below_third_of_bound": steady,
                         "medians_agree": agree}
        print("%-12s A med %.6g spread %.3f | B med %.6g spread %.3f | "
              "B worse by %+.3f (bound %.2f)%s"
              % (name, sides["a"]["median"], sides["a"]["spread"],
                 sides["b"]["median"], sides["b"]["spread"], worse, bound,
                 "" if steady and agree else "  <-- outside"))
    failures = sum(r["failed"] for side in runs.values() for r in side)
    incorrect = sum(not r["correct"] for side in runs.values() for r in side)
    print("failed operations %d, incorrect runs %d" % (failures, incorrect))
    ok = ok and failures == 0 and incorrect == 0
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": summary, "steady": ok}, f,
                      indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
