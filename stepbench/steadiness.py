#!/usr/bin/env python3
"""Steadiness check for the step benchmark.

    python3 stepbench/steadiness.py [--a ROOT] [--b ROOT] [--out FILE]

Each of ROUNDS rounds runs every workload of BENCHMARK.json three times,
untraced and for its run_seconds: set A and set B at the default seed of
pins.json, and set "seeds" at seed SEED_BASE + round from checkout A. The order alternates (A, seeds, B, then B, seeds, A, ...)
so that host drift falls on all three alike. A and B are checkouts holding
stepbench/run.py; both default to this one, so the check compares the same
code with itself.

A and B are the same-code check: same code, same seed, so only the host
moves them. The seeds set is what a check with a new seed per run sees:
the host plus load that depends on the seed. For each workload and
end-to-end metric the report gives each set's median and quartile spread
(the distance between the first and third quartile of
statistics.quantiles(n=4), as a share of the median) and how much worse
B's median is than A's, against the bound in BENCHMARK.json. It exits 1
unless every spread of every set is within its bound and B's median is
within its bound of A's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 1000
ROUNDS = 10
SETS = ("A", "B", "seeds")
RUN_TIMEOUT_S = 900  # the first run in a checkout builds


def run_once(root, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(root, "stepbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if done.returncode != 0 or not result["correct"]:
        sys.exit("run failed: %s %s seed %d\n%s"
                 % (root, workload, seed, done.stdout))
    host = next(line for line in lines if line.startswith("host.ref_ms"))
    ref = [float(host.split()[2]), float(host.split()[4])]
    return {name: m["value"] for name, m in result["metrics"].items()}, ref


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", default=ROOT)
    parser.add_argument("--b", default=ROOT)
    parser.add_argument("--out", default=None, help="write the report here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        default_seed = json.load(f)["default_seed"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    roots = {"A": args.a, "B": args.b, "seeds": args.a}

    samples = {w: {name: [] for name in SETS} for w in workloads}
    for r in range(ROUNDS):
        order = ("A", "seeds", "B") if r % 2 == 0 else ("B", "seeds", "A")
        for w in workloads:
            for name in order:
                seed = SEED_BASE + r if name == "seeds" else default_seed
                values, ref = run_once(roots[name], w, seed, seconds)
                print("round %d %s %s seed %d: %s  host.ref_ms=%.1f/%.1f" % (
                    r, w, name, seed, "  ".join(
                        "%s=%.6g" % kv for kv in values.items()),
                    ref[0], ref[1]), flush=True)
                values["seed"] = seed
                values["host_ref_ms"] = ref
                samples[w][name].append(values)

    ok = True
    report = {"rounds": ROUNDS, "seconds": seconds,
              "default_seed": default_seed, "seed_base": SEED_BASE,
              "workloads": {}}
    for w in workloads:
        rows = {}
        print("\n%s  host.ref_ms median %s" % (w, "  ".join(
            "%s %.1f" % (name, statistics.median(
                ms for s in samples[w][name] for ms in s["host_ref_ms"]))
            for name in SETS)))
        for metric, m in metrics.items():
            row = {"bound": m["bound"]}
            line = "  %-20s bound %.3f" % (metric, m["bound"])
            for name in SETS:
                values = [s[metric] for s in samples[w][name]]
                row[name] = {"median": statistics.median(values),
                             "spread": spread(values)}
                if row[name]["spread"] > m["bound"]:
                    ok = False
                line += "  %s %.6g spread %.4f" % (
                    name, row[name]["median"], row[name]["spread"])
            a, b = row["A"]["median"], row["B"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            row["b_worse_by"] = worse
            line += "  B worse by %+.4f" % worse
            if worse > m["bound"]:
                ok = False
            print(line)
            rows[metric] = row
        rows["runs"] = samples[w]
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
