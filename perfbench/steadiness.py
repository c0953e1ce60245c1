#!/usr/bin/env python3
"""Measure how steady the benchmark is on the host it runs on.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 5] [--workloads a,b] [--out FILE]

For each workload it makes two interleaved sets of untraced runs (set A,
set B, set A, ...), each run with its own seed, going round robin over the
workloads so that each workload's runs span the whole record, and reports for every
end-to-end metric each set's median and spread, the spread being the
distance between the first and third quartiles of the run values
(statistics.quantiles(values, n=4)) as a share of their median. It also
reports the spread that statistics of the raw, not host-corrected, pass
times (minimum, lower quartile, median) and the host reference would have
had, and then runs the traced run
twice on one seed to show which per-layer counts repeat exactly.

The record is printed as JSON and, with --out, written to FILE; --md
writes a Markdown summary of it.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))
COUNTS = [m["name"] for m in BENCH["per_layer"]
          if m["unit"] in ("count", "words", "MB")]


def run(workload, seed, trace, seconds):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().split("\n")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def summarise(values):
    return {"median": statistics.median(values), "spread": spread(values),
            "values": values}


def untraced_runs(names, runs, seconds, base_seed):
    """Runs every workload 2 * runs times, round robin over the workloads,
    so that each workload's runs are spread over the whole record."""
    sets = {name: {"A": [], "B": []} for name in names}
    for i in range(2 * runs):
        for j, name in enumerate(names):
            seed = base_seed + 100 * j + i
            context, result = run(name, seed, 0, seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: checks failed: %s" % (name, seed, result))
            sets[name]["AB"[i % 2]].append((seed, context, result))
            print("%s seed %d: %s" % (name, seed, json.dumps(result["metrics"])),
                  file=sys.stderr)
    return sets


def workload_record(sets):
    record = {"sets": {}, "all": {}}
    everything = sets["A"] + sets["B"]
    for metric in BENCH["end_to_end"]:
        key = metric["name"]
        for label, rows in sets.items():
            record["sets"].setdefault(label, {})[key] = summarise(
                [r["metrics"][key]["value"] for _, _, r in rows])
        record["all"][key] = summarise(
            [r["metrics"][key]["value"] for _, _, r in everything])
        a = record["sets"]["A"][key]["median"]
        b = record["sets"]["B"][key]["median"]
        record["all"][key]["b_over_a"] = b / a
        record["all"][key]["bound"] = metric["bound"]
    record["wall_s_by_statistic"] = {
        stat: summarise([c["passes_s"][stat] for _, c, _ in everything])
        for stat in ("min", "q1", "median")}
    record["host_ref_median"] = summarise(
        [c["host_ref_s"]["median"] for _, c, _ in everything])
    record["passes_per_run"] = [c["passes_s"]["count"] for _, c, _ in everything]
    record["host"] = everything[0][1]["host"]
    return record


def counts_record(name, seconds, seed):
    first = run(name, seed, 1, seconds)[1]["metrics"]
    second = run(name, seed, 1, seconds)[1]["metrics"]
    return {key: {"first": first[key]["value"], "second": second[key]["value"],
                  "repeats": first[key]["value"] == second[key]["value"]}
            for key in COUNTS}


def markdown(record):
    lines = ["# Steadiness record", "",
             "Made by `python3 perfbench/steadiness.py` on %s (%s, %d-second runs, "
             "two interleaved sets of %d runs per workload, round robin over the "
             "workloads, a new seed per run)."
             % (record["date"], record["machine"], record["run_seconds"],
                record["runs_per_set"]), "",
             "Spread = (Q3 - Q1) / median over the runs' values "
             "(`statistics.quantiles(n=4)`). B/A = set B median over set A median.", "",
             "| workload | metric | median | spread (all) | spread A | spread B | B/A | bound |",
             "|---|---|---|---|---|---|---|---|"]
    for name, entry in record["workloads"].items():
        for key, v in entry["all"].items():
            a, b = entry["sets"]["A"][key], entry["sets"]["B"][key]
            lines.append("| %s | %s | %.6g | %.3f | %.3f | %.3f | %.3f | %.2f |" % (
                name, key, v["median"], v["spread"], a["spread"], b["spread"],
                v["b_over_a"], v["bound"]))
    lines += ["", "Spread of statistics of the raw (not host-corrected) pass times, "
              "and of the host reference's median time (`wall_s` is the median "
              "of host-corrected passes):", "",
              "| workload | raw min | raw lower quartile | raw median | host reference |",
              "|---|---|---|---|---|"]
    for name, entry in record["workloads"].items():
        by = entry["wall_s_by_statistic"]
        lines.append("| %s | %.3f | %.3f | %.3f | %.3f |" % (
            name, by["min"]["spread"], by["q1"]["spread"], by["median"]["spread"],
            entry["host_ref_median"]["spread"]))
    counted = [(n, e["counts"]) for n, e in record["workloads"].items() if "counts" in e]
    if counted:
        lines += ["", "Count-type per-layer metrics, two traced runs on one seed "
                  "(layers the workload does not exercise come from the fixed probes):", "",
                  "| workload | metric | first | second | repeats |", "|---|---|---|---|---|"]
        for name, counts in counted:
            for key, c in counts.items():
                if c["first"] or c["second"]:
                    lines.append("| %s | %s | %.10g | %.10g | %s |" % (
                        name, key, c["first"], c["second"],
                        "yes" if c["repeats"] else "no"))
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--no-counts", action="store_true",
                        help="skip the traced runs that check counts repeat")
    parser.add_argument("--out")
    parser.add_argument("--md", help="write a Markdown summary here")
    parser.add_argument("--from-record",
                        help="summarise an existing record instead of running")
    args = parser.parse_args()
    if args.from_record:
        with open(args.from_record) as f:
            record = json.load(f)
        with open(args.md, "w") as f:
            f.write(markdown(record))
        return
    started = time.time()
    record = {"date": time.strftime("%Y-%m-%d %H:%M:%S"),
              "machine": platform.machine(), "runs_per_set": args.runs,
              "run_seconds": args.seconds, "workloads": {}}
    names = args.workloads.split(",")
    runs = untraced_runs(names, args.runs, args.seconds, args.seed)
    for name in names:
        entry = workload_record(runs[name])
        if not args.no_counts:
            entry["counts"] = counts_record(name, args.seconds, args.seed)
        record["workloads"][name] = entry
    record["elapsed_s"] = time.time() - started
    text = json.dumps(record, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if args.md:
        with open(args.md, "w") as f:
            f.write(markdown(record))
    print(text)


if __name__ == "__main__":
    main()
