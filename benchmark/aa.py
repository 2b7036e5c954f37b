#!/usr/bin/env python3
"""A/A self-check of the benchmark: `run.sh --aa N [--trace 0|1]`.

Runs N sets of ten runs per workload, each run with another seed, on the one
build run.sh just made. For every end-to-end metric and workload it prints
the spread of each set -- the distance between the first and third quartile
of the ten values as a share of their median, as the driver computes it --
against the metric's bound in BENCHMARK.json, and, from the second set on,
how much worse the set's median is than the first set's. It fails when a
spread (other than setup_s's) or a median shift exceeds its bound, when a run
fails, or when a run's metric names differ from BENCHMARK.json.
With `--trace 1` it checks the names of the per-layer metrics only.
"""
import json
import statistics
import subprocess
import sys

RUNS_PER_SET = 10


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{' '.join(cmd)}: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    binary, sets, trace = sys.argv[1], int(sys.argv[2]), 0
    if sys.argv[3:5] == ["--trace", "1"]:
        trace = 1
    spec = json.load(open("BENCHMARK.json"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    ok = True
    first_medians = {}
    for s in range(sets):
        for w in (w["name"] for w in spec["workloads"]):
            runs = [run(binary, w, 1 + s * RUNS_PER_SET + i, spec["run_seconds"], trace)
                    for i in range(RUNS_PER_SET if not trace else 1)]
            for values in runs:
                if sorted(values) != sorted(m["name"] for m in declared):
                    raise SystemExit(f"{w}: metric names differ from BENCHMARK.json")
            if trace:
                print(f"set {s + 1} {w}: {len(runs[0])} per-layer metrics, names match")
                continue
            for m in declared:
                values = [r[m["name"]] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                worse = ""
                verdict = "ok" if spread <= m["bound"] / 3 else "wide" if spread <= m["bound"] else "FAIL"
                if m["name"] == "setup_s" and verdict == "FAIL":
                    verdict = "wide"
                if s == 0:
                    first_medians[w, m["name"]] = median
                else:
                    shift = median / first_medians[w, m["name"]] - 1
                    if m["better"] == "higher":
                        shift = -shift
                    worse = f" median {shift:+.2%} worse than set 1"
                    if shift > m["bound"]:
                        verdict = "FAIL"
                ok &= verdict != "FAIL"
                print(f"set {s + 1} {w:<17} {m['name']:<20} median {median:<14.6g} "
                      f"spread {spread:7.2%} bound {m['bound']:4.0%}{worse}  {verdict}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
