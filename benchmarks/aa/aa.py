#!/usr/bin/env python3
"""A/A evidence for the benchmark: run it the way the driver does and tabulate.

Run from the repository root:

    python3 benchmarks/aa/aa.py run  set1 1     # ten seeds from 1, every workload
    python3 benchmarks/aa/aa.py run  set2 11    # ten more, same tree
    python3 benchmarks/aa/aa.py table set1 set2 table   # writes benchmarks/aa/table.md

A set is ten runs per workload, each with another --seed. The table gives, per
workload and end-to-end metric, each set's median, the spread of each set (the
distance between its first and third quartile as a share of its median, with
statistics.quantiles(values, n=4)) and how far the second median is from the
first, beside the bound BENCHMARK.json fixes for the metric.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_set(name, first_seed):
    out = {}
    for w in SPEC["workloads"]:
        runs = []
        for seed in range(first_seed, first_seed + 10):
            cmd = SPEC["command"] + ["--workload", w["name"], "--seed", str(seed),
                                     "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit("%s seed %d: exit %d\n%s" % (w["name"], seed, p.returncode, p.stdout[-2000:] + p.stderr[-2000:]))
            rep = json.loads(p.stdout.strip().split("\n")[-1])
            assert rep["correct"] and rep["failed"] == 0, rep
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in rep["metrics"].items()}})
            print(w["name"], seed, "%.3f" % runs[-1]["metrics"]["frames_per_s"], flush=True)
        out[w["name"]] = runs
    json.dump(out, open(os.path.join(HERE, name + ".json"), "w"), indent=1)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def table(first, second, out):
    a = json.load(open(os.path.join(HERE, first + ".json")))
    b = json.load(open(os.path.join(HERE, second + ".json")))
    lines = ["| workload | metric | median 1 | median 2 | spread 1 | spread 2 | median 2 worse by | bound |",
             "|---|---|---|---|---|---|---|---|"]
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a[w["name"]]]
            vb = [r["metrics"][m["name"]] for r in b[w["name"]]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            lines.append("| %s | %s | %.6g | %.6g | %.4f | %.4f | %+.4f | %.2f |" % (
                w["name"], m["name"], ma, mb, spread(va), spread(vb), worse, m["bound"]))
    open(os.path.join(HERE, out + ".md"), "w").write("\n".join(lines) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run_set(sys.argv[2], int(sys.argv[3]))
    else:
        table(*sys.argv[2:5])
