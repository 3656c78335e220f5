"""Runs the repository benchmark over several seeds and records the spread.

    python3 ledger/perf/spread.py OUT.json [--seeds 1-10] [--workloads a,b]
                                           [--against EARLIER.json]

Run from the repository root. For every workload in BENCHMARK.json and
every seed, it runs BENCHMARK.json's command untraced (`--trace 0`),
keeps the result line, and then reports each end-to-end metric's median,
quartiles and spread: the distance between the quartiles as a share of
the median, as `statistics.quantiles(values, n=4)` gives them. A spread
is flagged when it reaches a third of the metric's bound. With
`--against`, each median is also compared with the same workload's
median in an earlier record, and a shift larger than the bound, in
either direction, is flagged. OUT.json gets every result line and the
summary. The exit code is 1 when any run failed, printed an incorrect
result, or was flagged.
"""

import json
import os
import platform
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    if not argv or argv[0].startswith("-"):
        sys.exit(__doc__)
    out_path, args = argv[0], dict(zip(argv[1::2], argv[2::2]))
    bench = json.load(open("BENCHMARK.json"))
    earlier = json.load(open(args["--against"]))["summary"] if "--against" in args else {}
    seeds = seed_range(args.get("--seeds", "1-10"))
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.get("--workloads", ",".join(names)).split(",")
    seconds = str(bench["run_seconds"])
    record = {"command": bench["command"], "run_seconds": bench["run_seconds"],
              "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs",
              "seeds": seeds, "runs": {}, "summary": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            runs.append({"seed": seed, "exit": proc.returncode, "result": result})
            if proc.returncode != 0 or not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        record["runs"][workload] = runs
        summary = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flags = [] if spread < bound / 3 else ["UNSTEADY"]
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound}
            line = (f"{workload:22s} {name:14s} median {median:<14.6g}"
                    f" spread {spread:.4f} bound {bound}")
            before = earlier.get(workload, {}).get(name)
            if before:
                shift = median / before["median"] - 1
                summary[name]["shift"] = shift
                line += f" shift {shift:+.4f}"
                flags += [] if abs(shift) <= bound else ["SHIFTED"]
            ok = ok and not flags
            print(" ".join([line] + flags))
        record["summary"][workload] = summary
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
