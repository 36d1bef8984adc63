"""Measures the benchmark's baseline and writes it to perfbench/baseline.json.

Run from the root of the tree, after one run.sh build:

    python3 perfbench/baseline.py            # two sets of ten seeds

Each set runs every workload once per seed, a workload's seeds back to
back, the workloads in turn. Per set and workload it records each
end-to-end metric's median, quartiles (Python's statistics.quantiles,
n=4) and spread (q3 - q1) / median, and the host's speed over the set:
the median calibration-loop time and the median CPU time of the
reference slices. worse_in_second_set is the share by which the second
set's median is worse than the first's (negative: better).
"""

import argparse
import json
import platform
import re
import statistics
import subprocess

SEEDS = [list(range(1, 11)), list(range(11, 21))]


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    verdict = json.loads(out[-1])
    if not verdict["correct"] or verdict["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {out[-1]}")
    host = next(json.loads(l[5:]) for l in out if l.startswith("host "))
    ref = next(float(m.group(1)) for l in out
               if (m := re.match(r"\s+reference slice cpu\s+(\S+)", l)))
    return verdict["metrics"], host, ref


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": round((q3 - q1) / med, 4)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sets, host = [], None
    for seeds in SEEDS:
        workloads = {}
        for w in (w["name"] for w in bench["workloads"]):
            values, calib, refs = {}, [], []
            for seed in seeds:
                metrics, host, ref = run(w, seed, seconds)
                calib.append(host["calib_ms"])
                refs.append(ref)
                for name, m in metrics.items():
                    values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
                print(w, seed, {k: round(v[0][-1], 6) for k, v in values.items()} | {"ref_slice_cpu_ms": ref},
                      flush=True)
            workloads[w] = {"host_calib_ms": statistics.median(calib),
                            "ref_slice_cpu_ms": statistics.median(refs)}
            for name, (v, unit) in values.items():
                workloads[w][name] = summary(v) | {"unit": unit}
        sets.append({"seeds": seeds, "workloads": workloads})
    worse = {}
    for w, first in sets[0]["workloads"].items():
        second = sets[1]["workloads"][w]
        worse[w] = {}
        for name, sign in better.items():
            a, b = first[name]["median"], second[name]["median"]
            worse[w][name] = round((b - a) / a * (1 if sign == "lower" else -1), 4)
    host.pop("calib_ms")
    host["machine"] = platform.machine()
    with open(args.out, "w") as f:
        json.dump({"host": host, "run_seconds": seconds, "note": __doc__.split("\n\n")[-1].strip(),
                   "sets": sets, "worse_in_second_set": worse}, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
