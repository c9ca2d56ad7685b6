"""Alternating pairs of benchmark runs, a base tree against a changed one.

    python tests/bench_pairs.py --base HEAD~1 --change HEAD --pairs 10 --out BENCH_36.json

Each side is a fresh ``git archive`` copy of its revision, unpacked into a
temporary directory, so that no build output, bytecode or result file of
the working tree leaks into either run.  For every pair and every workload
of BENCHMARK.json the two sides run ``isacbench/run.py --trace 0`` one
after the other, the base first on even pairs and the change first on odd
ones, each pair with its own seed, and then ``--trace 1`` for the per-layer
metrics, in the same order.

The output file records the machine, Python, numpy and the environment
that bears on timing; the seeds; every run's printed metrics, which are
normalized by the benchmark's host-speed probe, and the raw figures of its
result file; per workload and end-to-end metric, the median with q1 and q3
of each side, normalized and raw, and the number of pairs the change won;
and per workload and layer metric, the median with q1 and q3 of each side's
traced runs, and for a count, whether it repeated exactly in every traced
run of its side.  A run that exits non-zero, or whose output is not
``correct``, stops the script with exit status 1 and writes nothing; a
count that does not repeat is named on stderr, and the script exits 1 after
writing the file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# the end-to-end metrics, with the direction in which each one is better
BETTER = {m["name"]: m["better"] for m in BENCH["end_to_end"]}
# the layer metrics of a traced run, with their units
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision of the base tree")
    ap.add_argument("--change", required=True, help="revision of the changed tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--seed", type=int, default=36001,
                    help="seed of the first pair; pair i runs seed + i")
    ap.add_argument("--out", required=True, type=Path)
    return ap.parse_args(argv)


def checkout(rev, dest):
    """Unpack ``git archive rev`` into dest; returns the commit and the
    tree hash of its ``src``, which names the code that ran."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    ids = [subprocess.run(["git", "-C", str(ROOT), "rev-parse", name], check=True,
                          capture_output=True, text=True).stdout.strip()
           for name in (f"{rev}^{{commit}}", f"{rev}:src")]
    return {"rev": rev, "commit": ids[0], "src_tree": ids[1]}


def run(tree, workload, seed, seconds, trace):
    """One run of isacbench/run.py in ``tree``: its printed metrics and, for
    an untraced run, the raw figures of its result file."""
    cmd = [sys.executable, "isacbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] is not True:
        sys.exit(f"{' '.join(cmd)} in {tree} gave wrong output:\n{proc.stderr}")
    out = {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    if not trace:
        record = json.loads((tree / "isacbench_out" / f"result_{workload}_seed{seed}.json")
                            .read_text())
        out["raw"] = dict(record["raw"], peak_rss_mb=out["metrics"]["peak_rss_mb"])
    return out


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0]).tolist()
    return {"median": med, "q1": q1, "q3": q3}


def summary(runs):
    """Per end-to-end metric: each side's quartiles, normalized and raw, and
    how many pairs the change won."""
    out = {}
    for name, better in BETTER.items():
        entry = {}
        for kind in ("metrics", "raw"):
            base = [r[kind][name] for r in runs["base"]]
            change = [r[kind][name] for r in runs["change"]]
            wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
            entry["normalized" if kind == "metrics" else "raw"] = {
                "base": quartiles(base), "change": quartiles(change),
                "change_median_over_base": statistics.median(change) / statistics.median(base),
                "change_wins": wins}
        out[name] = entry
    return out


def layer_summary(traced):
    """Per layer metric: each side's quartiles over its traced runs and, for
    a count, whether every traced run of that side gave the same value."""
    out = {}
    for name, unit in LAYER_UNITS.items():
        entry = {}
        for side in ("base", "change"):
            values = [r["metrics"][name] for r in traced[side]]
            entry[side] = quartiles(values)
            if unit == "count":
                entry[side]["repeats"] = len(set(values)) == 1
        out[name] = entry
    return out


def machine():
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": model,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "env": {k: os.environ.get(k) for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED",
                                                   "MALLOC_TRIM_THRESHOLD_")}}


def main(argv=None):
    args = parse_args(argv)
    seeds = [args.seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        revs = {side: checkout(rev, trees[side])
                for side, rev in (("base", args.base), ("change", args.change))}
        runs = {w: {"base": [], "change": []} for w in WORKLOADS}
        traced = {w: {"base": [], "change": []} for w in WORKLOADS}
        start = time.time()
        for i, seed in enumerate(seeds):
            for w in WORKLOADS:
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[w][side].append(run(trees[side], w, seed, args.seconds, 0))
                for side in order:
                    traced[w][side].append(run(trees[side], w, seed, args.seconds, 1))
            print(f"pair {i + 1}/{args.pairs} done after {time.time() - start:.0f} s",
                  file=sys.stderr)
    report = {"machine": machine(), "trees": revs, "seeds": seeds, "seconds": args.seconds,
              "order": "pair i runs each workload untraced, base then change for even i "
                       "and change then base for odd i, then traced in the same order",
              "workloads": {w: {"summary": summary(runs[w]), "runs": runs[w],
                                "layers": layer_summary(traced[w]), "traced": traced[w]}
                            for w in WORKLOADS}}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for w in WORKLOADS:
        for name, entry in report["workloads"][w]["summary"].items():
            n = entry["normalized"]
            print(f"{w:9s} {name:17s} base {n['base']['median']:10.4g}  "
                  f"change {n['change']['median']:10.4g}  wins {n['change_wins']}/{args.pairs}")
    varied = [f"{w} {name} ({side})" for w in WORKLOADS
              for name, entry in report["workloads"][w]["layers"].items()
              for side in ("base", "change") if entry[side].get("repeats") is False]
    if varied:
        print("counts that differ between traced runs: " + ", ".join(varied), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
