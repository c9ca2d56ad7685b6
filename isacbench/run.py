#!/usr/bin/env python3
"""Benchmark of the isac_pareto package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 isacbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole rounds of operations for at least ``--seconds`` and
prints the end-to-end metrics.  ``--trace 1`` wraps the package's public
functions (see tracing.py), runs one set-up and a fixed number of rounds, so
that its counts repeat exactly, and prints the per-layer metrics; it also
writes them, with a per-function table, to ``isacbench_out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# one process, one thread: pin BLAS before numpy loads, keep the sweep serial
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ISAC_PARETO_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "isacbench_out"

SETUP_REPS = 3
SETUP_PROBES = 5
# the latency percentile reported as latency_ms_tail: the highest of
# p99/p90/p50 with at least ten samples beyond it in every run
TAIL_PERCENTILE = {"frontier": 90.0, "stress": 99.0, "oracle": 50.0}
MAX_REPORTED_ERRORS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_rounds(wl, *, seconds=None, rounds=None, tracer=None, speedo=None):
    """Run whole rounds of operations, each timed on its own; checks and
    host-speed probes run untimed between operations.  Stops after
    ``rounds`` rounds, or once ``min_rounds`` are done and ``seconds`` have
    passed."""
    from checks import CheckError

    lat, starts, failures, wrong, raised = [], [], {}, [], []
    k = 0
    begin = time.perf_counter()
    while True:
        for op in wl.round(k):
            if speedo is not None:
                speedo.maybe_sample()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # the package failed this op: count it as failed
                out = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            lat.append(dt)
            starts.append(t0)
            if isinstance(out, Exception):
                raised.append(f"{op.label}: raised {out!r}")
                ok = False
            else:
                try:
                    ok = wl.check(op, out)
                except CheckError as exc:
                    wrong.append(f"{op.label}: wrong output: {exc}")
                    ok = True
            if not ok:
                failures[op.label] = failures.get(op.label, 0) + 1
        k += 1
        if rounds is not None:
            if k >= rounds:
                break
        elif k >= wl.min_rounds and time.perf_counter() - begin >= seconds:
            break
    return {"latencies": lat, "starts": starts, "rounds": k, "failures": failures,
            "wrong": wrong, "errors": wrong + raised}


def _percentile_ms(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values), q)) * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isac_pareto" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'isac_pareto'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import isac_pareto
    if Path(isac_pareto.__file__).resolve().parent != (SRC / "isac_pareto").resolve():
        print(f"error: imported isac_pareto from {isac_pareto.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    import_s = time.perf_counter() - T_START
    from speed import Speedometer

    wl = WORKLOADS[args.workload](OUT, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}"

    if args.trace:
        from tracing import TraceError, Tracer
        tracer = Tracer()
        try:
            tracer.install()
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        tracer.active = True
        wl.setup()
        tracer.active = False
        res = run_rounds(wl, rounds=wl.trace_rounds, tracer=tracer)
        tracer.uninstall()
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics().items()}
        extra = {"functions": tracer.function_table(),
                 "traced_latency_ms_p50": _percentile_ms(res["latencies"], 50.0)}
    else:
        speedo = Speedometer(wl.probe)
        reps = []
        for _ in range(SETUP_REPS):
            speedo.sample(SETUP_PROBES)
            t0 = time.perf_counter()
            wl.setup()
            reps.append(time.perf_counter() - t0)
        speedo.sample(SETUP_PROBES)
        setup_raw = import_s + statistics.median(reps)
        setup_slowdown = statistics.median(speedo.durations) / speedo.reference_s
        res = run_rounds(wl, seconds=args.seconds, speedo=speedo)
        speedo.sample()
        raw = res["latencies"]
        lat = [d / speedo.slowdown(t, t + d) for t, d in zip(res["starts"], raw)]
        passed = len(lat) - sum(res["failures"].values()) - len(res["wrong"])
        tail = TAIL_PERCENTILE[args.workload]
        metrics = {
            "throughput_ops_s": {"value": passed / sum(lat), "unit": "1/s"},
            "latency_ms_p50": {"value": _percentile_ms(lat, 50.0), "unit": "ms"},
            "latency_ms_tail": {"value": _percentile_ms(lat, tail), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": setup_raw / setup_slowdown, "unit": "s"},
        }
        extra = {"tail_percentile": tail, "import_s": import_s, "setup_reps_s": reps,
                 "raw": {"throughput_ops_s": passed / sum(raw),
                         "latency_ms_p50": _percentile_ms(raw, 50.0),
                         "latency_ms_tail": _percentile_ms(raw, tail),
                         "setup_s": setup_raw},
                 "setup_slowdown": setup_slowdown,
                 "median_slowdown": statistics.median(speedo.durations) / speedo.reference_s,
                 "probes": len(speedo.durations)}

    attempted = len(res["latencies"])
    failed = sum(res["failures"].values())
    for line in res["errors"][:MAX_REPORTED_ERRORS]:
        print(line, file=sys.stderr)
    result = {"correct": not res["wrong"], "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=res["rounds"], failed_ops=res["failures"],
                  wrong=res["wrong"][:MAX_REPORTED_ERRORS], **extra)
    name = f"trace_{tag}.json" if args.trace else f"result_{tag}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
