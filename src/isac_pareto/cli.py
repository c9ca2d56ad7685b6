"""Command-line front end: frontier sweeps, single-point solves, rate-vs-SNR
tables, channel fixture generation, CSV emission and plot-script generation.

Scenario configs are JSON files carrying exactly the Scenario fields plus an
optional "fixture_path"; unknown keys are rejected, with their values, to
catch typos and retired settings.  Malformed numbers on the command line
(a non-finite threshold or cap, fewer than two grid points) exit with
status 1, as bad configs do.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .benchmarks import best_at_crb, power_split_ep, power_split_sem
from .closed_form import crb_min_point
from .metrics import trace_budget
from .scenario import (
    PRESET_NAMES,
    FixtureFormatError,
    Scenario,
    preset_scenario,
    rician_channel,
    save_fixture,
)
from .solver import feasibility_check, solve_p1
from .sweep import DEFAULT_SCHEMES, SweepRow, sweep

__all__ = ["main", "entrypoint"]

CSV_HEADER = ["scheme", "gamma_target", "crb", "rate_bps_hz", "mu", "v",
              "iterations", "kkt_residual", "status"]

_SCENARIO_KEYS = {"M", "Nc", "Ns", "L", "P", "sigma_c2", "sigma_s2", "Kc",
                  "theta", "seed"}
_OPTIONAL_KEYS = {"fixture_path"}


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    """Scientific notation with 12 significant digits; inf/nan as literals."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.11e}"


def _parse_kc(value):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinite", "infinity"):
            return math.inf
        raise ConfigError(f"Kc must be a number or 'inf', got {value!r}")
    return float(value)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return value


def load_config(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _SCENARIO_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError("unknown config keys: "
                          + ", ".join(f"{k}={raw[k]!r}" for k in sorted(unknown)))
    missing = _SCENARIO_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    fixture = raw.get("fixture_path")
    if fixture is not None:
        fixture = str((path.parent / fixture).resolve()) if not Path(fixture).is_absolute() else fixture
    try:
        scenario = Scenario(
            M=int(raw["M"]), Nc=int(raw["Nc"]), Ns=int(raw["Ns"]), L=int(raw["L"]),
            P=float(raw["P"]), sigma_c2=float(raw["sigma_c2"]),
            sigma_s2=float(raw["sigma_s2"]), Kc=_parse_kc(raw["Kc"]),
            theta=float(raw["theta"]), seed=int(raw["seed"]), fixture_path=fixture,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return scenario


def _csv_row(row: SweepRow) -> list[str]:
    return [row.scheme, _fmt(row.gamma_target), _fmt(row.crb), _fmt(row.rate),
            _fmt(row.mu), _fmt(row.v), str(row.iterations), _fmt(row.kkt_residual),
            row.status]


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_PLOT_FRONTIER = '''#!/usr/bin/env python3
# Generated plot helper.  Reads {csv_name} (in this script's directory).
# Columns: scheme,gamma_target,crb,rate_bps_hz,mu,v,iterations,kkt_residual,status
# Plots rate_bps_hz (y) against crb (x, log scale), one line per scheme;
# rows with non-finite crb are skipped.
import csv
import math
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

data = defaultdict(list)
with open(Path(__file__).parent / {csv_name!r}) as fh:
    for row in csv.DictReader(fh):
        crb = float(row["crb"])
        rate = float(row["rate_bps_hz"])
        if math.isfinite(crb) and math.isfinite(rate):
            data[row["scheme"]].append((crb, rate))

for scheme, pts in sorted(data.items()):
    pts.sort()
    plt.plot([c for c, _ in pts], [r for _, r in pts], marker=".", label=scheme)
plt.xscale("log")
plt.xlabel("CRB")
plt.ylabel("rate [bps/Hz]")
plt.legend()
plt.grid(True, alpha=0.3)
plt.tight_layout()
plt.show()
'''

_PLOT_SNR = '''#!/usr/bin/env python3
# Generated plot helper.  Reads {csv_name} (in this script's directory).
# Columns: snr_db,power,rate_optimal,rate_ep,rate_sem,status
# Plots each rate column (y) against snr_db (x); infeasible rows are skipped.
import csv
import math
from pathlib import Path

import matplotlib.pyplot as plt

cols = {{"rate_optimal": [], "rate_ep": [], "rate_sem": []}}
snr = []
with open(Path(__file__).parent / {csv_name!r}) as fh:
    for row in csv.DictReader(fh):
        if row["status"] != "ok":
            continue
        snr.append(float(row["snr_db"]))
        for name in cols:
            cols[name].append(float(row[name]))

for name, vals in cols.items():
    plt.plot(snr, vals, marker="o", label=name)
plt.xlabel("SNR [dB]")
plt.ylabel("rate [bps/Hz]")
plt.legend()
plt.grid(True, alpha=0.3)
plt.tight_layout()
plt.show()
'''


def _emit_plot_script(out_path: Path, template: str) -> Path:
    script = out_path.with_name(out_path.stem + "_plot.py")
    script.write_text(template.format(csv_name=out_path.name))
    return script


def cmd_sweep(args) -> int:
    try:
        scenario = load_config(args.config)
        H = rician_channel(scenario)
    except (ConfigError, FixtureFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip()) or DEFAULT_SCHEMES
    bad = set(schemes) - set(DEFAULT_SCHEMES)
    if bad:
        print(f"error: unknown schemes {sorted(bad)}", file=sys.stderr)
        return 1
    cap = "auto" if args.crb_cap is None else args.crb_cap
    try:
        result = sweep(H, scenario, args.points, crb_cap=cap, schemes=schemes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = sorted(result.rows, key=lambda r: (r.scheme, math.isnan(r.crb), r.crb))
    out = Path(args.out)
    _write_csv(out, CSV_HEADER, [_csv_row(r) for r in rows])
    script = _emit_plot_script(out, _PLOT_FRONTIER)
    print(f"wrote {out} and {script}")
    optimal_rows = [r for r in result.rows if r.scheme == "optimal"]
    if optimal_rows and all(r.status == "infeasible" for r in optimal_rows):
        return 2
    return 0


def _point_payload(scenario, rep, gamma):
    a = rep.allocation
    return {
        "scheme": "optimal",
        "gamma_target": gamma,
        "gamma_tilde": rep.gamma_tilde,
        "crb": rep.achieved.crb,
        "rate_bps_hz": rep.achieved.rate,
        "mu": a.mu,
        "v": a.v,
        "iterations": a.iterations,
        "kkt_residual": a.kkt_residual,
        "duality_gap": a.duality_gap,
        "status": rep.status,
        "p": [float(x) for x in a.p],
    }


def cmd_point(args) -> int:
    try:
        _finite("--gamma", args.gamma)
        scenario = load_config(args.config)
        H = rician_channel(scenario)
    except (ConfigError, FixtureFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _, pt_min = crb_min_point(H, scenario)
    gt = trace_budget(args.gamma, scenario.sigma_s2, scenario.Ns, scenario.L)
    if not feasibility_check(scenario.M, scenario.P, gt):
        print(
            f"error: gamma {args.gamma:.6g} is below the minimum achievable CRB "
            f"{pt_min.crb:.6g} ({_fmt(pt_min.crb)})",
            file=sys.stderr,
        )
        return 2
    rep = solve_p1(H, scenario, args.gamma)
    payload = _point_payload(scenario, rep, args.gamma)
    if args.json:
        print(json.dumps(payload, allow_nan=True))
    else:
        print(f"status: {rep.status}")
        print(f"gamma: {_fmt(args.gamma)}  gamma_tilde: {_fmt(rep.gamma_tilde)}")
        print("p: " + " ".join(_fmt(x) for x in rep.allocation.p))
        print(f"mu: {_fmt(rep.allocation.mu)}  v: {_fmt(rep.allocation.v)}")
        print(f"iterations: {rep.allocation.iterations}  "
              f"kkt_residual: {_fmt(rep.allocation.kkt_residual)}  "
              f"duality_gap: {_fmt(rep.allocation.duality_gap)}")
        print(f"crb: {_fmt(rep.achieved.crb)}  rate: {_fmt(rep.achieved.rate)} bps/Hz")
    if args.out:
        a = rep.allocation
        row = SweepRow("optimal", args.gamma, rep.achieved.crb, rep.achieved.rate,
                       mu=a.mu, v=a.v, iterations=a.iterations,
                       kkt_residual=a.kkt_residual, status=rep.status)
        _write_csv(Path(args.out), CSV_HEADER, [_csv_row(row)])
    return 0 if rep.status == "optimal" else 3


def cmd_rate_vs_snr(args) -> int:
    try:
        _finite("--gamma", args.gamma)
        scenario = load_config(args.config)
        H = rician_channel(scenario)
        snrs = [_finite("SNR", float(s)) for s in args.snr_list.split(",") if s.strip()]
    except (ConfigError, FixtureFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not snrs:
        print("error: empty --snr-list", file=sys.stderr)
        return 1
    rows = []
    for snr_db in snrs:
        power = scenario.sigma_c2 * 10.0 ** (snr_db / 10.0)
        scen = dataclasses.replace(scenario, P=power)
        gt = trace_budget(args.gamma, scen.sigma_s2, scen.Ns, scen.L)
        if not feasibility_check(scen.M, scen.P, gt):
            rows.append([_fmt(snr_db), _fmt(power), "nan", "nan", "nan", "infeasible"])
            continue
        rep = solve_p1(H, scen, args.gamma)
        ep = best_at_crb(power_split_ep(H, scen).points, args.gamma)
        sem = best_at_crb(power_split_sem(H, scen).points, args.gamma)
        rows.append([
            _fmt(snr_db), _fmt(power),
            _fmt(rep.achieved.rate if rep.achieved else math.nan),
            _fmt(ep.rate if ep else math.nan),
            _fmt(sem.rate if sem else math.nan),
            "ok" if rep.status == "optimal" else rep.status,
        ])
    header = ["snr_db", "power", "rate_optimal", "rate_ep", "rate_sem", "status"]
    out = Path(args.out)
    _write_csv(out, header, rows)
    script = _emit_plot_script(out, _PLOT_SNR)
    print(f"wrote {out} and {script}")
    return 0


def cmd_fixture(args) -> int:
    try:
        scenario = preset_scenario(args.emit, seed=args.seed)
        H = rician_channel(scenario)
        save_fixture(H, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}: {H.shape[0]}x{H.shape[1]} channel, rank {H.r}")
    print("singular values: " + " ".join(_fmt(s) for s in H.lambdas))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isac-pareto",
        description="CRB-rate region characterization for a MIMO ISAC link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="trace the frontier and benchmark curves")
    p.add_argument("config")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES))
    p.add_argument("--crb-cap", type=float, default=None,
                   help="grid cap when the frontier has no finite right endpoint")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("point", help="solve a single CRB threshold")
    p.add_argument("config")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("rate-vs-snr", help="optimal and best-split rates per SNR")
    p.add_argument("config")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--snr-list", required=True, help="comma-separated dB values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rate_vs_snr)

    p = sub.add_parser("fixture", help="generate and store a named channel fixture")
    p.add_argument("--emit", required=True, choices=list(PRESET_NAMES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixture)

    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
