"""Command-line front end: frontier sweeps, single-point solves, rate-vs-SNR
tables, channel fixture generation, CSV emission and plot-script generation.

Scenario configs are JSON files carrying exactly the Scenario fields plus an
optional "fixture_path"; unknown keys are rejected, with their values, to
catch typos and retired settings.  So are a boolean value, a non-integral
count or seed and a non-string fixture path, which JSON can carry but no
Scenario field takes.  Malformed numbers on the command line (a non-finite
threshold or cap, fewer than two grid points), a threshold or cap whose
trace budget overflows and an output path that cannot be written exit with
status 1, as bad configs do.

The ``mu`` and ``v`` that ``sweep`` and ``point`` print are certified KKT
multipliers.  An ``optimal`` ``sweep`` row is the ``point`` of its
threshold, bit for bit: the same multipliers, iterations, KKT residual,
``crb`` and rate.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from .benchmarks import best_indices, power_split_ep, power_split_sem
from .closed_form import crb_min_point
from .metrics import crb_from_powers, rate_from_powers, trace_budget
from .scenario import (
    PRESET_NAMES,
    FixtureFormatError,
    Scenario,
    preset_scenario,
    rician_channel,
    save_fixture,
)
from .solver import ThresholdTooLooseError, solve_p1
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
    return f"{float(x):.11e}"


def _parse_kc(value):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinite", "infinity"):
            return math.inf
        raise ConfigError(f"Kc must be a number or 'inf', got {value!r}")
    return float(value)


def _error(message) -> int:
    """Print ``message`` as one ``error:`` line on stderr; returns exit status 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


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
    for key in sorted(_SCENARIO_KEYS):
        value = raw[key]
        if isinstance(value, bool):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if (key in ("M", "Nc", "Ns", "L", "seed") and isinstance(value, float)
                and not value.is_integer()):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    fixture = raw.get("fixture_path")
    if fixture is not None:
        if not isinstance(fixture, str):
            raise ConfigError(f"fixture_path must be a string, got {fixture!r}")
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


# one CSV line per row, each number as _fmt writes it
_SWEEP_LINE = "%s,%.11e,%.11e,%.11e,%.11e,%.11e,%d,%.11e,%s"
_SNR_LINE = "%.11e,%.11e,%.11e,%.11e,%.11e,%s"


def _csv_row(row: SweepRow) -> str:
    return _SWEEP_LINE % (row.scheme, row.gamma_target, row.crb, row.rate, row.mu, row.v,
                          row.iterations, row.kkt_residual, row.status)


def _write_csv(path, header, lines) -> None:
    """Write the header and the formatted ``lines`` in one go, with the
    ``\\r\\n`` line ends of :mod:`csv`'s default dialect.  No field needs
    quoting: numbers are written by ``%.11e`` or ``%d``, and scheme and
    status names hold no comma, quote or line break."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *lines, ""]))


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
# Plots each rate column (y) against snr_db (x); only rows of status ok are
# plotted, so infeasible, too_loose and iteration_limit rows are skipped.
import csv
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


def _write_table(out_path: Path, header, lines, template: str) -> Path:
    """Write the CSV and, beside it, the plot script made from ``template``;
    returns the script's path.  A script that already holds exactly those
    bytes is left as it is, since the script of one ``--out`` never changes
    between runs and reading it costs far less than truncating and
    rewriting it."""
    _write_csv(out_path, header, lines)
    script = out_path.with_name(out_path.stem + "_plot.py")
    data = template.format(csv_name=out_path.name).encode()
    try:
        current = script.read_bytes()
    except OSError:
        current = None
    if current != data:
        script.write_bytes(data)
    return script


def cmd_sweep(args) -> int:
    try:
        scenario = load_config(args.config)
        H = rician_channel(scenario)
    except (ConfigError, FixtureFormatError, OSError, ValueError) as exc:
        return _error(exc)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip()) or DEFAULT_SCHEMES
    out = Path(args.out)
    try:
        result = sweep(H, scenario, args.points, crb_cap=args.crb_cap, schemes=schemes)
        rows = sorted(result.rows, key=lambda r: (r.scheme, math.isnan(r.crb), r.crb))
        script = _write_table(out, CSV_HEADER, [_csv_row(r) for r in rows], _PLOT_FRONTIER)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(f"wrote {out} and {script}")
    return 0


def _closed_form_point(H, scenario, p):
    """CRB and rate of the eigenbasis allocation ``p``, from the closed forms
    that sweep rows take theirs from."""
    return (crb_from_powers(p, scenario.sigma_s2, scenario.Ns, scenario.L),
            rate_from_powers(H.lambdas2, p, scenario.sigma_c2))


def _point_payload(rep, gamma, crb, rate):
    """The ``point`` result as a JSON-ready dict.  Its multipliers,
    iterations, KKT residual, ``crb`` and ``rate_bps_hz`` are those of an
    ``optimal`` sweep row of the same threshold, bit for bit."""
    a = rep.allocation
    return {
        "scheme": "optimal",
        "gamma_target": gamma,
        "gamma_tilde": rep.gamma_tilde,
        "crb": crb,
        "rate_bps_hz": rate,
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
        return _error(exc)
    try:
        rep = solve_p1(H, scenario, args.gamma)
    except ValueError as exc:
        return _error(exc)
    if rep.status == "infeasible":
        _, pt_min = crb_min_point(H, scenario)
        print(
            f"error: gamma {args.gamma:.6g} is below the minimum achievable CRB "
            f"{pt_min.crb:.6g} ({_fmt(pt_min.crb)})",
            file=sys.stderr,
        )
        return 2
    if rep.allocation is None:
        print(f"error: the dual search ended before it evaluated a point ({rep.status})",
              file=sys.stderr)
        return 3
    crb, rate = _closed_form_point(H, scenario, rep.allocation.p)
    payload = _point_payload(rep, args.gamma, crb, rate)
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
        print(f"crb: {_fmt(crb)}  rate: {_fmt(rate)} bps/Hz")
    if args.out:
        a = rep.allocation
        row = SweepRow("optimal", args.gamma, crb, rate,
                       mu=a.mu, v=a.v, iterations=a.iterations,
                       kkt_residual=a.kkt_residual, status=rep.status)
        try:
            _write_csv(Path(args.out), CSV_HEADER, [_csv_row(row)])
        except OSError as exc:
            return _error(exc)
    return 0 if rep.status == "optimal" else 3


def _snr_line(H, scen, gamma, snr_db) -> str:
    """The ``rate-vs-snr`` CSV line of one SNR: the optimal rate and the best
    EP and SEM rates whose CRB fits under ``gamma``.  A finite threshold too
    loose for the dual search at this power gets status ``too_loose`` and no
    optimal rate; an overflowing trace budget, which no power can search,
    raises."""
    try:
        rep = solve_p1(H, scen, gamma)
    except ThresholdTooLooseError:
        if not math.isfinite(trace_budget(gamma, scen.sigma_s2, scen.Ns, scen.L)):
            raise
        rep = None
    if rep is not None and rep.status == "infeasible":
        return _SNR_LINE % (snr_db, scen.P, math.nan, math.nan, math.nan, "infeasible")
    split_rates = []
    for maker in (power_split_ep, power_split_sem):
        bench = maker(H, scen)
        k, = best_indices(bench.crb, bench.rate, [gamma]).tolist()
        split_rates.append(bench.rate[k] if k >= 0 else math.nan)
    if rep is None:
        return _SNR_LINE % (snr_db, scen.P, math.nan, *split_rates, "too_loose")
    rate = math.nan
    if rep.allocation is not None:
        _, rate = _closed_form_point(H, scen, rep.allocation.p)
    return _SNR_LINE % (snr_db, scen.P, rate, *split_rates,
                        "ok" if rep.status == "optimal" else rep.status)


def cmd_rate_vs_snr(args) -> int:
    try:
        _finite("--gamma", args.gamma)
        scenario = load_config(args.config)
        H = rician_channel(scenario)
        snrs = [_finite("SNR", float(s)) for s in args.snr_list.split(",") if s.strip()]
        # a power that overflows, or is too small for a finite CRB, fails here
        scens = [dataclasses.replace(scenario, P=scenario.sigma_c2 * 10.0 ** (snr_db / 10.0))
                 for snr_db in snrs]
    except (ConfigError, FixtureFormatError, OSError, ArithmeticError, ValueError) as exc:
        return _error(exc)
    if not snrs:
        return _error("empty --snr-list")
    header = ["snr_db", "power", "rate_optimal", "rate_ep", "rate_sem", "status"]
    out = Path(args.out)
    try:
        rows = [_snr_line(H, scen, args.gamma, snr_db) for snr_db, scen in zip(snrs, scens)]
        script = _write_table(out, header, rows, _PLOT_SNR)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(f"wrote {out} and {script}")
    return 0


def cmd_fixture(args) -> int:
    try:
        scenario = preset_scenario(args.emit, seed=args.seed)
        H = rician_channel(scenario)
        save_fixture(H, args.out)
    except (ValueError, OSError) as exc:
        return _error(exc)
    print(f"wrote {args.out}: {H.shape[0]}x{H.shape[1]} channel, rank {H.r}")
    print("singular values: " + " ".join(_fmt(s) for s in H.lambdas))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and
    # building it costs about ten times as much as a parse
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

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-" and is not one plain
    # number as an option, so "--snr-list -10,0,10" is joined into the form
    # "--snr-list=-10,0,10", which it reads as a value
    for i in range(len(argv) - 1):
        if argv[i] == "--snr-list":
            argv[i:i + 2] = [f"--snr-list={argv[i + 1]}"]
            break
    args = _parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
