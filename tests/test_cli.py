import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isac_pareto
from isac_pareto.benchmarks import best_at_crb, power_split_ep, power_split_sem
from isac_pareto.cli import CSV_HEADER, ConfigError, _csv_row, _fmt, _write_csv, load_config, main
from isac_pareto.closed_form import crb_min_point
from isac_pareto.metrics import crb_from_powers, rate_from_powers
from isac_pareto.scenario import Scenario, load_fixture, rician_channel, save_fixture
from isac_pareto.solver import solve_p1
from isac_pareto.sweep import DEFAULT_SCHEMES, SweepRow, sweep

solver_module = importlib.import_module("isac_pareto.solver")

SC1 = {
    "M": 8, "Nc": 6, "Ns": 12, "L": 200,
    "P": 800.0, "sigma_c2": 1.0, "sigma_s2": 1.0,
    "Kc": 100.0, "theta": math.pi / 6, "seed": 17,
}
SC2 = {
    "M": 6, "Nc": 6, "Ns": 12, "L": 200,
    "P": 800.0, "sigma_c2": 1.0, "sigma_s2": 1.0,
    "Kc": 20.0, "theta": math.pi / 6, "seed": 18,
}


@pytest.fixture
def config1(tmp_path):
    path = tmp_path / "sc1.json"
    path.write_text(json.dumps(SC1))
    return path


@pytest.fixture
def config2(tmp_path):
    path = tmp_path / "sc2.json"
    path.write_text(json.dumps(SC2))
    return path


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_sweep_csv_schema_and_first_crb(config1, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(config1), "--points", "8", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert list(rows[0].keys()) == [
        "scheme", "gamma_target", "crb", "rate_bps_hz", "mu", "v",
        "iterations", "kkt_residual", "status",
    ]
    # every number is in scientific notation, or a nan/inf literal
    number = re.compile(r"-?\d\.\d{11}e[+-]\d{2,3}|nan|-?inf")
    for row in rows:
        for key in ("gamma_target", "crb", "rate_bps_hz", "mu", "v", "kkt_residual"):
            assert number.fullmatch(row[key]), (key, row[key])
    assert {r["crb"] for r in rows} & {"nan", "inf"}
    opt = [r for r in rows if r["scheme"] == "optimal"]
    assert float(opt[0]["crb"]) == pytest.approx(0.0048, abs=1e-12)
    # 12 significant digits, scientific notation
    assert opt[0]["crb"] == "4.80000000000e-03"
    # sorted by (scheme, crb)
    keys = [(r["scheme"], float(r["crb"])) for r in rows if r["status"] in ("ok", "optimal")]
    assert keys == sorted(keys)
    # rank-deficient scenario: time switching marked not applicable
    ts = [r for r in rows if r["scheme"] == "time_switch"]
    assert ts and all(r["status"] == "not_applicable" for r in ts)
    # plot script emitted next to the CSV
    assert (tmp_path / "sweep_plot.py").exists()


def test_sweep_full_rank_reaches_finite_endpoint(config2, tmp_path):
    out = tmp_path / "sweep2.csv"
    assert main(["sweep", str(config2), "--points", "6", "--out", str(out)]) == 0
    opt = [r for r in _read_csv(out) if r["scheme"] == "optimal"]
    crbs = [float(r["crb"]) for r in opt]
    assert all(math.isfinite(c) for c in crbs)
    ts = [r for r in _read_csv(out) if r["scheme"] == "time_switch"]
    assert all(r["status"] == "ok" for r in ts)


def test_sweep_infinity_serialized_as_inf(config1, tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", str(config1), "--points", "4", "--schemes", "ep", "--out", str(out)])
    raw = out.read_text()
    assert "inf" not in raw.split("\n")[0]  # header clean
    # beta = 1 rows are filtered by the per-threshold selection, so force one
    # through the point of this check: the formatter itself
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.nan) == "nan"


def test_config_unknown_key_rejected(tmp_path):
    cfg = dict(SC1)
    cfg["typo_key"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", str(path), "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("key, value", [
    ("M", 8.9), ("Ns", 12.999), ("L", 200.5), ("Nc", math.inf),
    ("seed", True), ("Ns", True), ("P", True), ("fixture_path", 5),
])
def test_config_mistyped_value_rejected(tmp_path, capsys, key, value):
    # a truncated count or a boolean would run as some other scenario
    cfg = dict(SC1)
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["point", str(path), "--gamma", "0.01"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("key", ["max_ellipsoid_iters", "dual_box_initial", "rank_tol",
                                 "kkt_tol", "max_dual_iters"])
def test_config_retired_solver_key_rejected(tmp_path, key):
    cfg = dict(SC1)
    cfg["solver"] = {key: 10}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_config_missing_key_rejected(tmp_path):
    cfg = dict(SC1)
    del cfg["P"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["point", str(path), "--gamma", "0.01"]) == 1


def test_config_kc_inf_accepted(tmp_path):
    cfg = dict(SC1)
    cfg["Kc"] = "inf"
    path = tmp_path / "los.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "los.csv"
    assert main(["sweep", str(path), "--points", "3", "--schemes", "ep", "--out", str(out)]) == 0


def test_point_boundary_gives_uniform(config1, capsys):
    assert main(["point", str(config1), "--gamma", "0.0048", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["p"], 100.0, atol=1e-9)
    assert payload["status"] == "optimal"


def test_point_below_minimum_names_crb_min(config1, capsys):
    code = main(["point", str(config1), "--gamma", "0.001"])
    assert code == 2
    err = capsys.readouterr().err
    assert "0.0048" in err


def test_point_json_roundtrip_reproduces_metrics(config1, capsys):
    assert main(["point", str(config1), "--gamma", "0.0152", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    p = np.asarray(payload["p"])
    H = None
    from isac_pareto.scenario import Scenario, rician_channel

    sc = Scenario(**SC1)
    H = rician_channel(sc)
    rate = rate_from_powers(H.lambdas2, p, sc.sigma_c2)
    crb = crb_from_powers(p, sc.sigma_s2, sc.Ns, sc.L)
    assert rate == pytest.approx(payload["rate_bps_hz"], rel=1e-10)
    assert crb == pytest.approx(payload["crb"], rel=1e-10)
    # allocation ordering is visible in the output
    assert np.all(np.diff(p) <= 1e-9 * p.max())


def test_rate_vs_snr_consistent_with_point(config1, tmp_path, capsys):
    out = tmp_path / "snr.csv"
    assert main(["rate-vs-snr", str(config1), "--gamma", "0.1",
                 "--snr-list", "29.03089986991944", "--out", str(out)]) == 0
    row = _read_csv(out)[0]
    # this SNR equals the configured power, so the optimal rate matches a solve
    assert main(["point", str(config1), "--gamma", "0.1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert float(row["rate_optimal"]) == pytest.approx(payload["rate_bps_hz"], rel=1e-6)
    assert float(row["rate_optimal"]) >= float(row["rate_ep"]) - 1e-8
    assert float(row["rate_optimal"]) >= float(row["rate_sem"]) - 1e-8


def test_rate_vs_snr_infeasible_rows_annotated(config1, tmp_path):
    out = tmp_path / "snr.csv"
    assert main(["rate-vs-snr", str(config1), "--gamma", "0.1",
                 "--snr-list", "10,20", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0]["status"] == "infeasible"
    assert rows[1]["status"] == "ok"


def test_rate_vs_snr_list_may_start_with_a_minus(config1, tmp_path):
    # "--snr-list -10,0,30" reads like "--snr-list=-10,0,30", not like an
    # unknown option; a --snr-list with no value is still a usage error
    csvs = []
    for spelling in (["--snr-list", "-10,0,30"], ["--snr-list=-10,0,30"]):
        out = tmp_path / f"snr{len(csvs)}.csv"
        assert main(["rate-vs-snr", str(config1), "--gamma", "0.1", *spelling,
                     "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert [r["snr_db"] for r in _read_csv(out)] == [_fmt(s) for s in (-10.0, 0.0, 30.0)]
    with pytest.raises(SystemExit) as exc:
        main(["rate-vs-snr", str(config1), "--gamma", "0.1",
              "--out", str(tmp_path / "o.csv"), "--snr-list"])
    assert exc.value.code == 2


def test_fixture_emit_scenario1(tmp_path, capsys):
    out = tmp_path / "fx.csv"
    assert main(["fixture", "--emit", "scenario1", "--out", str(out)]) == 0
    ch = load_fixture(out)
    assert ch.shape == (6, 8)
    assert ch.r == 6
    msg = capsys.readouterr().out
    assert "rank 6" in msg


def test_fixture_same_seed_identical_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["fixture", "--emit", "scenario2", "--seed", "5", "--out", str(a)])
    main(["fixture", "--emit", "scenario2", "--seed", "5", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_fixture_used_from_config(tmp_path):
    fx = tmp_path / "fx.csv"
    main(["fixture", "--emit", "scenario1", "--out", str(fx)])
    cfg = dict(SC1)
    cfg["fixture_path"] = "fx.csv"
    cfg["seed"] = 999  # must be ignored in favour of the fixture
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    assert main(["sweep", str(path), "--points", "3", "--schemes", "optimal",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert float(rows[0]["crb"]) == pytest.approx(0.0048, abs=1e-12)


@pytest.mark.parametrize("command", [
    ["sweep", "--points", "3"],
    ["point", "--gamma", "0.01"],
    ["rate-vs-snr", "--gamma", "0.01", "--snr-list", "10,20"],
])
def test_zero_channel_fixture_rejected(tmp_path, capsys, command):
    # an all-zero channel has rank 0: no communication subchannel to solve for
    save_fixture(np.zeros((SC1["Nc"], SC1["M"])), tmp_path / "zero.csv")
    cfg = dict(SC1)
    cfg["fixture_path"] = "zero.csv"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = ["--out", str(tmp_path / "o.csv")] if command[0] != "point" else []
    assert main([command[0], str(path), *command[1:], *out]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, named", [
    (["sweep", "--points", "1"], "two grid points"),
    (["sweep", "--crb-cap", "nan"], "crb_cap"),
    (["sweep", "--crb-cap", "inf"], "crb_cap"),
    # finite, but its trace budget L gamma / (sigma_s2 Ns) overflows
    (["sweep", "--crb-cap", "1e307"], "crb_cap"),
    (["point", "--gamma", "nan"], "--gamma"),
    (["rate-vs-snr", "--gamma", "nan", "--snr-list", "10,20"], "--gamma"),
    (["point", "--gamma", "1e307"], "gamma = 1e+307"),
    (["rate-vs-snr", "--gamma", "1e307", "--snr-list", "10,20"], "gamma = 1e+307"),
], ids=["points_1", "crb_cap_nan", "crb_cap_inf", "crb_cap_overflow", "point_gamma_nan",
        "snr_gamma_nan", "point_gamma_overflow", "snr_gamma_overflow"])
def test_malformed_number_rejected(config1, tmp_path, capsys, command, named):
    out = ["--out", str(tmp_path / "o.csv")] if command[0] != "point" else []
    assert main([command[0], str(config1), *command[1:], *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err


@pytest.mark.parametrize("command", [
    ["sweep", "--points", "4"],
    ["point", "--gamma", "0.01"],
    ["rate-vs-snr", "--gamma", "0.01", "--snr-list", "10,20"],
], ids=["sweep", "point", "rate_vs_snr"])
def test_unwritable_out_rejected(config1, tmp_path, capsys, command):
    out = tmp_path / "no_such_dir" / "o.csv"
    assert main([command[0], str(config1), *command[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err, err
    assert not out.parent.exists()


def test_module_entry_point(tmp_path):
    # python -m isac_pareto runs main() and exits with its status
    env = dict(os.environ, PYTHONPATH=str(Path(isac_pareto.__file__).parent.parent))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "isac_pareto", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    done = run("fixture", "--emit", "scenario1", "--out", "fx.csv")
    assert (done.returncode, done.stderr) == (0, "")
    (tmp_path / "cfg.json").write_text(json.dumps(dict(SC1, fixture_path="fx.csv")))
    done = run("sweep", "cfg.json", "--points", "12", "--out", "sweep.csv")
    assert (done.returncode, done.stderr) == (0, "")
    assert len(_read_csv(tmp_path / "sweep.csv")) == 4 * 12
    done = run("sweep", "cfg.json", "--points", "12", "--out", "no_such_dir/sweep.csv")
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("P, command, named", [
    (1e-320, ["sweep", "--points", "4"], "P=1e-320"),
    (1.0, ["rate-vs-snr", "--gamma", "0.1", "--snr-list", "10,-3150"], "P=1e-315"),
    (1.0, ["rate-vs-snr", "--gamma", "0.1", "--snr-list", "10,4000"], "out of range"),
], ids=["sweep_tiny", "snr_tiny", "snr_huge"])
def test_power_out_of_range_rejected(tmp_path, capsys, P, command, named):
    # at P = 1e-320 (or an SNR of -3150 dB) M^2/P and the minimum CRB are
    # inf, so no threshold can be met or missed; at 4000 dB the power
    # overflows
    cfg = dict(SC1, M=4, Nc=3, P=P, seed=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command[0], str(path), *command[1:], "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err


@pytest.mark.parametrize("P", [6e-307, 1e-300, 1e-250, 1e-200])
def test_sweep_rejects_power_whose_square_is_subnormal(tmp_path, capsys, P):
    # the KKT certificate works in the original units, where mu is about
    # v (P/M)^2, which is not a normal float here
    cfg = dict(SC1, M=4, Nc=3, P=P, seed=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", str(path), "--points", "4", "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"P={P}" in err, err


def test_point_reports_closed_form_metrics_on_tiny_mu_link(tmp_path, capsys):
    # stress link 257 at 1e6 x CRB_min: one sensing power is about 1e-7 of
    # the others, and an eigvalsh of the assembled covariance strays from the
    # closed-form CRB of the same powers by about 1e-9; point reports the
    # closed forms, as sweep rows do
    cfg = dict(SC1, M=16, Nc=15, L=200, P=432.5423698243096, Kc=1.0, seed=257)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    sc = Scenario(**cfg)
    H = rician_channel(sc)
    gamma = repr(1e6 * crb_min_point(H, sc)[1].crb)
    out = tmp_path / "point.csv"
    assert main(["point", str(path), "--gamma", gamma, "--json", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["mu"] < 1e-12
    p = np.asarray(payload["p"])
    crb = crb_from_powers(p, sc.sigma_s2, sc.Ns, sc.L)
    rate = rate_from_powers(H.lambdas2, p, sc.sigma_c2)
    assert (payload["crb"], payload["rate_bps_hz"]) == (crb, rate)
    row = _read_csv(out)[0]
    assert (row["crb"], row["rate_bps_hz"]) == (_fmt(crb), _fmt(rate))
    assert main(["point", str(path), "--gamma", gamma]) == 0
    assert f"crb: {_fmt(crb)}  rate: {_fmt(rate)} bps/Hz" in capsys.readouterr().out
    snr = repr(10.0 * math.log10(sc.P / sc.sigma_c2))
    assert main(["rate-vs-snr", str(path), "--gamma", gamma, "--snr-list", snr,
                 "--out", str(tmp_path / "snr.csv")]) == 0
    at_snr = dataclasses.replace(sc, P=sc.sigma_c2 * 10.0 ** (float(snr) / 10.0))
    p = solve_p1(H, at_snr, float(gamma)).allocation.p
    snr_row = _read_csv(tmp_path / "snr.csv")[0]
    assert snr_row["rate_optimal"] == _fmt(rate_from_powers(H.lambdas2, p, sc.sigma_c2))


def test_point_reports_a_finite_crb_at_tiny_sensing_powers(config1, capsys):
    # at 1e9 x CRB_min both sensing powers are about 2.5e-10 x P/M, yet
    # their sum 1/p meets the budget: the certified point has a finite CRB
    assert main(["point", str(config1), "--gamma", "4.8e6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    assert min(payload["p"]) < 1e-9 * SC1["P"] / SC1["M"]
    assert payload["crb"] == pytest.approx(4.8e6, rel=1e-12)


def test_point_reports_a_search_that_evaluated_nothing(tmp_path, capsys):
    # gains near 1e-300 make mu underflow to 0 at the first evaluation, so
    # solve_p1 has no allocation to report
    cfg = dict(SC1, M=4, Nc=3, P=1e-15, sigma_c2=1e300, seed=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    sc = Scenario(**cfg)
    gamma = repr(3.0 * crb_min_point(rician_channel(sc), sc)[1].crb)
    assert main(["point", str(path), "--gamma", gamma]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "iteration_limit" in err, err


def test_repeated_in_process_calls_give_identical_output(config1, tmp_path, capsys):
    # the argument parser is built once and shared by every call, a failed
    # parse included
    calls = [
        ["sweep", str(config1), "--points", "5", "--out", str(tmp_path / "sweep.csv")],
        ["point", str(config1), "--gamma", "0.0152", "--json"],
        ["rate-vs-snr", str(config1), "--gamma", "0.1", "--snr-list", "0,20",
         "--out", str(tmp_path / "snr.csv")],
        ["fixture", "--emit", "scenario2", "--seed", "3", "--out", str(tmp_path / "fx.csv")],
    ]

    def run(argv):
        code = main(argv)
        written = Path(argv[-1]).read_bytes() if argv[-2] == "--out" else b""
        return code, capsys.readouterr().out, written

    first = [run(argv) for argv in calls]
    with pytest.raises(SystemExit):
        main(["point", str(config1)])  # --gamma missing
    capsys.readouterr()
    again = [run(argv) for argv in reversed(calls)]
    assert first == again[::-1]
    assert [code for code, _, _ in first] == [0, 0, 0, 0]


# every status a CSV row can carry; none, nor any scheme, needs CSV quoting
CSV_STATUSES = ("ok", "optimal", "infeasible", "iteration_limit", "no_feasible_point",
                "not_applicable")


def _reference_csv(header, rows) -> bytes:
    # the csv module's default writer over one list of field strings per row
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _reference_fields(row: SweepRow) -> list[str]:
    return [row.scheme, _fmt(row.gamma_target), _fmt(row.crb), _fmt(row.rate), _fmt(row.mu),
            _fmt(row.v), str(row.iterations), _fmt(row.kkt_residual), row.status]


def _sorted_rows(rows):
    return sorted(rows, key=lambda r: (r.scheme, math.isnan(r.crb), r.crb))


def test_csv_scheme_and_status_names_need_no_quoting():
    for name in DEFAULT_SCHEMES + CSV_STATUSES:
        assert not set(name) & set(',"\r\n'), name


@pytest.mark.parametrize("config", ["config1", "config2"])
def test_csv_bytes_match_the_csv_module(config, tmp_path, request):
    # sweep, point --out and rate-vs-snr write what csv.writer writes for
    # the same fields
    path = request.getfixturevalue(config)
    sc = load_config(path)
    H = rician_channel(sc)
    lo = crb_min_point(H, sc)[1].crb

    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(path), "--points", "12", "--out", str(out)]) == 0
    rows = _sorted_rows(sweep(H, sc, 12).rows)
    assert {r.status for r in rows} <= set(CSV_STATUSES)
    assert out.read_bytes() == _reference_csv(CSV_HEADER, [_reference_fields(r) for r in rows])

    gamma = 3.0 * lo
    out = tmp_path / "point.csv"
    assert main(["point", str(path), "--gamma", repr(gamma), "--out", str(out)]) == 0
    rep = solve_p1(H, sc, gamma)
    a = rep.allocation
    row = SweepRow("optimal", gamma, crb_from_powers(a.p, sc.sigma_s2, sc.Ns, sc.L),
                   rate_from_powers(H.lambdas2, a.p, sc.sigma_c2), mu=a.mu, v=a.v,
                   iterations=a.iterations, kkt_residual=a.kkt_residual, status=rep.status)
    assert out.read_bytes() == _reference_csv(CSV_HEADER, [_reference_fields(row)])

    # at 10 x CRB_min of the configured power, the low SNRs are infeasible
    gamma = 10.0 * lo
    snrs = [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0]
    out = tmp_path / "snr.csv"
    assert main(["rate-vs-snr", str(path), "--gamma", repr(gamma),
                 "--snr-list=" + ",".join(f"{x:g}" for x in snrs), "--out", str(out)]) == 0
    ref = []
    for snr_db in snrs:
        scen = dataclasses.replace(sc, P=sc.sigma_c2 * 10.0 ** (snr_db / 10.0))
        rep = solve_p1(H, scen, gamma)
        if rep.status == "infeasible":
            ref.append([_fmt(snr_db), _fmt(scen.P), "nan", "nan", "nan", "infeasible"])
            continue
        ep = best_at_crb(power_split_ep(H, scen).points, gamma)
        sem = best_at_crb(power_split_sem(H, scen).points, gamma)
        ref.append([_fmt(snr_db), _fmt(scen.P),
                    _fmt(rate_from_powers(H.lambdas2, rep.allocation.p, scen.sigma_c2)),
                    _fmt(ep.rate if ep else math.nan), _fmt(sem.rate if sem else math.nan),
                    "ok" if rep.status == "optimal" else rep.status])
    assert {r[-1] for r in ref} == {"ok", "infeasible"}
    header = ["snr_db", "power", "rate_optimal", "rate_ep", "rate_sem", "status"]
    assert out.read_bytes() == _reference_csv(header, ref)


def test_csv_bytes_of_non_finite_unfinished_and_capped_rows(config1, tmp_path, monkeypatch):
    # non-finite fields of every sign, iteration_limit rows of a sweep cut
    # short, and the not_applicable time-switch rows of a capped sweep
    sc = load_config(config1)
    H = rician_channel(sc)
    rows = [SweepRow("optimal", 1.0, math.inf, -math.inf, mu=math.nan, v=-0.0,
                     iterations=0, kkt_residual=math.inf, status="iteration_limit"),
            SweepRow("ep", -1e-300, math.nan, 5e-324, status="no_feasible_point")]
    assert sweep(H, sc, 8).capped
    rows += [r for r in sweep(H, sc, 8).rows if r.scheme == "time_switch"]
    monkeypatch.setattr(solver_module, "_MAX_DUAL_ITERS", 2)
    rows += sweep(H, sc, 8, schemes=("optimal",)).rows
    assert {r.status for r in rows} == {"iteration_limit", "optimal", "no_feasible_point",
                                        "not_applicable"}
    out = tmp_path / "rows.csv"
    _write_csv(out, CSV_HEADER, [_csv_row(r) for r in rows])
    assert out.read_bytes() == _reference_csv(CSV_HEADER, [_reference_fields(r) for r in rows])
