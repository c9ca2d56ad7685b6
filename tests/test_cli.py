import csv
import json
import math

import numpy as np
import pytest

from isac_pareto.cli import ConfigError, load_config, main
from isac_pareto.metrics import crb_from_powers, rate_from_powers
from isac_pareto.scenario import load_fixture, save_fixture

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
    from isac_pareto.cli import _fmt

    assert _fmt(math.inf) == "inf"
    assert _fmt(math.nan) == "nan"


def test_config_unknown_key_rejected(tmp_path):
    cfg = dict(SC1)
    cfg["typo_key"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", str(path), "--out", str(tmp_path / "x.csv")]) == 1


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
    (["point", "--gamma", "nan"], "--gamma"),
    (["rate-vs-snr", "--gamma", "nan", "--snr-list", "10,20"], "--gamma"),
], ids=["points_1", "crb_cap_nan", "crb_cap_inf", "point_gamma_nan", "snr_gamma_nan"])
def test_malformed_number_rejected(config1, tmp_path, capsys, command, named):
    out = ["--out", str(tmp_path / "o.csv")] if command[0] != "point" else []
    assert main([command[0], str(config1), *command[1:], *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err
