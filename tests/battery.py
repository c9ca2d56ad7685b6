"""Shared fixture battery: stored channels plus per-channel CRB thresholds.

Thresholds are placed log-uniformly between the minimum CRB and the smaller
of the finite rate-max CRB and 50x the minimum, strictly inside both ends so
every solve is an interior (both-constraints-tight) instance.

The seeded probe batteries (stress links, near-p0 links, the scale ladder,
tiny powers and the sigma_c2/P grid) are here too, and

    PYTHONPATH=src python tests/battery.py census

prints one line per battery with its status counts and total evaluations,
so that a change's effect on all of them can be compared before and after;

    PYTHONPATH=src python tests/battery.py cases

prints one line per case instead (battery, label, status and evaluations),
so that a ``diff`` of two runs lists every case whose status or count moved;

    PYTHONPATH=src python tests/battery.py crossover

times the dual searches of stress links with either power map, and prints
the table that sets the solver's _LOCKSTEP_MIN_BUDGETS (see
:func:`crossover`);

    PYTHONPATH=src python tests/battery.py primal

prints the size and the times of the oracle's primal grid on the cases that
the tier-1 tests run it at (see :func:`primal`);

    PYTHONPATH=src python tests/battery.py digest

prints one SHA-256 per census battery over every solve's status,
evaluations and the exact bits of its results, one over the CSV bytes of
the benchmark's ``frontier`` sweeps, one over the CSV bytes of
``rate-vs-snr`` and ``point --out`` runs, and one over the exact bits of the
oracle's results on its pinned cases and the benchmark's ``oracle``
instances (see :func:`digest`), so that a change meant to keep every output
bit can be checked by a ``diff`` of two runs.
"""

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isac_pareto import cli, oracle
from isac_pareto.closed_form import (
    _waterfill_unit,
    crb_min_point,
    p0_threshold,
    rate_max_point,
    waterfill,
)
from isac_pareto.scenario import (
    ChannelMatrix,
    Scenario,
    load_fixture,
    preset_scenario,
    rician_channel,
)
from isac_pareto.solver import _dual_searches, _ends, solve_p1
from isac_pareto.sweep import sweep

FIXTURES = Path(__file__).parent / "fixtures"


@dataclass(frozen=True)
class BatteryCase:
    name: str
    fixture: str
    scenario: Scenario
    fracs: tuple[float, ...]  # log-interpolation positions of the thresholds


CASES = [
    BatteryCase(
        "scenario1", "scenario1.csv",
        Scenario(M=8, Nc=6, Ns=12, L=200, P=800.0, Kc=100.0, seed=17),
        (0.2, 0.45, 0.7, 0.95),
    ),
    BatteryCase(
        "scenario2", "scenario2.csv",
        Scenario(M=6, Nc=6, Ns=12, L=200, P=800.0, Kc=20.0, seed=18),
        (0.25, 0.55, 0.9),
    ),
    BatteryCase(
        "b_2x2", "b_2x2.csv",
        Scenario(M=2, Nc=2, Ns=12, L=200, P=10.0, Kc=0.0, seed=4),
        (0.3, 0.7, 0.95),
    ),
    BatteryCase(
        "b_3x2", "b_3x2.csv",
        Scenario(M=3, Nc=2, Ns=12, L=200, P=12.0, Kc=0.0, seed=0),
        (0.2, 0.55, 0.9),
    ),
    BatteryCase(
        "b_2x3", "b_2x3.csv",
        Scenario(M=2, Nc=3, Ns=12, L=200, P=6.0, Kc=0.0, seed=7),
        (0.3, 0.75),
    ),
    BatteryCase(
        "b_4x4", "b_4x4.csv",
        Scenario(M=4, Nc=4, Ns=12, L=200, P=40.0, Kc=5.0, seed=6),
        (0.3, 0.7),
    ),
    BatteryCase(
        "b_5x3", "b_5x3.csv",
        Scenario(M=5, Nc=3, Ns=12, L=200, P=50.0, Kc=0.0, seed=0),
        (0.2, 0.55, 0.9),
    ),
    BatteryCase(
        "b_3x3", "b_3x3.csv",
        Scenario(M=3, Nc=3, Ns=12, L=200, P=15.0, Kc=0.0, seed=3),
        (0.35, 0.8),
    ),
]


def load_channel(case: BatteryCase) -> ChannelMatrix:
    return load_fixture(FIXTURES / case.fixture)


def gammas_for(case: BatteryCase, channel: ChannelMatrix) -> list[float]:
    """Interior CRB thresholds for one case, log-spaced."""
    _, pt_min = crb_min_point(channel, case.scenario)
    _, pt_max = rate_max_point(channel, case.scenario)
    hi = 50.0 * pt_min.crb
    if math.isfinite(pt_max.crb):
        hi = min(hi, 0.995 * pt_max.crb)
    lo = pt_min.crb
    return [lo * (hi / lo) ** t for t in case.fracs]


def iter_instances():
    """Yield (case, channel, gamma) across the whole battery."""
    for case in CASES:
        channel = load_channel(case)
        for gamma in gammas_for(case, channel):
            yield case, channel, gamma


# thresholds of the stress battery and of the scale ladder, as multiples of
# the minimum CRB
STRESS_FACTORS = (1 + 1e-9, 1 + 1e-6, 1.01, 1.5, 3.0, 30.0, 1e3, 1e6)
LADDER_FACTORS = (1.01, 3.0, 1e3)


def stress_links(trials: int):
    """Yield (channel, scenario) for the leading trials of the seeded stress
    battery: ``default_rng(1)``, M and Nc in [2, 16], a Rician factor from
    {0, 1, 10, 100, 1e4, inf} and P = 10**uniform(-2, 6), across ranks."""
    rng = np.random.default_rng(1)
    kcs = (0.0, 1.0, 10.0, 100.0, 1e4, math.inf)
    for trial in range(trials):
        M = int(rng.integers(2, 17))
        Nc = int(rng.integers(2, 17))
        Kc = kcs[int(rng.integers(0, len(kcs)))]
        P = float(10.0 ** rng.uniform(-2, 6))
        sc = Scenario(M=M, Nc=Nc, Ns=12, L=max(200, M + 1), P=P, Kc=Kc, seed=trial)
        yield rician_channel(sc), sc


def near_p0_links(links: int = 120):
    """Yield (channel, scenario) for the leading links of the seeded near-p0
    battery: ``default_rng(7)``, complex Gaussian M x M channels with M in
    [2, 6], at P = p0 (1 + eps) with eps log-uniform in [1e-8, 1], just above
    the power :func:`p0_threshold` from which water-filling is full rank."""
    rng = np.random.default_rng(7)
    for _ in range(links):
        M = int(rng.integers(2, 7))
        H = ChannelMatrix.from_matrix(
            (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))) / math.sqrt(2.0))
        P = p0_threshold(H.lambdas2, 1.0) * (1.0 + 10.0 ** rng.uniform(-8, 0))
        yield H, Scenario(M=M, Nc=M, Ns=12, L=200, P=P)


def scale_ladder():
    """Yield (channel, scenario) for the rungs of the scale ladder: one
    channel (M = 4, Nc = 3, seed 1) at P from 1e-60 to 1e60 in steps of
    x1e10, with sigma_c2 = 1e10 P, so that its gains in units of P are the
    same on every rung."""
    for k in range(-60, 61, 10):
        P = float(f"1e{k}")
        sc = Scenario(M=4, Nc=3, Ns=12, L=200, P=P, sigma_c2=1e10 * P, seed=1)
        yield rician_channel(sc), sc


def dual_budgets(H, sc, n):
    """n trace-inverse budgets log-spaced from just above M^2/P to the
    smaller of 1e3 M^2/P and just below the water-filling load; all are on
    the dual path unless that load is within 1e-6 of M^2/P, and then none
    is returned."""
    c_min = sc.M * sc.M / sc.P
    hi = 1e3 * c_min
    if H.r == sc.M:
        wf = waterfill(H.lambdas2, sc.sigma_c2, sc.P, m=sc.M)
        if np.all(wf.p > 0.0):
            hi = min(hi, float((1.0 / wf.p).sum()) * (1.0 - 1e-6))
    lo = c_min * (1.0 + 1e-6)
    return list(lo * (hi / lo) ** np.linspace(0.0, 1.0, n)) if hi > lo else []


def _solves(links, factors):
    """One (label, status, evaluations, values) record per link and factor:
    those of ``solve_p1`` at that factor times the minimum CRB, with the name
    of the exception in place of the status where one is raised.  The values
    are the powers, mu, v, kkt_residual and duality_gap of the allocation,
    none where there is no allocation."""
    out = []
    for i, (H, sc) in enumerate(links):
        try:
            crb_min = crb_min_point(H, sc)[1].crb
        except Exception as exc:  # a census counts what raises, too
            out += [((i, f), type(exc).__name__, 0, ()) for f in factors]
            continue
        for f in factors:
            try:
                rep = solve_p1(H, sc, f * crb_min)
            except Exception as exc:
                out.append(((i, f), type(exc).__name__, 0, ()))
                continue
            a = rep.allocation
            if a is None:
                out.append(((i, f), rep.status, 0, ()))
            else:
                out.append(((i, f), rep.status, a.iterations,
                            (*a.p.tolist(), a.mu, a.v, a.kkt_residual, a.duality_gap)))
    return out


def census():
    """Yield (battery name, records) for each census battery, one
    (label, status, evaluations, values) record per solve or sweep row (see
    :func:`_solves`); a sweep row's values are its crb, rate, mu, v and
    kkt_residual, as the row carries no powers or duality gap, and its crb
    and rate are the closed forms of its powers."""
    yield "stress (400 x 8)", _solves(stress_links(400), STRESS_FACTORS)
    yield "near-p0 sweeps (120 x 10 and 50 points)", [
        ((i, points, j), r.status, r.iterations, (r.crb, r.rate, r.mu, r.v, r.kkt_residual))
        for i, (H, sc) in enumerate(near_p0_links()) for points in (10, 50)
        for j, r in enumerate(sweep(H, sc, points, schemes=("optimal",)).rows)]
    yield "scale ladder (13 x 3)", _solves(scale_ladder(), LADDER_FACTORS)
    # every decade of P from 1e-150 to 1e6
    tiny = [Scenario(M=4, Nc=3, Ns=12, L=200, P=float(f"1e{k}"), seed=1) for k in range(-150, 7)]
    yield "tiny power (157 x 6)", _solves(((rician_channel(sc), sc) for sc in tiny),
                                          (1.01, 1.5, 3.0, 30.0, 1e3, 1e6))
    # sigma_c2 from 1e-300 to 1e300 in steps of x1e75, P from 1e-100 to 1e100
    # in steps of x1e50
    grid = [Scenario(M=M, Nc=3, Ns=12, L=200, P=float(f"1e{k}"), sigma_c2=float(f"1e{s}"), seed=1)
            for M in (2, 4) for s in range(-300, 301, 75) for k in range(-100, 101, 50)]
    yield "sigma_c2/P grid (90 x 3)", _solves(((rician_channel(sc), sc) for sc in grid),
                                              LADDER_FACTORS)


# batch sizes of the crossover table, and the runs each time is the best of
CROSSOVER_SIZES = (2, 8, 12, 13, 14, 16, 20, 21, 24, 32, 50)
CROSSOVER_RUNS = 9


def crossover():
    """Yield (n, links, scalar ms, scalar median ms, lanes ms, lanes median
    ms, lanes passes) for each batch size n of CROSSOVER_SIZES: the time of
    one dual-search call per stress link with n :func:`dual_budgets`, all
    on the dual path, with the scalar power map and with the lanes map, and
    the passes that the lanes map takes, as many as its slowest search
    takes evaluations.  Times and passes are means per link over the
    ``links`` of the first 60 stress links that have such budgets; each
    time is the best, and beside it the median, of CROSSOVER_RUNS runs over
    all links, interleaved over n and both maps, so that a slow phase of
    the host shows as a median far above its best.  Only the searches are
    timed: the certificates that follow them cost the same with either
    map.

    Best of nine, on Python 3.11.7, numpy 2.4.6, an Intel Xeon with 2
    vCPUs, 54 links:

    ====  ===========  ==========  ============
     n    scalar (ms)  lanes (ms)  lanes passes
    ====  ===========  ==========  ============
     2        0.08        0.28          3.4
     8        0.36        0.50          4.5
     12       0.55        0.57          4.6
     13       0.59        0.59          4.6
     14       0.63        0.59          4.6
     16       0.72        0.63          4.6
     20       0.91        0.69          4.6
     21       0.95        0.71          4.6
     24       1.09        0.75          4.6
     32       1.50        0.89          4.6
     50       2.26        1.15          4.6
    ====  ===========  ==========  ============

    In three runs the scalar map was ahead at 12, the two were even at 13,
    and the lanes map was ahead from 14 on, where the solver's
    _LOCKSTEP_MIN_BUDGETS sits.  On a shared host the break-even moves by
    about one budget between runs."""
    batches = {n: [] for n in CROSSOVER_SIZES}
    for H, sc in stress_links(60):
        gs = [float(x) / sc.sigma_c2 * sc.P for x in H.lambdas2]
        ends = _ends(gs, sc.M, _waterfill_unit(gs, sc.P))
        for n, batch in batches.items():
            gts = [gt * sc.P for gt in dual_budgets(H, sc, n)]
            if gts:
                batch.append((gs, sc.M, gts, ends))
    times = {(n, lanes): [] for n in batches for lanes in (False, True)}
    for _ in range(CROSSOVER_RUNS):
        for n, batch in batches.items():
            for lanes in (False, True):
                start = time.perf_counter()
                for gs, m, gts, ends in batch:
                    _dual_searches(gs, m, gts, ends, lanes)
                times[n, lanes].append(time.perf_counter() - start)
    for n, batch in batches.items():
        passes = [max(evals for _, evals, _ in _dual_searches(*args, True)) for args in batch]
        links = len(batch)
        ms = [1e3 * f(times[n, lanes]) / links for lanes in (False, True)
              for f in (min, statistics.median)]
        yield (n, links, *ms, sum(passes) / links)


def _primal_args(fixture, M, Nc, P, f):
    """The oracle_primal_grid arguments of a pinned channel at f x CRB_min,
    at the step counts of the tier-1 tests."""
    H = load_fixture(FIXTURES / fixture)
    sc = Scenario(M=M, Nc=Nc, Ns=12, L=200, P=P)
    rep = solve_p1(H, sc, f * crb_min_point(H, sc)[1].crb)
    return H.lambdas2, M, sc.sigma_c2, P, rep.gamma_tilde, 1000 if M == 2 else 120


# the grid sizes of tests/test_oracle.py's
# test_primal_grid_bit_identical_to_cube_enumeration: m = 3 at 120 steps
# (o_primal_los_3x3), m = 2 at 1000 (b_2x2) and m3-blocks, whose grid spans
# 4 blocks; (name, oracle_primal_grid arguments or _primal_args arguments)
PRIMAL_CASES = (
    ("m3", ("o_primal_los_3x3.csv", 3, 3, 6.560643071707601, 1.2915805959309317)),
    ("m2", ("b_2x2.csv", 2, 2, 0.01, 30.0)),
    ("m3-blocks", (np.array([3.0, 2.0, 1.0]), 3, 1.0, 3.0, 3.5, 90)),
)
PRIMAL_RUNS = 9


def primal():
    """Yield (name, m, steps, index tuples, blocks, power-passing points,
    passing points, grid ms, repair ms, primal ms) for each of PRIMAL_CASES:
    the size of the oracle's primal simplex grid (the C(steps, m) index
    tuples it builds, the blocks it yields them in, the points within the
    power budget and those within both budgets), and the best of
    PRIMAL_RUNS times of the grid alone (``_simplex_grid``), of the zoom's
    ``_repair_feasible`` calls within one ``oracle_primal_grid`` call, and
    of that whole call, interleaved over the cases."""
    cases = [(name, args if len(args) == 6 else _primal_args(*args))
             for name, args in PRIMAL_CASES]
    repair = oracle._repair_feasible
    spent = []

    def timed_repair(*args):
        start = time.perf_counter()
        q = repair(*args)
        spent.append(time.perf_counter() - start)
        return q

    parts = ("grid", "repair", "primal")
    times = {(name, part): [] for name, _ in cases for part in parts}
    for _ in range(PRIMAL_RUNS):
        for name, (lam2, m, sigma_c2, P, gamma_tilde, steps) in cases:
            start = time.perf_counter()
            for _block in oracle._simplex_grid(P, m, steps, gamma_tilde):
                pass
            times[name, "grid"].append(time.perf_counter() - start)
            start = time.perf_counter()
            oracle.oracle_primal_grid(lam2, m, sigma_c2, P, gamma_tilde, steps)
            times[name, "primal"].append(time.perf_counter() - start)
            spent.clear()
            oracle._repair_feasible = timed_repair
            try:
                oracle.oracle_primal_grid(lam2, m, sigma_c2, P, gamma_tilde, steps)
            finally:
                oracle._repair_feasible = repair
            times[name, "repair"].append(sum(spent))
    for name, (_, m, _, P, gamma_tilde, steps) in cases:
        blocks = list(oracle._simplex_grid(P, m, steps, gamma_tilde))
        yield (name, m, steps, math.comb(steps, m), len(blocks),
               sum(n for _, n in blocks), sum(len(pts) for pts, _ in blocks),
               *(1e3 * min(times[name, part]) for part in parts))


# the benchmark's frontier workload: both presets at three powers, each with
# FRONTIER_SEEDS channel seeds from default_rng(0), swept at FRONTIER_POINTS
FRONTIER_PRESETS = ("scenario1", "scenario2")
FRONTIER_POWERS = (8.0, 80.0, 800.0)
FRONTIER_SEEDS = 12
FRONTIER_POINTS = 50


def _write_config(path: Path, sc: Scenario, P: float) -> None:
    """Write the CLI config of ``sc`` at power ``P``."""
    path.write_text(json.dumps(
        {"M": sc.M, "Nc": sc.Nc, "Ns": sc.Ns, "L": sc.L, "P": P,
         "sigma_c2": sc.sigma_c2, "sigma_s2": sc.sigma_s2, "Kc": sc.Kc,
         "theta": sc.theta, "seed": sc.seed}))


def _run_cli(argv) -> None:
    """Run one in-process CLI command with its printed lines discarded; one
    that exits non-zero raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")


def frontier_csvs():
    """Yield the CSV bytes of an in-process CLI ``sweep --points 50`` of each
    channel of the benchmark's ``frontier`` workload, in its set-up order:
    the channel seeds are drawn as ``isacbench/workloads.py`` draws them,
    one ``integers(2**31)`` of ``default_rng(0)`` per channel."""
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "sweep.csv"
        for preset in FRONTIER_PRESETS:
            for P in FRONTIER_POWERS:
                for _ in range(FRONTIER_SEEDS):
                    sc = preset_scenario(preset, seed=int(rng.integers(2 ** 31)))
                    _write_config(config, sc, P)
                    _run_cli(["sweep", str(config), "--points", str(FRONTIER_POINTS),
                              "--out", str(out)])
                    yield out.read_bytes()


# the CLI tables of the cli digest, on each of FRONTIER_PRESETS at its own
# power and seed: rate-vs-snr at each (--gamma, --snr-list), the first with
# infeasible and ok rows, the second with a too_loose row on scenario1 at
# 60 dB, and point --out at each factor x CRB_min
CLI_SNR_RUNS = (("0.1", "-10,0,10,20,30,40"), ("1e150", "0,30,60"))
CLI_POINT_FACTORS = (1.01, 3.0, 1e3)


def cli_csvs():
    """Yield the CSV bytes of the in-process CLI ``rate-vs-snr`` tables of
    CLI_SNR_RUNS and ``point --out`` rows at CLI_POINT_FACTORS x CRB_min,
    per preset; their plot scripts are left out."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "table.csv"
        for preset in FRONTIER_PRESETS:
            sc = preset_scenario(preset)
            _write_config(config, sc, sc.P)
            for gamma, snrs in CLI_SNR_RUNS:
                _run_cli(["rate-vs-snr", str(config), "--gamma", gamma,
                          f"--snr-list={snrs}", "--out", str(out)])
                yield out.read_bytes()
            crb_min = crb_min_point(rician_channel(sc), sc)[1].crb
            for f in CLI_POINT_FACTORS:
                _run_cli(["point", str(config), "--gamma", repr(f * crb_min),
                          "--out", str(out)])
                yield out.read_bytes()


# the benchmark's oracle workload: one instance per M, at a threshold drawn
# log-uniformly from ORACLE_FACTORS x CRB_min, the primal grid at M = 2 only
ORACLE_SIZES = tuple(range(2, 9))
ORACLE_FACTORS = (2.0, 30.0)
ORACLE_PRIMAL_STEPS = 1000


def oracle_instances():
    """Yield (label, oracle_dual_grid arguments, primal grid steps or None)
    for each instance of the benchmark's ``oracle`` workload, in its set-up
    order, drawn as ``isacbench/workloads.py`` draws them from
    ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    for M in ORACLE_SIZES:
        Nc = int(rng.integers(2, M if M > 2 else 9))
        P = float(10.0 ** rng.uniform(0, 3))
        sc = Scenario(M=M, Nc=Nc, Ns=12, L=200, P=P, Kc=math.inf if M == 2 else 0.0,
                      seed=int(rng.integers(2 ** 31)))
        H = rician_channel(sc)
        crb_min = crb_min_point(H, sc)[1].crb
        f_lo, f_hi = ORACLE_FACTORS
        gamma = f_lo * (f_hi / f_lo) ** float(rng.uniform()) * crb_min
        gamma_tilde = sc.L * gamma / (sc.sigma_s2 * sc.Ns)
        yield (f"M={M}", (H.lambdas2, M, sc.sigma_c2, P, gamma_tilde),
               ORACLE_PRIMAL_STEPS if M == 2 else None)


def oracle_results():
    """Yield (label, allocation) for each oracle call of the digest:
    ``oracle_dual_grid`` on the 12 pinned fixtures of tests/test_oracle.py's
    dual-grid work bound, ``oracle_primal_grid`` on the cases of
    :func:`primal`, and both on the instances of :func:`oracle_instances`,
    as the benchmark runs them."""
    from test_oracle import DUAL_REPRODUCERS, LOOSE_CASES, PRIMAL_REPRODUCERS

    for case in DUAL_REPRODUCERS + PRIMAL_REPRODUCERS + LOOSE_CASES:
        yield f"dual {case[0]}", oracle.oracle_dual_grid(*_primal_args(*case)[:5])
    for name, args in PRIMAL_CASES:
        args = args if len(args) == 6 else _primal_args(*args)
        yield f"primal {name}", oracle.oracle_primal_grid(*args)
    for label, args, steps in oracle_instances():
        yield f"benchmark dual {label}", oracle.oracle_dual_grid(*args)
        if steps is not None:
            yield f"benchmark primal {label}", oracle.oracle_primal_grid(*args, steps)


def digest():
    """Yield (name, SHA-256 hex digest) for each census battery, for the
    ``frontier`` CSVs, for the other CLI tables and for the oracle.  A
    battery's digest runs over each of its records in order: label, status
    and evaluations as text, then the exact IEEE 754 bits of its values (see
    :func:`census`).  The frontier digest runs over the bytes of every CSV
    of :func:`frontier_csvs`, and the cli digest over those of
    :func:`cli_csvs`.  The
    oracle digest runs over each allocation of :func:`oracle_results`: label
    and iterations as text, then the exact bits of its powers, ``mu``, ``v``,
    ``kkt_residual`` and ``duality_gap``."""
    for name, records in census():
        h = hashlib.sha256()
        for label, status, evals, values in records:
            h.update(f"{label}|{status}|{evals}|".encode())
            h.update(np.array(values, dtype=np.float64).tobytes())
        yield name, h.hexdigest()
    h = hashlib.sha256()
    for csv in frontier_csvs():
        h.update(csv)
    yield (f"frontier CSVs ({len(FRONTIER_PRESETS) * len(FRONTIER_POWERS) * FRONTIER_SEEDS}"
           f" x {FRONTIER_POINTS} points)", h.hexdigest())
    h = hashlib.sha256()
    tables = 0
    for csv in cli_csvs():
        h.update(csv)
        tables += 1
    yield f"cli CSVs ({tables} rate-vs-snr and point tables)", h.hexdigest()
    h = hashlib.sha256()
    calls = 0
    for label, a in oracle_results():
        h.update(f"{label}|{a.iterations}|".encode())
        h.update(np.array((*a.p.tolist(), a.mu, a.v, a.kkt_residual, a.duality_gap),
                          dtype=np.float64).tobytes())
        calls += 1
    yield f"oracle ({calls} calls)", h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] not in (["census"], ["cases"], ["crossover"], ["primal"], ["digest"]):
        sys.exit("usage: python tests/battery.py census|cases|crossover|primal|digest")
    if sys.argv[1] == "crossover":
        print(" n  links  scalar (ms)  scalar med  lanes (ms)  lanes med  lanes passes")
        for n, links, scalar, scalar_med, lanes, lanes_med, passes in crossover():
            print(f"{n:3d}  {links:5d}  {scalar:11.2f}  {scalar_med:10.2f}  {lanes:10.2f}"
                  f"  {lanes_med:9.2f}  {passes:12.1f}")
        sys.exit()
    if sys.argv[1] == "primal":
        print("case       m  steps    tuples  blocks  in power  in both  grid (ms)"
              "  repair (ms)  primal (ms)")
        for name, m, steps, tuples, blocks, powered, points, grid, repair, whole in primal():
            print(f"{name:9s}  {m}  {steps:5d}  {tuples:8d}  {blocks:6d}  {powered:8d}"
                  f"  {points:7d}  {grid:9.2f}  {repair:11.2f}  {whole:11.2f}")
        sys.exit()
    if sys.argv[1] == "digest":
        for name, sha in digest():
            print(f"{name}: {sha}")
        sys.exit()
    for name, records in census():
        if sys.argv[1] == "cases":
            for label, status, evals, _ in records:
                print(f"{name} | {label} | {status} | {evals}")
            continue
        counts = Counter(status for _, status, _, _ in records)
        evals = sum(n for _, _, n, _ in records)
        print(f"{name}: {len(records)} cases, {dict(sorted(counts.items()))}, {evals} evaluations")
