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
the tier-1 tests run it at (see :func:`primal`).
"""

import math
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isac_pareto import oracle
from isac_pareto.closed_form import (
    _waterfill_unit,
    crb_min_point,
    p0_threshold,
    rate_max_point,
    waterfill,
)
from isac_pareto.scenario import ChannelMatrix, Scenario, load_fixture, rician_channel
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
    """One (label, status, evaluations) record per link and factor: those of
    ``solve_p1`` at that factor times the minimum CRB, with the name of the
    exception in place of the status where one is raised."""
    out = []
    for i, (H, sc) in enumerate(links):
        try:
            crb_min = crb_min_point(H, sc)[1].crb
        except Exception as exc:  # a census counts what raises, too
            out += [((i, f), type(exc).__name__, 0) for f in factors]
            continue
        for f in factors:
            try:
                rep = solve_p1(H, sc, f * crb_min)
            except Exception as exc:
                out.append(((i, f), type(exc).__name__, 0))
            else:
                out.append(((i, f), rep.status, rep.allocation.iterations if rep.allocation else 0))
    return out


def census():
    """Yield (battery name, records) for each census battery, one
    (label, status, evaluations) record per solve or sweep row."""
    yield "stress (400 x 8)", _solves(stress_links(400), STRESS_FACTORS)
    yield "near-p0 sweeps (120 x 10 and 50 points)", [
        ((i, points, j), r.status, r.iterations)
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
    map."""
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


if __name__ == "__main__":
    if sys.argv[1:] not in (["census"], ["cases"], ["crossover"], ["primal"]):
        sys.exit("usage: python tests/battery.py census|cases|crossover|primal")
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
    for name, records in census():
        if sys.argv[1] == "cases":
            for label, status, evals in records:
                print(f"{name} | {label} | {status} | {evals}")
            continue
        counts = Counter(status for _, status, _ in records)
        evals = sum(n for _, _, n in records)
        print(f"{name}: {len(records)} cases, {dict(sorted(counts.items()))}, {evals} evaluations")
