"""The three workloads: fixed inputs, one timed operation, its check.

A workload builds its inputs in ``setup``, then runs in whole rounds; every
round holds the same operations, in an order drawn from the seed, so the
share of failed operations is the same in every run.  ``run(op)`` is the
timed call into the package; ``check(op, out)`` runs untimed and returns
``True`` when the package reported success, ``False`` when it reported a
failure (a non-``optimal`` solve or sweep row), and raises
:class:`checks.CheckError` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import isac_pareto as api
import isac_pareto.cli as cli

SWEEP_POINTS = 50
# thresholds of the stress battery, as multiples of the minimum CRB
STRESS_FACTORS = (1 + 1e-9, 1 + 1e-6, 1.01, 1.5, 3.0, 30.0, 1e3, 1e6)
STRESS_KCS = (0.0, 1.0, 10.0, 100.0, 1e4, math.inf)
STRESS_TRIALS = 30


@dataclass
class Op:
    label: str
    data: dict


class Frontier:
    """One op is an in-process ``isac-pareto sweep`` of 50 points.  A round
    sweeps a fixed set of channels, both presets at three powers each drawn
    with twelve channel seeds, in an order drawn from the seed.

    The channels do not depend on the seed.  On rare channel draws a sweep
    returns non-optimal rows (see README.md); with channels tied to the seed
    such a failure would make the failed share differ between runs, while
    with fixed channels it would recur in every round.
    """

    name = "frontier"
    probe = "array"
    presets = ("scenario1", "scenario2")
    powers = (8.0, 80.0, 800.0)
    channels = 12
    min_rounds = 2       # >= 144 sweeps, so p90 has ten samples beyond it
    trace_rounds = 3

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir / "frontier"
        self.seed = seed
        self.out = self.dir / "sweep.csv"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(0)
        self.ops = []
        for preset in self.presets:
            for P in self.powers:
                for _ in range(self.channels):
                    cfg = _scenario_config(preset, P, int(rng.integers(2 ** 31)))
                    path = self.dir / f"cfg_{len(self.ops)}.json"
                    path.write_text(json.dumps(cfg))
                    self.ops.append(Op(f"{preset}/P={P:g}/seed={cfg['seed']}",
                                       {"config": cfg, "path": str(path)}))
        self.order = np.random.default_rng(self.seed)
        self.run(self.ops[0])

    def round(self, k: int) -> list[Op]:
        return [self.ops[i] for i in self.order.permutation(len(self.ops))]

    def run(self, op: Op):
        argv = ["sweep", op.data["path"], "--points", str(SWEEP_POINTS), "--out", str(self.out)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        return code

    def check(self, op: Op, code) -> bool:
        if code != 0:
            raise checks.CheckError(f"sweep exited with code {code}")
        cfg = op.data["config"]
        H = api.rician_channel(api.Scenario(**cfg)).H
        return checks.check_frontier_csv(self.out, H, cfg, SWEEP_POINTS)


def _scenario_config(preset: str, P: float, seed: int) -> dict:
    sc = api.preset_scenario(preset, seed=seed)
    return {"M": sc.M, "Nc": sc.Nc, "Ns": sc.Ns, "L": sc.L, "P": P,
            "sigma_c2": sc.sigma_c2, "sigma_s2": sc.sigma_s2, "Kc": sc.Kc,
            "theta": sc.theta, "seed": seed}


def _as_dict(sc) -> dict:
    return {"M": sc.M, "P": sc.P, "sigma_c2": sc.sigma_c2, "sigma_s2": sc.sigma_s2,
            "Ns": sc.Ns, "L": sc.L}


class Stress:
    """One op is one ``solve_p1`` call on the leading trials of the seeded
    stress battery; a round solves all of them, in an order drawn from the
    seed.  Non-``optimal`` solves are kept and count as failed."""

    name = "stress"
    probe = "python"
    min_rounds = 5       # >= 1200 solves: p99 has ten samples beyond it
    trace_rounds = 3

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(1)
        self.ops = []
        for trial in range(STRESS_TRIALS):
            M = int(rng.integers(2, 17))
            Nc = int(rng.integers(2, 17))
            Kc = STRESS_KCS[int(rng.integers(0, len(STRESS_KCS)))]
            P = float(10.0 ** rng.uniform(-2, 6))
            sc = api.Scenario(M=M, Nc=Nc, Ns=12, L=max(200, M + 1), P=P, Kc=Kc, seed=trial)
            H = api.rician_channel(sc)
            _, lo = api.crb_min_point(H, sc)
            for f in STRESS_FACTORS:
                self.ops.append(Op(f"trial={trial}/M={M}/Nc={Nc}/Kc={Kc:g}/P={P:.4g}/f={f:.10g}",
                                   {"H": H, "scenario": sc, "gamma": f * lo.crb}))
        self.order = np.random.default_rng(self.seed)
        self.run(self.ops[8])

    def round(self, k: int) -> list[Op]:
        return [self.ops[i] for i in self.order.permutation(len(self.ops))]

    def run(self, op: Op):
        return api.solve_p1(op.data["H"], op.data["scenario"], op.data["gamma"])

    def check(self, op: Op, rep) -> bool:
        if rep.status != "optimal":
            return False
        a = rep.allocation
        checks.check_solve(op.data["H"].H, _as_dict(op.data["scenario"]), op.data["gamma"],
                           rep.Q.Q, a.mu, a.v, rep.achieved.crb, rep.achieved.rate)
        return True


class Oracle:
    """One op verifies one interior instance with the oracle: the dual grid,
    plus the primal grid when M = 2.  A round verifies a fixed set of seven
    instances, one for each M in 2..8, in an order drawn from the seed; with
    an odd count the median always falls on the middle instance.

    Every channel is rank deficient and every threshold lies in [2, 30] x
    CRB_min; M = 2 uses the rank-one line-of-sight channel, larger M a
    Rayleigh channel with Nc < M.  Elsewhere the oracle itself misses the
    solver's rate on some draws (see README.md): the dual grid on full-rank
    channels and below about 1.5 x CRB_min, the primal grid for M = 3.
    """

    name = "oracle"
    probe = "array"
    sizes = tuple(range(2, 9))
    factors = (2.0, 30.0)
    min_rounds = 2
    trace_rounds = 3

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(0)
        self.ops = [self._instance(rng, M) for M in self.sizes]
        self.order = np.random.default_rng(self.seed)
        d = self.ops[0].data
        api.oracle_primal_grid(d["H"].lambdas2, 2, 1.0, d["scenario"].P, d["gamma_tilde"], 20)

    def _instance(self, rng, M: int) -> Op:
        Nc = int(rng.integers(2, M if M > 2 else 9))
        Kc = math.inf if M == 2 else 0.0
        P = float(10.0 ** rng.uniform(0, 3))
        sc = api.Scenario(M=M, Nc=Nc, Ns=12, L=200, P=P, Kc=Kc,
                          seed=int(rng.integers(2 ** 31)))
        H = api.rician_channel(sc)
        _, lo = api.crb_min_point(H, sc)
        f_lo, f_hi = self.factors
        f = f_lo * (f_hi / f_lo) ** float(rng.uniform())
        gamma = f * lo.crb
        gamma_tilde = sc.L * gamma / (sc.sigma_s2 * sc.Ns)
        return Op(f"M={M}/Nc={Nc}/P={P:.4g}/f={f:.4g}",
                  {"H": H, "scenario": sc, "gamma": gamma, "gamma_tilde": gamma_tilde,
                   "steps": 1000 if M == 2 else None})

    def round(self, k: int) -> list[Op]:
        return [self.ops[i] for i in self.order.permutation(len(self.ops))]

    def run(self, op: Op):
        d = op.data
        sc, H = d["scenario"], d["H"]
        dual = api.oracle_dual_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P, d["gamma_tilde"])
        primal = None
        if d["steps"] is not None:
            primal = api.oracle_primal_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P,
                                            d["gamma_tilde"], d["steps"])
        return dual, primal

    def check(self, op: Op, out) -> bool:
        dual, primal = out
        d = op.data
        sc, H = d["scenario"], d["H"]
        ref = api.solve_p1(H, sc, d["gamma"])
        if ref.status != "optimal":
            raise checks.CheckError(f"reference solve is {ref.status}")
        gains = checks.channel_gains(H.H, sc.M, sc.sigma_c2)
        checks.check_oracle(gains, sc.P, d["gamma_tilde"], dual.p, ref.achieved.rate, primal=False)
        if primal is not None:
            checks.check_oracle(gains, sc.P, d["gamma_tilde"], primal.p, ref.achieved.rate,
                                primal=True)
        return True


WORKLOADS = {cls.name: cls for cls in (Frontier, Stress, Oracle)}
