"""Per-layer tracing by wrapping the package's public functions at run time.

Each traced function is looked up by module and name and replaced, in every
loaded ``isac_pareto`` module that binds it, by a wrapper that records calls,
inclusive time and self time (inclusive time minus the time of traced
functions it called).  Functions of one group are timed only at their
outermost call, so a group's time never counts a nested call twice.  The
package's source is not edited; :meth:`Tracer.uninstall` restores the
original bindings.

A traced name that the package no longer defines raises :class:`TraceError`,
so a renamed function fails the trace instead of reading as zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "isac_pareto"


class TraceError(RuntimeError):
    """A traced function could not be found or wrapped."""


@dataclass
class Spec:
    module: str
    name: str
    group: str
    timed: bool = True
    # called with (stats, result) after each traced call
    on_return: Callable | None = None


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def bump(self, key: str, amount=1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _solve_returned(stats: Stats, rep) -> None:
    if rep.status != "optimal":
        stats.bump("not_optimal")
    if rep.allocation is not None:
        stats.bump("dual_iterations", int(rep.allocation.iterations))


def _split_returned(stats: Stats, bench) -> None:
    stats.bump("beta_points", len(bench.points))


def _dual_grid_returned(stats: Stats, alloc) -> None:
    stats.bump("dual_evals", int(alloc.iterations))


SPECS = [
    Spec("cli", "main", "cli"),
    Spec("scenario", "rician_channel", "channel"),
    Spec("scenario", "load_fixture", "channel"),
    Spec("closed_form", "crb_min_point", "endpoint"),
    Spec("closed_form", "rate_max_point", "endpoint"),
    Spec("sweep", "sweep", "sweep"),
    Spec("solver", "solve_p1", "solve", on_return=_solve_returned),
    Spec("solver", "cubic_stationary_root", "root", timed=False),
    Spec("metrics", "crb_trace", "eig"),
    Spec("metrics", "rate", "eig"),
    Spec("benchmarks", "power_split_ep", "split", on_return=_split_returned),
    Spec("benchmarks", "power_split_sem", "split", on_return=_split_returned),
    Spec("benchmarks", "best_at_crb", "select"),
    Spec("oracle", "oracle_dual_grid", "dual_grid", on_return=_dual_grid_returned),
    Spec("oracle", "oracle_primal_grid", "primal_grid"),
]


class Tracer:
    def __init__(self, specs=SPECS):
        self.specs = list(specs)
        self.stats: dict[str, Stats] = {}
        self.group_s: dict[str, float] = {}
        self._group_depth: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        # wrappers record only while active, so untimed checks stay out
        self.active = False

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for spec in self.specs:
            modname = f"{PACKAGE}.{spec.module}"
            try:
                mod = importlib.import_module(modname)
            except ImportError as exc:
                raise TraceError(f"cannot import {modname}: {exc}") from exc
            orig = getattr(mod, spec.name, None)
            if not callable(orig):
                raise TraceError(f"{modname} has no function {spec.name!r}")
            if mod not in modules:
                modules.append(mod)
            key = f"{spec.module}.{spec.name}"
            self.stats[key] = Stats()
            self.group_s.setdefault(spec.group, 0.0)
            wrapper = self._wrap(orig, spec, self.stats[key])
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, fn, spec: Spec, stats: Stats):
        hook = spec.on_return
        if not spec.timed:
            def counted(*args, **kwargs):
                if self.active:
                    stats.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        depth = self._group_depth
        group_s = self.group_s
        group = spec.group
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            outer = depth.get(group, 0) == 0
            depth[group] = depth.get(group, 0) + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[group] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[0]
                if outer:
                    group_s[group] += dt
            if hook is not None:
                hook(stats, out)
            return out

        timed.__wrapped__ = fn
        return timed

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        s, g = self.stats, self.group_s
        solve = s["solver.solve_p1"]
        ms = 1e3
        return {
            "cli.self_ms": (s["cli.main"].self_s * ms, "ms"),
            "scenario.channel_ms": (g["channel"] * ms, "ms"),
            "closed_form.endpoint_ms": (g["endpoint"] * ms, "ms"),
            "sweep.self_ms": (s["sweep.sweep"].self_s * ms, "ms"),
            "solver.solve_ms": (g["solve"] * ms, "ms"),
            "solver.calls": (solve.calls, "count"),
            "solver.not_optimal": (solve.extra.get("not_optimal", 0), "count"),
            "solver.dual_iterations": (solve.extra.get("dual_iterations", 0), "count"),
            "solver.root_calls": (s["solver.cubic_stationary_root"].calls, "count"),
            "metrics.eig_calls": (s["metrics.crb_trace"].calls + s["metrics.rate"].calls, "count"),
            "metrics.ms": (g["eig"] * ms, "ms"),
            "benchmarks.split_ms": (g["split"] * ms, "ms"),
            "benchmarks.beta_points": (
                s["benchmarks.power_split_ep"].extra.get("beta_points", 0)
                + s["benchmarks.power_split_sem"].extra.get("beta_points", 0), "count"),
            "benchmarks.select_ms": (g["select"] * ms, "ms"),
            "oracle.dual_grid_ms": (g["dual_grid"] * ms, "ms"),
            "oracle.dual_evals": (s["oracle.oracle_dual_grid"].extra.get("dual_evals", 0), "count"),
            "oracle.primal_grid_ms": (g["primal_grid"] * ms, "ms"),
        }

    def function_table(self) -> dict[str, dict]:
        return {key: {"calls": st.calls, "total_ms": st.total_s * 1e3,
                      "self_ms": st.self_s * 1e3, **st.extra}
                for key, st in self.stats.items()}
