import importlib
import math
import tracemalloc

import numpy as np
import pytest

from battery import FIXTURES
from isac_pareto.closed_form import crb_min_point, waterfill
from isac_pareto.metrics import crb_from_trace_budget, rate, rate_from_powers
from isac_pareto.oracle import (
    _SHRINK_POINTS,
    _SHRINK_TOL,
    _bisect_comm_powers,
    _dual_box,
    _grid_values,
    _log_shrink,
    _root_bracket,
    _simplex_grid,
    _v_window,
    oracle_dual_grid,
    oracle_primal_grid,
    sample_feasible_covariance,
)
from isac_pareto.scenario import ChannelMatrix, Scenario, load_fixture
from isac_pareto.solver import solve_p1

oracle_module = importlib.import_module("isac_pareto.oracle")


def test_dual_grid_boundary_budget_uniform():
    alloc = oracle_dual_grid(np.array([2.0, 1.5, 1.0, 0.5]), 4, 1.0, 8.0, 2.0)
    np.testing.assert_allclose(alloc.p, 2.0, atol=1e-12)


def test_dual_grid_slack_budget_matches_waterfilling():
    lam2 = np.array([2.0, 1.0])
    alloc = oracle_dual_grid(lam2, 2, 1.0, 2.0, 100.0)
    wf = waterfill(lam2, 1.0, 2.0)
    np.testing.assert_allclose(alloc.p, wf.p, atol=1e-5)


def test_dual_grid_agrees_with_solver_on_hand_instance():
    lam2 = np.array([1.0])
    alloc = oracle_dual_grid(lam2, 2, 1.0, 4.0, 2.0)
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=4.0)
    H = ChannelMatrix.from_matrix(np.diag([1.0, 0.0]))
    rep = solve_p1(H, sc, crb_from_trace_budget(2.0, sc.sigma_s2, sc.Ns, sc.L))
    assert rep.status == "optimal"
    np.testing.assert_allclose(alloc.p, rep.allocation.p, atol=1e-5)


def test_dual_grid_rejects_infeasible():
    with pytest.raises(ValueError):
        oracle_dual_grid(np.array([1.0]), 2, 1.0, 1.0, 1.0)


def test_dual_grid_rejects_rank_zero():
    with pytest.raises(ValueError, match="rank 0"):
        oracle_dual_grid(np.array([]), 2, 1.0, 2.0, 5.0)


@pytest.mark.parametrize("gamma_tilde", [math.inf, math.nan])
def test_dual_grid_rejects_non_finite_budget(gamma_tilde):
    with pytest.raises(ValueError, match="gamma_tilde must be finite"):
        oracle_dual_grid(np.array([3.0, 1.0]), 2, 1.0, 2.0, gamma_tilde)


def _stationarity(g, mu, v, p):
    # f(p) = g / ((1 + g p) ln2) + mu / p^2 - v, with its limit at p = 0
    if p == 0.0:
        return math.inf if mu > 0.0 else g / math.log(2.0) - v
    return g / ((1.0 + g * p) * math.log(2.0)) + mu / (p * p) - v


def test_root_bracket_holds_the_stationary_power():
    # f(lo) >= 0 >= f(hi), except that lo = 0 may hold a dry channel's
    # stationary power of 0 at mu = 0, where f(0) < 0
    rng = np.random.default_rng(2024)
    n = 4000
    g = 10.0 ** rng.uniform(-4, 4, n)
    v = 10.0 ** rng.uniform(-4, 4, n)
    mu = np.where(rng.uniform(size=n) < 0.25, 0.0, 10.0 ** rng.uniform(-14, 4, n))
    dry_faces = 0
    for gi, mi, vi in zip(g, mu, v):
        lo, hi = _root_bracket(np.array([gi]), np.array([mi]), np.array([vi]))
        a, b = float(lo[0, 0]), float(hi[0, 0])
        assert 0.0 <= a <= b
        assert _stationarity(gi, mi, vi, b) <= 0.0
        if a == 0.0 and mi == 0.0 and gi / math.log(2.0) <= vi:
            dry_faces += 1
            assert b == 0.0
        else:
            assert _stationarity(gi, mi, vi, a) >= 0.0
    assert dry_faces > 100


@pytest.mark.parametrize("m,r", [(3, 3), (6, 6), (4, 2), (8, 5)])
def test_v_window_holds_the_wide_window_minimizer(m, r):
    # v*(mu) from a shrink over the generic window [1e-12, _dual_box] lies in
    # the closed-form window, up to that shrink's own resolution
    rng = np.random.default_rng(100 * m + r)
    for _ in range(5):
        gs = 10.0 ** rng.uniform(-2, 3, r)
        P = float(10.0 ** rng.uniform(-1, 3))
        gamma_tilde = m * m / P * float(10.0 ** rng.uniform(0.01, 2))
        box = _dual_box(gs, P, gamma_tilde)
        mu = np.concatenate([[0.0], 10.0 ** rng.uniform(-10, math.log10(box), 7)])

        def block(V, rows):
            MU = np.broadcast_to(mu[rows, None], V.shape)
            return _grid_values(gs, m, MU.ravel(), V.ravel(), gamma_tilde, P).reshape(V.shape)

        v_star, _, _ = _log_shrink(block, np.full(mu.size, 1e-12), np.full(mu.size, box))
        lo, hi = _v_window(gs, m, P, mu)
        slack = math.exp(_SHRINK_TOL)
        assert np.all(v_star >= lo / slack)
        assert np.all(v_star <= hi * slack)
        # v*(mu) is nondecreasing in mu, up to the same resolution: the
        # premise of the warm-started inner shrinks of oracle_dual_grid
        rising = v_star[np.argsort(mu)]
        assert np.all(rising[1:] >= rising[:-1] / slack)


def test_log_shrink_edges_and_flat_rows():
    # four rows at once, one window [1, 1e6] each: a minimum inside it, one
    # far beyond each edge, and a flat function.  Each call gets only the
    # rows still running: a row that has stopped is never evaluated again,
    # so the batch shrinks as rows stop.
    centres = np.array([3.7e2, 4.2e11, 2.5e-9, np.nan])
    batches = []

    def values(x, rows):
        assert x.shape == (rows.size, _SHRINK_POINTS)
        batches.append(rows.tolist())
        vals = (np.log(x) - np.log(centres[rows])[:, None]) ** 2
        vals[rows == 3] = 1.5
        return vals

    x, val, edge = _log_shrink(values, np.ones(4), np.full(4, 1e6))
    assert _SHRINK_POINTS == 16
    assert batches[0] == [0, 1, 2, 3]
    for before, after in zip(batches, batches[1:]):
        assert set(after) <= set(before)
    assert batches[1] == [0, 1, 2] and len(batches[-1]) < 3
    assert np.all(np.abs(np.log(x[:3] / centres[:3])) <= _SHRINK_TOL)
    assert np.all(val[:3] <= _SHRINK_TOL ** 2)
    # the flat row stops at once, on its first point, the low edge
    assert (x[3], val[3], edge[3]) == (1.0, 1.5, -1)

    calls = []

    def flat(x, rows):
        calls.append(x.shape)
        return np.zeros(x.shape)

    x, val, edge = _log_shrink(flat, np.array([2.0]), np.array([8.0]))
    assert calls == [(1, _SHRINK_POINTS)] and (x[0], val[0], edge[0]) == (2.0, 0.0, -1)


def test_log_shrink_reports_the_edge_of_a_window_that_misses():
    # a window narrower than the tolerance stops at its first evaluation;
    # one that misses the minimum says on which side, one that holds it
    # says 0
    def values(x, rows):
        return (np.log(x) - math.log(10.0)) ** 2

    lo = np.array([20.0, 2.0, 9.99999])
    x, _, edge = _log_shrink(values, lo, lo * math.exp(4.0 * _SHRINK_TOL))
    assert edge.tolist() == [-1, 1, 0]
    assert x[0] == pytest.approx(20.0) and x[1] == pytest.approx(2.0 * math.exp(4.0 * _SHRINK_TOL))


def test_log_shrink_raises_when_a_row_exhausts_its_steps():
    # an edge argmin re-centres the window by half its log width, here
    # ln(2) / 2, so 60 steps from [1, 2] reach no further than 2^31; a
    # minimum at 1e100 is out of reach.  The row that converges beside it
    # does not hide it.
    def values(x, rows):
        return (np.log(x) - np.log(np.array([[1e100], [1.5]])[rows])) ** 2

    with pytest.raises(RuntimeError, match="1 of 2 log-grid shrinks did not converge"):
        _log_shrink(values, np.ones(2), np.full(2, 2.0))


def test_primal_grid_boundary_equal_split():
    alloc = oracle_primal_grid(np.array([2.0, 1.0]), 2, 1.0, 4.0, 1.0, steps=400)
    np.testing.assert_allclose(alloc.p, 2.0, atol=1e-9)


def test_primal_grid_symmetric_channels():
    alloc = oracle_primal_grid(np.array([1.5, 1.5]), 2, 1.0, 4.0, 1.5, steps=400)
    assert alloc.p[0] == pytest.approx(alloc.p[1], abs=1e-6)


def test_primal_grid_vs_solver_hand_instance():
    lam2 = np.array([2.0, 1.0])
    sc = Scenario(M=2, Nc=2, Ns=12, L=200, P=2.0)
    H = ChannelMatrix.from_matrix(np.diag(np.sqrt(lam2)))
    rep = solve_p1(H, sc, crb_from_trace_budget(2.5, sc.sigma_s2, sc.Ns, sc.L))
    alloc = oracle_primal_grid(lam2, 2, 1.0, 2.0, 2.5, steps=1000)
    grid_rate = rate_from_powers(lam2, alloc.p, 1.0)
    assert abs(grid_rate - rep.achieved.rate) <= 1e-4


def test_primal_grid_rejects_large_m():
    with pytest.raises(ValueError):
        oracle_primal_grid(np.ones(4), 4, 1.0, 4.0, 10.0, steps=10)


def test_primal_grid_rejects_rank_zero():
    with pytest.raises(ValueError, match="rank 0"):
        oracle_primal_grid(np.array([]), 2, 1.0, 2.0, 5.0, steps=50)


def test_primal_grid_never_beats_dual_bound():
    # weak duality: any feasible primal rate sits below the dual value
    lam2 = np.array([2.0, 1.0])
    dual = oracle_dual_grid(lam2, 2, 1.0, 2.0, 2.5)
    dual_value = rate_from_powers(lam2, dual.p, 1.0) + dual.duality_gap
    primal = oracle_primal_grid(lam2, 2, 1.0, 2.0, 2.5, steps=500)
    assert rate_from_powers(lam2, primal.p, 1.0) <= dual_value + 1e-9


def test_sampled_covariance_constraints_and_rotation(rng):
    m, P, gt = 4, 8.0, 3.0
    for _ in range(50):
        q = sample_feasible_covariance(m, P, gt, rng)
        assert np.linalg.norm(q - q.conj().T) <= 1e-12 * np.linalg.norm(q)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() > 0
        assert np.trace(q).real <= P * (1 + 1e-12)
        assert (1.0 / eigs).sum() <= gt * (1 + 1e-10)


def test_sampled_covariance_rejects_tight_budget(rng):
    with pytest.raises(ValueError):
        sample_feasible_covariance(4, 8.0, 2.0, rng)


def test_diagonal_restriction_properties(rng, scenario1):
    # feasibility and the two comparison bounds used in the diagonal-optimality
    # argument, checked by sampling
    H, sc = scenario1
    m, P = sc.M, sc.P
    gt = 3.0 * m * m / P
    viol = 0
    for _ in range(300):
        q = sample_feasible_covariance(m, P, gt, rng)
        q_diag = np.diag(np.diagonal(q))
        # q and q_diag are eigenbasis covariances: Vc q Vc^H is in the antenna basis
        r_full = rate(H.Vc @ q @ H.Vc.conj().T, H.H, sc.sigma_c2)
        r_diag = rate(H.Vc @ q_diag @ H.Vc.conj().T, H.H, sc.sigma_c2)
        ti_full = np.trace(np.linalg.inv(q)).real
        ti_diag = float((1.0 / np.diagonal(q).real).sum())
        if r_diag < r_full - 1e-8:
            viol += 1
        if ti_diag > ti_full * (1 + 1e-10):
            viol += 1
        if np.trace(q_diag).real > P * (1 + 1e-12):
            viol += 1
    assert viol == 0


# Channels pinned in tests/fixtures (see regenerate.py); gamma = f * CRB_min.
# On these, a coordinate-descent dual search missed the solver's rate by
# 1.4e-5 to 2.0e-5 relative ...
DUAL_REPRODUCERS = [
    ("o_dual_6x7.csv", 6, 7, 0.4770038313421024, 1.1422759609100066),
    ("o_dual_5x7.csv", 5, 7, 0.8074895087827315, 1.0474188542672853),
    ("o_dual_3x5.csv", 3, 5, 1.8680905310036566, 1.9941828827450605),
    ("o_dual_6x6.csv", 6, 6, 0.32594866609508893, 1.1508276659588352),
]
# ... and a pairwise-exchange primal polish stopped 5.8e-4 to 1.4e-2 short
PRIMAL_REPRODUCERS = [
    ("o_primal_los_3x3.csv", 3, 3, 6.560643071707601, 1.2915805959309317),
    ("o_primal_los_3x5.csv", 3, 5, 55.51251915633323, 1.1884974215314237),
    ("o_primal_3x2_a.csv", 3, 2, 3.729089099923998, 1.3268030103708965),
    ("o_primal_3x2_b.csv", 3, 2, 1.3869275933817704, 5.7215488071221285),
]
# loose CRB budgets at low power, M <= 3
LOOSE_CASES = [
    ("b_2x2.csv", 2, 2, 0.01, 30.0),
    ("b_3x2.csv", 3, 2, 0.03, 1e3),
    ("b_2x3.csv", 2, 3, 0.1, 1e5),
    ("b_3x3.csv", 3, 3, 0.3, 1e5),
]


def _optimal_solve(fixtures_dir, fixture, M, Nc, P, f):
    H = load_fixture(fixtures_dir / fixture)
    sc = Scenario(M=M, Nc=Nc, Ns=12, L=200, P=P)
    _, pt_min = crb_min_point(H, sc)
    rep = solve_p1(H, sc, f * pt_min.crb)
    assert rep.status == "optimal"
    return H, sc, rep


def _dual_dev(H, sc, rep):
    alloc = oracle_dual_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P, rep.gamma_tilde)
    r = rate_from_powers(H.lambdas2, alloc.p, sc.sigma_c2)
    return alloc, abs(r - rep.achieved.rate) / max(1.0, rep.achieved.rate)


@pytest.mark.parametrize("case", DUAL_REPRODUCERS, ids=[c[0] for c in DUAL_REPRODUCERS])
def test_dual_grid_full_rank_reproducers(fixtures_dir, case):
    H, sc, rep = _optimal_solve(fixtures_dir, *case)
    _, dev = _dual_dev(H, sc, rep)
    assert dev <= 1e-5


@pytest.mark.parametrize("case", PRIMAL_REPRODUCERS, ids=[c[0] for c in PRIMAL_REPRODUCERS])
def test_primal_grid_m3_reproducers(fixtures_dir, case):
    H, sc, rep = _optimal_solve(fixtures_dir, *case)
    alloc = oracle_primal_grid(H.lambdas2, 3, sc.sigma_c2, sc.P, rep.gamma_tilde, steps=120)
    assert abs(rate_from_powers(H.lambdas2, alloc.p, sc.sigma_c2) - rep.achieved.rate) <= 1e-4


@pytest.mark.parametrize("case", LOOSE_CASES, ids=[f"{c[0]}-P{c[3]}-f{c[4]:g}" for c in LOOSE_CASES])
def test_oracles_agree_at_loose_budget_low_power(fixtures_dir, case):
    H, sc, rep = _optimal_solve(fixtures_dir, *case)
    dual, dev = _dual_dev(H, sc, rep)
    assert dev <= 1e-5
    steps = 1000 if sc.M == 2 else 120
    primal = oracle_primal_grid(H.lambdas2, sc.M, sc.sigma_c2, sc.P, rep.gamma_tilde, steps)
    primal_rate = rate_from_powers(H.lambdas2, primal.p, sc.sigma_c2)
    assert abs(primal_rate - rep.achieved.rate) <= 1e-4
    dual_value = rate_from_powers(H.lambdas2, dual.p, sc.sigma_c2) + dual.duality_gap
    assert primal_rate <= dual_value + 1e-9


def _cube_grid(P, m, steps, gamma_tilde):
    # the whole steps^m grid, then the two float masks of _simplex_grid
    axis = np.linspace(P / steps, P, steps)
    pts = np.stack([a.ravel() for a in np.meshgrid(*[axis] * m, indexing="ij")], axis=1)
    mask = pts.sum(axis=1) <= P * (1.0 + 1e-12)
    pts = pts[mask]
    mask = (1.0 / pts).sum(axis=1) <= gamma_tilde * (1.0 + 1e-12)
    return pts[mask], int(mask.size)


@pytest.mark.parametrize("m", [2, 3])
def test_simplex_grid_is_the_masked_cube(m):
    # enumerating only index tuples that can lie in the simplex keeps every
    # candidate, bit for bit and in the same order
    rng = np.random.default_rng(31 + m)
    for steps in (2, 3, 7, 120) + ((1000,) if m == 2 else ()):
        for _ in range(2):
            P = float(10.0 ** rng.uniform(-3, 5))
            gamma_tilde = m * m / P * float(10.0 ** rng.uniform(0.0, 3.0))
            blocks = list(_simplex_grid(P, m, steps, gamma_tilde))
            pts = np.concatenate([np.empty((0, m))] + [b for b, _ in blocks])
            evaluated = sum(n for _, n in blocks)
            want, want_evaluated = _cube_grid(P, m, steps, gamma_tilde)
            assert evaluated == want_evaluated
            assert pts.shape == want.shape and pts.tobytes() == want.tobytes()


# (name, oracle_primal_grid arguments), beside the fixture cases
PRIMAL_GRID_CASES = [
    # the grid's centre (2, 2) ties the equal split exactly and comes first
    ("symmetric", (np.array([1.5, 1.5]), 2, 1.0, 4.0, 1.5, 400)),
    # spans 4 blocks of _simplex_grid
    ("m3-blocks", (np.array([3.0, 2.0, 1.0]), 3, 1.0, 3.0, 3.5, 90)),
    # an odd step count leaves the centre off the grid, so the equal split
    # beats every grid point ...
    ("equal-split-wins", (np.array([1.0, 1.0]), 2, 1.0, 4.0, 1.5, 401)),
    # ... and a budget this tight admits none of them
    ("equal-split-only", (np.array([2.0, 1.0]), 2, 1.0, 4.0, 1.0 + 1e-6, 401)),
]


def _primal_grid_args(fixtures_dir, case):
    if len(case) == 2:
        return case[1]
    H, sc, rep = _optimal_solve(fixtures_dir, *case)
    return (H.lambdas2, sc.M, sc.sigma_c2, sc.P, rep.gamma_tilde, 1000 if sc.M == 2 else 120)


@pytest.mark.parametrize("case", [PRIMAL_REPRODUCERS[0], LOOSE_CASES[0]] + PRIMAL_GRID_CASES,
                         ids=lambda c: c[0])
def test_primal_grid_bit_identical_to_cube_enumeration(fixtures_dir, case, monkeypatch):
    args = _primal_grid_args(fixtures_dir, case)
    got = oracle_primal_grid(*args)
    monkeypatch.setattr(oracle_module, "_simplex_grid", lambda *a: [_cube_grid(*a)])
    want = oracle_primal_grid(*args)
    assert got.p.tobytes() == want.p.tobytes()
    assert (got.iterations, got.kkt_residual) == (want.iterations, want.kkt_residual)


@pytest.mark.parametrize("case", [PRIMAL_REPRODUCERS[0], LOOSE_CASES[0]], ids=lambda c: c[0])
def test_primal_grid_memory_bounded_by_its_blocks(fixtures_dir, case):
    # m = 3 at 120 steps and m = 2 at 1000; built whole, the grid peaked at
    # 16.0 and 23.2 MB (Python 3.11, numpy 2.4)
    args = _primal_grid_args(fixtures_dir, case)
    tracemalloc.start()
    try:
        oracle_primal_grid(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.fixture(scope="module")
def pinned_dual_grids():
    """Per pinned fixture: the rate deviation of the dual grid from the
    solver, every _grid_values call it made, with the values returned, the
    arguments of the dual grid and its result."""
    grid_values = oracle_module._grid_values
    calls = []

    def recorded(*args):
        vals = grid_values(*args)
        calls.append((args, vals))
        return vals

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_module, "_grid_values", recorded)
        for case in DUAL_REPRODUCERS + PRIMAL_REPRODUCERS + LOOSE_CASES:
            H, sc, rep = _optimal_solve(FIXTURES, *case)
            first = len(calls)
            args = (H.lambdas2, sc.M, sc.sigma_c2, sc.P, rep.gamma_tilde)
            alloc = oracle_dual_grid(*args)
            dev = (abs(rate_from_powers(H.lambdas2, alloc.p, sc.sigma_c2) - rep.achieved.rate)
                   / max(1.0, rep.achieved.rate))
            runs.append((dev, calls[first:], args, alloc))
    return runs


def test_dual_grid_work_bound_on_pinned_fixtures(pinned_dual_grids):
    # a deterministic count of the dual grid's work: its _grid_values calls,
    # one per shrink step and candidate, summed over every pinned fixture.
    # With inner shrinks warm-started from the v*(mu) already found they
    # number 453; from the closed-form window alone they took 924, and with
    # 8-point windows 2148.  Those calls evaluate 85,504 (mu, v) points;
    # they evaluated 99,232 when every row of a shrink ran until its last
    # row stopped.
    assert max(dev for dev, *_ in pinned_dual_grids) <= 1e-5
    assert sum(len(calls) for _, calls, *_ in pinned_dual_grids) <= 453
    assert sum(alloc.iterations for *_, alloc in pinned_dual_grids) <= 85504


def test_32_halvings_hold_every_dual_value(pinned_dual_grids, monkeypatch):
    # the accuracy _bisect_comm_powers claims: on every (mu, v) the dual grid
    # evaluates for the pinned fixtures, the dual value from 32 halvings is
    # within 2e-14 relative of its value from 200
    bisect = oracle_module._bisect_comm_powers
    monkeypatch.setattr(oracle_module, "_bisect_comm_powers",
                        lambda gs, MU, V: bisect(gs, MU, V, iters=200))
    worst = 0.0
    for _, calls, *_ in pinned_dual_grids:
        (gs, m, _, _, gamma_tilde, P), _ = calls[0]
        MU = np.concatenate([args[2] for args, _ in calls])
        V = np.concatenate([args[3] for args, _ in calls])
        vals = np.concatenate([vals for _, vals in calls])
        ref = _grid_values(gs, m, MU, V, gamma_tilde, P)
        worst = max(worst, float(np.max(np.abs(vals - ref) / np.abs(ref))))
    assert worst <= 2e-14


def test_dual_grid_restarts_a_warm_window_that_misses(fixtures_dir, monkeypatch):
    # warm windows a few shrink steps wide, wholly above or below the
    # closed-form window, stop at once with the argmin on the edge they
    # narrowed; every such row starts again from the closed-form window, so
    # the result is that of a dual grid that is never warm-started
    H, sc, rep = _optimal_solve(fixtures_dir, *DUAL_REPRODUCERS[0])
    args = (H.lambdas2, sc.M, sc.sigma_c2, sc.P, rep.gamma_tilde)
    monkeypatch.setattr(oracle_module, "_warm_v_window",
                        lambda seen_mu, seen_v, mu, lo, hi: (lo, hi))
    cold = oracle_dual_grid(*args)

    def wrong(seen_mu, seen_v, mu, lo, hi):
        start = np.where(np.arange(mu.size) % 2 == 0, 4.0 * hi, lo / 8.0)
        return start, start * math.exp(4.0 * _SHRINK_TOL)

    monkeypatch.setattr(oracle_module, "_warm_v_window", wrong)
    got = oracle_dual_grid(*args)
    assert got.p.tobytes() == cold.p.tobytes()
    assert (got.mu, got.v, got.duality_gap) == (cold.mu, cold.v, cold.duality_gap)
    assert got.iterations > cold.iterations


def _all_rows_log_shrink(values, lo, hi):
    # the log-grid shrink that evaluates every row until the last one stops,
    # a stopped row's window frozen
    unit = np.linspace(0.0, 1.0, _SHRINK_POINTS)
    t_lo, t_hi = np.log(lo), np.log(hi)
    rows = np.arange(t_lo.size)
    done = np.zeros(t_lo.size, dtype=bool)
    side = np.zeros(t_lo.size)
    for _ in range(60):
        t = t_lo[:, None] + (t_hi - t_lo)[:, None] * unit
        x = np.exp(t)
        vals = values(x, rows)
        k = np.argmin(vals, axis=1)
        step = (t_hi - t_lo) / (_SHRINK_POINTS - 1)
        done |= (step <= _SHRINK_TOL) | (vals.min(axis=1) == vals.max(axis=1))
        if np.all(done):
            break
        edge = np.where(k == 0, -1.0, np.where(k == _SHRINK_POINTS - 1, 1.0, 0.0))
        narrow = (edge == 0.0) | (edge * side < 0.0)
        side = np.where(narrow, 0.0, edge)
        reach = np.where(narrow, step, 0.5 * (t_hi - t_lo))
        tk = t[rows, k]
        t_lo = np.where(done, t_lo, tk - reach)
        t_hi = np.where(done, t_hi, tk + reach)
    else:
        raise RuntimeError("log-grid shrink did not converge")
    return x[rows, k], vals[rows, k], np.where(k == 0, -1, np.where(k == _SHRINK_POINTS - 1, 1, 0))


def _broadcast_bisect(gs, MU, V, iters=32):
    # the bisection on (n, 1) and (1, r) operands broadcast against (n, r)
    inv_g = 1.0 / gs[None, :]
    MUc = MU[:, None]
    Vc = V[:, None]
    lo, hi = _root_bracket(gs, MU, V)
    w = hi - lo
    with np.errstate(invalid="ignore"):
        for _ in range(iters):
            w *= 0.5
            mid = lo + w
            pos = oracle_module.INV_LN2 / (inv_g + mid) + MUc / (mid * mid) > Vc
            np.copyto(lo, mid, where=pos)
    return lo + 0.5 * w


@pytest.mark.parametrize("r", range(1, 8))
def test_same_shape_bisection_matches_broadcasting(r):
    # the same-shape halvings give the broadcast form's powers bit for bit,
    # dry channels at mu = 0 (powers of exactly 0) included
    rng = np.random.default_rng(700 + r)
    n = 400
    gs = 10.0 ** rng.uniform(-3, 3, r)
    V = 10.0 ** rng.uniform(-3, 3, n)
    MU = np.where(rng.uniform(size=n) < 0.3, 0.0, 10.0 ** rng.uniform(-12, 3, n))
    dry = (MU[:, None] == 0.0) & (V[:, None] > gs[None, :] / math.log(2.0))
    assert np.any(dry)
    for iters in (32, 200):
        got = _bisect_comm_powers(gs, MU, V, iters)
        want = _broadcast_bisect(gs, MU, V, iters)
        assert got.shape == (n, r) and got.tobytes() == want.tobytes()
    assert np.all(got[dry] == 0.0)


def test_dual_grid_bit_identical_to_all_rows_shrink(pinned_dual_grids, monkeypatch):
    # evaluating only the running rows, and halving on same-shape operands,
    # change no output of the dual grid on the pinned fixtures: only its
    # count of evaluated points, which falls
    monkeypatch.setattr(oracle_module, "_log_shrink", _all_rows_log_shrink)
    monkeypatch.setattr(oracle_module, "_bisect_comm_powers", _broadcast_bisect)
    for *_, args, got in pinned_dual_grids:
        want = oracle_dual_grid(*args)
        assert got.p.tobytes() == want.p.tobytes()
        assert ((got.mu, got.v, got.kkt_residual, got.duality_gap)
                == (want.mu, want.v, want.kkt_residual, want.duality_gap))
        assert got.iterations < want.iterations
