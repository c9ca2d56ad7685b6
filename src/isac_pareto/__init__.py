"""Pareto boundary of the CRB-vs-rate region for a MIMO ISAC link.

A base station sends one waveform that both carries data to a multi-antenna
user and illuminates an extended target; the library characterizes the
achievable trade-off between the estimation CRB and the communication rate
under a transmit power budget, with closed-form endpoints, an exact
CRB-constrained rate maximizer and standard benchmark schemes.
"""

from .benchmarks import (
    BetaSweep,
    best_at_crb,
    power_split_ep,
    power_split_sem,
    time_switching,
)
from .closed_form import (
    PowerAllocation,
    asymptotic_allocation,
    crb_min_point,
    p0_threshold,
    rate_max_point,
    waterfill,
)
from .metrics import (
    CRPoint,
    TransmitCovariance,
    assemble_covariance,
    crb_from_powers,
    crb_from_trace_budget,
    crb_trace,
    rate,
    rate_from_powers,
    trace_budget,
)
from .oracle import oracle_dual_grid, oracle_primal_grid, sample_feasible_covariance
from .scenario import (
    ChannelMatrix,
    FixtureFormatError,
    Scenario,
    load_fixture,
    preset_scenario,
    rician_channel,
    save_fixture,
    steering_vector,
)
from .solver import (
    SolveReport,
    cubic_stationary_root,
    feasibility_check,
    solve_p1,
    stationarity_residual,
)
from .sweep import SweepResult, SweepRow, sweep

__version__ = "0.1.0"
