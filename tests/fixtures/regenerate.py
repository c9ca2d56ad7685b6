#!/usr/bin/env python3
"""Regenerate the committed channel fixtures.

Run from the repository root:  python3 tests/fixtures/regenerate.py
Seeds are pinned; regeneration must be a no-op unless the RNG policy changes.
"""

import math
from pathlib import Path

from isac_pareto.scenario import Scenario, preset_scenario, rician_channel, save_fixture

HERE = Path(__file__).parent

SPECS = {
    "scenario1.csv": preset_scenario("scenario1"),
    "scenario2.csv": preset_scenario("scenario2"),
    # well-conditioned diffuse channel for the large-power asymptotic checks
    "prop4_rank6.csv": Scenario(M=8, Nc=6, Ns=12, L=200, P=800.0, Kc=0.0, seed=39),
    "b_2x2.csv": Scenario(M=2, Nc=2, Ns=12, L=200, P=10.0, Kc=0.0, seed=4),
    "b_3x2.csv": Scenario(M=3, Nc=2, Ns=12, L=200, P=12.0, Kc=0.0, seed=0),
    "b_2x3.csv": Scenario(M=2, Nc=3, Ns=12, L=200, P=6.0, Kc=0.0, seed=7),
    "b_4x4.csv": Scenario(M=4, Nc=4, Ns=12, L=200, P=40.0, Kc=5.0, seed=6),
    "b_5x3.csv": Scenario(M=5, Nc=3, Ns=12, L=200, P=50.0, Kc=0.0, seed=0),
    "b_3x3.csv": Scenario(M=3, Nc=3, Ns=12, L=200, P=15.0, Kc=0.0, seed=3),
    # full rank but underpowered: water-filling dries the weakest channel
    "b_2x2_lowpower.csv": Scenario(M=2, Nc=2, Ns=12, L=200, P=10.0, Kc=0.0, seed=5),
    # oracle reproducers: full-rank channels where a coordinate-descent dual
    # search missed the solver's rate by more than 1e-5 ...
    "o_dual_6x7.csv": Scenario(M=6, Nc=7, Ns=12, L=200, P=0.4770038313421024, seed=530087412),
    "o_dual_5x7.csv": Scenario(M=5, Nc=7, Ns=12, L=200, P=0.8074895087827315, seed=2112124865),
    "o_dual_3x5.csv": Scenario(M=3, Nc=5, Ns=12, L=200, P=1.8680905310036566, seed=478371359),
    "o_dual_6x6.csv": Scenario(M=6, Nc=6, Ns=12, L=200, P=0.32594866609508893, seed=26076964),
    # ... and M = 3 channels where a pairwise-exchange primal polish stopped
    # more than 1e-4 short
    "o_primal_los_3x3.csv": Scenario(M=3, Nc=3, Ns=12, L=200, P=6.560643071707601,
                                     Kc=math.inf, seed=2180442),
    "o_primal_los_3x5.csv": Scenario(M=3, Nc=5, Ns=12, L=200, P=55.51251915633323,
                                     Kc=math.inf, seed=1671048924),
    "o_primal_3x2_a.csv": Scenario(M=3, Nc=2, Ns=12, L=200, P=3.729089099923998, seed=596836679),
    "o_primal_3x2_b.csv": Scenario(M=3, Nc=2, Ns=12, L=200, P=1.3869275933817704,
                                   seed=1424803591),
}


def main() -> None:
    for name, scenario in SPECS.items():
        channel = rician_channel(scenario)
        save_fixture(channel, HERE / name)
        print(f"{name}: {channel.shape[0]}x{channel.shape[1]} rank {channel.r}")


if __name__ == "__main__":
    main()
