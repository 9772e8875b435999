"""Fig. 12 — performance vs the number of interfering containers.

Sweeps the noise count 1…6, injecting Table IV containers in the paper's
order (#1, #2, #3, then incrementally #4, #5, #6), at priority 10 and
target NRMSE 0.01.  Expected shape: the cross-layer stays nearly flat
while storage-only adaptivity's mean and variance degrade with noise
intensity, widening the cross-layer's advantage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.sweep import run_summaries
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.workloads.noise import TABLE_IV_NOISE

__all__ = ["Fig12Result", "run_fig12"]


@dataclass(frozen=True)
class Fig12Row:
    policy: str
    noise_count: int
    mean_io_time: float
    std_io_time: float


@dataclass(frozen=True)
class Fig12Result:
    rows: tuple[Fig12Row, ...]

    def series(self, policy: str) -> tuple[list[int], list[float]]:
        rows = sorted(
            (r for r in self.rows if r.policy == policy), key=lambda r: r.noise_count
        )
        return [r.noise_count for r in rows], [r.mean_io_time for r in rows]

    def degradation(self, policy: str) -> float:
        """Mean-I/O-time growth factor from the fewest to the most noises."""
        _, means = self.series(policy)
        if not means or means[0] <= 0:
            return 1.0
        return means[-1] / means[0]

    def format_rows(self) -> str:
        return format_table(
            ["Policy", "# noises", "Mean I/O (s)", "Std (s)"],
            [
                (r.policy, r.noise_count, f"{r.mean_io_time:.2f}", f"{r.std_io_time:.2f}")
                for r in self.rows
            ],
            title="Fig 12: cross-layer vs noise intensity (NRMSE 0.01, p=10)",
        )


def run_fig12(
    *,
    policies: tuple[str, ...] = ("storage-only", "cross-layer"),
    noise_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
    replications: int = 3,
    max_steps: int = 60,
    seed: int = 0,
) -> Fig12Result:
    """The noise-intensity sweep."""
    for count in noise_counts:
        if not 1 <= count <= len(TABLE_IV_NOISE):
            raise ValueError(f"noise count must be in [1, {len(TABLE_IV_NOISE)}]")
    cells = [(policy, count) for policy in policies for count in noise_counts]
    configs = [
        ScenarioConfig(
            policy=policy,
            noise=TABLE_IV_NOISE[:count],
            prescribed_bound=0.01,
            priority=10.0,
            max_steps=max_steps,
            seed=seed + rep,
        )
        for policy, count in cells
        for rep in range(replications)
    ]
    summaries = run_summaries(configs)
    rows: list[Fig12Row] = []
    for i, (policy, count) in enumerate(cells):
        chunk = summaries[i * replications : (i + 1) * replications]
        rows.append(
            Fig12Row(
                policy=policy,
                noise_count=count,
                mean_io_time=float(np.mean([s.mean_io_time for s in chunk])),
                std_io_time=float(np.mean([s.std_io_time for s in chunk])),
            )
        )
    return Fig12Result(rows=tuple(rows))
