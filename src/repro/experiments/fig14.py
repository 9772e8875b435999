"""Fig. 14 — impact of priority and error bound on cross-layer performance.

(a) priority ∈ {1, 5, 10} at a fixed ε = 0.01 — higher priority earns a
larger weight and thus lower I/O time (sub-linearly: doubling the weight
does not double the bandwidth share);
(b) error bound ∈ {1e-1 … 1e-4} at fixed p = 10 — tighter bounds mandate
more augmentation and thus higher I/O time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.sweep import run_summaries
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table

__all__ = ["Fig14Result", "run_fig14", "PRIORITIES", "ERROR_BOUNDS"]

PRIORITIES = (1.0, 5.0, 10.0)
ERROR_BOUNDS = (1e-1, 1e-2, 1e-3, 1e-4)
LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class Fig14Row:
    sweep: str  # "priority" or "bound"
    value: float
    mean_io_time: float
    std_io_time: float


@dataclass(frozen=True)
class Fig14Result:
    rows: tuple[Fig14Row, ...]

    def series(self, sweep: str) -> tuple[list[float], list[float]]:
        rows = [r for r in self.rows if r.sweep == sweep]
        return [r.value for r in rows], [r.mean_io_time for r in rows]

    def format_rows(self) -> str:
        return format_table(
            ["Sweep", "Value", "Mean I/O (s)", "Std (s)"],
            [
                (r.sweep, f"{r.value:g}", f"{r.mean_io_time:.2f}", f"{r.std_io_time:.2f}")
                for r in self.rows
            ],
            title="Fig 14: impact of priority (at eps=0.01) and error bound (at p=10)",
        )


def run_fig14(
    *,
    app: str = "xgc",
    replications: int = 3,
    max_steps: int = 60,
    seed: int = 0,
) -> Fig14Result:
    """Both sweeps of Fig. 14 under the cross-layer policy."""
    cells = [("priority", p, 0.01, p) for p in PRIORITIES]
    cells += [("bound", bound, bound, 10.0) for bound in ERROR_BOUNDS]
    # cells: (sweep label, swept value, prescribed bound, priority).
    configs = [
        ScenarioConfig(
            app=app,
            policy="cross-layer",
            # Deep decimation so every bound in the sweep demands a
            # different amount of augmentation I/O.
            decimation_ratio=256,
            error_bounds=LADDER,
            prescribed_bound=bound,
            priority=priority,
            max_steps=max_steps,
            seed=seed + rep,
        )
        for _, _, bound, priority in cells
        for rep in range(replications)
    ]
    summaries = run_summaries(configs)
    rows: list[Fig14Row] = []
    for i, (sweep, value, _, _) in enumerate(cells):
        chunk = summaries[i * replications : (i + 1) * replications]
        rows.append(
            Fig14Row(
                sweep=sweep,
                value=value,
                mean_io_time=float(np.mean([s.mean_io_time for s in chunk])),
                std_io_time=float(np.mean([s.std_io_time for s in chunk])),
            )
        )
    return Fig14Result(rows=tuple(rows))
