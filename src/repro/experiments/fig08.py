"""Fig. 8 — cross-layer vs single-layer, no error control.

Average I/O time and variation (std, the paper's error bars) for the
three analytics under the four adaptivity schemes, with the augmentation
driven purely by the estimated storage load.  Expected shape:
no-adaptivity worst (highest mean and variation), then storage-only,
then app-only, cross-layer best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps import ALL_APPS
from repro.core.controller import POLICY_NAMES
from repro.engine.sweep import run_summaries
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table

__all__ = ["PolicyAppResult", "Fig8Result", "run_fig08", "run_policy_grid"]


@dataclass(frozen=True)
class PolicyAppResult:
    app: str
    policy: str
    mean_io_time: float
    std_io_time: float
    mean_outcome_error: float
    mean_target_rung: float
    replications: int


@dataclass(frozen=True)
class Fig8Result:
    rows: tuple[PolicyAppResult, ...]
    error_control: bool

    def cell(self, app: str, policy: str) -> PolicyAppResult:
        for r in self.rows:
            if r.app == app and r.policy == policy:
                return r
        raise KeyError(f"no cell for app={app!r} policy={policy!r}")

    def improvement(self, app: str, policy: str, versus: str = "no-adaptivity") -> float:
        """Fractional mean-I/O-time improvement of ``policy`` over ``versus``."""
        base = self.cell(app, versus).mean_io_time
        if base <= 0:
            return 0.0
        return 1.0 - self.cell(app, policy).mean_io_time / base

    def format_rows(self) -> str:
        title = (
            "Fig 8: cross-layer vs single-layer (no error control)"
            if not self.error_control
            else "Fig 9: interference mitigation with error control"
        )
        return format_table(
            ["App", "Policy", "Mean I/O (s)", "Std (s)", "Outcome err", "Mean rung"],
            [
                (r.app, r.policy, f"{r.mean_io_time:.2f}", f"{r.std_io_time:.2f}",
                 f"{r.mean_outcome_error:.4f}", f"{r.mean_target_rung:.2f}")
                for r in self.rows
            ],
            title=title,
        )


def run_policy_grid(
    *,
    apps: tuple[str, ...] = ALL_APPS,
    policies: tuple[str, ...] = POLICY_NAMES,
    error_control: bool,
    base_config: ScenarioConfig | None = None,
    replications: int = 3,
    max_steps: int = 60,
) -> Fig8Result:
    """Run the (app × policy) grid with seeded replications."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    base = base_config if base_config is not None else ScenarioConfig()
    cells = [(app, policy) for app in apps for policy in policies]
    configs = [
        base.with_(
            app=app,
            policy=policy,
            error_control=error_control,
            max_steps=max_steps,
            seed=base.seed + rep,
        )
        for app, policy in cells
        for rep in range(replications)
    ]
    summaries = run_summaries(configs, outcome_error=True)
    rows: list[PolicyAppResult] = []
    for i, (app, policy) in enumerate(cells):
        chunk = summaries[i * replications : (i + 1) * replications]
        rows.append(
            PolicyAppResult(
                app=app,
                policy=policy,
                mean_io_time=float(np.mean([s.mean_io_time for s in chunk])),
                std_io_time=float(np.mean([s.std_io_time for s in chunk])),
                mean_outcome_error=float(np.mean([s.mean_outcome_error for s in chunk])),
                mean_target_rung=float(np.mean([s.mean_target_rung for s in chunk])),
                replications=replications,
            )
        )
    return Fig8Result(rows=tuple(rows), error_control=error_control)


def run_fig08(
    *,
    apps: tuple[str, ...] = ALL_APPS,
    replications: int = 3,
    max_steps: int = 60,
    seed: int = 0,
) -> Fig8Result:
    """The Fig. 8 grid: all policies × all apps, no error control."""
    base = ScenarioConfig(seed=seed)
    return run_policy_grid(
        apps=apps,
        error_control=False,
        base_config=base,
        replications=replications,
        max_steps=max_steps,
    )
