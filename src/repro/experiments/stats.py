"""Replication statistics: seed sweeps with confidence intervals.

The simulator is deterministic per seed; statistical claims come from
replicating a scenario over independent seeds.  ``replicate`` runs the
sweep and summarises any per-run metric with mean, std, standard error,
and a t-based 95 % confidence interval — the numbers behind every
"A beats B" statement in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from repro.engine.sweep import ScenarioSummary, run_summaries
from repro.experiments.config import ScenarioConfig

__all__ = ["ReplicationStats", "replicate", "compare"]


@dataclass(frozen=True)
class ReplicationStats:
    """Summary of one metric over seeded replications."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if self.n > 1 else 0.0

    @property
    def sem(self) -> float:
        return self.std / np.sqrt(self.n) if self.n > 1 else 0.0

    def ci95(self) -> tuple[float, float]:
        """Two-sided t-based 95 % confidence interval for the mean."""
        if self.n < 2 or self.std == 0.0:
            return (self.mean, self.mean)
        half = float(_scipy_stats.t.ppf(0.975, self.n - 1)) * self.sem
        return (self.mean - half, self.mean + half)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.ci95()
        return f"{self.mean:.2f} [{lo:.2f}, {hi:.2f}] (n={self.n})"


def replicate(
    config: ScenarioConfig,
    seeds: Sequence[int],
    metric: Callable[[ScenarioSummary], float] = lambda r: r.mean_io_time,
    *,
    outcome_error: bool = False,
) -> ReplicationStats:
    """Run ``config`` once per seed and summarise ``metric``.

    ``metric`` receives the run's :class:`ScenarioSummary`, so the sweep
    never holds more than one full result at a time; set
    ``outcome_error=True`` when the metric reads ``mean_outcome_error``.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    summaries = run_summaries(
        [config.with_(seed=s) for s in seeds], outcome_error=outcome_error
    )
    return ReplicationStats(values=tuple(float(metric(s)) for s in summaries))


def compare(
    config_a: ScenarioConfig,
    config_b: ScenarioConfig,
    seeds: Sequence[int],
    metric: Callable[[ScenarioSummary], float] = lambda r: r.mean_io_time,
    *,
    outcome_error: bool = False,
) -> dict[str, float]:
    """Paired seed-by-seed comparison of two configurations.

    The same seed gives both configurations the same interference
    alignment, so the paired differences isolate the configuration effect.
    Returns the paired mean difference (a − b), the win rate of ``a``
    (fraction of seeds where a's metric is lower), and the paired t-test
    p-value.
    """
    a = replicate(config_a, seeds, metric, outcome_error=outcome_error)
    b = replicate(config_b, seeds, metric, outcome_error=outcome_error)
    diffs = np.asarray(a.values) - np.asarray(b.values)
    if len(seeds) > 1 and diffs.std(ddof=1) > 0:
        _, p_value = _scipy_stats.ttest_rel(a.values, b.values)
    else:
        p_value = float("nan")
    return {
        "mean_diff": float(diffs.mean()),
        "win_rate_a": float(np.mean(diffs < 0)),
        "p_value": float(p_value),
    }
