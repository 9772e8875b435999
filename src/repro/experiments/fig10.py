"""Fig. 10 — data quality evaluated through the analysis results.

At a loose error bound (ε = 0.1 NRMSE), priority 10, and an extreme
decimation ratio (8192), compare the relative error of the analysis
outcome under: cross-layer, single-layer with application adaptivity,
and no augmentation at all (base from SSD only — the worst-quality
case).  Expected shape: cross-layer ≤ app-only < no augmentation,
because the cross-layer's storage support lets it retrieve more
augmentations for the same interference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps import ALL_APPS, make_app
from repro.core.refactor import decompose, levels_for_decimation, reconstruct_base_only
from repro.engine.sweep import run_summaries
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import run_scenario

__all__ = ["Fig10Result", "run_fig10"]

LOOSE_BOUND = 0.1
DECIMATION = 8192
#: Ladder used at the extreme decimation: rungs below and at the bound.
LADDER_BOUNDS = (0.2, 0.1, 0.05, 0.01)


@dataclass(frozen=True)
class Fig10Row:
    app: str
    scheme: str
    outcome_error: float
    mean_io_time: float


@dataclass(frozen=True)
class Fig10Result:
    rows: tuple[Fig10Row, ...]

    def cell(self, app: str, scheme: str) -> Fig10Row:
        for r in self.rows:
            if r.app == app and r.scheme == scheme:
                return r
        raise KeyError(f"no cell for app={app!r} scheme={scheme!r}")

    def format_rows(self) -> str:
        return format_table(
            ["App", "Scheme", "Outcome rel. err", "Mean I/O (s)"],
            [
                (r.app, r.scheme, f"{r.outcome_error:.4f}", f"{r.mean_io_time:.2f}")
                for r in self.rows
            ],
            title=f"Fig 10: analysis-outcome quality (eps={LOOSE_BOUND} NRMSE, "
            f"decimation {DECIMATION}, p=10)",
        )


@dataclass(frozen=True)
class GenasisQualityRow:
    scheme: str
    ssim: float
    dice: float


@dataclass(frozen=True)
class GenasisQualityResult:
    """SSIM + Dice of the GenASiS rendering per scheme (the two metrics
    Section IV-A names for GenASiS)."""

    rows: tuple[GenasisQualityRow, ...]

    def cell(self, scheme: str) -> GenasisQualityRow:
        for r in self.rows:
            if r.scheme == scheme:
                return r
        raise KeyError(f"no row for scheme {scheme!r}")

    def format_rows(self) -> str:
        return format_table(
            ["Scheme", "SSIM", "Dice"],
            [(r.scheme, f"{r.ssim:.4f}", f"{r.dice:.4f}") for r in self.rows],
            title=f"Fig 10 (GenASiS rendering quality, eps={LOOSE_BOUND} NRMSE, "
            f"decimation {DECIMATION})",
        )


def run_fig10_genasis_quality(
    *,
    max_steps: int = 40,
    seed: int = 0,
) -> GenasisQualityResult:
    """SSIM and Dice of the core-collapse rendering per retrieval scheme.

    The reduced representation each scheme ends up analysing is scored
    against the original with the paper's two GenASiS metrics.
    """
    from repro.apps.genasis import GenASiSRendering

    app = GenASiSRendering()
    field = app.generate(seed=seed)
    levels = levels_for_decimation(field.shape, DECIMATION)
    dec = decompose(field, levels)

    rows: list[GenasisQualityRow] = []
    base_only = reconstruct_base_only(dec)
    q = app.quality(field, base_only)
    rows.append(GenasisQualityRow(scheme="no-augmentation", ssim=q.ssim, dice=q.dice))

    for policy in ("app-only", "cross-layer"):
        cfg = ScenarioConfig(
            app="genasis",
            policy=policy,
            decimation_ratio=DECIMATION,
            error_bounds=LADDER_BOUNDS,
            prescribed_bound=LOOSE_BOUND,
            priority=10.0,
            max_steps=max_steps,
            seed=seed,
        )
        res = run_scenario(cfg)
        # Score the representation of the *median* step's rung: the
        # rendering a scientist typically sees during the campaign.
        rungs = sorted(r.target_rung for r in res.records)
        typical = rungs[len(rungs) // 2]
        approx = res.ladder.reconstruct(typical)
        q = res.app.quality(res.original, approx)
        rows.append(GenasisQualityRow(scheme=policy, ssim=q.ssim, dice=q.dice))
    return GenasisQualityResult(rows=tuple(rows))


POLICIES = ("app-only", "cross-layer")


def run_fig10(
    *,
    apps: tuple[str, ...] = ALL_APPS,
    replications: int = 2,
    max_steps: int = 60,
    seed: int = 0,
) -> Fig10Result:
    """Quality comparison: cross-layer vs app-only vs no augmentation."""
    cells = [(app_name, policy) for app_name in apps for policy in POLICIES]
    configs = [
        ScenarioConfig(
            app=app_name,
            policy=policy,
            decimation_ratio=DECIMATION,
            error_bounds=LADDER_BOUNDS,
            prescribed_bound=LOOSE_BOUND,
            priority=10.0,
            max_steps=max_steps,
            seed=seed + rep,
        )
        for app_name, policy in cells
        for rep in range(replications)
    ]
    summaries = run_summaries(configs, outcome_error=True)

    rows: list[Fig10Row] = []
    for app_name in apps:
        # No augmentation: reconstruct from the base representation only.
        app = make_app(app_name)
        field = app.generate(seed=seed)
        levels = levels_for_decimation(field.shape, DECIMATION)
        dec = decompose(field, levels)
        base_only = reconstruct_base_only(dec)
        rows.append(
            Fig10Row(
                app=app_name,
                scheme="no-augmentation",
                outcome_error=app.outcome_error(field, base_only),
                mean_io_time=0.0,
            )
        )
        for policy in POLICIES:
            i = cells.index((app_name, policy))
            chunk = summaries[i * replications : (i + 1) * replications]
            rows.append(
                Fig10Row(
                    app=app_name,
                    scheme=policy,
                    outcome_error=float(np.mean([s.mean_outcome_error for s in chunk])),
                    mean_io_time=float(np.mean([s.mean_io_time for s in chunk])),
                )
            )
    return Fig10Result(rows=tuple(rows))
