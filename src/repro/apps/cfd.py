"""CFD high-pressure analysis (Section IV-A).

Examines the pressure near the front of a plane: the total area where the
pressure exceeds a threshold, and the total force (pressure integrated
over that area) — the two outcomes whose relative error the paper
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.base import AnalyticsApp, census_error
from repro.apps.synthetic import cfd_pressure_field

__all__ = ["PressureStats", "CFDPressureAnalysis"]


@dataclass(frozen=True)
class PressureStats:
    """High-pressure census: area in cells, integrated force, peak pressure."""

    high_pressure_area: float
    total_force: float
    peak_pressure: float

    def as_dict(self) -> dict[str, float]:
        return {
            "high_pressure_area": self.high_pressure_area,
            "total_force": self.total_force,
            "peak_pressure": self.peak_pressure,
        }


def pressure_analysis(
    field: np.ndarray,
    *,
    threshold: float | None = None,
    threshold_frac: float = 0.6,
    cell_area: float = 1.0,
) -> PressureStats:
    """High-pressure area and force over a 2-D pressure field.

    ``threshold`` fixes the absolute cut; otherwise it is
    ``ambient + threshold_frac × (max − ambient)`` with the ambient taken
    as the median — an absolute threshold (not re-derived from the reduced
    field's own max) so that reduced representations are scored on the
    same physical criterion as the original.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D or 3-D field, got shape {field.shape}")
    if threshold is None:
        ambient = float(np.median(field))
        threshold = ambient + threshold_frac * (float(field.max()) - ambient)
    mask = field >= threshold
    area = float(mask.sum()) * cell_area
    force = float(field[mask].sum()) * cell_area
    return PressureStats(
        high_pressure_area=area,
        total_force=force,
        peak_pressure=float(field.max()),
    )


class CFDPressureAnalysis(AnalyticsApp):
    """The CFD plane-front pressure analytics."""

    name = "cfd"

    def __init__(self, *, threshold_frac: float = 0.6) -> None:
        self.threshold_frac = float(threshold_frac)

    def generate(self, shape: tuple[int, int] = (256, 256), seed: int = 0) -> np.ndarray:
        return cfd_pressure_field(shape, seed)

    def analyze(self, field: np.ndarray, *, threshold: float | None = None) -> dict[str, float]:
        stats = pressure_analysis(
            field, threshold=threshold, threshold_frac=self.threshold_frac
        )
        return stats.as_dict()

    def reference_scorer(self, reference: np.ndarray) -> Callable[[np.ndarray], float]:
        """Relative error of area + force, with the threshold pinned to the
        reference field so both censuses use the same physical cut."""
        ref = np.asarray(reference, dtype=np.float64)
        ambient = float(np.median(ref))
        threshold = ambient + self.threshold_frac * (float(ref.max()) - ambient)
        census = self.analyze(ref, threshold=threshold)
        return lambda approx: census_error(census, self.analyze(approx, threshold=threshold))
