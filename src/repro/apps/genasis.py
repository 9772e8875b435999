"""GenASiS core-collapse rendering (Section IV-A).

The analytics renders the velocity magnitude to a normalised 2-D image
and scores the reduced representation against the original with SSIM and
Dice's coefficient (overlap of the high-velocity region — the shock
structure a scientist actually looks at in the rendering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.base import AnalyticsApp
from repro.apps.synthetic import genasis_velocity_field
from repro.core.metrics import dice_coefficient, ssim

__all__ = ["RenderQuality", "GenASiSRendering"]


@dataclass(frozen=True)
class RenderQuality:
    """Image-quality scores of a reduced rendering vs the original."""

    ssim: float
    dice: float


def render(field: np.ndarray) -> np.ndarray:
    """Normalise a field to [0, 1] — the greyscale rendering."""
    field = np.asarray(field, dtype=np.float64)
    lo, hi = float(field.min()), float(field.max())
    if hi == lo:
        return np.zeros_like(field)
    return (field - lo) / (hi - lo)


class GenASiSRendering(AnalyticsApp):
    """2-D rendering of the core-collapse velocity magnitude."""

    name = "genasis"

    def __init__(self, *, high_velocity_quantile: float = 0.85) -> None:
        if not 0.0 < high_velocity_quantile < 1.0:
            raise ValueError(
                f"high_velocity_quantile must be in (0, 1), got {high_velocity_quantile}"
            )
        self.high_velocity_quantile = float(high_velocity_quantile)

    def generate(self, shape: tuple[int, int] = (256, 256), seed: int = 0) -> np.ndarray:
        return genasis_velocity_field(shape, seed)

    def _high_velocity_mask(self, field: np.ndarray) -> np.ndarray:
        threshold = np.quantile(field, self.high_velocity_quantile)
        return np.asarray(field) >= threshold

    def analyze(self, field: np.ndarray) -> dict[str, float]:
        """Scalar summaries of the rendering (mean/max brightness, shock area)."""
        img = render(field)
        mask = self._high_velocity_mask(field)
        return {
            "mean_brightness": float(img.mean()),
            "high_velocity_area": float(mask.sum()),
            "peak_velocity": float(np.max(field)),
        }

    def quality(self, original: np.ndarray, approx: np.ndarray) -> RenderQuality:
        """SSIM of the renderings + Dice of the high-velocity regions."""
        img_a = render(original)
        img_b = render(approx)
        return RenderQuality(
            ssim=ssim(img_a, img_b),
            dice=dice_coefficient(
                self._high_velocity_mask(original), self._high_velocity_mask(approx)
            ),
        )

    def reference_scorer(self, reference: np.ndarray) -> Callable[[np.ndarray], float]:
        """1 − SSIM: the rendering's structural degradation as a relative error.

        A reduced field costs the two renderings and their SSIM, not the
        Dice masks that only :meth:`quality` reports.  Nothing derived
        from ``reference`` is held: its rendering and SSIM window moments
        would add three reference-sized arrays to every memo entry (about
        6 MB at 512x512) to save about a quarter of each score's time.
        """
        return lambda approx: 1.0 - ssim(render(reference), render(approx))
