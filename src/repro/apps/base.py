"""Common interface for the evaluation analytics.

Each app can generate a synthetic stand-in field, analyse a field into a
dictionary of scalar outcomes, and score the *relative error of the
analysis outcome* between a reference field's outcomes and a reduced
representation's (the quantity Fig. 2 and Fig. 10 report).
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

__all__ = ["AnalyticsApp", "census_error"]


def census_error(ref: dict[str, float], got: dict[str, float]) -> float:
    """Mean relative error over a reference census's scalar outcomes.

    Outcomes that are zero in the reference count as 0 when the reduced
    census also has them at zero and 1 otherwise.
    """
    errors = []
    for key, ref_val in ref.items():
        approx_val = got[key]
        if ref_val != 0:
            errors.append(abs(approx_val - ref_val) / abs(ref_val))
        elif approx_val != 0:
            errors.append(1.0)
        else:
            errors.append(0.0)
    return float(np.mean(errors)) if errors else 0.0


class AnalyticsApp(abc.ABC):
    """One of the paper's data analytics (XGC / GenASiS / CFD)."""

    #: Short identifier used in experiment tables.
    name: str = "abstract"

    @abc.abstractmethod
    def generate(self, shape: tuple[int, int] = (256, 256), seed: int = 0) -> np.ndarray:
        """Produce a synthetic field with this app's characteristic features."""

    @abc.abstractmethod
    def analyze(self, field: np.ndarray) -> dict[str, float]:
        """Run the analytics, returning named scalar outcomes."""

    def analysis_key(self) -> tuple:
        """Identity of this app's analysis: class plus public tuning.

        Two apps with equal keys score every (reference, approx) pair
        identically, so memoized outcome errors are shared across them.
        Subclasses whose tuning is not held in hashable public attributes
        override this.
        """
        cls = type(self)
        params = sorted((k, v) for k, v in vars(self).items() if not k.startswith("_"))
        return (f"{cls.__module__}.{cls.__qualname__}", tuple(params))

    def reference_scorer(self, reference: np.ndarray) -> Callable[[np.ndarray], float]:
        """Bind everything :meth:`outcome_error` derives from ``reference``
        alone into a scorer of reduced fields.

        The default holds the reference's outcome census; apps whose
        error is not a census comparison override it.
        """
        ref = self.analyze(reference)
        return lambda approx: census_error(ref, self.analyze(approx))

    def outcome_error(
        self,
        reference: np.ndarray,
        approx: np.ndarray,
        *,
        scorers: dict[tuple, Callable[[np.ndarray], float]] | None = None,
    ) -> float:
        """Relative error of the analysis outcome of ``approx``.

        ``scorers`` caches :meth:`reference_scorer` results for this one
        ``reference``, keyed by :meth:`analysis_key`: the first call
        fills it, later calls skip the reference-side analysis.
        """
        if scorers is None:
            return self.reference_scorer(reference)(approx)
        key = self.analysis_key()
        scorer = scorers.get(key)
        if scorer is None:
            scorer = scorers[key] = self.reference_scorer(reference)
        return scorer(approx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
