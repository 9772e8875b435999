"""Controller stability suite: the controller family under reference inputs.

Classic control-theoretic probes expressed as fault campaigns on the
capacity tier's speed factor — a step, a ramp, and a square-wave
oscillation (``stability-step`` / ``stability-ramp`` / ``stability-osc``
in the FAULT_CAMPAIGNS registry).  Every controller in the CONTROLLERS
registry (or any subset) runs the same scenario under each input, and
its *prediction trace* is scored like a step response:

* **settling time** — seconds after the disturbance onset until the
  prediction stays within a ±5 % band of its final value;
* **overshoot** — how far the prediction swung past its final value,
  as a fraction of the commanded change (0 when it approached
  monotonically);
* **steady-state error** — relative gap between the predicted and
  measured bandwidth over the final fifth of the run;
* **SLO violations** — steps whose I/O time exceeded half the analytics
  period, the scenario's implicit deadline.

Cells are independent scenario runs and execute in order, in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import run_scenario
from repro.obs import OBS

__all__ = [
    "STABILITY_INPUTS",
    "StabilityRow",
    "StabilityResult",
    "run_stability",
]

#: Reference-input name → fault campaign realising it.
STABILITY_INPUTS = {
    "step": "stability-step",
    "ramp": "stability-ramp",
    "osc": "stability-osc",
}

#: Where each input's disturbance begins, as a fraction of the run
#: (matches the campaign definitions in :mod:`repro.faults.campaign`).
_ONSET_FRACTIONS = {"step": 0.35, "ramp": 0.30, "osc": 0.30}

#: Settling band: ±5 % of the trace's final value.
_SETTLE_BAND = 0.05

_EPS = 1e-12


@dataclass(frozen=True)
class StabilityRow:
    """One (controller, reference input) cell of the suite."""

    controller: str
    reference: str
    steps_completed: int
    #: Seconds from disturbance onset until the prediction trace stays
    #: within the settling band; NaN if it never settles.
    settling_time_s: float
    #: Peak excursion past the final value, relative to the commanded
    #: change (0.0 = no overshoot).
    overshoot: float
    #: |predicted − measured| / measured over the final fifth of the run.
    steady_state_error: float
    #: Steps whose I/O time exceeded half the analytics period.
    slo_violations: int
    mean_io_time: float


@dataclass(frozen=True)
class StabilityResult:
    """All cells of one stability-suite invocation."""

    rows: tuple[StabilityRow, ...]

    def cell(self, controller: str, reference: str) -> StabilityRow:
        for r in self.rows:
            if r.controller == controller and r.reference == reference:
                return r
        raise KeyError(f"no row for ({controller!r}, {reference!r})")

    def format_rows(self) -> str:
        def fmt(v: float) -> str:
            return "unsettled" if np.isnan(v) else f"{v:.0f}"

        return format_table(
            ["Controller", "Input", "Steps", "Settling (s)", "Overshoot",
             "SS error", "SLO misses", "Mean I/O (s)"],
            [
                (r.controller, r.reference, r.steps_completed,
                 fmt(r.settling_time_s), f"{r.overshoot:.2f}",
                 f"{r.steady_state_error:.2f}", r.slo_violations,
                 f"{r.mean_io_time:.2f}")
                for r in self.rows
            ],
            title="Controller stability suite (prediction-trace response "
            "to speed-factor reference inputs)",
        )


def _score_trace(
    predicted: np.ndarray,
    measured: np.ndarray,
    *,
    onset_fraction: float,
    period: float,
) -> tuple[float, float, float]:
    """(settling_time_s, overshoot, steady_state_error) for one trace."""
    pred = np.asarray(predicted, dtype=np.float64)
    n = len(pred)
    onset = int(round(onset_fraction * n))
    tail = max(3, n // 5)
    if n < 4 or onset >= n or onset < 1:
        return float("nan"), 0.0, float("nan")

    final = float(np.mean(pred[-tail:]))
    post = pred[onset:]

    # Settling: last index (post-onset) outside ±5 % of the final value.
    band = _SETTLE_BAND * max(abs(final), _EPS)
    outside = np.flatnonzero(np.abs(post - final) > band)
    if outside.size and outside[-1] == len(post) - 1:
        settling_s = float("nan")  # still outside the band at the end
    else:
        idx = int(outside[-1]) + 1 if outside.size else 0
        settling_s = idx * period

    # Overshoot: excursion past the final value, relative to the change
    # commanded by the disturbance (pre-onset mean → final).
    pre = float(np.mean(pred[:onset]))
    change = final - pre
    if abs(change) <= _EPS * max(abs(pre), 1.0):
        overshoot = 0.0
    elif change < 0:
        overshoot = max(0.0, (final - float(np.min(post))) / abs(change))
    else:
        overshoot = max(0.0, (float(np.max(post)) - final) / abs(change))

    meas_tail = float(np.mean(np.asarray(measured, dtype=np.float64)[-tail:]))
    ss_error = abs(float(np.mean(pred[-tail:])) - meas_tail) / max(meas_tail, _EPS)
    return settling_s, overshoot, ss_error


def _stability_cell(item: tuple[str, str, ScenarioConfig]) -> StabilityRow:
    """One suite cell: run the scenario and score its prediction trace."""
    controller, reference, cfg = item
    res = run_scenario(cfg)
    settling_s, overshoot, ss_error = _score_trace(
        res.predicted_bandwidths,
        res.measured_bandwidths,
        onset_fraction=_ONSET_FRACTIONS[reference],
        period=cfg.period,
    )
    io_times = res.io_times
    return StabilityRow(
        controller=controller,
        reference=reference,
        steps_completed=len(res.records),
        settling_time_s=settling_s,
        overshoot=overshoot,
        steady_state_error=ss_error,
        slo_violations=int(np.count_nonzero(io_times > 0.5 * cfg.period)),
        mean_io_time=float(io_times.mean()) if res.records else float("nan"),
    )


def run_stability(
    *,
    app: str = "xgc",
    policy: str = "cross-layer",
    controllers: tuple[str, ...] = ("tango", "pid", "mpc"),
    inputs: tuple[str, ...] = ("step", "ramp", "osc"),
    max_steps: int = 40,
    seed: int = 0,
) -> StabilityResult:
    """Score each controller's response to each reference input.

    Deterministic per seed: every cell shares the same seed, so all
    controllers see the same interference alignment and the same
    disturbance — the rows isolate the controller.
    """
    for ref in inputs:
        if ref not in STABILITY_INPUTS:
            raise ValueError(
                f"unknown stability input {ref!r}; "
                f"expected one of {tuple(STABILITY_INPUTS)}"
            )
    base = ScenarioConfig(app=app, policy=policy, max_steps=max_steps, seed=seed)
    items = [
        (ctrl, ref, base.with_(controller=ctrl, faults=STABILITY_INPUTS[ref]))
        for ctrl in controllers
        for ref in inputs
    ]
    rows = [_stability_cell(item) for item in items]

    if OBS.enabled:
        reg = OBS.registry
        for row in rows:
            labels = {"controller": row.controller, "reference": row.reference}
            reg.counter("stability.cells").inc(**labels)
            if not np.isnan(row.settling_time_s):
                reg.gauge("stability.settling_time_s").set(
                    row.settling_time_s, **labels
                )
            reg.gauge("stability.overshoot").set(row.overshoot, **labels)
            OBS.tracer.event(
                "stability.cell",
                controller=row.controller,
                reference=row.reference,
                settling_time_s=row.settling_time_s,
                overshoot=row.overshoot,
                steady_state_error=row.steady_state_error,
                slo_violations=row.slo_violations,
            )

    return StabilityResult(rows=tuple(rows))
